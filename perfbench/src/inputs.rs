//! Seeded synthetic inputs and the oracles shared by every workload.

use stz_core::StzConfig;
use stz_field::{Dims, Field, Scalar};

/// Value-range-relative error bound of every compression (paper Table 3).
pub const REL_EB: f64 = 1e-3;

/// Tolerance on the absolute bound, as in the repository's own tests.
const EB_SLACK: f64 = 1.0 + 1e-9;

/// One synthetic field, in its native precision.
pub enum Input {
    F32(Field<f32>),
    F64(Field<f64>),
}

impl Input {
    pub fn dims(&self) -> Dims {
        match self {
            Input::F32(f) => f.dims(),
            Input::F64(f) => f.dims(),
        }
    }

    pub fn nbytes(&self) -> usize {
        match self {
            Input::F32(f) => f.nbytes(),
            Input::F64(f) => f.nbytes(),
        }
    }
}

/// The four dataset analogues at ≥128³-class sizes (8 or 16 MiB each);
/// `scale` divides every extent.
pub fn nyx(seed: u64, scale: usize) -> Input {
    let n = 128 / scale;
    Input::F32(stz_data::synth::nyx_like(Dims::d3(n, n, n), seed))
}

pub fn miranda(seed: u64, scale: usize) -> Input {
    let n = 128 / scale;
    Input::F32(stz_data::synth::miranda_like(Dims::d3(n, n, n), seed))
}

pub fn magrec(seed: u64, scale: usize) -> Input {
    let n = 128 / scale;
    Input::F32(stz_data::synth::magrec_like(Dims::d3(n, n, n), seed))
}

/// WarpX analogue: f64, so it exercises the widen/narrow path.
pub fn warpx(seed: u64, scale: usize) -> Input {
    Input::F64(stz_data::synth::warpx_like(Dims::d3(64 / scale, 64 / scale, 512 / scale), seed))
}

/// Absolute bound for `field` at [`REL_EB`] of its value range.
pub fn abs_eb<T: Scalar>(field: &Field<T>) -> f64 {
    let (lo, hi) = field.value_range();
    REL_EB * (hi - lo)
}

pub fn config<T: Scalar>(field: &Field<T>) -> StzConfig {
    StzConfig::three_level(abs_eb(field))
}

/// Little-endian bytes of a field: what every transport returns.
pub fn le_bytes<T: Scalar>(field: &Field<T>) -> Vec<u8> {
    let mut out = Vec::with_capacity(field.nbytes());
    for &v in field.as_slice() {
        v.write_exact(&mut out);
    }
    out
}

/// Oracle: `recon` has `orig`'s dims and is within `eb` everywhere.
pub fn check_bound<T: Scalar>(
    what: &str,
    orig: &Field<T>,
    recon: &Field<T>,
    eb: f64,
) -> Result<(), String> {
    if orig.dims() != recon.dims() {
        return Err(format!("{what}: dims {} != {}", recon.dims(), orig.dims()));
    }
    let err = stz_data::metrics::max_abs_error(orig, recon);
    if err <= eb * EB_SLACK {
        Ok(())
    } else {
        Err(format!("{what}: max error {err:e} exceeds bound {eb:e}"))
    }
}

/// Oracle: two byte strings are identical.
pub fn check_bytes(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {} bytes differ from the {} expected", got.len(), want.len()))
    }
}

pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}
