//! `codec_roundtrip`: serial STZ compress → decompress → level-1 preview
//! on three fields, with SZ3 interleaved on the same field and bound.
//! Nearly all work lands in stz-core, stz-codec, stz-sz3 and stz-simd;
//! none in stream, access, serve or mutate.
//!
//! End-to-end: `op` = one full `StzArchive::decompress`; `mbps` = field
//! MiB per second of compress + decompress; `preview` = in-process
//! `decompress_level(1)`.

use std::sync::Arc;
use std::time::Instant;
use stz_core::{StzArchive, StzCompressor};
use stz_field::{Field, Scalar};
use stz_simd::Lane;
use stz_sz3::Sz3Config;
use stz_telemetry::Histogram;

use crate::inputs::{self, check_bound, check_bytes, Input};
use crate::spans::{self, Spans};
use crate::{
    alloc, alternate_tracing, mean, median, quantile, set_timing, timed, Drift, Report, Run,
};

const PREVIEWS_PER_FIELD: usize = 4;

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Untraced,
    /// Alternate the scalar lane and auto dispatch (traced runs only).
    Lanes,
    Traced,
}

#[derive(Default)]
struct Samples {
    compress_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    preview_ms: Vec<f64>,
    sz3_compress_ms: Vec<f64>,
    sz3_decode_ms: Vec<f64>,
    /// Drift-corrected copies of the end-to-end samples.
    decode_corr: Vec<f64>,
    preview_corr: Vec<f64>,
    /// Field bytes and compress + decompress milliseconds, for `mbps`.
    roundtrip_bytes: usize,
    roundtrip_ms: f64,
    roundtrip_corr_ms: f64,
    decode_alloc_mib: Vec<f64>,
    decode_allocs: Vec<f64>,
    compress_alloc_mib: Vec<f64>,
    /// (scalar, auto) pairs of compress and decode times.
    lane_compress: Vec<(f64, f64)>,
    lane_decode: Vec<(f64, f64)>,
}

/// Per-field quality figures, fixed by the field and the bound.
#[derive(Default)]
struct Quality {
    raw_bytes: usize,
    stz_bytes: usize,
    sz3_bytes: usize,
    psnr: Vec<f64>,
    sz3_psnr: Vec<f64>,
}

trait Case {
    fn setup(&mut self);
    fn quality(&self, q: &mut Quality) -> Result<(), String>;
    /// One compress/decompress/preview/SZ3 step; `drift` is the
    /// correction factor in force.
    fn step(
        &self,
        phase: Phase,
        drift: f64,
        s: &mut Samples,
        spans: &mut Spans,
    ) -> Vec<Result<(), String>>;
}

struct FieldCase<T: Scalar> {
    name: &'static str,
    field: Field<T>,
    eb: f64,
    compressor: StzCompressor,
    /// Set-up's archive: every later compress must reproduce its bytes.
    reference: Option<StzArchive<T>>,
}

impl<T: Scalar> FieldCase<T> {
    fn new(name: &'static str, field: Field<T>) -> Self {
        let (eb, compressor) = (inputs::abs_eb(&field), StzCompressor::new(inputs::config(&field)));
        FieldCase { name, field, eb, compressor, reference: None }
    }

    fn reference(&self) -> &StzArchive<T> {
        self.reference.as_ref().expect("set-up ran")
    }

    fn compress(&self) -> StzArchive<T> {
        self.compressor.compress(&self.field).expect("compress a synthetic field")
    }
}

/// Time one call, optionally under a benchmark root span.
fn call<R>(traced: bool, name: &'static str, spans: &mut Spans, f: impl FnOnce() -> R) -> (R, f64) {
    let guard = traced.then(|| spans::root(name));
    let (r, ms) = timed(f);
    drop(guard);
    if traced {
        spans.drain();
    }
    (r, ms)
}

impl<T: Scalar> Case for FieldCase<T> {
    fn setup(&mut self) {
        self.reference = Some(self.compress());
    }

    fn quality(&self, q: &mut Quality) -> Result<(), String> {
        let recon = self.reference().decompress().map_err(|e| e.to_string())?;
        q.raw_bytes += self.field.nbytes();
        q.stz_bytes += self.reference().compressed_len();
        q.psnr.push(stz_data::metrics::psnr(&self.field, &recon));
        let sz3 = stz_sz3::compress(&self.field, &Sz3Config::absolute(self.eb));
        let sz3_recon: Field<T> = stz_sz3::decompress(&sz3).map_err(|e| e.to_string())?;
        q.sz3_bytes += sz3.len();
        q.sz3_psnr.push(stz_data::metrics::psnr(&self.field, &sz3_recon));
        Ok(())
    }

    fn step(
        &self,
        phase: Phase,
        drift: f64,
        s: &mut Samples,
        spans: &mut Spans,
    ) -> Vec<Result<(), String>> {
        let name = self.name;
        let want = self.reference().as_bytes();
        let mut checks = Vec::new();
        if phase == Phase::Lanes {
            let mut pair = |lane: Option<Lane>| {
                stz_simd::override_lane(lane);
                let (archive, c_ms) = call(false, "", spans, || self.compress());
                let (full, d_ms) = call(false, "", spans, || archive.decompress());
                stz_simd::override_lane(None);
                checks.push(check_bytes(
                    &format!("{name}: compress on lane {lane:?}"),
                    archive.as_bytes(),
                    want,
                ));
                checks.push(match full {
                    Ok(f) => check_bound(name, &self.field, &f, self.eb),
                    Err(e) => Err(format!("{name}: decompress: {e}")),
                });
                (c_ms, d_ms)
            };
            let (sc, sd) = pair(Some(Lane::Scalar));
            let (ac, ad) = pair(None);
            s.lane_compress.push((sc, ac));
            s.lane_decode.push((sd, ad));
            return checks;
        }
        let traced = phase == Phase::Traced;

        let a0 = alloc::totals();
        let (archive, c_ms) = call(traced, "core.compress", spans, || self.compress());
        let c_alloc = alloc::totals().since(a0);
        checks.push(check_bytes(
            &format!("{name}: compress is deterministic"),
            archive.as_bytes(),
            want,
        ));

        let a0 = alloc::totals();
        let (full, d_ms) = call(traced, "core.decompress", spans, || archive.decompress());
        let d_alloc = alloc::totals().since(a0);
        let full = match full {
            Ok(f) => f,
            Err(e) => {
                checks.push(Err(format!("{name}: decompress: {e}")));
                return checks;
            }
        };
        checks.push(check_bound(name, &self.field, &full, self.eb));

        // A sub-millisecond call: keep the best of a few back-to-back
        // previews, so one interrupt does not decide the sample.
        let mut best = f64::INFINITY;
        for _ in 0..PREVIEWS_PER_FIELD {
            let (preview, p_ms) =
                call(traced, "core.level1", spans, || archive.decompress_level(1));
            checks.push(match preview {
                Ok(p) if p == full.downsample(4) => Ok(()),
                Ok(_) => Err(format!("{name}: level-1 preview differs from the full decode")),
                Err(e) => Err(format!("{name}: level-1 preview: {e}")),
            });
            best = best.min(p_ms);
        }
        s.preview_ms.push(best);

        let cfg = Sz3Config::absolute(self.eb);
        let (sz3, sc_ms) =
            call(traced, "sz3.compress", spans, || stz_sz3::compress(&self.field, &cfg));
        let (sz3_full, sd_ms) =
            call(traced, "sz3.decompress", spans, || stz_sz3::decompress::<T>(&sz3));
        checks.push(match sz3_full {
            Ok(f) => check_bound(&format!("{name} (sz3)"), &self.field, &f, self.eb),
            Err(e) => Err(format!("{name}: sz3 decompress: {e}")),
        });

        s.compress_ms.push(c_ms);
        s.decode_ms.push(d_ms);
        s.sz3_compress_ms.push(sc_ms);
        s.sz3_decode_ms.push(sd_ms);
        if phase == Phase::Untraced {
            s.decode_corr.push(d_ms * drift);
            s.preview_corr.push(best * drift);
            s.roundtrip_bytes += self.field.nbytes();
            s.roundtrip_ms += c_ms + d_ms;
            s.roundtrip_corr_ms += (c_ms + d_ms) * drift;
            s.decode_alloc_mib.push(inputs::mib(d_alloc.bytes as usize));
            s.decode_allocs.push(d_alloc.calls as f64);
            s.compress_alloc_mib.push(inputs::mib(c_alloc.bytes as usize));
        }
        checks
    }
}

/// Rounds of all three fields until `seconds` pass (at least one).
fn rounds(
    cases: &[Box<dyn Case>],
    phase: Phase,
    seconds: f64,
    s: &mut Samples,
    spans: &mut Spans,
    drift: &mut Drift,
    rep: &mut Report,
) {
    let start = Instant::now();
    loop {
        for case in cases {
            drift.sample();
            for outcome in case.step(phase, drift.now(), s, spans) {
                rep.check(outcome);
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

pub fn run(run: &Run, rep: &mut Report) {
    let seed = run.seed.wrapping_mul(3);
    let mut cases: Vec<Box<dyn Case>> = Vec::new();
    for (name, input) in [
        ("nyx", inputs::nyx(seed, run.scale)),
        ("miranda", inputs::miranda(seed + 1, run.scale)),
        ("warpx", inputs::warpx(seed + 2, run.scale)),
    ] {
        cases.push(match input {
            Input::F32(f) => Box::new(FieldCase::new(name, f)),
            Input::F64(f) => Box::new(FieldCase::new(name, f)),
        });
    }
    let mut drift = Drift::default();
    crate::repeated_setup(rep, &mut drift, || {
        for c in cases.iter_mut() {
            c.setup();
        }
    });
    let mut q = Quality::default();
    for c in &cases {
        rep.check(c.quality(&mut q));
    }

    let reg = stz_telemetry::global();
    let quantize: Arc<Histogram> = reg.latency("stz_core_stage_ns", &[("stage", "quantize")]);
    let encode: Arc<Histogram> = reg.latency("stz_core_stage_ns", &[("stage", "encode")]);
    let (q0, e0) = (quantize.snapshot().sum, encode.snapshot().sum);

    let mut s = Samples::default();
    let mut spans = Spans::default();
    let untraced_s = if run.traced { run.seconds * 0.4 } else { run.seconds };
    alloc::reset_peak();
    rounds(&cases, Phase::Untraced, untraced_s, &mut s, &mut spans, &mut drift, rep);
    let peak = alloc::peak_bytes();
    let untraced_calls = s.compress_ms.len() as f64;
    let quantize_ms = (quantize.snapshot().sum - q0) as f64 / 1e6 / untraced_calls;
    let encode_ms = (encode.snapshot().sum - e0) as f64 / 1e6 / untraced_calls;

    rep.set("peak_heap_mib", inputs::mib(peak as usize));
    rep.set("ratio", q.raw_bytes as f64 / q.stz_bytes as f64);
    rep.set("psnr_db", mean(&q.psnr));
    set_timing(rep, "op_p50_ms", median(&s.decode_corr), median(&s.decode_ms));
    set_timing(rep, "op_p90_ms", quantile(&s.decode_corr, 0.9), quantile(&s.decode_ms, 0.9));
    set_timing(rep, "preview_p50_ms", median(&s.preview_corr), median(&s.preview_ms));
    let mbps = |ms: f64| inputs::mib(s.roundtrip_bytes) / (ms / 1e3);
    set_timing(rep, "mbps", mbps(s.roundtrip_corr_ms), mbps(s.roundtrip_ms));
    rep.set("host.ref_ms", median(&drift.ref_ms));

    rep.set("core.compress_ms", median(&s.compress_ms));
    rep.set("core.decode_ms", median(&s.decode_ms));
    rep.set("core.level1_ms", median(&s.preview_ms));
    // Allocation counts of one round (one call per field): they repeat
    // exactly for a given seed.
    let per_round = cases.len();
    rep.set("core.alloc_mib_per_decode", mean(&s.decode_alloc_mib[..per_round]));
    rep.set("core.allocs_per_decode", mean(&s.decode_allocs[..per_round]));
    rep.set("core.alloc_mib_per_compress", mean(&s.compress_alloc_mib[..per_round]));
    rep.set("core.stage_quantize_ms", quantize_ms);
    rep.set("core.stage_encode_ms", encode_ms);
    rep.set("sz3.compress_ms", median(&s.sz3_compress_ms));
    rep.set("sz3.decode_ms", median(&s.sz3_decode_ms));
    rep.set("sz3.ratio", q.raw_bytes as f64 / q.sz3_bytes as f64);
    rep.set("sz3.psnr_db", mean(&q.sz3_psnr));
    rep.set("core.decode_over_sz3", median(&s.decode_ms) / median(&s.sz3_decode_ms));
    rep.set("core.compress_over_sz3", median(&s.compress_ms) / median(&s.sz3_compress_ms));

    if run.traced {
        let mut lanes = Samples::default();
        rounds(&cases, Phase::Lanes, run.seconds * 0.2, &mut lanes, &mut spans, &mut drift, rep);
        let ratio = |pairs: &[(f64, f64)]| {
            median(&pairs.iter().map(|p| p.0).collect::<Vec<_>>())
                / median(&pairs.iter().map(|p| p.1).collect::<Vec<_>>())
        };
        rep.set("simd.compress_scalar_over_auto", ratio(&lanes.lane_compress));
        rep.set("simd.decode_scalar_over_auto", ratio(&lanes.lane_decode));

        let (mut traced, mut base) = (Samples::default(), Samples::default());
        alternate_tracing(run.seconds * 0.4, |on| {
            let s = if on { &mut traced } else { &mut base };
            rounds(&cases, Phase::Traced, 0.0, s, &mut spans, &mut drift, rep);
        });
        spans.report(rep);
        rep.set(
            "telemetry.trace_overhead_frac",
            median(&traced.decode_ms) / median(&base.decode_ms) - 1.0,
        );
    }
}
