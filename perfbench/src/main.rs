//! STZ benchmark: one binary, three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload codec_roundtrip --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (see `perfbench/README.md` for why each exists),
//! checks every output against an oracle, and prints as its last stdout
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The benchmark times and counts calls into the public API
//! of the STZ crates from outside; it adds no instrumentation to them.

mod alloc;
mod codec;
mod inputs;
mod live;
mod served;
mod spans;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// End-to-end metrics, printed with `--trace 0`; every workload reports
/// all of them (see README for what "op" means per workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("mbps", "MiB/s"),
    ("preview_p50_ms", "ms"),
    ("ratio", "x"),
    ("psnr_db", "dB"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.compress_ms", "ms"),
    ("core.decode_ms", "ms"),
    ("core.alloc_mib_per_decode", "MiB"),
    ("core.allocs_per_decode", "count"),
    ("core.alloc_mib_per_compress", "MiB"),
    ("core.level1_ms", "ms"),
    ("core.level2_ms", "ms"),
    ("core.roi_ms", "ms"),
    ("core.entropy_ms", "ms"),
    ("core.reconstruct_ms", "ms"),
    ("core.glue_ms", "ms"),
    ("core.unattributed_frac", "frac"),
    ("core.stage_quantize_ms", "ms"),
    ("core.stage_encode_ms", "ms"),
    ("sz3.compress_ms", "ms"),
    ("sz3.decode_ms", "ms"),
    ("sz3.ratio", "x"),
    ("sz3.psnr_db", "dB"),
    ("core.decode_over_sz3", "x"),
    ("core.compress_over_sz3", "x"),
    ("simd.decode_scalar_over_auto", "x"),
    ("simd.compress_scalar_over_auto", "x"),
    ("stream.open_ms", "ms"),
    ("stream.bytes_read_per_roi", "bytes"),
    ("stream.reads_per_roi", "count"),
    ("stream.bytes_read_per_preview", "bytes"),
    ("stream.pack_mbps", "MiB/s"),
    ("access.file_over_mem.roi", "x"),
    ("access.file_over_mem.full", "x"),
    ("access.remote_over_file.preview", "x"),
    ("access.remote_over_file.roi", "x"),
    ("access.remote_over_file.full", "x"),
    ("serve.cache_hit_ratio", "frac"),
    ("serve.evictions", "count"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.server_mean_ms.preview", "ms"),
    ("serve.server_mean_ms.roi", "ms"),
    ("serve.server_mean_ms.full", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.response_bytes_per_full", "bytes"),
    ("serve.parse_ms", "ms"),
    ("serve.cache_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.write_ms", "ms"),
    ("mutate.append_ms", "ms"),
    ("mutate.commit_ms", "ms"),
    ("mutate.compact_ms", "ms"),
    ("mutate.compact_stall_ms", "ms"),
    ("mutate.bytes_reclaimed", "bytes"),
    ("mutate.write_amp", "x"),
    ("mutate.space_amp", "x"),
    ("self.core_ms", "ms"),
    ("self.sz3_ms", "ms"),
    ("self.access_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.mutate_ms", "ms"),
    ("trace.coverage_frac", "frac"),
    ("trace.spans_per_op", "count"),
    ("telemetry.trace_overhead_frac", "frac"),
    ("host.ref_ms", "ms"),
    ("raw.setup_s", "s"),
    ("raw.op_p50_ms", "ms"),
    ("raw.op_p90_ms", "ms"),
    ("raw.mbps", "MiB/s"),
    ("raw.preview_p50_ms", "ms"),
];

const WORKLOADS: &[&str] = &["codec_roundtrip", "served_reads", "live_ingest"];

/// Median time of [`ref_kernel`] on the reference host (2-core KVM Xeon,
/// AVX2). Drift-corrected timings are scaled by `REF_NOMINAL_MS / measured`.
pub const REF_NOMINAL_MS: f64 = 45.0;

/// Elements of each reference-kernel buffer: 40 MiB of f64, above glibc's
/// largest mmap threshold (32 MiB), so every call maps fresh pages no
/// matter what the program's heap looks like.
const REF_LEN: usize = 5 << 20;

/// Fixed memory-touching kernel that runs no repository code: fill a fresh
/// buffer, write a scaled copy into a second fresh one. Returns its time
/// in ms. Its memory is left out of the allocation counters.
pub fn ref_kernel() -> f64 {
    alloc::uncounted(|| {
        let t = Instant::now();
        let src: Vec<f64> = (0..REF_LEN).map(|i| i as f64).collect();
        let dst: Vec<f64> = src.iter().map(|v| v * 1.000_001 + 0.5).collect();
        std::hint::black_box(&dst);
        drop(src);
        drop(dst);
        ms_since(t)
    })
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run `f` and return its result with its wall time in ms.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, ms_since(t))
}

/// One run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Divides every input extent: 1 for measured runs, 2 for the short
    /// probes a traced run adds for layers its workload does not cross.
    pub scale: usize,
    /// Traced run: split the loop into untraced and traced phases and
    /// report per-layer metrics.
    pub traced: bool,
    /// Scratch directory inside the checkout.
    pub dir: PathBuf,
}

/// Set-ups repeated per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Metrics and oracle outcomes of one run.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record one checked operation; `Err` counts it as failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Host-drift correction: interleaved [`ref_kernel`] times of one run.
#[derive(Default)]
pub struct Drift {
    pub ref_ms: Vec<f64>,
}

impl Drift {
    pub fn sample(&mut self) {
        self.ref_ms.push(ref_kernel());
    }

    /// Correction factor for a sample taken now: `REF_NOMINAL_MS` over the
    /// median of the last three kernel times, so a slow stretch of the
    /// host inside a run corrects the samples it slowed. Multiply times by
    /// it.
    pub fn now(&self) -> f64 {
        let n = self.ref_ms.len();
        REF_NOMINAL_MS / median(&self.ref_ms[n.saturating_sub(3)..])
    }
}

/// Publish a drift-corrected timing and keep the measured one as
/// `raw.<name>`.
pub fn set_timing(rep: &mut Report, name: &str, corrected: f64, raw: f64) {
    rep.set(name, corrected);
    rep.set(&format!("raw.{name}"), raw);
}

/// The traced phase: alternate blocks of the same work with the program's
/// trace collector on and off until `seconds` pass, so the tracing
/// overhead is measured against interleaved untraced blocks rather than
/// an earlier phase. `block(on)` runs one block.
pub fn alternate_tracing(seconds: f64, mut block: impl FnMut(bool)) {
    let collector = stz_telemetry::trace::collector();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for on in [true, false] {
            collector.set_enabled(on);
            block(on);
        }
    }
    collector.set_enabled(false);
}

/// Linear-interpolated quantile (`q` in 0..=1); NaN on empty input.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Seeded splitmix64 generator: the benchmark's only source of input
/// randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0F57_2B3C_4D5E)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Run `f` [`SETUP_REPS`] times, each after a reference-kernel sample,
/// tearing down all but the last result (returned for the loop to use),
/// and publish the median wall time as `setup_s`.
pub fn repeated_setup<S>(rep: &mut Report, drift: &mut Drift, mut f: impl FnMut() -> S) -> S {
    let (mut raw, mut corrected) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        drift.sample();
        let t = Instant::now();
        let s = f();
        let secs = t.elapsed().as_secs_f64();
        raw.push(secs);
        corrected.push(secs * drift.now());
        last = Some(s);
    }
    set_timing(rep, "setup_s", median(&corrected), median(&raw));
    last.expect("at least one set-up")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse::<u64>().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args { workload, seed: num("--seed")?, seconds: seconds as f64, trace })
}

fn run_workload(name: &str, run: &Run, rep: &mut Report) {
    std::fs::create_dir_all(&run.dir).expect("create scratch directory");
    match name {
        "codec_roundtrip" => codec::run(run, rep),
        "served_reads" => served::run(run, rep),
        "live_ingest" => live::run(run, rep),
        _ => unreachable!("workload names are validated by parse_args"),
    }
    std::fs::remove_dir_all(&run.dir).expect("remove scratch directory");
}

/// Pin glibc's allocation policy for the workload's process model.
///
/// By default glibc raises its mmap threshold after the first large free,
/// so whether multi-MiB buffers come from fresh pages or recycled heap
/// depends on the process's allocation history: across seeds this made
/// decode time jump between two levels about 1.5x apart. Pinned, every run
/// of a workload allocates the same way:
///
/// - `cold` (a one-shot compress/decompress process): every buffer of
///   512 KiB or more is mapped fresh — the page-fault path the reference
///   kernel also takes. Smaller buffers are recycled, so a sub-millisecond
///   preview does not hinge on which side of the threshold its
///   seed-dependent buffer sizes fall;
/// - warm (a long-running server or writer): buffers below 32 MiB are
///   recycled from the heap and the heap is never trimmed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc(cold: bool) {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    let settings: &[(i32, i32)] = if cold {
        &[(M_MMAP_THRESHOLD, 512 << 10)]
    } else {
        &[(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, i32::MAX)]
    };
    for &(param, value) in settings {
        // SAFETY: mallopt only updates allocator parameters; it is called
        // before this process starts any thread.
        let ok = unsafe { mallopt(param, value) };
        assert_eq!(ok, 1, "mallopt({param}, {value}) failed");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc(_cold: bool) {}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    pin_malloc(args.workload == "codec_roundtrip");
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    // End-to-end metrics are measured with the program's tracing off; the
    // traced run switches it on for its traced phase only.
    stz_telemetry::trace::collector().set_enabled(false);

    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        scale: 1,
        traced: args.trace,
        dir: work.join("main"),
    };
    let mut rep = Report::default();
    run_workload(&args.workload, &run, &mut rep);

    if args.trace {
        // Every traced run reports every per-layer metric. Layers this
        // workload does not cross are measured by short, small probes of
        // the workloads that do; the workload's own values take precedence.
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            let probe = Run {
                seed: args.seed,
                seconds: 1.5,
                scale: 2,
                traced: true,
                dir: work.join(other),
            };
            let mut probe_rep = Report::default();
            run_workload(other, &probe, &mut probe_rep);
            rep.attempted += probe_rep.attempted;
            rep.failed += probe_rep.failed;
            rep.errors.extend(probe_rep.errors);
            for (k, v) in probe_rep.metrics {
                rep.metrics.entry(k).or_insert(v);
            }
        }
        spans::write_chrome_trace(&args.workload, args.seed);
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");

    for e in &rep.errors {
        eprintln!("perfbench: oracle failure: {e}");
    }
    for (name, value) in &rep.metrics {
        eprintln!("perfbench: {name} = {value}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let value = rep.metrics.get(*name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} was not measured ({value})");
            std::process::exit(1);
        }
        fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0,
        rep.attempted,
        rep.failed,
        fields.join(", ")
    );
}
