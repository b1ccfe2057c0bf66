//! `served_reads`: four ≥128³-class entries in one `.stzc`, served by an
//! in-process stz-serve (2 decode threads, cache budget well below the
//! decoded working set) to one `RemoteStore` client in a closed loop of
//! seeded analyst sessions: Level(1), Level(2), eight clustered ROI boxes,
//! and a full fetch every eighth session. Work lands on stz-serve,
//! stz-access, stz-stream and the core's progressive/ROI decode.
//!
//! End-to-end: `op` = one remote ROI fetch; `preview` = one remote
//! Level(1) fetch; `mbps` = response MiB per second spent fetching.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;
use std::time::Instant;
use stz_access::{Entry, EntrySel, Fetch, FileStore, MemStore, RemoteStore, Store};
use stz_core::{StzArchive, StzCompressor};
use stz_field::{Dims, Field, Region, Scalar};
use stz_serve::{Client, ServeOptions, Server, ServerHandle};
use stz_stream::{ContainerWriter, CountingSource, FileSource};
use stz_telemetry::Histogram;

use crate::inputs::{self, check_bytes, Input};
use crate::spans::{self, Spans};
use crate::{
    alternate_tracing, median, ms_since, quantile, set_timing, timed, Drift, Report, Rng, Run,
};

/// Decoded-block cache budget: 32 MiB over 8 shards, against a decoded
/// working set of 40 MiB of full fields plus previews and ROI boxes. A full
/// decode (8–16 MiB) exceeds a 4 MiB shard and is never cached, and the
/// ROI boxes churn the rest, while hot previews mostly stay: at 16 MiB the
/// level-2 previews evicted the level-1 ones so often that the level-1
/// median flipped between hit and miss latency from run to run.
pub const CACHE_BYTES: u64 = 32 << 20;
/// Server decode threads (the reference host's core count).
pub const SERVER_THREADS: usize = 2;
/// Sessions at the start of a run whose exact counts are reported.
const COUNT_SESSIONS: usize = 8;
const CONTAINER: &str = "served";

enum Arch {
    F32(StzArchive<f32>),
    F64(StzArchive<f64>),
}

fn decode_typed<T: Scalar>(a: &StzArchive<T>, fetch: &Fetch) -> Result<Vec<u8>, String> {
    let field: Field<T> = match fetch {
        Fetch::Full => a.decompress(),
        Fetch::Level(k) => a.decompress_level(*k),
        Fetch::Region(r) => a.decompress_region(r),
        other => return Err(format!("unexpected request {other:?}")),
    }
    .map_err(|e| e.to_string())?;
    Ok(inputs::le_bytes(&field))
}

impl Arch {
    fn compress(input: &Input) -> Arch {
        fn go<T: Scalar>(f: &Field<T>) -> StzArchive<T> {
            StzCompressor::new(inputs::config(f)).compress(f).expect("compress a synthetic field")
        }
        match input {
            Input::F32(f) => Arch::F32(go(f)),
            Input::F64(f) => Arch::F64(go(f)),
        }
    }

    /// In-process decode of one request: the oracle for every transport.
    fn decode(&self, fetch: &Fetch) -> Result<Vec<u8>, String> {
        match self {
            Arch::F32(a) => decode_typed(a, fetch),
            Arch::F64(a) => decode_typed(a, fetch),
        }
    }

    fn compressed_len(&self) -> usize {
        match self {
            Arch::F32(a) => a.compressed_len(),
            Arch::F64(a) => a.compressed_len(),
        }
    }
}

/// An entry's full decode, checked against its bound once. Every request
/// is answered from it: a region is a crop and a level-k preview the
/// stride-2^(3-k) subsample, both pinned as identities by the repository's
/// tests, so the oracle costs no decode per request.
enum Truth {
    F32(Field<f32>),
    F64(Field<f64>),
}

fn expect_typed<T: Scalar>(full: &Field<T>, fetch: &Fetch) -> Vec<u8> {
    match fetch {
        Fetch::Full => inputs::le_bytes(full),
        Fetch::Level(k) => inputs::le_bytes(&full.downsample(1 << (3 - *k))),
        Fetch::Region(r) => inputs::le_bytes(&full.extract_region(r)),
        other => unreachable!("sessions do not issue {other:?}"),
    }
}

impl Truth {
    /// Decode `arch`, check it against `input`'s bound and report its PSNR.
    fn new(input: &Input, arch: &Arch) -> (Result<Truth, String>, f64) {
        fn go<T: Scalar>(f: &Field<T>, a: &StzArchive<T>) -> (Result<Field<T>, String>, f64) {
            match a.decompress() {
                Ok(full) => {
                    let psnr = stz_data::metrics::psnr(f, &full);
                    (
                        inputs::check_bound("served entry", f, &full, inputs::abs_eb(f))
                            .map(|()| full),
                        psnr,
                    )
                }
                Err(e) => (Err(e.to_string()), f64::NAN),
            }
        }
        match (input, arch) {
            (Input::F32(f), Arch::F32(a)) => {
                let (r, p) = go(f, a);
                (r.map(Truth::F32), p)
            }
            (Input::F64(f), Arch::F64(a)) => {
                let (r, p) = go(f, a);
                (r.map(Truth::F64), p)
            }
            _ => unreachable!("archives are built from their own inputs"),
        }
    }

    fn expect(&self, fetch: &Fetch) -> Vec<u8> {
        match self {
            Truth::F32(f) => expect_typed(f, fetch),
            Truth::F64(f) => expect_typed(f, fetch),
        }
    }
}

/// The served container and its clients. Field order is drop order:
/// clients disconnect before the server stops.
struct Served {
    remote: Vec<Box<dyn Entry>>,
    file: FileStore<CountingSource<FileSource>>,
    file_entries: Vec<Box<dyn Entry>>,
    mem_entries: Vec<Box<dyn Entry>>,
    stats: Client,
    /// Kept for its drop, which stops the server.
    _server: ServerHandle,
    archives: Vec<Arch>,
    truths: Vec<Truth>,
    compress_ms: Vec<f64>,
    pack_mbps: f64,
    open_ms: f64,
}

fn setup(run: &Run, fields: &[(&'static str, Input)]) -> Served {
    let mut compress_ms = Vec::new();
    let archives: Vec<Arch> = fields
        .iter()
        .map(|(_, input)| {
            let (a, ms) = timed(|| Arch::compress(input));
            compress_ms.push(ms);
            a
        })
        .collect();

    let path = run.dir.join(format!("{CONTAINER}.stzc"));
    let t = Instant::now();
    let out = BufWriter::new(File::create(&path).expect("create container"));
    let mut writer = ContainerWriter::new(out).expect("container header");
    for ((name, _), arch) in fields.iter().zip(&archives) {
        match arch {
            Arch::F32(a) => writer.add_archive(name, a),
            Arch::F64(a) => writer.add_archive(name, a),
        }
        .expect("pack entry");
    }
    writer.finish().expect("finish container");
    let packed: usize = archives.iter().map(|a| a.compressed_len()).sum();
    let pack_mbps = inputs::mib(packed) / t.elapsed().as_secs_f64();

    let t = Instant::now();
    let source = CountingSource::new(FileSource::open(&path).expect("open container"));
    let file = FileStore::open_source(source, path.display().to_string()).expect("index container");
    let open_ms = ms_since(t);
    let mut mem = MemStore::new();
    for ((name, _), arch) in fields.iter().zip(&archives) {
        match arch {
            Arch::F32(a) => mem.add(name, a.clone()),
            Arch::F64(a) => mem.add(name, a.clone()),
        }
    }

    let server = Server::bind(ServeOptions {
        root: run.dir.clone(),
        addr: "127.0.0.1:0".into(),
        cache_bytes: CACHE_BYTES,
        threads: SERVER_THREADS,
        ..ServeOptions::default()
    })
    .expect("bind loopback server")
    .spawn()
    .expect("spawn server");
    let addr = server.addr();
    let store = RemoteStore::connect(addr.to_string().as_str(), CONTAINER).expect("connect");
    let open_all = |s: &dyn Store| -> Vec<Box<dyn Entry>> {
        (0..fields.len() as u32).map(|i| s.open(&EntrySel::Index(i)).expect("open entry")).collect()
    };
    let remote = open_all(&store);
    let file_entries = open_all(&file);
    let mem_entries = open_all(&mem);
    file.reader().source().reset();
    Served {
        remote,
        file,
        file_entries,
        mem_entries,
        stats: Client::connect(addr).expect("stats connection"),
        _server: server,
        archives,
        truths: Vec::new(),
        compress_ms,
        pack_mbps,
        open_ms,
    }
}

#[derive(Clone, Copy, PartialEq, PartialOrd, Eq, Ord)]
enum Kind {
    Preview,
    Level2,
    Roi,
    Full,
}

struct Req {
    entry: usize,
    kind: Kind,
    fetch: Fetch,
}

/// Entries of one block of sessions, skewed toward two hot entries
/// (40% / 30% / 15% / 15%). Each block is shuffled by the seed, so every
/// run keeps the same mix however many sessions it completes.
const ENTRY_BLOCK: [usize; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3];

fn entry_of(rng: &mut Rng, index: usize, block: &mut Vec<usize>) -> usize {
    if index % ENTRY_BLOCK.len() == 0 {
        *block = ENTRY_BLOCK.to_vec();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.range(0, i));
        }
    }
    block[index % ENTRY_BLOCK.len()]
}

/// One analyst session on `entry`: its two previews and eight ROI boxes of
/// 16³–48³ clustered around a seeded point; every eighth session adds a
/// full fetch.
fn session(rng: &mut Rng, index: usize, entry: usize, dims: &[Dims], scale: usize) -> Vec<Req> {
    let d = dims[entry];
    let extent = [d.nz(), d.ny(), d.nx()];
    let center: Vec<usize> = extent.iter().map(|&n| rng.range(0, n - 1)).collect();
    let mut reqs = vec![
        Req { entry, kind: Kind::Preview, fetch: Fetch::Level(1) },
        Req { entry, kind: Kind::Level2, fetch: Fetch::Level(2) },
    ];
    for _ in 0..8 {
        let r: Vec<std::ops::Range<usize>> = (0..3)
            .map(|a| {
                let side = rng.range(16 / scale, 48 / scale).min(extent[a]);
                let jitter = rng.range(0, 32 / scale) as isize - (16 / scale) as isize;
                let lo = (center[a] as isize + jitter - side as isize / 2)
                    .clamp(0, (extent[a] - side) as isize) as usize;
                lo..lo + side
            })
            .collect();
        let region = Region::d3(r[0].clone(), r[1].clone(), r[2].clone());
        reqs.push(Req { entry, kind: Kind::Roi, fetch: Fetch::Region(region) });
    }
    if index % 8 == 7 {
        // Full fetches rotate over the entries, largest (f64) first, so
        // every run pays for the same mix of full decodes.
        let entry = [2, 0, 1, 3][(index / 8) % 4];
        reqs.push(Req { entry, kind: Kind::Full, fetch: Fetch::Full });
    }
    reqs
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// Remote fetches only (every untraced run).
    Remote,
    /// Remote plus file and memory transports with counting reads.
    Transports,
    Traced,
}

#[derive(Default)]
struct Samples {
    remote_ms: BTreeMap<Kind, Vec<f64>>,
    /// Drift-corrected copies of `remote_ms` and `fetch_ms`.
    remote_corr: BTreeMap<Kind, Vec<f64>>,
    fetch_corr_ms: f64,
    core_ms: BTreeMap<Kind, Vec<f64>>,
    miss_ms: Vec<f64>,
    fetch_bytes: usize,
    fetch_ms: f64,
    /// Exact counts over the first [`COUNT_SESSIONS`] sessions.
    hits: u64,
    misses: u64,
    evictions: u64,
    full_bytes: Vec<f64>,
    read_bytes: BTreeMap<Kind, Vec<f64>>,
    read_calls: BTreeMap<Kind, Vec<f64>>,
    /// Per-request ratios between transports.
    file_over_mem: BTreeMap<Kind, Vec<f64>>,
    remote_over_file: BTreeMap<Kind, Vec<f64>>,
}

fn fetch_bytes(entry: &dyn Entry, fetch: &Fetch) -> Result<Vec<u8>, String> {
    entry.fetch(fetch).map(|f| f.data).map_err(|e| e.to_string())
}

impl Served {
    fn request(
        &mut self,
        req: &Req,
        phase: Phase,
        drift: f64,
        counted: bool,
        s: &mut Samples,
        spans: &mut Spans,
    ) -> Result<(), String> {
        let what = |t: &str| format!("{t} {:?} of entry {}", req.fetch, req.entry);
        let before = (phase != Phase::Traced)
            .then(|| self.stats.stats())
            .transpose()
            .map_err(|e| e.to_string())?;
        let (remote, remote_ms) = timed(|| fetch_bytes(&*self.remote[req.entry], &req.fetch));
        let remote = remote.map_err(|e| format!("{}: {e}", what("remote")))?;
        if phase == Phase::Traced {
            spans.drain();
        }
        if let Some(before) = before {
            let after = self.stats.stats().map_err(|e| e.to_string())?;
            let missed = after.cache_misses > before.cache_misses;
            if missed {
                s.miss_ms.push(remote_ms);
            }
            if counted {
                s.hits += after.cache_hits - before.cache_hits;
                s.misses += after.cache_misses - before.cache_misses;
                s.evictions += after.cache_evictions - before.cache_evictions;
                if req.kind == Kind::Full {
                    s.full_bytes.push(remote.len() as f64);
                }
            }
        }
        s.remote_ms.entry(req.kind).or_default().push(remote_ms);
        s.remote_corr.entry(req.kind).or_default().push(remote_ms * drift);
        s.fetch_bytes += remote.len();
        s.fetch_ms += remote_ms;
        s.fetch_corr_ms += remote_ms * drift;

        let want = self.truths[req.entry].expect(&req.fetch);
        check_bytes(&what("remote"), &remote, &want)?;
        if phase == Phase::Remote {
            return Ok(());
        }

        let guard = (phase == Phase::Traced).then(|| spans::root(core_span(req.kind)));
        let (local, core_ms) = timed(|| self.archives[req.entry].decode(&req.fetch));
        drop(guard);
        if phase == Phase::Traced {
            spans.drain();
        }
        s.core_ms.entry(req.kind).or_default().push(core_ms);
        check_bytes(&what("in-process"), &local?, &want)?;

        if phase == Phase::Transports {
            let source = self.file.reader().source();
            source.reset();
            let (file, file_ms) = timed(|| fetch_bytes(&*self.file_entries[req.entry], &req.fetch));
            if counted {
                s.read_bytes.entry(req.kind).or_default().push(source.bytes_read() as f64);
                s.read_calls.entry(req.kind).or_default().push(source.read_calls() as f64);
            }
            check_bytes(&what("file"), &file?, &want)?;
            let (mem, mem_ms) = timed(|| fetch_bytes(&*self.mem_entries[req.entry], &req.fetch));
            check_bytes(&what("memory"), &mem?, &want)?;
            s.file_over_mem.entry(req.kind).or_default().push(file_ms / mem_ms);
            s.remote_over_file.entry(req.kind).or_default().push(remote_ms / file_ms);
        }
        Ok(())
    }
}

fn core_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Preview => "core.level1",
        Kind::Level2 => "core.level2",
        Kind::Roi => "core.roi",
        Kind::Full => "core.decompress",
    }
}

/// Sessions until `seconds` pass (and at least the counted prefix).
#[allow(clippy::too_many_arguments)]
fn sessions(
    served: &mut Served,
    run: &Run,
    dims: &[Dims],
    rng: &mut Rng,
    next: &mut usize,
    phase: Phase,
    seconds: f64,
    s: &mut Samples,
    spans: &mut Spans,
    drift: &mut Drift,
    rep: &mut Report,
) {
    let start = Instant::now();
    let first = *next;
    let mut block = Vec::new();
    while start.elapsed().as_secs_f64() < seconds || *next - first < COUNT_SESSIONS {
        drift.sample();
        let counted = *next - first < COUNT_SESSIONS;
        let entry = entry_of(rng, *next - first, &mut block);
        for req in session(rng, *next, entry, dims, run.scale) {
            rep.check(served.request(&req, phase, drift.now(), counted, s, spans));
        }
        *next += 1;
    }
}

fn server_sum_count(kind: &str) -> (u64, u64) {
    let h: Arc<Histogram> =
        stz_telemetry::global().latency("stzp_request_latency_ns", &[("kind", kind)]);
    let snap = h.snapshot();
    (snap.sum, snap.count())
}

pub fn run(run: &Run, rep: &mut Report) {
    let seed = run.seed.wrapping_mul(5).wrapping_add(100);
    let fields = [
        ("nyx", inputs::nyx(seed, run.scale)),
        ("miranda", inputs::miranda(seed + 1, run.scale)),
        ("warpx", inputs::warpx(seed + 2, run.scale)),
        ("magrec", inputs::magrec(seed + 3, run.scale)),
    ];
    let dims: Vec<Dims> = fields.iter().map(|(_, f)| f.dims()).collect();
    let mut drift = Drift::default();
    let mut served = crate::repeated_setup(rep, &mut drift, || setup(run, &fields));
    let raw_bytes: usize = fields.iter().map(|(_, f)| f.nbytes()).sum();
    let stored: usize = served.archives.iter().map(|a| a.compressed_len()).sum();
    let mut psnrs = Vec::new();
    for ((_, input), arch) in fields.iter().zip(&served.archives) {
        let (truth, psnr) = Truth::new(input, arch);
        psnrs.push(psnr);
        match truth {
            Ok(t) => served.truths.push(t),
            Err(e) => {
                rep.check(Err(e));
                return;
            }
        }
    }

    let mut rng = Rng::new(seed);
    let mut next = 0usize;
    let mut spans = Spans::default();
    let mut s = Samples::default();
    let server_before: Vec<(u64, u64)> =
        ["progressive", "roi", "full"].iter().map(|k| server_sum_count(k)).collect();
    crate::alloc::reset_peak();
    let (phase, seconds) = if run.traced {
        (Phase::Transports, run.seconds * 0.5)
    } else {
        (Phase::Remote, run.seconds)
    };
    sessions(
        &mut served,
        run,
        &dims,
        &mut rng,
        &mut next,
        phase,
        seconds,
        &mut s,
        &mut spans,
        &mut drift,
        rep,
    );
    let peak = crate::alloc::peak_bytes();

    let kind = |m: &BTreeMap<Kind, Vec<f64>>, k: Kind| m.get(&k).cloned().unwrap_or_default();
    let roi = kind(&s.remote_ms, Kind::Roi);
    rep.set("peak_heap_mib", inputs::mib(peak as usize));
    rep.set("ratio", raw_bytes as f64 / stored as f64);
    rep.set("psnr_db", crate::mean(&psnrs));
    let roi_corr = kind(&s.remote_corr, Kind::Roi);
    set_timing(rep, "op_p50_ms", median(&roi_corr), median(&roi));
    set_timing(rep, "op_p90_ms", quantile(&roi_corr, 0.9), quantile(&roi, 0.9));
    let preview = |m: &BTreeMap<Kind, Vec<f64>>| median(&kind(m, Kind::Preview));
    set_timing(rep, "preview_p50_ms", preview(&s.remote_corr), preview(&s.remote_ms));
    let mbps = |ms: f64| inputs::mib(s.fetch_bytes) / (ms / 1e3);
    set_timing(rep, "mbps", mbps(s.fetch_corr_ms), mbps(s.fetch_ms));
    rep.set("host.ref_ms", median(&drift.ref_ms));

    rep.set("core.compress_ms", median(&served.compress_ms));
    rep.set("core.decode_ms", median(&kind(&s.core_ms, Kind::Full)));
    rep.set("core.level1_ms", median(&kind(&s.core_ms, Kind::Preview)));
    rep.set("core.level2_ms", median(&kind(&s.core_ms, Kind::Level2)));
    rep.set("core.roi_ms", median(&kind(&s.core_ms, Kind::Roi)));
    rep.set("stream.open_ms", served.open_ms);
    rep.set("stream.pack_mbps", served.pack_mbps);
    rep.set("serve.cache_hit_ratio", s.hits as f64 / (s.hits + s.misses).max(1) as f64);
    rep.set("serve.evictions", s.evictions as f64);
    rep.set("serve.miss_p50_ms", median(&s.miss_ms));
    rep.set("serve.response_bytes_per_full", crate::mean(&s.full_bytes));
    for ((label, metric), (sum0, count0)) in ["progressive", "roi", "full"]
        .iter()
        .zip([
            "serve.server_mean_ms.preview",
            "serve.server_mean_ms.roi",
            "serve.server_mean_ms.full",
        ])
        .zip(server_before)
    {
        let (sum, count) = server_sum_count(label);
        rep.set(metric, (sum - sum0) as f64 / 1e6 / (count - count0).max(1) as f64);
    }

    if run.traced {
        rep.set("stream.bytes_read_per_roi", crate::mean(&kind(&s.read_bytes, Kind::Roi)));
        rep.set("stream.reads_per_roi", crate::mean(&kind(&s.read_calls, Kind::Roi)));
        rep.set("stream.bytes_read_per_preview", crate::mean(&kind(&s.read_bytes, Kind::Preview)));
        for (k, label) in [(Kind::Roi, "roi"), (Kind::Full, "full")] {
            rep.set(&format!("access.file_over_mem.{label}"), median(&kind(&s.file_over_mem, k)));
        }
        for (k, label) in [(Kind::Preview, "preview"), (Kind::Roi, "roi"), (Kind::Full, "full")] {
            rep.set(
                &format!("access.remote_over_file.{label}"),
                median(&kind(&s.remote_over_file, k)),
            );
        }
        let (mut traced, mut base) = (Samples::default(), Samples::default());
        alternate_tracing(run.seconds * 0.5, |on| {
            let s = if on { &mut traced } else { &mut base };
            let (rng, next) = (&mut rng, &mut next);
            sessions(
                &mut served,
                run,
                &dims,
                rng,
                next,
                Phase::Traced,
                0.0,
                s,
                &mut spans,
                &mut drift,
                rep,
            );
        });
        spans.report(rep);
        let roi_of = |s: &Samples| median(&kind(&s.remote_ms, Kind::Roi));
        rep.set("telemetry.trace_overhead_frac", roi_of(&traced) / roi_of(&base) - 1.0);
    }
}
