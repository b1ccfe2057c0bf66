//! `live_ingest`: one writer runs steps against a file-backed v3
//! container through `MutableContainer` — append two pre-compressed
//! entries, replace one recent entry, delete entries beyond a retention
//! window, commit (the program's default: fsync on every commit), and
//! compact whenever dead bytes exceed live bytes. After each commit the
//! same thread fetches Level(1) of the newest entry through an in-process
//! server that follows generation flips. Most work lands on stz-mutate and
//! fsync; the preview working set fits the server cache.
//!
//! End-to-end: `op` = one step from its first append until `commit`
//! returns, on steps without compaction; `mbps` = compressed MiB committed
//! per second spent inside stz-mutate calls; `preview` = the remote
//! Level(1) fetch.

use std::collections::BTreeMap;
use std::time::Instant;
use stz_access::{EntrySel, Fetch, RemoteStore, Store};
use stz_core::{StzArchive, StzCompressor};
use stz_mutate::{FileBacking, MutableContainer};
use stz_serve::{ServeOptions, Server, ServerHandle};
use stz_stream::PackEntry;

use crate::inputs::{self, check_bytes, Input};
use crate::spans::{self, Spans};
use crate::{alternate_tracing, median, ms_since, quantile, set_timing, Drift, Report, Run};

/// Entries kept live; older ones are deleted.
pub const RETAIN: usize = 24;
/// Pre-compressed archives the writer cycles through.
const POOL: usize = 4;
/// Server cache: holds every Level(1) preview of the live window.
pub const CACHE_BYTES: u64 = 64 << 20;
/// Steps at the start of a run whose exact counts are reported.
const COUNT_STEPS: usize = 48;
const CONTAINER: &str = "live";

struct Live {
    /// Field order is drop order: the client disconnects first.
    remote: RemoteStore,
    _server: ServerHandle,
    mc: MutableContainer<FileBacking>,
    pool: Vec<PackEntry<f32>>,
    /// Level(1) preview bytes of each pool archive: the read oracle.
    preview: Vec<Vec<u8>>,
    /// Pool index behind each live entry name.
    names: BTreeMap<u64, usize>,
    next: u64,
}

fn setup(run: &Run, fields: &[Input]) -> Live {
    let compressed: Vec<StzArchive<f32>> = fields
        .iter()
        .map(|input| match input {
            Input::F32(f) => StzCompressor::new(inputs::config(f)).compress(f).expect("compress"),
            Input::F64(_) => unreachable!("the ingest pool is f32"),
        })
        .collect();
    let preview = compressed
        .iter()
        .map(|a| inputs::le_bytes(&a.decompress_level(1).expect("level-1 decode")))
        .collect();
    let pool: Vec<PackEntry<f32>> = compressed.into_iter().map(PackEntry::from).collect();

    let path = run.dir.join(format!("{CONTAINER}.stzc"));
    let _ = std::fs::remove_file(&path);
    let mut mc = MutableContainer::open_path(&path).expect("create mutable container");
    let mut names = BTreeMap::new();
    for seq in 0..RETAIN as u64 {
        let p = seq as usize % POOL;
        mc.append(&format!("t{seq}"), &pool[p]).expect("prefill append");
        names.insert(seq, p);
    }
    mc.commit().expect("prefill commit");

    let server = Server::bind(ServeOptions {
        root: run.dir.clone(),
        addr: "127.0.0.1:0".into(),
        cache_bytes: CACHE_BYTES,
        threads: crate::served::SERVER_THREADS,
        ..ServeOptions::default()
    })
    .expect("bind loopback server")
    .spawn()
    .expect("spawn server");
    let remote =
        RemoteStore::connect(server.addr().to_string().as_str(), CONTAINER).expect("connect");
    Live { remote, _server: server, mc, pool, preview, names, next: RETAIN as u64 }
}

#[derive(Default)]
struct Samples {
    step_ms: Vec<f64>,
    stall_ms: Vec<f64>,
    preview_ms: Vec<f64>,
    append_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    /// Drift-corrected copies of `step_ms` and `preview_ms`.
    step_corr: Vec<f64>,
    preview_corr: Vec<f64>,
    /// Payload bytes committed and milliseconds inside stz-mutate calls,
    /// measured and drift-corrected.
    payload: u64,
    mutate_ms: f64,
    mutate_corr_ms: f64,
    space_amp: Vec<f64>,
    /// Exact counts over the first [`COUNT_STEPS`] steps.
    counted_payload: u64,
    counted_written: u64,
    reclaimed: Vec<f64>,
}

impl Live {
    /// Time one stz-mutate call, under a benchmark root when traced.
    fn mutate<R>(
        &mut self,
        traced: bool,
        name: &'static str,
        s: &mut Samples,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        let guard = traced.then(|| spans::root(name));
        let t = Instant::now();
        let r = f(self);
        let ms = ms_since(t);
        drop(guard);
        s.mutate_ms += ms;
        (r, ms)
    }

    /// One ingest step; `drift` is the correction factor in force.
    fn step(
        &mut self,
        traced: bool,
        drift: f64,
        counted: bool,
        s: &mut Samples,
    ) -> Result<(), String> {
        let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
        let len0 = self.mc.stats().committed_len;
        let mutate0 = s.mutate_ms;
        let start = Instant::now();
        let mut payload = 0u64;
        for _ in 0..2 {
            let (seq, p) = (self.next, self.next as usize % POOL);
            let (r, ms) = self.mutate(traced, "mutate.append", s, |l| {
                l.mc.append(&format!("t{seq}"), &l.pool[p])
            });
            r.map_err(|e| err("append", &e))?;
            s.append_ms.push(ms);
            payload += self.pool[p].compressed_len() as u64;
            self.names.insert(seq, p);
            self.next += 1;
        }
        // Replace the newest entry of the previous step with the next pool
        // archive.
        let (seq, p) = (self.next - 3, (self.next as usize + 1) % POOL);
        let (r, _) = self
            .mutate(traced, "mutate.replace", s, |l| l.mc.replace(&format!("t{seq}"), &l.pool[p]));
        r.map_err(|e| err("replace", &e))?;
        payload += self.pool[p].compressed_len() as u64;
        self.names.insert(seq, p);
        while self.names.len() > RETAIN {
            let (&oldest, _) = self.names.iter().next().expect("non-empty window");
            let (r, _) =
                self.mutate(traced, "mutate.delete", s, |l| l.mc.delete(&format!("t{oldest}")));
            r.map_err(|e| err("delete", &e))?;
            self.names.remove(&oldest);
        }
        let (r, ms) = self.mutate(traced, "mutate.commit", s, |l| l.mc.commit());
        r.map_err(|e| err("commit", &e))?;
        s.commit_ms.push(ms);
        let committed = self.mc.stats();
        let mut written = committed.committed_len - len0;
        s.payload += payload;

        if committed.dead_payload_bytes > committed.live_payload_bytes {
            let (r, ms) = self.mutate(traced, "mutate.compact", s, |l| l.mc.compact());
            let stats = r.map_err(|e| err("compact", &e))?;
            s.compact_ms.push(ms);
            s.stall_ms.push(ms_since(start));
            written += stats.after_bytes;
            if counted {
                s.reclaimed.push(stats.reclaimed_bytes as f64);
            }
        } else {
            let ms = ms_since(start);
            s.step_ms.push(ms);
            s.step_corr.push(ms * drift);
        }
        s.mutate_corr_ms += (s.mutate_ms - mutate0) * drift;
        let after = self.mc.stats();
        s.space_amp.push(after.committed_len as f64 / after.live_payload_bytes as f64);
        if counted {
            s.counted_payload += payload;
            s.counted_written += written;
        }

        // Read back the newest entry through the server.
        let newest = self.next - 1;
        self.remote.refresh().map_err(|e| err("refresh", &e))?;
        let entry = self
            .remote
            .open(&EntrySel::Name(format!("t{newest}")))
            .map_err(|e| err("open newest entry", &e))?;
        let t = Instant::now();
        let fetched = entry.fetch(&Fetch::Level(1)).map_err(|e| err("remote preview", &e))?;
        let ms = ms_since(t);
        s.preview_ms.push(ms);
        s.preview_corr.push(ms * drift);
        check_bytes(
            &format!("preview of t{newest}"),
            &fetched.data,
            &self.preview[self.names[&newest]],
        )
    }
}

fn steps(
    live: &mut Live,
    traced: bool,
    seconds: f64,
    s: &mut Samples,
    spans: &mut Spans,
    drift: &mut Drift,
    rep: &mut Report,
) {
    let start = Instant::now();
    let mut n = 0usize;
    while start.elapsed().as_secs_f64() < seconds || n < COUNT_STEPS {
        if n % 8 == 0 {
            drift.sample();
        }
        let outcome = live.step(traced, drift.now(), !traced && n < COUNT_STEPS, s);
        if traced {
            spans.drain();
        }
        rep.check(outcome);
        n += 1;
    }
}

pub fn run(run: &Run, rep: &mut Report) {
    let seed = run.seed.wrapping_mul(7).wrapping_add(200);
    // Two Nyx-like 128³ steps and two smaller, less compressible 64³ ones,
    // so the pool's aggregate ratio does not hinge on one generator.
    // Odd pool slots hold the newest entry of every step, whose preview is
    // read back: the 128³ ones, for a 32³ preview.
    let fields = vec![
        inputs::miranda(seed, run.scale * 2),
        inputs::nyx(seed + 1, run.scale),
        inputs::magrec(seed + 2, run.scale * 2),
        inputs::nyx(seed + 3, run.scale),
    ];
    let mut drift = Drift::default();
    let mut live = crate::repeated_setup(rep, &mut drift, || setup(run, &fields));
    let raw: usize = fields.iter().map(Input::nbytes).sum();
    let stored: usize = live.pool.iter().map(|p| p.compressed_len()).sum();
    let psnrs: Vec<f64> = fields
        .iter()
        .zip(&live.pool)
        .map(|(f, p)| match (f, p) {
            (Input::F32(f), PackEntry::Stz(a)) => {
                stz_data::metrics::psnr(f, &a.decompress().expect("decode"))
            }
            _ => unreachable!("the ingest pool holds STZ archives of f32 fields"),
        })
        .collect();

    let mut s = Samples::default();
    let mut spans = Spans::default();
    crate::alloc::reset_peak();
    let seconds = if run.traced { run.seconds * 0.5 } else { run.seconds };
    steps(&mut live, false, seconds, &mut s, &mut spans, &mut drift, rep);
    let peak = crate::alloc::peak_bytes();

    rep.set("peak_heap_mib", inputs::mib(peak as usize));
    rep.set("ratio", raw as f64 / stored as f64);
    rep.set("psnr_db", crate::mean(&psnrs));
    set_timing(rep, "op_p50_ms", median(&s.step_corr), median(&s.step_ms));
    set_timing(rep, "op_p90_ms", quantile(&s.step_corr, 0.9), quantile(&s.step_ms, 0.9));
    set_timing(rep, "preview_p50_ms", median(&s.preview_corr), median(&s.preview_ms));
    let mbps = |ms: f64| inputs::mib(s.payload as usize) / (ms / 1e3);
    set_timing(rep, "mbps", mbps(s.mutate_corr_ms), mbps(s.mutate_ms));
    rep.set("host.ref_ms", median(&drift.ref_ms));
    rep.set("mutate.append_ms", median(&s.append_ms));
    rep.set("mutate.commit_ms", median(&s.commit_ms));
    rep.set("mutate.compact_ms", median(&s.compact_ms));
    rep.set("mutate.compact_stall_ms", median(&s.stall_ms));
    rep.set("mutate.bytes_reclaimed", crate::mean(&s.reclaimed));
    rep.set("mutate.write_amp", s.counted_written as f64 / s.counted_payload as f64);
    rep.set("mutate.space_amp", crate::mean(&s.space_amp));

    if run.traced {
        let (mut traced, mut base) = (Samples::default(), Samples::default());
        alternate_tracing(run.seconds * 0.5, |on| {
            let s = if on { &mut traced } else { &mut base };
            steps(&mut live, true, 0.0, s, &mut spans, &mut drift, rep);
        });
        spans.report(rep);
        rep.set(
            "telemetry.trace_overhead_frac",
            median(&traced.step_ms) / median(&base.step_ms) - 1.0,
        );
    }
}
