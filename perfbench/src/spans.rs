//! Traced-phase bookkeeping: the benchmark's own root spans around every
//! layer call, plus the spans the program already emits (decode stages,
//! server request stages, the remote client's fetch), drained from the
//! process-wide `stz_telemetry::trace::collector()` after each operation.
//!
//! A span's self time is its duration minus the part its children cover:
//! children in the same record are merged as intervals; children in a
//! linked record (the server half of a remote fetch, which has its own
//! time origin) are subtracted by duration.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stz_telemetry::trace::{self, TraceGuard, TraceRecord};

use crate::Report;

/// Records kept for the Chrome trace written when the run ends.
const KEEP_FOR_EXPORT: usize = 256;
static EXPORT: Mutex<Vec<TraceRecord>> = Mutex::new(Vec::new());

/// Open a benchmark root span named `<layer>.<operation>`.
pub fn root(name: &'static str) -> TraceGuard {
    trace::collector().start("bench", name, None)
}

#[derive(Default)]
struct Agg {
    self_ns: u64,
    dur_ns: u64,
    /// Records that contained this span name.
    records: u64,
}

/// Self-time totals of one traced phase.
#[derive(Default)]
pub struct Spans {
    by_name: BTreeMap<String, Agg>,
    by_layer: BTreeMap<&'static str, u64>,
    /// Operation roots: benchmark roots and remote-client roots.
    ops: u64,
    op_ns: u64,
    op_self_ns: u64,
    spans: u64,
}

impl Spans {
    /// Drain every completed trace. For remote fetches, first wait (up to
    /// 200 ms) until each client trace has its server half: the server
    /// offers its trace just after writing the reply.
    pub fn drain(&mut self) {
        let collector = trace::collector();
        let deadline = Instant::now() + Duration::from_millis(200);
        let records = loop {
            let snap = collector.snapshot();
            let linked = snap
                .iter()
                .filter(|r| r.kind == "client")
                .all(|c| snap.iter().any(|s| s.trace_id == c.trace_id && s.kind != "client"));
            if linked || Instant::now() > deadline {
                collector.clear();
                break snap;
            }
            std::thread::sleep(Duration::from_micros(20));
        };
        let mut groups: HashMap<u64, Vec<&TraceRecord>> = HashMap::new();
        for r in &records {
            groups.entry(r.trace_id).or_default().push(r);
        }
        for group in groups.values() {
            self.add_group(group);
        }
        let mut export = EXPORT.lock().expect("export lock poisoned");
        let room = KEEP_FOR_EXPORT.saturating_sub(export.len());
        export.extend(records.into_iter().take(room));
    }

    fn add_group(&mut self, group: &[&TraceRecord]) {
        for (ri, rec) in group.iter().enumerate() {
            let root = rec.root().map(|s| s.id);
            let mut seen_names: Vec<&str> = Vec::new();
            for span in &rec.spans {
                let mut own: Vec<(u64, u64)> = rec
                    .spans
                    .iter()
                    .filter(|c| c.parent == span.id && c.id != span.id)
                    .map(|c| (c.start_ns, c.start_ns + c.duration_ns))
                    .collect();
                let linked: u64 = group
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != ri)
                    .flat_map(|(_, o)| o.spans.iter())
                    .filter(|c| c.parent == span.id)
                    .map(|c| c.duration_ns)
                    .sum();
                let covered =
                    union_within(&mut own, span.start_ns, span.start_ns + span.duration_ns)
                        + linked;
                let self_ns = span.duration_ns.saturating_sub(covered);
                let name = span.name.as_str();
                let agg = self.by_name.entry(name.to_string()).or_default();
                agg.self_ns += self_ns;
                agg.dur_ns += span.duration_ns;
                if !seen_names.contains(&name) {
                    seen_names.push(name);
                    agg.records += 1;
                }
                *self.by_layer.entry(layer_of(&rec.kind, name)).or_default() += self_ns;
                self.spans += 1;
                if Some(span.id) == root && (rec.kind == "bench" || rec.kind == "client") {
                    self.ops += 1;
                    self.op_ns += span.duration_ns;
                    self.op_self_ns += self_ns;
                }
            }
        }
    }

    /// Mean self time of span `name` per record that contained it, in ms.
    fn self_ms(&self, name: &str) -> Option<f64> {
        let agg = self.by_name.get(name)?;
        Some(agg.self_ns as f64 / 1e6 / agg.records.max(1) as f64)
    }

    /// Publish the span-derived per-layer metrics.
    pub fn report(&self, rep: &mut Report) {
        let ops = self.ops.max(1) as f64;
        // Layers this phase never crossed are left for a probe to fill.
        for (layer, ns) in &self.by_layer {
            rep.set(&format!("self.{layer}_ms"), *ns as f64 / 1e6 / ops);
        }
        if self.op_ns > 0 {
            rep.set("trace.coverage_frac", 1.0 - self.op_self_ns as f64 / self.op_ns as f64);
        }
        rep.set("trace.spans_per_op", self.spans as f64 / ops);
        for (span, metric) in [
            ("entropy", "core.entropy_ms"),
            ("reconstruct", "core.reconstruct_ms"),
            ("level_decode", "core.glue_ms"),
            ("parse", "serve.parse_ms"),
            ("cache", "serve.cache_ms"),
            ("queue_wait", "serve.queue_wait_ms"),
            ("decode", "serve.decode_ms"),
            ("encode", "serve.encode_ms"),
            ("write", "serve.write_ms"),
            ("roundtrip", "serve.wire_ms"),
        ] {
            if let Some(v) = self.self_ms(span) {
                rep.set(metric, v);
            }
        }
        if let Some(agg) = self.by_name.get("level_decode").filter(|a| a.dur_ns > 0) {
            rep.set("core.unattributed_frac", agg.self_ns as f64 / agg.dur_ns as f64);
        }
    }
}

/// Length of the union of `intervals`, clipped to `lo..hi`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// The layer a span's self time belongs to.
fn layer_of(kind: &str, name: &str) -> &'static str {
    const CORE: [&str; 4] = ["level1", "level_decode", "entropy", "reconstruct"];
    match kind {
        "bench" => match name.split('.').next() {
            Some("sz3") => "sz3",
            Some("mutate") => "mutate",
            _ => "core",
        },
        "client" => "access",
        _ if CORE.contains(&name) => "core",
        // Server request records: parse, cache, decode, encode, write, and
        // the pool's queue wait inside the server's decode.
        _ => "serve",
    }
}

/// Write the kept records as Chrome trace-event JSON (Perfetto,
/// chrome://tracing) under `.bench_out/`.
pub fn write_chrome_trace(workload: &str, seed: u64) {
    let export = EXPORT.lock().expect("export lock poisoned");
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, trace::render_chrome_trace(&export)));
    match written {
        Ok(()) => eprintln!("perfbench: wrote {} ({} traces)", path.display(), export.len()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
