//! The traced run: the same request lines replayed in-process through
//! each layer's public functions, in the daemon's order, with one span
//! per call. Spans stay in memory and are written out at the end. No
//! end-to-end metric comes from here.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use qpilot_circuit::Fingerprint;
use qpilot_core::wire::schedule_to_json;
use qpilot_core::{CompileOptions, Compiler};
use qpilot_service::protocol::{parse_request, render_compile_response, Request};
use qpilot_service::{CacheEntry, CompileRequest, ScheduleStore, Service, ServiceConfig};

use crate::checks;
use crate::stats::{mean, median};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Index of the request line this call served.
    pub request: usize,
    /// Bytes the call consumed or produced, where that is its work.
    pub bytes: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
            bytes: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span; returns its result and the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent, request);
        let out = std::hint::black_box(f());
        self.close(id);
        (out, id)
    }

    fn named(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_string();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Mean duration of the spans called `name` (0 when there are none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        mean(&self.named(name).map(Span::ms).collect::<Vec<_>>())
    }

    /// Bytes per second over every span called `name`, in MB/s.
    pub fn mb_per_s(&self, name: &str) -> f64 {
        let (bytes, secs) = self.named(name).fold((0usize, 0.0), |(b, t), s| {
            (b + s.bytes, t + s.end - s.start)
        });
        if secs > 0.0 {
            bytes as f64 / secs / 1e6
        } else {
            0.0
        }
    }

    /// Total self time per span name over the requests `timed` marks:
    /// duration minus the time its children cover. The miss path's
    /// layers, timed one by one under a `miss.breakdown` root after the
    /// request, are charged as children of that request's
    /// `pool.try_compile.miss`, whose self time is then the pool's own
    /// share. `store.open` (set-up) and `pool.fingerprint` (repeated
    /// inside try_compile) are left out.
    pub fn self_ms(&self, timed: &[bool]) -> BTreeMap<&'static str, f64> {
        let miss_span: BTreeMap<usize, usize> = (0..self.spans.len())
            .filter(|&id| self.spans[id].name == "pool.try_compile.miss")
            .map(|id| (self.spans[id].request, id))
            .collect();
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            let charged = if self.spans[p].name == "miss.breakdown" {
                miss_span.get(&s.request).copied()
            } else {
                Some(p)
            };
            if let Some(p) = charged {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ms) {
            let skipped = matches!(s.name, "miss.breakdown" | "store.open" | "pool.fingerprint");
            if !skipped && timed[s.request] {
                *out.entry(s.name).or_insert(0.0) += s.ms() - c;
            }
        }
        out
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent},\"request\":{},\"bytes\":{}}}",
                s.name, s.start, s.end, s.request, s.bytes
            )?;
        }
        out.flush()
    }
}

/// One compile request line, as the daemon served it.
pub struct Line<'a> {
    pub text: &'a str,
    /// Sent inside the timed window (else a fill, golden or refetch).
    pub timed: bool,
    /// Whether the client decoded the reply.
    pub decode: bool,
    /// The daemon's [`checks::reply_hash`] (`None` = failed).
    pub hash: Option<u64>,
}

/// What the replay needs from the end-to-end run.
pub struct Replay<'a> {
    /// Every compile request line in the order the daemon served it,
    /// from the fill (on `warm-fetch`, before the restart) to the last
    /// check.
    pub lines: Vec<Line<'a>>,
    /// The store directory the serving daemon started on.
    pub store: &'a Path,
    /// Scratch space for store copies.
    pub work: &'a Path,
    /// Mean end-to-end latency of the untraced run.
    pub e2e_mean_ms: f64,
    /// The daemon's cache counters after the timed run.
    pub hit_ratio: f64,
    pub evictions: u64,
}

/// Per-layer metrics, spans, and the replay's own check failures.
pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub failures: Vec<String>,
    pub tracer: Tracer,
    /// Per line: sent inside the timed window.
    pub timed: Vec<bool>,
}

/// Replaces `to` with a copy of the flat directory `from`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy: {e}"))?;
    }
    Ok(())
}

const STORE_OPEN_TRIALS: usize = 2;

/// The pool worker's miss path, called one layer at a time.
struct Worker {
    compiler: Compiler,
    store: ScheduleStore,
    /// Stage count of every schedule compiled here.
    stages: Vec<f64>,
}

impl Worker {
    /// Route, encode and persist `request` as the pool's worker does,
    /// one span per call under `parent`; returns the encoded schedule.
    fn breakdown(
        &mut self,
        tracer: &mut Tracer,
        request: &CompileRequest,
        fingerprint: Fingerprint,
        parent: usize,
        i: usize,
    ) -> Result<String, String> {
        let route_name = match request.router().as_str() {
            "generic" => "compile.route.generic",
            "qsim" => "compile.route.qsim",
            "qaoa" => "compile.route.qaoa",
            _ => "compile.route.qec",
        };
        self.compiler.set_options(CompileOptions {
            router_options: request.options,
            ..CompileOptions::new()
        });
        let config = request.config();
        let (routed, _) = tracer.time(route_name, Some(parent), i, || {
            self.compiler.compile(&request.workload, &config)
        });
        let program = routed
            .map_err(|e| format!("replay compile {i}: {e}"))?
            .into_program();
        self.stages.push(program.schedule().num_stages() as f64);
        let (json, id) = tracer.time("wire.encode", Some(parent), i, || {
            schedule_to_json(program.schedule())
        });
        tracer.spans[id].bytes = json.len();
        let entry = CacheEntry {
            schedule_json: Arc::from(json.as_str()),
            stats: *program.stats(),
            compile_s: 0.0,
        };
        tracer.time("store.persist", Some(parent), i, || {
            self.store.persist(fingerprint, &entry)
        });
        Ok(json)
    }
}

/// Replays every line, one span per layer call, and derives the
/// per-layer table.
pub fn replay(r: &Replay) -> Result<LayerReport, String> {
    let mut tracer = Tracer::new();
    let mut failures = Vec::new();

    // store.open on copies of the workload's store.
    let mut open_s = Vec::new();
    let mut recovered = 0;
    for trial in 0..STORE_OPEN_TRIALS {
        let copy = r.work.join("replay-open");
        copy_dir(r.store, &copy)?;
        let (opened, id) = tracer.time("store.open", None, trial, || ScheduleStore::open(&copy));
        let (_store, entries) = opened.map_err(|e| format!("store open: {e}"))?;
        recovered = entries.len();
        open_s.push(tracer.spans[id].ms() / 1e3);
    }

    // The replay starts where the workload's first daemon started: on an
    // empty store.
    let service_store = r.work.join("replay-service");
    let _ = std::fs::remove_dir_all(&service_store);
    let service = Service::try_new(ServiceConfig {
        store_dir: Some(service_store),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("replay service: {e}"))?;
    let persist_dir = r.work.join("replay-persist");
    let _ = std::fs::remove_dir_all(&persist_dir);
    let mut worker = Worker {
        compiler: Compiler::new(),
        store: ScheduleStore::open(&persist_dir)
            .map_err(|e| format!("persist store: {e}"))?
            .0,
        stages: Vec::new(),
    };

    let mut path_sums = Vec::new();
    let mut reply_bytes = Vec::new();
    let mut decode_ns_per_byte: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (i, line) in r.lines.iter().enumerate() {
        let root = tracer.open("request", None, i);
        let (parsed, parse_id) =
            tracer.time("protocol.parse", Some(root), i, || parse_request(line.text));
        tracer.spans[parse_id].bytes = line.text.len();
        let Ok(Request::Compile {
            request,
            include_schedule,
        }) = parsed
        else {
            return Err(format!("replay line {i} is not a compile request"));
        };
        // Timed on its own: the daemon computes it again inside
        // try_compile, so it is no part of the request's path here.
        let (fingerprint, _) = tracer.time("pool.fingerprint", None, i, || request.fingerprint());
        let (response, compile_id) = tracer.time("pool.try_compile", Some(root), i, || {
            service.try_compile(request.clone())
        });
        let response = response.map_err(|e| format!("replay line {i}: {e}"))?;
        tracer.spans[compile_id].name = if response.cache_hit {
            "pool.try_compile.hit"
        } else {
            "pool.try_compile.miss"
        };
        let (reply, render_id) = tracer.time("protocol.render", Some(root), i, || {
            render_compile_response(&response, include_schedule, "replay")
        });
        tracer.spans[render_id].bytes = reply.len();
        // The decoded document is dropped only after the root closes:
        // freeing it is no work a client's decode has to wait for.
        let decode = line
            .decode
            .then(|| tracer.time("wire.decode", Some(root), i, || checks::decode(&reply)));
        tracer.close(root);
        let mut on_path = tracer.spans[parse_id].ms()
            + tracer.spans[compile_id].ms()
            + tracer.spans[render_id].ms();
        if let Some((decoded, id)) = decode {
            tracer.spans[id].bytes = reply.len();
            let ms = tracer.spans[id].ms();
            on_path += ms;
            decode_ns_per_byte
                .entry(reply.len())
                .or_default()
                .push(ms * 1e6 / reply.len() as f64);
            if let Err(e) = decoded {
                failures.push(format!("replay decode {i}: {e}"));
            }
        }
        if line.timed {
            path_sums.push(on_path);
            reply_bytes.push(reply.len() as f64);
        }
        if Some(checks::reply_hash(&reply)) != line.hash {
            failures.push(format!(
                "replay line {i}: reply bytes differ from the daemon's"
            ));
        }

        if !response.cache_hit {
            let root = tracer.open("miss.breakdown", None, i);
            let json = worker.breakdown(&mut tracer, &request, fingerprint, root, i)?;
            tracer.close(root);
            if *response.entry.schedule_json != *json {
                failures.push(format!("replay line {i}: pool and pipeline bytes differ"));
            }
        }
    }

    // Decode cost per byte at the largest reply over the smallest.
    let linearity = match (
        decode_ns_per_byte.values().next(),
        decode_ns_per_byte.values().next_back(),
    ) {
        (Some(small), Some(large)) => median(large) / median(small),
        _ => 0.0,
    };
    let ms = |name: &str| tracer.mean_ms(name);
    let metrics = vec![
        ("protocol.parse_ms", ms("protocol.parse"), "ms"),
        (
            "protocol.parse_mb_per_s",
            tracer.mb_per_s("protocol.parse"),
            "MB/s",
        ),
        ("protocol.render_ms", ms("protocol.render"), "ms"),
        ("pool.fingerprint_ms", ms("pool.fingerprint"), "ms"),
        ("pool.try_compile_ms.hit", ms("pool.try_compile.hit"), "ms"),
        (
            "pool.try_compile_ms.miss",
            ms("pool.try_compile.miss"),
            "ms",
        ),
        ("cache.hit_ratio", r.hit_ratio, "ratio"),
        ("cache.evictions", r.evictions as f64, "count"),
        (
            "compile.route_ms.generic",
            ms("compile.route.generic"),
            "ms",
        ),
        ("compile.route_ms.qsim", ms("compile.route.qsim"), "ms"),
        ("compile.route_ms.qaoa", ms("compile.route.qaoa"), "ms"),
        ("compile.route_ms.qec", ms("compile.route.qec"), "ms"),
        ("compile.stages", mean(&worker.stages), "count"),
        ("wire.encode_ms", ms("wire.encode"), "ms"),
        (
            "wire.encode_mb_per_s",
            tracer.mb_per_s("wire.encode"),
            "MB/s",
        ),
        ("wire.decode_ms", ms("wire.decode"), "ms"),
        (
            "wire.decode_mb_per_s",
            tracer.mb_per_s("wire.decode"),
            "MB/s",
        ),
        ("wire.decode_linearity", linearity, "ratio"),
        ("wire.reply_kb", mean(&reply_bytes) / 1024.0, "KB"),
        ("store.persist_ms", ms("store.persist"), "ms"),
        ("store.open_s", median(&open_s), "s"),
        ("store.recovered", recovered as f64, "count"),
        (
            "transport.unattributed_ms",
            r.e2e_mean_ms - mean(&path_sums),
            "ms",
        ),
    ];
    Ok(LayerReport {
        metrics,
        failures,
        tracer,
        timed: r.lines.iter().map(|l| l.timed).collect(),
    })
}
