//! Socket-to-socket benchmark of `qpilotd`.
//!
//! ```text
//! qpilot-e2ebench --daemon PATH --workload cold-sweep|warm-fetch
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A single-process load generator drives a real `qpilotd` subprocess
//! over loopback TCP; the daemon runs with its default flags plus a
//! listen address and a store directory. With `--trace 0` the run
//! prints the end-to-end metrics; with `--trace 1` it runs the same
//! load, then replays the same request lines in-process through each
//! layer's public functions and prints the per-layer metrics. The last
//! stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//!
//! Scratch files live under `.bench_work/` in the working directory;
//! trace spans are kept in `.bench_work/traces/`.

mod checks;
mod daemon;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use daemon::{Conn, Daemon};
use stats::{geomean, median};
use workload::{Req, SWEEP_CYCLE};

/// Daemon starts per run: at least `SETUP_MIN_STARTS`, and more while
/// the starts have taken under `SETUP_MIN_SECONDS` (up to
/// `SETUP_MAX_STARTS`), so a fast start on an empty store is sampled
/// often. `setup_s` is their median; the last one serves the load.
const SETUP_MIN_STARTS: usize = 3;
const SETUP_MAX_STARTS: usize = 41;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// `cold-sweep` request pool, in sweep cycles per second of the run:
/// about twice what the fastest runs send.
const SWEEP_CYCLES_PER_S: f64 = 60.0;
/// `cold-sweep` cycles whose depths make up `rydberg_depth_geomean`, so
/// the quality metric does not depend on how many requests a run sent.
const DEPTH_PANEL_CYCLES: usize = 20;
/// Most recent `cold-sweep` requests fetched again, with their
/// schedules, after the timed window (all still cached).
const REFETCH: usize = 16;
/// Timed requests the traced run replays at most: the last ones, whole
/// mix cycles (100 `cold-sweep` cycles; every `warm-fetch` request).
/// Replaying a miss costs about twice what serving it did, so this keeps
/// a traced run's length from growing with the window at twice its rate.
const REPLAY_TIMED: usize = 100 * SWEEP_CYCLE;
/// Equal windows a closed-loop run is split into for its throughput
/// (`warm-fetch` sends too few requests: 1).
const WINDOWS: usize = 9;

struct Args {
    daemon: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .map(|i| {
                argv.get(i + 1)
                    .cloned()
                    .ok_or(format!("{name} needs a value"))
            })
            .transpose()
    };
    let num = |name: &str, default: f64| -> Result<f64, String> {
        value(name)?.map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{name}: not a number: {v}"))
        })
    };
    let args = Args {
        daemon: PathBuf::from(value("--daemon")?.ok_or("--daemon PATH is required")?),
        workload: value("--workload")?.ok_or("--workload NAME is required")?,
        seed: value("--seed")?.map_or(Ok(1), |v| {
            v.parse()
                .map_err(|_| format!("--seed: not a whole number: {v}"))
        })?,
        seconds: num("--seconds", 10.0)?,
        trace: num("--trace", 0.0)? != 0.0,
    };
    if !["cold-sweep", "warm-fetch"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One compile request the daemon served, in the order it served them,
/// for the traced replay.
struct Served {
    /// Index into the workload's request pool.
    req: usize,
    /// Sent inside the timed window (else a fill, golden or refetch).
    timed: bool,
    /// Whether the client decoded the reply.
    decoded: bool,
    /// [`checks::reply_hash`] of the reply; `None` = failed.
    hash: Option<u64>,
}

/// Everything one run measured and checked.
#[derive(Default)]
struct Run {
    /// Timed requests sent.
    attempted: usize,
    /// One entry per failed operation (request or check).
    failures: Vec<String>,
    /// Seconds per timed request; `None` = failed or refused.
    latencies: Vec<Option<f64>>,
    /// Each timed request's position in the workload's mix cycle.
    kinds: Vec<usize>,
    /// When each timed request started, seconds into the window.
    starts: Vec<f64>,
    /// Timed requests completed, and the window they completed in.
    completed: usize,
    window_s: f64,
    setup_s: Vec<f64>,
    depths: Vec<f64>,
    rss_mb: f64,
    served: Vec<Served>,
    hit_ratio: f64,
    evictions: u64,
}

/// A scratch directory under `.bench_work/`, removed on drop.
struct Work(PathBuf);

impl Work {
    fn new(args: &Args) -> Result<Work, String> {
        let dir = Path::new(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(Work(dir))
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Starts the daemon on `store` repeatedly (see [`SETUP_MIN_STARTS`])
/// and returns the last one with every set-up time. `fresh` empties the
/// store before each start (the cold workload's store starts empty).
fn start(
    args: &Args,
    work: &Path,
    store: &Path,
    fresh: bool,
) -> Result<(Daemon, Vec<f64>), String> {
    let begun = Instant::now();
    let mut times = Vec::new();
    loop {
        if fresh {
            let _ = std::fs::remove_dir_all(store);
        }
        let (daemon, setup) = Daemon::spawn(&args.daemon, store, &work.join("qpilotd.log"))?;
        times.push(setup);
        let enough =
            times.len() >= SETUP_MIN_STARTS && begun.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS;
        if enough || times.len() == SETUP_MAX_STARTS {
            return Ok((daemon, times));
        }
        daemon.shutdown()?;
    }
}

/// Sends `reqs[i]` outside the timed window, counts its serving path
/// and checks its envelope.
fn untimed(
    conn: &mut Conn,
    reqs: &[Req],
    i: usize,
    decoded: bool,
    run: &mut Run,
    tally: &mut checks::Tally,
) -> Result<(String, checks::Reply), String> {
    let reply = conn.call(reqs[i].text())?;
    let head = checks::header(&reply)?;
    if let Some(path) = head.get("path").and_then(|p| p.as_str()) {
        tally.count(path);
    }
    let got = checks::compile_reply(&head, reqs[i].router);
    run.served.push(Served {
        req: i,
        timed: false,
        decoded,
        hash: got.is_ok().then(|| checks::reply_hash(&reply)),
    });
    Ok((reply, got?))
}

/// Compiles `reqs[..n]` (the working set, `schedule:false`) into
/// `store`, then stops that daemon. Untimed.
fn fill(
    args: &Args,
    work: &Path,
    store: &Path,
    reqs: &[Req],
    n: usize,
    run: &mut Run,
) -> Result<(), String> {
    let (daemon, _) = Daemon::spawn(&args.daemon, store, &work.join("fill.log"))?;
    let mut conn = daemon.connect()?;
    for i in 0..n {
        let (_, got) = untimed(
            &mut conn,
            reqs,
            i,
            false,
            run,
            &mut checks::Tally::default(),
        )?;
        if got.path != "miss" {
            return Err(format!("fill request served as {}", got.path));
        }
    }
    daemon.shutdown()
}

/// The closed loop on one connection: send, read the whole reply, and
/// (for `warm-fetch`) decode it, then run the checks with the clock
/// stopped.
///
/// `order` yields pool indices through a mix cycle of `period`
/// requests; the `k`-th request is of kind `k % period`. The window
/// closes at the first cycle boundary after `--seconds`, so every kind
/// gets the same weight.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    args: &Args,
    daemon: &Daemon,
    reqs: &[Req],
    order: impl Iterator<Item = usize>,
    period: usize,
    decode: bool,
    run: &mut Run,
    tally: &mut checks::Tally,
) -> Result<Vec<Option<checks::Reply>>, String> {
    let mut conn = daemon.connect()?;
    let mut reply = String::with_capacity(1 << 20);
    let mut repeats = checks::Repeats::default();
    let mut replies = Vec::new();
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(args.seconds);
    for (k, i) in order.enumerate() {
        let now = Instant::now();
        if now >= until && k.is_multiple_of(period) {
            break;
        }
        let Some(req) = reqs.get(i) else {
            println!("request pool exhausted: the window closed early");
            break;
        };
        run.starts.push((now - started).as_secs_f64());
        conn.send(req.line.as_bytes())?;
        conn.recv(&mut reply)?;
        let decoded = decode.then(|| checks::decode(&reply));
        let latency = now.elapsed().as_secs_f64();
        run.attempted += 1;
        run.kinds.push(k % period);
        // Checks, with the clock stopped.
        let outcome = (|| {
            let head = checks::header(&reply)?;
            let got = checks::compile_reply(&head, req.router)?;
            let hash = checks::reply_hash(&reply);
            let first = repeats.check(&got.fingerprint, hash)?;
            if let Some(decoded) = &decoded {
                let (_, schedule) = decoded.as_ref().map_err(Clone::clone)?;
                checks::stats_match(&got.stats, &schedule.stats())?;
                if first {
                    checks::validate(schedule, req.text())?;
                }
            }
            Ok::<_, String>((got, hash))
        })();
        let hash = match outcome {
            Ok((got, hash)) => {
                tally.count(&got.path);
                run.latencies.push(Some(latency));
                run.completed += 1;
                replies.push(Some(got));
                Some(hash)
            }
            Err(e) => {
                if let Ok(head) = checks::header(&reply) {
                    if let Some(path) = head.get("path").and_then(|p| p.as_str()) {
                        tally.count(path);
                    }
                }
                run.failures.push(format!("request {i}: {e}"));
                run.latencies.push(None);
                replies.push(None);
                None
            }
        };
        run.served.push(Served {
            req: i,
            timed: true,
            decoded: decode,
            hash,
        });
    }
    run.window_s = started.elapsed().as_secs_f64();
    Ok(replies)
}

/// The full check of a reply that carries its schedule: decode, stats
/// equal to the reply's, and geometric validation.
fn check_schedule(reply: &str, got: &checks::Reply, line: &str) -> Result<(), String> {
    let (_, schedule) = checks::decode(reply)?;
    checks::stats_match(&got.stats, &schedule.stats())?;
    checks::validate(&schedule, line)
}

fn cold_sweep(args: &Args, work: &Path, run: &mut Run) -> Result<(Vec<Req>, Daemon), String> {
    // The pool: the goldens, the sweep, and (once the window is over)
    // the refetches.
    let mut reqs = workload::golden_requests();
    let goldens = reqs.len();
    let cycles = (args.seconds * SWEEP_CYCLES_PER_S).ceil() as usize;
    reqs.extend(workload::cold_sweep(
        args.seed,
        cycles.max(DEPTH_PANEL_CYCLES),
    ));
    let store = work.join("store");
    let (daemon, setup) = start(args, work, &store, true)?;
    run.setup_s = setup;
    trace::copy_dir(&store, &work.join("store-at-start"))?;
    let mut tally = checks::Tally::default();

    // The goldens go first, untimed and with their schedules, so their
    // bytes can be compared with the pinned hashes.
    let mut conn = daemon.connect()?;
    for i in 0..goldens {
        let outcome =
            untimed(&mut conn, &reqs, i, true, run, &mut tally).and_then(|(reply, got)| {
                let golden = reqs[i].golden.as_ref().expect("golden request");
                checks::golden(&reply, golden)?;
                check_schedule(&reply, &got, reqs[i].text())?;
                Ok(got)
            });
        match outcome {
            Ok(got) if got.path == "miss" => run.depths.push(got.depth as f64),
            Ok(got) => run
                .failures
                .push(format!("golden {i}: served as {}", got.path)),
            Err(e) => run.failures.push(format!("golden {i}: {e}")),
        }
    }

    let replies = closed_loop(
        args,
        &daemon,
        &reqs,
        goldens..,
        SWEEP_CYCLE,
        false,
        run,
        &mut tally,
    )?;
    for (k, got) in replies.iter().enumerate() {
        if let Some(got) = got {
            if got.path != "miss" {
                run.failures
                    .push(format!("request {k}: every cold-sweep request must miss"));
            }
        }
    }
    let panel = DEPTH_PANEL_CYCLES * SWEEP_CYCLE;
    if replies.len() < panel {
        return Err(format!(
            "only {} requests in the window; the depth panel needs {panel}",
            replies.len()
        ));
    }
    run.depths
        .extend(replies[..panel].iter().flatten().map(|r| r.depth as f64));
    // Cache counters as the timed window left them; the counters are
    // reconciled once the refetches below are in.
    let (_, counters) = checks::reconcile(&daemon, &tally)?;
    run.hit_ratio = counters.hit_ratio;
    run.evictions = counters.evictions;

    // Refetch the newest schedules (still cached) to decode, validate
    // and compare them with the timed replies. Untimed.
    let sent = replies.len();
    for k in sent.saturating_sub(REFETCH)..sent {
        let Some(first) = &replies[k] else { continue };
        let refetch = reqs[goldens + k]
            .with_schedule()
            .ok_or("sweep line without schedule:false")?;
        reqs.push(refetch);
        let i = reqs.len() - 1;
        let outcome =
            untimed(&mut conn, &reqs, i, true, run, &mut tally).and_then(|(reply, got)| {
                if got.path != "hit" {
                    return Err(format!("served as {}", got.path));
                }
                if got.fingerprint != first.fingerprint || got.stats != first.stats {
                    return Err("refetch differs from the timed reply".to_string());
                }
                check_schedule(&reply, &got, reqs[i].text())
            });
        if let Err(e) = outcome {
            run.failures.push(format!("refetch {k}: {e}"));
        }
    }
    let (failures, _) = checks::reconcile(&daemon, &tally)?;
    run.failures.extend(failures);
    Ok((reqs, daemon))
}

fn warm_fetch(args: &Args, work: &Path, run: &mut Run) -> Result<(Vec<Req>, Daemon), String> {
    // The pool: the working set as the fill sends it, then as fetched.
    let mut reqs = workload::working_set(false);
    let n = reqs.len();
    reqs.extend(workload::working_set(true));
    let store = work.join("store");
    fill(args, work, &store, &reqs, n, run)?;
    trace::copy_dir(&store, &work.join("store-at-start"))?;
    let (daemon, setup) = start(args, work, &store, false)?;
    run.setup_s = setup;
    let mut tally = checks::Tally::default();
    let order = (0..).map(|k| n + k % n);
    let replies = closed_loop(args, &daemon, &reqs, order, n, true, run, &mut tally)?;
    for got in replies.iter().flatten() {
        if got.path != "hit" {
            run.failures
                .push(format!("warm-fetch request served as {}", got.path));
        }
    }
    run.depths = replies[..n.min(replies.len())]
        .iter()
        .flatten()
        .map(|r| r.depth as f64)
        .collect();
    let (failures, counters) = checks::reconcile(&daemon, &tally)?;
    run.failures.extend(failures);
    run.hit_ratio = counters.hit_ratio;
    run.evictions = counters.evictions;
    Ok((reqs, daemon))
}

fn fmt_metric(name: &str, value: Option<f64>, unit: &str) -> String {
    let value = value.map_or("null".to_string(), |v| format!("{v}"));
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn execute(args: &Args) -> Result<(), String> {
    let work = Work::new(args)?;
    let mut run = Run::default();
    let (reqs, daemon) = match args.workload.as_str() {
        "cold-sweep" => cold_sweep(args, &work.0, &mut run)?,
        _ => warm_fetch(args, &work.0, &mut run)?,
    };
    run.rss_mb = daemon.peak_rss_mb()?;
    daemon.shutdown()?;
    if run.attempted == 0 || run.depths.is_empty() {
        return Err("no request completed in the window".into());
    }

    let ms = |v: Option<f64>| v.map(|s| s * 1e3);
    // Latency percentiles over the mix's kinds, each at its median
    // latency: the kinds form separate latency clusters, and a percentile
    // of the raw samples would sit on a cluster's edge.
    let kinds = run.kinds.iter().max().map_or(0, |k| k + 1);
    let [p50, p90] = [0.5, 0.9].map(|q| stats::kind_percentile(&run.latencies, &run.kinds, q));
    let ok_latencies: Vec<f64> = run.latencies.iter().flatten().copied().collect();
    let e2e_mean_ms = stats::mean(&ok_latencies) * 1e3;
    // Throughput is the median over equal windows of the run: one slow
    // stretch moves it little.
    let windows = if args.workload == "warm-fetch" {
        1
    } else {
        WINDOWS
    };
    let slices = stats::windowed(&run.starts, &run.latencies, run.window_s, windows);
    let slice_s = run.window_s / windows as f64;
    let throughput = stats::median_of(
        slices
            .iter()
            .map(|s| Some(s.iter().flatten().count() as f64 / slice_s))
            .collect(),
    )
    .unwrap_or(0.0);
    let setup = median(&run.setup_s);
    let depth = geomean(&run.depths);

    let metrics: Vec<String> = if args.trace {
        let timed = run.served.iter().filter(|s| s.timed).count();
        let mut skip = timed.saturating_sub(REPLAY_TIMED);
        let replay = trace::Replay {
            lines: run
                .served
                .iter()
                .filter(|s| {
                    let skipped = s.timed && skip > 0;
                    skip -= usize::from(skipped);
                    !skipped
                })
                .map(|s| trace::Line {
                    text: reqs[s.req].text(),
                    timed: s.timed,
                    decode: s.decoded,
                    hash: s.hash,
                })
                .collect(),
            store: &work.0.join("store-at-start"),
            work: &work.0,
            e2e_mean_ms,
            hit_ratio: run.hit_ratio,
            evictions: run.evictions,
        };
        let report = trace::replay(&replay)?;
        run.failures.extend(report.failures.iter().cloned());
        let traces = Path::new(".bench_work").join("traces");
        std::fs::create_dir_all(&traces).map_err(|e| e.to_string())?;
        let file = traces.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        report
            .tracer
            .write_jsonl(&file)
            .map_err(|e| format!("write {}: {e}", file.display()))?;
        println!(
            "per-layer ({}, seed {}), spans in {}",
            args.workload,
            args.seed,
            file.display()
        );
        for (name, value, unit) in &report.metrics {
            println!("  {name:<28} {value:>14.6} {unit}");
        }
        let self_ms = report.tracer.self_ms(&report.timed);
        let total: f64 = self_ms.values().sum();
        println!("self time per layer in the timed window (share of replayed request time):");
        let mut rows: Vec<_> = self_ms.into_iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, ms) in rows {
            println!("  {name:<28} {ms:>12.3} ms  {:5.1}%", 100.0 * ms / total);
        }
        println!(
            "  store.open_s / setup_s = {:.3}",
            report
                .metrics
                .iter()
                .find(|m| m.0 == "store.open_s")
                .map_or(0.0, |m| m.1)
                / setup
        );
        report
            .metrics
            .iter()
            .map(|(name, value, unit)| fmt_metric(name, Some(*value), unit))
            .collect()
    } else {
        println!(
            "end-to-end ({}, seed {}): {} attempted, {} succeeded, {} failed",
            args.workload,
            args.seed,
            run.attempted,
            run.completed,
            run.failures.len()
        );
        let beyond = |p: Option<stats::Percentile>| {
            let Some(p) = p else {
                return "no samples".to_string();
            };
            let rule = if p.meets_rule() {
                ""
            } else {
                ", fewer than 10 beyond the percentile"
            };
            format!(
                "{} requests, between the medians of {kinds} kinds{rule}",
                p.samples
            )
        };
        let rows = [
            (
                "latency_p50_ms",
                ms(p50.and_then(|p| p.value)),
                "ms",
                beyond(p50),
            ),
            (
                "latency_p90_ms",
                ms(p90.and_then(|p| p.value)),
                "ms",
                beyond(p90),
            ),
            (
                "throughput_rps",
                Some(throughput),
                "1/s",
                format!("{} completed, median of {windows} windows", run.completed),
            ),
            (
                "setup_s",
                Some(setup),
                "s",
                format!("median of {} starts", run.setup_s.len()),
            ),
            (
                "rydberg_depth_geomean",
                Some(depth),
                "layers",
                format!("{} schedules", run.depths.len()),
            ),
            (
                "daemon_peak_rss_mb",
                Some(run.rss_mb),
                "MB",
                "VmHWM".to_string(),
            ),
        ];
        for (name, value, unit, samples) in &rows {
            let shown = value.map_or("failed".to_string(), |v| format!("{v:.6}"));
            println!("  {name:<24} {shown:>14} {unit:<6} ({samples})");
        }
        rows.iter()
            .map(|(name, value, unit, _)| fmt_metric(name, *value, unit))
            .collect()
    };
    for failure in run.failures.iter().take(20) {
        eprintln!("check failed: {failure}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.failures.is_empty(),
        run.attempted,
        run.failures.len(),
        metrics.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qpilot-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match execute(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qpilot-e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
