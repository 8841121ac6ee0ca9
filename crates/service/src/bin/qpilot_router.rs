//! `qpilot-router` — consistent-hash fan-out over `qpilotd` shards.
//!
//! ```text
//! qpilot-router --shards ADDR1,ADDR2[,...] [--listen HOST:PORT]
//!               [--line-deadline-ms N] [--shard-timeout-ms N]
//! ```
//!
//! The router speaks the same line-delimited JSON protocol as the
//! daemon, on the same reactor transport, and owns no compilation
//! state of its own:
//!
//! * `compile` requests route to exactly one shard — the owner of the
//!   request's `qpilot.compile/v2` fingerprint on the consistent-hash
//!   ring (`qpilot_service::shard::ShardRing`) — and the shard's
//!   response line is relayed byte-for-byte, so compiling through the
//!   router is byte-identical to compiling against the owning shard
//!   directly;
//! * `stats`, `store-stats` and `metrics` fan out to every shard and
//!   return the fleet-wide aggregate (counters sum exactly; the
//!   response carries `"shards":N`);
//! * `shutdown` is forwarded to every shard, then stops the router
//!   itself;
//! * everything else (`ping`, malformed lines) is forwarded to the
//!   first shard, whose rendering is byte-identical to any other
//!   daemon's.
//!
//! Shard connections are pooled and retried once on a stale socket
//! (a restarted shard invalidates idle pooled connections). A shard
//! that stays unreachable produces an `{"ok":false,...,"retry":true}`
//! line, marking the condition transient for clients.
//!
//! The router prints `qpilot-router listening on ADDR` once ready
//! (scripts wait for that line). On `SIGTERM` it drains like the
//! daemon: accepted requests are answered, idle connections close, and
//! the process exits 0.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use qpilot_core::json::{self, json_str, Value};
use qpilot_service::protocol::{next_request_id, parse_request, render_error, Handled, Request};
use qpilot_service::shard::{aggregate_metrics, aggregate_stats, aggregate_store_stats, ShardRing};
use qpilot_service::{ReactorOptions, ReactorServer};

static SIGTERMS: AtomicU32 = AtomicU32::new(0);

const SIGTERM: i32 = 15;

extern "C" fn on_sigterm(_signum: i32) {
    SIGTERMS.fetch_add(1, Ordering::SeqCst);
}

extern "C" {
    // POSIX signal(2), declared directly as in qpilotd: one call does
    // not justify a libc dependency.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    arg_value(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One pooled shard connection: the write half plus a buffered reader
/// over its clone. Checked out exclusively for a round trip, so the
/// reader never holds bytes belonging to someone else's response.
struct ShardConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A pool of idle connections per shard address.
struct ShardPool {
    timeout: Duration,
    idle: Mutex<HashMap<String, Vec<ShardConn>>>,
}

impl ShardPool {
    fn new(timeout: Duration) -> ShardPool {
        ShardPool {
            timeout,
            idle: Mutex::new(HashMap::new()),
        }
    }

    fn connect(&self, addr: &str) -> std::io::Result<ShardConn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_write_timeout(Some(self.timeout))?;
        let read_half = writer.try_clone()?;
        read_half.set_read_timeout(Some(self.timeout))?;
        Ok(ShardConn {
            writer,
            reader: BufReader::new(read_half),
        })
    }

    fn checkout(&self, addr: &str) -> Option<ShardConn> {
        self.idle.lock().ok()?.get_mut(addr)?.pop()
    }

    fn checkin(&self, addr: &str, conn: ShardConn) {
        if let Ok(mut idle) = self.idle.lock() {
            idle.entry(addr.to_string()).or_default().push(conn);
        }
    }

    /// One request/response round trip against `addr`. A pooled
    /// connection that fails is assumed stale (the shard restarted)
    /// and the trip is retried once on a fresh connection; a fresh
    /// connection's failure is the shard's answer.
    fn round_trip(&self, addr: &str, line: &str) -> Result<String, String> {
        if let Some(conn) = self.checkout(addr) {
            if let Ok(response) = Self::try_round_trip(conn, addr, line, self) {
                return Ok(response);
            }
        }
        let conn = self
            .connect(addr)
            .map_err(|e| format!("shard {addr} unreachable: {e}"))?;
        Self::try_round_trip(conn, addr, line, self)
            .map_err(|e| format!("shard {addr} failed: {e}"))
    }

    fn try_round_trip(
        mut conn: ShardConn,
        addr: &str,
        line: &str,
        pool: &ShardPool,
    ) -> Result<String, String> {
        conn.writer
            .write_all(line.as_bytes())
            .and_then(|()| conn.writer.write_all(b"\n"))
            .map_err(|e| e.to_string())?;
        let mut response = String::new();
        let n = conn
            .reader
            .read_line(&mut response)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("shard closed the connection".to_string());
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        pool.checkin(addr, conn);
        Ok(response)
    }
}

/// The client-visible `request_id` of a request line: the client's own
/// when present and valid-shaped, a fresh daemon-assigned one
/// otherwise (matching the daemon's echo contract).
fn request_id_of(line: &str) -> String {
    json::parse(line)
        .ok()
        .and_then(|doc| {
            doc.get("request_id")
                .and_then(Value::as_str)
                .map(str::to_string)
        })
        .unwrap_or_else(next_request_id)
}

/// Fans `line` out to every shard, collecting responses in shard
/// order; the first unreachable shard aborts the fan-out.
fn fan_out(pool: &ShardPool, ring: &ShardRing, line: &str) -> Result<Vec<String>, String> {
    ring.addrs()
        .iter()
        .map(|addr| pool.round_trip(addr, line))
        .collect()
}

fn route(pool: &ShardPool, ring: &ShardRing, line: &str) -> Handled {
    match parse_request(line) {
        Ok(Request::Compile { request, .. }) => {
            let addr = ring.shard_for(&request.fingerprint()).to_string();
            match pool.round_trip(&addr, line) {
                Ok(response) => Handled::line(response),
                // Transient from the client's seat: the shard may come
                // back, or the operator may repoint the ring.
                Err(e) => Handled::line(render_error(&e, true, &request_id_of(line))),
            }
        }
        Ok(Request::Stats) => aggregated(pool, ring, line, aggregate_stats),
        Ok(Request::StoreStats) => aggregated(pool, ring, line, aggregate_store_stats),
        Ok(Request::Metrics) => aggregated(pool, ring, line, aggregate_metrics),
        Ok(Request::Shutdown) => {
            // Stop the fleet first, then the router itself. Shards that
            // are already gone do not block the rest.
            for addr in ring.addrs() {
                let _ = pool.round_trip(addr, line);
            }
            Handled {
                shutdown: true,
                ..Handled::line(format!(
                    "{{\"ok\":true,\"op\":\"shutdown\",\"request_id\":{}}}",
                    json_str(&request_id_of(line))
                ))
            }
        }
        // Ping and malformed lines: any daemon renders these
        // identically, so the first shard answers for the fleet.
        Ok(Request::Ping) | Err(_) => {
            let addr = &ring.addrs()[0];
            match pool.round_trip(addr, line) {
                Ok(response) => Handled::line(response),
                Err(e) => Handled::line(render_error(&e, true, &request_id_of(line))),
            }
        }
    }
}

fn aggregated(
    pool: &ShardPool,
    ring: &ShardRing,
    line: &str,
    merge: fn(&[String], &str) -> Result<String, String>,
) -> Handled {
    let request_id = request_id_of(line);
    let response = fan_out(pool, ring, line)
        .and_then(|responses| merge(&responses, &request_id))
        .unwrap_or_else(|e| render_error(&e, true, &request_id));
    Handled::line(response)
}

fn main() {
    let Some(shards) = arg_value("--shards") else {
        eprintln!("qpilot-router: --shards ADDR1,ADDR2[,...] is required");
        std::process::exit(2);
    };
    let addrs: Vec<String> = shards
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if addrs.is_empty() {
        eprintln!("qpilot-router: --shards needs at least one address");
        std::process::exit(2);
    }
    let ring = ShardRing::new(&addrs);
    let pool = Arc::new(ShardPool::new(Duration::from_millis(arg_num(
        "--shard-timeout-ms",
        30_000u64,
    ))));
    let options = ReactorOptions {
        line_deadline: Duration::from_millis(arg_num("--line-deadline-ms", 10_000u64)),
        ..ReactorOptions::default()
    };
    let listen = arg_value("--listen").unwrap_or_else(|| "127.0.0.1:7879".to_string());
    let handler: qpilot_service::LineHandler = {
        let ring = ring.clone();
        let pool = Arc::clone(&pool);
        Arc::new(move |line: &str| route(&pool, &ring, line))
    };
    let server = match ReactorServer::spawn(listen.as_str(), options, handler) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("qpilot-router: cannot listen on {listen}: {e}");
            std::process::exit(1);
        }
    };
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
    println!("qpilot-router listening on {}", server.local_addr());
    println!(
        "qpilot-router fanning out to {} shard(s): {}",
        ring.len(),
        ring.addrs().join(", ")
    );
    // Wait for either a client-driven shutdown or a SIGTERM drain.
    loop {
        if server.is_finished() {
            server.wait();
            return;
        }
        if SIGTERMS.load(Ordering::SeqCst) > 0 {
            server.begin_drain();
            let clean = server.drain_wait(Duration::from_millis(arg_num("--drain-ms", 10_000u64)));
            std::process::exit(if clean { 0 } else { 1 });
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
