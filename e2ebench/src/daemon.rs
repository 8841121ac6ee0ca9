//! A `qpilotd` subprocess and line-protocol connections to it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use qpilot_core::json::{self, Value};

pub type Result<T> = std::result::Result<T, String>;

/// A running daemon. Dropping it kills the process and reaps it.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's final stdout lines never hit a closed
    /// pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns `qpilotd` with its default flags plus a listen address and
    /// a store directory, and returns it with its set-up time: spawn to
    /// the first answered `ping`.
    pub fn spawn(bin: &Path, store: &Path, log: &Path) -> Result<(Daemon, f64)> {
        let log = std::fs::File::create(log).map_err(|e| format!("daemon log: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("qpilotd exited before it was ready".into());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("qpilotd listening on ") {
                        break addr
                            .parse()
                            .map_err(|e| format!("bad address {addr}: {e}"))?;
                    }
                }
            }
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        let pong = daemon.connect()?.call(r#"{"op":"ping"}"#)?;
        if !pong.contains(r#""op":"pong""#) {
            return Err(format!("unexpected ping reply: {pong}"));
        }
        Ok((daemon, started.elapsed().as_secs_f64()))
    }

    pub fn connect(&self) -> Result<Conn> {
        Conn::open(self.addr)
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("/proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line".to_string())
    }

    /// A parsed `stats` or `store-stats` reply.
    pub fn query(&self, op: &str) -> Result<Value> {
        let reply = self.connect()?.call(&format!(r#"{{"op":"{op}"}}"#))?;
        json::parse(&reply).map_err(|e| format!("{op} reply: {e}"))
    }

    /// Asks the daemon to exit and waits for it (killing it after 10 s).
    pub fn shutdown(mut self) -> Result<()> {
        let reply = self.connect()?.call(r#"{"op":"shutdown"}"#)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("qpilotd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("qpilotd did not exit after shutdown".into()),
            }
        }
        if !reply.contains(r#""op":"shutdown""#) {
            return Err(format!("unexpected shutdown reply: {reply}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One connection: write a line, read a line.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::with_capacity(
            1 << 20,
            stream.try_clone().map_err(|e| format!("clone: {e}"))?,
        );
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Writes `line` and its newline in one write.
    pub fn send(&mut self, line: &[u8]) -> Result<()> {
        self.writer
            .write_all(line)
            .map_err(|e| format!("write: {e}"))
    }

    /// Reads one reply line, without its newline, into `out`.
    pub fn recv(&mut self, out: &mut String) -> Result<()> {
        out.clear();
        match self.reader.read_line(out) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => {
                if out.ends_with('\n') {
                    out.pop();
                }
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    pub fn call(&mut self, line: &str) -> Result<String> {
        let mut framed = line.as_bytes().to_vec();
        framed.push(b'\n');
        self.send(&framed)?;
        let mut out = String::new();
        self.recv(&mut out)?;
        Ok(out)
    }
}
