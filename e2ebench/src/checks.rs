//! Output checks. Everything here runs outside the timed region, and
//! every failed check is one failed operation.

use std::collections::HashMap;

use qpilot_core::json::{self, Value};
use qpilot_core::validate::validate_schedule;
use qpilot_core::wire::schedule_from_value;
use qpilot_core::{FpqaConfig, Schedule, ScheduleStats};
use qpilot_service::protocol::{parse_request, Request};

use crate::daemon::Daemon;
use crate::workload::Golden;

const SCHEDULE_KEY: &str = ",\"schedule\":";

/// FNV-1a 64, the hash the repository's golden tests use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(0xcbf2_9ce4_8422_2325, bytes)
}

fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The byte range of a scalar field's `"key":value` in a reply, so that
/// it can be skipped. Values are strings without escapes or numbers, as
/// the daemon renders `request_id` and `compile_ms`.
fn field_range(reply: &str, key: &str) -> Option<(usize, usize)> {
    let start = reply.find(&format!("\"{key}\":"))?;
    let value = start + key.len() + 3;
    let rest = &reply[value..];
    let len = if let Some(quoted) = rest.strip_prefix('"') {
        1 + quoted.find('"')? + 1
    } else {
        rest.find([',', '}'])?
    };
    Some((start, value + len))
}

/// A hash of a compile reply with its `request_id` and `compile_ms`
/// values left out: the bytes two servings of one schedule must share.
pub fn reply_hash(reply: &str) -> u64 {
    let mut skips: Vec<(usize, usize)> = ["request_id", "compile_ms"]
        .iter()
        .filter_map(|k| field_range(reply, k))
        .collect();
    skips.sort_unstable();
    let (mut h, mut at) = (0xcbf2_9ce4_8422_2325, 0);
    for (start, end) in skips {
        h = fnv1a_from(h, &reply.as_bytes()[at..start]);
        at = end;
    }
    fnv1a_from(h, &reply.as_bytes()[at..])
}

/// The schedule document inside a compile reply, if it carries one.
pub fn schedule_bytes(reply: &str) -> Option<&str> {
    let at = reply.find(SCHEDULE_KEY)?;
    reply[at + SCHEDULE_KEY.len()..].strip_suffix('}')
}

/// The reply envelope without its schedule body: cheap to parse even
/// when the schedule is half a megabyte.
pub fn header(reply: &str) -> Result<Value, String> {
    let parsed = match reply.find(SCHEDULE_KEY) {
        Some(at) => json::parse(&format!("{}}}", &reply[..at])),
        None => json::parse(reply),
    };
    parsed.map_err(|e| format!("unparseable reply: {e}"))
}

/// What the generator needs from a compile reply.
#[derive(Debug, Clone)]
pub struct Reply {
    pub path: String,
    pub fingerprint: String,
    pub depth: u64,
    pub stats: Value,
}

/// Checks the envelope of a compile reply: `ok`, the expected router and
/// a known serving path.
pub fn compile_reply(head: &Value, router: &str) -> Result<Reply, String> {
    if head.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("request failed: {}", head.to_json()));
    }
    let text = |k: &str| head.get(k).and_then(Value::as_str).unwrap_or("");
    if text("router") != router {
        return Err(format!(
            "reply names router {:?}, sent {router}",
            text("router")
        ));
    }
    let path = text("path").to_string();
    if !["hit", "miss", "coalesced"].contains(&path.as_str()) {
        return Err(format!("unexpected serving path {path:?}"));
    }
    let stats = head.get("stats").cloned().ok_or("reply has no stats")?;
    let depth = stats
        .get("two_qubit_depth")
        .and_then(Value::as_u64)
        .ok_or("stats have no two_qubit_depth")?;
    Ok(Reply {
        path,
        fingerprint: text("fingerprint").to_string(),
        depth,
        stats,
    })
}

/// The reply's `stats` must equal the decoded schedule's own.
pub fn stats_match(reply: &Value, decoded: &ScheduleStats) -> Result<(), String> {
    let fields = [
        ("two_qubit_depth", decoded.two_qubit_depth),
        ("two_qubit_gates", decoded.two_qubit_gates),
        ("one_qubit_gates", decoded.one_qubit_gates),
        ("moves", decoded.moves),
        ("transfers", decoded.transfers),
        ("peak_ancillas", decoded.peak_ancillas),
    ];
    for (key, want) in fields {
        let got = reply.get(key).and_then(Value::as_u64);
        if got != Some(want as u64) {
            return Err(format!(
                "stats.{key}: reply says {got:?}, schedule has {want}"
            ));
        }
    }
    Ok(())
}

/// The array a request line compiles onto.
pub fn request_config(line: &str) -> Result<FpqaConfig, String> {
    match parse_request(line)? {
        Request::Compile { request, .. } => Ok(request.config()),
        other => Err(format!("not a compile request: {other:?}")),
    }
}

/// Client decode, exactly as a user of the reply must do it.
pub fn decode(reply: &str) -> Result<(Value, Schedule), String> {
    let doc = json::parse(reply).map_err(|e| format!("reply: {e}"))?;
    let schedule = schedule_from_value(doc.get("schedule").ok_or("reply has no schedule")?)
        .map_err(|e| format!("schedule: {e}"))?;
    Ok((doc, schedule))
}

/// Geometric validation of a schedule against its request's array.
pub fn validate(schedule: &Schedule, line: &str) -> Result<(), String> {
    validate_schedule(schedule, &request_config(line)?)
        .map(|_| ())
        .map_err(|e| format!("validate_schedule: {e}"))
}

/// The golden cross-check: schedule bytes hash (and length) as pinned.
pub fn golden(reply: &str, golden: &Golden) -> Result<(), String> {
    let bytes = schedule_bytes(reply).ok_or("golden reply has no schedule")?;
    let hash = fnv1a(bytes.as_bytes());
    if hash != golden.fnv1a {
        return Err(format!(
            "golden {}: schedule fnv1a {hash:#018x}, pinned {:#018x}",
            golden.label, golden.fnv1a
        ));
    }
    if let Some(len) = golden.len {
        if bytes.len() != len {
            return Err(format!(
                "golden {}: schedule is {} bytes, pinned {len}",
                golden.label,
                bytes.len()
            ));
        }
    }
    Ok(())
}

/// Every repeat serving of a fingerprint must be byte-identical to the
/// first.
#[derive(Default)]
pub struct Repeats(HashMap<String, u64>);

impl Repeats {
    /// Returns `true` the first time a fingerprint is seen.
    pub fn check(&mut self, fingerprint: &str, hash: u64) -> Result<bool, String> {
        match self.0.get(fingerprint) {
            None => {
                self.0.insert(fingerprint.to_string(), hash);
                Ok(true)
            }
            Some(first) if *first == hash => Ok(false),
            Some(_) => Err(format!(
                "repeat fetch of {fingerprint} differs from the first reply"
            )),
        }
    }
}

/// What the generator saw, by serving path.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
}

impl Tally {
    pub fn count(&mut self, path: &str) {
        match path {
            "hit" => self.hits += 1,
            "miss" => self.misses += 1,
            _ => self.coalesced += 1,
        }
    }

    pub fn requests(&self) -> u64 {
        self.hits + self.misses + self.coalesced
    }
}

/// The daemon's counters after a run.
pub struct Counters {
    pub hit_ratio: f64,
    pub evictions: u64,
}

/// Counter reconciliation: the daemon's `stats` and `store-stats` must
/// account for exactly what the generator sent. Returns the failures
/// (one per mismatched counter) and the cache counters.
pub fn reconcile(daemon: &Daemon, tally: &Tally) -> Result<(Vec<String>, Counters), String> {
    let stats = daemon.query("stats")?;
    let store = daemon.query("store-stats")?;
    let num = |doc: &Value, k: &str| doc.get(k).and_then(Value::as_u64);
    let expect = [
        ("stats.requests", num(&stats, "requests"), tally.requests()),
        ("stats.hits", num(&stats, "hits"), tally.hits),
        (
            "stats.misses",
            num(&stats, "misses"),
            tally.misses + tally.coalesced,
        ),
        ("stats.compiles", num(&stats, "compiles"), tally.misses),
        ("stats.coalesced", num(&stats, "coalesced"), tally.coalesced),
        (
            "store-stats.persisted",
            num(&store, "persisted"),
            tally.misses,
        ),
        ("stats.shed", num(&stats, "shed"), 0),
        ("stats.deadline_misses", num(&stats, "deadline_misses"), 0),
        ("stats.hedged", num(&stats, "hedged"), 0),
    ];
    let failures = expect
        .iter()
        .filter(|(_, got, want)| *got != Some(*want))
        .map(|(name, got, want)| format!("{name}: daemon reports {got:?}, generator sent {want}"))
        .collect();
    let counters = Counters {
        hit_ratio: stats.get("hit_rate").and_then(Value::as_f64).unwrap_or(0.0),
        evictions: num(&stats, "evictions").unwrap_or(0),
    };
    Ok((failures, counters))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_hash_ignores_request_id_and_compile_ms_only() {
        let a = r#"{"ok":true,"op":"compile","request_id":"r-1","path":"hit","compile_ms":0.5,"stats":{}}"#;
        let b = r#"{"ok":true,"op":"compile","request_id":"r-22","path":"hit","compile_ms":1.25,"stats":{}}"#;
        let c = r#"{"ok":true,"op":"compile","request_id":"r-1","path":"miss","compile_ms":0.5,"stats":{}}"#;
        assert_eq!(reply_hash(a), reply_hash(b));
        assert_ne!(reply_hash(a), reply_hash(c));
    }

    #[test]
    fn schedule_bytes_and_header_split_a_reply() {
        let r =
            r#"{"ok":true,"stats":{"two_qubit_depth":3},"schedule":{"format":"x","stages":[]}}"#;
        assert_eq!(schedule_bytes(r), Some(r#"{"format":"x","stages":[]}"#));
        let head = header(r).unwrap();
        assert!(head.get("schedule").is_none());
        assert_eq!(
            head.get("stats")
                .and_then(|s| s.get("two_qubit_depth"))
                .and_then(Value::as_u64),
            Some(3)
        );
    }
}
