//! JSON serialisation of compiled [`Schedule`]s (`qpilot.schedule/v1`).
//!
//! The compilation service caches and ships schedules as JSON; this
//! module provides the writer/parser pair. The format is *canonical*:
//! [`schedule_to_json`] emits no whitespace, fixed key order, and floats
//! in Rust's shortest round-trip decimal form, so
//! `schedule_to_json ∘ schedule_from_json` is the identity on bytes and
//! byte equality of two serialised schedules is schedule equality.
//!
//! Layout:
//!
//! ```json
//! {"format":"qpilot.schedule/v1","num_data":4,"num_ancillas":1,
//!  "aod_rows":2,"aod_cols":2,
//!  "stages":[
//!    {"kind":"raman","gates":[["h",2],["rz",0,0.5]]},
//!    {"kind":"transfer","ops":[[0,1,1,true]]},
//!    {"kind":"move","row_y":[0.5,10],"col_x":[0.5,10]},
//!    {"kind":"rydberg","ops":[[["d",0],["a",0],"cz"]]}
//!  ]}
//! ```
//!
//! Gates use the compact `[mnemonic, operands..., angle?]` encoding (the
//! arity disambiguates; `rzz` carries `[a, b, theta]`), transfer ops are
//! `[ancilla, row, col, load]`, and Rydberg ops are `[atom, atom, kind]`
//! with atoms `["d", qubit]` / `["a", ancilla]` and kind `"cz"`,
//! `["cx", target_b]` or `["zz", theta]`.

use std::fmt;

use qpilot_circuit::{Gate, Qubit};

use crate::json::{self, write_f64, write_u64, Value};
use crate::schedule::{
    AncillaId, AtomRef, RydbergKind, RydbergOp, Schedule, ScheduleBuilder, StageRef, TransferOp,
};

/// The format tag written into and required from every document.
pub const SCHEDULE_FORMAT: &str = "qpilot.schedule/v1";

/// Error from [`schedule_from_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The document is not valid JSON.
    Json(json::JsonError),
    /// The document is JSON but not a `qpilot.schedule/v1` schedule.
    Schema(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Json(e) => write!(f, "{e}"),
            WireError::Schema(m) => write!(f, "schedule schema error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<json::JsonError> for WireError {
    fn from(e: json::JsonError) -> Self {
        WireError::Json(e)
    }
}

fn schema(m: impl Into<String>) -> WireError {
    WireError::Schema(m.into())
}

/// Serialises a schedule canonically.
///
/// # Panics
///
/// Panics if the schedule contains non-finite floats (no router emits
/// them; the debug validator would reject such a schedule anyway).
pub fn schedule_to_json(schedule: &Schedule) -> String {
    // Pre-size: large schedules (thousands of stages) dominate the
    // service's cold path, so avoid repeated reallocation.
    let mut out = String::with_capacity(64 + schedule.num_stages() * 48);
    out.push_str("{\"format\":\"");
    out.push_str(SCHEDULE_FORMAT);
    write_num(&mut out, "\",\"num_data\":", schedule.num_data.into());
    write_num(&mut out, ",\"num_ancillas\":", schedule.num_ancillas.into());
    write_num(&mut out, ",\"aod_rows\":", schedule.aod_rows as u64);
    write_num(&mut out, ",\"aod_cols\":", schedule.aod_cols as u64);
    out.push_str(",\"stages\":[");
    for (i, stage) in schedule.stages().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_stage(&mut out, stage);
    }
    out.push_str("]}");
    out
}

/// Writes one stage in the `qpilot.schedule/v1` encoding (shared with the
/// frozen legacy writer in [`crate::generic_reference`], which serialises
/// the pre-arena layout to the same bytes).
pub(crate) fn write_stage(out: &mut String, stage: StageRef<'_>) {
    match stage {
        StageRef::Raman(gates) => {
            out.push_str("{\"kind\":\"raman\",\"gates\":[");
            for (i, g) in gates.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_gate(out, g);
            }
            out.push_str("]}");
        }
        StageRef::Transfer(ops) => {
            out.push_str("{\"kind\":\"transfer\",\"ops\":[");
            for (i, op) in ops.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_num(out, "[", op.ancilla.0.into());
                write_num(out, ",", op.row as u64);
                write_num(out, ",", op.col as u64);
                out.push_str(if op.load { ",true" } else { ",false" });
                out.push(']');
            }
            out.push_str("]}");
        }
        StageRef::Move { row_y, col_x } => {
            out.push_str("{\"kind\":\"move\",\"row_y\":[");
            for (i, y) in row_y.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_f64(out, *y);
            }
            out.push_str("],\"col_x\":[");
            for (i, x) in col_x.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_f64(out, *x);
            }
            out.push_str("]}");
        }
        StageRef::Rydberg(ops) => {
            out.push_str("{\"kind\":\"rydberg\",\"ops\":[");
            for (i, op) in ops.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                write_atom(out, op.a);
                out.push(',');
                write_atom(out, op.b);
                out.push(',');
                match op.kind {
                    RydbergKind::Cz => out.push_str("\"cz\""),
                    RydbergKind::CxInto { target_b } => {
                        out.push_str("[\"cx\",");
                        out.push_str(if target_b { "true" } else { "false" });
                        out.push(']');
                    }
                    RydbergKind::Zz(theta) => {
                        out.push_str("[\"zz\",");
                        write_f64(out, theta);
                        out.push(']');
                    }
                }
                out.push(']');
            }
            out.push_str("]}");
        }
    }
}

fn write_atom(out: &mut String, atom: AtomRef) {
    match atom {
        AtomRef::Data(q) => write_num(out, "[\"d\",", q.into()),
        AtomRef::Ancilla(a) => write_num(out, "[\"a\",", a.0.into()),
    }
    out.push(']');
}

/// Appends `prefix`, then `v` in decimal: the bytes `to_string` would
/// produce, written in place.
fn write_num(out: &mut String, prefix: &str, v: u64) {
    out.push_str(prefix);
    write_u64(out, v);
}

/// Serialises one gate in the compact wire encoding (shared with the
/// service protocol's circuit representation).
pub fn write_gate(out: &mut String, g: &Gate) {
    out.push_str("[\"");
    out.push_str(g.mnemonic());
    out.push('"');
    match *g {
        Gate::Rx(q, t) | Gate::Ry(q, t) | Gate::Rz(q, t) => {
            write_num(out, ",", q.raw().into());
            out.push(',');
            write_f64(out, t);
        }
        Gate::Zz(a, b, t) => {
            write_num(out, ",", a.raw().into());
            write_num(out, ",", b.raw().into());
            out.push(',');
            write_f64(out, t);
        }
        Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) => {
            write_num(out, ",", a.raw().into());
            write_num(out, ",", b.raw().into());
        }
        _ => {
            let q = g.operands().into_iter().next().expect("1Q operand");
            write_num(out, ",", q.raw().into());
        }
    }
    out.push(']');
}

/// Parses one gate from the compact wire encoding.
pub fn gate_from_value(v: &Value) -> Result<Gate, WireError> {
    let items = v.as_arr().ok_or_else(|| schema("gate must be an array"))?;
    let name = items
        .first()
        .and_then(Value::as_str)
        .ok_or_else(|| schema("gate array must start with a mnemonic"))?;
    let qubit = |i: usize| -> Result<Qubit, WireError> {
        items
            .get(i)
            .and_then(Value::as_u32)
            .map(Qubit::new)
            .ok_or_else(|| schema(format!("gate `{name}` operand {i} must be a qubit index")))
    };
    let angle = |i: usize| -> Result<f64, WireError> {
        items
            .get(i)
            .and_then(Value::as_f64)
            // Non-finite angles (JSON `1e999` overflows to inf) must be
            // rejected here: they would route fine and then panic the
            // canonical serialiser — a remote crash vector for the
            // service's worker threads.
            .filter(|t| t.is_finite())
            .ok_or_else(|| schema(format!("gate `{name}` needs a finite angle at {i}")))
    };
    let arity = |n: usize| -> Result<(), WireError> {
        if items.len() != n + 1 {
            return Err(schema(format!(
                "gate `{name}` expects {n} trailing element(s), got {}",
                items.len() - 1
            )));
        }
        Ok(())
    };
    Ok(match name {
        "h" => {
            arity(1)?;
            Gate::H(qubit(1)?)
        }
        "x" => {
            arity(1)?;
            Gate::X(qubit(1)?)
        }
        "y" => {
            arity(1)?;
            Gate::Y(qubit(1)?)
        }
        "z" => {
            arity(1)?;
            Gate::Z(qubit(1)?)
        }
        "s" => {
            arity(1)?;
            Gate::S(qubit(1)?)
        }
        "sdg" => {
            arity(1)?;
            Gate::Sdg(qubit(1)?)
        }
        "t" => {
            arity(1)?;
            Gate::T(qubit(1)?)
        }
        "tdg" => {
            arity(1)?;
            Gate::Tdg(qubit(1)?)
        }
        "rx" => {
            arity(2)?;
            Gate::Rx(qubit(1)?, angle(2)?)
        }
        "ry" => {
            arity(2)?;
            Gate::Ry(qubit(1)?, angle(2)?)
        }
        "rz" => {
            arity(2)?;
            Gate::Rz(qubit(1)?, angle(2)?)
        }
        "cx" => {
            arity(2)?;
            Gate::Cx(qubit(1)?, qubit(2)?)
        }
        "cz" => {
            arity(2)?;
            Gate::Cz(qubit(1)?, qubit(2)?)
        }
        "swap" => {
            arity(2)?;
            Gate::Swap(qubit(1)?, qubit(2)?)
        }
        "rzz" => {
            arity(3)?;
            Gate::Zz(qubit(1)?, qubit(2)?, angle(3)?)
        }
        other => return Err(schema(format!("unknown gate mnemonic `{other}`"))),
    })
}

/// Parses a `qpilot.schedule/v1` document back into a [`Schedule`].
///
/// # Errors
///
/// [`WireError::Json`] on malformed JSON, [`WireError::Schema`] on a
/// missing/incompatible format tag or structural mismatch.
pub fn schedule_from_json(src: &str) -> Result<Schedule, WireError> {
    schedule_from_value(&json::parse(src)?)
}

/// Parses a schedule from an already-parsed JSON value (used by clients
/// that receive the schedule embedded in a response object).
pub fn schedule_from_value(doc: &Value) -> Result<Schedule, WireError> {
    let format = doc
        .get("format")
        .and_then(Value::as_str)
        .ok_or_else(|| schema("missing `format` tag"))?;
    if format != SCHEDULE_FORMAT {
        return Err(schema(format!(
            "format `{format}` is not `{SCHEDULE_FORMAT}`"
        )));
    }
    let field_u32 = |k: &str| -> Result<u32, WireError> {
        doc.get(k)
            .and_then(Value::as_u32)
            .ok_or_else(|| schema(format!("missing integer field `{k}`")))
    };
    let field_usize = |k: &str| -> Result<usize, WireError> {
        doc.get(k)
            .and_then(Value::as_usize)
            .ok_or_else(|| schema(format!("missing integer field `{k}`")))
    };
    let mut builder = ScheduleBuilder::new(
        field_u32("num_data")?,
        field_usize("aod_rows")?,
        field_usize("aod_cols")?,
    );
    builder.set_num_ancillas(field_u32("num_ancillas")?);
    let stages = doc
        .get("stages")
        .and_then(Value::as_arr)
        .ok_or_else(|| schema("missing `stages` array"))?;
    for stage in stages {
        push_stage_from_value(&mut builder, stage)?;
    }
    Ok(builder.finish())
}

fn push_stage_from_value(builder: &mut ScheduleBuilder, v: &Value) -> Result<(), WireError> {
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| schema("stage needs a `kind`"))?;
    match kind {
        "raman" => {
            let gates = v
                .get("gates")
                .and_then(Value::as_arr)
                .ok_or_else(|| schema("raman stage needs `gates`"))?;
            let layer: Vec<Gate> = gates
                .iter()
                .map(gate_from_value)
                .collect::<Result<_, _>>()?;
            builder.raman(layer);
        }
        "transfer" => {
            let ops = v
                .get("ops")
                .and_then(Value::as_arr)
                .ok_or_else(|| schema("transfer stage needs `ops`"))?;
            let parsed: Vec<TransferOp> =
                ops.iter()
                    .map(|op| {
                        let items = op.as_arr().filter(|a| a.len() == 4).ok_or_else(|| {
                            schema("transfer op must be [ancilla, row, col, load]")
                        })?;
                        Ok(TransferOp {
                            ancilla: AncillaId(
                                items[0]
                                    .as_u32()
                                    .ok_or_else(|| schema("transfer ancilla id"))?,
                            ),
                            row: items[1].as_usize().ok_or_else(|| schema("transfer row"))?,
                            col: items[2].as_usize().ok_or_else(|| schema("transfer col"))?,
                            load: items[3]
                                .as_bool()
                                .ok_or_else(|| schema("transfer load flag"))?,
                        })
                    })
                    .collect::<Result<_, WireError>>()?;
            builder.transfer(parsed);
        }
        "move" => {
            let coords = |k: &str| -> Result<Vec<f64>, WireError> {
                v.get(k)
                    .and_then(Value::as_arr)
                    .ok_or_else(|| schema(format!("move stage needs `{k}`")))?
                    .iter()
                    .map(|x| x.as_f64().ok_or_else(|| schema(format!("{k} entries"))))
                    .collect()
            };
            let (row_y, col_x) = (coords("row_y")?, coords("col_x")?);
            builder.move_stage(&row_y, &col_x);
        }
        "rydberg" => {
            let ops = v
                .get("ops")
                .and_then(Value::as_arr)
                .ok_or_else(|| schema("rydberg stage needs `ops`"))?;
            let parsed: Vec<RydbergOp> = ops
                .iter()
                .map(|op| {
                    let items = op
                        .as_arr()
                        .filter(|a| a.len() == 3)
                        .ok_or_else(|| schema("rydberg op must be [atom, atom, kind]"))?;
                    Ok(RydbergOp {
                        a: atom_from_value(&items[0])?,
                        b: atom_from_value(&items[1])?,
                        kind: kind_from_value(&items[2])?,
                    })
                })
                .collect::<Result<_, WireError>>()?;
            builder.rydberg(parsed);
        }
        other => return Err(schema(format!("unknown stage kind `{other}`"))),
    }
    Ok(())
}

fn atom_from_value(v: &Value) -> Result<AtomRef, WireError> {
    let items = v
        .as_arr()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| schema("atom must be [tag, index]"))?;
    let idx = items[1]
        .as_u32()
        .ok_or_else(|| schema("atom index must be a u32"))?;
    match items[0].as_str() {
        Some("d") => Ok(AtomRef::Data(idx)),
        Some("a") => Ok(AtomRef::Ancilla(AncillaId(idx))),
        _ => Err(schema("atom tag must be \"d\" or \"a\"")),
    }
}

fn kind_from_value(v: &Value) -> Result<RydbergKind, WireError> {
    if v.as_str() == Some("cz") {
        return Ok(RydbergKind::Cz);
    }
    let items = v
        .as_arr()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| schema("rydberg kind must be \"cz\", [\"cx\",b] or [\"zz\",t]"))?;
    match items[0].as_str() {
        Some("cx") => Ok(RydbergKind::CxInto {
            target_b: items[1].as_bool().ok_or_else(|| schema("cx target flag"))?,
        }),
        Some("zz") => Ok(RydbergKind::Zz(
            items[1]
                .as_f64()
                .filter(|t| t.is_finite())
                .ok_or_else(|| schema("zz angle must be finite"))?,
        )),
        _ => Err(schema("unknown rydberg kind")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schedule() -> Schedule {
        let mut b = ScheduleBuilder::new(3, 2, 2);
        let a = b.fresh_ancilla();
        b.transfer([TransferOp {
            ancilla: a,
            row: 0,
            col: 1,
            load: true,
        }]);
        b.move_stage(&[0.5, 10.0], &[1.85, 11.85]);
        b.raman([Gate::H(Qubit::new(3)), Gate::Rz(Qubit::new(0), -0.25)]);
        b.rydberg([
            RydbergOp::cz(AtomRef::Data(0), AtomRef::Ancilla(a)),
            RydbergOp::cx(AtomRef::Ancilla(a), AtomRef::Data(2)),
            RydbergOp::zz(AtomRef::Data(1), AtomRef::Data(2), 0.7),
        ]);
        b.transfer([TransferOp {
            ancilla: a,
            row: 0,
            col: 1,
            load: false,
        }]);
        b.finish()
    }

    #[test]
    fn round_trip_preserves_schedule() {
        let s = sample_schedule();
        let json = schedule_to_json(&s);
        let back = schedule_from_json(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn serialisation_is_canonical() {
        let s = sample_schedule();
        let once = schedule_to_json(&s);
        let twice = schedule_to_json(&schedule_from_json(&once).unwrap());
        assert_eq!(once, twice);
    }

    #[test]
    fn format_tag_is_checked() {
        let mut doc = schedule_to_json(&sample_schedule());
        doc = doc.replace("qpilot.schedule/v1", "qpilot.schedule/v9");
        assert!(matches!(
            schedule_from_json(&doc),
            Err(WireError::Schema(_))
        ));
    }

    #[test]
    fn malformed_json_reports_json_error() {
        assert!(matches!(
            schedule_from_json("{\"format\":"),
            Err(WireError::Json(_))
        ));
    }

    #[test]
    fn all_gate_kinds_round_trip() {
        let gates = vec![
            Gate::H(Qubit::new(0)),
            Gate::X(Qubit::new(1)),
            Gate::Y(Qubit::new(2)),
            Gate::Z(Qubit::new(0)),
            Gate::S(Qubit::new(1)),
            Gate::Sdg(Qubit::new(2)),
            Gate::T(Qubit::new(0)),
            Gate::Tdg(Qubit::new(1)),
            Gate::Rx(Qubit::new(0), 0.1),
            Gate::Ry(Qubit::new(1), -0.2),
            Gate::Rz(Qubit::new(2), 1e-9),
            Gate::Cx(Qubit::new(0), Qubit::new(1)),
            Gate::Cz(Qubit::new(1), Qubit::new(2)),
            Gate::Zz(Qubit::new(0), Qubit::new(2), 2.5),
            Gate::Swap(Qubit::new(1), Qubit::new(0)),
        ];
        for g in gates {
            let mut out = String::new();
            write_gate(&mut out, &g);
            let v = json::parse(&out).unwrap();
            assert_eq!(gate_from_value(&v).unwrap(), g, "gate {g}");
        }
    }

    #[test]
    fn schema_errors_name_the_problem() {
        let bad = r#"{"format":"qpilot.schedule/v1","num_data":1,"num_ancillas":0,"aod_rows":1,"aod_cols":1,"stages":[{"kind":"warp"}]}"#;
        match schedule_from_json(bad) {
            Err(WireError::Schema(m)) => assert!(m.contains("warp")),
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    #[test]
    fn empty_schedule_round_trips() {
        let s = Schedule::new(1, 1, 1);
        assert_eq!(schedule_from_json(&schedule_to_json(&s)).unwrap(), s);
    }
}
