//! Semantic spot-check through the full service boundary: for every
//! protocol router tag, compile a small workload end-to-end via the real
//! `qpilot-cli` → TCP → `qpilotd` path, deserialise the returned
//! schedule JSON, lower it to a circuit, and run the `qpilot-sim`
//! equivalence check — ancilla discipline (all ancillas restored to
//! `|0⟩`) and unitary fidelity on the data register. This certifies the
//! wire path against physics, not just bytes.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use qpilot_circuit::{Circuit, PauliString};
use qpilot_core::wire::schedule_from_json;
use qpilot_sim::equiv::verify_compiled;
use qpilot_workloads::graphs::Graph;

struct Daemon {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_daemon() -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qpilotd"))
        .args(["--listen", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn qpilotd");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("readiness line");
    let addr = ready
        .trim()
        .strip_prefix("qpilotd listening on ")
        .unwrap_or_else(|| panic!("unexpected readiness line: {ready:?}"))
        .parse()
        .expect("bound address");
    Daemon {
        child,
        addr,
        _stdout: stdout,
    }
}

impl Daemon {
    fn shutdown(mut self) {
        let _ = Command::new(env!("CARGO_BIN_EXE_qpilot-cli"))
            .args(["shutdown", "--connect", &self.addr.to_string()])
            .output();
        let _ = self.child.wait();
    }
}

/// Runs `qpilot-cli compile … --schedule-out FILE` against `addr` and
/// returns the schedule lowered to a circuit over data ⊗ ancillas.
fn compile_via_cli(addr: SocketAddr, tag: &str, extra_args: &[&str]) -> Circuit {
    let out: PathBuf = std::env::temp_dir().join(format!(
        "qpilot_semantic_{tag}_{}.schedule.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let mut args = vec!["compile", "--connect"];
    let addr_str = addr.to_string();
    args.push(&addr_str);
    args.extend_from_slice(extra_args);
    args.push("--schedule-out");
    let out_str = out.to_str().expect("utf-8 temp path");
    args.push(out_str);
    let output = Command::new(env!("CARGO_BIN_EXE_qpilot-cli"))
        .args(&args)
        .output()
        .expect("run qpilot-cli");
    assert!(
        output.status.success(),
        "{tag}: qpilot-cli failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let schedule_json = std::fs::read_to_string(&out).expect("schedule file written");
    let schedule = schedule_from_json(&schedule_json)
        .unwrap_or_else(|e| panic!("{tag}: schedule does not parse: {e}"));
    let _ = std::fs::remove_file(&out);
    schedule.to_circuit()
}

fn assert_equivalent(tag: &str, compiled: &Circuit, reference: &Circuit) {
    let result = verify_compiled(compiled, reference);
    assert!(
        result.equivalent,
        "{tag}: wire-path schedule is not equivalent to the reference \
         (leakage {:.3e}, deviation {:.3e})",
        result.max_ancilla_leakage, result.max_deviation
    );
}

#[test]
fn generic_router_wire_path_is_physically_correct() {
    let daemon = spawn_daemon();

    // A 3-qubit mixed-gate circuit shipped as QASM, exactly as a client
    // would send it.
    let mut circuit = Circuit::new(3);
    circuit.h(0).cx(0, 1).t(1).cz(1, 2).rz(2, 0.37).cx(2, 0);
    let qasm_path = std::env::temp_dir().join(format!(
        "qpilot_semantic_generic_{}.qasm",
        std::process::id()
    ));
    std::fs::write(&qasm_path, circuit.to_qasm()).expect("write qasm");

    let compiled = compile_via_cli(
        daemon.addr,
        "generic",
        &["--qasm", qasm_path.to_str().unwrap()],
    );
    let _ = std::fs::remove_file(&qasm_path);

    // The daemon derives a square array for 3 qubits; the compiled
    // circuit's data register is that array's size.
    let num_data = {
        // Reference over the data register: the original circuit widened
        // to the array (identity on the padding qubits).
        let parsed_width = compiled.num_qubits();
        assert!(parsed_width >= 3, "data register at least the circuit");
        qpilot_core::FpqaConfig::square_for(3).num_data()
    };
    let reference = circuit.remapped(num_data, |q| q);
    assert_equivalent("generic", &compiled, &reference);
    daemon.shutdown();
}

#[test]
fn qsim_router_wire_path_is_physically_correct() {
    let daemon = spawn_daemon();
    let theta = 0.4;
    let compiled = compile_via_cli(
        daemon.addr,
        "qsim",
        &["--router", "qsim", "--strings", "ZZI,IXZ", "--theta", "0.4"],
    );

    let num_data = qpilot_core::FpqaConfig::square_for(3).num_data();
    let mut reference = Circuit::new(num_data);
    for s in ["ZZI", "IXZ"] {
        let string: PauliString = s.parse().unwrap();
        reference.extend_from(&string.evolution_circuit(theta).remapped(num_data, |q| q));
    }
    assert_equivalent("qsim", &compiled, &reference);
    daemon.shutdown();
}

#[test]
fn qaoa_router_wire_path_is_physically_correct() {
    let daemon = spawn_daemon();
    let (gamma, beta) = (0.7, 0.3);
    let edges = [(0u32, 1u32), (1, 2), (2, 3), (0, 3)];
    let compiled = compile_via_cli(
        daemon.addr,
        "qaoa",
        &[
            "--router",
            "qaoa",
            "--edges",
            "0-1,1-2,2-3,0-3",
            "--qubits",
            "4",
            "--gamma",
            "0.7",
            "--beta",
            "0.3",
        ],
    );

    let num_data = qpilot_core::FpqaConfig::square_for(4).num_data();
    let graph = Graph::from_edges(4, edges.iter().copied()).expect("valid graph");
    let reference = graph
        .qaoa_circuit(&[gamma], &[beta])
        .remapped(num_data, |q| q);
    assert_equivalent("qaoa", &compiled, &reference);
    daemon.shutdown();
}

#[test]
fn qec_router_wire_path_is_physically_correct() {
    let daemon = spawn_daemon();
    let args = [
        "--router",
        "qec",
        "--distance",
        "2",
        "--rounds",
        "1",
        "--theta",
        "0.4",
    ];
    let compiled = compile_via_cli(daemon.addr, "qec", &args);

    // d = 2: 4 data qubits + 3 check ancillas; the reference is the
    // router's own data-register stabilizer-phase circuit.
    assert_eq!(compiled.num_qubits(), 7);
    let reference = qpilot_core::qec::reference_circuit(&qpilot_core::QecWorkload {
        distance: 2,
        rounds: 1,
        theta: 0.4,
    });
    assert_equivalent("qec", &compiled, &reference);

    // Repeating the identical request must come back byte-identical
    // from the cache (same fingerprint, same canonical schedule JSON).
    let again = compile_via_cli(daemon.addr, "qec-again", &args);
    assert_eq!(compiled, again, "cache round-trip changed the schedule");
    daemon.shutdown();
}

#[test]
fn cli_auto_rejects_workload_flags_of_two_families() {
    // Refused while building the request line, before any connection is
    // made, so no daemon is needed.
    for (args, first, second) in [
        (
            ["--strings", "ZZ", "--distance", "3"],
            "--strings",
            "--distance",
        ),
        (
            ["--random", "8,2,1", "--graph", "6,0.5,1"],
            "--random",
            "--graph",
        ),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_qpilot-cli"))
            .args(["compile", "--router", "auto", "--no-schedule"])
            .args(args)
            .output()
            .expect("run qpilot-cli");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("ambiguous"), "{stderr}");
        assert!(stderr.contains(&format!("`{first}`")), "{stderr}");
        assert!(stderr.contains(&format!("`{second}`")), "{stderr}");
    }
}
