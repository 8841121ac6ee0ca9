//! Wire-byte goldens for the generic and qsim routers.
//!
//! The generic router's differential suite (`router_equivalence`) compares
//! against the frozen `generic_reference` router, but that reference
//! serialises through the same `wire::write_stage` as the arena IR, so a
//! drift in the shared writer would move both sides and go unseen. These
//! goldens pin the canonical `qpilot.schedule/v1` bytes themselves:
//! `(n, fnv1a-64 of schedule_to_json, byte length)`.

use qpilot::core::compile::{compile, Workload};
use qpilot::core::{wire, FpqaConfig};
use qpilot::workloads::pauli::{random_pauli_strings, PauliWorkloadConfig};
use qpilot::workloads::random::{random_circuit, RandomCircuitConfig};

/// FNV-1a 64-bit, the hash every schedule golden in the workspace uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn schedule_bytes(workload: &Workload, n: u32) -> String {
    let program = compile(workload, &FpqaConfig::square_for(n)).expect("routes");
    wire::schedule_to_json(program.schedule())
}

/// `random_circuit(paper(n, 10, 1))` on `square_for(n)`, default options.
const GENERIC_GOLDENS: [(u32, u64, usize); 3] = [
    (20, 0xd37f_079b_e779_c32b, 100_906),
    (50, 0xe7d4_b059_731a_1ab0, 275_451),
    (100, 0x0712_8b17_f106_ac82, 551_223),
];

/// 100 Pauli strings at p = 0.1 (seed 1), θ = 0.5, on `square_for(n)`.
const QSIM_GOLDEN: (u32, u64, usize) = (100, 0xf616_a8e7_b2f5_7ed6, 538_791);

#[test]
fn generic_schedule_bytes_match_goldens() {
    for (n, hash, len) in GENERIC_GOLDENS {
        let workload = Workload::circuit(random_circuit(&RandomCircuitConfig::paper(n, 10, 1)));
        let bytes = schedule_bytes(&workload, n);
        assert_eq!(bytes.len(), len, "generic schedule length drifted at n={n}");
        assert_eq!(
            fnv1a(bytes.as_bytes()),
            hash,
            "generic schedule bytes drifted at n={n}"
        );
    }
}

#[test]
fn qsim_schedule_bytes_match_golden() {
    let (n, hash, len) = QSIM_GOLDEN;
    let strings = random_pauli_strings(&PauliWorkloadConfig::paper(n as usize, 0.1, 1));
    let bytes = schedule_bytes(&Workload::pauli_strings(strings, 0.5), n);
    assert_eq!(bytes.len(), len, "qsim schedule length drifted at n={n}");
    assert_eq!(
        fnv1a(bytes.as_bytes()),
        hash,
        "qsim schedule bytes drifted at n={n}"
    );
}
