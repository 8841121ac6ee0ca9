//! Seeded request-line generation for the workloads.
//!
//! The daemon sees only the lines built here. Every line is generated
//! before timing starts, from the workload seed alone, with the
//! protocol's own request-line functions (`qpilot_service::protocol::*_line`).

use qpilot_service::protocol::{
    circuit_to_value_json, compile_request_line, qaoa_request_line, qec_request_line,
    qsim_request_line,
};
use qpilot_workloads::graphs::random_regular;
use qpilot_workloads::pauli::{random_pauli_strings, PauliWorkloadConfig};
use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

/// SplitMix64: a tiny deterministic generator, so the request stream
/// depends on the seed and on nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An angle in `(0.05, 3.05)`, at full precision so two requests
    /// never share one by chance.
    fn angle(&mut self) -> f64 {
        0.05 + 3.0 * self.unit()
    }
}

/// An FNV-1a golden pinned by the repository's own test suites: the
/// expected bytes are constants here, never produced at run time.
#[derive(Debug, Clone, Copy)]
pub struct Golden {
    pub label: &'static str,
    pub fnv1a: u64,
    /// Schedule byte length, where the source test pins it too.
    pub len: Option<usize>,
}

/// One generated compile request.
#[derive(Debug, Clone)]
pub struct Req {
    /// The request line with its newline, ready to write.
    pub line: String,
    /// The `router` the reply must name.
    pub router: &'static str,
    /// Set for requests whose schedule bytes are pinned.
    pub golden: Option<Golden>,
}

impl Req {
    fn new(mut line: String, router: &'static str, golden: Option<Golden>) -> Req {
        line.push('\n');
        Req {
            line,
            router,
            golden,
        }
    }

    /// The request line without its newline.
    pub fn text(&self) -> &str {
        self.line.trim_end_matches('\n')
    }

    /// The same request asking for its schedule, for one sent with
    /// `schedule:false`.
    pub fn with_schedule(&self) -> Option<Req> {
        let line = self.text().strip_suffix(",\"schedule\":false}")?;
        Some(Req::new(format!("{line}}}"), self.router, None))
    }
}

/// Generic-router goldens are not expressible here; these are the
/// requests the wire protocol can express exactly:
/// * QAOA bare cost layer on `random_regular(n, 3, 4)`, γ = 0.7, default
///   options, square array (`tests/qaoa_identity.rs`);
/// * qec distance 3 and 5, one round, θ = 0.37, parallel waves
///   (`crates/service/tests/qec_router.rs`).
pub fn golden_requests() -> Vec<Req> {
    const QAOA: [(u32, u64, usize, &str); 3] = [
        (20, 0xdd23248a037420b8, 5543, "qaoa n=20"),
        (60, 0x9aa2ff856d80a500, 16770, "qaoa n=60"),
        (100, 0xff0ba15b7afa3253, 28806, "qaoa n=100"),
    ];
    const QEC: [(u32, u64, &str); 2] = [
        (3, 0x1157_8aa8_864c_df42, "qec d=3"),
        (5, 0x6f11_3317_d980_b975, "qec d=5"),
    ];
    let mut out = Vec::new();
    for (n, fnv1a, len, label) in QAOA {
        let graph = random_regular(n, 3, 4).expect("3-regular graph exists");
        let line = qaoa_request_line(n, graph.edges(), &[0.7], &[], None, None, None, None, true);
        let len = Some(len);
        out.push(Req::new(line, "qaoa", Some(Golden { label, fnv1a, len })));
    }
    for (d, fnv1a, label) in QEC {
        let line = qec_request_line(d, 1, 0.37, None, None, None, true);
        out.push(Req::new(
            line,
            "qec",
            Some(Golden {
                label,
                fnv1a,
                len: None,
            }),
        ));
    }
    out
}

/// Generic router: the paper's random circuit, `10 × n` CX gates.
pub fn generic(n: u32, rng: &mut Rng, schedule: bool) -> Req {
    let circuit = random_circuit(&RandomCircuitConfig::paper(n, 10, rng.next_u64()));
    let line = compile_request_line(&circuit_to_value_json(&circuit), None, None, None, schedule);
    Req::new(line, "generic", None)
}

/// qsim router: the paper's 100 random Pauli strings at p = 0.1.
pub fn qsim(n: u32, rng: &mut Rng, schedule: bool) -> Req {
    let config = PauliWorkloadConfig::paper(n as usize, 0.1, rng.next_u64());
    let strings: Vec<String> = random_pauli_strings(&config)
        .iter()
        .map(ToString::to_string)
        .collect();
    let line = qsim_request_line(&strings, rng.angle(), None, None, None, schedule);
    Req::new(line, "qsim", None)
}

/// QAOA router: one full round on a random 3-regular graph.
pub fn qaoa(n: u32, rng: &mut Rng, schedule: bool) -> Req {
    let graph = random_regular(n, 3, rng.next_u64()).expect("3-regular graph exists");
    let (gamma, beta) = (rng.angle(), rng.angle());
    let edges = graph.edges();
    let line = qaoa_request_line(
        n,
        edges,
        &[gamma],
        &[beta],
        None,
        None,
        None,
        None,
        schedule,
    );
    Req::new(line, "qaoa", None)
}

/// qec router: one syndrome round at distance `d`, seeded θ.
pub fn qec(d: u32, rng: &mut Rng, schedule: bool) -> Req {
    let line = qec_request_line(d, 1, rng.angle(), None, None, None, schedule);
    Req::new(line, "qec", None)
}

/// One `cold-sweep` cycle: every router at every size, all distinct.
pub const SWEEP_CYCLE: usize = 14;

/// `cold-sweep`: `cycles` sweep cycles with `schedule:false`.
pub fn cold_sweep(seed: u64, cycles: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(cycles * SWEEP_CYCLE);
    for _ in 0..cycles {
        for n in [20, 50, 100] {
            out.push(generic(n, &mut rng, false));
        }
        for n in [20, 50, 100] {
            out.push(qsim(n, &mut rng, false));
        }
        for n in [20, 50, 100] {
            out.push(qaoa(n, &mut rng, false));
        }
        for d in 3..=7 {
            out.push(qec(d, &mut rng, false));
        }
    }
    out
}

/// The `warm-fetch` working set: generic 20/50/100q, qsim 100q, QAOA
/// 100q and qec d=7. It is the same six requests for every run seed:
/// client decode time grows with the square of reply size at the
/// defining commit, so seed-drawn instances would spread the workload's
/// latencies across seeds far more than run-to-run noise does.
pub fn working_set(schedule: bool) -> Vec<Req> {
    let mut rng = Rng::new(0x5745_4b53_4554); // "WKSET"
    vec![
        generic(20, &mut rng, schedule),
        generic(50, &mut rng, schedule),
        generic(100, &mut rng, schedule),
        qsim(100, &mut rng, schedule),
        qaoa(100, &mut rng, schedule),
        qec(7, &mut rng, schedule),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let a: Vec<String> = cold_sweep(7, 2).into_iter().map(|r| r.line).collect();
        let b: Vec<String> = cold_sweep(7, 2).into_iter().map(|r| r.line).collect();
        let c: Vec<String> = cold_sweep(8, 2).into_iter().map(|r| r.line).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut distinct = a.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len(), "cold-sweep lines must be distinct");
    }
}
