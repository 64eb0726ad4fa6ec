//! The named workloads and their parameters.

/// One workload: the traffic mix, the rule set and the loop shape.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Flow population toward the victim.
    pub flows: u32,
    /// `None` for uniform traffic, `Some(s)` for Zipf(s) over the flows.
    pub zipf: Option<f64>,
    /// Pre-generated trace length in packets (a multiple of `round`); the
    /// trace repeats when the run outlasts it.
    pub trace_len: usize,
    /// Per-source /32 background drop rules.
    pub drop_rules: usize,
    /// Adds one probabilistic drop-50% rule on the victim prefix, and
    /// runs the hybrid cache's rule-update period at each audit.
    pub hash_rule: bool,
    /// Filter workers (enclave slices).
    pub workers: usize,
    /// Packets per data-plane round; below the ring capacity, so the
    /// closed loop never overflows.
    pub round: usize,
    /// Data-plane rounds per audit period.
    pub audit_every: u32,
    /// Every round is followed by one rule activation (the churn loop);
    /// otherwise activations run in a phase after the data-plane phase.
    pub churn: bool,
    /// Rounds (churn: cycles) run before measuring, so caches fill.
    pub warmup_rounds: u32,
    /// Service restarts per phase: each episode starts fresh worker and
    /// TX threads over the same enclaves, after a spare set-up that only
    /// measures itself (`setup_s` is the median over all set-ups).
    pub episodes: u32,
}

/// The workloads the command accepts.
pub const NAMES: [&str; 3] = ["paper_64k", "zipf4m_hash", "churn_4096"];

impl Workload {
    /// The workload called `name`, at full size.
    pub fn named(name: &str) -> Option<Workload> {
        let paper = Workload {
            name: "paper_64k",
            flows: 65_536,
            zipf: None,
            trace_len: 1 << 20,
            drop_rules: 3_000,
            hash_rule: false,
            workers: 1,
            round: 4_096,
            audit_every: 32,
            churn: false,
            warmup_rounds: 128,
            episodes: 12,
        };
        match name {
            "paper_64k" => Some(paper),
            "zipf4m_hash" => Some(Workload {
                name: "zipf4m_hash",
                flows: 4_000_000,
                zipf: Some(0.8),
                trace_len: 4 << 20,
                hash_rule: true,
                // One pass of the trace, so the hybrid cache is full.
                warmup_rounds: 1_024,
                ..paper
            }),
            "churn_4096" => Some(Workload {
                name: "churn_4096",
                drop_rules: 4_096,
                workers: 2,
                audit_every: 8,
                churn: true,
                warmup_rounds: 4,
                ..paper
            }),
            _ => None,
        }
    }

    /// The same workload shape at a size that runs in about a second,
    /// for the benchmark's own tests.
    pub fn smoke(self) -> Workload {
        Workload {
            flows: self.flows.min(16_384),
            trace_len: 1 << 16,
            drop_rules: self.drop_rules / 16,
            round: 1_024,
            audit_every: 4,
            warmup_rounds: 2,
            episodes: 2,
            ..self
        }
    }
}
