//! Seeded inputs: flows, rules, the packet trace and its oracle verdicts.
//!
//! Everything here is a pure function of the workload and the seed, and
//! runs before any timing starts. The library under test only ever sees
//! the generated rules and packets.

use vif_core::filter::{DecisionPath, StatelessFilter};
use vif_core::rules::{FilterRule, FlowPattern, RuleAction};
use vif_core::ruleset::RuleSet;
use vif_dataplane::{FiveTuple, Packet, Protocol};
use vif_trie::Ipv4Prefix;

use crate::workload::Workload;

/// Wire size of every generated packet. Traffic stays in process, so the
/// size changes no wall-clock work; it only feeds the cost model.
pub const WIRE_BYTES: u16 = 64;

/// Rule sources are drawn from the first this-many flows, so the same
/// seed gives the same drop rules on every workload.
const RULE_SOURCE_POOL: u32 = 65_536;

/// Flow sources start at 10.0.0.0.
const FLOW_BASE: u32 = 0x0a00_0000;

/// Sentinel sources live in 172.16.0.0/12, outside the flow population
/// (10.0.0.0/8), so a sentinel rule never touches background traffic.
const SENTINEL_BASE: u32 = 0xac10_0000;

/// SplitMix64: small, fast and reproducible across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per use so streams do not overlap.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }
}

/// Zipf(s) over ranks `1..=n` by rejection-inversion (Hörmann and
/// Derflinger), O(1) per sample with no table.
struct Zipf {
    s: f64,
    n: f64,
    h_x1: f64,
    h_n: f64,
    sc: f64,
}

impl Zipf {
    fn new(n: u32, s: f64) -> Self {
        let mut z = Zipf {
            s,
            n: f64::from(n),
            h_x1: 0.0,
            h_n: 0.0,
            sc: 0.0,
        };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(z.n + 0.5);
        z.sc = 2.0 - z.h_integral_inv(z.h_integral(2.5) - z.h(2.0));
        z
    }

    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    fn h_integral(&self, x: f64) -> f64 {
        let ln_x = x.ln();
        helper2((1.0 - self.s) * ln_x) * ln_x
    }

    fn h_integral_inv(&self, x: f64) -> f64 {
        let t = (x * (1.0 - self.s)).max(-1.0);
        (helper1(t) * x).exp()
    }

    /// A rank in `1..=n`.
    fn sample(&self, rng: &mut Rng) -> u32 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if k - x <= self.sc || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u32;
            }
        }
    }
}

/// `ln(1 + x) / x`, continuous at 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x / 3.0)
    }
}

/// `(e^x - 1) / x`, continuous at 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0)
    }
}

fn mix32(mut x: u32) -> u32 {
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^ (x >> 16)
}

/// The victim's prefix: every flow is addressed to it.
pub fn victim_prefix() -> Ipv4Prefix {
    Ipv4Prefix::new(0xcb00_7100, 24) // 203.0.113.0/24
}

/// Flow `i` of the population: source 10.0.0.0 + i toward the victim.
pub fn flow_tuple(i: u32) -> FiveTuple {
    let h = mix32(i);
    let protocol = if i & 1 == 0 {
        Protocol::Udp
    } else {
        Protocol::Tcp
    };
    FiveTuple::new(
        FLOW_BASE.wrapping_add(i),
        0xcb00_7100 | (h & 0xff),
        1024 + ((h >> 8) % 60_000) as u16,
        80,
        protocol,
    )
}

/// The population index of a flow built by [`flow_tuple`].
pub fn flow_index(t: &FiveTuple) -> u32 {
    t.src_ip.wrapping_sub(FLOW_BASE)
}

/// Sentinel flow `k` (one per activation).
pub fn sentinel_tuple(k: u32) -> FiveTuple {
    FiveTuple::new(SENTINEL_BASE + k, 0xcb00_7109, 4000, 80, Protocol::Udp)
}

/// The /32-source drop rule that activates sentinel `k`.
pub fn sentinel_rule(k: u32) -> FilterRule {
    per_source_drop(SENTINEL_BASE + k)
}

fn per_source_drop(src: u32) -> FilterRule {
    FilterRule::drop(FlowPattern::prefixes(
        Ipv4Prefix::new(src, 32),
        victim_prefix(),
    ))
}

/// A packet of `tuple` with the benchmark's fixed wire size.
pub fn packet(tuple: FiveTuple, id: u64) -> Packet {
    Packet::new(tuple, WIRE_BYTES, 0, id)
}

/// The workload's background rules, in install order: per-source /32
/// drops on distinct flows, then (hash workloads) one probabilistic
/// drop-50% rule on the whole victim prefix.
pub fn background_rules(w: &Workload, seed: u64) -> Vec<FilterRule> {
    let pool = w.flows.min(RULE_SOURCE_POOL);
    assert!(w.drop_rules as u32 <= pool, "more rules than rule sources");
    let mut rng = Rng::new(seed, 1);
    // Partial Fisher-Yates over the source pool: distinct sources.
    let mut idx: Vec<u32> = (0..pool).collect();
    let mut rules = Vec::with_capacity(w.drop_rules + 1);
    for i in 0..w.drop_rules {
        let j = i + rng.below(pool - i as u32) as usize;
        idx.swap(i, j);
        rules.push(per_source_drop(flow_tuple(idx[i]).src_ip));
    }
    if w.hash_rule {
        rules.push(FilterRule::drop_fraction(
            FlowPattern::prefixes(Ipv4Prefix::new(0, 0), victim_prefix()),
            0.5,
        ));
    }
    rules
}

/// The packet trace as flow indices: uniform or Zipf over the population.
pub fn trace(w: &Workload, seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed, 2);
    match w.zipf {
        None => (0..w.trace_len).map(|_| rng.below(w.flows)).collect(),
        Some(s) => {
            let z = Zipf::new(w.flows, s);
            (0..w.trace_len).map(|_| z.sample(&mut rng) - 1).collect()
        }
    }
}

/// The order in which rounds visit the trace's round-sized chunks: each
/// round offers chunk `order.below(chunks)`.
pub fn chunk_order(seed: u64) -> Rng {
    Rng::new(seed, 3)
}

/// The flow occurs in the trace.
pub const SEEN: u8 = 1;
/// The oracle drops the flow.
pub const DROP: u8 = 2;
/// The oracle decided the flow on the hash (SHA-256) path.
pub const HASHED: u8 = 4;

/// Expected verdicts, from [`StatelessFilter::decide_reference`] evaluated
/// once per distinct flow of the trace, and the per-round expectations
/// they imply.
pub struct Oracle {
    /// Per flow: `SEEN | DROP? | HASHED?`, 0 for flows not in the trace.
    pub flows: Vec<u8>,
    /// Expected filtered packets of each round-sized chunk of the trace.
    pub chunk_filtered: Vec<u32>,
    /// The reference filter over the background rules.
    reference: StatelessFilter,
}

impl Oracle {
    /// Evaluates the reference filter over the trace's distinct flows.
    /// `flip` inverts one flow's expected verdict (used to prove the gate
    /// is live).
    pub fn build(
        w: &Workload,
        trace: &[u32],
        rules: &[FilterRule],
        secret: [u8; 32],
        flip: Option<u32>,
    ) -> Self {
        let reference = StatelessFilter::new(RuleSet::from_rules(rules.iter().copied()), secret);
        let mut flows = vec![0u8; w.flows as usize];
        for &f in trace {
            let slot = &mut flows[f as usize];
            if *slot == 0 {
                let v = reference.decide_reference(&flow_tuple(f));
                *slot =
                    SEEN | if v.action == RuleAction::Drop {
                        DROP
                    } else {
                        0
                    } | if v.path == DecisionPath::HashBased {
                        HASHED
                    } else {
                        0
                    };
            }
        }
        if let Some(f) = flip {
            flows[f as usize] ^= DROP;
        }
        let chunk_filtered = trace
            .chunks_exact(w.round)
            .map(|c| c.iter().filter(|&&f| flows[f as usize] & DROP != 0).count() as u32)
            .collect();
        Oracle {
            flows,
            chunk_filtered,
            reference,
        }
    }

    /// True if the background rules alone drop `t` (a withdrawn sentinel
    /// falls back to them).
    pub fn drops_tuple(&self, t: &FiveTuple) -> bool {
        self.reference.decide_reference(t).action == RuleAction::Drop
    }

    /// True if the oracle drops flow `f`.
    pub fn drops(&self, f: u32) -> bool {
        self.flows[f as usize] & DROP != 0
    }

    /// True if the oracle decided flow `f` on the hash path.
    pub fn hashed(&self, f: u32) -> bool {
        self.flows[f as usize] & HASHED != 0
    }
}
