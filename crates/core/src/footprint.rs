//! The enclave memory model of a rule set, answered in O(1).
//!
//! [`RuleSet::memory_bytes`](crate::ruleset::RuleSet::memory_bytes) is the
//! working-set input of the cost model (every burst's EPC stall) and of the
//! Fig. 3b reproduction. It prices the paper's §V-A lookup structures: a
//! stride-8 multi-bit trie with controlled prefix expansion beside its
//! authoritative prefix map, the compiled covering-prefix trie over the
//! same prefixes, one compiled candidate per coarse rule, the exact-match
//! table, and the rule array with its telemetry.
//!
//! The rule set builds neither the expanded trie nor a trie over its host
//! rules (those live in the classifier's host table), so [`Footprint`]
//! keeps the model's counts itself, updated per edit:
//!
//! - an expanded node exists while some prefix terminates at or below it,
//!   so per-node reference counts give the node count;
//! - the compiled trie's deduplicated slot lists decompose per node — a
//!   prefix terminates in exactly one node, so two equal lists never sit
//!   in different nodes — and an edit recomputes only the share of the
//!   node its prefix terminates in.

use crate::classifier::{CandSpan, CANDIDATE_BYTES, STRIDE};
use crate::fasthash::FxHashMap;
use crate::rules::FilterRule;
use crate::ruleset::{Bucket, RuleCounters, RuleId};
use std::collections::BTreeMap;
use vif_dataplane::FiveTuple;
use vif_trie::{CompiledTrie, Ipv4Prefix, MultiBitTrie};

/// Modelled bytes of one exact-match table entry (key, id, table overhead).
const EXACT_ENTRY: usize = std::mem::size_of::<FiveTuple>() + std::mem::size_of::<RuleId>() + 48;

/// Modelled bytes of one rule slot: the rule plus its telemetry counters.
const RULE_ENTRY: usize = std::mem::size_of::<FilterRule>() + std::mem::size_of::<RuleCounters>();

/// Slots per node.
const FANOUT: usize = 1 << STRIDE;

/// One expanded node's contribution to the model.
#[derive(Debug, Clone, Copy, Default)]
struct NodeShare {
    /// Prefixes terminating in this node or below it.
    refs: u32,
    /// Distinct non-empty slot lists of the compiled node.
    lists: u32,
    /// Entries across those lists.
    entries: u32,
}

/// Incrementally maintained counts behind the memory model (see the
/// [module docs](self)).
#[derive(Debug, Clone, Default)]
pub(crate) struct Footprint {
    /// Expanded nodes below the root, keyed by the prefix their stride
    /// window starts after (`addr/8`, `addr/16`, `addr/24`).
    nodes: FxHashMap<Ipv4Prefix, NodeShare>,
    /// The root node, which always exists.
    root: NodeShare,
    /// Distinct slot lists, summed over all nodes.
    lists: usize,
    /// Slot-list entries, summed over all nodes.
    entries: usize,
    /// Nodes whose list share is stale since the last
    /// [`refresh`](Footprint::refresh).
    stale: Vec<Ipv4Prefix>,
}

/// Depth of the node `prefix` terminates in.
fn term_depth(prefix: Ipv4Prefix) -> u8 {
    prefix.len().saturating_sub(1) / STRIDE
}

/// The node at `depth` on `prefix`'s path.
fn node_at(prefix: Ipv4Prefix, depth: u8) -> Ipv4Prefix {
    Ipv4Prefix::new(prefix.addr(), depth * STRIDE)
}

impl Footprint {
    /// Records that `prefix` entered the coarse prefix map.
    pub(crate) fn link(&mut self, prefix: Ipv4Prefix) {
        for depth in 1..=term_depth(prefix) {
            self.nodes.entry(node_at(prefix, depth)).or_default().refs += 1;
        }
        self.stale.push(node_at(prefix, term_depth(prefix)));
    }

    /// Records that `prefix` left the coarse prefix map.
    pub(crate) fn unlink(&mut self, prefix: Ipv4Prefix) {
        for depth in 1..=term_depth(prefix) {
            let key = node_at(prefix, depth);
            let node = self.nodes.get_mut(&key).expect("unlinking a linked prefix");
            node.refs -= 1;
            if node.refs == 0 {
                self.lists -= node.lists as usize;
                self.entries -= node.entries as usize;
                self.nodes.remove(&key);
            }
        }
        self.stale.push(node_at(prefix, term_depth(prefix)));
    }

    /// Recomputes the list share of every node touched since the last
    /// refresh from the current prefix map.
    pub(crate) fn refresh(&mut self, coarse: &BTreeMap<Ipv4Prefix, Bucket>) {
        let mut stale = std::mem::take(&mut self.stale);
        stale.sort_unstable();
        stale.dedup();
        for key in stale {
            let share = if key.len() == 0 {
                &mut self.root
            } else {
                match self.nodes.get_mut(&key) {
                    Some(share) => share,
                    None => continue, // the node itself went away
                }
            };
            let (lists, entries) = slot_lists(key, coarse);
            self.lists = self.lists - share.lists as usize + lists as usize;
            self.entries = self.entries - share.entries as usize + entries as usize;
            share.lists = lists;
            share.entries = entries;
        }
    }

    /// The modelled bytes of a rule set with these node counts, `prefixes`
    /// coarse prefixes holding `coarse_rules` live rules, `exact` entries
    /// in the exact-match table, and `slots` rule slots.
    pub(crate) fn bytes(
        &self,
        prefixes: usize,
        coarse_rules: usize,
        exact: usize,
        slots: usize,
    ) -> usize {
        let nodes = 1 + self.nodes.len();
        MultiBitTrie::<Vec<RuleId>>::footprint(STRIDE, nodes, prefixes)
            + CompiledTrie::<CandSpan>::footprint(
                STRIDE,
                nodes,
                self.lists,
                self.entries,
                prefixes,
            )
            + coarse_rules * CANDIDATE_BYTES
            + slots * std::mem::size_of::<u128>() // allow thresholds
            + exact * EXACT_ENTRY
            + slots * RULE_ENTRY
    }
}

/// `(distinct non-empty slot lists, their total entries)` of the compiled
/// node `node`, given the prefixes currently in `coarse`.
///
/// A slot's list holds every prefix covering it, and prefixes nest, so the
/// list is fixed by its longest member: there is one distinct list per
/// prefix that is the longest cover of at least one slot.
fn slot_lists(node: Ipv4Prefix, coarse: &BTreeMap<Ipv4Prefix, Bucket>) -> (u32, u32) {
    let base_len = node.len();
    let last = Ipv4Prefix::host(node.addr() | !Ipv4Prefix::mask(base_len));
    let mut here: Vec<Ipv4Prefix> = coarse
        .range(node..=last)
        .map(|(prefix, _)| *prefix)
        .filter(|prefix| term_depth(*prefix) * STRIDE == base_len)
        .collect();
    if here.iter().all(|prefix| prefix.len() == base_len + STRIDE) {
        // Full-length prefixes cover one slot each: one list apiece.
        return (here.len() as u32, here.len() as u32);
    }
    here.sort_by_key(|prefix| prefix.len());
    let mut longest = [u16::MAX; FANOUT];
    let mut covers = [0u16; FANOUT];
    for (i, prefix) in here.iter().enumerate() {
        let rem = prefix.len() - base_len;
        let slot = ((prefix.addr() >> (32 - STRIDE - base_len)) as usize) & (FANOUT - 1);
        let span = 1usize << (STRIDE - rem);
        let first = slot & !(span - 1);
        for s in first..first + span {
            longest[s] = i as u16;
            covers[s] += 1;
        }
    }
    let mut seen = vec![false; here.len()];
    let (mut lists, mut entries) = (0u32, 0u32);
    for s in 0..FANOUT {
        let i = longest[s];
        if i != u16::MAX && !seen[i as usize] {
            seen[i as usize] = true;
            lists += 1;
            entries += covers[s] as u32;
        }
    }
    (lists, entries)
}
