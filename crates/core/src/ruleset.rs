//! Rule sets with the enclave's lookup structures.
//!
//! Exact-match five-tuple rules live in a hash table; coarse rules are
//! bucketed by source prefix in an ordered prefix map (§V-A's "Filter
//! Rule Lookup Table"). Classification precedence:
//!
//! 1. an exact five-tuple rule, if one matches,
//! 2. the coarse rule with the longest matching source prefix whose port
//!    and protocol constraints also match (falling back to shorter
//!    prefixes otherwise),
//! 3. no match — the filter's default applies (ALLOW: VIF only drops what
//!    the victim asked it to drop).
//!
//! Classification runs on two compiled hot-path structures: the
//! exact-match table keyed by the deterministic fast hasher
//! ([`crate::fasthash`], replacing std's per-byte SipHash) and the
//! [`CompiledClassifier`] (a `/32` host table in front of a stride walk,
//! replacing per-packet prefix-map probes). The prefix-map path survives as
//! [`RuleSet::classify_reference`], the oracle the property tests compare
//! the compiled path against.
//!
//! **Epochs share one index.** Everything but the per-rule telemetry —
//! rules, tombstones, the exact table, the prefix map and the compiled
//! classifier — sits in one index behind an [`Arc`], never edited while
//! shared. Cloning a rule set (the epoch-publication path: the master's
//! live set cloned for the publisher, the rebuilt set cloned into every
//! slice) is a reference bump plus a copy of the counters. An edit scope
//! copies the index once, on its first effective edit, and edits the
//! private copy, so a clone handed to a reader is a frozen epoch: nothing
//! its owner does later changes what it classifies. Edits to `/32`
//! sources and exact rules patch the compiled classifier in O(edits); see
//! [`crate::classifier`] for when it recompiles instead.

use crate::classifier::CompiledClassifier;
use crate::fasthash::FxHashMap;
use crate::footprint::Footprint;
use crate::rules::FilterRule;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;
use vif_dataplane::FiveTuple;
use vif_trie::Ipv4Prefix;

/// Identifier of a rule within a [`RuleSet`] (insertion index).
pub type RuleId = u32;

/// Per-rule telemetry the enclave keeps for the redistribution protocol:
/// the average received flow rate `B_i` of §IV-B's master–slave exchange.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleCounters {
    /// Packets that matched this rule.
    pub packets: u64,
    /// Bytes that matched this rule.
    pub bytes: u64,
}

/// An ordered set of filter rules with classification indexes.
///
/// # Example
///
/// ```
/// use vif_core::prelude::*;
/// let mut rs = RuleSet::new();
/// rs.insert(FilterRule::drop(FlowPattern::http_to("203.0.113.0/24".parse().unwrap())));
/// let t = FiveTuple::new(1, u32::from_be_bytes([203, 0, 113, 5]), 9999, 80, Protocol::Tcp);
/// assert!(rs.classify(&t).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct RuleSet {
    /// The rules and their lookup structures, shared between clones until
    /// one of them edits (see the [module docs](self)).
    index: Arc<RuleIndex>,
    /// Per-rule telemetry, private to each clone: a slice recording hits
    /// never touches another epoch's counters.
    counters: Vec<RuleCounters>,
    /// Classifier rebuilds performed since construction (regression
    /// telemetry: bulk churn through [`batch_edit`](RuleSet::batch_edit)
    /// must coalesce to one).
    rebuilds: u64,
}

/// The copy-on-write part of a [`RuleSet`], shared between clones.
#[derive(Debug, Clone)]
struct RuleIndex {
    rules: Vec<FilterRule>,
    /// Tombstones: `removed[id]` is true once the rule was withdrawn.
    /// Slots are never compacted, so [`RuleId`]s stay stable across
    /// removals — rule telemetry and cluster slice mappings keep indexing
    /// by the same ids through arbitrary churn.
    removed: Vec<bool>,
    exact: FxHashMap<FiveTuple, RuleId>,
    /// Authoritative coarse-rule store: each source prefix's bucket of
    /// live rule ids in insertion order. Compiles, patches, the memory
    /// model and the reference classifier read it; the hot path runs on
    /// `compiled`.
    coarse: BTreeMap<Ipv4Prefix, Bucket>,
    /// Live rule ids across all `coarse` buckets.
    coarse_rules: usize,
    compiled: CompiledClassifier,
    footprint: Footprint,
}

/// One source prefix's live rule ids, in insertion order; never empty.
///
/// Nearly every bucket holds a single rule, which stays inline, so copying
/// the index allocates nothing per prefix.
#[derive(Debug, Clone)]
pub(crate) enum Bucket {
    One(RuleId),
    Many(Vec<RuleId>),
}

impl Bucket {
    fn push(&mut self, id: RuleId) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, id]),
            Bucket::Many(ids) => ids.push(id),
        }
    }

    /// Removes `id` (which must be in the bucket); returns false if that
    /// leaves the bucket empty.
    fn remove(&mut self, id: RuleId) -> bool {
        let Bucket::Many(ids) = self else {
            return false;
        };
        ids.retain(|&r| r != id);
        if let [last] = ids[..] {
            *self = Bucket::One(last);
        }
        true
    }
}

impl std::ops::Deref for Bucket {
    type Target = [RuleId];

    fn deref(&self) -> &[RuleId] {
        match self {
            Bucket::One(id) => std::slice::from_ref(id),
            Bucket::Many(ids) => ids,
        }
    }
}

impl AsRef<[RuleId]> for Bucket {
    fn as_ref(&self) -> &[RuleId] {
        self
    }
}

impl Default for RuleSet {
    fn default() -> Self {
        Self::new()
    }
}

impl RuleSet {
    /// Creates an empty rule set.
    pub fn new() -> Self {
        let coarse = BTreeMap::new();
        RuleSet {
            index: Arc::new(RuleIndex {
                rules: Vec::new(),
                removed: Vec::new(),
                exact: FxHashMap::default(),
                compiled: CompiledClassifier::compile(&coarse, &[]),
                coarse,
                coarse_rules: 0,
                footprint: Footprint::default(),
            }),
            counters: Vec::new(),
            rebuilds: 0,
        }
    }

    /// Builds a rule set from rules (batch: one classifier build).
    pub fn from_rules<I: IntoIterator<Item = FilterRule>>(rules: I) -> Self {
        let mut rs = RuleSet::new();
        rs.insert_batch(rules);
        rs
    }

    /// Number of rule slots (installed rules including withdrawn
    /// tombstones — the valid [`RuleId`] range).
    pub fn len(&self) -> usize {
        self.index.rules.len()
    }

    /// Number of rules currently in force (slots minus tombstones).
    pub fn active_len(&self) -> usize {
        self.index.rules.len() - self.index.removed.iter().filter(|&&r| r).count()
    }

    /// True if rule `id` was withdrawn.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn is_removed(&self, id: RuleId) -> bool {
        self.index.removed[id as usize]
    }

    /// Classifier rebuilds performed since construction. Each `insert`,
    /// `remove`, `insert_batch`, and dirty [`batch_edit`] scope counts
    /// one, whether it patched or recompiled; reads never rebuild.
    ///
    /// [`batch_edit`]: RuleSet::batch_edit
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// True if no rule slots exist.
    pub fn is_empty(&self) -> bool {
        self.index.rules.is_empty()
    }

    /// The rules in insertion order.
    pub fn rules(&self) -> &[FilterRule] {
        &self.index.rules
    }

    /// The rule with the given id.
    pub fn rule(&self, id: RuleId) -> &FilterRule {
        &self.index.rules[id as usize]
    }

    /// Inserts one rule, returning its id.
    ///
    /// Updates the hot-path classifier before returning: a patch for a
    /// `/32` or exact rule, a recompile (linear in the number of coarse
    /// rules) otherwise — bulk loads should use
    /// [`insert_batch`](RuleSet::insert_batch) (one update total), as the
    /// enclave's batched rule update does.
    pub fn insert(&mut self, rule: FilterRule) -> RuleId {
        self.batch_edit(|edit| edit.insert(rule))
    }

    /// Withdraws rule `id`, returning whether it was in force.
    ///
    /// The slot is tombstoned, never compacted: ids of the surviving rules
    /// are unchanged and the withdrawn rule's telemetry slot stays
    /// addressable (cluster slice mappings index by id). The exact table /
    /// prefix map entry is unlinked and the hot-path classifier updated,
    /// so [`classify`](RuleSet::classify) and
    /// [`classify_reference`](RuleSet::classify_reference) both stop
    /// matching it atomically. Removing an already-withdrawn or
    /// out-of-range id is a no-op (no rebuild).
    ///
    /// Bulk withdrawals should go through
    /// [`batch_edit`](RuleSet::batch_edit) (one update total).
    pub fn remove(&mut self, id: RuleId) -> bool {
        self.batch_edit(|edit| edit.remove(id))
    }

    /// Inserts many rules with a single classifier update (the enclave's
    /// batched rule update, Appendix F / Table II). Counts one rebuild even
    /// when `rules` is empty.
    pub fn insert_batch<I: IntoIterator<Item = FilterRule>>(&mut self, rules: I) {
        self.batch_edit(|edit| {
            edit.dirty = true;
            for rule in rules {
                edit.insert(rule);
            }
        });
    }

    /// Runs a bulk-churn scope with **one** classifier update.
    ///
    /// Every [`insert`](RuleSetEdit::insert) / [`remove`](RuleSetEdit::remove)
    /// inside the scope mutates the authoritative structures immediately
    /// but defers the compiled-classifier update; it happens exactly once
    /// when the scope ends (and not at all if the scope made no effective
    /// change). This is the install-time analogue of the Appendix F
    /// batched rule update for mixed install/withdraw churn — a victim
    /// policy reacting to a round can apply its whole decision set for the
    /// cost of one table swap.
    ///
    /// The first effective edit copies the shared index (see the
    /// [module docs](self)); clones taken before the scope keep
    /// classifying the old epoch. The update at the end patches the
    /// classifier if the scope touched only `/32` sources and exact rules,
    /// and recompiles it otherwise.
    ///
    /// Note: `classify` must not be called *inside* the scope (the editor
    /// holds the only reference, so the borrow checker already prevents
    /// it); the compiled view is stale until the scope closes.
    pub fn batch_edit<R>(&mut self, f: impl FnOnce(&mut RuleSetEdit<'_>) -> R) -> R {
        let mut edit = RuleSetEdit {
            rs: self,
            dirty: false,
            hosts: Vec::new(),
            shorter: false,
        };
        let out = f(&mut edit);
        let RuleSetEdit {
            dirty,
            mut hosts,
            shorter,
            ..
        } = edit;
        if dirty {
            let ix = Arc::make_mut(&mut self.index);
            ix.footprint.refresh(&ix.coarse);
            if shorter {
                ix.recompile();
            } else {
                hosts.sort_unstable();
                hosts.dedup();
                ix.compiled.patch(&hosts, &ix.coarse, &ix.rules);
                if ix.compiled.needs_compaction() {
                    ix.recompile();
                }
            }
            self.rebuilds += 1;
        }
        out
    }

    /// Classifies a five tuple, returning the matching rule id (see module
    /// docs for precedence).
    ///
    /// This is the per-packet hot path: one fast-hash probe of the
    /// exact-match table, then the compiled host probe and stride walk —
    /// no heap allocation, no SipHash, no ordered-map probes.
    /// Verdict-identical to [`classify_reference`](RuleSet::classify_reference)
    /// (enforced by the `compiled_classifier_matches_reference` property
    /// test).
    #[inline]
    pub fn classify(&self, t: &FiveTuple) -> Option<RuleId> {
        let ix = &*self.index;
        if !ix.exact.is_empty() {
            if let Some(&id) = ix.exact.get(t) {
                return Some(id);
            }
        }
        ix.compiled.classify_coarse(t)
    }

    /// The install-time allow threshold (`p_allow · 2⁶⁴`) of rule `id` —
    /// compiled rule metadata consulted by the hash-based decision instead
    /// of re-deriving the constant from the float per packet. Zero (and
    /// meaningless) for deterministic rules.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn allow_threshold(&self, id: RuleId) -> u128 {
        self.index.compiled.allow_threshold(id)
    }

    /// The reference classifier: the exact-match probe followed by one
    /// prefix-map probe per source-prefix length, longest first.
    ///
    /// Kept as the oracle the compiled hot path is property-tested
    /// against: it shares only the exact-match table with it, never the
    /// compiled classifier. Not for the data path.
    pub fn classify_reference(&self, t: &FiveTuple) -> Option<RuleId> {
        let ix = &*self.index;
        if let Some(&id) = ix.exact.get(t) {
            return Some(id);
        }
        (0..=32u8).rev().find_map(|len| {
            ix.coarse
                .get(&Ipv4Prefix::new(t.src_ip, len))?
                .iter()
                .copied()
                .find(|&id| ix.rules[id as usize].pattern().matches(t))
        })
    }

    /// Records telemetry for a packet that matched `id`.
    pub fn record_hit(&mut self, id: RuleId, bytes: u64) {
        let c = &mut self.counters[id as usize];
        c.packets += 1;
        c.bytes += bytes;
    }

    /// Per-rule counters (the `B_i` array reported to the master enclave).
    pub fn counters(&self) -> &[RuleCounters] {
        &self.counters
    }

    /// Resets all rule counters (start of a redistribution round).
    pub fn reset_counters(&mut self) {
        self.counters.fill(RuleCounters::default());
    }

    /// Estimated enclave memory held by the rule structures, in bytes.
    ///
    /// Models a stride-8 multi-bit trie with its prefix map, the compiled
    /// covering-prefix trie and one compiled candidate per coarse rule,
    /// the exact-match table, the rule array, and the per-rule telemetry
    /// the redistribution protocol needs. This is the working-set input to
    /// the cost model (Fig. 3b's linearly growing footprint). Exact and
    /// O(1): the counts behind it are kept per edit (see
    /// `crate::footprint`), not measured off the live structures.
    pub fn memory_bytes(&self) -> usize {
        let ix = &*self.index;
        ix.footprint.bytes(
            ix.coarse.len(),
            ix.coarse_rules,
            ix.exact.len(),
            ix.rules.len(),
        )
    }

    /// Extracts the sub-ruleset with the given ids (rule redistribution:
    /// the master sends each slave its share, Fig. 5). Withdrawn ids are
    /// skipped — a tombstone never resurrects through redistribution.
    pub fn subset(&self, ids: &[RuleId]) -> RuleSet {
        let ix = &*self.index;
        RuleSet::from_rules(
            ids.iter()
                .filter(|&&id| !ix.removed[id as usize])
                .map(|&id| ix.rules[id as usize]),
        )
    }
}

impl RuleIndex {
    /// Rebuilds the compiled classifier from the authoritative structures.
    fn recompile(&mut self) {
        self.compiled = CompiledClassifier::compile(&self.coarse, &self.rules);
    }

    /// Appends `rule` to the authoritative structures; returns its id and
    /// the coarse prefix it was bucketed under, if any.
    fn insert(&mut self, rule: FilterRule) -> (RuleId, Option<Ipv4Prefix>) {
        let id = self.rules.len() as RuleId;
        self.rules.push(rule);
        self.removed.push(false);
        if let Some(t) = rule.pattern().as_tuple() {
            self.exact.insert(t, id);
            return (id, None);
        }
        let prefix = rule.pattern().src;
        match self.coarse.entry(prefix) {
            Entry::Occupied(mut bucket) => bucket.get_mut().push(id),
            Entry::Vacant(slot) => {
                slot.insert(Bucket::One(id));
                self.footprint.link(prefix);
            }
        }
        self.coarse_rules += 1;
        (id, Some(prefix))
    }

    /// Unlinks live rule `id` from the authoritative structures; returns
    /// the coarse prefix it was bucketed under, if any.
    fn remove(&mut self, id: RuleId) -> Option<Ipv4Prefix> {
        let idx = id as usize;
        self.removed[idx] = true;
        let rule = self.rules[idx];
        if let Some(t) = rule.pattern().as_tuple() {
            // Only unlink if the table still points at this rule — a later
            // duplicate exact rule owns the entry otherwise. If this rule
            // owned it, the youngest surviving duplicate (if any) takes
            // over, matching what re-indexing from scratch would produce.
            if self.exact.get(&t) == Some(&id) {
                self.exact.remove(&t);
                let survivor = self
                    .rules
                    .iter()
                    .enumerate()
                    .rev()
                    .find(|&(i, r)| !self.removed[i] && r.pattern().as_tuple() == Some(t));
                if let Some((i, _)) = survivor {
                    self.exact.insert(t, i as RuleId);
                }
            }
            return None;
        }
        let prefix = rule.pattern().src;
        let bucket = self.coarse.get_mut(&prefix).expect("live rule is bucketed");
        self.coarse_rules -= 1;
        if !bucket.remove(id) {
            self.coarse.remove(&prefix);
            self.footprint.unlink(prefix);
        }
        Some(prefix)
    }
}

/// Mutation scope handed out by [`RuleSet::batch_edit`]: inserts and
/// removals apply immediately to the authoritative structures, while the
/// compiled classifier update is deferred to the end of the scope.
#[derive(Debug)]
pub struct RuleSetEdit<'a> {
    rs: &'a mut RuleSet,
    dirty: bool,
    /// `/32` source addresses whose buckets changed.
    hosts: Vec<u32>,
    /// True once a bucket of a shorter source prefix changed.
    shorter: bool,
}

impl RuleSetEdit<'_> {
    /// Inserts one rule (no rebuild until the scope closes); returns its id.
    pub fn insert(&mut self, rule: FilterRule) -> RuleId {
        self.dirty = true;
        let (id, prefix) = Arc::make_mut(&mut self.rs.index).insert(rule);
        self.rs.counters.push(RuleCounters::default());
        self.touch(prefix);
        id
    }

    /// Withdraws rule `id` (no rebuild until the scope closes); returns
    /// whether it was in force. See [`RuleSet::remove`].
    pub fn remove(&mut self, id: RuleId) -> bool {
        let idx = id as usize;
        if idx >= self.rs.len() || self.rs.is_removed(id) {
            return false;
        }
        self.dirty = true;
        let prefix = Arc::make_mut(&mut self.rs.index).remove(id);
        self.touch(prefix);
        true
    }

    fn touch(&mut self, prefix: Option<Ipv4Prefix>) {
        match prefix {
            Some(p) if p.len() == 32 => self.hosts.push(p.addr()),
            Some(_) => self.shorter = true,
            None => {}
        }
    }

    /// Number of rule slots (grows as the scope inserts).
    pub fn len(&self) -> usize {
        self.rs.len()
    }

    /// True if no rule slots exist.
    pub fn is_empty(&self) -> bool {
        self.rs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{CandSpan, CANDIDATE_BYTES, STRIDE};
    use crate::rules::{FlowPattern, PortRange, RuleAction, RuleDecision};
    use proptest::prelude::*;
    use vif_dataplane::Protocol;
    use vif_trie::{CompiledTrie, MultiBitTrie};

    fn tuple(src: [u8; 4], dst: [u8; 4], sp: u16, dp: u16, proto: Protocol) -> FiveTuple {
        FiveTuple::new(
            u32::from_be_bytes(src),
            u32::from_be_bytes(dst),
            sp,
            dp,
            proto,
        )
    }

    fn victim() -> Ipv4Prefix {
        "203.0.113.0/24".parse().unwrap()
    }

    #[test]
    fn exact_match_beats_coarse() {
        let mut rs = RuleSet::new();
        let coarse = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let t = tuple([10, 1, 2, 3], [203, 0, 113, 5], 1234, 80, Protocol::Tcp);
        let exact = rs.insert(FilterRule::allow(FlowPattern::exact_tuple(t)));
        assert_eq!(rs.classify(&t), Some(exact));
        let mut other = t;
        other.src_port = 999;
        assert_eq!(rs.classify(&other), Some(coarse));
    }

    #[test]
    fn longest_src_prefix_wins() {
        let mut rs = RuleSet::new();
        let wide = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let narrow = rs.insert(FilterRule::allow(FlowPattern::prefixes(
            "10.1.0.0/16".parse().unwrap(),
            victim(),
        )));
        let t = tuple([10, 1, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert_eq!(rs.classify(&t), Some(narrow));
        let t2 = tuple([10, 2, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert_eq!(rs.classify(&t2), Some(wide));
    }

    #[test]
    fn constraint_mismatch_falls_back_to_shorter_prefix() {
        let mut rs = RuleSet::new();
        let wide = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        // Longer prefix but UDP-only.
        let narrow_udp = rs.insert(FilterRule::drop(
            FlowPattern::prefixes("10.1.0.0/16".parse().unwrap(), victim())
                .with_protocol(Protocol::Udp),
        ));
        let udp = tuple([10, 1, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert_eq!(rs.classify(&udp), Some(narrow_udp));
        // TCP from the same source: the /16 rule does not apply; the /8 does.
        let tcp = tuple([10, 1, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Tcp);
        assert_eq!(rs.classify(&tcp), Some(wide));
    }

    #[test]
    fn no_match_returns_none() {
        let mut rs = RuleSet::new();
        rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let t = tuple([11, 0, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert_eq!(rs.classify(&t), None);
    }

    #[test]
    fn dst_prefix_respected() {
        let mut rs = RuleSet::new();
        rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "0.0.0.0/0".parse().unwrap(),
            victim(),
        )));
        let to_victim = tuple([1, 1, 1, 1], [203, 0, 113, 9], 1, 2, Protocol::Tcp);
        let to_other = tuple([1, 1, 1, 1], [198, 51, 100, 9], 1, 2, Protocol::Tcp);
        assert!(rs.classify(&to_victim).is_some());
        assert!(rs.classify(&to_other).is_none());
    }

    #[test]
    fn same_prefix_first_rule_wins() {
        let mut rs = RuleSet::new();
        let first = rs.insert(FilterRule::drop(
            FlowPattern::prefixes("10.0.0.0/8".parse().unwrap(), victim())
                .with_dst_port(PortRange::ANY),
        ));
        let _second = rs.insert(FilterRule::allow(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let t = tuple([10, 0, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert_eq!(rs.classify(&t), Some(first));
    }

    #[test]
    fn batch_insert_equivalent_to_incremental() {
        let rules: Vec<FilterRule> = (0..50u32)
            .map(|i| {
                FilterRule::drop(FlowPattern::prefixes(
                    Ipv4Prefix::new(0x0a00_0000 + (i << 12), 24),
                    victim(),
                ))
            })
            .collect();
        let mut inc = RuleSet::new();
        for r in &rules {
            inc.insert(*r);
        }
        let bat = RuleSet::from_rules(rules.clone());
        for i in 0..50u32 {
            let t = tuple(
                [10, (i >> 4) as u8, ((i & 0xf) << 4) as u8, 1],
                [203, 0, 113, 1],
                5,
                6,
                Protocol::Tcp,
            );
            assert_eq!(inc.classify(&t), bat.classify(&t), "rule {i}");
        }
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let mut rs = RuleSet::new();
        let id = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        rs.record_hit(id, 1500);
        rs.record_hit(id, 64);
        assert_eq!(rs.counters()[0].packets, 2);
        assert_eq!(rs.counters()[0].bytes, 1564);
        rs.reset_counters();
        assert_eq!(rs.counters()[0], RuleCounters::default());
    }

    #[test]
    fn memory_grows_with_rules() {
        let small = RuleSet::from_rules((0..100u32).map(|i| {
            FilterRule::drop(FlowPattern::prefixes(
                Ipv4Prefix::host(0x0a000000 + i * 131),
                victim(),
            ))
        }));
        let large = RuleSet::from_rules((0..1000u32).map(|i| {
            FilterRule::drop(FlowPattern::prefixes(
                Ipv4Prefix::host(0x0a000000 + i * 131),
                victim(),
            ))
        }));
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn subset_preserves_semantics() {
        let mut rs = RuleSet::new();
        let a = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let _b = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "11.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let sub = rs.subset(&[a]);
        assert_eq!(sub.len(), 1);
        let t10 = tuple([10, 0, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        let t11 = tuple([11, 0, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert!(sub.classify(&t10).is_some());
        assert!(sub.classify(&t11).is_none());
    }

    #[test]
    fn removal_unlinks_rule_and_falls_back() {
        let mut rs = RuleSet::new();
        let wide = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let narrow = rs.insert(FilterRule::allow(FlowPattern::prefixes(
            "10.1.0.0/16".parse().unwrap(),
            victim(),
        )));
        let t = tuple([10, 1, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert_eq!(rs.classify(&t), Some(narrow));
        assert!(rs.remove(narrow));
        assert!(rs.is_removed(narrow));
        assert!(!rs.is_removed(wide));
        assert_eq!(rs.active_len(), 1);
        assert_eq!(rs.len(), 2, "slots are stable");
        // Falls back to the shorter prefix, identically on both paths.
        assert_eq!(rs.classify(&t), Some(wide));
        assert_eq!(rs.classify(&t), rs.classify_reference(&t));
        // Removing again is a no-op.
        let rebuilds = rs.rebuilds();
        assert!(!rs.remove(narrow));
        assert_eq!(rs.rebuilds(), rebuilds, "idempotent removal: no rebuild");
    }

    #[test]
    fn removal_keeps_compiled_equal_to_reference() {
        // Mixed exact/coarse set; remove half and compare classifiers on a
        // probe grid after every removal.
        let mut rs = RuleSet::new();
        let mut ids = Vec::new();
        for i in 0..8u32 {
            ids.push(rs.insert(FilterRule::drop(FlowPattern::prefixes(
                Ipv4Prefix::new(0x0a000000 + (i << 16), 16),
                victim(),
            ))));
        }
        let exact_t = tuple([10, 3, 0, 9], [203, 0, 113, 5], 7, 80, Protocol::Tcp);
        ids.push(rs.insert(FilterRule::allow(FlowPattern::exact_tuple(exact_t))));
        let probes: Vec<FiveTuple> = (0..8u32)
            .map(|i| tuple([10, i as u8, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp))
            .chain([exact_t])
            .collect();
        for &id in ids.iter().step_by(2) {
            assert!(rs.remove(id));
            for t in &probes {
                assert_eq!(rs.classify(t), rs.classify_reference(t), "{t} after {id}");
            }
        }
    }

    #[test]
    fn removing_duplicate_exact_rule_restores_survivor() {
        let mut rs = RuleSet::new();
        let t = tuple([9, 9, 9, 9], [203, 0, 113, 2], 5, 80, Protocol::Tcp);
        let first = rs.insert(FilterRule::drop(FlowPattern::exact_tuple(t)));
        let second = rs.insert(FilterRule::allow(FlowPattern::exact_tuple(t)));
        assert_eq!(rs.classify(&t), Some(second), "youngest duplicate wins");
        assert!(rs.remove(second));
        assert_eq!(rs.classify(&t), Some(first), "survivor takes over");
        assert_eq!(rs.classify(&t), rs.classify_reference(&t));
        assert!(rs.remove(first));
        assert_eq!(rs.classify(&t), None);
    }

    #[test]
    fn batch_edit_coalesces_rebuilds() {
        let mut incremental = RuleSet::new();
        let rules: Vec<FilterRule> = (0..50u32)
            .map(|i| {
                FilterRule::drop(FlowPattern::prefixes(
                    Ipv4Prefix::new(0x0a000000 + (i << 12), 24),
                    victim(),
                ))
            })
            .collect();
        let before = incremental.rebuilds();
        for r in &rules {
            incremental.insert(*r);
        }
        for id in 0..25u32 {
            incremental.remove(id);
        }
        assert_eq!(
            incremental.rebuilds() - before,
            75,
            "per-mutation churn rebuilds per call"
        );

        let mut batched = RuleSet::new();
        let before = batched.rebuilds();
        let ids = batched.batch_edit(|edit| {
            let ids: Vec<RuleId> = rules.iter().map(|r| edit.insert(*r)).collect();
            for &id in ids.iter().take(25) {
                edit.remove(id);
            }
            ids
        });
        assert_eq!(
            batched.rebuilds() - before,
            1,
            "batch_edit rebuilds exactly once"
        );
        assert_eq!(ids.len(), 50);
        assert_eq!(batched.active_len(), 25);
        // Same observable classifier as the incremental path.
        for i in 0..50u32 {
            let t = tuple(
                [10, (i >> 4) as u8, ((i & 0xf) << 4) as u8, 1],
                [203, 0, 113, 1],
                5,
                6,
                Protocol::Tcp,
            );
            assert_eq!(batched.classify(&t), incremental.classify(&t), "rule {i}");
            assert_eq!(batched.classify(&t), batched.classify_reference(&t));
        }
    }

    #[test]
    fn clean_batch_edit_does_not_rebuild() {
        let mut rs = RuleSet::from_rules(vec![FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        ))]);
        let before = rs.rebuilds();
        rs.batch_edit(|edit| {
            assert_eq!(edit.len(), 1);
            assert!(!edit.is_empty());
            assert!(!edit.remove(99)); // out of range: no-op
        });
        assert_eq!(rs.rebuilds(), before);
    }

    #[test]
    fn subset_skips_withdrawn_rules() {
        let mut rs = RuleSet::new();
        let a = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let b = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "11.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        rs.remove(a);
        let sub = rs.subset(&[a, b]);
        assert_eq!(sub.active_len(), 1);
        let t10 = tuple([10, 0, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert!(sub.classify(&t10).is_none(), "tombstone must not resurrect");
    }

    #[test]
    fn probabilistic_rules_classify_like_deterministic() {
        let mut rs = RuleSet::new();
        let id = rs.insert(FilterRule::drop_fraction(
            FlowPattern::http_to(victim()),
            0.5,
        ));
        let t = tuple([9, 9, 9, 9], [203, 0, 113, 50], 4242, 80, Protocol::Tcp);
        assert_eq!(rs.classify(&t), Some(id));
        match rs.rule(id).decision() {
            RuleDecision::Probabilistic { p_allow } => assert!((p_allow - 0.5).abs() < 1e-12),
            RuleDecision::Deterministic(_) => panic!("expected probabilistic"),
        }
        let _ = RuleAction::Drop;
    }

    fn host_rule(addr: u32) -> FilterRule {
        FilterRule::drop(FlowPattern::prefixes(Ipv4Prefix::host(addr), victim()))
    }

    /// A mixed set with hosts, shorter prefixes and an exact rule, plus
    /// probes that hit each of them.
    fn mixed_set() -> (RuleSet, Vec<FiveTuple>) {
        let exact_t = tuple([10, 0, 0, 7], [203, 0, 113, 5], 7, 80, Protocol::Tcp);
        let rs = RuleSet::from_rules([
            host_rule(0x0a00_0001),
            host_rule(0x0a00_0002),
            FilterRule::allow(FlowPattern::prefixes(
                "10.0.0.0/24".parse().unwrap(),
                victim(),
            )),
            FilterRule::drop(FlowPattern::exact_tuple(exact_t)),
        ]);
        let probes = (0..8u8)
            .map(|i| tuple([10, 0, 0, i], [203, 0, 113, 5], 7, 80, Protocol::Tcp))
            .chain([tuple([10, 0, 1, 1], [203, 0, 113, 5], 7, 80, Protocol::Tcp)])
            .collect();
        (rs, probes)
    }

    #[test]
    fn clone_shares_the_index_until_edited() {
        let (rs, _) = mixed_set();
        let mut replica = rs.clone();
        assert!(Arc::ptr_eq(&rs.index, &replica.index));
        // Telemetry and no-op edits leave the index shared.
        replica.record_hit(0, 64);
        replica.reset_counters();
        assert!(!replica.remove(99));
        replica.batch_edit(|_| {});
        assert!(Arc::ptr_eq(&rs.index, &replica.index));
        replica.insert(host_rule(0x0a00_0003));
        assert!(!Arc::ptr_eq(&rs.index, &replica.index));
        assert_eq!(rs.len(), 4);
        assert_eq!(replica.len(), 5);
    }

    #[test]
    fn replica_hits_never_reach_the_original() {
        let (mut rs, _) = mixed_set();
        rs.record_hit(1, 100);
        let mut replica = rs.clone();
        replica.record_hit(0, 64);
        replica.record_hit(1, 64);
        assert_eq!(rs.counters()[0], RuleCounters::default());
        assert_eq!(rs.counters()[1].bytes, 100);
        assert_eq!(replica.counters()[1].bytes, 164);
        rs.reset_counters();
        assert_eq!(replica.counters()[0].packets, 1);
    }

    #[test]
    fn editing_a_clone_never_changes_the_original() {
        let (rs, probes) = mixed_set();
        let verdicts: Vec<_> = probes.iter().map(|t| rs.classify(t)).collect();
        let memory = rs.memory_bytes();
        let mut replica = rs.clone();
        // A host patch, a withdrawal, and a shorter-prefix recompile.
        replica.batch_edit(|e| {
            e.insert(host_rule(0x0a00_0005));
            e.remove(0);
        });
        replica.batch_edit(|e| {
            e.remove(2);
            e.insert(FilterRule::drop(FlowPattern::prefixes(
                "10.0.0.0/16".parse().unwrap(),
                victim(),
            )));
        });
        replica.remove(3);
        for (t, want) in probes.iter().zip(&verdicts) {
            assert_eq!(rs.classify(t), *want, "{t}");
            assert_eq!(rs.classify_reference(t), *want, "{t}");
        }
        assert_ne!(
            probes
                .iter()
                .map(|t| replica.classify(t))
                .collect::<Vec<_>>(),
            verdicts
        );
        assert_eq!(rs.memory_bytes(), memory);
        assert_eq!(rs.active_len(), 4);
    }

    #[test]
    fn host_churn_patches_and_compacts() {
        let hosts: Vec<u32> = (1..=4).map(|i| 0x0a00_0000 + i).collect();
        let mut rs = RuleSet::from_rules(hosts.iter().map(|&a| host_rule(a)));
        let mut live: Vec<RuleId> = (0..4).collect();
        for cycle in 0..40usize {
            let slot = cycle % live.len();
            let before = rs.rebuilds();
            live[slot] = rs.batch_edit(|e| {
                assert!(e.remove(live[slot]));
                e.insert(host_rule(hosts[slot]))
            });
            assert_eq!(rs.rebuilds(), before + 1);
            // Compaction keeps the dead candidates at most as many as the
            // live ones.
            let compiled = &rs.index.compiled;
            assert!(!compiled.needs_compaction(), "cycle {cycle}");
            assert!(
                compiled.candidate_slots() <= 2 * live.len(),
                "cycle {cycle}"
            );
            for (&a, &id) in hosts.iter().zip(&live) {
                let t = FiveTuple::new(a, 0xcb00_7105, 1, 2, Protocol::Udp);
                assert_eq!(rs.classify(&t), Some(id));
                assert_eq!(rs.classify_reference(&t), Some(id));
            }
        }
    }

    /// The memory model as the rule set used to compute it, from scratch:
    /// an expanded stride-8 trie over the prefix map plus a compiled trie
    /// over every prefix, host prefixes included.
    fn legacy_memory_bytes(rs: &RuleSet) -> usize {
        let ix = &*rs.index;
        let mut expanded = MultiBitTrie::new(STRIDE);
        expanded.batch_insert(ix.coarse.iter().map(|(p, bucket)| (*p, bucket.to_vec())));
        let compiled: CompiledTrie<CandSpan> =
            CompiledTrie::from_entries(STRIDE, ix.coarse.keys().map(|p| (*p, (0, 0))));
        let candidates: usize = ix.coarse.values().map(|bucket| bucket.len()).sum();
        let exact_entry = std::mem::size_of::<FiveTuple>() + std::mem::size_of::<RuleId>() + 48;
        let rule_entry = std::mem::size_of::<FilterRule>() + std::mem::size_of::<RuleCounters>();
        expanded.memory_bytes()
            + compiled.memory_bytes()
            + candidates * CANDIDATE_BYTES
            + ix.rules.len() * std::mem::size_of::<u128>()
            + ix.exact.len() * exact_entry
            + ix.rules.len() * rule_entry
    }

    /// Rules crowding a few stride windows: hosts, prefixes of every
    /// length over the same addresses (so slot lists nest and share
    /// nodes), and exact rules.
    fn arb_churn_rule() -> impl Strategy<Value = FilterRule> {
        (0u32..3, 0u32..24, 0u8..=32, 0u8..4).prop_map(|(net, host, len, kind)| {
            let addr = 0x0a00_0000 | (net << 8) | (host * 11);
            match kind {
                0 => host_rule(addr),
                1 => FilterRule::drop(FlowPattern::prefixes(Ipv4Prefix::new(addr, len), victim())),
                2 => FilterRule::allow(FlowPattern::prefixes(
                    Ipv4Prefix::new(addr, len / 2),
                    victim(),
                )),
                _ => FilterRule::drop(FlowPattern::exact_tuple(FiveTuple::new(
                    addr,
                    0xcb00_7101,
                    host as u16,
                    80,
                    Protocol::Tcp,
                ))),
            }
        })
    }

    proptest! {
        /// `memory_bytes` stays exactly the from-scratch model through
        /// random install/withdraw scopes.
        #[test]
        fn memory_model_matches_from_scratch(
            scopes in proptest::collection::vec(
                proptest::collection::vec(
                    (any::<bool>(), arb_churn_rule(), any::<proptest::sample::Index>()),
                    1..8,
                ),
                1..20,
            ),
        ) {
            let mut rs = RuleSet::new();
            prop_assert_eq!(rs.memory_bytes(), legacy_memory_bytes(&rs));
            for scope in &scopes {
                rs.batch_edit(|e| {
                    for (install, rule, pick) in scope {
                        if *install || e.is_empty() {
                            e.insert(*rule);
                        } else {
                            e.remove(pick.index(e.len()) as RuleId);
                        }
                    }
                });
                prop_assert_eq!(rs.memory_bytes(), legacy_memory_bytes(&rs));
            }
        }
    }
}
