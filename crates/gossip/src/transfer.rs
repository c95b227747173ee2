//! Bandwidth-constrained transfer resolution.
//!
//! Schedulers decide *what to ask from whom*; this module decides what
//! actually gets delivered once every node's requests meet the physical
//! constraints:
//!
//! * a requester can receive at most `⌊I·τ⌋` segments per period (its inbound
//!   budget), and
//! * a supplier can send at most `⌊o·τ⌋` segments per period (its outbound
//!   budget), shared among **all** neighbours requesting from it.
//!
//! Contention at a supplier is resolved round-robin across requesters, each
//! requester's own requests being served in the priority order its scheduler
//! produced.  Requests that do not fit are simply dropped; the requester will
//! re-evaluate next period, as in the real pull protocol.
//!
//! # Per-link grants in the scheduling chunk
//!
//! Under the default [`CapacityModel::PerLink`] a grant depends only on the
//! requester's own (deduplicated, inbound-truncated) requests and the
//! read-only supplier budgets — never on another requester.  The period
//! loop therefore never resolves globally under that model: each
//! scheduling chunk turns a requester's requests into grants right after
//! scheduling it ([`grant_per_link`]), sorted by (supplier, submission
//! order).  That is exactly the subsequence the global resolver emits for
//! the requester, so every buffer sees the same insert sequence (pinned by
//! a differential proptest against [`TransferResolver::resolve_round_into`]).
//!
//! # The global resolver
//!
//! [`TransferResolver`] remains the batch API and the `Shared` ablation
//! model's path.  It flattens all requests into one reusable entry vector
//! and groups it by `(supplier, requester, submission order)` — which
//! reproduces the reference `BTreeMap` iteration order exactly — then walks
//! supplier/requester groups in place.  When batches arrive one per node in
//! ascending node order (as the period loop feeds them), the entries are
//! already `(requester, submission)`-sorted, so the grouping is a **stable
//! counting sort bucketed by supplier** — `O(E + S)`.  Out-of-order or
//! duplicate-requester inputs (possible through the public API) fall back
//! to the comparison sort.  All buffers are retained across calls, so
//! steady-state resolution performs no heap allocation.
//! [`TransferResolver::resolve_round_reference`] keeps the original
//! map-based implementation as the test oracle; the test-suite asserts both
//! produce identical deliveries.

use crate::hasher::FxHashSet;
use crate::mem::{vec_bytes, MemoryFootprint};
use crate::scheduler::SegmentRequest;
use crate::segment::SegmentId;
use fss_overlay::PeerId;
use std::collections::{BTreeMap, VecDeque};

/// The requests one node issues in one period.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestBatch {
    /// The requesting node.
    pub requester: PeerId,
    /// Its inbound budget for this period, in whole segments.
    pub inbound_budget: usize,
    /// Requests in decreasing priority order.
    pub requests: Vec<SegmentRequest>,
}

/// One granted segment transfer: a delivery in lockstep, an in-flight
/// message of the event-mode network (see [`crate::net`]).
///
/// `Copy` and pointer-free by design — the arrival calendar stores
/// deliveries inline, so scheduling one never touches the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredSegment {
    /// The node that receives the segment.
    pub requester: PeerId,
    /// The node that sent it.
    pub supplier: PeerId,
    /// The delivered segment.
    pub segment: SegmentId,
}

/// How a supplier's outbound capacity is enforced across its requesters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CapacityModel {
    /// The supplier's per-period outbound budget is **shared** among all
    /// requesters (strict physical model; contention makes some requests
    /// fail).  Used by the bandwidth-model ablation: it reproduces the
    /// paper's remark that "most nodes' data delivery rate cannot catch the
    /// media play rate", but over long horizons the starvation lets early
    /// segments fall out of every FIFO buffer.
    Shared,
    /// The supplier can serve **each** requesting neighbour up to its
    /// outbound budget (per-link model): receivers and availability become
    /// the binding constraints.  This is the default; outbound rates still
    /// bound every link and still drive the schedulers' `O1`/`O2`
    /// computation, matching how the paper uses them.
    #[default]
    PerLink,
}

/// One flattened request in the resolver's working set.
#[derive(Debug, Clone, Copy)]
struct Entry {
    supplier: PeerId,
    requester: PeerId,
    /// Global submission index; preserves each requester's priority order
    /// under the (unstable) sort because it makes keys unique.
    seq: u32,
    segment: SegmentId,
}

/// Resolves one period's requests against supplier and requester budgets.
///
/// The resolver owns reusable working buffers, so resolution methods take
/// `&mut self`; construction is cheap and the buffers grow to a steady-state
/// high-water mark.
#[derive(Debug, Clone, Default)]
pub struct TransferResolver {
    model: CapacityModel,
    /// Flattened, deduplicated, budget-truncated requests.
    entries: Vec<Entry>,
    /// Per-requester `(cursor, end)` ranges of the supplier group being
    /// served round-robin (Shared model).
    round_robin: Vec<(usize, usize)>,
    /// Snapshot of round-robin indices for one serving pass.
    pass: Vec<usize>,
    /// Requester ids seen while flattening (duplicate detection).
    requesters: Vec<PeerId>,
    /// Counting-sort scratch: per-supplier counts, then running offsets.
    supplier_offsets: Vec<usize>,
    /// Counting-sort scratch: entries regrouped by supplier.
    grouped: Vec<Entry>,
}

impl TransferResolver {
    /// Creates a resolver with the default (per-link) capacity model.
    pub fn new() -> Self {
        TransferResolver::default()
    }

    /// Creates a resolver with an explicit capacity model.
    pub fn with_model(model: CapacityModel) -> Self {
        TransferResolver {
            model,
            ..TransferResolver::default()
        }
    }

    /// The capacity model in use.
    pub fn model(&self) -> CapacityModel {
        self.model
    }

    /// Resolves `batches` given each supplier's outbound budget, treating all
    /// requesters of a supplier with the same (fixed) round-robin order.
    ///
    /// `outbound_budget(peer)` must return the supplier's whole-segment
    /// budget for this period.  The returned deliveries are deterministic for
    /// identical inputs.
    pub fn resolve<F>(
        &mut self,
        batches: &[RequestBatch],
        outbound_budget: F,
    ) -> Vec<DeliveredSegment>
    where
        F: Fn(PeerId) -> usize,
    {
        self.resolve_round(batches, outbound_budget, 0)
    }

    /// Like [`resolve`](Self::resolve), but rotates the round-robin starting
    /// position by `round` so that over successive periods no requester is
    /// systematically served last at an overloaded supplier.
    pub fn resolve_round<F>(
        &mut self,
        batches: &[RequestBatch],
        outbound_budget: F,
        round: u64,
    ) -> Vec<DeliveredSegment>
    where
        F: Fn(PeerId) -> usize,
    {
        let mut deliveries = Vec::new();
        self.resolve_round_into(batches, outbound_budget, round, &mut deliveries);
        deliveries
    }

    /// Allocation-free resolution: writes the deliveries into `out` (cleared
    /// first), reusing the resolver's internal buffers.
    ///
    /// Duplicate `(requester, segment)` requests collapse onto the first
    /// listed supplier, exactly like the reference resolver — including
    /// across batches when a requester appears more than once (the system
    /// emits one batch per node, so the cross-batch pass is skipped on the
    /// hot path).
    pub fn resolve_round_into<F>(
        &mut self,
        batches: &[RequestBatch],
        outbound_budget: F,
        round: u64,
        out: &mut Vec<DeliveredSegment>,
    ) where
        F: Fn(PeerId) -> usize,
    {
        self.resolve_parts_into(
            batches
                .iter()
                .map(|b| (b.requester, b.inbound_budget, &b.requests[..])),
            outbound_budget,
            round,
            out,
        );
    }

    /// [`resolve_round_into`](Self::resolve_round_into) over borrowed
    /// batches: each item is `(requester, inbound_budget, requests)`.  The
    /// period loop's `Shared`-model path feeds its per-chunk request slices
    /// through here without packing them into owned [`RequestBatch`]es.
    // fss-lint: hot-path
    pub fn resolve_parts_into<'a, I, F>(
        &mut self,
        batches: I,
        outbound_budget: F,
        round: u64,
        out: &mut Vec<DeliveredSegment>,
    ) where
        I: IntoIterator<Item = (PeerId, usize, &'a [SegmentRequest])>,
        F: Fn(PeerId) -> usize,
    {
        out.clear();
        self.entries.clear();
        self.requesters.clear();
        let mut seq = 0u32;
        let mut requesters_ascending = true;
        for (requester, inbound_budget, requests) in batches {
            if let Some(&last) = self.requesters.last() {
                requesters_ascending &= requester > last;
            }
            self.requesters.push(requester);
            let batch_start = self.entries.len();
            for req in requests.iter().take(inbound_budget) {
                // Collapse duplicate segments within the batch: the first
                // listed supplier wins, matching the reference resolver.
                if self.entries[batch_start..]
                    .iter()
                    .any(|e| e.segment == req.segment)
                {
                    continue;
                }
                self.entries.push(Entry {
                    supplier: req.supplier,
                    requester,
                    seq,
                    segment: req.segment,
                });
                seq += 1;
            }
        }

        // The target order — (supplier asc, requester asc, submission
        // order) — reproduces the reference implementation's nested-
        // BTreeMap iteration order.  On the hot path batches arrive one per
        // node in ascending node order, so the flat entries are already
        // (requester, submission)-sorted and a stable counting sort
        // bucketed by supplier yields the target order in O(E + S); it
        // declines pathologically sparse supplier-id ranges (see
        // `bucket_by_supplier`), in which case the comparison sort below
        // takes over.
        let bucketed = requesters_ascending && self.bucket_by_supplier();
        if !bucketed {
            // Slow path: out-of-order batches (public API only) may also
            // repeat a requester, where the reference resolver dedups
            // (requester, segment) globally, first submission winning.
            if !requesters_ascending {
                self.requesters.sort_unstable();
                if self.requesters.windows(2).any(|w| w[0] == w[1]) {
                    self.entries
                        .sort_unstable_by_key(|e| (e.requester, e.segment, e.seq));
                    self.entries.dedup_by_key(|e| (e.requester, e.segment));
                }
            }
            // The unique `seq` makes the key total so the unstable
            // (allocation-free) sort is deterministic.
            self.entries
                .sort_unstable_by_key(|e| (e.supplier, e.requester, e.seq));
        }

        let mut group_start = 0;
        while group_start < self.entries.len() {
            let supplier = self.entries[group_start].supplier;
            let mut group_end = group_start + 1;
            while group_end < self.entries.len() && self.entries[group_end].supplier == supplier {
                group_end += 1;
            }
            let budget = outbound_budget(supplier);
            match self.model {
                CapacityModel::PerLink => {
                    Self::serve_per_link(&self.entries[group_start..group_end], budget, out);
                }
                CapacityModel::Shared => {
                    // Build the ascending requester sub-groups.
                    self.round_robin.clear();
                    let mut i = group_start;
                    while i < group_end {
                        let requester = self.entries[i].requester;
                        let sub_start = i;
                        while i < group_end && self.entries[i].requester == requester {
                            i += 1;
                        }
                        self.round_robin.push((sub_start, i));
                    }
                    let offset =
                        (round as usize).wrapping_add(supplier as usize) % self.round_robin.len();
                    let mut budget = budget;
                    while budget > 0 && !self.round_robin.is_empty() {
                        let len = self.round_robin.len();
                        self.pass.clear();
                        self.pass.extend(0..len);
                        self.pass.rotate_left(offset % len);
                        let mut progressed = false;
                        for pi in 0..self.pass.len() {
                            if budget == 0 {
                                break;
                            }
                            let ri = self.pass[pi];
                            let (cursor, end) = self.round_robin[ri];
                            if cursor < end {
                                let e = self.entries[cursor];
                                out.push(DeliveredSegment {
                                    requester: e.requester,
                                    supplier: e.supplier,
                                    segment: e.segment,
                                });
                                self.round_robin[ri].0 += 1;
                                budget -= 1;
                                progressed = true;
                            }
                        }
                        if !progressed {
                            break;
                        }
                        self.round_robin.retain(|&(cursor, end)| cursor < end);
                    }
                }
            }
            group_start = group_end;
        }
    }
    // fss-lint: end

    /// Stable counting sort of `entries` bucketed by supplier.  Returns
    /// `false` (entries untouched) when the bucket table would dwarf the
    /// entry count — the caller's comparison sort handles that better.
    ///
    /// Precondition: entries are `(requester, seq)`-sorted, which the
    /// ascending-batch hot path guarantees; stability then makes the result
    /// exactly `(supplier, requester, seq)`-sorted.  Runs in `O(E + S)`
    /// where `S` is the highest supplier id in use; the scratch buffers are
    /// reused across periods, so steady-state calls do not allocate.  On
    /// the system hot path `S` is the peer capacity — the same order as the
    /// dense per-peer tables the period loop already sweeps.  The sparsity
    /// guard declines inputs whose supplier ids are far above the entry
    /// count (arbitrary through the public API; on the hot path only after
    /// extreme id growth from very long churn/zapping runs, where the
    /// comparison sort's `O(E log E)` is the cheaper trade anyway).
    fn bucket_by_supplier(&mut self) -> bool {
        let Some(max_supplier) = self.entries.iter().map(|e| e.supplier).max() else {
            return true; // no entries, nothing to group
        };
        // Guard on the id itself before computing `+ 1`: on 32-bit targets
        // `PeerId::MAX as usize + 1` would overflow.
        let max_supplier = max_supplier as usize;
        if max_supplier
            >= 64usize
                .saturating_mul(self.entries.len())
                .saturating_add(1024)
        {
            return false;
        }
        let buckets = max_supplier + 1;
        self.supplier_offsets.clear();
        self.supplier_offsets.resize(buckets, 0);
        for e in &self.entries {
            self.supplier_offsets[e.supplier as usize] += 1;
        }
        // Counts become exclusive running offsets.
        let mut running = 0usize;
        for slot in self.supplier_offsets.iter_mut() {
            let count = *slot;
            *slot = running;
            running += count;
        }
        // Stable scatter into the grouped buffer, then adopt it.
        self.grouped.clear();
        self.grouped.resize(self.entries.len(), self.entries[0]);
        for i in 0..self.entries.len() {
            let e = self.entries[i];
            let slot = &mut self.supplier_offsets[e.supplier as usize];
            self.grouped[*slot] = e;
            *slot += 1;
        }
        std::mem::swap(&mut self.entries, &mut self.grouped);
        true
    }

    /// Serves one supplier's group under the per-link model: each requester
    /// sub-group gets up to `budget` segments in priority order.
    fn serve_per_link(group: &[Entry], budget: usize, out: &mut Vec<DeliveredSegment>) {
        let mut i = 0;
        while i < group.len() {
            let requester = group[i].requester;
            let mut served = 0;
            while i < group.len() && group[i].requester == requester {
                if served < budget {
                    let e = group[i];
                    out.push(DeliveredSegment {
                        requester: e.requester,
                        supplier: e.supplier,
                        segment: e.segment,
                    });
                    served += 1;
                }
                i += 1;
            }
        }
    }

    /// The original map-based implementation, kept as the behavioural
    /// reference: the optimized path must produce byte-identical deliveries.
    /// Used by `StreamingSystem::step_reference` and the equivalence tests.
    pub fn resolve_round_reference<F>(
        &self,
        batches: &[RequestBatch],
        outbound_budget: F,
        round: u64,
    ) -> Vec<DeliveredSegment>
    where
        F: Fn(PeerId) -> usize,
    {
        // Per-supplier queues: supplier -> requester -> pending segments in
        // priority order.  BTreeMaps keep iteration deterministic.
        let mut queues: BTreeMap<PeerId, BTreeMap<PeerId, VecDeque<SegmentId>>> = BTreeMap::new();
        let mut duplicate_guard: FxHashSet<(PeerId, SegmentId)> = FxHashSet::default();

        for batch in batches {
            for req in batch.requests.iter().take(batch.inbound_budget) {
                if duplicate_guard.insert((batch.requester, req.segment)) {
                    queues
                        .entry(req.supplier)
                        .or_default()
                        .entry(batch.requester)
                        .or_default()
                        .push_back(req.segment);
                }
            }
        }

        let mut deliveries = Vec::new();
        for (supplier, mut per_requester) in queues {
            let per_supplier_budget = outbound_budget(supplier);
            if self.model == CapacityModel::PerLink {
                // Each link is independently capped at the supplier's rate.
                for (requester, queue) in per_requester {
                    for segment in queue.into_iter().take(per_supplier_budget) {
                        deliveries.push(DeliveredSegment {
                            requester,
                            supplier,
                            segment,
                        });
                    }
                }
                continue;
            }
            let mut budget = per_supplier_budget;
            // Fixed rotation of the requester order for this supplier and
            // round, so scarcity is shared fairly across periods.
            let initial: Vec<PeerId> = per_requester.keys().copied().collect();
            let offset = if initial.is_empty() {
                0
            } else {
                (round as usize).wrapping_add(supplier as usize) % initial.len()
            };
            // Round-robin over requesters until the budget or the queues run
            // out.
            while budget > 0 {
                let mut progressed = false;
                let mut requesters: Vec<PeerId> = per_requester.keys().copied().collect();
                if !requesters.is_empty() {
                    let k = offset % requesters.len();
                    requesters.rotate_left(k);
                }
                for requester in requesters {
                    if budget == 0 {
                        break;
                    }
                    if let Some(queue) = per_requester.get_mut(&requester) {
                        if let Some(segment) = queue.pop_front() {
                            deliveries.push(DeliveredSegment {
                                requester,
                                supplier,
                                segment,
                            });
                            budget -= 1;
                            progressed = true;
                        }
                        if queue.is_empty() {
                            per_requester.remove(&requester);
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
        }
        deliveries
    }
}

/// Reusable working memory of [`grant_per_link`]: one requester's kept
/// requests, grouped by supplier before granting.
#[derive(Debug, Clone, Default)]
pub struct GrantScratch {
    entries: Vec<Entry>,
}

impl MemoryFootprint for GrantScratch {
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.entries)
    }
}

/// Grants one requester's requests under [`CapacityModel::PerLink`] —
/// the resolver restricted to a single batch, which is all the per-link
/// model ever needs: a grant depends only on the requester's own requests
/// and the (read-only) supplier budgets.
///
/// * the first `inbound_budget` requests are considered,
/// * a repeated segment is dropped (the first listed supplier wins),
/// * request *k* is granted iff fewer than `outbound_budget(supplier)`
///   earlier kept requests went to the same supplier.
///
/// Grants are **appended** to `out` sorted by (supplier, submission
/// order) — exactly the subsequence [`TransferResolver::resolve_round_into`]
/// emits for this requester, so every buffer sees the same insert
/// sequence whether a period resolves globally or requester by requester.
/// Allocation-free once `scratch` and `out` reached their high-water marks.
// fss-lint: hot-path
pub fn grant_per_link<F>(
    requester: PeerId,
    inbound_budget: usize,
    requests: &[SegmentRequest],
    outbound_budget: F,
    scratch: &mut GrantScratch,
    out: &mut Vec<DeliveredSegment>,
) where
    F: Fn(PeerId) -> usize,
{
    let entries = &mut scratch.entries;
    entries.clear();
    let mut seq = 0u32;
    for req in requests.iter().take(inbound_budget) {
        if entries.iter().any(|e| e.segment == req.segment) {
            continue;
        }
        entries.push(Entry {
            supplier: req.supplier,
            requester,
            seq,
            segment: req.segment,
        });
        seq += 1;
    }
    // `seq` is unique, so the unstable (allocation-free) sort is total.
    entries.sort_unstable_by_key(|e| (e.supplier, e.seq));
    let mut start = 0;
    while start < entries.len() {
        let supplier = entries[start].supplier;
        let end = start + entries[start..].partition_point(|e| e.supplier == supplier);
        TransferResolver::serve_per_link(&entries[start..end], outbound_budget(supplier), out);
        start = end;
    }
}
// fss-lint: end

#[cfg(test)]
mod tests {
    use super::*;

    fn req(segment: u64, supplier: PeerId) -> SegmentRequest {
        SegmentRequest {
            segment: SegmentId(segment),
            supplier,
        }
    }

    fn batch(requester: PeerId, budget: usize, requests: Vec<SegmentRequest>) -> RequestBatch {
        RequestBatch {
            requester,
            inbound_budget: budget,
            requests,
        }
    }

    fn segments_for(deliveries: &[DeliveredSegment], requester: PeerId) -> Vec<u64> {
        deliveries
            .iter()
            .filter(|d| d.requester == requester)
            .map(|d| d.segment.value())
            .collect()
    }

    /// Runs both implementations and asserts byte-identical deliveries.
    fn resolve_checked<F>(
        mut resolver: TransferResolver,
        batches: &[RequestBatch],
        outbound_budget: F,
        round: u64,
    ) -> Vec<DeliveredSegment>
    where
        F: Fn(PeerId) -> usize,
    {
        let reference = resolver.resolve_round_reference(batches, &outbound_budget, round);
        let optimized = resolver.resolve_round(batches, &outbound_budget, round);
        assert_eq!(
            optimized, reference,
            "dense resolver diverged from reference"
        );
        optimized
    }

    #[test]
    fn everything_fits_when_budgets_are_ample() {
        let batches = vec![
            batch(1, 10, vec![req(100, 9), req(101, 9)]),
            batch(2, 10, vec![req(102, 9)]),
        ];
        let deliveries = resolve_checked(TransferResolver::new(), &batches, |_| 100, 0);
        assert_eq!(deliveries.len(), 3);
        assert_eq!(segments_for(&deliveries, 1), vec![100, 101]);
        assert_eq!(segments_for(&deliveries, 2), vec![102]);
        assert!(deliveries.iter().all(|d| d.supplier == 9));
    }

    #[test]
    fn supplier_budget_is_shared_round_robin() {
        // Supplier 9 can only send 3 segments; two requesters each want 3.
        let batches = vec![
            batch(1, 10, vec![req(1, 9), req(2, 9), req(3, 9)]),
            batch(2, 10, vec![req(4, 9), req(5, 9), req(6, 9)]),
        ];
        let deliveries = resolve_checked(
            TransferResolver::with_model(CapacityModel::Shared),
            &batches,
            |_| 3,
            0,
        );
        assert_eq!(deliveries.len(), 3);
        // Round-robin: both requesters are served at least once, in their own
        // priority order, and nobody hogs the whole budget.
        let r1 = segments_for(&deliveries, 1);
        let r2 = segments_for(&deliveries, 2);
        assert!(!r1.is_empty() && !r2.is_empty());
        assert!(r1.len() <= 2 && r2.len() <= 2);
        assert!(r1.iter().zip([1, 2, 3]).all(|(a, b)| *a == b));
        assert!(r2.iter().zip([4, 5, 6]).all(|(a, b)| *a == b));
    }

    #[test]
    fn rotation_shares_scarcity_across_rounds() {
        // Supplier 9 can send a single segment per round; three requesters
        // compete.  Over three rounds each requester is served exactly once.
        let batches = vec![
            batch(1, 10, vec![req(1, 9)]),
            batch(2, 10, vec![req(2, 9)]),
            batch(3, 10, vec![req(3, 9)]),
        ];
        let mut served: Vec<PeerId> = Vec::new();
        for round in 0..3 {
            let deliveries = resolve_checked(
                TransferResolver::with_model(CapacityModel::Shared),
                &batches,
                |_| 1,
                round,
            );
            assert_eq!(deliveries.len(), 1);
            served.push(deliveries[0].requester);
        }
        served.sort_unstable();
        assert_eq!(served, vec![1, 2, 3]);
    }

    #[test]
    fn per_link_model_serves_each_requester_up_to_the_supplier_rate() {
        let mut resolver = TransferResolver::with_model(CapacityModel::PerLink);
        assert_eq!(resolver.model(), CapacityModel::PerLink);
        assert_eq!(TransferResolver::new().model(), CapacityModel::PerLink);
        // Supplier 9 has rate 2; both requesters want 3 segments from it.
        let batches = vec![
            batch(1, 10, vec![req(1, 9), req(2, 9), req(3, 9)]),
            batch(2, 10, vec![req(4, 9), req(5, 9), req(6, 9)]),
        ];
        let deliveries = resolver.resolve(&batches, |_| 2);
        assert_eq!(deliveries.len(), 4);
        assert_eq!(segments_for(&deliveries, 1), vec![1, 2]);
        assert_eq!(segments_for(&deliveries, 2), vec![4, 5]);
    }

    #[test]
    fn requester_inbound_budget_truncates_low_priority_requests() {
        let batches = vec![batch(
            1,
            2,
            vec![req(10, 5), req(11, 6), req(12, 7), req(13, 8)],
        )];
        let deliveries = resolve_checked(TransferResolver::new(), &batches, |_| 100, 0);
        assert_eq!(segments_for(&deliveries, 1), vec![10, 11]);
    }

    #[test]
    fn duplicate_requests_for_same_segment_collapse() {
        let batches = vec![batch(1, 10, vec![req(10, 5), req(10, 6), req(11, 5)])];
        let deliveries = resolve_checked(TransferResolver::new(), &batches, |_| 100, 0);
        assert_eq!(deliveries.len(), 2);
        assert_eq!(segments_for(&deliveries, 1), vec![10, 11]);
        // The duplicate went to the first-listed supplier.
        assert_eq!(deliveries[0].supplier, 5);
    }

    #[test]
    fn duplicate_requesters_across_batches_collapse_like_the_reference() {
        // The same requester split over two batches asking for overlapping
        // segments: the reference resolver dedups (requester, segment)
        // globally; the optimized path must match.
        let batches = vec![
            batch(1, 10, vec![req(10, 5), req(11, 5)]),
            batch(1, 10, vec![req(10, 6), req(12, 6)]),
            batch(2, 10, vec![req(10, 6)]),
        ];
        let deliveries = resolve_checked(TransferResolver::new(), &batches, |_| 100, 0);
        // Requester 1 receives segment 10 exactly once, from the
        // first-listed supplier (5).
        assert_eq!(segments_for(&deliveries, 1), vec![10, 11, 12]);
        assert_eq!(
            deliveries
                .iter()
                .find(|d| d.requester == 1 && d.segment == SegmentId(10))
                .unwrap()
                .supplier,
            5
        );
        // Requester 2's own request for segment 10 is unaffected.
        assert_eq!(segments_for(&deliveries, 2), vec![10]);
    }

    #[test]
    fn descending_batches_match_the_reference_without_duplicates() {
        // Requesters arrive out of order (impossible on the system hot path,
        // legal through the public API): the comparison-sort fallback must
        // still reproduce the reference's (supplier, requester) order.
        let batches = vec![
            batch(9, 10, vec![req(1, 3), req(2, 4)]),
            batch(4, 10, vec![req(3, 3), req(4, 5)]),
            batch(6, 10, vec![req(5, 4), req(6, 3)]),
        ];
        let deliveries = resolve_checked(TransferResolver::new(), &batches, |_| 10, 0);
        assert_eq!(deliveries.len(), 6);
        // Groups come out supplier-ascending, requester-ascending within.
        let order: Vec<(PeerId, PeerId)> = deliveries
            .iter()
            .map(|d| (d.supplier, d.requester))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn bucketed_hot_path_handles_sparse_high_supplier_ids() {
        // Ascending requesters (hot path) with widely spaced supplier ids
        // exercise the counting-sort buckets.
        let batches = vec![
            batch(1, 10, vec![req(1, 250), req(2, 0), req(3, 99)]),
            batch(5, 10, vec![req(4, 99), req(5, 250)]),
            batch(7, 10, vec![req(6, 0)]),
        ];
        let deliveries = resolve_checked(TransferResolver::new(), &batches, |_| 10, 0);
        assert_eq!(deliveries.len(), 6);
        let suppliers: Vec<PeerId> = deliveries.iter().map(|d| d.supplier).collect();
        assert_eq!(suppliers, vec![0, 0, 99, 99, 250, 250]);
    }

    #[test]
    fn sparse_supplier_ids_fall_back_to_the_comparison_sort() {
        // An ascending batch naming an astronomically high supplier id must
        // not size a counting-sort bucket table to that id — the sparsity
        // guard routes it to the comparison sort, same deliveries.
        let batches = vec![
            batch(1, 10, vec![req(1, PeerId::MAX), req(2, 3)]),
            batch(2, 10, vec![req(3, PeerId::MAX), req(4, 3)]),
        ];
        let deliveries = resolve_checked(TransferResolver::new(), &batches, |_| 10, 0);
        assert_eq!(deliveries.len(), 4);
        let suppliers: Vec<PeerId> = deliveries.iter().map(|d| d.supplier).collect();
        assert_eq!(suppliers, vec![3, 3, PeerId::MAX, PeerId::MAX]);
    }

    #[test]
    fn zero_budgets_deliver_nothing() {
        let batches = vec![batch(1, 0, vec![req(1, 2)]), batch(3, 5, vec![req(2, 4)])];
        let deliveries = resolve_checked(
            TransferResolver::new(),
            &batches,
            |p| if p == 4 { 0 } else { 10 },
            0,
        );
        assert!(deliveries.is_empty());
    }

    #[test]
    fn deterministic_for_identical_inputs() {
        let batches: Vec<RequestBatch> = (0..20)
            .map(|r| {
                batch(
                    r,
                    5,
                    (0..5)
                        .map(|s| req(u64::from(r) * 10 + s, (r + 1) % 20))
                        .collect(),
                )
            })
            .collect();
        let a = TransferResolver::new().resolve(&batches, |_| 3);
        let b = TransferResolver::new().resolve(&batches, |_| 3);
        assert_eq!(a, b);
        // Reusing one resolver across rounds is also deterministic.
        let mut shared = TransferResolver::new();
        let c = shared.resolve(&batches, |_| 3);
        let d = shared.resolve(&batches, |_| 3);
        assert_eq!(c, d);
        assert_eq!(a, c);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// No requester ever receives more than its inbound budget, no
        /// supplier sends more than its outbound budget, and every delivery
        /// corresponds to an actual request.
        #[test]
        fn prop_budgets_respected(
            raw in proptest::collection::vec(
                (0u32..8, 0usize..6, proptest::collection::vec((0u64..40, 0u32..8), 0..8)),
                0..12,
            ),
            outbound in 0usize..6,
        ) {
            // Deduplicate requester ids (later entries win) to form batches.
            let mut by_requester: BTreeMap<PeerId, RequestBatch> = BTreeMap::new();
            for (requester, budget, reqs) in raw {
                by_requester.insert(requester, RequestBatch {
                    requester,
                    inbound_budget: budget,
                    requests: reqs.into_iter().map(|(s, sup)| req(s, sup)).collect(),
                });
            }
            let batches: Vec<RequestBatch> = by_requester.into_values().collect();
            let mut resolver = TransferResolver::with_model(CapacityModel::Shared);
            let deliveries = resolver.resolve(&batches, |_| outbound);

            // The optimized path matches the reference implementation.
            let reference = resolver.resolve_round_reference(&batches, |_| outbound, 0);
            proptest::prop_assert_eq!(&deliveries, &reference);

            for b in &batches {
                let received = deliveries.iter().filter(|d| d.requester == b.requester).count();
                proptest::prop_assert!(received <= b.inbound_budget);
                for d in deliveries.iter().filter(|d| d.requester == b.requester) {
                    proptest::prop_assert!(b.requests.iter().any(|r| r.segment == d.segment));
                }
            }
            let mut per_supplier: BTreeMap<PeerId, usize> = BTreeMap::new();
            for d in &deliveries {
                *per_supplier.entry(d.supplier).or_default() += 1;
            }
            for (_, count) in per_supplier {
                proptest::prop_assert!(count <= outbound);
            }
        }

        /// The in-chunk grant rule is the per-link resolver restricted to
        /// one requester: granting batch by batch and concatenating gives
        /// exactly the global resolver's deliveries regrouped (stably) by
        /// requester.  Batches come in ascending requester order, as the
        /// period loop produces them, with repeated segments, inbound
        /// truncation, zero budgets, inactive suppliers (budget 0 in the
        /// table) and suppliers past the end of the budget table.
        #[test]
        fn prop_per_requester_grants_match_the_per_link_resolver(
            raw in proptest::collection::vec(
                (0usize..8, proptest::collection::vec((0u64..12, 0u32..12), 0..14)),
                0..10,
            ),
            budgets in proptest::collection::vec(0usize..5, 10..11),
            active in proptest::collection::vec(0u8..4, 10..11),
        ) {
            let batches: Vec<RequestBatch> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (inbound, reqs))| RequestBatch {
                    requester: 3 * i as PeerId + 1,
                    inbound_budget: inbound,
                    requests: reqs.into_iter().map(|(seg, sup)| req(seg, sup)).collect(),
                })
                .collect();
            // Suppliers 10 and 11 fall outside the table, like unknown ids.
            let table: Vec<usize> = budgets
                .iter()
                .zip(&active)
                .map(|(&budget, &a)| if a == 0 { 0 } else { budget })
                .collect();
            let budget = |p: PeerId| table.get(p as usize).copied().unwrap_or(0);

            let mut global = Vec::new();
            TransferResolver::with_model(CapacityModel::PerLink)
                .resolve_round_into(&batches, budget, 0, &mut global);
            let regrouped: Vec<DeliveredSegment> = batches
                .iter()
                .flat_map(|b| global.iter().filter(move |d| d.requester == b.requester))
                .copied()
                .collect();

            let mut scratch = GrantScratch::default();
            let mut local = Vec::new();
            for b in &batches {
                grant_per_link(b.requester, b.inbound_budget, &b.requests, budget, &mut scratch, &mut local);
            }
            proptest::prop_assert_eq!(local, regrouped);
        }
    }
}
