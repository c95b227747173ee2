//! The per-link grant rule: what a requester's scheduled requests turn
//! into once they meet the bandwidth budgets of one period.
//!
//! Schedulers decide *what to ask from whom*; [`grant_per_link`] decides
//! what is actually delivered:
//!
//! * a requester considers at most its first `⌊I·τ⌋` requests (its inbound
//!   budget), dropping any repeated segment (the first listed supplier
//!   wins), and
//! * a supplier serves **each** requesting neighbour up to its own outbound
//!   budget `⌊o·τ⌋`, in the requester's priority order.
//!
//! Requests that do not fit are simply dropped; the requester re-evaluates
//! next period, as in the real pull protocol.  Because a grant depends only
//! on the requester's own requests and the read-only supplier budgets —
//! never on another requester — each scheduling chunk grants its own
//! requesters right after scheduling them.  Grants come out sorted by
//! (supplier, submission order), which is the insert sequence the
//! requester's buffer sees.

use fss_core::{SegmentId, SegmentRequest};
use fss_overlay::PeerId;

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

/// One kept request of the requester being granted.
#[derive(Debug, Clone, Copy)]
struct Entry {
    supplier: PeerId,
    /// Submission index; makes the (unstable) sort key unique, so each
    /// supplier's requests stay in priority order.
    seq: u32,
    segment: SegmentId,
}

/// Reusable working memory of [`grant_per_link`]: one requester's kept
/// requests, grouped by supplier before granting.
#[derive(Debug, Clone, Default)]
pub struct GrantScratch {
    entries: Vec<Entry>,
}

/// Grants one requester's requests under the per-link rule:
///
/// * the first `inbound_budget` requests are considered,
/// * a repeated segment is dropped (the first listed supplier wins),
/// * request *k* is granted iff fewer than `outbound_budget(supplier)`
///   earlier kept requests went to the same supplier.
///
/// Grants are **appended** to `out` sorted by (supplier, submission
/// order).  Allocation-free once `scratch` and `out` reached their
/// high-water marks.
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
        serve_per_link(
            requester,
            &entries[start..end],
            outbound_budget(supplier),
            out,
        );
        start = end;
    }
}

/// Serves one supplier's share of a requester's kept requests: the first
/// `budget` of them, in priority order.
fn serve_per_link(
    requester: PeerId,
    group: &[Entry],
    budget: usize,
    out: &mut Vec<DeliveredSegment>,
) {
    out.extend(group.iter().take(budget).map(|e| DeliveredSegment {
        requester,
        supplier: e.supplier,
        segment: e.segment,
    }));
}
// fss-lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    /// `(requester, inbound budget, requests in priority order)`.
    type Batch = (PeerId, usize, Vec<SegmentRequest>);

    fn req(segment: u64, supplier: PeerId) -> SegmentRequest {
        SegmentRequest {
            segment: SegmentId(segment),
            supplier,
        }
    }

    /// Grants every batch in order through one reused scratch.
    fn grant_all<F: Fn(PeerId) -> usize>(batches: &[Batch], budget: F) -> Vec<DeliveredSegment> {
        let mut scratch = GrantScratch::default();
        let mut out = Vec::new();
        for (requester, inbound, requests) in batches {
            grant_per_link(
                *requester,
                *inbound,
                requests,
                &budget,
                &mut scratch,
                &mut out,
            );
        }
        out
    }

    /// The per-link rule written as a map of supplier → requester → queue:
    /// each link carries the first `outbound_budget(supplier)` of the
    /// requester's kept requests to that supplier.  Deliveries come out
    /// supplier-major.
    fn per_link_oracle<F: Fn(PeerId) -> usize>(
        batches: &[Batch],
        outbound_budget: F,
    ) -> Vec<DeliveredSegment> {
        let mut queues: BTreeMap<PeerId, BTreeMap<PeerId, VecDeque<SegmentId>>> = BTreeMap::new();
        for (requester, inbound, requests) in batches {
            let mut seen = BTreeSet::new();
            for r in requests.iter().take(*inbound) {
                if seen.insert(r.segment) {
                    queues
                        .entry(r.supplier)
                        .or_default()
                        .entry(*requester)
                        .or_default()
                        .push_back(r.segment);
                }
            }
        }
        let mut deliveries = Vec::new();
        for (supplier, per_requester) in queues {
            for (requester, queue) in per_requester {
                for segment in queue.into_iter().take(outbound_budget(supplier)) {
                    deliveries.push(DeliveredSegment {
                        requester,
                        supplier,
                        segment,
                    });
                }
            }
        }
        deliveries
    }

    fn segments_for(deliveries: &[DeliveredSegment], requester: PeerId) -> Vec<u64> {
        deliveries
            .iter()
            .filter(|d| d.requester == requester)
            .map(|d| d.segment.value())
            .collect()
    }

    #[test]
    fn everything_fits_when_budgets_are_ample() {
        let batches = vec![
            (1, 10, vec![req(100, 9), req(101, 9)]),
            (2, 10, vec![req(102, 9)]),
        ];
        let deliveries = grant_all(&batches, |_| 100);
        assert_eq!(deliveries.len(), 3);
        assert_eq!(segments_for(&deliveries, 1), vec![100, 101]);
        assert_eq!(segments_for(&deliveries, 2), vec![102]);
        assert!(deliveries.iter().all(|d| d.supplier == 9));
    }

    #[test]
    fn per_link_model_serves_each_requester_up_to_the_supplier_rate() {
        // Supplier 9 has rate 2; both requesters want 3 segments from it.
        let batches = vec![
            (1, 10, vec![req(1, 9), req(2, 9), req(3, 9)]),
            (2, 10, vec![req(4, 9), req(5, 9), req(6, 9)]),
        ];
        let deliveries = grant_all(&batches, |_| 2);
        assert_eq!(deliveries.len(), 4);
        assert_eq!(segments_for(&deliveries, 1), vec![1, 2]);
        assert_eq!(segments_for(&deliveries, 2), vec![4, 5]);
    }

    #[test]
    fn requester_inbound_budget_truncates_low_priority_requests() {
        let batches = vec![(1, 2, vec![req(10, 5), req(11, 6), req(12, 7), req(13, 8)])];
        let deliveries = grant_all(&batches, |_| 100);
        assert_eq!(segments_for(&deliveries, 1), vec![10, 11]);
    }

    #[test]
    fn duplicate_requests_for_same_segment_collapse() {
        let batches = vec![(1, 10, vec![req(10, 5), req(10, 6), req(11, 5)])];
        let deliveries = grant_all(&batches, |_| 100);
        assert_eq!(deliveries.len(), 2);
        assert_eq!(segments_for(&deliveries, 1), vec![10, 11]);
        // The duplicate went to the first-listed supplier.
        assert_eq!(deliveries[0].supplier, 5);
    }

    #[test]
    fn zero_budgets_deliver_nothing() {
        let batches = vec![(1, 0, vec![req(1, 2)]), (3, 5, vec![req(2, 4)])];
        let deliveries = grant_all(&batches, |p| if p == 4 { 0 } else { 10 });
        assert!(deliveries.is_empty());
    }

    #[test]
    fn deterministic_for_identical_inputs() {
        let batches: Vec<Batch> = (0..20)
            .map(|r| {
                let requests = (0..5).map(|s| req(u64::from(r) * 10 + s, (r + 1) % 20));
                (r, 5, requests.collect())
            })
            .collect();
        // `grant_all` reuses one scratch across all requesters.
        assert_eq!(grant_all(&batches, |_| 3), grant_all(&batches, |_| 3));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// No requester ever receives more than its inbound budget, no link
        /// carries more than its supplier's outbound budget, and every
        /// delivery corresponds to an actual request to that supplier.
        #[test]
        fn prop_budgets_respected(
            raw in proptest::collection::vec(
                (0u32..8, 0usize..6, proptest::collection::vec((0u64..40, 0u32..8), 0..8)),
                0..12,
            ),
            outbound in 0usize..6,
        ) {
            // Deduplicate requester ids (later entries win) to form batches.
            let mut by_requester: BTreeMap<PeerId, Batch> = BTreeMap::new();
            for (requester, budget, reqs) in raw {
                let requests = reqs.into_iter().map(|(s, sup)| req(s, sup)).collect();
                by_requester.insert(requester, (requester, budget, requests));
            }
            let batches: Vec<Batch> = by_requester.into_values().collect();
            let deliveries = grant_all(&batches, |_| outbound);

            let mut per_link: BTreeMap<(PeerId, PeerId), usize> = BTreeMap::new();
            for (requester, inbound, requests) in &batches {
                let mine: Vec<&DeliveredSegment> =
                    deliveries.iter().filter(|d| d.requester == *requester).collect();
                proptest::prop_assert!(mine.len() <= *inbound);
                for d in mine {
                    proptest::prop_assert!(requests
                        .iter()
                        .any(|r| r.segment == d.segment && r.supplier == d.supplier));
                    *per_link.entry((d.supplier, d.requester)).or_default() += 1;
                }
            }
            for count in per_link.into_values() {
                proptest::prop_assert!(count <= outbound);
            }
        }

        /// The in-chunk grant rule matches the per-link oracle: granting
        /// batch by batch and concatenating gives exactly the oracle's
        /// deliveries regrouped (stably) by requester.  Batches come in
        /// ascending requester order, as the period loop produces them,
        /// with repeated segments, inbound truncation, zero budgets,
        /// inactive suppliers (budget 0 in the table) and suppliers past the
        /// end of the budget table.
        #[test]
        fn prop_per_requester_grants_match_the_per_link_resolver(
            raw in proptest::collection::vec(
                (0usize..8, proptest::collection::vec((0u64..12, 0u32..12), 0..14)),
                0..10,
            ),
            budgets in proptest::collection::vec(0usize..5, 10..11),
            active in proptest::collection::vec(0u8..4, 10..11),
        ) {
            let batches: Vec<Batch> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (inbound, reqs))| {
                    let requests = reqs.into_iter().map(|(seg, sup)| req(seg, sup)).collect();
                    (3 * i as PeerId + 1, inbound, requests)
                })
                .collect();
            // Suppliers 10 and 11 fall outside the table, like unknown ids.
            let table: Vec<usize> = budgets
                .iter()
                .zip(&active)
                .map(|(&budget, &a)| if a == 0 { 0 } else { budget })
                .collect();
            let budget = |p: PeerId| table.get(p as usize).copied().unwrap_or(0);

            let oracle = per_link_oracle(&batches, budget);
            let regrouped: Vec<DeliveredSegment> = batches
                .iter()
                .flat_map(|b| oracle.iter().filter(move |d| d.requester == b.0))
                .copied()
                .collect();
            proptest::prop_assert_eq!(grant_all(&batches, budget), regrouped);
        }
    }
}
