//! Context builders shared by the unit tests.

use crate::scheduler::{SchedulingContext, SegmentId, SessionView, SourceId, SupplierInfo};
use fss_overlay::PeerId;
use fss_sim::cast::narrow;

/// `(peer, rate, position)` of one test supplier.
pub(crate) type Supplier = (PeerId, f64, u32);

/// Buffer capacity `B` of every test neighbour.
pub(crate) const CAPACITY: usize = 600;

/// A context with no candidates: `τ = 1 s`, `p = 10`, `Q = 10`, `Qs = 50`,
/// the old session `0..=199` and, when `switch`, the new session from 200.
pub(crate) fn context(id_play: u64, inbound: f64, switch: bool) -> SchedulingContext {
    SchedulingContext {
        tau_secs: 1.0,
        play_rate: 10.0,
        inbound_rate: inbound,
        id_play: SegmentId(id_play),
        startup_q: 10,
        new_source_qs: 50,
        old_session: Some(SessionView {
            id: SourceId(0),
            first_segment: SegmentId(0),
            last_segment: Some(SegmentId(199)),
        }),
        new_session: switch.then_some(SessionView {
            id: SourceId(1),
            first_segment: SegmentId(200),
            last_segment: None,
        }),
        q1: 0,
        q2: 0,
        ..SchedulingContext::default()
    }
}

/// The slot of `peer`, pushing it with `rate` on first use.  A peer has one
/// rate per context.
pub(crate) fn slot(ctx: &mut SchedulingContext, peer: PeerId, rate: f64) -> u32 {
    match ctx.neighbours.iter().position(|n| n.peer == peer) {
        Some(slot) => {
            assert_eq!(ctx.neighbours[slot].rate, rate, "peer {peer} has one rate");
            narrow(slot, "test neighbour slots fit u32")
        }
        None => ctx.push_neighbour(peer, rate, CAPACITY),
    }
}

/// Pushes candidate `id` held by `(peer, rate, position)` suppliers.
pub(crate) fn push(ctx: &mut SchedulingContext, id: u64, suppliers: &[Supplier]) {
    let suppliers: Vec<SupplierInfo> = suppliers
        .iter()
        .map(|&(peer, rate, buffer_position)| SupplierInfo {
            slot: slot(ctx, peer, rate),
            buffer_position,
        })
        .collect();
    ctx.push_candidate(SegmentId(id), suppliers);
}
