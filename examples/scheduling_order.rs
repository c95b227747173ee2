//! Figure 2 in code: how the fast and normal switch algorithms order the same
//! ten available segments when only seven fit into the scheduling period.
//!
//! The node is switching from the old source S1 (five of its segments are
//! still missing) to the new source S2 (its first five segments are
//! available).  The normal algorithm requests all of S1 first; the fast
//! algorithm interleaves the two streams according to the optimal rate split.
//!
//! ```text
//! cargo run --example scheduling_order
//! ```

use fast_source_switching::core::{FastSwitchScheduler, NormalSwitchScheduler};
use fast_source_switching::gossip::{
    SchedulingContext, SegmentId, SegmentScheduler, SessionView, SourceId, StreamClass,
    SupplierInfo,
};

fn main() {
    // Old source S1 ends at segment 199; the node is 60 segments behind its
    // end and the new source S2 starts at segment 200.
    let mut ctx = SchedulingContext {
        tau_secs: 1.0,
        play_rate: 10.0,
        inbound_rate: 7.0, // room for 7 of the 10 available segments
        id_play: SegmentId(140),
        startup_q: 10,
        new_source_qs: 50,
        old_session: Some(SessionView {
            id: SourceId(0),
            first_segment: SegmentId(0),
            last_segment: Some(SegmentId(199)),
        }),
        new_session: Some(SessionView {
            id: SourceId(1),
            first_segment: SegmentId(200),
            last_segment: None,
        }),
        q1: 60,
        q2: 50,
        ..SchedulingContext::default()
    };
    // Four neighbours: `(peer, rate)`, each with a 600-segment buffer.
    let slots: Vec<u32> = [(1, 14.0), (2, 12.0), (3, 14.0), (4, 16.0)]
        .into_iter()
        .map(|(peer, rate)| ctx.push_neighbour(peer, rate, 600))
        .collect();
    let supplier = |slot: u32, buffer_position| SupplierInfo {
        slot,
        buffer_position,
    };
    for id in 195..200u64 {
        // The five remaining segments of S1.
        ctx.push_candidate(
            SegmentId(id),
            [supplier(slots[0], 350), supplier(slots[1], 320)],
        );
    }
    for id in 200..205u64 {
        // The first five segments of S2.
        ctx.push_candidate(
            SegmentId(id),
            [supplier(slots[2], 40), supplier(slots[3], 25)],
        );
    }

    let describe = |name: &str, scheduler: &dyn SegmentScheduler| {
        let requests = scheduler.schedule(&ctx);
        let order: Vec<String> = requests
            .iter()
            .map(|r| {
                let class = match ctx.class_of(r.segment) {
                    StreamClass::Old => "S1",
                    StreamClass::New => "S2",
                };
                format!("{class}:{}", r.segment.value())
            })
            .collect();
        println!("{name:<22} {}", order.join("  "));
        let new = requests
            .iter()
            .filter(|r| ctx.class_of(r.segment) == StreamClass::New)
            .count();
        println!(
            "{:<22} {} old-source + {} new-source segments\n",
            "",
            requests.len() - new,
            new
        );
    };

    println!(
        "10 segments available (5 of S1, 5 of S2), inbound room for {} this period:\n",
        ctx.inbound_budget()
    );
    describe("normal switch order:", &NormalSwitchScheduler::new());
    describe("fast switch order:", &FastSwitchScheduler::new());
    println!("The fast algorithm interleaves the new source's segments instead of postponing");
    println!("them until every old-source segment has been fetched (cf. Figure 2 of the paper).");
}
