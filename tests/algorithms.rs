//! Cross-crate behavioural tests of the switch algorithms: the paper's
//! qualitative claims at test-friendly scale.

use fast_source_switching::core::{allocate_rates, greedy_assign, AssignmentOrder, SwitchModel};
use fast_source_switching::gossip::{
    SchedulingContext, SegmentId, SessionView, SourceId, SupplierInfo,
};
use fast_source_switching::prelude::*;
use fss_spec::optimal_assign;

/// Builds a synthetic switch context with `old_missing` old-source segments
/// and `new_available` new-source segments, all well supplied.
fn context(old_missing: u64, new_available: u64, inbound: f64) -> SchedulingContext {
    let mut ctx = SchedulingContext {
        tau_secs: 1.0,
        play_rate: 10.0,
        inbound_rate: inbound,
        id_play: SegmentId(200 - old_missing),
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
        q1: old_missing as usize,
        q2: 50,
        ..SchedulingContext::default()
    };
    let one = ctx.push_neighbour(1, 18.0, 600);
    let two = ctx.push_neighbour(2, 15.0, 600);
    let three = ctx.push_neighbour(3, 20.0, 600);
    let supplier = |slot, buffer_position| SupplierInfo {
        slot,
        buffer_position,
    };
    for id in (200 - old_missing)..200 {
        ctx.push_candidate(SegmentId(id), [supplier(one, 300), supplier(two, 250)]);
    }
    for id in 200..200 + new_available {
        ctx.push_candidate(SegmentId(id), [supplier(three, 30)]);
    }
    ctx
}

#[test]
fn fast_scheduler_tracks_the_models_optimal_split() {
    // Over a range of backlogs the per-period split chosen by the fast
    // scheduler stays within one segment of the closed-form r1/r2.
    let scheduler = FastSwitchScheduler::new();
    for q1 in [20u64, 40, 80, 120] {
        let ctx = context(q1, 40, 15.0);
        let requests = scheduler.schedule(&ctx);
        let old = requests
            .iter()
            .filter(|r| r.segment < SegmentId(200))
            .count() as f64;
        let split = SwitchModel::new(q1 as f64, 50.0, 10.0, 10.0, 15.0).optimal_split();
        assert!(
            (old - split.r1).abs() <= 1.5,
            "Q1={q1}: scheduled {old} old segments, model says {:.2}",
            split.r1
        );
    }
}

#[test]
fn normal_scheduler_never_requests_new_segments_while_old_ones_remain() {
    let scheduler = NormalSwitchScheduler::new();
    let ctx = context(40, 40, 15.0);
    let requests = scheduler.schedule(&ctx);
    assert_eq!(requests.len(), 15);
    assert!(requests.iter().all(|r| r.segment < SegmentId(200)));
}

#[test]
fn greedy_assignment_is_close_to_the_exact_optimum_on_small_instances() {
    // The supplier-assignment subproblem is NP-hard; on exhaustive-search
    // sized instances the greedy heuristic of Algorithm 1 delivers at least
    // 80 % of the optimal number of segments (and usually all of them).
    for old in 1..=4u64 {
        for new in 1..=4u64 {
            let ctx = context(old, new, 33.0);
            let greedy = greedy_assign(&ctx, AssignmentOrder::ByPriority);
            let exact = optimal_assign(&ctx);
            let greedy_total = greedy.old.len() + greedy.new.len();
            assert!(greedy_total <= exact.delivered);
            assert!(
                greedy_total as f64 >= 0.8 * exact.delivered as f64,
                "greedy {greedy_total} vs optimal {} (old={old}, new={new})",
                exact.delivered
            );
        }
    }
}

#[test]
fn four_case_allocation_is_consistent_with_the_model() {
    let split = SwitchModel::new(100.0, 50.0, 10.0, 10.0, 15.0).optimal_split();
    // Abundant supply: the ideal split is realised (case 1).
    let ideal = allocate_rates(split, 100, 100, 15, 1.0);
    assert_eq!(ideal.old_segments + ideal.new_segments, 15);
    // New-source supply limited to 2 segments: the leftover goes to S1.
    let limited = allocate_rates(split, 100, 2, 15, 1.0);
    assert_eq!(limited.new_segments, 2);
    assert_eq!(limited.old_segments, 13);
}

#[test]
fn end_to_end_fast_switch_is_not_slower_and_costs_no_extra_overhead() {
    let base = ScenarioConfig::quick(150, Algorithm::Fast, Environment::Static);
    let cmp = run_comparison(&base);
    assert!(cmp.fast.completed && cmp.normal.completed);
    // Identical workloads (same seeds) — identical backlog at the switch.
    assert_eq!(
        cmp.fast.switch.countable_nodes,
        cmp.normal.switch.countable_nodes
    );
    assert!((cmp.fast.switch.avg_q0 - cmp.normal.switch.avg_q0).abs() < 1e-9);
    // The fast algorithm prepares the new source at least as early …
    assert!(cmp.fast.switch.avg_prepare_new_secs <= cmp.normal.switch.avg_prepare_new_secs + 0.5);
    // … by delaying (never accelerating) the old stream's finish …
    assert!(cmp.fast.switch.avg_finish_old_secs + 0.5 >= cmp.normal.switch.avg_finish_old_secs);
    // … without extra communication overhead.
    assert!(cmp.fast.overhead.overhead <= cmp.normal.overhead.overhead * 1.05);
}

#[test]
fn dynamic_and_static_environments_are_consistent() {
    // Figures 9-12 vs 5-8: the dynamic results behave like the static ones.
    let static_cfg = ScenarioConfig::quick(120, Algorithm::Fast, Environment::Static);
    let dynamic_cfg = ScenarioConfig::quick(120, Algorithm::Fast, Environment::Dynamic);
    let s = run_scenario(&static_cfg);
    let d = run_scenario(&dynamic_cfg);
    assert!(s.completed && d.completed);
    // Churn never speeds a switch up, and overhead stays in the same ballpark.
    assert!(d.avg_switch_time_secs() + 1.0 >= s.avg_switch_time_secs());
    assert!(d.overhead.overhead < 3.0 * s.overhead.overhead);
}
