//! Benchmarks of the per-period scheduling path: priority computation,
//! greedy supplier assignment, and the full fast/normal schedulers, as a
//! function of the number of candidate segments, plus one lane shaped like
//! a `steady_100k` scheduling call.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fss_core::{greedy_assign, AssignmentOrder, FastSwitchScheduler, NormalSwitchScheduler};
use fss_gossip::{
    SchedulerScratch, SchedulingContext, SegmentId, SegmentScheduler, SessionView, SourceId,
    SupplierInfo,
};

/// A context with no candidates: `τ = 1 s`, `p = 10`, the old session
/// `0..=199` and, when `switch`, the new session from 200.
fn base(id_play: u64, q1: usize, switch: bool) -> SchedulingContext {
    SchedulingContext {
        tau_secs: 1.0,
        play_rate: 10.0,
        inbound_rate: 15.0,
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
        q1,
        q2: if switch { 50 } else { 0 },
        ..SchedulingContext::default()
    }
}

/// A switch context with `old` old-source and `new` new-source candidates,
/// each held by all `suppliers` neighbours.
fn context(old: u64, new: u64, suppliers: u32) -> SchedulingContext {
    let mut ctx = base(200 - old, old as usize, true);
    for i in 0..suppliers {
        ctx.push_neighbour(i + 1, 12.0 + f64::from(i) * 3.0, 600);
    }
    let held = |base_pos: u32| {
        (0..suppliers).map(move |slot| SupplierInfo {
            slot,
            buffer_position: base_pos + slot * 7,
        })
    };
    for id in (200 - old)..200 {
        ctx.push_candidate(SegmentId(id), held(250));
    }
    for id in 200..200 + new {
        ctx.push_candidate(SegmentId(id), held(20));
    }
    ctx
}

/// A call shaped like `steady_100k`'s, built the way the system's context
/// builder builds it: 10 candidates near the stream head, each held by 2
/// of 7 neighbours, no switch.  A neighbour gets its row at its first
/// supplier hit, and each candidate lists its suppliers in neighbour order.
fn steady_context() -> SchedulingContext {
    let mut ctx = base(150, 12, false);
    let mut slot_of = [None; 7];
    for k in 0..10u32 {
        let id = SegmentId(160 + u64::from(k) * 3);
        let (a, b) = (k % 7, (k + 3) % 7);
        let held = [(a.min(b), 1 + k), (a.max(b), 4 + 2 * k)];
        let suppliers = held.map(|(n, buffer_position)| SupplierInfo {
            slot: *slot_of[n as usize]
                .get_or_insert_with(|| ctx.push_neighbour(100 + n, 15.0 + f64::from(n), 600)),
            buffer_position,
        });
        ctx.push_candidate(id, suppliers);
    }
    ctx
}

fn bench_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling");
    for &candidates in &[20u64, 100, 400] {
        let ctx = context(candidates / 2, candidates / 2, 5);
        group.bench_with_input(
            BenchmarkId::new("greedy_assign", candidates),
            &ctx,
            |b, ctx| b.iter(|| greedy_assign(ctx, AssignmentOrder::ByPriority)),
        );
        group.bench_with_input(
            BenchmarkId::new("fast_scheduler", candidates),
            &ctx,
            |b, ctx| b.iter(|| FastSwitchScheduler::new().schedule(ctx)),
        );
        group.bench_with_input(
            BenchmarkId::new("normal_scheduler", candidates),
            &ctx,
            |b, ctx| b.iter(|| NormalSwitchScheduler::new().schedule(ctx)),
        );
    }
    // The hot path's form: reused scratch and output buffer.
    let ctx = steady_context();
    let (mut scratch, mut out) = (SchedulerScratch::default(), Vec::new());
    group.bench_function("steady_call/fast_scheduler_into", |b| {
        b.iter(|| {
            FastSwitchScheduler::new().schedule_into(black_box(&ctx), &mut scratch, &mut out);
            out.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scheduling);
criterion_main!(benches);
