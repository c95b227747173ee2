//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * **Bandwidth model** — the cost of one quick scenario run under the
//!   per-link grant rule.
//! * **Rarity definition** — the paper's buffer-position product (eq. 8) vs
//!   the traditional `1/n` rarity it argues against.
//! * **Supplier assignment** — the greedy heuristic of Algorithm 1 vs the
//!   exact exponential solver on micro instances.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fss_core::{greedy_assign, rarity, traditional_rarity, AssignmentOrder};
use fss_experiments::{run_scenario, Algorithm, Environment, ScenarioConfig};
use fss_gossip::{SchedulingContext, SegmentId, SessionView, SourceId, SupplierInfo};
use fss_spec::optimal_assign;

fn bench_bandwidth_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bandwidth_model");
    group.sample_size(10);

    group.bench_function("per_link_80_nodes", |b| {
        let config = ScenarioConfig::quick(80, Algorithm::Fast, Environment::Static);
        b.iter(|| run_scenario(&config))
    });
    group.finish();
}

fn micro_context(n: u64, suppliers: u32) -> SchedulingContext {
    let mut ctx = SchedulingContext {
        tau_secs: 1.0,
        play_rate: 10.0,
        inbound_rate: 15.0,
        id_play: SegmentId(150),
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
        q1: n as usize,
        q2: 50,
        ..SchedulingContext::default()
    };
    for s in 0..suppliers {
        ctx.push_neighbour(s + 1, 3.0 + f64::from(s), 600);
    }
    for k in 0..n {
        ctx.push_candidate(
            SegmentId(150 + k),
            (0..suppliers).map(|slot| SupplierInfo {
                slot,
                buffer_position: 100 + k as u32,
            }),
        );
    }
    ctx
}

fn bench_assignment_gap(c: &mut Criterion) {
    let ctx = micro_context(8, 3);
    let mut group = c.benchmark_group("ablation_assignment");
    group.bench_function("greedy_8_candidates", |b| {
        b.iter(|| greedy_assign(black_box(&ctx), AssignmentOrder::ByPriority))
    });
    group.bench_function("exact_8_candidates", |b| {
        b.iter(|| optimal_assign(black_box(&ctx)))
    });
    group.finish();
}

fn bench_rarity_definitions(c: &mut Criterion) {
    let positions: Vec<(usize, usize)> = (0..5).map(|i| (100 + i * 90, 600)).collect();
    let mut group = c.benchmark_group("ablation_rarity");
    group.bench_function("paper_buffer_position_product", |b| {
        b.iter(|| rarity(black_box(&positions)))
    });
    group.bench_function("traditional_one_over_n", |b| {
        b.iter(|| traditional_rarity(black_box(5)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bandwidth_model,
    bench_assignment_gap,
    bench_rarity_definitions
);
criterion_main!(benches);
