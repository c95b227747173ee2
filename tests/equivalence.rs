//! Hot-path equivalence: the zero-allocation scratch-arena period loop (and
//! its pool-parallel dispatches) must produce a `SystemReport` identical to
//! the executable specification (`fss-spec`) on a seeded churn scenario
//! with the paper's schedulers.

use fast_source_switching::core::{FastSwitchScheduler, NormalSwitchScheduler};
use fast_source_switching::gossip::{
    GossipConfig, SegmentScheduler, StreamingSystem, SystemReport,
};
use fast_source_switching::overlay::{ChurnModel, OverlayBuilder, PeerId};
use fast_source_switching::trace::{GeneratorConfig, TraceGenerator};
use fss_spec::Spec;

#[derive(Clone, Copy, PartialEq)]
enum Path {
    Optimized,
    /// The single-chunk path with the executable spec stepping alongside.
    Spec,
    /// A sharded store stepped on a persistent pool: the chunk plan
    /// follows the shards, and both the scheduling pass (with its grants)
    /// and the fused walk fan out over the pool.
    Sharded {
        shards: usize,
        workers: usize,
    },
}

fn fast() -> Box<dyn SegmentScheduler> {
    Box::new(FastSwitchScheduler::new())
}

fn normal() -> Box<dyn SegmentScheduler> {
    Box::new(NormalSwitchScheduler::new())
}

/// Runs the 200-node churned switch scenario through the selected period
/// implementation and returns its report.
fn run_churn_scenario(scheduler: fn() -> Box<dyn SegmentScheduler>, path: Path) -> SystemReport {
    run_scenario(scheduler, path).0.report()
}

/// Runs the 200-node churned switch scenario through the selected period
/// implementation and returns the system (and the spec, on its path).
fn run_scenario(
    scheduler: fn() -> Box<dyn SegmentScheduler>,
    path: Path,
) -> (StreamingSystem, Option<Spec>) {
    let trace = TraceGenerator::new(GeneratorConfig::sized(200, 42)).generate("equivalence");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let peers: Vec<PeerId> = overlay.active_peers().collect();
    let (s1, s2) = (peers[0], peers[peers.len() / 2]);

    let mut sys = StreamingSystem::new(overlay, GossipConfig::paper_default(), scheduler());
    if let Path::Sharded { shards, workers } = path {
        sys.set_shards(shards);
        let pool = std::sync::Arc::new(fast_source_switching::runtime::WorkerPool::new(workers));
        sys.set_executor(pool.as_executor());
    }
    sys.start_initial_source(s1);
    let mut spec = (path == Path::Spec).then(|| Spec::from_system(&sys, scheduler()));
    let step = |sys: &mut StreamingSystem, spec: &mut Option<Spec>| {
        sys.advance();
        if let Some(spec) = spec {
            spec.step(sys);
        }
    };
    for _ in 0..40 {
        step(&mut sys, &mut spec);
    }
    sys.set_churn(ChurnModel::paper_default(7));
    sys.switch_source(s2);
    if let Some(spec) = &mut spec {
        spec.switch_source(&sys, s2);
    }
    for _ in 0..120 {
        step(&mut sys, &mut spec);
    }
    (sys, spec)
}

/// Runs the single-chunk path with the spec alongside and asserts equal
/// reports and raw switch records; returns the spec's report.
fn assert_matches_spec(scheduler: fn() -> Box<dyn SegmentScheduler>) -> SystemReport {
    let (sys, spec) = run_scenario(scheduler, Path::Spec);
    let spec = spec.expect("spec path");
    assert_eq!(sys.report(), spec.report());
    assert_eq!(spec.check_switch_records(&sys), Ok(()));
    spec.report()
}

#[test]
fn fast_scheduler_optimized_matches_reference_under_churn() {
    let reference = assert_matches_spec(fast);
    // The scenario is meaningful: the switch actually completed and traffic
    // flowed.
    assert!(reference.switch_completed_secs.is_some());
    assert!(reference.traffic_total.data_bits > 0);
    assert!(!reference.ratio_samples.is_empty());
}

#[test]
fn normal_scheduler_optimized_matches_reference_under_churn() {
    assert_matches_spec(normal);
}

/// Sharded stepping on the pool — per-chunk grants and a per-chunk fused
/// walk — against the spec, across shard counts and pool sizes.  The raw
/// per-peer switch records are compared too, not just their report
/// aggregate, and the ratio tracks ride in the report.
#[test]
fn sharded_pool_stepping_matches_reference_under_churn() {
    let (_, spec) = run_scenario(fast, Path::Spec);
    let spec = spec.expect("spec path");
    let reference = spec.report();
    assert!(!reference.ratio_samples.is_empty());
    for shards in [2, 4, 8] {
        for workers in [1, 2, 4] {
            let sys = run_scenario(fast, Path::Sharded { shards, workers }).0;
            assert!(sys.shard_count() > 1, "shards = {shards}");
            assert_eq!(
                sys.report(),
                reference,
                "shards = {shards}, workers = {workers}"
            );
            assert_eq!(
                spec.check_switch_records(&sys),
                Ok(()),
                "switch records, shards = {shards}, workers = {workers}"
            );
        }
    }
}

#[test]
fn parallel_sweep_matches_sequential_under_churn() {
    let sequential = run_churn_scenario(fast, Path::Optimized);
    for workers in [2, 4, 7] {
        let parallel = run_churn_scenario(
            fast,
            Path::Sharded {
                shards: workers,
                workers,
            },
        );
        assert_eq!(parallel, sequential, "workers = {workers}");
    }
}

/// The pool determinism guarantee: a 4-shard store's period dispatched
/// onto the persistent worker pool produces byte-identical reports for
/// every pool size — 1 (in-line), 2, 4 and 7 workers — under churn, and
/// matches the single-chunk path.
#[test]
fn pool_backed_sweep_is_byte_identical_across_pool_sizes() {
    let sequential = run_churn_scenario(fast, Path::Optimized);
    for workers in [1, 2, 4, 7] {
        let pooled = run_churn_scenario(fast, Path::Sharded { shards: 4, workers });
        assert_eq!(pooled, sequential, "pool workers = {workers}");
    }
}

/// Pool reuse across consecutive sessions: a pool that already ran one full
/// session must drive a second one to exactly the report a fresh pool
/// produces (no state leakage through the persistent workers).
#[test]
fn pool_reuse_across_sessions_matches_fresh_pool() {
    use fast_source_switching::runtime::WorkerPool;
    use std::sync::Arc;

    let run_on = |pool: &Arc<WorkerPool>, scheduler: Box<dyn SegmentScheduler>| {
        let trace = TraceGenerator::new(GeneratorConfig::sized(150, 42)).generate("pool-reuse");
        let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
        let peers: Vec<PeerId> = overlay.active_peers().collect();
        let (s1, s2) = (peers[0], peers[peers.len() / 2]);
        let mut sys = StreamingSystem::new(overlay, GossipConfig::paper_default(), scheduler);
        sys.set_shards(4);
        sys.set_executor(pool.as_executor());
        sys.start_initial_source(s1);
        sys.run_periods(30);
        sys.set_churn(ChurnModel::paper_default(7));
        sys.switch_source(s2);
        sys.run_periods(60);
        sys.report()
    };

    let shared = Arc::new(WorkerPool::new(3));
    let first = run_on(&shared, Box::new(FastSwitchScheduler::new()));
    let second = run_on(&shared, Box::new(NormalSwitchScheduler::new()));
    assert_eq!(
        first,
        run_on(
            &Arc::new(WorkerPool::new(3)),
            Box::new(FastSwitchScheduler::new())
        )
    );
    assert_eq!(
        second,
        run_on(
            &Arc::new(WorkerPool::new(3)),
            Box::new(NormalSwitchScheduler::new())
        )
    );
    assert_ne!(first, second, "schedulers must differ on this workload");
}
