//! Parallel sweeps over network sizes.
//!
//! Each `(size, algorithm)` pair is an independent simulation, so the sweep
//! fans them out as chunks of one [`ScopedJob`] on the persistent
//! [`WorkerPool`] — the same pool that backs the gossip scheduling sweep
//! and the multi-channel session manager, so one set of threads serves the
//! whole process.  Every simulation uses its own deterministic seeds and
//! writes its result into its own chunk-indexed slot, so neither the pool
//! size nor the chunk-stealing order can change any result.
//!
//! [`ScopedJob`]: fss_sim::ScopedJob

use crate::runner::{run_scenario, ComparisonResult, RunResult};
use crate::scenario::{Algorithm, ScenarioConfig};
use fss_runtime::WorkerPool;
use fss_sim::exec::DisjointSlots;

/// The comparison at one network size.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Fast-vs-normal comparison at that size.
    pub comparison: ComparisonResult,
}

/// Runs the fast and normal algorithms at every size in `sizes`, in parallel
/// on a machine-sized throwaway pool, and returns the results ordered by
/// size.
///
/// `base` provides everything except the size and algorithm (environment,
/// warm-up, seeds...).  Prefer [`sweep_sizes_on`] when a pool already
/// exists.
pub fn sweep_sizes(sizes: &[usize], base: &ScenarioConfig) -> Vec<SweepPoint> {
    sweep_sizes_on(&WorkerPool::with_available_parallelism(), sizes, base)
}

/// Like [`sweep_sizes`], but runs on the caller's persistent pool.
pub fn sweep_sizes_on(
    pool: &WorkerPool,
    sizes: &[usize],
    base: &ScenarioConfig,
) -> Vec<SweepPoint> {
    let mut jobs: Vec<(usize, Algorithm)> = Vec::new();
    for &nodes in sizes {
        for algorithm in Algorithm::ALL {
            jobs.push((nodes, algorithm));
        }
    }

    let mut results: Vec<Option<RunResult>> = vec![None; jobs.len()];
    {
        let jobs = &jobs[..];
        let slots = DisjointSlots::new(&mut results);
        pool.execute(jobs.len(), &|chunk: usize| {
            let (nodes, algorithm) = jobs[chunk];
            let config = ScenarioConfig {
                nodes,
                algorithm,
                trace_seed: base.trace_seed ^ nodes as u64,
                ..*base
            };
            // SAFETY: chunk indices are unique per execute() run, so each
            // result slot is written by exactly one worker.
            let slot = unsafe { slots.slot(chunk) };
            *slot = Some(run_scenario(&config));
        });
    }
    // Assemble by moving each result out of its slot — run results carry
    // their ratio samples, so cloning them per size point would double the
    // sweep's peak memory for nothing.
    let mut results = results.into_iter();
    let mut points = Vec::with_capacity(sizes.len());
    for &nodes in sizes {
        let mut fast = None;
        let mut normal = None;
        for algorithm in Algorithm::ALL {
            let result = results
                .next()
                .flatten()
                .expect("one result per (size, algorithm) job");
            debug_assert_eq!(result.nodes, nodes);
            match algorithm {
                Algorithm::Fast => fast = Some(result),
                Algorithm::Normal => normal = Some(result),
            }
        }
        points.push(SweepPoint {
            nodes,
            comparison: ComparisonResult {
                fast: fast.expect("fast run present"),
                normal: normal.expect("normal run present"),
            },
        });
    }
    points
}

/// The network sizes the paper sweeps in Figures 6–8 and 10–12.
pub const PAPER_SIZES: [usize; 6] = [100, 500, 1_000, 2_000, 4_000, 8_000];

/// A reduced size sweep for quick runs, preserving the ordering of scales.
pub const QUICK_SIZES: [usize; 3] = [100, 250, 500];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Environment;

    #[test]
    fn sweep_orders_results_by_size_and_pairs_algorithms() {
        let base = ScenarioConfig::quick(50, Algorithm::Fast, Environment::Static);
        let points = sweep_sizes(&[50, 90], &base);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].nodes, 50);
        assert_eq!(points[1].nodes, 90);
        for p in &points {
            assert_eq!(p.comparison.fast.algorithm, Algorithm::Fast);
            assert_eq!(p.comparison.normal.algorithm, Algorithm::Normal);
            assert_eq!(p.comparison.fast.nodes, p.nodes);
            assert!(p.comparison.fast.report.switch_completed_secs.is_some());
            assert!(p.comparison.normal.report.switch_completed_secs.is_some());
            assert!(p.comparison.reduction_ratio().is_finite());
        }
    }

    #[test]
    fn sweep_is_deterministic_across_pool_sizes() {
        let base = ScenarioConfig::quick(60, Algorithm::Fast, Environment::Static);
        let a = sweep_sizes_on(&WorkerPool::new(1), &[60], &base);
        let b = sweep_sizes_on(&WorkerPool::new(4), &[60], &base);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_reuses_a_shared_pool() {
        let pool = WorkerPool::new(2);
        let base = ScenarioConfig::quick(50, Algorithm::Fast, Environment::Static);
        let first = sweep_sizes_on(&pool, &[50], &base);
        let second = sweep_sizes_on(&pool, &[50], &base);
        assert_eq!(first, second, "pool reuse must not change results");
    }

    #[test]
    fn size_constants_are_sane() {
        assert_eq!(PAPER_SIZES.len(), 6);
        assert!(PAPER_SIZES.windows(2).all(|w| w[0] < w[1]));
        assert!(QUICK_SIZES.windows(2).all(|w| w[0] < w[1]));
    }
}
