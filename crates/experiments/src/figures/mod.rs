//! Regeneration of every evaluation figure of the paper.
//!
//! The paper's evaluation contains eight figures:
//!
//! | Figure | Content | Environment |
//! |--------|---------|-------------|
//! | 5  | ratio tracks (undelivered S1 / delivered S2), 1000 nodes | static |
//! | 6  | avg finishing time of S1 and preparing time of S2 vs size | static |
//! | 7  | avg switch time and reduction ratio vs size | static |
//! | 8  | communication overhead vs size | static |
//! | 9  | ratio tracks, 1000 nodes | dynamic |
//! | 10 | finishing/preparing times vs size | dynamic |
//! | 11 | switch time and reduction ratio vs size | dynamic |
//! | 12 | communication overhead vs size | dynamic |
//!
//! [`tracks`] produces Figures 5 and 9 (per-second series) and [`sweeps`]
//! produces Figures 6–8 and 10–12 (per-size tables) from a single size sweep
//! per environment.  [`generate`] runs everything for one environment.

pub mod sweeps;
pub mod tracks;

use crate::runner::run_comparison;
use crate::scenario::{Algorithm, Environment, ScenarioConfig};
use crate::sweep::{sweep_sizes, SweepPoint, PAPER_SIZES, QUICK_SIZES};
use fss_metrics::Table;

/// How big the regenerated figures should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureScale {
    /// Reduced sizes and warm-up: minutes of CPU, preserves every trend.
    Quick,
    /// The paper's sizes (100–8000 nodes, 1000-node ratio tracks).
    Paper,
}

impl FigureScale {
    /// The network sizes swept at this scale.
    pub fn sizes(&self) -> Vec<usize> {
        match self {
            FigureScale::Quick => QUICK_SIZES.to_vec(),
            FigureScale::Paper => PAPER_SIZES.to_vec(),
        }
    }

    /// The network size used for the ratio tracks (Figures 5 and 9).
    pub fn track_nodes(&self) -> usize {
        match self {
            FigureScale::Quick => 250,
            FigureScale::Paper => 1_000,
        }
    }

    /// The scenario template used at this scale.
    pub fn base_config(&self, environment: Environment) -> ScenarioConfig {
        match self {
            FigureScale::Quick => ScenarioConfig::quick(100, Algorithm::Fast, environment),
            FigureScale::Paper => ScenarioConfig::paper(100, Algorithm::Fast, environment),
        }
    }
}

/// All regenerated tables for one environment, in figure order.
#[derive(Debug, Clone)]
pub struct FigureSet {
    /// The environment the figures describe.
    pub environment: Environment,
    /// The per-size sweep behind the per-size figures.
    pub points: Vec<SweepPoint>,
    /// The tables, in the paper's figure order for this environment.
    pub tables: Vec<Table>,
}

/// Regenerates every figure of one environment (Figures 5–8 for static,
/// 9–12 for dynamic) at `scale`, sweeping `sizes` and tracking ratios at
/// `track_nodes` (the scale's own values are [`FigureScale::sizes`] and
/// [`FigureScale::track_nodes`]).
pub fn generate(
    environment: Environment,
    scale: FigureScale,
    sizes: &[usize],
    track_nodes: usize,
) -> FigureSet {
    let base = scale.base_config(environment);

    // Ratio-track figure (5 / 9).
    let track_config = ScenarioConfig {
        nodes: track_nodes,
        ..base
    };
    let track_cmp = run_comparison(&track_config);
    let track_table = tracks::ratio_track_table(environment, &track_cmp);

    // Size-sweep figures (6–8 / 10–12).
    let points = sweep_sizes(sizes, &base);
    let finishing = sweeps::finishing_preparing_table(environment, &points);
    let switch = sweeps::switch_time_table(environment, &points);
    let overhead = sweeps::overhead_table(environment, &points);

    FigureSet {
        environment,
        points,
        tables: vec![track_table, finishing, switch, overhead],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_expose_sensible_sizes() {
        assert_eq!(FigureScale::Paper.sizes(), PAPER_SIZES.to_vec());
        assert_eq!(FigureScale::Paper.track_nodes(), 1_000);
        assert!(FigureScale::Quick.sizes().len() >= 3);
        assert!(FigureScale::Quick.track_nodes() <= 500);
        let base = FigureScale::Quick.base_config(Environment::Dynamic);
        assert_eq!(base.environment, Environment::Dynamic);
    }

    #[test]
    fn generate_produces_four_tables_per_environment() {
        // Tiny ad-hoc scale to keep the test fast: reuse Quick but trim the
        // sweep by calling the pieces directly.
        let base = ScenarioConfig::quick(60, Algorithm::Fast, Environment::Static);
        let points = sweep_sizes(&[60, 90], &base);
        assert_eq!(points.len(), 2);
        let t6 = sweeps::finishing_preparing_table(Environment::Static, &points);
        let t7 = sweeps::switch_time_table(Environment::Static, &points);
        let t8 = sweeps::overhead_table(Environment::Static, &points);
        assert_eq!(t6.len(), 2);
        assert_eq!(t7.len(), 2);
        assert_eq!(t8.len(), 2);
        assert!(t6.title().contains("Figure 6"));
        assert!(t7.title().contains("Figure 7"));
        assert!(t8.title().contains("Figure 8"));
    }

    /// Digest of what `figures --quick` prints for both environments.
    const QUICK_FIGURES_DIGEST: u64 = 12839476650087069679;

    /// The paper reproduction's printed output is pinned: every table of
    /// both environments at the quick scale, rendered as the `figures`
    /// binary prints it (each table's text followed by a newline).
    #[test]
    fn quick_figures_print_the_pinned_text() {
        use std::hash::Hasher;
        let mut text = String::new();
        for environment in [Environment::Static, Environment::Dynamic] {
            let scale = FigureScale::Quick;
            let set = generate(environment, scale, &scale.sizes(), scale.track_nodes());
            for table in &set.tables {
                text.push_str(&table.to_text());
                text.push('\n');
            }
        }
        let mut digest = fss_sim::hasher::FxHasher64::default();
        digest.write(text.as_bytes());
        assert_eq!(
            digest.finish(),
            QUICK_FIGURES_DIGEST,
            "the quick figures drifted from the pinned text:\n{text}"
        );
    }
}
