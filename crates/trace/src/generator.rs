//! Synthetic Gnutella-2001-style trace generator.
//!
//! The generator reproduces the three properties of the clip2 crawls that the
//! paper's evaluation actually depends on:
//!
//! 1. **Scale** — any node count between a handful and tens of thousands.
//! 2. **A sparse, heavily skewed base topology** — Gnutella circa 2001 had a
//!    power-law degree distribution with a small average degree ("their
//!    average node degree is too small for media streaming", §5.1).  We use
//!    preferential attachment with `m` edges per arriving node, which yields
//!    a power-law tail and an average degree of roughly `2 m`.
//! 3. **Per-node latency** — ping times follow a log-normal distribution, the
//!    standard model of measured Internet RTTs.
//!
//! Everything is driven by an explicit seed, so every topology the
//! experiments build is fully reproducible.

use crate::record::{NodeId, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Edges added per arriving node (preferential attachment parameter).  The
/// resulting average degree is ≈ `2 * EDGES_PER_NODE`: Gnutella crawls of
/// the era showed an average degree well below the `M = 5` the paper needs,
/// hence the overlay's augmentation step.
const EDGES_PER_NODE: usize = 2;
/// Median ping time in milliseconds (log-normal location).
const PING_MEDIAN_MS: f64 = 80.0;
/// Log-normal shape parameter (sigma of ln(ping)).
const PING_SIGMA: f64 = 0.6;

/// Configuration for [`TraceGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of peers to generate.
    pub nodes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GeneratorConfig {
    /// A trace of `nodes` peers drawn from `seed`.
    pub fn sized(nodes: usize, seed: u64) -> Self {
        GeneratorConfig { nodes, seed }
    }
}

/// Deterministic synthetic trace generator.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: GeneratorConfig,
}

impl TraceGenerator {
    /// Creates a generator for the given configuration.
    ///
    /// # Panics
    /// Panics if `nodes == 0`: an empty trace is degenerate, and the rest
    /// of the pipeline rejects it anyway.
    pub fn new(config: GeneratorConfig) -> Self {
        assert!(config.nodes > 0, "trace must contain at least one node");
        TraceGenerator { config }
    }

    /// Generates the trace.
    pub fn generate(&self, name: impl Into<String>) -> Trace {
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let ping_ms: Vec<f64> = (0..self.config.nodes)
            .map(|_| {
                // Log-normal ping time: exp(N(ln median, sigma)).
                let z = standard_normal(&mut rng);
                let ping_ms = (PING_MEDIAN_MS.ln() + PING_SIGMA * z).exp();
                // The crawls' access-speed class was drawn here.  Nothing
                // reads it, but the draw stays so every generated topology
                // keeps its RNG stream, and with it every pinned digest.
                let _speed: f64 = rng.gen();
                ping_ms.clamp(1.0, 3_000.0)
            })
            .collect();
        let edges = self.generate_edges(&mut rng);
        Trace {
            name: name.into(),
            ping_ms,
            edges,
        }
    }

    /// Preferential-attachment edge construction (Barabási–Albert style),
    /// returned as sorted `(smaller, larger)` pairs.
    fn generate_edges(&self, rng: &mut SmallRng) -> Vec<(NodeId, NodeId)> {
        let n = self.config.nodes;
        let m = EDGES_PER_NODE;
        if n == 1 {
            return Vec::new();
        }
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * m);
        // `endpoint_pool` holds one entry per edge endpoint, so sampling uniformly
        // from it is sampling proportionally to degree.
        let mut endpoint_pool: Vec<NodeId> = Vec::with_capacity(2 * n * m);

        // Seed clique over the first min(m+1, n) nodes so early arrivals have
        // someone to attach to.
        let seed_size = (m + 1).min(n);
        for a in 0..seed_size {
            for b in (a + 1)..seed_size {
                edges.push((a as NodeId, b as NodeId));
                endpoint_pool.push(a as NodeId);
                endpoint_pool.push(b as NodeId);
            }
        }

        for new in seed_size..n {
            let new_id = new as NodeId;
            let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
            let mut attempts = 0;
            while chosen.len() < m.min(new) && attempts < 50 * m {
                attempts += 1;
                let target = if endpoint_pool.is_empty() {
                    rng.gen_range(0..new) as NodeId
                } else {
                    endpoint_pool[rng.gen_range(0..endpoint_pool.len())]
                };
                if target != new_id && !chosen.contains(&target) {
                    chosen.push(target);
                }
            }
            for target in chosen {
                edges.push((target.min(new_id), target.max(new_id)));
                endpoint_pool.push(target);
                endpoint_pool.push(new_id);
            }
        }
        // Each pair is unique by construction: the seed clique's pairs are
        // distinct, and every later pair holds its arriving node as `max`
        // with distinct targets.  Sorting fixes the overlay's adjacency order.
        edges.sort_unstable();
        edges
    }
}

/// Box–Muller standard normal sample.
fn standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(nodes: usize, seed: u64) -> Trace {
        TraceGenerator::new(GeneratorConfig::sized(nodes, seed)).generate("test")
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(gen(500, 7), gen(500, 7));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(gen(500, 7), gen(500, 8));
    }

    #[test]
    fn node_count_matches_config() {
        for n in [1, 2, 10, 257] {
            assert_eq!(gen(n, 1).node_count(), n);
        }
    }

    #[test]
    fn average_degree_is_sparse_but_positive() {
        let t = gen(2_000, 3);
        let avg = 2.0 * t.edges.len() as f64 / t.node_count() as f64;
        assert!(avg > 1.0, "average degree {avg} too small");
        assert!(avg < 6.0, "average degree {avg} not sparse like the crawls");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let t = gen(3_000, 11);
        let mut deg = t.degrees();
        deg.sort_unstable_by(|a, b| b.cmp(a));
        let max = deg[0];
        let median = deg[deg.len() / 2];
        // Power-law-ish: the hub degree dwarfs the median degree.
        assert!(
            max >= 8 * median.max(1),
            "max degree {max} vs median {median} not heavy-tailed"
        );
    }

    #[test]
    fn ping_times_are_positive_and_spread() {
        let t = gen(1_000, 5);
        let pings = &t.ping_ms;
        assert!(pings.iter().all(|&p| (1.0..=3_000.0).contains(&p)));
        let mean = pings.iter().sum::<f64>() / pings.len() as f64;
        assert!(
            mean > 40.0 && mean < 250.0,
            "mean ping {mean}ms implausible"
        );
    }

    #[test]
    fn single_node_trace_has_no_edges() {
        let t = gen(1, 1);
        assert!(t.edges.is_empty());
    }

    /// The generator's RNG stream is pinned: an FxHash over every ping's
    /// bits, then every edge's endpoints.  Every downstream digest (the
    /// golden reports, the figures text, perfbench) starts from this stream.
    #[test]
    fn generated_stream_is_pinned() {
        use std::hash::Hasher;
        let t = gen(1_000, 7);
        let mut digest = fss_sim::hasher::FxHasher64::default();
        for ping in &t.ping_ms {
            digest.write_u64(ping.to_bits());
        }
        for &(a, b) in &t.edges {
            digest.write_u32(a);
            digest.write_u32(b);
        }
        assert_eq!(t.edges.len(), 1_997);
        assert_eq!(digest.finish(), 23_087_918_819_099_262);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = TraceGenerator::new(GeneratorConfig::sized(0, 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// Generated edges are always sorted, duplicate-free, in range and
        /// free of self loops, whatever the size/seed.
        #[test]
        fn prop_generated_traces_are_valid(n in 1usize..400, seed in 0u64..1_000) {
            let t = gen(n, seed);
            proptest::prop_assert_eq!(t.node_count(), n);
            let mut edges = t.edges.clone();
            edges.sort_unstable();
            edges.dedup();
            proptest::prop_assert_eq!(&edges, &t.edges);
            proptest::prop_assert!(t.edges.iter().all(|&(a, b)| a < b && (b as usize) < n));
        }
    }
}
