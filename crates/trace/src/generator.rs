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
//! Everything is driven by an explicit seed so the 30-topology catalog is
//! fully reproducible.

use crate::record::{NodeId, Trace, TraceRecord};
use crate::speed::AccessSpeed;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Configuration for [`TraceGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of peers to generate.
    pub nodes: usize,
    /// Edges added per arriving node (preferential attachment parameter).
    /// The resulting average degree is ≈ `2 * edges_per_node`.
    pub edges_per_node: usize,
    /// Median ping time in milliseconds (log-normal location).
    pub ping_median_ms: f64,
    /// Log-normal shape parameter (sigma of ln(ping)).
    pub ping_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            nodes: 1_000,
            // Gnutella crawls of the era showed an average degree well below
            // the M=5 the paper needs, hence the augmentation step; 1.7 keeps
            // the base graph sparse like the originals.
            edges_per_node: 2,
            ping_median_ms: 80.0,
            ping_sigma: 0.6,
            seed: 0xC11_222_001,
        }
    }
}

impl GeneratorConfig {
    /// Convenience constructor for a given size and seed with era defaults.
    pub fn sized(nodes: usize, seed: u64) -> Self {
        GeneratorConfig {
            nodes,
            seed,
            ..GeneratorConfig::default()
        }
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
    /// Panics if `nodes == 0` or `edges_per_node == 0`; both would produce a
    /// degenerate trace that the rest of the pipeline rejects anyway.
    pub fn new(config: GeneratorConfig) -> Self {
        assert!(config.nodes > 0, "trace must contain at least one node");
        assert!(config.edges_per_node > 0, "edges_per_node must be positive");
        TraceGenerator { config }
    }

    /// The configuration this generator was built with.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates the trace.
    pub fn generate(&self, name: impl Into<String>) -> Trace {
        let cfg = &self.config;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);

        let nodes: Vec<TraceRecord> = (0..cfg.nodes as NodeId)
            .map(|id| self.generate_record(id, &mut rng))
            .collect();
        let edges = self.generate_edges(&mut rng);

        Trace::new(name, nodes, edges).expect("generator produces structurally valid traces")
    }

    fn generate_record(&self, id: NodeId, rng: &mut SmallRng) -> TraceRecord {
        let cfg = &self.config;
        // Log-normal ping time: exp(N(ln median, sigma)).
        let z = standard_normal(rng);
        let ping_ms = (cfg.ping_median_ms.ln() + cfg.ping_sigma * z).exp();
        let speed = sample_speed(rng);
        // Deterministic pseudo-IP derived from the id: 10.x.y.z private space.
        let ip = Ipv4Addr::new(
            10,
            ((id >> 16) & 0xff) as u8,
            ((id >> 8) & 0xff) as u8,
            (id & 0xff) as u8,
        );
        TraceRecord {
            id,
            ip,
            host: format!("node-{id}.gnutella.invalid"),
            port: 6346,
            ping_ms: ping_ms.clamp(1.0, 3_000.0),
            speed_kbps: speed.kbps(),
        }
    }

    /// Preferential-attachment edge construction (Barabási–Albert style).
    fn generate_edges(&self, rng: &mut SmallRng) -> Vec<(NodeId, NodeId)> {
        let n = self.config.nodes;
        let m = self.config.edges_per_node;
        if n == 1 {
            return Vec::new();
        }

        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * m);
        // `targets` holds one entry per edge endpoint, so sampling uniformly
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
        edges
    }
}

/// Samples an access-speed class according to the era population shares.
fn sample_speed(rng: &mut SmallRng) -> AccessSpeed {
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for class in AccessSpeed::ALL {
        acc += class.population_share();
        if x < acc {
            return class;
        }
    }
    AccessSpeed::T3
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
        let avg = t.average_degree();
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
        let pings: Vec<f64> = t.nodes.iter().map(|n| n.ping_ms).collect();
        assert!(pings.iter().all(|&p| (1.0..=3_000.0).contains(&p)));
        let mean = pings.iter().sum::<f64>() / pings.len() as f64;
        assert!(
            mean > 40.0 && mean < 250.0,
            "mean ping {mean}ms implausible"
        );
    }

    #[test]
    fn speed_mix_matches_population_shares_roughly() {
        let t = gen(5_000, 9);
        let modems = t
            .nodes
            .iter()
            .filter(|n| n.speed_class() == AccessSpeed::Modem56k)
            .count() as f64
            / t.node_count() as f64;
        assert!(
            (modems - 0.35).abs() < 0.05,
            "modem share {modems} far from configured 0.35"
        );
    }

    #[test]
    fn single_node_trace_has_no_edges() {
        let t = gen(1, 1);
        assert_eq!(t.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = TraceGenerator::new(GeneratorConfig::sized(0, 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// Generated traces always validate and never contain self loops or
        /// duplicate edges, whatever the size/seed.
        #[test]
        fn prop_generated_traces_are_valid(n in 1usize..400, seed in 0u64..1_000) {
            let t = gen(n, seed);
            proptest::prop_assert_eq!(t.node_count(), n);
            let mut edges = t.edges.clone();
            edges.sort_unstable();
            edges.dedup();
            proptest::prop_assert_eq!(edges.len(), t.edge_count());
            proptest::prop_assert!(t.edges.iter().all(|(a, b)| a != b));
        }
    }
}
