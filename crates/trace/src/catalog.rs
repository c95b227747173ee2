//! The 30-topology catalog.
//!
//! The paper evaluates on 30 crawl snapshots scaling from 100 to 10 000
//! nodes.  This module fixes 30 named `(size, seed)` pairs so every
//! experiment in the harness draws from the same reproducible population.
//! The sizes cover the exact set used in the figures
//! (`{100, 500, 1000, 2000, 4000, 8000}`) plus intermediate and boundary
//! sizes up to 10 000.

use crate::generator::{GeneratorConfig, TraceGenerator};
use crate::record::Trace;

/// A named entry of the catalog: enough information to regenerate one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Catalog name, e.g. `"clip2-synth-1000-a"`.
    pub name: String,
    /// Number of peers.
    pub nodes: usize,
    /// Generator seed.
    pub seed: u64,
}

impl TraceSpec {
    /// Materialises the trace for this spec.
    pub fn generate(&self) -> Trace {
        TraceGenerator::new(GeneratorConfig::sized(self.nodes, self.seed)).generate(&self.name)
    }
}

/// The fixed catalog of 30 synthetic crawl snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCatalog {
    specs: Vec<TraceSpec>,
}

impl TraceCatalog {
    /// The sizes swept by the paper's figures.
    pub const FIGURE_SIZES: [usize; 6] = [100, 500, 1_000, 2_000, 4_000, 8_000];

    /// Builds the standard 30-entry catalog (100–10 000 nodes).
    pub fn standard() -> Self {
        // Five replicas (a–e) of each figure size, plus 10 000-node entries,
        // gives 30 topologies spanning the paper's full range.
        let mut specs = Vec::with_capacity(30);
        let replicas = ["a", "b", "c", "d", "e"];
        let mut seed: u64 = 0x2001_0001;
        for &size in &[100usize, 500, 1_000, 2_000, 4_000, 8_000] {
            for (i, r) in replicas.iter().enumerate() {
                if specs.len() >= 28 {
                    break;
                }
                // Keep 2 slots for the 10 000-node snapshots.
                if i >= 5 {
                    break;
                }
                specs.push(TraceSpec {
                    name: format!("clip2-synth-{size}-{r}"),
                    nodes: size,
                    seed,
                });
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(size as u64);
            }
        }
        for r in ["a", "b"] {
            specs.push(TraceSpec {
                name: format!("clip2-synth-10000-{r}"),
                nodes: 10_000,
                seed,
            });
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(10_000);
        }
        debug_assert_eq!(specs.len(), 30);
        TraceCatalog { specs }
    }

    /// All specs, ordered by size then replica.
    pub fn specs(&self) -> &[TraceSpec] {
        &self.specs
    }

    /// Number of catalog entries.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the catalog has no entries (never for [`standard`](Self::standard)).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Looks an entry up by name.
    pub fn by_name(&self, name: &str) -> Option<&TraceSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// All entries with exactly `nodes` peers.
    pub fn by_size(&self, nodes: usize) -> Vec<&TraceSpec> {
        self.specs.iter().filter(|s| s.nodes == nodes).collect()
    }
}

impl Default for TraceCatalog {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn has_exactly_thirty_entries() {
        assert_eq!(TraceCatalog::standard().len(), 30);
        assert!(!TraceCatalog::standard().is_empty());
    }

    #[test]
    fn covers_the_paper_size_range() {
        let cat = TraceCatalog::standard();
        let sizes: HashSet<usize> = cat.specs().iter().map(|s| s.nodes).collect();
        assert!(sizes.contains(&100));
        assert!(sizes.contains(&10_000));
        for s in TraceCatalog::FIGURE_SIZES {
            assert!(sizes.contains(&s), "figure size {s} missing from catalog");
        }
    }

    #[test]
    fn names_and_seeds_are_unique() {
        let cat = TraceCatalog::standard();
        let names: HashSet<&str> = cat.specs().iter().map(|s| s.name.as_str()).collect();
        let seeds: HashSet<u64> = cat.specs().iter().map(|s| s.seed).collect();
        assert_eq!(names.len(), 30);
        assert_eq!(seeds.len(), 30);
    }

    #[test]
    fn lookup_by_name_and_size() {
        let cat = TraceCatalog::standard();
        let spec = cat.by_name("clip2-synth-1000-a").expect("catalog entry");
        assert_eq!(spec.nodes, 1_000);
        assert_eq!(cat.by_size(1_000).len(), 5);
        assert_eq!(cat.by_size(7_777).len(), 0);
    }

    #[test]
    fn specs_generate_correctly_sized_traces() {
        let cat = TraceCatalog::standard();
        let spec = cat.by_name("clip2-synth-100-b").unwrap();
        let trace = spec.generate();
        assert_eq!(trace.node_count(), 100);
        assert_eq!(trace.name, "clip2-synth-100-b");
        // Deterministic: regenerating gives the identical trace.
        assert_eq!(trace, spec.generate());
    }

    #[test]
    fn catalog_is_deterministic() {
        assert_eq!(TraceCatalog::standard(), TraceCatalog::standard());
        assert_eq!(TraceCatalog::default(), TraceCatalog::standard());
    }
}
