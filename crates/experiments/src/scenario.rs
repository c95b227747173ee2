//! Scenario configuration.

use fss_core::{FastSwitchScheduler, NormalSwitchScheduler};
use fss_gossip::{GossipConfig, SegmentScheduler};
use fss_overlay::NetworkConfig;

/// Which switch algorithm a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's Fast Switch Algorithm.
    Fast,
    /// The Normal Switch baseline.
    Normal,
}

impl Algorithm {
    /// Both algorithms, in the order they are reported.
    pub const ALL: [Algorithm; 2] = [Algorithm::Normal, Algorithm::Fast];

    /// Short name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Fast => "fast",
            Algorithm::Normal => "normal",
        }
    }

    /// Instantiates the scheduler.
    pub fn scheduler(&self) -> Box<dyn SegmentScheduler> {
        match self {
            Algorithm::Fast => Box::new(FastSwitchScheduler::new()),
            Algorithm::Normal => Box::new(NormalSwitchScheduler::new()),
        }
    }
}

/// Static or dynamic (churned) network environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// No membership changes (§5.3).
    Static,
    /// 5 % of peers leave and 5 % join per scheduling period (§5.4).
    Dynamic,
}

impl Environment {
    /// Short name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            Environment::Static => "static",
            Environment::Dynamic => "dynamic",
        }
    }
}

/// Full description of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// The switch algorithm under test.
    pub algorithm: Algorithm,
    /// Static or dynamic environment.
    pub environment: Environment,
    /// Seed of the synthetic crawl trace.
    pub trace_seed: u64,
    /// Seed for overlay augmentation, bandwidth assignment and churn.
    pub run_seed: u64,
    /// Minimum neighbour count `M` (paper: 5).
    pub min_degree: usize,
    /// Scheduling periods executed before the switch ("run for a sufficient
    /// period of time to enter its stable phase").
    pub warmup_periods: u64,
    /// Maximum periods simulated after the switch before giving up.
    pub max_switch_periods: u64,
    /// Churn fractions for dynamic environments (leave, join).
    pub churn_fraction: f64,
    /// Optional message-level network model (latency / loss / jitter).
    /// `None` (the paper's implicit assumption) runs period-lockstep;
    /// `Some` switches the run to event-driven stepping — the ideal
    /// configuration is byte-identical to `None`.
    pub network: Option<NetworkConfig>,
    /// Protocol parameters.
    pub gossip: GossipConfig,
}

impl ScenarioConfig {
    /// The paper's configuration for a given size, algorithm and environment.
    pub fn paper(nodes: usize, algorithm: Algorithm, environment: Environment) -> Self {
        ScenarioConfig {
            nodes,
            algorithm,
            environment,
            trace_seed: 0x2001_0001 ^ nodes as u64,
            run_seed: 0x5EED_0001,
            min_degree: 5,
            warmup_periods: 40,
            max_switch_periods: 400,
            churn_fraction: 0.05,
            network: None,
            gossip: GossipConfig::paper_default(),
        }
    }

    /// A reduced configuration for quick tests and micro-benchmarks.
    pub fn quick(nodes: usize, algorithm: Algorithm, environment: Environment) -> Self {
        ScenarioConfig {
            warmup_periods: 20,
            max_switch_periods: 200,
            ..Self::paper(nodes, algorithm, environment)
        }
    }

    /// The same scenario with a different algorithm (identical workload).
    pub fn with_algorithm(&self, algorithm: Algorithm) -> Self {
        ScenarioConfig { algorithm, ..*self }
    }

    /// Validates the scenario.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes <= self.min_degree {
            return Err(format!(
                "{} nodes cannot sustain a minimum degree of {}",
                self.nodes, self.min_degree
            ));
        }
        if self.warmup_periods == 0 {
            return Err("warmup_periods must be positive".into());
        }
        if !(0.0..=0.5).contains(&self.churn_fraction) {
            return Err(format!(
                "churn_fraction {} outside the sensible range [0, 0.5]",
                self.churn_fraction
            ));
        }
        if let Some(network) = self.network {
            network.validate(self.gossip.tau_secs)?;
        }
        self.gossip.validate().map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_5_1() {
        let c = ScenarioConfig::paper(1_000, Algorithm::Fast, Environment::Static);
        assert_eq!(c.min_degree, 5);
        assert_eq!(c.churn_fraction, 0.05);
        assert_eq!(c.gossip.play_rate, 10.0);
        assert_eq!(c.gossip.new_source_qs, 50);
        c.validate().unwrap();
    }

    #[test]
    fn algorithm_and_environment_names() {
        assert_eq!(Algorithm::Fast.name(), "fast");
        assert_eq!(Algorithm::Normal.name(), "normal");
        assert_eq!(Environment::Static.name(), "static");
        assert_eq!(Environment::Dynamic.name(), "dynamic");
        assert_eq!(Algorithm::Fast.scheduler().name(), "fast-switch");
        assert_eq!(Algorithm::Normal.scheduler().name(), "normal-switch");
        assert_eq!(Algorithm::ALL.len(), 2);
    }

    #[test]
    fn with_algorithm_keeps_the_workload() {
        let a = ScenarioConfig::paper(500, Algorithm::Normal, Environment::Dynamic);
        let b = a.with_algorithm(Algorithm::Fast);
        assert_eq!(a.trace_seed, b.trace_seed);
        assert_eq!(a.run_seed, b.run_seed);
        assert_eq!(b.algorithm, Algorithm::Fast);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = ScenarioConfig::paper(4, Algorithm::Fast, Environment::Static);
        assert!(c.validate().is_err());
        c = ScenarioConfig::paper(100, Algorithm::Fast, Environment::Static);
        c.warmup_periods = 0;
        assert!(c.validate().is_err());
        c = ScenarioConfig::paper(100, Algorithm::Fast, Environment::Static);
        c.churn_fraction = 0.9;
        assert!(c.validate().is_err());
        c = ScenarioConfig::paper(100, Algorithm::Fast, Environment::Static);
        c.gossip.buffer_capacity = 0;
        assert!(c.validate().is_err());
    }

    /// A period that rounds below the event network's 1 ms clock is a
    /// validation error once a network is installed, not a panic inside
    /// `run_scenario`; lockstep keeps accepting it.
    #[test]
    fn sub_millisecond_period_is_rejected_once_a_network_is_installed() {
        let mut c = ScenarioConfig::quick(100, Algorithm::Fast, Environment::Static);
        c.gossip.tau_secs = 0.0004;
        c.validate().unwrap();
        c.network = Some(NetworkConfig::lossy(0.01, 1));
        let err = c.validate().unwrap_err();
        assert!(err.contains("at least 1 ms"), "{err}");
    }

    #[test]
    fn quick_config_is_smaller_but_valid() {
        let q = ScenarioConfig::quick(100, Algorithm::Fast, Environment::Static);
        let p = ScenarioConfig::paper(100, Algorithm::Fast, Environment::Static);
        assert!(q.warmup_periods < p.warmup_periods);
        q.validate().unwrap();
    }
}
