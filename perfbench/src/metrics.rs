//! Metric registry and the run outcome printed as the last line of output.
//!
//! The names and units here are the ones `BENCHMARK.json` lists; the smoke
//! test checks the two agree.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric name with its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by the untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("run_s", "s"),
    m("peer_periods_per_s", "1/s"),
    m("period_ms.p50", "ms"),
    m("period_ms.p90", "ms"),
    m("peak_rss_mb", "MB"),
    m("bytes_per_peer", "B"),
];

/// Per-layer metrics, printed by the traced run.  A layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("trace.overhead", "ratio"),
    m("trace.generate_ms", "ms"),
    m("overlay.build_ms", "ms"),
    m("gossip.warmup_ms", "ms"),
    m("gossip.period_ms", "ms"),
    m("gossip.serial_ms", "ms"),
    m("gossip.requests", "1/period"),
    m("gossip.grants", "1/period"),
    m("gossip.grant_ratio", "ratio"),
    m("gossip.control_bits_per_peer", "bit/period"),
    m("gossip.switch_ms", "ms"),
    m("gossip.switch_periods", "periods"),
    m("core.calls", "1/period"),
    m("core.self_ms", "ms/period"),
    m("core.ns_per_call.p50", "ns"),
    m("core.candidates_per_call", "count"),
    m("core.suppliers_per_candidate", "count"),
    m("core.requests_per_call", "count"),
    m("core.switch_share", "ratio"),
    m("runtime.dispatches", "1/period"),
    m("runtime.chunks_per_dispatch", "count"),
    m("runtime.dispatch_ms", "ms"),
    m("runtime.chunk_busy_ms", "ms"),
    m("runtime.efficiency", "ratio"),
    m("runtime.imbalance", "ratio"),
    m("net.data_sent", "1/period"),
    m("net.delivered_ratio", "ratio"),
    m("net.lost", "1/period"),
    m("net.stale", "1/period"),
    m("net.requests_blinded", "1/period"),
    m("net.requests_lost", "1/period"),
    m("net.max_in_flight", "count"),
    m("directory.zaps", "1/period"),
    m("directory.admitted", "count"),
    m("directory.deferred", "count"),
    m("directory.max_queue_depth", "count"),
    m("metrics.report_ms", "ms"),
    m("metrics.mem_meter_ms", "ms"),
];

/// The metrics a run of the given kind must print.
pub fn registry(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn lookup(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .copied()
        .find(|metric| metric.name == name)
}

/// What a run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (the workload defines what one is).
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result: provenance, digest,
    /// sample counts, span summary.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    ///
    /// # Panics
    /// Panics if `name` is not a registered metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(lookup(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The metric lines (`name value unit`) of the given run kind.
    pub fn metric_lines(&self, trace: bool) -> Vec<String> {
        registry(trace)
            .iter()
            .filter_map(|metric| {
                self.values
                    .get(metric.name)
                    .map(|value| format!("metric {} {} {}", metric.name, value, metric.unit))
            })
            .collect()
    }

    /// The one-line JSON result, or why it cannot be printed: every metric
    /// of the run kind must be present and finite, and `attempted` at
    /// least 1.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, metric) in registry(trace).iter().enumerate() {
            let value = *self
                .values
                .get(metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", metric.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, value, metric.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for (i, name) in all.iter().enumerate() {
            assert!(!all[..i].contains(name), "{name} registered twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn json_needs_every_metric() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        assert!(outcome.to_json(false).is_err());
        for metric in END_TO_END {
            outcome.set(metric.name, 1.5);
        }
        let json = outcome.to_json(false).unwrap();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        outcome.set("run_s", f64::NAN);
        assert!(outcome.to_json(false).is_err());
    }
}
