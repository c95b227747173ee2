//! Toy-scale smoke tests: every workload prints every metric with its unit,
//! traced and untraced runs agree on the report digest, and
//! `BENCHMARK.json` lists exactly the registered workloads and metrics.

use perfbench::metrics::{Outcome, END_TO_END, PER_LAYER};
use perfbench::{RunConfig, Scale, Workload};

fn toy(workload: Workload, trace: bool) -> Outcome {
    workload.run(&RunConfig {
        seed: 7,
        seconds: 1,
        trace,
        scale: Scale::Toy,
    })
}

fn digest_line(outcome: &Outcome) -> String {
    outcome
        .notes
        .iter()
        .find(|line| line.starts_with("digest: "))
        .expect("every run prints its report digest")
        .split_whitespace()
        .nth(1)
        .expect("digest value")
        .to_string()
}

#[test]
fn every_workload_prints_every_metric_and_digests_agree() {
    for workload in Workload::ALL {
        let plain = toy(workload, false);
        let traced = toy(workload, true);
        for (outcome, trace) in [(&plain, false), (&traced, true)] {
            let name = workload.name();
            assert!(
                outcome.correct,
                "{name} trace={trace}: {:#?}",
                outcome.notes
            );
            assert_eq!(outcome.failed, 0, "{name} trace={trace}");
            assert!(outcome.attempted > 0, "{name} trace={trace}");
            let json = outcome.to_json(trace).expect("every metric measured");
            let registry = if trace { PER_LAYER } else { END_TO_END };
            let lines = outcome.metric_lines(trace);
            assert_eq!(lines.len(), registry.len(), "{name} trace={trace}");
            for (line, metric) in lines.iter().zip(registry) {
                assert!(line.starts_with(&format!("metric {} ", metric.name)));
                assert!(line.ends_with(&format!(" {}", metric.unit)));
                assert!(json.contains(&format!("\"{}\": {{\"value\": ", metric.name)));
            }
            assert!(outcome.notes.iter().any(|l| l.starts_with("shape: ")));
        }
        assert_eq!(
            digest_line(&plain),
            digest_line(&traced),
            "{}",
            workload.name()
        );
        assert!(traced.values["trace.overhead"].is_finite());
    }
}

#[test]
fn benchmark_json_lists_the_registered_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
    for metric in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\"",
            metric.name, metric.unit
        );
        assert_eq!(json.matches(&entry).count(), 1, "{entry}");
    }
    let listed = json.matches("\"unit\": ").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    assert_eq!(json.matches("\"why\": ").count(), Workload::ALL.len());
}
