//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <steady_100k|zap_event> --seed <n>
//!           --seconds <n> --trace <0|1> [--scale full|toy] [--rev <id>]
//! ```
//!
//! Prints provenance, the report digest, sample counts and one
//! `metric <name> <value> <unit>` line per metric, then, as the last line,
//! the JSON result `{"correct", "attempted", "failed", "metrics"}`.  Exits
//! with 2 on bad arguments and 1 when no result can be printed.

use perfbench::{host, RunConfig, Scale, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    config: RunConfig,
    rev: String,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    let mut rev = "unknown".to_string();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "toy" => Scale::Toy,
                    _ => return Err(format!("--scale takes full or toy, not {value}")),
                }
            }
            "--rev" => rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        config: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale,
        },
        rev,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let config = &args.config;
    println!("{}", host::describe(&args.rev));
    println!(
        "workload: {} seed={} seconds={} trace={} scale={:?}",
        args.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace),
        config.scale
    );
    let outcome = args.workload.run(config);
    for line in &outcome.notes {
        println!("{line}");
    }
    println!(
        "ops={} ops_failed={} correct={}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    for line in outcome.metric_lines(config.trace) {
        println!("{line}");
    }
    match outcome.to_json(config.trace) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
