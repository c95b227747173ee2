//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! figures [--quick] [--sizes N,N,...] [--track-nodes N] [--out DIR] [--csv] [static|dynamic|all]
//! ```
//!
//! * `--quick`  — reduced network sizes (fast sanity run; trends preserved)
//! * `--sizes`  — explicit comma-separated network sizes for the sweeps
//! * `--track-nodes` — network size for the ratio-track figures (5 / 9)
//! * `--out DIR` — additionally write one file per figure into `DIR`
//! * `--csv`    — write CSV instead of aligned text files
//! * `static` / `dynamic` / `all` — which environments to run (default `all`)

use fss_experiments::figures::{generate, FigureScale, FigureSet};
use fss_experiments::{Environment, ScenarioConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: figures [--quick] [--sizes N,N,...] [--track-nodes N] \
                     [--out DIR] [--csv] [static|dynamic|all]";

/// What the command line asks for.
enum Command {
    /// Print the usage line and exit successfully.
    Help,
    /// Generate the figures.
    Run(Options),
}

struct Options {
    scale: FigureScale,
    /// The sweep sizes, the scale's own unless `--sizes` names them.
    sizes: Vec<usize>,
    /// The ratio-track size, the scale's own unless `--track-nodes` names it.
    track_nodes: usize,
    out_dir: Option<PathBuf>,
    csv: bool,
    environments: Vec<Environment>,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut scale = FigureScale::Paper;
    let mut sizes = None;
    let mut track_nodes = None;
    let mut out_dir = None;
    let mut csv = false;
    let mut environments = vec![Environment::Static, Environment::Dynamic];
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => scale = FigureScale::Quick,
            "--csv" => csv = true,
            "--sizes" => {
                let list = iter
                    .next()
                    .ok_or("--sizes requires a comma-separated list")?;
                let list: Result<Vec<usize>, _> =
                    list.split(',').map(|s| s.trim().parse::<usize>()).collect();
                sizes = Some(list.map_err(|e| format!("bad --sizes value: {e}"))?);
            }
            "--track-nodes" => {
                let value = iter.next().ok_or("--track-nodes requires a number")?;
                track_nodes = Some(
                    value
                        .parse()
                        .map_err(|e| format!("bad --track-nodes: {e}"))?,
                );
            }
            "--out" => {
                let dir = iter.next().ok_or("--out requires a directory")?;
                out_dir = Some(PathBuf::from(dir));
            }
            "static" => environments = vec![Environment::Static],
            "dynamic" => environments = vec![Environment::Dynamic],
            "all" => environments = vec![Environment::Static, Environment::Dynamic],
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    let sizes = sizes.unwrap_or_else(|| scale.sizes());
    let track_nodes = track_nodes.unwrap_or(scale.track_nodes());
    // Every size must make a valid scenario before any run starts.
    let requested = sizes.iter().map(|&n| ("--sizes", n));
    for (flag, nodes) in requested.chain([("--track-nodes", track_nodes)]) {
        for &environment in &environments {
            ScenarioConfig {
                nodes,
                ..scale.base_config(environment)
            }
            .validate()
            .map_err(|e| format!("bad {flag} value {nodes}: {e}\n{USAGE}"))?;
        }
    }
    Ok(Command::Run(Options {
        scale,
        sizes,
        track_nodes,
        out_dir,
        csv,
        environments,
    }))
}

fn emit(set: &FigureSet, options: &Options) -> std::io::Result<()> {
    for table in &set.tables {
        println!("{}", table.to_text());
        if let Some(dir) = &options.out_dir {
            std::fs::create_dir_all(dir)?;
            let slug: String = table
                .title()
                .chars()
                .take_while(|c| *c != ':')
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_lowercase();
            let extension = if options.csv { "csv" } else { "txt" };
            let path = dir.join(format!("{slug}_{}.{extension}", set.environment.name()));
            let contents = if options.csv {
                table.to_csv()
            } else {
                table.to_text()
            };
            std::fs::write(path, contents)?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Command::Run(options)) => options,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    for &environment in &options.environments {
        eprintln!(
            "running {} figures at {:?} scale...",
            environment.name(),
            match options.scale {
                FigureScale::Quick => "quick",
                FigureScale::Paper => "paper",
            }
        );
        let set = generate(
            environment,
            options.scale,
            &options.sizes,
            options.track_nodes,
        );
        if let Err(error) = emit(&set, &options) {
            eprintln!("failed to write figures: {error}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn help_lists_every_flag_and_unknown_arguments_fail() {
        for help in ["--help", "-h"] {
            assert!(matches!(parse(&[help]), Ok(Command::Help)), "{help}");
        }
        // Every argument the parser accepts is named in the usage line.
        let accepted: [&[&str]; 8] = [
            &["--quick"],
            &["--sizes", "60,100"],
            &["--track-nodes", "70"],
            &["--out", "figures-out"],
            &["--csv"],
            &["static"],
            &["dynamic"],
            &["all"],
        ];
        for args in accepted {
            assert!(matches!(parse(args), Ok(Command::Run(_))), "{args:?}");
            assert!(USAGE.contains(args[0]), "usage omits {}", args[0]);
        }
        let error = parse(&["--bogus"]).err().expect("unknown argument fails");
        assert!(
            error.contains("--bogus") && error.contains(USAGE),
            "{error}"
        );
    }

    fn run_options(args: &[&str]) -> Options {
        match parse(args) {
            Ok(Command::Run(options)) => options,
            _ => panic!("{args:?} should parse to a run"),
        }
    }

    #[test]
    fn unset_sizes_and_track_size_take_the_scale_defaults() {
        let options = run_options(&["--quick", "--track-nodes", "120"]);
        assert_eq!(options.track_nodes, 120);
        assert_eq!(options.sizes, FigureScale::Quick.sizes());
        let options = run_options(&["--sizes", "60,100"]);
        assert_eq!(options.sizes, vec![60, 100]);
        assert_eq!(options.track_nodes, FigureScale::Paper.track_nodes());
    }

    #[test]
    fn sizes_that_make_no_valid_scenario_are_rejected() {
        for args in [
            &["--quick", "--sizes", "3", "static"][..],
            &["--sizes", "60,5"],
            &["--quick", "--track-nodes", "3"],
        ] {
            let error = parse(args).err().expect("an invalid size fails");
            assert!(
                error.contains("minimum degree") && error.contains(USAGE),
                "{args:?}: {error}"
            );
        }
    }
}
