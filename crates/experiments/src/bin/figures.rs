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

use fss_experiments::figures::{generate, generate_custom, FigureScale, FigureSet};
use fss_experiments::Environment;
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
    sizes: Option<Vec<usize>>,
    track_nodes: Option<usize>,
    out_dir: Option<PathBuf>,
    csv: bool,
    environments: Vec<Environment>,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut options = Options {
        scale: FigureScale::Paper,
        sizes: None,
        track_nodes: None,
        out_dir: None,
        csv: false,
        environments: vec![Environment::Static, Environment::Dynamic],
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => options.scale = FigureScale::Quick,
            "--csv" => options.csv = true,
            "--sizes" => {
                let list = iter
                    .next()
                    .ok_or("--sizes requires a comma-separated list")?;
                let sizes: Result<Vec<usize>, _> =
                    list.split(',').map(|s| s.trim().parse::<usize>()).collect();
                options.sizes = Some(sizes.map_err(|e| format!("bad --sizes value: {e}"))?);
            }
            "--track-nodes" => {
                let value = iter.next().ok_or("--track-nodes requires a number")?;
                options.track_nodes = Some(
                    value
                        .parse()
                        .map_err(|e| format!("bad --track-nodes: {e}"))?,
                );
            }
            "--out" => {
                let dir = iter.next().ok_or("--out requires a directory")?;
                options.out_dir = Some(PathBuf::from(dir));
            }
            "static" => options.environments = vec![Environment::Static],
            "dynamic" => options.environments = vec![Environment::Dynamic],
            "all" => {
                options.environments = vec![Environment::Static, Environment::Dynamic];
            }
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(Command::Run(options))
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
        let set = match &options.sizes {
            Some(sizes) => generate_custom(
                environment,
                options.scale,
                sizes,
                options.track_nodes.unwrap_or(options.scale.track_nodes()),
            ),
            None => generate(environment, options.scale),
        };
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
}
