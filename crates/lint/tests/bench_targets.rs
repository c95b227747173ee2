//! Every benchmark target runs somewhere.
//!
//! Each `crates/bench/benches/*.rs` must have a `[[bench]]` entry in
//! `crates/bench/Cargo.toml`, and each `[[bench]]` name must occur as
//! `--bench <name>` in `.github/workflows/ci.yml`.  A target that no CI
//! step runs times code nobody looks at: run it in CI or delete it.

use std::fs;
use std::path::Path;

/// The `name` of every `[[bench]]` table in `manifest`.
fn bench_names(manifest: &str) -> Vec<String> {
    let mut in_bench = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if let Some(value) = line.strip_prefix("name").filter(|_| in_bench) {
            let value = value.trim_start().trim_start_matches('=').trim();
            names.push(value.trim_matches('"').to_string());
        }
    }
    names
}

/// True when `ci` runs `--bench name`, the name ending at whitespace or
/// the end of the file.
fn runs_bench(ci: &str, name: &str) -> bool {
    let flag = format!("--bench {name}");
    ci.match_indices(&flag).any(|(at, _)| {
        ci[at + flag.len()..]
            .chars()
            .next()
            .is_none_or(char::is_whitespace)
    })
}

#[test]
fn every_bench_target_is_declared_and_run_in_ci() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let manifest =
        fs::read_to_string(root.join("crates/bench/Cargo.toml")).expect("manifest is readable");
    let ci = fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("CI is readable");
    let declared = bench_names(&manifest);
    let mut problems = Vec::new();
    for entry in fs::read_dir(root.join("crates/bench/benches")).expect("benches/ is readable") {
        let path = entry.expect("benches/ is listable").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let stem = path.file_stem().unwrap_or_default().to_string_lossy();
            if !declared.iter().any(|name| *name == stem) {
                problems.push(format!("benches/{stem}.rs has no [[bench]] entry"));
            }
        }
    }
    for name in &declared {
        if !runs_bench(&ci, name) {
            problems.push(format!(
                "[[bench]] {name} has no `--bench {name}` step in ci.yml"
            ));
        }
    }
    problems.sort();
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn the_guard_reads_bench_tables_and_whole_names() {
    let manifest = "[package]\nname = \"fss-bench\"\n[dev-dependencies]\nrand.workspace = true\n\
                    [[bench]]\nname = \"scheduling\"\nharness = false\n\n\
                    [[bench]]\nname=\"pool\"\n";
    assert_eq!(bench_names(manifest), ["scheduling", "pool"]);
    let ci = "run: cargo bench -p fss-bench --bench scheduling\n  run: x --bench pool_extra\n";
    assert!(runs_bench(ci, "scheduling"));
    assert!(!runs_bench(ci, "pool"), "a longer name does not count");
    assert!(!runs_bench(ci, "sched"));
}
