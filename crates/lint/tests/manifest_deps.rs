//! Every dependency a workspace manifest declares must be used.
//!
//! For the root manifest and each `crates/*/Cargo.toml`, every key under
//! `[dependencies]` and `[dev-dependencies]` (hyphens read as underscores)
//! must appear in that crate's `src`, `tests`, `benches` or `examples` as
//! `name::`, `use name` or `name!`.  Sources are read through the lint
//! lexer's masked text, so a mention in a comment or a string does not
//! count.

use std::fs;
use std::path::{Path, PathBuf};

/// The keys of a manifest's `[dependencies]` and `[dev-dependencies]`.
fn declared_dependencies(manifest: &str) -> Vec<String> {
    let mut in_table = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = matches!(line, "[dependencies]" | "[dev-dependencies]");
        } else if in_table && !line.is_empty() && !line.starts_with('#') {
            names.push(
                line.split(['=', '.'])
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string(),
            );
        }
    }
    names
}

/// The masked text of every `.rs` file under `dir`, recursively.
fn masked_sources(dir: &Path, out: &mut Vec<String>) {
    for path in fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
    {
        if path.is_dir() {
            masked_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source = fs::read_to_string(&path).expect("workspace sources are UTF-8");
            out.push(String::from_utf8_lossy(&fss_lint::lexer::lex(&source).masked).into_owned());
        }
    }
}

/// True when `code` names `name` as `name::`, `use name` or `name!`.
fn mentions(code: &str, name: &str) -> bool {
    let ident = |b: Option<u8>| b.is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_');
    code.match_indices(name).any(|(at, _)| {
        let rest = &code[at + name.len()..];
        let after_use = code[..at]
            .trim_end()
            .strip_suffix("use")
            .is_some_and(|k| !ident(k.bytes().last()));
        !ident(code[..at].bytes().last())
            && (rest.starts_with("::")
                || rest.starts_with('!')
                || (after_use && !ident(rest.bytes().next())))
    })
}

#[test]
fn every_declared_dependency_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crates.push(root);
    crates.sort();
    let mut unused = Vec::new();
    for dir in &crates {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("manifest is readable");
        let mut code = Vec::new();
        for sub in ["src", "tests", "benches", "examples"] {
            masked_sources(&dir.join(sub), &mut code);
        }
        for dep in declared_dependencies(&manifest) {
            let name = dep.replace('-', "_");
            if !code.iter().any(|c| mentions(c, &name)) {
                unused.push(format!("{} → {dep}", dir.display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "unused manifest dependencies:\n{}",
        unused.join("\n")
    );
}

#[test]
fn the_guard_reads_both_tables_and_only_code() {
    let manifest = "[package]\nname = \"x\"\n[dependencies]\n# note\nfss-core.workspace = true\n\
                    rand = { path = \"r\" }\n[dev-dependencies]\nproptest.workspace = true\n\
                    [[bench]]\nname = \"b\"\n";
    assert_eq!(
        declared_dependencies(manifest),
        ["fss-core", "rand", "proptest"]
    );
    let masked =
        |src: &str| String::from_utf8_lossy(&fss_lint::lexer::lex(src).masked).into_owned();
    for used in ["rand::random()", "use rand;", "use rand::Rng;", "rand! {}"] {
        assert!(mentions(&masked(used), "rand"), "{used}");
    }
    for unused in [
        "// rand::random()",
        "\"rand::x\"",
        "my_rand::f()",
        "use random;",
        "reuse rand;",
    ] {
        assert!(!mentions(&masked(unused), "rand"), "{unused}");
    }
}
