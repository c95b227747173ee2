//! Every public experiment has a caller.
//!
//! Each top-level `pub fn` and `pub const` in the non-test code of
//! `crates/experiments/src` must occur as an identifier in non-test code
//! under `crates/experiments/src`, `examples/`, `crates/bench/benches/` or
//! the root `src/`.  Its own declaration and `pub use` re-exports do not
//! count.  An experiment that no command, example or bench runs is code
//! that only its own tests call: delete it, and keep what its tests
//! checked as a test next to the code they exercise.  Sources are read
//! through the lint lexer's masked text, so a mention in a comment or a
//! string does not count.

use std::fs;
use std::path::{Path, PathBuf};

/// One identifier of masked code: its text, byte offset and brace depth.
struct Ident {
    text: String,
    start: usize,
    depth: usize,
}

/// The non-test code of one file, as identifiers.
struct Source {
    path: PathBuf,
    idents: Vec<Ident>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Blanks `code[at..]` up to and including the end of the item that starts
/// there: the first `;` outside braces, or the `}` that closes its body.
fn blank_item(code: &mut [u8], at: usize) {
    let mut depth = 0usize;
    let mut end = code.len();
    for (i, &b) in code.iter().enumerate().skip(at) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    end = i + 1;
                    break;
                }
            }
            b';' if depth == 0 => {
                end = i + 1;
                break;
            }
            _ => {}
        }
    }
    for b in &mut code[at..end] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

/// Offsets where `word` starts as a whole word in `code`.
fn word_offsets(code: &[u8], word: &str) -> Vec<usize> {
    let word = word.as_bytes();
    (0..code.len().saturating_sub(word.len() - 1))
        .filter(|&at| {
            code[at..].starts_with(word)
                && (at == 0 || !is_ident(code[at - 1]))
                && code.get(at + word.len()).is_none_or(|&b| !is_ident(b))
        })
        .collect()
}

/// The masked code of `source` without its `#[cfg(test)]` items and its
/// `pub use` statements, split into identifiers.
fn non_test_idents(source: &str) -> Vec<Ident> {
    let mut code = fss_lint::lexer::lex(source).masked;
    for at in word_offsets(&code, "#[cfg(test)]") {
        blank_item(&mut code, at);
    }
    for at in word_offsets(&code, "pub") {
        let rest = &code[at + 3..];
        let gap = rest.iter().take_while(|b| b.is_ascii_whitespace()).count();
        if rest[gap..].starts_with(b"use") && rest.get(gap + 3).is_some_and(|&b| !is_ident(b)) {
            blank_item(&mut code, at);
        }
    }
    let mut idents = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < code.len() {
        match code[i] {
            b'{' => depth += 1,
            b'}' => depth = depth.saturating_sub(1),
            b if is_ident(b) => {
                let start = i;
                while i < code.len() && is_ident(code[i]) {
                    i += 1;
                }
                idents.push(Ident {
                    text: String::from_utf8_lossy(&code[start..i]).into_owned(),
                    start,
                    depth,
                });
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    idents
}

/// The names and offsets of the top-level `pub fn` / `pub const` items.
fn declarations(idents: &[Ident]) -> Vec<(String, usize)> {
    let text = |i: usize| idents.get(i).map_or("", |id: &Ident| id.text.as_str());
    (0..idents.len())
        .filter(|&i| idents[i].depth == 0 && text(i) == "pub")
        .filter_map(|i| match (text(i + 1), text(i + 2)) {
            ("fn", _) => idents.get(i + 2),
            ("const", "fn") => idents.get(i + 3),
            ("const", _) => idents.get(i + 2),
            _ => None,
        })
        .map(|name| (name.text.clone(), name.start))
        .collect()
}

/// Every `.rs` file under `dir`, recursively, as non-test identifiers.
fn sources(dir: &Path, out: &mut Vec<Source>) {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source = fs::read_to_string(&path).expect("workspace sources are UTF-8");
            out.push(Source {
                idents: non_test_idents(&source),
                path,
            });
        }
    }
}

/// `name (file)` for every declaration in `declared` that no identifier in
/// `callers` names, except the declaration itself.
fn uncalled(declared: &[Source], callers: &[Source]) -> Vec<String> {
    let mut missing = Vec::new();
    for file in declared {
        for (name, at) in declarations(&file.idents) {
            let called = callers.iter().any(|caller| {
                caller
                    .idents
                    .iter()
                    .any(|i| i.text == name && (caller.path != file.path || i.start != at))
            });
            if !called {
                missing.push(format!("{name} ({})", file.path.display()));
            }
        }
    }
    missing
}

#[test]
fn every_public_experiment_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |dirs: &[&str]| {
        let mut out = Vec::new();
        for dir in dirs {
            sources(&root.join(dir), &mut out);
        }
        for source in &mut out {
            source.path = source
                .path
                .strip_prefix(&root)
                .unwrap_or(&source.path)
                .into();
        }
        out
    };
    let declared = read(&["crates/experiments/src"]);
    let callers = read(&[
        "crates/experiments/src",
        "examples",
        "crates/bench/benches",
        "src",
    ]);
    assert!(
        declared.iter().any(|s| !declarations(&s.idents).is_empty()),
        "no public experiment found: the scan is broken"
    );
    let missing = uncalled(&declared, &callers);
    assert!(
        missing.is_empty(),
        "public experiments nothing outside their tests calls:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_guard_reads_only_non_test_code() {
    let file = |path: &str, src: &str| Source {
        path: PathBuf::from(path),
        idents: non_test_idents(src),
    };
    let lib = file(
        "lib.rs",
        "pub use a::{used, shown};\npub const fn folded() {}\npub const LIMIT: u8 = 1;\n\
         pub(crate) fn internal() {}\nimpl X { pub fn method() {} }\n\
         pub fn used() { folded() }\npub fn shown() {}\npub fn tested() {}\n\
         #[cfg(test)]\nmod tests { fn t() { tested(); shown(); LIMIT; } }\n",
    );
    assert_eq!(
        declarations(&lib.idents)
            .into_iter()
            .map(|(name, _)| name)
            .collect::<Vec<_>>(),
        ["folded", "LIMIT", "used", "shown", "tested"]
    );
    let example = file(
        "example.rs",
        "// shown()\nfn main() { let _ = \"LIMIT\"; used(); }\n",
    );
    let missing = uncalled(std::slice::from_ref(&lib), &[example]);
    assert_eq!(
        missing,
        [
            "folded (lib.rs)",
            "LIMIT (lib.rs)",
            "shown (lib.rs)",
            "tested (lib.rs)"
        ]
    );
    // Within the declaring file, a call from non-test code counts.
    let missing = uncalled(std::slice::from_ref(&lib), std::slice::from_ref(&lib));
    assert_eq!(
        missing,
        [
            "LIMIT (lib.rs)",
            "used (lib.rs)",
            "shown (lib.rs)",
            "tested (lib.rs)"
        ]
    );
}
