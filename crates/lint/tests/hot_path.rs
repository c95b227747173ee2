//! FSS003: no allocating call inside a hot-path region.
//!
//! A region runs from a `// fss-lint: hot-path` line comment to the next
//! `// fss-lint: end`.  It marks code of the steady-state period loop, which
//! `crates/bench/tests/zero_alloc.rs` measures at zero heap allocations;
//! this guard names the offending call at review time instead of at test
//! time.  Every `.rs` file under `src`, `crates`, `examples` and `tests` is
//! read through the lint lexer's masked text, so a call written in a string
//! or a comment never matches.  A comment is a directive only when its text
//! starts with `fss-lint:`; an unknown directive, a nested region, an `end`
//! without a region and a region never closed are errors.

use fss_lint::lexer::{lex, Lexed, RegionKind};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

const OPEN: &str = "fss-lint: hot-path";
const CLOSE: &str = "fss-lint: end";

/// The regions the tree marks; a region added or removed updates this.
const TREE_REGIONS: usize = 9;

/// Calls that allocate.  A pattern starting with `.` is a method call and
/// needs its receiver dot.
const ALLOCATING: &[&str] = &[
    "Vec::new",
    "vec!",
    "Box::new",
    "String::new",
    "String::from",
    "format!",
    ".collect",
    ".to_vec",
    ".to_string",
    ".to_owned",
    "with_capacity",
];

/// What the guard found in one file.
#[derive(Debug, Default)]
struct Report {
    /// Closed regions.
    regions: usize,
    /// `(line, pattern)` of every allocating call inside a region.
    findings: Vec<(usize, &'static str)>,
    /// `(line, message)` of every malformed directive.
    errors: Vec<(usize, String)>,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of every word-boundary occurrence of `word` in `text`.
fn find_word(text: &[u8], word: &str) -> Vec<usize> {
    let w = word.as_bytes();
    if w.is_empty() || text.len() < w.len() {
        return Vec::new();
    }
    // A word that ends in an identifier byte must not continue, so
    // `Vec::new` does not match `Vec::newer`.
    let last = w[w.len() - 1];
    (0..=text.len() - w.len())
        .filter(|&i| {
            &text[i..i + w.len()] == w
                && (i == 0 || !is_ident_byte(text[i - 1]))
                && (!is_ident_byte(last)
                    || i + w.len() == text.len()
                    || !is_ident_byte(text[i + w.len()]))
        })
        .collect()
}

/// The directive of a comment whose text, after the `//`, `///` or `//!`
/// opener, starts with `fss-lint:`.  Prose that only mentions a marker is
/// not a directive.
fn directive(text: &str) -> Option<&str> {
    let body = text.trim_start_matches('/').trim_start_matches('!').trim();
    body.strip_prefix("fss-lint:").map(str::trim)
}

/// The byte ranges of the hot-path regions of `source`.
fn regions(source: &str, lexed: &Lexed, errors: &mut Vec<(usize, String)>) -> Vec<Range<usize>> {
    let line = |offset: usize| lexed.line_col(offset).0;
    let mut regions = Vec::new();
    let mut open_at: Option<usize> = None;
    for (region, text) in lexed.comments(source) {
        if region.kind != RegionKind::LineComment {
            continue;
        }
        match directive(text) {
            None => {}
            Some("hot-path") => match open_at {
                Some(prev) => errors.push((
                    line(region.start),
                    format!(
                        "`// {OPEN}` opened again while the region from line {} is still \
                         open (regions cannot nest)",
                        line(prev)
                    ),
                )),
                None => open_at = Some(region.start),
            },
            Some("end") => match open_at.take() {
                Some(start) => regions.push(start..region.start),
                None => errors.push((
                    line(region.start),
                    format!("`// {CLOSE}` without a matching `// {OPEN}`"),
                )),
            },
            Some(other) => errors.push((
                line(region.start),
                format!("unknown fss-lint directive `{other}` (expected `hot-path` or `end`)"),
            )),
        }
    }
    if let Some(start) = open_at {
        errors.push((
            line(start),
            format!("`// {OPEN}` region never closed with `// {CLOSE}`"),
        ));
    }
    regions
}

/// Checks one source file.
fn check(source: &str) -> Report {
    let lexed = lex(source);
    let mut report = Report::default();
    let regions = regions(source, &lexed, &mut report.errors);
    report.regions = regions.len();
    let masked = &lexed.masked;
    for &pattern in ALLOCATING {
        for offset in find_word(masked, pattern.trim_start_matches('.')) {
            let receiver = !pattern.starts_with('.') || (offset > 0 && masked[offset - 1] == b'.');
            if receiver && regions.iter().any(|r| r.contains(&offset)) {
                report.findings.push((lexed.line_col(offset).0, pattern));
            }
        }
    }
    report.findings.sort();
    report
}

/// Every `.rs` file under `dir`, recursively, except build output and this
/// guard's fixtures (which break the rule on purpose).
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
    {
        if path.ends_with("target") || path.ends_with("crates/lint/tests/fixtures") {
            continue;
        }
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).expect("fixtures are UTF-8")
}

/// Lines carrying a `//~ FSS003` marker.
fn marked_lines(source: &str) -> Vec<usize> {
    source
        .lines()
        .enumerate()
        .filter(|(_, line)| line.contains("//~ FSS003"))
        .map(|(i, _)| i + 1)
        .collect()
}

#[test]
fn the_hot_path_regions_of_the_tree_do_not_allocate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut paths = Vec::new();
    for dir in ["src", "crates", "examples", "tests"] {
        sources(&root.join(dir), &mut paths);
    }
    let mut regions = 0;
    let mut problems = Vec::new();
    for path in paths {
        let source = fs::read_to_string(&path).expect("workspace sources are UTF-8");
        let report = check(&source);
        regions += report.regions;
        let shown = path.strip_prefix(&root).unwrap_or(&path).display();
        for (line, message) in report.errors {
            problems.push(format!("{shown}:{line}: {message}"));
        }
        for (line, pattern) in report.findings {
            problems.push(format!(
                "{shown}:{line}: allocating call `{pattern}` inside a `// {OPEN}` region: \
                 reuse a scratch buffer or move the allocation to setup"
            ));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    assert_eq!(
        regions, TREE_REGIONS,
        "hot-path regions in the tree: the scan is broken, or TREE_REGIONS is stale"
    );
}

#[test]
fn fss003_hot_path_allocations_fire_exactly_on_marked_lines() {
    let source = fixture("hotpath.rs");
    let report = check(&source);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let lines: Vec<usize> = report.findings.iter().map(|&(line, _)| line).collect();
    assert_eq!(lines, marked_lines(&source));
}

#[test]
fn unbalanced_hot_path_markers_are_annotation_errors() {
    let report = check(&fixture("bad_unclosed.rs"));
    assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
    assert!(report.errors[0].1.contains("never closed"));
}

#[test]
fn unknown_directives_are_annotation_errors() {
    let report = check(&fixture("bad_directive.rs"));
    assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
    assert!(report.errors[0].1.contains("unknown fss-lint directive"));
}

#[test]
fn fss003_only_inside_annotated_regions() {
    let src = "\
fn cold() { let v: Vec<u32> = xs.iter().collect(); }
// fss-lint: hot-path
fn hot(scratch: &mut Vec<u32>) {
    let bad: Vec<u32> = xs.iter().collect();
    let s = \"vec![not code]\"; // vec![comment]
    scratch.clear();
}
// fss-lint: end
fn cold2() { let v = vec![1]; }
";
    let report = check(src);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.findings, [(4, ".collect")]);
}

#[test]
fn fss003_prose_mentions_are_not_directives() {
    // Doc text that merely mentions the marker does not open a region, but
    // a typoed directive is an error rather than silence.
    let report = check("/// Wrap hot code in `// fss-lint: hot-path` comments.\nfn f() {}\n");
    assert!(report.errors.is_empty() && report.findings.is_empty());
    assert_eq!(report.regions, 0);
    let typo = check("// fss-lint: hotpath\n");
    assert_eq!(typo.errors.len(), 1);
    assert!(typo.errors[0].1.contains("unknown fss-lint directive"));
}

#[test]
fn fss003_unbalanced_markers_are_errors() {
    assert_eq!(check("// fss-lint: hot-path\nfn f() {}\n").errors.len(), 1);
    assert_eq!(check("// fss-lint: end\n").errors.len(), 1);
    let nested = check("// fss-lint: hot-path\n// fss-lint: hot-path\n// fss-lint: end\n");
    assert_eq!(nested.errors.len(), 1);
}
