//! The rule catalogue: FSS001–FSS005.
//!
//! Every rule scans the **masked** text produced by [`crate::lexer::lex`], so
//! a pattern can never fire inside a string, char literal or comment.  Rules
//! are scoped by path class (library source vs tests vs the bench crate) and
//! by in-file region (`#[cfg(test)]` items are skipped where a rule only
//! covers shipping code; FSS003 only looks inside annotated hot-path
//! regions).  See `docs/lint.md` for the catalogue in prose.

use crate::lexer::{lex, Lexed, RegionKind};
use std::fmt;
use std::ops::Range;

/// Stable diagnostic codes.  The numeric part never changes meaning; retired
/// rules leave holes rather than being reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleCode {
    /// Default-`RandomState` `HashMap`/`HashSet` in library code.
    Fss001,
    /// Wall-clock / entropy reads outside `crates/bench`.
    Fss002,
    /// Allocating calls inside `// fss-lint: hot-path` regions.
    Fss003,
    /// Narrowing `as` casts in protocol-state crates.
    Fss004,
    /// `unwrap()` / `expect()` in non-test library code.
    Fss005,
}

impl RuleCode {
    pub const ALL: [RuleCode; 5] = [
        RuleCode::Fss001,
        RuleCode::Fss002,
        RuleCode::Fss003,
        RuleCode::Fss004,
        RuleCode::Fss005,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            RuleCode::Fss001 => "FSS001",
            RuleCode::Fss002 => "FSS002",
            RuleCode::Fss003 => "FSS003",
            RuleCode::Fss004 => "FSS004",
            RuleCode::Fss005 => "FSS005",
        }
    }

    pub fn parse(text: &str) -> Option<RuleCode> {
        RuleCode::ALL.into_iter().find(|c| c.as_str() == text)
    }
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub code: RuleCode,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// What was matched (e.g. `Instant::now`, `as u16`).
    pub excerpt: String,
    /// Human explanation including the remedy.
    pub message: String,
}

/// Path-derived scope of a file (all paths are workspace-relative with `/`
/// separators).
#[derive(Debug, Clone, Copy)]
pub struct PathClass {
    /// `src/**` or `crates/<name>/src/**`: shipping library code.
    pub library: bool,
    /// Anywhere under `crates/bench/` (benchmarks may read wall clocks).
    pub bench_crate: bool,
    /// `crates/gossip/src/**` or `crates/core/src/**`: protocol-state
    /// modules where narrowing casts need an audit trail.
    pub protocol_state: bool,
}

impl PathClass {
    pub fn of(rel_path: &str) -> PathClass {
        let segments: Vec<&str> = rel_path.split('/').collect();
        let library = segments.first() == Some(&"src")
            || (segments.first() == Some(&"crates") && segments.get(2) == Some(&"src"));
        let bench_crate = segments.first() == Some(&"crates") && segments.get(1) == Some(&"bench");
        let protocol_state = segments.first() == Some(&"crates")
            && matches!(segments.get(1), Some(&"gossip") | Some(&"core"))
            && segments.get(2) == Some(&"src");
        PathClass {
            library,
            bench_crate,
            protocol_state,
        }
    }
}

/// A malformed in-source annotation (unbalanced hot-path markers).  These are
/// configuration errors, not waivable findings: the tool exits with status 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotationError {
    pub line: usize,
    pub message: String,
}

/// Everything the rules produced for one file.
#[derive(Debug, Clone, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub errors: Vec<AnnotationError>,
}

/// Runs every applicable rule over one file.
pub fn check_file(rel_path: &str, source: &str) -> FileReport {
    let lexed = lex(source);
    let class = PathClass::of(rel_path);
    let masked = &lexed.masked;
    let test_regions = if class.library {
        find_test_regions(masked)
    } else {
        Vec::new()
    };
    let mut report = FileReport::default();

    if class.library {
        fss001_default_hashers(masked, &lexed, &test_regions, &mut report.findings);
    }
    if !class.bench_crate {
        fss002_wall_clock(masked, &lexed, &mut report.findings);
    }
    fss003_hot_path_allocations(source, masked, &lexed, &mut report);
    if class.protocol_state {
        fss004_narrowing_casts(masked, &lexed, &test_regions, &mut report.findings);
    }
    if class.library {
        fss005_unwrap_expect(masked, &lexed, &test_regions, &mut report.findings);
    }

    report.findings.sort_by_key(|f| (f.line, f.col, f.code));
    report
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of every word-boundary occurrence of `word` in `text`.
fn find_word(text: &[u8], word: &str) -> Vec<usize> {
    let w = word.as_bytes();
    let mut out = Vec::new();
    if w.is_empty() || text.len() < w.len() {
        return out;
    }
    for i in 0..=text.len() - w.len() {
        if &text[i..i + w.len()] != w {
            continue;
        }
        let left_ok = i == 0 || !is_ident_byte(text[i - 1]);
        // A word that ends in an identifier byte must not continue; patterns
        // like `Instant::now` end in an ident byte and must not match
        // `Instant::nowhere`.
        let last = w[w.len() - 1];
        let right_ok =
            !is_ident_byte(last) || i + w.len() == text.len() || !is_ident_byte(text[i + w.len()]);
        if left_ok && right_ok {
            out.push(i);
        }
    }
    out
}

/// True when `word` occurs at exactly `pos` with a word boundary after it.
fn word_at(text: &[u8], pos: usize, word: &str) -> bool {
    let w = word.as_bytes();
    text.len() >= pos + w.len()
        && &text[pos..pos + w.len()] == w
        && (text.len() == pos + w.len() || !is_ident_byte(text[pos + w.len()]))
}

fn in_regions(regions: &[Range<usize>], offset: usize) -> bool {
    regions.iter().any(|r| r.contains(&offset))
}

fn skip_ws(text: &[u8], mut i: usize) -> usize {
    while i < text.len() && text[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

fn push(
    findings: &mut Vec<Finding>,
    lexed: &Lexed,
    offset: usize,
    code: RuleCode,
    excerpt: &str,
    message: String,
) {
    let (line, col) = lexed.line_col(offset);
    findings.push(Finding {
        code,
        line,
        col,
        excerpt: excerpt.to_string(),
        message,
    });
}

/// Spans of `#[cfg(test)]`-gated items (mod / fn / impl / use), brace-matched
/// on the masked text so literal braces cannot unbalance them.
pub fn find_test_regions(masked: &[u8]) -> Vec<Range<usize>> {
    let mut regions = Vec::new();
    for start in find_word(masked, "cfg") {
        // The word must sit inside an attribute opener `#[` (possibly with
        // whitespace) and be followed by `(...)` containing the word `test`.
        let mut j = start;
        while j > 0 && masked[j - 1].is_ascii_whitespace() {
            j -= 1;
        }
        if j == 0 || masked[j - 1] != b'[' {
            continue;
        }
        let mut k = j - 1;
        while k > 0 && masked[k - 1].is_ascii_whitespace() {
            k -= 1;
        }
        if k == 0 || masked[k - 1] != b'#' {
            continue;
        }
        let open = skip_ws(masked, start + 3);
        if open >= masked.len() || masked[open] != b'(' {
            continue;
        }
        let Some(close) = match_delim(masked, open, b'(', b')') else {
            continue;
        };
        if find_word(&masked[open..close], "test").is_empty() {
            continue;
        }
        // Find the end of this attribute, then skip any further attributes.
        let Some(mut item) = match_delim(masked, j - 1, b'[', b']') else {
            continue;
        };
        item += 1;
        loop {
            let at = skip_ws(masked, item);
            if at + 1 < masked.len() && masked[at] == b'#' {
                let br = skip_ws(masked, at + 1);
                if br < masked.len() && masked[br] == b'[' {
                    if let Some(end) = match_delim(masked, br, b'[', b']') {
                        item = end + 1;
                        continue;
                    }
                }
            }
            break;
        }
        // The gated item runs to the first `;` (use/extern) or the matching
        // close of the first `{` (mod/fn/impl body).
        let mut p = skip_ws(masked, item);
        let end = loop {
            if p >= masked.len() {
                break masked.len();
            }
            match masked[p] {
                b';' => break p + 1,
                b'{' => {
                    break match match_delim(masked, p, b'{', b'}') {
                        Some(close_brace) => close_brace + 1,
                        None => masked.len(),
                    }
                }
                _ => p += 1,
            }
        };
        regions.push(k - 1..end);
    }
    regions
}

/// Offset of the closing delimiter matching the opener at `open`.
fn match_delim(text: &[u8], open: usize, open_b: u8, close_b: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &b) in text.iter().enumerate().skip(open) {
        if b == open_b {
            depth += 1;
        } else if b == close_b {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// FSS001: `HashMap`/`HashSet` with the default `RandomState` hasher.
///
/// An occurrence passes only when its generic argument list names an explicit
/// hasher (a third parameter for `HashMap`, a second for `HashSet`), as
/// `fss_gossip::hasher::{FxHashMap, FxHashSet}` do.  Everything else —
/// imports, `::new()`, `::with_capacity()`, two-parameter types — is flagged.
fn fss001_default_hashers(
    masked: &[u8],
    lexed: &Lexed,
    test_regions: &[Range<usize>],
    findings: &mut Vec<Finding>,
) {
    for (word, needed_commas) in [("HashMap", 2usize), ("HashSet", 1usize)] {
        for offset in find_word(masked, word) {
            if in_regions(test_regions, offset) {
                continue;
            }
            if generic_commas(masked, offset + word.len()) >= needed_commas {
                continue;
            }
            push(
                findings,
                lexed,
                offset,
                RuleCode::Fss001,
                word,
                format!(
                    "default-RandomState `{word}` in library code: iteration order and probe \
                     cost vary per process; use the deterministic \
                     `fss_gossip::hasher::Fx{word}` (re-exported from `fss_sim::hasher`) \
                     or waive with a reason in lint.toml"
                ),
            );
        }
    }
}

/// Counts top-level commas in the generic argument list following a type
/// name (accepting an optional `::` turbofish), ignoring commas nested in
/// `<>`, `()`, `[]`.  Returns 0 when no generic list follows.
fn generic_commas(masked: &[u8], after_word: usize) -> usize {
    let mut i = skip_ws(masked, after_word);
    if i + 1 < masked.len() && masked[i] == b':' && masked[i + 1] == b':' {
        i = skip_ws(masked, i + 2);
    }
    if i >= masked.len() || masked[i] != b'<' {
        return 0;
    }
    let mut angle = 0isize;
    let mut nested = 0isize; // () and []
    let mut commas = 0usize;
    for &b in masked.iter().skip(i) {
        match b {
            b'<' => angle += 1,
            b'>' => {
                angle -= 1;
                if angle == 0 {
                    return commas;
                }
            }
            b'(' | b'[' => nested += 1,
            b')' | b']' => nested -= 1,
            b',' if angle == 1 && nested == 0 => commas += 1,
            b';' | b'{' => return commas, // not a generic list after all
            _ => {}
        }
    }
    commas
}

/// FSS002: wall-clock and entropy reads.  The simulation is a deterministic
/// function of its seeds; real time and OS randomness may only appear in the
/// benchmark crate.
fn fss002_wall_clock(masked: &[u8], lexed: &Lexed, findings: &mut Vec<Finding>) {
    const PATTERNS: &[(&str, &str)] = &[
        ("Instant::now", "wall-clock read"),
        ("SystemTime", "wall-clock type"),
        ("thread_rng", "OS-entropy RNG"),
        ("from_entropy", "OS-entropy seeding"),
    ];
    for &(pattern, what) in PATTERNS {
        for offset in find_word(masked, pattern) {
            push(
                findings,
                lexed,
                offset,
                RuleCode::Fss002,
                pattern,
                format!(
                    "{what} `{pattern}` outside crates/bench: simulation results must be a \
                     deterministic function of configured seeds; derive timing from periods \
                     and randomness from seeded `SmallRng` streams"
                ),
            );
        }
    }
}

/// FSS003: allocating calls inside `// fss-lint: hot-path` … `// fss-lint:
/// end` regions.  The annotations document which code the zero-alloc
/// counting-allocator tests exercise; this rule catches regressions at review
/// time instead of at test time.
fn fss003_hot_path_allocations(
    source: &str,
    masked: &[u8],
    lexed: &Lexed,
    report: &mut FileReport,
) {
    const OPEN: &str = "fss-lint: hot-path";
    const CLOSE: &str = "fss-lint: end";
    // A directive comment is one whose text, after the `//`/`///`/`//!`
    // opener, *starts with* `fss-lint:` — prose that merely mentions the
    // marker (docs, this file) is not a directive.
    fn directive(text: &str) -> Option<&str> {
        let body = text.trim_start_matches('/').trim_start_matches('!').trim();
        body.strip_prefix("fss-lint:").map(str::trim)
    }
    let mut regions: Vec<Range<usize>> = Vec::new();
    let mut open_at: Option<usize> = None;
    for (region, text) in lexed.comments(source) {
        if region.kind != RegionKind::LineComment {
            continue;
        }
        let Some(directive) = directive(text) else {
            continue;
        };
        match directive {
            "hot-path" => {
                if let Some(prev) = open_at {
                    let (line, _) = lexed.line_col(prev);
                    report.errors.push(AnnotationError {
                        line: lexed.line_col(region.start).0,
                        message: format!(
                            "`// {OPEN}` opened again while the region from line {line} is \
                             still open (regions cannot nest)"
                        ),
                    });
                } else {
                    open_at = Some(region.start);
                }
            }
            "end" => match open_at.take() {
                Some(start) => regions.push(start..region.start),
                None => report.errors.push(AnnotationError {
                    line: lexed.line_col(region.start).0,
                    message: format!("`// {CLOSE}` without a matching `// {OPEN}`"),
                }),
            },
            other => report.errors.push(AnnotationError {
                line: lexed.line_col(region.start).0,
                message: format!(
                    "unknown fss-lint directive `{other}` (expected `hot-path` or `end`)"
                ),
            }),
        }
    }
    if let Some(start) = open_at {
        report.errors.push(AnnotationError {
            line: lexed.line_col(start).0,
            message: format!("`// {OPEN}` region never closed with `// {CLOSE}`"),
        });
    }
    if regions.is_empty() {
        return;
    }
    const PATTERNS: &[&str] = &[
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
    for &pattern in PATTERNS {
        for offset in find_word(masked, pattern.trim_start_matches('.')) {
            if pattern.starts_with('.') && (offset == 0 || masked[offset - 1] != b'.') {
                continue; // method-call pattern without a receiver dot
            }
            if !in_regions(&regions, offset) {
                continue;
            }
            push(
                &mut report.findings,
                lexed,
                offset,
                RuleCode::Fss003,
                pattern,
                format!(
                    "allocating call `{pattern}` inside a `// {OPEN}` region: the period hot \
                     path must not allocate in steady state (see crates/bench/tests/\
                     zero_alloc.rs); reuse a scratch buffer or move the allocation to setup"
                ),
            );
        }
    }
}

/// FSS004: narrowing `as` casts in protocol-state modules.  A silently
/// truncating `as u16` caused the PR 4 sequence-wraparound bug; narrowing
/// must go through the checked helpers in `fss_sim::cast` or carry a
/// waiver citing the bounding invariant.
fn fss004_narrowing_casts(
    masked: &[u8],
    lexed: &Lexed,
    test_regions: &[Range<usize>],
    findings: &mut Vec<Finding>,
) {
    for offset in find_word(masked, "as") {
        if in_regions(test_regions, offset) {
            continue;
        }
        let target_at = skip_ws(masked, offset + 2);
        let target = ["u8", "u16", "u32"]
            .into_iter()
            .find(|t| word_at(masked, target_at, t));
        let Some(target) = target else { continue };
        push(
            findings,
            lexed,
            offset,
            RuleCode::Fss004,
            &format!("as {target}"),
            format!(
                "narrowing `as {target}` in protocol state silently truncates out-of-range \
                 values (the PR 4 seq-wraparound bug class); use the checked helpers in \
                 `fss_sim::cast`, a lossless `::from`, or waive citing the bounding \
                 invariant"
            ),
        );
    }
}

/// FSS005: `unwrap()` / `expect()` in non-test library code.  Each panic site
/// in shipping code either becomes proper error handling or carries a waiver
/// explaining why aborting is the correct response.
fn fss005_unwrap_expect(
    masked: &[u8],
    lexed: &Lexed,
    test_regions: &[Range<usize>],
    findings: &mut Vec<Finding>,
) {
    for method in ["unwrap", "expect"] {
        for offset in find_word(masked, method) {
            if offset == 0 || masked[offset - 1] != b'.' {
                continue; // only method calls, not e.g. `unwrap_all(...)` fns
            }
            let after = skip_ws(masked, offset + method.len());
            if after >= masked.len() || masked[after] != b'(' {
                continue; // `.unwrap_or(...)` is excluded by find_word already
            }
            if in_regions(test_regions, offset) {
                continue;
            }
            push(
                findings,
                lexed,
                offset,
                RuleCode::Fss005,
                &format!(".{method}()"),
                format!(
                    "`.{method}()` in non-test library code: return a `Result`, handle the \
                     `None`/`Err` branch, or waive in lint.toml explaining why aborting \
                     is correct here"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(rel_path: &str, src: &str) -> Vec<(RuleCode, usize)> {
        let report = check_file(rel_path, src);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        report.findings.iter().map(|f| (f.code, f.line)).collect()
    }

    #[test]
    fn path_classes() {
        let lib = PathClass::of("crates/gossip/src/buffer.rs");
        assert!(lib.library && lib.protocol_state && !lib.bench_crate);
        let bench = PathClass::of("crates/bench/benches/period_throughput.rs");
        assert!(!bench.library && bench.bench_crate);
        let tests = PathClass::of("crates/runtime/tests/golden_report.rs");
        assert!(!tests.library);
        let root = PathClass::of("src/lib.rs");
        assert!(root.library && !root.protocol_state);
        let example = PathClass::of("examples/flash_crowd.rs");
        assert!(!example.library && !example.bench_crate);
    }

    #[test]
    fn fss001_catches_default_hasher_and_accepts_explicit_one() {
        let src = "use std::collections::HashMap;\n\
                   fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n\
                   type Ok1 = std::collections::HashMap<u32, u32, MyHasher>;\n\
                   type Ok2 = std::collections::HashSet<u32, MyHasher>;\n\
                   fn g(s: FxHashMap<u32, u32>) {}\n";
        let found = codes("crates/x/src/lib.rs", src);
        assert_eq!(
            found,
            vec![
                (RuleCode::Fss001, 1),
                (RuleCode::Fss001, 2),
                (RuleCode::Fss001, 2)
            ]
        );
    }

    #[test]
    fn fss001_tuple_keys_do_not_hide_the_missing_hasher() {
        // Commas inside a tuple key must not count as generic separators.
        let found = codes(
            "crates/x/src/lib.rs",
            "type T = HashSet<(u32, u64)>;\ntype Ok = HashSet<(u32, u64), H>;\n",
        );
        assert_eq!(found, vec![(RuleCode::Fss001, 1)]);
    }

    #[test]
    fn fss001_skips_cfg_test_items_and_non_library_paths() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { let _ = HashMap::<u8, u8>::new(); }\n}\n";
        assert!(codes("crates/x/src/lib.rs", src).is_empty());
        assert!(codes("crates/x/tests/it.rs", "use std::collections::HashMap;\n").is_empty());
    }

    #[test]
    fn fss002_fires_everywhere_except_bench() {
        let src = "let t = std::time::Instant::now();\nlet r = rand::thread_rng();\n";
        assert_eq!(
            codes("examples/demo.rs", src),
            vec![(RuleCode::Fss002, 1), (RuleCode::Fss002, 2)]
        );
        assert!(codes("crates/bench/benches/b.rs", src).is_empty());
        // Strings and comments never fire.
        let masked = "// Instant::now\nlet s = \"SystemTime\";\n";
        assert!(codes("crates/x/src/lib.rs", masked).is_empty());
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
        assert_eq!(
            codes("crates/x/src/hot.rs", src),
            vec![(RuleCode::Fss003, 4)]
        );
    }

    #[test]
    fn fss003_prose_mentions_are_not_directives() {
        // Doc text that merely *mentions* the marker must not open a region,
        // but a typoed directive is a hard error rather than silence.
        let src = "/// Wrap hot code in `// fss-lint: hot-path` comments.\nfn f() {}\n";
        let report = check_file("crates/x/src/lib.rs", src);
        assert!(report.errors.is_empty() && report.findings.is_empty());
        let typo = check_file("crates/x/src/lib.rs", "// fss-lint: hotpath\n");
        assert_eq!(typo.errors.len(), 1);
        assert!(typo.errors[0]
            .message
            .contains("unknown fss-lint directive"));
    }

    #[test]
    fn fss003_unbalanced_markers_are_errors() {
        let report = check_file("crates/x/src/a.rs", "// fss-lint: hot-path\nfn f() {}\n");
        assert_eq!(report.errors.len(), 1);
        let report = check_file("crates/x/src/b.rs", "// fss-lint: end\n");
        assert_eq!(report.errors.len(), 1);
        let report = check_file(
            "crates/x/src/c.rs",
            "// fss-lint: hot-path\n// fss-lint: hot-path\n// fss-lint: end\n",
        );
        assert_eq!(report.errors.len(), 1);
    }

    #[test]
    fn fss004_narrowing_casts_in_protocol_state_only() {
        let src = "fn f(x: usize) -> u16 { x as u16 }\nfn g(x: u64) -> u64 { x as u64 }\n";
        assert_eq!(
            codes("crates/gossip/src/buffer.rs", src),
            vec![(RuleCode::Fss004, 1)]
        );
        assert_eq!(
            codes("crates/core/src/fast.rs", src),
            vec![(RuleCode::Fss004, 1)]
        );
        assert!(codes("crates/metrics/src/sketch.rs", src).is_empty());
        // `as usize` / `as u64` widenings and test modules are exempt.
        let test_src = "#[cfg(test)]\nmod tests { fn f(x: usize) { let _ = x as u8; } }\n";
        assert!(codes("crates/gossip/src/buffer.rs", test_src).is_empty());
    }

    #[test]
    fn fss005_unwrap_expect_in_library_code_only() {
        let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }\n\
                   fn g(o: Option<u8>) -> u8 { o.expect(\"msg\") }\n\
                   fn h(o: Option<u8>) -> u8 { o.unwrap_or(0) }\n\
                   fn k(r: Result<u8, u8>) -> u8 { r.unwrap_or_else(|_| 0) }\n";
        assert_eq!(
            codes("crates/x/src/lib.rs", src),
            vec![(RuleCode::Fss005, 1), (RuleCode::Fss005, 2)]
        );
        assert!(codes("crates/x/tests/it.rs", src).is_empty());
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f(o: Option<u8>) -> u8 { o.unwrap() }\n}\n";
        assert!(codes("crates/x/src/lib.rs", test_src).is_empty());
    }

    #[test]
    fn cfg_test_region_ends_at_matching_brace() {
        let src = "#[cfg(test)]\nmod tests { fn a() { o.unwrap(); } }\nfn shipped(o: Option<u8>) { o.unwrap(); }\n";
        assert_eq!(
            codes("crates/x/src/lib.rs", src),
            vec![(RuleCode::Fss005, 3)]
        );
    }

    #[test]
    fn cfg_test_with_extra_attributes() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn a() { o.unwrap(); } }\n";
        assert!(codes("crates/x/src/lib.rs", src).is_empty());
        let all = "#[cfg(all(test, feature = \"x\"))]\nfn t() { o.unwrap(); }\n";
        assert!(codes("crates/x/src/lib.rs", all).is_empty());
    }
}
