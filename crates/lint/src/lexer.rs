//! A purpose-built Rust surface lexer.
//!
//! The source guards are textual (identifier and call-pattern matches), so
//! the one thing the lexer must get right is *where text stops being code*:
//! line comments, nested block comments, string / byte-string / raw-string /
//! char literals.  A guard that fires on `"vec!"` inside a doc comment or a
//! panic message would be unusable.
//!
//! The lexer partitions a source file into contiguous [`Region`]s covering
//! every byte exactly once, and derives a **masked** copy of the source in
//! which every non-code byte (except newlines) is replaced by a space.  Guards
//! scan the masked text, so their matches can never land inside literals or
//! comments, while byte offsets — and therefore line/column numbers — remain
//! valid in the original source.
//!
//! The lexer never fails: unterminated literals and comments extend to end of
//! file (the compiler will reject such a file anyway; a guard just has to
//! not panic on it).

/// Classification of one source region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Plain code (everything guards may look at).
    Code,
    /// `// ...` including doc comments `///` and `//!` (newline excluded).
    LineComment,
    /// `/* ... */`, nested arbitrarily deep.
    BlockComment,
    /// `"..."` or `b"..."` with escapes.
    Str,
    /// `r"..."` / `r#"..."#` / `br##"..."##` with any number of hashes.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'` — char and byte literals (not lifetimes).
    Char,
}

/// One contiguous byte range of a single kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    pub kind: RegionKind,
    /// Byte offset of the first byte of the region.
    pub start: usize,
    /// Byte offset one past the last byte of the region.
    pub end: usize,
}

/// Result of lexing one file.
#[derive(Debug, Clone)]
pub struct Lexed {
    /// Same byte length as the input; every byte of a non-code region is
    /// replaced by `b' '` unless it is `\n` (kept, so line numbers and byte
    /// offsets survive the masking).
    pub masked: Vec<u8>,
    /// Regions covering `0..source.len()` exactly, in order, without gaps.
    pub regions: Vec<Region>,
    /// Byte offset of the start of each line (`line_starts[0] == 0`).
    pub line_starts: Vec<usize>,
}

impl Lexed {
    /// 1-based line and column (in bytes) of a byte offset.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, offset - self.line_starts[line] + 1)
    }

    /// The comment regions, with their original text extracted from `source`.
    ///
    /// `tests/hot_path.rs` uses this for the `// fss-lint: hot-path` region markers.
    pub fn comments<'a>(&self, source: &'a str) -> Vec<(Region, &'a str)> {
        self.regions
            .iter()
            .filter(|r| {
                matches!(r.kind, RegionKind::LineComment | RegionKind::BlockComment)
                    && source.is_char_boundary(r.start)
                    && source.is_char_boundary(r.end)
            })
            .map(|r| (r.clone(), &source[r.start..r.end]))
            .collect()
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `source` into code / comment / literal regions.  Never panics.
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let len = bytes.len();
    let mut regions: Vec<Region> = Vec::new();
    let mut code_start = 0usize;
    let mut i = 0usize;

    // Closes the current code run (if non-empty) and pushes a non-code
    // region `start..end` of `kind`.
    fn push_region(
        regions: &mut Vec<Region>,
        code_start: &mut usize,
        kind: RegionKind,
        start: usize,
        end: usize,
    ) {
        if start > *code_start {
            regions.push(Region {
                kind: RegionKind::Code,
                start: *code_start,
                end: start,
            });
        }
        regions.push(Region { kind, start, end });
        *code_start = end;
    }

    while i < len {
        let b = bytes[i];
        match b {
            b'/' if i + 1 < len && bytes[i + 1] == b'/' => {
                let start = i;
                i += 2;
                while i < len && bytes[i] != b'\n' {
                    i += 1;
                }
                push_region(
                    &mut regions,
                    &mut code_start,
                    RegionKind::LineComment,
                    start,
                    i,
                );
            }
            b'/' if i + 1 < len && bytes[i + 1] == b'*' => {
                let start = i;
                i += 2;
                let mut depth = 1usize;
                while i < len && depth > 0 {
                    if i + 1 < len && bytes[i] == b'/' && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if i + 1 < len && bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                push_region(
                    &mut regions,
                    &mut code_start,
                    RegionKind::BlockComment,
                    start,
                    i,
                );
            }
            b'"' => {
                let start = i;
                i = scan_string(bytes, i + 1);
                push_region(&mut regions, &mut code_start, RegionKind::Str, start, i);
            }
            b'b' | b'r' if !prev_is_ident(bytes, i) => {
                // Possible prefixed literal: b"...", br"...", r"...", r#"..."#,
                // br#"..."#, b'x'.  `r#ident` (raw identifier) is code.
                if let Some((kind, end)) = scan_prefixed_literal(bytes, i) {
                    push_region(&mut regions, &mut code_start, kind, i, end);
                    i = end;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal or lifetime.  A lifetime / loop label is `'`
                // followed by an identifier NOT closed by another `'`.
                if let Some(end) = scan_char_literal(bytes, i) {
                    push_region(&mut regions, &mut code_start, RegionKind::Char, i, end);
                    i = end;
                } else {
                    i += 1; // lifetime: the quote itself stays code
                }
            }
            _ => i += 1,
        }
    }
    if len > code_start {
        regions.push(Region {
            kind: RegionKind::Code,
            start: code_start,
            end: len,
        });
    }

    let mut masked = bytes.to_vec();
    for r in &regions {
        if r.kind != RegionKind::Code {
            for m in masked[r.start..r.end].iter_mut() {
                if *m != b'\n' {
                    *m = b' ';
                }
            }
        }
    }

    let mut line_starts = vec![0usize];
    for (pos, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            line_starts.push(pos + 1);
        }
    }

    Lexed {
        masked,
        regions,
        line_starts,
    }
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && is_ident_byte(bytes[i - 1])
}

/// Scans the body of a `"..."` string starting just after the opening quote;
/// returns the offset one past the closing quote (or EOF when unterminated).
fn scan_string(bytes: &[u8], mut i: usize) -> usize {
    let len = bytes.len();
    while i < len {
        match bytes[i] {
            b'\\' if i + 1 < len => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    len
}

/// Scans a literal starting with `b` or `r` at `start`.  Returns its kind and
/// end offset, or `None` when `start` begins a plain identifier instead.
fn scan_prefixed_literal(bytes: &[u8], start: usize) -> Option<(RegionKind, usize)> {
    let len = bytes.len();
    let mut i = start;
    let mut raw = false;
    if bytes[i] == b'b' {
        i += 1;
        if i < len && bytes[i] == b'r' {
            raw = true;
            i += 1;
        }
    } else {
        // bytes[start] == b'r'
        raw = true;
        i += 1;
    }
    if raw {
        let mut hashes = 0usize;
        while i < len && bytes[i] == b'#' {
            hashes += 1;
            i += 1;
        }
        if i < len && bytes[i] == b'"' {
            i += 1;
            // Ends at `"` followed by `hashes` hashes.
            while i < len {
                if bytes[i] == b'"'
                    && bytes[i + 1..].len() >= hashes
                    && bytes[i + 1..i + 1 + hashes].iter().all(|&h| h == b'#')
                {
                    return Some((RegionKind::RawStr, i + 1 + hashes));
                }
                i += 1;
            }
            return Some((RegionKind::RawStr, len));
        }
        // `r#ident` raw identifier, or plain ident starting with b/r.
        return None;
    }
    // Non-raw b-prefix: b"..." or b'x'.
    if i < len && bytes[i] == b'"' {
        return Some((RegionKind::Str, scan_string(bytes, i + 1)));
    }
    if i < len && bytes[i] == b'\'' {
        return scan_char_literal(bytes, i).map(|end| (RegionKind::Char, end));
    }
    None
}

/// Scans a char literal whose opening quote is at `i`; returns its end, or
/// `None` when the quote starts a lifetime / loop label instead.
fn scan_char_literal(bytes: &[u8], i: usize) -> Option<usize> {
    let len = bytes.len();
    if i + 1 >= len {
        return None;
    }
    let next = bytes[i + 1];
    if next == b'\\' {
        // Escape: scan to the closing quote.
        let mut j = i + 2;
        while j < len {
            match bytes[j] {
                b'\\' if j + 1 < len => j += 2,
                b'\'' => return Some(j + 1),
                b'\n' => return None, // malformed; treat the quote as code
                _ => j += 1,
            }
        }
        return None;
    }
    if next == b'\'' {
        return None; // `''` is not a literal
    }
    if is_ident_byte(next) {
        // `'x'` is a char only when a quote follows immediately after ONE
        // character; `'abc` or `'a ` is a lifetime/label.  The character may
        // be multi-byte UTF-8.
        let char_len = utf8_len(next);
        let close = i + 1 + char_len;
        if close < len && bytes[close] == b'\'' {
            return Some(close + 1);
        }
        return None;
    }
    // Punctuation char like '(' — always a char literal if closed.
    let char_len = utf8_len(next);
    let close = i + 1 + char_len;
    if close < len && bytes[close] == b'\'' {
        return Some(close + 1);
    }
    None
}

/// Length in bytes of the UTF-8 sequence starting with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        b if b >= 0xC0 => 2,
        _ => 1, // continuation byte: malformed input, advance one byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masked(src: &str) -> String {
        String::from_utf8_lossy(&lex(src).masked).into_owned()
    }

    #[test]
    fn line_comment_is_masked_to_newline() {
        let m = masked("let x = 1; // Instant::now\nlet y = 2;");
        assert!(!m.contains("Instant"));
        assert!(m.contains("let y = 2;"));
        assert_eq!(m.len(), "let x = 1; // Instant::now\nlet y = 2;".len());
    }

    #[test]
    fn nested_block_comments() {
        let m = masked("a /* outer /* inner */ still comment */ b");
        assert_eq!(m, "a                                       b");
    }

    #[test]
    fn strings_and_escapes() {
        let m = masked(r#"call("quoted \" HashMap::new", x)"#);
        assert!(!m.contains("HashMap"));
        assert!(m.starts_with("call("));
        assert!(m.ends_with(", x)"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"vec![" unterminated? no "]"# ; done"###;
        let m = masked(src);
        assert!(!m.contains("vec!"));
        assert!(m.contains("; done"));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let m = masked(r##"let b = b"Box::new"; let rb = br#"format!"#; x"##);
        assert!(!m.contains("Box::new"));
        assert!(!m.contains("format!"));
        assert!(m.contains("; x"));
    }

    #[test]
    fn raw_identifier_is_code() {
        let m = masked("fn r#match(r#type: u8) {}");
        assert_eq!(m, "fn r#match(r#type: u8) {}");
    }

    #[test]
    fn char_literals_masked_lifetimes_kept() {
        let m = masked(r#"fn f<'a>(x: &'a str) { let c = '\''; let d = '\u{41}'; let q = '"'; }"#);
        assert!(m.contains("fn f<'a>(x: &'a str)"));
        assert!(!m.contains(r"\u{41}"));
        // The comment-opening trap: '/' as a char must not start a comment.
        let m2 = masked("let s = '/'; let t = '*'; real()");
        assert!(m2.contains("real()"));
        assert!(!m2.contains('/'));
    }

    #[test]
    fn quote_in_string_does_not_open_char() {
        // A string containing an apostrophe must not derail later lexing.
        let m = masked(r#"let s = "it's"; Instant::now()"#);
        assert!(m.contains("Instant::now()"));
        assert!(!m.contains("it's"));
    }

    #[test]
    fn comment_markers_inside_strings_are_inert() {
        let m = masked(r#"let s = "// not a comment"; after()"#);
        assert!(m.contains("after()"));
        let m2 = masked(r#"let s = "/* not"; open()"#);
        assert!(m2.contains("open()"));
    }

    #[test]
    fn string_markers_inside_comments_are_inert() {
        let m = masked("// a \" dangling quote\nreal_code()");
        assert!(m.contains("real_code()"));
        let m2 = masked("/* \" */ after()");
        assert!(m2.contains("after()"));
    }

    #[test]
    fn unterminated_constructs_reach_eof_without_panicking() {
        for src in [
            "/* never closed",
            "\"never closed",
            "r#\"never closed",
            "b'",
        ] {
            let lexed = lex(src);
            assert_eq!(
                lexed.regions.last().map(|r| r.end),
                Some(src.len()),
                "input {src:?}"
            );
        }
    }

    #[test]
    fn regions_partition_the_input() {
        let src = "fn main() { /* c */ let s = \"x\"; } // tail";
        let lexed = lex(src);
        let mut cursor = 0;
        for r in &lexed.regions {
            assert_eq!(r.start, cursor, "gap before region {r:?}");
            assert!(r.end > r.start);
            cursor = r.end;
        }
        assert_eq!(cursor, src.len());
    }

    #[test]
    fn line_col_is_one_based() {
        let lexed = lex("ab\ncd\n");
        assert_eq!(lexed.line_col(0), (1, 1));
        assert_eq!(lexed.line_col(1), (1, 2));
        assert_eq!(lexed.line_col(3), (2, 1));
        assert_eq!(lexed.line_col(4), (2, 2));
    }

    #[test]
    fn comments_extract_original_text() {
        let src = "x(); // fss-lint: hot-path\n/* block */";
        let lexed = lex(src);
        let comments = lexed.comments(src);
        assert_eq!(comments.len(), 2);
        assert_eq!(comments[0].1, "// fss-lint: hot-path");
        assert_eq!(comments[1].1, "/* block */");
    }
}
