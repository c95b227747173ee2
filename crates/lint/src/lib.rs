//! `fss-lint` — the lexer behind the workspace's source guards.
//!
//! Clippy enforces most source rules (see `docs/lint.md`): the root
//! `clippy.toml` bans the default-`RandomState` hash collections and
//! wall-clock reads, and crate-root lint levels ban `unwrap`/`expect` in
//! shipping code and unchecked narrowing casts in the protocol crates.
//! Three rules have no clippy lint.  They run as this crate's integration
//! tests, over the [`lexer`]'s masked text, so a match never lands inside a
//! string or a comment:
//!
//! * `tests/hot_path.rs` — FSS003: no allocating call inside a
//!   `// fss-lint: hot-path` … `// fss-lint: end` region;
//! * `tests/experiment_callers.rs` — every public experiment has a caller;
//! * `tests/manifest_deps.rs` — every declared dependency is used.
//!
//! `tests/bench_targets.rs` reads manifests, not code: every benchmark
//! target is declared and has a CI step.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod lexer;
