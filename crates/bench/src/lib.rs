//! Benchmark harness crate; all content lives under `benches/`.

#![warn(clippy::unwrap_used, clippy::expect_used)]
