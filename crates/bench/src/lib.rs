//! Benchmark harness crate.  The library is empty: the criterion targets
//! live under `benches/`, and the zero-allocation and memory-budget guards
//! under `tests/`.

#![warn(clippy::unwrap_used, clippy::expect_used)]
