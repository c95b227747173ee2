//! Gnutella-style overlay trace substrate.
//!
//! The ICPP 2008 paper evaluates on "30 real-trace P2P overlay topologies
//! whose data was collected from Dec. 2000 to Jun. 2001 on dss.clip2.com".
//! Each crawl lists "each node's ID, IP, host name, port, ping time, speed
//! and so on, but we just use the ID, IP and ping time information".  That
//! crawl archive has been offline for two decades, so this crate provides
//! the closest synthetic equivalent:
//!
//! * [`Trace`] — what the overlay builder reads: one ping time per node (a
//!   node's id is its index) and the overlay edges observed between them,
//! * [`generator::TraceGenerator`] — a deterministic generator reproducing the
//!   statistical shape of the 2000/2001 Gnutella crawls (preferential-
//!   attachment power-law degree distribution, log-normal ping times).
//!
//! The generator still draws one value per node for the access speed the
//! crawls recorded and then discards it: every generated topology keeps the
//! RNG stream it had when the speed was stored, and with it every pinned
//! digest downstream (`generator::tests::generated_stream_is_pinned`).
//!
//! Each experiment generates its own topology from a `(size, seed)` pair
//! (`GeneratorConfig::sized`), so the paper's 30 crawls are stood in for by
//! the sizes and seeds the harness sweeps, not by a fixed named list.
//!
//! The overlay builder in `fss-overlay` checks a trace as it builds (an edge
//! naming a missing node is an error; self loops and duplicate edges are
//! ignored) and then adds random edges until every node has at least `M`
//! neighbours, exactly as the paper does.

#![warn(missing_docs)]

pub mod generator;
pub mod record;

pub use generator::{GeneratorConfig, TraceGenerator};
pub use record::{NodeId, Trace};
