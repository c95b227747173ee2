//! Gnutella-style overlay trace substrate.
//!
//! The ICPP 2008 paper evaluates on "30 real-trace P2P overlay topologies
//! whose data was collected from Dec. 2000 to Jun. 2001 on dss.clip2.com".
//! That crawl archive has been offline for two decades, so this crate provides
//! the closest synthetic equivalent:
//!
//! * [`TraceRecord`] — one crawled peer (ID, IP, host name, port, ping time,
//!   access speed), the exact fields the paper lists (it only *uses* ID, IP
//!   and ping time),
//! * [`Trace`] — a set of records plus the overlay edges observed between
//!   them,
//! * [`generator::TraceGenerator`] — a deterministic generator reproducing the
//!   statistical shape of the 2000/2001 Gnutella crawls (preferential-
//!   attachment power-law degree distribution, log-normal ping times,
//!   era-accurate access-speed mix),
//! * [`parser`] — a plain-text serialisation so traces can be stored,
//!   inspected and re-loaded like the original crawl files.
//!
//! Each experiment generates its own topology from a `(size, seed)` pair
//! (`GeneratorConfig::sized`), so the paper's 30 crawls are stood in for by
//! the sizes and seeds the harness sweeps, not by a fixed named list.
//!
//! What the experiments actually need from the trace is only the node count,
//! a sparse skewed base topology and per-node latency; the overlay builder in
//! `fss-overlay` then adds random edges until every node has at least `M`
//! neighbours, exactly as the paper does.

#![warn(missing_docs)]

pub mod error;
pub mod generator;
pub mod parser;
pub mod record;
pub mod speed;

pub use error::TraceError;
pub use generator::{GeneratorConfig, TraceGenerator};
pub use record::{NodeId, Trace, TraceRecord};
pub use speed::AccessSpeed;
