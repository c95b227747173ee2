//! Overlay network substrate for gossip-based streaming.
//!
//! This crate turns a crawl [`Trace`](fss_trace::Trace) into the overlay the
//! paper simulates on:
//!
//! * [`graph::OverlayGraph`] — an undirected adjacency structure supporting
//!   dynamic joins and leaves (needed for the churn experiments),
//! * [`bandwidth`] — per-peer inbound/outbound segment-rate assignment with
//!   the paper's skewed distribution (rates in `[10, 33]` segments/s, mean
//!   15 ≈ 450 Kbps),
//! * [`latency::LatencyModel`] — pairwise latency derived from trace ping
//!   times,
//! * [`net`] — link-level fault and delay knobs ([`net::NetworkConfig`])
//!   and the stateless per-link loss/jitter streams ([`net::LinkFaults`])
//!   the event-driven network model draws from (see `docs/network.md`),
//! * [`builder::OverlayBuilder`] — applies the paper's augmentation step
//!   ("add random edges into each overlay to let every node hold M = 5
//!   connected neighbors"), and
//! * [`churn::ChurnModel`] — the dynamic-environment model (5 % of peers
//!   leave and 5 % join per scheduling period).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod bandwidth;
pub mod builder;
pub mod churn;
pub mod error;
pub mod graph;
pub mod latency;
pub mod net;

pub use bandwidth::{BandwidthConfig, PeerBandwidth};
pub use builder::{Overlay, OverlayBuilder, OverlayConfig, PeerAttrs};
pub use churn::ChurnModel;
pub use error::OverlayError;
pub use graph::{OverlayGraph, PeerId};
pub use latency::LatencyModel;
pub use net::{LinkFaults, MessageKind, NetworkConfig};
