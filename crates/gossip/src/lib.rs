//! Pull-based gossip streaming substrate.
//!
//! This crate implements the streaming system the ICPP 2008 paper simulates
//! on: a CoolStreaming-style, pull-based ("smart gossip") P2P streaming
//! overlay in which every node periodically exchanges data-availability
//! information (buffer maps) with its neighbours and then retrieves the data
//! segments it needs from a subset of them.
//!
//! The crate provides every protocol ingredient *except* the scheduling
//! policy.  The policy is pluggable through the scheduling contract that
//! `fss-core` owns and this crate re-exports at its root
//! ([`SchedulingContext`], [`SegmentRequest`], [`SchedulerScratch`] and the
//! [`SegmentScheduler`] trait, with the [`SegmentId`]/[`SourceId`]
//! newtypes); the paper's Fast Switch Algorithm and the Normal Switch
//! baseline live in `fss-core` too.  This crate builds the contexts and
//! carries the requests out.
//!
//! Module map:
//!
//! * [`config`] — protocol constants (`τ`, `p`, `B`, `Q`, `Qs`, segment
//!   size) and the 620-bit buffer-map size they imply, defaulting to the
//!   paper's §5.1 values,
//! * [`segment`] — serial source sessions and their directory,
//! * [`buffer`] — the per-node FIFO segment buffer (`B = 600` segments),
//! * [`playback`] — the per-node playback state machine (startup after `Q`
//!   consecutive segments, new-source startup after `Qs` segments *and* the
//!   old stream finishing),
//! * [`transfer`] — the per-link grant rule (each supplier serves each
//!   requesting neighbour up to its outbound budget; each requester takes
//!   at most its inbound budget),
//! * [`membership`] — neighbour-set repair under churn,
//! * [`net`] — the message-level network model of the event-driven
//!   stepping mode: granted transfers ride a per-period arrival calendar as
//!   scheduled messages with per-link latency, Bernoulli loss and bounded
//!   jitter from stateless fault streams (see `docs/network.md`); the
//!   calendar itself, the time-ordered queue of in-flight messages, lives
//!   in the crate-private `queue` module,
//! * [`directory`] — the cross-channel membership directory: per-channel
//!   [`directory::MembershipView`]s maintained incrementally on every
//!   join/depart (churn, zaps, storms), and the shared allocation-free
//!   samplers ([`directory::select_movers`],
//!   [`directory::sample_neighbours`]) every join path draws its partners
//!   from (see `docs/architecture.md`),
//! * [`peer`] — the per-peer protocol rules (discovery, playback, switch
//!   progress) over the store's columns,
//! * [`store`] — struct-of-arrays sharded peer storage, the one per-peer
//!   record: dense contiguous peer-id shards owning their peers' state as
//!   parallel columns, the chunk unit of both dispatches of a period (see
//!   `docs/performance.md`),
//! * [`stats`] — traffic counters, switch records and ratio samples,
//! * [`qoe`] — counter-only QoE event recording on the playback path
//!   (startups, stall episodes, continuity, switch progress), one
//!   [`qoe::PeriodSample`] row per period (see `docs/observability.md`),
//! * [`mem`] — the per-peer byte meter ([`MemUsage`]) surfaced in
//!   reports, the library's only memory meter (see `docs/performance.md`),
//! * [`scratch`] — the reusable per-period working memory (zero-allocation
//!   hot path; see `docs/performance.md`),
//! * [`hasher`] — deterministic hashing for hot-path maps, and
//! * [`system`] — the complete period-synchronous streaming system.

#![warn(missing_docs)]

pub mod buffer;
pub mod config;
pub mod directory;
pub mod hasher;
pub mod mem;
pub mod membership;
pub mod net;
pub mod peer;
pub mod playback;
pub(crate) mod prefetch;
pub mod qoe;
pub(crate) mod queue;
pub mod scratch;
pub mod segment;
pub mod stats;
pub mod store;
pub mod system;
pub mod transfer;

pub use buffer::FifoBuffer;
pub use config::GossipConfig;
pub use directory::{AdmissionScratch, MembershipView};
pub use fss_core::{
    CandidateSegment, NeighbourInfo, SchedulerScratch, SchedulingContext, SegmentId,
    SegmentRequest, SegmentScheduler, SessionView, SourceId, StreamClass, SupplierInfo,
    SupplierSpan,
};
/// Checked narrowing conversions, re-exported from [`fss_sim::cast`].
pub use fss_sim::cast;
pub use mem::{BufferMemBreakdown, MemUsage};
pub use net::{NetStats, NetworkModel};
pub use playback::PlaybackState;
pub use qoe::{PeriodSample, QoeRecorder, QoeTotals};
pub use segment::{Session, SessionDirectory};
pub use stats::{MilestoneStat, RatioSample, SwitchRecord, SwitchStats, TrafficCounters};
pub use store::{PeerHeader, PeerMut, PeerRef, PeerShard, PeerStore, PEER_INLINE_BYTES};
pub use system::{StreamingSystem, SystemReport};
pub use transfer::DeliveredSegment;
