//! Multi-channel session management with pipelined stepping and pluggable
//! zap workloads.
//!
//! The paper evaluates *one* stream per process; real deployments (and the
//! CliqueStream / live-entertainment settings in PAPERS.md) serve many
//! concurrent channels with viewers hopping between them — which makes
//! channel-switch latency a first-class metric.  [`SessionManager`] hosts
//! `N` independent [`StreamingSystem`]s (one per channel) on the persistent
//! [`WorkerPool`] and drives a deterministic viewer-zapping workload
//! described by a [`ZapSchedule`] (uniform, Zipf-skewed or flash-crowd —
//! see [`crate::zap`]).
//!
//! # Stepping
//!
//! Channels advance as one **dependency-tracked pipeline**, the only way a
//! session steps.  Each round first applies every zap batch whose two
//! endpoint channels are parked at its boundary (to fixpoint), then
//! advances every channel as a pool job to the nearest of its next batch
//! boundary, the run-ahead bound (`run_ahead` periods past the slowest
//! channel) and the horizon.  A zap batch synchronises **only its two
//! endpoint channels**; channels not named by any nearby batch never wait.
//! With `run_ahead: 1` the rounds are exactly the lockstep schedule (apply
//! the boundary's batches, step every channel one period); warm-up is the
//! same loop over an empty plan with no run-ahead bound (one dispatch).
//!
//! Reports are **byte-identical** for every run-ahead bound and every pool
//! size — the test-suite compares them against a lockstep oracle at
//! 1/2/4/7 workers under churn and flash-crowd storms.  The equivalence
//! rests on three invariants:
//!
//! 1. **state-independent planning** — the schedule decides *when* and
//!    *between which channels* viewers move from its own seed and
//!    population model alone (see [`crate::zap`]), so the plan exists
//!    before any channel steps;
//! 2. **per-batch RNG streams** — *which* viewers move and *where* they
//!    attach is resolved against live channel state with an RNG seeded
//!    from the batch's global index, so resolution reads only the two
//!    endpoint channels at their shared boundary;
//! 3. **channel-local everything else** — stepping, churn, membership
//!    repair and zap-latency harvesting touch one channel each, so their
//!    interleaving across channels is unobservable.
//!
//! # Zap latency
//!
//! Each arrival is tracked until its playback starts (`Q` consecutive
//! segments); the elapsed time is that viewer's **zap latency**, harvested
//! channel-locally after every period step and aggregated through
//! [`fss_metrics::ZapSummary`] (per channel and cross-channel) plus
//! [`fss_metrics::ZapLoadSummary`] (the arrival skew across channels).
//!
//! [`StreamingSystem`]: fss_gossip::StreamingSystem

#![expect(
    clippy::expect_used,
    reason = "session-driver invariants (source installed before streaming, directory entries for live sessions); these are setup bugs, not recoverable runtime states"
)]

use crate::pool::WorkerPool;
use crate::zap::{CrowdZap, ZapBatch, ZapSchedule};
use fss_gossip::directory::{sample_neighbours, select_movers};
use fss_gossip::{
    AdmissionScratch, GossipConfig, SegmentScheduler, StreamingSystem, TrafficCounters,
};
use fss_metrics::{
    AdmissionSummary, DepthWindow, MemSummary, QoeWindow, QuantileSketch, Scorecard, Timeline,
    ZapLoadSummary, ZapSummary,
};
use fss_overlay::{
    BandwidthConfig, ChurnModel, NetworkConfig, OverlayBuilder, OverlayConfig, PeerAttrs, PeerId,
};
use fss_sim::exec::DisjointSlots;
use fss_trace::{GeneratorConfig, TraceGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// Configuration of a multi-channel session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Number of concurrent channels (independent streaming systems).
    pub channels: usize,
    /// Overlay size of each channel at start-up.
    pub viewers_per_channel: usize,
    /// Fraction of each channel's viewers zapping away per period (the
    /// background rate of the default workload).
    pub zap_fraction: f64,
    /// Neighbours a zapping viewer attaches to in its target channel
    /// (the paper's `M`).
    pub zap_degree: usize,
    /// Minimum neighbour count maintained inside each channel.
    pub min_degree: usize,
    /// Master seed; every channel derives its own trace/overlay/zap streams.
    pub seed: u64,
    /// Protocol parameters shared by all channels.
    pub gossip: GossipConfig,
    /// Membership-directory admission control (the rate-limited join
    /// queue).  The default reproduces the legacy admit-everything-at-the-
    /// boundary behaviour exactly.
    pub admission: AdmissionControl,
    /// Optional message-level network model (latency / loss / jitter).
    /// `None` (the default) keeps the channels in period-lockstep stepping;
    /// `Some` installs an event-driven [`fss_gossip::NetworkModel`] per
    /// channel, with per-channel fault-stream seeds derived from the master
    /// seed.  The ideal configuration reproduces period-mode reports
    /// byte-for-byte (pinned by the golden-digest suite).
    pub network: Option<NetworkConfig>,
}

/// Admission-control knobs of the membership directory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionControl {
    /// Per-channel cap on zap arrivals admitted per period boundary.  `None`
    /// (the default) admits every arrival at its batch boundary — the
    /// legacy behaviour, byte-identical to the pre-directory runtime.
    /// `Some(k)` routes arrivals through a FIFO join queue drained at up to
    /// `k` per boundary, so flash crowds admit over several boundaries.
    pub max_admits_per_period: Option<usize>,
}

impl AdmissionControl {
    /// The legacy behaviour: unlimited admissions.
    pub fn unlimited() -> Self {
        AdmissionControl {
            max_admits_per_period: None,
        }
    }

    /// Rate-limits admissions to `k` per channel per period boundary.
    pub fn rate_limited(k: usize) -> Self {
        AdmissionControl {
            max_admits_per_period: Some(k),
        }
    }
}

impl Default for AdmissionControl {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl SessionConfig {
    /// Paper-flavoured defaults: `M = 5`, 2 % of viewers zapping per period.
    pub fn paper_default(channels: usize, viewers_per_channel: usize) -> Self {
        SessionConfig {
            channels,
            viewers_per_channel,
            zap_fraction: 0.02,
            zap_degree: 5,
            min_degree: 5,
            seed: 0x5A50_0001,
            gossip: GossipConfig::paper_default(),
            admission: AdmissionControl::unlimited(),
            network: None,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels < 2 {
            return Err("a zapping session needs at least 2 channels".into());
        }
        if self.min_degree == 0 {
            return Err("min_degree must be at least 1".into());
        }
        if self.viewers_per_channel <= self.min_degree {
            return Err(format!(
                "{} viewers cannot sustain a minimum degree of {}",
                self.viewers_per_channel, self.min_degree
            ));
        }
        if !(0.0..=0.5).contains(&self.zap_fraction) || !self.zap_fraction.is_finite() {
            return Err(format!(
                "zap_fraction {} outside the sensible range [0, 0.5]",
                self.zap_fraction
            ));
        }
        if self.zap_degree == 0 {
            return Err("zap_degree must be positive".into());
        }
        if self.admission.max_admits_per_period == Some(0) {
            return Err("max_admits_per_period must be positive (use None to disable)".into());
        }
        if let Some(network) = self.network {
            network.validate(self.gossip.tau_secs)?;
        }
        self.gossip.validate().map_err(|e| e.to_string())
    }
}

/// The run-ahead bound of the session's pipeline.
///
/// The pipeline is the only way a session steps, so this enum has one
/// variant; it stays an enum (rather than a bare `u64`) because callers
/// outside this workspace, such as the benchmark harness, name
/// `SteppingMode::Pipelined { run_ahead }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteppingMode {
    /// Channels advance independently, pausing only at their own zap-batch
    /// boundaries and at the run-ahead bound.  `run_ahead: 1` is the
    /// lockstep schedule.
    Pipelined {
        /// Maximum periods any channel may run ahead of the slowest one
        /// (clamped to at least 1).  Bounds the live state divergence
        /// between channels without affecting any result.
        run_ahead: u64,
    },
}

impl SteppingMode {
    /// The pipelined mode with the default 8-period run-ahead bound.
    pub fn pipelined() -> Self {
        SteppingMode::Pipelined { run_ahead: 8 }
    }
}

/// A zap arrival still waiting for playback to start.
#[derive(Debug, Clone, Copy)]
struct PendingZap {
    viewer: PeerId,
    joined_period: u64,
}

/// A zap arrival waiting in a channel's rate-limited admission queue: its
/// attributes are fixed (drawn from the batch's RNG stream when it was
/// requested) but it is not yet an overlay member — its neighbour set is
/// sampled from the live directory view at admission time.
#[derive(Debug, Clone, Copy)]
struct QueuedArrival {
    attrs: PeerAttrs,
    /// Boundary at which the arrival asked to join (zap latency and
    /// admission delay are both measured from here).
    requested_period: u64,
}

/// One hosted channel: a streaming system plus its zap bookkeeping.  All
/// fields are channel-local, so a pool chunk may advance one channel (steps,
/// admission-queue drains, harvesting) without observing any other.
struct Channel {
    system: StreamingSystem,
    source: PeerId,
    /// Periods this channel has completed (its position in the pipeline).
    period: u64,
    zaps_in: usize,
    zaps_out: usize,
    /// Startup delays of completed zap arrivals into this channel, folded
    /// into an O(1)-memory streaming sketch (unit = the period length `τ`,
    /// so every whole-period delay lands exactly on the sketch grid and the
    /// derived summary is bitwise equal to the old per-event vector's).
    arrival_latencies: QuantileSketch,
    /// Arrivals that departed again (zap or churn) before their playback
    /// started — they never completed and never will, so they stay in the
    /// never-reached-playback side of the zap statistics.
    zaps_abandoned: usize,
    /// Arrivals whose playback has not started yet.
    pending: Vec<PendingZap>,

    // --- rate-limited admission (active when `admit_limit` is set) -------
    /// Per-boundary admission cap (`config.admission.max_admits_per_period`).
    admit_limit: Option<usize>,
    /// Neighbours sampled per admitted arrival (`config.zap_degree`).
    zap_degree: usize,
    /// FIFO of arrivals waiting for an admission slot.
    queue: VecDeque<QueuedArrival>,
    /// Channel-local RNG stream of queue-drain neighbour sampling — drains
    /// happen at deterministic channel-local boundaries, so the stream is
    /// identical for every run-ahead bound.
    admission_rng: SmallRng,
    /// Admission delays of every arrival admitted via the queue, including
    /// zero-delay same-boundary admissions, folded into a streaming sketch
    /// (unit = `τ`, same exactness argument as `arrival_latencies`).
    admission_delays: QuantileSketch,
    /// Admissions that waited at least one boundary in the queue — kept as
    /// an explicit counter because the sketch's bucket 0 conflates zero
    /// with sub-tick delays.
    deferred: usize,
    /// Deepest the queue has run.
    max_queue_depth: usize,
    /// Pooled buffers of the drain path.
    admit_scratch: AdmissionScratch,

    // --- streaming QoE telemetry (see `docs/observability.md`) -----------
    /// Bounded timeline of the channel's per-period QoE rows — one
    /// [`QoeWindow`] pushed per step, decimated 2× whenever the ring fills,
    /// so memory stays O([`TIMELINE_WINDOWS`]) for any run length.
    qoe_timeline: Timeline<QoeWindow>,
    /// Bounded timeline of the post-drain admission-queue depth, one gauge
    /// per boundary (zero while the limiter is off, keeping every
    /// channel's timeline shape-aligned for the report fold).
    depth_timeline: Timeline<DepthWindow>,
    /// Startup delays (first frame after joining), unit = `τ` — the exact
    /// sketch-grid argument of `arrival_latencies` applies.
    startup_delays: QuantileSketch,
    /// Completed stall-episode durations, unit = `τ`.
    stall_durations: QuantileSketch,
}

/// Windows kept per bounded telemetry timeline.  At 64 windows a run's
/// whole QoE history fits in a few KiB per channel; longer runs coarsen
/// (stride doubles) instead of growing.
const TIMELINE_WINDOWS: usize = 64;

/// The arrival-attribute draw shared by both admission branches of
/// `apply_batch` — the arrival population (ping, bandwidth) must not depend
/// on whether admissions are rate-limited.
fn draw_zap_attrs(bandwidth: BandwidthConfig, rng: &mut SmallRng) -> PeerAttrs {
    PeerAttrs {
        ping_ms: 80.0 * rng.gen_range(0.5..2.0),
        bandwidth: bandwidth.sample_peer(rng),
    }
}

/// The admission tail shared by the immediate zap path and the queue drain:
/// for each of `count` arrivals, samples a neighbour set from `system`'s
/// live member view and obtains the arrival's `(attrs, request period)`
/// from `next` — in that order, so the immediate path's per-arrival RNG
/// stream (neighbours, then attributes) is preserved — then admits the
/// whole group through one batched membership repair and registers its
/// pending-zap tracking.  The admitted ids and request stamps stay in
/// `scratch` for the caller's accounting.
fn admit_arrivals(
    system: &mut StreamingSystem,
    pending: &mut Vec<PendingZap>,
    scratch: &mut AdmissionScratch,
    zap_degree: usize,
    count: usize,
    rng: &mut SmallRng,
    mut next: impl FnMut(&mut SmallRng) -> (PeerAttrs, u64),
) {
    let degree = zap_degree.min(system.membership_view().len());
    for _ in 0..count {
        sample_neighbours(system.membership_view(), degree, rng, scratch);
        let (attrs, requested_period) = next(rng);
        scratch.attrs.push(attrs);
        scratch.requested.push(requested_period);
    }
    let AdmissionScratch {
        attrs,
        neighbours,
        requested,
        admitted,
        ..
    } = scratch;
    system
        .admit_batch(attrs, neighbours, degree, admitted)
        .expect("zap arrivals join an active channel");
    for (i, &viewer) in admitted.iter().enumerate() {
        pending.push(PendingZap {
            viewer,
            joined_period: requested[i],
        });
    }
}

impl Channel {
    /// Advances the channel to `target` periods, draining its admission
    /// queue at every boundary and harvesting zap latencies after every
    /// step.  Channel-local: safe to run as a pool chunk.
    fn advance_to(&mut self, target: u64, tau: f64) {
        while self.period < target {
            self.drain_admissions(tau);
            self.depth_timeline.push(DepthWindow::from_depth(
                self.period,
                self.queue.len() as u64,
            ));
            self.system.advance();
            self.period += 1;
            self.harvest(tau);
            self.harvest_qoe(tau);
        }
    }

    /// Admits up to `admit_limit` queued arrivals at the current boundary:
    /// neighbour sets are sampled from the live directory view with the
    /// channel's own RNG stream, the group is admitted through one batched
    /// membership repair, and each arrival's admission delay (request
    /// boundary → now) is recorded.  A no-op unless rate limiting is on.
    fn drain_admissions(&mut self, tau: f64) {
        let Some(limit) = self.admit_limit else {
            return;
        };
        let boundary = self.period;
        let take = limit.min(self.queue.len());
        if take > 0 {
            let scratch = &mut self.admit_scratch;
            scratch.clear();
            let queue = &mut self.queue;
            admit_arrivals(
                &mut self.system,
                &mut self.pending,
                scratch,
                self.zap_degree,
                take,
                &mut self.admission_rng,
                |_| {
                    let arrival = queue.pop_front().expect("take <= queue length");
                    (arrival.attrs, arrival.requested_period)
                },
            );
            for &requested in &scratch.requested {
                let delay = (boundary - requested) as f64 * tau;
                if delay > 0.0 {
                    self.deferred += 1;
                }
                self.admission_delays.record(delay);
            }
        }
    }

    /// Completes pending zaps whose playback has started and retires
    /// arrivals that departed again (zap or churn) before starting.
    fn harvest(&mut self, tau: f64) {
        let now = self.period;
        let system = &self.system;
        let latencies = &mut self.arrival_latencies;
        let abandoned = &mut self.zaps_abandoned;
        self.pending.retain(|zap| {
            if !system.overlay().graph().is_active(zap.viewer) {
                *abandoned += 1;
                return false;
            }
            if system.peer(zap.viewer).playback().has_started() {
                latencies.record((now - zap.joined_period) as f64 * tau);
                return false;
            }
            true
        });
    }

    /// Folds the period's QoE row (published by the gossip recorder during
    /// the step just taken) into the channel's bounded timeline and streams
    /// the period's startup / stall-duration events into the sketches.
    /// Channel-local and allocation-free in steady state.
    fn harvest_qoe(&mut self, tau: f64) {
        let recorder = self.system.qoe();
        if let Some(sample) = recorder.latest() {
            self.qoe_timeline.push(QoeWindow::from_sample(sample));
        }
        for &delay in recorder.startup_delays_periods() {
            self.startup_delays.record(delay as f64 * tau);
        }
        for &duration in recorder.stall_durations_periods() {
            self.stall_durations.record(duration as f64 * tau);
        }
    }
}

/// A batch emitted by the schedule, tagged with its global emission index
/// (the seed of its resolution RNG stream).
#[derive(Debug, Clone, Copy)]
struct PlannedBatch {
    batch: ZapBatch,
    index: u64,
}

/// Per-channel slice of the [`RuntimeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelReport {
    /// Channel index.
    pub channel: usize,
    /// Active viewers (including the source) at report time.
    pub viewers: usize,
    /// Scheduling periods this channel executed.
    pub periods: u64,
    /// Total traffic of the channel's run.
    pub traffic: TrafficCounters,
    /// Zap arrivals into this channel.
    pub zaps_in: usize,
    /// Zap departures out of this channel.
    pub zaps_out: usize,
    /// Startup delays of arrivals into this channel.
    pub zap_latency: ZapSummary,
}

/// Aggregated outcome of a multi-channel zapping run.
///
/// Deterministic: identical bytes for every worker-pool size **and** every
/// run-ahead bound (asserted by the test-suite), so reports can be diffed
/// across hardware and execution strategies.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Periods driven through every channel.
    pub periods: u64,
    /// Label of the zap workload that drove the run (e.g. `"zipf(1.2)"`).
    pub workload: String,
    /// Per-channel breakdown, in channel order.
    pub channels: Vec<ChannelReport>,
    /// Zap latency aggregated across all channels.
    pub cross_channel_zaps: ZapSummary,
    /// How zap arrivals are distributed over channels (the popularity skew
    /// actually realised by the workload).
    pub zap_load: ZapLoadSummary,
    /// Per-peer memory footprint aggregated across all channels (active
    /// peers' protocol state — a pure function of the simulated history,
    /// so it cannot break run-ahead/pool-size report equivalence).
    pub mem: MemSummary,
    /// Membership-directory admission metrics: queue depth and the
    /// admission-delay distribution.  Structurally zero when
    /// admission control is off (the default).
    pub admission: AdmissionSummary,
    /// Bounded QoE timeline folded across all channels in channel order:
    /// startups, stall episodes, continuity and switch progress per window
    /// (empty when QoE recording is disabled).
    pub qoe_timeline: Timeline<QoeWindow>,
    /// Bounded post-drain admission-queue depth timeline, folded across
    /// channels (all-zero windows while the limiter is off).
    pub queue_depth: Timeline<DepthWindow>,
    /// The run's scalar QoE scorecard — the diffable summary the
    /// experiment harness compares across configurations.
    pub scorecard: Scorecard,
}

impl RuntimeReport {
    /// Total zap arrivals observed across all channels.
    pub fn total_zaps(&self) -> usize {
        self.cross_channel_zaps.zaps()
    }
}

/// Hosts `N` concurrent channels on a persistent [`WorkerPool`] and drives
/// a schedule-defined viewer-zapping workload through the pairwise
/// pipeline.  See the module docs.
pub struct SessionManager {
    config: SessionConfig,
    pool: Arc<WorkerPool>,
    channels: Vec<Channel>,
    schedule: Box<dyn ZapSchedule>,
    /// Set once the schedule has been consulted; workload swaps are only
    /// allowed before that.
    schedule_consulted: bool,
    mode: SteppingMode,
    /// Bandwidth distribution for zap arrivals (same as churn joiners).
    bandwidth: BandwidthConfig,
    /// Completed session periods (every channel has reached this).
    period: u64,
    /// Global zap-batch emission counter (seeds per-batch RNG streams).
    batch_counter: u64,
    /// Pooled zap-batch resolution buffers — batches are applied serially
    /// on the manager thread, so one scratch serves every channel pair.
    zap_scratch: AdmissionScratch,
    /// Pooled list of a batch's same-boundary arrivals into its origin
    /// channel, ascending: the viewers that cannot zap away again yet.
    zap_arrived: Vec<PeerId>,
}

impl SessionManager {
    /// Builds the channels and starts each channel's initial source, with
    /// the uniform zap workload ([`CrowdZap::uniform`]) and
    /// [`SteppingMode::pipelined`] installed by default (see
    /// [`set_zap_schedule`](Self::set_zap_schedule) /
    /// [`set_mode`](Self::set_mode)).
    ///
    /// `scheduler` instantiates one scheduling policy per channel (e.g.
    /// `|| Box::new(FastSwitchScheduler::new())`).
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new<F>(config: SessionConfig, pool: Arc<WorkerPool>, mut scheduler: F) -> Self
    where
        F: FnMut() -> Box<dyn SegmentScheduler>,
    {
        config
            .validate()
            .expect("valid multi-channel session configuration");
        let tau = config.gossip.tau_secs;
        let channels = (0..config.channels)
            .map(|c| {
                let channel_seed = Self::channel_seed(config.seed, c);
                let trace = TraceGenerator::new(GeneratorConfig::sized(
                    config.viewers_per_channel,
                    channel_seed,
                ))
                .generate(format!("channel-{c}"));
                let overlay_config = OverlayConfig {
                    min_degree: config.min_degree,
                    seed: channel_seed ^ 0x00C4_A11E,
                    ..OverlayConfig::default()
                };
                let overlay = OverlayBuilder::new(overlay_config)
                    .expect("valid overlay config")
                    .build(&trace)
                    .expect("channel overlay construction");
                let source = overlay.active_peers().next().expect("non-empty channel");
                let mut system = StreamingSystem::new(overlay, config.gossip, scheduler());
                system.set_executor(pool.as_executor());
                if let Some(network) = config.network {
                    // Every channel gets its own fault streams; an ideal
                    // model stays ideal whatever the seed.
                    system
                        .set_network(network.with_seed(network.seed ^ channel_seed ^ 0x00FA_0175));
                }
                system.start_initial_source(source);
                Channel {
                    system,
                    source,
                    period: 0,
                    zaps_in: 0,
                    zaps_out: 0,
                    arrival_latencies: QuantileSketch::new(tau),
                    zaps_abandoned: 0,
                    pending: Vec::new(),
                    admit_limit: config.admission.max_admits_per_period,
                    zap_degree: config.zap_degree,
                    queue: VecDeque::new(),
                    admission_rng: SmallRng::seed_from_u64(channel_seed ^ 0x0AD3_170A),
                    admission_delays: QuantileSketch::new(tau),
                    deferred: 0,
                    max_queue_depth: 0,
                    admit_scratch: AdmissionScratch::default(),
                    qoe_timeline: Timeline::new(TIMELINE_WINDOWS),
                    depth_timeline: Timeline::new(TIMELINE_WINDOWS),
                    startup_delays: QuantileSketch::new(tau),
                    stall_durations: QuantileSketch::new(tau),
                }
            })
            .collect();
        SessionManager {
            schedule: Box::new(CrowdZap::uniform(
                config.channels,
                config.viewers_per_channel,
                config.zap_fraction,
                config.seed,
            )),
            schedule_consulted: false,
            mode: SteppingMode::pipelined(),
            bandwidth: BandwidthConfig::default(),
            config,
            pool,
            channels,
            period: 0,
            batch_counter: 0,
            zap_scratch: AdmissionScratch::default(),
            zap_arrived: Vec::new(),
        }
    }

    /// Golden-ratio stride keeps per-channel seed streams apart.
    fn channel_seed(seed: u64, channel: usize) -> u64 {
        seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(channel as u64 + 1))
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The pool the channels are sharded over.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Number of hosted channels.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Periods driven so far.
    pub fn periods(&self) -> u64 {
        self.period
    }

    /// Sets the pipeline's run-ahead bound.  May be changed at any time;
    /// the bound cannot influence any result (asserted by the test-suite),
    /// only the execution schedule.
    pub fn set_mode(&mut self, mode: SteppingMode) {
        self.mode = mode;
    }

    /// Replaces the zap schedule with an arbitrary implementation.
    ///
    /// # Panics
    /// Panics if measured periods have already consulted the old schedule.
    pub fn set_zap_schedule(&mut self, schedule: Box<dyn ZapSchedule>) {
        assert!(
            !self.schedule_consulted,
            "the zap schedule must be installed before any measured period runs"
        );
        self.schedule = schedule;
    }

    /// Enables per-channel churn (paper-default rates), each channel with
    /// its own deterministic stream derived from `salt`.  Churn is
    /// channel-local, so it cannot affect run-ahead equivalence.
    pub fn enable_channel_churn(&mut self, salt: u64) {
        let seed = self.config.seed;
        for (index, channel) in self.channels.iter_mut().enumerate() {
            let churn_seed = Self::channel_seed(seed, index) ^ salt ^ 0x0C4_112E;
            channel
                .system
                .set_churn(ChurnModel::paper_default(churn_seed));
        }
    }

    /// Read access to one channel's streaming system.
    pub fn channel_system(&self, channel: usize) -> &StreamingSystem {
        &self.channels[channel].system
    }

    /// Reshards every channel's peer store into (approximately) `shards`
    /// struct-of-arrays shards, which become the chunk unit of each
    /// channel's internal scheduling pass.  Byte-identical reports for every
    /// shard count (asserted by the test-suite).
    pub fn set_shards(&mut self, shards: usize) {
        for channel in &mut self.channels {
            channel.system.set_shards(shards);
        }
    }

    /// Runs `n` warm-up periods with the zapping workload disabled, letting
    /// every channel reach steady playback first.  This is the pipeline
    /// over an empty plan with no run-ahead bound, so every channel
    /// advances in one pool job; the zap schedule is never consulted.
    pub fn warmup(&mut self, n: u64) {
        self.run_pipeline(self.period + n, u64::MAX, &[]);
    }

    /// Runs one measured period (zap batches, stepping, harvesting).
    pub fn step(&mut self) {
        self.run_periods(1);
    }

    /// Runs `n` measured periods through the pipeline.
    pub fn run_periods(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let horizon = self.period + n;
        let plan = self.plan_batches(horizon);
        let SteppingMode::Pipelined { run_ahead } = self.mode;
        self.run_pipeline(horizon, run_ahead, &plan);
    }

    /// Builds the aggregated report.
    pub fn report(&self) -> RuntimeReport {
        let channels: Vec<ChannelReport> = self
            .channels
            .iter()
            .enumerate()
            .map(|(index, channel)| {
                // "Pending" covers every arrival that never reached
                // playback: still waiting (in the overlay or in the
                // admission queue), or departed again first (abandoned) —
                // so `zaps_in == zap_latency.zaps()` and the completion
                // rate honestly penalizes failed zaps.
                let unresolved =
                    channel.pending.len() + channel.zaps_abandoned + channel.queue.len();
                ChannelReport {
                    channel: index,
                    viewers: channel.system.overlay().active_count(),
                    periods: channel.system.periods(),
                    traffic: channel.system.traffic_total(),
                    zaps_in: channel.zaps_in,
                    zaps_out: channel.zaps_out,
                    zap_latency: ZapSummary::from_sketch(&channel.arrival_latencies, unresolved),
                }
            })
            .collect();
        // Cross-channel aggregate: merge the per-channel sketches in channel
        // order.  The merge is an elementwise counter sum — exactly
        // associative — so this equals one sketch fed every event.
        let tau = self.config.gossip.tau_secs;
        let mut all = QuantileSketch::new(tau);
        let mut unresolved = 0;
        for channel in &self.channels {
            all.merge_from(&channel.arrival_latencies);
            unresolved += channel.pending.len() + channel.zaps_abandoned + channel.queue.len();
        }
        let arrivals: Vec<usize> = self.channels.iter().map(|c| c.zaps_in).collect();
        let usages: Vec<fss_gossip::MemUsage> = self
            .channels
            .iter()
            .map(|c| c.system.memory_usage())
            .collect();
        let (admission, admission_p95_delay_secs) =
            if self.config.admission.max_admits_per_period.is_some() {
                let mut delays = QuantileSketch::new(tau);
                let mut deferred = 0;
                let mut still_queued = 0;
                let mut max_queue_depth = 0;
                for channel in &self.channels {
                    delays.merge_from(&channel.admission_delays);
                    deferred += channel.deferred;
                    still_queued += channel.queue.len();
                    max_queue_depth = max_queue_depth.max(channel.max_queue_depth);
                }
                let p95 = if delays.is_empty() {
                    0.0
                } else {
                    delays.quantile(0.95)
                };
                (
                    AdmissionSummary::from_sketch(
                        true,
                        &delays,
                        deferred,
                        still_queued,
                        max_queue_depth,
                    ),
                    p95,
                )
            } else {
                let admitted: usize = self.channels.iter().map(|c| c.zaps_in).sum();
                (AdmissionSummary::pass_through(admitted), 0.0)
            };
        // Telemetry fold: every channel runs the same periods, so the
        // per-channel timelines share one shape and fold window-by-window
        // in channel order — an elementwise counter sum, exactly
        // associative, hence byte-identical for every run-ahead bound, pool
        // size and shard count (asserted by the test-suite).
        let mut qoe_timeline = Timeline::new(TIMELINE_WINDOWS);
        let mut queue_depth = Timeline::new(TIMELINE_WINDOWS);
        let mut startup_delays = QuantileSketch::new(tau);
        let mut stall_durations = QuantileSketch::new(tau);
        for (index, channel) in self.channels.iter().enumerate() {
            if index == 0 {
                qoe_timeline = channel.qoe_timeline.clone();
                queue_depth = channel.depth_timeline.clone();
            } else {
                qoe_timeline.fold_channel(&channel.qoe_timeline);
                queue_depth.fold_channel(&channel.depth_timeline);
            }
            startup_delays.merge_from(&channel.startup_delays);
            stall_durations.merge_from(&channel.stall_durations);
        }
        let cross_channel_zaps = ZapSummary::from_sketch(&all, unresolved);
        let viewers: usize = channels.iter().map(|c| c.viewers).sum();
        let scorecard = Scorecard::from_observations(
            self.period,
            viewers as u64,
            &startup_delays,
            &stall_durations,
            &qoe_timeline,
            &queue_depth,
            cross_channel_zaps.p95_startup_secs,
            admission_p95_delay_secs,
            tau,
        );
        RuntimeReport {
            periods: self.period,
            workload: self.schedule.name(),
            channels,
            cross_channel_zaps,
            zap_load: ZapLoadSummary::from_arrivals(&arrivals),
            mem: MemSummary::from_usages(&usages),
            admission,
            qoe_timeline,
            queue_depth,
            scorecard,
        }
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Asks the schedule for every batch in `[self.period, horizon)`,
    /// tagging each with its global emission index.
    fn plan_batches(&mut self, horizon: u64) -> Vec<PlannedBatch> {
        self.schedule_consulted = true;
        let mut plan = Vec::new();
        let mut raw = Vec::new();
        for period in self.period..horizon {
            raw.clear();
            self.schedule.batches_at(period, &mut raw);
            for batch in &raw {
                assert!(
                    batch.period == period
                        && batch.from != batch.to
                        && batch.from < self.channels.len()
                        && batch.to < self.channels.len()
                        && batch.viewers > 0,
                    "schedule emitted an invalid batch {batch:?} at period {period}"
                );
                plan.push(PlannedBatch {
                    batch: *batch,
                    index: self.batch_counter,
                });
                self.batch_counter += 1;
            }
        }
        plan
    }

    /// Dependency-tracked pipeline up to `horizon`.  Each round first
    /// applies every batch whose two endpoints are parked at its boundary
    /// with it as their next batch, to fixpoint (one application can
    /// unblock the next at the same boundary); then every channel advances
    /// on the pool to the nearest of (its next batch boundary, the
    /// run-ahead bound, the horizon).  No global barrier — a batch
    /// synchronises exactly its two channels.  `run_ahead: 1` is the
    /// lockstep schedule: one dispatch per period.
    fn run_pipeline(&mut self, horizon: u64, run_ahead: u64, plan: &[PlannedBatch]) {
        let run_ahead = run_ahead.max(1);
        let tau = self.config.gossip.tau_secs;
        let n = self.channels.len();

        // Per-channel ordered involvement lists over the plan.  A batch is
        // applied only while it is the next batch of both endpoints, so a
        // channel's applied batches are always a prefix of its list and
        // `cursor[c]` indexes its next batch.
        let mut involvement: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, planned) in plan.iter().enumerate() {
            involvement[planned.batch.from].push(i);
            involvement[planned.batch.to].push(i);
        }
        let mut cursor = vec![0usize; n];
        let next = |cursor: &[usize], c: usize| involvement[c].get(cursor[c]).copied();

        loop {
            // 1. Apply every ready batch, to fixpoint.
            let mut applied_any = false;
            loop {
                let mut progressed = false;
                for c in 0..n {
                    while let Some(i) = next(&cursor, c) {
                        let planned = plan[i];
                        let (from, to) = (planned.batch.from, planned.batch.to);
                        let ready = [from, to].iter().all(|&e| {
                            self.channels[e].period == planned.batch.period
                                && next(&cursor, e) == Some(i)
                        });
                        if !ready {
                            break;
                        }
                        self.apply_batch(planned);
                        cursor[from] += 1;
                        cursor[to] += 1;
                        progressed = true;
                        applied_any = true;
                    }
                }
                if !progressed {
                    break;
                }
            }

            let min_period = self
                .channels
                .iter()
                .map(|c| c.period)
                .min()
                .expect("at least one channel");
            if min_period == horizon {
                break;
            }

            // 2. Per-channel advance limits: next sync point, run-ahead
            //    bound, horizon — whichever is nearest.
            let cap = min_period.saturating_add(run_ahead).min(horizon);
            let limits: Vec<u64> = (0..n)
                .map(|c| {
                    let sync = next(&cursor, c).map_or(horizon, |i| plan[i].batch.period);
                    sync.min(cap).max(self.channels[c].period)
                })
                .collect();

            // 3. Advance the channels that can move, concurrently.  The
            //    dispatch is compacted to those channels only, so a round
            //    that unblocks a single straggler runs it in-line instead
            //    of waking the whole pool.
            let advancing: Vec<usize> = (0..n)
                .filter(|&c| limits[c] > self.channels[c].period)
                .collect();
            assert!(
                !advancing.is_empty() || applied_any,
                "pipelined scheduler stalled before the horizon (min period \
                 {min_period} of {horizon})"
            );
            if !advancing.is_empty() {
                let limits = &limits[..];
                let advancing = &advancing[..];
                let slots = DisjointSlots::new(&mut self.channels[..]);
                self.pool.execute(advancing.len(), &|chunk: usize| {
                    let c = advancing[chunk];
                    // SAFETY: the advancing list holds distinct channel
                    // indices, so each slot is borrowed by exactly one
                    // chunk.
                    let channel = unsafe { slots.slot(c) };
                    channel.advance_to(limits[c], tau);
                });
            }
        }
        self.period = horizon;
    }

    /// Resolves and applies one zap batch through the membership directory:
    /// picks the concrete viewers from the origin channel's view, departs
    /// them (one batched membership repair), then either admits them into
    /// the target channel immediately (ditto) or enqueues them on its
    /// rate-limited admission queue.  All randomness comes from the batch's
    /// own RNG stream, so the outcome depends only on the two endpoint
    /// channels' states at the shared boundary.
    ///
    /// Allocation-free in steady state: every buffer lives in the pooled
    /// [`AdmissionScratch`] (enforced by `fss-bench`'s counting-allocator
    /// test `steady_state_zap_batch_resolution_does_not_allocate`), and the
    /// directory's incremental views replace the per-batch `active_peers()`
    /// collections of the pre-directory runtime.
    fn apply_batch(&mut self, planned: PlannedBatch) {
        let ZapBatch {
            period,
            from,
            to,
            viewers,
        } = planned.batch;
        let zap_degree = self.config.zap_degree;
        let bandwidth = self.bandwidth;
        let mut rng = SmallRng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(planned.index + 1))
                ^ 0x0BA7_0CAD,
        );
        let scratch = &mut self.zap_scratch;
        scratch.clear();
        let (origin, target) = pair_mut(&mut self.channels, from, to);

        // Departures: any member except the source and same-boundary
        // arrivals (a viewer cannot zap twice at one boundary).  The
        // pipeline also enforces the live survival floor, mirroring the
        // schedule's modelled MIN_CHANNEL_POPULATION (source + 1): the
        // schedule plans against its own population model, but concurrent
        // churn, clamped earlier batches or a custom `ZapSchedule` can
        // leave the live channel smaller than modelled — and a plan-sized
        // take would then drain it to source-only membership.
        let arrived = &mut self.zap_arrived;
        arrived.clear();
        arrived.extend(
            origin
                .pending
                .iter()
                .filter(|zap| zap.joined_period == period)
                .map(|zap| zap.viewer),
        );
        arrived.sort_unstable();
        select_movers(
            origin.system.membership_view(),
            origin.source,
            arrived,
            viewers,
            &mut rng,
            scratch,
        );
        if scratch.movers.is_empty() {
            return;
        }
        origin
            .system
            .depart_batch(&scratch.movers)
            .expect("zapping viewers are active non-sources");
        origin.zaps_out += scratch.movers.len();
        let mover_count = scratch.movers.len();

        if target.admit_limit.is_none() {
            // Immediate admission (the default): attach each arrival to
            // `zap_degree` random members of the target channel's view and
            // follow their playback steps (the churn-join rule).  The view's
            // candidate list is frozen for the whole batch — arrivals do not
            // neighbour each other — because admission happens after every
            // neighbour set is sampled.
            admit_arrivals(
                &mut target.system,
                &mut target.pending,
                scratch,
                zap_degree,
                mover_count,
                &mut rng,
                |rng| (draw_zap_attrs(bandwidth, rng), period),
            );
            target.zaps_in += scratch.admitted.len();
        } else {
            // Rate-limited admission: the arrival's identity (attributes) is
            // fixed from the batch stream now, but it only becomes a member
            // when the target channel's queue drain grants it a slot — its
            // neighbour set is sampled *then*, from the then-live view.
            for _ in 0..mover_count {
                target.queue.push_back(QueuedArrival {
                    attrs: draw_zap_attrs(bandwidth, &mut rng),
                    requested_period: period,
                });
            }
            target.zaps_in += mover_count;
            target.max_queue_depth = target.max_queue_depth.max(target.queue.len());
        }
    }
}

/// Distinct mutable borrows of two channels.
fn pair_mut(channels: &mut [Channel], a: usize, b: usize) -> (&mut Channel, &mut Channel) {
    assert_ne!(a, b, "a zap batch needs two distinct channels");
    if a < b {
        let (lo, hi) = channels.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = channels.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zap::{CrowdZap, Storm};
    use fss_core::FastSwitchScheduler;

    /// The lockstep oracle the pipeline is compared against: at every
    /// boundary up to `horizon`, apply the boundary's batches in plan
    /// order, then step every channel one period, serially on the calling
    /// thread.
    fn lockstep_to(m: &mut SessionManager, horizon: u64, plan: &[PlannedBatch]) {
        let tau = m.config.gossip.tau_secs;
        let mut cursor = 0;
        for period in m.period..horizon {
            while cursor < plan.len() && plan[cursor].batch.period == period {
                m.apply_batch(plan[cursor]);
                cursor += 1;
            }
            for channel in &mut m.channels {
                channel.advance_to(period + 1, tau);
            }
        }
        m.period = horizon;
    }

    /// `warmup` periods without zaps, then `measured` periods of the
    /// schedule, all through the lockstep oracle.
    fn run_lockstep(m: &mut SessionManager, warmup: u64, measured: u64) {
        lockstep_to(m, m.period + warmup, &[]);
        let horizon = m.period + measured;
        let plan = m.plan_batches(horizon);
        lockstep_to(m, horizon, &plan);
    }

    fn manager(workers: usize, channels: usize, seed: u64) -> SessionManager {
        let config = SessionConfig {
            seed,
            ..SessionConfig::paper_default(channels, 40)
        };
        SessionManager::new(config, Arc::new(WorkerPool::new(workers)), || {
            Box::new(FastSwitchScheduler::new())
        })
    }

    #[test]
    fn zapping_session_runs_end_to_end() {
        let mut m = manager(2, 4, 7);
        assert_eq!(m.channels(), 4);
        m.warmup(30);
        m.run_periods(40);
        assert_eq!(m.periods(), 70);

        let report = m.report();
        assert_eq!(report.channels.len(), 4);
        assert_eq!(report.workload, "uniform");
        assert!(report.total_zaps() > 0, "no zaps happened");
        assert!(
            report.cross_channel_zaps.completed > 0,
            "no zap reached playback"
        );
        assert!(report.cross_channel_zaps.avg_startup_secs > 0.0);
        let zaps_in: usize = report.channels.iter().map(|c| c.zaps_in).sum();
        let zaps_out: usize = report.channels.iter().map(|c| c.zaps_out).sum();
        assert_eq!(zaps_in, zaps_out, "viewership must be conserved");
        // Every arrival is accounted for: completed, still waiting, or
        // abandoned (departed again before playback started).
        for c in &report.channels {
            assert_eq!(
                c.zaps_in,
                c.zap_latency.zaps(),
                "channel {} loses zaps from its statistics",
                c.channel
            );
        }
        assert_eq!(report.total_zaps(), zaps_in);
        assert_eq!(report.zap_load.total_arrivals, zaps_in);
        // Zapping moves viewers between channels and never creates or
        // drops one: the population is the 4 × 40 it was built with.
        let viewers: usize = report.channels.iter().map(|c| c.viewers).sum();
        assert_eq!(viewers, 4 * 40, "population must be conserved");
        // Every channel keeps streaming throughout.
        for c in &report.channels {
            assert_eq!(c.periods, 70);
            assert!(c.traffic.data_bits > 0);
            assert!(c.viewers > 5);
        }
    }

    #[test]
    fn report_is_identical_across_pool_sizes() {
        let run = |workers: usize| {
            let mut m = manager(workers, 4, 11);
            m.warmup(25);
            m.run_periods(30);
            m.report()
        };
        let reference = run(1);
        for workers in [2, 4, 7] {
            assert_eq!(run(workers), reference, "workers = {workers}");
        }
    }

    /// The pipeline's invariant: any run-ahead bound on any pool size
    /// produces a byte-identical report to the lockstep oracle, under
    /// per-channel churn AND a Zipf workload with flash-crowd storms.
    #[test]
    fn pipelined_matches_barrier_under_churn_and_storms() {
        let run = |workers: usize, run_ahead: Option<u64>| {
            let mut m = manager(workers, 5, 13);
            m.set_zap_schedule(Box::new(CrowdZap::zipf(5, 40, 0.03, 1.2, 13).with_storms(
                vec![
                    Storm {
                        at: 30,
                        target: 2,
                        size: 25,
                    },
                    Storm {
                        at: 45,
                        target: 0,
                        size: 30,
                    },
                ],
            )));
            m.enable_channel_churn(5);
            match run_ahead {
                Some(run_ahead) => {
                    m.set_mode(SteppingMode::Pipelined { run_ahead });
                    m.warmup(25);
                    m.run_periods(35);
                }
                None => run_lockstep(&mut m, 25, 35),
            }
            m.report()
        };
        let reference = run(1, None);
        assert!(reference.total_zaps() > 0);
        assert!(reference.cross_channel_zaps.completed > 0);
        for workers in [1, 2, 4, 7] {
            for run_ahead in [1, 4, 8] {
                assert_eq!(
                    run(workers, Some(run_ahead)),
                    reference,
                    "workers = {workers}, run_ahead = {run_ahead}"
                );
            }
        }
    }

    /// Apply-first rounds never dispatch more than lockstep: with the
    /// batches applied before the channels advance, a measured period costs
    /// at most one pool dispatch for every run-ahead bound, and a longer
    /// run lets sparse-zap channels run ahead in fewer dispatches.
    #[test]
    fn apply_first_rounds_never_dispatch_more_than_lockstep() {
        // Pool dispatches of `run` on a warmed-up 8 x 50 Zipf(1.0) session.
        let dispatches = |zap_fraction: f64, run_ahead: u64, run: &dyn Fn(&mut SessionManager)| {
            let config = SessionConfig {
                zap_fraction,
                ..SessionConfig::paper_default(8, 50)
            };
            let mut m = SessionManager::new(config, Arc::new(WorkerPool::new(2)), || {
                Box::new(FastSwitchScheduler::new())
            });
            m.set_zap_schedule(Box::new(CrowdZap::zipf(
                config.channels,
                config.viewers_per_channel,
                config.zap_fraction,
                1.0,
                config.seed,
            )));
            m.set_mode(SteppingMode::Pipelined { run_ahead });
            m.warmup(40);
            let before = m.pool().dispatches();
            run(&mut m);
            m.pool().dispatches() - before
        };
        let steps = |m: &mut SessionManager| (0..40).for_each(|_| m.step());
        let periods = |m: &mut SessionManager| m.run_periods(40);
        for zap_fraction in [0.005, 0.02] {
            for run_ahead in [1, 8] {
                let stepped = dispatches(zap_fraction, run_ahead, &steps);
                let run = dispatches(zap_fraction, run_ahead, &periods);
                assert!(
                    stepped <= 40 && run <= 40,
                    "zap rate {zap_fraction}, run_ahead {run_ahead}: 40 steps cost \
                     {stepped} dispatches, run_periods(40) {run}"
                );
            }
        }
        let sparse = dispatches(0.005, 8, &periods);
        assert!(
            sparse <= 25,
            "sparse zaps, run_ahead 8: {sparse} dispatches"
        );
    }

    /// A storm shows up as arrival skew: the target channel dominates.
    #[test]
    fn flash_crowd_concentrates_arrivals() {
        let mut m = manager(2, 4, 17);
        let c = *m.config();
        m.set_zap_schedule(Box::new(
            CrowdZap::uniform(c.channels, c.viewers_per_channel, c.zap_fraction, c.seed)
                .with_storms(vec![Storm {
                    at: 40,
                    target: 1,
                    size: 50,
                }]),
        ));
        m.warmup(30);
        m.run_periods(30);
        let report = m.report();
        assert_eq!(report.workload, "uniform+storms");
        let busiest = &report.channels[report.zap_load.busiest_channel];
        assert_eq!(busiest.channel, 1, "the storm target must be busiest");
        assert!(
            report.zap_load.busiest_share > 0.4,
            "storm share too small: {:?}",
            report.zap_load
        );
        assert!(report.zap_load.gini > 0.15);
    }

    /// Satellite audit (survival floor vs concurrent churn): the schedule's
    /// population model floors *modelled* channels at source + 1, but the
    /// live channel can be smaller than modelled (churn, clamped earlier
    /// batches, or a custom schedule that plans from stale data).  The
    /// session-level clamp must therefore enforce the floor on the *live*
    /// population: without it, this drain-everything schedule empties
    /// channel 0 to source-only membership at the first measured boundary.
    #[test]
    fn zap_batches_respect_the_live_survival_floor() {
        struct DrainEverything;
        impl ZapSchedule for DrainEverything {
            fn name(&self) -> String {
                "drain-everything".to_string()
            }
            fn batches_at(&mut self, period: u64, out: &mut Vec<ZapBatch>) {
                // Far more viewers than channel 0 will ever hold.
                out.push(ZapBatch {
                    period,
                    from: 0,
                    to: 1,
                    viewers: 1_000,
                });
            }
        }

        let mut m = manager(2, 3, 31);
        m.set_zap_schedule(Box::new(DrainEverything));
        m.enable_channel_churn(7);
        m.warmup(15);
        for step in 0..10 {
            m.step();
            for c in 0..m.channels() {
                assert!(
                    m.channel_system(c).overlay().active_count() >= 2,
                    "channel {c} drained below the survival floor at step {step}"
                );
            }
        }
        let report = m.report();
        // The drain really ran (almost the whole channel moved out)...
        assert!(report.channels[0].zaps_out > 30);
        // ...and the floored channel keeps streaming.
        assert!(report.channels[0].traffic.data_bits > 0);
        assert_eq!(report.periods, 25);
    }

    /// Determinism sweep: with the rate-limited admission queue active,
    /// under churn and a flash-crowd storm, reports (queue-depth timeline
    /// included) stay byte-identical to the lockstep oracle across pool
    /// sizes and run-ahead bounds — directory updates are the only
    /// cross-channel synchronisation points, and they happen at the same
    /// boundaries regardless of execution strategy.
    #[test]
    fn rate_limited_admission_is_deterministic_across_modes_and_pools() {
        let run = |workers: usize, run_ahead: Option<u64>| {
            let config = SessionConfig {
                seed: 29,
                admission: AdmissionControl::rate_limited(6),
                ..SessionConfig::paper_default(4, 40)
            };
            let mut m = SessionManager::new(config, Arc::new(WorkerPool::new(workers)), || {
                Box::new(FastSwitchScheduler::new())
            });
            m.set_zap_schedule(Box::new(CrowdZap::zipf(4, 40, 0.03, 1.1, 29).with_storms(
                vec![Storm {
                    at: 30,
                    target: 1,
                    size: 40,
                }],
            )));
            m.enable_channel_churn(3);
            match run_ahead {
                Some(run_ahead) => {
                    m.set_mode(SteppingMode::Pipelined { run_ahead });
                    m.warmup(25);
                    m.run_periods(30);
                }
                None => run_lockstep(&mut m, 25, 30),
            }
            m.report()
        };
        let reference = run(1, None);
        assert!(reference.admission.rate_limited);
        assert!(reference.total_zaps() > 0);
        assert!(reference.queue_depth.windows().any(|w| w.peak > 0));
        for workers in [1, 2, 4, 7] {
            for run_ahead in [1, 4, 8] {
                let report = run(workers, Some(run_ahead));
                assert_eq!(report, reference, "workers={workers} run_ahead={run_ahead}");
            }
        }
    }

    /// The queue semantics: a flash crowd larger than the per-boundary cap
    /// admits over several boundaries — deferred arrivals, a non-trivial
    /// queue-depth timeline, and admission delays in the summary — while
    /// every arrival is still accounted for in the zap statistics.
    #[test]
    fn admission_queue_spreads_a_flash_crowd_over_boundaries() {
        let run = |limit: Option<usize>| {
            let config = SessionConfig {
                seed: 33,
                admission: AdmissionControl {
                    max_admits_per_period: limit,
                },
                ..SessionConfig::paper_default(3, 50)
            };
            let mut m = SessionManager::new(config, Arc::new(WorkerPool::new(2)), || {
                Box::new(FastSwitchScheduler::new())
            });
            m.set_zap_schedule(Box::new(
                CrowdZap::uniform(
                    config.channels,
                    config.viewers_per_channel,
                    config.zap_fraction,
                    config.seed,
                )
                .with_storms(vec![Storm {
                    at: 25,
                    target: 1,
                    size: 60,
                }]),
            ));
            m.warmup(20);
            m.run_periods(30);
            m.report()
        };

        let unlimited = run(None);
        assert!(!unlimited.admission.rate_limited);
        assert_eq!(unlimited.admission.deferred, 0);
        assert_eq!(unlimited.admission.max_queue_depth, 0);
        assert!(
            unlimited.queue_depth.windows().all(|w| w.peak == 0),
            "no limiter, no queue"
        );

        let limited = run(Some(8));
        assert!(limited.admission.rate_limited);
        // Both runs observe the same storm...
        assert_eq!(limited.total_zaps(), unlimited.total_zaps());
        // ...but the limited one queues most of it at the storm boundary.
        assert!(
            limited.admission.max_queue_depth >= 40,
            "storm must overflow the 8-per-boundary cap: {:?}",
            limited.admission
        );
        assert!(limited.admission.deferred > 0);
        assert!(limited.admission.avg_delay_secs > 0.0);
        assert!(limited.admission.max_delay_secs >= limited.admission.p95_delay_secs);
        // The queue drains over the following boundaries and ends empty.
        assert_eq!(limited.admission.still_queued, 0);
        assert_eq!(limited.admission.admitted, limited.total_zaps());
        let timeline = &limited.queue_depth;
        let peak = timeline.windows().map(|w| w.peak).max().unwrap();
        assert!(peak >= 40);
        assert_eq!(
            timeline.windows().last().unwrap().last,
            0,
            "queue must fully drain"
        );
        // Accounting: every arrival is completed, pending or abandoned.
        for c in &limited.channels {
            assert_eq!(c.zaps_in, c.zap_latency.zaps());
        }
        // Deferred admission delays playback: the storm channel's zap
        // latency cannot beat the unlimited run's.
        assert!(
            limited.cross_channel_zaps.avg_startup_secs
                >= unlimited.cross_channel_zaps.avg_startup_secs - 1e-9
        );
        // A tighter cap drains the same storm more slowly: queued viewers
        // wait longer on average, and the longest wait cannot shrink.
        let tight = run(Some(2));
        assert!(
            tight.admission.avg_delay_secs > limited.admission.avg_delay_secs,
            "tight {:?} vs limited {:?}",
            tight.admission,
            limited.admission
        );
        assert!(tight.admission.max_delay_secs >= limited.admission.max_delay_secs);
    }

    /// A still-loaded queue at the horizon shows up as `still_queued` and
    /// keeps the zap accounting honest (queued arrivals are unresolved).
    #[test]
    fn arrivals_still_queued_at_the_horizon_stay_accounted() {
        let config = SessionConfig {
            seed: 41,
            admission: AdmissionControl::rate_limited(1),
            ..SessionConfig::paper_default(3, 40)
        };
        let mut m = SessionManager::new(config, Arc::new(WorkerPool::new(2)), || {
            Box::new(FastSwitchScheduler::new())
        });
        m.set_zap_schedule(Box::new(
            CrowdZap::uniform(
                config.channels,
                config.viewers_per_channel,
                config.zap_fraction,
                config.seed,
            )
            .with_storms(vec![Storm {
                at: 21,
                target: 0,
                size: 50,
            }]),
        ));
        m.warmup(20);
        m.run_periods(5);
        let report = m.report();
        assert!(report.admission.still_queued > 0);
        assert_eq!(
            report.admission.admitted + report.admission.still_queued,
            report.total_zaps(),
            "every requested arrival is a zap"
        );
        let zaps_in: usize = report.channels.iter().map(|c| c.zaps_in).sum();
        assert_eq!(report.total_zaps(), zaps_in);
        for c in &report.channels {
            assert_eq!(c.zaps_in, c.zap_latency.zaps());
        }
    }

    #[test]
    fn pool_reuse_across_sessions_leaks_no_state() {
        let pool = Arc::new(WorkerPool::new(3));
        let run_on = |pool: &Arc<WorkerPool>, seed: u64| {
            let config = SessionConfig {
                seed,
                ..SessionConfig::paper_default(3, 40)
            };
            let mut m = SessionManager::new(config, Arc::clone(pool), || {
                Box::new(FastSwitchScheduler::new())
            });
            m.warmup(20);
            m.run_periods(25);
            m.report()
        };
        // Two different sessions back to back on one pool...
        let first = run_on(&pool, 1);
        let second = run_on(&pool, 2);
        // ...must match the same sessions on fresh pools.
        assert_eq!(first, run_on(&Arc::new(WorkerPool::new(3)), 1));
        assert_eq!(second, run_on(&Arc::new(WorkerPool::new(3)), 2));
        assert_ne!(first, second, "different seeds produce different runs");
    }

    #[test]
    #[should_panic(expected = "at least 2 channels")]
    fn single_channel_session_panics() {
        let _ = manager(1, 1, 3);
    }

    #[test]
    #[should_panic(expected = "before any measured period")]
    fn workload_swap_after_measuring_panics() {
        let mut m = manager(1, 2, 3);
        m.run_periods(1);
        let c = *m.config();
        m.set_zap_schedule(Box::new(CrowdZap::zipf(
            c.channels,
            c.viewers_per_channel,
            c.zap_fraction,
            1.0,
            c.seed,
        )));
    }

    #[test]
    fn config_validation() {
        let good = SessionConfig::paper_default(4, 50);
        good.validate().unwrap();
        assert!(SessionConfig {
            viewers_per_channel: 4,
            ..good
        }
        .validate()
        .is_err());
        assert!(SessionConfig {
            zap_fraction: 0.9,
            ..good
        }
        .validate()
        .is_err());
        assert!(SessionConfig {
            zap_degree: 0,
            ..good
        }
        .validate()
        .is_err());
        assert!(SessionConfig {
            admission: AdmissionControl::rate_limited(0),
            ..good
        }
        .validate()
        .is_err());
        // A zero minimum degree is rejected here, not by a panic inside
        // `SessionManager::new`'s overlay construction.
        assert!(SessionConfig {
            min_degree: 0,
            ..good
        }
        .validate()
        .is_err());
        SessionConfig {
            admission: AdmissionControl::rate_limited(4),
            ..good
        }
        .validate()
        .unwrap();
    }

    /// A period that rounds below the event network's 1 ms clock is a
    /// validation error once a network is installed, not a panic inside
    /// `SessionManager::new`; lockstep keeps accepting it.
    #[test]
    fn sub_millisecond_period_is_rejected_once_a_network_is_installed() {
        let mut config = SessionConfig::paper_default(4, 50);
        config.gossip.tau_secs = 0.0004;
        config.validate().unwrap();
        config.network = Some(NetworkConfig::lossy(0.01, 1));
        let err = config.validate().unwrap_err();
        assert!(err.contains("at least 1 ms"), "{err}");
    }
}
