//! Asserts the tentpole property: after warm-up, the steady-state period
//! loop performs **zero heap allocations** — every buffer lives in the
//! reused scratch arena.
//!
//! A counting wrapper around the system allocator tallies the allocations
//! of *armed* threads; each test warms its system until all scratch
//! buffers, pools and hash maps have reached their high-water marks, then
//! runs further work inside [`counted`], which arms the calling thread (and,
//! through [`counted_on_pool`], every thread of a worker pool).
//!
//! The tests of this file run concurrently under libtest, so the counted
//! windows are serialised by one static mutex: at most one test has armed
//! threads at a time, and allocations of the harness's own threads (result
//! reporting, spawning the next test) are never armed.  The suite is exact
//! at any `--test-threads`.

use fss_core::FastSwitchScheduler;
use fss_gossip::{GossipConfig, StreamingSystem};
use fss_overlay::OverlayBuilder;
use fss_runtime::WorkerPool;
use fss_trace::{GeneratorConfig, TraceGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.  Const-initialised
    /// and drop-free, so reading it never allocates and never fails.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Serialises the counted windows of the tests in this file.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the counter itself stays sound.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` with the calling thread armed and returns how many allocations
/// the armed threads made meanwhile.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let _serial = serial();
    ARMED.set(true);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    ARMED.set(false);
    (during, result)
}

/// Arms (or disarms) every thread of `pool`: one chunk per pool thread,
/// each parked on a barrier until all threads hold a chunk, so no thread
/// can take two.
fn arm_pool(pool: &WorkerPool, barrier: &Barrier, on: bool) {
    pool.execute(pool.workers(), &|_| {
        ARMED.set(on);
        barrier.wait();
    });
}

/// [`counted`] with every thread of `pool` armed too.
fn counted_on_pool<R>(pool: &WorkerPool, f: impl FnOnce() -> R) -> (u64, R) {
    let barrier = Barrier::new(pool.workers());
    let _serial = serial();
    arm_pool(pool, &barrier, true);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    arm_pool(pool, &barrier, false);
    (during, result)
}

#[test]
fn steady_state_period_loop_does_not_allocate() {
    let trace = TraceGenerator::new(GeneratorConfig::sized(300, 21)).generate("zero-alloc");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let source = overlay.active_peers().next().unwrap();

    let mut sys = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    sys.start_initial_source(source);
    // QoE event recording defaults to ON — the zero-allocation guarantee
    // below covers the instrumented playback pass, not a stripped build.
    assert!(sys.qoe().is_enabled());

    // Warm-up: playback starts, buffers fill to capacity (evictions begin),
    // scratch arenas, pools and hash maps reach their steady capacities.
    sys.run_periods(80);

    let (during, ()) = counted(|| sys.run_periods(20));
    assert_eq!(
        during, 0,
        "steady-state periods allocated {during} times; the scratch arena must absorb all working memory"
    );

    // Sanity: the system is actually doing work, not idling.
    let report = sys.report();
    assert_eq!(report.periods, 100);
    assert!(report.traffic_total.data_bits > 0);

    // The executable spec allocates heavily — confirming the counter
    // actually observes a period.
    let mut spec = fss_spec::Spec::from_system(&sys, Box::new(FastSwitchScheduler::new()));
    let (reference, ()) = counted(|| spec.step(&sys));
    assert!(
        reference > 100,
        "spec period should allocate (counter sanity check)"
    );
}

/// The membership-directory guarantee: resolving a zap batch — the
/// origin channel's same-boundary arrivals collected into a pooled list,
/// mover selection from the origin channel's view, the movers' departure
/// with its touched-only membership repair, and per-arrival neighbour and
/// attribute sampling from the target channel's view — allocates **zero**
/// heap in steady state.  This is the sequence `SessionManager`'s
/// `apply_batch` runs.  Before the directory existed this path collected
/// the target channel's entire `active_peers()` into a fresh `Vec` per
/// batch and cloned a neighbour `Vec` per arrival (and the vendored
/// `choose_multiple` allocates an O(channel) index table per call); the
/// pooled [`fss_gossip::AdmissionScratch`] plus the sparse-Fisher–Yates
/// sampler absorb all of it, and the repair's touched and leftover lists
/// keep their capacity between batches (their capacities are bounded by
/// `system::tests::membership_lists_stay_bounded`).
///
/// Two mutations are deliberately outside the guarantee, because they are
/// topology growth, not per-batch working memory: the admission of the
/// arrivals (a brand-new peer's protocol state — ids are never reused),
/// and an edge the repair adds to a peer whose neighbour list is full.
/// The departure is held to at most two allocations per edge its repair
/// added (one per endpoint list).
#[test]
fn steady_state_zap_batch_resolution_does_not_allocate() {
    use fss_gossip::directory::{sample_neighbours, select_movers};
    use fss_overlay::{BandwidthConfig, PeerId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let build = |nodes: usize, seed: u64| {
        let trace =
            TraceGenerator::new(GeneratorConfig::sized(nodes, seed)).generate("zero-alloc-zap");
        let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
        let source = overlay.active_peers().next().unwrap();
        let mut sys = StreamingSystem::new(
            overlay,
            GossipConfig::paper_default(),
            Box::new(FastSwitchScheduler::new()),
        );
        sys.start_initial_source(source);
        sys.run_periods(40);
        (sys, source)
    };
    let (mut origin, origin_source) = build(600, 31);
    let (target, _) = build(250, 32);
    // The viewers that arrived at this boundary and may not zap again; the
    // production path reads them off its pending-zap list.
    let pending: Vec<PeerId> = origin.membership_view().members()[1..]
        .iter()
        .copied()
        .step_by(7)
        .collect();

    let mut scratch = fss_gossip::AdmissionScratch::default();
    let mut arrived: Vec<PeerId> = Vec::new();
    let mut rng = SmallRng::seed_from_u64(9);
    let bandwidth = BandwidthConfig::default();
    // One batch; returns (allocations outside the departure, allocations
    // of the departure, edges its repair added, work produced).
    let mut resolve_batch = |scratch: &mut fss_gossip::AdmissionScratch,
                             arrived: &mut Vec<PeerId>,
                             rng: &mut SmallRng| {
        let (select, ()) = counted(|| {
            scratch.clear();
            arrived.clear();
            arrived.extend(
                pending
                    .iter()
                    .copied()
                    .filter(|&p| origin.membership_view().contains(p)),
            );
            arrived.sort_unstable();
            select_movers(
                origin.membership_view(),
                origin_source,
                arrived,
                3,
                rng,
                scratch,
            );
        });
        let graph = origin.overlay().graph();
        let removed: usize = scratch.movers.iter().map(|&p| graph.degree(p)).sum();
        let edges_before = graph.edge_count();
        let (depart, ()) = counted(|| origin.depart_batch(&scratch.movers).unwrap());
        let added = origin.overlay().graph().edge_count() + removed - edges_before;
        let (sample, ()) = counted(|| {
            let view = target.membership_view();
            let degree = 5.min(view.len());
            for _ in 0..scratch.movers.len() {
                sample_neighbours(view, degree, rng, scratch);
                scratch.attrs.push(fss_overlay::PeerAttrs {
                    ping_ms: 80.0 * rng.gen_range(0.5..2.0),
                    bandwidth: bandwidth.sample_peer(rng),
                });
            }
        });
        let produced = scratch.movers.len() + scratch.neighbours.len();
        (select + sample, depart, added, produced)
    };

    // Warm-up: the pooled buffers, the repair's lists and the sampler's
    // displacement table reach their high-water capacities.
    for _ in 0..40 {
        resolve_batch(&mut scratch, &mut arrived, &mut rng);
    }

    let (mut produced, mut added) = (0, 0);
    for batch in 0..40 {
        let (resolve, depart, edges, work) = resolve_batch(&mut scratch, &mut arrived, &mut rng);
        assert_eq!(
            resolve, 0,
            "batch {batch}: steady-state zap-batch resolution allocated {resolve} times; \
             the admission scratch and the arrival list must absorb all working memory"
        );
        assert!(
            depart as usize <= 2 * edges,
            "batch {batch}: the departure allocated {depart} times for {edges} repair edges"
        );
        produced += work;
        added += edges;
    }
    assert!(produced > 0, "the batches actually resolved work");
    assert!(added > 0, "the departures needed repairs");
    assert!(!arrived.is_empty(), "the arrival list excluded viewers");
    assert_eq!(origin.membership_view().len(), 600 - 80 * 3);
}

/// The sharded struct-of-arrays store keeps the guarantee: with the peer
/// columns split over multiple shards the period runs one chunk per shard
/// (serially without an executor), and the chunk plan
/// lives in the pooled `PeriodScratch` — steady-state periods still touch
/// the heap zero times.
#[test]
fn sharded_steady_state_period_loop_does_not_allocate() {
    let trace = TraceGenerator::new(GeneratorConfig::sized(300, 23)).generate("zero-alloc-shard");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let source = overlay.active_peers().next().unwrap();

    let mut sys = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    sys.set_shards(4);
    assert!(sys.shard_count() > 1, "the store must actually be sharded");
    sys.start_initial_source(source);

    sys.run_periods(80);

    let (during, ()) = counted(|| sys.run_periods(20));
    assert_eq!(
        during, 0,
        "sharded steady-state periods allocated {during} times; \
         the chunk plan and shard columns must be allocation-free"
    );

    let report = sys.report();
    assert_eq!(report.periods, 100);
    assert!(report.traffic_total.data_bits > 0);
}

/// The event-driven stepping mode keeps the guarantee: with a delayed,
/// jittered network model installed, every in-flight message lives in the
/// arrival calendar (`DeliveredSegment` is `Copy`; each per-period bucket was
/// pre-reserved from the bandwidth budget at `set_network` time and keeps
/// its capacity as the ring rotates) and the jitter draws are stateless
/// hashes — so steady-state event periods still touch the heap zero times.
///
/// Loss is deliberately outside the guarantee, mirroring the admission-
/// mutation exclusion above: a lost segment is missing *protocol* state,
/// not working memory.  A peer whose needed segment ages out of every
/// neighbour's buffer stalls for good, and its re-request window (the
/// scheduler's candidate set) then legitimately tracks the advancing
/// stream head — genuine state growth the scratch arena must absorb by
/// growing, at any loss rate.  The fault-injection suite in `fss-runtime`
/// pins lossy runs by digest instead.
#[test]
fn steady_state_event_mode_stepping_does_not_allocate() {
    use fss_overlay::NetworkConfig;

    let trace = TraceGenerator::new(GeneratorConfig::sized(300, 25)).generate("zero-alloc-event");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let source = overlay.active_peers().next().unwrap();

    let mut sys = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    // Trace latencies at full scale plus jitter: every message is deferred
    // through the arrival calendar and every data leg samples the jitter
    // stream, but RTTs stay under the scheduling period, so each bucket's
    // high-water mark sits inside the capacity reserved by `set_network`
    // (or reached during warm-up and kept as the ring rotates).
    sys.set_network(NetworkConfig {
        latency_scale: 1.0,
        loss_rate: 0.0,
        jitter_ms: 10,
        seed: 0x25,
    });
    sys.start_initial_source(source);

    sys.run_periods(80);

    let (during, ()) = counted(|| sys.run_periods(20));
    assert_eq!(
        during, 0,
        "event-mode steady-state periods allocated {during} times; \
         the pre-reserved event queue must absorb all in-flight messages"
    );

    let report = sys.report();
    assert_eq!(report.periods, 100);
    assert!(report.traffic_total.data_bits > 0);
    let stats = sys.network_stats();
    assert!(
        stats.max_in_flight > 0,
        "messages must actually defer through the event queue"
    );
    assert!(stats.data_delivered > 0, "segments must still flow");
}

/// The streaming metric path: recording samples into a
/// [`fss_metrics::QuantileSketch`], merging sketches (the cross-channel
/// report fold) and deriving the summary all run on fixed-size bucket
/// arrays — zero heap after construction.
#[test]
fn sketch_record_merge_and_fold_do_not_allocate() {
    use fss_metrics::{QuantileSketch, ZapSummary};

    let mut local = QuantileSketch::new(1.0);
    let mut merged = QuantileSketch::new(1.0);

    let (during, (summary, p50)) = counted(|| {
        for i in 0..10_000u64 {
            local.record((i % 97) as f64);
        }
        merged.merge_from(&local);
        merged.merge_from(&local);
        (ZapSummary::from_sketch(&merged, 7), merged.quantile(0.5))
    });
    assert_eq!(
        during, 0,
        "sketch record/merge/fold allocated {during} times; \
         the fixed bucket arrays must absorb everything"
    );
    assert_eq!(summary.completed, 20_000);
    assert!(p50 >= 0.0);
}

/// The streaming QoE telemetry pipeline end to end: stepping with events
/// ON (one `observe` per peer per period, the period fold, the event
/// buffers) *plus* the per-period harvest the runtime performs — pushing
/// the row into a bounded [`fss_metrics::Timeline`] (including its in-place
/// 2× decimations) and streaming the startup / stall-duration events into
/// [`fss_metrics::QuantileSketch`]es — allocates **zero** heap in steady
/// state.  The recorder pre-reserves its event buffers, the timeline
/// pre-reserves its ring, and decimation merges in place.
#[test]
fn telemetry_enabled_stepping_and_harvest_do_not_allocate() {
    use fss_metrics::{QoeWindow, QuantileSketch, Timeline};

    let trace = TraceGenerator::new(GeneratorConfig::sized(300, 24)).generate("zero-alloc-qoe");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let source = overlay.active_peers().next().unwrap();
    let mut sys = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    sys.start_initial_source(source);
    assert!(sys.qoe().is_enabled());
    sys.run_periods(80);

    // A deliberately tiny ring: 24 pushes over an 8-window timeline force
    // two decimations *inside* the counted region.
    let mut timeline = Timeline::new(8);
    let mut startup = QuantileSketch::new(1.0);
    let mut stall = QuantileSketch::new(1.0);

    let (during, ()) = counted(|| {
        for _ in 0..24 {
            sys.advance();
            let sample = *sys.qoe().latest().unwrap();
            timeline.push(QoeWindow::from_sample(&sample));
            for &delay in sys.qoe().startup_delays_periods() {
                startup.record(delay as f64);
            }
            for &duration in sys.qoe().stall_durations_periods() {
                stall.record(duration as f64);
            }
        }
    });
    assert_eq!(
        during, 0,
        "telemetry-enabled stepping + harvest allocated {during} times; \
         the event buffers, the bounded timeline and the sketches must all \
         be allocation-free in steady state"
    );

    // Sanity: the telemetry actually observed the run.
    assert_eq!(timeline.samples(), 24);
    assert!(timeline.stride() > 1, "the ring must have decimated");
    let observed: u64 = timeline.windows().map(|w| w.periods).sum();
    assert_eq!(observed, 24);
    assert!(sys.qoe().totals().startups > 0);
}

/// The same guarantee for the pool-backed parallel path: both dispatches
/// of a period — the scheduling pass with its in-chunk grants, and the
/// fused walk with its per-chunk QoE lanes and ratio terms — fan out over
/// the persistent `fss-runtime` worker pool (raw job pointer under a mutex,
/// chunk-stealing cursor, condvar parking) and must not allocate either, on
/// any thread: every pool thread is armed.  The store has at least 4
/// shards, so the chunk plan has several chunks, and QoE recording is on.
/// Run in lockstep and in event mode under the ideal network, which takes
/// the same two dispatches.
#[test]
fn steady_state_pool_parallel_period_loop_does_not_allocate() {
    use fss_overlay::NetworkConfig;
    use std::sync::Arc;

    for network in [None, Some(NetworkConfig::ideal())] {
        let trace =
            TraceGenerator::new(GeneratorConfig::sized(300, 22)).generate("zero-alloc-pool");
        let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
        let source = overlay.active_peers().next().unwrap();

        let pool = Arc::new(WorkerPool::new(4));
        let mut sys = StreamingSystem::new(
            overlay,
            GossipConfig::paper_default(),
            Box::new(FastSwitchScheduler::new()),
        );
        sys.set_shards(8);
        assert!(
            sys.shard_count() >= 4,
            "the chunk plan needs several shards"
        );
        sys.set_executor(pool.as_executor());
        if let Some(config) = network {
            sys.set_network(config);
        }
        assert!(sys.qoe().is_enabled());
        sys.start_initial_source(source);

        // Warm-up: scratch arenas and per-chunk slots reach their high-water
        // marks; the pool's threads are long since spawned.
        sys.run_periods(80);

        let dispatches = pool.dispatches();
        let (during, ()) = counted_on_pool(&pool, || sys.run_periods(20));
        assert_eq!(
            during, 0,
            "pool-backed steady-state periods allocated {during} times; \
             the per-chunk grant, QoE and ratio buffers and job dispatch must be allocation-free"
        );
        // Two dispatches per period (plus the two arming jobs).
        assert_eq!(pool.dispatches() - dispatches, 2 * 20 + 2);

        let report = sys.report();
        assert_eq!(report.periods, 100);
        assert!(report.traffic_total.data_bits > 0);
        assert!(sys.qoe().totals().played > 0);
    }
}
