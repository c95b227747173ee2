//! Differential tests against the executable specification (`fss-spec`):
//! the production period (`StreamingSystem::advance`, lockstep) and the
//! spec side by side, checked after every period (see [`check_period`]),
//! on fixed scenarios and on random ones: 2–120 peers, trace and overlay
//! seeds, Fast or Normal, 1–8 shards, 1–3 pool workers, churn on or off,
//! one or two switches and an optional external zap batch.  The default
//! run checks 32 random cases; the `#[ignore]`d soak checks 1,000
//! (`cargo test --release --test spec -- --ignored`).

use fast_source_switching::core::{FastSwitchScheduler, NormalSwitchScheduler};
use fast_source_switching::gossip::{
    GossipConfig, SchedulerScratch, SchedulingContext, SegmentRequest, SegmentScheduler,
    StreamingSystem,
};
use fast_source_switching::overlay::{
    ChurnModel, NetworkConfig, OverlayBuilder, OverlayConfig, PeerId,
};
use fast_source_switching::runtime::WorkerPool;
use fast_source_switching::trace::{GeneratorConfig, TraceGenerator};
use fss_spec::Spec;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A priority-free scheduler: request candidates oldest-first, spreading
/// requests across suppliers so no supplier is asked for more than its
/// per-period capacity.
struct GreedyOldest;

impl SegmentScheduler for GreedyOldest {
    fn name(&self) -> &'static str {
        "greedy-oldest"
    }

    fn schedule_into(
        &self,
        ctx: &SchedulingContext,
        _scratch: &mut SchedulerScratch,
        requests: &mut Vec<SegmentRequest>,
    ) {
        requests.clear();
        let mut candidates = ctx.candidates.clone();
        candidates.sort_unstable_by_key(|c| c.id);
        let mut load: BTreeMap<PeerId, usize> = BTreeMap::new();
        for c in candidates {
            if requests.len() >= ctx.inbound_budget() {
                break;
            }
            let best = ctx
                .suppliers_of(&c)
                .iter()
                .map(|s| ctx.neighbour(s))
                .filter(|s| {
                    let cap = (s.rate * ctx.tau_secs).floor() as usize;
                    load.get(&s.peer).copied().unwrap_or(0) < cap
                })
                .min_by(|a, b| {
                    let la = *load.get(&a.peer).unwrap_or(&0) as f64 / a.rate;
                    let lb = *load.get(&b.peer).unwrap_or(&0) as f64 / b.rate;
                    la.partial_cmp(&lb).unwrap()
                });
            if let Some(best) = best {
                *load.entry(best.peer).or_default() += 1;
                requests.push(SegmentRequest {
                    segment: c.id,
                    supplier: best.peer,
                });
            }
        }
    }
}

/// A policy that ignores every budget: it asks for each candidate from
/// each of its suppliers, newest candidates first, so the grant rule's
/// inbound truncation, duplicate collapse and per-link caps all bind.
struct AskEverything;

impl SegmentScheduler for AskEverything {
    fn name(&self) -> &'static str {
        "ask-everything"
    }

    fn schedule_into(
        &self,
        ctx: &SchedulingContext,
        _scratch: &mut SchedulerScratch,
        out: &mut Vec<SegmentRequest>,
    ) {
        out.clear();
        out.extend(ctx.candidates.iter().rev().flat_map(|c| {
            ctx.suppliers_of(c).iter().map(|s| SegmentRequest {
                segment: c.id,
                supplier: ctx.neighbour(s).peer,
            })
        }));
    }
}

fn greedy() -> Box<dyn SegmentScheduler> {
    Box::new(GreedyOldest)
}

fn greedy_system(nodes: usize, seed: u64) -> StreamingSystem {
    let trace = TraceGenerator::new(GeneratorConfig::sized(nodes, seed)).generate("sys");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    StreamingSystem::new(overlay, GossipConfig::paper_default(), greedy())
}

fn first_two(sys: &StreamingSystem) -> (PeerId, PeerId) {
    let peers: Vec<PeerId> = sys.overlay().active_peers().take(2).collect();
    (peers[0], peers[1])
}

/// Checks one period of `sys` against `spec` (both just stepped):
///
/// * the reports, the raw switch records and every active buffer agree,
/// * no supplier → requester link carried more than the supplier's
///   `⌊o·τ⌋` and no requester received more than its `⌊I·τ⌋`,
/// * every buffer holds at most `B` segments,
/// * `data_bits` grew by exactly `segment_bits` per delivery, and
/// * the membership view equals the overlay's active set.
fn check_period(sys: &StreamingSystem, spec: &Spec, data_bits_before: u64) {
    let period = sys.periods();
    assert_eq!(sys.report(), spec.report(), "report, period {period}");
    assert_eq!(
        spec.check_switch_records(sys),
        Ok(()),
        "switch records, period {period}"
    );

    let config = sys.config();
    let overlay = sys.overlay();
    let budget = |p: PeerId, outbound: bool| {
        let bandwidth = overlay.attrs(p).unwrap().bandwidth;
        let rate = if outbound {
            bandwidth.outbound
        } else {
            bandwidth.inbound
        };
        (rate * config.tau_secs).floor() as usize
    };
    let mut per_link: BTreeMap<(PeerId, PeerId), usize> = BTreeMap::new();
    let mut per_requester: BTreeMap<PeerId, usize> = BTreeMap::new();
    for d in spec.deliveries() {
        *per_link.entry((d.supplier, d.requester)).or_default() += 1;
        *per_requester.entry(d.requester).or_default() += 1;
    }
    let over_link = per_link.iter().find(|(&(s, _), &n)| n > budget(s, true));
    assert_eq!(over_link, None, "link over budget, period {period}");
    let over_inbound = per_requester.iter().find(|(&r, &n)| n > budget(r, false));
    assert_eq!(over_inbound, None, "inbound over budget, period {period}");

    let active: Vec<PeerId> = overlay.active_peers().collect();
    for &p in &active {
        let buffer = sys.peer(p).buffer();
        assert!(buffer.len() <= config.buffer_capacity, "peer {p} overfull");
        assert_eq!(buffer, spec.buffer(p), "buffer of {p}, period {period}");
    }
    assert_eq!(
        sys.traffic_total().data_bits - data_bits_before,
        config.segment_bits * spec.deliveries().len() as u64,
        "data bits, period {period}"
    );
    assert_eq!(sys.membership_view().members(), &active[..]);
}

/// Steps the system and the spec through one lockstep period and checks it.
fn step_both(sys: &mut StreamingSystem, spec: &mut Spec) {
    let data_bits_before = sys.traffic_total().data_bits;
    sys.advance();
    spec.step(sys);
    check_period(sys, spec, data_bits_before);
}

/// Streams `sys` and a spec snapshot of it side by side: `warmup`
/// periods, then churn and a switch to the second active peer, then
/// `after` periods.
fn warm_up_then_switch(
    mut sys: StreamingSystem,
    policy: fn() -> Box<dyn SegmentScheduler>,
    (warmup, churn_seed, after): (u64, u64, u64),
) -> StreamingSystem {
    let mut spec = Spec::from_system(&sys, policy());
    let (s1, s2) = first_two(&sys);
    sys.start_initial_source(s1);
    spec.start_initial_source(s1);
    for _ in 0..warmup {
        step_both(&mut sys, &mut spec);
    }
    sys.set_churn(ChurnModel::paper_default(churn_seed));
    sys.switch_source(s2);
    spec.switch_source(&sys, s2);
    for _ in 0..after {
        step_both(&mut sys, &mut spec);
    }
    sys
}

/// Warm-up, a source switch and churn on a single-chunk store: the
/// production period matches the spec every period.
#[test]
fn optimized_step_matches_reference_step() {
    let sys = warm_up_then_switch(greedy_system(60, 11), greedy, (30, 5, 60));
    assert!(sys.report().switch_completed_secs.is_some());
}

/// The spec can take over at any period: re-snapshotting it from the
/// system every other period (before and after the switch) changes
/// nothing.
#[test]
fn implementations_can_interleave() {
    let mut sys = greedy_system(50, 13);
    let (s1, s2) = first_two(&sys);
    sys.start_initial_source(s1);
    let mut spec = Spec::from_system(&sys, greedy());
    for round in 0..30u64 {
        if round % 2 == 1 {
            spec = Spec::from_system(&sys, greedy());
        }
        step_both(&mut sys, &mut spec);
        if round == 20 {
            sys.switch_source(s2);
            spec.switch_source(&sys, s2);
        }
    }
}

/// Sharded stepping (the chunk plan follows the shards) matches the spec,
/// which never consults a chunk plan.
#[test]
fn sharded_step_matches_reference_step() {
    let mut sys = greedy_system(90, 29);
    sys.set_shards(4);
    warm_up_then_switch(sys, greedy, (30, 7, 40));
}

/// A policy that over-asks leaves the budgets to the grant rule: the
/// production grants and the spec's still agree every period.
#[test]
fn over_asking_policy_is_granted_like_the_spec() {
    let trace = TraceGenerator::new(GeneratorConfig::sized(80, 5)).generate("sys");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let config = GossipConfig::paper_default();
    let mut sys = StreamingSystem::new(overlay, config, Box::new(AskEverything));
    sys.set_shards(3);
    warm_up_then_switch(sys, || Box::new(AskEverything), (25, 23, 25));
}

/// The spec models lockstep only: it refuses to take over a system with a
/// network model installed, whose in-flight messages it would strand.
#[test]
#[should_panic(expected = "the spec models lockstep only")]
fn period_step_refuses_to_strand_in_flight_messages() {
    let mut sys = greedy_system(40, 0x5151);
    let source = sys.overlay().active_peers().next().unwrap();
    sys.set_network(NetworkConfig::ideal());
    sys.start_initial_source(source);
    let _ = Spec::from_system(&sys, greedy());
}

/// One randomised lockstep scenario.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    peers: usize,
    trace_seed: u64,
    overlay_seed: u64,
    fast: bool,
    shards: usize,
    workers: usize,
    churn: bool,
    periods: u64,
    /// Periods before which the stream switches to a new source.
    switches: [Option<u64>; 2],
    /// `(period, viewers leaving, viewers arriving)` of an external zap
    /// batch.
    zap: Option<(u64, usize, usize)>,
}

/// Draws scenarios of 20 to `max_periods` periods.
struct Scenarios {
    max_periods: u64,
}

impl Strategy for Scenarios {
    type Value = Scenario;

    fn generate(&self, rng: &mut TestRng) -> Scenario {
        let mut pick = |lo: u64, hi: u64| lo + rng.below(hi - lo + 1);
        let periods = pick(20, self.max_periods);
        let first_switch = pick(5, periods - 1);
        let second_switch = first_switch + pick(1, periods);
        let (second, zap_at, leaving, arriving) =
            (pick(0, 1), pick(1, periods - 1), pick(0, 3), pick(0, 3));
        Scenario {
            peers: pick(2, 120) as usize,
            trace_seed: pick(0, 1 << 20),
            overlay_seed: pick(0, 1 << 20),
            fast: pick(0, 1) == 1,
            shards: pick(1, 8) as usize,
            workers: pick(1, 3) as usize,
            churn: pick(0, 1) == 1,
            periods,
            switches: [Some(first_switch), (second == 1).then_some(second_switch)],
            zap: (pick(0, 1) == 1).then_some((zap_at, leaving as usize, arriving as usize)),
        }
    }
}

/// Runs `scenario` with the system and the spec side by side, checking
/// every period.
fn run_differential(scenario: Scenario) {
    let trace = TraceGenerator::new(GeneratorConfig::sized(scenario.peers, scenario.trace_seed))
        .generate("spec");
    let overlay_config = OverlayConfig {
        min_degree: 5.min(scenario.peers - 1),
        seed: scenario.overlay_seed,
        ..OverlayConfig::default()
    };
    let overlay = OverlayBuilder::new(overlay_config)
        .unwrap()
        .build(&trace)
        .unwrap();
    let policy = || -> Box<dyn SegmentScheduler> {
        match scenario.fast {
            true => Box::new(FastSwitchScheduler::new()),
            false => Box::new(NormalSwitchScheduler::new()),
        }
    };
    let mut sys = StreamingSystem::new(overlay, GossipConfig::paper_default(), policy());
    sys.set_shards(scenario.shards);
    sys.set_executor(Arc::new(WorkerPool::new(scenario.workers)).as_executor());
    let mut spec = Spec::from_system(&sys, policy());

    let Some(first) = sys.overlay().active_peers().next() else {
        return;
    };
    sys.start_initial_source(first);
    spec.start_initial_source(first);
    if scenario.churn {
        sys.set_churn(ChurnModel::paper_default(scenario.overlay_seed ^ 0xC4));
    }
    let mut sources = vec![first];
    for period in 0..scenario.periods {
        if let Some((at, leaving, arriving)) = scenario.zap {
            if at == period {
                zap(&mut sys, &sources, leaving, arriving, period);
            }
        }
        if scenario.switches.contains(&Some(period)) {
            let live = *sources.last().unwrap();
            let candidates: Vec<PeerId> = sys
                .overlay()
                .active_peers()
                .filter(|&p| p != live)
                .collect();
            if let Some(&next) = candidates.get(period as usize % candidates.len().max(1)) {
                sys.switch_source(next);
                spec.switch_source(&sys, next);
                sources.push(next);
            }
        }
        step_both(&mut sys, &mut spec);
    }
    // The scenario streamed.
    assert!(sys.report().traffic_total.data_bits > 0, "{scenario:?}");
}

/// An external zap batch: `leaving` viewers (never a source) depart and
/// `arriving` viewers attach to up to four current members.  Every arrival
/// after the first swaps its last host for the first arrival, so the batch
/// exercises within-batch neighbouring.
fn zap(
    sys: &mut StreamingSystem,
    sources: &[PeerId],
    leaving: usize,
    arriving: usize,
    period: u64,
) {
    let leavers: Vec<PeerId> = sys
        .overlay()
        .active_peers()
        .filter(|p| !sources.contains(p))
        .skip(period as usize % 3)
        .take(leaving)
        .collect();
    sys.depart_batch(&leavers).unwrap();
    let hosts: Vec<PeerId> = sys.overlay().active_peers().take(4).collect();
    let attrs = *sys.overlay().attrs(hosts[0]).unwrap();
    let first = sys.overlay().graph().capacity() as PeerId;
    let mut neighbours = Vec::new();
    for i in 0..arriving {
        neighbours.extend_from_slice(&hosts);
        if i > 0 {
            *neighbours.last_mut().unwrap() = first;
        }
    }
    let mut ids = Vec::new();
    sys.admit_batch(&vec![attrs; arriving], &neighbours, hosts.len(), &mut ids)
        .unwrap();
    if arriving > 1 {
        assert!(sys.overlay().neighbors(ids[1]).contains(&ids[0]));
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
    /// Random lockstep scenarios match the spec every period.
    #[test]
    fn prop_random_scenarios_match_the_spec(scenario in Scenarios { max_periods: 60 }) {
        run_differential(scenario);
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1_000))]
    /// Soak of [`prop_random_scenarios_match_the_spec`].
    #[test]
    #[ignore = "soak: 1,000 random scenarios (run with --release -- --ignored)"]
    fn random_scenarios_match_the_spec_soak(scenario in Scenarios { max_periods: 80 }) {
        run_differential(scenario);
    }
}
