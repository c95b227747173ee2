//! Pluggable channel-zapping workloads: who zaps where, and when.
//!
//! The paper's evaluation zaps viewers uniformly between channels; real
//! viewer populations are nothing like that — channel popularity is
//! Zipf-skewed and big live events trigger *flash crowds*, a burst of
//! viewers converging on one channel within one period (cf. the
//! live-entertainment and CliqueStream settings in PAPERS.md).  This module
//! defines the workload abstraction and its three built-in shapes:
//!
//! * [`ZapSchedule`] — a deterministic generator of [`ZapBatch`]es, each a
//!   `(from, to, viewers)` movement at one period boundary;
//! * [`CrowdZap`] — the built-in schedule family: uniform targets, Zipf(α)
//!   popularity-skewed targets ([`ZipfSampler`]), and optional
//!   [`Storm`]s layered on top of either.
//!
//! # The state-independence contract
//!
//! A schedule decides *how many* viewers move between which channel pair at
//! which boundary using only its own configuration, seed and an internal
//! population model — never the live channel state.  This is what lets the
//! pipelined [`SessionManager`](crate::SessionManager) step channels
//! independently and synchronise **only the two channels named by a
//! batch**: every channel can compute (be handed) its future sync points
//! without waiting for any other channel to reach them.  Which *specific*
//! viewers move, and where they attach, is resolved later against live
//! channel state using a per-batch RNG stream, so resolution depends only
//! on the two endpoint channels — the key to byte-identical reports for
//! every run-ahead bound.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One planned viewer movement between two channels at a period boundary.
///
/// `viewers` is the *requested* count; the session clamps it when the batch
/// is applied — to the source channel's eligible population, and further to
/// its live survival floor (at least one non-source peer always stays, so a
/// plan drawn from a stale population model can never drain a channel to
/// source-only membership).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZapBatch {
    /// Period boundary at which the batch applies (viewers move before the
    /// channels execute this period).
    pub period: u64,
    /// Channel the viewers leave.
    pub from: usize,
    /// Channel the viewers join.
    pub to: usize,
    /// Requested number of viewers to move.
    pub viewers: usize,
}

/// A deterministic generator of zap batches.
///
/// The session calls [`batches_at`](Self::batches_at) exactly once per
/// period boundary, in strictly increasing period order, before any channel
/// steps that period.  Implementations may keep internal state (an RNG, a
/// population model) but must never observe live channel state — see the
/// module docs for why.
pub trait ZapSchedule: Send {
    /// A short human-readable label for reports (e.g. `"zipf(1.2)"`).
    fn name(&self) -> String;

    /// Appends this boundary's batches to `out`, in a deterministic order
    /// with `from != to` and `viewers > 0` for every batch.
    fn batches_at(&mut self, period: u64, out: &mut Vec<ZapBatch>);
}

/// Deterministic sampler of a Zipf(α) distribution over ranks `0..n`.
///
/// Rank `r` has weight `1 / (r + 1)^α`, so rank 0 is the most popular.  The
/// sampler draws by inverse-CDF binary search over the precomputed
/// cumulative weights: one `f64` draw from the caller's RNG per sample,
/// which makes sequences a pure function of the seed (asserted by the
/// test-suite).  `α = 0` degenerates to the uniform distribution.
///
/// ```
/// use fss_runtime::zap::ZipfSampler;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let sampler = ZipfSampler::new(4, 1.0);
/// let draw = |seed| {
///     let mut rng = SmallRng::seed_from_u64(seed);
///     (0..16).map(|_| sampler.sample(&mut rng)).collect::<Vec<_>>()
/// };
/// // A fixed seed fixes the channel sequence; rank 0 carries the most mass.
/// assert_eq!(draw(7), draw(7));
/// assert!(sampler.share(0) > sampler.share(3));
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` ranks with exponent `alpha`.
    ///
    /// # Panics
    /// Panics if `n` is zero or `alpha` is negative or non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "a Zipf distribution needs at least one rank");
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "Zipf exponent must be finite and non-negative, got {alpha}"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(alpha);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        // Guard the binary search against floating-point round-off.
        *cdf.last_mut().expect("n > 0") = 1.0;
        ZipfSampler { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the sampler has no ranks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The probability mass of `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    pub fn share(&self, rank: usize) -> f64 {
        let above = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - above
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First rank whose cumulative weight exceeds `u`.
        self.cdf.partition_point(|&c| c <= u).min(self.len() - 1)
    }

    /// Draws one rank different from `excluded` (rejection sampling — the
    /// acceptance probability is at least `1 − share(excluded)`).
    ///
    /// # Panics
    /// Panics if the sampler has fewer than two ranks.
    pub fn sample_excluding<R: Rng + ?Sized>(&self, rng: &mut R, excluded: usize) -> usize {
        assert!(self.len() > 1, "cannot exclude the only rank");
        loop {
            let rank = self.sample(rng);
            if rank != excluded {
                return rank;
            }
        }
    }
}

/// One flash-crowd event: `size` viewers converge on channel `target` at
/// period boundary `at`, drawn from the other channels in proportion to the
/// schedule's modelled populations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Storm {
    /// Period boundary of the burst.  Must fall within the *measured*
    /// periods (the schedule is never consulted during warm-up; a missed
    /// storm panics rather than silently vanishing).
    pub at: u64,
    /// Channel the crowd converges on.
    pub target: usize,
    /// Total viewers converging in this one period.
    pub size: usize,
}

/// The built-in schedule family: a background zap rate with uniform or
/// Zipf-skewed targets, plus optional flash-crowd [`Storm`]s.
///
/// Internally the schedule maintains a *population model* — its own view of
/// each channel's viewer count, updated by the batches it emits — so that
/// per-channel departure counts track channel size as popular channels grow,
/// without ever reading live channel state (see the module docs).
pub struct CrowdZap {
    label: String,
    channels: usize,
    /// Fraction of a channel's modelled population zapping away per period.
    fraction: f64,
    rng: SmallRng,
    /// `None` = uniform targets; `Some` = Zipf-skewed targets by channel
    /// index (channel 0 the most popular).
    sampler: Option<ZipfSampler>,
    /// Pending storms, sorted by period.
    storms: Vec<Storm>,
    /// Modelled viewer count per channel (including the source).
    pops: Vec<usize>,
    /// Fractional departure credit per channel (deterministic rounding).
    credit: Vec<f64>,
    /// Dense `channels × channels` movement tally, reused per boundary.
    matrix: Vec<usize>,
    /// Last boundary handed out, to enforce the in-order contract.
    last_period: Option<u64>,
}

/// A channel never gives up its last viewers: the source plus one peer stay
/// behind so the overlay survives arbitrarily unpopular channels.
const MIN_CHANNEL_POPULATION: usize = 2;

impl CrowdZap {
    /// Background zapping with uniformly chosen target channels — the
    /// workload of the original multi-channel runtime.
    pub fn uniform(channels: usize, viewers_per_channel: usize, fraction: f64, seed: u64) -> Self {
        Self::build(
            "uniform".to_string(),
            channels,
            viewers_per_channel,
            fraction,
            seed,
            None,
        )
    }

    /// Background zapping with Zipf(α)-skewed target channels: channel 0 is
    /// the most popular, channel `c` has weight `1/(c+1)^α`.
    ///
    /// # Panics
    /// Panics if `alpha` is negative or non-finite.
    pub fn zipf(
        channels: usize,
        viewers_per_channel: usize,
        fraction: f64,
        alpha: f64,
        seed: u64,
    ) -> Self {
        Self::build(
            format!("zipf({alpha})"),
            channels,
            viewers_per_channel,
            fraction,
            seed,
            Some(ZipfSampler::new(channels, alpha)),
        )
    }

    /// Layers flash-crowd storms on top of the background schedule.
    ///
    /// # Panics
    /// Panics if a storm targets an unknown channel.
    pub fn with_storms(mut self, mut storms: Vec<Storm>) -> Self {
        for storm in &storms {
            assert!(
                storm.target < self.channels,
                "storm targets channel {} of {}",
                storm.target,
                self.channels
            );
        }
        if !storms.is_empty() {
            self.label = format!("{}+storms", self.label);
        }
        storms.sort_by_key(|s| s.at);
        self.storms = storms;
        self
    }

    fn build(
        label: String,
        channels: usize,
        viewers_per_channel: usize,
        fraction: f64,
        seed: u64,
        sampler: Option<ZipfSampler>,
    ) -> Self {
        assert!(
            channels >= 2,
            "a zapping workload needs at least 2 channels"
        );
        assert!(
            (0.0..=0.5).contains(&fraction) && fraction.is_finite(),
            "zap fraction {fraction} outside the sensible range [0, 0.5]"
        );
        CrowdZap {
            label,
            channels,
            fraction,
            rng: SmallRng::seed_from_u64(seed ^ 0x5A50_0CAD),
            sampler,
            storms: Vec::new(),
            pops: vec![viewers_per_channel; channels],
            credit: vec![0.0; channels],
            matrix: vec![0; channels * channels],
            last_period: None,
        }
    }

    /// The schedule's modelled per-channel populations (the live
    /// populations track these up to clamping).
    #[cfg(test)]
    pub fn modelled_populations(&self) -> &[usize] {
        &self.pops
    }

    /// Draws a target channel for a viewer leaving `from`.
    fn draw_target(&mut self, from: usize) -> usize {
        match &self.sampler {
            Some(sampler) => sampler.sample_excluding(&mut self.rng, from),
            None => {
                let offset = self.rng.gen_range(1..self.channels);
                (from + offset) % self.channels
            }
        }
    }

    /// Apportions a storm of `size` viewers onto the non-target channels,
    /// proportional to modelled populations (largest-remainder rounding so
    /// the total is exact), clamped so no channel drops below the survival
    /// floor.
    fn apportion_storm(&mut self, storm: Storm) {
        // A donor's capacity is its modelled population minus the survival
        // floor minus the departures *already tallied this boundary* (the
        // background rate and any earlier co-boundary storm), so the total
        // outflow of a channel can never exceed its population.
        let committed_outflow = |matrix: &[usize], c: usize| -> usize {
            matrix[c * self.channels..(c + 1) * self.channels]
                .iter()
                .sum()
        };
        let available: Vec<(usize, usize)> = (0..self.channels)
            .filter(|&c| c != storm.target)
            .map(|c| {
                let reserved = MIN_CHANNEL_POPULATION + committed_outflow(&self.matrix, c);
                (c, self.pops[c].saturating_sub(reserved))
            })
            .collect();
        let total_available: usize = available.iter().map(|&(_, a)| a).sum();
        let size = storm.size.min(total_available);
        if size == 0 {
            return;
        }
        // Largest-remainder apportionment of `size` over the donors.
        let mut shares: Vec<(usize, usize, usize, f64)> = available
            .iter()
            .map(|&(c, a)| {
                let exact = size as f64 * a as f64 / total_available as f64;
                let floor = (exact.floor() as usize).min(a);
                (c, floor, a, exact - floor as f64)
            })
            .collect();
        let mut assigned: usize = shares.iter().map(|&(_, f, _, _)| f).sum();
        // Hand the remainder out by descending fractional part (ties by
        // channel index, so the result is deterministic).
        let mut order: Vec<usize> = (0..shares.len()).collect();
        order.sort_by(|&a, &b| {
            shares[b]
                .3
                .partial_cmp(&shares[a].3)
                .expect("finite fractions")
                .then(shares[a].0.cmp(&shares[b].0))
        });
        for &i in order.iter().cycle() {
            if assigned == size {
                break;
            }
            let (_, ref mut count, cap, _) = shares[i];
            if *count < cap {
                *count += 1;
                assigned += 1;
            }
        }
        for (c, count, _, _) in shares {
            self.matrix[c * self.channels + storm.target] += count;
        }
    }
}

impl ZapSchedule for CrowdZap {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn batches_at(&mut self, period: u64, out: &mut Vec<ZapBatch>) {
        assert!(
            self.last_period.is_none_or(|last| period > last),
            "batches_at must be called in strictly increasing period order \
             (got {period} after {:?})",
            self.last_period
        );
        self.last_period = Some(period);

        self.matrix.fill(0);

        // Background zapping: departures proportional to the modelled
        // population, rounded deterministically via per-channel credit.
        for from in 0..self.channels {
            self.credit[from] += self.pops[from] as f64 * self.fraction;
            let mut leaving = self.credit[from].floor() as usize;
            self.credit[from] -= leaving as f64;
            leaving = leaving.min(self.pops[from].saturating_sub(MIN_CHANNEL_POPULATION));
            for _ in 0..leaving {
                let to = self.draw_target(from);
                self.matrix[from * self.channels + to] += 1;
            }
        }

        // Flash crowds scheduled for this boundary.  A storm whose boundary
        // was never consulted (it fell into the zap-free warm-up window, or
        // before this schedule was driven at all) would silently invalidate
        // the measurement, so it fails loudly instead.
        while let Some(&storm) = self.storms.first() {
            assert!(
                storm.at >= period,
                "storm at period {} was missed: the schedule's first consulted \
                 boundary is {period} — storms must land in measured periods \
                 (after the warm-up)",
                storm.at
            );
            if storm.at != period {
                break;
            }
            self.storms.remove(0);
            self.apportion_storm(storm);
        }

        // Emit batches in (from, to) order and update the population model.
        for from in 0..self.channels {
            for to in 0..self.channels {
                let viewers = self.matrix[from * self.channels + to];
                if viewers == 0 {
                    continue;
                }
                out.push(ZapBatch {
                    period,
                    from,
                    to,
                    viewers,
                });
                self.pops[from] -= viewers;
                self.pops[to] += viewers;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(schedule: &mut dyn ZapSchedule, periods: std::ops::Range<u64>) -> Vec<ZapBatch> {
        let mut out = Vec::new();
        for p in periods {
            schedule.batches_at(p, &mut out);
        }
        out
    }

    #[test]
    fn zipf_sampler_fixed_seed_fixed_sequence() {
        let sampler = ZipfSampler::new(8, 1.1);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..64).map(|_| sampler.sample(&mut rng)).collect()
        };
        assert_eq!(draw(42), draw(42), "same seed must give the same sequence");
        assert_ne!(draw(42), draw(43), "different seeds must diverge");
    }

    #[test]
    fn zipf_sampler_frequencies_follow_rank() {
        let sampler = ZipfSampler::new(6, 1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 6];
        let n = 60_000;
        for _ in 0..n {
            counts[sampler.sample(&mut rng)] += 1;
        }
        // Popularity must decrease with rank, and the empirical share of
        // each rank must be close to the analytic share.
        for w in counts.windows(2) {
            assert!(w[0] > w[1], "counts not rank-ordered: {counts:?}");
        }
        for (rank, &count) in counts.iter().enumerate() {
            let expected = sampler.share(rank);
            let observed = count as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {rank}: observed {observed:.3} vs analytic {expected:.3}"
            );
        }
        let total_share: f64 = (0..6).map(|r| sampler.share(r)).sum();
        assert!((total_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_zero_alpha_is_uniform() {
        let sampler = ZipfSampler::new(5, 0.0);
        for rank in 0..5 {
            assert!((sampler.share(rank) - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_sample_excluding_never_returns_excluded() {
        let sampler = ZipfSampler::new(4, 2.0);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..2_000 {
            assert_ne!(sampler.sample_excluding(&mut rng, 0), 0);
        }
    }

    #[test]
    fn crowd_schedule_is_deterministic_and_conserves_population() {
        let build = || CrowdZap::zipf(5, 80, 0.04, 1.2, 99);
        let a = drain(&mut build(), 0..60);
        let b = drain(&mut build(), 0..60);
        assert_eq!(a, b, "same configuration must give identical batches");
        assert!(!a.is_empty());
        for batch in &a {
            assert_ne!(batch.from, batch.to);
            assert!(batch.viewers > 0);
            assert!(batch.from < 5 && batch.to < 5);
        }

        let mut schedule = build();
        let _ = drain(&mut schedule, 0..60);
        let total: usize = schedule.modelled_populations().iter().sum();
        assert_eq!(total, 5 * 80, "the model must conserve total viewership");
        for &pop in schedule.modelled_populations() {
            assert!(pop >= MIN_CHANNEL_POPULATION);
        }
    }

    #[test]
    fn zipf_schedule_concentrates_arrivals_on_popular_channels() {
        let mut schedule = CrowdZap::zipf(6, 100, 0.05, 1.5, 11);
        let batches = drain(&mut schedule, 0..200);
        let mut arrivals = [0usize; 6];
        for b in &batches {
            arrivals[b.to] += b.viewers;
        }
        assert!(
            arrivals[0] > arrivals[5] * 2,
            "channel 0 must dominate arrivals: {arrivals:?}"
        );
        let pops = schedule.modelled_populations();
        assert!(pops[0] > pops[5], "popular channels must grow: {pops:?}");
    }

    #[test]
    fn storm_converges_on_the_target_in_one_period() {
        let mut schedule = CrowdZap::uniform(4, 100, 0.0, 5).with_storms(vec![Storm {
            at: 10,
            target: 2,
            size: 90,
        }]);
        assert_eq!(schedule.name(), "uniform+storms");
        let mut out = Vec::new();
        for p in 0..20 {
            let before = out.len();
            schedule.batches_at(p, &mut out);
            if p != 10 {
                assert_eq!(out.len(), before, "no background rate, no batches");
            }
        }
        let total: usize = out.iter().map(|b| b.viewers).sum();
        assert_eq!(total, 90, "the whole storm must be apportioned");
        assert!(out.iter().all(|b| b.to == 2 && b.period == 10));
        // Proportional apportionment over three equal donors: 30 each.
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|b| b.viewers == 30));
    }

    /// Regression test: a storm sharing its boundary with background
    /// departures must account for the outflow already tallied — otherwise
    /// a donor's total departures could exceed its population and underflow
    /// the model.
    #[test]
    fn storm_on_top_of_background_zapping_never_overdraws_a_donor() {
        let mut schedule = CrowdZap::uniform(4, 100, 0.05, 7).with_storms(vec![Storm {
            at: 0,
            target: 0,
            size: 400,
        }]);
        let batches = drain(&mut schedule, 0..20);
        assert!(!batches.is_empty());
        let pops = schedule.modelled_populations();
        let total: usize = pops.iter().sum();
        assert_eq!(total, 4 * 100, "population must be conserved");
        for &pop in pops {
            assert!(pop >= MIN_CHANNEL_POPULATION, "pops {pops:?}");
        }
    }

    #[test]
    #[should_panic(expected = "was missed")]
    fn storm_missed_by_the_first_consulted_boundary_panics() {
        let mut schedule = CrowdZap::uniform(3, 50, 0.02, 1).with_storms(vec![Storm {
            at: 10,
            target: 0,
            size: 20,
        }]);
        let mut out = Vec::new();
        // First consultation happens after the storm's boundary — e.g. a
        // storm scheduled into the zap-free warm-up window.
        schedule.batches_at(40, &mut out);
    }

    #[test]
    fn storm_is_clamped_to_the_survival_floor() {
        let mut schedule = CrowdZap::uniform(3, 10, 0.0, 1).with_storms(vec![Storm {
            at: 0,
            target: 0,
            size: 1_000,
        }]);
        let batches = drain(&mut schedule, 0..1);
        let total: usize = batches.iter().map(|b| b.viewers).sum();
        // Two donor channels of 10 can give up at most 8 each.
        assert_eq!(total, 16);
        let pops = schedule.modelled_populations();
        assert_eq!(pops[1], MIN_CHANNEL_POPULATION);
        assert_eq!(pops[2], MIN_CHANNEL_POPULATION);
    }

    #[test]
    fn workload_descriptions_build_matching_schedules() {
        let mut uniform = CrowdZap::uniform(4, 50, 0.02, 7);
        assert_eq!(uniform.name(), "uniform");
        let batches = drain(&mut uniform, 0..30);
        assert!(!batches.is_empty());

        let zipf = CrowdZap::zipf(4, 50, 0.02, 0.9, 7);
        assert_eq!(zipf.name(), "zipf(0.9)");

        let mut storm = CrowdZap::uniform(4, 50, 0.02, 7).with_storms(vec![Storm {
            at: 5,
            target: 1,
            size: 40,
        }]);
        assert_eq!(storm.name(), "uniform+storms");
        let batches = drain(&mut storm, 0..6);
        let into_target: usize = batches
            .iter()
            .filter(|b| b.period == 5 && b.to == 1)
            .map(|b| b.viewers)
            .sum();
        assert!(into_target >= 40, "storm arrivals missing: {into_target}");

        // A storm-free schedule keeps its background label.
        assert_eq!(
            CrowdZap::uniform(4, 50, 0.02, 7)
                .with_storms(Vec::new())
                .name(),
            "uniform"
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_boundary_queries_panic() {
        let mut schedule = CrowdZap::uniform(3, 20, 0.1, 1);
        let mut out = Vec::new();
        schedule.batches_at(5, &mut out);
        schedule.batches_at(5, &mut out);
    }
}
