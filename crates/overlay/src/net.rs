//! Link-level fault and delay configuration.
//!
//! [`NetworkConfig`] is the knob set of the message-level network model the
//! event-driven stepping mode runs on (see `fss-gossip::net` and
//! `docs/network.md`): a global multiplier on the per-link latency derived
//! from [`crate::latency::LatencyModel`], a Bernoulli per-message loss rate,
//! and a bounded per-message jitter that reorders same-period messages.
//!
//! [`LinkFaults`] turns those knobs into *stateless* deterministic draws:
//! every loss/jitter decision is a pure hash of
//! `(seed, src, dst, message kind, period, discriminator)`, so the outcome
//! of any message is independent of the order the simulator evaluates it in.
//! That is what keeps event-driven runs byte-identical across worker pools,
//! shard layouts and session run-ahead bounds — there is no RNG cursor to
//! perturb.

use crate::graph::PeerId;

/// Knobs of the message-level network model.
///
/// The default ([`NetworkConfig::ideal`]) is the degenerate instance the
/// period-lockstep mode is equivalent to: zero latency, zero loss, zero
/// jitter.  Golden-digest tests pin that equivalence byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Multiplier applied to the modeled per-link round-trip time from
    /// [`crate::latency::LatencyModel`].  `0.0` delivers instantly; `1.0`
    /// uses the trace-derived ping times as-is.
    pub latency_scale: f64,
    /// Per-message Bernoulli loss probability in `[0, 1)`, applied
    /// independently to buffer-map, request and data legs.
    pub loss_rate: f64,
    /// Upper bound on the uniform per-message extra delay in milliseconds
    /// (`0` disables jitter).  Jitter is what reorders messages that share
    /// a link and a period.
    pub jitter_ms: u64,
    /// Seed of the stateless fault streams ([`LinkFaults`]).
    pub seed: u64,
}

impl NetworkConfig {
    /// The degenerate zero-latency / zero-loss / zero-jitter network the
    /// period-lockstep mode is byte-equivalent to.
    pub fn ideal() -> Self {
        NetworkConfig {
            latency_scale: 0.0,
            loss_rate: 0.0,
            jitter_ms: 0,
            seed: 0,
        }
    }

    /// A lossy but zero-latency network.
    pub fn lossy(loss_rate: f64, seed: u64) -> Self {
        NetworkConfig {
            loss_rate,
            seed,
            ..Self::ideal()
        }
    }

    /// A loss-free network with trace latencies scaled by `latency_scale`.
    pub fn delayed(latency_scale: f64, seed: u64) -> Self {
        NetworkConfig {
            latency_scale,
            seed,
            ..Self::ideal()
        }
    }

    /// The same configuration with a different fault-stream seed.
    pub fn with_seed(self, seed: u64) -> Self {
        NetworkConfig { seed, ..self }
    }

    /// True when the configuration cannot delay, drop or reorder anything —
    /// the instance period-lockstep stepping is equivalent to.
    pub fn is_ideal(&self) -> bool {
        self.latency_scale == 0.0 && self.loss_rate == 0.0 && self.jitter_ms == 0
    }

    /// Validates the configuration for a run whose scheduling period is
    /// `tau_secs`.  The event network keeps time in whole milliseconds, so
    /// the period must round to at least 1 ms.
    pub fn validate(&self, tau_secs: f64) -> Result<(), String> {
        let tau_ms = (tau_secs * 1_000.0).round();
        if tau_ms.is_nan() || tau_ms < 1.0 {
            return Err(format!(
                "tau_secs {tau_secs} rounds below the event network's 1 ms resolution: \
                 the scheduling period must be at least 1 ms"
            ));
        }
        if !self.latency_scale.is_finite() || self.latency_scale < 0.0 {
            return Err(format!(
                "latency_scale {} must be finite and non-negative",
                self.latency_scale
            ));
        }
        if !self.loss_rate.is_finite() || !(0.0..1.0).contains(&self.loss_rate) {
            return Err(format!(
                "loss_rate {} outside the sensible range [0, 1)",
                self.loss_rate
            ));
        }
        Ok(())
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self::ideal()
    }
}

/// The three message legs a period's gossip exchange decomposes into.  Each
/// leg draws from its own fault stream, so e.g. losing a data message never
/// perturbs the request-loss pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Per-period buffer-map advertisement (supplier → requester).
    BufferMap,
    /// Segment request (requester → supplier).
    Request,
    /// Granted segment transfer (supplier → requester).
    Data,
}

impl MessageKind {
    /// Stream-separation salt mixed into every draw for this leg.
    #[inline]
    fn salt(self) -> u64 {
        match self {
            MessageKind::BufferMap => 0x4D41_5053,
            MessageKind::Request => 0x5245_5153,
            MessageKind::Data => 0x4441_5441,
        }
    }
}

/// Stateless per-link fault streams: loss and jitter draws that are pure
/// functions of `(seed, src, dst, kind, period, discriminator)`.
///
/// Because no draw advances any cursor, evaluation order cannot change an
/// outcome — the property the cross-pool/cross-shard byte-determinism of the
/// event-driven mode rests on.  Memory cost is O(1) regardless of link count.
///
/// A draw is four splitmix64 rounds, one per input: the sender (with the
/// seed and the leg's salt), the receiver, the period and the
/// discriminator.  The first round is a [`SourcePrefix`] and the first
/// three a [`LinkPrefix`]; a caller drawing many messages of one sender or
/// one link computes the prefix once and finishes each message with
/// [`lost_on`](Self::lost_on) / [`jitter_on`](Self::jitter_on).  The
/// one-shot [`lost`](Self::lost) is the same loss draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    seed: u64,
    jitter_ms: u64,
    /// Loss threshold in fixed point: a draw is a loss when its top 53 bits,
    /// mapped to `[0, 1)`, fall below `loss_rate`.
    loss_rate: f64,
}

/// Round 1 of a draw: the seed, the message leg and the sender.  Shared by
/// every message one sender sends on one leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourcePrefix(u64);

/// Rounds 1–3 of a draw: the seed, the leg, the sender, the receiver and
/// the period.  Shared by every message of one link, leg and period; loss
/// and jitter of a message finish the same prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkPrefix(u64);

/// Separates a message's jitter draw from its loss draw.
const JITTER_SALT: u64 = 0x4A49_5454;

impl LinkFaults {
    /// Builds the fault streams for `config`.
    pub fn new(config: &NetworkConfig) -> Self {
        LinkFaults {
            seed: config.seed,
            jitter_ms: config.jitter_ms,
            loss_rate: config.loss_rate,
        }
    }

    /// The draw prefix of every `kind` message `src` sends.
    #[inline]
    pub fn source(&self, src: PeerId, kind: MessageKind) -> SourcePrefix {
        SourcePrefix(splitmix64(self.seed ^ kind.salt() ^ (src as u64)))
    }

    /// The draw prefix of every message on the link from `source`'s sender
    /// to `dst` in `period`.
    #[inline]
    pub fn link(&self, source: SourcePrefix, dst: PeerId, period: u64) -> LinkPrefix {
        let h = splitmix64(source.0 ^ (dst as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        LinkPrefix(splitmix64(h ^ period.wrapping_mul(0xbf58_476d_1ce4_e5b9)))
    }

    /// Whether the message `disc` on `link` is dropped.
    #[inline]
    pub fn lost_on(&self, link: LinkPrefix, disc: u64) -> bool {
        if self.loss_rate <= 0.0 {
            return false;
        }
        let x = finish(link, disc);
        // Top 53 bits → uniform f64 in [0, 1).
        ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.loss_rate
    }

    /// The extra delay in `[0, jitter_ms]` of the message `disc` on `link`
    /// (0 when jitter is disabled).  Independent of its loss draw.
    #[inline]
    pub fn jitter_on(&self, link: LinkPrefix, disc: u64) -> u64 {
        if self.jitter_ms == 0 {
            return 0;
        }
        finish(link, disc ^ JITTER_SALT) % (self.jitter_ms + 1)
    }

    /// Whether the message identified by `(src, dst, kind, period, disc)`
    /// is dropped.  `disc` disambiguates messages sharing a link, kind and
    /// period (the system passes the segment id).
    #[inline]
    pub fn lost(
        &self,
        src: PeerId,
        dst: PeerId,
        kind: MessageKind,
        period: u64,
        disc: u64,
    ) -> bool {
        self.loss_rate > 0.0 && self.lost_on(self.link(self.source(src, kind), dst, period), disc)
    }
}

/// Round 4 of a draw: the message's discriminator.
#[inline]
fn finish(link: LinkPrefix, disc: u64) -> u64 {
    splitmix64(link.0 ^ disc.wrapping_mul(0x94d0_49bb_1331_11eb))
}

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_config_validates_and_is_ideal() {
        let c = NetworkConfig::ideal();
        assert!(c.validate(1.0).is_ok());
        assert!(c.is_ideal());
        assert_eq!(NetworkConfig::default(), c);
    }

    #[test]
    fn constructors_set_the_expected_knob() {
        let lossy = NetworkConfig::lossy(0.1, 7);
        assert_eq!(lossy.loss_rate, 0.1);
        assert!(!lossy.is_ideal());
        let delayed = NetworkConfig::delayed(4.0, 7);
        assert_eq!(delayed.latency_scale, 4.0);
        assert!(!delayed.is_ideal());
        assert_eq!(lossy.with_seed(9).seed, 9);
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(NetworkConfig::lossy(1.0, 0).validate(1.0).is_err());
        assert!(NetworkConfig::lossy(-0.1, 0).validate(1.0).is_err());
        assert!(NetworkConfig::lossy(f64::NAN, 0).validate(1.0).is_err());
        assert!(NetworkConfig::delayed(-1.0, 0).validate(1.0).is_err());
        assert!(NetworkConfig::delayed(f64::INFINITY, 0)
            .validate(1.0)
            .is_err());
        // The period must round to at least one millisecond.
        let ideal = NetworkConfig::ideal();
        assert!(ideal.validate(0.0005).is_ok());
        assert!(ideal.validate(0.0004).is_err());
        assert!(ideal.validate(0.0).is_err());
        assert!(ideal.validate(f64::NAN).is_err());
    }

    #[test]
    fn draws_are_pure_functions_of_their_inputs() {
        let f = LinkFaults::new(&NetworkConfig {
            loss_rate: 0.3,
            jitter_ms: 40,
            ..NetworkConfig::ideal()
        });
        for disc in 0..50 {
            assert_eq!(
                f.lost(3, 9, MessageKind::Data, 17, disc),
                f.lost(3, 9, MessageKind::Data, 17, disc)
            );
            let link = f.link(f.source(3, MessageKind::Data), 9, 17);
            assert_eq!(f.jitter_on(link, disc), f.jitter_on(link, disc));
            assert!(f.jitter_on(link, disc) <= 40);
        }
    }

    #[test]
    fn legs_draw_from_independent_streams() {
        let f = LinkFaults::new(&NetworkConfig::lossy(0.5, 11));
        let kinds = [
            MessageKind::BufferMap,
            MessageKind::Request,
            MessageKind::Data,
        ];
        // Over many messages the three legs must not produce identical
        // loss patterns (they share every input except the kind salt).
        let patterns: Vec<Vec<bool>> = kinds
            .iter()
            .map(|&k| (0..64).map(|d| f.lost(1, 2, k, 0, d)).collect())
            .collect();
        assert_ne!(patterns[0], patterns[1]);
        assert_ne!(patterns[1], patterns[2]);
    }

    #[test]
    fn loss_frequency_tracks_the_configured_rate() {
        let f = LinkFaults::new(&NetworkConfig::lossy(0.25, 42));
        let n = 20_000;
        let losses = (0..n)
            .filter(|&d| f.lost(5, 6, MessageKind::Data, d / 100, d))
            .count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed loss rate {rate}");
    }

    /// The one-shot draw as it was written before the prefixes existed:
    /// all four rounds in one go.
    fn oracle_draw(
        seed: u64,
        src: PeerId,
        dst: PeerId,
        kind: MessageKind,
        period: u64,
        disc: u64,
    ) -> u64 {
        let mut h = seed ^ kind.salt();
        h = splitmix64(h ^ (src as u64));
        h = splitmix64(h ^ (dst as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = splitmix64(h ^ period.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        splitmix64(h ^ disc.wrapping_mul(0x94d0_49bb_1331_11eb))
    }

    fn oracle_lost(config: &NetworkConfig, draw: impl Fn(u64) -> u64, disc: u64) -> bool {
        config.loss_rate > 0.0
            && ((draw(disc) >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < config.loss_rate
    }

    fn oracle_jitter(config: &NetworkConfig, draw: impl Fn(u64) -> u64, disc: u64) -> u64 {
        if config.jitter_ms == 0 {
            0
        } else {
            draw(disc ^ 0x4A49_5454) % (config.jitter_ms + 1)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// The per-source and per-link prefixes finish to the one-shot
        /// loss draw's value and to the four-round oracle's loss and
        /// jitter, for every leg, with loss and jitter disabled or not.
        #[test]
        fn prop_prefixes_match_one_shot_draws(
            seed in 0u64..u64::MAX,
            loss_pick in 0u8..4,
            jitter_ms in 0u64..3,
            src in 0u32..u32::MAX,
            dsts in proptest::collection::vec(0u32..u32::MAX, 1..4),
            period in 0u64..u64::MAX,
            discs in proptest::collection::vec(0u64..u64::MAX, 1..8),
        ) {
            let config = NetworkConfig {
                latency_scale: 0.0,
                loss_rate: [0.0, 0.01, 0.5, 0.999][loss_pick as usize],
                // 0 (off), 1 and 2 ms, and a wide bound.
                jitter_ms: if jitter_ms == 2 { 1_000 } else { jitter_ms },
                seed,
            };
            let f = LinkFaults::new(&config);
            for kind in [MessageKind::BufferMap, MessageKind::Request, MessageKind::Data] {
                let source = f.source(src, kind);
                for &dst in &dsts {
                    let link = f.link(source, dst, period);
                    let draw = |disc| oracle_draw(seed, src, dst, kind, period, disc);
                    for &disc in &discs {
                        let lost = f.lost_on(link, disc);
                        let jitter = f.jitter_on(link, disc);
                        proptest::prop_assert_eq!(lost, f.lost(src, dst, kind, period, disc));
                        proptest::prop_assert_eq!(lost, oracle_lost(&config, draw, disc));
                        proptest::prop_assert_eq!(jitter, oracle_jitter(&config, draw, disc));
                    }
                }
            }
        }
    }

    #[test]
    fn zero_rates_never_drop_or_delay() {
        let f = LinkFaults::new(&NetworkConfig::ideal());
        for d in 0..100 {
            assert!(!f.lost(0, 1, MessageKind::Request, d, d));
            let link = f.link(f.source(0, MessageKind::Request), 1, d);
            assert_eq!(f.jitter_on(link, d), 0);
        }
    }
}
