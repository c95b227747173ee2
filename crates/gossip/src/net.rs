//! The message-level network model behind the event-driven stepping mode.
//!
//! [`NetworkModel`] carries granted segment transfers as scheduled messages
//! in an arrival calendar (the crate's `queue` module: one bucket per
//! arrival period) instead of delivering them inside the period that
//! resolved them.  Each message leaves its supplier at the period boundary,
//! survives a Bernoulli data-leg loss draw, and arrives after the modeled
//! request+data round trip (scaled trace latency) plus a bounded jitter.
//! Buffer-map and request legs are modeled at the boundary itself:
//! a lost buffer map blinds a requester to that supplier for the period,
//! and a lost request never reaches (or charges) the supplier.
//!
//! Determinism model (see `docs/network.md`):
//!
//! * every loss/jitter decision is a stateless hash draw from
//!   [`fss_overlay::net::LinkFaults`] — no RNG cursor exists, so evaluation
//!   order cannot change an outcome;
//! * the calendar orders arrivals by time and ties by send order, and sends
//!   happen in the deterministic grant order;
//! * the ideal configuration ([`fss_overlay::NetworkConfig::ideal`]) lands
//!   every grant at the boundary that resolved it, so the fused walk
//!   applies the period's grants directly — period-lockstep stepping,
//!   byte-for-byte (pinned by the golden-digest suite).
//!
//! The model allocates only on installation and while the calendar's
//! buckets warm up to their high-water marks: messages are `Copy`
//! [`DeliveredSegment`](crate::transfer::DeliveredSegment)s stored inline,
//! and drained buckets keep their capacity, so steady-state event stepping
//! stays allocation-free (enforced by `zero_alloc.rs`).

#![expect(
    clippy::expect_used,
    reason = "constructor documents '# Panics' for invalid configs; config validation errors are programmer errors, not runtime conditions"
)]

use crate::queue::ArrivalCalendar;
use fss_overlay::net::{LinkFaults, NetworkConfig};
use fss_sim::SimTime;

/// Cumulative counters of the network model (diagnostics only — never part
/// of [`crate::system::SystemReport`], so enabling them cannot perturb the
/// golden-pinned report surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Requests suppressed because the supplier's buffer-map advertisement
    /// was lost (the requester scheduled blind).
    pub requests_blinded: u64,
    /// Requests dropped on the request leg (the supplier never saw them, so
    /// its outbound budget was not charged).
    pub requests_lost: u64,
    /// Granted segments handed to the network.
    pub data_sent: u64,
    /// Granted segments dropped on the data leg (the supplier's budget was
    /// already consumed — the paper-faithful cost of a lost transfer).
    pub data_lost: u64,
    /// Segments that completed their flight and landed in a buffer.
    pub data_delivered: u64,
    /// Segments that arrived after their requester left the overlay.
    pub data_stale: u64,
    /// High-water mark of simultaneously in-flight messages.
    pub max_in_flight: u64,
}

/// The installed network model: fault streams, the in-flight message
/// calendar and its counters.  Owned by `StreamingSystem`; the system's
/// event-driven step orchestrates it (fields are crate-visible for that,
/// like the period scratch).
#[derive(Debug)]
pub struct NetworkModel {
    /// The configured knobs (validated on installation).
    pub(crate) config: NetworkConfig,
    /// Stateless per-link loss/jitter draws.
    pub(crate) faults: LinkFaults,
    /// In-flight messages ordered by (arrival time, send order).
    pub(crate) calendar: ArrivalCalendar,
    /// Cumulative diagnostics.
    pub(crate) stats: NetStats,
}

impl NetworkModel {
    /// Builds the model with a calendar of `horizon` period buckets, each
    /// pre-reserved for `per_period` arrivals.
    ///
    /// # Panics
    /// Panics if `config` fails validation for a `tau_ms` period (so also
    /// if `tau_ms` is zero).
    pub fn new(config: NetworkConfig, tau_ms: u64, horizon: usize, per_period: usize) -> Self {
        config
            .validate(tau_ms as f64 / 1_000.0)
            .expect("valid network configuration");
        NetworkModel {
            config,
            faults: LinkFaults::new(&config),
            calendar: ArrivalCalendar::new(tau_ms, horizon, per_period),
            stats: NetStats::default(),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The cumulative counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.calendar.len()
    }

    /// Arrival time of the next in-flight message, if any.
    pub fn next_arrival(&self) -> Option<SimTime> {
        self.calendar.next_arrival()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::DeliveredSegment;

    #[test]
    fn new_validates_and_presizes() {
        let m = NetworkModel::new(NetworkConfig::ideal(), 1_000, 3, 64);
        assert!(m.calendar.reserved_entries() >= 3 * 64);
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.stats(), NetStats::default());
        assert_eq!(m.next_arrival(), None);
    }

    #[test]
    #[should_panic(expected = "at least 1 ms")]
    fn zero_tau_is_rejected() {
        NetworkModel::new(NetworkConfig::ideal(), 0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "valid network configuration")]
    fn invalid_config_is_rejected() {
        NetworkModel::new(NetworkConfig::lossy(1.5, 0), 1_000, 1, 0);
    }

    #[test]
    fn messages_are_copy_and_pointer_free() {
        // The zero-allocation guarantee rests on payloads living inline in
        // the calendar's buckets; keep the message small and Copy.
        fn assert_copy<T: Copy>() {}
        assert_copy::<DeliveredSegment>();
        assert!(std::mem::size_of::<DeliveredSegment>() <= 24);
    }
}
