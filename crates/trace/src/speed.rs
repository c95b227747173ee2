//! Access-link speed classes of the 2000/2001 Gnutella population.
//!
//! The clip2 crawls recorded a self-reported "speed" field per peer.  The
//! generator reproduces the era-typical mix of dial-up, ISDN, DSL/cable and
//! institutional links.  The speed field is carried through the trace format
//! for fidelity but — like the paper — the simulator assigns its own inbound
//! and outbound segment rates (see `fss-overlay::bandwidth`), so this class
//! only influences generated metadata, not simulation results.

/// Access-link class of a crawled peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessSpeed {
    /// 56 kbit/s dial-up modem.
    Modem56k,
    /// 128 kbit/s ISDN.
    Isdn,
    /// 768 kbit/s ADSL.
    Dsl,
    /// 1.5 Mbit/s cable.
    Cable,
    /// 1.5 Mbit/s T1 (institutional).
    T1,
    /// 45 Mbit/s T3 (institutional backbone).
    T3,
}

impl AccessSpeed {
    /// All classes, in increasing nominal speed order.
    pub const ALL: [AccessSpeed; 6] = [
        AccessSpeed::Modem56k,
        AccessSpeed::Isdn,
        AccessSpeed::Dsl,
        AccessSpeed::Cable,
        AccessSpeed::T1,
        AccessSpeed::T3,
    ];

    /// Nominal link speed in kbit/s, as a peer of the era would have
    /// advertised it.
    pub fn kbps(self) -> u32 {
        match self {
            AccessSpeed::Modem56k => 56,
            AccessSpeed::Isdn => 128,
            AccessSpeed::Dsl => 768,
            AccessSpeed::Cable => 1_500,
            AccessSpeed::T1 => 1_544,
            AccessSpeed::T3 => 45_000,
        }
    }

    /// Era-typical population share of each class (sums to 1.0).
    ///
    /// Approximates the measured composition of the Gnutella network around
    /// 2001: predominantly dial-up and early broadband with a small
    /// institutional tail.
    pub fn population_share(self) -> f64 {
        match self {
            AccessSpeed::Modem56k => 0.35,
            AccessSpeed::Isdn => 0.10,
            AccessSpeed::Dsl => 0.25,
            AccessSpeed::Cable => 0.20,
            AccessSpeed::T1 => 0.08,
            AccessSpeed::T3 => 0.02,
        }
    }

    /// Maps an advertised kbit/s value back to the closest class.
    pub fn from_kbps(kbps: u32) -> AccessSpeed {
        let mut best = AccessSpeed::Modem56k;
        let mut best_diff = u32::MAX;
        for class in AccessSpeed::ALL {
            let diff = class.kbps().abs_diff(kbps);
            if diff < best_diff {
                best = class;
                best_diff = diff;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let total: f64 = AccessSpeed::ALL.iter().map(|c| c.population_share()).sum();
        assert!((total - 1.0).abs() < 1e-12, "shares sum to {total}");
    }

    #[test]
    fn speeds_are_increasing() {
        let speeds: Vec<u32> = AccessSpeed::ALL.iter().map(|c| c.kbps()).collect();
        let mut sorted = speeds.clone();
        sorted.sort_unstable();
        assert_eq!(speeds, sorted);
    }

    #[test]
    fn from_kbps_round_trips_each_class() {
        for class in AccessSpeed::ALL {
            assert_eq!(AccessSpeed::from_kbps(class.kbps()), class);
        }
    }

    #[test]
    fn from_kbps_picks_nearest() {
        assert_eq!(AccessSpeed::from_kbps(60), AccessSpeed::Modem56k);
        assert_eq!(AccessSpeed::from_kbps(700), AccessSpeed::Dsl);
        assert_eq!(AccessSpeed::from_kbps(100_000), AccessSpeed::T3);
        assert_eq!(AccessSpeed::from_kbps(0), AccessSpeed::Modem56k);
    }
}
