//! Protocol configuration.
//!
//! Defaults follow §5.1 of the paper exactly:
//!
//! * streaming rate 300 Kbps, segment size 30 Kb ⇒ playback rate `p = 10`
//!   segments/s,
//! * buffer of `B = 600` segments,
//! * scheduling period `τ = 1.0` s,
//! * startup threshold `Q = 10` consecutive segments,
//! * new-source startup threshold `Qs = 50` segments.
//!
//! The buffer map a peer sends each neighbour every period is not a setting:
//! §5.3 sizes it as "600 bits to record the data availability … The id of the
//! first segment in the buffer is indicated by 20 bits … getting the buffer
//! information of one neighbor takes 620 bits' communication cost in total",
//! i.e. `B` availability bits plus a [`HEAD_ID_BITS`]-bit head id
//! ([`GossipConfig::buffermap_bits`]).  The simulator never sends a map as
//! bytes; the size feeds the control-traffic counters.

use std::fmt;

/// Bits of the head segment id carried by every buffer map (§5.3).
pub const HEAD_ID_BITS: u64 = 20;

/// Errors produced when validating a [`GossipConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Description of the inconsistency.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid gossip configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Protocol parameters of the streaming system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Data scheduling period `τ` in seconds.
    pub tau_secs: f64,
    /// Playback rate `p` in segments per second.
    pub play_rate: f64,
    /// Buffer capacity `B` in segments.
    pub buffer_capacity: usize,
    /// Number of consecutive segments required to start playback of a stream
    /// (`Q`).
    pub startup_q: usize,
    /// Number of segments of a *new* source required before its playback may
    /// start (`Qs`).
    pub new_source_qs: usize,
    /// Payload size of one segment in bits (30 Kb = 30 × 1024 bits).
    pub segment_bits: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            tau_secs: 1.0,
            play_rate: 10.0,
            buffer_capacity: 600,
            startup_q: 10,
            new_source_qs: 50,
            segment_bits: 30 * 1024,
        }
    }
}

impl GossipConfig {
    /// The configuration used throughout the paper's evaluation.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Size of one buffer-map exchange in bits: `B` availability bits plus
    /// the [`HEAD_ID_BITS`]-bit head id (620 at the paper's `B = 600`).
    pub fn buffermap_bits(&self) -> u64 {
        self.buffer_capacity as u64 + HEAD_ID_BITS
    }

    /// Number of segments played per period.
    pub fn play_per_period(&self) -> f64 {
        self.play_rate * self.tau_secs
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |message: String| Err(ConfigError { message });
        if !self.tau_secs.is_finite() || self.tau_secs <= 0.0 {
            return err(format!("tau_secs {} must be positive", self.tau_secs));
        }
        if !self.play_rate.is_finite() || self.play_rate <= 0.0 {
            return err(format!("play_rate {} must be positive", self.play_rate));
        }
        if self.buffer_capacity == 0 {
            return err("buffer_capacity must be positive".into());
        }
        if self.buffer_capacity >= 1 << 16 {
            // The FIFO buffer's compact layout stores u16 epoch-relative
            // arrival sequence numbers; the live range (≤ capacity entries)
            // must fit one epoch.  Catch it here instead of panicking deep
            // inside system construction.
            return err(format!(
                "buffer_capacity {} must fit one u16 sequence epoch (< {})",
                self.buffer_capacity,
                1u32 << 16
            ));
        }
        if self.startup_q == 0 {
            return err("startup_q must be positive".into());
        }
        if self.new_source_qs == 0 {
            return err("new_source_qs must be positive".into());
        }
        if self.startup_q > self.buffer_capacity {
            // Playback starts after `startup_q` consecutive segments, which
            // a buffer of `buffer_capacity` can never hold.
            return err(format!(
                "startup_q {} cannot exceed buffer_capacity {}",
                self.startup_q, self.buffer_capacity
            ));
        }
        if self.new_source_qs > self.buffer_capacity {
            return err(format!(
                "new_source_qs {} cannot exceed buffer_capacity {}",
                self.new_source_qs, self.buffer_capacity
            ));
        }
        if self.segment_bits == 0 {
            return err("segment_bits must be positive".into());
        }
        let per_period = self.play_rate * self.tau_secs;
        if per_period > self.buffer_capacity as f64 {
            // The source would evict ids it emitted this period before any
            // buffer-map exchange: no peer could ever receive them.
            return err(format!(
                "play_rate·tau_secs {per_period} (ids emitted per period) cannot exceed \
                 buffer_capacity {}",
                self.buffer_capacity
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_5_1() {
        let c = GossipConfig::paper_default();
        assert_eq!(c.tau_secs, 1.0);
        assert_eq!(c.play_rate, 10.0);
        assert_eq!(c.buffer_capacity, 600);
        assert_eq!(c.startup_q, 10);
        assert_eq!(c.new_source_qs, 50);
        assert_eq!(c.segment_bits, 30 * 1024);
        c.validate().unwrap();
    }

    #[test]
    fn paper_default_is_620_bits() {
        let mut c = GossipConfig::paper_default();
        assert_eq!(c.buffermap_bits(), 620);
        // The map follows `B`: B availability bits plus the head id.
        c.buffer_capacity = 120;
        assert_eq!(c.buffermap_bits(), 140);
    }

    #[test]
    fn per_period_helpers() {
        let c = GossipConfig::paper_default();
        assert_eq!(c.play_per_period(), 10.0);
        let mut c2 = c;
        c2.tau_secs = 0.5;
        assert_eq!(c2.play_per_period(), 5.0);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let bad = |f: fn(&mut GossipConfig)| {
            let mut c = GossipConfig::default();
            f(&mut c);
            c.validate().unwrap_err()
        };
        assert!(bad(|c| c.tau_secs = 0.0).message.contains("tau"));
        assert!(bad(|c| c.play_rate = -1.0).message.contains("play_rate"));
        assert!(bad(|c| c.buffer_capacity = 0).message.contains("buffer"));
        assert!(bad(|c| c.buffer_capacity = 1 << 16)
            .message
            .contains("u16 sequence epoch"));
        assert!(bad(|c| c.startup_q = 0).message.contains("startup_q"));
        assert!(bad(|c| c.new_source_qs = 0)
            .message
            .contains("new_source_qs"));
        assert!(bad(|c| c.new_source_qs = 601).message.contains("exceed"));
        let startup = bad(|c| c.startup_q = 601).message;
        assert!(startup.contains("startup_q 601 cannot exceed buffer_capacity 600"));
        assert!(bad(|c| c.segment_bits = 0).message.contains("bits"));
        // More ids a period than the buffer holds.
        for overfull in [
            bad(|c| c.tau_secs = 1e300),
            bad(|c| c.play_rate = 1e12),
            bad(|c| c.tau_secs = 60.1),
            bad(|c| (c.buffer_capacity, c.startup_q, c.new_source_qs) = (9, 9, 9)),
        ] {
            assert!(
                overfull.message.contains("ids emitted per period"),
                "{overfull}"
            );
        }
        // Exactly B ids a period is allowed.
        let full = GossipConfig {
            tau_secs: 60.0,
            ..GossipConfig::default()
        };
        full.validate().unwrap();
    }

    #[test]
    fn config_error_displays() {
        let e = ConfigError {
            message: "broken".into(),
        };
        assert!(e.to_string().contains("broken"));
    }
}
