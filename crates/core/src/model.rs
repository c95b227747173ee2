//! The source-switch optimization model (Section 3).
//!
//! During a switch the node splits its constant inbound rate `I` into `I1`
//! (old source) and `I2` (new source).  With
//!
//! * `T1 = Q1 / I1` — time to receive the remaining old-source segments,
//! * `T1' = T1 + Q/p` — time to *finish playing* the old source,
//! * `T2 = Q2 / I2` — time to receive the first `Qs` new-source segments,
//!
//! minimizing `T2` subject to `T2 ≥ T1'` and `I = I1 + I2` has the closed
//! form solution `I1 = r1` of equation (4):
//!
//! ```text
//! r1 = ( I − p(Q1+Q2)/Q + sqrt( (p(Q1+Q2)/Q − I)² + 4·p·I·Q1/Q ) ) / 2
//! ```

/// Inputs of the switch-process optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchModel {
    /// `Q1`: undelivered segments of the old source.
    pub q1: f64,
    /// `Q2`: undelivered segments of the new source needed for its startup.
    pub q2: f64,
    /// `Q`: consecutive segments needed before a stream plays.
    pub q: f64,
    /// `p`: playback rate in segments per second.
    pub play_rate: f64,
    /// `I`: total inbound rate in segments per second.
    pub inbound: f64,
}

/// The optimal rate split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchSplit {
    /// Rate allocated to the old source (`I1 = r1`).
    pub r1: f64,
    /// Rate allocated to the new source (`I2 = I − r1`).
    pub r2: f64,
}

impl SwitchModel {
    /// Creates a model, validating that the fixed parameters are positive and
    /// the workload values non-negative.
    ///
    /// # Panics
    /// Panics on non-finite or non-positive `q`, `play_rate` or `inbound`, or
    /// negative `q1`/`q2`.
    pub fn new(q1: f64, q2: f64, q: f64, play_rate: f64, inbound: f64) -> Self {
        assert!(q1.is_finite() && q1 >= 0.0, "Q1 must be non-negative");
        assert!(q2.is_finite() && q2 >= 0.0, "Q2 must be non-negative");
        assert!(q.is_finite() && q > 0.0, "Q must be positive");
        assert!(
            play_rate.is_finite() && play_rate > 0.0,
            "play rate must be positive"
        );
        assert!(
            inbound.is_finite() && inbound > 0.0,
            "inbound rate must be positive"
        );
        SwitchModel {
            q1,
            q2,
            q,
            play_rate,
            inbound,
        }
    }

    /// Expected time to finish the old source's playback given `I1`
    /// (`T1' = Q1/I1 + Q/p`).
    pub fn finish_old_secs(&self, i1: f64) -> f64 {
        if self.q1 == 0.0 {
            self.q / self.play_rate
        } else if i1 <= 0.0 {
            f64::INFINITY
        } else {
            self.q1 / i1 + self.q / self.play_rate
        }
    }

    /// Expected time to gather the new source's startup segments given `I2`
    /// (`T2 = Q2/I2`).
    pub fn prepare_new_secs(&self, i2: f64) -> f64 {
        if self.q2 == 0.0 {
            0.0
        } else if i2 <= 0.0 {
            f64::INFINITY
        } else {
            self.q2 / i2
        }
    }

    /// The startup delay of the new source for a given split: the new source
    /// can start only when it is both prepared and the old stream has been
    /// played out, i.e. `max(T2, T1')`.
    pub fn startup_delay_secs(&self, i1: f64, i2: f64) -> f64 {
        self.prepare_new_secs(i2).max(self.finish_old_secs(i1))
    }

    /// The optimal split of equation (4): `I1 = r1`, `I2 = I − r1`.
    pub fn optimal_split(&self) -> SwitchSplit {
        let i = self.inbound;
        let p = self.play_rate;
        let q = self.q;
        // The closed form also covers the degenerate workloads: with Q1 = 0
        // it reduces to r1 = max(0, I − p·Q2/Q) and with Q2 = 0 to r1 = I.
        let a = p * (self.q1 + self.q2) / q;
        let discriminant = (a - i).powi(2) + 4.0 * p * i * self.q1 / q;
        let r1 = ((i - a) + discriminant.sqrt()) / 2.0;
        let r1 = r1.clamp(0.0, i);
        SwitchSplit { r1, r2: i - r1 }
    }
}

/// Convenience wrapper around [`SwitchModel::optimal_split`].
pub fn optimal_split(q1: f64, q2: f64, q: f64, play_rate: f64, inbound: f64) -> SwitchSplit {
    SwitchModel::new(q1, q2, q, play_rate, inbound).optimal_split()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_model(q1: f64, q2: f64) -> SwitchModel {
        // Paper defaults: Q = 10, p = 10, average I = 15.
        SwitchModel::new(q1, q2, 10.0, 10.0, 15.0)
    }

    /// Minimizes the startup delay over `I1 ∈ [0, I)` by a grid search of
    /// `steps` points: the oracle the closed form is checked against.
    fn numeric_best_split(m: &SwitchModel, steps: usize) -> SwitchSplit {
        let mut best = SwitchSplit {
            r1: 0.0,
            r2: m.inbound,
        };
        let mut best_delay = m.startup_delay_secs(best.r1, best.r2);
        for k in 1..steps {
            let r1 = m.inbound * k as f64 / steps as f64;
            let r2 = m.inbound - r1;
            let delay = m.startup_delay_secs(r1, r2);
            if delay < best_delay {
                best_delay = delay;
                best = SwitchSplit { r1, r2 };
            }
        }
        best
    }

    #[test]
    fn split_sums_to_inbound_and_is_positive() {
        let m = paper_model(100.0, 50.0);
        let s = m.optimal_split();
        assert!((s.r1 + s.r2 - 15.0).abs() < 1e-9);
        assert!(s.r1 > 0.0 && s.r2 > 0.0);
    }

    #[test]
    fn constraint_is_tight_at_the_optimum() {
        // At the optimum the inequality T2 >= T1' holds with equality.
        for (q1, q2) in [(100.0, 50.0), (30.0, 50.0), (200.0, 50.0), (10.0, 80.0)] {
            let m = paper_model(q1, q2);
            let s = m.optimal_split();
            let t1p = m.finish_old_secs(s.r1);
            let t2 = m.prepare_new_secs(s.r2);
            assert!(
                (t1p - t2).abs() < 1e-6,
                "T1'={t1p} T2={t2} not tight for Q1={q1} Q2={q2}"
            );
        }
    }

    #[test]
    fn closed_form_matches_numeric_minimum() {
        for (q1, q2) in [(100.0, 50.0), (40.0, 50.0), (150.0, 20.0), (5.0, 50.0)] {
            let m = paper_model(q1, q2);
            let closed = m.optimal_split();
            let numeric = numeric_best_split(&m, 20_000);
            let d_closed = m.startup_delay_secs(closed.r1, closed.r2);
            let d_numeric = m.startup_delay_secs(numeric.r1, numeric.r2);
            assert!(
                d_closed <= d_numeric + 1e-3,
                "closed-form delay {d_closed} worse than numeric {d_numeric}"
            );
        }
    }

    #[test]
    fn degenerate_workloads() {
        // Nothing left of the old source and a large S2 backlog: everything
        // goes to the new one.
        let s = paper_model(0.0, 50.0).optimal_split();
        assert_eq!(s.r1, 0.0);
        assert_eq!(s.r2, 15.0);
        // Nothing left of the old source and a small S2 backlog: S2 only gets
        // what it needs to be ready by the time the old playback drains.
        let s = paper_model(0.0, 5.0).optimal_split();
        assert!((s.r2 - 5.0).abs() < 1e-9);
        // New source already prepared: everything goes to the old one.
        let s = paper_model(120.0, 0.0).optimal_split();
        assert_eq!(s.r1, 15.0);
        assert_eq!(s.r2, 0.0);
    }

    #[test]
    fn more_old_backlog_means_more_rate_for_the_old_source() {
        let small = paper_model(20.0, 50.0).optimal_split();
        let large = paper_model(200.0, 50.0).optimal_split();
        assert!(large.r1 > small.r1);
    }

    #[test]
    fn finish_and_prepare_times() {
        let m = paper_model(100.0, 50.0);
        assert!((m.finish_old_secs(10.0) - 11.0).abs() < 1e-12);
        assert!((m.prepare_new_secs(5.0) - 10.0).abs() < 1e-12);
        assert_eq!(m.finish_old_secs(0.0), f64::INFINITY);
        assert_eq!(m.prepare_new_secs(0.0), f64::INFINITY);
        assert!((m.startup_delay_secs(10.0, 5.0) - 11.0).abs() < 1e-12);
        // With no old backlog, finishing the old source only costs Q/p.
        assert!((paper_model(0.0, 50.0).finish_old_secs(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn helper_function_matches_method() {
        let a = optimal_split(100.0, 50.0, 10.0, 10.0, 15.0);
        let b = paper_model(100.0, 50.0).optimal_split();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "inbound rate must be positive")]
    fn zero_inbound_panics() {
        let _ = SwitchModel::new(10.0, 10.0, 10.0, 10.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "Q1 must be non-negative")]
    fn negative_q1_panics() {
        let _ = SwitchModel::new(-1.0, 10.0, 10.0, 10.0, 15.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// The closed-form r1 always satisfies the feasibility inequality (1)
        /// (within numerical tolerance), lies inside [0, I], and achieves a
        /// startup delay no worse than any sampled alternative split.
        #[test]
        fn prop_closed_form_is_feasible_and_optimal(
            q1 in 0.0f64..500.0,
            q2 in 0.0f64..200.0,
            q in 1.0f64..50.0,
            p in 1.0f64..40.0,
            i in 1.0f64..60.0,
            alt in 0.01f64..0.99,
        ) {
            let m = SwitchModel::new(q1, q2, q, p, i);
            let s = m.optimal_split();
            proptest::prop_assert!(s.r1 >= -1e-9 && s.r1 <= i + 1e-9);
            proptest::prop_assert!((s.r1 + s.r2 - i).abs() < 1e-9);

            // Feasibility: T2 >= T1' (allowing tolerance for the boundary).
            // With Q2 = 0 there is nothing to prepare and the constraint is
            // vacuous.
            let t1p = m.finish_old_secs(s.r1);
            let t2 = m.prepare_new_secs(s.r2);
            if q2 > 0.0 && t1p.is_finite() && t2.is_finite() {
                proptest::prop_assert!(t2 + 1e-6 >= t1p - 1e-6);
            }

            // No alternative split does better.
            let alt_r1 = alt * i;
            let best = m.startup_delay_secs(s.r1, s.r2);
            let alternative = m.startup_delay_secs(alt_r1, i - alt_r1);
            proptest::prop_assert!(best <= alternative + 1e-6);
        }
    }
}
