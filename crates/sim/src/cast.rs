//! Checked narrowing conversions for protocol state.
//!
//! A bare `as u16`/`as u32` silently truncates: a past sequence-wraparound
//! bug was exactly an `as`-cast whose implicit bound stopped holding.  Rule
//! FSS004 (`clippy::cast_possible_truncation`, on for the non-test code of
//! `fss-core` and `fss-gossip`) bans bare narrowing casts in the protocol
//! crates; narrowing goes through [`narrow`], which panics with the violated
//! invariant's name instead of corrupting state — on cold paths the branch is
//! free, and the panic message turns a multi-day digest bisect into a one-line
//! diagnostic.  (Provably-bounded hot-path casts keep their `as` under an
//! `#[expect(clippy::cast_possible_truncation, reason = "…")]` citing the
//! bounding invariant.)

use std::fmt::Display;

/// Converts `value` to the (narrower) target type, panicking with `what` —
/// the name of the invariant that was supposed to bound it — when the value
/// does not fit.
///
/// ```
/// use fss_sim::cast::narrow;
/// let offsets: u32 = narrow(4096usize * 64, "window offsets fit the span");
/// assert_eq!(offsets, 262_144);
/// ```
#[track_caller]
pub fn narrow<T, U>(value: T, what: &str) -> U
where
    T: Copy + Display,
    U: TryFrom<T>,
{
    match U::try_from(value) {
        Ok(narrowed) => narrowed,
        Err(_) => panic!("narrowing cast out of range: {what} (value {value})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_convert_exactly() {
        let v: u16 = narrow(65_535u32, "fits");
        assert_eq!(v, u16::MAX);
        let v: u32 = narrow(0usize, "fits");
        assert_eq!(v, 0);
    }

    #[test]
    #[should_panic(expected = "epoch delta bounded by live range")]
    fn out_of_range_panics_with_the_invariant_name() {
        let _: u16 = narrow(1u32 << 16, "epoch delta bounded by live range");
    }
}
