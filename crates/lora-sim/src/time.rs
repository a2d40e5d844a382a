//! Simulation time as a totally ordered key.
//!
//! Event times are `f64` seconds; `f64` is not `Ord`, so the event queue
//! keys on [`TimeKey`], which orders exactly as `f64::total_cmp`. The key
//! stores the total-order bit transform of the timestamp, so comparing
//! two keys is one integer comparison. Event times produced by the
//! simulator are always finite; the wrapper asserts that in debug builds.

/// A totally ordered, finite simulation timestamp in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimeKey(i64);

impl TimeKey {
    /// Wraps a timestamp.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `seconds` is not finite.
    #[inline]
    pub fn new(seconds: f64) -> Self {
        debug_assert!(seconds.is_finite(), "simulation time must be finite");
        TimeKey(total_order_bits(seconds.to_bits() as i64))
    }

    /// The timestamp in seconds.
    #[inline]
    pub fn seconds(self) -> f64 {
        f64::from_bits(total_order_bits(self.0) as u64)
    }
}

/// The bit transform `f64::total_cmp` applies before comparing as signed
/// integers: negative values have their magnitude bits flipped, so larger
/// magnitudes sort lower. It is its own inverse (the sign bit selects the
/// flip and is left unchanged).
#[inline]
fn total_order_bits(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

impl From<f64> for TimeKey {
    fn from(seconds: f64) -> Self {
        TimeKey::new(seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_numeric() {
        assert!(TimeKey::new(1.0) < TimeKey::new(2.0));
        assert!(TimeKey::new(-1.0) < TimeKey::new(0.0));
        assert_eq!(TimeKey::new(3.5), TimeKey::new(3.5));
    }

    #[test]
    fn zero_signs_are_ordered_consistently() {
        // total_cmp puts −0.0 before +0.0; all we need is a total order.
        let mut v = [TimeKey::new(0.0), TimeKey::new(-0.0), TimeKey::new(1.0)];
        v.sort();
        assert_eq!(v[2], TimeKey::new(1.0));
    }

    #[test]
    fn keys_order_as_total_cmp_and_round_trip() {
        let times = [
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.1,
            1.0,
            600.0,
            f64::MAX,
        ];
        for a in times {
            assert_eq!(TimeKey::new(a).seconds().to_bits(), a.to_bits());
            for b in times {
                assert_eq!(TimeKey::new(a).cmp(&TimeKey::new(b)), a.total_cmp(&b));
            }
        }
    }
}
