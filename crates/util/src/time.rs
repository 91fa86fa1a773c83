//! Microsecond timestamps matching the Cray log format.
//!
//! The paper's log excerpts carry times like `16:25:48.301744` — wall-clock
//! with microsecond resolution. Internally every event carries a [`Micros`]
//! offset from the start of the dataset; the display form renders the
//! `HH:MM:SS.uuuuuu` shape (wrapping at 24h like a syslog without a date
//! column would).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds since the start of the dataset.
///
/// ```
/// use desh_util::Micros;
/// let t = Micros::from_mins(2) + Micros::from_secs(3);
/// assert_eq!(t.as_secs_f64(), 123.0);
/// assert_eq!(t.as_clock(), "00:02:03.000000");
/// assert_eq!(Micros::parse_clock("00:02:03.000000"), Some(t));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(pub u64);

pub const MICROS_PER_SEC: u64 = 1_000_000;
pub const MICROS_PER_MIN: u64 = 60 * MICROS_PER_SEC;
pub const MICROS_PER_HOUR: u64 = 60 * MICROS_PER_MIN;
pub const MICROS_PER_DAY: u64 = 24 * MICROS_PER_HOUR;

impl Micros {
    /// From whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Micros(s * MICROS_PER_SEC)
    }

    /// From fractional seconds (saturating at zero for negatives).
    pub fn from_secs_f64(s: f64) -> Self {
        Micros((s.max(0.0) * MICROS_PER_SEC as f64).round() as u64)
    }

    /// From whole minutes.
    pub fn from_mins(m: u64) -> Self {
        Micros(m * MICROS_PER_MIN)
    }

    /// From whole hours.
    pub fn from_hours(h: u64) -> Self {
        Micros(h * MICROS_PER_HOUR)
    }

    /// From whole days.
    pub fn from_days(d: u64) -> Self {
        Micros(d * MICROS_PER_DAY)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// As fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_MIN as f64
    }

    /// Saturating difference (0 when `other` is later).
    pub fn saturating_sub(self, other: Micros) -> Micros {
        Micros(self.0.saturating_sub(other.0))
    }

    /// Absolute difference.
    pub fn abs_diff(self, other: Micros) -> Micros {
        Micros(self.0.abs_diff(other.0))
    }

    /// Render as `HH:MM:SS.uuuuuu`, wrapping at 24h (syslog style).
    pub fn as_clock(self) -> String {
        let in_day = self.0 % MICROS_PER_DAY;
        let h = in_day / MICROS_PER_HOUR;
        let m = (in_day % MICROS_PER_HOUR) / MICROS_PER_MIN;
        let s = (in_day % MICROS_PER_MIN) / MICROS_PER_SEC;
        let us = in_day % MICROS_PER_SEC;
        format!("{h:02}:{m:02}:{s:02}.{us:06}")
    }

    /// Parse the `HH:MM:SS.uuuuuu` clock form produced by [`Self::as_clock`].
    /// Returns `None` on malformed input. Day information is lost (syslogs
    /// in the paper's excerpts carry none), so round trips are modulo 24h.
    pub fn parse_clock(text: &str) -> Option<Micros> {
        match Self::parse_clock_prefix(text.as_bytes())? {
            (t, n) if n == text.len() => Some(t),
            _ => None,
        }
    }

    /// Parse a clock at the start of `b`, returning it and the bytes it
    /// spans; the caller checks the byte that follows (a field
    /// delimiter, or the end). Each of hours, minutes and seconds is an
    /// optional `+` and one or more digits, as `u64::from_str` reads
    /// them (leading zeros included); the fraction, when a `.` follows
    /// the seconds, is one to six bare digits.
    pub fn parse_clock_prefix(b: &[u8]) -> Option<(Micros, usize)> {
        let (h, mut i) = leading_u64(b)?;
        if b.get(i) != Some(&b':') {
            return None;
        }
        let (m, n) = leading_u64(&b[i + 1..])?;
        i += 1 + n;
        if b.get(i) != Some(&b':') {
            return None;
        }
        let (s, n) = leading_u64(&b[i + 1..])?;
        i += 1 + n;
        if h >= 24 || m >= 60 || s >= 60 {
            return None;
        }
        let mut us = 0;
        if b.get(i) == Some(&b'.') {
            let digits = b[i + 1..].iter().take_while(|c| c.is_ascii_digit()).count();
            if digits == 0 || digits > 6 {
                return None;
            }
            // Right-pad the fraction to microseconds.
            let frac = b[i + 1..i + 1 + digits]
                .iter()
                .fold(0, |acc, &c| acc * 10 + u64::from(c - b'0'));
            us = frac * 10u64.pow(6 - digits as u32);
            i += 1 + digits;
        }
        Some((
            Micros(h * MICROS_PER_HOUR + m * MICROS_PER_MIN + s * MICROS_PER_SEC + us),
            i,
        ))
    }
}

/// An optional `+` and one or more ASCII digits at the start of `b`, as
/// `u64::from_str` accepts them; `None` on no digits or overflow.
/// Returns the value and the bytes it spans.
pub fn leading_u64(b: &[u8]) -> Option<(u64, usize)> {
    let sign = usize::from(b.first() == Some(&b'+'));
    let mut v = 0u64;
    let mut i = sign;
    while let Some(&c) = b.get(i).filter(|c| c.is_ascii_digit()) {
        v = v.checked_mul(10)?.checked_add(u64::from(c - b'0'))?;
        i += 1;
    }
    (i > sign).then_some((v, i))
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_clock())
    }
}

/// Saturating conversion of a wall-clock [`std::time::Duration`] to whole
/// microseconds — the unit every latency histogram in the workspace
/// records. `Duration::as_micros` returns a `u128`; this clamps instead of
/// silently truncating on (absurdly) long intervals.
pub fn duration_us(d: std::time::Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_rendering_matches_paper_format() {
        let t = Micros::from_hours(16)
            + Micros::from_mins(25)
            + Micros::from_secs(48)
            + Micros(301_744);
        assert_eq!(t.as_clock(), "16:25:48.301744");
    }

    #[test]
    fn clock_round_trip() {
        for raw in [
            0u64,
            1,
            999_999,
            12 * MICROS_PER_HOUR + 345,
            MICROS_PER_DAY - 1,
        ] {
            let t = Micros(raw);
            let parsed = Micros::parse_clock(&t.as_clock()).unwrap();
            assert_eq!(parsed, t);
        }
    }

    #[test]
    fn clock_wraps_at_midnight() {
        let t = Micros::from_days(3) + Micros::from_hours(1);
        assert_eq!(t.as_clock(), "01:00:00.000000");
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "25:00:00",
            "10:61:00",
            "10:00:61",
            "10:00",
            "aa:bb:cc",
            "1:2:3.1234567",
        ] {
            assert!(Micros::parse_clock(bad).is_none(), "{bad} should fail");
        }
    }

    #[test]
    fn parse_pads_short_fractions() {
        assert_eq!(
            Micros::parse_clock("00:00:01.5").unwrap(),
            Micros(1_500_000)
        );
    }

    #[test]
    fn duration_us_converts_and_saturates() {
        assert_eq!(duration_us(std::time::Duration::from_millis(2)), 2_000);
        assert_eq!(duration_us(std::time::Duration::from_micros(7)), 7);
        assert_eq!(duration_us(std::time::Duration::MAX), u64::MAX);
    }

    #[test]
    fn arithmetic_and_conversions() {
        let a = Micros::from_secs(90);
        assert!((a.as_mins_f64() - 1.5).abs() < 1e-12);
        assert_eq!(a.saturating_sub(Micros::from_mins(2)), Micros(0));
        assert_eq!(
            Micros::from_mins(2).saturating_sub(a),
            Micros::from_secs(30)
        );
        assert_eq!(a.abs_diff(Micros::from_secs(100)), Micros::from_secs(10));
    }
}
