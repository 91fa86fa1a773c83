//! Log records and their raw-line rendering.
//!
//! A generated dataset is a time-sorted stream of records shaped like the
//! paper's Table 2 rows: `timestamp node-id free-text-phrase`. The raw-line
//! form exists so the parsing substrate (`desh-logparse`) genuinely works
//! from unstructured text, not from the generator's internal structures.

use crate::nodeid::NodeId;
use desh_util::time::MICROS_PER_DAY;
use desh_util::Micros;
use std::fmt;
use std::str::FromStr;

/// One log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Offset from dataset start.
    pub time: Micros,
    /// Emitting node.
    pub node: NodeId,
    /// Unstructured message text (static phrase + dynamic fields).
    pub text: String,
}

impl LogRecord {
    /// Construct a record.
    pub fn new(time: Micros, node: NodeId, text: impl Into<String>) -> Self {
        Self { time, node, text: text.into() }
    }

    /// Render as a raw syslog-style line.
    pub fn to_raw_line(&self) -> String {
        format!("{} {} {}", self.time.as_clock(), self.node, self.text)
    }
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_raw_line())
    }
}

/// Error parsing a raw log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRecordError(pub String);

impl fmt::Display for ParseRecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid log line: {}", self.0)
    }
}

impl std::error::Error for ParseRecordError {}

impl FromStr for LogRecord {
    type Err = ParseRecordError;

    /// Parse a raw line back into a record. Note the clock wraps at 24h, so
    /// the time is the clock of day; [`DayClock`] re-sequences a stream of
    /// lines into absolute times.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LineHead::parse(s)
            .map(LineHead::to_record)
            .ok_or_else(|| ParseRecordError(s.to_string()))
    }
}

/// A raw line split without allocating: its clock, its node and the text
/// borrowed from the line. Accepts exactly what [`LogRecord::from_str`]
/// accepts: a clock, one space, a node id, one space, and non-empty text
/// (kept verbatim, leading spaces included).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineHead<'a> {
    /// Clock of day, or the absolute time once a [`DayClock`] placed it.
    pub time: Micros,
    /// Emitting node.
    pub node: NodeId,
    /// Message text, borrowed from the line.
    pub text: &'a str,
}

impl<'a> LineHead<'a> {
    /// Split a raw line; `None` when [`LogRecord::from_str`] would fail.
    pub fn parse(line: &'a str) -> Option<Self> {
        let b = line.as_bytes();
        let (time, i) = Micros::parse_clock_prefix(b)?;
        if b.get(i) != Some(&b' ') {
            return None;
        }
        let (node, n) = NodeId::parse_prefix(&b[i + 1..])?;
        let j = i + 1 + n;
        if b.get(j) != Some(&b' ') || j + 1 == b.len() {
            return None;
        }
        // Both delimiters are ASCII spaces, so `j + 1` is a char boundary.
        Some(LineHead { time, node, text: &line[j + 1..] })
    }

    /// The owned record, text copied.
    pub fn to_record(self) -> LogRecord {
        LogRecord { time: self.time, node: self.node, text: self.text.to_string() }
    }
}

/// Reconstructs absolute times from raw lines, whose clock column wraps
/// at 24 h (syslogs carry no date): whenever the clock runs backwards
/// relative to the previous line, a day boundary was crossed. Exact for
/// time-sorted streams, such as those [`crate::io::write_log_file`]
/// writes. Keep one per ordered stream — a file, a connection — starting
/// at day 0.
#[derive(Debug, Clone, Default)]
pub struct DayClock {
    day_offset: u64,
    prev: Option<u64>,
}

impl DayClock {
    /// A clock at day 0 that has seen no line yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse the next raw line and give it its absolute time. A line that
    /// does not parse leaves the clock as it was.
    pub fn parse(&mut self, line: &str) -> Result<LogRecord, ParseRecordError> {
        self.parse_head(line)
            .map(LineHead::to_record)
            .ok_or_else(|| ParseRecordError(line.to_string()))
    }

    /// [`DayClock::parse`] without allocating: the line's head, its time
    /// made absolute. `None` (clock unmoved) when the line does not parse.
    pub fn parse_head<'a>(&mut self, line: &'a str) -> Option<LineHead<'a>> {
        let mut head = LineHead::parse(line)?;
        let clock = head.time.0;
        if self.prev.is_some_and(|prev| clock < prev) {
            // Saturating: a peer can send any number of backward steps.
            self.day_offset = self.day_offset.saturating_add(MICROS_PER_DAY);
        }
        self.prev = Some(clock);
        head.time = Micros(clock.saturating_add(self.day_offset));
        Some(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodeid::NodeId;

    #[test]
    fn raw_line_round_trip() {
        let r = LogRecord::new(
            Micros::from_secs(59_148) + Micros(301_744),
            NodeId::new(1, 0, 1, 1, 0),
            "kernel LNet: hardware quiesce 20141216t162520, All threads awake",
        );
        let line = r.to_raw_line();
        assert_eq!(line, "16:25:48.301744 c1-0c1s1n0 kernel LNet: hardware quiesce 20141216t162520, All threads awake");
        let parsed: LogRecord = line.parse().unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "16:25:48.301744",
            "16:25:48.301744 c1-0c1s1n0",
            "not-a-time c1-0c1s1n0 hello",
            "16:25:48.301744 not-a-node hello",
        ] {
            assert!(bad.parse::<LogRecord>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn day_clock_advances_a_day_on_every_backward_step() {
        let mut clock = DayClock::new();
        let at = |line: &str, c: &mut DayClock| c.parse(line).unwrap().time;
        assert_eq!(
            at("23:59:59.000000 c0-0c0s0n0 a", &mut clock),
            Micros::from_secs(86_399)
        );
        // A corrupt line neither parses nor moves the clock.
        assert!(clock.parse("00:00:01.000000 garbage").is_err());
        assert_eq!(
            at("00:00:01.000000 c0-0c0s0n0 b", &mut clock),
            Micros::from_secs(86_401)
        );
        // Equal clocks stay on the same day.
        assert_eq!(
            at("00:00:01.000000 c0-0c0s0n1 c", &mut clock),
            Micros::from_secs(86_401)
        );
        assert_eq!(
            at("00:00:00.500000 c0-0c0s0n0 d", &mut clock),
            Micros::from_secs(2 * 86_400) + Micros(500_000)
        );
    }

    #[test]
    fn text_keeps_internal_spaces() {
        let line = "00:00:01.000000 c0-0c0s0n0 a b  c   d";
        let r: LogRecord = line.parse().unwrap();
        assert_eq!(r.text, "a b  c   d");
    }
}
