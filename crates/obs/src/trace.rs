//! Structured decision traces — the "why" behind every online verdict.
//!
//! A [`TraceEvent`] is one wide event per scored log line: which phrase
//! arrived, the gap to the previous event, the per-step MSE the model
//! assigned versus the decision threshold, whether the carried-state or
//! the full-replay path scored it, and — when a warning fired — which
//! trained failure chain the episode matched. Events are plain-old-data
//! on purpose: every field packs into a `u64` word so the per-node
//! flight recorder (`crate::flight`) can store them in lock-free seqlock
//! slots with no allocation on the scoring hot path.
//!
//! A [`WarningRecord`] is the evidence bundle shipped with one fired
//! warning: the verdict fields plus the firing episode's events from the
//! node's flight ring ([`crate::NodeFlight::episode`]). [`WarningLog`] keeps the most recent records for the
//! `/warnings` introspection endpoint and JSONL dumps.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::jsonl::{push_escaped, push_f64};

/// Number of `u64` words one [`TraceEvent`] packs into (the flight
/// recorder's slot width).
pub const TRACE_WORDS: usize = 11;

/// One scored event, as recorded on the online detector's decision path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Event timestamp, microseconds.
    pub at_us: u64,
    /// Phrase id of the arriving template.
    pub phrase: u32,
    /// ΔT: seconds since the node's previous buffered event (0 for the
    /// first event of an episode).
    pub dt_secs: f64,
    /// This transition's scaled one-step MSE (`NaN` for the first event
    /// of a stream, which has no transition to score).
    pub step_mse: f64,
    /// Running mean MSE — the decision score compared to `threshold`.
    pub mean_mse: f64,
    /// Configured decision threshold (`mse_threshold`).
    pub threshold: f64,
    /// Scored transitions accumulated so far in this episode.
    pub transitions: u32,
    /// Minimum transitions required before a warning may fire.
    pub min_evidence: u32,
    /// `true` when this event was scored by the full-replay fallback
    /// (episode just (re)started), `false` on the carried-state path.
    pub replayed: bool,
    /// `true` when this event fired a warning.
    pub warned: bool,
    /// Matched trained-chain index when a warning fired (`-1` when no
    /// chain index was attached or no warning fired).
    pub matched_chain: i64,
}

impl TraceEvent {
    /// Pack into the flight recorder's word representation.
    pub fn to_words(&self) -> [u64; TRACE_WORDS] {
        [
            self.at_us,
            self.phrase as u64,
            self.dt_secs.to_bits(),
            self.step_mse.to_bits(),
            self.mean_mse.to_bits(),
            self.threshold.to_bits(),
            self.transitions as u64,
            self.min_evidence as u64,
            self.replayed as u64,
            self.warned as u64,
            self.matched_chain as u64,
        ]
    }

    /// Unpack from the flight recorder's word representation.
    pub fn from_words(w: &[u64; TRACE_WORDS]) -> Self {
        Self {
            at_us: w[0],
            phrase: w[1] as u32,
            dt_secs: f64::from_bits(w[2]),
            step_mse: f64::from_bits(w[3]),
            mean_mse: f64::from_bits(w[4]),
            threshold: f64::from_bits(w[5]),
            transitions: w[6] as u32,
            min_evidence: w[7] as u32,
            replayed: w[8] != 0,
            warned: w[9] != 0,
            matched_chain: w[10] as i64,
        }
    }

    /// Render as one JSON object (one JSONL line without the newline).
    /// `node` is carried explicitly so per-node dumps stay self-describing
    /// when concatenated.
    pub fn to_json(&self, node: &str) -> String {
        let mut s = String::from("{\"type\":\"trace\",\"node\":");
        push_escaped(&mut s, node);
        s.push_str(&format!(",\"at_us\":{}", self.at_us));
        s.push_str(&format!(",\"phrase\":{}", self.phrase));
        s.push_str(",\"dt_secs\":");
        push_f64(&mut s, self.dt_secs);
        s.push_str(",\"step_mse\":");
        push_f64(&mut s, self.step_mse);
        s.push_str(",\"mean_mse\":");
        push_f64(&mut s, self.mean_mse);
        s.push_str(",\"threshold\":");
        push_f64(&mut s, self.threshold);
        s.push_str(&format!(
            ",\"transitions\":{},\"min_evidence\":{}",
            self.transitions, self.min_evidence
        ));
        s.push_str(&format!(
            ",\"path\":\"{}\"",
            if self.replayed { "replay" } else { "carried" }
        ));
        s.push_str(&format!(
            ",\"warned\":{},\"matched_chain\":{}}}",
            self.warned, self.matched_chain
        ));
        s
    }
}

/// One fired warning plus its supporting evidence: the verdict fields and
/// the decision trace of the episode that fired it.
#[derive(Debug, Clone, PartialEq)]
pub struct WarningRecord {
    /// Node the warning names.
    pub node: String,
    /// Warning time, microseconds.
    pub at_us: u64,
    /// Model-predicted remaining lead time, seconds.
    pub predicted_lead_secs: f64,
    /// Decision score at firing time.
    pub score: f64,
    /// Inferred failure class name.
    pub class: String,
    /// Matched trained-chain index (`-1` when unknown).
    pub matched_chain: i64,
    /// DTW distance to the matched chain (`NaN` when unknown).
    pub chain_distance: f64,
    /// Evidence phrase templates, oldest first.
    pub evidence: Vec<String>,
    /// The firing episode's decision trace, oldest first: from the
    /// episode's first scored event to the one that fired.
    pub trace: Vec<TraceEvent>,
}

impl WarningRecord {
    /// Render as one JSON object (one JSONL line without the newline).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"type\":\"warning\",\"node\":");
        push_escaped(&mut s, &self.node);
        s.push_str(&format!(",\"at_us\":{}", self.at_us));
        s.push_str(",\"predicted_lead_secs\":");
        push_f64(&mut s, self.predicted_lead_secs);
        s.push_str(",\"score\":");
        push_f64(&mut s, self.score);
        s.push_str(",\"class\":");
        push_escaped(&mut s, &self.class);
        s.push_str(&format!(",\"matched_chain\":{}", self.matched_chain));
        s.push_str(",\"chain_distance\":");
        push_f64(&mut s, self.chain_distance);
        s.push_str(",\"evidence\":[");
        for (i, e) in self.evidence.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_escaped(&mut s, e);
        }
        s.push_str("],\"trace\":[");
        for (i, t) in self.trace.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&t.to_json(&self.node));
        }
        s.push_str("]}");
        s
    }
}

/// Default cap on records `/warnings` renders when no `?limit=N` is given.
/// Each record carries a full evidence trace, so an unbounded response over
/// a long soak can run to many megabytes.
pub const DEFAULT_WARNINGS_LIMIT: usize = 32;

/// Bounded in-memory log of the most recent [`WarningRecord`]s.
///
/// A plain mutex-guarded deque: warnings are rare (per episode, not per
/// event), so this is never on the scoring hot path.
#[derive(Debug)]
pub struct WarningLog {
    cap: usize,
    inner: Mutex<VecDeque<WarningRecord>>,
}

impl WarningLog {
    /// Keep at most `cap` recent warnings.
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Append a record, evicting the oldest beyond capacity.
    pub fn push(&self, rec: WarningRecord) {
        let mut q = self.inner.lock().unwrap();
        if q.len() == self.cap {
            q.pop_front();
        }
        q.push_back(rec);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<WarningRecord> {
        self.inner.lock().unwrap().iter().cloned().collect()
    }

    /// Copy of the most recent record only.
    pub fn newest(&self) -> Option<WarningRecord> {
        self.inner.lock().unwrap().back().cloned()
    }

    /// Render every retained record as a JSON array (for `/warnings`).
    pub fn to_json_array(&self) -> String {
        let q = self.inner.lock().unwrap();
        let mut s = String::from("[");
        for (i, r) in q.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&r.to_json());
        }
        s.push(']');
        s
    }

    /// Render at most `limit` of the most recent records as a JSON array,
    /// **newest first** (the triage order: the warning that just fired is
    /// element 0).
    pub fn to_json_array_newest(&self, limit: usize) -> String {
        let q = self.inner.lock().unwrap();
        let mut s = String::from("[");
        for (i, r) in q.iter().rev().take(limit).enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&r.to_json());
        }
        s.push(']');
        s
    }

    /// Render every retained record as JSONL (one warning per line).
    pub fn to_jsonl(&self) -> String {
        let q = self.inner.lock().unwrap();
        let mut s = String::new();
        for r in q.iter() {
            s.push_str(&r.to_json());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, warned: bool) -> TraceEvent {
        TraceEvent {
            at_us: at,
            phrase: 7,
            dt_secs: 1.5,
            step_mse: 0.25,
            mean_mse: 0.4,
            threshold: 0.5,
            transitions: 3,
            min_evidence: 2,
            replayed: at == 0,
            warned,
            matched_chain: if warned { 2 } else { -1 },
        }
    }

    #[test]
    fn word_round_trip_is_lossless() {
        for e in [ev(0, false), ev(123, true)] {
            assert_eq!(TraceEvent::from_words(&e.to_words()), e);
        }
        // NaN step MSE survives the bit round trip (first-event case).
        let mut first = ev(9, false);
        first.step_mse = f64::NAN;
        let back = TraceEvent::from_words(&first.to_words());
        assert!(back.step_mse.is_nan());
    }

    #[test]
    fn trace_json_carries_decision_fields() {
        let line = ev(42, true).to_json("c0-0c0s0n1");
        assert!(line.starts_with("{\"type\":\"trace\",\"node\":\"c0-0c0s0n1\""));
        assert!(line.contains("\"step_mse\":0.25"));
        assert!(line.contains("\"mean_mse\":0.4"));
        assert!(line.contains("\"threshold\":0.5"));
        assert!(line.contains("\"path\":\"carried\""));
        assert!(line.contains("\"warned\":true"));
        assert!(line.contains("\"matched_chain\":2"));
        assert!(line.ends_with('}'));
        let mut nan = ev(1, false);
        nan.step_mse = f64::NAN;
        assert!(nan.to_json("n").contains("\"step_mse\":null"));
    }

    #[test]
    fn warning_log_caps_and_renders() {
        let log = WarningLog::new(2);
        for i in 0..3u64 {
            log.push(WarningRecord {
                node: format!("n{i}"),
                at_us: i,
                predicted_lead_secs: 60.0,
                score: 0.3,
                class: "MCE".into(),
                matched_chain: 1,
                chain_distance: 0.01,
                evidence: vec!["a \"quoted\" phrase".into()],
                trace: vec![ev(i, true)],
            });
        }
        assert_eq!(log.len(), 2);
        let snap = log.snapshot();
        assert_eq!(snap[0].node, "n1", "oldest record evicted");
        assert_eq!(
            log.newest().as_ref(),
            snap.last(),
            "newest is the last pushed"
        );
        assert!(WarningLog::new(2).newest().is_none());
        let arr = log.to_json_array();
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert!(arr.contains("\"a \\\"quoted\\\" phrase\""));
        assert!(arr.contains("\"trace\":[{\"type\":\"trace\""));
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
    }

    #[test]
    fn newest_first_rendering_honours_limit() {
        let log = WarningLog::new(8);
        for i in 0..5u64 {
            log.push(WarningRecord {
                node: format!("n{i}"),
                at_us: i,
                predicted_lead_secs: 60.0,
                score: 0.3,
                class: "MCE".into(),
                matched_chain: -1,
                chain_distance: f64::NAN,
                evidence: Vec::new(),
                trace: Vec::new(),
            });
        }
        let two = log.to_json_array_newest(2);
        // Newest record (n4) leads; n3 follows; older records are cut.
        let n4 = two.find("\"node\":\"n4\"").expect("newest present");
        let n3 = two.find("\"node\":\"n3\"").expect("second newest present");
        assert!(n4 < n3, "newest first");
        assert!(!two.contains("\"node\":\"n2\""));
        // A limit beyond the log size returns everything.
        assert_eq!(log.to_json_array_newest(100).matches("\"node\"").count(), 5);
        assert_eq!(log.to_json_array_newest(0), "[]");
    }
}
