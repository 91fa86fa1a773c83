//! Shadow scoring: run a candidate checkpoint beside the serving primary.
//!
//! Promotion of a retrained model is the riskiest routine operation this
//! system performs: the new checkpoint was validated offline, but nothing
//! offline replays the exact production stream with the exact serving
//! configuration. The shadow layer closes that gap. A [`ShadowScorer`]
//! holds a second, fully independent [`OnlineDetector`] built from the
//! candidate checkpoint (its own model *and* its own vocabulary — two
//! training runs rarely agree on phrase IDs) and feeds it every record the
//! primary sees. Divergence — warning agreement, lead-time deltas, raw
//! score drift — streams into a [`ShadowMonitor`](desh_obs::ShadowMonitor)
//! and, optionally, a sealed [`ShadowLedger`](desh_obs::ShadowLedger) for
//! the auditable `desh-cli shadow report` promotion verdict.
//!
//! The contract that makes this safe to run in production: **the primary's
//! decision stream is bit-identical with or without a shadow attached.**
//! The candidate is a separate detector with separate state; the only
//! touch on the primary is the observation-only score probe
//! ([`OnlineDetector::set_observe_scores`]), which reads the carried
//! aggregate after the latency window closes and never feeds back into
//! thresholding. The tests below pin that guarantee bit-for-bit.

use std::sync::Arc;

use desh_loggen::LogRecord;
use desh_obs::{ObservedWarning, ShadowMonitor};
use desh_util::Micros;

use crate::online::{OnlineDetector, Warning};

/// Convert a fired [`Warning`] into the model-free observation shape the
/// obs-layer monitor matches on.
fn observed(w: &Warning) -> ObservedWarning {
    ObservedWarning {
        at_us: w.at.0,
        lead_secs: w.predicted_lead_secs,
        score: w.score,
        class: w.class.name().to_string(),
    }
}

/// A candidate detector plus the divergence monitor it reports into.
///
/// The scorer owns the candidate's full state; callers own the primary and
/// feed its outcomes in via [`ShadowScorer::observe`] (sequential path) or
/// the split [`observe_record`](ShadowScorer::observe_record) /
/// [`observe_primary_warning`](ShadowScorer::observe_primary_warning)
/// pair (batched path, where primary warnings surface per chunk rather
/// than per record).
#[derive(Debug)]
pub struct ShadowScorer {
    candidate: OnlineDetector,
    monitor: Arc<ShadowMonitor>,
}

impl ShadowScorer {
    /// Wrap `candidate` (typically built from a second checkpoint) so its
    /// verdicts are compared against a primary via `monitor`. The
    /// candidate's score probe is switched on so score-divergence EWMA
    /// samples flow whenever the caller supplies the primary's score.
    pub fn new(mut candidate: OnlineDetector, monitor: Arc<ShadowMonitor>) -> Self {
        candidate.set_observe_scores(true);
        Self { candidate, monitor }
    }

    /// One sequential observation: the caller has just ingested `record`
    /// through the primary, yielding `primary_warning` and (when the
    /// primary's score probe is on) `primary_score`. Feeds the candidate
    /// the same record and reports both sides to the monitor. Returns the
    /// candidate's warning, if it fired one — callers that score against
    /// ground truth need the candidate's decision stream too.
    pub fn observe(
        &mut self,
        record: &LogRecord,
        primary_warning: Option<&Warning>,
        primary_score: Option<f64>,
    ) -> Option<Warning> {
        if let Some(w) = primary_warning {
            self.monitor.observe_primary(&w.node.to_string(), observed(w));
        }
        self.observe_record_scored(record, primary_score)
    }

    /// Batched-path half: feed `record` to the candidate and report the
    /// event (candidate score only — the wave-batched primary exposes no
    /// per-record score probe). Primary warnings for the chunk are fed
    /// separately via [`observe_primary_warning`](Self::observe_primary_warning),
    /// interleaved in record order by the caller. Returns the candidate's
    /// warning, if it fired one.
    pub fn observe_record(&mut self, record: &LogRecord) -> Option<Warning> {
        self.observe_record_scored(record, None)
    }

    /// Batched-path half for a line the intake classified Safe: the
    /// candidate would drop it unscored, so only its time reaches the
    /// monitor, exactly as [`observe_record`](Self::observe_record)
    /// reports a Safe record.
    pub fn observe_safe(&mut self, at: Micros) {
        self.monitor.observe_event(at.0, None, None);
    }

    /// Batched-path half: report one primary warning (matched to its
    /// triggering record by the caller so timestamps stay monotone).
    pub fn observe_primary_warning(&mut self, w: &Warning) {
        self.monitor.observe_primary(&w.node.to_string(), observed(w));
    }

    fn observe_record_scored(
        &mut self,
        record: &LogRecord,
        primary_score: Option<f64>,
    ) -> Option<Warning> {
        let cw = self.candidate.ingest(record);
        self.monitor
            .observe_event(record.time.0, primary_score, self.candidate.last_score());
        if let Some(w) = &cw {
            self.monitor.observe_candidate(&w.node.to_string(), observed(w));
        }
        cw
    }

    /// The shared divergence monitor.
    pub fn monitor(&self) -> &Arc<ShadowMonitor> {
        &self.monitor
    }

    /// The candidate detector (read-only: its decisions are observations).
    pub fn candidate(&self) -> &OnlineDetector {
        &self.candidate
    }

    /// Resolve all still-pending warning matches as one-sided (stream
    /// over) and refresh the agreement gauge. Call once at end of stream.
    pub fn finish(&self) {
        self.monitor.finish();
    }
}

/// The sequential primary detector with a shadow attached: a drop-in
/// wrapper whose [`ingest`](ShadowDetector::ingest) returns exactly what
/// the primary alone would, while every event also flows through the
/// candidate.
#[derive(Debug)]
pub struct ShadowDetector {
    primary: OnlineDetector,
    shadow: ShadowScorer,
}

impl ShadowDetector {
    /// Wrap `primary`, enabling its score probe so the score-divergence
    /// EWMA has both sides.
    pub fn new(mut primary: OnlineDetector, shadow: ShadowScorer) -> Self {
        primary.set_observe_scores(true);
        Self { primary, shadow }
    }

    /// Ingest one record: the primary scores it (bit-identical to an
    /// unshadowed run), then the candidate sees the same record and the
    /// divergence monitor both outcomes.
    pub fn ingest(&mut self, record: &LogRecord) -> Option<Warning> {
        let w = self.primary.ingest(record);
        self.shadow.observe(record, w.as_ref(), self.primary.last_score());
        w
    }

    /// The primary detector.
    pub fn primary(&self) -> &OnlineDetector {
        &self.primary
    }

    /// Mutable primary access (chain attachment, eviction tuning). The
    /// shadow layer never calls this: mutations are the caller's.
    pub fn primary_mut(&mut self) -> &mut OnlineDetector {
        &mut self.primary
    }

    /// The candidate detector.
    pub fn candidate(&self) -> &OnlineDetector {
        self.shadow.candidate()
    }

    /// The shared divergence monitor.
    pub fn monitor(&self) -> &Arc<ShadowMonitor> {
        self.shadow.monitor()
    }

    /// Resolve pending matches at end of stream.
    pub fn finish(&self) {
        self.shadow.finish();
    }

    /// Unwrap, returning the primary (shadow state is dropped).
    pub fn into_primary(self) -> OnlineDetector {
        self.primary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeshConfig;
    use crate::pipeline::Desh;
    use desh_loggen::{generate, SystemProfile};
    use desh_obs::{ShadowMonitor, Telemetry, DEFAULT_SHADOW_SLACK_SECS};

    fn trained(seed: u64) -> (OnlineDetector, desh_loggen::Dataset) {
        let mut p = SystemProfile::tiny();
        p.failures = 30;
        p.nodes = 24;
        let d = generate(&p, seed);
        let (train, test) = d.split_by_time(0.3);
        let desh = Desh::new(DeshConfig::fast(), seed);
        let trained = desh.train(&train);
        let det = OnlineDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            desh.cfg.clone(),
        );
        (det, test)
    }

    #[test]
    fn self_shadow_agrees_fully_and_primary_is_bit_identical() {
        // Baseline: the primary alone, no shadow attached.
        let (mut baseline, test) = trained(901);
        let mut expected = Vec::new();
        for r in &test.records {
            if let Some(w) = baseline.ingest(r) {
                expected.push((w.node, w.at, w.score.to_bits(), w.predicted_lead_secs.to_bits()));
            }
        }
        assert!(!expected.is_empty(), "fixture fired no warnings");

        // Same checkpoint on both sides of the shadow.
        let (primary, _) = trained(901);
        let (candidate, _) = trained(901);
        let t = Telemetry::enabled();
        let monitor = Arc::new(ShadowMonitor::new(&t, DEFAULT_SHADOW_SLACK_SECS));
        let mut det =
            ShadowDetector::new(primary, ShadowScorer::new(candidate, Arc::clone(&monitor)));
        let mut got = Vec::new();
        for r in &test.records {
            if let Some(w) = det.ingest(r) {
                got.push((w.node, w.at, w.score.to_bits(), w.predicted_lead_secs.to_bits()));
            }
        }
        det.finish();

        // Bit-identical decision stream despite the attached shadow.
        assert_eq!(expected, got);

        // A model shadowed against itself must agree with itself: every
        // warning matches, no one-sided residue, zero lead-time delta.
        let s = monitor.summary();
        assert_eq!(s.agree_both, expected.len() as u64);
        assert_eq!(s.primary_only, 0);
        assert_eq!(s.candidate_only, 0);
        assert_eq!(monitor.pending_warnings(), 0);
        assert_eq!(s.agreement(), Some(1.0));
        assert!(s.score_drift.abs() < 1e-12, "drift {}", s.score_drift);
        let snap = t.snapshot().unwrap();
        for (name, h) in &snap.hists {
            if name.starts_with("shadow.lead_delta_secs[") {
                // `max()` is the exclusive upper bound of the highest
                // occupied bucket, so all-zero deltas read back as 1.
                assert!(h.max() <= 1, "nonzero delta in {name}: max {}", h.max());
                assert_eq!(h.sum(), 0, "nonzero delta sum in {name}");
            }
        }
    }

    #[test]
    fn different_seeds_populate_confusion_and_deltas() {
        let (primary, test) = trained(902);
        let (candidate, _) = trained(903);
        let t = Telemetry::enabled();
        let monitor = Arc::new(ShadowMonitor::new(&t, DEFAULT_SHADOW_SLACK_SECS));
        let mut det =
            ShadowDetector::new(primary, ShadowScorer::new(candidate, Arc::clone(&monitor)));
        for r in &test.records {
            det.ingest(r);
        }
        det.finish();
        let s = monitor.summary();
        assert!(s.primary.warnings > 0 && s.candidate.warnings > 0);
        // Two independently trained models cannot agree perfectly: some
        // one-sided warnings must exist, and the score EWMA must move.
        assert!(
            s.primary_only + s.candidate_only > 0,
            "different seeds produced identical warning streams"
        );
        assert!(s.score_samples > 0);
        assert!(s.score_drift > 0.0, "score EWMA never moved");
    }

    #[test]
    fn batched_halves_match_sequential_observation() {
        // The split observe_record / observe_primary_warning pair used by
        // the batch path must yield the same agreement accounting as the
        // one-call sequential path.
        let (mut primary, test) = trained(904);
        let (candidate, _) = trained(904);
        let t = Telemetry::enabled();
        let monitor = Arc::new(ShadowMonitor::new(&t, DEFAULT_SHADOW_SLACK_SECS));
        let mut scorer = ShadowScorer::new(candidate, Arc::clone(&monitor));
        let mut fired = 0u64;
        for r in &test.records {
            let w = primary.ingest(r);
            if let Some(w) = &w {
                scorer.observe_primary_warning(w);
                fired += 1;
            }
            scorer.observe_record(r);
        }
        scorer.finish();
        let s = monitor.summary();
        assert!(fired > 0);
        assert_eq!(s.agree_both, fired);
        assert_eq!(s.primary_only + s.candidate_only, 0);
    }
}
