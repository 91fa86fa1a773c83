//! Shadow scoring observability: dual-model divergence and promotion gates.
//!
//! Before a candidate checkpoint can replace the serving model, it must be
//! run *in shadow* — scoring the same event stream as the primary, with
//! its warnings, lead times, and scores compared live. This module holds
//! the model-agnostic half of that layer (the detector wiring lives in
//! `desh-core`'s `shadow` module):
//!
//! * [`ShadowMonitor`] — per-event divergence accounting. Warning
//!   agreement is a three-way confusion (`shadow.agree_both` /
//!   `shadow.primary_only` / `shadow.candidate_only`) matched per node
//!   with a configurable timestamp slack; per-side lead-time histograms
//!   (`shadow.lead_secs[side=...]`), per-class lead-time *delta*
//!   histograms (`shadow.lead_delta_secs[class=...]`), and a score-MSE
//!   divergence EWMA (`shadow.score_drift`, same 1/64 smoothing as
//!   `quality.template_drift`).
//! * [`ShadowLedger`] — a sealed JSONL audit trail following the run
//!   ledger's conventions ([`crate::runs`]): a header line pinning both
//!   checkpoints' `run_id`/`config_hash` (hex-string hashes, same
//!   round-trip argument as the run manifest), one line per resolved
//!   warning match, and a final summary line.
//! * [`ShadowThresholds`] / [`evaluate_gates`] — the promotion-gate
//!   verdict: warning-volume delta, precision/recall regression (when
//!   ground truth was available), and lead-time p50 regression measured
//!   in log-scale histogram buckets. Rendered as a table
//!   ([`render_shadow_report_table`]) and machine-readable JSON
//!   ([`render_shadow_report_json`]); a gate with a negative limit can
//!   never pass, which is how CI forces a FAIL verdict deliberately.
//!
//! The monitor works with or without a live telemetry registry: handles
//! come from the attached registry when telemetry is enabled (so `/metrics`
//! and `/shadow` see them) and from a private registry otherwise, keeping
//! ledger/report behavior identical in quiet replays.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{parse_json, Json};
use crate::jsonl::{push_escaped, push_f64};
use crate::metrics::{Counter, Gauge, LatencyHistogram};
use crate::registry::{Registry, Telemetry};
use crate::runs::now_unix_ms;

/// Smoothing factor for the score-divergence EWMA: each scored event
/// contributes 1/64, mirroring `quality.template_drift`'s window.
const SCORE_DRIFT_ALPHA: f64 = 1.0 / 64.0;

/// Default warning-match slack: two warnings for the same node within
/// this many seconds of each other count as the same episode.
pub const DEFAULT_SHADOW_SLACK_SECS: f64 = 120.0;

/// One checkpoint's identity as pinned in the shadow ledger header.
#[derive(Debug, Clone, Default)]
pub struct ShadowIdentity {
    /// Checkpoint path as given on the command line.
    pub path: String,
    /// Training run id, when the checkpoint carries one.
    pub run_id: Option<String>,
    /// Training config hash, when the checkpoint carries one.
    pub config_hash: Option<u64>,
    /// Scoring precision (always "f32"), when known.
    pub precision: Option<String>,
}

impl ShadowIdentity {
    fn push_json(&self, out: &mut String) {
        out.push_str("{\"path\":");
        push_escaped(out, &self.path);
        out.push_str(",\"run_id\":");
        match &self.run_id {
            Some(id) => push_escaped(out, id),
            None => out.push_str("null"),
        }
        // Hex string, not a JSON number: the hash uses the full u64 range
        // and would lose its low bits round-tripping through f64 parsers
        // (same convention as the run manifest).
        out.push_str(",\"config_hash\":");
        match self.config_hash {
            Some(h) => {
                out.push('"');
                out.push_str(&format!("{h:016x}"));
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"precision\":");
        match &self.precision {
            Some(p) => push_escaped(out, p),
            None => out.push_str("null"),
        }
        out.push('}');
    }
}

/// One warning as the monitor sees it — side-agnostic, no `desh-core`
/// types so the obs crate stays model-free.
#[derive(Debug, Clone)]
pub struct ObservedWarning {
    /// Event time the warning was raised, microseconds.
    pub at_us: u64,
    /// Model-predicted remaining lead time, seconds.
    pub lead_secs: f64,
    /// Decision score (mean MSE).
    pub score: f64,
    /// Inferred failure class name.
    pub class: String,
}

#[derive(Debug)]
struct PendingWarning {
    w: ObservedWarning,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Primary,
    Candidate,
}

/// State behind the monitor's mutex: unmatched warnings per node and
/// side, lazily created per-class delta histograms, and the ledger.
#[derive(Debug, Default)]
struct MatchState {
    pending_primary: BTreeMap<String, VecDeque<PendingWarning>>,
    pending_candidate: BTreeMap<String, VecDeque<PendingWarning>>,
    delta_hists: BTreeMap<String, Arc<LatencyHistogram>>,
    ledger: Option<ShadowLedger>,
}

/// Live divergence accounting between a primary detector and a shadow
/// candidate. Thread-safe: the serve path shares one monitor across
/// shard workers. The event fast path (`observe_event`) is lock-free
/// unless warnings are pending.
#[derive(Debug)]
pub struct ShadowMonitor {
    slack_us: u64,
    events: Arc<Counter>,
    both: Arc<Counter>,
    primary_only: Arc<Counter>,
    candidate_only: Arc<Counter>,
    primary_warnings: Arc<Counter>,
    candidate_warnings: Arc<Counter>,
    agreement: Arc<Gauge>,
    score_drift: Arc<Gauge>,
    score_samples: Arc<Counter>,
    lead_primary: Arc<LatencyHistogram>,
    lead_candidate: Arc<LatencyHistogram>,
    registry: Arc<Registry>,
    /// Unmatched warnings across all nodes — the fast path's "do I need
    /// the lock at all" check.
    pending: AtomicU64,
    state: Mutex<MatchState>,
}

impl ShadowMonitor {
    /// Build a monitor with the given warning-match slack. Metrics land
    /// in `telemetry`'s registry when enabled (so `/metrics` and
    /// `/shadow` expose them) and in a private registry otherwise —
    /// matching, ledger, and summary behavior are identical either way.
    pub fn new(telemetry: &Telemetry, slack_secs: f64) -> Self {
        let r = telemetry
            .registry()
            .cloned()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        Self {
            slack_us: (slack_secs.max(0.0) * 1e6) as u64,
            events: r.counter("shadow.events"),
            both: r.counter("shadow.agree_both"),
            primary_only: r.counter("shadow.primary_only"),
            candidate_only: r.counter("shadow.candidate_only"),
            primary_warnings: r.counter("shadow.primary_warnings"),
            candidate_warnings: r.counter("shadow.candidate_warnings"),
            agreement: r.gauge("shadow.agreement"),
            score_drift: r.gauge("shadow.score_drift"),
            score_samples: r.counter("shadow.score_samples"),
            lead_primary: r.histogram("shadow.lead_secs[side=primary]"),
            lead_candidate: r.histogram("shadow.lead_secs[side=candidate]"),
            registry: r,
            pending: AtomicU64::new(0),
            state: Mutex::new(MatchState::default()),
        }
    }

    /// The warning-match slack, seconds.
    pub fn slack_secs(&self) -> f64 {
        self.slack_us as f64 / 1e6
    }

    /// Attach a sealed ledger; resolved warning matches append to it from
    /// now on.
    pub fn attach_ledger(&self, ledger: ShadowLedger) {
        self.state.lock().unwrap().ledger = Some(ledger);
    }

    /// Record one event scored through both detectors. `at_us` drives
    /// pending-warning expiry (event time, not wall time); the scores —
    /// when both sides produced one — feed the divergence EWMA.
    pub fn observe_event(
        &self,
        at_us: u64,
        primary_score: Option<f64>,
        candidate_score: Option<f64>,
    ) {
        self.events.inc();
        if let (Some(p), Some(c)) = (primary_score, candidate_score) {
            let d = (p - c).abs();
            if d.is_finite() {
                self.score_drift.set(
                    self.score_drift.get() * (1.0 - SCORE_DRIFT_ALPHA) + d * SCORE_DRIFT_ALPHA,
                );
                self.score_samples.inc();
            }
        }
        if self.pending.load(Ordering::Relaxed) > 0 {
            let mut st = self.state.lock().unwrap();
            self.expire(&mut st, at_us);
        }
    }

    /// Record a warning fired by the primary detector.
    pub fn observe_primary(&self, node: &str, w: ObservedWarning) {
        self.primary_warnings.inc();
        self.lead_primary.record(lead_to_u64(w.lead_secs));
        self.observe_side(Side::Primary, node, w);
    }

    /// Record a warning fired by the shadow candidate.
    pub fn observe_candidate(&self, node: &str, w: ObservedWarning) {
        self.candidate_warnings.inc();
        self.lead_candidate.record(lead_to_u64(w.lead_secs));
        self.observe_side(Side::Candidate, node, w);
    }

    fn observe_side(&self, side: Side, node: &str, w: ObservedWarning) {
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        self.expire(st, w.at_us);
        let (own, other) = match side {
            Side::Primary => (&mut st.pending_primary, &mut st.pending_candidate),
            Side::Candidate => (&mut st.pending_candidate, &mut st.pending_primary),
        };
        let matched = other.get_mut(node).and_then(|q| {
            let hit = q
                .front()
                .is_some_and(|p| p.w.at_us.abs_diff(w.at_us) <= self.slack_us);
            if hit {
                q.pop_front()
            } else {
                None
            }
        });
        match matched {
            Some(p) => {
                self.pending.fetch_sub(1, Ordering::Relaxed);
                self.both.inc();
                let (pw, cw) = match side {
                    Side::Primary => (&w, &p.w),
                    Side::Candidate => (&p.w, &w),
                };
                let delta = (pw.lead_secs - cw.lead_secs).abs();
                let hist = st
                    .delta_hists
                    .entry(pw.class.clone())
                    .or_insert_with(|| {
                        self.registry
                            .histogram(&format!("shadow.lead_delta_secs[class={}]", pw.class))
                    })
                    .clone();
                hist.record(lead_to_u64(delta));
                let (pw, cw) = (pw.clone(), cw.clone());
                if let Some(l) = &mut st.ledger {
                    let _ = l.warning_line("both", node, Some(&pw), Some(&cw));
                }
            }
            None => {
                own.entry(node.to_string())
                    .or_default()
                    .push_back(PendingWarning { w });
                self.pending.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.refresh_agreement();
    }

    /// Expire pending warnings whose slack window closed before `now_us`:
    /// nothing arriving from the other side can match them anymore, so
    /// they resolve as one-sided.
    fn expire(&self, st: &mut MatchState, now_us: u64) {
        for side in [Side::Primary, Side::Candidate] {
            let mut resolved: Vec<(String, ObservedWarning)> = Vec::new();
            {
                let map = match side {
                    Side::Primary => &mut st.pending_primary,
                    Side::Candidate => &mut st.pending_candidate,
                };
                for (node, q) in map.iter_mut() {
                    while q
                        .front()
                        .is_some_and(|p| p.w.at_us.saturating_add(self.slack_us) < now_us)
                    {
                        let p = q.pop_front().unwrap();
                        resolved.push((node.clone(), p.w));
                    }
                }
                map.retain(|_, q| !q.is_empty());
            }
            for (node, w) in resolved {
                self.pending.fetch_sub(1, Ordering::Relaxed);
                match side {
                    Side::Primary => self.primary_only.inc(),
                    Side::Candidate => self.candidate_only.inc(),
                }
                if let Some(l) = &mut st.ledger {
                    let kind = match side {
                        Side::Primary => "primary_only",
                        Side::Candidate => "candidate_only",
                    };
                    let (pw, cw) = match side {
                        Side::Primary => (Some(&w), None),
                        Side::Candidate => (None, Some(&w)),
                    };
                    let _ = l.warning_line(kind, &node, pw, cw);
                }
            }
        }
    }

    fn refresh_agreement(&self) {
        let both = self.both.get() as f64;
        let resolved = both + self.primary_only.get() as f64 + self.candidate_only.get() as f64;
        if resolved > 0.0 {
            self.agreement.set(both / resolved);
        }
    }

    /// Resolve every still-pending warning as one-sided (end of stream:
    /// nothing can match them). Call before [`ShadowMonitor::summary`]
    /// when the replay is over; the serve path's live snapshot skips it.
    pub fn finish(&self) {
        let mut st = self.state.lock().unwrap();
        self.expire(&mut st, u64::MAX);
        self.refresh_agreement();
    }

    /// Unmatched warnings currently awaiting the other side.
    pub fn pending_warnings(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }

    /// Point-in-time divergence summary. Precision/recall are `None`
    /// here; replay callers with ground truth fill them in before
    /// writing the ledger summary or evaluating gates.
    pub fn summary(&self) -> ShadowSummary {
        ShadowSummary {
            events: self.events.get(),
            agree_both: self.both.get(),
            primary_only: self.primary_only.get(),
            candidate_only: self.candidate_only.get(),
            score_drift: self.score_drift.get(),
            score_samples: self.score_samples.get(),
            primary: ShadowSideSummary {
                warnings: self.primary_warnings.get(),
                lead_p50_secs: self.lead_primary.snapshot().quantile(0.5),
                precision: None,
                recall: None,
            },
            candidate: ShadowSideSummary {
                warnings: self.candidate_warnings.get(),
                lead_p50_secs: self.lead_candidate.snapshot().quantile(0.5),
                precision: None,
                recall: None,
            },
        }
    }

    /// Append the ledger's final summary line, if a ledger is attached.
    pub fn write_summary(&self, summary: &ShadowSummary) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        match &mut st.ledger {
            Some(l) => l.summary_line(summary),
            None => Ok(()),
        }
    }

    /// The live agreement snapshot served at `GET /shadow`.
    pub fn render_live_json(&self) -> String {
        let s = self.summary();
        let mut out = String::from("{\"events\":");
        out.push_str(&s.events.to_string());
        out.push_str(&format!(
            ",\"primary_warnings\":{},\"candidate_warnings\":{}",
            s.primary.warnings, s.candidate.warnings
        ));
        out.push_str(&format!(
            ",\"agree_both\":{},\"primary_only\":{},\"candidate_only\":{},\"pending\":{}",
            s.agree_both,
            s.primary_only,
            s.candidate_only,
            self.pending_warnings()
        ));
        out.push_str(",\"agreement\":");
        match s.agreement() {
            Some(a) => push_f64(&mut out, a),
            None => out.push_str("null"),
        }
        out.push_str(",\"score_drift\":");
        push_f64(&mut out, s.score_drift);
        out.push_str(&format!(",\"score_samples\":{}", s.score_samples));
        out.push_str(",\"lead_p50_secs\":{\"primary\":");
        push_f64(&mut out, s.primary.lead_p50_secs);
        out.push_str(",\"candidate\":");
        push_f64(&mut out, s.candidate.lead_p50_secs);
        out.push_str("}}");
        out
    }
}

fn lead_to_u64(secs: f64) -> u64 {
    if secs.is_finite() {
        secs.max(0.0).round() as u64
    } else {
        0
    }
}

/// One side's half of the divergence summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShadowSideSummary {
    pub warnings: u64,
    pub lead_p50_secs: f64,
    /// Precision over ground-truth labels, when the caller scored them.
    pub precision: Option<f64>,
    /// Recall over ground-truth labels, when the caller scored them.
    pub recall: Option<f64>,
}

/// The divergence totals a shadow run produced — the input to the
/// promotion gates and the ledger's final line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShadowSummary {
    pub events: u64,
    pub agree_both: u64,
    pub primary_only: u64,
    pub candidate_only: u64,
    pub score_drift: f64,
    pub score_samples: u64,
    pub primary: ShadowSideSummary,
    pub candidate: ShadowSideSummary,
}

impl ShadowSummary {
    /// Fraction of resolved warning episodes where both sides fired.
    pub fn agreement(&self) -> Option<f64> {
        let resolved = self.agree_both + self.primary_only + self.candidate_only;
        if resolved == 0 {
            None
        } else {
            Some(self.agree_both as f64 / resolved as f64)
        }
    }

    fn push_side(out: &mut String, s: &ShadowSideSummary) {
        out.push_str(&format!("{{\"warnings\":{},\"lead_p50_secs\":", s.warnings));
        push_f64(out, s.lead_p50_secs);
        out.push_str(",\"precision\":");
        match s.precision {
            Some(p) => push_f64(out, p),
            None => out.push_str("null"),
        }
        out.push_str(",\"recall\":");
        match s.recall {
            Some(r) => push_f64(out, r),
            None => out.push_str("null"),
        }
        out.push('}');
    }

    /// The summary as a JSON object body (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"events\":");
        out.push_str(&self.events.to_string());
        out.push_str(&format!(
            ",\"agree_both\":{},\"primary_only\":{},\"candidate_only\":{}",
            self.agree_both, self.primary_only, self.candidate_only
        ));
        out.push_str(",\"agreement\":");
        match self.agreement() {
            Some(a) => push_f64(&mut out, a),
            None => out.push_str("null"),
        }
        out.push_str(",\"score_drift\":");
        push_f64(&mut out, self.score_drift);
        out.push_str(&format!(",\"score_samples\":{}", self.score_samples));
        out.push_str(",\"primary\":");
        Self::push_side(&mut out, &self.primary);
        out.push_str(",\"candidate\":");
        Self::push_side(&mut out, &self.candidate);
        out.push('}');
        out
    }

    fn side_from_json(j: &Json) -> Option<ShadowSideSummary> {
        Some(ShadowSideSummary {
            warnings: j.get("warnings")?.as_u64()?,
            lead_p50_secs: j.get("lead_p50_secs")?.as_f64().unwrap_or(0.0),
            precision: j.get("precision").and_then(Json::as_f64),
            recall: j.get("recall").and_then(Json::as_f64),
        })
    }

    /// Parse a summary object written by [`ShadowSummary::to_json`].
    pub fn from_json(j: &Json) -> Option<Self> {
        Some(Self {
            events: j.get("events")?.as_u64()?,
            agree_both: j.get("agree_both")?.as_u64()?,
            primary_only: j.get("primary_only")?.as_u64()?,
            candidate_only: j.get("candidate_only")?.as_u64()?,
            score_drift: j.get("score_drift").and_then(Json::as_f64).unwrap_or(0.0),
            score_samples: j.get("score_samples").and_then(Json::as_u64).unwrap_or(0),
            primary: Self::side_from_json(j.get("primary")?)?,
            candidate: Self::side_from_json(j.get("candidate")?)?,
        })
    }
}

/// Sealed JSONL audit trail of one shadow run. Line kinds:
///
/// * `shadow_header` — both checkpoints' identities, slack, creation time.
/// * `warning` — one resolved match (`both` / `primary_only` /
///   `candidate_only`) with each present side's time, lead, score, class.
/// * `summary` — the final [`ShadowSummary`].
///
/// Every line flushes on write, mirroring the run ledger's crash-honesty
/// stance: a killed process leaves a valid prefix, never a torn line.
#[derive(Debug)]
pub struct ShadowLedger {
    w: BufWriter<File>,
}

impl ShadowLedger {
    /// Create (truncate) the ledger at `path` and write the header line.
    pub fn create(
        path: impl AsRef<Path>,
        slack_secs: f64,
        primary: &ShadowIdentity,
        candidate: &ShadowIdentity,
    ) -> io::Result<Self> {
        if let Some(dir) = path.as_ref().parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut led = Self {
            w: BufWriter::new(File::create(path)?),
        };
        let mut line = String::from("{\"kind\":\"shadow_header\",\"version\":1");
        line.push_str(&format!(",\"created_unix_ms\":{}", now_unix_ms()));
        line.push_str(",\"slack_secs\":");
        push_f64(&mut line, slack_secs);
        line.push_str(",\"primary\":");
        primary.push_json(&mut line);
        line.push_str(",\"candidate\":");
        candidate.push_json(&mut line);
        line.push_str("}\n");
        led.w.write_all(line.as_bytes())?;
        led.w.flush()?;
        Ok(led)
    }

    fn push_warning_side(line: &mut String, w: Option<&ObservedWarning>) {
        match w {
            Some(w) => {
                line.push_str(&format!("{{\"at_us\":{},\"lead_secs\":", w.at_us));
                push_f64(line, w.lead_secs);
                line.push_str(",\"score\":");
                push_f64(line, w.score);
                line.push_str(",\"class\":");
                push_escaped(line, &w.class);
                line.push('}');
            }
            None => line.push_str("null"),
        }
    }

    fn warning_line(
        &mut self,
        kind: &str,
        node: &str,
        primary: Option<&ObservedWarning>,
        candidate: Option<&ObservedWarning>,
    ) -> io::Result<()> {
        let mut line = String::from("{\"kind\":\"warning\",\"match\":");
        push_escaped(&mut line, kind);
        line.push_str(",\"node\":");
        push_escaped(&mut line, node);
        line.push_str(",\"primary\":");
        Self::push_warning_side(&mut line, primary);
        line.push_str(",\"candidate\":");
        Self::push_warning_side(&mut line, candidate);
        line.push_str("}\n");
        self.w.write_all(line.as_bytes())?;
        self.w.flush()
    }

    fn summary_line(&mut self, summary: &ShadowSummary) -> io::Result<()> {
        let mut line = String::from("{\"kind\":\"summary\",\"shadow\":");
        line.push_str(&summary.to_json());
        line.push_str("}\n");
        self.w.write_all(line.as_bytes())?;
        self.w.flush()
    }
}

/// A shadow ledger read back from disk.
#[derive(Debug)]
pub struct ShadowLedgerDoc {
    /// The parsed `shadow_header` line.
    pub header: Json,
    /// The final summary, when the run wrote one.
    pub summary: Option<ShadowSummary>,
    /// Resolved warning lines, in write order.
    pub warnings: Vec<Json>,
}

/// Read a shadow ledger back, validating line structure as it goes.
pub fn load_shadow_ledger(path: impl AsRef<Path>) -> Result<ShadowLedgerDoc, String> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("read {}: {e}", path.as_ref().display()))?;
    let mut header = None;
    let mut summary = None;
    let mut warnings = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match j.get("kind").and_then(Json::as_str) {
            Some("shadow_header") => header = Some(j),
            Some("warning") => warnings.push(j),
            Some("summary") => {
                summary = j.get("shadow").and_then(ShadowSummary::from_json);
                if summary.is_none() {
                    return Err(format!("line {}: malformed summary", i + 1));
                }
            }
            other => return Err(format!("line {}: unknown kind {other:?}", i + 1)),
        }
    }
    Ok(ShadowLedgerDoc {
        header: header.ok_or("missing shadow_header line")?,
        summary,
        warnings,
    })
}

/// Promotion-gate limits. A negative limit can never be met (gate values
/// are non-negative), which is the supported way to force a FAIL verdict.
#[derive(Debug, Clone)]
pub struct ShadowThresholds {
    /// Max warning-volume delta, percent of the primary's volume.
    pub max_warning_delta_pct: f64,
    /// Max precision/recall regression (primary minus candidate).
    pub max_pr_regression: f64,
    /// Max lead-time p50 regression, in log-scale histogram buckets.
    pub max_lead_p50_regression_buckets: f64,
}

impl Default for ShadowThresholds {
    fn default() -> Self {
        Self {
            max_warning_delta_pct: 20.0,
            max_pr_regression: 0.05,
            max_lead_p50_regression_buckets: 1.0,
        }
    }
}

/// One evaluated gate.
#[derive(Debug, Clone)]
pub struct GateResult {
    pub name: &'static str,
    pub value: f64,
    pub limit: f64,
    pub pass: bool,
    /// The gate had no data to judge (e.g. no ground-truth labels); it
    /// neither passes nor fails the verdict.
    pub skipped: bool,
}

/// The promotion-gate verdict over one shadow run.
#[derive(Debug, Clone)]
pub struct ShadowReport {
    pub summary: ShadowSummary,
    pub gates: Vec<GateResult>,
    /// PASS iff every non-skipped gate passed.
    pub pass: bool,
}

/// Evaluate the promotion gates against a shadow summary.
pub fn evaluate_gates(summary: &ShadowSummary, th: &ShadowThresholds) -> ShadowReport {
    let mut gates = Vec::new();

    let pw = summary.primary.warnings;
    let cw = summary.candidate.warnings;
    let delta_pct = pw.abs_diff(cw) as f64 / pw.max(1) as f64 * 100.0;
    gates.push(GateResult {
        name: "warning_volume_delta_pct",
        value: delta_pct,
        limit: th.max_warning_delta_pct,
        pass: delta_pct <= th.max_warning_delta_pct,
        skipped: false,
    });

    for (name, p, c) in [
        (
            "precision_regression",
            summary.primary.precision,
            summary.candidate.precision,
        ),
        (
            "recall_regression",
            summary.primary.recall,
            summary.candidate.recall,
        ),
    ] {
        match (p, c) {
            (Some(p), Some(c)) => {
                // Only a regression counts against the candidate; an
                // improvement clamps to zero.
                let reg = (p - c).max(0.0);
                gates.push(GateResult {
                    name,
                    value: reg,
                    limit: th.max_pr_regression,
                    pass: reg <= th.max_pr_regression,
                    skipped: false,
                });
            }
            _ => gates.push(GateResult {
                name,
                value: 0.0,
                limit: th.max_pr_regression,
                pass: true,
                skipped: true,
            }),
        }
    }

    let lead_gate = if pw == 0 || cw == 0 {
        GateResult {
            name: "lead_p50_regression_buckets",
            value: 0.0,
            limit: th.max_lead_p50_regression_buckets,
            pass: true,
            skipped: true,
        }
    } else {
        // Shorter candidate lead = worse (less time to react). Measured
        // in the log-scale histogram's bucket index so "one bucket" means
        // the same relative step at any lead magnitude.
        let pb = crate::metrics::bucket_index(lead_to_u64(summary.primary.lead_p50_secs)) as f64;
        let cb = crate::metrics::bucket_index(lead_to_u64(summary.candidate.lead_p50_secs)) as f64;
        let reg = (pb - cb).max(0.0);
        GateResult {
            name: "lead_p50_regression_buckets",
            value: reg,
            limit: th.max_lead_p50_regression_buckets,
            pass: reg <= th.max_lead_p50_regression_buckets,
            skipped: false,
        }
    };
    gates.push(lead_gate);

    let pass = gates.iter().all(|g| g.skipped || g.pass);
    ShadowReport {
        summary: summary.clone(),
        gates,
        pass,
    }
}

/// Render the promotion-gate verdict as a human-readable table.
pub fn render_shadow_report_table(report: &ShadowReport) -> String {
    let s = &report.summary;
    let mut out = String::new();
    out.push_str(&format!(
        "shadow promotion gate: {}\n\n",
        if report.pass { "PASS" } else { "FAIL" }
    ));
    out.push_str(&format!(
        "  events scored          {}\n  primary warnings       {}\n  candidate warnings     {}\n",
        s.events, s.primary.warnings, s.candidate.warnings
    ));
    out.push_str(&format!(
        "  agreement              both={} primary_only={} candidate_only={}",
        s.agree_both, s.primary_only, s.candidate_only
    ));
    if let Some(a) = s.agreement() {
        out.push_str(&format!(" ({:.1}%)", a * 100.0));
    }
    out.push('\n');
    out.push_str(&format!("  score drift (EWMA)     {:.6}\n", s.score_drift));
    out.push_str(&format!(
        "  lead p50 (secs)        primary={:.1} candidate={:.1}\n\n",
        s.primary.lead_p50_secs, s.candidate.lead_p50_secs
    ));
    out.push_str(&format!(
        "  {:<28} {:>10} {:>10}  {}\n",
        "gate", "value", "limit", "status"
    ));
    for g in &report.gates {
        let status = if g.skipped {
            "skipped"
        } else if g.pass {
            "pass"
        } else {
            "FAIL"
        };
        out.push_str(&format!(
            "  {:<28} {:>10.3} {:>10.3}  {status}\n",
            g.name, g.value, g.limit
        ));
    }
    out
}

/// Render the promotion-gate verdict as machine-readable JSON.
pub fn render_shadow_report_json(report: &ShadowReport) -> String {
    let mut out = String::from("{\"verdict\":");
    push_escaped(&mut out, if report.pass { "PASS" } else { "FAIL" });
    out.push_str(",\"gates\":[");
    for (i, g) in report.gates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_escaped(&mut out, g.name);
        out.push_str(",\"value\":");
        push_f64(&mut out, g.value);
        out.push_str(",\"limit\":");
        push_f64(&mut out, g.limit);
        out.push_str(&format!(",\"pass\":{},\"skipped\":{}}}", g.pass, g.skipped));
    }
    out.push_str("],\"summary\":");
    out.push_str(&report.summary.to_json());
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("desh-shadow-{tag}-{}.jsonl", std::process::id()))
    }

    fn warn(at_us: u64, lead: f64, class: &str) -> ObservedWarning {
        ObservedWarning {
            at_us,
            lead_secs: lead,
            score: 0.5,
            class: class.to_string(),
        }
    }

    #[test]
    fn identical_sides_agree_fully() {
        let t = Telemetry::enabled();
        let m = ShadowMonitor::new(&t, 30.0);
        for i in 0..4u64 {
            let at = i * 1_000_000;
            m.observe_event(at, Some(0.4), Some(0.4));
            m.observe_primary("n1", warn(at, 120.0, "MCE"));
            m.observe_candidate("n1", warn(at, 120.0, "MCE"));
        }
        m.finish();
        let s = m.summary();
        assert_eq!(s.agree_both, 4);
        assert_eq!(s.primary_only, 0);
        assert_eq!(s.candidate_only, 0);
        assert_eq!(s.agreement(), Some(1.0));
        assert_eq!(m.pending_warnings(), 0);
        // Zero lead-time delta: the per-class delta histogram holds only
        // zero-valued observations.
        let snap = t.snapshot().unwrap();
        let d = snap.histogram("shadow.lead_delta_secs[class=MCE]").unwrap();
        assert_eq!(d.count(), 4);
        assert_eq!(d.sum(), 0);
        // Identical scores: the divergence EWMA never moves off zero.
        assert_eq!(snap.gauge("shadow.score_drift"), Some(0.0));
    }

    #[test]
    fn slack_bounds_warning_matching() {
        let t = Telemetry::enabled();
        let m = ShadowMonitor::new(&t, 10.0);
        // Candidate fires 5 s after the primary: inside slack, matches.
        m.observe_primary("n1", warn(1_000_000, 100.0, "MCE"));
        m.observe_candidate("n1", warn(6_000_000, 80.0, "MCE"));
        // Next episode: candidate 30 s later, outside slack — both sides
        // resolve one-sided.
        m.observe_primary("n1", warn(100_000_000, 90.0, "MCE"));
        m.observe_candidate("n1", warn(130_000_000, 70.0, "MCE"));
        // A different node never matches n1's pendings.
        m.observe_candidate("n2", warn(130_500_000, 60.0, "Panic"));
        m.finish();
        let s = m.summary();
        assert_eq!(s.agree_both, 1);
        assert_eq!(s.primary_only, 1);
        assert_eq!(s.candidate_only, 2);
        let snap = t.snapshot().unwrap();
        let d = snap.histogram("shadow.lead_delta_secs[class=MCE]").unwrap();
        assert_eq!(d.count(), 1);
        assert_eq!(d.sum(), 20); // |100 - 80|
    }

    #[test]
    fn pending_warnings_expire_on_event_flow() {
        let m = ShadowMonitor::new(&Telemetry::disabled(), 10.0);
        m.observe_primary("n1", warn(1_000_000, 50.0, "MCE"));
        assert_eq!(m.pending_warnings(), 1);
        // An event far past the slack window expires it without finish().
        m.observe_event(60_000_000, None, None);
        assert_eq!(m.pending_warnings(), 0);
        assert_eq!(m.summary().primary_only, 1);
    }

    #[test]
    fn score_drift_ewma_crosses_threshold_after_step_change() {
        // Satellite: drift monitors must *cross a threshold* after a step
        // change in the input distribution, not merely converge.
        let m = ShadowMonitor::new(&Telemetry::disabled(), 10.0);
        for i in 0..512u64 {
            m.observe_event(i, Some(0.5), Some(0.5));
        }
        let before = m.summary().score_drift;
        assert!(before < 1e-9, "agreeing models must show ~zero drift");
        // Step change: the candidate's scores diverge by 1.0 per event.
        // With alpha = 1/64 the EWMA needs ~45 events to cross 0.5.
        let threshold = 0.5;
        let mut crossed_at = None;
        for i in 0..128u64 {
            m.observe_event(512 + i, Some(0.5), Some(1.5));
            if crossed_at.is_none() && m.summary().score_drift > threshold {
                crossed_at = Some(i + 1);
            }
        }
        let crossed_at = crossed_at.expect("EWMA must cross the 0.5 threshold");
        assert!(
            (30..=64).contains(&crossed_at),
            "crossing after {crossed_at} events is outside the ~64-event window"
        );
    }

    #[test]
    fn ledger_round_trips_and_validates() {
        let path = temp_path("roundtrip");
        let primary = ShadowIdentity {
            path: "a.dsh".into(),
            run_id: Some("run-a".into()),
            config_hash: Some(0xdead_beef_dead_beef),
            precision: Some("f32".into()),
        };
        let candidate = ShadowIdentity {
            path: "b.dshm".into(),
            run_id: None,
            config_hash: Some(7),
            precision: None,
        };
        let m = ShadowMonitor::new(&Telemetry::disabled(), 10.0);
        m.attach_ledger(ShadowLedger::create(&path, 10.0, &primary, &candidate).unwrap());
        m.observe_primary("n1", warn(1_000_000, 100.0, "MCE"));
        m.observe_candidate("n1", warn(2_000_000, 90.0, "MCE"));
        m.observe_primary("n2", warn(5_000_000, 40.0, "Panic"));
        m.finish();
        let mut summary = m.summary();
        summary.primary.precision = Some(0.9);
        summary.primary.recall = Some(0.8);
        summary.candidate.precision = Some(0.85);
        summary.candidate.recall = Some(0.82);
        m.write_summary(&summary).unwrap();

        let doc = load_shadow_ledger(&path).unwrap();
        let hdr = &doc.header;
        assert_eq!(
            hdr.get("primary").unwrap().get("run_id").unwrap().as_str(),
            Some("run-a")
        );
        // Hash round-trips as a hex string, exact to the last bit.
        assert_eq!(
            hdr.get("primary")
                .unwrap()
                .get("config_hash")
                .unwrap()
                .as_str(),
            Some("deadbeefdeadbeef")
        );
        assert!(hdr
            .get("candidate")
            .unwrap()
            .get("run_id")
            .unwrap()
            .is_null());
        assert_eq!(doc.warnings.len(), 2);
        assert_eq!(doc.warnings[0].get("match").unwrap().as_str(), Some("both"));
        assert_eq!(
            doc.warnings[1].get("match").unwrap().as_str(),
            Some("primary_only")
        );
        assert!(doc.warnings[1].get("candidate").unwrap().is_null());
        let back = doc.summary.unwrap();
        assert_eq!(back, summary);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_malformed_ledgers() {
        let path = temp_path("malformed");
        std::fs::write(&path, "{\"kind\":\"warning\"}\n").unwrap();
        assert!(load_shadow_ledger(&path)
            .unwrap_err()
            .contains("missing shadow_header"));
        std::fs::write(&path, "{\"kind\":\"mystery\"}\n").unwrap();
        assert!(load_shadow_ledger(&path)
            .unwrap_err()
            .contains("unknown kind"));
        std::fs::write(&path, "not json\n").unwrap();
        assert!(load_shadow_ledger(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    fn sample_summary() -> ShadowSummary {
        ShadowSummary {
            events: 1000,
            agree_both: 9,
            primary_only: 1,
            candidate_only: 0,
            score_drift: 0.01,
            score_samples: 900,
            primary: ShadowSideSummary {
                warnings: 10,
                lead_p50_secs: 120.0,
                precision: Some(0.9),
                recall: Some(0.8),
            },
            candidate: ShadowSideSummary {
                warnings: 9,
                lead_p50_secs: 110.0,
                precision: Some(0.88),
                recall: Some(0.81),
            },
        }
    }

    #[test]
    fn gates_pass_then_flip_to_fail_when_tightened() {
        let s = sample_summary();
        let report = evaluate_gates(&s, &ShadowThresholds::default());
        assert!(report.pass, "default thresholds must pass: {report:?}");
        // Tightened (negative limits are unmeetable): the verdict flips.
        let tight = ShadowThresholds {
            max_warning_delta_pct: -1.0,
            max_pr_regression: -1.0,
            max_lead_p50_regression_buckets: -1.0,
        };
        let report = evaluate_gates(&s, &tight);
        assert!(!report.pass);
        assert!(report.gates.iter().any(|g| !g.pass && !g.skipped));
    }

    #[test]
    fn pr_gates_skip_without_ground_truth() {
        let mut s = sample_summary();
        s.primary.precision = None;
        s.candidate.recall = None;
        let report = evaluate_gates(&s, &ShadowThresholds::default());
        let skipped: Vec<&str> = report
            .gates
            .iter()
            .filter(|g| g.skipped)
            .map(|g| g.name)
            .collect();
        assert_eq!(skipped, ["precision_regression", "recall_regression"]);
        // Skipped gates never fail the verdict, even with hostile limits.
        let tight = ShadowThresholds {
            max_pr_regression: -1.0,
            ..ShadowThresholds::default()
        };
        assert!(evaluate_gates(&s, &tight).pass);
    }

    #[test]
    fn lead_gate_measures_log_bucket_regression() {
        let mut s = sample_summary();
        // A halved lead p50 is several quarter-octave buckets down.
        s.primary.lead_p50_secs = 128.0;
        s.candidate.lead_p50_secs = 64.0;
        let report = evaluate_gates(&s, &ShadowThresholds::default());
        let g = report
            .gates
            .iter()
            .find(|g| g.name == "lead_p50_regression_buckets")
            .unwrap();
        assert_eq!(g.value, 4.0); // one octave = 4 sub-buckets
        assert!(!g.pass);
        // An *improvement* (longer candidate lead) is not a regression.
        s.candidate.lead_p50_secs = 400.0;
        let report = evaluate_gates(&s, &ShadowThresholds::default());
        let g = report
            .gates
            .iter()
            .find(|g| g.name == "lead_p50_regression_buckets")
            .unwrap();
        assert_eq!(g.value, 0.0);
        assert!(g.pass);
    }

    #[test]
    fn report_renders_table_and_json() {
        let s = sample_summary();
        let report = evaluate_gates(&s, &ShadowThresholds::default());
        let table = render_shadow_report_table(&report);
        assert!(table.contains("shadow promotion gate: PASS"));
        assert!(table.contains("warning_volume_delta_pct"));
        assert!(table.contains("lead_p50_regression_buckets"));
        let json = render_shadow_report_json(&report);
        let parsed = parse_json(json.trim()).unwrap();
        assert_eq!(parsed.get("verdict").unwrap().as_str(), Some("PASS"));
        assert_eq!(parsed.get("gates").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(
            parsed
                .get("summary")
                .unwrap()
                .get("events")
                .unwrap()
                .as_u64(),
            Some(1000)
        );
        let summary = ShadowSummary::from_json(parsed.get("summary").unwrap()).unwrap();
        assert_eq!(summary, s);
    }

    #[test]
    fn live_json_snapshot_is_parseable() {
        let t = Telemetry::enabled();
        let m = ShadowMonitor::new(&t, 30.0);
        m.observe_event(1, Some(0.5), Some(0.6));
        m.observe_primary("n1", warn(1, 100.0, "MCE"));
        let j = parse_json(&m.render_live_json()).unwrap();
        assert_eq!(j.get("events").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("primary_warnings").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("pending").unwrap().as_u64(), Some(1));
        assert!(j.get("agreement").unwrap().is_null());
    }
}
