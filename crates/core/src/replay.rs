//! Bit-exact replay of sealed incident capsules.
//!
//! [`replay_capsule`] drives a **fresh** [`OnlineDetector`] through the
//! raw event lines a capsule captured, then compares what the replayed
//! detector decided — trace words, word for word, and fired warnings,
//! field for field — against what the live detector decided at capture
//! time. Agreement is asserted *bitwise*: every `f64` in a trace is
//! compared by its bit pattern, so "close enough" floating point drift
//! (a different kernel backend, a different checkpoint, a changed
//! threshold) surfaces as a structured [`Divergence`] naming the first
//! divergent event and the exact per-field deltas, instead of silently
//! passing.
//!
//! Determinism preconditions, all checked here:
//!
//! - **Backend pinning.** The SIMD polynomial `exp`/`sigmoid`/`tanh`
//!   kernels differ from scalar in low bits, so a capsule captured under
//!   `avx2+fma` will NOT replay bit-exactly under `scalar` (or on an
//!   aarch64 host). The capsule records the backend; replay errors on a
//!   mismatch unless explicitly overridden — at which point divergence is
//!   expected and the diff shows where it starts.
//! - **Precision.** Scoring is f32 only. The capsule's `precision` field
//!   stays in the format, always `f32`; a capsule carrying anything else
//!   is refused with an error that names the value.
//! - **Vocab alignment.** Novel templates interned live (multi-node
//!   interleaving) may occupy ids the replayed subset would assign
//!   differently. Replay pads the vocab with placeholder templates until
//!   the captured id is reproduced; scoring is unaffected either way
//!   (vectorize clamps out-of-vocab ids identically), but the trace's
//!   `phrase` field must match for bit-exactness.

use std::sync::Arc;

use crate::chain::FailureChain;
use crate::config::DeshConfig;
use crate::online::OnlineDetector;
use crate::phase2::LeadTimeModel;
use desh_loggen::{LogRecord, NodeId};
use desh_logparse::{extract_template, Vocab};
use desh_obs::{Capsule, CapsuleMeta, CaptureTap, TraceEvent, WarningRecord};
use desh_util::Micros;

/// Replay policy knobs.
#[derive(Debug, Clone, Default)]
pub struct ReplayOptions {
    /// Proceed when the host kernel backend differs from the capsule's
    /// pinned backend. Divergence is then *expected*; use this to obtain
    /// the diff rather than to validate.
    pub allow_backend_mismatch: bool,
}

/// One field that differed between the captured and replayed decision.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDelta {
    pub field: &'static str,
    pub captured: String,
    pub replayed: String,
}

/// Where replay first disagreed with the capture.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index into the capsule's event list (or warning list for
    /// warning-kind divergences).
    pub index: usize,
    /// Node the divergent event/warning belongs to.
    pub node: String,
    /// Timestamp of the divergent event/warning, microseconds.
    pub at_us: u64,
    /// What diverged: `trace`, `event_count`, `warning`, `warning_count`.
    pub kind: &'static str,
    /// Exact per-field captured-vs-replayed values.
    pub deltas: Vec<FieldDelta>,
}

/// The outcome of one capsule replay.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Events driven through the replay detector.
    pub events: usize,
    /// Captured events carrying trace words.
    pub traces_captured: usize,
    /// Replayed events that produced trace words.
    pub traces_replayed: usize,
    /// Warnings sealed in the capsule.
    pub warnings_captured: usize,
    /// Warnings the replay fired.
    pub warnings_replayed: usize,
    /// The capsule's clean-start flag (false = the pre-trigger ring lost
    /// the episode start and early divergence is legitimate).
    pub clean_start: bool,
    /// Backend the replay actually ran under.
    pub backend: String,
    /// First divergence, if any. `None` means bit-exact agreement.
    pub divergence: Option<Divergence>,
}

impl ReplayReport {
    /// Did the replay agree with the capture on every bit?
    pub fn bit_exact(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Reconstruct the decision-relevant [`DeshConfig`] a capsule was
/// captured under (defaults elsewhere; training-only fields don't affect
/// replay).
pub fn capsule_config(meta: &CapsuleMeta) -> DeshConfig {
    let mut cfg = DeshConfig::default();
    cfg.episodes.session_gap_secs = meta.session_gap_secs;
    cfg.phase3.mse_threshold = meta.mse_threshold;
    cfg.phase3.min_evidence = meta.min_evidence as usize;
    cfg.phase3.score_scale = meta.score_scale;
    cfg
}

fn f64_delta(field: &'static str, cap: f64, rep: f64) -> FieldDelta {
    FieldDelta {
        field,
        captured: format!("{cap} (bits {:#018x})", cap.to_bits()),
        replayed: format!("{rep} (bits {:#018x})", rep.to_bits()),
    }
}

fn plain_delta(field: &'static str, cap: impl std::fmt::Display, rep: impl std::fmt::Display) -> FieldDelta {
    FieldDelta {
        field,
        captured: cap.to_string(),
        replayed: rep.to_string(),
    }
}

/// Per-field bitwise diff of two decision traces (empty = identical).
pub fn trace_deltas(cap: &TraceEvent, rep: &TraceEvent) -> Vec<FieldDelta> {
    let mut out = Vec::new();
    if cap.at_us != rep.at_us {
        out.push(plain_delta("at_us", cap.at_us, rep.at_us));
    }
    if cap.phrase != rep.phrase {
        out.push(plain_delta("phrase", cap.phrase, rep.phrase));
    }
    for (field, c, r) in [
        ("dt_secs", cap.dt_secs, rep.dt_secs),
        ("step_mse", cap.step_mse, rep.step_mse),
        ("mean_mse", cap.mean_mse, rep.mean_mse),
        ("threshold", cap.threshold, rep.threshold),
    ] {
        if c.to_bits() != r.to_bits() {
            out.push(f64_delta(field, c, r));
        }
    }
    if cap.transitions != rep.transitions {
        out.push(plain_delta("transitions", cap.transitions, rep.transitions));
    }
    if cap.min_evidence != rep.min_evidence {
        out.push(plain_delta("min_evidence", cap.min_evidence, rep.min_evidence));
    }
    if cap.replayed != rep.replayed {
        out.push(plain_delta("path", cap.replayed, rep.replayed));
    }
    if cap.warned != rep.warned {
        out.push(plain_delta("warned", cap.warned, rep.warned));
    }
    if cap.matched_chain != rep.matched_chain {
        out.push(plain_delta("matched_chain", cap.matched_chain, rep.matched_chain));
    }
    out
}

fn warning_deltas(cap: &WarningRecord, rep: &WarningRecord) -> Vec<FieldDelta> {
    let mut out = Vec::new();
    if cap.node != rep.node {
        out.push(plain_delta("node", &cap.node, &rep.node));
    }
    if cap.at_us != rep.at_us {
        out.push(plain_delta("at_us", cap.at_us, rep.at_us));
    }
    for (field, c, r) in [
        ("predicted_lead_secs", cap.predicted_lead_secs, rep.predicted_lead_secs),
        ("score", cap.score, rep.score),
        ("chain_distance", cap.chain_distance, rep.chain_distance),
    ] {
        if c.to_bits() != r.to_bits() {
            out.push(f64_delta(field, c, r));
        }
    }
    if cap.class != rep.class {
        out.push(plain_delta("class", &cap.class, &rep.class));
    }
    if cap.matched_chain != rep.matched_chain {
        out.push(plain_delta("matched_chain", cap.matched_chain, rep.matched_chain));
    }
    if cap.evidence != rep.evidence {
        out.push(plain_delta(
            "evidence",
            format!("{} phrases", cap.evidence.len()),
            format!("{} phrases", rep.evidence.len()),
        ));
    }
    out
}

/// Drive a fresh detector through `capsule`'s events and assert bit-exact
/// agreement with the captured decisions. `model`, `vocab`, and `chains`
/// come from the checkpoint the capsule references (resolved by the
/// caller via `resolve_capsule_checkpoint`).
pub fn replay_capsule(
    capsule: &Capsule,
    model: LeadTimeModel,
    vocab: Arc<Vocab>,
    chains: &[FailureChain],
    opts: &ReplayOptions,
) -> Result<ReplayReport, String> {
    let meta = &capsule.meta;

    // Backend pinning: SIMD polynomial activations differ from scalar in
    // low bits, so bit-exactness is only defined on the captured backend.
    let live_backend = desh_nn::kernel_backend_name();
    if !meta.backend.is_empty() && meta.backend != live_backend && !opts.allow_backend_mismatch {
        return Err(format!(
            "backend mismatch: capsule was captured under the '{}' kernel backend but this \
             host dispatched '{}'. Bit-exact replay is only defined on the captured backend \
             — pin it (e.g. DESH_SIMD=off for scalar) or pass --allow-backend-mismatch to \
             diff across backends anyway.",
            meta.backend, live_backend
        ));
    }

    if meta.precision != "f32" {
        return Err(format!(
            "unsupported capsule precision '{}': int8 capsules are no longer supported; \
             only f32 capsules replay",
            meta.precision
        ));
    }

    let cfg = capsule_config(meta);
    let mut det = OnlineDetector::new(model, Arc::clone(&vocab), cfg);
    det.attach_chains(chains);
    let tap = Arc::new(CaptureTap::with_ring(capsule.events.len() + 8));
    det.attach_capture(Arc::clone(&tap));

    for ev in &capsule.events {
        // Vocab alignment: reproduce the live interning order. If this
        // event's template is novel to the checkpoint vocab, pad until the
        // next assigned id equals the captured one.
        let template = extract_template(&ev.text);
        if vocab.get(&template).is_none() {
            while (vocab.len() as u32) < ev.phrase {
                vocab.intern(&format!("__dcap_pad_{}", vocab.len()));
            }
        }
        let node: NodeId = ev
            .node
            .parse()
            .map_err(|e| format!("capsule event names unparseable node '{}': {e}", ev.node))?;
        det.ingest(&LogRecord::new(Micros(ev.at_us), node, ev.text.clone()));
    }

    let (replayed, _) = tap.capture_all();
    let replayed_warnings = tap.warnings_snapshot();

    let mut report = ReplayReport {
        events: capsule.events.len(),
        traces_captured: capsule.traced_events(),
        traces_replayed: replayed.iter().filter(|e| e.trace.is_some()).count(),
        warnings_captured: capsule.warnings.len(),
        warnings_replayed: replayed_warnings.len(),
        clean_start: meta.clean_start,
        backend: live_backend.to_string(),
        divergence: None,
    };

    // Event-by-event comparison, in capture order. The first divergence
    // wins: everything after it is downstream damage.
    for (i, cap) in capsule.events.iter().enumerate() {
        let Some(rep) = replayed.get(i) else {
            report.divergence = Some(Divergence {
                index: i,
                node: cap.node.clone(),
                at_us: cap.at_us,
                kind: "event_count",
                deltas: vec![plain_delta(
                    "events",
                    format!("{} captured", capsule.events.len()),
                    format!("{} replayed", replayed.len()),
                )],
            });
            return Ok(report);
        };
        let mut deltas = Vec::new();
        if cap.node != rep.node {
            deltas.push(plain_delta("node", &cap.node, &rep.node));
        }
        if cap.at_us != rep.at_us {
            deltas.push(plain_delta("at_us", cap.at_us, rep.at_us));
        }
        if cap.phrase != rep.phrase {
            deltas.push(plain_delta("phrase", cap.phrase, rep.phrase));
        }
        if cap.reset != rep.reset {
            deltas.push(plain_delta("reset", cap.reset, rep.reset));
        }
        match (&cap.trace, &rep.trace) {
            (Some(c), Some(r)) if c != r => {
                deltas.extend(trace_deltas(
                    &TraceEvent::from_words(c),
                    &TraceEvent::from_words(r),
                ));
            }
            (Some(_), None) => deltas.push(plain_delta("trace", "scored", "not scored")),
            (None, Some(_)) => deltas.push(plain_delta("trace", "not scored", "scored")),
            _ => {}
        }
        if !deltas.is_empty() {
            report.divergence = Some(Divergence {
                index: i,
                node: cap.node.clone(),
                at_us: cap.at_us,
                kind: "trace",
                deltas,
            });
            return Ok(report);
        }
    }
    if replayed.len() > capsule.events.len() {
        let extra = &replayed[capsule.events.len()];
        report.divergence = Some(Divergence {
            index: capsule.events.len(),
            node: extra.node.clone(),
            at_us: extra.at_us,
            kind: "event_count",
            deltas: vec![plain_delta(
                "events",
                format!("{} captured", capsule.events.len()),
                format!("{} replayed", replayed.len()),
            )],
        });
        return Ok(report);
    }

    // Warning-by-warning comparison.
    for (i, cap) in capsule.warnings.iter().enumerate() {
        let Some(rep) = replayed_warnings.get(i) else {
            report.divergence = Some(Divergence {
                index: i,
                node: cap.node.clone(),
                at_us: cap.at_us,
                kind: "warning_count",
                deltas: vec![plain_delta(
                    "warnings",
                    format!("{} captured", capsule.warnings.len()),
                    format!("{} replayed", replayed_warnings.len()),
                )],
            });
            return Ok(report);
        };
        let deltas = warning_deltas(cap, rep);
        if !deltas.is_empty() {
            report.divergence = Some(Divergence {
                index: i,
                node: cap.node.clone(),
                at_us: cap.at_us,
                kind: "warning",
                deltas,
            });
            return Ok(report);
        }
    }
    if replayed_warnings.len() > capsule.warnings.len() {
        let extra = &replayed_warnings[capsule.warnings.len()];
        report.divergence = Some(Divergence {
            index: capsule.warnings.len(),
            node: extra.node.clone(),
            at_us: extra.at_us,
            kind: "warning_count",
            deltas: vec![plain_delta(
                "warnings",
                format!("{} captured", capsule.warnings.len()),
                format!("{} replayed", replayed_warnings.len()),
            )],
        });
    }
    Ok(report)
}

/// Human-readable replay summary (+ divergence diff when present).
pub fn render_report(r: &ReplayReport) -> String {
    let mut s = format!(
        "replayed {} events ({} traced) on backend {}: \
         {}/{} traces, {}/{} warnings reproduced\n",
        r.events,
        r.traces_captured,
        r.backend,
        r.traces_replayed,
        r.traces_captured,
        r.warnings_replayed,
        r.warnings_captured,
    );
    if !r.clean_start {
        s.push_str(
            "note: capsule is not clean-start (pre-trigger ring lost the episode start); \
             early divergence may be legitimate\n",
        );
    }
    match &r.divergence {
        None => s.push_str("verdict: BIT-EXACT — replay agrees with the capture on every bit\n"),
        Some(d) => {
            s.push_str(&format!(
                "verdict: DIVERGED — first divergent {} at index {} (node {}, at_us {}):\n",
                d.kind, d.index, d.node, d.at_us
            ));
            for delta in &d.deltas {
                s.push_str(&format!(
                    "  {:<20} captured {}  |  replayed {}\n",
                    delta.field, delta.captured, delta.replayed
                ));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capsule_config_restores_decision_fields() {
        let meta = CapsuleMeta {
            session_gap_secs: 77.0,
            mse_threshold: 0.41,
            min_evidence: 5,
            score_scale: 2.0,
            ..CapsuleMeta::default()
        };
        let cfg = capsule_config(&meta);
        assert_eq!(cfg.episodes.session_gap_secs, 77.0);
        assert_eq!(cfg.phase3.mse_threshold, 0.41);
        assert_eq!(cfg.phase3.min_evidence, 5);
        assert_eq!(cfg.phase3.score_scale, 2.0);
    }

    #[test]
    fn trace_deltas_pinpoint_bit_level_differences() {
        let base = TraceEvent {
            at_us: 10,
            phrase: 3,
            dt_secs: 1.0,
            step_mse: 0.25,
            mean_mse: 0.5,
            threshold: 0.5,
            transitions: 2,
            min_evidence: 1,
            replayed: false,
            warned: false,
            matched_chain: -1,
        };
        assert!(trace_deltas(&base, &base).is_empty());

        let mut tweaked = base;
        // One-ulp perturbation — exactly the kind of drift a different
        // kernel backend produces.
        tweaked.mean_mse = f64::from_bits(base.mean_mse.to_bits() + 1);
        tweaked.warned = true;
        let deltas = trace_deltas(&base, &tweaked);
        let fields: Vec<&str> = deltas.iter().map(|d| d.field).collect();
        assert_eq!(fields, vec!["mean_mse", "warned"]);
        assert!(deltas[0].captured.contains("bits 0x"), "{:?}", deltas[0]);
        assert_ne!(deltas[0].captured, deltas[0].replayed);
    }

    #[test]
    fn render_report_names_first_divergence() {
        let report = ReplayReport {
            events: 12,
            traces_captured: 9,
            traces_replayed: 9,
            warnings_captured: 1,
            warnings_replayed: 1,
            clean_start: true,
            backend: "scalar".into(),
            divergence: Some(Divergence {
                index: 4,
                node: "c0-0c0s0n1".into(),
                at_us: 99,
                kind: "trace",
                deltas: vec![plain_delta("phrase", 7, 8)],
            }),
        };
        let text = render_report(&report);
        assert!(text.contains("DIVERGED"));
        assert!(text.contains("first divergent trace at index 4"));
        assert!(text.contains("node c0-0c0s0n1"));
        assert!(text.contains("phrase"));

        let clean = ReplayReport {
            divergence: None,
            ..report
        };
        assert!(render_report(&clean).contains("BIT-EXACT"));
        assert!(clean.bit_exact());
    }
}
