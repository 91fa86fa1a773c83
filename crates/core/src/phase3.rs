//! Phase 3: testing/inference (paper §3.3).
//!
//! Per-node test episodes are vectorized exactly like Table 4 (cumulative
//! ΔTs to the episode's final event plus phrase ids) and scored against the
//! trained lead-time model: the LSTM predicts each next sample, the MSE to
//! the observed sample is accumulated, and an episode is flagged as an
//! impending node failure when the running mean falls to the threshold
//! (paper: MSE ≤ 0.5). The ΔT of the event at the flag position is the
//! predicted lead time — flagging earlier buys lead time at the price of
//! false positives (Figure 8).

use crate::config::DeshConfig;
use crate::episode::{extract_episodes, Episode};
use crate::metrics::Confusion;
use crate::phase2::LeadTimeModel;
use desh_loggen::{FailureClass, GroundTruthFailure, NodeId};
use desh_logparse::ParsedLog;
use desh_nn::ScoreWorkspace;
use desh_obs::{ActiveWaterfall, QualityMonitor, SpanProfiler, Telemetry};
use desh_util::{duration_us, Micros};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Stage list for the phase-3 scoring waterfall: Table 4 vectorization,
/// the windowed LSTM forward pass, and the running-mean flag decision.
/// Build the [`SpanProfiler`] passed to [`run_phase3_profiled`] with
/// exactly these stages.
pub const PHASE3_PROFILE_STAGES: [&str; 3] = ["encode", "predict", "threshold"];

const P3_STAGE_ENCODE: usize = 0;
const P3_STAGE_PREDICT: usize = 1;
const P3_STAGE_THRESHOLD: usize = 2;

/// Outcome for one test episode.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Node the episode belongs to.
    pub node: NodeId,
    /// Episode start.
    pub start: Micros,
    /// Episode end.
    pub end: Micros,
    /// Whether Desh flagged an impending failure.
    pub flagged: bool,
    /// Mean model MSE at the decision point (or over the whole episode
    /// when not flagged).
    pub score: f64,
    /// Predicted lead time at the flag position, seconds.
    pub predicted_lead_secs: Option<f64>,
    /// Ground truth: does a failure terminate this episode?
    pub is_failure: bool,
    /// Ground-truth class when `is_failure`.
    pub class: Option<FailureClass>,
}

/// Phase-3 results.
#[derive(Debug)]
pub struct Phase3Output {
    /// Per-episode verdicts.
    pub verdicts: Vec<Verdict>,
    /// Aggregated confusion counts.
    pub confusion: Confusion,
}

/// Windows of cabinet-wide maintenance: clusters of `System: halted`
/// messages across many nodes. Episodes overlapping these windows are
/// excluded from evaluation, mirroring the paper's separation of
/// "anomaly-based node failure versus intended node shutdowns".
pub fn maintenance_windows(parsed: &ParsedLog, min_nodes: usize) -> Vec<(Micros, Micros)> {
    let mut halts: Vec<(Micros, NodeId)> = Vec::new();
    for (&node, events) in &parsed.per_node {
        for e in events {
            if parsed.template(e.phrase).starts_with("System: halted") {
                halts.push((e.time, node));
            }
        }
    }
    halts.sort_by_key(|(t, _)| *t);
    let mut windows = Vec::new();
    let mut i = 0;
    let merge_gap = Micros::from_secs(300);
    while i < halts.len() {
        let mut j = i;
        let mut nodes = std::collections::HashSet::new();
        nodes.insert(halts[i].1);
        while j + 1 < halts.len() && halts[j + 1].0.saturating_sub(halts[j].0) <= merge_gap {
            j += 1;
            nodes.insert(halts[j].1);
        }
        if nodes.len() >= min_nodes {
            // Pad the window to cover the whole shutdown sequence.
            windows.push((
                halts[i].0.saturating_sub(Micros::from_secs(300)),
                halts[j].0 + Micros::from_secs(300),
            ));
        }
        i = j + 1;
    }
    windows
}

/// Score one episode: returns (flagged, decision score, predicted lead).
/// `sw` is a reusable scratch workspace (one per rayon task) so the
/// windowed scorer never allocates per position.
fn score_episode(
    model: &LeadTimeModel,
    episode: &Episode,
    cfg: &DeshConfig,
    sw: &mut ScoreWorkspace,
    mut wf: Option<&mut ActiveWaterfall>,
) -> (bool, f64, Option<f64>) {
    let end = episode.end();
    // Cumulative ΔTs to the episode's final event (Table 4 construction).
    let seq: Vec<Vec<f32>> = episode
        .events
        .iter()
        .map(|e| model.vectorize(end.saturating_sub(e.time).as_secs_f64(), e.phrase))
        .collect();
    if let Some(w) = wf.as_deref_mut() {
        w.mark(P3_STAGE_ENCODE);
    }
    let raw = model.net.score_sequence_ws(&seq, model.history, sw);
    if let Some(w) = wf.as_deref_mut() {
        w.mark(P3_STAGE_PREDICT);
    }
    // Normalise so one full phrase mismatch scores ~1.0 regardless of
    // vocabulary size, then apply the configured multiplier.
    let unit = (model.vocab_size + 1) as f64 / 2.0 * cfg.phase3.score_scale;
    let scores: Vec<f64> = raw.iter().map(|s| s * unit).collect();
    let mut running = 0.0;
    for (k, s) in scores.iter().enumerate() {
        running += s;
        let seen = k + 1;
        let mean = running / seen as f64;
        if seen >= cfg.phase3.min_evidence && mean <= cfg.phase3.mse_threshold {
            // Flag after observing event index k+1 (transition k predicts
            // event k+1); remaining lead is that event's ΔT.
            let lead = end
                .saturating_sub(episode.events[k + 1].time)
                .as_secs_f64();
            if let Some(w) = wf.as_deref_mut() {
                w.mark(P3_STAGE_THRESHOLD);
            }
            return (true, mean, Some(lead));
        }
    }
    let mean = if scores.is_empty() {
        f64::INFINITY
    } else {
        scores.iter().sum::<f64>() / scores.len() as f64
    };
    if let Some(w) = wf {
        w.mark(P3_STAGE_THRESHOLD);
    }
    (false, mean, None)
}

/// Match an episode to ground truth: a failure whose terminal time is the
/// episode end (within slack).
fn match_truth(
    episode: &Episode,
    truth: &[GroundTruthFailure],
) -> Option<FailureClass> {
    truth
        .iter()
        .find(|f| {
            f.node == episode.node && f.time.abs_diff(episode.end()).as_secs_f64() < 5.0
        })
        .map(|f| f.class)
}

/// Run phase 3 over a parsed test log.
pub fn run_phase3(
    model: &LeadTimeModel,
    parsed: &ParsedLog,
    truth: &[GroundTruthFailure],
    cfg: &DeshConfig,
) -> Phase3Output {
    run_phase3_telemetry(model, parsed, truth, cfg, &Telemetry::disabled())
}

/// [`run_phase3`] reporting into a telemetry registry: the `phase3` span,
/// `phase3.episodes` / `phase3.flagged` / `phase3.excluded_maintenance`
/// counters, the per-episode `phase3.episode_score_us` latency
/// histogram (recorded from the rayon workers through a pre-resolved
/// lock-free handle), and the `phase3.workers` /
/// `phase3.episodes_per_s` scoring-throughput gauges. Because phase 3 runs with ground-truth labels, each
/// verdict also feeds the [`QualityMonitor`]: the rolling confusion
/// matrix (`quality.confusion.*`, `quality.precision`/`quality.recall`)
/// and, for flagged true positives, the per-class lead-time histogram
/// tracked against the paper's Table 7 figures
/// (`quality.lead_secs[class=..]`, `quality.lead_vs_paper[class=..]`).
pub fn run_phase3_telemetry(
    model: &LeadTimeModel,
    parsed: &ParsedLog,
    truth: &[GroundTruthFailure],
    cfg: &DeshConfig,
    telemetry: &Telemetry,
) -> Phase3Output {
    run_phase3_profiled(model, parsed, truth, cfg, telemetry, None)
}

/// [`run_phase3_telemetry`] with an optional sampled span profiler built
/// over [`PHASE3_PROFILE_STAGES`]: 1-in-N scored episodes record an
/// encode → predict → threshold waterfall (the batch-side mirror of the
/// online detector's per-event one). The profiler's atomics are shared
/// across the rayon workers; each sampled waterfall is worker-local.
pub fn run_phase3_profiled(
    model: &LeadTimeModel,
    parsed: &ParsedLog,
    truth: &[GroundTruthFailure],
    cfg: &DeshConfig,
    telemetry: &Telemetry,
    profiler: Option<&Arc<SpanProfiler>>,
) -> Phase3Output {
    let _span = telemetry.span("phase3");
    let windows = maintenance_windows(parsed, 8);
    let all = extract_episodes(parsed, &cfg.episodes);
    let before = all.len();
    let episodes: Vec<Episode> = all
        .into_iter()
        .filter(|ep| {
            !windows
                .iter()
                .any(|(lo, hi)| ep.end() >= *lo && ep.start() <= *hi)
        })
        .collect();
    telemetry.count("phase3.episodes", episodes.len() as u64);
    telemetry.count("phase3.excluded_maintenance", (before - episodes.len()) as u64);
    telemetry.gauge_set("phase3.workers", rayon::current_num_threads() as f64);

    let score_hist = telemetry.histogram_handle("phase3.episode_score_us");
    let t_score = Instant::now();
    let verdicts: Vec<Verdict> = episodes
        .par_iter()
        .map(|ep| {
            let t0 = score_hist.as_ref().map(|_| Instant::now());
            let mut sw = model.net.workspace();
            let mut wf = profiler.and_then(|p| p.begin());
            let (flagged, score, predicted_lead_secs) =
                score_episode(model, ep, cfg, &mut sw, wf.as_mut());
            if let (Some(p), Some(mut w)) = (profiler, wf) {
                w.set_at_us(ep.end().0);
                p.finish(w, Some(P3_STAGE_PREDICT));
            }
            if let (Some(h), Some(t0)) = (&score_hist, t0) {
                h.record(duration_us(t0.elapsed()));
            }
            let class = match_truth(ep, truth);
            Verdict {
                node: ep.node,
                start: ep.start(),
                end: ep.end(),
                flagged,
                score,
                predicted_lead_secs,
                is_failure: class.is_some(),
                class,
            }
        })
        .collect();
    let score_elapsed = t_score.elapsed();
    if !verdicts.is_empty() && !score_elapsed.is_zero() {
        telemetry.gauge_set(
            "phase3.episodes_per_s",
            verdicts.len() as f64 / score_elapsed.as_secs_f64(),
        );
    }

    let mut confusion = Confusion::default();
    let quality = QualityMonitor::new(telemetry);
    for v in &verdicts {
        confusion.record(v.flagged, v.is_failure);
        if let Some(q) = &quality {
            q.record_outcome(v.flagged, v.is_failure);
            if v.flagged {
                if let (Some(class), Some(lead)) = (v.class, v.predicted_lead_secs) {
                    q.record_lead(class.name(), lead, class.paper_lead_secs());
                }
            }
        }
    }
    telemetry.count("phase3.flagged", verdicts.iter().filter(|v| v.flagged).count() as u64);
    Phase3Output { verdicts, confusion }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::extract_chains;
    use crate::phase2::run_phase2;
    use desh_loggen::{generate, SystemProfile};
    use desh_logparse::parse_records;
    use desh_util::Xoshiro256pp;

    /// End-to-end fixture: train on the 30% split, test on the rest.
    fn fixture(seed: u64) -> (Phase3Output, usize) {
        let d = generate(&SystemProfile::tiny(), seed);
        let (train, test) = d.split_by_time(0.3);
        let cfg = DeshConfig::fast();
        let parsed_train = parse_records(&train.records);
        let chains = extract_chains(&parsed_train, &cfg.episodes);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut p2 = cfg.phase2.clone();
        p2.epochs = 30;
        let model = run_phase2(&chains, parsed_train.vocab_size().max(40), &p2, &mut rng);
        let parsed_test =
            desh_logparse::parse_records_with_vocab(&test.records, parsed_train.vocab.clone());
        let out = run_phase3(&model, &parsed_test, &test.failures, &cfg);
        (out, test.failures.len())
    }

    #[test]
    fn verdicts_cover_all_test_failures() {
        let (out, n_failures) = fixture(91);
        let failure_verdicts = out.verdicts.iter().filter(|v| v.is_failure).count();
        assert_eq!(
            failure_verdicts, n_failures,
            "every ground-truth test failure should surface as a failure episode"
        );
    }

    #[test]
    fn flagged_failures_report_lead_times() {
        let (out, _) = fixture(92);
        for v in &out.verdicts {
            if v.flagged {
                let lead = v.predicted_lead_secs.expect("flagged verdicts carry lead");
                assert!(lead >= 0.0 && lead.is_finite());
            } else {
                assert!(v.predicted_lead_secs.is_none());
            }
        }
    }

    #[test]
    fn confusion_totals_match_verdicts() {
        let (out, _) = fixture(93);
        assert_eq!(out.confusion.total() as usize, out.verdicts.len());
    }

    #[test]
    fn maintenance_windows_detect_mass_halts() {
        let mut p = SystemProfile::tiny();
        p.failures = 0;
        p.near_miss_ratio = 0.0;
        p.maintenance_events = 1;
        let d = generate(&p, 94);
        let parsed = parse_records(&d.records);
        let windows = maintenance_windows(&parsed, 8);
        assert_eq!(windows.len(), 1, "one maintenance event should yield one window");
        // No episodes survive the maintenance filter in a failure-free run.
        let cfg = DeshConfig::fast();
        let eps: Vec<_> = extract_episodes(&parsed, &cfg.episodes)
            .into_iter()
            .filter(|ep| {
                !windows
                    .iter()
                    .any(|(lo, hi)| ep.end() >= *lo && ep.start() <= *hi)
            })
            .collect();
        assert!(eps.is_empty(), "{} episodes leaked through maintenance filter", eps.len());
    }

    #[test]
    fn profiled_scoring_matches_unprofiled_and_records_waterfalls() {
        let d = generate(&SystemProfile::tiny(), 96);
        let (train, test) = d.split_by_time(0.3);
        let cfg = DeshConfig::fast();
        let parsed_train = parse_records(&train.records);
        let chains = extract_chains(&parsed_train, &cfg.episodes);
        let mut rng = Xoshiro256pp::seed_from_u64(96);
        let model = run_phase2(&chains, 40, &cfg.phase2, &mut rng);
        let parsed_test =
            desh_logparse::parse_records_with_vocab(&test.records, parsed_train.vocab.clone());

        let plain = run_phase3(&model, &parsed_test, &test.failures, &cfg);
        let t = Telemetry::enabled();
        let profiler = SpanProfiler::new(
            t.registry().unwrap(),
            "phase3",
            &PHASE3_PROFILE_STAGES,
            1,
            16,
        );
        let profiled = run_phase3_profiled(
            &model,
            &parsed_test,
            &test.failures,
            &cfg,
            &t,
            Some(&profiler),
        );
        // Profiling is observation-only.
        assert_eq!(plain.verdicts.len(), profiled.verdicts.len());
        let flags =
            |o: &Phase3Output| o.verdicts.iter().filter(|v| v.flagged).count();
        assert_eq!(flags(&plain), flags(&profiled));

        assert_eq!(profiler.events_seen() as usize, profiled.verdicts.len());
        assert!(!profiler.waterfalls().is_empty(), "no waterfalls retained");
        let snap = t.snapshot().unwrap();
        for stage in PHASE3_PROFILE_STAGES {
            let h = snap
                .histogram(&format!("profile.phase3.{stage}_ns"))
                .unwrap();
            assert_eq!(
                h.count() as usize,
                profiled.verdicts.len(),
                "stage {stage} missed episodes"
            );
        }
    }

    #[test]
    fn stricter_evidence_reduces_or_keeps_flags() {
        let d = generate(&SystemProfile::tiny(), 95);
        let (train, test) = d.split_by_time(0.3);
        let cfg = DeshConfig::fast();
        let parsed_train = parse_records(&train.records);
        let chains = extract_chains(&parsed_train, &cfg.episodes);
        let mut rng = Xoshiro256pp::seed_from_u64(95);
        let model = run_phase2(&chains, 40, &cfg.phase2, &mut rng);
        let parsed_test =
            desh_logparse::parse_records_with_vocab(&test.records, parsed_train.vocab.clone());

        let flags_at = |evidence: usize| {
            let mut c = cfg.clone();
            c.phase3.min_evidence = evidence;
            run_phase3(&model, &parsed_test, &test.failures, &c)
                .verdicts
                .iter()
                .filter(|v| v.flagged)
                .count()
        };
        assert!(
            flags_at(1) >= flags_at(4),
            "earlier flagging cannot produce fewer flags"
        );
    }
}
