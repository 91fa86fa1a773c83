//! End-to-end quality check of the int8-quantized inference path.
//!
//! Trains a small pipeline on a seeded synthetic cluster, replays the
//! held-out stream through the f32 detector and the int8 detector, and
//! requires the quantized path to reproduce the f32 decisions: warning
//! volume, precision and recall against the known failure schedule, and
//! the inferred failure class of matched warnings. Quantization may
//! perturb individual scores by up to half a quantization step, but the
//! deployed behaviour — who gets warned, when, and why — must not drift.

use desh::core::{ScoringNet, Warning};
use desh::obs::Telemetry;
use desh::prelude::*;
use std::collections::HashSet;

fn fixture() -> (Desh, desh::core::TrainedDesh, Dataset) {
    let mut p = SystemProfile::tiny();
    p.failures = 30;
    p.nodes = 24;
    let d = generate(&p, 907);
    let (train, test) = d.split_by_time(0.3);
    let desh = Desh::new(DeshConfig::fast(), 907);
    let trained = desh.train(&train);
    (desh, trained, test)
}

/// Replay `records` through `det`, returning the raised warnings.
fn replay(det: &mut desh::core::OnlineDetector, test: &Dataset) -> Vec<Warning> {
    test.records.iter().filter_map(|r| det.ingest(r)).collect()
}

/// Precision/recall of warnings against the dataset's failure schedule,
/// matching each warning to the next failure on the warned node.
fn precision_recall(warnings: &[Warning], test: &Dataset) -> (f64, f64) {
    let mut hits = 0usize;
    let mut caught = HashSet::new();
    for w in warnings {
        if let Some(f) = test
            .failures
            .iter()
            .find(|f| f.node == w.node && f.time >= w.at)
        {
            hits += 1;
            caught.insert((f.node, f.time));
        }
    }
    let precision = hits as f64 / warnings.len().max(1) as f64;
    let recall = caught.len() as f64 / test.failures.len().max(1) as f64;
    (precision, recall)
}

#[test]
fn int8_detector_tracks_f32_precision_recall_and_classes() {
    let (desh, trained, test) = fixture();
    let telemetry = Telemetry::disabled();

    let mut det_f32 = trained.online_detector(desh.cfg.clone(), &telemetry);
    let mut det_int8 = trained.quantized_detector(desh.cfg.clone(), &telemetry);
    let w_f32 = replay(&mut det_f32, &test);
    let w_int8 = replay(&mut det_int8, &test);

    assert!(
        !w_f32.is_empty(),
        "fixture produced no f32 warnings; the comparison is vacuous"
    );

    // Warning volume: within 2% of the f32 path (identical on most seeds).
    let (nf, nq) = (w_f32.len() as f64, w_int8.len() as f64);
    assert!(
        (nf - nq).abs() / nf <= 0.02,
        "warning volume drifted: f32 raised {nf}, int8 raised {nq}"
    );

    // Precision/recall within 1% absolute of the f32 replay.
    let (p_f, r_f) = precision_recall(&w_f32, &test);
    let (p_q, r_q) = precision_recall(&w_int8, &test);
    assert!(
        (p_f - p_q).abs() <= 0.01,
        "precision drifted: f32 {p_f:.3} vs int8 {p_q:.3}"
    );
    assert!(
        (r_f - r_q).abs() <= 0.01,
        "recall drifted: f32 {r_f:.3} vs int8 {r_q:.3}"
    );

    // Warnings raised by both paths at the same (node, time) must agree
    // on the inferred failure class — the operator-facing diagnosis.
    let f32_by_key: std::collections::HashMap<_, _> = w_f32
        .iter()
        .map(|w| ((w.node, w.at), w.class))
        .collect();
    for w in &w_int8 {
        if let Some(class) = f32_by_key.get(&(w.node, w.at)) {
            assert_eq!(
                *class, w.class,
                "failure class flipped under int8 at node {:?}",
                w.node
            );
        }
    }
}

#[test]
fn quantized_model_is_at_least_3x_smaller_and_reports_int8() {
    let (_, trained, _) = fixture();
    let f32_bytes = trained.lead_model.net.resident_bytes();
    let quantized = trained.lead_model.quantize();
    let q_bytes = quantized.net.resident_bytes();
    assert!(
        f32_bytes as f64 / q_bytes as f64 >= 3.0,
        "resident ratio {f32_bytes}/{q_bytes} below 3x"
    );
    assert_eq!(quantized.net.precision(), "int8");
    assert!(matches!(quantized.net, ScoringNet::Int8(_)));
    assert_eq!(trained.lead_model.net.precision(), "f32");
}
