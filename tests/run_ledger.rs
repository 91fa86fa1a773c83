//! Integration coverage for the training run ledger (ISSUE 5 tentpole):
//! a full pipeline run under a [`RunSession`] must leave an auditable
//! trail — manifest, per-epoch `series.jsonl` rows with per-layer
//! gradient stats for all three phases, and a `run.json` with end
//! metrics keyed against the paper's figures — and a NaN-poisoned run
//! must abort through the divergence watchdog with the reason and the
//! last healthy weights on disk.

use desh::core::{dataset_fingerprint, Desh, RunSession};
use desh::obs::{diff_series, list_runs, load_run, load_series, render_series_diff, RunSummary};
use desh::prelude::*;
use std::path::{Path, PathBuf};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("desh-ledger-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `fast()` with phase 2 trimmed: ledger structure, not model quality,
/// is under test here.
fn quick_cfg() -> DeshConfig {
    let mut cfg = DeshConfig::fast();
    cfg.phase2.epochs = 8;
    cfg
}

fn dataset() -> Dataset {
    let mut p = SystemProfile::tiny();
    p.failures = 30;
    p.nodes = 24;
    generate(&p, 111)
}

fn run_with_seed(root: &Path, id: &str, seed: u64) -> RunSummary {
    let cfg = quick_cfg();
    let d = dataset();
    let session = RunSession::create_with_id(
        root,
        id.into(),
        seed,
        &cfg,
        dataset_fingerprint(&d.records),
    )
    .unwrap();
    let dir = session.dir().to_path_buf();
    let report = Desh::new(cfg, seed)
        .run_session(&d, session)
        .unwrap()
        .expect("healthy run must not diverge");
    assert!(report.confusion.total() > 0);
    load_run(&dir).unwrap()
}

#[test]
fn completed_run_records_manifest_series_and_end_metrics() {
    let root = temp_root("complete");
    let run = run_with_seed(&root, "run-a", 7);
    assert_eq!(run.status, "completed");
    let m = run.manifest.as_ref().unwrap();
    assert_eq!(m.seed, 7);
    assert!(m.dataset.starts_with("ds-"), "fingerprint: {}", m.dataset);
    assert_ne!(m.config_hash, 0);
    assert!(m.config.iter().any(|(k, _)| k == "phase2.epochs"));

    let names: Vec<&str> = run.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["sgns", "phase1", "phase2"]);
    assert!(run.phases.iter().all(|p| p.epochs > 0));

    let get = |k: &str| run.end_metrics.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    assert!(get("recall").is_some());
    assert!(get("lead_mean_secs").is_some());
    assert_eq!(get("paper.recall"), Some(0.85));
    assert_eq!(get("paper.accuracy"), Some(0.836));
    assert_eq!(get("paper.lead_mean_secs"), Some(120.0));

    // Every phase streamed per-epoch rows carrying per-layer grad norms.
    let series = load_series(&run.dir).unwrap();
    for phase in ["sgns", "phase1", "phase2"] {
        let rows: Vec<_> = series.iter().filter(|r| r.phase == phase).collect();
        assert!(!rows.is_empty(), "no series rows for {phase}");
        for r in &rows {
            assert!(r.loss.is_finite(), "{phase} epoch {} loss", r.epoch);
            assert!(!r.layers.is_empty(), "{phase} epoch {} has no layer stats", r.epoch);
            for l in &r.layers {
                assert!(l.grad_norm_max.is_finite(), "{phase}/{}", l.name);
                assert!(l.weight_norm.is_finite());
                assert_eq!(l.nonfinite, 0);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn two_seeds_diff_epoch_aligned() {
    let root = temp_root("diff");
    let a = run_with_seed(&root, "run-a", 1);
    let b = run_with_seed(&root, "run-b", 2);
    assert_eq!(list_runs(&root).len(), 2);

    let sa = load_series(&a.dir).unwrap();
    let sb = load_series(&b.dir).unwrap();
    let diffs = diff_series(&sa, &sb);
    assert!(!diffs.is_empty());
    let aligned: Vec<_> = diffs
        .iter()
        .filter(|d| d.loss_a.is_finite() && d.loss_b.is_finite())
        .collect();
    assert!(!aligned.is_empty(), "same config must align epochs across seeds");
    assert!(
        aligned.iter().any(|d| d.d_loss().abs() > 0.0),
        "different seeds must produce different losses"
    );
    let table = render_series_diff(&diffs, "run-a", "run-b");
    assert!(table.contains("run-a") && table.contains("run-b"), "{table}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn poisoned_run_aborts_with_reason_and_last_good_checkpoint() {
    let root = temp_root("poison");
    let cfg = quick_cfg();
    let d = dataset();
    let mut session = RunSession::create_with_id(
        &root,
        "run-poison".into(),
        7,
        &cfg,
        dataset_fingerprint(&d.records),
    )
    .unwrap();
    session.poison_loss_after("phase2", 2);
    let dir = session.dir().to_path_buf();
    let err = Desh::new(cfg, 7)
        .run_session(&d, session)
        .unwrap()
        .expect_err("poisoned run must diverge");
    assert_eq!(err.phase, "phase2");
    assert_eq!(err.reason, "nan_loss");
    assert_eq!(err.epoch, 2, "should_stop must end the phase at the offending epoch");

    let run = load_run(&dir).unwrap();
    assert_eq!(run.status, "diverged");
    let drec = run.divergence.unwrap();
    assert_eq!(drec.reason, "nan_loss");
    assert!(drec.detail.contains("non-finite"), "{}", drec.detail);

    // The last healthy epoch's weights were dumped and still decode.
    let note = drec.last_good_checkpoint.expect("healthy epochs preceded the poison");
    assert!(note.contains("last-good-phase2.ckpt"), "{note}");
    let ckpt = dir.join("last-good-phase2.ckpt");
    let bytes = std::fs::read(&ckpt).unwrap();
    VectorLstm::from_bytes(bytes.into()).expect("last-good weights must decode");

    // The offending epoch is on record: stats dump + NaN series row.
    assert!(dir.join("divergence.json").exists());
    let series = load_series(&dir).unwrap();
    let last = series.iter().rfind(|r| r.phase == "phase2").unwrap();
    assert_eq!(last.epoch, 2);
    assert!(last.loss.is_nan());
    let _ = std::fs::remove_dir_all(&root);
}
