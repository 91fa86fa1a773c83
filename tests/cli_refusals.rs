//! What the CLI refuses, by name: artifacts and commands of the removed
//! int8 scoring path (a `.dshq` checkpoint on every command that loads a
//! model, a capsule pinned to a precision other than f32, and the
//! `quantize` command), any flag its command does not take, and a
//! capsule naming a phrase id past the vocabulary bound.

use desh::obs::{Capsule, CapsuleEvent, CapsuleMeta};
use desh::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("desh-cli-refusals-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `desh-cli` expecting failure; returns its stderr.
fn fails(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_desh-cli"))
        .args(args)
        .output()
        .expect("spawn desh-cli");
    assert!(!out.status.success(), "desh-cli {args:?} succeeded");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A capsule of `events` pinned to `precision`, sealed on this host's
/// backend.
fn write_capsule_of(path: &Path, precision: &str, events: Vec<CapsuleEvent>) {
    let meta = CapsuleMeta {
        backend: desh::nn::kernel_backend_name().to_string(),
        precision: precision.to_string(),
        ..CapsuleMeta::default()
    };
    Capsule {
        meta,
        events,
        warnings: Vec::new(),
    }
    .write(path)
    .unwrap();
}

/// An empty capsule pinned to `precision`.
fn write_capsule(path: &Path, precision: &str) {
    write_capsule_of(path, precision, Vec::new());
}

/// A one-template checkpoint, valid enough for replay to read.
fn write_checkpoint(path: &Path) {
    let vocab = desh::logparse::Vocab::new();
    vocab.intern("node down");
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let model = LeadTimeModel {
        net: VectorLstm::new(2, 4, 1, &mut rng),
        dt_scale: 300.0,
        vocab_size: 1,
        history: 5,
        losses: Vec::new(),
    };
    std::fs::write(
        path,
        desh::checkpoint::encode_checkpoint(&model, &vocab, &[], "", 0),
    )
    .unwrap();
}

#[test]
fn int8_checkpoints_are_refused_by_name() {
    let dir = temp_dir("dshq");
    let dshq = dir.join("model.dshq");
    let mut bytes = b"DSHQ".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 64]);
    std::fs::write(&dshq, bytes).unwrap();
    let cap = dir.join("empty.dcap");
    write_capsule(&cap, "f32");
    let (m, c) = (dshq.to_str().unwrap(), cap.to_str().unwrap());
    let named = "int8 checkpoints (.dshq) are no longer supported";
    for args in [
        vec!["predict", "--log", "unused.txt", "--model", m],
        vec!["serve", "--model", m, "--listen", "127.0.0.1:0"],
        vec!["capsule", "replay", c, "--model", m],
    ] {
        let err = fails(&args);
        assert!(err.contains(named), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn int8_capsules_and_the_quantize_command_are_refused() {
    let dir = temp_dir("capsule");
    // A valid checkpoint, so replay gets as far as the capsule's pins.
    let ckpt = dir.join("model.dshm");
    write_checkpoint(&ckpt);
    let cap = dir.join("int8.dcap");
    write_capsule(&cap, "int8");
    let err = fails(&[
        "capsule",
        "replay",
        cap.to_str().unwrap(),
        "--model",
        ckpt.to_str().unwrap(),
    ]);
    assert!(
        err.contains("unsupported capsule precision 'int8'"),
        "{err}"
    );

    let err = fails(&[
        "quantize",
        "--model",
        ckpt.to_str().unwrap(),
        "--out",
        "x.dshq",
    ]);
    assert!(err.contains("unknown command \"quantize\""), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flags_a_command_does_not_take_are_refused_by_name() {
    for (args, named) in [
        (
            vec![
                "predict", "--log", "l.txt", "--model", "m.dshm", "--int8", "yes",
            ],
            "unknown flag --int8 for predict",
        ),
        (
            vec!["predict", "--log", "l.txt", "--trace-dri", "out"],
            "unknown flag --trace-dri for predict",
        ),
        (
            vec![
                "serve",
                "--model",
                "m.dshm",
                "--listen",
                "127.0.0.1:0",
                "--fast",
            ],
            "unknown flag --fast for serve",
        ),
        (
            vec![
                "generate",
                "--profile",
                "tiny",
                "--out",
                "x",
                "--telemetry",
                "t",
            ],
            "unknown flag --telemetry for generate",
        ),
        (
            vec!["capsule", "replay", "c.dcap", "--allow-precision-mismatch"],
            "unknown flag --allow-precision-mismatch for capsule replay",
        ),
        (
            vec!["runs", "list", "--dir", "runs", "--verbose"],
            "unknown flag --verbose for runs list",
        ),
        (
            vec![
                "shadow",
                "report",
                "--ledger",
                "s.jsonl",
                "--max-recall",
                "1",
            ],
            "unknown flag --max-recall for shadow report",
        ),
    ] {
        let err = fails(&args);
        assert!(err.contains(named), "{args:?}: {err}");
    }
}

#[test]
fn a_capsule_naming_a_phrase_past_the_vocabulary_bound_is_refused() {
    let dir = temp_dir("forged");
    let ckpt = dir.join("model.dshm");
    write_checkpoint(&ckpt);
    let event = |phrase: u32, seq: u64| CapsuleEvent {
        seq,
        at_us: 1_000_000 * (seq + 1),
        node: "c0-0c0s0n0".to_string(),
        text: format!("forged failure {seq}"),
        phrase,
        reset: seq == 0,
        trace: None,
    };
    let cap = dir.join("forged.dcap");
    write_capsule_of(&cap, "f32", vec![event(1, 0), event(u32::MAX, 1)]);
    let err = fails(&[
        "capsule",
        "replay",
        cap.to_str().unwrap(),
        "--model",
        ckpt.to_str().unwrap(),
    ]);
    assert!(
        err.contains("capsule event 1 (node c0-0c0s0n0, at_us 2000000) names phrase id 4294967295"),
        "{err}"
    );
    assert!(err.contains("past the vocabulary bound"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
