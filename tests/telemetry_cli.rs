//! End-to-end check of `desh-cli --telemetry`: generate a log, train a
//! checkpoint, stream it through `predict`, and assert the JSONL sink
//! holds parseable lines with nonzero online scoring-latency counts and
//! span timings.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_desh-cli"))
}

fn run(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn desh-cli");
    assert!(
        out.status.success(),
        "desh-cli {:?} failed:\n{}",
        cmd.get_args().collect::<Vec<_>>(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Minimal structural JSON check: braces/brackets balance outside string
/// literals and the line is a single object. Enough to catch truncated or
/// interleaved writes without pulling in a JSON parser.
fn assert_json_object(line: &str) {
    assert!(
        line.starts_with('{') && line.ends_with('}'),
        "not an object: {line}"
    );
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for (i, c) in line.char_indices() {
        if in_str {
            match (esc, c) {
                (true, _) => esc = false,
                (false, '\\') => esc = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(
                    depth > 0 || i == line.len() - 1,
                    "object closes early at byte {i}: {line}"
                );
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces: {line}");
    assert!(!in_str, "unterminated string: {line}");
}

/// Pull the integer that follows `"<hist>":{"count":` on a snapshot line.
fn hist_count(line: &str, hist: &str) -> Option<u64> {
    let key = format!("\"{hist}\":{{\"count\":");
    let at = line.find(&key)? + key.len();
    let digits: String = line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[test]
fn predict_telemetry_writes_parseable_jsonl_with_latencies() {
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let log = dir.join(format!("desh-tel-{tag}.log"));
    let model = dir.join(format!("desh-tel-{tag}.dshm"));
    let train_jsonl = dir.join(format!("desh-tel-train-{tag}.jsonl"));
    let pred_jsonl = dir.join(format!("desh-tel-pred-{tag}.jsonl"));
    let cleanup = |paths: &[&PathBuf]| {
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    };

    run(cli()
        .args(["generate", "--profile", "tiny", "--seed", "604", "--out"])
        .arg(&log));
    let train_out = run(cli()
        .args(["train", "--fast", "--seed", "604", "--log"])
        .arg(&log)
        .arg("--out")
        .arg(&model)
        .arg("--telemetry")
        .arg(&train_jsonl));
    assert!(train_out.contains("stats:"), "train printed no stats block");

    let pred_out = run(cli()
        .args(["predict", "--log"])
        .arg(&log)
        .arg("--model")
        .arg(&model)
        .arg("--telemetry")
        .arg(&pred_jsonl));
    assert!(
        pred_out.contains("stats:"),
        "predict printed no stats block"
    );

    // Train sink: one snapshot covering the train span and both phases.
    let train_lines = std::fs::read_to_string(&train_jsonl).unwrap();
    let snap = train_lines
        .lines()
        .find(|l| l.contains("\"type\":\"snapshot\""))
        .expect("train telemetry has a snapshot line");
    assert_json_object(snap);
    for span in [
        "span.train_us",
        "span.train.phase1_us",
        "span.train.phase2_us",
    ] {
        assert_eq!(hist_count(snap, span), Some(1), "missing {span} in {snap}");
    }
    // The data-parallel trainer records one gradient tree-reduction per
    // minibatch; the snapshot must carry a nonzero latency histogram.
    let reduces = hist_count(snap, "phase1.grad_reduce_us")
        .expect("train snapshot has phase1.grad_reduce_us");
    assert!(reduces > 0, "no gradient reductions recorded: {snap}");

    // Predict sink: every line parses, and the final snapshot carries a
    // nonzero scoring-latency histogram plus the stream span.
    let pred_lines = std::fs::read_to_string(&pred_jsonl).unwrap();
    assert!(!pred_lines.is_empty(), "predict telemetry file is empty");
    for line in pred_lines.lines() {
        assert_json_object(line);
    }
    let last = pred_lines
        .lines()
        .rfind(|l| l.contains("\"label\":\"final\""))
        .expect("predict telemetry has a final snapshot");
    let scored = hist_count(last, "online.score_latency_us")
        .expect("final snapshot has online.score_latency_us");
    assert!(scored > 0, "no scoring latencies recorded: {last}");
    assert_eq!(
        hist_count(last, "span.stream_us"),
        Some(1),
        "stream span missing"
    );

    cleanup(&[&log, &model, &train_jsonl, &pred_jsonl]);
}
