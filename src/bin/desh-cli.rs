//! `desh-cli` — the command-line face of the pipeline.
//!
//! ```text
//! desh-cli generate --profile m1 --seed 7 --out logs.txt [--truth truth.txt]
//! desh-cli train    --log logs.txt --out model.dshm [--seed 7]
//! desh-cli predict  --log logs.txt --model model.dshm [--truth truth.txt]
//! desh-cli analyze  --log logs.txt
//! ```
//!
//! `generate` synthesises a Cray-style log file; `train` runs phases 1+2
//! and checkpoints the lead-time model (plus vocabulary); `predict`
//! streams a log through the online detector and prints warnings, scoring
//! them when ground truth is supplied; `analyze` runs the log mining and
//! unknown-phrase analysis with no model at all.

use desh::checkpoint::{
    encode_checkpoint, encode_quantized_checkpoint, load_any_checkpoint, load_checkpoint,
    resolve_capsule_checkpoint, Checkpoint,
};
use desh::core::{
    config_hash, dataset_fingerprint, render_report, replay_capsule, run_phase1_session,
    run_phase2_session, Backpressure, BatchDetector, IntakeConfig, IntakeServer, OnlineDetector,
    ReplayOptions, RunSession, ShadowScorer, Warning,
};
use desh::obs::{
    default_slo_specs, diff_series, evaluate_gates, install_panic_dump, list_capsules, list_runs,
    load_run, load_series, load_shadow_ledger, parse_json, render_capsules_json,
    render_profile_ascii, render_runs_json, render_series_diff, render_shadow_report_json,
    render_shadow_report_table, sample_every_from_env, BurnPolicy, Capsule, CapsuleContext,
    CapsuleRecorder, CaptureTap, FlightRecorder, HealthInfo, HistorySampler, HttpServer,
    Introspection, Json, JsonValue, MetricsHistory, ShadowIdentity, ShadowLedger, ShadowMonitor,
    ShadowSideSummary, ShadowThresholds, SloEngine, SpanProfiler, WarningLog, CAPTURE_MAX_FILES,
    DEFAULT_SAMPLE_EVERY, DEFAULT_SHADOW_SLACK_SECS, DEFAULT_WATERFALL_RING, HISTORY_CAPACITY,
    HISTORY_RESOLUTION_MS,
};
use desh::prelude::*;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `runs` and `capsule` take positional subcommands/ids, so they parse
    // their own args.
    let result = if cmd == "runs" {
        cmd_runs(&args[1..])
    } else if cmd == "capsule" {
        cmd_capsule(&args[1..])
    } else if cmd == "shadow" {
        cmd_shadow(&args[1..])
    } else {
        let boolean: &[&str] = match cmd.as_str() {
            "train" => &["fast"],
            "predict" => &["fast", "profile", "int8"],
            "serve" => &["int8", "drop-oldest"],
            "slo" => &["json"],
            _ => &[],
        };
        let opts = match parse_flags(&args[1..], boolean) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        };
        match cmd.as_str() {
            "generate" => cmd_generate(&opts),
            "train" => cmd_train(&opts),
            "predict" => cmd_predict(&opts),
            "serve" => cmd_serve(&opts),
            "drive" => cmd_drive(&opts),
            "quantize" => cmd_quantize(&opts),
            "analyze" => cmd_analyze(&opts),
            "slo" => cmd_slo(&opts),
            "--help" | "-h" | "help" => {
                println!("{USAGE}");
                Ok(())
            }
            other => Err(format!("unknown command {other:?}")),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
desh-cli — LSTM-based node-failure prediction from HPC logs (Desh, HPDC'18)

USAGE:
  desh-cli generate --profile <m1|m2|m3|m4|tiny> --out <logs.txt>
                    [--truth <truth.txt>] [--seed <n>]
  desh-cli train    --log <logs.txt> --out <model.dshm> [--seed <n>] [--fast]
                    [--telemetry <out.jsonl>] [--run-dir <dir>] [--run-id <id>]
  desh-cli predict  --log <logs.txt> --model <model.dshm|model.dshq>
                    [--int8] [--truth <truth.txt>]
                    [--telemetry <out.jsonl>] [--serve <addr:port>]
                    [--serve-secs <n>] [--trace-dir <dir>] [--runs-dir <dir>]
                    [--capsule-dir <dir>]
                    [--shadow <ckpt>] [--shadow-ledger <out.jsonl>]
                    [--shadow-slack <secs>]
                    [--profile] [--profile-every <n>]
  desh-cli serve    --model <model.dshm|model.dshq> --listen <host:port>
                    [--int8] [--shards <n>] [--slots <n>] [--queue-depth <n>]
                    [--batch-max <n>] [--drop-oldest] [--http <host:port>]
                    [--shadow <ckpt>] [--shadow-ledger <out.jsonl>]
                    [--shadow-slack <secs>] [--serve-secs <n>]
  desh-cli drive    --log <logs.txt> --to <host:port> [--secs <n>] [--rate <lines/s>]
  desh-cli quantize --model <model.dshm> --out <model.dshq>
  desh-cli analyze  --log <logs.txt>
  desh-cli slo      --addr <host:port> [--json]
  desh-cli runs     list            --dir <runs-dir> [--json]
  desh-cli runs     show <id>       --dir <runs-dir>
  desh-cli runs     diff <a> <b>    --dir <runs-dir>
  desh-cli capsule  record          --log <logs.txt> --model <ckpt> --out <dir> [--int8]
  desh-cli capsule  list            --dir <dir> [--json]
  desh-cli capsule  verify <file.dcap>
  desh-cli capsule  replay <file.dcap> [--model <ckpt>]
                    [--allow-backend-mismatch] [--allow-precision-mismatch]
  desh-cli capsule  diff   <file.dcap> [--model <ckpt>]
  desh-cli shadow   report --ledger <shadow.jsonl> [--json]
                    [--max-warning-delta-pct <x>] [--max-pr-regression <y>]
                    [--max-lead-regression-buckets <z>]

  --telemetry writes metric snapshots (counters, gauges, latency-histogram
  quantiles, span timings) as JSON lines and prints a stats block on exit.

  --run-dir opens a training run ledger under <dir>: a manifest (seed,
  config hash, dataset fingerprint), per-epoch series.jsonl rows with
  per-layer gradient stats for all phases, and run.json with end metrics
  keyed against the paper's figures. The divergence watchdog aborts a
  phase on NaN loss or exploding gradients, keeping the last-good weights.
  The checkpoint is stamped with the run id so `runs show` links the two.

  `runs` audits ledgers: list every run under --dir, show one run's
  manifest/phases/metrics, or diff two runs' epoch-aligned loss and
  gradient-norm series.

  --serve starts a read-only introspection HTTP server (GET /healthz,
  /metrics, /metrics/history, /slo, /profile, /warnings[?limit=N],
  /nodes/<id>/flight) during the replay and holds it afterwards —
  forever, or for --serve-secs seconds. --runs-dir adds GET /runs and
  /runs/<id>/series over that ledger directory. --trace-dir records
  per-warning decision traces (warnings.jsonl), a final flight-recorder
  dump (flight.jsonl), SLO alert transitions (slo-alerts.jsonl), and
  installs a panic hook dumping every node ring plus the fired-warning
  log to a timestamped panic-<unix-ms>.jsonl (a second panic never
  overwrites the first). Serving, tracing, or profiling enables
  telemetry implicitly.

  --capsule-dir arms incident capture: every event flows through a
  per-node pre-trigger ring, and a fired warning, an SLO fast-burn, or
  a panic seals a checksummed .dcap capsule into <dir> — raw events,
  decision traces, fired warnings, and the pinned environment
  (checkpoint, config hash, kernel backend, precision, DESH_SHARDS) —
  everything `capsule replay` needs to re-run the incident bit-exactly.
  With --serve, GET /capsules lists the sealed capsules.

  `capsule record` streams a log through the detector with capture
  armed and seals one manual capsule at end of stream. `capsule
  replay` re-runs a capsule against its recorded checkpoint (or
  --model) and asserts bit-exact agreement on every trace word and
  warning field — it exits non-zero on divergence, printing the first
  divergent event and per-field deltas. `capsule diff` is the same
  comparison but expects divergence (backend/precision mismatches
  allowed) and always exits zero. `capsule verify` checks a file's
  seal (magic, version, checksum); `capsule list` summarizes a
  directory of capsules.

  --profile samples per-event latency waterfalls through the detector's
  pipeline stages (1 in DESH_PROFILE_EVERY events unless --profile-every
  overrides it) and prints per-stage quantiles plus the latest waterfall
  after the replay. --serve always attaches the profiler so GET /profile
  works either way.

  `slo` fetches /slo from a serving predictor and renders burn rates per
  objective; --json dumps the raw body.

  `serve` is the fleet-scale streaming intake: raw log lines (one record
  per line, node-id tagged) arrive over TCP on --listen, are
  hash-partitioned by node id across --shards detector shards (default
  DESH_SHARDS), and scored through the wave-batched detector — same-tick
  cell steps from different nodes fuse into multi-row GEMM batches that
  are bit-identical to per-node sequential scoring. Queues are bounded
  (--queue-depth) with explicit backpressure: producers block by default
  (lossless); --drop-oldest sheds the oldest queued record instead,
  counted per shard. --http serves /healthz and /metrics with per-shard
  ingest.events_per_s / ingest.queue_depth / ingest.resident_nodes
  gauges and ingest.dropped counters. `drive` is the matching traffic
  generator: it streams a log file's raw lines to a serving intake,
  optionally looping for --secs at a target --rate.

  --shadow loads a second checkpoint as a *shadow candidate*: every event
  is scored through both models, the primary's warnings stay bit-identical
  to an unshadowed run, and divergence (warning agreement within
  --shadow-slack seconds, per-class lead-time deltas, score-drift EWMA)
  streams into shadow.* metrics, GET /shadow, and — with --shadow-ledger —
  a sealed JSONL ledger pinning both checkpoints' run ids and config
  hashes. GET /shadow/report and `shadow report` evaluate the promotion
  gates (warning-volume delta, precision/recall regression, lead-time p50
  regression in log-scale buckets) and render a PASS/FAIL verdict; `shadow
  report` exits non-zero on FAIL so CI can gate promotions on it.

  `quantize` converts a trained `.dshm` checkpoint into an int8 `.dshq`
  sidecar (symmetric per-tensor weights, f32 accumulate, ~4× smaller
  resident model). `predict` accepts either format; `predict --int8`
  forces the quantized path, converting a `.dshm` in memory if needed.
  The active SIMD kernel backend and precision are printed at load and
  reported at /healthz and in the nn.kernel_backend / nn.int8 gauges.";

type Flags = HashMap<String, String>;

/// Parse `--key value` pairs; keys listed in `boolean` take no value.
/// Which keys are boolean depends on the command — `generate --profile`
/// names a system profile while `predict --profile` toggles the sampler.
fn parse_flags(args: &[String], boolean: &[&str]) -> Result<Flags, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        if boolean.contains(&key) {
            out.insert(key.to_string(), "true".to_string());
            continue;
        }
        let Some(v) = it.next() else {
            return Err(format!("flag --{key} needs a value"));
        };
        out.insert(key.to_string(), v.clone());
    }
    Ok(out)
}

fn need<'a>(opts: &'a Flags, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn seed_of(opts: &Flags) -> u64 {
    opts.get("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2018)
}

/// Telemetry handle plus JSONL sink when `--telemetry <path>` was given.
fn telemetry_of(opts: &Flags) -> Result<(Telemetry, Option<JsonlSink>), String> {
    match opts.get("telemetry") {
        Some(path) => {
            let sink = JsonlSink::create(path)
                .map_err(|e| format!("cannot create telemetry file {path}: {e}"))?;
            Ok((Telemetry::enabled(), Some(sink)))
        }
        None => Ok((Telemetry::disabled(), None)),
    }
}

/// Final snapshot → JSONL line + human stats block on stdout.
fn finish_telemetry(
    telemetry: &Telemetry,
    sink: Option<&mut JsonlSink>,
    label: &str,
) -> Result<(), String> {
    let Some(snap) = telemetry.snapshot() else {
        return Ok(());
    };
    if let Some(sink) = sink {
        sink.snapshot(label, &snap).map_err(|e| e.to_string())?;
        sink.flush().map_err(|e| e.to_string())?;
    }
    println!("\nstats:\n{}", render_summary(&snap));
    Ok(())
}

/// `--shadow-slack` in seconds, defaulting to the obs-layer window.
fn shadow_slack_of(opts: &Flags) -> Result<f64, String> {
    match opts.get("shadow-slack").map(|s| s.parse::<f64>()) {
        Some(Ok(s)) if s.is_finite() && s >= 0.0 => Ok(s),
        Some(_) => Err("--shadow-slack needs a non-negative number of seconds".into()),
        None => Ok(DEFAULT_SHADOW_SLACK_SECS),
    }
}

/// Pin a checkpoint's identity for the sealed shadow ledger header.
fn shadow_identity_of(path: &str, ck: &Checkpoint) -> ShadowIdentity {
    ShadowIdentity {
        path: path.to_string(),
        run_id: (!ck.run_id.is_empty()).then(|| ck.run_id.clone()),
        config_hash: Some(ck.config_hash),
        precision: Some(ck.model.net.precision().to_string()),
    }
}

/// Load the `--shadow` candidate checkpoint, mirroring the primary's
/// `--int8` conversion so both sides score through the same kernel path.
fn shadow_checkpoint_of(opts: &Flags) -> Result<Option<(String, Checkpoint)>, String> {
    let Some(path) = opts.get("shadow") else {
        return Ok(None);
    };
    let mut sck = load_any_checkpoint(Path::new(path))
        .map_err(|e| format!("cannot load shadow checkpoint {path}: {e}"))?;
    if opts.contains_key("int8") && sck.model.net.precision() != "int8" {
        sck.f32_net_bytes = sck.model.net.resident_bytes() as u64;
        sck.model = sck.model.quantize();
    }
    match &sck.run_id[..] {
        "" => println!(
            "shadow candidate {path} ({} weights)",
            sck.model.net.precision()
        ),
        id => println!(
            "shadow candidate {path}: run {id} (config hash {:016x}, {} weights)",
            sck.config_hash,
            sck.model.net.precision()
        ),
    }
    Ok(Some((path.clone(), sck)))
}

/// End-of-stream shadow accounting shared by `predict` and `serve`:
/// resolve pendings, fill precision/recall when ground truth is at hand,
/// seal the ledger summary, and print the divergence line.
fn finish_shadow(
    monitor: &ShadowMonitor,
    truth: Option<(&[GroundTruthFailure], &[Warning], &[Warning])>,
) -> Result<(), String> {
    monitor.finish();
    let mut summary = monitor.summary();
    if let Some((failures, primary, candidate)) = truth {
        let fill = |side: &mut ShadowSideSummary, warnings: &[Warning]| {
            let (p, r) = truth_scores(warnings, failures);
            side.precision = p;
            side.recall = r;
        };
        fill(&mut summary.primary, primary);
        fill(&mut summary.candidate, candidate);
    }
    monitor
        .write_summary(&summary)
        .map_err(|e| format!("cannot seal shadow ledger summary: {e}"))?;
    let agreement = summary
        .agreement()
        .map(|a| format!("{:.1}%", a * 100.0))
        .unwrap_or_else(|| "n/a".to_string());
    println!(
        "shadow divergence: {} agree, {} primary-only, {} candidate-only (agreement {agreement}, score drift {:.4})",
        summary.agree_both, summary.primary_only, summary.candidate_only, summary.score_drift
    );
    Ok(())
}

/// A warning counts when it lands on the failing node inside the same
/// 10-minute ahead-of-failure window `predict --truth` scores with.
fn warning_hits(w: &Warning, f: &GroundTruthFailure) -> bool {
    w.node == f.node && w.at < f.time && f.time.saturating_sub(w.at).as_mins_f64() < 10.0
}

/// Precision (useful warnings / warnings) and recall (caught failures /
/// failures) against ground truth; `None` when the denominator is empty.
fn truth_scores(
    warnings: &[Warning],
    failures: &[GroundTruthFailure],
) -> (Option<f64>, Option<f64>) {
    let tp = warnings
        .iter()
        .filter(|w| failures.iter().any(|f| warning_hits(w, f)))
        .count();
    let caught = failures
        .iter()
        .filter(|f| warnings.iter().any(|w| warning_hits(w, f)))
        .count();
    let precision = (!warnings.is_empty()).then(|| tp as f64 / warnings.len() as f64);
    let recall = (!failures.is_empty()).then(|| caught as f64 / failures.len() as f64);
    (precision, recall)
}

fn profile_of(name: &str) -> Result<SystemProfile, String> {
    match name.to_ascii_lowercase().as_str() {
        "m1" => Ok(SystemProfile::m1()),
        "m2" => Ok(SystemProfile::m2()),
        "m3" => Ok(SystemProfile::m3()),
        "m4" => Ok(SystemProfile::m4()),
        "tiny" => Ok(SystemProfile::tiny()),
        other => Err(format!("unknown profile {other:?}")),
    }
}

fn cmd_generate(opts: &Flags) -> Result<(), String> {
    let profile = profile_of(need(opts, "profile")?)?;
    let out = PathBuf::from(need(opts, "out")?);
    let dataset = generate(&profile, seed_of(opts));
    let n = desh::loggen::io::write_log_file(&out, &dataset).map_err(|e| e.to_string())?;
    println!(
        "wrote {n} log lines for {} ({} nodes, {} failures) to {}",
        profile.name,
        profile.nodes,
        dataset.failures.len(),
        out.display()
    );
    if let Some(truth) = opts.get("truth") {
        desh::loggen::io::write_truth_file(Path::new(truth), &dataset.failures)
            .map_err(|e| e.to_string())?;
        println!("wrote ground truth to {truth}");
    }
    Ok(())
}

fn cmd_train(opts: &Flags) -> Result<(), String> {
    let log_path = PathBuf::from(need(opts, "log")?);
    let out = PathBuf::from(need(opts, "out")?);
    let (records, bad) = desh::loggen::io::read_log_file(&log_path).map_err(|e| e.to_string())?;
    if records.is_empty() {
        return Err("log file contains no parseable lines".into());
    }
    println!(
        "read {} records ({} corrupt lines skipped)",
        records.len(),
        bad.len()
    );

    let cfg = if opts.contains_key("fast") {
        DeshConfig::fast()
    } else {
        DeshConfig::default()
    };
    let (telemetry, mut sink) = telemetry_of(opts)?;
    let mut session = match opts.get("run-dir") {
        Some(dir) => {
            let root = PathBuf::from(dir);
            let fp = dataset_fingerprint(&records);
            let s = match opts.get("run-id") {
                Some(id) => RunSession::create_with_id(&root, id.clone(), seed_of(opts), &cfg, fp),
                None => RunSession::create(&root, seed_of(opts), &cfg, fp),
            }
            .map_err(|e| format!("cannot open run ledger under {dir}: {e}"))?;
            println!("run ledger: {} ({})", s.run_id(), s.dir().display());
            Some(s)
        }
        None => None,
    };
    let mut rng = Xoshiro256pp::seed_from_u64(seed_of(opts));
    let train_span = telemetry.span("train");
    let parsed = desh::logparse::parse_records_telemetry(
        &records,
        Arc::new(desh::logparse::Vocab::new()),
        &telemetry,
    );
    println!(
        "vocabulary: {} templates; running phase 1...",
        parsed.vocab_size()
    );
    let p1 = match run_phase1_session(&parsed, &cfg, &mut rng, &telemetry, session.as_mut()) {
        Ok(p1) => p1,
        Err(d) => return Err(finish_diverged(session, d)),
    };
    println!(
        "phase 1 done: {} failure chains, 3-step accuracy {:.1}%",
        p1.chains.len(),
        p1.accuracy_kstep * 100.0
    );
    if p1.chains.is_empty() {
        return Err("no failure chains found in the training log".into());
    }
    println!("running phase 2 ({} epochs)...", cfg.phase2.epochs);
    let model = match run_phase2_session(
        &p1.chains,
        parsed.vocab_size(),
        &cfg.phase2,
        &mut rng,
        &telemetry,
        session.as_mut(),
    ) {
        Ok(m) => m,
        Err(d) => return Err(finish_diverged(session, d)),
    };
    drop(train_span);

    // Checkpoint, stamped with the ledger run id + config hash so
    // `runs show` can link the two (empty id when no --run-dir).
    let (run_id, cfg_hash) = match &session {
        Some(s) => (s.run_id().to_string(), s.config_hash()),
        None => (String::new(), config_hash(&cfg)),
    };
    let bytes = encode_checkpoint(&model, &parsed.vocab, &p1.chains, &run_id, cfg_hash);
    std::fs::write(&out, &bytes).map_err(|e| e.to_string())?;
    println!(
        "checkpointed lead-time model ({} KiB) to {}",
        bytes.len() / 1024,
        out.display()
    );
    if let Some(mut s) = session {
        s.note_checkpoint(&out.display().to_string());
        let metrics = vec![
            ("phase1_accuracy_kstep".to_string(), p1.accuracy_kstep),
            ("chains_trained".to_string(), p1.chains.len() as f64),
        ];
        let dir = s.dir().to_path_buf();
        s.finish(&metrics).map_err(|e| e.to_string())?;
        println!("run ledger finalized: {}", dir.join("run.json").display());
    }
    finish_telemetry(&telemetry, sink.as_mut(), "train")?;
    Ok(())
}

/// Seal a diverged run's ledger and describe the abort for the operator.
fn finish_diverged(session: Option<RunSession>, d: desh::obs::DivergenceRecord) -> String {
    if let Some(s) = session {
        let dir = s.dir().to_path_buf();
        if s.finish(&[]).is_ok() {
            eprintln!(
                "divergence details in {} and {}",
                dir.join("run.json").display(),
                dir.join("divergence.json").display()
            );
        }
    }
    let ckpt = d
        .last_good_checkpoint
        .as_deref()
        .map(|c| format!("; last good weights: {c}"))
        .unwrap_or_default();
    format!(
        "training diverged in {} at epoch {}: {} ({}){}",
        d.phase, d.epoch, d.reason, d.detail, ckpt
    )
}

/// Records between periodic telemetry snapshots in `predict`.
const SNAPSHOT_EVERY: usize = 25_000;

/// Fired warnings kept in the in-memory log the `/warnings` route serves.
const WARNING_LOG_CAP: usize = 1024;

fn cmd_predict(opts: &Flags) -> Result<(), String> {
    let log_path = PathBuf::from(need(opts, "log")?);
    let model_path = PathBuf::from(need(opts, "model")?);
    let serve_secs = match opts.get("serve-secs").map(|s| s.parse::<u64>()) {
        Some(Ok(n)) => Some(n),
        Some(Err(_)) => return Err("--serve-secs needs an integer number of seconds".into()),
        None => None,
    };
    let profile_every = match opts.get("profile-every").map(|s| s.parse::<u64>()) {
        Some(Ok(n)) => Some(n),
        Some(Err(_)) => return Err("--profile-every needs an integer".into()),
        None => None,
    };
    let (mut telemetry, mut sink) = telemetry_of(opts)?;
    let tracing = opts.contains_key("serve") || opts.contains_key("trace-dir");
    let profiling = opts.contains_key("profile") || opts.contains_key("serve");
    if (tracing || profiling) && !telemetry.is_enabled() {
        // The introspection routes, trace dumps, and span profiler read
        // the registry, so any of them turns it on even without
        // --telemetry.
        telemetry = Telemetry::enabled();
    }
    let mut ck = telemetry.time("load_model", || load_any_checkpoint(&model_path))?;
    if !ck.run_id.is_empty() {
        println!(
            "model trained under run {} (config hash {:016x})",
            ck.run_id, ck.config_hash
        );
    }
    if opts.contains_key("int8") && ck.model.net.precision() != "int8" {
        // Convert in memory: the quantized model replaces the f32 one, so
        // only the int8 weights stay resident for the replay.
        ck.f32_net_bytes = ck.model.net.resident_bytes() as u64;
        ck.model = ck.model.quantize();
    }
    let precision = ck.model.net.precision();
    let resident = ck.model.net.resident_bytes();
    match (precision, ck.f32_net_bytes) {
        ("int8", f32b) if f32b > 0 => println!(
            "scoring path: {} kernels, {precision} weights ({:.1} KiB resident, {:.1}x smaller than f32)",
            desh::nn::kernel_backend_name(),
            resident as f64 / 1024.0,
            f32b as f64 / resident as f64
        ),
        _ => println!(
            "scoring path: {} kernels, {precision} weights ({:.1} KiB resident)",
            desh::nn::kernel_backend_name(),
            resident as f64 / 1024.0
        ),
    }
    let shadow_slack = shadow_slack_of(opts)?;
    let shadow_ck = shadow_checkpoint_of(opts)?;
    let health = HealthInfo {
        version: env!("CARGO_PKG_VERSION").to_string(),
        run_id: (!ck.run_id.is_empty()).then(|| ck.run_id.clone()),
        config_hash: Some(ck.config_hash),
        kernel_backend: Some(desh::nn::kernel_backend_name().to_string()),
        precision: Some(precision.to_string()),
        shadow_run_id: shadow_ck
            .as_ref()
            .and_then(|(_, s)| (!s.run_id.is_empty()).then(|| s.run_id.clone())),
        shadow_config_hash: shadow_ck.as_ref().map(|(_, s)| s.config_hash),
    };
    let primary_identity = shadow_identity_of(&model_path.display().to_string(), &ck);
    let (model, vocab, chains) = (ck.model, ck.vocab, ck.chains);
    let (records, bad) = desh::loggen::io::read_log_file(&log_path).map_err(|e| e.to_string())?;
    println!(
        "read {} records ({} corrupt skipped)",
        records.len(),
        bad.len()
    );

    let cfg = DeshConfig::default();
    let mut detector =
        OnlineDetector::with_telemetry(model, Arc::clone(&vocab), cfg.clone(), &telemetry);
    if chains.is_empty() {
        println!("note: v1 checkpoint without chains; warnings will not name a matched chain");
    } else {
        detector.attach_chains(&chains);
    }
    let mut shadow = match &shadow_ck {
        Some((spath, sck)) => {
            let monitor = Arc::new(ShadowMonitor::new(&telemetry, shadow_slack));
            if let Some(path) = opts.get("shadow-ledger") {
                let ledger = ShadowLedger::create(
                    Path::new(path),
                    shadow_slack,
                    &primary_identity,
                    &shadow_identity_of(spath, sck),
                )
                .map_err(|e| format!("cannot create shadow ledger {path}: {e}"))?;
                monitor.attach_ledger(ledger);
                println!("shadow ledger sealing into {path}");
            }
            // The candidate is a full independent detector (own model,
            // own vocabulary) on a private registry, so its online.*
            // metrics never mix with the primary's.
            let mut candidate =
                OnlineDetector::new(sck.model.clone(), Arc::clone(&sck.vocab), cfg.clone());
            if !sck.chains.is_empty() {
                candidate.attach_chains(&sck.chains);
            }
            detector.set_observe_scores(true);
            println!("shadow scoring armed (warning match slack {shadow_slack:.0}s)");
            Some(ShadowScorer::new(candidate, monitor))
        }
        None => None,
    };
    let capsules = match opts.get("capsule-dir") {
        Some(dir) => {
            let tap = Arc::new(CaptureTap::new());
            detector.attach_capture(Arc::clone(&tap));
            let ctx = capsule_context(
                &model_path,
                &ck.run_id,
                ck.config_hash,
                precision,
                vocab.len(),
                chains.len(),
                &cfg,
            );
            let rec = Arc::new(
                CapsuleRecorder::new(tap, ctx, PathBuf::from(dir))
                    .map_err(|e| format!("cannot open capsule dir {dir}: {e}"))?,
            );
            println!(
                "incident capture armed: sealing .dcap capsules into {dir} (max {CAPTURE_MAX_FILES})"
            );
            Some(rec)
        }
        None => None,
    };
    let profiler = if profiling {
        let registry = telemetry.registry().expect("profiling enables telemetry");
        let every = profile_every.unwrap_or_else(|| sample_every_from_env(DEFAULT_SAMPLE_EVERY));
        let p = SpanProfiler::new(
            registry,
            "online",
            &OnlineDetector::PROFILE_STAGES,
            every,
            DEFAULT_WATERFALL_RING,
        );
        detector.attach_profiler(Arc::clone(&p));
        println!("span profiler sampling 1 in {} events", p.every());
        Some(p)
    } else {
        None
    };
    let trace = if tracing {
        let flight = Arc::new(FlightRecorder::with_telemetry(&telemetry));
        let warning_log = Arc::new(WarningLog::new(WARNING_LOG_CAP));
        detector.attach_tracing(Arc::clone(&flight), Arc::clone(&warning_log));
        Some((flight, warning_log))
    } else {
        None
    };
    let trace_dir = opts.get("trace-dir").map(PathBuf::from);
    let mut warn_file = None;
    if let (Some(dir), Some((flight, warning_log))) = (&trace_dir, &trace) {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        install_panic_dump(
            Arc::clone(flight),
            Some(Arc::clone(warning_log)),
            dir.clone(),
            capsules.clone(),
        );
        let path = dir.join("warnings.jsonl");
        warn_file = Some(
            std::fs::File::create(&path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
        );
    }
    let mut history_sampler = None;
    let mut server = match opts.get("serve") {
        Some(addr) => {
            let (flight, warning_log) = trace.as_ref().expect("--serve implies tracing");
            let registry = telemetry.registry().expect("tracing enables telemetry");
            let mut state = Introspection::new(
                Arc::clone(registry),
                Arc::clone(flight),
                Arc::clone(warning_log),
            );
            let runs_routes = if let Some(dir) = opts.get("runs-dir") {
                state = state.with_runs_dir(PathBuf::from(dir));
                " /runs /runs/<id>/series"
            } else {
                ""
            };
            // Serving-path observability: a background sampler snapshots
            // the registry into the /metrics/history ring and feeds the
            // SLO burn-rate engine behind /slo and /healthz degradation.
            let history = MetricsHistory::new(Arc::clone(registry), HISTORY_CAPACITY);
            let mut slo = SloEngine::new(default_slo_specs(), BurnPolicy::default());
            if let Some(dir) = &trace_dir {
                let path = dir.join("slo-alerts.jsonl");
                slo = slo.with_sink(
                    JsonlSink::create(&path)
                        .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
                );
            }
            if let Some(rec) = &capsules {
                // A fast burn is exactly the moment to freeze evidence:
                // seal a capsule the instant the engine pages.
                slo = slo.with_capture(Arc::clone(rec));
            }
            let slo = Arc::new(slo);
            history_sampler = Some(HistorySampler::start(
                Arc::clone(&history),
                Duration::from_millis(HISTORY_RESOLUTION_MS),
                Some(Arc::clone(&slo)),
            ));
            state = state
                .with_history(history)
                .with_slo(slo)
                .with_health(health.clone());
            if let Some(p) = &profiler {
                state = state.with_profilers(vec![Arc::clone(p)]);
            }
            let capsule_routes = if let Some(rec) = &capsules {
                state = state.with_capsules(rec.dir().to_path_buf());
                " /capsules"
            } else {
                ""
            };
            let shadow_routes = if let Some(sh) = &shadow {
                state = state.with_shadow(Arc::clone(sh.monitor()), ShadowThresholds::default());
                " /shadow /shadow/report"
            } else {
                ""
            };
            let s = HttpServer::start(addr, state)
                .map_err(|e| format!("cannot bind introspection server on {addr}: {e}"))?;
            println!(
                "introspection server on http://{}/ (/healthz /metrics /metrics/history /slo /profile /warnings /nodes/<id>/flight{capsule_routes}{shadow_routes}{runs_routes})",
                s.addr()
            );
            Some(s)
        }
        None => None,
    };

    let mut warnings = Vec::new();
    let mut shadow_warnings = Vec::new();
    let stream_span = telemetry.span("stream");
    for (i, r) in records.iter().enumerate() {
        let fired = detector.ingest(r);
        if let Some(sh) = shadow.as_mut() {
            // Observation only: the candidate scores the same record and
            // divergence streams into the monitor; `fired` is untouched.
            if let Some(cw) = sh.observe(r, fired.as_ref(), detector.last_score()) {
                shadow_warnings.push(cw);
            }
        }
        if let Some(w) = fired {
            println!(
                "[{}] {}",
                w.at.as_clock(),
                OnlineDetector::format_warning(&w)
            );
            if let Some(sink) = sink.as_mut() {
                sink.event(
                    "warning",
                    &[
                        ("node", w.node.to_string().into()),
                        ("at_us", JsonValue::U64(w.at.0)),
                        ("predicted_lead_secs", w.predicted_lead_secs.into()),
                        ("score", w.score.into()),
                        ("class", w.class.name().into()),
                    ],
                )
                .map_err(|e| e.to_string())?;
                // A warning is the line an operator greps for after a crash;
                // it must not sit in a buffer if the process dies next.
                sink.flush().map_err(|e| e.to_string())?;
            }
            if let (Some(f), Some((_, warning_log))) = (warn_file.as_mut(), &trace) {
                if let Some(rec) = warning_log.newest() {
                    writeln!(f, "{}", rec.to_json()).map_err(|e| e.to_string())?;
                    f.flush().map_err(|e| e.to_string())?;
                }
            }
            if let Some(rec) = &capsules {
                match rec.capture("warning", Some(&w.node.to_string()), w.at.0) {
                    Ok(Some(path)) => println!("  sealed incident capsule {}", path.display()),
                    Ok(None) => {}
                    Err(e) => eprintln!("  capsule capture failed: {e}"),
                }
            }
            warnings.push(w);
        }
        if (i + 1) % SNAPSHOT_EVERY == 0 {
            if let (Some(sink), Some(snap)) = (sink.as_mut(), telemetry.snapshot()) {
                sink.snapshot(&format!("progress@{}", i + 1), &snap)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    drop(stream_span);
    println!(
        "\n{} warnings over {} anomaly events",
        warnings.len(),
        detector.events_seen()
    );
    if let Some(p) = &profiler {
        if opts.contains_key("profile") {
            print!("\n{}", render_profile_ascii(p));
        }
    }

    let truth = match opts.get("truth") {
        Some(p) => Some(
            desh::loggen::io::read_truth_file(Path::new(p)).map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    if let Some(truth) = &truth {
        let caught = truth
            .iter()
            .filter(|f| warnings.iter().any(|w| warning_hits(w, f)))
            .count();
        println!(
            "scored against ground truth: {caught}/{} failures warned ahead of time",
            truth.len()
        );
    }
    if let Some(sh) = &shadow {
        finish_shadow(
            sh.monitor(),
            truth
                .as_deref()
                .map(|t| (t, &warnings[..], &shadow_warnings[..])),
        )?;
    }
    if let (Some(dir), Some((flight, _))) = (&trace_dir, &trace) {
        let path = dir.join("flight.jsonl");
        std::fs::write(&path, flight.dump_all_jsonl()).map_err(|e| e.to_string())?;
        println!(
            "trace dir {}: warnings.jsonl ({} warnings), flight.jsonl ({} nodes)",
            dir.display(),
            warnings.len(),
            flight.node_names().len()
        );
    }
    if let Some(rec) = &capsules {
        println!(
            "{} incident capsule(s) sealed in {} — triage with `desh-cli capsule list --dir {}`",
            rec.written(),
            rec.dir().display(),
            rec.dir().display()
        );
    }
    finish_telemetry(&telemetry, sink.as_mut(), "final")?;
    if let Some(server) = server.as_mut() {
        match serve_secs {
            Some(secs) => {
                println!("holding introspection server for {secs}s...");
                std::thread::sleep(Duration::from_secs(secs));
                server.stop();
            }
            None => {
                println!("replay done; serving introspection until killed...");
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
        }
    }
    drop(history_sampler);
    Ok(())
}

/// `serve`: the fleet-scale streaming intake. Binds a TCP line listener,
/// hash-partitions incoming records across shard-owned batch detectors,
/// and (optionally) exposes the introspection HTTP server with per-shard
/// ingest gauges.
fn cmd_serve(opts: &Flags) -> Result<(), String> {
    let model_path = PathBuf::from(need(opts, "model")?);
    let listen = need(opts, "listen")?;
    let parse_num = |key: &str, default: usize| -> Result<usize, String> {
        match opts.get(key).map(|s| s.parse::<usize>()) {
            Some(Ok(n)) if n > 0 => Ok(n),
            Some(_) => Err(format!("--{key} needs a positive integer")),
            None => Ok(default),
        }
    };
    let shards = parse_num("shards", desh::nn::shard_count())?;
    let slots = parse_num("slots", 256)?;
    let serve_secs = match opts.get("serve-secs").map(|s| s.parse::<u64>()) {
        Some(Ok(n)) => Some(n),
        Some(Err(_)) => return Err("--serve-secs needs an integer number of seconds".into()),
        None => None,
    };
    let mut icfg = IntakeConfig {
        queue_depth: parse_num("queue-depth", IntakeConfig::default().queue_depth)?,
        batch_max: parse_num("batch-max", IntakeConfig::default().batch_max)?,
        ..IntakeConfig::default()
    };
    if opts.contains_key("drop-oldest") {
        icfg.backpressure = Backpressure::DropOldest;
    }

    let telemetry = Telemetry::enabled();
    let mut ck = load_any_checkpoint(&model_path)?;
    if !ck.run_id.is_empty() {
        println!(
            "model trained under run {} (config hash {:016x})",
            ck.run_id, ck.config_hash
        );
    }
    if opts.contains_key("int8") && ck.model.net.precision() != "int8" {
        ck.f32_net_bytes = ck.model.net.resident_bytes() as u64;
        ck.model = ck.model.quantize();
    }
    let precision = ck.model.net.precision();
    println!(
        "scoring path: {} kernels, {precision} weights ({:.1} KiB resident per shard)",
        desh::nn::kernel_backend_name(),
        ck.model.net.resident_bytes() as f64 / 1024.0
    );
    let shadow_slack = shadow_slack_of(opts)?;
    let shadow_ck = shadow_checkpoint_of(opts)?;
    // One monitor shared by every shard's scorer: agreement and drift are
    // fleet-wide numbers, not per-shard ones.
    let shadow_monitor = match &shadow_ck {
        Some((spath, sck)) => {
            let monitor = Arc::new(ShadowMonitor::new(&telemetry, shadow_slack));
            if let Some(path) = opts.get("shadow-ledger") {
                let ledger = ShadowLedger::create(
                    Path::new(path),
                    shadow_slack,
                    &shadow_identity_of(&model_path.display().to_string(), &ck),
                    &shadow_identity_of(spath, sck),
                )
                .map_err(|e| format!("cannot create shadow ledger {path}: {e}"))?;
                monitor.attach_ledger(ledger);
                println!("shadow ledger sealing into {path}");
            }
            println!("shadow scoring armed across shards (warning match slack {shadow_slack:.0}s)");
            Some(monitor)
        }
        None => None,
    };

    let cfg = DeshConfig::default();
    let flight = Arc::new(FlightRecorder::with_telemetry(&telemetry));
    let warning_log = Arc::new(WarningLog::new(WARNING_LOG_CAP));
    let detectors: Vec<BatchDetector> = (0..shards)
        .map(|_| {
            let mut d = BatchDetector::with_telemetry(
                ck.model.clone(),
                Arc::clone(&ck.vocab),
                cfg.clone(),
                slots,
                &telemetry,
            );
            if !ck.chains.is_empty() {
                d.attach_chains(&ck.chains);
            }
            d.attach_tracing(Arc::clone(&flight), Arc::clone(&warning_log));
            if let (Some((_, sck)), Some(mon)) = (&shadow_ck, &shadow_monitor) {
                let mut candidate =
                    OnlineDetector::new(sck.model.clone(), Arc::clone(&sck.vocab), cfg.clone());
                if !sck.chains.is_empty() {
                    candidate.attach_chains(&sck.chains);
                }
                d.attach_shadow(ShadowScorer::new(candidate, Arc::clone(mon)));
            }
            d
        })
        .collect();
    if ck.chains.is_empty() {
        println!("note: v1 checkpoint without chains; warnings will not name a matched chain");
    }

    let mut server = IntakeServer::start(detectors, icfg.clone(), &telemetry);
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| format!("cannot bind intake listener on {listen}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    server.serve_tcp(listener).map_err(|e| e.to_string())?;
    println!(
        "intake listening on {bound}: {shards} shards x {slots} slots, queue depth {}, batch window {}, backpressure {:?}",
        icfg.queue_depth, icfg.batch_max, icfg.backpressure
    );

    let mut http = match opts.get("http") {
        Some(addr) => {
            let registry = telemetry.registry().expect("serve enables telemetry");
            let health = HealthInfo {
                version: env!("CARGO_PKG_VERSION").to_string(),
                run_id: (!ck.run_id.is_empty()).then(|| ck.run_id.clone()),
                config_hash: Some(ck.config_hash),
                kernel_backend: Some(desh::nn::kernel_backend_name().to_string()),
                precision: Some(precision.to_string()),
                shadow_run_id: shadow_ck
                    .as_ref()
                    .and_then(|(_, s)| (!s.run_id.is_empty()).then(|| s.run_id.clone())),
                shadow_config_hash: shadow_ck.as_ref().map(|(_, s)| s.config_hash),
            };
            let mut state = Introspection::new(
                Arc::clone(registry),
                Arc::clone(&flight),
                Arc::clone(&warning_log),
            )
            .with_health(health);
            let shadow_routes = if let Some(mon) = &shadow_monitor {
                state = state.with_shadow(Arc::clone(mon), ShadowThresholds::default());
                " /shadow /shadow/report"
            } else {
                ""
            };
            let s = HttpServer::start(addr, state)
                .map_err(|e| format!("cannot bind introspection server on {addr}: {e}"))?;
            println!(
                "introspection server on http://{}/ (/healthz /metrics /warnings /nodes/<id>/flight{shadow_routes})",
                s.addr()
            );
            Some(s)
        }
        None => None,
    };

    let started = std::time::Instant::now();
    let deadline = serve_secs.map(Duration::from_secs);
    match deadline {
        Some(d) => println!("serving for {}s...", d.as_secs()),
        None => println!("serving until killed..."),
    }
    loop {
        std::thread::sleep(Duration::from_millis(250));
        for w in server.take_warnings() {
            println!(
                "[{}] {}",
                w.at.as_clock(),
                OnlineDetector::format_warning(&w)
            );
        }
        if let Some(d) = deadline {
            if started.elapsed() >= d {
                break;
            }
        }
    }
    server.drain();
    for w in server.take_warnings() {
        println!(
            "[{}] {}",
            w.at.as_clock(),
            OnlineDetector::format_warning(&w)
        );
    }
    let processed = server.records_processed();
    let dropped = server.records_dropped();
    let parse_errors = server.parse_errors();
    let dets = server.stop();
    let events: u64 = dets.iter().map(|d| d.events_seen()).sum();
    let warnings: u64 = dets.iter().map(|d| d.warnings_emitted()).sum();
    let secs = started.elapsed().as_secs_f64();
    println!(
        "intake done: {processed} records in {secs:.1}s ({:.0} records/s), {dropped} dropped, {parse_errors} parse errors",
        processed as f64 / secs.max(1e-9)
    );
    println!("scored {events} anomaly events, {warnings} warnings across {shards} shards");
    if let Some(mon) = &shadow_monitor {
        finish_shadow(mon, None)?;
    }
    if let Some(s) = http.as_mut() {
        s.stop();
    }
    Ok(())
}

/// `drive`: stream a log file's raw lines to a serving intake over TCP —
/// the traffic half of a serve/drive soak pair.
fn cmd_drive(opts: &Flags) -> Result<(), String> {
    let log_path = PathBuf::from(need(opts, "log")?);
    let to = need(opts, "to")?;
    let secs = match opts.get("secs").map(|s| s.parse::<u64>()) {
        Some(Ok(n)) => Some(Duration::from_secs(n)),
        Some(Err(_)) => return Err("--secs needs an integer number of seconds".into()),
        None => None,
    };
    let rate = match opts.get("rate").map(|s| s.parse::<u64>()) {
        Some(Ok(n)) if n > 0 => Some(n),
        Some(_) => return Err("--rate needs a positive lines/s integer".into()),
        None => None,
    };
    let text = std::fs::read_to_string(&log_path)
        .map_err(|e| format!("cannot read {}: {e}", log_path.display()))?;
    // Skip blanks and `#` comments (the loggen header) — every line we
    // send should parse as a record, so drive/serve accounting lines up.
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('#')
        })
        .collect();
    if lines.is_empty() {
        return Err(format!("{} has no log lines", log_path.display()));
    }
    let stream = std::net::TcpStream::connect(to)
        .map_err(|e| format!("cannot connect to intake at {to}: {e}"))?;
    let mut out = std::io::BufWriter::new(stream);
    let started = std::time::Instant::now();
    let mut sent = 0u64;
    'drive: loop {
        for line in &lines {
            out.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
            out.write_all(b"\n").map_err(|e| e.to_string())?;
            sent += 1;
            if sent.is_multiple_of(1024) {
                if let Some(r) = rate {
                    let due = Duration::from_secs_f64(sent as f64 / r as f64);
                    let elapsed = started.elapsed();
                    if due > elapsed {
                        std::thread::sleep(due - elapsed);
                    }
                }
                if let Some(d) = secs {
                    if started.elapsed() >= d {
                        break 'drive;
                    }
                }
            }
        }
        if secs.is_none() {
            break;
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    drop(out);
    let secs_elapsed = started.elapsed().as_secs_f64();
    println!(
        "drove {sent} lines to {to} in {secs_elapsed:.1}s ({:.0} lines/s)",
        sent as f64 / secs_elapsed.max(1e-9)
    );
    Ok(())
}

/// `quantize`: convert a trained `.dshm` checkpoint into a standalone
/// int8 `.dshq` sidecar. Vocabulary, chains and the provenance stamp are
/// carried through; the f32 tensors are not.
fn cmd_quantize(opts: &Flags) -> Result<(), String> {
    let model_path = PathBuf::from(need(opts, "model")?);
    let out = PathBuf::from(need(opts, "out")?);
    if let Ok(head) = std::fs::read(&model_path) {
        if head.starts_with(b"DSHQ") {
            return Err(format!(
                "{} is already an int8-quantized checkpoint (.dshq); quantize takes the f32 .dshm",
                model_path.display()
            ));
        }
    }
    let ck = load_checkpoint(&model_path)?;
    let f32_bytes = ck.model.net.resident_bytes();
    let qmodel = ck.model.quantize();
    let q_bytes = qmodel.net.resident_bytes();
    let bytes = encode_quantized_checkpoint(
        &qmodel,
        &ck.vocab,
        &ck.chains,
        &ck.run_id,
        ck.config_hash,
        f32_bytes as u64,
    );
    std::fs::write(&out, &bytes).map_err(|e| e.to_string())?;
    println!("quantized {} -> {}", model_path.display(), out.display());
    println!(
        "  weights: {:.1} KiB f32 -> {:.1} KiB int8 ({:.1}x smaller resident model)",
        f32_bytes as f64 / 1024.0,
        q_bytes as f64 / 1024.0,
        f32_bytes as f64 / q_bytes as f64
    );
    println!(
        "  file: {:.1} KiB (vocab + chains + provenance carried through)",
        bytes.len() as f64 / 1024.0
    );
    if !ck.run_id.is_empty() {
        println!(
            "  provenance: run {} (config hash {:016x})",
            ck.run_id, ck.config_hash
        );
    }
    Ok(())
}

/// Fetch `path` from a serving predictor's introspection server. Accepts
/// 503 too: `/healthz` degrades to it on a fast SLO burn and the body is
/// exactly what the operator wants to see then.
fn http_get_body(addr: &str, path: &str) -> Result<String, String> {
    use std::io::Read;
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut buf = String::new();
    stream.read_to_string(&mut buf).map_err(|e| e.to_string())?;
    let (head, body) = buf
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") && !status.contains(" 503 ") {
        return Err(format!("{addr}{path}: {status}"));
    }
    Ok(body.to_string())
}

fn cmd_slo(opts: &Flags) -> Result<(), String> {
    let addr = need(opts, "addr")?;
    let body = http_get_body(addr, "/slo")?;
    if opts.contains_key("json") {
        println!("{}", body.trim_end());
        return Ok(());
    }
    let v = parse_json(&body).map_err(|e| format!("bad /slo response: {e}"))?;
    let burning = matches!(v.get("burning"), Some(Json::Bool(true)));
    println!(
        "SLO status at {addr}: {}",
        if burning {
            "BURNING — error budget is being consumed at paging rate"
        } else {
            "ok"
        }
    );
    if let Some(slos) = v.get("slos").and_then(Json::as_arr) {
        println!(
            "{:<22} {:<10} {:>8}  burn per window",
            "slo", "status", "budget"
        );
        for s in slos {
            let name = s.get("name").and_then(Json::as_str).unwrap_or("?");
            let status = s.get("status").and_then(Json::as_str).unwrap_or("?");
            let budget = s.get("budget").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let mut windows = String::new();
            for w in s.get("windows").and_then(Json::as_arr).unwrap_or_default() {
                let secs = w.get("window_ms").and_then(Json::as_u64).unwrap_or(0) / 1000;
                if !windows.is_empty() {
                    windows.push_str("  ");
                }
                match w.get("burn").and_then(Json::as_f64) {
                    Some(b) => windows.push_str(&format!("{secs}s:{b:.2}x")),
                    None => windows.push_str(&format!("{secs}s:no-data")),
                }
            }
            println!("{name:<22} {status:<10} {budget:>8.3}  {windows}");
        }
    }
    let alerts = v.get("alerts").and_then(Json::as_arr).unwrap_or_default();
    if !alerts.is_empty() {
        println!("\nrecent alert transitions (newest last):");
        for a in alerts.iter().rev().take(10).rev() {
            println!(
                "  {} {} -> {} (burn {:.2}x) at {}ms",
                a.get("slo").and_then(Json::as_str).unwrap_or("?"),
                a.get("from").and_then(Json::as_str).unwrap_or("?"),
                a.get("to").and_then(Json::as_str).unwrap_or("?"),
                a.get("burn").and_then(Json::as_f64).unwrap_or(f64::NAN),
                a.get("at_ms").and_then(Json::as_u64).unwrap_or(0),
            );
        }
    }
    Ok(())
}

fn cmd_analyze(opts: &Flags) -> Result<(), String> {
    let log_path = PathBuf::from(need(opts, "log")?);
    let (records, bad) = desh::loggen::io::read_log_file(&log_path).map_err(|e| e.to_string())?;
    let parsed = parse_records(&records);
    println!(
        "{} records ({} corrupt), {} templates, {} nodes",
        records.len(),
        bad.len(),
        parsed.vocab_size(),
        parsed.per_node.len()
    );
    let chains = extract_chains(&parsed, &EpisodeConfig::default());
    println!("failure chains: {}", chains.len());

    println!("\nbusiest nodes by anomaly count:");
    for a in desh::logparse::node_activity(&parsed).iter().take(5) {
        println!(
            "  {:<12} {:>6} events, {:>5} anomalies",
            a.node.to_string(),
            a.events,
            a.anomalies
        );
    }
    let bursts = desh::logparse::find_bursts(&parsed, 4, Micros::from_secs(30));
    if !bursts.is_empty() {
        println!("\nmessage bursts (>=4 repeats within 30s):");
        for b in bursts.iter().take(5) {
            println!(
                "  {:<12} x{:<3} {}",
                b.node.to_string(),
                b.count,
                parsed.template(b.phrase)
            );
        }
    }
    println!("\nunknown phrases by contribution to failures:");
    for c in unknown_contributions(&parsed, &chains, 10).iter().take(12) {
        println!(
            "  {:>5.1}%  ({:>4}/{:<4})  {}",
            c.contribution_pct(),
            c.in_chain,
            c.total,
            c.template
        );
    }
    Ok(())
}

/// `runs list|show|diff` — positional subcommands, so this parses its own
/// argument list instead of going through [`parse_flags`] first.
fn cmd_shadow(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (pos, flags) = args.split_at(split);
    let opts = parse_flags(flags, &["json"])?;
    match pos {
        [sub] if sub == "report" => shadow_report(&opts),
        _ => Err(
            "usage: desh-cli shadow report --ledger <shadow.jsonl> [--json] \
             [--max-warning-delta-pct <x>] [--max-pr-regression <y>] \
             [--max-lead-regression-buckets <z>]"
                .into(),
        ),
    }
}

/// `shadow report`: render the promotion-gate verdict from a sealed
/// shadow ledger. Exits non-zero on FAIL so CI can gate on it.
fn shadow_report(opts: &Flags) -> Result<(), String> {
    let ledger = need(opts, "ledger")?;
    let doc = load_shadow_ledger(Path::new(ledger))
        .map_err(|e| format!("cannot load shadow ledger {ledger}: {e}"))?;
    let summary = doc
        .summary
        .ok_or_else(|| format!("{ledger} has no summary line (run did not finish?)"))?;
    let mut th = ShadowThresholds::default();
    let parse_f = |key: &str, slot: &mut f64| -> Result<(), String> {
        if let Some(v) = opts.get(key) {
            *slot = v
                .parse::<f64>()
                .map_err(|_| format!("--{key} needs a number"))?;
        }
        Ok(())
    };
    parse_f("max-warning-delta-pct", &mut th.max_warning_delta_pct)?;
    parse_f("max-pr-regression", &mut th.max_pr_regression)?;
    parse_f(
        "max-lead-regression-buckets",
        &mut th.max_lead_p50_regression_buckets,
    )?;
    let report = evaluate_gates(&summary, &th);
    if opts.contains_key("json") {
        print!("{}", render_shadow_report_json(&report));
    } else {
        print!("{}", render_shadow_report_table(&report));
    }
    if report.pass {
        Ok(())
    } else {
        Err("shadow promotion gate FAILED".into())
    }
}

fn cmd_runs(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (pos, flags) = args.split_at(split);
    let opts = parse_flags(flags, &["json"])?;
    let dir = PathBuf::from(opts.get("dir").map(String::as_str).unwrap_or("runs"));
    match pos {
        [sub] if sub == "list" => runs_list(&dir, opts.contains_key("json")),
        [sub, id] if sub == "show" => runs_show(&dir, id),
        [sub, a, b] if sub == "diff" => runs_diff(&dir, a, b),
        _ => Err("usage: desh-cli runs <list | show <id> | diff <a> <b>> --dir <runs-dir>".into()),
    }
}

fn runs_list(dir: &Path, json: bool) -> Result<(), String> {
    let mut runs = list_runs(dir);
    // Newest first: the operator asking "what just trained?" wants the
    // latest run at the top of the table.
    runs.reverse();
    if json {
        println!("{}", render_runs_json(&runs));
        return Ok(());
    }
    if runs.is_empty() {
        println!("no runs under {}", dir.display());
        return Ok(());
    }
    println!(
        "{:<28} {:<11} {:>6} {:>7} {:>12}  phases",
        "run", "status", "seed", "epochs", "final loss"
    );
    for r in &runs {
        let seed = r
            .manifest
            .as_ref()
            .map(|m| m.seed.to_string())
            .unwrap_or_else(|| "?".into());
        let epochs: u64 = r.phases.iter().map(|p| p.epochs).sum();
        let final_loss = r
            .phases
            .last()
            .map(|p| format!("{:.6}", p.final_loss))
            .unwrap_or_else(|| "-".into());
        let phases: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        println!(
            "{:<28} {:<11} {:>6} {:>7} {:>12}  {}",
            r.id,
            r.status,
            seed,
            epochs,
            final_loss,
            phases.join(",")
        );
    }
    Ok(())
}

fn runs_show(dir: &Path, id: &str) -> Result<(), String> {
    let run = load_run(&dir.join(id)).map_err(|e| format!("cannot load run {id}: {e}"))?;
    println!("run {} — {}", run.id, run.status);
    if let Some(m) = &run.manifest {
        println!(
            "  seed {} | shards {} | threads {}",
            m.seed, m.shards, m.threads
        );
        println!("  dataset {}", m.dataset);
        println!("  config hash {:016x}", m.config_hash);
        for (k, v) in &m.config {
            println!("    {k} = {v}");
        }
    }
    if !run.phases.is_empty() {
        println!("  phases:");
        for p in &run.phases {
            println!(
                "    {:<8} {:>4} epochs  {:>9.1} ms  final loss {:.6}",
                p.name,
                p.epochs,
                p.wall_us as f64 / 1000.0,
                p.final_loss
            );
        }
    }
    if let Some(d) = &run.divergence {
        println!(
            "  DIVERGED in {} at epoch {}: {} ({})",
            d.phase, d.epoch, d.reason, d.detail
        );
        if let Some(c) = &d.last_good_checkpoint {
            println!("  last good weights: {c}");
        }
    }
    if !run.end_metrics.is_empty() {
        println!("  end metrics:");
        for (k, v) in &run.end_metrics {
            println!("    {k} = {v:.4}");
        }
    }
    match &run.checkpoint {
        Some(path) => {
            println!("  checkpoint: {path}");
            // Close the loop: the v3 stamp inside the file should point
            // right back at this ledger.
            match load_checkpoint(Path::new(path)) {
                Ok(ck) if ck.run_id == run.id => {
                    let cfg_ok = run
                        .manifest
                        .as_ref()
                        .is_none_or(|m| m.config_hash == ck.config_hash);
                    if cfg_ok {
                        println!("    stamp verified: run id and config hash match");
                    } else {
                        println!(
                            "    WARNING: checkpoint config hash {:016x} differs from manifest",
                            ck.config_hash
                        );
                    }
                }
                Ok(ck) => println!(
                    "    WARNING: checkpoint is stamped with run {:?}, not this run",
                    ck.run_id
                ),
                Err(e) => println!("    (checkpoint not readable: {e})"),
            }
        }
        None => println!("  checkpoint: none recorded"),
    }
    Ok(())
}

fn runs_diff(dir: &Path, a: &str, b: &str) -> Result<(), String> {
    let sa = load_series(&dir.join(a)).map_err(|e| format!("cannot load series for {a}: {e}"))?;
    let sb = load_series(&dir.join(b)).map_err(|e| format!("cannot load series for {b}: {e}"))?;
    if sa.is_empty() && sb.is_empty() {
        return Err(format!("neither {a} nor {b} has any series rows"));
    }
    print!("{}", render_series_diff(&diff_series(&sa, &sb), a, b));
    let ra = load_run(&dir.join(a));
    let rb = load_run(&dir.join(b));
    if let (Ok(ra), Ok(rb)) = (ra, rb) {
        let mut printed_header = false;
        for (k, va) in &ra.end_metrics {
            if k.starts_with("paper.") {
                continue;
            }
            if let Some((_, vb)) = rb.end_metrics.iter().find(|(kb, _)| kb == k) {
                if !printed_header {
                    println!("\nend metrics ({a} -> {b}):");
                    printed_header = true;
                }
                println!("  {k:<24} {va:>12.4} -> {vb:>12.4} ({:+.4})", vb - va);
            }
        }
    }
    Ok(())
}

/// Provenance + pinned environment stamped into every capsule this
/// process seals. Decision-relevant config rides along so replay can
/// rebuild the exact same detector.
fn capsule_context(
    model_path: &Path,
    run_id: &str,
    config_hash: u64,
    precision: &str,
    vocab_len: usize,
    chains: usize,
    cfg: &DeshConfig,
) -> CapsuleContext {
    CapsuleContext {
        checkpoint: model_path.display().to_string(),
        run_id: run_id.to_string(),
        config_hash,
        backend: desh::nn::kernel_backend_name().to_string(),
        precision: precision.to_string(),
        shards: std::env::var("DESH_SHARDS").unwrap_or_default(),
        vocab_len: vocab_len as u64,
        chains: chains as u64,
        session_gap_secs: cfg.episodes.session_gap_secs,
        mse_threshold: cfg.phase3.mse_threshold,
        min_evidence: cfg.phase3.min_evidence as u64,
        score_scale: cfg.phase3.score_scale,
    }
}

/// `capsule record|list|verify|replay|diff` — positional subcommands,
/// parsed like [`cmd_runs`].
fn cmd_capsule(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (pos, flags) = args.split_at(split);
    let opts = parse_flags(
        flags,
        &[
            "json",
            "int8",
            "allow-backend-mismatch",
            "allow-precision-mismatch",
        ],
    )?;
    match pos {
        [sub] if sub == "record" => capsule_record(&opts),
        [sub] if sub == "list" => capsule_list(&opts),
        [sub, file] if sub == "verify" => capsule_verify(file),
        [sub, file] if sub == "replay" => capsule_replay(file, &opts, false),
        [sub, file] if sub == "diff" => capsule_replay(file, &opts, true),
        _ => Err(
            "usage: desh-cli capsule <record --log <logs> --model <ckpt> --out <dir> [--int8] \
             | list --dir <dir> [--json] | verify <file.dcap> \
             | replay <file.dcap> [--model <ckpt>] [--allow-backend-mismatch] [--allow-precision-mismatch] \
             | diff <file.dcap> [--model <ckpt>]>"
                .into(),
        ),
    }
}

/// `capsule record`: stream a log through the detector with incident
/// capture armed and seal one manual capsule at end of stream. The
/// deterministic counterpart of `predict --capsule-dir`, for building a
/// known-good capsule on demand (CI soak, triage repros).
fn capsule_record(opts: &Flags) -> Result<(), String> {
    let log_path = PathBuf::from(need(opts, "log")?);
    let model_path = PathBuf::from(need(opts, "model")?);
    let out = PathBuf::from(need(opts, "out")?);
    let mut ck = load_any_checkpoint(&model_path)?;
    if opts.contains_key("int8") && ck.model.net.precision() != "int8" {
        ck.model = ck.model.quantize();
    }
    let precision = ck.model.net.precision();
    let Checkpoint {
        model,
        vocab,
        chains,
        run_id,
        config_hash,
        ..
    } = ck;
    let cfg = DeshConfig::default();
    let mut detector = OnlineDetector::new(model, Arc::clone(&vocab), cfg.clone());
    if !chains.is_empty() {
        detector.attach_chains(&chains);
    }
    let tap = Arc::new(CaptureTap::new());
    detector.attach_capture(Arc::clone(&tap));
    let ctx = capsule_context(
        &model_path,
        &run_id,
        config_hash,
        precision,
        vocab.len(),
        chains.len(),
        &cfg,
    );
    let rec = CapsuleRecorder::new(tap, ctx, out.clone())
        .map_err(|e| format!("cannot open capsule dir {}: {e}", out.display()))?;
    let (records, bad) = desh::loggen::io::read_log_file(&log_path).map_err(|e| e.to_string())?;
    println!(
        "recording: {} records ({} corrupt skipped) on {} kernels, {precision} weights",
        records.len(),
        bad.len(),
        desh::nn::kernel_backend_name()
    );
    let mut fired = 0usize;
    let mut last_at = 0u64;
    for r in &records {
        last_at = r.time.0;
        if detector.ingest(r).is_some() {
            fired += 1;
        }
    }
    match rec
        .capture("manual", None, last_at)
        .map_err(|e| format!("cannot seal capsule: {e}"))?
    {
        Some(path) => {
            let capsule = Capsule::read(&path)?;
            println!(
                "sealed {} — {} events ({} traced), {} warnings, clean_start={}",
                path.display(),
                capsule.events.len(),
                capsule.traced_events(),
                capsule.warnings.len(),
                capsule.meta.clean_start
            );
            println!("{fired} warnings fired during recording");
            Ok(())
        }
        None => Err("nothing captured: the log produced no anomaly events".into()),
    }
}

fn capsule_list(opts: &Flags) -> Result<(), String> {
    let dir = PathBuf::from(opts.get("dir").map(String::as_str).unwrap_or("capsules"));
    let caps = list_capsules(&dir).map_err(|e| format!("cannot scan {}: {e}", dir.display()))?;
    if opts.contains_key("json") {
        println!("{}", render_capsules_json(&caps));
        return Ok(());
    }
    if caps.is_empty() {
        println!("no capsules under {}", dir.display());
        return Ok(());
    }
    println!(
        "{:<40} {:<13} {:<12} {:>7} {:>9}  backend/precision",
        "capsule", "reason", "node", "events", "warnings"
    );
    for c in &caps {
        if let Some(err) = &c.error {
            println!("{:<40} CORRUPT: {err}", c.file);
            continue;
        }
        let node = if c.meta.node.is_empty() {
            "(all)"
        } else {
            &c.meta.node
        };
        println!(
            "{:<40} {:<13} {:<12} {:>7} {:>9}  {}/{}{}",
            c.file,
            c.meta.reason,
            node,
            c.events,
            c.warnings,
            c.meta.backend,
            c.meta.precision,
            if c.meta.clean_start {
                ""
            } else {
                "  (ring-truncated)"
            }
        );
    }
    Ok(())
}

/// `capsule verify`: check the seal (magic, version, length, checksum)
/// and decode; prints a one-line summary or the exact corruption error.
fn capsule_verify(file: &str) -> Result<(), String> {
    let capsule = Capsule::read(Path::new(file))?;
    let m = &capsule.meta;
    println!(
        "OK {file}: reason={} node={} events={} (traced {}) warnings={} backend={} precision={} clean_start={}",
        m.reason,
        if m.node.is_empty() { "(all)" } else { &m.node },
        capsule.events.len(),
        capsule.traced_events(),
        capsule.warnings.len(),
        m.backend,
        m.precision,
        m.clean_start
    );
    if !m.checkpoint.is_empty() {
        println!(
            "   checkpoint {} (run {:?}, config hash {:016x})",
            m.checkpoint, m.run_id, m.config_hash
        );
    }
    Ok(())
}

/// `capsule replay` (`expect_divergence=false`) asserts bit-exact
/// agreement and exits non-zero on divergence; `capsule diff`
/// (`expect_divergence=true`) runs the same comparison with environment
/// mismatches allowed and always exits zero — its job is the diff itself.
fn capsule_replay(file: &str, opts: &Flags, expect_divergence: bool) -> Result<(), String> {
    let capsule = Capsule::read(Path::new(file))?;
    let override_path = opts.get("model").map(PathBuf::from);
    let (ck, drift) = resolve_capsule_checkpoint(&capsule.meta, override_path.as_deref())?;
    for d in &drift {
        println!("warning: {d}");
    }
    let replay_opts = ReplayOptions {
        allow_backend_mismatch: expect_divergence || opts.contains_key("allow-backend-mismatch"),
        allow_precision_mismatch: expect_divergence
            || opts.contains_key("allow-precision-mismatch"),
    };
    let report = replay_capsule(&capsule, ck.model, ck.vocab, &ck.chains, &replay_opts)?;
    print!("{}", render_report(&report));
    if expect_divergence {
        return Ok(());
    }
    if report.bit_exact() {
        Ok(())
    } else {
        Err(format!(
            "replay diverged from the capture (see diff above); \
             if the environment intentionally differs, use `capsule diff {file}`"
        ))
    }
}
