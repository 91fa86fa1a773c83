//! Data-parallel training check.
//!
//! Measures the sharded minibatch trainer (desh-nn `parallel` module)
//! against the sequential reference on the phase-1 workload: same
//! sequences, same seed, same epochs. Two things are verified and
//! recorded:
//!
//! 1. **Determinism** — final weights are bit-identical across worker
//!    counts (the whole point of fixed shards + tree reduction), and the
//!    parallel loss curve tracks the sequential one.
//! 2. **Measured scaling** — epoch wall-clock at 1/2/4 workers (and at
//!    the host's core count when that is 3). A worker count above the
//!    host's cores measures oversubscription, not scaling.
//!
//! It also measures the epoch-time overhead of the run ledger's
//! per-layer parameter-statistics collection (`on_param_stats`): same
//! workload with and without the hook, interleaved pairs, median
//! overhead. The ledger's promise is that auditing a run is close to
//! free; this keeps the number honest.
//!
//! Flags:
//! * `--smoke` — the full workload cut to two epochs, for CI gating.
//! * `--min-speedup <X>` — exit non-zero unless the measured speedup
//!   over 1 worker at min(4, host cores) workers reaches `X`. Skipped,
//!   with a note, on a host with fewer than 2 cores.
//! * `--max-stats-overhead <pct>` — exit non-zero if the param-stats
//!   collection overhead exceeds `pct` percent of epoch time.
//! * `--json <path>` — write machine-readable results (defaults to
//!   `results/BENCH_train.json` in full runs; off in smoke runs).

use desh_bench::{experiment_config, EXPERIMENT_SEED};
use desh_core::DeshConfig;
use desh_loggen::{generate, SystemProfile};
use desh_logparse::parse_records;
use desh_nn::{
    shard_count, Optimizer, ParamStats, Sgd, ShardStats, TokenLstm, TrainConfig, TrainObserver,
};
use desh_util::Xoshiro256pp;
use std::time::{Duration, Instant};

/// Worker counts swept for the scaling curve.
const WORKER_SWEEP: [usize; 3] = [1, 2, 4];
/// Most workers the speedup gate measures at.
const GATE_MAX_WORKERS: usize = 4;

struct Args {
    smoke: bool,
    min_speedup: Option<f64>,
    max_stats_overhead: Option<f64>,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { smoke: false, min_speedup: None, max_stats_overhead: None, json: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--min-speedup" => {
                let v = it.next().expect("--min-speedup needs a value");
                args.min_speedup = Some(v.parse().expect("--min-speedup must be a number"));
            }
            "--max-stats-overhead" => {
                let v = it.next().expect("--max-stats-overhead needs a value");
                args.max_stats_overhead =
                    Some(v.parse().expect("--max-stats-overhead must be a number"));
            }
            "--json" => args.json = Some(it.next().expect("--json needs a path")),
            other => panic!("unknown flag {other}"),
        }
    }
    if args.json.is_none() && !args.smoke {
        args.json = Some("results/BENCH_train.json".to_string());
    }
    args
}

/// Totals collected over one training run of the data-parallel trainer.
#[derive(Default)]
struct TrainProbe {
    epoch_wall: Duration,
    epochs: usize,
    last_loss: f64,
    shards: usize,
    reduce_total: Duration,
    reduces: u64,
    windows: usize,
}

impl TrainObserver for TrainProbe {
    fn on_epoch(&mut self, _epoch: usize, mean_loss: f64, elapsed: Duration) {
        self.epoch_wall += elapsed;
        self.epochs += 1;
        self.last_loss = mean_loss;
    }

    fn on_shards(&mut self, _epoch: usize, stats: &[ShardStats]) {
        self.shards = self.shards.max(stats.len());
        self.windows += stats.iter().map(|s| s.windows).sum::<usize>();
    }

    fn on_grad_reduce(&mut self, elapsed: Duration) {
        self.reduce_total += elapsed;
        self.reduces += 1;
    }
}

/// [`TrainProbe`] plus the run-ledger stats hook: requesting
/// `on_param_stats` turns on the one-pass per-layer scan of the merged
/// gradient buffers inside the sharded trainer — the thing whose cost is
/// being measured.
#[derive(Default)]
struct StatsOnProbe {
    inner: TrainProbe,
    stats_epochs: usize,
    layers: usize,
}

impl TrainObserver for StatsOnProbe {
    fn on_epoch(&mut self, epoch: usize, mean_loss: f64, elapsed: Duration) {
        self.inner.on_epoch(epoch, mean_loss, elapsed);
    }
    fn on_shards(&mut self, epoch: usize, stats: &[ShardStats]) {
        self.inner.on_shards(epoch, stats);
    }
    fn on_grad_reduce(&mut self, elapsed: Duration) {
        self.inner.on_grad_reduce(elapsed);
    }
    fn wants_param_stats(&self) -> bool {
        true
    }
    fn on_param_stats(&mut self, _epoch: usize, stats: &[ParamStats]) {
        self.stats_epochs += 1;
        self.layers = stats.len();
    }
}

/// Median epoch-time overhead (percent) of param-stats collection:
/// `reps` interleaved (hook off, hook on) pairs over the same seeded
/// workload at 1 worker, comparing summed epoch wall time. Interleaving
/// pairs absorbs slow drift (thermal, other tenants) that a
/// batched A/A/B/B order would fold into the answer.
fn measure_stats_overhead(
    seqs: &[Vec<u32>],
    vocab: usize,
    cfg: &DeshConfig,
    reps: usize,
) -> (f64, usize) {
    rayon::set_thread_override(Some(1));
    let mut pcts = Vec::with_capacity(reps);
    let mut layers = 0;
    for _ in 0..reps {
        let (mut model, mut opt, mut rng) = fresh_model(vocab, cfg);
        let mut off = TrainProbe::default();
        model.train_observed(seqs, &train_cfg(cfg), &mut opt as &mut dyn Optimizer, &mut rng, &mut off);

        let (mut model, mut opt, mut rng) = fresh_model(vocab, cfg);
        let mut on = StatsOnProbe::default();
        model.train_observed(seqs, &train_cfg(cfg), &mut opt as &mut dyn Optimizer, &mut rng, &mut on);
        assert_eq!(on.stats_epochs, cfg.phase1.epochs, "stats hook fired every epoch");
        assert!(on.layers > 0, "per-layer stats must name the layers");
        layers = on.layers;

        let base = off.epoch_wall.as_secs_f64();
        pcts.push((on.inner.epoch_wall.as_secs_f64() - base) / base * 100.0);
    }
    rayon::set_thread_override(None);
    pcts.sort_by(|a, b| a.total_cmp(b));
    (pcts[pcts.len() / 2], layers)
}

/// FNV-1a over the raw weight bits: equal fingerprints ⇔ bit-identical
/// models.
fn fingerprint(model: &TokenLstm) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for p in model.params() {
        for x in p.w.data() {
            for b in x.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
    }
    h
}

fn phase1_workload(smoke: bool) -> (Vec<Vec<u32>>, usize, DeshConfig) {
    let (profile, cfg) = if smoke {
        // The full run cut to two epochs: the speedup gate measures wall
        // clock, and smaller work (the tiny profile, or the fast config's
        // narrow layers) is all thread start-up, with no parallel speedup
        // to measure.
        let mut cfg = experiment_config();
        cfg.phase1.epochs = 2;
        (SystemProfile::m1(), cfg)
    } else {
        (SystemProfile::m1(), experiment_config())
    };
    let dataset = generate(&profile, EXPERIMENT_SEED);
    let (train, _) = dataset.split_by_time(0.3);
    let parsed = parse_records(&train.records);
    let seqs: Vec<Vec<u32>> = parsed
        .node_sequences()
        .into_iter()
        .map(|(_, s)| s)
        .filter(|s| s.len() > cfg.phase1.history)
        .collect();
    println!(
        "workload: {} ({} sequences, vocab {})",
        profile.name,
        seqs.len(),
        parsed.vocab_size()
    );
    (seqs, parsed.vocab_size().max(2), cfg)
}

fn fresh_model(vocab: usize, cfg: &DeshConfig) -> (TokenLstm, Sgd, Xoshiro256pp) {
    let mut rng = Xoshiro256pp::seed_from_u64(EXPERIMENT_SEED);
    let p1 = &cfg.phase1;
    let model = TokenLstm::new(vocab, p1.embed_dim, p1.hidden, p1.layers, &mut rng);
    (model, Sgd::with_momentum(p1.lr, 0.9), rng)
}

fn train_cfg(cfg: &DeshConfig) -> TrainConfig {
    let p1 = &cfg.phase1;
    TrainConfig { history: p1.history, batch: p1.batch, epochs: p1.epochs, clip: 5.0 }
}

/// One parallel training run pinned to `workers` shim threads.
fn run_parallel(
    seqs: &[Vec<u32>],
    vocab: usize,
    cfg: &DeshConfig,
    workers: usize,
) -> (TrainProbe, u64) {
    rayon::set_thread_override(Some(workers));
    let (mut model, mut opt, mut rng) = fresh_model(vocab, cfg);
    let mut probe = TrainProbe::default();
    model.train_observed(
        seqs,
        &train_cfg(cfg),
        &mut opt as &mut dyn Optimizer,
        &mut rng,
        &mut probe,
    );
    rayon::set_thread_override(None);
    (probe, fingerprint(&model))
}

fn main() {
    let args = parse_args();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (seqs, vocab, cfg) = phase1_workload(args.smoke);
    let epochs = cfg.phase1.epochs;
    println!(
        "host cores: {host_cores}, shards: {}, epochs: {epochs}",
        shard_count()
    );

    // Sequential reference (the pre-sharding loop, kept for exactly this).
    let (mut seq_model, mut seq_opt, mut seq_rng) = fresh_model(vocab, &cfg);
    let mut seq_probe = TrainProbe::default();
    let t0 = Instant::now();
    seq_model.train_sequential(
        &seqs,
        &train_cfg(&cfg),
        &mut seq_opt as &mut dyn Optimizer,
        &mut seq_rng,
        &mut seq_probe,
    );
    let seq_wall = t0.elapsed().as_secs_f64();
    println!(
        "sequential: {seq_wall:.2}s total, {:.3}s/epoch, final loss {:.4}",
        seq_wall / epochs as f64,
        seq_probe.last_loss
    );

    // Parallel sweep, including the gate's worker count.
    let gate_workers = host_cores.min(GATE_MAX_WORKERS);
    let mut sweep = WORKER_SWEEP.to_vec();
    if !sweep.contains(&gate_workers) {
        sweep.push(gate_workers);
        sweep.sort_unstable();
    }
    let runs: Vec<(usize, TrainProbe, u64)> = sweep
        .iter()
        .map(|&w| {
            let (probe, fp) = run_parallel(&seqs, vocab, &cfg, w);
            println!(
                "parallel w={w}: {:.2}s total, {:.3}s/epoch, loss {:.4}, \
                 reduce {:.1}ms over {} minibatches",
                probe.epoch_wall.as_secs_f64(),
                probe.epoch_wall.as_secs_f64() / epochs as f64,
                probe.last_loss,
                probe.reduce_total.as_secs_f64() * 1e3,
                probe.reduces
            );
            (w, probe, fp)
        })
        .collect();

    // Determinism: identical weights at every worker count.
    let fp1 = runs[0].2;
    let deterministic = runs.iter().all(|(_, _, fp)| *fp == fp1);
    // Parallel vs sequential agreement (FP summation order only).
    let loss_drift = (runs[0].1.last_loss - seq_probe.last_loss).abs()
        / seq_probe.last_loss.abs().max(1e-9);
    println!(
        "determinism: weights {} across workers {:?}; loss drift vs sequential {:.2e}",
        if deterministic { "bit-identical" } else { "DIVERGED" },
        sweep,
        loss_drift
    );

    // Scaling: measured against the 1-worker parallel run.
    let par1 = &runs[0].1;
    let par1_wall = par1.epoch_wall.as_secs_f64();
    println!("\nscaling (epoch totals, {} shards):", par1.shards);
    let mut measured4 = 1.0;
    let mut gate_speedup = 1.0;
    let mut curve = String::new();
    for (w, probe, _) in &runs {
        let wall = probe.epoch_wall.as_secs_f64();
        let measured = par1_wall / wall;
        if *w == 4 {
            measured4 = measured;
        }
        if *w == gate_workers {
            gate_speedup = measured;
        }
        println!("  w={w}: {wall:.2}s ({measured:.2}x)");
        curve.push_str(&format!(
            "{}{{\"workers\": {w}, \"measured_s\": {wall:.4}, \"measured_speedup\": \
             {measured:.2}}}",
            if curve.is_empty() { "" } else { ", " },
        ));
    }
    println!(
        "speedup at the gate's {gate_workers} worker(s): {gate_speedup:.2}x \
         (host has {host_cores} core(s))"
    );

    // Ledger observability tax: per-layer param-stats collection.
    let stats_reps = 3;
    let (stats_overhead_pct, stats_layers) = measure_stats_overhead(&seqs, vocab, &cfg, stats_reps);
    println!(
        "\nparam-stats collection: {stats_overhead_pct:+.2}% of epoch time \
         (median of {stats_reps} interleaved pairs, {stats_layers} layers per epoch)"
    );

    if let Some(path) = &args.json {
        let body = format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"train_check_data_parallel\",\n",
                "  \"profile\": \"{}\",\n",
                "  \"smoke\": {},\n",
                "  \"host_cores\": {},\n",
                "  \"shards\": {},\n",
                "  \"sequences\": {},\n",
                "  \"windows_per_epoch\": {},\n",
                "  \"epochs\": {},\n",
                "  \"sequential_total_s\": {:.4},\n",
                "  \"deterministic_across_workers\": {},\n",
                "  \"loss_drift_vs_sequential\": {:.3e},\n",
                "  \"grad_reduce_total_ms\": {:.3},\n",
                "  \"scaling\": [{}],\n",
                "  \"speedup_4w_measured\": {:.2},\n",
                "  \"gate_workers\": {},\n",
                "  \"gate_speedup_measured\": {:.2},\n",
                "  \"param_stats_layers\": {},\n",
                "  \"param_stats_overhead_pct\": {:.2}\n",
                "}}\n"
            ),
            "M1",
            args.smoke,
            host_cores,
            par1.shards,
            seqs.len(),
            par1.windows / epochs.max(1),
            epochs,
            seq_wall,
            deterministic,
            loss_drift,
            par1.reduce_total.as_secs_f64() * 1e3,
            curve,
            measured4,
            gate_workers,
            gate_speedup,
            stats_layers,
            stats_overhead_pct,
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, body).expect("write bench json");
        println!("wrote {path}");
    }

    if !deterministic {
        eprintln!("FAIL: weights differ across worker counts");
        std::process::exit(1);
    }
    if loss_drift > 1e-2 {
        eprintln!("FAIL: parallel loss drifted {loss_drift:.2e} from sequential");
        std::process::exit(1);
    }
    if let Some(min) = args.min_speedup {
        if gate_workers < 2 {
            println!("speedup gate skipped: host has {host_cores} core(s), no parallelism to measure");
        } else if gate_speedup < min {
            eprintln!(
                "FAIL: measured {gate_workers}-worker speedup {gate_speedup:.2}x below \
                 required {min:.2}x on a {host_cores}-core host"
            );
            std::process::exit(1);
        } else {
            println!("measured {gate_workers}-worker speedup {gate_speedup:.2}x meets required {min:.2}x");
        }
    }
    if let Some(max) = args.max_stats_overhead {
        if stats_overhead_pct > max {
            eprintln!(
                "FAIL: param-stats overhead {stats_overhead_pct:.2}% exceeds allowed {max:.2}%"
            );
            std::process::exit(1);
        }
        println!("param-stats overhead {stats_overhead_pct:.2}% within allowed {max:.2}%");
    }
}
