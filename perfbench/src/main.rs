//! Serve-path benchmark for Desh.
//!
//! One run trains the served checkpoint, renders a workload stream,
//! streams it over loopback TCP into a sharded `IntakeServer` for as many
//! fresh rounds as fit in `--seconds`, then replays the same log through
//! the sequential `predict` path as a timed baseline and as the
//! correctness reference. `--trace 1` adds the traced per-layer run.
//! The last line of standard output is the JSON result.
//!
//! Usage: desh-perfbench --workload fleet_flood|storm_paced --seed N
//!        --seconds S --trace 0|1 --work DIR [--commit C] [--source S]

mod live;
mod replay;
mod score;
mod stream;
mod sys;
mod traced;
mod train;

use live::Round;
use score::{median, quantile};
use std::path::PathBuf;
use std::time::Instant;
use stream::{Stream, Workload};

const MIB: f64 = 1024.0 * 1024.0;
/// How many times a run generates its stream to time set-up.
const SETUP_REPEATS: usize = 3;
/// A round's timed warnings, in order of due time, are cut into
/// consecutive groups of at least this many, so each group's p99 has
/// twenty samples beyond it (fewer only where latencies tie). The run
/// reports medians over groups.
const LATENCY_GROUP: usize = 2000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    commit: String,
    source: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut kv = std::collections::HashMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
            kv.insert(key.to_string(), v);
        }
        let get = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
        let workload = get("workload")?;
        Ok(Args {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload {workload:?}"))?,
            seed: get("seed")?
                .parse()
                .map_err(|_| "--seed needs an integer")?,
            seconds: get("seconds")?
                .parse()
                .ok()
                .filter(|&s: &f64| s > 0.0)
                .ok_or("--seconds needs a positive number")?,
            trace: match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                _ => return Err("--trace takes 0 or 1".into()),
            },
            work: PathBuf::from(get("work")?),
            commit: kv
                .get("commit")
                .cloned()
                .unwrap_or_else(|| "unknown".into()),
            source: kv
                .get("source")
                .cloned()
                .unwrap_or_else(|| "unknown".into()),
        })
    }
}

/// A named value with its unit, in print order.
type Metric = (&'static str, f64, &'static str);

/// Per-round checks and figures derived from the round's warnings.
struct Checked {
    agree: score::Agreement,
    truth: score::Truth,
    /// Timed warnings, due (or write) time to `take_warnings`, in ms.
    latency_ms: Vec<f64>,
    /// Median, p99 and samples beyond the p99 of each
    /// [`LATENCY_GROUP`] group of timed warnings.
    groups: Vec<(f64, f64, usize)>,
    failures: Vec<String>,
}

fn check_round(
    stream: &Stream,
    round: &Round,
    rate: Option<f64>,
    replay: &[desh_core::Warning],
) -> Checked {
    let (mapped, unmatched) = score::map_warnings(stream, round);
    let agree = score::agreement(stream, &mapped, replay);
    let placed: Vec<_> = mapped
        .iter()
        .map(|m| (m.node, stream.times[m.line]))
        .collect();
    let truth = score::truth(&placed, &stream.failures);
    let mut timed: Vec<(Instant, f64)> = mapped
        .iter()
        .filter(|m| m.line >= stream.warmup)
        .map(|m| {
            let due = match rate {
                Some(rate) => {
                    round.t0
                        + std::time::Duration::from_secs_f64((m.line - stream.warmup) as f64 / rate)
                }
                None => round.sent_at(m.line),
            };
            (
                due,
                m.recv.saturating_duration_since(due).as_secs_f64() * 1e3,
            )
        })
        .collect();
    timed.sort_by_key(|&(due, _)| due);
    let latency_ms: Vec<f64> = timed.into_iter().map(|(_, ms)| ms).collect();
    let n = latency_ms.len();
    let k = n / LATENCY_GROUP;
    let groups = (0..k)
        .map(|g| {
            let mut v = latency_ms[g * n / k..(g + 1) * n / k].to_vec();
            let p99 = quantile(&mut v, 0.99);
            (
                quantile(&mut v, 0.5),
                p99,
                v.iter().filter(|&&x| x > p99).count(),
            )
        })
        .collect();
    let mut failures = Vec::new();
    if round.sent != round.processed + round.dropped + round.rejected {
        failures.push(format!(
            "sent {} != processed {} + dropped {} + rejected {}",
            round.sent, round.processed, round.dropped, round.rejected
        ));
    }
    if round.dropped > 0 {
        failures.push(format!("{} lines dropped under Block", round.dropped));
    }
    if mapped.is_empty() {
        failures.push("no warnings served".into());
    }
    if unmatched > 0 {
        failures.push(format!("{unmatched} served warnings match no sent line"));
    }
    if agree.first_day > 0 {
        failures.push(format!(
            "{} served/replay disagreements in the first 24 h of log time",
            agree.first_day
        ));
    }
    Checked {
        agree,
        truth,
        latency_ms,
        groups,
        failures,
    }
}

fn main() {
    let started = Instant::now();
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("desh-perfbench: {e}");
            eprintln!("usage: desh-perfbench --workload fleet_flood|storm_paced --seed N --seconds S --trace 0|1 --work DIR");
            std::process::exit(2);
        }
    };
    match run(&args, started) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("desh-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Returns whether every correctness check passed.
fn run(args: &Args, started: Instant) -> Result<bool, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    let wl = args.workload;
    let rate = wl.rate();
    let backend = desh_nn::kernel_backend_name();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let icfg = desh_core::IntakeConfig::default();
    let stamp = format!(
        "workload={} seed={} seconds={} nproc={nproc} kernel={backend} commit={} source={} storm_rate={} shards={} slots={} queue_depth={} batch_window={} backpressure={:?} desh_shards_env={}",
        wl.name(),
        args.seed,
        args.seconds,
        args.commit,
        args.source,
        stream::STORM_RATE,
        live::SHARDS,
        live::SLOTS,
        icfg.queue_depth,
        icfg.batch_max,
        icfg.backpressure,
        std::env::var("DESH_SHARDS").unwrap_or_else(|_| "unset".into()),
    );
    println!("stamp: {stamp}");
    if backend == "scalar" {
        println!("warning: scalar kernel fallback; figures are not comparable with SIMD hosts");
    }

    let trained = train::train();
    // Generation is set up several times and its median counted, so one
    // slow allocation burst does not decide the run's set-up time.
    let before_gen = started.elapsed().as_secs_f64() - trained.train_s();
    let mut gen_s = Vec::new();
    let mut stream = None;
    for _ in 0..SETUP_REPEATS {
        drop(stream.take());
        sys::trim_heap();
        let t = Instant::now();
        stream = Some(Stream::generate(wl, args.seed));
        gen_s.push(t.elapsed().as_secs_f64());
    }
    let stream = stream.expect("generated at least once");
    let prep_s = before_gen + median(gen_s);
    println!(
        "stream: {} lines, {} nodes, {} failures, {:.0} h of log time, warm-up {} lines; mode {}",
        stream.len(),
        stream.cluster,
        stream.failures.len(),
        stream.span.as_secs_f64() / 3600.0,
        stream.warmup,
        match rate {
            Some(r) => format!("open loop at {r} lines/s"),
            None => "closed loop".into(),
        }
    );

    // Rounds fill `--seconds`. Replay passes run after the first round,
    // halfway and at the end, so the baseline samples the same stretch
    // of time, and round 1 starts from a heap no replay has touched.
    let log_path = args.work.join(format!("replay-{}.log", wl.name()));
    let mut replayer = replay::Replayer::new(&stream, &trained.bytes, log_path)?;
    let mut rounds: Vec<Round> = Vec::new();
    let mut round_s = 0.0;
    let mut halfway = false;
    while rounds.is_empty() || round_s < args.seconds {
        let t = Instant::now();
        rounds.push(live::run_round(&stream, &trained.bytes, rate)?);
        round_s += t.elapsed().as_secs_f64();
        let crossed = rounds.len() > 1 && !halfway && round_s >= args.seconds / 2.0;
        if rounds.len() == 1 || crossed {
            replayer.pass()?;
            halfway |= crossed;
        }
    }
    replayer.pass()?;
    let replay_s = replayer.secs.clone();
    let replay_rate = median(replayer.rates.clone());
    let mismatched = replayer.mismatched;
    let rep = replayer.finish();

    let mut failures: Vec<String> = Vec::new();
    if rep.warnings.is_empty() {
        failures.push("the replay fired no warnings".into());
    }
    if mismatched > 0 {
        failures.push(format!(
            "{mismatched} replay passes fired different warnings"
        ));
    }
    let mut checked = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        let mut c = check_round(&stream, r, rate, &rep.warnings);
        println!(
            "round {}: setup {:.3} s, window {:.3} s, sent {} processed {} dropped {} rejected {}, {} warnings (replay {}), agree {:.4} (served-only {}, replay-only {}, first-24h {}), latency p50 {:.3} p99 {:.3} ms, cpu {:.1} ns/line, rss +{:.1} MiB",
            i + 1,
            r.setup_s,
            r.window_s,
            r.sent,
            r.processed,
            r.dropped,
            r.rejected,
            r.warnings.len(),
            rep.warnings.len(),
            c.agree.jaccard,
            c.agree.served_only,
            c.agree.replay_only,
            c.agree.first_day,
            quantile(&mut c.latency_ms, 0.5),
            quantile(&mut c.latency_ms, 0.99),
            r.server_cpu_ns as f64 / r.timed_lines as f64,
            r.rss_growth as f64 / MIB,
        );
        failures.extend(c.failures.iter().map(|f| format!("round {}: {f}", i + 1)));
        checked.push(c);
    }

    let per_round = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    let per_check = |f: &dyn Fn(&Checked) -> f64| median(checked.iter().map(f).collect());
    // Later rounds reuse heap the earlier ones freed, so only round 1
    // sees the growth a fresh server process sees.
    let rss_mib = rounds[0].rss_growth as f64 / MIB;
    // Throughput and CPU cost are medians over the windows' slices, so a
    // host stall of a second or two moves them less than whole windows.
    let slices: Vec<&live::Slice> = rounds
        .iter()
        .flat_map(|r| &r.slices)
        .filter(|s| s.lines > 0)
        .collect();
    let cpu_ns_per_line = median(
        slices
            .iter()
            .map(|s| s.server_cpu_ns as f64 / s.lines as f64)
            .collect(),
    );
    // Warning latency percentiles are medians over groups of warnings
    // close in due time, so a host stall of tens of milliseconds that
    // lands in a few groups moves them less than it moves a whole round's
    // percentile. The whole-run tail, stalls included, is printed below.
    let latency_groups: Vec<(f64, f64, usize)> = checked
        .iter()
        .flat_map(|c| c.groups.iter().copied())
        .collect();
    let mut latency_all: Vec<f64> = checked
        .iter()
        .flat_map(|c| c.latency_ms.iter().copied())
        .collect();
    let e2e: Vec<Metric> = vec![
        ("setup_s", prep_s + per_round(&|r| r.setup_s), "s"),
        ("train_s", trained.train_s(), "s"),
        (
            "lines_per_s",
            median(slices.iter().map(|s| s.lines as f64 / s.secs).collect()),
            "lines/s",
        ),
        ("cpu_ns_per_line", cpu_ns_per_line, "ns"),
        (
            "warn_p50_ms",
            median(latency_groups.iter().map(|g| g.0).collect()),
            "ms",
        ),
        (
            "warn_p99_ms",
            median(latency_groups.iter().map(|g| g.1).collect()),
            "ms",
        ),
        ("rss_mib", rss_mib, "MiB"),
        ("warn_agree", per_check(&|c| c.agree.jaccard), "ratio"),
        ("recall", per_check(&|c| c.truth.recall), "ratio"),
        ("precision", per_check(&|c| c.truth.precision), "ratio"),
        ("lead_p50_s", per_check(&|c| c.truth.lead_p50_s), "s"),
    ];
    let sent: u64 = rounds.iter().map(|r| r.sent).sum();
    let processed: u64 = rounds.iter().map(|r| r.processed).sum();
    let dropped: u64 = rounds.iter().map(|r| r.dropped).sum();
    let rejected: u64 = rounds.iter().map(|r| r.rejected).sum();
    println!(
        "replay passes: {}",
        replay_s
            .iter()
            .map(|s| format!("{s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "operations: {} rounds ({} slices), sent {sent}, processed {processed}, dropped {dropped}, rejected {rejected}",
        rounds.len(),
        slices.len()
    );
    println!(
        "warning latency: {} samples over {} rounds in {} groups, at least {} beyond each group's p99; whole run p99 {:.3} ms, p99.9 {:.3} ms, max {:.3} ms",
        latency_all.len(),
        checked.len(),
        latency_groups.len(),
        latency_groups.iter().map(|g| g.2).min().unwrap_or(0),
        quantile(&mut latency_all, 0.99),
        quantile(&mut latency_all, 0.999),
        quantile(&mut latency_all, 1.0),
    );
    println!(
        "caught {} of {} failures (round median)",
        per_check(&|c| c.truth.caught as f64),
        stream.failures.len()
    );

    // Printed by every run, but bounded as a per-layer figure: on a
    // shared host its run-to-run spread exceeds any end-to-end bound.
    let replay: Metric = ("replay_lines_per_s", replay_rate, "lines/s");
    let layer_metrics: Vec<Metric> = if args.trace {
        let mut tr = traced::Tracer::new();
        let batches;
        let shape = match rate {
            None => traced::Shape::Window(icfg.batch_max),
            Some(_) => {
                batches = rounds[0].writer.batches.clone();
                traced::Shape::Batches(&batches)
            }
        };
        let layers = traced::run(&stream, &trained.bytes, &shape, &rep.records, &mut tr)?;
        let spans = args.work.join(format!("spans-{}.tsv", wl.name()));
        tr.write(&spans, &stamp)
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        println!("spans: {}", spans.display());
        let snap = |r: &Round, name: &str, f: &dyn Fn(&desh_obs::LatencySnapshot) -> f64| {
            r.snapshot.histogram(name).map_or(0.0, f)
        };
        let worst_wait = |q: f64| {
            per_round(&|r| {
                (0..live::SHARDS)
                    .map(|s| {
                        snap(r, &format!("ingest.queue_wait_us[shard={s}]"), &|h| {
                            h.quantile(q)
                        })
                    })
                    .fold(0.0, f64::max)
            })
        };
        let mut m: Vec<Metric> = vec![
            (
                "gen.late_p99_ms",
                per_round(&|r| quantile(&mut r.writer.late_ms.clone(), 0.99)),
                "ms",
            ),
            (
                "gen.blocked_s",
                per_round(&|r| r.writer.write_ns as f64 / 1e9),
                "s",
            ),
            ("intake.queue_wait_p50_us", worst_wait(0.5), "us"),
            ("intake.queue_wait_p99_us", worst_wait(0.99), "us"),
            ("intake.processed", processed as f64, "count"),
            ("intake.dropped", dropped as f64, "count"),
            ("intake.parse_errors", rejected as f64, "count"),
            (
                "batch.waves",
                per_round(&|r| snap(r, "ingest.batch_size", &|h| h.count() as f64)),
                "count",
            ),
            (
                "batch.wave_rows_mean",
                per_round(&|r| snap(r, "ingest.batch_size", &|h| h.mean())),
                "rows",
            ),
            (
                "obs.bytes_per_node",
                rss_mib * MIB / layers.nodes_scored.max(1) as f64,
                "B",
            ),
            ("train.parse_s", trained.parse_s, "s"),
            ("train.phase1_s", trained.phase1_s, "s"),
            ("train.phase2_s", trained.phase2_s, "s"),
            ("train.phase1_acc", trained.phase1_acc, "ratio"),
            (
                "trace.unattributed_pct",
                (cpu_ns_per_line - layers.layer_ns_per_line) / cpu_ns_per_line * 100.0,
                "%",
            ),
        ];
        m.push(replay);
        m.extend(layers.metrics);
        m
    } else {
        vec![replay]
    };

    for (name, value, unit) in e2e.iter().chain(&layer_metrics) {
        println!("metric {name} = {value} {unit}");
    }
    let metrics = if args.trace { &layer_metrics } else { &e2e };
    for (name, value, _) in metrics {
        if !value.is_finite() {
            failures.push(format!("{name} is not a finite number"));
        }
    }
    for f in &failures {
        println!("check failed: {f}");
    }
    let correct = failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {sent}, \"failed\": {}, \"metrics\": {{{}}}}}",
        dropped + rejected,
        body.join(", ")
    );
    Ok(correct)
}
