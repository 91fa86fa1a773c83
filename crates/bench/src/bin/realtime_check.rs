//! Real-time feasibility check.
//!
//! The paper's motivation (§1): "prediction has to be performed in real
//! time, and results have to be available prior to the actual failure."
//! This experiment streams a full test split through the online detector
//! with telemetry enabled, measures sustained ingest throughput, and reads
//! the per-event scoring-latency distribution straight from the detector's
//! `online.score_latency_us` histogram — the quantity Fig 10 of the paper
//! reports as ≈0.65 ms per event on their hardware. The headroom factor
//! says how many times larger a system one detector instance could watch.
//!
//! Flags:
//! * `--smoke` — tiny profile + fast config, for CI latency gating.
//! * `--max-p99-us <N>` — exit non-zero when the p99 scoring latency
//!   exceeds `N` microseconds (a perf-regression tripwire).
//! * `--trace` — attach the decision tracer (flight recorder + warning
//!   log + chain matching) so the measured latency includes the full
//!   tracing path; CI gates this too, to keep tracing affordable.
//! * `--profile-every <N>` — sampling rate for the span-profiler
//!   overhead measurement (default [`DEFAULT_SAMPLE_EVERY`]).
//! * `--max-profile-overhead-pct <F>` — exit non-zero when the sampled
//!   span profiler slows the replay down by more than `F` percent
//!   (median of interleaved untraced/profiled replay pairs).
//! * `--json <path>` — write the measurements as machine-readable JSON
//!   (defaults to `results/BENCH_fig10.json` in full runs; off in smoke
//!   runs unless given explicitly).
//! * `--int8` — replay through the int8-quantized detector instead of
//!   the f32 one. The JSON records `kernel_backend` and `int8` either
//!   way, so latency numbers are attributable to the exact kernel path.
//! * `--shadow` — train a second candidate (seed+1) and run it as a
//!   shadow scorer beside the measured primary, the way
//!   `desh-cli predict --shadow` does. The gated p99 is still the
//!   primary's own `online.score_latency_us`: the flag proves shadow
//!   scoring keeps the primary inside its latency budget.

use desh_bench::{experiment_config, EXPERIMENT_SEED};
use desh_core::{Desh, DeshConfig, OnlineDetector, ShadowScorer};
use desh_loggen::{generate, SystemProfile};
use desh_obs::{
    FlightRecorder, ShadowMonitor, SpanProfiler, Telemetry, WarningLog, DEFAULT_SAMPLE_EVERY,
    DEFAULT_SHADOW_SLACK_SECS,
};
use std::sync::Arc;
use std::time::Instant;

/// Fig 10's per-event scoring cost on the paper's hardware, microseconds.
const PAPER_SCORE_US: f64 = 650.0;

/// Pre-optimization per-event scoring latency on this machine (M1 profile,
/// seed 2018), measured before the packed-GEMM/scratch-reuse/incremental
/// scoring rework. Kept in the JSON so the perf trajectory is tracked
/// across PRs. (p50, p95, p99) in microseconds.
const BASELINE_SCORE_US: (f64, f64, f64) = (126.4, 248.0, 369.5);

struct Args {
    smoke: bool,
    trace: bool,
    int8: bool,
    shadow: bool,
    max_p99_us: Option<f64>,
    profile_every: Option<u64>,
    max_profile_overhead_pct: Option<f64>,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        trace: false,
        int8: false,
        shadow: false,
        max_p99_us: None,
        profile_every: None,
        max_profile_overhead_pct: None,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--trace" => args.trace = true,
            "--int8" => args.int8 = true,
            "--shadow" => args.shadow = true,
            "--max-p99-us" => {
                let v = it.next().expect("--max-p99-us needs a value");
                args.max_p99_us = Some(v.parse().expect("--max-p99-us must be a number"));
            }
            "--profile-every" => {
                let v = it.next().expect("--profile-every needs a value");
                args.profile_every = Some(v.parse().expect("--profile-every must be an integer"));
            }
            "--max-profile-overhead-pct" => {
                let v = it.next().expect("--max-profile-overhead-pct needs a value");
                args.max_profile_overhead_pct =
                    Some(v.parse().expect("--max-profile-overhead-pct must be a number"));
            }
            "--json" => args.json = Some(it.next().expect("--json needs a path")),
            other => panic!("unknown flag {other}"),
        }
    }
    if args.json.is_none() && !args.smoke {
        args.json = Some("results/BENCH_fig10.json".to_string());
    }
    args
}

/// Process CPU time in seconds, for overhead ratios that must hold up on
/// noisy shared runners: preemption and frequency drift inflate wall
/// clock but not CPU time. `None` off Linux (callers fall back to wall).
#[cfg(target_os = "linux")]
fn cpu_time_s() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: clock_gettime only writes the timespec it is handed, and
    // the struct layout matches the 64-bit Linux ABI.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.sec as f64 + ts.nsec as f64 * 1e-9)
}

#[cfg(not(target_os = "linux"))]
fn cpu_time_s() -> Option<f64> {
    None
}

fn main() {
    let args = parse_args();
    let (profile, cfg) = if args.smoke {
        (SystemProfile::tiny(), DeshConfig::fast())
    } else {
        (SystemProfile::m1(), experiment_config())
    };
    let dataset = generate(&profile, EXPERIMENT_SEED);
    let (train, test) = dataset.split_by_time(0.3);
    let desh = Desh::new(cfg, EXPERIMENT_SEED);
    println!("training...");
    let trained = desh.train(&train);

    let make_detector = |t: &Telemetry| {
        if args.int8 {
            trained.quantized_detector(desh.cfg.clone(), t)
        } else {
            trained.online_detector(desh.cfg.clone(), t)
        }
    };
    let kernel_backend = desh_nn::kernel_backend_name();
    println!(
        "scoring path: {kernel_backend} kernels, {} weights",
        if args.int8 { "int8" } else { "f32" }
    );
    let telemetry = Telemetry::enabled();
    let mut det = make_detector(&telemetry);
    let flight = Arc::new(FlightRecorder::new());
    let warning_log = Arc::new(WarningLog::new(1024));
    if args.trace {
        det.attach_tracing(Arc::clone(&flight), Arc::clone(&warning_log));
        println!("decision tracing attached (flight recorder + warning log)");
    }
    // A differently-seeded candidate riding shotgun, exactly as
    // `predict --shadow` runs it. Its detector and monitor live on a
    // private registry so the gated histogram stays the primary's alone.
    let mut shadow = args.shadow.then(|| {
        println!("training shadow candidate (seed {})...", EXPERIMENT_SEED + 1);
        let st = Desh::new(desh.cfg.clone(), EXPERIMENT_SEED + 1).train(&train);
        let quiet = Telemetry::disabled();
        let candidate = if args.int8 {
            st.quantized_detector(desh.cfg.clone(), &quiet)
        } else {
            st.online_detector(desh.cfg.clone(), &quiet)
        };
        det.set_observe_scores(true);
        let monitor = Arc::new(ShadowMonitor::new(&quiet, DEFAULT_SHADOW_SLACK_SECS));
        println!("shadow scoring attached beside the measured primary");
        ShadowScorer::new(candidate, monitor)
    });
    let t0 = Instant::now();
    let mut warnings = 0usize;
    for r in &test.records {
        let w = det.ingest(r);
        if let Some(sh) = shadow.as_mut() {
            sh.observe(r, w.as_ref(), det.last_score());
        }
        if w.is_some() {
            warnings += 1;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let events = test.records.len() as f64;
    let throughput = events / elapsed;

    // Arrival rate of the simulated system (events per wall-clock second),
    // and what the paper-scale system would produce (nodes scaled up).
    let span_secs = test.duration.as_secs_f64() * 0.7;
    let arrival = events / span_secs;
    let paper_scale_arrival = arrival * profile.paper_scale as f64 / profile.nodes as f64;
    let headroom = throughput / paper_scale_arrival;

    println!("\nReal-time feasibility (system {})", profile.name);
    println!("  events processed      : {events:.0} in {elapsed:.2}s  ({warnings} warnings)");
    println!("  detector throughput   : {throughput:.0} events/s");
    println!("  simulated arrival rate: {arrival:.2} events/s ({} nodes)", profile.nodes);
    println!(
        "  paper-scale arrival   : {paper_scale_arrival:.1} events/s ({} nodes)",
        profile.paper_scale
    );
    println!("  headroom vs paper-scale system: {headroom:.0}x");

    let snap = telemetry.snapshot().expect("telemetry enabled");
    let lat = snap
        .histogram("online.score_latency_us")
        .expect("detector recorded scoring latencies");
    println!("\nPer-event scoring latency ({} scored events)", lat.count());
    let mut quantiles = [0.0f64; 3];
    for (i, (tag, q)) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)].iter().enumerate() {
        let us = lat.quantile(*q);
        quantiles[i] = us;
        println!(
            "  {tag:<4}: {us:>8.1} us   ({:.2}x the paper's {PAPER_SCORE_US:.0} us)",
            us / PAPER_SCORE_US
        );
    }
    println!("  max : {:>8} us", lat.max());
    if args.trace {
        println!(
            "  tracing: {} node flight rings, {} warning records",
            flight.node_names().len(),
            warning_log.len()
        );
    }
    if let Some(sh) = &shadow {
        sh.finish();
        let s = sh.monitor().summary();
        println!(
            "  shadow divergence: {} agree, {} primary-only, {} candidate-only (drift {:.4})",
            s.agree_both, s.primary_only, s.candidate_only, s.score_drift
        );
    }
    println!("\nThe paper's requirement is satisfied when headroom > 1.");

    // Sampled span-profiler overhead: per round, replay the stream on a
    // fresh detector both untraced and profiled, with arm order flipping
    // every round so neither arm systematically runs on a warmer CPU.
    // The gated figure is the median of the per-round profiled/untraced
    // *CPU-time* ratios — interleaved pairs like train_check's ledger
    // gate, but measured in process CPU time because wall clock on a
    // shared runner carries ±5-10% preemption noise that would drown a
    // 3% gate (wall is used only where CPU time is unavailable).
    let every = args.profile_every.unwrap_or(DEFAULT_SAMPLE_EVERY);
    let rounds = if args.smoke { 35 } else { 9 };
    let reps = if args.smoke { 25 } else { 2 };
    let mut plain_best = f64::INFINITY;
    let mut profiled_best = f64::INFINITY;
    let mut sampled_total = 0u64;
    let mut ratios = Vec::with_capacity(rounds);
    // Untimed warm-up so the first timed arm doesn't pay first-touch
    // cache misses.
    {
        let t = Telemetry::enabled();
        let mut d = make_detector(&t);
        for r in &test.records {
            let _ = d.ingest(r);
        }
    }
    for round in 0..rounds {
        let order = if round % 2 == 0 { [false, true] } else { [true, false] };
        let mut pair = [0.0f64; 2];
        for profiled in order {
            let t = Telemetry::enabled();
            let mut d = make_detector(&t);
            let profiler = profiled.then(|| {
                let p = SpanProfiler::new(
                    t.registry().expect("telemetry enabled"),
                    "online",
                    &OnlineDetector::PROFILE_STAGES,
                    every,
                    64,
                );
                d.attach_profiler(Arc::clone(&p));
                p
            });
            let c0 = cpu_time_s();
            let t0 = Instant::now();
            for _ in 0..reps {
                for r in &test.records {
                    let _ = d.ingest(r);
                }
            }
            let wall = t0.elapsed().as_secs_f64();
            let dt = cpu_time_s().zip(c0).map_or(wall, |(c1, c0)| c1 - c0);
            match profiler {
                Some(p) => {
                    pair[1] = dt;
                    profiled_best = profiled_best.min(dt);
                    sampled_total += p.sampled();
                }
                None => {
                    pair[0] = dt;
                    plain_best = plain_best.min(dt);
                }
            }
        }
        ratios.push(pair[1] / pair[0]);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    // The gated figure is the median of the paired ratios — the honest
    // central estimate. The 25th percentile rides along in the output:
    // when a noisy runner inflates the median, a p25 still near zero
    // says "noise", while both climbing together says "real cost".
    let overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    let p25_pct = (ratios[ratios.len() / 4] - 1.0) * 100.0;
    let best_vs_best_pct = (profiled_best - plain_best) / plain_best * 100.0;
    let clock = if cpu_time_s().is_some() { "CPU time" } else { "wall time" };
    println!(
        "\nSpan-profiler overhead (1 in {every} events, median of {rounds} interleaved pairs, {clock})"
    );
    println!("  untraced replay (best) : {plain_best:.4}s");
    println!("  profiled replay (best) : {profiled_best:.4}s  ({sampled_total} waterfalls sampled)");
    println!("  overhead (paired median): {overhead_pct:+.2}%  <- gated");
    println!("  overhead (paired p25)   : {p25_pct:+.2}%");
    println!("  overhead (best-vs-best) : {best_vs_best_pct:+.2}%");

    if let Some(path) = &args.json {
        let body = format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"fig10_realtime_check\",\n",
                "  \"profile\": \"{}\",\n",
                "  \"smoke\": {},\n",
                "  \"trace\": {},\n",
                "  \"shadow\": {},\n",
                "  \"kernel_backend\": \"{}\",\n",
                "  \"int8\": {},\n",
                "  \"events\": {},\n",
                "  \"elapsed_s\": {:.4},\n",
                "  \"throughput_events_per_s\": {:.1},\n",
                "  \"warnings\": {},\n",
                "  \"scored_events\": {},\n",
                "  \"score_latency_us\": {{\"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}, \"max\": {}}},\n",
                "  \"baseline_score_latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}},\n",
                "  \"speedup_p50_vs_baseline\": {:.1},\n",
                "  \"span_profile\": {{\"sample_every\": {}, \"rounds\": {}, ",
                "\"untraced_best_s\": {:.4}, \"profiled_best_s\": {:.4}, ",
                "\"overhead_median_pct\": {:.2}, \"overhead_p25_pct\": {:.2}, \"sampled\": {}}},\n",
                "  \"paper_score_us\": {},\n",
                "  \"headroom_vs_paper_scale\": {:.1}\n",
                "}}\n"
            ),
            profile.name,
            args.smoke,
            args.trace,
            args.shadow,
            kernel_backend,
            args.int8,
            events as u64,
            elapsed,
            throughput,
            warnings,
            lat.count(),
            quantiles[0],
            quantiles[1],
            quantiles[2],
            lat.max(),
            BASELINE_SCORE_US.0,
            BASELINE_SCORE_US.1,
            BASELINE_SCORE_US.2,
            BASELINE_SCORE_US.0 / quantiles[0].max(0.1),
            every,
            rounds,
            plain_best,
            profiled_best,
            overhead_pct,
            p25_pct,
            sampled_total,
            PAPER_SCORE_US,
            headroom,
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, body).expect("write bench json");
        println!("wrote {path}");
    }

    if let Some(ceiling) = args.max_p99_us {
        let p99 = quantiles[2];
        if p99 > ceiling {
            eprintln!("FAIL: p99 scoring latency {p99:.1} us exceeds ceiling {ceiling:.1} us");
            std::process::exit(1);
        }
        println!("p99 {p99:.1} us within ceiling {ceiling:.1} us");
    }
    if let Some(ceiling) = args.max_profile_overhead_pct {
        if overhead_pct > ceiling {
            eprintln!(
                "FAIL: span-profiler overhead {overhead_pct:.2}% exceeds ceiling {ceiling:.2}%"
            );
            std::process::exit(1);
        }
        println!("profiler overhead {overhead_pct:.2}% within ceiling {ceiling:.2}%");
    }
}
