//! Pipeline-stage benches: template extraction throughput, phase-2
//! training epochs, and phase-3 episode scoring — the operations that
//! bound how much log volume a deployment can keep up with — plus the
//! telemetry-overhead pair proving that instrumentation with a disabled
//! handle costs <2% and stays cheap even when enabled.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use desh_core::{
    chain_to_vectors, extract_chains, extract_episodes, run_phase2, run_phase3,
    run_phase3_telemetry, DeshConfig,
};
use desh_loggen::{generate, SystemProfile};
use desh_logparse::{extract_template, parse_records};
use desh_obs::Telemetry;
use desh_util::Xoshiro256pp;
use std::hint::black_box;

fn bench_template_extraction(c: &mut Criterion) {
    let d = generate(&SystemProfile::tiny(), 2018);
    let lines: Vec<String> = d.records.iter().map(|r| r.text.clone()).collect();
    let mut group = c.benchmark_group("logparse");
    group.throughput(Throughput::Elements(lines.len() as u64));
    group.bench_function("extract_template_batch", |b| {
        b.iter(|| {
            for l in &lines {
                black_box(extract_template(black_box(l)));
            }
        })
    });
    group.throughput(Throughput::Elements(d.records.len() as u64));
    group.bench_function("parse_records_full", |b| {
        b.iter(|| black_box(parse_records(black_box(&d.records))))
    });
    group.finish();
}

fn bench_phase2_epoch(c: &mut Criterion) {
    let d = generate(&SystemProfile::tiny(), 2018);
    let cfg = DeshConfig::fast();
    let parsed = parse_records(&d.records);
    let chains = extract_chains(&parsed, &cfg.episodes);
    let mut group = c.benchmark_group("training");
    group.bench_function("phase2_one_epoch", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256pp::seed_from_u64(1);
            let mut p2 = cfg.phase2.clone();
            p2.epochs = 1;
            black_box(run_phase2(&chains, parsed.vocab_size(), &p2, &mut rng))
        })
    });
    group.finish();
}

fn bench_phase3_scoring(c: &mut Criterion) {
    let d = generate(&SystemProfile::tiny(), 2018);
    let cfg = DeshConfig::fast();
    let parsed = parse_records(&d.records);
    let chains = extract_chains(&parsed, &cfg.episodes);
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let mut p2 = cfg.phase2.clone();
    p2.epochs = 10;
    let model = run_phase2(&chains, parsed.vocab_size(), &p2, &mut rng);
    let episodes = extract_episodes(&parsed, &cfg.episodes);
    let mut group = c.benchmark_group("inference");
    group.throughput(Throughput::Elements(episodes.len() as u64));
    group.bench_function("score_all_episodes", |b| {
        b.iter(|| {
            for ep in &episodes {
                let end = ep.end();
                let seq: Vec<Vec<f32>> = ep
                    .events
                    .iter()
                    .map(|e| model.vectorize(end.saturating_sub(e.time).as_secs_f64(), e.phrase))
                    .collect();
                black_box(model.net.score_sequence(&seq, model.history));
            }
        })
    });
    group.finish();
}

fn bench_chain_vectorization(c: &mut Criterion) {
    let d = generate(&SystemProfile::tiny(), 2018);
    let cfg = DeshConfig::fast();
    let parsed = parse_records(&d.records);
    let chains = extract_chains(&parsed, &cfg.episodes);
    let mut group = c.benchmark_group("vectorize");
    group.throughput(Throughput::Elements(chains.len() as u64));
    group.bench_function("chain_to_vectors", |b| {
        b.iter(|| {
            for ch in &chains {
                black_box(chain_to_vectors(ch, 300.0, parsed.vocab_size()));
            }
        })
    });
    group.finish();
}

/// Telemetry overhead: the same phase-3 scoring pass run through the
/// instrumented entry points with (a) the disabled no-op handle (the
/// default everywhere) and (b) a live registry recording spans, counters
/// and per-episode latency histograms. (a) must stay within 2% of the
/// pre-instrumentation `score_all_episodes` baseline above; (b) bounds
/// the cost of switching telemetry on.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let d = generate(&SystemProfile::tiny(), 2018);
    let cfg = DeshConfig::fast();
    let parsed = parse_records(&d.records);
    let chains = extract_chains(&parsed, &cfg.episodes);
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let mut p2 = cfg.phase2.clone();
    p2.epochs = 10;
    let model = run_phase2(&chains, parsed.vocab_size(), &p2, &mut rng);
    let mut group = c.benchmark_group("telemetry");
    group.bench_function("phase3_telemetry_disabled", |b| {
        b.iter(|| black_box(run_phase3(&model, &parsed, &d.failures, &cfg)))
    });
    let telemetry = Telemetry::enabled();
    group.bench_function("phase3_telemetry_enabled", |b| {
        b.iter(|| {
            black_box(run_phase3_telemetry(
                &model,
                &parsed,
                &d.failures,
                &cfg,
                &telemetry,
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_template_extraction,
    bench_phase2_epoch,
    bench_phase3_scoring,
    bench_chain_vectorization,
    bench_telemetry_overhead
);
criterion_main!(benches);
