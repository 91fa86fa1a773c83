//! The traced run: the same stream through each layer's public functions
//! in this thread, with a span around each call, for per-layer costs.
//!
//! Spans record name, start, end, parent span and chunk id; they stay in
//! memory and are written out at exit. Per-line functions (`from_str`,
//! `shard_of`, `extract_template_into`) get one span per chunk around the
//! loop over the chunk's lines, because a span costs more than a
//! `shard_of` call (see `trace.span_ns`). A layer's self time is its
//! span minus the time its child spans cover.

use crate::live::{SHARDS, SLOTS};
use crate::stream::Stream;
use desh::checkpoint::decode_checkpoint;
use desh_core::{shard_of, BatchDetector, DeshConfig, LeadTimeModel, OnlineDetector};
use desh_loggen::{Label, LogRecord, NodeId};
use desh_logparse::{extract_template_into, label_template};
use desh_obs::{FlightRecorder, Telemetry, WarningLog};
use desh_util::Micros;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    start: u64,
    end: u64,
    /// Index + 1 of the parent span; 0 for a root.
    parent: u32,
    chunk: u32,
}

/// In-memory span recorder; nanoseconds since its creation.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, chunk: u32) -> usize {
        let start = self.now();
        self.spans.push(SpanRec {
            name,
            start,
            end: start,
            parent: parent.map_or(0, |p| p as u32 + 1),
            chunk,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a span.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        chunk: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, chunk);
        let r = f();
        self.close(id);
        r
    }

    /// Self time per span name: each span's duration minus the time its
    /// children cover (children of one thread never overlap).
    fn self_ns(&self) -> HashMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child[s.parent as usize - 1] += s.end - s.start;
            }
        }
        let mut out = HashMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// Write every span as a tab-separated row under a `#` header.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "id\tname\tchunk\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                0 => "-".to_string(),
                p => (p - 1).to_string(),
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.chunk, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// How the traced run cuts the stream into chunks for the batch layer.
pub enum Shape<'a> {
    /// Accumulate each shard's records and hand them over a full batch
    /// window at a time (a flood keeps the intake queues full).
    Window(usize),
    /// Replay the writer's per-write batches; each shard gets its share
    /// of a batch as one chunk.
    Batches(&'a [u32]),
}

/// Per-layer figures of the traced run.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Loggen + router + batch self time per line.
    pub layer_ns_per_line: f64,
    /// Distinct nodes with at least one non-Safe line.
    pub nodes_scored: usize,
}

/// A shard detector configured as `serve` configures it; `tracing`
/// attaches the flight recorder and warning log.
fn shard_detectors(ckpt: &[u8], tracing: bool) -> Result<Vec<BatchDetector>, String> {
    let ck = decode_checkpoint(ckpt.to_vec())?;
    let telemetry = Telemetry::enabled();
    let flight = Arc::new(FlightRecorder::new());
    let warning_log = Arc::new(WarningLog::new(1024));
    Ok((0..SHARDS)
        .map(|_| {
            let mut d = BatchDetector::with_telemetry(
                ck.model.clone(),
                Arc::clone(&ck.vocab),
                DeshConfig::default(),
                SLOTS,
                &telemetry,
            );
            d.attach_chains(&ck.chains);
            if tracing {
                d.attach_tracing(Arc::clone(&flight), Arc::clone(&warning_log));
            }
            d
        })
        .collect())
}

/// Loggen, router and batch layers over the stream, chunked by `shape`.
fn serve_layers(
    stream: &Stream,
    ckpt: &[u8],
    shape: &Shape,
    tr: &mut Tracer,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut traced = shard_detectors(ckpt, true)?;
    let mut plain = shard_detectors(ckpt, false)?;
    let mut pending: Vec<Vec<LogRecord>> = vec![Vec::new(); SHARDS];
    let mut per_shard = [0u64; SHARDS];
    let mut rejected = 0u64;
    let (window, sizes): (usize, Vec<usize>) = match shape {
        Shape::Window(w) => (*w, vec![SHARDS * *w; stream.len().div_ceil(SHARDS * *w)]),
        Shape::Batches(b) => (1, b.iter().map(|&n| n as usize).collect()),
    };
    let mut next = 0usize;
    for (chunk, size) in sizes.into_iter().enumerate() {
        let chunk = chunk as u32;
        let (a, b) = (next, (next + size).min(stream.len()));
        next = b;
        let root = tr.open("chunk", None, chunk);
        let records: Vec<LogRecord> = tr.span("loggen.parse", Some(root), chunk, || {
            (a..b)
                .filter_map(|i| match stream.line(i).parse::<LogRecord>() {
                    Ok(r) => Some(r),
                    Err(_) => {
                        rejected += 1;
                        None
                    }
                })
                .collect()
        });
        tr.span("router", Some(root), chunk, || {
            for r in records {
                let s = shard_of(r.node, SHARDS);
                per_shard[s] += 1;
                pending[s].push(r);
            }
        });
        let last = next == stream.len();
        for s in 0..SHARDS {
            while pending[s].len() >= window || (last && !pending[s].is_empty()) {
                let take = match shape {
                    Shape::Window(w) => (*w).min(pending[s].len()),
                    Shape::Batches(_) => pending[s].len(),
                };
                let part: Vec<LogRecord> = pending[s].drain(..take).collect();
                // Alternate which twin runs first so neither always
                // inherits the other's warm cache.
                let order = if chunk.is_multiple_of(2) {
                    [true, false]
                } else {
                    [false, true]
                };
                for with_tracing in order {
                    let (name, det) = if with_tracing {
                        ("batch", &mut traced[s])
                    } else {
                        ("batch.untraced", &mut plain[s])
                    };
                    let mut fired = Vec::new();
                    tr.span(name, Some(root), chunk, || {
                        det.ingest_chunk(&part, &mut fired)
                    });
                }
            }
        }
        tr.close(root);
    }
    if rejected > 0 {
        return Err(format!("traced run rejected {rejected} lines"));
    }
    let n = stream.len() as f64;
    let selfs = tr.self_ns();
    let get = |k: &str| selfs.get(k).copied().unwrap_or(0) as f64;
    let scored: u64 = traced.iter().map(|d| d.events_seen()).sum();
    let mean_shard = per_shard.iter().sum::<u64>() as f64 / SHARDS as f64;
    let max_shard = *per_shard.iter().max().unwrap() as f64;
    Ok(vec![
        ("loggen.parse_ns_per_line", get("loggen.parse") / n, "ns"),
        ("router.ns_per_line", get("router") / n, "ns"),
        ("router.skew", max_shard / mean_shard, "ratio"),
        ("batch.ns_per_line", get("batch") / n, "ns"),
        (
            "batch.ns_per_scored",
            get("batch") / scored.max(1) as f64,
            "ns",
        ),
        ("batch.scored", scored as f64, "count"),
        (
            "batch.warnings",
            traced.iter().map(|d| d.warnings_emitted()).sum::<u64>() as f64,
            "count",
        ),
        (
            "batch.resident",
            traced.iter().map(|d| d.resident_nodes()).sum::<usize>() as f64,
            "count",
        ),
        (
            "batch.evicted",
            traced.iter().map(|d| d.evicted_nodes()).sum::<u64>() as f64,
            "count",
        ),
        (
            "obs.tracing_ns_per_scored",
            (get("batch") - get("batch.untraced")) / scored.max(1) as f64,
            "ns",
        ),
        (
            "trace.layer_ns_per_line",
            (get("loggen.parse") + get("router") + get("batch")) / n,
            "ns",
        ),
    ])
}

/// Logparse over the replayed records: templating time, then the label
/// mix of the stream's templates. Returns the metrics and the number of
/// distinct nodes with a non-Safe line.
fn logparse_layer(
    records: &[LogRecord],
    tr: &mut Tracer,
) -> (Vec<(&'static str, f64, &'static str)>, usize) {
    const CHUNK: usize = 4096;
    let mut tmpl = String::new();
    for (chunk, part) in records.chunks(CHUNK).enumerate() {
        tr.span("logparse.template", None, chunk as u32, || {
            for r in part {
                extract_template_into(&r.text, &mut tmpl);
                black_box(&tmpl);
            }
        });
    }
    let mut labels: HashMap<String, bool> = HashMap::new();
    let mut safe_lines = 0usize;
    let mut scored_nodes: HashSet<NodeId> = HashSet::new();
    for r in records {
        extract_template_into(&r.text, &mut tmpl);
        let safe = match labels.get(tmpl.as_str()) {
            Some(&s) => s,
            None => {
                let s = label_template(&tmpl) == Label::Safe;
                labels.insert(tmpl.clone(), s);
                s
            }
        };
        if safe {
            safe_lines += 1;
        } else {
            scored_nodes.insert(r.node);
        }
    }
    let n = records.len() as f64;
    let selfs = tr.self_ns();
    (
        vec![
            (
                "logparse.template_ns_per_line",
                selfs["logparse.template"] as f64 / n,
                "ns",
            ),
            ("logparse.safe_share", safe_lines as f64 / n, "ratio"),
            ("logparse.distinct_templates", labels.len() as f64, "count"),
        ],
        scored_nodes.len(),
    )
}

/// Each `OnlineDetector::ingest` call of the `predict` path, timed.
fn online_layer(
    records: &[LogRecord],
    ckpt: &[u8],
    tr: &mut Tracer,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    const CHUNK: usize = 4096;
    let ck = decode_checkpoint(ckpt.to_vec())?;
    let mut det = OnlineDetector::with_telemetry(
        ck.model,
        ck.vocab,
        DeshConfig::default(),
        &Telemetry::disabled(),
    );
    det.attach_chains(&ck.chains);
    det.set_observe_scores(true);
    let mut total_ns = 0u64;
    let mut scored_us: Vec<f64> = Vec::new();
    for (chunk, part) in records.chunks(CHUNK).enumerate() {
        tr.span("online", None, chunk as u32, || {
            for r in part {
                let t = Instant::now();
                black_box(det.ingest(r));
                let ns = t.elapsed().as_nanos() as u64;
                total_ns += ns;
                if det.last_score().is_some() {
                    scored_us.push(ns as f64 / 1e3);
                }
            }
        });
    }
    let p50 = crate::score::quantile(&mut scored_us, 0.5);
    let p99 = crate::score::quantile(&mut scored_us, 0.99);
    Ok(vec![
        (
            "online.ns_per_line",
            total_ns as f64 / records.len() as f64,
            "ns",
        ),
        ("online.score_us_p50", p50, "us"),
        ("online.score_us_p99", p99, "us"),
    ])
}

/// `batch_stage` + `batch_push_rows` at wave widths 1, 2 and 4, plus the
/// checkpoint's per-row arithmetic and weight footprint.
fn nn_layer(
    ckpt: &[u8],
    tr: &mut Tracer,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    const ROWS: usize = 60_000;
    /// Rows a slot advances before it is reset, like a short episode.
    const EPISODE: usize = 32;
    let ck = decode_checkpoint(ckpt.to_vec())?;
    let model: &LeadTimeModel = &ck.model;
    let vocab = model.vocab_size as u32;
    let mut out = Vec::new();
    for (w, name) in [
        (1, "nn.row_ns_w1"),
        (2, "nn.row_ns_w2"),
        (4, "nn.row_ns_w4"),
    ] {
        let mut batch = model.begin_batch(w);
        let rows: Vec<usize> = (0..w).collect();
        let mut scores = Vec::with_capacity(w);
        let waves = ROWS / w;
        let id = tr.open(name, None, 0);
        for k in 0..waves {
            if k % EPISODE == 0 {
                rows.iter().for_each(|&s| batch.reset_slot(s));
            }
            for &s in &rows {
                let phrase = (k * 7 + s * 3) as u32 % vocab;
                model.batch_stage(&mut batch, s, Micros(k as u64 * 20_000_000), phrase);
            }
            model.batch_push_rows(&mut batch, &rows, &mut scores);
            black_box(&scores);
        }
        tr.close(id);
        let span = &tr.spans[id];
        out.push((
            name,
            (span.end - span.start) as f64 / (waves * w) as f64,
            "ns",
        ));
    }
    let net = ck.model.net.f32().ok_or("served checkpoint is not f32")?;
    let (mut flops, mut bytes) = (0usize, 0usize);
    for p in net.net.params() {
        let (r, c) = (p.w.rows(), p.w.cols());
        // A weight matrix costs a multiply and an add per element per
        // row; a bias vector one add.
        flops += if r > 1 && c > 1 { 2 * r * c } else { r * c };
        bytes += r * c * std::mem::size_of::<f32>();
    }
    out.push(("nn.flops_per_row", flops as f64, "flop"));
    out.push(("nn.weight_bytes_per_wave", bytes as f64, "B"));
    Ok(out)
}

/// Mean cost of opening and closing one empty span.
fn span_cost() -> f64 {
    const N: usize = 200_000;
    let mut t = Tracer::new();
    t.spans.reserve(N);
    let start = Instant::now();
    for i in 0..N {
        let id = t.open("empty", None, i as u32);
        t.close(id);
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// Run every traced layer.
pub fn run(
    stream: &Stream,
    ckpt: &[u8],
    shape: &Shape,
    records: &[LogRecord],
    tr: &mut Tracer,
) -> Result<Layers, String> {
    let mut metrics = serve_layers(stream, ckpt, shape, tr)?;
    let layer_ns_per_line = metrics
        .iter()
        .find(|m| m.0 == "trace.layer_ns_per_line")
        .map(|m| m.1)
        .unwrap_or(f64::NAN);
    let (parse, nodes_scored) = logparse_layer(records, tr);
    metrics.extend(parse);
    metrics.extend(online_layer(records, ckpt, tr)?);
    metrics.extend(nn_layer(ckpt, tr)?);
    metrics.push(("trace.span_ns", span_cost(), "ns"));
    Ok(Layers {
        metrics,
        layer_ns_per_line,
        nodes_scored,
    })
}
