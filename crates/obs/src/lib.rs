//! Telemetry for the Desh pipeline.
//!
//! The paper's operational claims — per-event scoring in ~0.65 ms (Fig 10),
//! phase-level training cost, template-miss rates during parsing — are all
//! *measurements*, so reproducing them honestly needs a measurement layer
//! rather than ad-hoc `Instant::now()` calls scattered through binaries.
//!
//! This crate provides that layer with no external dependencies:
//!
//! - [`Registry`]: a thread-safe, name-keyed registry of [`Counter`]s,
//!   [`Gauge`]s, and log-scale [`LatencyHistogram`]s. All metric types are
//!   lock-free atomics once resolved; resolution (`registry.histogram("x")`)
//!   takes a lock and allocates, so hot paths resolve once and hold the
//!   `Arc` handle.
//! - [`Telemetry`]: the handle threaded through the pipeline. It is a
//!   cheap-clone `Option<Arc<Registry>>`; the disabled default makes every
//!   operation a no-op without branching deep into callee code, so
//!   instrumented library code costs nothing when nobody is listening.
//! - [`Span`] / [`Telemetry::span`]: scope-based wall-time measurement with
//!   thread-local nesting, recording into `span.<dotted.path>_us`
//!   histograms.
//! - Sinks: [`JsonlSink`] appends machine-readable event/snapshot lines,
//!   [`render_prometheus`] emits Prometheus text exposition, and
//!   [`render_summary`] prints a human-readable table (reusing
//!   [`desh_util::Histogram`] for distribution bars).
//!
//! Metric names are dotted lowercase (`online.score_latency_us`); the
//! Prometheus renderer maps dots to underscores. A `base[k=v,...]` name
//! suffix becomes Prometheus labels (`desh_base{k="v"}`), with label
//! values escaped per the text exposition format.
//!
//! On top of the metric layer sits the decision-tracing stack
//! (`desh-trace`):
//!
//! - [`TraceEvent`] / [`WarningRecord`] / [`WarningLog`] (`trace`): one
//!   wide event per scored log line and the evidence bundle shipped with
//!   each fired warning.
//! - [`FlightRecorder`] / [`NodeFlight`] (`flight`): lock-free per-node
//!   seqlock rings holding up to the last [`FLIGHT_CAPACITY`] decisions,
//!   allocated [`SEGMENT_SLOTS`] slots at a time and capped together at
//!   [`FLIGHT_BUDGET_BYTES`], plus [`install_panic_dump`] for post-mortem
//!   JSONL dumps.
//! - [`HttpServer`] / [`Introspection`] (`http`): a dependency-free
//!   blocking server exposing `/metrics`, `/healthz`, `/warnings`,
//!   `/nodes/<id>/flight`, and — when a runs directory is attached —
//!   `/runs` and `/runs/<id>/series`.
//! - [`QualityMonitor`] (`quality`): rolling confusion matrix, per-class
//!   lead-time tracking against the paper's Table 7, and a template-miss
//!   drift gauge.
//! - [`CaptureTap`] / [`CapsuleRecorder`] (`capsule`): sealed, checksummed
//!   `.dcap` incident captures — raw pre-trigger event rings, live decision
//!   trace words, checkpoint/backend/precision provenance — written on
//!   warning fire, SLO fast-burn, or panic, and replayed bit-exactly by
//!   `desh-core`'s replay engine.
//!
//! The serving-path observability layer (`profiler` + `history` + `slo`)
//! watches the predictor itself:
//!
//! - [`SpanProfiler`] (`profiler`): 1-in-N sampled per-event latency
//!   waterfalls across the fixed pipeline stages (parse → template →
//!   encode → cell-step → threshold → warn), feeding
//!   `profile.<surface>.<stage>_ns` histograms and a ring of recent full
//!   waterfalls served at `GET /profile`.
//! - [`MetricsHistory`] / [`HistorySampler`] (`history`): a ~15-minute
//!   ring of 1 Hz registry snapshots behind `GET /metrics/history`, so
//!   rate/p99-over-time queries work without an external scraper.
//! - [`SloEngine`] (`slo`): declarative SLOs with SRE-style multi-window
//!   burn-rate alerting over that ring, served at `GET /slo`; fast burn
//!   degrades `/healthz` to 503 and appends `slo_alert` JSONL records.
//!
//! The shadow-scoring layer (`shadow`) compares a candidate checkpoint
//! against the serving primary on the same live stream: [`ShadowMonitor`]
//! keeps warning agreement/confusion counters, per-class lead-time delta
//! histograms, and a score-divergence EWMA; [`ShadowLedger`] seals the
//! run as an auditable JSONL trail with both checkpoints' identities
//! pinned; and [`evaluate_gates`] turns the summary into a PASS/FAIL
//! promotion verdict against [`ShadowThresholds`], served at
//! `GET /shadow` and `GET /shadow/report` and rendered by
//! `desh-cli shadow report`.
//!
//! The training run ledger (`runs` + `timeseries` + `json`) persists one
//! directory per training run — manifest, append-only per-epoch series
//! with per-layer gradient stats, divergence dumps, and a final
//! `run.json` — and reads them back for `desh-cli runs list|show|diff`.

mod capsule;
mod flight;
mod history;
mod http;
mod json;
mod jsonl;
mod metrics;
mod profiler;
mod prom;
mod quality;
mod registry;
mod runs;
mod shadow;
mod slo;
mod snapshot;
mod span;
mod timeseries;
mod trace;

pub use capsule::{
    list_capsules, render_capsules_json, Capsule, CapsuleContext, CapsuleEvent, CapsuleMeta,
    CapsuleRecorder, CapsuleSummary, CaptureTap, NodeCapture, CAPSULE_MAGIC, CAPSULE_VERSION,
    CAPTURE_MAX_FILES, CAPTURE_RING, CAPTURE_WARNINGS,
};
pub use flight::{
    install_panic_dump, panic_dump_jsonl, panic_dump_path, FlightRecorder, NodeFlight,
    FLIGHT_BUDGET_BYTES, FLIGHT_CAPACITY, SEGMENT_SLOTS,
};
pub use history::{
    HistorySampler, MetricsHistory, DEFAULT_CAPACITY as HISTORY_CAPACITY,
    DEFAULT_RESOLUTION_MS as HISTORY_RESOLUTION_MS,
};
pub use http::{HealthInfo, HttpServer, Introspection};
pub use json::{parse_json, Json};
pub use jsonl::{JsonValue, JsonlSink};
pub use metrics::{Counter, Gauge, LatencyHistogram, LatencySnapshot};
pub use profiler::{
    render_profile_ascii, render_profile_json, sample_every_from_env, ActiveWaterfall,
    SpanProfiler, Waterfall, DEFAULT_SAMPLE_EVERY, DEFAULT_WATERFALL_RING, SAMPLE_EVERY_ENV,
};
pub use prom::{render_prometheus, render_summary};
pub use quality::QualityMonitor;
pub use registry::{Registry, Telemetry};
pub use runs::{
    fnv1a, list_runs, load_run, load_series, now_unix_ms, render_runs_json, DivergenceRecord,
    PhaseSummary, RunLedger, RunManifest, RunSummary,
};
pub use shadow::{
    evaluate_gates, load_shadow_ledger, render_shadow_report_json, render_shadow_report_table,
    GateResult, ObservedWarning, ShadowIdentity, ShadowLedger, ShadowLedgerDoc, ShadowMonitor,
    ShadowReport, ShadowSideSummary, ShadowSummary, ShadowThresholds, DEFAULT_SHADOW_SLACK_SECS,
};
pub use slo::{
    default_specs as default_slo_specs, AlertRecord, BurnPolicy, SloEngine, SloReport, SloSignal,
    SloSpec, SloStatus, WindowBurn,
};
pub use snapshot::Snapshot;
pub use span::Span;
pub use timeseries::{
    diff_series, parse_series, render_series_diff, EpochDiff, EpochRecord, LayerStat,
};
pub use trace::{TraceEvent, WarningLog, WarningRecord, DEFAULT_WARNINGS_LIMIT, TRACE_WORDS};
