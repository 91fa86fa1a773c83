//! Online (streaming) node-failure detection — the deployment mode the
//! paper motivates: "prediction has to be performed in real time, and
//! results have to be available prior to the actual failure" (§1).
//!
//! [`OnlineDetector`] consumes raw log records *as they arrive*, keeps a
//! small per-node buffer of recent anomaly-relevant events, and scores the
//! stream against the trained lead-time model incrementally: each node
//! carries the model's recurrent state (a [`LeadStream`]) across events,
//! so an arriving event costs exactly **one cell step per layer** — O(1),
//! DeepLog-style — instead of re-running the model over the whole buffer.
//! Events are gap-encoded (ΔT = seconds since the node's previous event),
//! which is append-only and therefore compatible with carried state; the
//! running mean of one-step prediction errors is the decision score. A
//! full re-scoring pass over the buffer happens only when the carried
//! state is missing (episode just started after a session gap, terminal,
//! or warning).
//!
//! When the model recognises a failure chain in progress, it emits a
//! [`Warning`] carrying the predicted remaining lead time (the model's own
//! predicted next-ΔT — this is the "in 2.5 minutes, node X is expected to
//! fail" output of §4.5) and the inferred failure class.
//!
//! One warning is emitted per episode: after warning, a node stays quiet
//! until its buffer resets (session gap elapses or a terminal arrives).
//! The buffer keeps the newest 64 events (`MAX_EPISODE_EVENTS`), so a
//! node that keeps talking inside its session gap holds bounded state.

use crate::chain::FailureChain;
use crate::classes::classify_templates;
use crate::config::DeshConfig;
use crate::explain::ChainMatcher;
use crate::phase2::{LeadStream, LeadTimeModel};
use desh_loggen::{DayClock, FailureClass, LineHead, LogRecord, NodeId};
use desh_logparse::{Class, Classifier, Vocab};
use desh_obs::{
    ActiveWaterfall, CapsuleEvent, CaptureTap, Counter, FlightRecorder, Gauge, LatencyHistogram,
    NodeCapture, NodeFlight, QualityMonitor, SpanProfiler, Telemetry, TraceEvent, WarningLog,
};
use desh_nn::WindowScratch;
use desh_util::{duration_us, Micros};
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Most events an episode buffer keeps; older ones are dropped (and
/// counted in `online.episode_trimmed`). Scores cannot change: carried
/// state is rebuilt only from a one-event buffer (after a reset, a
/// warning, or a new slot), and the lead prediction reads only the newest
/// `history` rows. Only the evidence, class and matched chain of longer
/// episodes see the cut.
pub(crate) const MAX_EPISODE_EVENTS: usize = 64;

/// Append `ev` to an episode buffer, dropping the oldest event once the
/// buffer holds [`MAX_EPISODE_EVENTS`]. Returns how many were dropped.
pub(crate) fn push_episode_event(events: &mut Vec<(Micros, u32)>, ev: (Micros, u32)) -> u64 {
    let trim = events.len() >= MAX_EPISODE_EVENTS;
    if trim {
        events.remove(0);
    }
    events.push(ev);
    trim as u64
}

/// A proactive warning for one node.
#[derive(Debug, Clone)]
pub struct Warning {
    /// Node expected to fail.
    pub node: NodeId,
    /// Time the warning was raised (time of the triggering event).
    pub at: Micros,
    /// Model-predicted remaining lead time, seconds.
    pub predicted_lead_secs: f64,
    /// Decision score (mean MSE, same units as the batch pipeline).
    pub score: f64,
    /// Failure class inferred from the buffered phrases.
    pub class: FailureClass,
    /// The phrase templates that triggered the warning, oldest first.
    pub evidence: Vec<String>,
    /// Index of the nearest trained failure chain (DTW over the same
    /// encoding phase 3 scores), when a chain set was attached via
    /// [`OnlineDetector::attach_chains`].
    pub matched_chain: Option<usize>,
    /// Normalised DTW distance to the matched chain.
    pub chain_distance: Option<f64>,
}

#[derive(Debug, Default)]
struct NodeState {
    /// Recent non-Safe events: (time, phrase id).
    events: Vec<(Micros, u32)>,
    /// Timestamp of this node's most recent event, for idle eviction.
    last_seen: Micros,
    /// A warning was already raised for the current episode.
    warned: bool,
    /// Carried model state for the current episode. `None` after any
    /// buffer reset (session gap, terminal, warning); rebuilt from the
    /// buffer on the next event — the full re-scoring fallback.
    stream: Option<LeadStream>,
    /// This node's flight ring, resolved lazily on first scored event
    /// (only when tracing is attached) and held so hot-path pushes skip
    /// the recorder's map lock. Weak, so a ring the recorder's budget
    /// evicts is freed; see [`Tracer::record`].
    flight: Weak<NodeFlight>,
    /// This node's incident-capture ring, resolved lazily like `flight`
    /// (only when a [`CaptureTap`] is attached).
    capture: Option<Arc<NodeCapture>>,
}

/// Decision-tracing sinks, attached via [`OnlineDetector::attach_tracing`]
/// (or the batched detector's). When absent (the default) the scoring
/// path does no trace work at all.
#[derive(Debug)]
pub(crate) struct Tracer {
    pub(crate) flight: Arc<FlightRecorder>,
    pub(crate) warnings: Arc<WarningLog>,
}

impl Tracer {
    /// Push `ev` into `node`'s ring and, when it fired `warning`, log the
    /// warning with its episode as evidence. `ring` is the node's held
    /// handle: upgraded for the push, and resolved again through the
    /// recorder when the ring was never resolved or has been evicted.
    pub(crate) fn record(
        &self,
        ring: &mut Weak<NodeFlight>,
        node: NodeId,
        ev: &TraceEvent,
        warning: Option<&Warning>,
    ) {
        let flight = ring.upgrade().unwrap_or_else(|| {
            let f = self.flight.node(&node.to_string());
            *ring = Arc::downgrade(&f);
            f
        });
        flight.push(ev);
        if let Some(w) = warning {
            // The episode ends with the event just pushed, whose `warned`
            // flag is set.
            self.warnings
                .push(crate::observe::warning_record(w, flight.episode()));
        }
    }
}

/// Pre-resolved metric handles for the per-event hot path: every update
/// below is a lock-free atomic op, no name lookup, no allocation.
#[derive(Debug)]
struct OnlineMetrics {
    /// `online.events` — non-Safe events ingested.
    events: Arc<Counter>,
    /// `online.warnings` — warnings emitted.
    warnings: Arc<Counter>,
    /// `online.score_latency_us` — wall time of one buffer scoring pass
    ///   (the paper's Fig 10 per-event cost, ≈0.65 ms on their hardware).
    score_latency: Arc<LatencyHistogram>,
    /// `online.buffered_events` — events currently buffered across nodes.
    buffered: Arc<Gauge>,
    /// `online.resident_nodes` — node states currently held in memory.
    resident: Arc<Gauge>,
    /// `online.evicted_nodes` — idle node states dropped by the sweeper.
    evicted: Arc<Counter>,
    /// `online.episode_trimmed` — events dropped by the episode cap.
    episode_trimmed: Arc<Counter>,
}

/// Idle-state eviction policy: a fleet intake sees an unbounded node-id
/// space, so per-node state must not grow forever. With the default TTL
/// (the session gap) eviction is observationally invisible on
/// time-ordered streams — any evicted node was idle past the gap, so its
/// next event would have reset the buffer, warned flag, and carried
/// stream anyway.
#[derive(Debug, Clone)]
pub struct EvictionPolicy {
    /// Evict a node once idle longer than this many seconds. Values below
    /// the session gap can drop buffered context a gap reset would have
    /// kept; at or above it, the warning stream is unchanged.
    pub ttl_secs: f64,
    /// Hard cap on resident node states; beyond it the sweep drops the
    /// longest-idle nodes first (LRU), regardless of TTL.
    pub max_nodes: usize,
    /// Sweep cadence, in ingested (non-Safe) events.
    pub sweep_every: u64,
}

impl EvictionPolicy {
    /// Default policy for a given session gap: TTL exactly the gap (so
    /// eviction never changes decisions), a generous resident cap, and a
    /// sweep every few thousand events.
    pub(crate) fn for_gap(session_gap_secs: f64) -> Self {
        Self {
            ttl_secs: session_gap_secs,
            max_nodes: 65_536,
            sweep_every: 4096,
        }
    }
}

/// Streaming detector wrapping a trained [`LeadTimeModel`].
#[derive(Debug)]
pub struct OnlineDetector {
    model: LeadTimeModel,
    cfg: DeshConfig,
    /// Safe / phrase-id verdict per line, memoised per template; its
    /// vocabulary is the one warnings render evidence from.
    classifier: Classifier,
    nodes: HashMap<NodeId, NodeState>,
    warnings_emitted: u64,
    events_seen: u64,
    /// Running total of buffered events (kept incrementally so the gauge
    /// update stays O(1) per event).
    buffered_total: u64,
    /// Idle-state eviction policy (see [`EvictionPolicy`]).
    eviction: EvictionPolicy,
    /// Non-Safe events ingested since the last eviction sweep.
    since_sweep: u64,
    /// High-water mark of record timestamps, the sweep's notion of "now".
    clock: Micros,
    /// Total node states evicted so far.
    evicted_nodes: u64,
    /// Events dropped by the [`MAX_EPISODE_EVENTS`] cap so far.
    episode_trimmed: u64,
    metrics: Option<OnlineMetrics>,
    /// Decision-trace sinks; `None` (default) keeps the hot path trace-free.
    tracer: Option<Tracer>,
    /// Trained chains, pre-encoded, for naming the matched chain in
    /// warnings. Empty when no chains were attached.
    chains: ChainMatcher,
    /// Buffers for each warning's lead-window prediction.
    window: WindowScratch,
    /// Vocabulary size at construction: any later-interned phrase id is a
    /// template the model never trained on (the drift signal).
    train_vocab: u32,
    /// Template-drift monitor (shares the telemetry registry).
    quality: Option<QualityMonitor>,
    /// Sampled span profiler; `None` (default) keeps the hot path at a
    /// single `Option` check per event.
    profiler: Option<Arc<SpanProfiler>>,
    /// Incident-capture tap; `None` (default) keeps the scoring path free
    /// of capture work. When attached, every non-Safe ingested event —
    /// including unscored terminal and post-warning quiet events, which
    /// still move buffer state — lands in the tap's per-node ring.
    capture: Option<Arc<CaptureTap>>,
    /// When set, each ingest publishes the event's decision score through
    /// [`OnlineDetector::last_score`] — the shadow-scoring layer's feed.
    /// Off (default) the scoring path pays one bool check; either way the
    /// decision stream is bit-identical (the probe only reads state).
    observe_scores: bool,
    /// The most recent ingest's decision score (mean MSE, same units as
    /// warning scores), when the event was scored and
    /// `observe_scores` is on.
    last_score: Option<f64>,
    /// Day reconstruction for [`OnlineDetector::ingest_line`]'s stream.
    day_clock: DayClock,
}

/// Stage indices for the online serving waterfall, in pipeline order.
/// These index [`OnlineDetector::PROFILE_STAGES`] and the per-stage
/// histograms of an attached [`SpanProfiler`].
const STAGE_PARSE: usize = 0;
const STAGE_TEMPLATE: usize = 1;
const STAGE_ENCODE: usize = 2;
const STAGE_CELL_STEP: usize = 3;
const STAGE_THRESHOLD: usize = 4;
const STAGE_WARN: usize = 5;

impl OnlineDetector {
    /// Build from a trained model and the training vocabulary (phrase ids
    /// must match what the model was trained on). Telemetry is disabled;
    /// use [`OnlineDetector::with_telemetry`] to record metrics.
    pub fn new(model: LeadTimeModel, vocab: Arc<Vocab>, cfg: DeshConfig) -> Self {
        Self::with_telemetry(model, vocab, cfg, &Telemetry::disabled())
    }

    /// [`OnlineDetector::new`] recording into a telemetry registry:
    /// `online.events` / `online.warnings` counters, the
    /// `online.score_latency_us` per-event scoring-latency histogram, and
    /// the `online.buffered_events` occupancy gauge. Handles are resolved
    /// once here so `ingest` never touches the registry lock. The static
    /// `nn.kernel_backend` gauge identifies the scoring substrate (the
    /// [`desh_nn::Backend::code`] of the dispatched SIMD backend).
    pub fn with_telemetry(
        model: LeadTimeModel,
        vocab: Arc<Vocab>,
        cfg: DeshConfig,
        telemetry: &Telemetry,
    ) -> Self {
        let metrics = telemetry.registry().map(|r| {
            r.gauge("nn.kernel_backend")
                .set(desh_nn::kernel_backend().code() as f64);
            OnlineMetrics {
                events: r.counter("online.events"),
                warnings: r.counter("online.warnings"),
                score_latency: r.histogram("online.score_latency_us"),
                buffered: r.gauge("online.buffered_events"),
                resident: r.gauge("online.resident_nodes"),
                evicted: r.counter("online.evicted_nodes"),
                episode_trimmed: r.counter("online.episode_trimmed"),
            }
        });
        let train_vocab = vocab.len() as u32;
        let eviction = EvictionPolicy::for_gap(cfg.episodes.session_gap_secs);
        Self {
            model,
            cfg,
            classifier: Classifier::with_telemetry(vocab, telemetry),
            nodes: HashMap::new(),
            warnings_emitted: 0,
            events_seen: 0,
            buffered_total: 0,
            eviction,
            since_sweep: 0,
            clock: Micros(0),
            evicted_nodes: 0,
            episode_trimmed: 0,
            metrics,
            tracer: None,
            chains: ChainMatcher::default(),
            window: WindowScratch::new(),
            train_vocab,
            quality: QualityMonitor::new(telemetry),
            profiler: None,
            capture: None,
            observe_scores: false,
            last_score: None,
            day_clock: DayClock::new(),
        }
    }

    /// The fixed stage list of the online serving waterfall, in the order
    /// an event flows through [`OnlineDetector::ingest_line`]. Build the
    /// profiler to attach with exactly these stages.
    pub const PROFILE_STAGES: [&'static str; 6] = [
        "parse",
        "template",
        "encode",
        "cell_step",
        "threshold",
        "warn",
    ];

    /// Attach a sampled span profiler built over
    /// [`OnlineDetector::PROFILE_STAGES`]. Unsampled events pay one
    /// atomic increment; without this call the scoring path pays one
    /// `Option` check.
    pub fn attach_profiler(&mut self, profiler: Arc<SpanProfiler>) {
        assert_eq!(
            profiler.stage_names().len(),
            Self::PROFILE_STAGES.len(),
            "profiler stage list must match OnlineDetector::PROFILE_STAGES"
        );
        self.profiler = Some(profiler);
    }

    /// Attach decision tracing: every scored event lands in `flight`'s
    /// per-node ring, and each fired warning (with its episode's traces
    /// as evidence) is pushed to `warnings`. Without this call the scoring
    /// path never touches either.
    pub fn attach_tracing(&mut self, flight: Arc<FlightRecorder>, warnings: Arc<WarningLog>) {
        self.tracer = Some(Tracer { flight, warnings });
    }

    /// Attach an incident-capture tap: every non-Safe ingested event is
    /// recorded into the tap's per-node ring — raw line, assigned phrase
    /// id, episode-reset marker, and (for scored events) the decision
    /// trace words — and every fired warning is pushed as a capture-side
    /// warning record. This is the feed a `CapsuleRecorder` seals into
    /// `.dcap` files and the ground truth bit-exact replay compares
    /// against. Capture is observation-only: decisions are unchanged.
    pub fn attach_capture(&mut self, tap: Arc<CaptureTap>) {
        self.capture = Some(tap);
    }

    /// Attach the trained failure chains so warnings can name the nearest
    /// chain (index into `chains` + DTW distance). Chains are encoded once
    /// here; the per-warning cost is at most one DTW pass per chain, paid
    /// only when a warning actually fires.
    pub fn attach_chains(&mut self, chains: &[FailureChain]) {
        self.chains = ChainMatcher::new(chains, &self.model);
    }

    /// Publish per-event decision scores through
    /// [`OnlineDetector::last_score`]. Observation-only: decisions and
    /// their bit patterns are unchanged either way.
    pub fn set_observe_scores(&mut self, on: bool) {
        self.observe_scores = on;
        if !on {
            self.last_score = None;
        }
    }

    /// The decision score (mean MSE) of the most recent `ingest`, when
    /// score observation is on and the event was actually scored (`None`
    /// for Safe-filtered, terminal, and post-warning quiet events).
    pub fn last_score(&self) -> Option<f64> {
        self.last_score
    }

    /// Total events ingested (after Safe filtering).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Total warnings emitted.
    pub fn warnings_emitted(&self) -> u64 {
        self.warnings_emitted
    }

    /// Override the idle-state eviction policy (see [`EvictionPolicy`]
    /// for the defaults and the TTL-vs-gap safety argument).
    pub fn set_eviction(&mut self, policy: EvictionPolicy) {
        assert!(policy.sweep_every > 0, "sweep cadence must be non-zero");
        self.eviction = policy;
    }

    /// Node states currently resident in memory.
    pub fn resident_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total idle node states evicted so far.
    pub fn evicted_nodes(&self) -> u64 {
        self.evicted_nodes
    }

    /// Events dropped from episode buffers by the 64-event episode cap so
    /// far.
    pub fn episode_trimmed(&self) -> u64 {
        self.episode_trimmed
    }

    /// Drop node states idle past the TTL, then enforce the LRU cap.
    /// "Now" is the high-water mark of record timestamps, so wall-clock
    /// stalls in the feed never evict anything.
    fn sweep_idle_nodes(&mut self) {
        let ttl = Micros::from_secs_f64(self.eviction.ttl_secs);
        let clock = self.clock;
        let mut dropped_events = 0u64;
        let mut dropped_nodes = 0u64;
        self.nodes.retain(|_, s| {
            if clock.saturating_sub(s.last_seen) > ttl {
                dropped_events += s.events.len() as u64;
                dropped_nodes += 1;
                false
            } else {
                true
            }
        });
        if self.nodes.len() > self.eviction.max_nodes {
            // Over the hard cap even after the TTL pass: shed the
            // `excess` longest-idle nodes. Under node-id churn this runs
            // on every sweep, so select them in linear time rather than
            // sorting every resident node.
            let mut by_idle: Vec<(NodeId, Micros)> =
                self.nodes.iter().map(|(n, s)| (*n, s.last_seen)).collect();
            let excess = self.nodes.len() - self.eviction.max_nodes;
            by_idle.select_nth_unstable_by_key(excess - 1, |&(_, t)| t);
            for &(node, _) in &by_idle[..excess] {
                if let Some(s) = self.nodes.remove(&node) {
                    dropped_events += s.events.len() as u64;
                    dropped_nodes += 1;
                }
            }
        }
        self.buffered_total -= dropped_events;
        self.evicted_nodes += dropped_nodes;
        if let Some(m) = &self.metrics {
            m.buffered.set(self.buffered_total as f64);
            m.resident.set(self.nodes.len() as f64);
            if dropped_nodes > 0 {
                m.evicted.add(dropped_nodes);
            }
        }
    }

    /// Ingest one raw text line. Returns a warning if this line completed
    /// a recognisable failure-chain prefix; `None` for benign/ignored
    /// lines; `Err` for unparseable lines (which a deployment would count
    /// and skip). Successive lines form one stream whose 24 h clock is
    /// re-sequenced into absolute times, as `read_log_file` does. This is
    /// the surface whose waterfall includes the `parse` stage;
    /// [`OnlineDetector::ingest`] starts at `template`.
    pub fn ingest_line(&mut self, line: &str) -> Result<Option<Warning>, String> {
        let mut wf = self.profiler.as_ref().and_then(|p| p.begin());
        let head = self
            .day_clock
            .parse_head(line)
            .ok_or_else(|| format!("invalid log line: {line}"))?;
        if let Some(w) = wf.as_mut() {
            w.mark(STAGE_PARSE);
        }
        Ok(self.ingest_sampled(head, wf))
    }

    /// Ingest one structured record.
    pub fn ingest(&mut self, record: &LogRecord) -> Option<Warning> {
        let wf = self.profiler.as_ref().and_then(|p| p.begin());
        let head = LineHead {
            time: record.time,
            node: record.node,
            text: &record.text,
        };
        self.ingest_sampled(head, wf)
    }

    /// The per-event pipeline, optionally carrying a sampled waterfall
    /// whose marks bracket each stage. Safe-filtered events discard their
    /// waterfall unrecorded (they never reach the serving path proper);
    /// every other exit finishes it, and only waterfalls that reached
    /// `cell_step` enter the profiler's full-waterfall ring.
    fn ingest_sampled(
        &mut self,
        record: LineHead,
        mut wf: Option<ActiveWaterfall>,
    ) -> Option<Warning> {
        self.last_score = None;
        let Class::Event { phrase, terminal } = self.classifier.classify(record.text) else {
            return None;
        };
        if let Some(q) = &self.quality {
            // A phrase id at or past the training vocabulary size is a
            // template the model never saw — the drift signal.
            q.record_template(phrase >= self.train_vocab);
        }
        if let Some(w) = wf.as_mut() {
            w.set_at_us(record.time.0);
            w.mark(STAGE_TEMPLATE);
        }
        self.clock = self.clock.max(record.time);
        self.since_sweep += 1;
        if self.since_sweep >= self.eviction.sweep_every {
            self.since_sweep = 0;
            self.sweep_idle_nodes();
        }
        let state = self.nodes.entry(record.node).or_default();
        state.last_seen = record.time;

        // Session split: a long quiet gap starts a new episode. `dt_secs`
        // (ΔT to the previous buffered event, 0 at episode start) is kept
        // for the decision trace.
        let gap = Micros::from_secs_f64(self.cfg.episodes.session_gap_secs);
        let mut dt_secs = 0.0;
        if let Some(&(last, _)) = state.events.last() {
            if record.time.saturating_sub(last) > gap {
                self.buffered_total -= state.events.len() as u64;
                state.events.clear();
                state.warned = false;
                state.stream = None;
            } else {
                dt_secs = record.time.saturating_sub(last).as_secs_f64();
            }
        }
        // Whether this event starts a clean episode (buffer empty right
        // before the push). The capture tap records it because replay can
        // only begin at such a boundary: an episode joined mid-stream has
        // carried state a fresh detector cannot reproduce.
        let episode_reset = state.events.is_empty();
        let trimmed = push_episode_event(&mut state.events, (record.time, phrase));
        self.events_seen += 1;
        self.buffered_total += 1 - trimmed;
        self.episode_trimmed += trimmed;
        if let Some(m) = &self.metrics {
            m.events.inc();
            m.buffered.set(self.buffered_total as f64);
            if trimmed > 0 {
                m.episode_trimmed.add(trimmed);
            }
        }
        if let Some(w) = wf.as_mut() {
            w.mark(STAGE_ENCODE);
        }

        // A terminal message ends the episode — too late to warn.
        if terminal {
            self.buffered_total -= state.events.len() as u64;
            state.events.clear();
            state.warned = false;
            state.stream = None;
            if let Some(m) = &self.metrics {
                m.buffered.set(self.buffered_total as f64);
            }
            // Unscored, but it moved buffer state — capture it so replay
            // reproduces the reset.
            if let Some(tap) = &self.capture {
                Self::capture_event(tap, state, record, phrase, episode_reset, None);
            }
            if let (Some(p), Some(w)) = (&self.profiler, wf) {
                p.finish(w, Some(STAGE_CELL_STEP));
            }
            return None;
        }
        // Already warned for this episode: stay quiet until a reset. The
        // carried state was dropped at warning time, so nothing to advance.
        if state.warned {
            if let Some(tap) = &self.capture {
                Self::capture_event(tap, state, record, phrase, episode_reset, None);
            }
            if let (Some(p), Some(w)) = (&self.profiler, wf) {
                p.finish(w, Some(STAGE_CELL_STEP));
            }
            return None;
        }

        // From here on the event pays for model work — this is the
        // per-event cost the paper's Fig 10 reports (≈0.65 ms there).
        // The hot path advances the carried state by ONE cell step; the
        // full replay below only runs when an episode just (re)started.
        let t0 = self.metrics.as_ref().map(|_| Instant::now());
        let replayed = state.stream.is_none();
        let step_raw = match &mut state.stream {
            Some(ls) => self.model.stream_push(ls, record.time, phrase),
            None => {
                let mut ls = self.model.begin_stream();
                let mut last = None;
                for &(t, p) in &state.events {
                    last = self.model.stream_push(&mut ls, t, p);
                }
                state.stream = Some(ls);
                last
            }
        };
        if let Some(w) = wf.as_mut() {
            w.mark(STAGE_CELL_STEP);
        }
        let warning = Self::evaluate(
            &self.model,
            &self.cfg,
            self.classifier.vocab(),
            &mut self.chains,
            &mut self.window,
            state,
            record,
        );
        if let Some(w) = wf.as_mut() {
            w.mark(STAGE_THRESHOLD);
        }
        if let Some(m) = &self.metrics {
            m.score_latency.record(duration_us(t0.unwrap().elapsed()));
            if warning.is_some() {
                m.warnings.inc();
            }
        }
        // Score probe for the shadow layer: a pure read of the carried
        // aggregate, after the latency window closed, so neither the
        // decision stream nor the measured hot-path cost moves.
        if self.observe_scores {
            let unit = (self.model.vocab_size + 1) as f64 / 2.0 * self.cfg.phase3.score_scale;
            self.last_score = state
                .stream
                .as_ref()
                .and_then(|l| self.model.stream_mean(l))
                .map(|m| m * unit);
        }

        // Decision trace: a handful of atomic stores into the node's ring.
        // Skipped entirely (no branch below this one) when neither tracing
        // nor capture is attached, preserving the untraced hot-path latency.
        let trace_ev = if self.tracer.is_some() || self.capture.is_some() {
            let unit = (self.model.vocab_size + 1) as f64 / 2.0 * self.cfg.phase3.score_scale;
            let ls = state.stream.as_ref();
            Some(TraceEvent {
                at_us: record.time.0,
                phrase,
                dt_secs,
                step_mse: step_raw.map(|s| s * unit).unwrap_or(f64::NAN),
                mean_mse: ls
                    .and_then(|l| self.model.stream_mean(l))
                    .map(|m| m * unit)
                    .unwrap_or(f64::NAN),
                threshold: self.cfg.phase3.mse_threshold,
                transitions: ls.map(|l| l.transitions() as u32).unwrap_or(0),
                min_evidence: self.cfg.phase3.min_evidence as u32,
                replayed,
                warned: warning.is_some(),
                matched_chain: warning
                    .as_ref()
                    .and_then(|w| w.matched_chain)
                    .map(|c| c as i64)
                    .unwrap_or(-1),
            })
        } else {
            None
        };
        if let (Some(tr), Some(ev)) = (&self.tracer, &trace_ev) {
            tr.record(&mut state.flight, record.node, ev, warning.as_ref());
        }
        if let Some(tap) = &self.capture {
            Self::capture_event(
                tap,
                state,
                record,
                phrase,
                episode_reset,
                trace_ev.as_ref().map(|e| e.to_words()),
            );
            if let Some(w) = &warning {
                // The per-event trace words above already carry the full
                // decision history, so the sealed warning record travels
                // without its own trace copy.
                tap.record_warning(crate::observe::warning_record(w, Vec::new()));
            }
        }

        if warning.is_some() {
            state.warned = true;
            // The episode is done from a scoring perspective; free the
            // carried state (it is rebuilt if the node episodes again).
            state.stream = None;
            self.warnings_emitted += 1;
            if let Some(w) = wf.as_mut() {
                w.mark(STAGE_WARN);
            }
        }
        if let (Some(p), Some(w)) = (&self.profiler, wf) {
            p.finish(w, Some(STAGE_CELL_STEP));
        }
        warning
    }

    /// Record one ingested event into the node's incident-capture ring
    /// (resolving the ring lazily, like the flight ring). Static because
    /// the caller holds a mutable borrow of the node map.
    fn capture_event(
        tap: &Arc<CaptureTap>,
        state: &mut NodeState,
        record: LineHead,
        phrase: u32,
        reset: bool,
        trace: Option<[u64; desh_obs::TRACE_WORDS]>,
    ) {
        let ring = state
            .capture
            .get_or_insert_with(|| tap.node(&record.node.to_string()));
        ring.push(CapsuleEvent {
            seq: tap.next_seq(),
            at_us: record.time.0,
            node: record.node.to_string(),
            text: record.text.to_string(),
            phrase,
            reset,
            trace,
        });
    }

    /// Decide whether the node's running score crosses the warning
    /// threshold, and build the [`Warning`] if so. Reads the carried
    /// stream's aggregate — O(vocab) only, no model evaluation. Takes
    /// fields rather than `&self` because the caller holds a mutable
    /// borrow of the node map.
    fn evaluate(
        model: &LeadTimeModel,
        cfg: &DeshConfig,
        vocab: &Vocab,
        chains: &mut ChainMatcher,
        window: &mut WindowScratch,
        state: &NodeState,
        record: LineHead,
    ) -> Option<Warning> {
        let ls = state.stream.as_ref()?;
        evaluate_stream(
            model,
            cfg,
            vocab,
            chains,
            window,
            &state.events,
            ls.transitions(),
            model.stream_mean(ls),
            record.node,
            record.time,
        )
    }

    /// Render a warning the way the paper phrases it (§4.5), naming the
    /// matched trained chain when one was retrieved.
    pub fn format_warning(w: &Warning) -> String {
        format_warning_impl(w)
    }
}

/// The warning decision shared by the sequential [`OnlineDetector`] and
/// the wave-batched `BatchDetector`: threshold the stream aggregate
/// (`transitions`, `mean_raw` — a [`LeadStream`]'s or a batch slot's),
/// and on a hit pay for the full-buffer work over `events`. Keeping one
/// implementation is what makes "batched scoring matches sequential"
/// a statement about the cell-step kernels alone. `chains` and `window`
/// are the calling detector's reused warning-path buffers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_stream(
    model: &LeadTimeModel,
    cfg: &DeshConfig,
    vocab: &Vocab,
    chains: &mut ChainMatcher,
    window: &mut WindowScratch,
    events: &[(Micros, u32)],
    transitions: usize,
    mean_raw: Option<f64>,
    node: NodeId,
    at: Micros,
) -> Option<Warning> {
    if transitions < cfg.phase3.min_evidence {
        return None;
    }
    let unit = (model.vocab_size + 1) as f64 / 2.0 * cfg.phase3.score_scale;
    let score = mean_raw? * unit;
    if score > cfg.phase3.mse_threshold {
        return None;
    }

    // Chain recognised. Only now pay for the full-buffer work: the
    // countdown-encoded window (the batch pipeline's ΔT form) predicts
    // the remaining lead, and the evidence strings are materialised for
    // the report.
    let predicted_lead_secs = model.predict_lead(events, window);

    let evidence: Vec<String> = events
        .iter()
        .map(|&(_, p)| vocab.text(p).unwrap_or_default())
        .collect();
    let class = classify_templates(evidence.iter().cloned());
    // DTW retrieval against the attached chains, over the same countdown
    // ΔT as the lead window, in compact form. Paid only on the warning
    // path.
    let (matched_chain, chain_distance) = match chains.nearest(events) {
        Some((i, d)) => (Some(i), Some(d)),
        None => (None, None),
    };
    Some(Warning {
        node,
        at,
        predicted_lead_secs,
        score,
        class,
        evidence,
        matched_chain,
        chain_distance,
    })
}

/// Free-function body of [`OnlineDetector::format_warning`], shared with
/// the batched detector's surface.
fn format_warning_impl(w: &Warning) -> String {
    let mut line = format!(
        "In {:.1} seconds, node {} (cabinet {}-{}, chassis {}, slot {}) is expected to fail [{}]",
        w.predicted_lead_secs,
        w.node,
        w.node.cab_x,
        w.node.cab_y,
        w.node.chassis,
        w.node.slot,
        w.class.name()
    );
    if let (Some(c), Some(d)) = (w.matched_chain, w.chain_distance) {
        line.push_str(&format!(" — matched chain #{c} (dtw {d:.4})"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Desh;
    use desh_loggen::{generate, SystemProfile};

    fn trained_detector(seed: u64) -> (OnlineDetector, desh_loggen::Dataset) {
        let mut p = SystemProfile::tiny();
        p.failures = 30;
        p.nodes = 24;
        let d = generate(&p, seed);
        let (train, test) = d.split_by_time(0.3);
        let desh = Desh::new(DeshConfig::fast(), seed);
        let trained = desh.train(&train);
        let det = OnlineDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            desh.cfg.clone(),
        );
        (det, test)
    }

    #[test]
    fn warnings_precede_most_failures() {
        let (mut det, test) = trained_detector(301);
        let mut warned_nodes: Vec<(NodeId, Micros)> = Vec::new();
        for r in &test.records {
            if let Some(w) = det.ingest(r) {
                warned_nodes.push((w.node, w.at));
            }
        }
        assert!(det.warnings_emitted() > 0, "no warnings at all");
        // Most ground-truth failures should have a warning strictly before
        // the terminal on the same node.
        let mut hit = 0;
        for f in &test.failures {
            if warned_nodes.iter().any(|&(n, at)| {
                n == f.node && at < f.time && f.time.saturating_sub(at).as_mins_f64() < 10.0
            }) {
                hit += 1;
            }
        }
        let frac = hit as f64 / test.failures.len() as f64;
        assert!(
            frac > 0.5,
            "only {hit}/{} failures warned ahead",
            test.failures.len()
        );
    }

    #[test]
    fn one_warning_per_episode() {
        let (mut det, test) = trained_detector(302);
        let mut per_node_burst: HashMap<NodeId, u64> = HashMap::new();
        for r in &test.records {
            if let Some(w) = det.ingest(r) {
                *per_node_burst.entry(w.node).or_default() += 1;
            }
        }
        // Warnings per node bounded by its episodes: with 30 failures on 24
        // nodes, no node should scream dozens of times.
        for (node, count) in per_node_burst {
            assert!(count <= 8, "node {node} warned {count} times");
        }
    }

    #[test]
    fn warnings_report_positive_leads_and_classes() {
        let (mut det, test) = trained_detector(303);
        for r in &test.records {
            if let Some(w) = det.ingest(r) {
                assert!(w.predicted_lead_secs >= 0.0 && w.predicted_lead_secs.is_finite());
                assert!(!w.evidence.is_empty());
                let line = OnlineDetector::format_warning(&w);
                assert!(line.contains("expected to fail"), "{line}");
                assert!(line.contains(&w.node.to_string()), "{line}");
            }
        }
    }

    #[test]
    fn ingest_line_round_trip_and_errors() {
        let (mut det, test) = trained_detector(304);
        let line = test.records[0].to_raw_line();
        det.ingest_line(&line).expect("generator lines parse");
        assert!(det.ingest_line("not a log line").is_err());
    }

    #[test]
    fn telemetry_captures_scoring_latency_and_occupancy() {
        let mut p = SystemProfile::tiny();
        p.failures = 30;
        p.nodes = 24;
        let d = generate(&p, 306);
        let (train, test) = d.split_by_time(0.3);
        let desh = Desh::new(DeshConfig::fast(), 306);
        let trained = desh.train(&train);
        let t = Telemetry::enabled();
        let mut det = OnlineDetector::with_telemetry(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            desh.cfg.clone(),
            &t,
        );
        for r in &test.records {
            det.ingest(r);
        }
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counter("online.events"), Some(det.events_seen()));
        assert_eq!(
            snap.counter("online.warnings"),
            Some(det.warnings_emitted())
        );
        assert!(det.warnings_emitted() > 0);
        let lat = snap.histogram("online.score_latency_us").unwrap();
        assert!(lat.count() > 0, "no scoring passes recorded");
        assert!(lat.quantile(0.99) > 0.0);
        let occ = snap.gauge("online.buffered_events").unwrap();
        assert!(occ >= 0.0);
        // The incremental occupancy total matches a direct recount.
        let direct: u64 = det.nodes.values().map(|s| s.events.len() as u64).sum();
        assert_eq!(det.buffered_total, direct);
    }

    #[test]
    fn incremental_scores_match_batch_replay() {
        // Replay the same records through the detector and, after each
        // scored event, recompute the node's score from scratch over its
        // whole buffer. The carried-state aggregate must agree with the
        // O(n²) batch recomputation to float tolerance.
        let (mut det, test) = trained_detector(307);
        let mut checked = 0usize;
        for r in &test.records {
            det.ingest(r);
            let Some(state) = det.nodes.get(&r.node) else {
                continue;
            };
            let Some(ls) = &state.stream else { continue };
            if ls.transitions() == 0 {
                continue;
            }
            let incremental = det.model.stream_mean(ls).unwrap();
            let batch = det.model.score_events_batch(&state.events);
            assert_eq!(batch.len(), ls.transitions(), "transition count drifted");
            let batch_mean = batch.iter().sum::<f64>() / batch.len() as f64;
            assert!(
                (incremental - batch_mean).abs() < 1e-5,
                "incremental {incremental} vs batch {batch_mean} after {} events",
                state.events.len()
            );
            checked += 1;
            if checked >= 500 {
                break;
            }
        }
        assert!(checked >= 50, "replay only compared {checked} states");
    }

    #[test]
    fn tracing_records_decisions_and_warning_evidence() {
        let mut p = SystemProfile::tiny();
        p.failures = 30;
        p.nodes = 24;
        let d = generate(&p, 308);
        let (train, test) = d.split_by_time(0.3);
        let desh = Desh::new(DeshConfig::fast(), 308);
        let trained = desh.train(&train);
        let mut det = OnlineDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            desh.cfg.clone(),
        );
        det.attach_chains(&trained.phase1.chains);
        let flight = Arc::new(FlightRecorder::new());
        let warnings = Arc::new(WarningLog::new(64));
        det.attach_tracing(Arc::clone(&flight), Arc::clone(&warnings));

        let mut fired: Vec<Warning> = Vec::new();
        for r in &test.records {
            if let Some(w) = det.ingest(r) {
                fired.push(w);
            }
        }
        assert!(!fired.is_empty(), "no warnings fired");
        assert_eq!(warnings.len() as u64, det.warnings_emitted().min(64));

        // Every scored event left a trace; totals across rings match the
        // detector's own event count.
        let total: u64 = flight
            .node_names()
            .iter()
            .map(|n| flight.get(n).unwrap().total())
            .sum();
        assert!(total > 0);

        // A fired warning's record carries the same verdict fields that
        // format_warning reports, plus per-step MSEs in its trace.
        let records = warnings.snapshot();
        let (w, rec) = fired
            .iter()
            .find_map(|w| {
                records
                    .iter()
                    .find(|r| r.node == w.node.to_string() && r.at_us == w.at.0)
                    .map(|r| (w, r))
            })
            .expect("warning has a matching record");
        let line = OnlineDetector::format_warning(w);
        assert_eq!(rec.class, w.class.name());
        let chain = w.matched_chain.expect("chains attached");
        assert_eq!(rec.matched_chain, chain as i64);
        assert!(line.contains(&format!("matched chain #{chain}")), "{line}");
        assert!(!rec.trace.is_empty(), "warning shipped without trace");
        let last = rec.trace.last().unwrap();
        assert!(last.warned, "final trace event should be the firing one");
        assert_eq!(last.matched_chain, chain as i64);
        assert!(
            rec.trace.iter().any(|t| t.step_mse.is_finite()),
            "no per-step MSEs in trace"
        );
        assert!(
            (last.mean_mse - w.score).abs() < 1e-9,
            "trace mean {} vs warning score {}",
            last.mean_mse,
            w.score
        );
        let jsonl = rec.to_json();
        assert!(jsonl.contains("\"step_mse\":"));
        assert!(jsonl.contains(&format!("\"matched_chain\":{chain}")));

        // Trace events alternate replay (episode start) and carried paths.
        let any_replay = flight
            .node_names()
            .iter()
            .flat_map(|n| flight.get(n).unwrap().snapshot())
            .any(|t| t.replayed);
        assert!(any_replay, "no replay-path events traced");
    }

    #[test]
    fn untraced_detector_behaves_identically() {
        // Tracing must be observation-only: the warning stream with and
        // without tracing attached is identical.
        let (mut plain, test) = trained_detector(309);
        let (mut traced, _) = trained_detector(309);
        traced.attach_tracing(
            Arc::new(FlightRecorder::new()),
            Arc::new(WarningLog::new(16)),
        );
        for r in &test.records {
            let a = plain.ingest(r);
            let b = traced.ingest(r);
            assert_eq!(
                a.is_some(),
                b.is_some(),
                "warning divergence at {:?}",
                r.time
            );
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.score, b.score);
            }
        }
    }

    #[test]
    fn profiler_waterfalls_cover_stages_without_changing_decisions() {
        let (mut plain, test) = trained_detector(311);
        let (mut profiled, _) = trained_detector(311);
        let t = Telemetry::enabled();
        let profiler = SpanProfiler::new(
            t.registry().unwrap(),
            "online",
            &OnlineDetector::PROFILE_STAGES,
            4,
            16,
        );
        profiled.attach_profiler(Arc::clone(&profiler));
        for r in &test.records {
            let a = plain.ingest(r);
            let b = profiled.ingest(r);
            assert_eq!(a.is_some(), b.is_some(), "profiling changed a decision");
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.score, b.score);
            }
        }
        assert!(profiled.warnings_emitted() > 0);
        assert!(profiler.sampled() > 0, "no events sampled");
        let falls = profiler.waterfalls();
        assert!(!falls.is_empty(), "no full waterfalls retained");
        for w in &falls {
            // Only waterfalls that reached the model step enter the ring,
            // and every stage before it must have been marked too.
            assert!(w.is_marked(STAGE_TEMPLATE) && w.is_marked(STAGE_ENCODE));
            assert!(w.is_marked(STAGE_CELL_STEP));
            assert!(w.at_us > 0, "event timestamp not attached");
        }
        let snap = t.snapshot().unwrap();
        let steps = snap.histogram("profile.online.cell_step_ns").unwrap();
        assert!(steps.count() > 0);
        assert!(
            snap.histogram("profile.online.threshold_ns")
                .unwrap()
                .count()
                > 0,
            "threshold stage never recorded"
        );
        // ingest() starts at the template stage; parse is only marked on
        // the ingest_line surface.
        assert_eq!(
            snap.histogram("profile.online.parse_ns").unwrap().count(),
            0
        );
    }

    #[test]
    fn ingest_line_waterfalls_include_the_parse_stage() {
        let (mut det, test) = trained_detector(312);
        let t = Telemetry::enabled();
        let profiler = SpanProfiler::new(
            t.registry().unwrap(),
            "online",
            &OnlineDetector::PROFILE_STAGES,
            1,
            8,
        );
        det.attach_profiler(Arc::clone(&profiler));
        for r in test.records.iter().take(500) {
            det.ingest_line(&r.to_raw_line()).unwrap();
        }
        let snap = t.snapshot().unwrap();
        let parse = snap.histogram("profile.online.parse_ns").unwrap();
        assert!(parse.count() > 0, "parse stage never recorded");
        // Safe-filtered events discard their waterfall: fewer recorded
        // samples than lines seen.
        assert!(profiler.sampled() <= profiler.events_seen());
    }

    #[test]
    fn quality_monitor_tracks_template_drift() {
        let (mut det, test) = trained_detector(310);
        let t = Telemetry::enabled();
        det.quality = QualityMonitor::new(&t);
        for r in test.records.iter().take(200) {
            det.ingest(r);
        }
        // Feed a template the training vocabulary has never seen.
        for i in 0..64 {
            let r = LogRecord::new(
                test.records[0].time + Micros::from_secs_f64(0.1 * i as f64),
                NodeId::from_index(0),
                "totally novel firmware fault string",
            );
            det.ingest(&r);
        }
        let s = t.snapshot().unwrap();
        assert!(s.counter("quality.template_events").unwrap() > 0);
        assert!(s.counter("quality.template_miss").unwrap() >= 64);
        assert!(s.gauge("quality.template_drift").unwrap() > 0.0);
    }

    #[test]
    fn safe_traffic_is_ignored() {
        let (mut det, _) = trained_detector(305);
        let before = det.events_seen();
        let r = LogRecord::new(Micros(1), NodeId::from_index(0), "Wait4Boot");
        assert!(det.ingest(&r).is_none());
        assert_eq!(
            det.events_seen(),
            before,
            "Safe events must not enter buffers"
        );
    }

    #[test]
    fn idle_eviction_is_invisible_to_the_warning_stream() {
        // A default-TTL (session gap) sweep at maximum cadence must evict
        // idle nodes without changing a single warning: every evicted node
        // was idle past the gap, so its next event would have reset the
        // buffer anyway.
        let (mut plain, test) = trained_detector(313);
        let (mut sweeping, _) = trained_detector(313);
        let mut policy = EvictionPolicy::for_gap(plain.cfg.episodes.session_gap_secs);
        policy.sweep_every = 1;
        sweeping.set_eviction(policy);
        for r in &test.records {
            let a = plain.ingest(r);
            let b = sweeping.ingest(r);
            assert_eq!(
                a.is_some(),
                b.is_some(),
                "warning divergence at {:?}",
                r.time
            );
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.score, b.score);
                assert_eq!(a.predicted_lead_secs, b.predicted_lead_secs);
            }
        }
        assert!(sweeping.evicted_nodes() > 0, "no idle node ever evicted");
        assert!(sweeping.resident_nodes() <= plain.resident_nodes());
        // Incremental occupancy accounting survives the evictions.
        let direct: u64 = sweeping.nodes.values().map(|s| s.events.len() as u64).sum();
        assert_eq!(sweeping.buffered_total, direct);
    }

    #[test]
    fn lru_cap_bounds_resident_nodes() {
        let (mut det, test) = trained_detector(314);
        det.set_eviction(EvictionPolicy {
            ttl_secs: f64::INFINITY,
            max_nodes: 4,
            sweep_every: 1,
        });
        let t = Telemetry::enabled();
        let r = t.registry().unwrap();
        det.metrics = Some(OnlineMetrics {
            events: r.counter("online.events"),
            warnings: r.counter("online.warnings"),
            score_latency: r.histogram("online.score_latency_us"),
            buffered: r.gauge("online.buffered_events"),
            resident: r.gauge("online.resident_nodes"),
            evicted: r.counter("online.evicted_nodes"),
            episode_trimmed: r.counter("online.episode_trimmed"),
        });
        // Each node's last scored-path time, as the detector stamps it.
        let mut seen: HashMap<NodeId, Micros> = HashMap::new();
        for rec in &test.records {
            let before = det.events_seen();
            det.ingest(rec);
            if det.events_seen() > before {
                seen.insert(rec.node, rec.time);
            }
            // The sweep runs before the current node is (re)inserted, so
            // the map holds at most cap + 1 states at any instant.
            assert!(
                det.resident_nodes() <= 5,
                "cap breached: {}",
                det.resident_nodes()
            );
            // The survivors are the most recently seen nodes: no evicted
            // node was seen after a resident one.
            let oldest_resident = det.nodes.keys().map(|n| seen[n]).min();
            let newest_evicted = seen
                .iter()
                .filter(|(n, _)| !det.nodes.contains_key(n))
                .map(|(_, &t)| t)
                .max();
            if let (Some(r), Some(e)) = (oldest_resident, newest_evicted) {
                assert!(e <= r, "evicted a node seen at {e:?}, kept one seen at {r:?}");
            }
        }
        assert!(det.evicted_nodes() > 0);
        let snap = t.snapshot().unwrap();
        assert_eq!(
            snap.counter("online.evicted_nodes"),
            Some(det.evicted_nodes())
        );
        let resident = snap.gauge("online.resident_nodes").unwrap();
        assert!((1.0..=5.0).contains(&resident), "gauge {resident}");
    }
}
