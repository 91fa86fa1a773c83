//! Wave-batched streaming detection: the fleet-scale twin of
//! [`OnlineDetector`](crate::online::OnlineDetector).
//!
//! One [`BatchDetector`] serves one intake shard. Each resident node's
//! carried scoring state lives as a fixed *slot* (row) of a shared
//! [`LeadBatch`], so cell steps staged by different nodes advance
//! together through the row-wise batched kernels — one GEMV per staged
//! row, amortizing weight-matrix traffic across the wave — instead of
//! one full `step_infer` dispatch per event.
//!
//! **Bit-exactness contract.** The batched path must be indistinguishable
//! from running the sequential detector per node (test-gated, and what
//! makes capsules captured under batching replay bit-exactly through the
//! sequential replayer). Three mechanisms carry that:
//!
//! * Row-wise kernels: every staged row goes through the *same* GEMV
//!   kernel a batch-of-1 `step_infer` dispatches to, in the same f32
//!   accumulation order (`desh_nn::Mat::matmul_row_into`). The packed
//!   multi-row GEMM microkernel, whose accumulation order differs, is
//!   deliberately not used.
//! * Record-order waves: events are processed in arrival order; a wave
//!   accumulates at most one staged scoring event per node, and a second
//!   event for an already-staged node *cuts* the wave (batch-steps it,
//!   walks the deferred bookkeeping) before proceeding. Evaluation,
//!   tracing, and capture are deferred into that in-order walk, so
//!   capture sequence numbers — the global order bit-exact replay
//!   compares — match the sequential detector's exactly.
//! * Shared decision code: thresholding and warning construction call
//!   the same [`evaluate_stream`] the sequential detector uses.
//!
//! Throughput comes from the batching *and* from the preprocessing fast
//! path: zero-alloc templating ([`extract_template_into`]) plus a
//! template→(phrase, label, terminal) memo that collapses the per-event
//! label/intern/terminal work to one hash probe for every template seen
//! before.

use crate::chain::FailureChain;
use crate::config::DeshConfig;
use crate::explain::ChainMatcher;
use crate::online::{evaluate_stream, push_episode_event, EvictionPolicy, Tracer, Warning};
use crate::phase2::{LeadBatch, LeadTimeModel};
use crate::shadow::ShadowScorer;
use desh_loggen::{Label, LogRecord, NodeId};
use desh_logparse::{extract_template_into, is_failure_terminal, label_template, Vocab};
use desh_obs::{
    CapsuleEvent, CaptureTap, Counter, FlightRecorder, LatencyHistogram, NodeCapture, NodeFlight,
    QualityMonitor, Telemetry, TraceEvent, WarningLog,
};
use desh_nn::WindowScratch;
use desh_util::Micros;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Cached per-template preprocessing verdict. Safe templates are *not*
/// interned (the sequential path returns before interning them), so the
/// memo must record safety without consuming a phrase id.
#[derive(Debug, Clone, Copy)]
struct TemplateInfo {
    phrase: u32,
    safe: bool,
    terminal: bool,
}

/// Memo capacity: templates are mined down to a few hundred distinct
/// strings in practice, so the cap only guards against template-cardinality
/// blowup (e.g. a miner regression). Past it, misses fall back to the
/// uncached label/intern path — same results, slower.
const MEMO_CAP: usize = 4096;

/// Per-slot node state: the sequential detector's `NodeState` with the
/// carried stream replaced by slot residency in the shared [`LeadBatch`].
#[derive(Debug)]
struct SlotState {
    node: NodeId,
    /// Recent non-Safe events: (time, phrase id).
    events: Vec<(Micros, u32)>,
    /// A warning was already raised for the current episode.
    warned: bool,
    /// The slot's batch row carries live recurrent state. False after any
    /// buffer reset; the row is re-zeroed and the buffer replayed on the
    /// node's next scored event.
    has_stream: bool,
    /// Timestamp of this node's most recent event, for idle eviction.
    last_seen: Micros,
    /// The current wave holds a staged (not yet stepped) sample for this
    /// slot. A second event for the node while staged cuts the wave.
    staged: bool,
    /// Raw one-step MSE from the wave step, parked here between the
    /// batch step and the deferred in-order walk.
    step_raw: Option<f64>,
}

impl SlotState {
    fn new(node: NodeId) -> Self {
        Self {
            node,
            events: Vec::new(),
            warned: false,
            has_stream: false,
            last_seen: Micros(0),
            staged: false,
            step_raw: None,
        }
    }
}

/// In-order bookkeeping deferred from staging time to the post-step walk.
/// `rec` indexes the chunk being ingested; all fields are plain values so
/// the walk borrows nothing from the staging pass.
#[derive(Debug, Clone, Copy)]
enum Deferred {
    /// A scored event: evaluate, trace, capture after the wave step.
    Scored {
        slot: usize,
        rec: usize,
        phrase: u32,
        dt_secs: f64,
        episode_reset: bool,
        replayed: bool,
    },
    /// A terminal or post-warning quiet event: unscored, but its capture
    /// must land in global record order, so it walks with the wave.
    Silent {
        rec: usize,
        phrase: u32,
        episode_reset: bool,
    },
}

/// A node's flight and capture rings, resolved lazily from the recorder
/// and the tap on the node's first traced or captured event. Held per
/// node rather than per slot, so a node that loses its slot and comes
/// back finds its rings with one hash probe instead of a recorder
/// lookup by name. The flight handle is weak: it does not keep a ring
/// the recorder's budget evicted, and the idle sweep prunes entries
/// whose ring is gone.
#[derive(Debug, Default)]
struct NodeRings {
    flight: Weak<NodeFlight>,
    capture: Option<Arc<NodeCapture>>,
}

/// Pre-resolved metric handles for the hot path.
#[derive(Debug)]
struct BatchMetrics {
    /// `online.events` — shared with the sequential detector; counters
    /// add, so multiple shards on one registry sum naturally.
    events: Arc<Counter>,
    /// `online.warnings`.
    warnings: Arc<Counter>,
    /// `ingest.batch_size` — staged rows per wave step.
    batch_size: Arc<LatencyHistogram>,
    /// `ingest.first_steps_cached` — wave rows served by the first-step
    /// table instead of the GEMV.
    first_steps_cached: Arc<Counter>,
    /// `ingest.evicted_live` — evictions that dropped a live episode.
    evicted_live: Arc<Counter>,
    /// `online.episode_trimmed` — events dropped by the episode cap;
    /// shared with the sequential detector, like `online.events`.
    episode_trimmed: Arc<Counter>,
}

/// Wave-batched streaming detector for one intake shard.
#[derive(Debug)]
pub struct BatchDetector {
    model: LeadTimeModel,
    cfg: DeshConfig,
    vocab: Arc<Vocab>,
    /// node → slot index.
    nodes: HashMap<NodeId, usize>,
    /// Slot-indexed node states; `None` = free slot.
    slots: Vec<Option<SlotState>>,
    free: Vec<usize>,
    batch: LeadBatch,
    memo: HashMap<String, TemplateInfo>,
    train_vocab: u32,
    quality: Option<QualityMonitor>,
    chains: ChainMatcher,
    window: WindowScratch,
    tracer: Option<Tracer>,
    capture: Option<Arc<CaptureTap>>,
    /// Ring handles by node; outlives slot churn, pruned by the idle
    /// sweep. Empty unless tracing or capture is attached.
    rings: HashMap<NodeId, NodeRings>,
    /// Shadow candidate fed after each chunk settles; observation-only,
    /// so the wave-batched decision stream is untouched by attachment.
    shadow: Option<ShadowScorer>,
    metrics: Option<BatchMetrics>,
    eviction: EvictionPolicy,
    since_sweep: u64,
    clock: Micros,
    events_seen: u64,
    warnings_emitted: u64,
    buffered_total: u64,
    evicted_nodes: u64,
    evicted_live: u64,
    episode_trimmed: u64,
    // Reused per-chunk scratch.
    staged_rows: Vec<usize>,
    wave_scores: Vec<Option<f64>>,
    deferred: Vec<Deferred>,
    tmpl: String,
    replay_scores: Vec<Option<f64>>,
}

impl BatchDetector {
    /// Build from a trained model and training vocabulary, with capacity
    /// for `slots` concurrently resident nodes. Telemetry disabled.
    pub fn new(model: LeadTimeModel, vocab: Arc<Vocab>, cfg: DeshConfig, slots: usize) -> Self {
        Self::with_telemetry(model, vocab, cfg, slots, &Telemetry::disabled())
    }

    /// [`BatchDetector::new`] recording into a telemetry registry:
    /// `online.events` / `online.warnings` counters (shared names with
    /// the sequential detector — counters sum across shards), the
    /// `ingest.batch_size` wave-occupancy histogram and the
    /// `ingest.first_steps_cached` counter of rows it did not step.
    pub fn with_telemetry(
        model: LeadTimeModel,
        vocab: Arc<Vocab>,
        cfg: DeshConfig,
        slots: usize,
        telemetry: &Telemetry,
    ) -> Self {
        assert!(slots > 0, "a detector needs at least one slot");
        let metrics = telemetry.registry().map(|r| BatchMetrics {
            events: r.counter("online.events"),
            warnings: r.counter("online.warnings"),
            batch_size: r.histogram("ingest.batch_size"),
            first_steps_cached: r.counter("ingest.first_steps_cached"),
            evicted_live: r.counter("ingest.evicted_live"),
            episode_trimmed: r.counter("online.episode_trimmed"),
        });
        let train_vocab = vocab.len() as u32;
        let eviction = EvictionPolicy::for_gap(cfg.episodes.session_gap_secs);
        let batch = model.begin_batch(slots);
        Self {
            model,
            cfg,
            vocab,
            nodes: HashMap::new(),
            slots: (0..slots).map(|_| None).collect(),
            free: (0..slots).rev().collect(),
            batch,
            memo: HashMap::new(),
            train_vocab,
            quality: QualityMonitor::new(telemetry),
            chains: ChainMatcher::default(),
            window: WindowScratch::new(),
            tracer: None,
            capture: None,
            rings: HashMap::new(),
            shadow: None,
            metrics,
            eviction,
            since_sweep: 0,
            clock: Micros(0),
            events_seen: 0,
            warnings_emitted: 0,
            buffered_total: 0,
            evicted_nodes: 0,
            evicted_live: 0,
            episode_trimmed: 0,
            staged_rows: Vec::new(),
            wave_scores: Vec::new(),
            deferred: Vec::new(),
            tmpl: String::new(),
            replay_scores: Vec::new(),
        }
    }

    /// Attach the trained failure chains so warnings can name the nearest
    /// chain (see [`OnlineDetector::attach_chains`](crate::online::OnlineDetector::attach_chains)).
    pub fn attach_chains(&mut self, chains: &[FailureChain]) {
        self.chains = ChainMatcher::new(chains, &self.model);
    }

    /// Attach decision tracing (flight rings + warning log), identical in
    /// contract to the sequential detector's.
    pub fn attach_tracing(&mut self, flight: Arc<FlightRecorder>, warnings: Arc<WarningLog>) {
        self.tracer = Some(Tracer { flight, warnings });
    }

    /// Attach an incident-capture tap. Captures are emitted in global
    /// record order — the deferred walk guarantees it — so a capsule
    /// sealed from a batched shard replays bit-exactly through the
    /// sequential replayer.
    pub fn attach_capture(&mut self, tap: Arc<CaptureTap>) {
        self.capture = Some(tap);
    }

    /// Attach a shadow scorer: after each chunk settles, every record and
    /// every primary warning from that chunk flows through the candidate
    /// and its divergence monitor. Pure observation — the primary's
    /// warnings stay bit-identical to an unshadowed run.
    pub fn attach_shadow(&mut self, scorer: ShadowScorer) {
        self.shadow = Some(scorer);
    }

    /// The attached shadow scorer, if any.
    pub fn shadow(&self) -> Option<&ShadowScorer> {
        self.shadow.as_ref()
    }

    /// Override the idle-slot eviction policy. `max_nodes` above the slot
    /// capacity is harmless (capacity binds first).
    pub fn set_eviction(&mut self, policy: EvictionPolicy) {
        assert!(policy.sweep_every > 0, "sweep cadence must be non-zero");
        self.eviction = policy;
    }

    /// Total events ingested (after Safe filtering).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Total warnings emitted.
    pub fn warnings_emitted(&self) -> u64 {
        self.warnings_emitted
    }

    /// Node states currently resident.
    pub fn resident_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total node states evicted (idle TTL or slot pressure).
    pub fn evicted_nodes(&self) -> u64 {
        self.evicted_nodes
    }

    /// Evictions that dropped a live episode: the node still had buffered
    /// events and was seen within `session_gap_secs` of the shard clock,
    /// so the sequential detector would have kept that context. Each one
    /// may change a later decision for that node.
    pub fn evicted_live(&self) -> u64 {
        self.evicted_live
    }

    /// Events currently buffered across resident nodes.
    pub fn buffered_events(&self) -> u64 {
        self.buffered_total
    }

    /// Events dropped from episode buffers by the 64-event episode cap so
    /// far, by the same rule as the sequential detector.
    pub fn episode_trimmed(&self) -> u64 {
        self.episode_trimmed
    }

    /// Ingest a chunk of records in arrival order, appending fired
    /// warnings (in record order) to `warnings`. The wave window never
    /// extends past the chunk: state is fully settled on return.
    pub fn ingest_chunk(&mut self, records: &[LogRecord], warnings: &mut Vec<Warning>) {
        let warn_base = warnings.len();
        for (rec, record) in records.iter().enumerate() {
            extract_template_into(&record.text, &mut self.tmpl);
            let info = match self.memo.get(self.tmpl.as_str()) {
                Some(&info) => info,
                None => {
                    let info = if label_template(&self.tmpl) == Label::Safe {
                        TemplateInfo {
                            phrase: 0,
                            safe: true,
                            terminal: false,
                        }
                    } else {
                        TemplateInfo {
                            phrase: self.vocab.intern(&self.tmpl),
                            safe: false,
                            terminal: is_failure_terminal(&self.tmpl),
                        }
                    };
                    if self.memo.len() < MEMO_CAP {
                        self.memo.insert(self.tmpl.clone(), info);
                    }
                    info
                }
            };
            if info.safe {
                continue;
            }
            let phrase = info.phrase;
            if let Some(q) = &self.quality {
                q.record_template(phrase >= self.train_vocab);
            }
            self.clock = self.clock.max(record.time);
            self.since_sweep += 1;

            let slot = match self.nodes.get(&record.node) {
                Some(&s) => s,
                None => self.alloc_slot(record.node, records, warnings),
            };
            // Wave cut: this node already staged a sample in the current
            // wave; advancing it again (or resetting its buffer) before
            // that sample is stepped would corrupt the pending score.
            if self.slots[slot].as_ref().is_some_and(|s| s.staged) {
                self.flush_wave(records, warnings);
            }

            // Buffer bookkeeping, exactly the sequential detector's order:
            // session-gap reset, episode marker, push, terminal, quiet.
            let gap = Micros::from_secs_f64(self.cfg.episodes.session_gap_secs);
            let st = self.slots[slot]
                .as_mut()
                .expect("resolved slot is occupied");
            st.last_seen = record.time;
            let mut dt_secs = 0.0;
            if let Some(&(last, _)) = st.events.last() {
                if record.time.saturating_sub(last) > gap {
                    self.buffered_total -= st.events.len() as u64;
                    st.events.clear();
                    st.warned = false;
                    st.has_stream = false;
                } else {
                    dt_secs = record.time.saturating_sub(last).as_secs_f64();
                }
            }
            let episode_reset = st.events.is_empty();
            let trimmed = push_episode_event(&mut st.events, (record.time, phrase));
            self.events_seen += 1;
            self.buffered_total += 1 - trimmed;
            self.episode_trimmed += trimmed;
            if let Some(m) = &self.metrics {
                m.events.inc();
                if trimmed > 0 {
                    m.episode_trimmed.add(trimmed);
                }
            }

            if info.terminal {
                self.buffered_total -= st.events.len() as u64;
                st.events.clear();
                st.warned = false;
                st.has_stream = false;
                if self.capture.is_some() {
                    self.deferred.push(Deferred::Silent {
                        rec,
                        phrase,
                        episode_reset,
                    });
                }
                continue;
            }
            if st.warned {
                if self.capture.is_some() {
                    self.deferred.push(Deferred::Silent {
                        rec,
                        phrase,
                        episode_reset,
                    });
                }
                continue;
            }

            // Scored event: (re)build the slot's carried state if needed,
            // then stage this event's sample for the wave step.
            let replayed = !st.has_stream;
            if replayed {
                st.has_stream = true;
                self.batch.reset_slot(slot);
                let n = self.slots[slot].as_ref().unwrap().events.len();
                // Replay the already-buffered prefix through the slot row
                // one event at a time — the same push sequence the
                // sequential rebuild performs. Rare (post-reset only),
                // and the buffer is short by construction.
                for i in 0..n - 1 {
                    let (t, p) = self.slots[slot].as_ref().unwrap().events[i];
                    self.model.batch_stage(&mut self.batch, slot, t, p);
                    let rows = [slot];
                    self.model
                        .batch_push_rows(&mut self.batch, &rows, &mut self.replay_scores);
                }
            }
            self.model
                .batch_stage(&mut self.batch, slot, record.time, phrase);
            let st = self.slots[slot].as_mut().unwrap();
            st.staged = true;
            self.staged_rows.push(slot);
            self.deferred.push(Deferred::Scored {
                slot,
                rec,
                phrase,
                dt_secs,
                episode_reset,
                replayed,
            });
        }
        self.flush_wave(records, warnings);
        if self.since_sweep >= self.eviction.sweep_every {
            self.since_sweep = 0;
            self.sweep_idle_slots();
        }
        if let Some(shadow) = &mut self.shadow {
            // Feed the settled chunk in record order, interleaving each
            // primary warning just before the record that triggered it so
            // the monitor's slack window sees monotone timestamps. The
            // primary fired those warnings above; this pass only observes.
            let fired = &warnings[warn_base..];
            let mut used = vec![false; fired.len()];
            for record in records {
                for (i, w) in fired.iter().enumerate() {
                    if !used[i] && w.node == record.node && w.at == record.time {
                        used[i] = true;
                        shadow.observe_primary_warning(w);
                        break;
                    }
                }
                shadow.observe_record(record);
            }
        }
    }

    /// Resolve a slot for a new node: reuse a free slot, or — when the
    /// shard is at capacity — evict the longest-idle resident (first
    /// slot on ties). Returns an empty, registered slot.
    fn alloc_slot(
        &mut self,
        node: NodeId,
        records: &[LogRecord],
        warnings: &mut Vec<Warning>,
    ) -> usize {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let lru = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|s| (i, s.last_seen)))
                    .min_by_key(|&(_, t)| t)
                    .map(|(i, _)| i)
                    .expect("no free slot implies at least one resident");
                // Only a staged victim must be settled first: its pending
                // sample and deferred walk read its slot. Any other
                // resident's deferred work is keyed by record and node,
                // so the wave carries on.
                if self.slots[lru].as_ref().is_some_and(|s| s.staged) {
                    self.flush_wave(records, warnings);
                }
                self.evict_slot(lru);
                self.free.pop().expect("eviction freed a slot")
            }
        };
        self.slots[slot] = Some(SlotState::new(node));
        self.nodes.insert(node, slot);
        slot
    }

    /// Drop a resident slot: buffered events leave the occupancy total,
    /// the node unregisters, and the slot returns to the free list. The
    /// batch row is re-zeroed lazily at the next allocation's rebuild.
    fn evict_slot(&mut self, slot: usize) {
        let st = self.slots[slot].take().expect("evicting an empty slot");
        self.nodes.remove(&st.node);
        self.buffered_total -= st.events.len() as u64;
        self.free.push(slot);
        self.evicted_nodes += 1;
        let gap = Micros::from_secs_f64(self.cfg.episodes.session_gap_secs);
        if !st.events.is_empty() && self.clock.saturating_sub(st.last_seen) <= gap {
            self.evicted_live += 1;
            if let Some(m) = &self.metrics {
                m.evicted_live.inc();
            }
        }
    }

    /// Evict every resident idle past the TTL (against the record-time
    /// high-water mark, so feed stalls never evict), and drop ring
    /// handles whose flight ring the recorder has evicted. Only called
    /// between waves, when nothing is staged or deferred.
    fn sweep_idle_slots(&mut self) {
        let ttl = Micros::from_secs_f64(self.eviction.ttl_secs);
        for slot in 0..self.slots.len() {
            let idle = match &self.slots[slot] {
                Some(st) => self.clock.saturating_sub(st.last_seen) > ttl,
                None => false,
            };
            if idle {
                self.evict_slot(slot);
            }
        }
        self.rings
            .retain(|_, r| r.flight.strong_count() > 0 || r.capture.is_some());
    }

    /// Step every staged row as one wave, then walk the deferred
    /// bookkeeping in record order: evaluate/trace/capture for scored
    /// events, ordered capture for silent ones. On return nothing is
    /// staged or deferred.
    fn flush_wave(&mut self, records: &[LogRecord], warnings: &mut Vec<Warning>) {
        if !self.staged_rows.is_empty() {
            let cached = self.model.batch_push_rows(
                &mut self.batch,
                &self.staged_rows,
                &mut self.wave_scores,
            );
            if let Some(m) = &self.metrics {
                m.batch_size.record(self.staged_rows.len() as u64);
                m.first_steps_cached.add(cached as u64);
            }
            for (k, &slot) in self.staged_rows.iter().enumerate() {
                let st = self.slots[slot].as_mut().expect("staged slot is occupied");
                st.step_raw = self.wave_scores[k];
                st.staged = false;
            }
            self.staged_rows.clear();
        }
        for di in 0..self.deferred.len() {
            match self.deferred[di] {
                Deferred::Scored {
                    slot,
                    rec,
                    phrase,
                    dt_secs,
                    episode_reset,
                    replayed,
                } => {
                    let record = &records[rec];
                    let transitions = self.batch.transitions(slot);
                    let mean_raw = self.model.batch_mean(&self.batch, slot);
                    let step_raw = self.slots[slot].as_ref().unwrap().step_raw;
                    let warning = evaluate_stream(
                        &self.model,
                        &self.cfg,
                        &self.vocab,
                        &mut self.chains,
                        &mut self.window,
                        &self.slots[slot].as_ref().unwrap().events,
                        transitions,
                        mean_raw,
                        record.node,
                        record.time,
                    );
                    let trace_ev = if self.tracer.is_some() || self.capture.is_some() {
                        let unit =
                            (self.model.vocab_size + 1) as f64 / 2.0 * self.cfg.phase3.score_scale;
                        Some(TraceEvent {
                            at_us: record.time.0,
                            phrase,
                            dt_secs,
                            step_mse: step_raw.map(|s| s * unit).unwrap_or(f64::NAN),
                            mean_mse: mean_raw.map(|m| m * unit).unwrap_or(f64::NAN),
                            threshold: self.cfg.phase3.mse_threshold,
                            transitions: transitions as u32,
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
                        let ring = &mut self.rings.entry(record.node).or_default().flight;
                        tr.record(ring, record.node, ev, warning.as_ref());
                    }
                    if let Some(tap) = &self.capture {
                        let ring = self
                            .rings
                            .entry(record.node)
                            .or_default()
                            .capture
                            .get_or_insert_with(|| tap.node(&record.node.to_string()));
                        ring.push(CapsuleEvent {
                            seq: tap.next_seq(),
                            at_us: record.time.0,
                            node: record.node.to_string(),
                            text: record.text.clone(),
                            phrase,
                            reset: episode_reset,
                            trace: trace_ev.as_ref().map(|e| e.to_words()),
                        });
                        if let Some(w) = &warning {
                            tap.record_warning(crate::observe::warning_record(w, Vec::new()));
                        }
                    }
                    if let Some(w) = warning {
                        let st = self.slots[slot].as_mut().unwrap();
                        st.warned = true;
                        st.has_stream = false;
                        self.warnings_emitted += 1;
                        if let Some(m) = &self.metrics {
                            m.warnings.inc();
                        }
                        warnings.push(w);
                    }
                }
                Deferred::Silent {
                    rec,
                    phrase,
                    episode_reset,
                } => {
                    if let Some(tap) = &self.capture {
                        let record = &records[rec];
                        let ring = self
                            .rings
                            .entry(record.node)
                            .or_default()
                            .capture
                            .get_or_insert_with(|| tap.node(&record.node.to_string()));
                        ring.push(CapsuleEvent {
                            seq: tap.next_seq(),
                            at_us: record.time.0,
                            node: record.node.to_string(),
                            text: record.text.clone(),
                            phrase,
                            reset: episode_reset,
                            trace: None,
                        });
                    }
                }
            }
        }
        self.deferred.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineDetector;
    use crate::pipeline::Desh;
    use desh_loggen::{generate, Dataset, SystemProfile};

    fn fixture(seed: u64) -> (crate::pipeline::TrainedDesh, DeshConfig, Dataset) {
        let mut p = SystemProfile::tiny();
        p.failures = 30;
        p.nodes = 24;
        let d = generate(&p, seed);
        let (train, test) = d.split_by_time(0.3);
        let desh = Desh::new(DeshConfig::fast(), seed);
        let trained = desh.train(&train);
        (trained, desh.cfg, test)
    }

    fn assert_same_warnings(a: &[Warning], b: &[Warning]) {
        assert_eq!(a.len(), b.len(), "warning count diverged");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.at, y.at);
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "score bits for {}",
                x.node
            );
            assert_eq!(
                x.predicted_lead_secs.to_bits(),
                y.predicted_lead_secs.to_bits(),
                "lead bits for {}",
                x.node
            );
            assert_eq!(x.class, y.class);
            assert_eq!(x.evidence, y.evidence);
            assert_eq!(x.matched_chain, y.matched_chain);
            assert_eq!(
                x.chain_distance.map(f64::to_bits),
                y.chain_distance.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn batched_warnings_bit_identical_to_sequential() {
        let (trained, cfg, test) = fixture(401);
        for chunk in [1usize, 7, 64, usize::MAX] {
            let mut seq = OnlineDetector::new(
                trained.lead_model.clone(),
                trained.parsed_train.vocab.clone(),
                cfg.clone(),
            );
            seq.attach_chains(&trained.phase1.chains);
            let mut bat = BatchDetector::new(
                trained.lead_model.clone(),
                trained.parsed_train.vocab.clone(),
                cfg.clone(),
                64,
            );
            bat.attach_chains(&trained.phase1.chains);

            let mut seq_warnings = Vec::new();
            for r in &test.records {
                if let Some(w) = seq.ingest(r) {
                    seq_warnings.push(w);
                }
            }
            let mut bat_warnings = Vec::new();
            for c in test.records.chunks(chunk.min(test.records.len())) {
                bat.ingest_chunk(c, &mut bat_warnings);
            }
            assert!(!seq_warnings.is_empty(), "fixture fired no warnings");
            assert_same_warnings(&seq_warnings, &bat_warnings);
            assert_eq!(seq.events_seen(), bat.events_seen(), "chunk {chunk}");
            assert_eq!(seq.warnings_emitted(), bat.warnings_emitted());
        }
    }

    #[test]
    fn batched_traces_bit_identical_to_sequential() {
        let (trained, cfg, test) = fixture(403);
        let mut seq = OnlineDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg.clone(),
        );
        let seq_flight = Arc::new(FlightRecorder::new());
        seq.attach_tracing(Arc::clone(&seq_flight), Arc::new(WarningLog::new(64)));
        let mut bat = BatchDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg.clone(),
            64,
        );
        let bat_flight = Arc::new(FlightRecorder::new());
        bat.attach_tracing(Arc::clone(&bat_flight), Arc::new(WarningLog::new(64)));

        for r in &test.records {
            seq.ingest(r);
        }
        let mut sink = Vec::new();
        for c in test.records.chunks(97) {
            bat.ingest_chunk(c, &mut sink);
        }

        let mut names = seq_flight.node_names();
        names.sort();
        let mut bat_names = bat_flight.node_names();
        bat_names.sort();
        assert_eq!(names, bat_names, "traced node sets differ");
        let mut compared = 0usize;
        for n in &names {
            let a = seq_flight.get(n).unwrap().snapshot();
            let b = bat_flight.get(n).unwrap().snapshot();
            assert_eq!(a.len(), b.len(), "trace count for {n}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    x.to_words(),
                    y.to_words(),
                    "trace words for {n} at {}",
                    x.at_us
                );
                compared += 1;
            }
        }
        assert!(compared > 100, "only {compared} traces compared");
    }

    #[test]
    fn slot_pressure_evicts_lru_and_stays_sound() {
        let (trained, cfg, test) = fixture(404);
        // 24 active nodes forced through 4 slots: correctness degrades
        // gracefully (evictions drop context, like a session gap) but
        // nothing panics, occupancy accounting holds, the detector keeps
        // scoring, and every eviction that dropped a live episode is
        // counted.
        let t = Telemetry::enabled();
        let mut bat = BatchDetector::with_telemetry(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg,
            4,
            &t,
        );
        let mut warnings = Vec::new();
        for c in test.records.chunks(31) {
            bat.ingest_chunk(c, &mut warnings);
            assert!(bat.resident_nodes() <= 4);
        }
        assert!(bat.evicted_nodes() > 0, "no slot-pressure evictions");
        assert!(bat.evicted_live() > 0, "no eviction dropped a live episode");
        assert!(bat.evicted_live() <= bat.evicted_nodes());
        let snap = t.snapshot().unwrap();
        assert_eq!(
            snap.counter("ingest.evicted_live"),
            Some(bat.evicted_live())
        );
        assert!(bat.events_seen() > 0);
        let direct: u64 = bat
            .slots
            .iter()
            .flatten()
            .map(|s| s.events.len() as u64)
            .sum();
        assert_eq!(bat.buffered_total, direct);
    }

    #[test]
    fn idle_ttl_eviction_is_invisible_to_batched_warnings() {
        let (trained, cfg, test) = fixture(405);
        let mut plain = BatchDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg.clone(),
            64,
        );
        let mut sweeping = BatchDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg.clone(),
            64,
        );
        sweeping.set_eviction(EvictionPolicy {
            ttl_secs: cfg.episodes.session_gap_secs,
            max_nodes: 64,
            sweep_every: 1,
        });
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for c in test.records.chunks(41) {
            plain.ingest_chunk(c, &mut a);
            sweeping.ingest_chunk(c, &mut b);
        }
        assert_same_warnings(&a, &b);
        assert!(sweeping.evicted_nodes() > 0, "sweeper never evicted");
        assert_eq!(
            sweeping.evicted_live(),
            0,
            "a TTL of one gap dropped a live episode"
        );
    }

    /// The text of a line the detectors score: neither Safe nor terminal.
    fn scored_text(records: &[LogRecord]) -> String {
        records
            .iter()
            .map(|r| r.text.clone())
            .find(|t| {
                let tmpl = desh_logparse::extract_template(t);
                label_template(&tmpl) != Label::Safe && !is_failure_terminal(&tmpl)
            })
            .expect("fixture has a scored template")
    }

    /// The `i`-th distinct node id of a churning fleet.
    fn churn_node(i: usize) -> NodeId {
        let (cab, within) = (i / 192, i % 192);
        NodeId::new(
            (cab % 256) as u8,
            (cab / 256) as u8,
            (within / 64) as u8,
            (within % 64 / 4) as u8,
            (within % 4) as u8,
        )
    }

    #[test]
    fn slot_pressure_without_live_evictions_matches_sequential() {
        // Each node takes a fresh id after every session gap, so at most
        // one id per node is live at a time: 24 nodes through 32 slots
        // evict only ids whose episode is over, which the sequential
        // detector would never see again. Decisions and traces must then
        // match it bit for bit, and evictions must not cut waves.
        let (trained, cfg, test) = fixture(409);
        let gap = Micros::from_secs_f64(cfg.episodes.session_gap_secs);
        let mut ids: HashMap<NodeId, (NodeId, Micros)> = HashMap::new();
        let mut fresh = 0;
        let stream: Vec<LogRecord> = test
            .records
            .iter()
            .map(|r| {
                let (id, last) = ids.entry(r.node).or_insert((r.node, r.time));
                if r.time.saturating_sub(*last) > gap || *id == r.node {
                    *id = churn_node(fresh);
                    fresh += 1;
                }
                *last = r.time;
                LogRecord::new(r.time, *id, r.text.clone())
            })
            .collect();

        let mut seq = OnlineDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg.clone(),
        );
        seq.attach_chains(&trained.phase1.chains);
        let seq_flight = Arc::new(FlightRecorder::new());
        seq.attach_tracing(Arc::clone(&seq_flight), Arc::new(WarningLog::new(64)));
        let t = Telemetry::enabled();
        let mut bat = BatchDetector::with_telemetry(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg,
            32,
            &t,
        );
        bat.attach_chains(&trained.phase1.chains);
        let bat_flight = Arc::new(FlightRecorder::new());
        bat.attach_tracing(Arc::clone(&bat_flight), Arc::new(WarningLog::new(64)));

        let mut a = Vec::new();
        for r in &stream {
            a.extend(seq.ingest(r));
        }
        let mut b = Vec::new();
        for c in stream.chunks(512) {
            bat.ingest_chunk(c, &mut b);
        }
        assert!(fresh > 32, "only {fresh} ids for 32 slots");
        assert!(bat.evicted_nodes() > 0, "no slot-pressure evictions");
        assert_eq!(bat.evicted_live(), 0, "an eviction dropped a live episode");
        assert!(!a.is_empty(), "no warnings to compare");
        assert_same_warnings(&a, &b);

        let mut names = seq_flight.node_names();
        names.sort();
        let mut bat_names = bat_flight.node_names();
        bat_names.sort();
        assert_eq!(names, bat_names, "traced node sets differ");
        for n in &names {
            let x: Vec<_> = seq_flight.get(n).unwrap().snapshot();
            let y: Vec<_> = bat_flight.get(n).unwrap().snapshot();
            let words = |v: &[TraceEvent]| v.iter().map(|e| e.to_words()).collect::<Vec<_>>();
            assert_eq!(words(&x), words(&y), "trace words for {n}");
        }

        let waves = t.snapshot().unwrap().histogram("ingest.batch_size").unwrap().count();
        assert!(
            waves < bat.evicted_nodes(),
            "{waves} waves for {} evictions: evictions cut waves",
            bat.evicted_nodes()
        );
    }

    #[test]
    fn node_churn_stays_within_the_flight_budget() {
        let (trained, cfg, test) = fixture(407);
        let flight = Arc::new(FlightRecorder::new());
        let mut bat = BatchDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg,
            64,
        );
        bat.attach_tracing(Arc::clone(&flight), Arc::new(WarningLog::new(16)));
        let text = scored_text(&test.records);
        let t0 = test.records[0].time;
        let mut warnings = Vec::new();
        let (nodes, chunk_len) = (100_000, 256);
        let mut peak_live = 0;
        for start in (0..nodes).step_by(chunk_len) {
            let chunk: Vec<LogRecord> = (start..(start + chunk_len).min(nodes))
                .map(|i| LogRecord::new(t0 + Micros(i as u64 * 1000), churn_node(i), text.clone()))
                .collect();
            bat.ingest_chunk(&chunk, &mut warnings);
            assert!(
                flight.resident_bytes() <= desh_obs::FLIGHT_BUDGET_BYTES,
                "{} bytes after {} nodes: handles pin evicted rings",
                flight.resident_bytes(),
                start + chunk.len()
            );
            // Held handles: rings live at the last sweep, plus the nodes
            // scored since.
            peak_live = peak_live.max(flight.node_names().len());
            let since_sweep = bat.eviction.sweep_every as usize + chunk_len;
            assert!(
                bat.rings.len() <= peak_live + since_sweep,
                "{} ring handles held, {peak_live} rings live at most",
                bat.rings.len()
            );
        }
        assert_eq!(bat.events_seen(), nodes as u64, "every line scored");
        assert!(flight.evicted() > 0, "budget never bound");
        assert_eq!(
            flight.evicted() as usize + flight.node_names().len(),
            nodes,
            "every node's one ring is live or evicted"
        );
    }

    #[test]
    fn quiet_events_after_a_warning_stay_capped_and_decisions_agree() {
        let (trained, cfg, test) = fixture(408);
        let mut seq = OnlineDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg.clone(),
        );
        seq.attach_chains(&trained.phase1.chains);
        let first = test
            .records
            .iter()
            .position(|r| seq.ingest(r).is_some())
            .expect("fixture fired no warnings");
        let warned = &test.records[first];

        // The warned node keeps talking, 1 s apart, inside its session
        // gap; the rest of the stream resumes after a long gap.
        let quiet = 10_000u64;
        let mut stream: Vec<LogRecord> = test.records[..=first].to_vec();
        stream.extend((1..=quiet).map(|k| {
            LogRecord::new(
                warned.time + Micros(k * 1_000_000),
                warned.node,
                warned.text.clone(),
            )
        }));
        let shift = Micros((quiet + 1_000) * 1_000_000);
        stream.extend(test.records[first + 1..].iter().map(|r| {
            let mut r = r.clone();
            r.time += shift;
            r
        }));

        let mut seq = OnlineDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg.clone(),
        );
        seq.attach_chains(&trained.phase1.chains);
        let mut bat = BatchDetector::new(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg,
            64,
        );
        bat.attach_chains(&trained.phase1.chains);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for r in &stream[..first + 1 + quiet as usize] {
            a.extend(seq.ingest(r));
        }
        for c in stream[..first + 1 + quiet as usize].chunks(97) {
            bat.ingest_chunk(c, &mut b);
        }
        let slot = bat.nodes[&warned.node];
        let held = bat.slots[slot].as_ref().unwrap().events.len();
        assert!(
            held <= crate::online::MAX_EPISODE_EVENTS,
            "{held} events held"
        );
        assert!(bat.episode_trimmed() >= quiet - crate::online::MAX_EPISODE_EVENTS as u64);
        assert_eq!(seq.episode_trimmed(), bat.episode_trimmed());

        for r in &stream[first + 1 + quiet as usize..] {
            a.extend(seq.ingest(r));
        }
        for c in stream[first + 1 + quiet as usize..].chunks(97) {
            bat.ingest_chunk(c, &mut b);
        }
        assert!(a.len() > 1, "no warnings after the quiet run");
        assert_same_warnings(&a, &b);
        assert_eq!(seq.episode_trimmed(), bat.episode_trimmed());
    }

    #[test]
    fn wave_metrics_record_batch_sizes() {
        let (trained, cfg, test) = fixture(406);
        let t = Telemetry::enabled();
        let mut bat = BatchDetector::with_telemetry(
            trained.lead_model.clone(),
            trained.parsed_train.vocab.clone(),
            cfg,
            64,
            &t,
        );
        let mut warnings = Vec::new();
        for c in test.records.chunks(256) {
            bat.ingest_chunk(c, &mut warnings);
        }
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counter("online.events"), Some(bat.events_seen()));
        assert_eq!(
            snap.counter("online.warnings"),
            Some(bat.warnings_emitted())
        );
        let sizes = snap.histogram("ingest.batch_size").unwrap();
        assert!(sizes.count() > 0, "no waves recorded");
        assert!(sizes.max() > 1, "waves never batched more than one row");
        // Fresh streams' first rows come from the first-step table once
        // their phrase has been stepped; every other row is stepped.
        let cached = snap.counter("ingest.first_steps_cached").unwrap();
        assert!(cached > 0, "the first-step table served no rows");
        assert!(
            cached < sizes.sum(),
            "{cached} of {} wave rows served from the table",
            sizes.sum()
        );
    }
}
