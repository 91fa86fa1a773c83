//! Incident capsules — sealed, replayable captures of detector incidents.
//!
//! A capsule (`.dcap`) is a checksummed container holding everything
//! needed to re-run an incident bit-identically through the online
//! detector:
//!
//! - the raw event lines that reached the detector, with a pre-trigger
//!   ring so context *before* the warning is included, each stamped with
//!   the phrase id the live vocab assigned and an episode-reset marker;
//! - the decision trace words the live detector emitted for each scored
//!   event (the ground truth replay is compared against);
//! - provenance: checkpoint path, run id, config hash, vocab/chain sizes;
//! - the execution environment: kernel backend, scoring precision (always
//!   `f32`) and `DESH_SHARDS` — replay pins these, because the SIMD
//!   polynomial activations differ from scalar in low bits.
//!
//! The capture side is a [`CaptureTap`]: per-node bounded rings of
//! [`CapsuleEvent`]s fed by the online detector, plus a ring of recent
//! warning records. A [`CapsuleRecorder`] snapshots the tap into a sealed
//! capsule file when a trigger fires (warning, SLO fast-burn, panic).
//! The replay side lives in `desh-core` (`replay_capsule`), which drives
//! a fresh detector from the capsule and diffs trace words field by field.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use desh_util::codec::{seal, unseal, CodecError, Decoder, Encoder};

use crate::jsonl::push_escaped;
use crate::runs::now_unix_ms;
use crate::trace::{WarningRecord, TRACE_WORDS};

/// Magic bytes of a sealed `.dcap` capsule file.
pub const CAPSULE_MAGIC: [u8; 4] = *b"DCAP";
/// Capsule container format version.
pub const CAPSULE_VERSION: u32 = 1;

/// Default per-node pre-trigger ring depth (events kept before a trigger).
pub const CAPTURE_RING: usize = 512;
/// Default cap on warning records retained by a tap.
pub const CAPTURE_WARNINGS: usize = 64;
/// Default cap on capsules one recorder will write (runaway-trigger guard).
pub const CAPTURE_MAX_FILES: usize = 16;

// ---------------------------------------------------------------------------
// Capsule data model
// ---------------------------------------------------------------------------

/// One detector-ingested event as captured for replay: the raw line
/// fields, the phrase id the live vocab assigned, whether this event
/// started a fresh episode buffer, and — when the event was scored — the
/// live decision trace packed into words.
#[derive(Debug, Clone, PartialEq)]
pub struct CapsuleEvent {
    /// Global capture sequence number (total order across nodes).
    pub seq: u64,
    /// Event timestamp, microseconds.
    pub at_us: u64,
    /// Node the line came from.
    pub node: String,
    /// Raw message text (template + parameters, clock/node prefix stripped).
    pub text: String,
    /// Phrase id the live vocab assigned to this line's template.
    pub phrase: u32,
    /// `true` when the detector's episode buffer was empty just before
    /// this event was pushed — i.e. this event starts a clean episode.
    /// Replay must begin at a reset event to reproduce carried state.
    pub reset: bool,
    /// The live decision trace for this event ([`TraceEvent::to_words`]),
    /// absent for events the detector ingested without scoring (terminal
    /// lines, post-warning quiet period).
    pub trace: Option<[u64; TRACE_WORDS]>,
}

/// Capsule provenance and pinned execution environment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CapsuleMeta {
    /// Trigger that sealed this capsule (`warning`, `slo_fast_burn`,
    /// `panic`, `manual`).
    pub reason: String,
    /// Wall-clock seal time, Unix milliseconds.
    pub created_unix_ms: u64,
    /// Trigger node (empty when the capsule spans all nodes).
    pub node: String,
    /// Trigger timestamp, microseconds of the stream clock.
    pub trigger_at_us: u64,
    /// Checkpoint path the serving detector loaded.
    pub checkpoint: String,
    /// Training run id stamped into the checkpoint.
    pub run_id: String,
    /// Config hash stamped into the checkpoint.
    pub config_hash: u64,
    /// Kernel backend name at capture time (`scalar`, `avx2+fma`, `neon`).
    pub backend: String,
    /// Scoring precision at capture time. Always `f32`; replay refuses
    /// any other value.
    pub precision: String,
    /// `DESH_SHARDS` at capture time (empty when unset).
    pub shards: String,
    /// Live vocab size at capture time (replay pads up to this).
    pub vocab_len: u64,
    /// Number of trained failure chains attached.
    pub chains: u64,
    /// `true` when every captured node's ring reached back to an episode
    /// reset; `false` means the ring evicted the episode start and replay
    /// may legitimately diverge on early carried state.
    pub clean_start: bool,
    /// Decision-relevant config pinned for replay.
    pub session_gap_secs: f64,
    /// Decision threshold (`phase3.mse_threshold`).
    pub mse_threshold: f64,
    /// Minimum scored transitions before a warning may fire.
    pub min_evidence: u64,
    /// Score scale (`phase3.score_scale`).
    pub score_scale: f64,
}

/// A sealed incident capture: provenance + events + fired warnings.
#[derive(Debug, Clone, PartialEq)]
pub struct Capsule {
    pub meta: CapsuleMeta,
    /// Captured events in global capture order (merged across nodes).
    pub events: Vec<CapsuleEvent>,
    /// Warning records fired inside the captured window. Their `trace`
    /// field is not persisted (the per-event `trace` words already carry
    /// it); decoded records have an empty trace.
    pub warnings: Vec<WarningRecord>,
}

impl Capsule {
    /// Encode and seal into `.dcap` bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        let m = &self.meta;
        e.put_str(&m.reason);
        e.put_u64(m.created_unix_ms);
        e.put_str(&m.node);
        e.put_u64(m.trigger_at_us);
        e.put_str(&m.checkpoint);
        e.put_str(&m.run_id);
        e.put_u64(m.config_hash);
        e.put_str(&m.backend);
        e.put_str(&m.precision);
        e.put_str(&m.shards);
        e.put_u64(m.vocab_len);
        e.put_u64(m.chains);
        e.put_bool(m.clean_start);
        e.put_f64(m.session_gap_secs);
        e.put_f64(m.mse_threshold);
        e.put_u64(m.min_evidence);
        e.put_f64(m.score_scale);

        e.put_u64(self.events.len() as u64);
        for ev in &self.events {
            e.put_u64(ev.seq);
            e.put_u64(ev.at_us);
            e.put_str(&ev.node);
            e.put_str(&ev.text);
            e.put_u32(ev.phrase);
            e.put_bool(ev.reset);
            e.put_bool(ev.trace.is_some());
            if let Some(words) = &ev.trace {
                for &w in words {
                    e.put_u64(w);
                }
            }
        }

        e.put_u64(self.warnings.len() as u64);
        for w in &self.warnings {
            e.put_str(&w.node);
            e.put_u64(w.at_us);
            e.put_f64(w.predicted_lead_secs);
            e.put_f64(w.score);
            e.put_str(&w.class);
            e.put_u64(w.matched_chain as u64);
            e.put_f64(w.chain_distance);
            e.put_u64(w.evidence.len() as u64);
            for ev in &w.evidence {
                e.put_str(ev);
            }
        }

        seal(CAPSULE_MAGIC, CAPSULE_VERSION, &e.finish())
    }

    /// Open and decode sealed `.dcap` bytes, verifying the envelope
    /// (magic, version, length, checksum) before touching the payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let payload = unseal(CAPSULE_MAGIC, CAPSULE_VERSION, bytes)?;
        let mut d = Decoder::new(payload);
        let meta = CapsuleMeta {
            reason: d.string()?,
            created_unix_ms: d.u64()?,
            node: d.string()?,
            trigger_at_us: d.u64()?,
            checkpoint: d.string()?,
            run_id: d.string()?,
            config_hash: d.u64()?,
            backend: d.string()?,
            precision: d.string()?,
            shards: d.string()?,
            vocab_len: d.u64()?,
            chains: d.u64()?,
            clean_start: d.bool()?,
            session_gap_secs: d.f64()?,
            mse_threshold: d.f64()?,
            min_evidence: d.u64()?,
            score_scale: d.f64()?,
        };

        let n_events = d.u64()? as usize;
        let mut events = Vec::with_capacity(n_events.min(1 << 20));
        for _ in 0..n_events {
            let seq = d.u64()?;
            let at_us = d.u64()?;
            let node = d.string()?;
            let text = d.string()?;
            let phrase = d.u32()?;
            let reset = d.bool()?;
            let trace = if d.bool()? {
                let mut words = [0u64; TRACE_WORDS];
                for w in &mut words {
                    *w = d.u64()?;
                }
                Some(words)
            } else {
                None
            };
            events.push(CapsuleEvent {
                seq,
                at_us,
                node,
                text,
                phrase,
                reset,
                trace,
            });
        }

        let n_warnings = d.u64()? as usize;
        let mut warnings = Vec::with_capacity(n_warnings.min(1 << 16));
        for _ in 0..n_warnings {
            let node = d.string()?;
            let at_us = d.u64()?;
            let predicted_lead_secs = d.f64()?;
            let score = d.f64()?;
            let class = d.string()?;
            let matched_chain = d.u64()? as i64;
            let chain_distance = d.f64()?;
            let n_ev = d.u64()? as usize;
            let mut evidence = Vec::with_capacity(n_ev.min(1 << 16));
            for _ in 0..n_ev {
                evidence.push(d.string()?);
            }
            warnings.push(WarningRecord {
                node,
                at_us,
                predicted_lead_secs,
                score,
                class,
                matched_chain,
                chain_distance,
                evidence,
                trace: Vec::new(),
            });
        }

        Ok(Self {
            meta,
            events,
            warnings,
        })
    }

    /// Write the sealed capsule to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_bytes())
    }

    /// Read and verify a sealed capsule from `path`.
    pub fn read(path: &Path) -> Result<Self, String> {
        let bytes = fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_bytes(&bytes).map_err(|e| format!("invalid capsule {}: {e}", path.display()))
    }

    /// The capsule's replayed trace count (events the live detector scored).
    pub fn traced_events(&self) -> usize {
        self.events.iter().filter(|e| e.trace.is_some()).count()
    }

    /// Render meta + counts as one JSON object (for `/capsules` and
    /// `capsule list --json`).
    pub fn summary_json(&self, file: &str) -> String {
        render_summary_json(
            file,
            &self.meta,
            self.events.len(),
            self.warnings.len(),
            None,
        )
    }
}

fn render_summary_json(
    file: &str,
    meta: &CapsuleMeta,
    events: usize,
    warnings: usize,
    error: Option<&str>,
) -> String {
    let mut s = String::from("{\"file\":");
    push_escaped(&mut s, file);
    if let Some(err) = error {
        s.push_str(",\"error\":");
        push_escaped(&mut s, err);
        s.push('}');
        return s;
    }
    s.push_str(",\"reason\":");
    push_escaped(&mut s, &meta.reason);
    s.push_str(&format!(",\"created_unix_ms\":{}", meta.created_unix_ms));
    s.push_str(",\"node\":");
    push_escaped(&mut s, &meta.node);
    s.push_str(&format!(",\"trigger_at_us\":{}", meta.trigger_at_us));
    s.push_str(",\"checkpoint\":");
    push_escaped(&mut s, &meta.checkpoint);
    s.push_str(",\"run_id\":");
    push_escaped(&mut s, &meta.run_id);
    s.push_str(&format!(",\"config_hash\":{}", meta.config_hash));
    s.push_str(",\"backend\":");
    push_escaped(&mut s, &meta.backend);
    s.push_str(",\"precision\":");
    push_escaped(&mut s, &meta.precision);
    s.push_str(",\"shards\":");
    push_escaped(&mut s, &meta.shards);
    s.push_str(&format!(
        ",\"vocab_len\":{},\"chains\":{},\"clean_start\":{}",
        meta.vocab_len, meta.chains, meta.clean_start
    ));
    s.push_str(&format!(",\"events\":{events},\"warnings\":{warnings}}}"));
    s
}

// ---------------------------------------------------------------------------
// Capture tap
// ---------------------------------------------------------------------------

/// One node's bounded pre-trigger capture ring.
#[derive(Debug)]
pub struct NodeCapture {
    cap: usize,
    inner: Mutex<VecDeque<CapsuleEvent>>,
}

impl NodeCapture {
    fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(2),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Append one captured event, evicting the oldest beyond capacity.
    pub fn push(&self, ev: CapsuleEvent) {
        let mut q = self.inner.lock().unwrap();
        if q.len() == self.cap {
            q.pop_front();
        }
        q.push_back(ev);
    }

    /// Ring contents trimmed to the oldest episode reset, plus whether a
    /// reset boundary was present. Events before the first `reset` marker
    /// belong to an episode whose start was evicted — replaying them
    /// without the carried state they depended on would diverge, so they
    /// are dropped here.
    fn snapshot_trimmed(&self) -> (Vec<CapsuleEvent>, bool) {
        let q = self.inner.lock().unwrap();
        match q.iter().position(|e| e.reset) {
            Some(first) => (q.iter().skip(first).cloned().collect(), true),
            None => (q.iter().cloned().collect(), false),
        }
    }
}

/// Fan-in point between the online detector and capsule capture: per-node
/// event rings plus a bounded ring of recent warning records, all stamped
/// with one global sequence counter so multi-node captures merge into a
/// total order.
#[derive(Debug)]
pub struct CaptureTap {
    ring: usize,
    seq: AtomicU64,
    nodes: RwLock<BTreeMap<String, Arc<NodeCapture>>>,
    warnings_cap: usize,
    warnings: Mutex<VecDeque<WarningRecord>>,
}

impl Default for CaptureTap {
    fn default() -> Self {
        Self::new()
    }
}

impl CaptureTap {
    /// Tap with the default per-node ring depth ([`CAPTURE_RING`]).
    pub fn new() -> Self {
        Self::with_ring(CAPTURE_RING)
    }

    /// Tap keeping at most `ring` events per node.
    pub fn with_ring(ring: usize) -> Self {
        Self {
            ring,
            seq: AtomicU64::new(0),
            nodes: RwLock::new(BTreeMap::new()),
            warnings_cap: CAPTURE_WARNINGS,
            warnings: Mutex::new(VecDeque::new()),
        }
    }

    /// Next global capture sequence number.
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The capture ring for `node`, creating it on first use. Callers
    /// cache the returned `Arc` to keep the hot path lock-free-ish.
    pub fn node(&self, node: &str) -> Arc<NodeCapture> {
        if let Some(n) = self.nodes.read().unwrap().get(node) {
            return Arc::clone(n);
        }
        let mut w = self.nodes.write().unwrap();
        Arc::clone(
            w.entry(node.to_string())
                .or_insert_with(|| Arc::new(NodeCapture::new(self.ring))),
        )
    }

    /// Record a fired warning (evidence bundle, trace omitted at seal time).
    pub fn record_warning(&self, rec: WarningRecord) {
        let mut q = self.warnings.lock().unwrap();
        if q.len() == self.warnings_cap {
            q.pop_front();
        }
        q.push_back(rec);
    }

    /// Capture one node's trimmed ring; `None` when the node was never
    /// seen. The `bool` is the clean-start flag.
    pub fn capture_node(&self, node: &str) -> Option<(Vec<CapsuleEvent>, bool)> {
        let ring = {
            let r = self.nodes.read().unwrap();
            Arc::clone(r.get(node)?)
        };
        Some(ring.snapshot_trimmed())
    }

    /// Capture every node's trimmed ring merged into global capture
    /// order. Clean only when every node's ring reached a reset boundary.
    pub fn capture_all(&self) -> (Vec<CapsuleEvent>, bool) {
        let rings: Vec<Arc<NodeCapture>> = {
            let r = self.nodes.read().unwrap();
            r.values().map(Arc::clone).collect()
        };
        let mut events = Vec::new();
        let mut clean = true;
        for ring in rings {
            let (evs, ok) = ring.snapshot_trimmed();
            if !evs.is_empty() {
                clean &= ok;
            }
            events.extend(evs);
        }
        events.sort_by_key(|e| e.seq);
        (events, clean)
    }

    /// Recent warning records, oldest first.
    pub fn warnings_snapshot(&self) -> Vec<WarningRecord> {
        self.warnings.lock().unwrap().iter().cloned().collect()
    }
}

// ---------------------------------------------------------------------------
// Recorder: triggers → sealed files
// ---------------------------------------------------------------------------

/// Provenance + pinned environment the recorder stamps into every capsule.
#[derive(Debug, Clone, Default)]
pub struct CapsuleContext {
    pub checkpoint: String,
    pub run_id: String,
    pub config_hash: u64,
    pub backend: String,
    pub precision: String,
    pub shards: String,
    pub vocab_len: u64,
    pub chains: u64,
    pub session_gap_secs: f64,
    pub mse_threshold: f64,
    pub min_evidence: u64,
    pub score_scale: f64,
}

/// Seals [`CaptureTap`] snapshots into `.dcap` files when a trigger
/// (warning fire, SLO fast-burn, panic) asks for one. Bounded by a
/// file-count cap so a pathological trigger storm cannot fill the disk.
#[derive(Debug)]
pub struct CapsuleRecorder {
    tap: Arc<CaptureTap>,
    ctx: CapsuleContext,
    dir: PathBuf,
    max: usize,
    written: AtomicU64,
}

impl CapsuleRecorder {
    /// Recorder writing into `dir` (created if missing), capped at
    /// [`CAPTURE_MAX_FILES`] capsules.
    pub fn new(tap: Arc<CaptureTap>, ctx: CapsuleContext, dir: PathBuf) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(Self {
            tap,
            ctx,
            dir,
            max: CAPTURE_MAX_FILES,
            written: AtomicU64::new(0),
        })
    }

    /// Override the capsule-file cap.
    pub fn with_max(mut self, max: usize) -> Self {
        self.max = max.max(1);
        self
    }

    /// The tap feeding this recorder.
    pub fn tap(&self) -> &Arc<CaptureTap> {
        &self.tap
    }

    /// Output directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Capsules written so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Build (but do not write) a capsule from the current tap state.
    /// `node` restricts capture to one node's ring; `None` captures every
    /// node merged in global order.
    pub fn build(&self, reason: &str, node: Option<&str>, trigger_at_us: u64) -> Capsule {
        let (events, clean_start) = match node {
            Some(n) => self.tap.capture_node(n).unwrap_or((Vec::new(), true)),
            None => self.tap.capture_all(),
        };
        // Keep only warnings that fired inside the captured window: their
        // node must appear in the capture and their timestamp must not
        // precede that node's earliest captured event.
        let mut first_at: BTreeMap<&str, u64> = BTreeMap::new();
        for ev in &events {
            first_at.entry(ev.node.as_str()).or_insert(ev.at_us);
        }
        let warnings: Vec<WarningRecord> = self
            .tap
            .warnings_snapshot()
            .into_iter()
            .filter(|w| first_at.get(w.node.as_str()).is_some_and(|&f| w.at_us >= f))
            .collect();
        let c = &self.ctx;
        Capsule {
            meta: CapsuleMeta {
                reason: reason.to_string(),
                created_unix_ms: now_unix_ms(),
                node: node.unwrap_or("").to_string(),
                trigger_at_us,
                checkpoint: c.checkpoint.clone(),
                run_id: c.run_id.clone(),
                config_hash: c.config_hash,
                backend: c.backend.clone(),
                precision: c.precision.clone(),
                shards: c.shards.clone(),
                vocab_len: c.vocab_len,
                chains: c.chains,
                clean_start,
                session_gap_secs: c.session_gap_secs,
                mse_threshold: c.mse_threshold,
                min_evidence: c.min_evidence,
                score_scale: c.score_scale,
            },
            events,
            warnings,
        }
    }

    /// Seal a capture to disk. Returns `Ok(None)` once the file cap is
    /// reached or when there is nothing to capture.
    pub fn capture(
        &self,
        reason: &str,
        node: Option<&str>,
        trigger_at_us: u64,
    ) -> io::Result<Option<PathBuf>> {
        let n = self.written.fetch_add(1, Ordering::Relaxed);
        if n as usize >= self.max {
            self.written.fetch_sub(1, Ordering::Relaxed);
            return Ok(None);
        }
        let capsule = self.build(reason, node, trigger_at_us);
        if capsule.events.is_empty() {
            self.written.fetch_sub(1, Ordering::Relaxed);
            return Ok(None);
        }
        let slug: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = self.dir.join(format!(
            "{slug}-{}-{n:03}.dcap",
            capsule.meta.created_unix_ms
        ));
        capsule.write(&path)?;
        Ok(Some(path))
    }
}

// ---------------------------------------------------------------------------
// Listing
// ---------------------------------------------------------------------------

/// One `.dcap` file as seen by `capsule list` / `GET /capsules`.
#[derive(Debug, Clone)]
pub struct CapsuleSummary {
    pub file: String,
    pub meta: CapsuleMeta,
    pub events: usize,
    pub warnings: usize,
    /// Decode/verify failure, when the file is corrupt.
    pub error: Option<String>,
}

/// Scan `dir` for `.dcap` files (sorted by name) and summarize each.
/// Corrupt capsules are listed with their verification error rather than
/// dropped — an operator triaging an incident needs to see them.
pub fn list_capsules(dir: &Path) -> io::Result<Vec<CapsuleSummary>> {
    let mut files: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "dcap"))
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    files.sort();
    Ok(files
        .iter()
        .map(|p| {
            let file = p
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            match Capsule::read(p) {
                Ok(c) => CapsuleSummary {
                    file,
                    events: c.events.len(),
                    warnings: c.warnings.len(),
                    meta: c.meta,
                    error: None,
                },
                Err(e) => CapsuleSummary {
                    file,
                    meta: CapsuleMeta::default(),
                    events: 0,
                    warnings: 0,
                    error: Some(e),
                },
            }
        })
        .collect())
}

/// Render capsule summaries as a JSON array (for `GET /capsules`).
pub fn render_capsules_json(summaries: &[CapsuleSummary]) -> String {
    let mut s = String::from("[");
    for (i, c) in summaries.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&render_summary_json(
            &c.file,
            &c.meta,
            c.events,
            c.warnings,
            c.error.as_deref(),
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn ev(seq: u64, node: &str, reset: bool, traced: bool) -> CapsuleEvent {
        CapsuleEvent {
            seq,
            at_us: 1_000 * (seq + 1),
            node: node.to_string(),
            text: format!("Lustre error on {node} seq {seq}"),
            phrase: seq as u32,
            reset,
            trace: traced.then(|| {
                TraceEvent {
                    at_us: 1_000 * (seq + 1),
                    phrase: seq as u32,
                    dt_secs: 0.5,
                    step_mse: f64::NAN,
                    mean_mse: 0.25,
                    threshold: 0.5,
                    transitions: 1,
                    min_evidence: 2,
                    replayed: reset,
                    warned: false,
                    matched_chain: -1,
                }
                .to_words()
            }),
        }
    }

    fn warning(node: &str, at_us: u64) -> WarningRecord {
        WarningRecord {
            node: node.to_string(),
            at_us,
            predicted_lead_secs: 120.0,
            score: 0.3,
            class: "MCE".into(),
            matched_chain: 1,
            chain_distance: 0.01,
            evidence: vec!["Machine Check Exception".into()],
            trace: Vec::new(),
        }
    }

    #[test]
    fn capsule_bytes_round_trip_including_nan_trace_words() {
        let capsule = Capsule {
            meta: CapsuleMeta {
                reason: "warning".into(),
                created_unix_ms: 1_700_000_000_000,
                node: "c0-0c0s0n1".into(),
                trigger_at_us: 3_000,
                checkpoint: "model.dshm".into(),
                run_id: "run-1234".into(),
                config_hash: 0xDEAD_BEEF,
                backend: "scalar".into(),
                precision: "f32".into(),
                shards: "4".into(),
                vocab_len: 42,
                chains: 7,
                clean_start: true,
                session_gap_secs: 120.0,
                mse_threshold: 0.32,
                min_evidence: 3,
                score_scale: 1.0,
            },
            events: vec![
                ev(0, "c0-0c0s0n1", true, true),
                ev(1, "c0-0c0s0n1", false, true),
                ev(2, "c0-0c0s0n1", false, false),
            ],
            warnings: vec![warning("c0-0c0s0n1", 2_000)],
        };
        let back = Capsule::from_bytes(&capsule.to_bytes()).unwrap();
        assert_eq!(back.meta, capsule.meta);
        assert_eq!(back.events.len(), 3);
        assert_eq!(back.traced_events(), 2);
        // NaN step_mse survives bit-exactly through the word packing.
        let t = TraceEvent::from_words(back.events[0].trace.as_ref().unwrap());
        assert!(t.step_mse.is_nan());
        assert_eq!(back.events, capsule.events);
        assert_eq!(back.warnings.len(), 1);
        assert_eq!(back.warnings[0].node, "c0-0c0s0n1");
        assert!(back.warnings[0].trace.is_empty());
    }

    #[test]
    fn capsule_rejects_corruption_with_clear_errors() {
        let capsule = Capsule {
            meta: CapsuleMeta::default(),
            events: vec![ev(0, "n1", true, false)],
            warnings: Vec::new(),
        };
        let bytes = capsule.to_bytes();

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let err = Capsule::from_bytes(&flipped).unwrap_err();
        assert!(matches!(err, CodecError::BadChecksum { .. }), "{err}");

        let err = Capsule::from_bytes(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }), "{err}");

        let mut wrong_magic = bytes;
        wrong_magic[0] = b'X';
        let err = Capsule::from_bytes(&wrong_magic).unwrap_err();
        assert!(matches!(err, CodecError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn tap_trims_to_episode_reset_and_merges_in_seq_order() {
        let tap = CaptureTap::with_ring(4);
        let a = tap.node("a");
        let b = tap.node("b");
        // Node a: ring overflows past its reset → dirty capture.
        a.push(ev(tap.next_seq(), "a", true, false));
        for _ in 0..4 {
            a.push(ev(tap.next_seq(), "a", false, false));
        }
        // Node b: reset retained mid-ring → trimmed, clean.
        b.push(ev(tap.next_seq(), "b", false, false));
        b.push(ev(tap.next_seq(), "b", true, false));
        b.push(ev(tap.next_seq(), "b", false, false));

        let (evs_b, clean_b) = tap.capture_node("b").unwrap();
        assert!(clean_b);
        assert_eq!(evs_b.len(), 2, "events before the reset are dropped");
        assert!(evs_b[0].reset);

        let (all, clean) = tap.capture_all();
        assert!(!clean, "node a's ring lost its episode start");
        let seqs: Vec<u64> = all.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "merged capture is in global seq order");
        assert!(tap.capture_node("missing").is_none());
    }

    #[test]
    fn recorder_seals_files_filters_warnings_and_respects_cap() {
        let dir = std::env::temp_dir().join(format!("dcap-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let tap = Arc::new(CaptureTap::new());
        let node = tap.node("n1");
        node.push(ev(tap.next_seq(), "n1", true, true));
        node.push(ev(tap.next_seq(), "n1", false, true));
        // In-window warning kept; stale warning (before the capture's
        // earliest event for its node) and foreign-node warning dropped.
        tap.record_warning(warning("n1", 1_000));
        tap.record_warning(warning("n1", 0));
        tap.record_warning(warning("ghost", 1_000));

        let rec = CapsuleRecorder::new(
            Arc::clone(&tap),
            CapsuleContext {
                checkpoint: "m.dshm".into(),
                precision: "f32".into(),
                backend: "scalar".into(),
                ..CapsuleContext::default()
            },
            dir.clone(),
        )
        .unwrap()
        .with_max(2);

        let p1 = rec.capture("warning", Some("n1"), 1_000).unwrap().unwrap();
        assert!(p1.exists());
        let c1 = Capsule::read(&p1).unwrap();
        assert_eq!(c1.meta.reason, "warning");
        assert_eq!(c1.meta.node, "n1");
        assert_eq!(c1.events.len(), 2);
        assert_eq!(c1.warnings.len(), 1, "only the in-window warning sealed");
        assert_eq!(c1.warnings[0].at_us, 1_000);

        let p2 = rec.capture("slo_fast_burn", None, 2_000).unwrap().unwrap();
        assert!(p2.exists());
        assert!(
            rec.capture("panic", None, 3_000).unwrap().is_none(),
            "file cap reached"
        );
        assert_eq!(rec.written(), 2);

        let listed = list_capsules(&dir).unwrap();
        assert_eq!(listed.len(), 2);
        assert!(listed.iter().all(|c| c.error.is_none()));
        let json = render_capsules_json(&listed);
        assert!(json.contains("\"reason\":\"warning\""));
        assert!(json.contains("\"backend\":\"scalar\""));

        // A corrupt capsule is listed with its error, not hidden.
        fs::write(dir.join("zz-corrupt.dcap"), b"not a capsule").unwrap();
        let listed = list_capsules(&dir).unwrap();
        assert_eq!(listed.len(), 3);
        assert!(listed[2].error.is_some());
        assert!(render_capsules_json(&listed).contains("\"error\":"));
        let _ = fs::remove_dir_all(&dir);
    }
}
