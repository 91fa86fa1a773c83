//! Per-node flight recorder: a lock-free ring of the most recent
//! [`TraceEvent`]s for every node the online detector has scored, whose
//! memory follows what each ring holds and is capped across all rings.
//!
//! Design constraints, in order:
//!
//! 1. **The write path must cost nothing measurable.** The detector's
//!    per-event scoring path is ~8 µs p50; a recorder push is a dozen
//!    relaxed atomic stores into a slot — no locks, and no allocation
//!    except one segment per [`SEGMENT_SLOTS`] events until the ring is
//!    full.
//! 2. **Readers never block the writer.** The introspection HTTP thread
//!    snapshots rings while scoring continues. Each slot is a seqlock:
//!    the writer bumps the slot's sequence to odd, stores the packed
//!    words, and bumps it back to even; a reader that observes an odd or
//!    changed sequence discards the torn slot and moves on. Readers touch
//!    only positions below `head`, whose segments the writer allocated
//!    before publishing `head`.
//! 3. **No `unsafe`.** Events pack into `[u64; TRACE_WORDS]`
//!    (`TraceEvent::to_words`), so plain `AtomicU64` fields suffice, and
//!    each segment sits behind a `OnceLock`.
//! 4. **Memory follows occupancy, under one budget.** A ring keeps up to
//!    its capacity ([`FLIGHT_CAPACITY`] by default) but allocates slots
//!    in segments of [`SEGMENT_SLOTS`], each on its first write. The
//!    recorder charges every byte it allocates for a ring — the fixed
//!    part at creation, each segment when it is first written — to one
//!    exact counter, and credits it back when the ring is dropped. When
//!    creating or growing a ring would pass the budget
//!    ([`FLIGHT_BUDGET_BYTES`]), the recorder drops the
//!    least-recently-pushed rings whole, down to 7/8 of the budget.
//!    Recency is a recorder-wide clock, never the `at_us` a peer sent:
//!    it ticks whenever a ring is created or grows, and a push stamps its
//!    ring with the current tick.
//!
//! One writer per node is assumed (the detector owns its event loop);
//! concurrent *readers* are always safe. With multiple writers a slot
//! could interleave, but the sequence check still prevents a reader from
//! observing a torn event as valid. Writers should hold a ring through a
//! `Weak` handle between pushes: an evicted ring is freed only once no
//! strong handle remains, and until then its bytes stay charged.

use std::collections::BTreeMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, Weak};

use crate::capsule::CapsuleRecorder;
use crate::metrics::{Counter, Gauge};
use crate::registry::Telemetry;
use crate::runs::now_unix_ms;
use crate::trace::{TraceEvent, WarningLog, TRACE_WORDS};

/// Default ring capacity per node (events retained).
pub const FLIGHT_CAPACITY: usize = 256;

/// Slots per segment: a ring allocates its slots this many at a time
/// (1.5 KiB), each segment on its first write.
pub const SEGMENT_SLOTS: usize = 16;

/// Default byte budget across every ring of one recorder.
pub const FLIGHT_BUDGET_BYTES: u64 = 32 << 20;

#[derive(Debug)]
struct Slot {
    /// Seqlock: even = stable, odd = write in progress.
    seq: AtomicU64,
    words: [AtomicU64; TRACE_WORDS],
}

impl Slot {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

type Segment = [Slot; SEGMENT_SLOTS];

/// Bytes one segment allocates.
const SEGMENT_BYTES: u64 = size_of::<Segment>() as u64;

/// Bytes a ring costs before its first segment: its `Arc` allocation
/// (two reference counts and the ring itself), its segment table, and
/// its recorder map entry (the key `String` and its text, the value
/// `Arc`). Computed from type sizes; allocator rounding is not counted.
fn fixed_bytes(segments: usize, name_len: usize) -> u64 {
    (2 * size_of::<usize>()
        + size_of::<NodeFlight>()
        + segments * size_of::<OnceLock<Box<Segment>>>()
        + size_of::<String>()
        + name_len
        + size_of::<Arc<NodeFlight>>()) as u64
}

/// One node's ring of recent decision traces.
#[derive(Debug)]
pub struct NodeFlight {
    capacity: usize,
    /// Segment `i` holds ring positions `i * SEGMENT_SLOTS ..`; it is
    /// allocated by the first push into it.
    segments: Box<[OnceLock<Box<Segment>>]>,
    /// Total events ever pushed; `head % capacity` is the next write slot.
    head: AtomicU64,
    /// `clock` reading at this ring's latest push, or at its creation
    /// before the first: the recency the recorder evicts by.
    last_push: AtomicU64,
    /// The recorder-wide recency clock. It ticks only when a ring is
    /// created or grows, so a steady-state push reads it without writing
    /// a line shared across writers; the ring that ticks it ranks
    /// strictly newest.
    clock: Arc<AtomicU64>,
    /// Bytes this ring is charged for: the fixed part (see
    /// [`fixed_bytes`]) plus every segment written so far. Kept here so
    /// an eviction scan reads one word per ring.
    bytes: AtomicU64,
    /// The recorder charged for this ring; dangling for a ring built
    /// outside a recorder.
    owner: Weak<Shared>,
}

impl NodeFlight {
    fn new(capacity: usize, name_len: usize, clock: Arc<AtomicU64>, owner: Weak<Shared>) -> Self {
        let capacity = capacity.max(1);
        let segments = capacity.div_ceil(SEGMENT_SLOTS);
        Self {
            capacity,
            segments: (0..segments).map(|_| OnceLock::new()).collect(),
            head: AtomicU64::new(0),
            last_push: AtomicU64::new(tick(&clock)),
            clock,
            bytes: AtomicU64::new(fixed_bytes(segments, name_len)),
            owner,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events pushed over the ring's lifetime (monotonic; exceeds
    /// [`NodeFlight::len`] once the ring has wrapped).
    pub fn total(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events currently retained (`min(total, capacity)`).
    pub fn len(&self) -> usize {
        (self.total() as usize).min(self.capacity())
    }

    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Bytes this ring is charged for: the fixed part plus every segment
    /// written so far.
    fn resident_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Record one event. Single-writer: see the module docs.
    pub fn push(&self, ev: &TraceEvent) {
        let n = self.head.load(Ordering::Relaxed);
        let pos = (n % self.capacity as u64) as usize;
        let mut grew = false;
        let segment = self.segments[pos / SEGMENT_SLOTS].get_or_init(|| {
            grew = true;
            Box::new(std::array::from_fn(|_| Slot::new()))
        });
        let slot = &segment[pos % SEGMENT_SLOTS];
        let s = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(s + 1, Ordering::Release); // odd: in progress
        for (w, v) in slot.words.iter().zip(ev.to_words()) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(s + 2, Ordering::Release); // even: stable
        self.head.store(n + 1, Ordering::Release);
        let now = if grew {
            tick(&self.clock)
        } else {
            self.clock.load(Ordering::Relaxed)
        };
        self.last_push.store(now, Ordering::Relaxed);
        if grew {
            self.bytes.fetch_add(SEGMENT_BYTES, Ordering::Relaxed);
            // Charged after the push is stamped, so should the charge
            // evict, this ring ranks as the most recently pushed.
            if let Some(owner) = self.owner.upgrade() {
                drop(owner.charge(SEGMENT_BYTES, None));
            }
        }
    }

    /// Read absolute position `n` (below `head`), or `None` when
    /// concurrent writes tore the slot on every retry.
    fn read(&self, n: u64) -> Option<TraceEvent> {
        let pos = (n % self.capacity as u64) as usize;
        let slot = &self.segments[pos / SEGMENT_SLOTS].get()?[pos % SEGMENT_SLOTS];
        for _attempt in 0..4 {
            let s0 = slot.seq.load(Ordering::Acquire);
            if s0 % 2 == 1 {
                continue; // write in progress
            }
            let mut words = [0u64; TRACE_WORDS];
            for (dst, src) in words.iter_mut().zip(&slot.words) {
                *dst = src.load(Ordering::Relaxed);
            }
            if slot.seq.load(Ordering::Acquire) == s0 {
                return Some(TraceEvent::from_words(&words));
            }
        }
        None
    }

    /// Absolute positions of the retained events, oldest first.
    fn retained(&self) -> std::ops::Range<u64> {
        let head = self.total();
        head.saturating_sub(self.capacity as u64)..head
    }

    /// Copy out the retained events, oldest first. Slots torn by a
    /// concurrent write (odd or changed sequence after a few retries) are
    /// skipped rather than blocked on.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.retained().filter_map(|n| self.read(n)).collect()
    }

    /// The current episode, oldest first: the events from the newest back
    /// to the most recent one scored by the full-replay path
    /// (`replayed`, which marks the first scored event of every episode),
    /// inclusive. Every retained event when none of them is `replayed`.
    pub fn episode(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for n in self.retained().rev() {
            if let Some(ev) = self.read(n) {
                out.push(ev);
                if ev.replayed {
                    break;
                }
            }
        }
        out.reverse();
        out
    }

    /// Render the retained events as JSONL, oldest first.
    pub fn to_jsonl(&self, node: &str) -> String {
        let mut s = String::new();
        for ev in self.snapshot() {
            s.push_str(&ev.to_json(node));
            s.push('\n');
        }
        s
    }
}

impl Drop for NodeFlight {
    fn drop(&mut self) {
        if let Some(owner) = self.owner.upgrade() {
            owner.release(self.resident_bytes());
        }
    }
}

/// Advance a recency clock; returns the new tick.
fn tick(clock: &AtomicU64) -> u64 {
    clock.fetch_add(1, Ordering::Relaxed) + 1
}

type RingMap = BTreeMap<String, Arc<NodeFlight>>;

/// State shared by a recorder and, through `Weak` back-references, its
/// rings (which charge segment growth and credit their bytes on drop).
#[derive(Debug)]
struct Shared {
    capacity: usize,
    budget: u64,
    /// Bytes charged for every live ring (see
    /// [`NodeFlight::resident_bytes`]). A statistic: it publishes no
    /// other data, so its updates are relaxed.
    bytes: AtomicU64,
    /// Rings dropped by the budget.
    evicted: AtomicU64,
    /// Recency clock shared with every ring (see `NodeFlight::last_push`).
    clock: Arc<AtomicU64>,
    nodes: RwLock<RingMap>,
    /// `obs.flight_bytes`, when telemetry is enabled.
    bytes_gauge: Option<Arc<Gauge>>,
    /// `obs.flight_evicted`, when telemetry is enabled.
    evicted_counter: Option<Arc<Counter>>,
}

impl Shared {
    /// Charge `n` bytes and, past the budget, evict. `map` is the ring
    /// map when the caller already holds its write lock. Returns the
    /// evicted rings, for the caller to drop once the lock is released.
    #[must_use]
    fn charge(&self, n: u64, map: Option<&mut RingMap>) -> Vec<Arc<NodeFlight>> {
        let total = self.bytes.fetch_add(n, Ordering::Relaxed) + n;
        self.publish();
        if total <= self.budget {
            return Vec::new();
        }
        match map {
            Some(map) => self.evict(map),
            None => self.evict(&mut self.nodes.write().expect("flight map lock poisoned")),
        }
    }

    fn release(&self, n: u64) {
        self.bytes.fetch_sub(n, Ordering::Relaxed);
        self.publish();
    }

    /// Mirror the byte counter into `obs.flight_bytes`. Under concurrent
    /// updates the gauge can trail the counter until the next update;
    /// `FlightRecorder::resident_bytes` is exact.
    fn publish(&self) {
        if let Some(g) = &self.bytes_gauge {
            g.set(self.bytes.load(Ordering::Relaxed) as f64);
        }
    }

    /// Drop whole rings, least recently pushed first (by `last_push`; a
    /// ring not yet pushed ranks by its creation; ties in key order),
    /// until the charged bytes are at or below 7/8 of the budget.
    /// Cutting below the budget amortises the scan over the creations
    /// and growths that follow. Returns the evicted rings: freeing them
    /// is left to the caller, outside the map lock.
    fn evict(&self, map: &mut RingMap) -> Vec<Arc<NodeFlight>> {
        let target = self.budget - self.budget / 8;
        let mut excess = self.bytes.load(Ordering::Relaxed).saturating_sub(target);
        if excess == 0 {
            return Vec::new(); // a concurrent eviction already made room
        }
        let mut by_age: Vec<(u64, usize, u64)> = map
            .values()
            .enumerate()
            .map(|(i, r)| (r.last_push.load(Ordering::Relaxed), i, r.resident_bytes()))
            .collect();
        by_age.sort_unstable();
        let mut doomed = vec![false; by_age.len()];
        for &(_, i, bytes) in &by_age {
            if excess == 0 {
                break;
            }
            doomed[i] = true;
            excess = excess.saturating_sub(bytes);
        }
        // `retain` visits entries in the same key order `values` did.
        let mut victims = Vec::new();
        let mut i = 0;
        map.retain(|_, ring| {
            i += 1;
            if doomed[i - 1] {
                victims.push(Arc::clone(ring));
            }
            !doomed[i - 1]
        });
        self.evicted
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        if let Some(c) = &self.evicted_counter {
            c.add(victims.len() as u64);
        }
        victims
    }
}

/// Registry of per-node flight rings under one byte budget.
///
/// Mirrors the metric [`crate::Registry`] discipline: `node()` takes the
/// map lock once to get-or-create a ring, callers hold a handle, and
/// steady-state pushes never touch the lock.
#[derive(Debug)]
pub struct FlightRecorder {
    shared: Arc<Shared>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// Recorder with the default per-node capacity ([`FLIGHT_CAPACITY`])
    /// within [`FLIGHT_BUDGET_BYTES`].
    pub fn new() -> Self {
        Self::with_capacity(FLIGHT_CAPACITY)
    }

    /// Recorder retaining `capacity` events per node within
    /// [`FLIGHT_BUDGET_BYTES`].
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(capacity, FLIGHT_BUDGET_BYTES, &Telemetry::disabled())
    }

    /// [`FlightRecorder::new`] publishing its charged bytes as the gauge
    /// `obs.flight_bytes` and its evictions as the counter
    /// `obs.flight_evicted`.
    pub fn with_telemetry(telemetry: &Telemetry) -> Self {
        Self::build(FLIGHT_CAPACITY, FLIGHT_BUDGET_BYTES, telemetry)
    }

    fn build(capacity: usize, budget: u64, telemetry: &Telemetry) -> Self {
        let bytes_gauge = telemetry.gauge_handle("obs.flight_bytes");
        if let Some(g) = &bytes_gauge {
            g.set(0.0);
        }
        Self {
            shared: Arc::new(Shared {
                capacity: capacity.max(1),
                budget,
                bytes: AtomicU64::new(0),
                evicted: AtomicU64::new(0),
                clock: Arc::default(),
                nodes: RwLock::new(BTreeMap::new()),
                bytes_gauge,
                evicted_counter: telemetry.counter_handle("obs.flight_evicted"),
            }),
        }
    }

    /// Bytes charged for every live ring: fixed parts plus written
    /// segments, exact up to allocator rounding.
    pub fn resident_bytes(&self) -> u64 {
        self.shared.bytes.load(Ordering::Relaxed)
    }

    /// Rings dropped so far to stay within the budget.
    pub fn evicted(&self) -> u64 {
        self.shared.evicted.load(Ordering::Relaxed)
    }

    /// Get or create the ring for `node`, evicting rings first when the
    /// new ring's fixed part would pass the budget. Hold the result as a
    /// `Weak` between pushes (see the module docs); pushes through the
    /// handle are lock-free.
    pub fn node(&self, node: &str) -> Arc<NodeFlight> {
        let shared = &self.shared;
        if let Some(f) = shared
            .nodes
            .read()
            .expect("flight map lock poisoned")
            .get(node)
        {
            return Arc::clone(f);
        }
        let mut map = shared.nodes.write().expect("flight map lock poisoned");
        if let Some(f) = map.get(node) {
            return Arc::clone(f);
        }
        let ring = Arc::new(NodeFlight::new(
            shared.capacity,
            node.len(),
            Arc::clone(&shared.clock),
            Arc::downgrade(shared),
        ));
        let evicted = shared.charge(ring.resident_bytes(), Some(&mut map));
        map.insert(node.to_string(), Arc::clone(&ring));
        drop(map);
        drop(evicted);
        ring
    }

    /// The ring for `node`, if it has one that was not evicted.
    pub fn get(&self, node: &str) -> Option<Arc<NodeFlight>> {
        self.shared
            .nodes
            .read()
            .expect("flight map lock poisoned")
            .get(node)
            .cloned()
    }

    /// Names of every node with a ring, sorted.
    pub fn node_names(&self) -> Vec<String> {
        self.shared
            .nodes
            .read()
            .expect("flight map lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Drop every ring. Rings still held by a strong handle are freed,
    /// and credited, when that handle goes.
    pub fn clear(&self) {
        self.shared
            .nodes
            .write()
            .expect("flight map lock poisoned")
            .clear();
    }

    /// JSONL dump of one node's ring, or `None` for an unknown node.
    pub fn dump_jsonl(&self, node: &str) -> Option<String> {
        self.get(node).map(|f| f.to_jsonl(node))
    }

    /// JSONL dump of every ring, nodes in sorted order, oldest first
    /// within each node.
    pub fn dump_all_jsonl(&self) -> String {
        let nodes = self.shared.nodes.read().expect("flight map lock poisoned");
        let mut s = String::new();
        for (name, f) in nodes.iter() {
            s.push_str(&f.to_jsonl(name));
        }
        s
    }
}

/// The panic dump body: every flight ring (JSONL, nodes sorted) followed
/// by the warning log (one `warning` record per line) when one is attached.
pub fn panic_dump_jsonl(recorder: &FlightRecorder, warnings: Option<&WarningLog>) -> String {
    let mut s = recorder.dump_all_jsonl();
    if let Some(w) = warnings {
        s.push_str(&w.to_jsonl());
    }
    s
}

/// Timestamped, collision-free dump path inside `dir`:
/// `panic-<unix_ms>.jsonl`, suffixed `-1`, `-2`, … if a dump from the
/// same millisecond already exists — so a second panic never overwrites
/// the first.
pub fn panic_dump_path(dir: &std::path::Path) -> std::path::PathBuf {
    let ms = now_unix_ms();
    let mut path = dir.join(format!("panic-{ms}.jsonl"));
    let mut n = 0u32;
    while path.exists() {
        n += 1;
        path = dir.join(format!("panic-{ms}-{n}.jsonl"));
    }
    path
}

/// Install a panic hook that writes a post-mortem dump into `dir` before
/// delegating to the previous hook: every flight ring plus the warning
/// log (when attached) as `panic-<unix_ms>.jsonl` — timestamped so a
/// second panic gets its own file — and, when a capsule recorder is
/// armed, a sealed `panic` capsule for bit-exact replay of the decisions
/// that led here. Returns immediately; the hook stays installed for the
/// process lifetime.
pub fn install_panic_dump(
    recorder: Arc<FlightRecorder>,
    warnings: Option<Arc<WarningLog>>,
    dir: std::path::PathBuf,
    capsules: Option<Arc<CapsuleRecorder>>,
) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(
            panic_dump_path(&dir),
            panic_dump_jsonl(&recorder, warnings.as_deref()),
        );
        if let Some(caps) = &capsules {
            let _ = caps.capture("panic", None, 0);
        }
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            at_us: i,
            phrase: i as u32,
            dt_secs: i as f64,
            step_mse: 0.1,
            mean_mse: 0.2,
            threshold: 0.5,
            transitions: i as u32,
            min_evidence: 2,
            replayed: false,
            warned: false,
            matched_chain: -1,
        }
    }

    /// A ring built outside any recorder.
    fn ring(capacity: usize) -> NodeFlight {
        NodeFlight::new(capacity, 0, Arc::default(), Weak::new())
    }

    /// A recorder with a budget smaller than the production one.
    fn recorder(capacity: usize, budget: u64) -> FlightRecorder {
        FlightRecorder::build(capacity, budget, &Telemetry::disabled())
    }

    fn at_us(events: &[TraceEvent]) -> Vec<u64> {
        events.iter().map(|e| e.at_us).collect()
    }

    #[test]
    fn fills_in_order_before_wrapping() {
        let f = ring(8);
        for i in 0..5 {
            f.push(&ev(i));
        }
        assert_eq!(at_us(&f.snapshot()), vec![0, 1, 2, 3, 4], "oldest first");
    }

    #[test]
    fn wraparound_at_exactly_capacity() {
        let cap = 8;
        let f = ring(cap);
        for i in 0..cap as u64 {
            f.push(&ev(i));
        }
        assert_eq!(f.len(), cap);
        assert_eq!(f.total(), cap as u64);
        let snap = f.snapshot();
        assert_eq!(snap.len(), cap, "exactly full ring keeps every event");
        assert_eq!(snap.first().unwrap().at_us, 0);
        assert_eq!(snap.last().unwrap().at_us, cap as u64 - 1);
    }

    #[test]
    fn wraparound_at_capacity_plus_one_evicts_oldest() {
        let cap = 8;
        let f = ring(cap);
        for i in 0..cap as u64 + 1 {
            f.push(&ev(i));
        }
        assert_eq!(f.len(), cap, "len saturates at capacity");
        assert_eq!(f.total(), cap as u64 + 1, "total keeps counting");
        let snap = f.snapshot();
        assert_eq!(snap.len(), cap);
        assert_eq!(snap.first().unwrap().at_us, 1, "event 0 evicted");
        assert_eq!(snap.last().unwrap().at_us, cap as u64);
    }

    #[test]
    fn deep_wraparound_keeps_newest_window() {
        let f = ring(4);
        for i in 0..103 {
            f.push(&ev(i));
        }
        assert_eq!(at_us(&f.snapshot()), vec![99, 100, 101, 102]);
    }

    #[test]
    fn segments_allocate_on_first_write_and_wrap_across_segments() {
        for cap in [20usize, 256] {
            let f = ring(cap);
            let table = fixed_bytes(cap.div_ceil(SEGMENT_SLOTS), 0);
            assert_eq!(
                f.resident_bytes(),
                table,
                "cap {cap}: no slots before a push"
            );
            for i in 0..(3 * cap + 5) as u64 {
                f.push(&ev(i));
                let written = (i as usize + 1).min(cap).div_ceil(SEGMENT_SLOTS);
                assert_eq!(
                    f.resident_bytes(),
                    table + written as u64 * SEGMENT_BYTES,
                    "cap {cap}: segments after {} pushes",
                    i + 1
                );
                let total = i + 1;
                let start = total.saturating_sub(cap as u64);
                assert_eq!(
                    at_us(&f.snapshot()),
                    (start..total).collect::<Vec<_>>(),
                    "cap {cap} after {total} pushes"
                );
            }
        }
    }

    #[test]
    fn episode_runs_back_to_the_latest_replayed_event() {
        let replayed = |i: u64| TraceEvent {
            replayed: true,
            ..ev(i)
        };
        let f = ring(20);
        assert!(f.episode().is_empty(), "empty ring");
        f.push(&ev(0));
        f.push(&ev(1));
        assert_eq!(at_us(&f.episode()), vec![0, 1], "no replayed event: all");
        f.push(&replayed(2));
        assert_eq!(at_us(&f.episode()), vec![2], "newest is replayed");
        f.push(&ev(3));
        f.push(&ev(4));
        assert_eq!(at_us(&f.episode()), vec![2, 3, 4]);
        f.push(&replayed(5));
        f.push(&ev(6));
        assert_eq!(at_us(&f.episode()), vec![5, 6], "latest start wins");
        // The episode start wraps out of the ring: everything retained.
        for i in 7..40 {
            f.push(&ev(i));
        }
        assert_eq!(at_us(&f.episode()), (20..40).collect::<Vec<_>>());
        // An episode spanning the wrap point and a segment boundary.
        f.push(&replayed(40));
        for i in 41..55 {
            f.push(&ev(i));
        }
        assert_eq!(at_us(&f.episode()), (40..55).collect::<Vec<_>>());
    }

    /// A writer's event whose fields all derive from one counter, so a
    /// torn read would mix counters across fields.
    fn counted(i: u64) -> TraceEvent {
        TraceEvent {
            dt_secs: i as f64,
            transitions: i as u32,
            replayed: i.is_multiple_of(7),
            ..ev(i)
        }
    }

    fn assert_untorn(events: &[TraceEvent]) {
        for e in events {
            assert_eq!(e.at_us, e.dt_secs as u64, "torn event: {e:?}");
            assert_eq!(e.at_us as u32, e.transitions, "torn event: {e:?}");
        }
    }

    #[test]
    fn concurrent_reads_never_see_torn_events() {
        // The writer overwrites one segment without stopping until every
        // read is done, and the reads go on until it has wrapped the ring
        // many times. A one-slot ring puts every read on the slot being
        // written.
        for capacity in [SEGMENT_SLOTS, 1] {
            let f = Arc::new(ring(capacity));
            let stop = Arc::new(AtomicU64::new(0));
            let wf = Arc::clone(&f);
            let wstop = Arc::clone(&stop);
            let writer = std::thread::spawn(move || {
                let mut i = 0u64;
                while wstop.load(Ordering::Relaxed) == 0 {
                    wf.push(&counted(i));
                    i += 1;
                }
            });
            let mut reads = 0;
            while reads < 2000 || f.total() < 200_000 {
                assert_untorn(&f.snapshot());
                reads += 1;
            }
            stop.store(1, Ordering::Relaxed);
            writer.join().unwrap();
        }
    }

    #[test]
    fn concurrent_reads_never_see_torn_events_while_segments_allocate() {
        // The writer fills fresh rings one after another, allocating
        // every segment of each, and runs until every read is done; the
        // reader always reads the ring being written, and reads on until
        // the writer has filled several rings.
        const PUSHES: u64 = FLIGHT_CAPACITY as u64 + 44;
        let current = Arc::new(std::sync::Mutex::new(Arc::new(ring(FLIGHT_CAPACITY))));
        let (stop, filled) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let (wcurrent, wstop, wfilled) =
            (Arc::clone(&current), Arc::clone(&stop), Arc::clone(&filled));
        let writer = std::thread::spawn(move || {
            while wstop.load(Ordering::Relaxed) == 0 {
                let f = Arc::new(ring(FLIGHT_CAPACITY));
                *wcurrent.lock().unwrap() = Arc::clone(&f);
                for i in 0..PUSHES {
                    f.push(&counted(i));
                }
                wfilled.fetch_add(1, Ordering::Relaxed);
            }
        });
        let mut reads = 0;
        while reads < 2000 || filled.load(Ordering::Relaxed) < 8 {
            reads += 1;
            let f = Arc::clone(&current.lock().unwrap());
            for events in [f.snapshot(), f.episode()] {
                assert_untorn(&events);
                assert!(
                    events.iter().all(|e| e.at_us < f.total()),
                    "read past the writer"
                );
            }
        }
        stop.store(1, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn budget_evicts_least_recently_pushed_rings_whole() {
        let one_ring = fixed_bytes(1, 2) + SEGMENT_BYTES;
        let r = recorder(16, 8 * one_ring);
        for i in 0..8u64 {
            r.node(&format!("n{i}")).push(&ev(i));
        }
        assert_eq!(r.resident_bytes(), 8 * one_ring, "exactly at budget");
        assert_eq!(r.evicted(), 0);
        // A ninth ring passes the budget: the least recently pushed
        // rings go, down to 7/8 of it, and the one just created survives.
        r.node("n8").push(&ev(8));
        assert!(r.resident_bytes() <= 8 * one_ring - one_ring);
        assert_eq!(r.evicted(), 2);
        assert!(
            r.get("n0").is_none() && r.get("n1").is_none(),
            "least recently pushed evicted"
        );
        assert!(r.get("n2").is_some() && r.get("n8").is_some());
        assert!(
            r.dump_jsonl("n0").is_none(),
            "evicted ring reads as unknown"
        );
        // A held strong handle keeps an evicted ring charged until it goes.
        let held = r.node("n2");
        r.clear();
        assert_eq!(r.resident_bytes(), held.resident_bytes());
        drop(held);
        assert_eq!(r.resident_bytes(), 0, "every ring dropped");
    }

    #[test]
    fn growth_past_the_budget_evicts_too() {
        let r = recorder(64, 5 * SEGMENT_BYTES);
        let a = r.node("a");
        for i in 0..16 {
            a.push(&ev(i));
        }
        let b = Arc::downgrade(&r.node("b"));
        b.upgrade().unwrap().push(&ev(100));
        // Growing `a` to four segments passes the budget; `b`, pushed
        // less recently than `a`, goes.
        for i in 16..64 {
            a.push(&ev(1000 + i));
        }
        assert!(b.upgrade().is_none(), "weak handle does not pin");
        assert!(r.get("b").is_none());
        assert_eq!(r.evicted(), 1);
        assert_eq!(r.resident_bytes(), a.resident_bytes());
    }

    #[test]
    fn recency_is_push_order_not_event_time() {
        // Two segments per ring; names of one byte.
        let one_ring = fixed_bytes(2, 1) + SEGMENT_BYTES;
        let r = recorder(2 * SEGMENT_SLOTS, 3 * one_ring - 1);
        // A peer whose clock runs far ahead.
        r.node("a").push(&ev(u64::MAX / 2));
        let b = r.node("b");
        b.push(&ev(0));
        let c = r.node("c"); // created, not yet pushed
                             // `b`'s second segment passes the budget. `a`, pushed least
                             // recently despite its newest `at_us`, goes; `c` ranks by its
                             // creation, after `a`.
        for i in 1..=SEGMENT_SLOTS as u64 {
            b.push(&ev(i));
        }
        assert_eq!(r.evicted(), 1);
        assert!(r.get("a").is_none(), "future at_us outlived a newer push");
        assert!(r.get("b").is_some() && r.get("c").is_some());
        c.push(&ev(1));
        assert_eq!(r.get("c").unwrap().total(), 1, "created ring kept its push");
    }

    #[test]
    fn telemetry_publishes_bytes_and_evictions() {
        let t = Telemetry::enabled();
        let r = FlightRecorder::with_telemetry(&t);
        r.node("n1").push(&ev(1));
        let snap = t.snapshot().unwrap();
        assert_eq!(
            snap.gauge("obs.flight_bytes"),
            Some(r.resident_bytes() as f64)
        );
        assert_eq!(snap.counter("obs.flight_evicted"), Some(0));
    }

    #[test]
    fn recorder_registry_get_or_create() {
        let r = FlightRecorder::with_capacity(4);
        let a = r.node("n1");
        let b = r.node("n1");
        a.push(&ev(1));
        assert_eq!(b.len(), 1, "same ring behind both handles");
        assert!(r.get("n2").is_none());
        r.node("n2").push(&ev(2));
        assert_eq!(r.node_names(), vec!["n1".to_string(), "n2".to_string()]);
        let dump = r.dump_jsonl("n1").unwrap();
        assert!(dump.contains("\"node\":\"n1\""));
        assert!(r.dump_jsonl("missing").is_none());
        let all = r.dump_all_jsonl();
        assert_eq!(all.lines().count(), 2);
    }

    #[test]
    fn panic_dump_includes_warnings_and_timestamps_filenames() {
        let r = FlightRecorder::with_capacity(4);
        r.node("n1").push(&ev(1));
        let warnings = WarningLog::new(4);
        warnings.push(crate::trace::WarningRecord {
            node: "n1".into(),
            at_us: 1,
            predicted_lead_secs: 60.0,
            score: 0.3,
            class: "MCE".into(),
            matched_chain: -1,
            chain_distance: f64::NAN,
            evidence: vec!["mce".into()],
            trace: vec![ev(1)],
        });
        let body = panic_dump_jsonl(&r, Some(&warnings));
        assert!(body.contains("\"type\":\"trace\""));
        assert!(body.contains("\"type\":\"warning\""), "warning log in dump");
        assert_eq!(body.lines().count(), 2);
        // Without a warning log the dump is just the rings.
        assert_eq!(panic_dump_jsonl(&r, None).lines().count(), 1);

        // Same-millisecond dumps get distinct, timestamped names.
        let dir = std::env::temp_dir().join(format!("panic-dump-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = panic_dump_path(&dir);
        assert!(p1
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("panic-"));
        std::fs::write(&p1, "x").unwrap();
        let p2 = panic_dump_path(&dir);
        assert_ne!(p1, p2, "second panic never overwrites the first");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
