//! Fleet-scale streaming intake: sharded ingestion feeding wave-batched
//! detectors.
//!
//! [`IntakeServer`] accepts live log records — pushed in-process or as
//! raw text lines over TCP — hash-partitions them by node id
//! ([`crate::router::shard_of`]), and hands each shard's stream to a
//! dedicated worker thread owning that shard's [`BatchDetector`]. A node's
//! entire history lands on one shard, so carried recurrent state never
//! migrates and needs no locks; per-shard results are bit-identical to a
//! sequential detector over that shard's substream (the batch detector's
//! test-gated contract).
//!
//! Every line is classified once, on the thread that parses it: a
//! connection thread (or the caller of [`IntakeServer::push_record`],
//! [`IntakeServer::push_records`] and [`IntakeServer::push_line`], which
//! share one classifier) parses clock and node without allocating,
//! templates the text straight from the read buffer, and looks the
//! template up in a [`Classifier`] over the shards' one vocabulary. A
//! Safe line crosses the shard queue as a text-free entry that the worker
//! only counts (and hands to an attached shadow by its time); any other
//! line carries its phrase id and terminal flag and is never templated
//! again.
//!
//! Queues are bounded (`queue_depth`) with explicit backpressure:
//!
//! * [`Backpressure::Block`] (default) — producers wait for space; no
//!   event is ever dropped, at the cost of stalling the feed.
//! * [`Backpressure::DropOldest`] — the oldest queued record is dropped
//!   to admit the new one; every drop is counted per shard
//!   (`ingest.dropped[shard=N]`), never silent.
//!
//! Per-shard gauges (`ingest.events_per_s[shard=N]`,
//! `ingest.queue_depth[shard=N]`, `ingest.resident_nodes[shard=N]`) and
//! the per-shard queue-wait histogram (`ingest.queue_wait_us[shard=N]`,
//! enqueue → worker drain) render on `/metrics` with proper Prometheus
//! labels; wave occupancy lands in the shared `ingest.batch_size`
//! histogram.
//!
//! Nothing a TCP peer sends can grow intake memory or vanish uncounted:
//! a line longer than [`MAX_LINE_BYTES`], a line that is not UTF-8 and a
//! line that does not parse are each skipped to the next newline and
//! counted by reason (`ingest.rejected[reason=R]`), with the connection
//! kept open; at most [`MAX_CONNECTIONS`] connections are served at once,
//! and each one refused past that is counted
//! (`ingest.refused_connections`).

use crate::batch::{BatchDetector, ClassifiedLine};
use crate::online::Warning;
use crate::router::shard_of;
use desh_loggen::{DayClock, LogRecord};
use desh_logparse::{Classifier, Vocab};
use desh_obs::{Counter, Gauge, LatencyHistogram, Telemetry};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What to do when a shard queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the producer until the worker frees space (lossless).
    Block,
    /// Drop the oldest queued record to admit the new one (bounded
    /// latency, counted loss).
    DropOldest,
}

/// Longest line a connection may send, newline excluded. A longer line
/// is skipped to its newline and rejected, never buffered whole.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Most TCP connections served at once. The acceptor closes each
/// connection past it right away and counts the refusal.
pub const MAX_CONNECTIONS: usize = 64;

/// Why a raw line was rejected instead of enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Not a log line the parser accepts.
    Unparseable,
    /// Longer than [`MAX_LINE_BYTES`].
    Oversize,
    /// Not valid UTF-8.
    NotUtf8,
}

impl RejectReason {
    const ALL: [RejectReason; 3] = [
        RejectReason::Unparseable,
        RejectReason::Oversize,
        RejectReason::NotUtf8,
    ];

    fn label(self) -> &'static str {
        match self {
            RejectReason::Unparseable => "unparseable",
            RejectReason::Oversize => "oversize",
            RejectReason::NotUtf8 => "not_utf8",
        }
    }
}

/// Intake tuning knobs.
#[derive(Debug, Clone)]
pub struct IntakeConfig {
    /// Bounded per-shard queue depth.
    pub queue_depth: usize,
    /// Maximum records a worker drains into one `ingest_chunk` call (the
    /// batching window: bigger chunks → fuller waves, more latency).
    pub batch_max: usize,
    /// Full-queue policy.
    pub backpressure: Backpressure,
    /// Test/bench hook: artificial stall (µs) after each worker chunk, to
    /// make producer-overrun scenarios deterministic. Zero in production.
    pub worker_throttle_us: u64,
}

impl Default for IntakeConfig {
    fn default() -> Self {
        Self {
            queue_depth: 8192,
            batch_max: 256,
            backpressure: Backpressure::Block,
            worker_throttle_us: 0,
        }
    }
}

/// One shard's bounded queue. `not_empty` wakes the worker; `changed`
/// wakes blocked producers and drain barriers whenever the queue shrinks
/// or the worker goes idle.
#[derive(Debug)]
struct ShardQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct QueueState {
    /// Each line carries its enqueue instant, read once per pushed group,
    /// so the worker can measure queue wait (enqueue → drain) into
    /// `ingest.queue_wait_us[shard=N]`.
    buf: VecDeque<(Instant, ClassifiedLine)>,
    /// No more pushes; workers exit once the buffer drains.
    closed: bool,
    /// The worker is mid-chunk (drained records not yet scored).
    inflight: bool,
}

/// Per-shard counters kept as plain atomics so they survive `stop()`.
#[derive(Debug, Default)]
struct ShardStats {
    /// Records drained from the queue into the detector.
    processed: AtomicU64,
    /// Records dropped by [`Backpressure::DropOldest`].
    dropped: AtomicU64,
}

/// Pre-resolved per-shard metric handles.
#[derive(Debug)]
struct ShardMetrics {
    events_per_s: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    resident: Arc<Gauge>,
    dropped: Arc<Counter>,
    /// Enqueue-to-drain wait per record, microseconds.
    queue_wait: Arc<LatencyHistogram>,
}

/// Pre-resolved intake-wide metric handles.
#[derive(Debug)]
struct IntakeMetrics {
    /// `ingest.rejected[reason=R]`, indexed like [`RejectReason::ALL`].
    rejected: [Arc<Counter>; 3],
    /// `ingest.refused_connections`.
    refused: Arc<Counter>,
}

#[derive(Debug)]
struct Inner {
    queues: Vec<ShardQueue>,
    cfg: IntakeConfig,
    warnings: Mutex<Vec<Warning>>,
    stats: Vec<ShardStats>,
    metrics: Option<Vec<ShardMetrics>>,
    intake_metrics: Option<IntakeMetrics>,
    /// Rejected lines, indexed like [`RejectReason::ALL`].
    rejected: [AtomicU64; 3],
    /// Connections closed at accept because [`MAX_CONNECTIONS`] were open.
    refused: AtomicU64,
    /// The vocabulary every shard detector shares; each connection's
    /// classifier interns into it.
    vocab: Arc<Vocab>,
    telemetry: Telemetry,
    /// Classification and day reconstruction for lines pushed through
    /// the server handle (each TCP connection keeps its own).
    pushed: Mutex<PushState>,
    shutdown: AtomicBool,
}

/// What the push methods share: one classifier, and the day clock of the
/// lines [`IntakeServer::push_line`] is given.
#[derive(Debug)]
struct PushState {
    classifier: Classifier,
    clock: DayClock,
}

impl Inner {
    fn reject(&self, reason: RejectReason) {
        self.rejected[reason as usize].fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.intake_metrics {
            m.rejected[reason as usize].inc();
        }
    }

    fn refuse(&self) {
        self.refused.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.intake_metrics {
            m.refused.inc();
        }
    }
}

/// The sharded streaming intake. See the module docs for the design.
#[derive(Debug)]
pub struct IntakeServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<BatchDetector>>,
    acceptors: Vec<JoinHandle<()>>,
}

impl IntakeServer {
    /// Start one worker per detector (shard `i` owns `detectors[i]`).
    /// Per-shard gauges and drop counters register in `telemetry` when it
    /// is enabled. Lines are classified before they are routed, so every
    /// detector must share one vocabulary.
    pub fn start(
        detectors: Vec<BatchDetector>,
        cfg: IntakeConfig,
        telemetry: &Telemetry,
    ) -> IntakeServer {
        assert!(!detectors.is_empty(), "intake needs at least one shard");
        let vocab = Arc::clone(detectors[0].vocab());
        assert!(
            detectors.iter().all(|d| Arc::ptr_eq(d.vocab(), &vocab)),
            "intake shards must share one vocabulary"
        );
        assert!(cfg.queue_depth > 0, "queue depth must be non-zero");
        assert!(cfg.batch_max > 0, "batching window must be non-zero");
        let shards = detectors.len();
        let metrics = telemetry.registry().map(|r| {
            (0..shards)
                .map(|s| ShardMetrics {
                    events_per_s: r.gauge(&format!("ingest.events_per_s[shard={s}]")),
                    queue_depth: r.gauge(&format!("ingest.queue_depth[shard={s}]")),
                    resident: r.gauge(&format!("ingest.resident_nodes[shard={s}]")),
                    dropped: r.counter(&format!("ingest.dropped[shard={s}]")),
                    queue_wait: r.histogram(&format!("ingest.queue_wait_us[shard={s}]")),
                })
                .collect()
        });
        let inner = Arc::new(Inner {
            queues: (0..shards)
                .map(|_| ShardQueue {
                    state: Mutex::new(QueueState::default()),
                    not_empty: Condvar::new(),
                    changed: Condvar::new(),
                })
                .collect(),
            cfg,
            warnings: Mutex::new(Vec::new()),
            stats: (0..shards).map(|_| ShardStats::default()).collect(),
            metrics,
            intake_metrics: telemetry.registry().map(|r| IntakeMetrics {
                rejected: RejectReason::ALL
                    .map(|why| r.counter(&format!("ingest.rejected[reason={}]", why.label()))),
                refused: r.counter("ingest.refused_connections"),
            }),
            rejected: Default::default(),
            refused: AtomicU64::new(0),
            pushed: Mutex::new(PushState {
                classifier: Classifier::with_telemetry(Arc::clone(&vocab), telemetry),
                clock: DayClock::new(),
            }),
            vocab,
            telemetry: telemetry.clone(),
            shutdown: AtomicBool::new(false),
        });
        let workers = detectors
            .into_iter()
            .enumerate()
            .map(|(shard, det)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("desh-intake-{shard}"))
                    .spawn(move || worker_loop(shard, det, inner))
                    .expect("spawn intake worker")
            })
            .collect();
        IntakeServer {
            inner,
            workers,
            acceptors: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.queues.len()
    }

    fn pushed(&self) -> std::sync::MutexGuard<'_, PushState> {
        self.inner
            .pushed
            .lock()
            .expect("no thread panics while classifying")
    }

    /// Classify one pre-parsed record and route it to its shard,
    /// applying backpressure.
    pub fn push_record(&self, record: LogRecord) {
        let line = {
            let classifier = &mut self.pushed().classifier;
            ClassifiedLine::new(classifier, record.time, record.node, &record.text)
        };
        let shard = shard_of(record.node, self.shards());
        push_group(&self.inner, shard, std::iter::once(line));
    }

    /// Classify and route a batch of pre-parsed records, amortizing the
    /// per-shard lock/notify to once per call instead of once per record
    /// — the producer-side fast path (a single-record `push_record` tops
    /// out near the detector's own single-stream rate and becomes the
    /// bottleneck).
    pub fn push_records<I: IntoIterator<Item = LogRecord>>(&self, records: I) {
        let shards = self.shards();
        let mut groups: Vec<Vec<ClassifiedLine>> = (0..shards).map(|_| Vec::new()).collect();
        {
            let mut pushed = self.pushed();
            for r in records {
                let line = ClassifiedLine::new(&mut pushed.classifier, r.time, r.node, &r.text);
                groups[shard_of(r.node, shards)].push(line);
            }
        }
        for (shard, group) in groups.into_iter().enumerate() {
            if !group.is_empty() {
                push_group(&self.inner, shard, group);
            }
        }
    }

    /// Parse one raw log line and route it. Unparseable lines are counted
    /// and reported, never enqueued. Lines pushed here form one stream
    /// whose 24 h clock is re-sequenced into absolute times (a backward
    /// clock step starts a new day), as `read_log_file` does.
    pub fn push_line(&self, line: &str) -> Result<(), String> {
        let classified = {
            let PushState { classifier, clock } = &mut *self.pushed();
            clock.parse_head(line).map(|h| {
                let shard = shard_of(h.node, self.shards());
                (shard, ClassifiedLine::new(classifier, h.time, h.node, h.text))
            })
        };
        match classified {
            Some((shard, l)) => {
                push_group(&self.inner, shard, std::iter::once(l));
                Ok(())
            }
            None => {
                self.inner.reject(RejectReason::Unparseable);
                Err(format!("invalid log line: {line}"))
            }
        }
    }

    /// Serve raw log lines over TCP: one record per line, up to
    /// [`MAX_CONNECTIONS`] concurrent connections. The listener is polled
    /// so `stop()` can shut the acceptor down promptly, and finished
    /// connection threads are joined on every pass.
    pub fn serve_tcp(&mut self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let inner = Arc::clone(&self.inner);
        let shards = self.shards();
        let acceptor = std::thread::Builder::new()
            .name("desh-intake-accept".into())
            .spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                while !inner.shutdown.load(Ordering::Acquire) {
                    let mut i = 0;
                    while i < conns.len() {
                        if conns[i].is_finished() {
                            conns.swap_remove(i).join().ok();
                        } else {
                            i += 1;
                        }
                    }
                    match listener.accept() {
                        Ok((stream, _peer)) if conns.len() >= MAX_CONNECTIONS => {
                            // Counted before the close, so a peer that
                            // sees it already finds the count.
                            inner.refuse();
                            drop(stream);
                        }
                        Ok((stream, _peer)) => {
                            stream
                                .set_read_timeout(Some(Duration::from_millis(100)))
                                .ok();
                            let inner = Arc::clone(&inner);
                            conns.push(
                                std::thread::Builder::new()
                                    .name("desh-intake-conn".into())
                                    .spawn(move || conn_loop(stream, inner, shards))
                                    .expect("spawn intake connection"),
                            );
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
                for c in conns {
                    c.join().ok();
                }
            })
            .expect("spawn intake acceptor");
        self.acceptors.push(acceptor);
        Ok(())
    }

    /// Block until every shard queue is empty AND every worker is idle:
    /// all records pushed before this call have been fully scored.
    pub fn drain(&self) {
        for sq in &self.inner.queues {
            let mut st = sq.state.lock().unwrap();
            while !st.buf.is_empty() || st.inflight {
                st = sq.changed.wait(st).unwrap();
            }
        }
    }

    /// Take every warning fired so far, in per-shard record order
    /// (cross-shard interleaving follows scoring completion).
    pub fn take_warnings(&self) -> Vec<Warning> {
        std::mem::take(&mut *self.inner.warnings.lock().unwrap())
    }

    /// Records drained into detectors so far (pre-Safe-filter).
    pub fn records_processed(&self) -> u64 {
        self.inner
            .stats
            .iter()
            .map(|s| s.processed.load(Ordering::Relaxed))
            .sum()
    }

    /// Records dropped by [`Backpressure::DropOldest`] so far.
    pub fn records_dropped(&self) -> u64 {
        self.inner
            .stats
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Lines rejected so far, for every [`RejectReason`].
    pub fn parse_errors(&self) -> u64 {
        RejectReason::ALL
            .iter()
            .map(|&why| self.rejected(why))
            .sum()
    }

    /// Lines rejected so far for one reason.
    pub fn rejected(&self, reason: RejectReason) -> u64 {
        self.inner.rejected[reason as usize].load(Ordering::Relaxed)
    }

    /// Connections refused so far because [`MAX_CONNECTIONS`] were open.
    pub fn connections_refused(&self) -> u64 {
        self.inner.refused.load(Ordering::Relaxed)
    }

    /// Shut down: stop accepting, let workers drain their queues, and
    /// return the shard detectors (capture taps, counters, and resident
    /// state intact) for inspection or sealing.
    pub fn stop(mut self) -> Vec<BatchDetector> {
        self.inner.shutdown.store(true, Ordering::Release);
        for sq in &self.inner.queues {
            sq.state.lock().unwrap().closed = true;
            sq.not_empty.notify_all();
            sq.changed.notify_all();
        }
        for a in self.acceptors.drain(..) {
            a.join().ok();
        }
        self.workers
            .drain(..)
            .map(|w| w.join().expect("intake worker panicked"))
            .collect()
    }
}

impl Drop for IntakeServer {
    fn drop(&mut self) {
        // `stop()` drains these; a dropped-without-stop server still shuts
        // its threads down cleanly.
        self.inner.shutdown.store(true, Ordering::Release);
        for sq in &self.inner.queues {
            sq.state.lock().unwrap().closed = true;
            sq.not_empty.notify_all();
            sq.changed.notify_all();
        }
        for a in self.acceptors.drain(..) {
            a.join().ok();
        }
        for w in self.workers.drain(..) {
            w.join().ok();
        }
    }
}

/// How many parsed lines a connection thread accumulates per shard
/// before flushing into the queues. Bounds the parse-to-score latency a
/// slow trickle can see while keeping lock traffic amortized.
const CONN_FLUSH_EVERY: usize = 64;

/// What [`read_bounded_line`] found.
#[derive(Debug, PartialEq, Eq)]
enum ReadLine {
    /// A whole line is in the buffer, newline excluded.
    Line,
    /// A line longer than [`MAX_LINE_BYTES`] was read and discarded.
    Oversize,
    /// The peer closed the stream.
    Eof,
}

/// Read up to the next newline into `buf`, holding at most
/// [`MAX_LINE_BYTES`] of it: past the cap the bytes read are dropped and
/// the rest of the line is skipped (`skipping` carries that across
/// calls). On a read timeout the error returns with the partial line
/// kept in `buf` and `skipping`, so calling again resumes the line. At
/// EOF a last line without a newline still counts as a line.
fn read_bounded_line(
    r: &mut impl BufRead,
    buf: &mut Vec<u8>,
    skipping: &mut bool,
) -> io::Result<ReadLine> {
    loop {
        if buf.len() > MAX_LINE_BYTES {
            buf.clear();
            *skipping = true;
        }
        let limit = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        let n = r.by_ref().take(limit).read_until(b'\n', buf)?;
        let ended = buf.last() == Some(&b'\n');
        if ended {
            buf.pop();
        }
        if ended || n == 0 {
            if std::mem::take(skipping) {
                buf.clear();
                return Ok(ReadLine::Oversize);
            }
            return Ok(if ended || !buf.is_empty() {
                ReadLine::Line
            } else {
                ReadLine::Eof
            });
        }
    }
}

/// One TCP connection: bounded line reads ([`read_bounded_line`]),
/// timeouts polled against the shutdown flag so `stop()` never hangs on
/// an idle client. Each connection is one ordered stream with its own
/// [`DayClock`], so lines past 24:00 keep absolute times before they are
/// routed, and its own [`Classifier`] over the shards' vocabulary. Lines
/// that are too long, not UTF-8 or unparseable are counted by
/// [`RejectReason`] and skipped; the connection stays open. Classified
/// lines batch into per-shard groups and flush every [`CONN_FLUSH_EVERY`]
/// lines — and on every read stall/EOF, so a quiet line still reaches
/// its detector promptly.
fn conn_loop(stream: std::net::TcpStream, inner: Arc<Inner>, shards: usize) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut skipping = false;
    let mut clock = DayClock::new();
    let mut classifier = Classifier::with_telemetry(Arc::clone(&inner.vocab), &inner.telemetry);
    let mut groups: Vec<Vec<ClassifiedLine>> = (0..shards).map(|_| Vec::new()).collect();
    let mut pending = 0usize;
    let flush = |groups: &mut Vec<Vec<ClassifiedLine>>, pending: &mut usize| {
        for (shard, group) in groups.iter_mut().enumerate() {
            if !group.is_empty() {
                push_group(&inner, shard, group.drain(..));
            }
        }
        *pending = 0;
    };
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            flush(&mut groups, &mut pending);
            return;
        }
        match read_bounded_line(&mut reader, &mut line, &mut skipping) {
            Ok(ReadLine::Eof) => {
                flush(&mut groups, &mut pending);
                return;
            }
            Ok(ReadLine::Oversize) => inner.reject(RejectReason::Oversize),
            Ok(ReadLine::Line) => {
                match std::str::from_utf8(&line) {
                    Err(_) => inner.reject(RejectReason::NotUtf8),
                    Ok(text) => {
                        let trimmed = text.trim_end_matches('\r');
                        if !trimmed.is_empty() {
                            match clock.parse_head(trimmed) {
                                Some(h) => {
                                    let shard = shard_of(h.node, shards);
                                    groups[shard].push(ClassifiedLine::new(
                                        &mut classifier,
                                        h.time,
                                        h.node,
                                        h.text,
                                    ));
                                    pending += 1;
                                    if pending >= CONN_FLUSH_EVERY {
                                        flush(&mut groups, &mut pending);
                                    }
                                }
                                None => inner.reject(RejectReason::Unparseable),
                            }
                        }
                    }
                }
                line.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                flush(&mut groups, &mut pending);
                continue;
            }
            Err(_) => {
                flush(&mut groups, &mut pending);
                return;
            }
        }
    }
}

/// Enqueue a pre-routed group of lines on one shard under a single lock
/// acquisition, applying backpressure per line. The group shares one
/// enqueue instant, read again after each wait for space. Shared by the
/// server handle and the connection threads (which hold an `Arc<Inner>`).
fn push_group<I: IntoIterator<Item = ClassifiedLine>>(inner: &Inner, shard: usize, lines: I) {
    let sq = &inner.queues[shard];
    let mut st = sq.state.lock().unwrap();
    let mut stamp = Instant::now();
    for line in lines {
        while st.buf.len() >= inner.cfg.queue_depth {
            match inner.cfg.backpressure {
                Backpressure::Block => {
                    if st.closed {
                        return;
                    }
                    // The worker may not have been woken for what this
                    // call already queued; without this nudge a group
                    // larger than the queue deadlocks on itself.
                    sq.not_empty.notify_one();
                    st = sq.changed.wait(st).unwrap();
                    stamp = Instant::now();
                }
                Backpressure::DropOldest => {
                    st.buf.pop_front();
                    inner.stats[shard].dropped.fetch_add(1, Ordering::Relaxed);
                    if let Some(ms) = &inner.metrics {
                        ms[shard].dropped.inc();
                    }
                    break;
                }
            }
        }
        st.buf.push_back((stamp, line));
    }
    if let Some(ms) = &inner.metrics {
        ms[shard].queue_depth.set(st.buf.len() as f64);
    }
    drop(st);
    sq.not_empty.notify_one();
}

/// Shard worker: drain up to `batch_max` lines, score them as one chunk
/// (waves batch within it), publish warnings, update gauges. Queue wait
/// is recorded once per run of lines that share an enqueue instant.
fn worker_loop(shard: usize, mut det: BatchDetector, inner: Arc<Inner>) -> BatchDetector {
    let sq = &inner.queues[shard];
    let queue_wait = inner.metrics.as_ref().map(|ms| &ms[shard].queue_wait);
    let mut chunk: Vec<ClassifiedLine> = Vec::with_capacity(inner.cfg.batch_max);
    let mut warnings: Vec<Warning> = Vec::new();
    let mut rate_t0 = Instant::now();
    let mut rate_n = 0u64;
    loop {
        {
            let mut st = sq.state.lock().unwrap();
            while st.buf.is_empty() {
                if st.closed {
                    return det;
                }
                st = sq.not_empty.wait(st).unwrap();
            }
            st.inflight = true;
            let n = st.buf.len().min(inner.cfg.batch_max);
            let drained = Instant::now();
            let record_wait = |(enq, k): (Instant, u64)| {
                if let Some(h) = queue_wait {
                    h.record_n(drained.saturating_duration_since(enq).as_micros() as u64, k);
                }
            };
            let mut run: Option<(Instant, u64)> = None;
            for (enq, line) in st.buf.drain(..n) {
                chunk.push(line);
                match &mut run {
                    Some((at, k)) if *at == enq => *k += 1,
                    _ => {
                        if let Some(done) = run.replace((enq, 1)) {
                            record_wait(done);
                        }
                    }
                }
            }
            if let Some(done) = run {
                record_wait(done);
            }
            if let Some(ms) = &inner.metrics {
                ms[shard].queue_depth.set(st.buf.len() as f64);
            }
        }
        sq.changed.notify_all();

        det.ingest_lines(&chunk, &mut warnings);
        inner.stats[shard]
            .processed
            .fetch_add(chunk.len() as u64, Ordering::Relaxed);
        rate_n += chunk.len() as u64;
        if !warnings.is_empty() {
            inner.warnings.lock().unwrap().append(&mut warnings);
        }
        if inner.cfg.worker_throttle_us > 0 {
            std::thread::sleep(Duration::from_micros(inner.cfg.worker_throttle_us));
        }
        if let Some(ms) = &inner.metrics {
            let dt = rate_t0.elapsed();
            if dt >= Duration::from_millis(250) {
                ms[shard].events_per_s.set(rate_n as f64 / dt.as_secs_f64());
                rate_t0 = Instant::now();
                rate_n = 0;
            }
            ms[shard].resident.set(det.resident_nodes() as f64);
        }
        chunk.clear();

        {
            let mut st = sq.state.lock().unwrap();
            st.inflight = false;
        }
        sq.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeshConfig;
    use crate::online::OnlineDetector;
    use crate::pipeline::Desh;
    use desh_loggen::{generate, SystemProfile};
    use std::io::Write;

    fn trained(
        seed: u64,
    ) -> (
        crate::pipeline::TrainedDesh,
        DeshConfig,
        desh_loggen::Dataset,
    ) {
        let mut p = SystemProfile::tiny();
        p.failures = 30;
        p.nodes = 24;
        let d = generate(&p, seed);
        let (train, test) = d.split_by_time(0.3);
        let desh = Desh::new(DeshConfig::fast(), seed);
        let t = desh.train(&train);
        (t, desh.cfg, test)
    }

    fn shard_detectors(
        t: &crate::pipeline::TrainedDesh,
        cfg: &DeshConfig,
        shards: usize,
        telemetry: &Telemetry,
    ) -> Vec<BatchDetector> {
        (0..shards)
            .map(|_| {
                let mut d = BatchDetector::with_telemetry(
                    t.lead_model.clone(),
                    t.parsed_train.vocab.clone(),
                    cfg.clone(),
                    64,
                    telemetry,
                );
                d.attach_chains(&t.phase1.chains);
                d
            })
            .collect()
    }

    fn sort_key(w: &Warning) -> (u64, usize) {
        (w.at.0, w.node.to_index())
    }

    #[test]
    fn sharded_intake_matches_sequential_warnings() {
        let (t, cfg, test) = trained(501);
        let mut seq = OnlineDetector::new(
            t.lead_model.clone(),
            t.parsed_train.vocab.clone(),
            cfg.clone(),
        );
        seq.attach_chains(&t.phase1.chains);
        let mut seq_warnings: Vec<Warning> = Vec::new();
        for r in &test.records {
            if let Some(w) = seq.ingest(r) {
                seq_warnings.push(w);
            }
        }
        assert!(!seq_warnings.is_empty());

        let telemetry = Telemetry::disabled();
        let server = IntakeServer::start(
            shard_detectors(&t, &cfg, 4, &telemetry),
            IntakeConfig::default(),
            &telemetry,
        );
        for r in &test.records {
            server.push_record(r.clone());
        }
        server.drain();
        let mut got = server.take_warnings();
        assert_eq!(server.records_processed(), test.records.len() as u64);
        assert_eq!(server.records_dropped(), 0, "Block must never drop");
        let dets = server.stop();
        assert_eq!(dets.len(), 4);

        // Cross-shard completion order is nondeterministic; per-node
        // content is not. Compare field-for-field under a canonical sort.
        seq_warnings.sort_by_key(sort_key);
        got.sort_by_key(sort_key);
        assert_eq!(seq_warnings.len(), got.len());
        for (a, b) in seq_warnings.iter().zip(&got) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.at, b.at);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(
                a.predicted_lead_secs.to_bits(),
                b.predicted_lead_secs.to_bits()
            );
            assert_eq!(a.class, b.class);
            assert_eq!(a.matched_chain, b.matched_chain);
        }
        let total_events: u64 = dets.iter().map(|d| d.events_seen()).sum();
        assert_eq!(total_events, seq.events_seen());
    }

    #[test]
    fn drop_oldest_counts_every_shed_record() {
        let (t, cfg, test) = trained(502);
        let telemetry = Telemetry::enabled();
        let server = IntakeServer::start(
            shard_detectors(&t, &cfg, 1, &telemetry),
            IntakeConfig {
                queue_depth: 8,
                batch_max: 8,
                backpressure: Backpressure::DropOldest,
                worker_throttle_us: 2000,
            },
            &telemetry,
        );
        let pushed = test.records.len().min(2000) as u64;
        for r in test.records.iter().take(2000) {
            server.push_record(r.clone());
        }
        server.drain();
        let dropped = server.records_dropped();
        assert!(dropped > 0, "throttled worker + depth-8 queue must shed");
        assert_eq!(
            server.records_processed() + dropped,
            pushed,
            "every record is either scored or counted as dropped"
        );
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("ingest.dropped[shard=0]"), Some(dropped));
        server.stop();
    }

    #[test]
    fn per_shard_gauges_render_with_labels() {
        let (t, cfg, test) = trained(503);
        let telemetry = Telemetry::enabled();
        let server = IntakeServer::start(
            shard_detectors(&t, &cfg, 2, &telemetry),
            IntakeConfig::default(),
            &telemetry,
        );
        server.push_records(test.records.iter().cloned());
        server.drain();
        let processed = server.records_processed();
        server.stop();
        let snap = telemetry.snapshot().unwrap();
        for s in 0..2 {
            assert!(
                snap.gauge(&format!("ingest.resident_nodes[shard={s}]"))
                    .is_some(),
                "shard {s} resident gauge missing"
            );
        }
        let sizes = snap.histogram("ingest.batch_size").unwrap();
        assert!(sizes.count() > 0, "no waves recorded");
        // Every drained record measured its enqueue→drain wait, so the
        // per-shard waits must sum to the records processed.
        let waited: u64 = (0..2)
            .map(|s| {
                snap.histogram(&format!("ingest.queue_wait_us[shard={s}]"))
                    .map_or(0, |h| h.count())
            })
            .sum();
        assert_eq!(waited, processed, "queue-wait coverage");
        let prom = desh_obs::render_prometheus(&snap);
        assert!(
            prom.contains("ingest_resident_nodes{shard=\"0\"}"),
            "labelled gauge not rendered:\n{prom}"
        );
    }

    #[test]
    fn tcp_lines_flow_through_to_warnings() {
        let (t, cfg, test) = trained(504);
        let telemetry = Telemetry::disabled();
        let mut server = IntakeServer::start(
            shard_detectors(&t, &cfg, 2, &telemetry),
            IntakeConfig::default(),
            &telemetry,
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        server.serve_tcp(listener).unwrap();

        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        let n = 4000.min(test.records.len());
        let mut payload = String::new();
        for r in test.records.iter().take(n) {
            payload.push_str(&r.to_raw_line());
            payload.push('\n');
        }
        payload.push_str("this line is garbage\n");
        conn.write_all(payload.as_bytes()).unwrap();
        conn.flush().unwrap();
        drop(conn);

        // EOF is async: wait for the connection thread to finish pushing.
        let t0 = Instant::now();
        while server.records_processed() < n as u64 && t0.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(20));
        }
        server.drain();
        assert_eq!(server.records_processed(), n as u64);
        assert_eq!(server.parse_errors(), 1);
        server.stop();
    }

    #[test]
    fn bounded_reads_cap_lines_without_buffering_them() {
        let mut input = b"abc\r\n".to_vec();
        input.extend(vec![b'x'; MAX_LINE_BYTES]);
        input.push(b'\n');
        input.extend(vec![b'y'; 3 * MAX_LINE_BYTES + 1]);
        input.push(b'\n');
        input.extend(b"tail");
        let mut r = BufReader::with_capacity(4096, input.as_slice());
        let (mut buf, mut skipping) = (Vec::new(), false);
        let mut next = |buf: &mut Vec<u8>| {
            buf.clear();
            read_bounded_line(&mut r, buf, &mut skipping).unwrap()
        };
        assert_eq!(next(&mut buf), ReadLine::Line);
        assert_eq!(buf, b"abc\r");
        assert_eq!(next(&mut buf), ReadLine::Line, "a line at the cap is kept");
        assert_eq!(buf.len(), MAX_LINE_BYTES);
        assert_eq!(next(&mut buf), ReadLine::Oversize);
        assert!(
            buf.capacity() <= 2 * MAX_LINE_BYTES,
            "oversize line was buffered"
        );
        assert_eq!(next(&mut buf), ReadLine::Line, "last line without newline");
        assert_eq!(buf, b"tail");
        assert_eq!(next(&mut buf), ReadLine::Eof);
    }

    /// Poll until `done` holds, failing after 30 s.
    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let t0 = Instant::now();
        while !done() {
            assert!(t0.elapsed() < Duration::from_secs(30), "timed out: {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn tcp_server(
        t: &crate::pipeline::TrainedDesh,
        cfg: &DeshConfig,
    ) -> (IntakeServer, std::net::SocketAddr) {
        let telemetry = Telemetry::disabled();
        let mut server = IntakeServer::start(
            shard_detectors(t, cfg, 2, &telemetry),
            IntakeConfig::default(),
            &telemetry,
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        server.serve_tcp(listener).unwrap();
        (server, addr)
    }

    #[test]
    fn tcp_rejects_bad_lines_by_reason_and_keeps_the_connection() {
        let (t, cfg, test) = trained(505);
        let (server, addr) = tcp_server(&t, &cfg);
        let lines: Vec<String> = test
            .records
            .iter()
            .take(200)
            .map(|r| r.to_raw_line())
            .collect();
        let mut payload = Vec::new();
        for l in &lines[..100] {
            payload.extend(l.as_bytes());
            payload.push(b'\n');
        }
        payload.extend(vec![b'z'; 1 << 20]);
        payload.push(b'\n');
        let mut bad = lines[0].clone().into_bytes();
        bad.insert(3, 0xFF);
        payload.extend(bad);
        payload.push(b'\n');
        payload.extend(b"not a log line\n");
        for l in &lines[100..] {
            payload.extend(l.as_bytes());
            payload.push(b'\n');
        }
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(&payload).unwrap();
        conn.flush().unwrap();
        drop(conn);

        let sent = lines.len() as u64 + 3;
        wait_for("every line accounted for", || {
            server.records_processed() + server.parse_errors() == sent
        });
        assert_eq!(
            server.records_processed(),
            lines.len() as u64,
            "valid lines lost"
        );
        assert_eq!(server.rejected(RejectReason::Oversize), 1);
        assert_eq!(server.rejected(RejectReason::NotUtf8), 1);
        assert_eq!(server.rejected(RejectReason::Unparseable), 1);
        assert_eq!(server.parse_errors(), 3);
        server.stop();
    }

    #[test]
    fn distinct_unknown_lines_over_tcp_stay_within_the_vocabulary_bound() {
        use desh_logparse::vocab::{MAX_TEMPLATES, MAX_TEMPLATE_BYTES};
        let (t, cfg, _) = trained(507);
        let telemetry = Telemetry::enabled();
        let mut server = IntakeServer::start(
            shard_detectors(&t, &cfg, 2, &telemetry),
            IntakeConfig::default(),
            &telemetry,
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        server.serve_tcp(listener).unwrap();
        let vocab = Arc::clone(&t.parsed_train.vocab);
        let trained_templates = vocab.len() as u64;

        // Each line's template is new: a digit-free word no other line has.
        let lines = 100_000u64;
        let mut payload = String::new();
        for i in 0..lines {
            let mut word = String::new();
            let mut k = i;
            loop {
                word.push(char::from(b'g' + (k % 20) as u8));
                k /= 20;
                if k == 0 {
                    break;
                }
            }
            payload.push_str(&format!("00:00:01.000000 c0-0c0s{}n0 novel fault {word}\n", i % 16));
        }
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(payload.as_bytes()).unwrap();
        drop(conn);
        wait_for("every line processed", || server.records_processed() == lines);
        server.drain();

        assert_eq!(vocab.len(), MAX_TEMPLATES, "the vocabulary filled to its bound");
        assert!(vocab.bytes() <= MAX_TEMPLATE_BYTES);
        let overflow = telemetry.snapshot().unwrap().counter("ingest.vocab_overflow");
        assert_eq!(
            overflow,
            Some(lines - (MAX_TEMPLATES as u64 - trained_templates)),
            "every line past the bound is counted"
        );
        server.stop();
    }

    #[test]
    fn connection_cap_refuses_past_the_cap_and_reaps_finished_connections() {
        let (t, cfg, test) = trained(506);
        let line = format!("{}\n", test.records[0].to_raw_line());

        // Twice the cap of short connections, one after another: each
        // finished connection is reaped, so none is refused.
        let (server, addr) = tcp_server(&t, &cfg);
        for k in 1..=2 * MAX_CONNECTIONS as u64 {
            let mut c = std::net::TcpStream::connect(addr).unwrap();
            c.write_all(line.as_bytes()).unwrap();
            drop(c);
            wait_for("short connection served", || {
                server.records_processed() == k
            });
        }
        assert_eq!(server.connections_refused(), 0);
        server.stop();

        // The cap held open, plus one: the extra is closed and counted.
        let (server, addr) = tcp_server(&t, &cfg);
        let mut open = Vec::new();
        for _ in 0..MAX_CONNECTIONS {
            let mut c = std::net::TcpStream::connect(addr).unwrap();
            c.write_all(line.as_bytes()).unwrap();
            open.push(c);
        }
        wait_for("every open connection served", || {
            server.records_processed() == MAX_CONNECTIONS as u64
        });
        let mut extra = std::net::TcpStream::connect(addr).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert!(
            !matches!(extra.read(&mut byte), Ok(n) if n > 0),
            "refused connection stayed open"
        );
        assert_eq!(server.connections_refused(), 1);
        drop(open);
        server.stop();
    }
}
