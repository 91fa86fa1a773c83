//! One serving round: a fresh sharded intake built the way `desh-cli
//! serve` builds it, fed the stream over one loopback TCP connection by a
//! writer thread while a collector thread polls for warnings.
//!
//! Timeline of a round: build the detectors and the intake, send the
//! warm-up prefix, wait until the intake has settled it, then open the
//! timed window, send the rest, and close the window when every sent line
//! is accounted for (processed + dropped + rejected). The connection stays
//! open until then, so the connection thread is still alive and its CPU
//! time is still counted when the window closes.

use crate::stream::Stream;
use crate::sys;
use desh::checkpoint::decode_checkpoint;
use desh_core::{BatchDetector, DeshConfig, IntakeConfig, IntakeServer};
use desh_loggen::NodeId;
use desh_obs::{FlightRecorder, Snapshot, Telemetry, WarningLog};
use desh_util::Micros;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving shards. Passed explicitly: `serve` would default to
/// `DESH_SHARDS`, which also fixes training's gradient-sum order.
pub const SHARDS: usize = 2;
/// Resident node slots per shard (`serve --slots` default).
pub const SLOTS: usize = 256;
/// Warnings kept in the in-memory warning log, as `serve` sizes it.
const WARNING_LOG_CAP: usize = 1024;
/// Collector poll interval.
const POLL: Duration = Duration::from_micros(200);
/// Resident memory is sampled every this many polls (about 5 ms).
const RSS_EVERY: u32 = 25;
/// The collector marks CPU clocks and progress this often during the
/// timed window, cutting it into slices.
const SLICE: Duration = Duration::from_millis(250);
/// Open-loop writer sleep between checks for due lines.
const TICK: Duration = Duration::from_micros(50);
/// Closed-loop write size, rounded up to whole lines.
const FLOOD_WRITE_BYTES: usize = 64 * 1024;
/// A round fails if the intake accounts for no new line for this long.
const STALL_LIMIT: Duration = Duration::from_secs(20);

/// A warning as the collector received it.
pub struct Served {
    pub node: NodeId,
    /// The warning's clock: the triggering line's timestamp as parsed
    /// from the wire, so it wraps at 24 h.
    pub at: Micros,
    pub score_bits: u64,
    pub recv: Instant,
}

/// What the writer thread did.
#[derive(Default)]
pub struct WriterLog {
    /// First line of each write call and the instant before the call.
    pub writes: Vec<(usize, Instant)>,
    /// Time spent inside write calls of the timed window.
    pub write_ns: u64,
    /// Timed window: per line (open loop) or per write (closed loop),
    /// send time minus due time, milliseconds.
    pub late_ms: Vec<f64>,
    /// Lines per write call, warm-up included.
    pub batches: Vec<u32>,
}

/// One stretch of the timed window between two marks.
pub struct Slice {
    pub secs: f64,
    /// Lines the intake accounted for during the slice.
    pub lines: u64,
    /// CPU time of the serving threads during the slice.
    pub server_cpu_ns: u64,
}

pub struct Round {
    /// Round start to the first timed line.
    pub setup_s: f64,
    pub window_s: f64,
    pub timed_lines: usize,
    /// CPU time of the serving threads during the window.
    pub server_cpu_ns: u64,
    /// The window cut into slices of about [`SLICE`].
    pub slices: Vec<Slice>,
    /// Peak resident growth from intake start to the end of the window.
    pub rss_growth: u64,
    pub sent: u64,
    pub processed: u64,
    pub dropped: u64,
    pub rejected: u64,
    pub warnings: Vec<Served>,
    pub writer: WriterLog,
    /// When the first timed line was due.
    pub t0: Instant,
    pub snapshot: Snapshot,
}

impl Round {
    /// Instant at which line `line` went into a write call.
    pub fn sent_at(&self, line: usize) -> Instant {
        let w = &self.writer.writes;
        let i = w.partition_point(|&(first, _)| first <= line);
        w[i.max(1) - 1].1
    }
}

/// Thread-to-main signalling for one round.
struct Ctl {
    writer_clock: AtomicI32,
    collector_clock: AtomicI32,
    main_clock: AtomicI32,
    stop: AtomicBool,
    /// The collector marks slices while this is set.
    marking: AtomicBool,
    /// Resident memory is tracked while this is set.
    sampling: AtomicBool,
    peak_rss: AtomicU64,
    /// Accounted-for line count the main thread waits for; `u64::MAX`
    /// when it waits for none. The collector watches it, so the main
    /// thread sleeps instead of polling.
    target: AtomicU64,
}

/// CPU clocks and the intake's progress, read together.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    settled: u64,
    process: u64,
    /// Summed CPU clocks of the writer, collector and main threads.
    load: u64,
}

impl Mark {
    fn take(ctl: &Ctl, server: &IntakeServer) -> Mark {
        let load = [&ctl.writer_clock, &ctl.collector_clock, &ctl.main_clock]
            .iter()
            .map(|c| sys::clock_ns(c.load(Ordering::Acquire)))
            .sum();
        Mark {
            at: Instant::now(),
            settled: settled(server),
            process: sys::process_cpu_ns(),
            load,
        }
    }

    /// The slice from `self` to `next`: process CPU minus the load
    /// threads' CPU is the serving threads' CPU.
    fn slice_to(&self, next: &Mark) -> Slice {
        Slice {
            secs: (next.at - self.at).as_secs_f64(),
            lines: next.settled - self.settled,
            server_cpu_ns: (next.process - self.process).saturating_sub(next.load - self.load),
        }
    }
}

/// Build the intake exactly as `cmd_serve` does for this configuration.
fn start_intake(ckpt: &[u8], telemetry: &Telemetry) -> Result<IntakeServer, String> {
    let ck = decode_checkpoint(ckpt.to_vec())?;
    let cfg = DeshConfig::default();
    let flight = Arc::new(FlightRecorder::new());
    let warning_log = Arc::new(WarningLog::new(WARNING_LOG_CAP));
    let detectors = (0..SHARDS)
        .map(|_| {
            let mut d = BatchDetector::with_telemetry(
                ck.model.clone(),
                Arc::clone(&ck.vocab),
                cfg.clone(),
                SLOTS,
                telemetry,
            );
            d.attach_chains(&ck.chains);
            d.attach_tracing(Arc::clone(&flight), Arc::clone(&warning_log));
            d
        })
        .collect();
    Ok(IntakeServer::start(
        detectors,
        IntakeConfig::default(),
        telemetry,
    ))
}

fn settled(server: &IntakeServer) -> u64 {
    server.records_processed() + server.records_dropped() + server.parse_errors()
}

/// The writer thread's side of the connection.
struct Writer<'a> {
    conn: TcpStream,
    server: &'a IntakeServer,
    stream: &'a Stream,
    /// Closed-loop window: lines sent but not yet accounted for by the
    /// intake. Twice what the shard queues hold, so they stay full while
    /// kernel socket buffering stays out of the latency.
    window: u64,
    log: WriterLog,
}

impl Writer<'_> {
    /// Send lines `a..b`. Open loop (`rate` set): line `a+k` is due at
    /// `t0 + k / rate`. Closed loop: a write is due as soon as fewer than
    /// `window` sent lines are unaccounted for.
    fn send(
        &mut self,
        (a, b): (usize, usize),
        rate: Option<f64>,
        t0: Instant,
        timed: bool,
    ) -> std::io::Result<()> {
        let mut i = a;
        while i < b {
            let due = Instant::now();
            let j = match rate {
                None if i as u64 >= settled(self.server) + self.window => i,
                None => self.stream.line_after(i, FLOOD_WRITE_BYTES).clamp(i + 1, b),
                Some(rate) => {
                    let n = (due.saturating_duration_since(t0).as_secs_f64() * rate) as usize + 1;
                    (a + n).min(b)
                }
            };
            if j <= i {
                std::thread::sleep(TICK);
                continue;
            }
            let now = Instant::now();
            self.conn.write_all(self.stream.bytes(i, j))?;
            let end = Instant::now();
            let log = &mut self.log;
            log.writes.push((i, now));
            log.batches.push((j - i) as u32);
            if timed {
                log.write_ns += (end - now).as_nanos() as u64;
                match rate {
                    None => log.late_ms.push((now - due).as_secs_f64() * 1e3),
                    Some(rate) => {
                        for k in i..j {
                            let due = t0 + Duration::from_secs_f64((k - a) as f64 / rate);
                            log.late_ms
                                .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
                        }
                    }
                }
            }
            i = j;
        }
        Ok(())
    }
}

struct WriterLinks {
    warm_sent: mpsc::Sender<()>,
    go: mpsc::Receiver<Instant>,
    timed_sent: mpsc::Sender<()>,
    close: mpsc::Receiver<()>,
}

fn writer(
    server: &IntakeServer,
    stream: &Stream,
    addr: SocketAddr,
    rate: Option<f64>,
    ctl: &Ctl,
    links: WriterLinks,
) -> Result<WriterLog, String> {
    ctl.writer_clock
        .store(sys::this_thread_clock(), Ordering::Release);
    let io = |e: std::io::Error| format!("writer: {e}");
    let conn = TcpStream::connect(addr).map_err(io)?;
    conn.set_nodelay(true).map_err(io)?;
    let mut w = Writer {
        conn,
        server,
        stream,
        window: 2 * (SHARDS * IntakeConfig::default().queue_depth) as u64,
        log: WriterLog::default(),
    };
    w.send((0, stream.warmup), rate, Instant::now(), false)
        .map_err(io)?;
    links.warm_sent.send(()).ok();
    let Ok(t0) = links.go.recv() else {
        return Ok(w.log);
    };
    w.send((stream.warmup, stream.len()), rate, t0, true)
        .map_err(io)?;
    links.timed_sent.send(()).ok();
    // Hold the connection open until the main thread has read the
    // window's CPU clocks.
    links.close.recv().ok();
    Ok(w.log)
}

/// Poll for warnings; sample resident memory; tell the main thread, on
/// `reached`, when the intake has accounted for `ctl.target` lines (or
/// that it stalled short of them).
fn collector(
    server: &IntakeServer,
    ctl: &Ctl,
    reached: mpsc::Sender<Result<Instant, String>>,
) -> (Vec<Served>, Vec<Mark>) {
    ctl.collector_clock
        .store(sys::this_thread_clock(), Ordering::Release);
    let mut out = Vec::new();
    let mut marks: Vec<Mark> = Vec::new();
    let mut last_mark = Instant::now();
    let mut polls = 0u32;
    let (mut armed, mut last, mut progress) = (u64::MAX, 0, Instant::now());
    loop {
        let stop = ctl.stop.load(Ordering::Acquire);
        let batch = server.take_warnings();
        let recv = Instant::now();
        out.extend(batch.into_iter().map(|w| Served {
            node: w.node,
            at: w.at,
            score_bits: w.score.to_bits(),
            recv,
        }));
        let target = ctl.target.load(Ordering::Acquire);
        if target != u64::MAX {
            let now = settled(server);
            if target != armed || now != last {
                (armed, last, progress) = (target, now, recv);
            }
            let verdict = if now >= target {
                Some(Ok(recv))
            } else if progress.elapsed() > STALL_LIMIT {
                Some(Err(format!(
                    "intake stalled at {now} of {target} lines accounted for"
                )))
            } else {
                None
            };
            if let Some(v) = verdict {
                ctl.target.store(u64::MAX, Ordering::Release);
                armed = u64::MAX;
                reached.send(v).ok();
            }
        }
        if !ctl.marking.load(Ordering::Acquire) {
            last_mark = recv;
        } else if recv - last_mark >= SLICE {
            marks.push(Mark::take(ctl, server));
            last_mark = recv;
        }
        if polls.is_multiple_of(RSS_EVERY) && ctl.sampling.load(Ordering::Acquire) {
            ctl.peak_rss.fetch_max(sys::rss_bytes(), Ordering::AcqRel);
        }
        polls = polls.wrapping_add(1);
        if stop {
            return (out, marks);
        }
        std::thread::sleep(POLL);
    }
}

/// Run one round over the whole stream.
pub fn run_round(stream: &Stream, ckpt: &[u8], rate: Option<f64>) -> Result<Round, String> {
    sys::trim_heap();
    let rss0 = sys::rss_bytes();
    let start = Instant::now();
    let telemetry = Telemetry::enabled();
    let mut server = start_intake(ckpt, &telemetry)?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    server.serve_tcp(listener).map_err(|e| e.to_string())?;

    let ctl = Ctl {
        writer_clock: AtomicI32::new(0),
        collector_clock: AtomicI32::new(0),
        main_clock: AtomicI32::new(sys::this_thread_clock()),
        stop: AtomicBool::new(false),
        marking: AtomicBool::new(false),
        sampling: AtomicBool::new(true),
        peak_rss: AtomicU64::new(rss0),
        target: AtomicU64::new(u64::MAX),
    };
    let (warm_tx, warm_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let (sent_tx, sent_rx) = mpsc::channel();
    let (close_tx, close_rx) = mpsc::channel();
    let (reached_tx, reached_rx) = mpsc::channel();
    let links = WriterLinks {
        warm_sent: warm_tx,
        go: go_rx,
        timed_sent: sent_tx,
        close: close_rx,
    };
    let n = stream.len() as u64;

    let (window, writer_log, collected) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(&server, stream, addr, rate, &ctl, links));
        let c = s.spawn(|| collector(&server, &ctl, reached_tx));
        let settle = |target: u64| -> Result<Instant, String> {
            ctl.target.store(target, Ordering::Release);
            reached_rx
                .recv()
                .map_err(|_| "collector quit".to_string())?
        };
        let window = (|| -> Result<_, String> {
            warm_rx.recv().map_err(|_| "writer quit during warm-up")?;
            settle(stream.warmup as u64)?;
            let t0 = Instant::now();
            let m0 = Mark::take(&ctl, &server);
            ctl.marking.store(true, Ordering::Release);
            go_tx
                .send(t0)
                .map_err(|_| "writer quit before the window")?;
            sent_rx
                .recv()
                .map_err(|_| "writer quit during the window")?;
            let t1 = settle(n)?;
            ctl.marking.store(false, Ordering::Release);
            let m1 = Mark::take(&ctl, &server);
            ctl.peak_rss.fetch_max(sys::rss_bytes(), Ordering::AcqRel);
            ctl.sampling.store(false, Ordering::Release);
            Ok((t0, t1, m0, m1))
        })();
        drop(go_tx);
        drop(close_tx);
        let log = w.join().expect("writer thread panicked");
        if window.is_ok() {
            server.drain();
        }
        ctl.stop.store(true, Ordering::Release);
        let collected = c.join().expect("collector thread panicked");
        (window, log, collected)
    });
    let (t0, t1, m0, m1) = window?;
    let writer = writer_log?;
    let (warnings, inner) = collected;
    let mut marks = vec![m0];
    marks.extend(inner.into_iter().filter(|m| m.at > m0.at && m.at < m1.at));
    marks.push(m1);
    let round = Round {
        setup_s: (t0 - start).as_secs_f64(),
        window_s: (t1 - t0).as_secs_f64(),
        timed_lines: stream.len() - stream.warmup,
        server_cpu_ns: m0.slice_to(&m1).server_cpu_ns,
        slices: marks.windows(2).map(|w| w[0].slice_to(&w[1])).collect(),
        rss_growth: ctl.peak_rss.load(Ordering::Acquire).saturating_sub(rss0),
        sent: n,
        processed: server.records_processed(),
        dropped: server.records_dropped(),
        rejected: server.parse_errors(),
        warnings,
        writer,
        t0,
        snapshot: telemetry.snapshot().expect("telemetry is enabled"),
    };
    server.stop();
    Ok(round)
}
