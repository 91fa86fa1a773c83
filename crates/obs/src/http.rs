//! Dependency-free HTTP introspection server.
//!
//! A deliberately tiny, single-threaded, blocking server on a std
//! [`TcpListener`] — enough HTTP/1.0-with-Content-Length to satisfy
//! `curl` and a Prometheus scraper, with none of the surface area of a
//! real web stack. One request per connection, `Connection: close`,
//! every handler is a read-only snapshot of shared state:
//!
//! | route                | body                                          |
//! |----------------------|-----------------------------------------------|
//! | `GET /healthz`       | JSON status/uptime/version/checkpoint; 503 on |
//! |                      | SLO fast-burn                                 |
//! | `GET /metrics`       | [`crate::render_prometheus`] over the registry|
//! | `GET /metrics/history` | snapshot-ring index, or `?name=<metric>`    |
//! |                      | time series *                                 |
//! | `GET /profile`       | sampled per-stage latency waterfalls *        |
//! | `GET /slo`           | burn-rate reports + recent alerts *           |
//! | `GET /warnings`      | JSON array of recent [`crate::WarningRecord`]s,|
//! |                      | newest first; `?limit=N` (default 32)         |
//! | `GET /capsules`      | JSON array of sealed incident capsules *      |
//! | `GET /nodes/<id>/flight` | JSONL dump of that node's flight ring     |
//! | `GET /runs`          | JSON array of training run summaries *        |
//! | `GET /runs/<id>/series` | that run's `series.jsonl`, verbatim *      |
//! | `GET /shadow`        | live shadow-scoring agreement snapshot *      |
//! | `GET /shadow/report` | promotion-gate verdict vs thresholds *        |
//!
//! Routes marked `*` exist only when the corresponding state was
//! attached (`with_runs_dir`, `with_profilers`, `with_history`,
//! `with_slo`, `with_capsules`, `with_shadow`); otherwise they 404.
//!
//! The accept loop runs on one background thread; handlers never touch
//! the scoring hot path (snapshots read atomics / seqlock slots).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::capsule::{list_capsules, render_capsules_json};
use crate::flight::FlightRecorder;
use crate::history::MetricsHistory;
use crate::jsonl::push_escaped;
use crate::profiler::{render_profile_json, SpanProfiler};
use crate::prom::render_prometheus;
use crate::registry::Registry;
use crate::runs::{list_runs, render_runs_json};
use crate::shadow::{evaluate_gates, render_shadow_report_json, ShadowMonitor, ShadowThresholds};
use crate::slo::SloEngine;
use crate::trace::{WarningLog, DEFAULT_WARNINGS_LIMIT};

/// Identity block reported by `/healthz`: binary version plus the loaded
/// checkpoint's provenance stamp, so a fleet rollout can be verified with
/// one curl per node.
#[derive(Debug, Clone, Default)]
pub struct HealthInfo {
    /// `CARGO_PKG_VERSION` of the serving binary.
    pub version: String,
    /// Run id of the loaded checkpoint, when it carries one.
    pub run_id: Option<String>,
    /// Config hash of the loaded checkpoint.
    pub config_hash: Option<u64>,
    /// Active SIMD kernel backend (e.g. `"avx2+fma"`, `"scalar"`).
    pub kernel_backend: Option<String>,
    /// Numeric precision of the scoring path (always `"f32"`).
    pub precision: Option<String>,
    /// Run id of the shadow candidate's checkpoint, when one is attached.
    pub shadow_run_id: Option<String>,
    /// Config hash of the shadow candidate's checkpoint.
    pub shadow_config_hash: Option<u64>,
}

/// The read-only state the introspection routes expose. All fields are
/// shared handles; the server holds clones and never mutates anything.
#[derive(Debug, Clone)]
pub struct Introspection {
    pub registry: Arc<Registry>,
    pub flight: Arc<FlightRecorder>,
    pub warnings: Arc<WarningLog>,
    /// Training run ledger root served under `/runs`; `None` disables
    /// those routes.
    pub runs_dir: Option<PathBuf>,
    /// Span profilers rendered at `/profile`; empty disables the route.
    pub profilers: Vec<Arc<SpanProfiler>>,
    /// Snapshot ring behind `/metrics/history`; `None` disables it.
    pub history: Option<Arc<MetricsHistory>>,
    /// SLO engine behind `/slo`; when present, `/healthz` re-evaluates it
    /// and degrades to 503 on fast burn.
    pub slo: Option<Arc<SloEngine>>,
    /// Version / checkpoint identity reported by `/healthz`.
    pub health: Option<HealthInfo>,
    /// Incident-capsule directory served under `/capsules`; `None`
    /// disables the route.
    pub capsules_dir: Option<PathBuf>,
    /// Shadow-scoring monitor behind `/shadow` and `/shadow/report`;
    /// `None` disables both routes.
    pub shadow: Option<Arc<ShadowMonitor>>,
    /// Promotion-gate thresholds `/shadow/report` evaluates against.
    pub shadow_thresholds: ShadowThresholds,
}

impl Introspection {
    pub fn new(
        registry: Arc<Registry>,
        flight: Arc<FlightRecorder>,
        warnings: Arc<WarningLog>,
    ) -> Self {
        Self {
            registry,
            flight,
            warnings,
            runs_dir: None,
            profilers: Vec::new(),
            history: None,
            slo: None,
            health: None,
            capsules_dir: None,
            shadow: None,
            shadow_thresholds: ShadowThresholds::default(),
        }
    }

    /// Attach a run-ledger root directory, enabling `/runs` and
    /// `/runs/<id>/series`.
    pub fn with_runs_dir(mut self, dir: PathBuf) -> Self {
        self.runs_dir = Some(dir);
        self
    }

    /// Attach span profilers, enabling `/profile`.
    pub fn with_profilers(mut self, profilers: Vec<Arc<SpanProfiler>>) -> Self {
        self.profilers = profilers;
        self
    }

    /// Attach the metrics history ring, enabling `/metrics/history`.
    pub fn with_history(mut self, history: Arc<MetricsHistory>) -> Self {
        self.history = Some(history);
        self
    }

    /// Attach the SLO engine, enabling `/slo` and health degradation.
    pub fn with_slo(mut self, slo: Arc<SloEngine>) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Attach version/checkpoint identity for `/healthz`.
    pub fn with_health(mut self, health: HealthInfo) -> Self {
        self.health = Some(health);
        self
    }

    /// Attach the incident-capsule directory, enabling `/capsules`.
    pub fn with_capsules(mut self, dir: PathBuf) -> Self {
        self.capsules_dir = Some(dir);
        self
    }

    /// Attach a shadow-scoring monitor, enabling `/shadow` (live
    /// agreement snapshot) and `/shadow/report` (promotion-gate verdict
    /// evaluated against `thresholds`).
    pub fn with_shadow(
        mut self,
        monitor: Arc<ShadowMonitor>,
        thresholds: ShadowThresholds,
    ) -> Self {
        self.shadow = Some(monitor);
        self.shadow_thresholds = thresholds;
        self
    }
}

/// Handle to a running introspection server. Dropping it (or calling
/// [`HttpServer::stop`]) shuts the accept loop down and joins the thread.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9090"`, or port `0` to let the OS
    /// pick) and start serving `state` on a background thread.
    pub fn start(addr: &str, state: Introspection) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let started = Instant::now();
        let handle = std::thread::Builder::new()
            .name("desh-introspect".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(mut stream) = conn {
                        let _ = serve_one(&mut stream, &state, started);
                    }
                }
            })?;
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, unblock the accept loop, and join the thread.
    /// Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // `incoming()` blocks in accept; a throwaway local connection
            // wakes it so it can observe the stop flag.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Read one request head (start line + headers) off `stream`. Bounded:
/// 2-second read timeout and an 8 KiB cap, since the only legitimate
/// clients send a few hundred bytes.
fn read_request_head(stream: &mut TcpStream) -> io::Result<String> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn serve_one(stream: &mut TcpStream, state: &Introspection, started: Instant) -> io::Result<()> {
    let head = read_request_head(stream)?;
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return write_response(
            stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    }
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    };
    match path {
        "/healthz" => serve_healthz(stream, state, started),
        "/profile" => {
            if state.profilers.is_empty() {
                return write_response(
                    stream,
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "no profilers attached\n",
                );
            }
            let mut body = render_profile_json(&state.profilers);
            body.push('\n');
            write_response(stream, "200 OK", "application/json", &body)
        }
        "/metrics/history" => match &state.history {
            Some(history) => {
                let name = query.split('&').find_map(|kv| kv.strip_prefix("name="));
                let body = match name {
                    Some(name) => match history.series_json(name) {
                        Some(series) => series,
                        None => {
                            return write_response(
                                stream,
                                "404 Not Found",
                                "text/plain; charset=utf-8",
                                "unknown metric name\n",
                            )
                        }
                    },
                    None => history.index_json(),
                };
                write_response(stream, "200 OK", "application/json", &format!("{body}\n"))
            }
            None => write_response(
                stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no metrics history attached\n",
            ),
        },
        "/slo" => match (&state.slo, &state.history) {
            (Some(engine), Some(history)) => {
                engine.evaluate(history);
                let mut body = engine.to_json();
                body.push('\n');
                write_response(stream, "200 OK", "application/json", &body)
            }
            _ => write_response(
                stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no slo engine attached\n",
            ),
        },
        "/metrics" => write_response(
            stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &render_prometheus(&state.registry.snapshot()),
        ),
        "/warnings" => {
            // Newest-first, capped: each record carries a full evidence
            // trace, so the default response stays bounded no matter how
            // long the detector has been running. `?limit=N` overrides.
            let limit = match query.split('&').find_map(|kv| kv.strip_prefix("limit=")) {
                Some(raw) => match raw.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => {
                        return write_response(
                            stream,
                            "400 Bad Request",
                            "text/plain; charset=utf-8",
                            "limit must be a non-negative integer\n",
                        )
                    }
                },
                None => DEFAULT_WARNINGS_LIMIT,
            };
            let mut body = state.warnings.to_json_array_newest(limit);
            body.push('\n');
            write_response(stream, "200 OK", "application/json", &body)
        }
        "/capsules" => match &state.capsules_dir {
            Some(dir) => match list_capsules(dir) {
                Ok(listed) => {
                    let mut body = render_capsules_json(&listed);
                    body.push('\n');
                    write_response(stream, "200 OK", "application/json", &body)
                }
                Err(e) => write_response(
                    stream,
                    "500 Internal Server Error",
                    "text/plain; charset=utf-8",
                    &format!("cannot scan capsule directory: {e}\n"),
                ),
            },
            None => write_response(
                stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no capsule directory attached\n",
            ),
        },
        "/shadow" => match &state.shadow {
            Some(monitor) => {
                let mut body = monitor.render_live_json();
                body.push('\n');
                write_response(stream, "200 OK", "application/json", &body)
            }
            None => write_response(
                stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no shadow monitor attached\n",
            ),
        },
        "/shadow/report" => match &state.shadow {
            Some(monitor) => {
                let report = evaluate_gates(&monitor.summary(), &state.shadow_thresholds);
                write_response(
                    stream,
                    "200 OK",
                    "application/json",
                    &render_shadow_report_json(&report),
                )
            }
            None => write_response(
                stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no shadow monitor attached\n",
            ),
        },
        "/runs" => match &state.runs_dir {
            Some(dir) => {
                let mut body = render_runs_json(&list_runs(dir));
                body.push('\n');
                write_response(stream, "200 OK", "application/json", &body)
            }
            None => write_response(
                stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no runs directory attached\n",
            ),
        },
        p => {
            if let Some(node) = p
                .strip_prefix("/nodes/")
                .and_then(|rest| rest.strip_suffix("/flight"))
            {
                match state.flight.dump_jsonl(node) {
                    Some(body) => {
                        write_response(stream, "200 OK", "application/jsonl; charset=utf-8", &body)
                    }
                    None => write_response(
                        stream,
                        "404 Not Found",
                        "text/plain; charset=utf-8",
                        "unknown or evicted node\n",
                    ),
                }
            } else if let Some(id) = p
                .strip_prefix("/runs/")
                .and_then(|rest| rest.strip_suffix("/series"))
            {
                serve_run_series(stream, state, id)
            } else {
                write_response(
                    stream,
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "routes: /healthz /metrics /metrics/history /profile /slo /warnings \
                     /capsules /nodes/<id>/flight /runs /runs/<id>/series /shadow \
                     /shadow/report\n",
                )
            }
        }
    }
}

/// `GET /healthz`: liveness plus identity. Re-evaluates the SLO engine
/// (when attached) so the answer reflects the latest history tick, and
/// degrades to `503 Service Unavailable` while any SLO fast-burns — a
/// load balancer polling only this route stops routing to a predictor
/// that is blowing its latency or quality budget.
fn serve_healthz(
    stream: &mut TcpStream,
    state: &Introspection,
    started: Instant,
) -> io::Result<()> {
    let burning = match (&state.slo, &state.history) {
        (Some(engine), Some(history)) => {
            engine.evaluate(history);
            engine.burning()
        }
        _ => Vec::new(),
    };
    let degraded = !burning.is_empty();
    let mut body = format!(
        "{{\"status\":\"{}\",\"uptime_secs\":{},\"nodes\":{},\"warnings\":{}",
        if degraded { "degraded" } else { "ok" },
        started.elapsed().as_secs(),
        state.flight.node_names().len(),
        state.warnings.len()
    );
    if let Some(h) = &state.health {
        body.push_str(",\"version\":");
        push_escaped(&mut body, &h.version);
        body.push_str(",\"checkpoint\":{\"run_id\":");
        match &h.run_id {
            Some(id) => push_escaped(&mut body, id),
            None => body.push_str("null"),
        }
        body.push_str(",\"config_hash\":");
        match h.config_hash {
            Some(hash) => body.push_str(&format!("{hash}")),
            None => body.push_str("null"),
        }
        body.push('}');
        // Shadow candidate identity next to the primary's, so a rollout
        // dashboard can confirm *which* challenger is being scored with
        // the same one-curl check it uses for the serving checkpoint.
        if h.shadow_run_id.is_some() || h.shadow_config_hash.is_some() {
            body.push_str(",\"shadow\":{\"run_id\":");
            match &h.shadow_run_id {
                Some(id) => push_escaped(&mut body, id),
                None => body.push_str("null"),
            }
            body.push_str(",\"config_hash\":");
            match h.shadow_config_hash {
                Some(hash) => body.push_str(&format!("{hash}")),
                None => body.push_str("null"),
            }
            body.push('}');
        }
        if let Some(backend) = &h.kernel_backend {
            body.push_str(",\"kernel_backend\":");
            push_escaped(&mut body, backend);
        }
        if let Some(precision) = &h.precision {
            body.push_str(",\"precision\":");
            push_escaped(&mut body, precision);
        }
    }
    body.push_str(",\"burning\":[");
    for (i, name) in burning.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        push_escaped(&mut body, name);
    }
    body.push_str("]}\n");
    let status = if degraded {
        "503 Service Unavailable"
    } else {
        "200 OK"
    };
    write_response(stream, status, "application/json", &body)
}

/// `GET /runs/<id>/series`: stream the run's raw `series.jsonl`. The id
/// comes off the wire, so it is validated as a plain directory name —
/// anything with path separators or `..` is rejected before touching the
/// filesystem.
fn serve_run_series(stream: &mut TcpStream, state: &Introspection, id: &str) -> io::Result<()> {
    let not_found = |stream: &mut TcpStream, msg| {
        write_response(stream, "404 Not Found", "text/plain; charset=utf-8", msg)
    };
    let Some(dir) = &state.runs_dir else {
        return not_found(stream, "no runs directory attached\n");
    };
    let safe = !id.is_empty()
        && id != ".."
        && id != "."
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if !safe {
        return not_found(stream, "bad run id\n");
    }
    match std::fs::read_to_string(dir.join(id).join("series.jsonl")) {
        Ok(body) => write_response(stream, "200 OK", "application/jsonl; charset=utf-8", &body),
        Err(_) => not_found(stream, "unknown run\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, WarningRecord};

    fn state() -> Introspection {
        let registry = Arc::new(Registry::new());
        registry.counter("online.events").add(42);
        let flight = Arc::new(FlightRecorder::with_capacity(8));
        flight.node("n1").push(&TraceEvent {
            at_us: 5,
            phrase: 1,
            dt_secs: 0.5,
            step_mse: 0.1,
            mean_mse: 0.1,
            threshold: 0.4,
            transitions: 1,
            min_evidence: 2,
            replayed: true,
            warned: false,
            matched_chain: -1,
        });
        let warnings = Arc::new(WarningLog::new(4));
        warnings.push(WarningRecord {
            node: "n1".into(),
            at_us: 5,
            predicted_lead_secs: 90.0,
            score: 0.2,
            class: "MCE".into(),
            matched_chain: 0,
            chain_distance: 0.3,
            evidence: vec!["machine check".into()],
            trace: vec![],
        });
        Introspection::new(registry, flight, warnings)
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn routes_serve_expected_bodies() {
        let srv = HttpServer::start("127.0.0.1:0", state()).unwrap();
        let addr = srv.addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.contains("\"status\":\"ok\""));
        assert!(health.contains("\"nodes\":1"));
        assert!(health.contains("\"warnings\":1"));

        let metrics = get(addr, "/metrics");
        assert!(metrics.contains("# TYPE desh_online_events counter"));
        assert!(metrics.contains("desh_online_events 42"));

        let warnings = get(addr, "/warnings");
        assert!(warnings.contains("\"class\":\"MCE\""));
        assert!(warnings.contains("\"evidence\":[\"machine check\"]"));

        let flight = get(addr, "/nodes/n1/flight");
        assert!(flight.contains("\"type\":\"trace\""));
        assert!(flight.contains("\"node\":\"n1\""));

        assert!(get(addr, "/nodes/ghost/flight").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn warnings_limit_is_newest_first_and_validated() {
        let st = state();
        for i in 0..3u64 {
            st.warnings.push(WarningRecord {
                node: format!("extra{i}"),
                at_us: 100 + i,
                predicted_lead_secs: 60.0,
                score: 0.1,
                class: "MCE".into(),
                matched_chain: -1,
                chain_distance: f64::NAN,
                evidence: vec![],
                trace: vec![],
            });
        }
        let srv = HttpServer::start("127.0.0.1:0", st).unwrap();
        let addr = srv.addr();

        let two = get(addr, "/warnings?limit=2");
        assert!(two.starts_with("HTTP/1.1 200"), "{two}");
        assert!(two.contains("\"node\":\"extra2\""), "newest included");
        assert!(two.contains("\"node\":\"extra1\""));
        assert!(!two.contains("\"node\":\"extra0\""), "limit cuts older");
        let e2 = two.find("extra2").unwrap();
        let e1 = two.find("extra1").unwrap();
        assert!(e2 < e1, "newest first");

        // Default response is capped but serves everything small.
        let all = get(addr, "/warnings");
        assert_eq!(all.matches("\"type\":\"warning\"").count(), 4);

        assert!(get(addr, "/warnings?limit=zebra").starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn capsules_route_lists_sealed_captures() {
        use crate::capsule::{Capsule, CapsuleMeta};

        let dir = std::env::temp_dir().join(format!("dcap-http-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Capsule {
            meta: CapsuleMeta {
                reason: "warning".into(),
                backend: "scalar".into(),
                precision: "f32".into(),
                ..CapsuleMeta::default()
            },
            events: Vec::new(),
            warnings: Vec::new(),
        }
        .write(&dir.join("warning-1-000.dcap"))
        .unwrap();

        let no_dir = HttpServer::start("127.0.0.1:0", state()).unwrap();
        assert!(get(no_dir.addr(), "/capsules").starts_with("HTTP/1.1 404"));

        let srv = HttpServer::start("127.0.0.1:0", state().with_capsules(dir.clone())).unwrap();
        let body = get(srv.addr(), "/capsules");
        assert!(body.starts_with("HTTP/1.1 200"), "{body}");
        assert!(body.contains("\"file\":\"warning-1-000.dcap\""));
        assert!(body.contains("\"reason\":\"warning\""));
        assert!(body.contains("\"backend\":\"scalar\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runs_routes_require_a_runs_dir() {
        let srv = HttpServer::start("127.0.0.1:0", state()).unwrap();
        assert!(get(srv.addr(), "/runs").starts_with("HTTP/1.1 404"));
        assert!(get(srv.addr(), "/runs/x/series").starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn observability_routes_require_attached_state() {
        let srv = HttpServer::start("127.0.0.1:0", state()).unwrap();
        assert!(get(srv.addr(), "/profile").starts_with("HTTP/1.1 404"));
        assert!(get(srv.addr(), "/metrics/history").starts_with("HTTP/1.1 404"));
        assert!(get(srv.addr(), "/slo").starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn observability_routes_serve_profile_history_and_slo() {
        use crate::history::MetricsHistory;
        use crate::profiler::SpanProfiler;
        use crate::slo::{BurnPolicy, SloEngine, SloSignal, SloSpec};

        let base = state();
        let registry = Arc::clone(&base.registry);
        let profiler = SpanProfiler::new(&registry, "online", &["parse", "step"], 1, 8);
        let mut wf = profiler.begin().unwrap();
        wf.mark(0);
        wf.mark(1);
        profiler.finish(wf, Some(1));

        let history = MetricsHistory::new(Arc::clone(&registry), 600);
        let engine = Arc::new(SloEngine::new(
            vec![SloSpec {
                name: "template_miss".into(),
                help: "miss rate".into(),
                signal: SloSignal::RatioOfCounters {
                    bad: "quality.template_miss".into(),
                    total: "quality.template_events".into(),
                },
                budget: 0.05,
            }],
            BurnPolicy::default(),
        ));
        // Two healthy minutes of parsing, then a total miss storm long
        // enough to saturate the slow (300 s) burn window too.
        let miss = registry.counter("quality.template_miss");
        let events = registry.counter("quality.template_events");
        for i in 0..120u64 {
            events.add(100);
            history.record_at(1_000 * (i + 1));
        }
        for i in 120..520u64 {
            miss.add(100);
            events.add(100);
            history.record_at(1_000 * (i + 1));
        }

        let state = base
            .with_profilers(vec![Arc::clone(&profiler)])
            .with_history(Arc::clone(&history))
            .with_slo(Arc::clone(&engine))
            .with_health(HealthInfo {
                version: "9.9.9".into(),
                run_id: Some("run-x".into()),
                config_hash: Some(77),
                kernel_backend: Some("testvec".into()),
                precision: Some("f32".into()),
                shadow_run_id: Some("run-y".into()),
                shadow_config_hash: Some(78),
            });
        let srv = HttpServer::start("127.0.0.1:0", state).unwrap();
        let addr = srv.addr();

        let profile = get(addr, "/profile");
        assert!(profile.starts_with("HTTP/1.1 200 OK\r\n"), "{profile}");
        assert!(profile.contains("\"surface\":\"online\""));
        assert!(profile.contains("\"waterfalls\":[{"));

        let index = get(addr, "/metrics/history");
        assert!(index.contains("\"samples\":520"), "{index}");
        let series = get(addr, "/metrics/history?name=quality.template_events");
        assert!(series.contains("\"kind\":\"counter\""), "{series}");
        assert!(get(addr, "/metrics/history?name=ghost").starts_with("HTTP/1.1 404"));

        // The storm has both burn windows saturated: /slo reports the
        // breach and /healthz degrades to 503 with identity intact.
        let slo = get(addr, "/slo");
        assert!(slo.contains("\"status\":\"fast_burn\""), "{slo}");
        assert!(slo.contains("\"burning\":true"));
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 503"), "{health}");
        assert!(health.contains("\"status\":\"degraded\""));
        assert!(health.contains("\"version\":\"9.9.9\""));
        assert!(health.contains("\"run_id\":\"run-x\""));
        assert!(health.contains("\"config_hash\":77"));
        assert!(health.contains("\"kernel_backend\":\"testvec\""));
        assert!(health.contains("\"precision\":\"f32\""));
        assert!(health.contains("\"shadow\":{\"run_id\":\"run-y\",\"config_hash\":78}"));
        assert!(health.contains("\"burning\":[\"template_miss\"]"));
    }

    #[test]
    fn shadow_routes_serve_snapshot_and_report() {
        use crate::registry::Telemetry;
        use crate::shadow::{ObservedWarning, ShadowMonitor};

        let srv = HttpServer::start("127.0.0.1:0", state()).unwrap();
        assert!(get(srv.addr(), "/shadow").starts_with("HTTP/1.1 404"));
        assert!(get(srv.addr(), "/shadow/report").starts_with("HTTP/1.1 404"));

        let t = Telemetry::enabled();
        let monitor = Arc::new(ShadowMonitor::new(&t, 60.0));
        let w = |at_us| ObservedWarning {
            at_us,
            lead_secs: 90.0,
            score: 0.2,
            class: "MCE".into(),
        };
        monitor.observe_primary("n1", w(1_000_000));
        monitor.observe_candidate("n1", w(2_000_000));
        monitor.finish();

        let srv = HttpServer::start(
            "127.0.0.1:0",
            state().with_shadow(Arc::clone(&monitor), ShadowThresholds::default()),
        )
        .unwrap();
        let live = get(srv.addr(), "/shadow");
        assert!(live.starts_with("HTTP/1.1 200"), "{live}");
        assert!(live.contains("\"agree_both\":1"), "{live}");
        assert!(live.contains("\"agreement\":1"), "{live}");
        let report = get(srv.addr(), "/shadow/report");
        assert!(report.starts_with("HTTP/1.1 200"), "{report}");
        assert!(report.contains("\"verdict\":\"PASS\""), "{report}");
        assert!(report.contains("warning_volume_delta_pct"), "{report}");
    }

    #[test]
    fn runs_routes_serve_ledger_contents() {
        use crate::runs::{RunLedger, RunManifest};
        use crate::timeseries::EpochRecord;
        let root = std::env::temp_dir().join(format!("desh-http-runs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut ledger = RunLedger::create(
            &root,
            RunManifest {
                run_id: "run-http".into(),
                created_unix_ms: 1,
                seed: 3,
                shards: 2,
                threads: "default".into(),
                dataset: "d".into(),
                config_hash: 9,
                config: vec![],
            },
        )
        .unwrap();
        ledger
            .append_epoch(&EpochRecord {
                phase: "phase1".into(),
                epoch: 0,
                loss: 0.5,
                wall_us: 1,
                grad_norm: 0.1,
                grad_reduce_us: 1.0,
                shard_seqs_per_s: vec![],
                layers: vec![],
            })
            .unwrap();
        ledger.end_phase("phase1", 1, 1, 0.5);
        ledger.finish(None, &[]).unwrap();

        let srv = HttpServer::start("127.0.0.1:0", state().with_runs_dir(root.clone())).unwrap();
        let runs = get(srv.addr(), "/runs");
        assert!(runs.starts_with("HTTP/1.1 200 OK\r\n"), "{runs}");
        assert!(runs.contains("\"id\":\"run-http\""));
        assert!(runs.contains("\"status\":\"completed\""));

        let series = get(srv.addr(), "/runs/run-http/series");
        assert!(series.starts_with("HTTP/1.1 200 OK\r\n"), "{series}");
        assert!(series.contains("\"phase\":\"phase1\""));

        assert!(get(srv.addr(), "/runs/ghost/series").starts_with("HTTP/1.1 404"));
        assert!(get(srv.addr(), "/runs/../series").starts_with("HTTP/1.1 404"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn non_get_is_rejected() {
        let srv = HttpServer::start("127.0.0.1:0", state()).unwrap();
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"));
    }

    #[test]
    fn stop_terminates_promptly_and_is_idempotent() {
        let mut srv = HttpServer::start("127.0.0.1:0", state()).unwrap();
        let addr = srv.addr();
        assert!(get(addr, "/healthz").contains("200 OK"));
        srv.stop();
        srv.stop();
        // stop() joins the accept thread, which drops the listener, so
        // fresh connections are refused.
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
            "server should no longer accept after stop"
        );
    }
}
