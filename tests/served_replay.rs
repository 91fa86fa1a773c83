//! Served == replayed: a 48 h log streamed over TCP into a 2-shard intake
//! fires the same warnings, bit for bit, as the same file replayed through
//! `read_log_file` and the sequential detector — including every warning
//! after 24:00, where the raw clock column wraps.

use desh::core::{BatchDetector, IntakeConfig, IntakeServer, OnlineDetector, Warning};
use desh::loggen::io::{read_log_file, write_log_file};
use desh::prelude::*;
use desh::util::time::{MICROS_PER_DAY, MICROS_PER_HOUR};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn sort_key(w: &Warning) -> (u64, usize) {
    (w.at.0, w.node.to_index())
}

#[test]
fn tcp_intake_matches_file_replay_across_midnight() {
    let mut p = SystemProfile::tiny();
    p.duration = Micros(48 * MICROS_PER_HOUR);
    p.failures = 60;
    p.nodes = 24;
    let d = generate(&p, 1601);
    let (train, test) = d.split_by_time(0.3);
    let desh = Desh::new(DeshConfig::fast(), 1601);
    let trained = desh.train(&train);

    let dir = std::env::temp_dir().join(format!("desh-served-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("test.log");
    write_log_file(&path, &test).unwrap();

    // The replay: the file through read_log_file and OnlineDetector.
    let (records, bad) = read_log_file(&path).unwrap();
    assert!(bad.is_empty());
    let mut seq = OnlineDetector::new(
        trained.lead_model.clone(),
        trained.parsed_train.vocab.clone(),
        desh.cfg.clone(),
    );
    seq.attach_chains(&trained.phase1.chains);
    let mut replayed: Vec<Warning> = records.iter().filter_map(|r| seq.ingest(r)).collect();
    assert!(
        replayed.iter().any(|w| w.at.0 >= MICROS_PER_DAY),
        "no warning after the first 24 h: the clock wrap goes untested"
    );

    // Serving: the file's lines over one TCP connection into two shards.
    let detectors = (0..2)
        .map(|_| {
            let mut d = BatchDetector::new(
                trained.lead_model.clone(),
                trained.parsed_train.vocab.clone(),
                desh.cfg.clone(),
                64,
            );
            d.attach_chains(&trained.phase1.chains);
            d
        })
        .collect();
    let mut server =
        IntakeServer::start(detectors, IntakeConfig::default(), &Telemetry::disabled());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    server.serve_tcp(listener).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let mut payload = String::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        payload.push_str(line);
        payload.push('\n');
    }
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(payload.as_bytes()).unwrap();
    drop(conn);
    let t0 = Instant::now();
    while server.records_processed() < records.len() as u64
        && t0.elapsed() < Duration::from_secs(60)
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    server.drain();
    assert_eq!(server.records_processed(), records.len() as u64);
    assert_eq!(server.parse_errors(), 0);
    let mut served = server.take_warnings();
    let dets = server.stop();
    // Slots never ran out, so no live episode was dropped.
    assert_eq!(dets.iter().map(|d| d.evicted_live()).sum::<u64>(), 0);
    std::fs::remove_dir_all(&dir).ok();

    // Shards complete in any order; per-node order is fixed, so compare
    // under a canonical sort.
    replayed.sort_by_key(sort_key);
    served.sort_by_key(sort_key);
    assert_eq!(served.len(), replayed.len(), "warning count");
    for (s, r) in served.iter().zip(&replayed) {
        assert_eq!(s.node, r.node);
        assert_eq!(s.at, r.at, "warning time for {}", r.node);
        assert_eq!(
            s.score.to_bits(),
            r.score.to_bits(),
            "score for {} at {:?}",
            r.node,
            r.at
        );
        assert_eq!(
            s.predicted_lead_secs.to_bits(),
            r.predicted_lead_secs.to_bits()
        );
        assert_eq!(s.class, r.class);
        assert_eq!(s.matched_chain, r.matched_chain);
        assert_eq!(
            s.chain_distance.map(f64::to_bits),
            r.chain_distance.map(f64::to_bits)
        );
    }
}
