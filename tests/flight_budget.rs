//! The flight recorder stays within its byte budget under node-id churn:
//! a peer that invents a fresh node name for every line cannot grow
//! decision-trace memory past `FLIGHT_BUDGET_BYTES`.

use desh::obs::{FlightRecorder, TraceEvent, FLIGHT_BUDGET_BYTES};

#[test]
fn a_million_distinct_nodes_stay_within_the_flight_budget() {
    let recorder = FlightRecorder::new();
    let mut peak = 0;
    for i in 0..1_000_000u64 {
        let ev = TraceEvent {
            at_us: i,
            phrase: 1,
            dt_secs: 0.0,
            step_mse: f64::NAN,
            mean_mse: f64::NAN,
            threshold: 0.5,
            transitions: 0,
            min_evidence: 2,
            replayed: true,
            warned: false,
            matched_chain: -1,
        };
        recorder.node(&format!("c{i}-0c0s0n0")).push(&ev);
        let bytes = recorder.resident_bytes();
        assert!(
            bytes <= FLIGHT_BUDGET_BYTES,
            "{bytes} bytes after {} nodes",
            i + 1
        );
        peak = peak.max(bytes);
    }
    assert!(
        peak > FLIGHT_BUDGET_BYTES / 8 * 7,
        "peak {peak} never neared the budget"
    );
    let live = recorder.node_names().len() as u64;
    assert!(recorder.evicted() > 0, "no ring was evicted");
    assert_eq!(
        recorder.evicted() + live,
        1_000_000,
        "every ring is live or evicted"
    );
    // The newest rings survive; the oldest were evicted.
    assert!(recorder.get("c999999-0c0s0n0").is_some());
    assert!(recorder.get("c0-0c0s0n0").is_none());

    recorder.clear();
    assert_eq!(
        recorder.resident_bytes(),
        0,
        "bytes leaked past the last ring"
    );
}
