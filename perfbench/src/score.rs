//! Output checks: served warnings traced back to their lines, compared
//! with the sequential replay, and scored against loggen's ground truth.

use crate::live::Round;
use crate::stream::Stream;
use desh_core::Warning;
use desh_loggen::{GroundTruthFailure, NodeId};
use desh_util::time::MICROS_PER_DAY;
use desh_util::Micros;
use std::collections::HashMap;
use std::time::Instant;

/// A served warning with the stream line that triggered it.
pub struct Mapped {
    pub line: usize,
    pub node: NodeId,
    pub score_bits: u64,
    pub recv: Instant,
}

/// Trace each served warning to its line: the same node and wrapped
/// clock, and of those the latest line written before the warning came
/// back (lines a day apart share a clock but not a send time). Returns
/// the traced warnings and how many matched no sent line.
pub fn map_warnings(stream: &Stream, round: &Round) -> (Vec<Mapped>, usize) {
    let mut unmatched = 0;
    let mapped = round
        .warnings
        .iter()
        .filter_map(|w| {
            let line = stream
                .lines_at(w.node, w.at)
                .filter(|&l| round.sent_at(l) <= w.recv)
                .last();
            unmatched += line.is_none() as usize;
            line.map(|line| Mapped {
                line,
                node: w.node,
                score_bits: w.score_bits,
                recv: w.recv,
            })
        })
        .collect();
    (mapped, unmatched)
}

pub struct Agreement {
    /// Multiset Jaccard of served and replayed warnings keyed on node,
    /// clock of day, and score bits.
    pub jaccard: f64,
    pub served_only: usize,
    pub replay_only: usize,
    /// Disagreements that involve a line from the first 24 h of log time.
    pub first_day: usize,
}

pub fn agreement(stream: &Stream, served: &[Mapped], replay: &[Warning]) -> Agreement {
    // key -> (served count, replay count, earliest log time involved)
    let mut keys: HashMap<(NodeId, u64, u64), (usize, usize, u64)> = HashMap::new();
    for m in served {
        let t = stream.times[m.line].0;
        let e = keys
            .entry((m.node, t % MICROS_PER_DAY, m.score_bits))
            .or_insert((0, 0, u64::MAX));
        e.0 += 1;
        e.2 = e.2.min(t);
    }
    for w in replay {
        let e = keys
            .entry((w.node, w.at.0 % MICROS_PER_DAY, w.score.to_bits()))
            .or_insert((0, 0, u64::MAX));
        e.1 += 1;
        e.2 = e.2.min(w.at.0);
    }
    let (mut both, mut any, mut served_only, mut replay_only, mut first_day) = (0, 0, 0, 0, 0);
    for &(s, r, t) in keys.values() {
        both += s.min(r);
        any += s.max(r);
        served_only += s.saturating_sub(r);
        replay_only += r.saturating_sub(s);
        if s != r && t < MICROS_PER_DAY {
            first_day += s.abs_diff(r);
        }
    }
    Agreement {
        jaccard: both as f64 / any.max(1) as f64,
        served_only,
        replay_only,
        first_day,
    }
}

pub struct Truth {
    pub recall: f64,
    pub precision: f64,
    /// Median over caught failures of failure time minus first hit.
    pub lead_p50_s: f64,
    pub caught: usize,
}

/// `desh-cli`'s `warning_hits` rule: a warning counts when it lands on
/// the failing node before the failure and less than 10 minutes ahead.
fn hits(at: Micros, f: Micros) -> bool {
    at < f && f.saturating_sub(at).as_mins_f64() < 10.0
}

/// Score warnings, each placed at its line's generator timestamp.
pub fn truth(warnings: &[(NodeId, Micros)], failures: &[GroundTruthFailure]) -> Truth {
    let mut by_node: HashMap<NodeId, Vec<(Micros, usize)>> = HashMap::new();
    for (i, f) in failures.iter().enumerate() {
        by_node.entry(f.node).or_default().push((f.time, i));
    }
    let mut first_hit: Vec<Option<Micros>> = vec![None; failures.len()];
    let mut useful = 0usize;
    for &(node, at) in warnings {
        let Some(fs) = by_node.get(&node) else {
            continue;
        };
        let mut hit = false;
        for &(_, i) in fs.iter().filter(|&&(t, _)| hits(at, t)) {
            hit = true;
            first_hit[i] = Some(first_hit[i].map_or(at, |h| h.min(at)));
        }
        useful += hit as usize;
    }
    let mut leads: Vec<f64> = first_hit
        .iter()
        .zip(failures)
        .filter_map(|(h, f)| h.map(|h| f.time.saturating_sub(h).as_secs_f64()))
        .collect();
    let caught = leads.len();
    Truth {
        recall: caught as f64 / failures.len().max(1) as f64,
        precision: useful as f64 / warnings.len().max(1) as f64,
        lead_p50_s: quantile(&mut leads, 0.5),
        caught,
    }
}

/// The `q`-quantile of `values` with linear interpolation (NaN if empty).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(mut values: Vec<f64>) -> f64 {
    quantile(&mut values, 0.5)
}
