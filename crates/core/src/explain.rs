//! Explaining a flagged episode.
//!
//! The paper argues Desh "not only helps in flagging failures to take
//! recovery actions, it also gives insights as to what phrases indicate
//! node failures". This module makes a flag auditable: which trained
//! failure chain is the episode closest to (dynamic-time-warping alignment
//! over the same (ΔT, phrase) samples phase 3 scores), and which
//! transitions of the episode matched well or poorly.
//!
//! Samples are held compactly — the ΔT channel plus the index of the one
//! hot phrase coordinate — instead of as dense `vocab + 1` rows. The
//! sample distance reproduces the dense squared distance bit for bit, so
//! chain indices and distances are those of the dense encoding.

use crate::chain::FailureChain;
use crate::episode::Episode;
use crate::phase2::LeadTimeModel;
use desh_logparse::ParsedLog;
use desh_util::Micros;

/// One (ΔT, one-hot phrase) sample in compact form: the ΔT channel and
/// the index of the hot phrase coordinate of the dense
/// [`crate::phase2::vectorize`] row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The ΔT channel: seconds over `dt_scale`, capped at 4.0.
    pub dt: f32,
    /// The hot phrase coordinate: the phrase id clamped into the vocabulary.
    pub hot: u32,
}

impl Sample {
    /// Encode one sample with exactly `vectorize`'s arithmetic.
    pub fn encode(delta_t_secs: f64, phrase: u32, dt_scale: f32, vocab: usize) -> Sample {
        Sample {
            dt: (delta_t_secs as f32 / dt_scale).min(4.0),
            hot: (phrase as usize).min(vocab.saturating_sub(1)) as u32,
        }
    }
}

/// Squared distance between the dense encodings of two samples, with the
/// dense f64 sum's bits. That sum adds the ΔT term first, then one term
/// per phrase coordinate in index order: 1.0 at each of the two hot
/// coordinates when they differ, +0.0 everywhere else (which leaves a
/// non-negative partial sum unchanged).
fn sample_dist(a: Sample, b: Sample) -> f64 {
    let d = (a.dt - b.dt) as f64;
    let t = d * d;
    if a.hot == b.hot {
        t
    } else {
        (t + 1.0) + 1.0
    }
}

/// Reusable dynamic-programming buffer for [`dtw_distance`]: two rows of
/// (cumulative cost, path length) cells, reused across chains and
/// warnings so a match allocates nothing once warm.
#[derive(Debug, Default, Clone)]
pub struct DtwScratch {
    cells: Vec<(f64, u32)>,
}

/// Dynamic-time-warping distance between two sample sequences, normalised
/// by the alignment path length. Handles the paper's observation that
/// test sequences are "quite similar" but not identical to trained chains
/// (insertions/deletions of optional steps).
///
/// Returns `None` — exact early abandoning — as soon as the distance
/// provably cannot fall below `abandon_at`: after row `i`, the row's
/// minimum cost over `n + m − 1` (the longest possible path) bounds the
/// final distance from below. Costs never fall along a path, every path
/// crosses every row, no path is longer than `n + m − 1` steps, and
/// rounded division is monotone. Pass `f64::INFINITY` to never abandon.
pub fn dtw_distance(
    a: &[Sample],
    b: &[Sample],
    abandon_at: f64,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    assert!(!a.is_empty() && !b.is_empty());
    let (n, m) = (a.len(), b.len());
    let longest = (n + m - 1) as f64;
    let width = m + 1;
    scratch.cells.clear();
    scratch.cells.resize(2 * width, (f64::INFINITY, 0));
    let (mut prev, mut cur) = scratch.cells.split_at_mut(width);
    // Row 0 of the table: only the origin is reachable.
    prev[0].0 = 0.0;
    for (i, &x) in a.iter().enumerate() {
        // Column 0 of rows 1..=n is unreachable.
        cur[0] = (f64::INFINITY, 0);
        let mut row_min = f64::INFINITY;
        for j in 1..width {
            // Predecessors in tie order: diagonal, then up, then left;
            // a later one wins only when strictly cheaper.
            let mut best = prev[j - 1];
            if prev[j].0 < best.0 {
                best = prev[j];
            }
            if cur[j - 1].0 < best.0 {
                best = cur[j - 1];
            }
            let cost = best.0 + sample_dist(x, b[j - 1]);
            cur[j] = (cost, best.1 + 1);
            row_min = row_min.min(cost);
        }
        if i + 1 < n && row_min / longest >= abandon_at {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let (cost, steps) = prev[m];
    Some(cost / steps as f64)
}

/// Retrieve the nearest chain (by normalised DTW distance) to an encoded
/// episode. Ties go to the lowest chain index; empty chains are skipped.
/// Chains that cannot beat the best so far are abandoned early, which
/// changes neither the index nor the distance returned.
pub fn nearest_chain(
    episode: &[Sample],
    chains: &[Vec<Sample>],
    scratch: &mut DtwScratch,
) -> Option<(usize, f64)> {
    if episode.is_empty() {
        return None;
    }
    let mut best: Option<(usize, f64)> = None;
    for (i, chain) in chains.iter().enumerate() {
        if chain.is_empty() {
            continue;
        }
        let bound = best.map_or(f64::INFINITY, |(_, d)| d);
        if let Some(d) = dtw_distance(episode, chain, bound, scratch) {
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
    }
    best
}

/// The trained chains a detector names warnings against: encoded once,
/// with the episode and DP buffers reused across warnings. Empty (the
/// default) when no chains were attached.
#[derive(Debug, Default, Clone)]
pub(crate) struct ChainMatcher {
    chains: Vec<Vec<Sample>>,
    dt_scale: f32,
    vocab: usize,
    episode: Vec<Sample>,
    scratch: DtwScratch,
}

impl ChainMatcher {
    /// Encode `chains` in `model`'s sample encoding (countdown ΔT, as
    /// phase 2 trains on them).
    pub(crate) fn new(chains: &[FailureChain], model: &LeadTimeModel) -> Self {
        let encode = |c: &FailureChain| {
            c.events
                .iter()
                .map(|e| Sample::encode(e.delta_t, e.phrase, model.dt_scale, model.vocab_size))
                .collect()
        };
        Self {
            chains: chains.iter().map(encode).collect(),
            dt_scale: model.dt_scale,
            vocab: model.vocab_size,
            ..Self::default()
        }
    }

    /// The nearest chain to a buffered episode of `(time, phrase)`
    /// events, with ΔT counted down to the newest event — the form the
    /// chains were trained in.
    pub(crate) fn nearest(&mut self, events: &[(Micros, u32)]) -> Option<(usize, f64)> {
        let newest = events.last()?.0;
        if self.chains.is_empty() {
            return None;
        }
        self.episode.clear();
        self.episode.extend(events.iter().map(|&(t, p)| {
            Sample::encode(
                newest.saturating_sub(t).as_secs_f64(),
                p,
                self.dt_scale,
                self.vocab,
            )
        }));
        nearest_chain(&self.episode, &self.chains, &mut self.scratch)
    }
}

/// The explanation for one episode.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Index (into the provided chain slice) of the closest trained chain.
    pub nearest_chain: usize,
    /// Normalised DTW distance to that chain.
    pub distance: f64,
    /// The nearest chain's phrase templates, oldest first.
    pub chain_templates: Vec<String>,
    /// The episode's phrase templates, oldest first.
    pub episode_templates: Vec<String>,
}

/// Explain an episode by retrieving its nearest trained failure chain in
/// the model's own sample encoding.
pub fn explain_episode(
    episode: &Episode,
    chains: &[FailureChain],
    model: &LeadTimeModel,
    parsed: &ParsedLog,
) -> Option<Explanation> {
    let events: Vec<(Micros, u32)> = episode.events.iter().map(|e| (e.time, e.phrase)).collect();
    let (nearest_chain, distance) = ChainMatcher::new(chains, model).nearest(&events)?;
    Some(Explanation {
        nearest_chain,
        distance,
        chain_templates: chains[nearest_chain]
            .events
            .iter()
            .map(|e| parsed.template(e.phrase))
            .collect(),
        episode_templates: episode
            .events
            .iter()
            .map(|e| parsed.template(e.phrase))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::extract_chains;
    use crate::config::DeshConfig;
    use crate::episode::extract_episodes;
    use crate::phase2::{run_phase2, vectorize};
    use desh_loggen::{generate, SystemProfile};
    use desh_logparse::{parse_records, parse_records_with_vocab};
    use desh_util::Xoshiro256pp;
    use proptest::prelude::*;

    /// The dense reference: DTW over full `vocab + 1` rows, two
    /// `Vec<Vec>` tables per pair, no abandoning. The compact path must
    /// reproduce its index and distance bits.
    mod dense {
        fn sample_dist(a: &[f32], b: &[f32]) -> f64 {
            a.iter()
                .zip(b)
                .map(|(&x, &y)| {
                    let d = (x - y) as f64;
                    d * d
                })
                .sum()
        }

        pub fn dtw_distance(a: &[Vec<f32>], b: &[Vec<f32>]) -> f64 {
            let (n, m) = (a.len(), b.len());
            let inf = f64::INFINITY;
            let mut cost = vec![vec![inf; m + 1]; n + 1];
            let mut steps = vec![vec![0u32; m + 1]; n + 1];
            cost[0][0] = 0.0;
            for i in 1..=n {
                for j in 1..=m {
                    let d = sample_dist(&a[i - 1], &b[j - 1]);
                    let (prev, plen) = [
                        (cost[i - 1][j - 1], steps[i - 1][j - 1]),
                        (cost[i - 1][j], steps[i - 1][j]),
                        (cost[i][j - 1], steps[i][j - 1]),
                    ]
                    .into_iter()
                    .min_by(|x, y| x.0.partial_cmp(&y.0).unwrap())
                    .unwrap();
                    if prev.is_finite() {
                        cost[i][j] = prev + d;
                        steps[i][j] = plen + 1;
                    }
                }
            }
            if cost[n][m].is_finite() && steps[n][m] > 0 {
                cost[n][m] / steps[n][m] as f64
            } else {
                inf
            }
        }

        pub fn nearest_chain(ep: &[Vec<f32>], chains: &[Vec<Vec<f32>>]) -> Option<(usize, f64)> {
            if ep.is_empty() {
                return None;
            }
            let mut best: Option<(usize, f64)> = None;
            for (i, cv) in chains.iter().enumerate() {
                if cv.is_empty() {
                    continue;
                }
                let d = dtw_distance(ep, cv);
                if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                    best = Some((i, d));
                }
            }
            best
        }
    }

    fn samples(pairs: &[(f64, u32)]) -> Vec<Sample> {
        pairs
            .iter()
            .map(|&(secs, p)| Sample::encode(secs, p, 1.0, 4))
            .collect()
    }

    fn dtw(a: &[Sample], b: &[Sample]) -> f64 {
        dtw_distance(a, b, f64::INFINITY, &mut DtwScratch::default()).unwrap()
    }

    #[test]
    fn dtw_identical_sequences_have_zero_distance() {
        let a = samples(&[(0.1, 0), (0.0, 1)]);
        assert_eq!(dtw(&a, &a), 0.0);
    }

    #[test]
    fn dtw_tolerates_insertions() {
        let a = samples(&[(1.0, 0), (0.0, 1)]);
        // b = a with one duplicated middle element: still much closer to a
        // than a reversed sequence.
        let b = samples(&[(1.0, 0), (1.0, 0), (0.0, 1)]);
        let reversed = samples(&[(0.0, 1), (1.0, 0)]);
        assert!(dtw(&a, &b) < dtw(&a, &reversed));
    }

    #[test]
    fn dtw_is_symmetric_enough() {
        let a = samples(&[(0.5, 0), (0.2, 1), (0.0, 3)]);
        let b = samples(&[(0.4, 1), (0.0, 1)]);
        assert!((dtw(&a, &b) - dtw(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn dtw_abandons_only_chains_that_cannot_win() {
        let a = samples(&[(0.0, 0), (0.0, 1), (0.0, 2)]);
        let far = samples(&[(3.0, 3), (3.0, 3), (3.0, 3)]);
        let exact = dtw(&a, &far);
        let mut scratch = DtwScratch::default();
        // A bound above the true distance never abandons...
        assert_eq!(
            dtw_distance(&a, &far, exact * 2.0, &mut scratch),
            Some(exact)
        );
        // ...and one the first row already exceeds does.
        assert_eq!(dtw_distance(&a, &far, 0.5, &mut scratch), None);
    }

    #[test]
    fn nearest_chain_picks_minimum_and_skips_empty() {
        let ep = samples(&[(1.0, 0), (0.0, 1)]);
        let chains = vec![
            vec![],                         // empty: skipped
            samples(&[(0.0, 1), (1.0, 0)]), // reversed
            samples(&[(1.0, 0), (0.0, 1)]), // identical
            samples(&[(1.0, 0), (0.0, 1)]), // tie: loses to index 2
        ];
        let mut s = DtwScratch::default();
        let (idx, d) = nearest_chain(&ep, &chains, &mut s).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(d, 0.0);
        assert!(nearest_chain(&[], &chains, &mut s).is_none());
        assert!(nearest_chain(&ep, &[], &mut s).is_none());
        assert!(nearest_chain(&ep, &[vec![], vec![]], &mut s).is_none());
    }

    /// A random (ΔT seconds, phrase) sequence of length 1..=12. Phrase ids
    /// reach past `vocab` so clamping is exercised; ΔTs reach past
    /// `4 × dt_scale` so the cap is, and some land exactly on it.
    fn random_events(rng: &mut Xoshiro256pp, vocab: usize, dt_scale: f32) -> Vec<(f64, u32)> {
        let len = 1 + rng.index(12);
        (0..len)
            .map(|_| {
                let secs = match rng.index(4) {
                    0 => 4.0 * dt_scale as f64,
                    1 => 0.0,
                    _ => rng.range_f64(0.0, 6.0 * dt_scale as f64),
                };
                (secs, rng.index(vocab + 3) as u32)
            })
            .collect()
    }

    proptest! {
        #[test]
        fn compact_dtw_matches_dense_reference_bit_for_bit(seed in any::<u64>()) {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let vocab = 1 + rng.index(12);
            let dt_scale = [1.0f32, 30.0, 300.0][rng.index(3)];
            let mut chains: Vec<Vec<(f64, u32)>> = (0..1 + rng.index(12))
                .map(|_| random_events(&mut rng, vocab, dt_scale))
                .collect();
            // Duplicates force ties between chains; the lowest index wins.
            for _ in 0..rng.index(4) {
                let c = chains[rng.index(chains.len())].clone();
                let at = rng.index(chains.len() + 1);
                chains.insert(at, c);
            }
            let dense_chains: Vec<Vec<Vec<f32>>> = chains
                .iter()
                .map(|c| c.iter().map(|&(s, p)| vectorize(s, p, dt_scale, vocab)).collect())
                .collect();
            let compact_chains: Vec<Vec<Sample>> = chains
                .iter()
                .map(|c| c.iter().map(|&(s, p)| Sample::encode(s, p, dt_scale, vocab)).collect())
                .collect();
            let mut scratch = DtwScratch::default();
            for k in 0..16 {
                // Every fourth episode is one of the chains itself.
                let ep = if k % 4 == 0 {
                    chains[rng.index(chains.len())].clone()
                } else {
                    random_events(&mut rng, vocab, dt_scale)
                };
                let dense_ep: Vec<Vec<f32>> =
                    ep.iter().map(|&(s, p)| vectorize(s, p, dt_scale, vocab)).collect();
                let compact_ep: Vec<Sample> =
                    ep.iter().map(|&(s, p)| Sample::encode(s, p, dt_scale, vocab)).collect();
                let want = dense::nearest_chain(&dense_ep, &dense_chains);
                let got = nearest_chain(&compact_ep, &compact_chains, &mut scratch);
                prop_assert_eq!(got.map(|(i, _)| i), want.map(|(i, _)| i));
                prop_assert_eq!(got.map(|(_, d)| d.to_bits()), want.map(|(_, d)| d.to_bits()));
                // Per chain: the distance has the dense bits, and a chain
                // abandoned against the winning distance could not beat it.
                let bound = want.map_or(f64::INFINITY, |(_, d)| d);
                for (cc, dc) in compact_chains.iter().zip(&dense_chains) {
                    let exact = dense::dtw_distance(&dense_ep, dc);
                    let d = dtw_distance(&compact_ep, cc, f64::INFINITY, &mut scratch).unwrap();
                    prop_assert_eq!(d.to_bits(), exact.to_bits());
                    if dtw_distance(&compact_ep, cc, bound, &mut scratch).is_none() {
                        prop_assert!(exact >= bound);
                    }
                }
            }
        }
    }

    #[test]
    fn failure_episodes_retrieve_matching_chains() {
        let mut p = SystemProfile::tiny();
        p.failures = 24;
        p.nodes = 16;
        let d = generate(&p, 701);
        let (train, test) = d.split_by_time(0.3);
        let cfg = DeshConfig::fast();
        let parsed_train = parse_records(&train.records);
        let chains = extract_chains(&parsed_train, &cfg.episodes);
        let mut rng = Xoshiro256pp::seed_from_u64(701);
        let model = run_phase2(&chains, parsed_train.vocab_size(), &cfg.phase2, &mut rng);
        let parsed_test = parse_records_with_vocab(&test.records, parsed_train.vocab.clone());

        let episodes = extract_episodes(&parsed_test, &cfg.episodes);
        let mut explained = 0;
        for ep in episodes.iter().take(10) {
            let ex = explain_episode(ep, &chains, &model, &parsed_test).expect("chains available");
            assert!(ex.nearest_chain < chains.len());
            assert!(ex.distance.is_finite());
            assert!(!ex.chain_templates.is_empty());
            explained += 1;
        }
        assert!(explained > 0);
    }

    #[test]
    fn explanation_evidence_preserves_event_order() {
        // The explanation's template lists must follow the underlying
        // event order (oldest first) on both sides — operators read them
        // as a timeline.
        let mut p = SystemProfile::tiny();
        p.failures = 24;
        p.nodes = 16;
        let d = generate(&p, 703);
        let cfg = DeshConfig::fast();
        let parsed = parse_records(&d.records);
        let chains = extract_chains(&parsed, &cfg.episodes);
        let mut rng = Xoshiro256pp::seed_from_u64(703);
        let model = run_phase2(&chains, parsed.vocab_size(), &cfg.phase2, &mut rng);
        let episodes = extract_episodes(&parsed, &cfg.episodes);
        let ep = episodes
            .iter()
            .find(|e| e.events.len() >= 2)
            .expect("multi-event episode");
        let ex = explain_episode(ep, &chains, &model, &parsed).unwrap();

        assert_eq!(ex.episode_templates.len(), ep.events.len());
        for (tmpl, ev) in ex.episode_templates.iter().zip(&ep.events) {
            assert_eq!(
                *tmpl,
                parsed.template(ev.phrase),
                "episode evidence out of order"
            );
        }
        let chain = &chains[ex.nearest_chain];
        assert_eq!(ex.chain_templates.len(), chain.events.len());
        for (tmpl, ev) in ex.chain_templates.iter().zip(&chain.events) {
            assert_eq!(
                *tmpl,
                parsed.template(ev.phrase),
                "chain evidence out of order"
            );
        }
        // And the underlying events really are time-ordered, so template
        // order == chronological order.
        assert!(ep.events.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn failure_episode_is_closer_to_chains_than_random_noise() {
        let mut p = SystemProfile::tiny();
        p.failures = 24;
        p.nodes = 16;
        let d = generate(&p, 702);
        let cfg = DeshConfig::fast();
        let parsed = parse_records(&d.records);
        let chains = extract_chains(&parsed, &cfg.episodes);
        let mut rng = Xoshiro256pp::seed_from_u64(702);
        let model = run_phase2(&chains, parsed.vocab_size(), &cfg.phase2, &mut rng);

        // A failure episode (one of the chains itself, re-found) should sit
        // near zero distance to its own chain.
        let episodes = extract_episodes(&parsed, &cfg.episodes);
        let failure_ep = episodes
            .iter()
            .find(|ep| {
                d.failures
                    .iter()
                    .any(|f| f.node == ep.node && f.time.abs_diff(ep.end()).as_secs_f64() < 5.0)
            })
            .expect("failure episode exists");
        let ex = explain_episode(failure_ep, &chains, &model, &parsed).unwrap();
        assert!(
            ex.distance < 0.05,
            "self-retrieval distance too large: {}",
            ex.distance
        );
    }
}
