//! Phase 2: re-train on (ΔT, phrase) vectors from the learned failure
//! chains (paper §3.2, Table 4).
//!
//! Each chain becomes a sequence of vectors `(ΔT_i, P_i)` where ΔT_i is
//! the cumulative time difference to the terminal phrase. The LSTM is
//! trained with history size 5, 1-step prediction, MSE loss and the
//! RMSprop optimizer (Table 5) to learn "how late the terminal phrase is
//! expected to appear in the sequence based on the previously seen
//! phrases".
//!
//! **Encoding note.** The paper describes the input as a 2-state
//! (ΔT, phrase-id) vector. Phrase ids are arbitrary integers, so under an
//! MSE loss the numeric distance between two ids carries no meaning; with
//! our interned vocabularies that representation measurably destroys the
//! chain/near-miss separation. We therefore encode the phrase channel
//! one-hot — the standard translation of a categorical variable for a
//! regression loss — keeping the ΔT channel exactly as described. The
//! model still "predicts the next sample" and phase 3 still thresholds
//! the MSE between prediction and observation, as in the paper.

use crate::chain::FailureChain;
use crate::config::Phase2Config;
use crate::observe::EpochTelemetry;
use crate::session::RunSession;
use desh_nn::{
    Optimizer, RmsProp, TrainConfig, VectorLstm, VectorStream, VectorStreamBatch, WindowScratch,
};
use desh_obs::{DivergenceRecord, Telemetry};
use desh_util::{Micros, Xoshiro256pp};

/// The trained lead-time model plus the encoding constants that must
/// travel with it to inference.
#[derive(Debug, Clone)]
pub struct LeadTimeModel {
    /// The (ΔT, one-hot phrase) regressor.
    pub net: VectorLstm,
    /// Seconds scale for the ΔT channel.
    pub dt_scale: f32,
    /// Vocabulary size; the one-hot block width.
    pub vocab_size: usize,
    /// History window used at train time (reused at inference).
    pub history: usize,
    /// Per-epoch training losses.
    pub losses: Vec<f64>,
}

impl LeadTimeModel {
    /// Encode one (ΔT seconds, phrase id) sample.
    pub fn vectorize(&self, delta_t_secs: f64, phrase: u32) -> Vec<f32> {
        vectorize(delta_t_secs, phrase, self.dt_scale, self.vocab_size)
    }

    /// Recover seconds from the ΔT channel of a model output.
    pub fn denormalize_dt(&self, v: f32) -> f64 {
        (v.max(0.0) * self.dt_scale) as f64
    }

    /// The lead time, in seconds, the net predicts for an episode buffer
    /// of `(time, phrase)` events: its newest `history` events, with ΔT
    /// counted down to the newest (the form phase 2 trains on), are
    /// encoded straight into `sw`, and the ΔT channel of the predicted
    /// next sample ([`VectorLstm::predict_next_ws`]) is the lead.
    pub fn predict_lead(&self, events: &[(Micros, u32)], sw: &mut WindowScratch) -> f64 {
        let newest = events.last().expect("an episode holds an event").0;
        let dim = self.vocab_size + 1;
        sw.clear();
        for &(t, p) in &events[events.len().saturating_sub(self.history)..] {
            let secs = newest.saturating_sub(t).as_secs_f64();
            write_sample(sw.push_row(dim), secs, p, self.dt_scale, self.vocab_size);
        }
        let next_dt = self.net.predict_next_ws(self.history, sw)[0];
        self.denormalize_dt(next_dt)
    }

    /// The phrase id a model output predicts (argmax of the one-hot block).
    pub fn predicted_phrase(&self, output: &[f32]) -> u32 {
        debug_assert_eq!(output.len(), self.vocab_size + 1);
        output[1..]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i as u32)
            .unwrap_or(0)
    }

    /// Begin an incremental scoring stream for one node's event buffer.
    pub fn begin_stream(&self) -> LeadStream {
        LeadStream {
            stream: self.net.begin_stream(),
            last_time: None,
            sum: 0.0,
            transitions: 0,
        }
    }

    /// Feed one `(timestamp, phrase)` event into a stream. Events are
    /// gap-encoded (ΔT = seconds since the previous event in the stream;
    /// zero for the first), advanced through the model by exactly one
    /// cell step per layer, and folded into the running one-step-MSE
    /// aggregate. Returns the raw (unscaled) MSE this event contributed,
    /// `None` for the first event of a stream.
    pub fn stream_push(&self, ls: &mut LeadStream, time: Micros, phrase: u32) -> Option<f64> {
        let gap_secs = match ls.last_time {
            Some(prev) => time.saturating_sub(prev).as_secs_f64(),
            None => 0.0,
        };
        ls.last_time = Some(time);
        let v = self.vectorize(gap_secs, phrase);
        let score = self.net.stream_push(&mut ls.stream, &v);
        if let Some(s) = score {
            ls.sum += s;
            ls.transitions += 1;
        }
        score
    }

    /// Mean raw one-step MSE accumulated by a stream, or `None` before
    /// the first scored transition.
    pub fn stream_mean(&self, ls: &LeadStream) -> Option<f64> {
        (ls.transitions > 0).then(|| ls.sum / ls.transitions as f64)
    }

    /// Begin a slot-resident batch of `slots` scoring streams. Every slot
    /// starts in the [`Self::begin_stream`] state.
    pub fn begin_batch(&self, slots: usize) -> LeadBatch {
        LeadBatch {
            net: self.net.begin_stream_batch(slots),
            slots: vec![SlotAgg::default(); slots],
        }
    }

    /// Stage one `(timestamp, phrase)` event into `slot`'s input row:
    /// gap-encode against the slot's carried last-event time and write the
    /// sample in place (no per-event allocation). The slot must then be
    /// included in the next [`Self::batch_push_rows`] wave — staging twice
    /// without a push in between would overwrite the pending sample.
    pub fn batch_stage(&self, lb: &mut LeadBatch, slot: usize, time: Micros, phrase: u32) {
        let agg = &mut lb.slots[slot];
        let gap_secs = match agg.last_time {
            Some(prev) => time.saturating_sub(prev).as_secs_f64(),
            None => 0.0,
        };
        agg.last_time = Some(time);
        write_sample(
            lb.net.input_row_mut(slot),
            gap_secs,
            phrase,
            self.dt_scale,
            self.vocab_size,
        );
    }

    /// Advance every staged slot in `rows` by one cell step per layer and
    /// fold each slot's raw one-step MSE into its running aggregate —
    /// [`Self::stream_push`] for a whole wave. `scores[i]` is the raw MSE
    /// contributed by `rows[i]` (`None` for a slot's first event), exactly
    /// what `stream_push` would have returned. Returns how many rows the
    /// net's first-step table served instead of the GEMV.
    pub fn batch_push_rows(
        &self,
        lb: &mut LeadBatch,
        rows: &[usize],
        scores: &mut Vec<Option<f64>>,
    ) -> usize {
        let cached = self.net.stream_push_rows(&mut lb.net, rows, scores);
        for (&slot, score) in rows.iter().zip(scores.iter()) {
            if let Some(s) = score {
                let agg = &mut lb.slots[slot];
                agg.sum += s;
                agg.transitions += 1;
            }
        }
        cached
    }

    /// Mean raw one-step MSE accumulated by `slot`, or `None` before its
    /// first scored transition — [`Self::stream_mean`] for a batch slot.
    pub fn batch_mean(&self, lb: &LeadBatch, slot: usize) -> Option<f64> {
        let agg = &lb.slots[slot];
        (agg.transitions > 0).then(|| agg.sum / agg.transitions as f64)
    }

    /// Batch reference for the incremental stream: gap-encode the whole
    /// buffer and re-run the model from zero state over every prefix.
    /// O(n²) in the buffer length — this is what [`Self::stream_push`]
    /// replaces on the hot path, kept as the replay oracle for tests and
    /// the full re-scoring fallback.
    pub fn score_events_batch(&self, events: &[(Micros, u32)]) -> Vec<f64> {
        let mut seq = Vec::with_capacity(events.len());
        let mut prev: Option<Micros> = None;
        for &(t, p) in events {
            let gap = match prev {
                Some(q) => t.saturating_sub(q).as_secs_f64(),
                None => 0.0,
            };
            prev = Some(t);
            seq.push(self.vectorize(gap, p));
        }
        self.net.score_stream_batch(&seq)
    }
}

/// Carried scoring state for one node's event stream: the model's
/// recurrent state, the previous event time (for gap encoding), and the
/// running sum/count of one-step MSEs. Owning one of these is what makes
/// the online detector O(1) per event.
#[derive(Debug, Clone)]
pub struct LeadStream {
    stream: VectorStream,
    last_time: Option<Micros>,
    sum: f64,
    transitions: usize,
}

impl LeadStream {
    /// Number of scored transitions (events beyond the first).
    pub fn transitions(&self) -> usize {
        self.transitions
    }
}

/// Per-slot stream aggregate carried by a [`LeadBatch`]: the same
/// last-time/sum/transitions triple a [`LeadStream`] keeps, minus the
/// recurrent state (which lives as a row of the shared batch).
#[derive(Debug, Clone, Copy, Default)]
struct SlotAgg {
    last_time: Option<Micros>,
    sum: f64,
    transitions: usize,
}

/// A batch of [`LeadStream`]s sharing one slot-resident recurrent-state
/// block: each node's carried state is a fixed row, so same-wave cell
/// steps from different nodes advance together through the row-wise
/// batched kernels. Scores and state are bit-identical to running one
/// [`LeadStream`] per slot (test-gated).
#[derive(Debug)]
pub struct LeadBatch {
    net: VectorStreamBatch,
    slots: Vec<SlotAgg>,
}

impl LeadBatch {
    /// Number of slots this batch was begun with.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of scored transitions accumulated by `slot`.
    pub fn transitions(&self, slot: usize) -> usize {
        self.slots[slot].transitions
    }

    /// Reset `slot` to the begin-stream state (zero recurrent state, no
    /// carried time or aggregate), leaving every other slot untouched.
    pub fn reset_slot(&mut self, slot: usize) {
        self.net.reset_slot(slot);
        self.slots[slot] = SlotAgg::default();
    }
}

/// Encode one sample: ΔT channel followed by a one-hot phrase block.
pub fn vectorize(delta_t_secs: f64, phrase: u32, dt_scale: f32, vocab: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; vocab + 1];
    write_sample(&mut v, delta_t_secs, phrase, dt_scale, vocab);
    v
}

/// [`vectorize`] into a caller's `vocab + 1`-wide row, overwriting all of
/// it. Phrase ids at or past the vocabulary clamp to its last index.
fn write_sample(row: &mut [f32], delta_t_secs: f64, phrase: u32, dt_scale: f32, vocab: usize) {
    row.fill(0.0);
    row[0] = (delta_t_secs as f32 / dt_scale).min(4.0);
    let idx = (phrase as usize).min(vocab.saturating_sub(1));
    row[1 + idx] = 1.0;
}

/// A failure chain as a phase-2 input sequence.
pub fn chain_to_vectors(chain: &FailureChain, dt_scale: f32, vocab: usize) -> Vec<Vec<f32>> {
    chain
        .events
        .iter()
        .map(|e| vectorize(e.delta_t, e.phrase, dt_scale, vocab))
        .collect()
}

/// Run phase 2: train the lead-time model on the chains from phase 1.
pub fn run_phase2(
    chains: &[FailureChain],
    vocab_size: usize,
    cfg: &Phase2Config,
    rng: &mut Xoshiro256pp,
) -> LeadTimeModel {
    run_phase2_telemetry(chains, vocab_size, cfg, rng, &Telemetry::disabled())
}

/// [`run_phase2`] reporting into a telemetry registry: the `phase2` span,
/// per-epoch loss/time via [`EpochTelemetry`], and the `phase2.chains`
/// input counter.
pub fn run_phase2_telemetry(
    chains: &[FailureChain],
    vocab_size: usize,
    cfg: &Phase2Config,
    rng: &mut Xoshiro256pp,
    telemetry: &Telemetry,
) -> LeadTimeModel {
    run_phase2_session(chains, vocab_size, cfg, rng, telemetry, None)
        .expect("phase 2 cannot diverge without a run session attached")
}

/// [`run_phase2_telemetry`] with an optional [`RunSession`] attached:
/// per-epoch rows (loss, wall time, per-layer gradient stats) land in the
/// run's `series.jsonl` under the `phase2` phase, and the divergence
/// watchdog can abort training — the offending epoch is dumped, the last
/// healthy checkpoint saved, and the [`DivergenceRecord`] returned.
pub fn run_phase2_session(
    chains: &[FailureChain],
    vocab_size: usize,
    cfg: &Phase2Config,
    rng: &mut Xoshiro256pp,
    telemetry: &Telemetry,
    mut session: Option<&mut RunSession>,
) -> Result<LeadTimeModel, DivergenceRecord> {
    let _span = telemetry.span("phase2");
    assert!(
        !chains.is_empty(),
        "phase 2 requires at least one failure chain"
    );
    assert!(vocab_size > 0);
    telemetry.count("phase2.chains", chains.len() as u64);
    let seqs: Vec<Vec<Vec<f32>>> = chains
        .iter()
        .map(|c| chain_to_vectors(c, cfg.dt_scale, vocab_size))
        .collect();
    let mut model = VectorLstm::new(vocab_size + 1, cfg.hidden, cfg.layers, rng);
    let tcfg = TrainConfig {
        history: cfg.history,
        batch: cfg.batch,
        epochs: cfg.epochs,
        clip: 5.0,
    };
    let mut opt = RmsProp::new(cfg.lr);
    let losses = match session.as_deref_mut() {
        Some(s) => {
            let mut obs = s.observer("phase2", telemetry);
            let losses =
                model.train_observed(&seqs, &tcfg, &mut opt as &mut dyn Optimizer, rng, &mut obs);
            obs.finish();
            losses
        }
        None => {
            let mut observer = EpochTelemetry::new(telemetry, "phase2");
            model.train_observed(
                &seqs,
                &tcfg,
                &mut opt as &mut dyn Optimizer,
                rng,
                &mut observer,
            )
        }
    };
    if let Some(d) = session.and_then(|s| s.diverged().cloned()) {
        return Err(d);
    }
    Ok(LeadTimeModel {
        net: model,
        dt_scale: cfg.dt_scale,
        vocab_size,
        history: cfg.history,
        losses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::extract_chains;
    use crate::config::{DeshConfig, EpisodeConfig};
    use desh_loggen::{generate, SystemProfile};
    use desh_logparse::parse_records;

    fn chains_fixture(seed: u64) -> (Vec<FailureChain>, usize) {
        let d = generate(&SystemProfile::tiny(), seed);
        let parsed = parse_records(&d.records);
        let chains = extract_chains(&parsed, &EpisodeConfig::default());
        (chains, parsed.vocab_size())
    }

    #[test]
    fn vectorize_matches_table4_shape() {
        // Table 4's ΔT column: earlier events carry larger cumulative ΔTs,
        // the terminal carries zero; each vector one-hot encodes its phrase.
        let (chains, vocab) = chains_fixture(81);
        let c = &chains[0];
        let vecs = chain_to_vectors(c, 300.0, vocab);
        assert_eq!(vecs.len(), c.events.len());
        assert!(vecs[0][0] > vecs[vecs.len() - 1][0]);
        assert_eq!(vecs[vecs.len() - 1][0], 0.0);
        for (v, e) in vecs.iter().zip(&c.events) {
            assert_eq!(v.len(), vocab + 1);
            assert!((0.0..=4.0).contains(&v[0]));
            let ones: Vec<usize> = (1..v.len()).filter(|&i| v[i] == 1.0).collect();
            assert_eq!(ones, vec![1 + e.phrase as usize]);
        }
    }

    #[test]
    fn phase2_loss_decreases() {
        let (chains, vocab) = chains_fixture(82);
        let mut rng = Xoshiro256pp::seed_from_u64(82);
        let cfg = DeshConfig::fast().phase2;
        let m = run_phase2(&chains, vocab, &cfg, &mut rng);
        assert!(
            m.losses.last().unwrap() < &m.losses[0],
            "phase-2 loss should drop: first {} last {}",
            m.losses[0],
            m.losses.last().unwrap()
        );
    }

    #[test]
    fn trained_model_predicts_chain_continuations() {
        let (chains, vocab) = chains_fixture(83);
        let mut rng = Xoshiro256pp::seed_from_u64(83);
        let mut cfg = DeshConfig::fast().phase2;
        cfg.epochs = 100;
        let m = run_phase2(&chains, vocab, &cfg, &mut rng);
        let mut total = 0.0;
        let mut n = 0usize;
        for c in &chains {
            let seq = chain_to_vectors(c, m.dt_scale, vocab);
            for s in m.net.score_sequence(&seq, m.history) {
                total += s;
                n += 1;
            }
        }
        let avg = total / n as f64;
        assert!(avg < 0.01, "avg chain MSE {avg}");
    }

    #[test]
    fn predicted_phrase_is_argmax() {
        let (chains, vocab) = chains_fixture(84);
        let mut rng = Xoshiro256pp::seed_from_u64(84);
        let mut cfg = DeshConfig::fast().phase2;
        cfg.epochs = 1;
        let m = run_phase2(&chains, vocab, &cfg, &mut rng);
        let mut out = vec![0.0f32; vocab + 1];
        out[1 + 7] = 0.9;
        out[1 + 3] = 0.4;
        assert_eq!(m.predicted_phrase(&out), 7);
    }

    #[test]
    fn dt_clipping_guards_against_outliers() {
        let v = vectorize(10_000.0, 3, 300.0, 10);
        assert_eq!(v[0], 4.0);
    }

    #[test]
    #[should_panic]
    fn phase2_requires_chains() {
        let mut rng = Xoshiro256pp::seed_from_u64(84);
        run_phase2(&[], 10, &Phase2Config::default(), &mut rng);
    }

    /// Drive interleaved per-node event sequences through a [`LeadBatch`]
    /// (wave-batched) and through one sequential [`LeadStream`] per node;
    /// every raw score, running mean, and transition count must agree
    /// bit-for-bit, including across a mid-flight slot reset.
    fn assert_lead_batch_matches_streams(m: &LeadTimeModel) {
        let slots = 4usize;
        let mut lb = m.begin_batch(slots);
        let mut streams: Vec<LeadStream> = (0..slots).map(|_| m.begin_stream()).collect();
        let mut scores = Vec::new();
        let vocab = m.vocab_size as u32;
        for t in 0..7u64 {
            // Slot 1 resets mid-flight (a terminal or warning would do this).
            if t == 3 {
                lb.reset_slot(1);
                streams[1] = m.begin_stream();
            }
            // Slots drop in and out of waves: slot s skips ticks where
            // (t + s) % 3 == 0, so gap encodings differ per slot.
            let rows: Vec<usize> = (0..slots)
                .filter(|s| !(t + *s as u64).is_multiple_of(3))
                .collect();
            let mut want = Vec::new();
            for &s in &rows {
                let time = Micros::from_secs_f64(10.0 + t as f64 * 7.5 + s as f64);
                let phrase = (t as u32 * 5 + s as u32 * 3) % (vocab + 2);
                m.batch_stage(&mut lb, s, time, phrase);
                want.push(m.stream_push(&mut streams[s], time, phrase));
            }
            m.batch_push_rows(&mut lb, &rows, &mut scores);
            assert_eq!(scores.len(), rows.len());
            for (i, &s) in rows.iter().enumerate() {
                assert_eq!(
                    scores[i].map(f64::to_bits),
                    want[i].map(f64::to_bits),
                    "slot {s} tick {t}"
                );
            }
            for (s, stream) in streams.iter().enumerate() {
                assert_eq!(
                    m.batch_mean(&lb, s).map(f64::to_bits),
                    m.stream_mean(stream).map(f64::to_bits),
                    "slot {s} mean after tick {t}"
                );
                assert_eq!(lb.transitions(s), stream.transitions());
            }
        }
    }

    #[test]
    fn lead_batch_bit_identical_to_lead_streams() {
        let (chains, vocab) = chains_fixture(85);
        let mut rng = Xoshiro256pp::seed_from_u64(85);
        let mut cfg = DeshConfig::fast().phase2;
        cfg.epochs = 2;
        let m = run_phase2(&chains, vocab, &cfg, &mut rng);
        assert_lead_batch_matches_streams(&m);
    }
}
