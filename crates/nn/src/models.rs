//! The two model shapes Desh trains.
//!
//! * [`TokenLstm`] — phrase-id sequences → next-phrase distribution
//!   (phase 1; also reused by the DeepLog-style baseline). Embedding →
//!   stacked LSTM → softmax head, trained with SGD + categorical
//!   cross-entropy per Table 5.
//! * [`VectorLstm`] — (ΔT, phrase-id) 2-state vectors → next vector
//!   (phases 2 and 3), trained with RMSprop + MSE per Table 5.
//!
//! Both train on fixed-length history windows (the paper's "history size"),
//! resetting recurrent state per window — i.e. truncated BPTT over the
//! window, which is exactly what a Keras stateless LSTM with a fixed
//! `timesteps` dimension does.

use crate::embedding::Embedding;
use crate::loss::{mse, mse_denom, mse_vec, softmax, softmax_xent, softmax_xent_denom};
use crate::lstm::LstmState;
use crate::mat::Mat;
use crate::observe::{NoopObserver, ParamStatsAcc, ShardStats, TrainObserver};
use crate::optim::Optimizer;
use crate::parallel::{shard_count, shard_ranges, tree_reduce_indices, GradSet};
use crate::param::{clip_global_norm, Param};
use crate::stacked::{StackedLstm, StackedScratch};
use desh_util::Xoshiro256pp;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Hyper-parameters for a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// History window size (paper: 8 in phase 1, 5 in phases 2/3).
    pub history: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Number of passes over the window set.
    pub epochs: usize,
    /// Global gradient-norm clip.
    pub clip: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            history: 8,
            batch: 32,
            epochs: 4,
            clip: 5.0,
        }
    }
}

/// Per-epoch mean losses returned by a training run.
pub type EpochLosses = Vec<f64>;

/// One shard's private state for the data-parallel trainer: gradient
/// accumulators, forward/backward scratch, the current batch's loss
/// contribution, and per-epoch work accounting.
struct TrainShard {
    grads: GradSet,
    ws: StackedScratch,
    loss: f64,
    windows: usize,
    busy: Duration,
}

impl TrainShard {
    fn fresh(params: &[&Param], n: usize) -> Vec<TrainShard> {
        (0..n)
            .map(|_| TrainShard {
                grads: GradSet::zeros_like(params),
                ws: StackedScratch::new(),
                loss: 0.0,
                windows: 0,
                busy: Duration::ZERO,
            })
            .collect()
    }

    fn reset_epoch(states: &mut [TrainShard]) {
        for st in states {
            st.windows = 0;
            st.busy = Duration::ZERO;
        }
    }

    fn epoch_stats(states: &[TrainShard]) -> Vec<ShardStats> {
        states
            .iter()
            .enumerate()
            .map(|(i, st)| ShardStats {
                shard: i,
                windows: st.windows,
                busy: st.busy,
            })
            .collect()
    }
}

/// Merge shard gradients in the fixed tree order, add the total into the
/// parameters, clip, and step the optimizer. Returns the batch's summed
/// loss and the wall time of the tree reduction (including the final add
/// into the parameter gradients). Shard gradient buffers are left zeroed
/// for the next batch. When `stats` is set (an observer opted into
/// per-layer stats) the merged buffers get one extra read pass before
/// they are cleared; the stats never feed back into the update, so the
/// numerics are identical with or without an accumulator.
fn reduce_apply_step(
    states: &mut [TrainShard],
    params: &mut [&mut Param],
    clip: f64,
    opt: &mut dyn Optimizer,
    stats: Option<&mut ParamStatsAcc>,
) -> (f64, Duration) {
    let t0 = Instant::now();
    tree_reduce_indices(states.len(), |d, s| {
        let (a, b) = states.split_at_mut(s);
        a[d].grads.add_assign(&b[0].grads);
        a[d].loss += b[0].loss;
    });
    states[0].grads.apply_to(params);
    let reduce_elapsed = t0.elapsed();
    if let Some(acc) = stats {
        acc.accumulate(states[0].grads.mats());
    }
    clip_global_norm(params, clip);
    opt.step(params);
    let loss = states[0].loss;
    for st in states {
        st.grads.clear();
    }
    (loss, reduce_elapsed)
}

// ---------------------------------------------------------------------------
// TokenLstm
// ---------------------------------------------------------------------------

/// Next-phrase language model over encoded phrase ids.
#[derive(Debug, Clone)]
pub struct TokenLstm {
    /// Input embedding table.
    pub embed: Embedding,
    /// Stacked LSTM + softmax head (logits over the vocabulary).
    pub net: StackedLstm,
}

impl TokenLstm {
    /// Fresh model with a jointly trained embedding.
    pub fn new(
        vocab: usize,
        embed_dim: usize,
        hidden: usize,
        layers: usize,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        Self {
            embed: Embedding::new(vocab, embed_dim, rng),
            net: StackedLstm::new(embed_dim, hidden, layers, vocab, rng),
        }
    }

    /// Model seeded with pre-trained embeddings (e.g. skip-gram, §3.1 of the
    /// paper). The table is still fine-tuned during training.
    pub fn with_embeddings(
        table: Mat,
        hidden: usize,
        layers: usize,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        let vocab = table.rows();
        let dim = table.cols();
        Self {
            embed: Embedding::from_table(table),
            net: StackedLstm::new(dim, hidden, layers, vocab, rng),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.embed.vocab()
    }

    /// All parameters in deterministic order (embedding first).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = vec![&mut self.embed.table];
        ps.extend(self.net.params_mut());
        ps
    }

    /// Immutable parameter view (same order as [`Self::params_mut`]).
    pub fn params(&self) -> Vec<&Param> {
        let mut ps = vec![&self.embed.table];
        ps.extend(self.net.params());
        ps
    }

    /// Enumerate (sequence index, end position) of every full history
    /// window with a target token after it.
    fn window_index(seqs: &[Vec<u32>], history: usize) -> Vec<(u32, u32)> {
        let mut idx = Vec::new();
        for (si, s) in seqs.iter().enumerate() {
            if s.len() > history {
                for t in history..s.len() {
                    idx.push((si as u32, t as u32));
                }
            }
        }
        idx
    }

    /// Train with the given optimizer; returns the mean loss per epoch.
    pub fn train(
        &mut self,
        seqs: &[Vec<u32>],
        cfg: &TrainConfig,
        opt: &mut dyn Optimizer,
        rng: &mut Xoshiro256pp,
    ) -> EpochLosses {
        self.train_observed(seqs, cfg, opt, rng, &mut NoopObserver)
    }

    /// [`TokenLstm::train`] with a per-epoch [`TrainObserver`] callback.
    ///
    /// Data-parallel: each minibatch is split across a fixed number of
    /// gradient shards (`parallel::shard_count`, default 8) executed by
    /// however many threads the rayon shim is configured for, then merged
    /// with a deterministic tree reduction. Numerics depend only on the
    /// shard count: any thread count yields bit-identical weights.
    pub fn train_observed(
        &mut self,
        seqs: &[Vec<u32>],
        cfg: &TrainConfig,
        opt: &mut dyn Optimizer,
        rng: &mut Xoshiro256pp,
        observer: &mut dyn TrainObserver,
    ) -> EpochLosses {
        let mut index = Self::window_index(seqs, cfg.history);
        assert!(
            !index.is_empty(),
            "no training windows: all sequences shorter than history+1"
        );
        let shards = shard_count();
        let mut states = TrainShard::fresh(&self.params(), shards);
        let mut stats_acc = observer
            .wants_param_stats()
            .then(|| ParamStatsAcc::new(&self.params()));
        let mut losses = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            let epoch_start = Instant::now();
            rng.shuffle(&mut index);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            TrainShard::reset_epoch(&mut states);
            for chunk in index.chunks(cfg.batch) {
                let ranges = shard_ranges(chunk.len(), shards);
                {
                    let model = &*self;
                    states.par_chunks_mut(1).enumerate().for_each(|(si, st)| {
                        let st = &mut st[0];
                        st.loss = 0.0;
                        let r = ranges[si].clone();
                        if r.is_empty() {
                            return;
                        }
                        let t0 = Instant::now();
                        st.loss = model.shard_pass(
                            seqs,
                            &chunk[r.clone()],
                            cfg.history,
                            chunk.len(),
                            &mut st.ws,
                            &mut st.grads,
                        );
                        st.windows += r.len();
                        st.busy += t0.elapsed();
                    });
                }
                let (loss, reduce_elapsed) = reduce_apply_step(
                    &mut states,
                    &mut self.params_mut(),
                    cfg.clip,
                    opt,
                    stats_acc.as_mut(),
                );
                epoch_loss += loss;
                batches += 1;
                observer.on_grad_reduce(reduce_elapsed);
            }
            let mean = epoch_loss / batches.max(1) as f64;
            observer.on_epoch(epoch, mean, epoch_start.elapsed());
            observer.on_shards(epoch, &TrainShard::epoch_stats(&states));
            if let Some(acc) = stats_acc.as_mut() {
                let stats = acc.finish_epoch(&self.params(), f64::from(opt.learning_rate()));
                observer.on_param_stats(epoch, &stats);
            }
            if observer.wants_checkpoints() {
                let model = &*self;
                observer.on_checkpoint(epoch, &mut || model.to_bytes());
            }
            losses.push(mean);
            if observer.should_stop() {
                break;
            }
        }
        losses
    }

    /// Forward + backward for one shard's slice of a minibatch: gradients
    /// go into the shard's own buffers, losses use the full-batch
    /// denominator so the tree-reduced sum equals the one-shot batch
    /// gradient.
    fn shard_pass(
        &self,
        seqs: &[Vec<u32>],
        rows: &[(u32, u32)],
        history: usize,
        batch_rows: usize,
        ws: &mut StackedScratch,
        grads: &mut GradSet,
    ) -> f64 {
        // Build per-timestep id columns for this shard's rows.
        let mut step_ids: Vec<Vec<u32>> = vec![Vec::with_capacity(rows.len()); history];
        let mut targets = Vec::with_capacity(rows.len());
        for &(si, t) in rows {
            let s = &seqs[si as usize];
            let t = t as usize;
            for (k, ids) in step_ids.iter_mut().enumerate() {
                ids.push(s[t - history + k]);
            }
            targets.push(s[t]);
        }
        // Forward: embed each timestep, run the stack.
        let mut xs = Vec::with_capacity(history);
        let mut ecaches = Vec::with_capacity(history);
        for ids in &step_ids {
            let (x, c) = self.embed.forward(ids);
            xs.push(x);
            ecaches.push(c);
        }
        let (logits, tape) = self.net.forward_ws(&xs, ws);
        let (loss, dlogits) = softmax_xent_denom(&logits, &targets, batch_rows);
        // Backward into the shard's buffers: [embed table | net params].
        let (etab, net_grads) = grads.mats_mut().split_first_mut().expect("grad layout");
        let dxs = self.net.backward_into(&tape, &dlogits, net_grads);
        for (c, dx) in ecaches.iter().zip(&dxs) {
            self.embed.backward_into(c, dx, etab);
        }
        loss
    }

    /// Single-threaded reference trainer: the exact pre-sharding loop,
    /// kept so benches can measure the parallel path against it and tests
    /// can bound the 1-worker-vs-sequential FP drift (summation order is
    /// the only difference).
    pub fn train_sequential(
        &mut self,
        seqs: &[Vec<u32>],
        cfg: &TrainConfig,
        opt: &mut dyn Optimizer,
        rng: &mut Xoshiro256pp,
        observer: &mut dyn TrainObserver,
    ) -> EpochLosses {
        let mut index = Self::window_index(seqs, cfg.history);
        assert!(
            !index.is_empty(),
            "no training windows: all sequences shorter than history+1"
        );
        let mut losses = Vec::with_capacity(cfg.epochs);
        let mut ws = StackedScratch::new();
        for epoch in 0..cfg.epochs {
            let epoch_start = Instant::now();
            rng.shuffle(&mut index);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in index.chunks(cfg.batch) {
                // Build per-timestep id columns.
                let mut step_ids: Vec<Vec<u32>> =
                    vec![Vec::with_capacity(chunk.len()); cfg.history];
                let mut targets = Vec::with_capacity(chunk.len());
                for &(si, t) in chunk {
                    let s = &seqs[si as usize];
                    let t = t as usize;
                    for (k, ids) in step_ids.iter_mut().enumerate() {
                        ids.push(s[t - cfg.history + k]);
                    }
                    targets.push(s[t]);
                }
                // Forward: embed each timestep, run the stack.
                let mut xs = Vec::with_capacity(cfg.history);
                let mut ecaches = Vec::with_capacity(cfg.history);
                for ids in &step_ids {
                    let (x, c) = self.embed.forward(ids);
                    xs.push(x);
                    ecaches.push(c);
                }
                let (logits, tape) = self.net.forward_ws(&xs, &mut ws);
                let (loss, dlogits) = softmax_xent(&logits, &targets);
                epoch_loss += loss;
                batches += 1;
                // Backward.
                let dxs = self.net.backward(&tape, &dlogits);
                for (c, dx) in ecaches.iter().zip(&dxs) {
                    self.embed.backward(c, dx);
                }
                clip_global_norm(&mut self.params_mut(), cfg.clip);
                opt.step(&mut self.params_mut());
            }
            let mean = epoch_loss / batches.max(1) as f64;
            observer.on_epoch(epoch, mean, epoch_start.elapsed());
            losses.push(mean);
        }
        losses
    }

    /// Probability distribution over the next phrase given a context window
    /// (uses up to the last `history` tokens; shorter contexts work too).
    pub fn predict_probs(&self, context: &[u32]) -> Vec<f32> {
        assert!(!context.is_empty());
        let xs: Vec<Mat> = context.iter().map(|&id| self.embed.infer(&[id])).collect();
        let logits = self.net.infer(&xs);
        softmax(&logits).row(0).to_vec()
    }

    /// Greedy k-step autoregressive prediction ("3-step prediction" in the
    /// paper): repeatedly predict the next phrase and feed it back, always
    /// conditioning on the most recent `history`-sized window so inference
    /// matches the fixed-window regime the model was trained in.
    pub fn predict_kstep(&self, context: &[u32], k: usize) -> Vec<u32> {
        let history = context.len();
        let mut ctx = context.to_vec();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let window = &ctx[ctx.len() - history..];
            let probs = self.predict_probs(window);
            let best = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i as u32)
                .unwrap();
            out.push(best);
            ctx.push(best);
        }
        out
    }

    /// Fraction of evaluation windows whose full k-step greedy prediction
    /// matches the actual continuation. This is the paper's phase-1
    /// "accuracy" knob for the history-size / step-count trade-off.
    pub fn accuracy_kstep(&self, seqs: &[Vec<u32>], history: usize, k: usize) -> f64 {
        let mut total = 0usize;
        let mut hit = 0usize;
        for s in seqs {
            if s.len() < history + k {
                continue;
            }
            for t in history..=(s.len() - k) {
                let pred = self.predict_kstep(&s[t - history..t], k);
                if pred[..] == s[t..t + k] {
                    hit += 1;
                }
                total += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------------
// VectorLstm
// ---------------------------------------------------------------------------

/// Next-sample regressor over small dense vectors, e.g. (ΔT, phrase-id).
#[derive(Debug, Clone)]
pub struct VectorLstm {
    /// Stacked LSTM with a linear head of the same width as the input.
    pub net: StackedLstm,
    dim: usize,
}

impl VectorLstm {
    /// Fresh model for `dim`-wide samples.
    pub fn new(dim: usize, hidden: usize, layers: usize, rng: &mut Xoshiro256pp) -> Self {
        Self {
            net: StackedLstm::new(dim, hidden, layers, dim, rng),
            dim,
        }
    }

    /// Sample width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Left-pad a window to `history` samples with zero vectors; failure
    /// chains can be shorter than the history size.
    fn window_mats(&self, window: &[&[f32]], history: usize) -> Vec<Mat> {
        let pad = history.saturating_sub(window.len());
        let mut xs = Vec::with_capacity(history);
        for _ in 0..pad {
            xs.push(Mat::zeros(1, self.dim));
        }
        for w in window.iter().skip(window.len().saturating_sub(history)) {
            xs.push(Mat::from_vec(1, self.dim, w.to_vec()));
        }
        xs
    }

    /// Enumerate (sequence, target position) training windows. Unlike the
    /// token model we allow short prefixes (zero-padded) because failure
    /// chains are often shorter than history+1.
    fn window_index(seqs: &[Vec<Vec<f32>>]) -> Vec<(u32, u32)> {
        let mut idx = Vec::new();
        for (si, s) in seqs.iter().enumerate() {
            for t in 1..s.len() {
                idx.push((si as u32, t as u32));
            }
        }
        idx
    }

    /// Train on sequences of samples; returns mean loss per epoch.
    pub fn train(
        &mut self,
        seqs: &[Vec<Vec<f32>>],
        cfg: &TrainConfig,
        opt: &mut dyn Optimizer,
        rng: &mut Xoshiro256pp,
    ) -> EpochLosses {
        self.train_observed(seqs, cfg, opt, rng, &mut NoopObserver)
    }

    /// [`VectorLstm::train`] with a per-epoch [`TrainObserver`] callback.
    ///
    /// Data-parallel exactly like [`TokenLstm::train_observed`]: a fixed
    /// shard count and a deterministic gradient tree-reduction keep the
    /// weights bit-identical at any thread count.
    pub fn train_observed(
        &mut self,
        seqs: &[Vec<Vec<f32>>],
        cfg: &TrainConfig,
        opt: &mut dyn Optimizer,
        rng: &mut Xoshiro256pp,
        observer: &mut dyn TrainObserver,
    ) -> EpochLosses {
        for s in seqs {
            for v in s {
                assert_eq!(v.len(), self.dim, "sample width mismatch");
            }
        }
        let mut index = Self::window_index(seqs);
        assert!(
            !index.is_empty(),
            "no training windows: sequences too short"
        );
        let shards = shard_count();
        let mut states = TrainShard::fresh(&self.net.params(), shards);
        let mut stats_acc = observer
            .wants_param_stats()
            .then(|| ParamStatsAcc::new(&self.net.params()));
        let mut losses = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            let epoch_start = Instant::now();
            rng.shuffle(&mut index);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            TrainShard::reset_epoch(&mut states);
            for chunk in index.chunks(cfg.batch) {
                let ranges = shard_ranges(chunk.len(), shards);
                let denom_elems = chunk.len() * self.dim;
                {
                    let model = &*self;
                    states.par_chunks_mut(1).enumerate().for_each(|(si, st)| {
                        let st = &mut st[0];
                        st.loss = 0.0;
                        let r = ranges[si].clone();
                        if r.is_empty() {
                            return;
                        }
                        let t0 = Instant::now();
                        st.loss = model.shard_pass(
                            seqs,
                            &chunk[r.clone()],
                            cfg.history,
                            denom_elems,
                            &mut st.ws,
                            &mut st.grads,
                        );
                        st.windows += r.len();
                        st.busy += t0.elapsed();
                    });
                }
                let (loss, reduce_elapsed) = reduce_apply_step(
                    &mut states,
                    &mut self.net.params_mut(),
                    cfg.clip,
                    opt,
                    stats_acc.as_mut(),
                );
                epoch_loss += loss;
                batches += 1;
                observer.on_grad_reduce(reduce_elapsed);
            }
            let mean = epoch_loss / batches.max(1) as f64;
            observer.on_epoch(epoch, mean, epoch_start.elapsed());
            observer.on_shards(epoch, &TrainShard::epoch_stats(&states));
            if let Some(acc) = stats_acc.as_mut() {
                let stats = acc.finish_epoch(&self.net.params(), f64::from(opt.learning_rate()));
                observer.on_param_stats(epoch, &stats);
            }
            if observer.wants_checkpoints() {
                let model = &*self;
                observer.on_checkpoint(epoch, &mut || model.to_bytes());
            }
            losses.push(mean);
            if observer.should_stop() {
                break;
            }
        }
        losses
    }

    /// Forward + backward for one shard's slice of a minibatch (see
    /// [`TokenLstm::shard_pass`]); `denom_elems` is the full batch's
    /// rows × dim so shard losses sum to the batch MSE.
    fn shard_pass(
        &self,
        seqs: &[Vec<Vec<f32>>],
        rows: &[(u32, u32)],
        history: usize,
        denom_elems: usize,
        ws: &mut StackedScratch,
        grads: &mut GradSet,
    ) -> f64 {
        // Assemble this shard's timesteps with left zero-padding.
        let b = rows.len();
        let mut xs: Vec<Mat> = (0..history).map(|_| Mat::zeros(b, self.dim)).collect();
        let mut target = Mat::zeros(b, self.dim);
        for (r, &(si, t)) in rows.iter().enumerate() {
            let s = &seqs[si as usize];
            let t = t as usize;
            let lo = t.saturating_sub(history);
            let pad = history - (t - lo);
            for (k, sample) in s[lo..t].iter().enumerate() {
                xs[pad + k].row_mut(r).copy_from_slice(sample);
            }
            target.row_mut(r).copy_from_slice(&s[t]);
        }
        let (pred, tape) = self.net.forward_ws(&xs, ws);
        let (loss, dpred) = mse_denom(&pred, &target, denom_elems);
        self.net.backward_into(&tape, &dpred, grads.mats_mut());
        loss
    }

    /// Single-threaded reference trainer (see
    /// [`TokenLstm::train_sequential`]).
    pub fn train_sequential(
        &mut self,
        seqs: &[Vec<Vec<f32>>],
        cfg: &TrainConfig,
        opt: &mut dyn Optimizer,
        rng: &mut Xoshiro256pp,
        observer: &mut dyn TrainObserver,
    ) -> EpochLosses {
        for s in seqs {
            for v in s {
                assert_eq!(v.len(), self.dim, "sample width mismatch");
            }
        }
        let mut index = Self::window_index(seqs);
        assert!(
            !index.is_empty(),
            "no training windows: sequences too short"
        );
        let mut losses = Vec::with_capacity(cfg.epochs);
        let mut ws = StackedScratch::new();
        for epoch in 0..cfg.epochs {
            let epoch_start = Instant::now();
            rng.shuffle(&mut index);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in index.chunks(cfg.batch) {
                // Assemble batched timesteps with left zero-padding.
                let b = chunk.len();
                let mut xs: Vec<Mat> = (0..cfg.history).map(|_| Mat::zeros(b, self.dim)).collect();
                let mut target = Mat::zeros(b, self.dim);
                for (r, &(si, t)) in chunk.iter().enumerate() {
                    let s = &seqs[si as usize];
                    let t = t as usize;
                    let lo = t.saturating_sub(cfg.history);
                    let pad = cfg.history - (t - lo);
                    for (k, sample) in s[lo..t].iter().enumerate() {
                        xs[pad + k].row_mut(r).copy_from_slice(sample);
                    }
                    target.row_mut(r).copy_from_slice(&s[t]);
                }
                let (pred, tape) = self.net.forward_ws(&xs, &mut ws);
                let (loss, dpred) = mse(&pred, &target);
                epoch_loss += loss;
                batches += 1;
                self.net.backward(&tape, &dpred);
                clip_global_norm(&mut self.net.params_mut(), cfg.clip);
                opt.step(&mut self.net.params_mut());
            }
            let mean = epoch_loss / batches.max(1) as f64;
            observer.on_epoch(epoch, mean, epoch_start.elapsed());
            losses.push(mean);
        }
        losses
    }

    /// Predict the next sample from a context window.
    pub fn predict_next(&self, window: &[&[f32]], history: usize) -> Vec<f32> {
        assert!(!window.is_empty());
        let xs = self.window_mats(window, history);
        self.net.infer(&xs).row(0).to_vec()
    }

    /// [`VectorLstm::predict_next`] over the window staged in `sw`, bit
    /// for bit, without recomputing its zero padding: a window of
    /// `L < history` rows starts from the state after `history − L`
    /// zero-input steps from zero state, which `sw` computes once per
    /// kernel backend. The staged rows, states and scratch are all reused,
    /// so a warm call allocates nothing.
    pub fn predict_next_ws<'s>(&self, history: usize, sw: &'s mut WindowScratch) -> &'s [f32] {
        let dim = self.dim;
        assert!(history > 0, "a window needs a history");
        assert!(
            !sw.rows.is_empty() && sw.rows.len().is_multiple_of(dim),
            "stage whole rows before predicting"
        );
        let backend = crate::simd::backend();
        if sw.backend != Some(backend) {
            sw.pads.clear();
            sw.backend = Some(backend);
        }
        if sw.states.len() != self.net.depth() {
            sw.states = self.net.zero_states(1);
        }
        if sw.x.shape() != (1, dim) {
            sw.x.reset(1, dim);
        }
        let n = sw.rows.len() / dim;
        let real = n.min(history);
        let pad = history - real;
        while sw.pads.len() < pad {
            match sw.pads.last() {
                Some(prev) => copy_states(&mut sw.states, prev),
                None => sw.states.iter_mut().for_each(LstmState::clear),
            }
            sw.x.clear();
            self.net.step_layers(&sw.x, &mut sw.states, &mut sw.ws);
            sw.pads.push(sw.states.clone());
        }
        match pad {
            0 => sw.states.iter_mut().for_each(LstmState::clear),
            k => copy_states(&mut sw.states, &sw.pads[k - 1]),
        }
        for row in sw.rows[(n - real) * dim..].chunks_exact(dim) {
            sw.x.row_mut(0).copy_from_slice(row);
            self.net.step_layers(&sw.x, &mut sw.states, &mut sw.ws);
        }
        let top = &sw.states[sw.states.len() - 1].h;
        self.net.head.infer_into(top, &mut sw.y);
        sw.y.row(0)
    }

    /// Fresh reusable workspace for the windowed scoring path.
    pub fn workspace(&self) -> ScoreWorkspace {
        ScoreWorkspace {
            states: self.net.zero_states(1),
            ws: StackedScratch::new(),
            x: Mat::zeros(1, self.dim),
            y: Mat::zeros(1, self.dim),
        }
    }

    /// Per-position one-step-ahead MSE along a sequence: element `t` scores
    /// how well positions `..=t` predicted sample `t+1`. This is the
    /// quantity the paper thresholds at 0.5 in phase 3. All transients
    /// live in the caller-held workspace; the only per-call allocation is
    /// the returned score vector.
    pub fn score_sequence_ws(
        &self,
        seq: &[Vec<f32>],
        history: usize,
        sw: &mut ScoreWorkspace,
    ) -> Vec<f64> {
        let mut scores = Vec::with_capacity(seq.len().saturating_sub(1));
        for t in 1..seq.len() {
            let lo = t.saturating_sub(history);
            let window = &seq[lo..t];
            // Re-run the window from zero state, left zero-padded to
            // `history` steps exactly like the batched training windows.
            for st in &mut sw.states {
                st.clear();
            }
            sw.x.clear();
            for _ in window.len()..history {
                self.net.step_layers(&sw.x, &mut sw.states, &mut sw.ws);
            }
            for sample in window {
                sw.x.row_mut(0).copy_from_slice(sample);
                self.net.step_layers(&sw.x, &mut sw.states, &mut sw.ws);
            }
            let top = &sw.states[sw.states.len() - 1].h;
            self.net.head.infer_into(top, &mut sw.y);
            scores.push(mse_vec(sw.y.row(0), &seq[t]));
        }
        scores
    }

    /// [`VectorLstm::score_sequence_ws`] with a throwaway workspace.
    pub fn score_sequence(&self, seq: &[Vec<f32>], history: usize) -> Vec<f64> {
        let mut sw = self.workspace();
        self.score_sequence_ws(seq, history, &mut sw)
    }

    /// Begin a carried-state streaming pass (DeepLog-style): the recurrent
    /// state persists across pushes, so each new sample costs exactly one
    /// cell step per layer instead of a windowed re-run.
    pub fn begin_stream(&self) -> VectorStream {
        VectorStream {
            states: self.net.zero_states(1),
            ws: StackedScratch::new(),
            x: Mat::zeros(1, self.dim),
            pred: vec![0.0; self.dim],
            steps: 0,
        }
    }

    /// Feed the next sample of a stream. Returns the one-step-ahead MSE of
    /// the previous prediction against this sample (`None` on the first
    /// push, which has no prediction to judge). Allocation-free once the
    /// stream's buffers are warm.
    pub fn stream_push(&self, st: &mut VectorStream, sample: &[f32]) -> Option<f64> {
        assert_eq!(sample.len(), self.dim, "sample width mismatch");
        let score = (st.steps > 0).then(|| mse_vec(&st.pred, sample));
        st.x.row_mut(0).copy_from_slice(sample);
        let y = self.net.step_infer_ws(&st.x, &mut st.states, &mut st.ws);
        st.pred.copy_from_slice(y.row(0));
        st.steps += 1;
        score
    }

    /// Begin a slot-resident batched streaming pass: `slots` independent
    /// carried-state streams living as rows of shared state matrices. A
    /// fleet shard parks one node per slot and steps only the rows with a
    /// live event each wave via [`VectorLstm::stream_push_rows`] — no
    /// per-event gather/scatter of recurrent state. Drive the batch with
    /// this model only: its first-step table holds this model's steps.
    pub fn begin_stream_batch(&self, slots: usize) -> VectorStreamBatch {
        let width = 2 * self.net.depth() * self.net.hidden_dim() + self.dim;
        VectorStreamBatch {
            states: self.net.zero_states(slots),
            ws: StackedScratch::new(),
            x: Mat::zeros(slots, self.dim),
            preds: Mat::zeros(slots, self.dim),
            steps: vec![0; slots],
            stepped: Vec::new(),
            fills: Vec::new(),
            first: FirstSteps {
                entries: vec![0.0; self.dim * width],
                width,
                filled: vec![false; self.dim],
                backend: None,
            },
        }
    }

    /// Feed one staged sample per listed slot, batched. Callers stage each
    /// slot's sample into [`VectorStreamBatch::input_row_mut`] first;
    /// `scores` is cleared and refilled with one entry per entry of
    /// `rows`, in order — the same one-step-ahead MSE a sequential
    /// [`VectorLstm::stream_push`] of that slot's stream would return
    /// (`None` on a slot's first push). Every slot's scores, predictions,
    /// and recurrent state are bit-identical to the sequential path; see
    /// the `stream_push_rows_bit_identical_to_streams` test.
    ///
    /// A slot's first sample after a reset that is a standard basis
    /// vector (a one-hot phrase at ΔT +0.0) is served from the batch's
    /// first-step table instead of the GEMV once that vector has been
    /// stepped under the current kernel backend: from zero state the
    /// cell step depends on nothing else. Returns how many rows the
    /// table served.
    pub fn stream_push_rows(
        &self,
        sb: &mut VectorStreamBatch,
        rows: &[usize],
        scores: &mut Vec<Option<f64>>,
    ) -> usize {
        let backend = crate::simd::backend();
        if sb.first.backend != Some(backend) {
            sb.first.filled.fill(false);
            sb.first.backend = Some(backend);
        }
        scores.clear();
        sb.stepped.clear();
        sb.fills.clear();
        let mut cached = 0;
        for &r in rows {
            scores.push((sb.steps[r] > 0).then(|| mse_vec(sb.preds.row(r), sb.x.row(r))));
            sb.steps[r] += 1;
            let first = if sb.steps[r] == 1 {
                basis_index(sb.x.row(r))
            } else {
                None
            };
            match first {
                Some(j) if sb.first.filled[j] => {
                    let mut entry = sb.first.entry(j);
                    for st in &mut sb.states {
                        let hsz = st.h.cols();
                        st.h.row_mut(r).copy_from_slice(&entry[..hsz]);
                        st.c.row_mut(r).copy_from_slice(&entry[hsz..2 * hsz]);
                        entry = &entry[2 * hsz..];
                    }
                    sb.preds.row_mut(r).copy_from_slice(entry);
                    cached += 1;
                }
                _ => {
                    if let Some(j) = first {
                        sb.fills.push((r, j));
                    }
                    sb.stepped.push(r);
                }
            }
        }
        if sb.stepped.is_empty() {
            return cached;
        }
        let y = self
            .net
            .step_infer_rows_ws(&sb.x, &sb.stepped, &mut sb.states, &mut sb.ws);
        for &r in &sb.stepped {
            sb.preds.row_mut(r).copy_from_slice(y.row(r));
        }
        // Fill table entries from this wave's own output, so an entry is
        // by construction what the kernels produce.
        for &(r, j) in &sb.fills {
            if sb.first.filled[j] {
                continue;
            }
            let width = sb.first.width;
            let entry = &mut sb.first.entries[j * width..(j + 1) * width];
            let mut at = 0;
            for st in &sb.states {
                let hsz = st.h.cols();
                entry[at..at + hsz].copy_from_slice(st.h.row(r));
                entry[at + hsz..at + 2 * hsz].copy_from_slice(st.c.row(r));
                at += 2 * hsz;
            }
            entry[at..].copy_from_slice(y.row(r));
            sb.first.filled[j] = true;
        }
        cached
    }

    /// Batch reference for the streaming scorer: for every position `t`,
    /// re-run the net from zero state over the full prefix `..=t` and
    /// score its prediction of sample `t+1`. O(n²) — exists so tests can
    /// prove [`VectorLstm::stream_push`] matches a from-scratch recompute.
    pub fn score_stream_batch(&self, seq: &[Vec<f32>]) -> Vec<f64> {
        let mut scores = Vec::with_capacity(seq.len().saturating_sub(1));
        for t in 1..seq.len() {
            let xs: Vec<Mat> = seq[..t]
                .iter()
                .map(|v| Mat::from_vec(1, self.dim, v.clone()))
                .collect();
            let pred = self.net.infer(&xs);
            scores.push(mse_vec(pred.row(0), &seq[t]));
        }
        scores
    }
}

/// Reusable buffers for [`VectorLstm::score_sequence_ws`]: per-layer
/// recurrent states, the gate scratch, and staging mats for the input
/// sample and head output.
#[derive(Debug, Clone)]
pub struct ScoreWorkspace {
    states: Vec<LstmState>,
    ws: StackedScratch,
    x: Mat,
    y: Mat,
}

/// Reusable buffers for [`VectorLstm::predict_next_ws`]: the staged
/// window rows, the state and gate scratch the window runs in, and the
/// states after `k` zero-input steps from zero state — the left padding
/// of every window shorter than the history — kept per kernel backend.
/// Bound to the model it is first used with.
#[derive(Debug, Clone, Default)]
pub struct WindowScratch {
    rows: Vec<f32>,
    x: Mat,
    states: Vec<LstmState>,
    ws: StackedScratch,
    y: Mat,
    /// `pads[k]`: the per-layer states after `k + 1` zero-input steps.
    pads: Vec<Vec<LstmState>>,
    backend: Option<crate::simd::Backend>,
}

impl WindowScratch {
    /// Empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the staged rows, keeping every buffer.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Append a zeroed `dim`-wide row to the window, oldest first, and
    /// return it for encoding.
    pub fn push_row(&mut self, dim: usize) -> &mut [f32] {
        let at = self.rows.len();
        self.rows.resize(at + dim, 0.0);
        &mut self.rows[at..]
    }

    /// The staged rows, row-major.
    pub fn rows(&self) -> &[f32] {
        &self.rows
    }
}

/// Copy per-layer states in place (same shapes), without allocating.
fn copy_states(dst: &mut [LstmState], src: &[LstmState]) {
    for (d, s) in dst.iter_mut().zip(src) {
        d.h.data_mut().copy_from_slice(s.h.data());
        d.c.data_mut().copy_from_slice(s.c.data());
    }
}

/// Carried state for a [`VectorLstm`] streaming pass: recurrent states,
/// gate scratch, input staging, and the pending next-sample prediction.
#[derive(Debug, Clone)]
pub struct VectorStream {
    states: Vec<LstmState>,
    ws: StackedScratch,
    x: Mat,
    pred: Vec<f32>,
    steps: usize,
}

impl VectorStream {
    /// Number of samples pushed so far.
    pub fn len(&self) -> usize {
        self.steps
    }

    /// True when no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }

    /// The model's current prediction of the *next* sample (zeros before
    /// the first push).
    pub fn prediction(&self) -> &[f32] {
        &self.pred
    }
}

/// Slot-resident carried state for a batched [`VectorLstm`] streaming
/// pass: row `s` of every matrix belongs to stream slot `s`. Fixed
/// capacity; callers recycle slots with [`VectorStreamBatch::reset_slot`].
#[derive(Debug, Clone)]
pub struct VectorStreamBatch {
    states: Vec<LstmState>,
    ws: StackedScratch,
    x: Mat,
    preds: Mat,
    steps: Vec<usize>,
    /// Per-wave scratch: the rows that go through the GEMV, and the
    /// first-step table entries they fill as `(row, basis index)`.
    stepped: Vec<usize>,
    fills: Vec<(usize, usize)>,
    first: FirstSteps,
}

/// The first cell step of a fresh stream, by input: from zero state a
/// standard basis vector `e_j` always yields the same per-layer `(h, c)`
/// rows and head output under one kernel backend, so one entry per `j`
/// serves every fresh slot. Bound to the model that began the batch.
#[derive(Debug, Clone)]
struct FirstSteps {
    /// `dim` entries of `width` floats: each layer's `h` row then its
    /// `c` row, bottom layer first, then the head output.
    entries: Vec<f32>,
    width: usize,
    filled: Vec<bool>,
    /// Backend the filled entries were computed under; a switch clears
    /// the table.
    backend: Option<crate::simd::Backend>,
}

impl FirstSteps {
    fn entry(&self, j: usize) -> &[f32] {
        &self.entries[j * self.width..(j + 1) * self.width]
    }
}

/// `Some(j)` when `x` is exactly the standard basis vector `e_j`: one
/// element 1.0 and every other element +0.0, compared as bits.
fn basis_index(x: &[f32]) -> Option<usize> {
    let mut hot = None;
    for (j, v) in x.iter().enumerate() {
        match v.to_bits() {
            0 => {}
            b if b == 1.0f32.to_bits() && hot.is_none() => hot = Some(j),
            _ => return None,
        }
    }
    hot
}

impl VectorStreamBatch {
    /// Slot capacity.
    pub fn slots(&self) -> usize {
        self.steps.len()
    }

    /// Stage buffer for `slot`'s next sample; overwrite the whole row
    /// before listing the slot in a [`VectorLstm::stream_push_rows`] wave.
    pub fn input_row_mut(&mut self, slot: usize) -> &mut [f32] {
        self.x.row_mut(slot)
    }

    /// Samples pushed through `slot` so far.
    pub fn len(&self, slot: usize) -> usize {
        self.steps[slot]
    }

    /// True when `slot` has seen no samples since its last reset.
    pub fn is_empty(&self, slot: usize) -> bool {
        self.steps[slot] == 0
    }

    /// The model's current prediction of `slot`'s next sample (zeros
    /// before the slot's first push).
    pub fn prediction(&self, slot: usize) -> &[f32] {
        self.preds.row(slot)
    }

    /// Return `slot` to the fresh-stream state (recurrent rows zeroed,
    /// step count cleared) so a new node can take it over. Bit-identical
    /// to handing the node a fresh [`VectorLstm::begin_stream`].
    pub fn reset_slot(&mut self, slot: usize) {
        for st in &mut self.states {
            st.h.row_mut(slot).fill(0.0);
            st.c.row_mut(slot).fill(0.0);
        }
        self.preds.row_mut(slot).fill(0.0);
        self.steps[slot] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{RmsProp, Sgd};

    /// A deterministic cyclic token dataset the model must learn quickly.
    fn cyclic_seqs(vocab: u32, len: usize, n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|off| (0..len).map(|i| ((i + off) as u32) % vocab).collect())
            .collect()
    }

    #[test]
    fn token_lstm_learns_cyclic_sequence() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let seqs = cyclic_seqs(6, 40, 4);
        let mut m = TokenLstm::new(6, 8, 16, 2, &mut rng);
        let cfg = TrainConfig {
            history: 4,
            batch: 16,
            epochs: 30,
            clip: 5.0,
        };
        let mut opt = Sgd::with_momentum(0.3, 0.9);
        let losses = m.train(&seqs, &cfg, &mut opt, &mut rng);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss did not drop: {losses:?}"
        );
        let acc = m.accuracy_kstep(&seqs, 4, 1);
        assert!(acc > 0.9, "1-step accuracy {acc}");
    }

    #[test]
    fn token_lstm_kstep_feedback() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let seqs = cyclic_seqs(5, 50, 3);
        let mut m = TokenLstm::new(5, 8, 32, 2, &mut rng);
        let cfg = TrainConfig {
            history: 4,
            batch: 16,
            epochs: 80,
            clip: 5.0,
        };
        let mut opt = Sgd::with_momentum(0.3, 0.9);
        m.train(&seqs, &cfg, &mut opt, &mut rng);
        // After 0,1,2,3 the 3-step continuation must be 4,0,1.
        let pred = m.predict_kstep(&[0, 1, 2, 3], 3);
        assert_eq!(pred, vec![4, 0, 1]);
    }

    #[test]
    fn predict_probs_is_distribution() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let m = TokenLstm::new(7, 4, 8, 1, &mut rng);
        let p = m.predict_probs(&[1, 2, 3]);
        assert_eq!(p.len(), 7);
        let s: f32 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn train_observed_reports_every_epoch() {
        use crate::observe::RecordingObserver;
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let seqs = cyclic_seqs(5, 20, 2);
        let mut m = TokenLstm::new(5, 4, 8, 1, &mut rng);
        let cfg = TrainConfig {
            history: 4,
            batch: 8,
            epochs: 3,
            clip: 5.0,
        };
        let mut opt = Sgd::new(0.1);
        let mut obs = RecordingObserver::default();
        let losses = m.train_observed(&seqs, &cfg, &mut opt, &mut rng, &mut obs);
        assert_eq!(obs.epochs.len(), 3);
        let observed: Vec<f64> = obs.epochs.iter().map(|(l, _)| *l).collect();
        assert_eq!(observed, losses);
    }

    #[test]
    fn closure_observer_sees_vector_epochs() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let seqs = countdown_seqs(2, 8);
        let mut m = VectorLstm::new(2, 4, 1, &mut rng);
        let cfg = TrainConfig {
            history: 5,
            batch: 8,
            epochs: 2,
            clip: 5.0,
        };
        let mut opt = RmsProp::new(0.01);
        let mut seen = Vec::new();
        let mut hook = |epoch: usize, loss: f64, _d: std::time::Duration| {
            seen.push((epoch, loss));
        };
        m.train_observed(&seqs, &cfg, &mut opt, &mut rng, &mut hook);
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[1].0, 1);
    }

    /// Observer exercising the opt-in hooks: records per-layer stats,
    /// keeps the latest checkpoint bytes, and can stop after N epochs.
    struct StatsProbe {
        epochs: Vec<f64>,
        stats: Vec<Vec<crate::observe::ParamStats>>,
        checkpoint: Option<bytes::Bytes>,
        stop_after: Option<usize>,
    }

    impl StatsProbe {
        fn new(stop_after: Option<usize>) -> Self {
            Self {
                epochs: Vec::new(),
                stats: Vec::new(),
                checkpoint: None,
                stop_after,
            }
        }
    }

    impl TrainObserver for StatsProbe {
        fn on_epoch(&mut self, _epoch: usize, mean_loss: f64, _elapsed: Duration) {
            self.epochs.push(mean_loss);
        }
        fn wants_param_stats(&self) -> bool {
            true
        }
        fn on_param_stats(&mut self, _epoch: usize, stats: &[crate::observe::ParamStats]) {
            self.stats.push(stats.to_vec());
        }
        fn wants_checkpoints(&self) -> bool {
            true
        }
        fn on_checkpoint(&mut self, _epoch: usize, serialize: &mut dyn FnMut() -> bytes::Bytes) {
            self.checkpoint = Some(serialize());
        }
        fn should_stop(&self) -> bool {
            self.stop_after.is_some_and(|n| self.epochs.len() >= n)
        }
    }

    #[test]
    fn param_stats_cover_every_layer_and_match_training() {
        // The stats hook must fire once per epoch with one entry per
        // parameter (embedding + per-layer wx/wh/b + head w/b), all
        // finite and named, without perturbing the weights: a run with
        // stats enabled must end bit-identical to a plain run.
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let seqs = cyclic_seqs(6, 30, 3);
        let cfg = TrainConfig {
            history: 4,
            batch: 16,
            epochs: 3,
            clip: 5.0,
        };
        let mut plain = TokenLstm::new(6, 8, 12, 2, &mut rng);
        let mut observed = plain.clone();
        let mut rng_a = Xoshiro256pp::seed_from_u64(99);
        let mut rng_b = Xoshiro256pp::seed_from_u64(99);
        let mut opt_a = Sgd::with_momentum(0.2, 0.9);
        let mut opt_b = Sgd::with_momentum(0.2, 0.9);
        plain.train(&seqs, &cfg, &mut opt_a, &mut rng_a);
        let mut probe = StatsProbe::new(None);
        observed.train_observed(&seqs, &cfg, &mut opt_b, &mut rng_b, &mut probe);

        assert_eq!(probe.stats.len(), 3, "one stats batch per epoch");
        let n_params = observed.params().len();
        for epoch_stats in &probe.stats {
            assert_eq!(epoch_stats.len(), n_params);
            for s in epoch_stats {
                assert!(!s.name.is_empty());
                assert!(
                    s.weight_norm.is_finite() && s.weight_norm > 0.0,
                    "{}",
                    s.name
                );
                assert!(s.grad_norm_mean.is_finite());
                assert!(s.grad_norm_max >= s.grad_norm_mean || s.grad_norm_max == 0.0);
                assert!(s.update_ratio.is_finite());
                assert_eq!(s.nonfinite, 0);
            }
        }
        assert!(probe.checkpoint.is_some());
        for (a, b) in plain.params().iter().zip(observed.params().iter()) {
            assert_eq!(
                a.w.data(),
                b.w.data(),
                "stats pass changed weights: {}",
                a.name
            );
        }
        // The checkpoint bytes reload to the trained weights.
        let restored = TokenLstm::from_bytes(probe.checkpoint.unwrap()).unwrap();
        assert_eq!(
            restored.predict_probs(&[0, 1, 2, 3]),
            observed.predict_probs(&[0, 1, 2, 3])
        );
    }

    #[test]
    fn should_stop_halts_vector_training_early() {
        let mut rng = Xoshiro256pp::seed_from_u64(22);
        let seqs = countdown_seqs(4, 10);
        let mut m = VectorLstm::new(2, 8, 1, &mut rng);
        let cfg = TrainConfig {
            history: 5,
            batch: 8,
            epochs: 10,
            clip: 5.0,
        };
        let mut opt = RmsProp::new(0.01);
        let mut probe = StatsProbe::new(Some(2));
        let losses = m.train_observed(&seqs, &cfg, &mut opt, &mut rng, &mut probe);
        assert_eq!(losses.len(), 2, "stopped after 2 of 10 epochs");
        assert_eq!(probe.stats.len(), 2);
    }

    #[test]
    #[should_panic]
    fn token_train_rejects_too_short_sequences() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut m = TokenLstm::new(4, 4, 4, 1, &mut rng);
        let cfg = TrainConfig {
            history: 8,
            batch: 4,
            epochs: 1,
            clip: 5.0,
        };
        let mut opt = Sgd::new(0.1);
        m.train(&[vec![0, 1, 2]], &cfg, &mut opt, &mut rng);
    }

    /// Synthetic chain: ΔT counts down linearly while the "phrase" channel
    /// ramps; the model must regress the next sample.
    fn countdown_seqs(n: usize, len: usize) -> Vec<Vec<Vec<f32>>> {
        (0..n)
            .map(|j| {
                (0..len)
                    .map(|i| {
                        let t = (len - 1 - i) as f32 / len as f32;
                        let p = (i as f32 + j as f32 * 0.1) / len as f32;
                        vec![t, p]
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn vector_lstm_learns_countdown() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let seqs = countdown_seqs(8, 10);
        let mut m = VectorLstm::new(2, 16, 2, &mut rng);
        let cfg = TrainConfig {
            history: 5,
            batch: 16,
            epochs: 60,
            clip: 5.0,
        };
        let mut opt = RmsProp::new(0.005);
        let losses = m.train(&seqs, &cfg, &mut opt, &mut rng);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.3),
            "loss did not drop: first {} last {}",
            losses[0],
            losses.last().unwrap()
        );
        // Scores along a training-like sequence should be small.
        let scores = m.score_sequence(&seqs[0], 5);
        let avg: f64 = scores.iter().sum::<f64>() / scores.len() as f64;
        assert!(avg < 0.05, "avg score {avg}");
    }

    #[test]
    fn vector_lstm_flags_dissimilar_sequences() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let seqs = countdown_seqs(8, 10);
        let mut m = VectorLstm::new(2, 16, 2, &mut rng);
        let cfg = TrainConfig {
            history: 5,
            batch: 16,
            epochs: 60,
            clip: 5.0,
        };
        let mut opt = RmsProp::new(0.005);
        m.train(&seqs, &cfg, &mut opt, &mut rng);
        // A wildly different sequence must score worse than a familiar one.
        let alien: Vec<Vec<f32>> = (0..10).map(|i| vec![5.0, -3.0 + i as f32]).collect();
        let familiar_avg: f64 = {
            let s = m.score_sequence(&seqs[0], 5);
            s.iter().sum::<f64>() / s.len() as f64
        };
        let alien_avg: f64 = {
            let s = m.score_sequence(&alien, 5);
            s.iter().sum::<f64>() / s.len() as f64
        };
        assert!(
            alien_avg > familiar_avg * 10.0,
            "familiar {familiar_avg} vs alien {alien_avg}"
        );
    }

    #[test]
    fn vector_lstm_short_window_padding() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let m = VectorLstm::new(2, 8, 1, &mut rng);
        let w: Vec<&[f32]> = vec![&[0.5, 0.5]];
        let out = m.predict_next(&w, 5);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|x| x.is_finite()));
    }

    #[test]
    #[should_panic]
    fn vector_train_rejects_bad_width() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut m = VectorLstm::new(2, 4, 1, &mut rng);
        let cfg = TrainConfig::default();
        let mut opt = RmsProp::new(0.01);
        m.train(&[vec![vec![1.0, 2.0, 3.0]]], &cfg, &mut opt, &mut rng);
    }

    #[test]
    fn score_sequence_matches_predict_next_loop() {
        // The workspace scorer must reproduce the naive windowed path:
        // per position, predict from the `history` preceding samples and
        // take the MSE against the observation.
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let m = VectorLstm::new(2, 8, 2, &mut rng);
        let seq = &countdown_seqs(1, 12)[0];
        let history = 5;
        let fast = m.score_sequence(seq, history);
        assert_eq!(fast.len(), seq.len() - 1);
        for t in 1..seq.len() {
            let lo = t.saturating_sub(history);
            let window: Vec<&[f32]> = seq[lo..t].iter().map(|v| v.as_slice()).collect();
            let pred = m.predict_next(&window, history);
            let want = mse_vec(&pred, &seq[t]);
            assert_eq!(fast[t - 1], want, "position {t}");
        }
    }

    #[test]
    fn stream_push_matches_batch_replay() {
        // Carried-state streaming must agree with re-running the net from
        // zero state over every prefix.
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let m = VectorLstm::new(2, 8, 2, &mut rng);
        let seq = &countdown_seqs(1, 14)[0];
        let batch = m.score_stream_batch(seq);
        let mut st = m.begin_stream();
        assert!(st.is_empty());
        let mut streamed = Vec::new();
        for sample in seq {
            if let Some(s) = m.stream_push(&mut st, sample) {
                streamed.push(s);
            }
        }
        assert_eq!(st.len(), seq.len());
        assert_eq!(streamed, batch);
        assert!(st.prediction().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn stream_push_rows_bit_identical_to_streams() {
        // A slot-resident batch stepped in waves must reproduce each
        // slot's sequential stream bitwise: scores, predictions, and a
        // mid-flight reset.
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let m = VectorLstm::new(3, 8, 2, &mut rng);
        let slots = 4usize;
        let seqs: Vec<Vec<Vec<f32>>> = (0..slots)
            .map(|s| {
                (0..6 + s)
                    .map(|_| (0..3).map(|_| rng.f32() - 0.5).collect())
                    .collect()
            })
            .collect();

        let mut sb = m.begin_stream_batch(slots);
        let mut wave_scores = Vec::new();
        let mut batched: Vec<Vec<Option<f64>>> = vec![Vec::new(); slots];
        let max_t = seqs.iter().map(|s| s.len()).max().unwrap();
        for t in 0..max_t {
            // Slot 2 is recycled after its 3rd event, as if its node was
            // evicted and a fresh one took the slot over.
            if t == 3 {
                sb.reset_slot(2);
            }
            let rows: Vec<usize> = (0..slots).filter(|&s| t < seqs[s].len()).collect();
            for &s in &rows {
                sb.input_row_mut(s).copy_from_slice(&seqs[s][t]);
            }
            m.stream_push_rows(&mut sb, &rows, &mut wave_scores);
            for (&s, sc) in rows.iter().zip(&wave_scores) {
                batched[s].push(*sc);
            }
        }

        for s in 0..slots {
            let mut st = m.begin_stream();
            let mut want = Vec::new();
            for (t, sample) in seqs[s].iter().enumerate() {
                if s == 2 && t == 3 {
                    st = m.begin_stream();
                }
                want.push(m.stream_push(&mut st, sample));
            }
            assert_eq!(batched[s], want, "slot {s} scores diverged");
            let pb: Vec<u32> = sb.prediction(s).iter().map(|x| x.to_bits()).collect();
            let ps: Vec<u32> = st.prediction().iter().map(|x| x.to_bits()).collect();
            assert_eq!(pb, ps, "slot {s} prediction diverged");
            assert_eq!(sb.len(s), st.len());
        }

        // First samples `[+0.0, one-hot]`, as a detector stages them,
        // against lockstep sequential streams, state rows included.
        let vocab = 4usize;
        let m = VectorLstm::new(vocab + 1, 8, 2, &mut rng);
        let first = |phrase: usize| {
            let mut v = vec![0.0f32; vocab + 1];
            v[1 + phrase.min(vocab - 1)] = 1.0;
            v
        };
        let mut later = || -> Vec<f32> { (0..=vocab).map(|_| rng.f32() - 0.5).collect() };
        let mut negative_zero = first(1);
        negative_zero[0] = -0.0;
        // (slots reset before the wave, (slot, sample) rows, rows the
        // table must serve).
        type Wave = (Vec<usize>, Vec<(usize, Vec<f32>)>, usize);
        let waves: Vec<Wave> = vec![
            // First-time misses, two of them on one index in one wave.
            (vec![], vec![(0, first(1)), (1, first(1)), (2, first(2))], 0),
            // A hit; phrase 9 clamps onto the unused index 3 (a miss).
            (
                vec![],
                vec![(0, later()), (3, first(1)), (4, first(9)), (1, later())],
                1,
            ),
            // The clamped index hits, and so does a reset slot.
            (
                vec![0],
                vec![(5, first(3)), (4, later()), (0, first(2)), (2, later())],
                2,
            ),
            // -0.0 is not the basis vector: stepped, not served.
            (
                vec![1],
                vec![(1, negative_zero), (3, later()), (5, later())],
                0,
            ),
            ((0..6).collect(), (0..6).map(|s| (s, first(s))).collect(), 5),
        ];
        let mut sb = m.begin_stream_batch(6);
        let mut seq: Vec<VectorStream> = (0..6).map(|_| m.begin_stream()).collect();
        for (w, (resets, wave, want_cached)) in waves.into_iter().enumerate() {
            for &s in &resets {
                sb.reset_slot(s);
                seq[s] = m.begin_stream();
            }
            let rows: Vec<usize> = wave.iter().map(|&(s, _)| s).collect();
            for (s, x) in &wave {
                sb.input_row_mut(*s).copy_from_slice(x);
            }
            let cached = m.stream_push_rows(&mut sb, &rows, &mut wave_scores);
            assert_eq!(cached, want_cached, "wave {w} table hits");
            for ((s, x), got) in wave.iter().zip(&wave_scores) {
                let want = m.stream_push(&mut seq[*s], x);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "wave {w} slot {s}"
                );
            }
            for (s, st) in seq.iter().enumerate() {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(sb.prediction(s)),
                    bits(st.prediction()),
                    "wave {w} slot {s}"
                );
                for (l, (b, q)) in sb.states.iter().zip(&st.states).enumerate() {
                    assert_eq!(bits(b.h.row(s)), bits(q.h.row(0)), "wave {w} slot {s} h{l}");
                    assert_eq!(bits(b.c.row(s)), bits(q.c.row(0)), "wave {w} slot {s} c{l}");
                }
                assert_eq!(sb.len(s), st.len());
            }
        }
    }

    #[test]
    fn predict_next_ws_matches_predict_next() {
        // Windows shorter than, equal to and longer than the history,
        // through one reused scratch, in an order that fills the padding
        // cache out of sequence.
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let m = VectorLstm::new(4, 6, 2, &mut rng);
        let history = 5;
        let mut sw = WindowScratch::new();
        for len in [3usize, 1, 7, 5, 2, 4, 1, 6] {
            let rows: Vec<Vec<f32>> = (0..len)
                .map(|_| (0..4).map(|_| rng.f32() - 0.5).collect())
                .collect();
            let window: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
            sw.clear();
            for r in &rows {
                sw.push_row(4).copy_from_slice(r);
            }
            let want = m.predict_next(&window, history);
            let got = m.predict_next_ws(history, &mut sw);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "window of {len}");
        }
    }
}
