//! Phase 1: unsupervised training on per-node phrase sequences, then
//! failure-chain formation (paper §3.1).
//!
//! Order of operations is the paper's: vectorize *before* labelling
//! ("Phrase labeling is deliberately not done before vectorization since
//! training is more robust with noise"), so the skip-gram embeddings and
//! the phase-1 LSTM see the full noisy stream; only afterwards are Safe
//! phrases eliminated and chains formed from Unknown/Error events ending
//! at known terminal messages.

use crate::chain::{extract_chains, FailureChain};
use crate::config::{DeshConfig, Phase1Config};
use crate::observe::EpochTelemetry;
use crate::session::RunSession;
use desh_logparse::ParsedLog;
use desh_nn::{Mat, NoopObserver, Optimizer, Sgd, SgnsConfig, SkipGram, TokenLstm, TrainConfig, TrainObserver};
use desh_obs::{DivergenceRecord, Telemetry};
use desh_util::Xoshiro256pp;

/// Everything phase 1 produces.
#[derive(Debug)]
pub struct Phase1Output {
    /// The trained next-phrase model (used for the cost analysis, the
    /// history/steps ablations, and by the DeepLog-style baseline).
    pub model: TokenLstm,
    /// Learned failure chains, input to phase 2.
    pub chains: Vec<FailureChain>,
    /// Per-epoch training losses.
    pub losses: Vec<f64>,
    /// k-step prediction accuracy on the training sequences (the paper
    /// reports ≈85% for 3-step prediction with 2 hidden layers).
    pub accuracy_kstep: f64,
}

/// Pre-train skip-gram embeddings over the phrase sequences.
pub fn train_embeddings(
    seqs: &[Vec<u32>],
    vocab: usize,
    cfg: &SgnsConfig,
    rng: &mut Xoshiro256pp,
) -> Mat {
    train_embeddings_observed(seqs, vocab, cfg, rng, &mut NoopObserver)
}

/// [`train_embeddings`] with a training observer attached (the run
/// ledger's per-epoch SGNS series and watchdog).
pub fn train_embeddings_observed(
    seqs: &[Vec<u32>],
    vocab: usize,
    cfg: &SgnsConfig,
    rng: &mut Xoshiro256pp,
    observer: &mut dyn TrainObserver,
) -> Mat {
    let mut sg = SkipGram::new(vocab, seqs, cfg.clone(), rng);
    sg.train_observed(seqs, rng, observer);
    sg.into_table()
}

/// Run phase 1 on a parsed training log.
pub fn run_phase1(parsed: &ParsedLog, cfg: &DeshConfig, rng: &mut Xoshiro256pp) -> Phase1Output {
    run_phase1_telemetry(parsed, cfg, rng, &Telemetry::disabled())
}

/// [`run_phase1`] reporting into a telemetry registry: the `phase1` span,
/// per-epoch loss/time via [`EpochTelemetry`], `phase1.sequences` and
/// `phase1.chains` counters, and the `phase1.accuracy_kstep` gauge.
pub fn run_phase1_telemetry(
    parsed: &ParsedLog,
    cfg: &DeshConfig,
    rng: &mut Xoshiro256pp,
    telemetry: &Telemetry,
) -> Phase1Output {
    run_phase1_session(parsed, cfg, rng, telemetry, None)
        .expect("phase 1 cannot diverge without a run session attached")
}

/// [`run_phase1_telemetry`] with an optional [`RunSession`] attached.
///
/// With a session, the SGNS pre-training and the LSTM training both feed
/// per-epoch rows (loss, wall time, per-layer gradient stats) into the
/// run's `series.jsonl` under the phases `sgns` and `phase1`, and the
/// divergence watchdog can abort either: the offending epoch is dumped,
/// the last healthy checkpoint saved, and the [`DivergenceRecord`]
/// returned as the error. Attaching a session does not perturb training
/// numerics — observers only read merged gradients.
pub fn run_phase1_session(
    parsed: &ParsedLog,
    cfg: &DeshConfig,
    rng: &mut Xoshiro256pp,
    telemetry: &Telemetry,
    mut session: Option<&mut RunSession>,
) -> Result<Phase1Output, DivergenceRecord> {
    let _span = telemetry.span("phase1");
    let p1: &Phase1Config = &cfg.phase1;
    let vocab = parsed.vocab_size().max(2);
    let seqs: Vec<Vec<u32>> = parsed
        .node_sequences()
        .into_iter()
        .map(|(_, s)| s)
        .filter(|s| s.len() > p1.history)
        .collect();
    assert!(!seqs.is_empty(), "no node sequence longer than the history size");
    telemetry.count("phase1.sequences", seqs.len() as u64);

    let mut model = if p1.use_sgns {
        let table = telemetry.time("sgns", || match session.as_deref_mut() {
            Some(s) => {
                let mut obs = s.observer("sgns", telemetry);
                let table = train_embeddings_observed(&seqs, vocab, &p1.sgns, rng, &mut obs);
                obs.finish();
                table
            }
            None => train_embeddings(&seqs, vocab, &p1.sgns, rng),
        });
        if let Some(d) = session.as_deref_mut().and_then(|s| s.diverged().cloned()) {
            return Err(d);
        }
        TokenLstm::with_embeddings(table, p1.hidden, p1.layers, rng)
    } else {
        TokenLstm::new(vocab, p1.embed_dim, p1.hidden, p1.layers, rng)
    };

    let tcfg = TrainConfig {
        history: p1.history,
        batch: p1.batch,
        epochs: p1.epochs,
        clip: 5.0,
    };
    let mut opt = Sgd::with_momentum(p1.lr, 0.9);
    let losses = match session.as_deref_mut() {
        Some(s) => {
            let mut obs = s.observer("phase1", telemetry);
            let losses = model.train_observed(
                &seqs,
                &tcfg,
                &mut opt as &mut dyn Optimizer,
                rng,
                &mut obs,
            );
            obs.finish();
            losses
        }
        None => {
            let mut observer = EpochTelemetry::new(telemetry, "phase1");
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

    // Evaluate k-step accuracy on a bounded sample of sequences to keep
    // phase 1 cheap (it is an offline training phase).
    let sample: Vec<Vec<u32>> = seqs.iter().take(16).cloned().collect();
    let accuracy_kstep = model.accuracy_kstep(&sample, p1.history, p1.steps);
    telemetry.gauge_set("phase1.accuracy_kstep", accuracy_kstep);

    let chains = extract_chains(parsed, &cfg.episodes);
    telemetry.count("phase1.chains", chains.len() as u64);
    Ok(Phase1Output { model, chains, losses, accuracy_kstep })
}

#[cfg(test)]
mod tests {
    use super::*;
    use desh_loggen::{generate, SystemProfile};
    use desh_logparse::parse_records;

    #[test]
    fn phase1_trains_and_extracts_chains() {
        let d = generate(&SystemProfile::tiny(), 71);
        let parsed = parse_records(&d.records);
        let mut rng = Xoshiro256pp::seed_from_u64(71);
        let out = run_phase1(&parsed, &DeshConfig::fast(), &mut rng);
        assert!(!out.chains.is_empty(), "no chains extracted");
        assert!(!out.losses.is_empty());
        assert!(out.losses.iter().all(|l| l.is_finite()));
        assert_eq!(out.model.vocab(), parsed.vocab_size());
    }

    #[test]
    fn phase1_loss_decreases_with_more_epochs() {
        let d = generate(&SystemProfile::tiny(), 72);
        let parsed = parse_records(&d.records);
        let mut rng = Xoshiro256pp::seed_from_u64(72);
        let mut cfg = DeshConfig::fast();
        cfg.phase1.epochs = 4;
        let out = run_phase1(&parsed, &cfg, &mut rng);
        assert!(
            out.losses.last().unwrap() < &out.losses[0],
            "phase-1 loss should drop: {:?}",
            out.losses
        );
    }

    #[test]
    fn sgns_embeddings_place_cooccurring_phrases_closer() {
        // Phrases of one failure chain co-occur; a safe phrase does not.
        let d = generate(&SystemProfile::tiny(), 73);
        let parsed = parse_records(&d.records);
        let seqs: Vec<Vec<u32>> = parsed.node_sequences().into_iter().map(|(_, s)| s).collect();
        let mut rng = Xoshiro256pp::seed_from_u64(73);
        let cfg = SgnsConfig { dim: 12, epochs: 3, ..SgnsConfig::default() };
        let table = train_embeddings(&seqs, parsed.vocab_size(), &cfg, &mut rng);
        assert_eq!(table.rows(), parsed.vocab_size());
        assert!(table.data().iter().all(|x| x.is_finite()));
    }
}
