//! The served checkpoint: phases 1 and 2 with the paper's Table 5
//! configuration on the first 30% of M1, retrained in every run and
//! round-tripped through the `.dshm` encoding `serve` loads.

use desh::checkpoint::encode_checkpoint;
use desh_core::{config_hash, run_phase1_telemetry, run_phase2_telemetry, DeshConfig};
use desh_loggen::{generate, SystemProfile};
use desh_logparse::{parse_records_telemetry, Vocab};
use desh_obs::Telemetry;
use desh_util::Xoshiro256pp;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the training data and of the training RNG.
pub const TRAIN_SEED: u64 = 2018;

pub struct Trained {
    /// The encoded checkpoint.
    pub bytes: Vec<u8>,
    pub parse_s: f64,
    pub phase1_s: f64,
    pub phase2_s: f64,
    pub phase1_acc: f64,
}

impl Trained {
    pub fn train_s(&self) -> f64 {
        self.parse_s + self.phase1_s + self.phase2_s
    }
}

/// Train the checkpoint the way `Desh::train` does, timing each call.
pub fn train() -> Trained {
    let m1 = generate(&SystemProfile::m1(), TRAIN_SEED);
    let (head, _) = m1.split_by_time(0.3);
    let cfg = DeshConfig::default();
    let off = Telemetry::disabled();
    let mut rng = Xoshiro256pp::seed_from_u64(TRAIN_SEED);

    let t0 = Instant::now();
    let parsed = parse_records_telemetry(&head.records, Arc::new(Vocab::new()), &off);
    let t1 = Instant::now();
    let p1 = run_phase1_telemetry(&parsed, &cfg, &mut rng, &off);
    let t2 = Instant::now();
    let model = run_phase2_telemetry(&p1.chains, parsed.vocab_size(), &cfg.phase2, &mut rng, &off);
    let t3 = Instant::now();
    let bytes = encode_checkpoint(&model, &parsed.vocab, &p1.chains, "", config_hash(&cfg));
    Trained {
        bytes,
        parse_s: (t1 - t0).as_secs_f64(),
        phase1_s: (t2 - t1).as_secs_f64(),
        phase2_s: (t3 - t2).as_secs_f64(),
        phase1_acc: p1.accuracy_kstep,
    }
}
