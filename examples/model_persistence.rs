//! Deployment workflow: train offline, checkpoint the models to disk,
//! reload in a (simulated) inference service, verify identical behaviour.
//!
//! ```text
//! cargo run --release --example model_persistence
//! ```

use bytes_ext::write_read;
use desh::prelude::*;

mod bytes_ext {
    use std::io::{Read, Write};
    use std::path::Path;

    /// Write bytes to a file and read them back (stand-in for a model
    /// registry round trip).
    pub fn write_read(path: &Path, data: &[u8]) -> std::io::Result<Vec<u8>> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(data)?;
        drop(f);
        let mut buf = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }
}

fn main() -> std::io::Result<()> {
    let mut profile = SystemProfile::tiny();
    profile.failures = 24;
    profile.nodes = 16;
    let dataset = generate(&profile, 31);
    let (train, test) = dataset.split_by_time(0.3);

    println!("training...");
    let desh = Desh::new(DeshConfig::fast(), 31);
    let trained = desh.train(&train);

    // Checkpoint both models.
    let dir = std::env::temp_dir().join("desh-checkpoints");
    std::fs::create_dir_all(&dir)?;
    let token_path = dir.join("phase1_token.dshm");
    let lead_path = dir.join("phase2_lead.dshm");

    let token_bytes = trained.phase1.model.to_bytes();
    let lead_bytes = trained.lead_model.net.to_bytes();
    println!(
        "checkpointing: phase-1 model {} KiB, phase-2 model {} KiB",
        token_bytes.len() / 1024,
        lead_bytes.len() / 1024
    );
    let token_back = write_read(&token_path, &token_bytes)?;
    let lead_back = write_read(&lead_path, &lead_bytes)?;

    // Reload and verify bit-identical behaviour.
    let token2 = TokenLstm::from_bytes(token_back.into()).expect("valid checkpoint");
    let lead2 = VectorLstm::from_bytes(lead_back.into()).expect("valid checkpoint");

    let ctx = [1u32, 3, 5, 2];
    assert_eq!(
        trained.phase1.model.predict_probs(&ctx),
        token2.predict_probs(&ctx),
        "phase-1 predictions must survive the round trip"
    );
    let window: Vec<Vec<f32>> = vec![trained.lead_model.vectorize(30.0, 2)];
    let w: Vec<&[f32]> = window.iter().map(|v| v.as_slice()).collect();
    assert_eq!(
        trained.lead_model.net.predict_next(&w, 5),
        lead2.predict_next(&w, 5),
        "phase-2 predictions must survive the round trip"
    );
    println!("reloaded checkpoints produce identical predictions ✓");

    // The reloaded lead model drives phase 3 like the original.
    let mut restored = trained.lead_model.clone();
    restored.net = lead2;
    let parsed_test = parse_records_with_vocab(&test.records, trained.parsed_train.vocab.clone());
    let out = desh::core::run_phase3(&restored, &parsed_test, &test.failures, &desh.cfg);
    println!("{}", out.confusion.summary_row("restored model"));

    std::fs::remove_file(token_path).ok();
    std::fs::remove_file(lead_path).ok();
    Ok(())
}
