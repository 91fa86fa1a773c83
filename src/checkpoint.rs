//! Checkpoint encode/decode for the CLI's `.dshm` model files.
//!
//! `.dshm` layout (all little-endian, via [`desh_util::codec`]):
//!
//! * header: magic `DSHC` + format version,
//! * vocabulary snapshot (template strings, in intern order),
//! * lead-time model constants (`dt_scale`, `history`),
//! * the serialized [`VectorLstm`] network,
//! * **v2+**: the trained failure chains, so `predict` can name each
//!   warning's nearest chain without re-running phase 1,
//! * **v3+**: a provenance stamp — the training run's ledger id and the
//!   FNV-1a hash of the full pipeline config — so `desh-cli runs show`
//!   can link a checkpoint back to the run ledger that produced it (and
//!   detect config drift between the two).
//!
//! Older versions still load: v1 files simply have no chains and no
//! provenance, v2 files no provenance.
//!
//! Decoding never trusts the file: every count and length is bounded by
//! the bytes left, the network's stored tensor shapes must agree with its
//! declared dims and with the vocabulary, and a file carrying the magic
//! of the retired `.dshq` format is refused by name.

use desh_core::{ChainEvent, FailureChain, LeadTimeModel};
use desh_logparse::Vocab;
use desh_nn::VectorLstm;
use desh_util::codec::{Decoder, Encoder};
use desh_util::Micros;
use desh_loggen::NodeId;
use std::path::Path;
use std::sync::Arc;

/// Checkpoint file magic.
pub const MODEL_MAGIC: [u8; 4] = *b"DSHC";
/// Current checkpoint format version. This build reads `1..=MODEL_VERSION`.
pub const MODEL_VERSION: u32 = 3;
/// Magic of the `.dshq` files older builds wrote for their int8 scoring
/// path; [`decode_checkpoint`] refuses it with an error that says so.
const DSHQ_MAGIC: [u8; 4] = *b"DSHQ";
/// Longest history window a checkpoint may declare. Phase 2 trains with 5
/// (Table 5); a warning's lead window pads up to the history, so a corrupt
/// value must not reach it.
const MAX_HISTORY: usize = 4096;

/// Everything a `.dshm` file holds, decoded.
#[derive(Debug)]
pub struct Checkpoint {
    /// The lead-time model (losses are not persisted; empty after load).
    pub model: LeadTimeModel,
    /// Training vocabulary, in intern order.
    pub vocab: Arc<Vocab>,
    /// Trained failure chains (empty for v1 files).
    pub chains: Vec<FailureChain>,
    /// Ledger run id this model was trained under (empty for v1/v2
    /// files, or when training ran without `--run-dir`).
    pub run_id: String,
    /// FNV-1a hash of the training config (0 for v1/v2 files).
    pub config_hash: u64,
    /// Format version the file was written with.
    pub version: u32,
}

fn encode_chains(chains: &[FailureChain]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(chains.len() as u64);
    for c in chains {
        e.put_u64(c.node.to_index() as u64);
        e.put_u64(c.terminal_time.0);
        e.put_u64(c.events.len() as u64);
        for ev in &c.events {
            e.put_u64(ev.time.0);
            e.put_u32(ev.phrase);
            e.put_f64(ev.delta_t);
        }
    }
    e.finish().to_vec()
}

fn decode_chains(d: &mut Decoder) -> Result<Vec<FailureChain>, String> {
    // A chain is at least its node, terminal time and event count; an
    // event is a time, a phrase and a ΔT.
    let n = d.count(24).map_err(|e| e.to_string())?;
    let mut chains = Vec::with_capacity(n);
    for _ in 0..n {
        let index = d.u64().map_err(|e| e.to_string())?;
        if index >= NodeId::MAX_INDEX as u64 {
            return Err(format!("chain names node index {index}, past a cabinet row"));
        }
        let node = NodeId::from_index(index as usize);
        let terminal_time = Micros(d.u64().map_err(|e| e.to_string())?);
        let len = d.count(20).map_err(|e| e.to_string())?;
        let mut events = Vec::with_capacity(len);
        for _ in 0..len {
            let time = Micros(d.u64().map_err(|e| e.to_string())?);
            let phrase = d.u32().map_err(|e| e.to_string())?;
            let delta_t = d.f64().map_err(|e| e.to_string())?;
            events.push(ChainEvent { time, phrase, delta_t });
        }
        chains.push(FailureChain { node, terminal_time, events });
    }
    Ok(chains)
}

/// Serialize a trained model at the current format version. `run_id` may
/// be empty (training without a ledger); `config_hash` should be
/// [`desh_core::config_hash`] of the training config.
pub fn encode_checkpoint(
    model: &LeadTimeModel,
    vocab: &Vocab,
    chains: &[FailureChain],
    run_id: &str,
    config_hash: u64,
) -> Vec<u8> {
    let mut e = Encoder::with_header(MODEL_MAGIC, MODEL_VERSION);
    let snapshot = vocab.snapshot();
    e.put_u64(snapshot.len() as u64);
    for t in &snapshot {
        e.put_str(t);
    }
    e.put_f32(model.dt_scale);
    e.put_u64(model.history as u64);
    let net = model.net.to_bytes();
    e.put_u64(net.len() as u64);
    let mut bytes = e.finish().to_vec();
    bytes.extend_from_slice(&net);
    bytes.extend_from_slice(&encode_chains(chains));
    let mut stamp = Encoder::new();
    stamp.put_str(run_id);
    stamp.put_u64(config_hash);
    bytes.extend_from_slice(&stamp.finish());
    bytes
}

/// Decode a checkpoint from raw bytes, accepting any version this build
/// knows (`1..=MODEL_VERSION`).
pub fn decode_checkpoint(bytes: Vec<u8>) -> Result<Checkpoint, String> {
    if bytes.starts_with(&DSHQ_MAGIC) {
        return Err("int8 checkpoints (.dshq) are no longer supported; \
                    load the f32 .dshm checkpoint instead"
            .into());
    }
    if bytes.len() < 8 {
        return Err("model file truncated".into());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if !(1..=MODEL_VERSION).contains(&version) {
        return Err(format!(
            "unsupported model version {version} (this build reads 1..={MODEL_VERSION})"
        ));
    }
    let mut d = Decoder::new(bytes::Bytes::from(bytes));
    d.expect_header(MODEL_MAGIC, version)
        .map_err(|e| e.to_string())?;
    // Each template string starts with its u64 length.
    let n = d.count(8).map_err(|e| e.to_string())?;
    let vocab = Vocab::new();
    for _ in 0..n {
        vocab.intern(&d.string().map_err(|e| e.to_string())?);
    }
    if n == 0 || vocab.len() != n {
        return Err(format!("vocabulary of {n} templates holds {} distinct", vocab.len()));
    }
    let dt_scale = d.f32().map_err(|e| e.to_string())?;
    let history = d.u64().map_err(|e| e.to_string())?;
    if !(1..=MAX_HISTORY as u64).contains(&history) {
        return Err(format!("history window {history} outside 1..={MAX_HISTORY}"));
    }
    let net_bytes = d.bytes().map_err(|e| e.to_string())?;
    let net = VectorLstm::from_bytes(net_bytes).map_err(|e| e.to_string())?;
    if net.dim() != n + 1 {
        return Err(format!(
            "network scores {}-wide samples but the vocabulary has {n} templates",
            net.dim()
        ));
    }
    // v1 checkpoints predate the chain trailer; detectors loaded from them
    // run fine but cannot name a warning's matched chain.
    let chains = if version >= 2 { decode_chains(&mut d)? } else { Vec::new() };
    let (run_id, config_hash) = if version >= 3 {
        (
            d.string().map_err(|e| e.to_string())?,
            d.u64().map_err(|e| e.to_string())?,
        )
    } else {
        (String::new(), 0)
    };
    let model = LeadTimeModel {
        net,
        dt_scale,
        vocab_size: n,
        history: history as usize,
        losses: Vec::new(),
    };
    Ok(Checkpoint {
        model,
        vocab: Arc::new(vocab),
        chains,
        run_id,
        config_hash,
        version,
    })
}

/// Read and decode a `.dshm` checkpoint file.
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, String> {
    decode_checkpoint(std::fs::read(path).map_err(|e| e.to_string())?)
}

/// Resolve the checkpoint an incident capsule references. An explicit
/// `override_path` (the CLI's `--model`) wins; otherwise the path sealed
/// into the capsule meta is used. Returns the loaded checkpoint plus any
/// provenance warnings — config-hash or run-id drift between the capsule
/// and the file actually loaded — for the caller to surface. Drift does
/// not abort the load: a diff against a *different* checkpoint is a
/// legitimate triage move, it just can't be bit-exact.
pub fn resolve_capsule_checkpoint(
    meta: &desh_obs::CapsuleMeta,
    override_path: Option<&Path>,
) -> Result<(Checkpoint, Vec<String>), String> {
    let path = match override_path {
        Some(p) => p.to_path_buf(),
        None => {
            if meta.checkpoint.is_empty() {
                return Err(
                    "capsule does not record a checkpoint path; pass --model <file.dshm>"
                        .to_string(),
                );
            }
            std::path::PathBuf::from(&meta.checkpoint)
        }
    };
    let ck = load_checkpoint(&path)
        .map_err(|e| format!("failed to load checkpoint {}: {e}", path.display()))?;
    let mut drift = Vec::new();
    if meta.config_hash != 0 && ck.config_hash != 0 && meta.config_hash != ck.config_hash {
        drift.push(format!(
            "config hash drift: capsule was captured under {:#018x} but {} carries {:#018x} — \
             replay will not be bit-exact",
            meta.config_hash,
            path.display(),
            ck.config_hash
        ));
    }
    if !meta.run_id.is_empty() && !ck.run_id.is_empty() && meta.run_id != ck.run_id {
        drift.push(format!(
            "run id drift: capsule was captured from run '{}' but {} was trained in run '{}'",
            meta.run_id,
            path.display(),
            ck.run_id
        ));
    }
    Ok((ck, drift))
}

#[cfg(test)]
mod tests {
    use super::*;
    use desh_core::{run_phase2, extract_chains, EpisodeConfig};
    use desh_core::config::Phase2Config;
    use desh_loggen::{generate, SystemProfile};
    use desh_logparse::parse_records;
    use desh_util::Xoshiro256pp;

    fn trained_fixture(seed: u64) -> (LeadTimeModel, Arc<Vocab>, Vec<FailureChain>) {
        let d = generate(&SystemProfile::tiny(), seed);
        let parsed = parse_records(&d.records);
        let chains = extract_chains(&parsed, &EpisodeConfig::default());
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let cfg = Phase2Config {
            epochs: 2,
            ..Phase2Config::default()
        };
        let model = run_phase2(&chains, parsed.vocab_size(), &cfg, &mut rng);
        (model, parsed.vocab.clone(), chains)
    }

    #[test]
    fn v3_round_trips_with_provenance_stamp() {
        let (model, vocab, chains) = trained_fixture(91);
        let bytes = encode_checkpoint(&model, &vocab, &chains, "run-123-s91", 0xfeed);
        let ck = decode_checkpoint(bytes).unwrap();
        assert_eq!(ck.version, MODEL_VERSION);
        assert_eq!(ck.run_id, "run-123-s91");
        assert_eq!(ck.config_hash, 0xfeed);
        assert_eq!(ck.chains.len(), chains.len());
        assert_eq!(ck.model.dt_scale, model.dt_scale);
        assert_eq!(ck.model.history, model.history);
        assert_eq!(ck.vocab.snapshot(), vocab.snapshot());
        // The network decodes to identical behaviour.
        let seq: Vec<Vec<f32>> = (0..6).map(|i| model.vectorize(30.0 * i as f64, 0)).collect();
        assert_eq!(
            ck.model.net.score_stream_batch(&seq),
            model.net.score_stream_batch(&seq)
        );
    }

    #[test]
    fn int8_checkpoint_is_refused_by_name() {
        // A `.dshq` from an older build: magic, version, then anything.
        let dir = std::env::temp_dir().join(format!("desh_ckpt_dshq_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.dshq");
        let mut bytes = b"DSHQ".to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(err.contains("int8 checkpoints (.dshq) are no longer supported"), "{err}");
        // `capsule replay --model` resolves through the same loader.
        let meta = desh_obs::CapsuleMeta::default();
        let err = resolve_capsule_checkpoint(&meta, Some(&path)).unwrap_err();
        assert!(err.contains("no longer supported"), "{err}");
        // Any other foreign magic is still a plain decode error.
        bytes[..4].copy_from_slice(b"ABCD");
        let err = decode_checkpoint(bytes).unwrap_err();
        assert!(!err.contains("int8"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_files_still_load_without_provenance() {
        let (model, vocab, chains) = trained_fixture(92);
        // A v2 file is exactly a v3 file minus the provenance trailer,
        // with the version field rewritten.
        let mut bytes = encode_checkpoint(&model, &vocab, &chains, "x", 1);
        let mut stamp = Encoder::new();
        stamp.put_str("x");
        stamp.put_u64(1);
        let trailer = stamp.finish().len();
        bytes.truncate(bytes.len() - trailer);
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        let ck = decode_checkpoint(bytes).unwrap();
        assert_eq!(ck.version, 2);
        assert_eq!(ck.run_id, "");
        assert_eq!(ck.config_hash, 0);
        assert_eq!(ck.chains.len(), chains.len());
    }

    #[test]
    fn capsule_resolution_flags_provenance_drift() {
        let (model, vocab, chains) = trained_fixture(96);
        let dir = std::env::temp_dir().join("desh_ckpt_capsule_resolve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.dshm");
        std::fs::write(
            &path,
            encode_checkpoint(&model, &vocab, &chains, "run-a", 0x1111),
        )
        .unwrap();

        let mut meta = desh_obs::CapsuleMeta::default();
        assert!(
            resolve_capsule_checkpoint(&meta, None)
                .unwrap_err()
                .contains("--model"),
            "empty capsule path must ask for --model"
        );

        meta.checkpoint = path.display().to_string();
        meta.config_hash = 0x1111;
        meta.run_id = "run-a".into();
        let (_, drift) = resolve_capsule_checkpoint(&meta, None).unwrap();
        assert!(drift.is_empty(), "{drift:?}");

        meta.config_hash = 0x2222;
        meta.run_id = "run-b".into();
        let (_, drift) = resolve_capsule_checkpoint(&meta, None).unwrap();
        assert_eq!(drift.len(), 2, "{drift:?}");
        assert!(drift[0].contains("config hash drift"));
        assert!(drift[1].contains("run id drift"));

        // --model override wins over a bogus sealed path.
        meta.checkpoint = "/nonexistent/gone.dshm".into();
        assert!(resolve_capsule_checkpoint(&meta, Some(&path)).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_version_is_rejected() {
        let (model, vocab, chains) = trained_fixture(93);
        let mut bytes = encode_checkpoint(&model, &vocab, &chains, "", 0);
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = decode_checkpoint(bytes).unwrap_err();
        assert!(err.contains("unsupported model version 99"), "{err}");
    }
}
