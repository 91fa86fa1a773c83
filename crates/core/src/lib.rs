//! `desh-core`: the Desh three-phase LSTM pipeline (HPDC'18).
//!
//! * [`phase1`] — unsupervised training on per-node phrase sequences
//!   (skip-gram embeddings + stacked LSTM), then failure-chain extraction.
//! * [`phase2`] — re-training on (ΔT, phrase) vectors from the chains to
//!   learn lead times (MSE + RMSprop).
//! * [`phase3`] — inference on held-out data: per-node episodes are scored
//!   against the trained chains; MSE ≤ threshold flags an impending node
//!   failure with a predicted lead time.
//! * [`pipeline`] — the end-to-end [`pipeline::Desh`] orchestrator.
//! * [`metrics`], [`leadtime`], [`classes`], [`unknown`] — the evaluation
//!   machinery behind the paper's tables and figures.

pub mod batch;
pub mod chain;
pub mod classes;
pub mod config;
pub mod crossval;
pub mod episode;
pub mod explain;
pub mod intake;
pub mod leadtime;
pub mod metrics;
pub mod observe;
pub mod online;
pub mod phase1;
pub mod phase2;
pub mod phase3;
pub mod pipeline;
pub mod replay;
pub mod report;
pub mod router;
pub mod session;
pub mod shadow;
pub mod tuning;
pub mod unknown;
pub mod watchdog;

pub use batch::BatchDetector;
pub use chain::{extract_chains, ChainEvent, FailureChain};
pub use classes::{classify_chain, classify_templates};
pub use config::{DeshConfig, EpisodeConfig, Phase1Config, Phase2Config, Phase3Config};
pub use crossval::{stability_run, StabilityReport};
pub use episode::{extract_episodes, Episode};
pub use explain::{dtw_distance, explain_episode, nearest_chain, DtwScratch, Explanation, Sample};
pub use intake::{
    Backpressure, IntakeConfig, IntakeServer, RejectReason, MAX_CONNECTIONS, MAX_LINE_BYTES,
};
pub use leadtime::{
    lead_by_class, lead_overall, observation4, recall_by_class, sensitivity_sweep, SweepPoint,
};
pub use metrics::Confusion;
pub use observe::{warning_record, EpochTelemetry};
pub use online::{EvictionPolicy, OnlineDetector, Warning};
pub use phase1::{run_phase1, run_phase1_session, run_phase1_telemetry, Phase1Output};
pub use phase2::{
    chain_to_vectors, run_phase2, run_phase2_session, run_phase2_telemetry, LeadTimeModel,
};
pub use phase3::{
    maintenance_windows, run_phase3, run_phase3_profiled, run_phase3_telemetry, Phase3Output,
    Verdict, PHASE3_PROFILE_STAGES,
};
pub use pipeline::{Desh, DeshReport, TrainedDesh};
pub use replay::{
    capsule_config, render_report, replay_capsule, trace_deltas, Divergence, FieldDelta,
    ReplayOptions, ReplayReport,
};
pub use report::{markdown_row, render};
pub use router::{node_hash, shard_of};
pub use session::{config_hash, dataset_fingerprint, LedgerObserver, RunSession};
pub use shadow::{ShadowDetector, ShadowScorer};
pub use tuning::{calibrate, Calibration, OperatingPoint};
pub use unknown::{unknown_contributions, PhraseContribution};
pub use watchdog::{check_epoch, DivergenceReason, WatchdogConfig};
