//! # Desh — deep learning for system health prediction in HPC
//!
//! A full Rust reproduction of *"Desh: Deep Learning for System Health
//! Prediction of Lead Times to Failure in HPC"* (Das, Mueller, Siegel,
//! Vishnu — HPDC 2018), including every substrate the paper depends on:
//!
//! * [`nn`] — a from-scratch CPU deep-learning library (LSTM with BPTT,
//!   skip-gram embeddings, SGD/RMSprop/Adam).
//! * [`loggen`] — a synthetic Cray-style log generator standing in for the
//!   paper's proprietary production logs (see `DESIGN.md` for the
//!   substitution argument).
//! * [`logparse`] — unstructured-log mining: template extraction,
//!   vocabularies, Safe/Error/Unknown labelling.
//! * [`core`] — the paper's three-phase pipeline: failure-chain learning,
//!   lead-time training, and node-failure prediction with lead times.
//! * [`baselines`] — DeepLog-style and n-gram comparison detectors.
//!
//! ## Quickstart
//!
//! ```
//! use desh::prelude::*;
//!
//! // Generate a (small) synthetic Cray system log with injected failures.
//! let mut profile = SystemProfile::tiny();
//! profile.failures = 30;
//! profile.nodes = 24;
//! let dataset = generate(&profile, 42);
//!
//! // Train on the first 30% of the timeline, predict on the rest.
//! let desh = Desh::new(DeshConfig::fast(), 42);
//! let report = desh.run(&dataset);
//!
//! assert!(report.confusion.recall() > 0.5);
//! println!("{}", report.confusion.summary_row(&report.system));
//! ```

pub mod checkpoint;

pub use desh_baselines as baselines;
pub use desh_core as core;
pub use desh_loggen as loggen;
pub use desh_logparse as logparse;
pub use desh_nn as nn;
pub use desh_obs as obs;
pub use desh_util as util;

/// The names most programs need.
pub mod prelude {
    pub use desh_baselines::{DeepLog, DeepLogConfig, NgramConfig, NgramModel};
    pub use desh_core::{
        extract_chains, extract_episodes, sensitivity_sweep, unknown_contributions, Confusion,
        Desh, DeshConfig, DeshReport, EpisodeConfig, FailureChain, LeadTimeModel, Verdict,
    };
    pub use desh_loggen::{
        generate, Cluster, Dataset, FailureClass, GroundTruthFailure, Label, LogRecord, NodeId,
        Phrase, SystemProfile,
    };
    pub use desh_logparse::{
        extract_template, is_failure_terminal, label_template, parse_lines, parse_records,
        parse_records_with_vocab, ParsedLog,
    };
    pub use desh_nn::{Mat, Optimizer, RmsProp, Sgd, SkipGram, TokenLstm, VectorLstm};
    pub use desh_obs::{render_prometheus, render_summary, JsonlSink, Registry, Telemetry};
    pub use desh_util::{Micros, Summary, Xoshiro256pp};
}
