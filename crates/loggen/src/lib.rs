//! `desh-loggen`: a synthetic Cray-style HPC system-log generator.
//!
//! The Desh paper evaluates on 22-373 GB of proprietary production logs from
//! four Cray systems (Table 1). Those logs cannot be redistributed, so this
//! crate synthesises datasets that preserve the statistical structure Desh
//! learns from:
//!
//! * a cluster of nodes with Cray topology ids ([`nodeid`]),
//! * failure chains per Table 7 class with the paper's per-class lead-time
//!   distributions ([`scenario`]),
//! * near-miss confounders (anomalous phrases that never fail — Table 9),
//! * benign background chatter, Table 8-calibrated unknown-phrase
//!   background, and cabinet-wide maintenance shutdowns ([`generator`]),
//! * per-system workload profiles M1-M4 ([`profile`]).
//!
//! Everything is deterministic per seed, and the output is *raw text lines*
//! — the parsing substrate consumes the same unstructured representation a
//! production deployment would.

pub mod builder;
pub mod generator;
pub mod io;
pub mod nodeid;
pub mod phrases;
pub mod profile;
pub mod record;
pub mod scenario;

pub use builder::{synthesize, CustomScenario, ScenarioBuilder};
pub use generator::{generate, Dataset, GroundTruthFailure};
pub use nodeid::{Cluster, NodeId};
pub use phrases::{Label, Phrase};
pub use profile::SystemProfile;
pub use record::{DayClock, LogRecord};
pub use scenario::FailureClass;
