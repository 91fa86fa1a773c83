//! The sequential reference: the same log through `read_log_file` and
//! `OnlineDetector::ingest`, single-threaded, as `desh-cli predict` runs
//! it (minus printing each warning). A run makes several passes spread
//! over its rounds, each timed in slices, and reports the median slice
//! rate; every pass must fire the same warnings.

use crate::stream::Stream;
use crate::sys;
use desh::checkpoint::decode_checkpoint;
use desh_core::{DeshConfig, OnlineDetector, Warning};
use desh_loggen::io::read_log_file;
use desh_loggen::LogRecord;
use desh_obs::Telemetry;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

pub struct Replay {
    /// Records as `read_log_file` rebuilt them (absolute times).
    pub records: Vec<LogRecord>,
    pub warnings: Vec<Warning>,
}

/// Slices each pass is timed in.
const SLICES: usize = 8;

pub struct Replayer<'a> {
    path: PathBuf,
    ckpt: &'a [u8],
    /// Wall time of each pass.
    pub secs: Vec<f64>,
    /// Lines per second of each slice of each pass; a slice is charged
    /// its share of the pass's `read_log_file` time.
    pub rates: Vec<f64>,
    /// (node, time, score bits) of the first pass's warnings.
    first: Option<Vec<(usize, u64, u64)>>,
    /// Passes whose warnings differ from the first pass's.
    pub mismatched: usize,
    last: Option<Replay>,
}

impl<'a> Replayer<'a> {
    /// Write the stream as a log file at `path` for the passes to read.
    pub fn new(stream: &Stream, ckpt: &'a [u8], path: PathBuf) -> Result<Replayer<'a>, String> {
        // Synced now so its writeback does not land inside a timed window.
        let write = |path: &PathBuf| -> std::io::Result<()> {
            let mut f = std::fs::File::create(path)?;
            f.write_all(&stream.text)?;
            f.sync_all()
        };
        write(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(Replayer {
            path,
            ckpt,
            secs: Vec::new(),
            rates: Vec::new(),
            first: None,
            mismatched: 0,
            last: None,
        })
    }

    /// One timed pass: read the file back and score every record.
    pub fn pass(&mut self) -> Result<(), String> {
        self.last = None;
        let ck = decode_checkpoint(self.ckpt.to_vec())?;
        sys::trim_heap();
        let t = Instant::now();
        let (records, bad) = read_log_file(&self.path).map_err(|e| e.to_string())?;
        let read_s = t.elapsed().as_secs_f64();
        let mut det = OnlineDetector::with_telemetry(
            ck.model,
            ck.vocab,
            DeshConfig::default(),
            &Telemetry::disabled(),
        );
        det.attach_chains(&ck.chains);
        let mut warnings: Vec<Warning> = Vec::new();
        for part in records.chunks(records.len().div_ceil(SLICES).max(1)) {
            let ts = Instant::now();
            warnings.extend(part.iter().filter_map(|r| det.ingest(r)));
            let share = read_s * part.len() as f64 / records.len() as f64;
            self.rates
                .push(part.len() as f64 / (ts.elapsed().as_secs_f64() + share));
        }
        self.secs.push(t.elapsed().as_secs_f64());
        if !bad.is_empty() {
            return Err(format!("replay rejected {} lines", bad.len()));
        }
        let keys: Vec<_> = warnings
            .iter()
            .map(|w| (w.node.to_index(), w.at.0, w.score.to_bits()))
            .collect();
        match &self.first {
            None => self.first = Some(keys),
            Some(first) if *first != keys => self.mismatched += 1,
            Some(_) => {}
        }
        self.last = Some(Replay { records, warnings });
        Ok(())
    }

    /// The last pass; removes the log file.
    pub fn finish(mut self) -> Replay {
        std::fs::remove_file(&self.path).ok();
        self.last.take().expect("at least one replay pass")
    }
}
