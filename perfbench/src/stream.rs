//! Workload streams: loggen traffic rendered once into the raw lines the
//! intake sees, plus the generator-side facts the checks need (each
//! line's native timestamp and node, and the ground-truth failures).

use desh_loggen::{generate, GroundTruthFailure, NodeId, SystemProfile};
use desh_util::time::{MICROS_PER_DAY, MICROS_PER_HOUR};
use desh_util::Micros;

/// The two traffic mixes. See `perfbench/NOTES.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// M1 mix at the paper's M1 scale, sent closed-loop (capacity).
    FleetFlood,
    /// Failure storm on 2,048 nodes, sent open-loop at a fixed rate.
    StormPaced,
}

/// Open-loop rate of `storm_paced`, lines per second.
pub const STORM_RATE: f64 = 60_000.0;

/// Log time sent untimed at the start of every round.
const WARMUP: Micros = Micros(MICROS_PER_HOUR);

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet_flood" => Some(Workload::FleetFlood),
            "storm_paced" => Some(Workload::StormPaced),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetFlood => "fleet_flood",
            Workload::StormPaced => "storm_paced",
        }
    }

    /// The generator profile. Both keep M1's class mix and 48 h span.
    pub fn profile(self) -> SystemProfile {
        let m1 = SystemProfile::m1();
        match self {
            Workload::FleetFlood => {
                let factor = m1.paper_scale as f64 / m1.nodes as f64;
                m1.scaled(factor)
            }
            Workload::StormPaced => {
                let mut p = m1.scaled(16.0);
                p.failures *= 8;
                p.noise_per_node_hour = 0.5;
                p
            }
        }
    }

    /// Lines per second for an open loop; `None` sends closed-loop.
    pub fn rate(self) -> Option<f64> {
        match self {
            Workload::FleetFlood => None,
            Workload::StormPaced => Some(STORM_RATE),
        }
    }
}

/// One rendered workload.
pub struct Stream {
    /// Every line, newline-terminated, back to back.
    pub text: Vec<u8>,
    /// Byte offset of each line in `text`, plus one past the end.
    starts: Vec<usize>,
    /// The generator's native timestamp of each line (no 24 h wrap).
    pub times: Vec<Micros>,
    pub failures: Vec<GroundTruthFailure>,
    /// Cluster size of the profile.
    pub cluster: usize,
    /// Log time the stream covers.
    pub span: Micros,
    /// Lines in the untimed warm-up prefix.
    pub warmup: usize,
    /// (node index, clock of day, line) for every line, sorted, so a
    /// warning can be traced back to the line that triggered it.
    keys: Vec<(u32, u64, u32)>,
}

impl Stream {
    pub fn generate(workload: Workload, seed: u64) -> Stream {
        let profile = workload.profile();
        let data = generate(&profile, seed);
        let n = data.records.len();
        let mut text = Vec::with_capacity(n * 72);
        let mut starts = Vec::with_capacity(n + 1);
        let mut times = Vec::with_capacity(n);
        let mut keys = Vec::with_capacity(n);
        for (i, r) in data.records.iter().enumerate() {
            starts.push(text.len());
            text.extend_from_slice(r.to_raw_line().as_bytes());
            text.push(b'\n');
            times.push(r.time);
            keys.push((
                r.node.to_index() as u32,
                r.time.0 % MICROS_PER_DAY,
                i as u32,
            ));
        }
        starts.push(text.len());
        keys.sort_unstable();
        let warmup = times.partition_point(|&t| t < WARMUP);
        Stream {
            text,
            starts,
            times,
            failures: data.failures,
            cluster: profile.nodes,
            span: data.duration,
            warmup,
            keys,
        }
    }

    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Lines `a..b`, newlines included.
    pub fn bytes(&self, a: usize, b: usize) -> &[u8] {
        &self.text[self.starts[a]..self.starts[b]]
    }

    /// Line `i` without its newline.
    pub fn line(&self, i: usize) -> &str {
        let raw = &self.text[self.starts[i]..self.starts[i + 1] - 1];
        std::str::from_utf8(raw).expect("rendered lines are UTF-8")
    }

    /// The first line starting at least `bytes` after line `i` starts
    /// (clamped to `len`).
    pub fn line_after(&self, i: usize, bytes: usize) -> usize {
        let offset = self.starts[i] + bytes;
        self.starts.partition_point(|&s| s < offset).min(self.len())
    }

    /// Lines of `node` whose wrapped clock reads `clock`, in stream order.
    pub fn lines_at(&self, node: NodeId, clock: Micros) -> impl Iterator<Item = usize> + '_ {
        let key = (node.to_index() as u32, clock.0 % MICROS_PER_DAY);
        let lo = self.keys.partition_point(|k| (k.0, k.1) < key);
        self.keys[lo..]
            .iter()
            .take_while(move |k| (k.0, k.1) == key)
            .map(|k| k.2 as usize)
    }
}
