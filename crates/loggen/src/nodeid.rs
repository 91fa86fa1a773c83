//! Cray-style node identifiers and cluster topology.
//!
//! The paper (§4.5): "The node id (e.g., cA-BcCsSnN) contains the exact
//! location information (cabinet: AB, chassis: C, blade: S, number: N)."
//! A Cray XC cabinet holds 3 chassis, each chassis 16 blades, each blade
//! 4 compute nodes — 192 nodes per cabinet.

use std::fmt;
use std::str::FromStr;

/// Chassis per cabinet on a Cray XC.
pub const CHASSIS_PER_CABINET: u8 = 3;
/// Blade slots per chassis.
pub const SLOTS_PER_CHASSIS: u8 = 16;
/// Nodes per blade.
pub const NODES_PER_SLOT: u8 = 4;
/// Nodes per cabinet.
pub const NODES_PER_CABINET: usize =
    CHASSIS_PER_CABINET as usize * SLOTS_PER_CHASSIS as usize * NODES_PER_SLOT as usize;

/// Physical location of one compute node: `c{X}-{Y}c{C}s{S}n{N}`.
///
/// ```
/// use desh_loggen::NodeId;
/// let id: NodeId = "c1-0c2s5n3".parse().unwrap();
/// assert_eq!(id.cab_x, 1);
/// assert_eq!(id.chassis, 2);
/// assert_eq!(id.to_string(), "c1-0c2s5n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId {
    /// Cabinet column.
    pub cab_x: u8,
    /// Cabinet row.
    pub cab_y: u8,
    /// Chassis within the cabinet (0..3).
    pub chassis: u8,
    /// Blade slot within the chassis (0..16).
    pub slot: u8,
    /// Node on the blade (0..4).
    pub node: u8,
}

impl NodeId {
    /// Construct, validating topology bounds.
    pub fn new(cab_x: u8, cab_y: u8, chassis: u8, slot: u8, node: u8) -> Self {
        assert!(chassis < CHASSIS_PER_CABINET, "chassis {chassis} out of range");
        assert!(slot < SLOTS_PER_CHASSIS, "slot {slot} out of range");
        assert!(node < NODES_PER_SLOT, "node {node} out of range");
        Self { cab_x, cab_y, chassis, slot, node }
    }

    /// Largest dense index addressable in a single cabinet row
    /// (256 cabinets of 192 nodes).
    pub const MAX_INDEX: usize = 256 * NODES_PER_CABINET;

    /// The `idx`-th node of a cluster laid out cabinet-by-cabinet in a
    /// single row of cabinets.
    pub fn from_index(idx: usize) -> Self {
        assert!(idx < Self::MAX_INDEX, "node index {idx} exceeds a cabinet row");
        let cab = idx / NODES_PER_CABINET;
        let within = idx % NODES_PER_CABINET;
        let per_chassis = SLOTS_PER_CHASSIS as usize * NODES_PER_SLOT as usize;
        let chassis = within / per_chassis;
        let within_ch = within % per_chassis;
        let slot = within_ch / NODES_PER_SLOT as usize;
        let node = within_ch % NODES_PER_SLOT as usize;
        Self::new(cab as u8, 0, chassis as u8, slot as u8, node as u8)
    }

    /// Inverse of [`Self::from_index`] for single-row clusters.
    pub fn to_index(self) -> usize {
        let per_chassis = SLOTS_PER_CHASSIS as usize * NODES_PER_SLOT as usize;
        self.cab_x as usize * NODES_PER_CABINET
            + self.chassis as usize * per_chassis
            + self.slot as usize * NODES_PER_SLOT as usize
            + self.node as usize
    }

    /// True when two nodes share a cabinet (the paper cites higher failure
    /// correlation within a cabinet than within a blade).
    pub fn same_cabinet(self, other: NodeId) -> bool {
        self.cab_x == other.cab_x && self.cab_y == other.cab_y
    }

    /// True when two nodes share a blade.
    pub fn same_blade(self, other: NodeId) -> bool {
        self.same_cabinet(other) && self.chassis == other.chassis && self.slot == other.slot
    }

    /// Parse a node id at the start of `b`, returning it and the bytes it
    /// spans; the caller checks the byte that follows. The grammar is
    /// `c X - Y c C s S n N`, each field an optional `+` and digits worth
    /// at most 255 (as `u8::from_str` reads them), with chassis, slot and
    /// node inside the topology bounds.
    pub fn parse_prefix(b: &[u8]) -> Option<(NodeId, usize)> {
        let mut fields = [0u8; 5];
        let mut i = 0;
        for (k, tag) in [b'c', b'-', b'c', b's', b'n'].into_iter().enumerate() {
            if b.get(i) != Some(&tag) {
                return None;
            }
            let (v, n) = desh_util::time::leading_u64(&b[i + 1..])?;
            fields[k] = u8::try_from(v).ok()?;
            i += 1 + n;
        }
        let [cab_x, cab_y, chassis, slot, node] = fields;
        if chassis >= CHASSIS_PER_CABINET || slot >= SLOTS_PER_CHASSIS || node >= NODES_PER_SLOT {
            return None;
        }
        Some((NodeId { cab_x, cab_y, chassis, slot, node }, i))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{}-{}c{}s{}n{}",
            self.cab_x, self.cab_y, self.chassis, self.slot, self.node
        )
    }
}

/// Error parsing a node id string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNodeIdError(pub String);

impl fmt::Display for ParseNodeIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid node id: {}", self.0)
    }
}

impl std::error::Error for ParseNodeIdError {}

impl FromStr for NodeId {
    type Err = ParseNodeIdError;

    /// Parse `c0-0c1s4n2`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match Self::parse_prefix(s.as_bytes()) {
            Some((id, n)) if n == s.len() => Ok(id),
            _ => Err(ParseNodeIdError(s.to_string())),
        }
    }
}

/// A cluster: the set of node ids participating in a generated dataset.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<NodeId>,
}

impl Cluster {
    /// Cluster of `n` nodes packed into cabinets.
    pub fn with_nodes(n: usize) -> Self {
        assert!(n > 0);
        Self { nodes: (0..n).map(NodeId::from_index).collect() }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster is empty (never for constructed clusters).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Node by dense index.
    pub fn node(&self, idx: usize) -> NodeId {
        self.nodes[idx]
    }

    /// Number of cabinets spanned.
    pub fn cabinets(&self) -> usize {
        self.nodes.len().div_ceil(NODES_PER_CABINET)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_format() {
        let id = NodeId::new(1, 0, 1, 1, 0);
        assert_eq!(id.to_string(), "c1-0c1s1n0");
        let id2 = NodeId::new(4, 0, 0, 0, 2);
        assert_eq!(id2.to_string(), "c4-0c0s0n2");
    }

    #[test]
    fn parse_round_trip() {
        for idx in [0usize, 1, 63, 191, 192, 500] {
            let id = NodeId::from_index(idx);
            let parsed: NodeId = id.to_string().parse().unwrap();
            assert_eq!(parsed, id);
            assert_eq!(id.to_index(), idx);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "c1-0", "x1-0c1s1n0", "c1-0c9s1n0", "c1-0c1s99n0", "c1-0c1s1n9", "c1-0c1s1n"] {
            assert!(bad.parse::<NodeId>().is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn index_layout_is_dense_and_unique() {
        let c = Cluster::with_nodes(400);
        assert_eq!(c.len(), 400);
        let mut seen = std::collections::HashSet::new();
        for n in c.nodes() {
            assert!(seen.insert(*n), "duplicate node id {n}");
        }
        assert_eq!(c.cabinets(), 3); // 400 nodes -> 3 cabinets of 192
    }

    #[test]
    fn spatial_predicates() {
        let a = NodeId::new(0, 0, 1, 5, 0);
        let b = NodeId::new(0, 0, 1, 5, 3);
        let c = NodeId::new(0, 0, 2, 5, 0);
        let d = NodeId::new(1, 0, 1, 5, 0);
        assert!(a.same_blade(b));
        assert!(a.same_cabinet(c));
        assert!(!a.same_blade(c));
        assert!(!a.same_cabinet(d));
    }

    #[test]
    #[should_panic]
    fn new_validates_bounds() {
        NodeId::new(0, 0, 3, 0, 0);
    }
}
