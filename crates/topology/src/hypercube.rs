//! The binary hypercube.

use crate::{hamming_distance, NodeId, PartitionHint, Port, Topology};

/// The binary n-cube: `2^n` nodes, node addresses are n-bit strings, and
/// two nodes are linked iff their addresses differ in exactly one bit.
///
/// Port `i` (for `0 <= i < n`) crosses dimension `i`, i.e.
/// `neighbor(v, i) == v ^ (1 << i)`. Every link is bidirectional and the
/// reverse port equals the forward port.
///
/// This is the network of the paper's § 3 and the only one it evaluates
/// by simulation (§ 7, hypercubes of up to 16K nodes, `n = 10..=14`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    dims: usize,
}

impl Hypercube {
    /// Largest dimension [`Hypercube::new`] accepts.
    pub const MAX_DIMS: usize = 30;

    /// Create an n-dimensional hypercube. Panics unless
    /// `1 <= n <= Hypercube::MAX_DIMS`.
    pub fn new(dims: usize) -> Self {
        assert!(
            (1..=Self::MAX_DIMS).contains(&dims),
            "hypercube dims must be 1..={}",
            Self::MAX_DIMS
        );
        Self { dims }
    }

    /// Number of dimensions n (so `num_nodes() == 1 << n`).
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bit mask covering all valid address bits.
    #[inline]
    pub fn mask(&self) -> usize {
        (1usize << self.dims) - 1
    }

    /// Dimensions in which `from` and `to` differ and `from` has a 0 bit —
    /// the mandatory phase-A (0 → 1) corrections of the paper's § 3.
    #[inline]
    pub fn zero_corrections(&self, from: NodeId, to: NodeId) -> usize {
        (from ^ to) & to
    }

    /// Dimensions in which `from` and `to` differ and `from` has a 1 bit —
    /// the phase-B (1 → 0) corrections of the paper's § 3.
    #[inline]
    pub fn one_corrections(&self, from: NodeId, to: NodeId) -> usize {
        (from ^ to) & from
    }
}

impl Topology for Hypercube {
    fn num_nodes(&self) -> usize {
        1usize << self.dims
    }

    fn max_ports(&self) -> usize {
        self.dims
    }

    fn neighbor(&self, node: NodeId, port: Port) -> Option<NodeId> {
        (port < self.dims).then(|| node ^ (1usize << port))
    }

    fn name(&self) -> String {
        format!("hypercube(n={})", self.dims)
    }

    fn distance(&self, from: NodeId, to: NodeId) -> usize {
        hamming_distance(from, to)
    }

    fn degree(&self, _node: NodeId) -> usize {
        self.dims
    }

    fn partition_hint(&self) -> PartitionHint {
        PartitionHint::Hypercube { dims: self.dims }
    }

    fn reverse_port(&self, _node: NodeId, port: Port) -> Option<Port> {
        (port < self.dims).then_some(port)
    }

    fn as_dyn(&self) -> &dyn Topology {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;

    #[test]
    fn basic_shape() {
        let h = Hypercube::new(4);
        assert_eq!(h.num_nodes(), 16);
        assert_eq!(h.max_ports(), 4);
        assert_eq!(h.degree(7), 4);
        assert_eq!(h.neighbor(0b0101, 1), Some(0b0111));
        assert_eq!(h.neighbor(0b0101, 4), None);
        assert_eq!(h.name(), "hypercube(n=4)");
    }

    #[test]
    fn closed_form_distance_matches_bfs() {
        let h = Hypercube::new(4);
        for a in 0..h.num_nodes() {
            for b in 0..h.num_nodes() {
                assert_eq!(
                    h.distance(a, b),
                    graph::bfs_distance(&h, a, b).unwrap(),
                    "distance({a},{b})"
                );
            }
        }
    }

    #[test]
    fn minimal_ports_are_differing_dimensions() {
        let h = Hypercube::new(5);
        let (a, b) = (0b00110, 0b10011);
        let ports: Vec<_> = h.minimal_ports(a, b).into_iter().map(|(p, _)| p).collect();
        // a ^ b = 0b10101 -> dimensions 0, 2, 4.
        assert_eq!(ports, vec![0, 2, 4]);
    }

    #[test]
    fn corrections_partition_differing_bits() {
        let h = Hypercube::new(6);
        for (a, b) in [(0, 63), (0b101010, 0b010101), (7, 56), (33, 33)] {
            let z = h.zero_corrections(a, b);
            let o = h.one_corrections(a, b);
            assert_eq!(z & o, 0);
            assert_eq!(z | o, a ^ b);
        }
    }

    #[test]
    fn links_are_symmetric() {
        let h = Hypercube::new(3);
        for v in 0..h.num_nodes() {
            for p in 0..h.max_ports() {
                let u = h.neighbor(v, p).unwrap();
                let rp = h.reverse_port(v, p).unwrap();
                assert_eq!(h.neighbor(u, rp), Some(v));
            }
        }
    }

    #[test]
    fn strongly_connected() {
        assert!(graph::is_strongly_connected(&Hypercube::new(5)));
    }
}
