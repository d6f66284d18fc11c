//! The shuffle-exchange network.

use crate::{NodeId, Port, Topology};

/// Port index of the (directed) shuffle link: `u -> rol(u)`.
pub const PORT_SHUFFLE: Port = 0;
/// Port index of the (bidirectional) exchange link: `u -> u ^ 1`.
pub const PORT_EXCHANGE: Port = 1;

/// The `2^n`-node shuffle-exchange network.
///
/// Each node `u` has two outgoing links:
/// * the **shuffle** link (port [`PORT_SHUFFLE`]) to `rol(u)`, the one-bit
///   left rotation of `u`'s n-bit address — a *directed* link;
/// * the **exchange** link (port [`PORT_EXCHANGE`]) to `u ^ 1` — a
///   bidirectional link.
///
/// Removing the exchange links leaves the *shuffle cycles* (the orbits of
/// the rotation). Every node in a shuffle cycle has the same Hamming
/// weight, which the paper (§ 5) calls the cycle's *level*. Deadlock over
/// the cycles is broken Dally–Seitz style at one designated node per cycle
/// (here: the minimum address in the cycle, exposed by
/// [`ShuffleExchange::is_cycle_break`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleExchange {
    dims: usize,
}

impl ShuffleExchange {
    /// Smallest dimension [`ShuffleExchange::new`] accepts.
    pub const MIN_DIMS: usize = 2;
    /// Largest dimension [`ShuffleExchange::new`] accepts.
    pub const MAX_DIMS: usize = 30;

    /// Create a `2^n`-node shuffle-exchange. Panics unless `2 <= n <= 30`.
    pub fn new(dims: usize) -> Self {
        assert!(
            (Self::MIN_DIMS..=Self::MAX_DIMS).contains(&dims),
            "shuffle-exchange dims must be 2..=30"
        );
        Self { dims }
    }

    /// Number of address bits n.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bit mask covering all valid address bits.
    #[inline]
    pub fn mask(&self) -> usize {
        (1usize << self.dims) - 1
    }

    /// One-bit left rotation of the n-bit address (the shuffle link).
    #[inline]
    pub fn shuffle(&self, u: NodeId) -> NodeId {
        ((u << 1) | (u >> (self.dims - 1))) & self.mask()
    }

    /// One-bit right rotation (the *incoming* shuffle link's source).
    #[inline]
    pub fn unshuffle(&self, u: NodeId) -> NodeId {
        ((u >> 1) | ((u & 1) << (self.dims - 1))) & self.mask()
    }

    /// The exchange neighbor `u ^ 1`.
    #[inline]
    pub fn exchange(&self, u: NodeId) -> NodeId {
        u ^ 1
    }

    /// Minimum address on `u`'s shuffle cycle (the designated break node).
    pub fn cycle_break(&self, u: NodeId) -> NodeId {
        let mut min = u;
        let mut v = self.shuffle(u);
        while v != u {
            min = min.min(v);
            v = self.shuffle(v);
        }
        min
    }

    /// Whether `u` is the designated break node of its shuffle cycle.
    ///
    /// A message leaving `u` over the shuffle link moves from cycle-class 0
    /// to cycle-class 1 (§ 5's "breaking the shuffle cycles").
    #[inline]
    pub fn is_cycle_break(&self, u: NodeId) -> bool {
        self.cycle_break(u) == u
    }

    /// Number of hops along the shuffle cycle from the break node to `u`
    /// (0 for the break node itself). Used to order queues within a cycle
    /// when checking acyclicity of the queue dependency graph.
    pub fn cycle_position(&self, u: NodeId) -> usize {
        let b = self.cycle_break(u);
        let mut pos = 0;
        let mut v = b;
        while v != u {
            v = self.shuffle(v);
            pos += 1;
            debug_assert!(pos <= self.dims);
        }
        pos
    }
}

impl Topology for ShuffleExchange {
    fn num_nodes(&self) -> usize {
        1usize << self.dims
    }

    fn max_ports(&self) -> usize {
        2
    }

    fn neighbor(&self, node: NodeId, port: Port) -> Option<NodeId> {
        match port {
            PORT_SHUFFLE => Some(self.shuffle(node)),
            PORT_EXCHANGE => Some(self.exchange(node)),
            _ => None,
        }
    }

    fn name(&self) -> String {
        format!("shuffle-exchange(n={})", self.dims)
    }

    fn reverse_port(&self, _node: NodeId, port: Port) -> Option<Port> {
        // Only the exchange link is bidirectional; the shuffle link's
        // reverse (unshuffle) is not a link of the network.
        (port == PORT_EXCHANGE).then_some(PORT_EXCHANGE)
    }

    fn as_dyn(&self) -> &dyn Topology {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{graph, hamming_weight};

    #[test]
    fn shuffle_is_left_rotation() {
        let se = ShuffleExchange::new(3);
        assert_eq!(se.shuffle(0b110), 0b101);
        assert_eq!(se.shuffle(0b100), 0b001);
        assert_eq!(se.shuffle(0b111), 0b111);
        assert_eq!(se.unshuffle(se.shuffle(0b011)), 0b011);
    }

    #[test]
    fn shuffle_orbit_returns_after_n() {
        let se = ShuffleExchange::new(5);
        for u in 0..se.num_nodes() {
            let mut v = u;
            for _ in 0..se.dims() {
                v = se.shuffle(v);
            }
            assert_eq!(v, u, "rol^n must be the identity");
        }
    }

    #[test]
    fn cycles_preserve_level() {
        let se = ShuffleExchange::new(6);
        for u in 0..se.num_nodes() {
            assert_eq!(hamming_weight(u), hamming_weight(se.shuffle(u)));
        }
    }

    #[test]
    fn cycle_break_is_canonical() {
        let se = ShuffleExchange::new(4);
        for u in 0..se.num_nodes() {
            let b = se.cycle_break(u);
            assert!(b <= u);
            assert_eq!(se.cycle_break(b), b, "break node is its own break");
            assert_eq!(se.cycle_break(se.shuffle(u)), b, "break is cycle-invariant");
        }
    }

    #[test]
    fn cycle_positions_are_distinct_along_cycle() {
        let se = ShuffleExchange::new(6);
        let u = 0b000101;
        let mut v = se.cycle_break(u);
        let mut seen = vec![se.cycle_position(v)];
        loop {
            v = se.shuffle(v);
            if v == se.cycle_break(u) {
                break;
            }
            let p = se.cycle_position(v);
            assert!(!seen.contains(&p));
            seen.push(p);
        }
    }

    #[test]
    fn exchange_is_involution() {
        let se = ShuffleExchange::new(4);
        for u in 0..se.num_nodes() {
            assert_eq!(se.exchange(se.exchange(u)), u);
        }
    }

    #[test]
    fn strongly_connected_despite_directed_shuffle() {
        assert!(graph::is_strongly_connected(&ShuffleExchange::new(4)));
        assert!(graph::is_strongly_connected(&ShuffleExchange::new(5)));
    }

    #[test]
    fn bfs_distance_bounded_by_3n() {
        let se = ShuffleExchange::new(4);
        for a in 0..se.num_nodes() {
            for b in 0..se.num_nodes() {
                let d = graph::bfs_distance(&se, a, b).unwrap();
                assert!(d <= 3 * se.dims(), "d({a},{b}) = {d}");
            }
        }
    }
}
