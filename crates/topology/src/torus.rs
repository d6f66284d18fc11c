//! The 2-dimensional torus (k-ary 2-cube).

use crate::{NodeId, PartitionHint, Port, Topology};

/// The `w × h` 2-dimensional torus: a [`Mesh2D`](crate::Mesh2D) with
/// wraparound links in both dimensions.
///
/// Node `(x, y)` has id `y * w + x`. Ports: `0` = `+x`, `1` = `-x`,
/// `2` = `+y`, `3` = `-y`, always defined (coordinates wrap mod the
/// extent). All links are bidirectional.
///
/// The paper's § 4 remarks that fully-adaptive minimal packet routing
/// over tori is achievable with 4 central queues per node following
/// \[GPS91\]; the torus substrate here backs that extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus2D {
    width: usize,
    height: usize,
}

impl Torus2D {
    /// Shortest side [`Torus2D::new`] accepts.
    pub const MIN_SIDE: usize = 3;

    /// Create a `width × height` torus. Panics if either side is < 3
    /// (a 2-ring degenerates: +d and -d reach the same node).
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width >= Self::MIN_SIDE && height >= Self::MIN_SIDE,
            "torus sides must be >= 3"
        );
        assert!(width.checked_mul(height).is_some());
        Self { width, height }
    }

    /// Square `side × side` torus.
    pub fn square(side: usize) -> Self {
        Self::new(side, side)
    }

    /// Torus width (extent in x).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Torus height (extent in y).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Coordinates of a node id.
    #[inline]
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        (node % self.width, node / self.width)
    }

    /// Node id at coordinates `(x, y)`.
    #[inline]
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Signed minimal offset from `a` to `b` on a ring of size `k`,
    /// in `-(k/2) ..= k/2`. Positive means the `+` direction is (one of)
    /// the shortest; on even rings the half-way offset is reported as
    /// positive `k/2` although both directions tie.
    pub fn ring_offset(k: usize, a: usize, b: usize) -> isize {
        let fwd = (b + k - a) % k; // steps in + direction
        if fwd <= k / 2 {
            fwd as isize
        } else {
            fwd as isize - k as isize
        }
    }

    /// Minimal per-dimension offsets `(dx, dy)` from `from` to `to`.
    pub fn offsets(&self, from: NodeId, to: NodeId) -> (isize, isize) {
        let (ax, ay) = self.coords(from);
        let (bx, by) = self.coords(to);
        (
            Self::ring_offset(self.width, ax, bx),
            Self::ring_offset(self.height, ay, by),
        )
    }
}

impl Topology for Torus2D {
    fn num_nodes(&self) -> usize {
        self.width * self.height
    }

    fn max_ports(&self) -> usize {
        4
    }

    fn neighbor(&self, node: NodeId, port: Port) -> Option<NodeId> {
        let (x, y) = self.coords(node);
        match port {
            0 => Some(self.node_at((x + 1) % self.width, y)),
            1 => Some(self.node_at((x + self.width - 1) % self.width, y)),
            2 => Some(self.node_at(x, (y + 1) % self.height)),
            3 => Some(self.node_at(x, (y + self.height - 1) % self.height)),
            _ => None,
        }
    }

    fn name(&self) -> String {
        format!("torus2d({}x{})", self.width, self.height)
    }

    fn distance(&self, from: NodeId, to: NodeId) -> usize {
        let (dx, dy) = self.offsets(from, to);
        dx.unsigned_abs() + dy.unsigned_abs()
    }

    fn degree(&self, _node: NodeId) -> usize {
        4
    }

    fn partition_hint(&self) -> PartitionHint {
        // Wrap links cross any coordinate split; bisection still beats a
        // structure-blind partition on everything but the wrap columns.
        PartitionHint::Grid {
            extents: vec![self.width, self.height],
        }
    }

    fn reverse_port(&self, _node: NodeId, port: Port) -> Option<Port> {
        (port < 4).then_some(port ^ 1)
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
    fn wraparound_neighbors() {
        let t = Torus2D::new(4, 3);
        let v = t.node_at(3, 2);
        assert_eq!(t.neighbor(v, 0), Some(t.node_at(0, 2))); // +x wraps
        assert_eq!(t.neighbor(v, 2), Some(t.node_at(3, 0))); // +y wraps
        assert_eq!(t.neighbor(t.node_at(0, 0), 1), Some(t.node_at(3, 0)));
        assert_eq!(t.neighbor(t.node_at(0, 0), 3), Some(t.node_at(0, 2)));
    }

    #[test]
    fn ring_offset_cases() {
        assert_eq!(Torus2D::ring_offset(5, 0, 2), 2);
        assert_eq!(Torus2D::ring_offset(5, 0, 3), -2);
        assert_eq!(Torus2D::ring_offset(5, 4, 0), 1);
        assert_eq!(Torus2D::ring_offset(6, 0, 3), 3); // tie reported positive
        assert_eq!(Torus2D::ring_offset(6, 3, 0), 3);
        assert_eq!(Torus2D::ring_offset(7, 2, 2), 0);
    }

    #[test]
    fn distance_matches_bfs() {
        for t in [Torus2D::new(4, 4), Torus2D::new(5, 3)] {
            for a in 0..t.num_nodes() {
                for b in 0..t.num_nodes() {
                    assert_eq!(
                        t.distance(a, b),
                        graph::bfs_distance(&t, a, b).unwrap(),
                        "{} a={a} b={b}",
                        t.name()
                    );
                }
            }
        }
    }

    #[test]
    fn minimal_ports_follow_minimal_offsets() {
        let t = Torus2D::square(5);
        // from (0,0) to (3,0): -x is shorter (2 hops) than +x (3 hops).
        let ports: Vec<_> = t
            .minimal_ports(t.node_at(0, 0), t.node_at(3, 0))
            .iter()
            .map(|&(p, _)| p)
            .collect();
        assert_eq!(ports, vec![1]);
    }

    #[test]
    fn even_ring_ties_allow_both_directions() {
        let t = Torus2D::square(4);
        let ports: Vec<_> = t
            .minimal_ports(t.node_at(0, 0), t.node_at(2, 0))
            .iter()
            .map(|&(p, _)| p)
            .collect();
        assert_eq!(ports, vec![0, 1]);
    }

    #[test]
    fn strongly_connected() {
        assert!(graph::is_strongly_connected(&Torus2D::new(3, 5)));
    }
}
