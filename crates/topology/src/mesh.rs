//! 2-dimensional and k-dimensional meshes.

use crate::{NodeId, PartitionHint, Port, Topology};

/// Port numbering shared by [`Mesh2D`] and [`Torus2D`](crate::Torus2D):
/// `2*dim` is the positive direction of `dim`, `2*dim + 1` the negative.
pub const POS: usize = 0;

/// The `w × h` 2-dimensional mesh.
///
/// Node `(x, y)` (with `0 <= x < w`, `0 <= y < h`) has id `y * w + x`.
/// Ports: `0` = `+x`, `1` = `-x`, `2` = `+y`, `3` = `-y`; ports that would
/// leave the mesh do not exist. All links are bidirectional.
///
/// The paper's § 4 hangs this mesh from `(0,0)` (phase A, level `x + y`
/// increasing) and from `(w-1, h-1)` (phase B, level decreasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh2D {
    width: usize,
    height: usize,
}

impl Mesh2D {
    /// Shortest side [`Mesh2D::new`] accepts.
    pub const MIN_SIDE: usize = 2;

    /// Create a `width × height` mesh. Panics if either side is < 2 or the
    /// node count would overflow practical sizes.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width >= Self::MIN_SIDE && height >= Self::MIN_SIDE,
            "mesh sides must be >= 2"
        );
        assert!(width.checked_mul(height).is_some());
        Self { width, height }
    }

    /// Square `side × side` mesh.
    pub fn square(side: usize) -> Self {
        Self::new(side, side)
    }

    /// Mesh width (extent in x).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh height (extent in y).
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

    /// The paper's phase-A level of a node: `x + y`.
    #[inline]
    pub fn level(&self, node: NodeId) -> usize {
        let (x, y) = self.coords(node);
        x + y
    }
}

impl Topology for Mesh2D {
    fn num_nodes(&self) -> usize {
        self.width * self.height
    }

    fn max_ports(&self) -> usize {
        4
    }

    fn neighbor(&self, node: NodeId, port: Port) -> Option<NodeId> {
        let (x, y) = self.coords(node);
        match port {
            0 => (x + 1 < self.width).then(|| self.node_at(x + 1, y)),
            1 => (x > 0).then(|| self.node_at(x - 1, y)),
            2 => (y + 1 < self.height).then(|| self.node_at(x, y + 1)),
            3 => (y > 0).then(|| self.node_at(x, y - 1)),
            _ => None,
        }
    }

    fn name(&self) -> String {
        format!("mesh2d({}x{})", self.width, self.height)
    }

    fn distance(&self, from: NodeId, to: NodeId) -> usize {
        let (ax, ay) = self.coords(from);
        let (bx, by) = self.coords(to);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    fn partition_hint(&self) -> PartitionHint {
        PartitionHint::Grid {
            extents: vec![self.width, self.height],
        }
    }

    fn reverse_port(&self, node: NodeId, port: Port) -> Option<Port> {
        // The opposite direction within the same dimension pair.
        self.neighbor(node, port).map(|_| port ^ 1)
    }

    fn as_dyn(&self) -> &dyn Topology {
        self
    }
}

/// A k-dimensional mesh with per-dimension extents.
///
/// Node ids use mixed-radix (row-major, dimension 0 fastest) encoding.
/// Ports: `2*d` = positive direction of dimension `d`, `2*d + 1` negative.
/// The paper's § 4 notes its two-phase technique "can be easily generalized
/// for k-dimensional meshes, for any arbitrary k"; this type backs that
/// generalization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshKD {
    extents: Vec<usize>,
    /// `strides[d]` = product of extents of dimensions `< d`.
    strides: Vec<usize>,
}

impl MeshKD {
    /// Create a mesh with the given per-dimension extents (each >= 2).
    pub fn new(extents: &[usize]) -> Self {
        assert!(!extents.is_empty(), "need at least one dimension");
        assert!(extents.iter().all(|&e| e >= 2), "extents must be >= 2");
        let mut strides = Vec::with_capacity(extents.len());
        let mut acc = 1usize;
        for &e in extents {
            strides.push(acc);
            acc = acc.checked_mul(e).expect("mesh too large");
        }
        Self {
            extents: extents.to_vec(),
            strides,
        }
    }

    /// Number of dimensions k.
    #[inline]
    pub fn dims(&self) -> usize {
        self.extents.len()
    }

    /// Per-dimension extents.
    #[inline]
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// Coordinate of `node` in dimension `d`.
    #[inline]
    pub fn coord(&self, node: NodeId, d: usize) -> usize {
        node / self.strides[d] % self.extents[d]
    }

    /// All coordinates of `node`.
    pub fn coords(&self, node: NodeId) -> Vec<usize> {
        (0..self.dims()).map(|d| self.coord(node, d)).collect()
    }

    /// Node id at the given coordinates.
    pub fn node_at(&self, coords: &[usize]) -> NodeId {
        assert_eq!(coords.len(), self.dims());
        coords
            .iter()
            .zip(&self.strides)
            .zip(&self.extents)
            .map(|((&c, &s), &e)| {
                debug_assert!(c < e);
                c * s
            })
            .sum()
    }

    /// The generalized phase-A level: sum of all coordinates.
    pub fn level(&self, node: NodeId) -> usize {
        (0..self.dims()).map(|d| self.coord(node, d)).sum()
    }
}

impl Topology for MeshKD {
    fn num_nodes(&self) -> usize {
        self.extents.iter().product()
    }

    fn max_ports(&self) -> usize {
        2 * self.dims()
    }

    fn neighbor(&self, node: NodeId, port: Port) -> Option<NodeId> {
        let d = port / 2;
        if d >= self.dims() {
            return None;
        }
        let c = self.coord(node, d);
        if port % 2 == POS {
            (c + 1 < self.extents[d]).then(|| node + self.strides[d])
        } else {
            (c > 0).then(|| node - self.strides[d])
        }
    }

    fn name(&self) -> String {
        let e: Vec<String> = self.extents.iter().map(ToString::to_string).collect();
        format!("meshkd({})", e.join("x"))
    }

    fn distance(&self, from: NodeId, to: NodeId) -> usize {
        (0..self.dims())
            .map(|d| self.coord(from, d).abs_diff(self.coord(to, d)))
            .sum()
    }

    fn partition_hint(&self) -> PartitionHint {
        PartitionHint::Grid {
            extents: self.extents.clone(),
        }
    }

    fn reverse_port(&self, node: NodeId, port: Port) -> Option<Port> {
        self.neighbor(node, port).map(|_| port ^ 1)
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
    fn mesh2d_shape() {
        let m = Mesh2D::new(4, 3);
        assert_eq!(m.num_nodes(), 12);
        assert_eq!(m.coords(7), (3, 1));
        assert_eq!(m.node_at(3, 1), 7);
        assert_eq!(m.level(7), 4);
        // Corner (0,0): only +x and +y exist.
        assert_eq!(m.degree(0), 2);
        // Interior node (1,1): all four.
        assert_eq!(m.degree(m.node_at(1, 1)), 4);
        assert_eq!(m.neighbor(m.node_at(3, 2), 0), None); // +x off the edge
        assert_eq!(m.neighbor(m.node_at(3, 2), 1), Some(m.node_at(2, 2)));
    }

    #[test]
    fn mesh2d_distance_matches_bfs() {
        let m = Mesh2D::new(4, 5);
        for a in 0..m.num_nodes() {
            for b in 0..m.num_nodes() {
                assert_eq!(m.distance(a, b), graph::bfs_distance(&m, a, b).unwrap());
            }
        }
    }

    #[test]
    fn mesh2d_reverse_ports() {
        let m = Mesh2D::square(3);
        for v in 0..m.num_nodes() {
            for p in 0..m.max_ports() {
                if let Some(u) = m.neighbor(v, p) {
                    let rp = m.reverse_port(v, p).unwrap();
                    assert_eq!(m.neighbor(u, rp), Some(v));
                }
            }
        }
    }

    #[test]
    fn mesh2d_minimal_ports_point_into_rectangle() {
        let m = Mesh2D::square(5);
        let from = m.node_at(2, 2);
        let to = m.node_at(4, 0);
        let ports: Vec<_> = m.minimal_ports(from, to).iter().map(|&(p, _)| p).collect();
        assert_eq!(ports, vec![0, 3]); // +x and -y
    }

    #[test]
    fn meshkd_agrees_with_mesh2d() {
        let m2 = Mesh2D::new(4, 3);
        let mk = MeshKD::new(&[4, 3]);
        assert_eq!(m2.num_nodes(), mk.num_nodes());
        for v in 0..m2.num_nodes() {
            for p in 0..4 {
                assert_eq!(m2.neighbor(v, p), mk.neighbor(v, p), "node {v} port {p}");
            }
        }
    }

    #[test]
    fn meshkd_3d() {
        let m = MeshKD::new(&[3, 4, 5]);
        assert_eq!(m.num_nodes(), 60);
        let v = m.node_at(&[2, 1, 3]);
        assert_eq!(m.coords(v), vec![2, 1, 3]);
        assert_eq!(m.level(v), 6);
        assert_eq!(m.distance(m.node_at(&[0, 0, 0]), m.node_at(&[2, 3, 4])), 9);
        for a in [0usize, 13, 59] {
            for b in [7usize, 30, 42] {
                assert_eq!(m.distance(a, b), graph::bfs_distance(&m, a, b).unwrap());
            }
        }
    }

    #[test]
    fn connectivity() {
        assert!(graph::is_strongly_connected(&Mesh2D::new(3, 4)));
        assert!(graph::is_strongly_connected(&MeshKD::new(&[2, 3, 2])));
    }
}
