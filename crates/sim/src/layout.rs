//! Flat channel/buffer layout derived from a routing function's topology
//! and per-channel buffer-class declarations (§ 6), plus the derived
//! tables both engines' fill and read kernels index (see
//! [`crate::kernel`]). Everything here is immutable after construction
//! and shared by `Arc` across shards and lanes.

use fadr_qdg::{BufferClass, RoutingFunction};

/// Sentinel for "no channel" / "empty buffer slot".
pub(crate) const NONE: u32 = u32::MAX;

/// Dense indexing of directed channels and their traffic-class buffers.
///
/// A *channel* is a directed `(node, port)` edge with at least one buffer
/// class; each of its classes owns one output-buffer slot (at the source
/// node) and one input-buffer slot (at the target node), which the engine
/// stores in two flat arrays indexed by the same *buffer id*.
#[derive(Debug, Clone)]
pub struct Layout {
    /// Number of nodes.
    pub num_nodes: usize,
    /// `max_ports` of the topology.
    pub max_ports: usize,
    /// `(node * max_ports + port) -> channel id` (or `NONE`).
    pub chan_of: Vec<u32>,
    /// Channel id → source node.
    pub chan_from: Vec<u32>,
    /// Channel id → target node.
    pub chan_to: Vec<u32>,
    /// Channel id → first buffer id.
    pub chan_buf_start: Vec<u32>,
    /// Channel id → number of buffer classes. `u16` because a channel may
    /// declare up to 257 classes (256 `Static` levels plus `Dynamic`),
    /// which overflows `u8`.
    pub chan_buf_len: Vec<u16>,
    /// Buffer id → traffic class.
    pub buf_class: Vec<BufferClass>,
    /// Per node: its output-buffer ids in fill order
    /// (port ascending, classes in declared order).
    pub node_out_bufs: Vec<Vec<u32>>,
    /// Input-buffer ids of every node, flattened: node `v`'s are
    /// `in_bufs[in_start[v]..in_start[v + 1]]` (see
    /// [`Layout::node_in_bufs`]). The index within that slice is the
    /// buffer's read *slot*.
    pub(crate) in_bufs: Vec<u32>,
    /// Node → start of its input buffers in `in_bufs` (`num_nodes + 1`
    /// entries).
    pub(crate) in_start: Vec<u32>,
    /// Buffer id → position within its source node's `node_out_bufs`.
    pub buf_out_pos: Vec<u32>,
    /// Buffer id → channel id.
    pub(crate) buf_chan: Vec<u32>,
    /// Node → its first output-buffer id. Under `fast_fill`, fill
    /// position `pos` of node `v` is buffer `first_out[v] + pos`.
    pub(crate) first_out: Vec<u32>,
    /// Buffer id → its read slot at the channel's target node. Filled
    /// only under `fast_read`, where a slot is below 64 and fits a `u8`;
    /// empty otherwise.
    pub(crate) buf_in_slot: Vec<u8>,
    /// Every node's output buffers form one ascending run of at most 64
    /// ids, so a packet's wanted fill positions fit one `u64` mask and
    /// the fill pass runs [`crate::kernel::fill_pass`]. Otherwise the
    /// engines fall back to the per-position wanting-list scan.
    pub(crate) fast_fill: bool,
    /// Every node has at most 64 input buffers, so its occupied ones fit
    /// one `u64` mask and the read pass visits only occupied slots
    /// ([`crate::kernel::ReadSlots`]). Otherwise it scans every slot.
    pub(crate) fast_read: bool,
}

impl Layout {
    /// Build the layout for a routing function.
    pub fn new<R: RoutingFunction + ?Sized>(rf: &R) -> Self {
        let topo = rf.topology();
        let n = topo.num_nodes();
        let mp = topo.max_ports();
        let mut layout = Layout {
            num_nodes: n,
            max_ports: mp,
            chan_of: vec![NONE; n * mp],
            chan_from: Vec::new(),
            chan_to: Vec::new(),
            chan_buf_start: Vec::new(),
            chan_buf_len: Vec::new(),
            buf_class: Vec::new(),
            node_out_bufs: vec![Vec::new(); n],
            in_bufs: Vec::new(),
            in_start: Vec::new(),
            buf_out_pos: Vec::new(),
            buf_chan: Vec::new(),
            first_out: Vec::with_capacity(n),
            buf_in_slot: Vec::new(),
            fast_fill: false,
            fast_read: false,
        };
        for node in 0..n {
            for port in 0..mp {
                let Some(to) = topo.neighbor(node, port) else {
                    continue;
                };
                let classes = rf.buffer_classes(node, port);
                if classes.is_empty() {
                    continue;
                }
                let chan = layout.chan_to.len() as u32;
                layout.chan_of[node * mp + port] = chan;
                layout.chan_from.push(node as u32);
                layout.chan_to.push(to as u32);
                layout.chan_buf_start.push(layout.buf_class.len() as u32);
                layout
                    .chan_buf_len
                    .push(u16::try_from(classes.len()).expect("BufferClass bounds class count"));
                for class in classes {
                    let buf = layout.buf_class.len() as u32;
                    layout.buf_class.push(class);
                    layout
                        .buf_out_pos
                        .push(layout.node_out_bufs[node].len() as u32);
                    layout.node_out_bufs[node].push(buf);
                    layout.buf_chan.push(chan);
                }
            }
        }
        // Input lists by counting sort over channels in id order, which
        // keeps each node's buffers in ascending id order.
        let nb = layout.num_buffers();
        layout.in_start = vec![0; n + 1];
        for (chan, &to) in layout.chan_to.iter().enumerate() {
            layout.in_start[to as usize + 1] += u32::from(layout.chan_buf_len[chan]);
        }
        for v in 0..n {
            layout.in_start[v + 1] += layout.in_start[v];
        }
        layout.fast_read = (0..n).all(|v| layout.in_start[v + 1] - layout.in_start[v] <= 64);
        let mut cursor = layout.in_start[..n].to_vec();
        layout.in_bufs = vec![0; nb];
        if layout.fast_read {
            layout.buf_in_slot = vec![0; nb];
        }
        for (chan, &to) in layout.chan_to.iter().enumerate() {
            let to = to as usize;
            let start = layout.chan_buf_start[chan];
            for b in start..start + u32::from(layout.chan_buf_len[chan]) {
                let at = cursor[to] as usize;
                layout.in_bufs[at] = b;
                if layout.fast_read {
                    layout.buf_in_slot[b as usize] = (cursor[to] - layout.in_start[to]) as u8;
                }
                cursor[to] += 1;
            }
        }
        layout.first_out = layout
            .node_out_bufs
            .iter()
            .map(|bufs| bufs.first().copied().unwrap_or(0))
            .collect();
        layout.fast_fill = layout
            .node_out_bufs
            .iter()
            .all(|bufs| bufs.len() <= 64 && bufs.windows(2).all(|w| w[1] == w[0] + 1));
        layout
    }

    /// Output buffer at fill position `pos` of `node`.
    #[inline]
    pub(crate) fn out_buf(&self, node: usize, pos: usize) -> usize {
        if self.fast_fill {
            self.first_out[node] as usize + pos
        } else {
            self.node_out_bufs[node][pos] as usize
        }
    }

    /// Record input buffer `b` as occupied in its target node's read
    /// word: the buffer's slot bit under `fast_read`, otherwise a count
    /// of occupied input buffers (which still lets an idle node skip its
    /// read pass).
    #[inline]
    pub(crate) fn occupy(&self, word: &mut u64, b: usize) {
        if self.fast_read {
            *word |= 1u64 << self.buf_in_slot[b];
        } else {
            *word += 1;
        }
    }

    /// Undo [`Layout::occupy`] for input buffer `b`.
    #[inline]
    pub(crate) fn vacate(&self, word: &mut u64, b: usize) {
        if self.fast_read {
            *word &= !(1u64 << self.buf_in_slot[b]);
        } else {
            *word -= 1;
        }
    }

    /// Input-buffer ids of `node` (the buffers its read pass empties),
    /// indexed by read slot.
    #[inline]
    pub fn node_in_bufs(&self, node: usize) -> &[u32] {
        &self.in_bufs[self.in_start[node] as usize..self.in_start[node + 1] as usize]
    }

    /// Total buffer count.
    pub fn num_buffers(&self) -> usize {
        self.buf_class.len()
    }

    /// Total channel count.
    pub fn num_channels(&self) -> usize {
        self.chan_to.len()
    }

    /// Channel id of `(node, port)`, if it exists.
    #[inline]
    pub fn chan(&self, node: usize, port: usize) -> Option<u32> {
        let c = self.chan_of[node * self.max_ports + port];
        (c != NONE).then_some(c)
    }

    /// Buffer id for `(node, port)` and traffic class `class`.
    ///
    /// Panics if the channel or class is not declared — the model checker
    /// (`fadr_qdg::verify::verify_structure`) guarantees declared classes
    /// cover every transition.
    #[inline]
    pub fn buffer(&self, node: usize, port: usize, class: BufferClass) -> u32 {
        let chan = self.chan_of[node * self.max_ports + port];
        debug_assert_ne!(chan, NONE, "no channel at ({node}, {port})");
        let start = self.chan_buf_start[chan as usize] as usize;
        let len = self.chan_buf_len[chan as usize] as usize;
        for (i, &c) in self.buf_class[start..start + len].iter().enumerate() {
            if c == class {
                return (start + i) as u32;
            }
        }
        panic!("buffer class {class:?} not declared on ({node}, {port})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadr_core::HypercubeFullyAdaptive;

    #[test]
    fn hypercube_layout_counts() {
        let rf = HypercubeFullyAdaptive::new(3);
        let l = Layout::new(&rf);
        assert_eq!(l.num_nodes, 8);
        // Every directed edge is a channel: 3 * 8 = 24.
        assert_eq!(l.num_channels(), 24);
        // Two buffer classes per channel (up: A+B static; down: B + dyn).
        assert_eq!(l.num_buffers(), 48);
        // Each node: 3 out-channels x 2 classes, and same incoming.
        for v in 0..8 {
            assert_eq!(l.node_out_bufs[v].len(), 6);
            assert_eq!(l.node_in_bufs(v).len(), 6);
        }
    }

    #[test]
    fn buffer_resolution_matches_declared_classes() {
        use fadr_qdg::BufferClass::{Dynamic, Static};
        let rf = HypercubeFullyAdaptive::new(3);
        let l = Layout::new(&rf);
        // Node 0, port 1 is an upward channel: Static(0) and Static(1).
        let b0 = l.buffer(0, 1, Static(0));
        let b1 = l.buffer(0, 1, Static(1));
        assert_ne!(b0, b1);
        // Node 7, port 0 is downward: Static(1) and Dynamic.
        let _ = l.buffer(7, 0, Static(1));
        let _ = l.buffer(7, 0, Dynamic);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_class_panics() {
        use fadr_qdg::BufferClass::Static;
        let rf = HypercubeFullyAdaptive::new(3);
        let l = Layout::new(&rf);
        // Downward channel has no Static(0).
        let _ = l.buffer(7, 0, Static(0));
    }

    #[test]
    fn layout_supports_more_than_255_classes_per_channel() {
        use fadr_qdg::{QueueId, Transition};
        use fadr_topology::{Hypercube, NodeId, Port, Topology};

        // Degenerate routing function declaring the maximum possible number
        // of buffer classes on every channel: all 256 `Static` levels plus
        // `Dynamic` = 257, which overflowed the former `u8` channel width.
        struct ManyClasses(Hypercube);
        impl RoutingFunction for ManyClasses {
            type Msg = NodeId;
            fn topology(&self) -> &dyn Topology {
                &self.0
            }
            fn num_classes(&self) -> usize {
                256
            }
            fn initial_msg(&self, _src: NodeId, dst: NodeId) -> NodeId {
                dst
            }
            fn destination(&self, msg: &NodeId) -> NodeId {
                *msg
            }
            fn deliverable(&self, node: NodeId, msg: &NodeId) -> bool {
                node == *msg
            }
            fn for_each_transition(
                &self,
                _at: QueueId,
                _msg: &NodeId,
                _f: &mut dyn FnMut(Transition<NodeId>),
            ) {
            }
            fn buffer_classes(&self, _node: NodeId, _port: Port) -> Vec<BufferClass> {
                let mut classes: Vec<BufferClass> =
                    (0..=u8::MAX).map(BufferClass::Static).collect();
                classes.push(BufferClass::Dynamic);
                classes
            }
            fn is_minimal(&self) -> bool {
                false
            }
            fn max_hops(&self) -> usize {
                1
            }
            fn name(&self) -> String {
                "many-classes".into()
            }
        }

        let rf = ManyClasses(Hypercube::new(1));
        let l = Layout::new(&rf);
        assert_eq!(l.num_channels(), 2);
        assert_eq!(l.chan_buf_len, vec![257, 257]);
        assert_eq!(l.num_buffers(), 2 * 257);
        assert_eq!(l.buffer(0, 0, BufferClass::Static(255)), 255);
        assert_eq!(l.buffer(0, 0, BufferClass::Dynamic), 256);
        // 514 output buffers per node fail both fast-path predicates.
        assert!(!l.fast_fill && !l.fast_read);
        assert!(l.buf_in_slot.is_empty());
    }

    #[test]
    fn derived_tables_match_the_channel_lists() {
        let rf = HypercubeFullyAdaptive::new(4);
        let l = Layout::new(&rf);
        assert!(l.fast_fill && l.fast_read);
        for chan in 0..l.num_channels() {
            let start = l.chan_buf_start[chan] as usize;
            for b in start..start + usize::from(l.chan_buf_len[chan]) {
                assert_eq!(l.buf_chan[b] as usize, chan);
            }
        }
        for v in 0..l.num_nodes {
            for (pos, &b) in l.node_out_bufs[v].iter().enumerate() {
                assert_eq!(b as usize, l.first_out[v] as usize + pos);
            }
            for (slot, &b) in l.node_in_bufs(v).iter().enumerate() {
                assert_eq!(usize::from(l.buf_in_slot[b as usize]), slot);
                assert_eq!(l.chan_to[l.buf_chan[b as usize] as usize] as usize, v);
            }
        }
    }

    #[test]
    fn out_positions_invert_out_lists() {
        let rf = HypercubeFullyAdaptive::new(4);
        let l = Layout::new(&rf);
        for v in 0..l.num_nodes {
            for (pos, &b) in l.node_out_bufs[v].iter().enumerate() {
                assert_eq!(l.buf_out_pos[b as usize] as usize, pos);
            }
        }
    }
}
