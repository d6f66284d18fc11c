//! Exhaustive construction of the queue dependency graph and of the
//! per-(source, destination) reachable-state graphs.
//!
//! The QDG of § 2 is defined over *routes that actually occur*: there is an
//! edge `q → q'` iff some injection/destination pair produces a route using
//! `q'` immediately after `q`. We therefore build it by exploring, for every
//! ordered pair `(src, dst)`, all message states reachable from the
//! injection queue under `R̃`.
//!
//! [`explore_pair`] materializes one pair's state graph and stays the
//! exhaustive oracle of [`crate::verify`]. The scalable tools (the
//! certifier and the lint battery) use a [`Walker`] instead: transitions
//! depend only on the `(queue, message)` state, never on the source, so
//! one walk per **destination** seeded with every source's injection
//! state visits exactly the union of the per-pair state graphs — O(N)
//! walks instead of O(N²) explorations — and streams each state to the
//! caller rather than storing its transitions. One `Walker` is held
//! across all destinations so its interner and buffers are allocated
//! once; [`walk_dst`] is the one-off form.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::Hash;

use fadr_topology::NodeId;

use crate::graph::Digraph;
use crate::hasher::FxHashMap;
use crate::{LinkKind, QueueId, QueueKind, RoutingFunction, Transition};

/// The queue dependency graph of a routing function on a concrete network.
#[derive(Debug, Clone)]
pub struct Qdg {
    /// Dense queue index → queue id.
    pub queues: Vec<QueueId>,
    /// Queue id → dense index.
    pub index: FxHashMap<QueueId, usize>,
    /// Static-link subgraph (the underlying `D = (Q, A_s)`).
    pub static_graph: Digraph,
    /// Full graph `D̃ = (Q, A_s ∪ A_d)`.
    pub full_graph: Digraph,
    /// Edges that occur (at least) as dynamic links.
    pub dynamic_edges: Vec<(usize, usize)>,
}

impl Qdg {
    /// Dense index of a queue, inserting it if new.
    fn intern(&mut self, q: QueueId) -> usize {
        if let Some(&i) = self.index.get(&q) {
            return i;
        }
        let i = self.queues.len();
        self.queues.push(q);
        self.index.insert(q, i);
        self.static_graph.ensure_vertex(i);
        self.full_graph.ensure_vertex(i);
        i
    }

    /// Whether the underlying (static) QDG is acyclic — the paper's
    /// sufficient condition for deadlock freedom of the greedy algorithm.
    pub fn static_is_acyclic(&self) -> bool {
        self.static_graph.is_acyclic()
    }

    /// A cycle of the static QDG, as queue ids, if one exists.
    pub fn static_cycle(&self) -> Option<Vec<QueueId>> {
        self.static_graph
            .find_cycle()
            .map(|c| c.into_iter().map(|i| self.queues[i]).collect())
    }

    /// The paper's `Level(q)` over the static DAG; `None` if the static
    /// QDG is cyclic (the scheme is rejected — levels don't exist).
    pub fn static_levels(&self) -> Option<FxHashMap<QueueId, usize>> {
        let lv = self.static_graph.levels()?;
        Some(self.queues.iter().copied().zip(lv).collect())
    }
}

/// Build the QDG by exploring every `(src, dst)` pair with `src != dst`.
pub fn build_qdg<R: RoutingFunction + ?Sized>(rf: &R) -> Qdg {
    let n = rf.topology().num_nodes();
    let mut qdg = Qdg {
        queues: Vec::new(),
        index: FxHashMap::default(),
        static_graph: Digraph::default(),
        full_graph: Digraph::default(),
        dynamic_edges: Vec::new(),
    };
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let states = explore_pair(rf, src, dst);
            for (state_idx, (q, msg)) in states.states.iter().enumerate() {
                let a = qdg.intern(*q);
                let _ = msg;
                for t in &states.transitions[state_idx] {
                    // A "stutter" back into the same queue (e.g. the
                    // shuffle-exchange's degenerate one-node cycles) holds
                    // its existing slot rather than acquiring a new one, so
                    // it creates no queue dependency.
                    if t.to == *q {
                        continue;
                    }
                    let b = qdg.intern(t.to);
                    qdg.full_graph.add_edge(a, b);
                    match t.kind {
                        LinkKind::Static => qdg.static_graph.add_edge(a, b),
                        LinkKind::Dynamic => {
                            if !qdg.dynamic_edges.contains(&(a, b)) {
                                qdg.dynamic_edges.push((a, b));
                            }
                        }
                    }
                }
            }
        }
    }
    qdg
}

/// Reachable-state graph for one `(src, dst)` pair: every `(queue, msg)`
/// state reachable from the injection queue, with its outgoing transitions.
#[derive(Debug, Clone)]
pub struct StateGraph<M> {
    /// The `(queue, message-state)` pairs, index 0 being the injection state.
    pub states: Vec<(QueueId, M)>,
    /// Outgoing transitions per state (empty for delivery states).
    pub transitions: Vec<Vec<Transition<M>>>,
    /// Dense successor indices per state aligned with `transitions`
    /// (`usize::MAX` marks a transition into a delivery queue, which is
    /// also materialized as a state with no successors).
    pub succ: Vec<Vec<usize>>,
    /// The source node explored from.
    pub src: usize,
    /// The destination node explored to.
    pub dst: usize,
}

impl<M> StateGraph<M> {
    /// Whether state `i` is a delivery state (message has arrived).
    pub fn is_delivered(&self, i: usize) -> bool {
        self.states[i].0.kind == QueueKind::Deliver
    }
}

/// Explore all states reachable for one `(src, dst)` pair.
pub fn explore_pair<R: RoutingFunction + ?Sized>(
    rf: &R,
    src: usize,
    dst: usize,
) -> StateGraph<R::Msg> {
    assert_ne!(src, dst, "explore_pair requires src != dst");
    let init = (QueueId::inject(src), rf.initial_msg(src, dst));
    let mut index: FxHashMap<(QueueId, R::Msg), usize> = FxHashMap::default();
    let mut states = vec![init.clone()];
    index.insert(init, 0);
    let mut transitions: Vec<Vec<Transition<R::Msg>>> = Vec::new();
    let mut succ: Vec<Vec<usize>> = Vec::new();
    let mut frontier = VecDeque::from([0usize]);
    while let Some(i) = frontier.pop_front() {
        // `states` only grows, so clone the state out to appease borrows.
        let (q, msg) = states[i].clone();
        let ts = if q.kind == QueueKind::Deliver {
            Vec::new()
        } else {
            rf.transitions(q, &msg)
        };
        let mut row = Vec::with_capacity(ts.len());
        for t in &ts {
            let key = (t.to, t.msg.clone());
            let j = *index.entry(key.clone()).or_insert_with(|| {
                let j = states.len();
                states.push(key);
                frontier.push_back(j);
                j
            });
            row.push(j);
        }
        // States are processed in insertion order, so rows align.
        debug_assert_eq!(transitions.len(), i);
        transitions.push(ts);
        succ.push(row);
    }
    StateGraph {
        states,
        transitions,
        succ,
        src,
        dst,
    }
}

/// What [`walk_dst`] reports about one state.
#[derive(Debug)]
pub enum Step<'a, M> {
    /// A delivery state: the message has arrived at the queue's node
    /// (which need not be the destination — that is the caller's check).
    Delivered,
    /// A non-delivered state with no transition at all.
    DeadEnd,
    /// A non-delivered state and its transitions, in the routing
    /// function's emission order.
    Expanded {
        /// The state's outgoing transitions.
        transitions: &'a [Transition<M>],
        /// Dense successor state ids, aligned with `transitions`.
        succ: &'a [u32],
    },
    /// Reported at most once, after every state was visited: the static
    /// stutter transitions (`t.to == q`, which hold their queue slot and
    /// so leave no QDG edge) contain a cycle through this state.
    StutterCycle,
}

/// Walk every `(queue, message)` state reachable on routes to `dst`,
/// seeded with the injection state of every source `src != dst`.
///
/// A one-off [`Walker::walk`]; callers walking many destinations hold
/// one [`Walker`] instead and keep its buffers between walks.
pub fn walk_dst<R, E, F>(rf: &R, dst: NodeId, visit: F) -> Result<usize, E>
where
    R: RoutingFunction + ?Sized,
    F: FnMut(QueueId, &R::Msg, Step<'_, R::Msg>) -> Result<(), E>,
{
    Walker::new().walk(rf, dst, visit)
}

/// The reusable workspace of the per-destination walk: the
/// `(QueueId, Msg)` interner, the BFS state queue (the interned states in
/// id order), the transition and successor buffers streamed to the
/// visitor, and the static stutter edges.
///
/// [`Walker::walk`] clears all of them first and keeps their capacity, so
/// a tool walking every destination pays for rehash growth and buffer
/// allocation once, for its largest destination, instead of once per
/// destination. A walk's result never depends on earlier walks: nothing
/// but capacity survives from one to the next, including after a walk the
/// visitor stopped with `Err`.
pub struct Walker<M> {
    index: FxHashMap<(QueueId, M), u32>,
    states: Vec<(QueueId, M)>,
    transitions: Vec<Transition<M>>,
    succ: Vec<u32>,
    stutter: Vec<(u32, u32)>,
}

impl<M> Default for Walker<M> {
    fn default() -> Self {
        Self {
            index: FxHashMap::default(),
            states: Vec::new(),
            transitions: Vec::new(),
            succ: Vec::new(),
            stutter: Vec::new(),
        }
    }
}

impl<M: Clone + Eq + Hash> Walker<M> {
    /// An empty workspace; buffers grow on the first walk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Walk every `(queue, message)` state reachable on routes to `dst`,
    /// seeded with the injection state of every source `src != dst`.
    ///
    /// States are interned in BFS order (ids are dense, in first-sight
    /// order) and each is reported to `visit` exactly once, with its
    /// transitions streamed through one reused buffer; the walk keeps no
    /// per-state transition lists. After the last state, the static
    /// stutter transitions are checked for a cycle ([`Step::StutterCycle`]).
    /// The first `Err` from `visit` stops the walk; otherwise the number
    /// of states visited is returned.
    pub fn walk<R, E, F>(&mut self, rf: &R, dst: NodeId, mut visit: F) -> Result<usize, E>
    where
        R: RoutingFunction<Msg = M> + ?Sized,
        F: FnMut(QueueId, &M, Step<'_, M>) -> Result<(), E>,
    {
        let Walker {
            index,
            states,
            transitions,
            succ,
            stutter,
        } = self;
        index.clear();
        states.clear();
        stutter.clear();
        for src in (0..rf.topology().num_nodes()).filter(|&src| src != dst) {
            let seed = (QueueId::inject(src), rf.initial_msg(src, dst));
            intern(index, states, seed);
        }
        let mut i = 0;
        while i < states.len() {
            // `states` grows as successors are interned: clone the state out.
            let (q, msg) = states[i].clone();
            let cur = as_u32(i);
            i += 1;
            if q.kind == QueueKind::Deliver {
                visit(q, &msg, Step::Delivered)?;
                continue;
            }
            transitions.clear();
            rf.for_each_transition(q, &msg, &mut |t| transitions.push(t));
            if transitions.is_empty() {
                visit(q, &msg, Step::DeadEnd)?;
                continue;
            }
            succ.clear();
            for t in transitions.iter() {
                let j = intern(index, states, (t.to, t.msg.clone()));
                if t.to == q && t.kind == LinkKind::Static {
                    stutter.push((cur, j));
                }
                succ.push(j);
            }
            visit(q, &msg, Step::Expanded { transitions, succ })?;
        }
        if let Some(s) = stutter_cycle(stutter) {
            let (q, msg) = &states[s as usize];
            visit(*q, msg, Step::StutterCycle)?;
        }
        Ok(states.len())
    }
}

/// Dense id of `key`, appending it to `states` (the BFS work queue) if new.
fn intern<K: Clone + Eq + Hash>(index: &mut FxHashMap<K, u32>, states: &mut Vec<K>, key: K) -> u32 {
    match index.entry(key) {
        Entry::Occupied(e) => *e.get(),
        Entry::Vacant(e) => {
            let j = as_u32(states.len());
            states.push(e.key().clone());
            e.insert(j);
            j
        }
    }
}

// Cast audit: state ids are dense positions in one destination's walk,
// which memory bounds far below `u32::MAX` states.
fn as_u32(n: usize) -> u32 {
    u32::try_from(n).expect("state count fits u32")
}

/// Cycle detection over the static stutter transitions of one walk
/// (iterative three-color DFS over the sparse adjacency, roots in
/// ascending id order; returns a state id on some cycle).
pub fn stutter_cycle(edges: &[(u32, u32)]) -> Option<u32> {
    let mut adj: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    let mut roots: Vec<u32> = adj.keys().copied().collect();
    roots.sort_unstable();
    let mut color: FxHashMap<u32, u8> = FxHashMap::default(); // 1 = gray, 2 = black
    for &start in &roots {
        if color.contains_key(&start) {
            continue;
        }
        color.insert(start, 1);
        let mut stack: Vec<(u32, usize)> = vec![(start, 0)];
        while let Some(frame) = stack.last_mut() {
            let v = frame.0;
            let next = adj.get(&v).and_then(|s| s.get(frame.1).copied());
            frame.1 += 1;
            match next {
                Some(w) => match color.get(&w).copied() {
                    Some(1) => return Some(w),
                    Some(_) => {}
                    None => {
                        color.insert(w, 1);
                        stack.push((w, 0));
                    }
                },
                None => {
                    color.insert(v, 2);
                    stack.pop();
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::FxHashSet;
    use crate::verify::test_fixtures::EcubeHypercube;

    #[test]
    fn stutter_cycle_finds_self_loop_and_two_cycle_but_not_chain() {
        assert!(stutter_cycle(&[(3, 3)]).is_some());
        assert!(stutter_cycle(&[(0, 1), (1, 0)]).is_some());
        assert_eq!(stutter_cycle(&[(0, 1), (1, 2)]), None);
    }

    #[test]
    fn walk_visits_the_union_of_the_pair_explorations() {
        let rf = EcubeHypercube::new(3);
        for dst in 0..8 {
            // States are reported in id order, so the k-th is state k.
            let mut walked = Vec::new();
            let mut edges = Vec::new();
            let count = walk_dst(&rf, dst, |q, msg, step| {
                if let Step::Expanded { transitions, succ } = step {
                    assert_eq!(transitions.len(), succ.len());
                    for (t, &j) in transitions.iter().zip(succ) {
                        edges.push(((t.to, t.msg.clone()), j as usize));
                    }
                }
                if !matches!(step, Step::StutterCycle) {
                    walked.push((q, msg.clone()));
                }
                Ok::<(), ()>(())
            })
            .expect("visitor never fails");
            assert_eq!(count, walked.len());
            for (state, j) in edges {
                assert_eq!(walked[j], state, "successor id names the target state");
            }
            let walked: FxHashSet<_> = walked.into_iter().collect();
            assert_eq!(walked.len(), count, "each state is reported once");
            let union: FxHashSet<_> = (0..8)
                .filter(|&src| src != dst)
                .flat_map(|src| explore_pair(&rf, src, dst).states)
                .collect();
            assert_eq!(walked, union, "dst {dst}");
        }
    }

    #[test]
    fn ecube_pair_exploration_is_a_single_path() {
        let rf = EcubeHypercube::new(3);
        let sg = explore_pair(&rf, 0b000, 0b101);
        // Oblivious: one injection state, one state per hop node, one
        // delivery state; dims 0 then 2 corrected.
        let nodes: Vec<_> = sg.states.iter().map(|(q, _)| q.node).collect();
        assert_eq!(nodes, vec![0b000, 0b000, 0b001, 0b101, 0b101]);
        assert!(sg.is_delivered(4));
        assert!(!sg.is_delivered(3));
    }

    #[test]
    fn ecube_qdg_is_static_only_but_cyclic() {
        // Single-queue store-and-forward e-cube: the QDG contains e.g.
        // q[00] -> q[01] -> q[11] -> q[10] -> q[00].
        let rf = EcubeHypercube::new(3);
        let qdg = build_qdg(&rf);
        assert!(qdg.dynamic_edges.is_empty());
        assert!(!qdg.static_is_acyclic());
        assert!(qdg.static_cycle().is_some());
        // Levels are undefined on a cyclic static QDG: callers get None,
        // not a panic (the fuzzer feeds cyclic QDGs deliberately).
        assert!(qdg.static_levels().is_none());
        // 8 inject + 8 central + 8 deliver queues.
        assert_eq!(qdg.queues.len(), 24);
    }

    #[test]
    fn hang_static_levels_start_at_injection() {
        use crate::verify::test_fixtures::HangHypercubeStatic;
        let rf = HangHypercubeStatic::new(3);
        let qdg = build_qdg(&rf);
        assert!(qdg.static_is_acyclic());
        let levels = qdg.static_levels().expect("acyclic static QDG has levels");
        // Injection queues are sources (level 0), and phase-B queues sit
        // strictly above the phase-A queue of the same node.
        for v in 0..rf.topology().num_nodes() {
            assert_eq!(levels[&QueueId::inject(v)], 0);
            // q_A of the all-ones node is never used (phase A requires a
            // pending 0→1 correction), so compare only where both exist.
            if let (Some(a), Some(b)) = (
                levels.get(&QueueId::central(v, 0)),
                levels.get(&QueueId::central(v, 1)),
            ) {
                assert!(b > a, "node {v}: level(qB)={b} <= level(qA)={a}");
            }
        }
    }
}
