//! The scheme-lint engine: one exact walk per destination over the
//! concrete instance (identity classifier, all destinations — lints
//! never trust a scheme's symmetry declaration), accumulating per-state
//! findings and the concrete static QDG for the order lints.
//!
//! The walk is the certifier's: one `fadr_qdg::explore::Walker`, held
//! across all destinations and seeded with *every* source's injection
//! state, visits exactly the union of the per-pair state graphs in O(N)
//! walks instead of O(N²) explorations. The lints add findings with
//! dedup sets, the minimality and buffer-class checks, and the order
//! lints over the static QDG.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;

use fadr_qdg::explore::{Step, Walker};
use fadr_qdg::graph::Digraph;
use fadr_qdg::hasher::{FxHashMap, FxHashSet};
use fadr_qdg::sym::Symmetry;
use fadr_qdg::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, Transition};
use fadr_topology::graph::reverse_adjacency;
use fadr_topology::NodeId;

use crate::{Collector, Finding, LintId};

/// Exploration statistics surfaced in the [`crate::Report`].
pub(crate) struct Stats {
    pub states_explored: usize,
    pub queues_seen: usize,
}

/// A concrete witness for a static QDG edge: some route to `dst` in
/// message state `msg` takes the hop (the edge's endpoints are already
/// named by the enclosing cycle finding).
struct EdgeWitness {
    dst: NodeId,
    msg: String,
}

pub(crate) fn run<R: Symmetry + ?Sized>(rf: &R, col: &mut Collector<'_>) -> Stats {
    let topo = rf.topology();
    let n = topo.num_nodes();
    // Reverse adjacency once; per-destination reverse BFS gives exact
    // distance-to-dst tables even on directed topologies (the shuffle
    // part of SE is one-way), without O(states) `Topology::distance`
    // calls whose default implementation BFSes per query.
    let check_minimal = rf.is_minimal() && col.enabled(LintId::NonMinimalHop);
    let rev = if check_minimal {
        Some(reverse_adjacency(topo))
    } else {
        None
    };

    // Dense static-QDG vertex index → queue, and back.
    let mut queues: Vec<QueueId> = Vec::new();
    let mut vertex: FxHashMap<QueueId, usize> = FxHashMap::default();
    let mut static_g = Digraph::default();
    let mut witnesses: FxHashMap<(usize, usize), EdgeWitness> = FxHashMap::default();
    let mut stats = Stats {
        states_explored: 0,
        queues_seen: 0,
    };
    // Dedup sets so a violation reported once per queue (or queue pair)
    // does not recur for every destination exhibiting it.
    let mut dead_end_seen: FxHashSet<QueueId> = FxHashSet::default();
    let mut wrong_delivery_seen: FxHashSet<QueueId> = FxHashSet::default();
    let mut no_escape_seen: FxHashSet<QueueId> = FxHashSet::default();
    let mut stutter_seen: FxHashSet<QueueId> = FxHashSet::default();
    let mut nonminimal_seen: FxHashSet<(QueueId, QueueId)> = FxHashSet::default();
    let mut queues_seen: FxHashSet<QueueId> = FxHashSet::default();
    // (node, port, buffer class) → whether the channel declares the class,
    // for every channel buffer some route uses; the channel's declaration
    // is fetched once per entry, not once per hop.
    let mut used_buffers: FxHashMap<(NodeId, usize, BufferClass), bool> = FxHashMap::default();
    let mut used_central_classes: BTreeSet<u8> = BTreeSet::new();

    let mut walker = Walker::new();
    for dst in 0..n {
        let dist_to_dst = rev.as_deref().map(|rev| reverse_bfs(rev, dst));
        let finding = |lint, message, at: Vec<QueueId>, msg: &R::Msg| Finding {
            lint,
            message,
            nodes: at.iter().map(|q| q.node).collect(),
            queues: at,
            dst: Some(dst),
            state: Some(format!("{msg:?}")),
        };
        let walked = walker.walk(rf, dst, |q, msg, step| {
            let transitions = match step {
                Step::Delivered => {
                    if q.node != dst && wrong_delivery_seen.insert(q) {
                        let message = format!("delivered at node {} instead of {dst}", q.node);
                        col.emit(finding(LintId::WrongDelivery, message, vec![q], msg));
                    }
                    return Ok(());
                }
                Step::DeadEnd => {
                    if dead_end_seen.insert(q) {
                        let message = format!("no transition at {q}: the message is stuck");
                        col.emit(finding(LintId::DeadEnd, message, vec![q], msg));
                    }
                    return Ok(());
                }
                Step::StutterCycle => {
                    if stutter_seen.insert(q) {
                        let message = format!(
                            "static stutter cycle at {q}: states cycle in place without \
                             acquiring a new queue, invisible to the QDG rank argument"
                        );
                        col.emit(finding(LintId::StutterCycle, message, vec![q], msg));
                    }
                    return Ok(());
                }
                Step::Expanded { transitions, .. } => transitions,
            };
            queues_seen.insert(q);
            if let QueueKind::Central(c) = q.kind {
                used_central_classes.insert(c);
            }
            let a = intern(&mut queues, &mut vertex, q);
            let mut has_static = false;
            for t in transitions {
                if let HopKind::Link(port) = t.hop {
                    if let Some(used) = buffer_class_of(t) {
                        let declared = *used_buffers
                            .entry((q.node, port, used))
                            .or_insert_with(|| rf.buffer_classes(q.node, port).contains(&used));
                        check_declared(col, q, port, used, declared, t, dst);
                    }
                    if let Some(dist) = &dist_to_dst {
                        let (du, dv) = (dist[q.node], dist[t.to.node]);
                        if dv.checked_add(1) != Some(du) && nonminimal_seen.insert((q, t.to)) {
                            let message = format!(
                                "hop {q} -> {} does not approach dst {dst} \
                                 (distance {} -> {}) though the scheme claims minimality",
                                t.to,
                                fmt_dist(du),
                                fmt_dist(dv),
                            );
                            col.emit(finding(LintId::NonMinimalHop, message, vec![q, t.to], msg));
                        }
                    }
                }
                if t.kind != LinkKind::Static {
                    continue;
                }
                has_static = true;
                if t.to == q {
                    // A stutter holds its queue slot: no QDG edge (the
                    // walker checks stutter cycles).
                    continue;
                }
                let b = intern(&mut queues, &mut vertex, t.to);
                if !static_g.has_edge(a, b) {
                    static_g.add_edge(a, b);
                    witnesses.insert(
                        (a, b),
                        EdgeWitness {
                            dst,
                            msg: format!("{msg:?}"),
                        },
                    );
                }
            }
            if !has_static && no_escape_seen.insert(q) {
                let message = format!(
                    "state at {q} has only dynamic continuations: a message that \
                     arrived over a dynamic link may never regain the static DAG"
                );
                col.emit(finding(LintId::NoStaticEscape, message, vec![q], msg));
            }
            Ok::<(), Infallible>(())
        });
        let Ok(states) = walked;
        stats.states_explored += states;
    }
    stats.queues_seen = queues_seen.len();

    order_lints(col, &queues, &static_g, &witnesses, rf);
    provisioning_lints(rf, col, &used_buffers, &used_central_classes);
    stats
}

/// Dense static-QDG vertex index of `q`, inserting it if new.
fn intern(queues: &mut Vec<QueueId>, vertex: &mut FxHashMap<QueueId, usize>, q: QueueId) -> usize {
    *vertex.entry(q).or_insert_with(|| {
        queues.push(q);
        queues.len() - 1
    })
}

fn fmt_dist(d: usize) -> String {
    if d == usize::MAX {
        "unreachable".into()
    } else {
        d.to_string()
    }
}

/// Distances *to* `dst` over the reversed adjacency (`usize::MAX` =
/// cannot reach `dst` at all).
fn reverse_bfs(rev: &[Vec<NodeId>], dst: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; rev.len()];
    dist[dst] = 0;
    let mut frontier = vec![dst];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in &rev[v] {
                if dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// The § 6 buffer a link hop occupies on its channel: static traffic has
/// one buffer pair per target central class, dynamic traffic one per
/// channel. Hops landing in non-central queues use no § 6 buffer.
fn buffer_class_of<M>(t: &Transition<M>) -> Option<BufferClass> {
    match (t.kind, t.to.kind) {
        (LinkKind::Dynamic, _) => Some(BufferClass::Dynamic),
        (LinkKind::Static, QueueKind::Central(c)) => Some(BufferClass::Static(c)),
        (LinkKind::Static, _) => None,
    }
}

/// Report the hop's buffer class `used` unless the channel
/// `q.node --port-->` declares it.
fn check_declared<M: std::fmt::Debug>(
    col: &mut Collector<'_>,
    q: QueueId,
    port: usize,
    used: BufferClass,
    declared: bool,
    t: &Transition<M>,
    dst: NodeId,
) {
    if declared || !col.enabled(LintId::UndeclaredBufferClass) {
        return;
    }
    col.emit(Finding {
        lint: LintId::UndeclaredBufferClass,
        message: format!(
            "hop {q} -> {} uses {used:?} on channel {}--port {port}-->, \
             which the channel does not declare",
            t.to, q.node
        ),
        queues: vec![q, t.to],
        nodes: vec![q.node],
        dst: Some(dst),
        state: Some(format!("{:?}", t.msg)),
    });
}

/// The class-order lints over the accumulated concrete static QDG.
///
/// A cyclic static QDG is split by *where* the cycle lives: a cycle
/// confined to a single central class is a provisioning bug (however the
/// classes are ordered, the class cannot break its own cycle — add one,
/// cf. `classes_per_phase`), while a cycle spanning classes means the
/// class order itself admits no rank function.
fn order_lints<R: Symmetry + ?Sized>(
    col: &mut Collector<'_>,
    queues: &[QueueId],
    static_g: &Digraph,
    witnesses: &FxHashMap<(usize, usize), EdgeWitness>,
    rf: &R,
) {
    if static_g.is_acyclic() {
        quotient_lint(col, queues, static_g, rf);
        return;
    }
    let mut classes: BTreeSet<u8> = BTreeSet::new();
    for q in queues {
        if let QueueKind::Central(c) = q.kind {
            classes.insert(c);
        }
    }
    let mut confined = false;
    for &c in &classes {
        if !col.enabled(LintId::ClassCapacityExhausted) {
            break;
        }
        let within = static_g.restricted(&|v| queues[v].kind == QueueKind::Central(c));
        let Some(cycle) = within.shortest_cycle() else {
            continue;
        };
        confined = true;
        let cycle_queues: Vec<QueueId> = cycle.iter().map(|&v| queues[v]).collect();
        let w = witnesses.get(&(cycle[0], cycle[1 % cycle.len()]));
        col.emit(Finding {
            lint: LintId::ClassCapacityExhausted,
            message: format!(
                "static cycle of {} queue(s) confined to central class {c}: no \
                 ordering of the classes can break it — the class is under-provisioned",
                cycle.len()
            ),
            nodes: cycle_queues.iter().map(|q| q.node).collect(),
            queues: cycle_queues,
            dst: w.map(|w| w.dst),
            state: w.map(|w| w.msg.clone()),
        });
    }
    if !confined && col.enabled(LintId::UnrankableClassOrder) {
        let cycle = static_g
            .shortest_cycle()
            .expect("cyclic graph has a shortest cycle");
        let cycle_queues: Vec<QueueId> = cycle.iter().map(|&v| queues[v]).collect();
        let w = witnesses.get(&(cycle[0], cycle[1 % cycle.len()]));
        col.emit(Finding {
            lint: LintId::UnrankableClassOrder,
            message: format!(
                "static QDG cycle of {} queue(s) spanning several buffer classes: \
                 no rank function over the static class order exists",
                cycle.len()
            ),
            nodes: cycle_queues.iter().map(|q| q.node).collect(),
            queues: cycle_queues,
            dst: w.map(|w| w.dst),
            state: w.map(|w| w.msg.clone()),
        });
    }
}

/// With a concrete static QDG that is acyclic, check the scheme's
/// *declared* quotient: if the declared classifier folds the DAG into a
/// cyclic class graph, the certifier will be forced into its exact
/// concrete fallback — legal, but the declared symmetry buys nothing.
fn quotient_lint<R: Symmetry + ?Sized>(
    col: &mut Collector<'_>,
    queues: &[QueueId],
    static_g: &Digraph,
    rf: &R,
) {
    if !rf.is_reduced() || !col.enabled(LintId::NonMonotoneClassOrder) {
        return;
    }
    let mut class_index: BTreeMap<fadr_qdg::sym::QueueClass, usize> = BTreeMap::new();
    let mut class_of = Vec::with_capacity(queues.len());
    for &q in queues {
        let c = rf.queue_class(q);
        let next = class_index.len();
        class_of.push(*class_index.entry(c).or_insert(next));
    }
    let mut quotient = Digraph::new(class_index.len());
    let mut sample: FxHashMap<(usize, usize), (QueueId, QueueId)> = FxHashMap::default();
    for (v, q) in queues.iter().enumerate() {
        for &u in static_g.successors(v) {
            let (a, b) = (class_of[v], class_of[u]);
            // Unlike the concrete graph, a class-level self-loop IS a
            // cycle: two distinct queues of one class depend on each other.
            quotient.add_edge(a, b);
            sample.entry((a, b)).or_insert((*q, queues[u]));
        }
    }
    let Some(cycle) = quotient.shortest_cycle() else {
        return;
    };
    let classes: Vec<String> = {
        let rev: BTreeMap<usize, String> = class_index
            .iter()
            .map(|(c, &i)| (i, c.to_string()))
            .collect();
        cycle.iter().map(|v| rev[v].clone()).collect()
    };
    let (from, to) = sample[&(cycle[0], cycle[1 % cycle.len()])];
    col.emit(Finding {
        lint: LintId::NonMonotoneClassOrder,
        message: format!(
            "declared symmetry quotient is cyclic ({}) although the concrete \
             static QDG is acyclic: the certifier must fall back to the exact pass",
            classes.join(" -> ")
        ),
        queues: vec![from, to],
        nodes: vec![from.node, to.node],
        dst: None,
        state: None,
    });
}

/// The § 6 provisioning warnings: declared-but-unused channel buffers
/// and never-occupied central classes.
fn provisioning_lints<R: Symmetry + ?Sized>(
    rf: &R,
    col: &mut Collector<'_>,
    used_buffers: &FxHashMap<(NodeId, usize, BufferClass), bool>,
    used_central_classes: &BTreeSet<u8>,
) {
    let topo = rf.topology();
    if col.enabled(LintId::ShadowedBufferClass) {
        // Aggregate per buffer class: one warning naming the count of
        // channels shadowing it plus a sample, not one per channel.
        let mut shadowed: BTreeMap<BufferClass, (usize, (NodeId, usize))> = BTreeMap::new();
        for node in 0..topo.num_nodes() {
            for (port, _) in fadr_topology::out_edges(topo, node) {
                for declared in rf.buffer_classes(node, port) {
                    if used_buffers.contains_key(&(node, port, declared)) {
                        continue;
                    }
                    shadowed.entry(declared).or_insert((0, (node, port))).0 += 1;
                }
            }
        }
        for (class, (count, (node, port))) in shadowed {
            col.emit(Finding {
                lint: LintId::ShadowedBufferClass,
                message: format!(
                    "{class:?} is declared but never used on {count} channel(s) \
                     (e.g. {node}--port {port}-->): the buffers cost hardware for nothing"
                ),
                queues: Vec::new(),
                nodes: vec![node],
                dst: None,
                state: None,
            });
        }
    }
    // Class ids are 8-bit throughout the § 6 buffer encoding; a scheme
    // declaring more classes than fit is a structural finding, not a
    // cast panic (the fuzzer's mutation axis constructs exactly this).
    if rf.num_classes() > 256 {
        col.emit(Finding {
            lint: LintId::ClassCountOverflow,
            message: format!(
                "num_classes = {} exceeds the 256-class id space of the \
                 § 6 buffer encoding",
                rf.num_classes()
            ),
            queues: Vec::new(),
            nodes: Vec::new(),
            dst: None,
            state: None,
        });
    }
    if col.enabled(LintId::UnreachableClass) {
        for c in 0..rf.num_classes().min(256) {
            let c = u8::try_from(c).expect("class index bounded to 256 above");
            if !used_central_classes.contains(&c) {
                col.emit(Finding {
                    lint: LintId::UnreachableClass,
                    message: format!(
                        "central queue class {c} (of num_classes = {}) is never \
                         occupied by any route",
                        rf.num_classes()
                    ),
                    queues: Vec::new(),
                    nodes: Vec::new(),
                    dst: None,
                    state: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_bfs_on_a_directed_path() {
        // 0 -> 1 -> 2: distances TO 2 are [2, 1, 0]; TO 0 only from 0.
        let rev = vec![vec![], vec![0], vec![1]];
        assert_eq!(reverse_bfs(&rev, 2), vec![2, 1, 0]);
        assert_eq!(reverse_bfs(&rev, 0), vec![0, usize::MAX, usize::MAX]);
    }

    #[test]
    fn stutter_cycle_detects_self_loop_and_two_cycle() {
        // The lint engine uses the shared detector in `fadr_qdg::explore`.
        use fadr_qdg::explore::stutter_cycle;
        assert!(stutter_cycle(&[(3, 3)]).is_some());
        assert!(stutter_cycle(&[(0, 1), (1, 0)]).is_some());
        assert_eq!(stutter_cycle(&[(0, 1), (1, 2)]), None);
    }

    #[test]
    fn buffer_class_of_link_hops() {
        use fadr_qdg::Transition;
        let t = |kind, to: QueueId| Transition {
            kind,
            hop: HopKind::Link(0),
            to,
            msg: (),
        };
        assert_eq!(
            buffer_class_of(&t(LinkKind::Static, QueueId::central(1, 2))),
            Some(BufferClass::Static(2))
        );
        assert_eq!(
            buffer_class_of(&t(LinkKind::Dynamic, QueueId::central(1, 0))),
            Some(BufferClass::Dynamic)
        );
        assert_eq!(
            buffer_class_of(&t(LinkKind::Static, QueueId::deliver(1))),
            None
        );
    }
}
