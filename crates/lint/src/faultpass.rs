//! Fault-plan lints: well-formedness of a `fadr-faults/1` plan against
//! the instance, plus static dead-end analysis of the surviving graph.
//!
//! A destination survives a plan's permanent faults iff every surviving
//! source can still reach it over surviving directed channels — and any
//! such path's shortest form *is* a surviving minimal path, so plain
//! reverse reachability is the exact check. One reverse BFS per
//! surviving destination, mirroring the degraded-mode certifier's
//! per-destination distance tables, finds every `(source, destination)`
//! flow the plan silently kills before any simulation is attempted.

use fadr_qdg::hasher::FxHashSet;
use fadr_qdg::RoutingFunction;
use fadr_sim::{FaultKind, FaultPlan};
use fadr_topology::graph::reverse_adjacency;
use fadr_topology::NodeId;

use crate::{Collector, FaultSummary, Finding, LintId};

pub(crate) fn run<R: RoutingFunction + ?Sized>(
    rf: &R,
    plan: &FaultPlan,
    col: &mut Collector<'_>,
) -> FaultSummary {
    let topo = rf.topology();
    let n = topo.num_nodes();
    validate_events(rf, plan, col);

    let dead_nodes = plan.final_dead_nodes(n);
    let dead_links: FxHashSet<(u32, u32)> = plan.final_dead_links().into_iter().collect();
    let summary = FaultSummary {
        events: plan.events.len(),
        dead_nodes: dead_nodes.iter().filter(|&&d| d).count(),
        dead_links: dead_links.len(),
    };

    if col.enabled(LintId::FaultDeadEnd) {
        // Surviving reverse adjacency: keep a directed channel v -> u iff
        // both endpoints are alive and the link is not itself down.
        let mut rev: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (v, targets) in reverse_adjacency(topo).into_iter().enumerate() {
            // `reverse_adjacency[v]` lists the sources u with u -> v.
            for u in targets {
                let alive = !dead_nodes[u]
                    && !dead_nodes[v]
                    && !dead_links.contains(&(as_u32(u), as_u32(v)));
                if alive {
                    rev[v].push(u);
                }
            }
        }
        for dst in 0..n {
            if dead_nodes[dst] {
                continue;
            }
            let mut reached = vec![false; n];
            reached[dst] = true;
            let mut frontier = vec![dst];
            while let Some(v) = frontier.pop() {
                for &u in &rev[v] {
                    if !reached[u] {
                        reached[u] = true;
                        frontier.push(u);
                    }
                }
            }
            let cut: Vec<NodeId> = (0..n)
                .filter(|&s| s != dst && !dead_nodes[s] && !reached[s])
                .collect();
            if cut.is_empty() {
                continue;
            }
            let survivors = n - summary.dead_nodes - 1;
            col.emit(Finding {
                lint: LintId::FaultDeadEnd,
                message: format!(
                    "destination {dst}: no surviving minimal path from {} of {survivors} \
                     surviving source(s) (e.g. source {}) once the plan's permanent \
                     faults have fired",
                    cut.len(),
                    cut[0],
                ),
                queues: Vec::new(),
                nodes: std::iter::once(dst)
                    .chain(cut.into_iter().take(8))
                    .collect(),
                dst: Some(dst),
                state: None,
            });
        }
    }
    summary
}

/// Well-formedness of each event against the instance: node and class
/// ranges, and link events naming actual directed channels.
fn validate_events<R: RoutingFunction + ?Sized>(rf: &R, plan: &FaultPlan, col: &mut Collector<'_>) {
    let topo = rf.topology();
    let n = topo.num_nodes();
    let in_range = |node: u32| (node as usize) < n;
    for (i, e) in plan.events.iter().enumerate() {
        let describe = |what: &str| format!("event #{i} (cycle {}): {what}", e.cycle);
        match e.kind {
            FaultKind::NodeDown { node } => {
                if !in_range(node) {
                    emit_range(col, describe(&format!("node {node} >= {n} nodes")), &[]);
                }
            }
            FaultKind::QueueFreeze { node, class, .. } => {
                if !in_range(node) {
                    emit_range(col, describe(&format!("node {node} >= {n} nodes")), &[]);
                } else if (class as usize) >= rf.num_classes() {
                    emit_range(
                        col,
                        describe(&format!(
                            "queue class {class} >= num_classes = {}",
                            rf.num_classes()
                        )),
                        &[node as usize],
                    );
                }
            }
            FaultKind::LinkDown { from, to } | FaultKind::FlakyLink { from, to, .. } => {
                if !in_range(from) || !in_range(to) {
                    emit_range(
                        col,
                        describe(&format!("link {from} -> {to} exceeds {n} nodes")),
                        &[],
                    );
                } else if !has_channel(topo, from as usize, to as usize)
                    && col.enabled(LintId::FaultNoopLink)
                {
                    col.emit(Finding {
                        lint: LintId::FaultNoopLink,
                        message: describe(&format!(
                            "{from} -> {to} is not a channel of {}: the event is a no-op",
                            topo.name()
                        )),
                        queues: Vec::new(),
                        nodes: vec![from as usize, to as usize],
                        dst: None,
                        state: None,
                    });
                }
            }
        }
    }
}

fn emit_range(col: &mut Collector<'_>, message: String, nodes: &[NodeId]) {
    col.emit(Finding {
        lint: LintId::FaultOutOfRange,
        message,
        queues: Vec::new(),
        nodes: nodes.to_vec(),
        dst: None,
        state: None,
    });
}

fn has_channel(topo: &dyn fadr_topology::Topology, from: NodeId, to: NodeId) -> bool {
    fadr_topology::out_edges(topo, from)
        .iter()
        .any(|&(_, u)| u == to)
}

fn as_u32(n: usize) -> u32 {
    u32::try_from(n).expect("node id fits u32")
}
