//! Graphviz rendering of queue dependency graphs.
//!
//! Regenerates the paper's Figures 1–3 (the 3-hypercube, 3×3-mesh, and
//! 3-shuffle-exchange hung from a node, with dynamic links drawn dashed).

use std::fmt::Write as _;

use crate::explore::Qdg;
use crate::hasher::FxHashSet;
use crate::QueueKind;

/// Options for QDG rendering.
#[derive(Debug, Clone, Copy, Default)]
pub struct DotOptions {
    /// Include injection queues (the paper's figures omit them).
    pub show_inject: bool,
    /// Include delivery queues (the paper's figures omit them).
    pub show_deliver: bool,
}

/// Render a QDG as Graphviz: solid arrows for static links, dashed for
/// dynamic links, queues labelled by a caller-supplied function.
pub fn qdg_to_dot(
    qdg: &Qdg,
    title: &str,
    label: &dyn Fn(crate::QueueId) -> String,
    opts: DotOptions,
) -> String {
    let visible = |i: usize| match qdg.queues[i].kind {
        QueueKind::Inject => opts.show_inject,
        QueueKind::Deliver => opts.show_deliver,
        QueueKind::Central(_) => true,
    };
    let dynamic: FxHashSet<(usize, usize)> = qdg.dynamic_edges.iter().copied().collect();
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{title}\" {{");
    let _ = writeln!(out, "  node [shape=box fontsize=10];");
    for (i, &q) in qdg.queues.iter().enumerate() {
        if visible(i) {
            let _ = writeln!(out, "  v{} [label=\"{}\"];", i, label(q));
        }
    }
    for a in 0..qdg.queues.len() {
        if !visible(a) {
            continue;
        }
        for &b in qdg.full_graph.successors(a) {
            if !visible(b) {
                continue;
            }
            if qdg.static_graph.has_edge(a, b) {
                let _ = writeln!(out, "  v{a} -> v{b};");
            }
            if dynamic.contains(&(a, b)) {
                let _ = writeln!(out, "  v{a} -> v{b} [style=dashed];");
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::build_qdg;
    use crate::verify::test_fixtures::HangHypercubeStatic;

    #[test]
    fn renders_central_queues_only_by_default() {
        let qdg = build_qdg(&HangHypercubeStatic::new(2));
        let dot = qdg_to_dot(&qdg, "hang(2)", &|q| q.to_string(), DotOptions::default());
        assert!(dot.contains("digraph \"hang(2)\""));
        assert!(dot.contains("q0[0]"));
        assert!(!dot.contains("i[0]"));
        assert!(!dot.contains("d[0]"));
        // No dynamic links in the static hang.
        assert!(!dot.contains("dashed"));
    }

    #[test]
    fn renders_all_queues_when_asked() {
        let qdg = build_qdg(&HangHypercubeStatic::new(2));
        let opts = DotOptions {
            show_inject: true,
            show_deliver: true,
        };
        let dot = qdg_to_dot(&qdg, "hang(2)", &|q| q.to_string(), opts);
        assert!(dot.contains("i[0]"));
        assert!(dot.contains("d[3]"));
    }
}
