//! Lint ↔ certifier parity, the contract that makes the lint gate
//! fail-closed: on every draw of scheme × topology × mutation,
//!
//! 1. a lint run with **zero errors** implies the certifier accepts
//!    (so a clean lint gate never ships a scheme the certifier would
//!    reject), and
//! 2. when the certifier rejects, the lint battery reports at least one
//!    error whose lint is consistent with the certifier's violation
//!    (so every rejection is *localized* to a named paper clause).
//!
//! Draws are seeded and deterministic; the mutation wrapper breaks
//! schemes the same two ways real implementations historically have:
//! demoting a node's static links to dynamic (violating § 2 condition 3)
//! and dropping a node's transitions outright (a dead end). Shrunk
//! minimal repros found by earlier sweeps are pinned as dedicated tests
//! at the bottom.

use fadr_core::{
    EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang, MeshFullyAdaptive, MeshStaticHang,
    MeshXY, ShuffleExchangeRouting, TorusTwoPhase,
};
use fadr_lint::{lint_scheme, LintConfig, LintId, Report};
use fadr_qdg::sym::Symmetry;
use fadr_qdg::verify::test_fixtures::EcubeHypercube;
use fadr_qdg::{BufferClass, LinkKind, QueueId, RoutingFunction, Transition};
use fadr_topology::{NodeId, Port, Topology};
use fadr_verify::{certify, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a draw sabotages the wrapped scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    /// Leave the scheme alone (parity direction 1).
    None,
    /// All static links leaving the node's queues become dynamic: every
    /// state there loses its static continuation (§ 2 condition 3).
    DemoteStatic(NodeId),
    /// The node's queues emit no transitions at all: a dead end.
    DropTransitions(NodeId),
}

/// A scheme with one node's behavior sabotaged per [`Mutation`].
struct Mutated<R: RoutingFunction> {
    inner: R,
    mutation: Mutation,
}

impl<R: RoutingFunction> RoutingFunction for Mutated<R> {
    type Msg = R::Msg;

    fn topology(&self) -> &dyn Topology {
        self.inner.topology()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn initial_msg(&self, src: NodeId, dst: NodeId) -> Self::Msg {
        self.inner.initial_msg(src, dst)
    }

    fn destination(&self, msg: &Self::Msg) -> NodeId {
        self.inner.destination(msg)
    }

    fn deliverable(&self, node: NodeId, msg: &Self::Msg) -> bool {
        self.inner.deliverable(node, msg)
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &Self::Msg,
        f: &mut dyn FnMut(Transition<Self::Msg>),
    ) {
        match self.mutation {
            Mutation::DropTransitions(node) if at.node == node => {}
            Mutation::DemoteStatic(node) if at.node == node => {
                self.inner.for_each_transition(at, msg, &mut |mut t| {
                    t.kind = LinkKind::Dynamic;
                    f(t);
                });
            }
            _ => self.inner.for_each_transition(at, msg, f),
        }
    }

    fn buffer_classes(&self, node: NodeId, port: Port) -> Vec<BufferClass> {
        self.inner.buffer_classes(node, port)
    }

    fn is_minimal(&self) -> bool {
        self.inner.is_minimal()
    }

    fn max_hops(&self) -> usize {
        self.inner.max_hops()
    }

    fn name(&self) -> String {
        format!("{} [{:?}]", self.inner.name(), self.mutation)
    }
}

// Identity symmetry: sound for any scheme, and exactly what the lint
// engine uses anyway.
impl<R: RoutingFunction> Symmetry for Mutated<R> {}

/// The lints consistent with a certifier violation detail. The
/// certifier's messages are stable (`crates/verify/src/classgraph.rs`
/// and the cycle path in `lib.rs`), so substring matching is exact.
fn consistent_lints(detail: &str) -> Vec<LintId> {
    if detail.contains("dead end") {
        vec![LintId::DeadEnd]
    } else if detail.contains("condition 3") {
        vec![LintId::NoStaticEscape]
    } else if detail.contains("stutter cycle") {
        vec![LintId::StutterCycle]
    } else if detail.contains("delivered at wrong node") {
        vec![LintId::WrongDelivery]
    } else if detail.contains("cycle") {
        vec![LintId::ClassCapacityExhausted, LintId::UnrankableClassOrder]
    } else {
        Vec::new()
    }
}

/// The parity oracle run on one draw.
fn check_parity<R: Symmetry>(rf: &R) {
    let report = lint_scheme(rf, &LintConfig::default());
    let outcome = certify(rf);
    match outcome {
        Outcome::Certified(_) => {
            assert_eq!(
                report.errors(),
                0,
                "{}: certifier accepted but lint found errors:\n{}",
                rf.name(),
                report.render_text()
            );
        }
        Outcome::Rejected(rej) => {
            assert!(
                report.errors() > 0,
                "{}: certifier rejected ({}) but lint is clean",
                rf.name(),
                rej.violation.detail
            );
            let expected = consistent_lints(&rej.violation.detail);
            assert!(
                !expected.is_empty(),
                "{}: unmapped certifier violation: {}",
                rf.name(),
                rej.violation.detail
            );
            assert!(
                expected.iter().any(|&l| report.has(l)),
                "{}: certifier violation `{}` expects one of {:?}, lint found:\n{}",
                rf.name(),
                rej.violation.detail,
                expected,
                report.render_text()
            );
        }
    }
}

fn mutations(rng: &mut StdRng, nodes: usize) -> Vec<Mutation> {
    // Mutated nodes > 0 so injection at node 0 still seeds exploration.
    let v = rng.gen_range(1..nodes);
    vec![
        Mutation::None,
        Mutation::DemoteStatic(v),
        Mutation::DropTransitions(v),
    ]
}

fn check_family(rng: &mut StdRng, family: usize) {
    match family {
        0 => {
            let n = rng.gen_range(2..=3usize);
            for m in mutations(rng, 1 << n) {
                check_parity(&Mutated {
                    inner: HypercubeFullyAdaptive::new(n),
                    mutation: m,
                });
            }
        }
        1 => {
            let n = rng.gen_range(2..=3usize);
            for m in mutations(rng, 1 << n) {
                check_parity(&Mutated {
                    inner: HypercubeStaticHang::new(n),
                    mutation: m,
                });
            }
        }
        2 => {
            let n = rng.gen_range(2..=3usize);
            for m in mutations(rng, 1 << n) {
                check_parity(&Mutated {
                    inner: EcubeSbp::new(n),
                    mutation: m,
                });
            }
        }
        3 => {
            let (w, h) = (rng.gen_range(2..=3usize), rng.gen_range(2..=3usize));
            for m in mutations(rng, w * h) {
                check_parity(&Mutated {
                    inner: MeshFullyAdaptive::new(w, h),
                    mutation: m,
                });
            }
        }
        4 => {
            let (w, h) = (rng.gen_range(2..=3usize), rng.gen_range(2..=3usize));
            for m in mutations(rng, w * h) {
                check_parity(&Mutated {
                    inner: MeshStaticHang::new(w, h),
                    mutation: m,
                });
            }
        }
        5 => {
            let (w, h) = (rng.gen_range(2..=3usize), rng.gen_range(2..=3usize));
            for m in mutations(rng, w * h) {
                check_parity(&Mutated {
                    inner: MeshXY::new(w, h),
                    mutation: m,
                });
            }
        }
        6 => {
            let (w, h) = (rng.gen_range(3..=4usize), rng.gen_range(3..=4usize));
            for m in mutations(rng, w * h) {
                check_parity(&Mutated {
                    inner: TorusTwoPhase::new(w, h),
                    mutation: m,
                });
            }
        }
        _ => {
            let n = rng.gen_range(2..=3usize);
            for m in mutations(rng, 1 << n) {
                check_parity(&Mutated {
                    inner: ShuffleExchangeRouting::new(n),
                    mutation: m,
                });
            }
        }
    }
}

#[test]
fn randomized_draws_hold_parity() {
    // 2 seeds x 8 families x 3 mutations = 48 draws, all deterministic.
    for seed in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(0xFAD2_0000 + seed);
        for family in 0..8 {
            check_family(&mut rng, family);
        }
    }
}

#[test]
fn rejected_paper_literal_se4_maps_to_capacity_lint() {
    // The known real-world rejection: § 6's literal "two classes per
    // phase" provisioning on composite n. The certifier's static-cycle
    // counterexample and the capacity lint must agree.
    check_parity(&ShuffleExchangeRouting::paper_literal(4));
}

// --- Shrunk minimal repros, pinned as regressions ---------------------

fn errors_of<R: Symmetry>(rf: &R) -> Report {
    lint_scheme(rf, &LintConfig::default())
}

/// Smallest demotion repro: 2-cube fully-adaptive, node 1 demoted.
/// Certifier: "condition 3 violated"; lint: no-static-escape.
#[test]
fn regression_demoted_node_is_condition_3() {
    let rf = Mutated {
        inner: HypercubeFullyAdaptive::new(2),
        mutation: Mutation::DemoteStatic(1),
    };
    check_parity(&rf);
    let report = errors_of(&rf);
    assert!(
        report.has(LintId::NoStaticEscape),
        "{}",
        report.render_text()
    );
}

/// Smallest drop repro: 2x2 mesh XY, node 3 silenced. Certifier: "dead
/// end"; lint: dead-end.
#[test]
fn regression_dropped_node_is_dead_end() {
    let rf = Mutated {
        inner: MeshXY::new(2, 2),
        mutation: Mutation::DropTransitions(3),
    };
    check_parity(&rf);
    let report = errors_of(&rf);
    assert!(report.has(LintId::DeadEnd), "{}", report.render_text());
}

/// The classic store-and-forward deadlock (single-queue e-cube on the
/// 2-cube): its static cycle is confined to the one class, so the lint
/// classifies it as a provisioning bug, consistent with the certifier's
/// cycle counterexample.
#[test]
fn regression_single_queue_ecube_is_capacity_exhausted() {
    let rf = EcubeHypercube::new(2);
    check_parity(&rf);
    let report = errors_of(&rf);
    assert!(
        report.has(LintId::ClassCapacityExhausted),
        "{}",
        report.render_text()
    );
}

/// Lint and the certifier's exact pass walk the same states: same state
/// and queue counts on every clean family (counts pinned at the values
/// both tools reported before they shared one walker).
#[test]
fn lint_and_certifier_explore_the_same_states() {
    fn counts<R: Symmetry>(rf: &R) -> [(usize, usize); 2] {
        let report = lint_scheme(rf, &LintConfig::default());
        let cg = fadr_verify::classgraph::build(&fadr_verify::Concrete(rf), true)
            .expect("clean scheme builds");
        [
            (report.states_explored, report.queues_seen),
            (cg.states_explored, cg.queues_seen),
        ]
    }
    assert_eq!(counts(&HypercubeFullyAdaptive::new(6)), [(8192, 191); 2]);
    assert_eq!(counts(&MeshFullyAdaptive::new(6, 6)), [(2592, 107); 2]);
    assert_eq!(counts(&TorusTwoPhase::new(6, 6)), [(4620, 167); 2]);
    assert_eq!(counts(&ShuffleExchangeRouting::new(6)), [(25434, 309); 2]);
}
