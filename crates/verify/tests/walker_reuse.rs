//! One `fadr_qdg::explore::Walker` held across destinations — as the
//! class-graph builder and the lint engine hold it — reports exactly
//! what a fresh `walk_dst` reports for every destination, including
//! after a walk its visitor stopped partway.

use fadr_core::{HypercubeFullyAdaptive, MeshFullyAdaptive, ShuffleExchangeRouting, TorusTwoPhase};
use fadr_qdg::explore::{walk_dst, Step, Walker};
use fadr_qdg::{QueueId, RoutingFunction};

/// One reported state: queue, message, step kind and successor ids.
type Event<M> = (QueueId, M, &'static str, Vec<u32>);

fn event<M: Clone>(q: QueueId, msg: &M, step: &Step<'_, M>) -> Event<M> {
    let (kind, succ) = match step {
        Step::Delivered => ("delivered", Vec::new()),
        Step::DeadEnd => ("dead-end", Vec::new()),
        Step::Expanded { transitions, succ } => {
            assert_eq!(transitions.len(), succ.len());
            ("expanded", succ.to_vec())
        }
        Step::StutterCycle => ("stutter-cycle", Vec::new()),
    };
    (q, msg.clone(), kind, succ)
}

fn fresh<R: RoutingFunction>(rf: &R, dst: usize) -> (usize, Vec<Event<R::Msg>>) {
    let mut events = Vec::new();
    let count = walk_dst(rf, dst, |q, msg, step| {
        events.push(event(q, msg, &step));
        Ok::<(), ()>(())
    })
    .expect("visitor never fails");
    (count, events)
}

fn reused<R: RoutingFunction>(
    walker: &mut Walker<R::Msg>,
    rf: &R,
    dst: usize,
) -> (usize, Vec<Event<R::Msg>>) {
    let mut events = Vec::new();
    let count = walker
        .walk(rf, dst, |q, msg, step| {
            events.push(event(q, msg, &step));
            Ok::<(), ()>(())
        })
        .expect("visitor never fails");
    (count, events)
}

/// Every destination in order on one walker, then every destination
/// again after a walk of the previous one aborted halfway.
fn assert_reuse_matches_fresh<R: RoutingFunction>(rf: &R, what: &str) {
    let n = rf.topology().num_nodes();
    let expected: Vec<_> = (0..n).map(|dst| fresh(rf, dst)).collect();
    let mut walker = Walker::new();
    for (dst, want) in expected.iter().enumerate() {
        assert_eq!(&reused(&mut walker, rf, dst), want, "{what}: dst {dst}");
    }
    for (dst, want) in expected.iter().enumerate() {
        let prev = (dst + n - 1) % n;
        let stop_after = expected[prev].0 / 2;
        let mut seen = 0;
        let aborted = walker.walk(rf, prev, |_, _, _| {
            seen += 1;
            if seen > stop_after {
                Err(seen)
            } else {
                Ok(())
            }
        });
        assert_eq!(aborted, Err(stop_after + 1), "{what}: abort of dst {prev}");
        assert_eq!(
            &reused(&mut walker, rf, dst),
            want,
            "{what}: dst {dst} after an aborted walk of dst {prev}"
        );
    }
}

#[test]
fn reused_walker_matches_fresh_walks_on_every_family() {
    assert_reuse_matches_fresh(&HypercubeFullyAdaptive::new(4), "hypercube(4)");
    assert_reuse_matches_fresh(&MeshFullyAdaptive::new(5, 5), "mesh 5x5");
    assert_reuse_matches_fresh(&TorusTwoPhase::new(4, 4), "torus 4x4");
    assert_reuse_matches_fresh(&ShuffleExchangeRouting::new(4), "SE(4) adaptive");
    assert_reuse_matches_fresh(
        &ShuffleExchangeRouting::paper_literal(4),
        "SE(4) paper-literal",
    );
}
