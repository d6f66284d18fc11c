//! The fill and read kernels of the § 7.1 node cycle, shared by
//! [`crate::Simulator`] (and so every shard) and [`crate::LaneSim`].
//!
//! Both engines keep, per queued packet, a `u64` mask of the fill
//! positions its options target at its node (bit `pos` ⇔ some option
//! stages onto the node's `pos`-th output buffer), and per node a mask
//! of occupied input buffers. Whether those masks exist is decided by
//! the [`Layout`](crate::Layout) predicates `fast_fill` / `fast_read`; a
//! layout failing them (more than 64 output or input buffers at a node,
//! or non-contiguous output ids) runs the per-position [`fill_scan`]
//! and a linear read scan instead.
//!
//! The functions here are pure: they choose *which* packet goes where,
//! and the engine applies the choice to its own packet representation.

use crate::FillOrder;

/// Position at which the fill order starts scanning `n_out` output
/// buffers of `node` on `cycle` (0 for the fixed orders).
#[inline]
pub(crate) fn fill_start(order: FillOrder, cycle: u64, node: usize, n_out: usize) -> usize {
    match order {
        FillOrder::LowToHigh | FillOrder::HighToLow => 0,
        FillOrder::Rotating => rotating_start(cycle, node, n_out),
    }
}

/// Start position for [`FillOrder::Rotating`] at `node` on `cycle`.
///
/// The rotation advances by one buffer per cycle (every buffer still
/// leads exactly once per `n_out` cycles at every node), but each node's
/// phase is offset by a golden-ratio hash of its id: without the offset,
/// every node in a symmetric network prefers the *same* dimension on the
/// same cycle — a lockstep pattern, not the per-node fairness the fill
/// order advertises.
pub(crate) fn rotating_start(cycle: u64, node: usize, n_out: usize) -> usize {
    if n_out == 0 {
        return 0;
    }
    let salt = (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (cycle.wrapping_add(salt) % n_out as u64) as usize
}

/// The fill-order-first position in the non-zero mask `m`: lowest for
/// [`FillOrder::LowToHigh`], highest for [`FillOrder::HighToLow`], and
/// for [`FillOrder::Rotating`] the first at or after `start`, wrapping
/// below it.
#[inline]
pub(crate) fn pick(m: u64, order: FillOrder, start: usize) -> usize {
    debug_assert_ne!(m, 0);
    match order {
        FillOrder::LowToHigh => m.trailing_zeros() as usize,
        FillOrder::HighToLow => 63 - m.leading_zeros() as usize,
        FillOrder::Rotating => {
            let hi = m >> start;
            if hi != 0 {
                start + hi.trailing_zeros() as usize
            } else {
                m.trailing_zeros() as usize
            }
        }
    }
}

/// One FIFO pass of the § 7.1 fill rule over a node's queued packets.
///
/// `fifo` yields `(packet, wants)` in FIFO order (a packet that may not
/// move this cycle, e.g. in a frozen queue, yields `wants == 0`);
/// `avail` holds the positions whose output buffers are empty. Each
/// packet takes the [`pick`] of `wants & avail`, and the `(packet,
/// position)` decisions are appended to `out` in FIFO order.
///
/// This is the same matching as the paper's position-major rule (each
/// position, in fill order, takes its first FIFO wanter): both are the
/// greedy matching under the same two priority orders — the first
/// position with any wanter gets its first wanter in either procedure,
/// and induction on the residual does the rest. The pass stops as soon
/// as every position is taken.
#[inline]
pub(crate) fn fill_pass(
    fifo: impl IntoIterator<Item = (u32, u64)>,
    mut avail: u64,
    order: FillOrder,
    start: usize,
    out: &mut Vec<(u32, u32)>,
) {
    if avail == 0 {
        return;
    }
    for (p, wants) in fifo {
        let m = wants & avail;
        if m == 0 {
            continue;
        }
        let pos = pick(m, order, start);
        out.push((p, pos as u32));
        avail &= !(1u64 << pos);
        if avail == 0 {
            break;
        }
    }
}

/// The position-major fill rule for layouts failing `fast_fill`:
/// `wanting[pos]` lists, in FIFO order, the packets with an option on
/// position `pos` (`0..n_out`). Each position whose buffer is `free`,
/// in fill order, takes its first wanter not already placed. Decisions
/// are appended to `out` as `(packet, position)`.
pub(crate) fn fill_scan(
    wanting: &[Vec<u32>],
    n_out: usize,
    order: FillOrder,
    start: usize,
    free: impl Fn(usize) -> bool,
    out: &mut Vec<(u32, u32)>,
) {
    let first = out.len();
    for i in 0..n_out {
        let pos = match order {
            FillOrder::LowToHigh => i,
            FillOrder::HighToLow => n_out - 1 - i,
            FillOrder::Rotating => (start + i) % n_out,
        };
        if !free(pos) {
            continue;
        }
        let placed = &out[first..];
        if let Some(&p) = wanting[pos]
            .iter()
            .find(|&&p| placed.iter().all(|&(q, _)| q != p))
        {
            out.push((p, pos as u32));
        }
    }
}

/// The occupied read slots of a node in the § 7.1 read pass's rotating
/// order. Slots `0..n_in` are the input buffers (occupied where `inputs`
/// has a bit) and slot `n_in` is the injection buffer; the pass starts
/// at `start` and wraps. Since the injection slot is the last one and
/// `start <= n_in`, the order is: occupied inputs at or above `start`,
/// ascending, then the injection buffer, then occupied inputs below
/// `start`. Equal to a linear scan of every slot from `start` that
/// skips the empty ones.
pub(crate) struct ReadSlots {
    hi: u64,
    lo: u64,
    start: usize,
    inj: Option<usize>,
}

impl ReadSlots {
    /// Iterate a node's occupied slots (`start <= n_in <= 64`).
    #[inline]
    pub(crate) fn new(inputs: u64, n_in: usize, inj: bool, start: usize) -> Self {
        debug_assert!(start <= n_in && n_in <= 64);
        let (hi, lo) = if start == 64 {
            (0, inputs)
        } else {
            (inputs >> start, inputs & ((1u64 << start) - 1))
        };
        Self {
            hi,
            lo,
            start,
            inj: inj.then_some(n_in),
        }
    }
}

impl Iterator for ReadSlots {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.hi != 0 {
            let slot = self.start + self.hi.trailing_zeros() as usize;
            self.hi &= self.hi - 1;
            Some(slot)
        } else if let Some(slot) = self.inj.take() {
            Some(slot)
        } else if self.lo != 0 {
            let slot = self.lo.trailing_zeros() as usize;
            self.lo &= self.lo - 1;
            Some(slot)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn rotating_start_covers_every_position_at_each_node() {
        // Over n_out consecutive cycles each node leads with each buffer
        // exactly once (the rotation is a full cycle, just phase-shifted).
        for node in [0usize, 1, 7, 1000] {
            let mut seen = [false; 5];
            for cycle in 100..105u64 {
                seen[rotating_start(cycle, node, 5)] = true;
            }
            assert!(seen.iter().all(|&s| s), "node {node} missed a position");
        }
    }

    #[test]
    fn rotating_start_is_not_lockstep_across_nodes() {
        // On any single cycle, different nodes lead with different
        // buffers; the pre-fix implementation had every node start at
        // `cycle % n_out` simultaneously.
        let starts: Vec<usize> = (0..16).map(|node| rotating_start(42, node, 4)).collect();
        let distinct = starts
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(
            distinct > 1,
            "all 16 nodes rotated in lockstep: starts {starts:?}"
        );
    }

    /// The paper's rule written out position-major, independent of the
    /// kernel: for each position in fill order whose buffer is empty,
    /// build the FIFO list of packets wanting it and give it to the
    /// first one that has not moved this cycle.
    fn reference(
        wants: &[u64],
        avail: u64,
        n_out: usize,
        order: FillOrder,
        start: usize,
    ) -> Vec<(u32, u32)> {
        let mut moved = vec![false; wants.len()];
        let mut out = Vec::new();
        for i in 0..n_out {
            let pos = match order {
                FillOrder::LowToHigh => i,
                FillOrder::HighToLow => n_out - 1 - i,
                FillOrder::Rotating => (start + i) % n_out,
            };
            if avail >> pos & 1 == 0 {
                continue;
            }
            let wanting: Vec<usize> = (0..wants.len())
                .filter(|&p| wants[p] >> pos & 1 == 1)
                .collect();
            if let Some(&p) = wanting.iter().find(|&&p| !moved[p]) {
                moved[p] = true;
                out.push((p as u32, pos as u32));
            }
        }
        out
    }

    fn random_mask(rng: &mut StdRng, n_out: usize) -> u64 {
        let ones = if n_out == 64 { !0 } else { (1u64 << n_out) - 1 };
        // Mix dense, sparse and single-bit masks.
        match rng.gen_range(0..3u32) {
            0 => rng.next_u64() & ones,
            1 => rng.next_u64() & rng.next_u64() & rng.next_u64() & ones,
            _ => 1u64 << rng.gen_range(0..n_out),
        }
    }

    #[test]
    fn fill_pass_matches_the_position_major_rule() {
        let mut rng = StdRng::seed_from_u64(0xF111);
        let orders = [
            FillOrder::LowToHigh,
            FillOrder::HighToLow,
            FillOrder::Rotating,
        ];
        for case in 0..800 {
            let n_out = if case % 10 == 0 {
                64
            } else {
                rng.gen_range(1..=64usize)
            };
            let len = rng.gen_range(0..=64usize);
            let wants: Vec<u64> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        0
                    } else {
                        random_mask(&mut rng, n_out)
                    }
                })
                .collect();
            let avail = random_mask(&mut rng, n_out);
            for order in orders {
                let starts = if order == FillOrder::Rotating {
                    0..n_out
                } else {
                    0..1
                };
                for start in starts {
                    let want = reference(&wants, avail, n_out, order, start);
                    // The kernel reports decisions in FIFO order, the
                    // reference in fill order: compare as sets.
                    let mut got = Vec::new();
                    fill_pass(
                        wants.iter().enumerate().map(|(p, &w)| (p as u32, w)),
                        avail,
                        order,
                        start,
                        &mut got,
                    );
                    let mut sorted = want.clone();
                    sorted.sort_unstable();
                    got.sort_unstable();
                    assert_eq!(
                        got, sorted,
                        "fill_pass: case {case} {order:?} start {start}"
                    );
                    // The slow path's scan must agree decision for
                    // decision, in fill order.
                    let wanting: Vec<Vec<u32>> = (0..n_out)
                        .map(|pos| {
                            (0..wants.len() as u32)
                                .filter(|&p| wants[p as usize] >> pos & 1 == 1)
                                .collect()
                        })
                        .collect();
                    let mut scanned = Vec::new();
                    fill_scan(
                        &wanting,
                        n_out,
                        order,
                        start,
                        |pos| avail >> pos & 1 == 1,
                        &mut scanned,
                    );
                    assert_eq!(
                        scanned, want,
                        "fill_scan: case {case} {order:?} start {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn read_slots_match_the_rotating_linear_scan() {
        let mut rng = StdRng::seed_from_u64(0x5EAD);
        for case in 0..500 {
            let n_in = if case % 10 == 0 {
                64
            } else {
                rng.gen_range(0..=64usize)
            };
            let inputs = if n_in == 0 {
                0
            } else {
                random_mask(&mut rng, n_in)
            };
            let inj = rng.gen_bool(0.5);
            let slots = n_in + 1;
            let occupied = |s: usize| if s < n_in { inputs >> s & 1 == 1 } else { inj };
            for start in 0..slots {
                let linear: Vec<usize> = (0..slots)
                    .map(|i| (start + i) % slots)
                    .filter(|&s| occupied(s))
                    .collect();
                let got: Vec<usize> = ReadSlots::new(inputs, n_in, inj, start).collect();
                assert_eq!(
                    got, linear,
                    "case {case}: inputs {inputs:#x} n_in {n_in} inj {inj} start {start}"
                );
            }
        }
    }
}
