//! Regression: the lane-batched row runner is bit-identical to the
//! sequential replication loop. `run_row_lanes` runs the `reps`
//! replications of a row as lanes of one `LaneSim` — same per-rep seeds,
//! same reduction — so every statistic must reproduce `run_row` exactly,
//! compared via `f64::to_bits` (no epsilon). This is the contract that
//! lets `tables --lanes R` stand in for `tables --reps R` wholesale.

use fadr_bench::runner::{
    dynamic_random_lanes, run_row, run_row_lanes, run_rows, run_rows_lanes, spec, RunOptions,
};
use fadr_core::HypercubeFullyAdaptive;
use fadr_sim::{LaneSim, SimConfig};

/// Reduced scale so the whole matrix stays fast: small cubes, three
/// replications (so the rep-seed derivation is actually exercised),
/// short dynamic horizon.
fn opts() -> RunOptions {
    RunOptions {
        reps: 3,
        dynamic_cycles: 60,
        ..RunOptions::default()
    }
}

/// One table per workload family: static random (2), static complement
/// (6), dynamic random (9), dynamic leveled (4) — the leveled family is
/// the one that needs the per-lane destination closure, because each
/// replication compiles its own pattern from its own seed.
const TABLES: [usize; 4] = [2, 6, 9, 4];
const DIMS: [usize; 2] = [5, 6];

#[test]
fn run_row_lanes_bitwise_identical_to_run_row() {
    for t in TABLES {
        let s = spec(t);
        for &n in &DIMS {
            let seq = run_row(s, n, opts()).unwrap();
            let lane = run_row_lanes(s, n, opts());
            assert_eq!(lane.n, seq.n, "table {t} n={n}");
            assert_eq!(lane.l_max, seq.l_max, "table {t} n={n}");
            assert_eq!(lane.aborted, seq.aborted, "table {t} n={n}");
            assert_eq!(
                lane.l_avg.to_bits(),
                seq.l_avg.to_bits(),
                "table {t} n={n}: {} != {}",
                lane.l_avg,
                seq.l_avg
            );
            assert_eq!(
                lane.injection_rate.map(f64::to_bits),
                seq.injection_rate.map(f64::to_bits),
                "table {t} n={n}"
            );
        }
    }
}

/// The lane fan-out over dimensions agrees with the sequential fan-out
/// for any job count (the reduction is the same single-threaded path).
#[test]
fn run_rows_lanes_matches_run_rows_across_jobs() {
    let s = spec(9);
    let base = run_rows(s, &DIMS, opts(), 1).unwrap();
    for jobs in [1usize, 4] {
        let lanes = run_rows_lanes(s, &DIMS, opts(), jobs);
        assert_eq!(lanes.len(), base.len());
        for (a, b) in base.iter().zip(&lanes) {
            assert_eq!(a.l_avg.to_bits(), b.l_avg.to_bits(), "jobs={jobs}");
            assert_eq!(a.l_max, b.l_max, "jobs={jobs}");
        }
    }
}

/// A non-default seed and rep count still reproduce: the per-rep seeds
/// are derived from `(seed, table, rep, n)` on both paths.
#[test]
fn custom_seed_and_reps_reproduce() {
    let custom = RunOptions {
        reps: 5,
        seed: 0xD00D,
        dynamic_cycles: 40,
        ..RunOptions::default()
    };
    for t in [6usize, 9] {
        let seq = run_row(spec(t), 5, custom).unwrap();
        let lane = run_row_lanes(spec(t), 5, custom);
        assert_eq!(lane.l_avg.to_bits(), seq.l_avg.to_bits(), "table {t}");
        assert_eq!(lane.l_max, seq.l_max, "table {t}");
    }
}

/// The λ-sweep aggregation: one `LanePoint` folds every lane, its
/// intervals carry the lane count, and the delivered total is the sum
/// over lanes (each lane delivers something at λ = 1 on a small cube).
#[test]
fn dynamic_random_lanes_aggregates_all_lanes() {
    let p = dynamic_random_lanes(
        &mut LaneSim::new(HypercubeFullyAdaptive::new(5), SimConfig::default(), 4),
        1.0,
        60,
    );
    assert_eq!(p.throughput.n, 4, "one throughput sample per lane");
    assert_eq!(p.l_avg.n, 4);
    assert_eq!(p.injection_rate.n, 4);
    assert!(p.delivered > 0);
    assert!(p.throughput.mean > 0.0 && p.throughput.mean <= 1.0);
    assert!(
        p.throughput.half_width.is_finite(),
        "a multi-lane point always has a finite interval"
    );
    // More lanes can only tighten the interval on the same workload
    // distribution in expectation; at minimum the math must not blow up
    // at the smallest admissible count.
    let p2 = dynamic_random_lanes(
        &mut LaneSim::new(HypercubeFullyAdaptive::new(5), SimConfig::default(), 2),
        1.0,
        60,
    );
    assert_eq!(p2.throughput.n, 2);
}
