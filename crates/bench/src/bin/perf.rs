//! Wall-clock perf baseline over the canonical workloads.
//!
//! ```text
//! perf [--samples S] [--jobs J] [--shards S] [--partition P] [--out PATH] [--quick | --large]
//! perf --compare self  [--samples S] [--lanes R]   # harness sanity: A = B must be within-noise
//! perf --compare lanes [--samples S] [--lanes R]   # batched lanes vs R sequential runs
//! ```
//!
//! Times Table 1 and Table 6 rows at n = 10–12 plus one dynamic row
//! (Table 9, n = 10), the Table-6 row fan-out at `--jobs 1` vs
//! `--jobs J`, and (when `--shards > 1`) a Table 9 row on the sequential
//! vs the sharded engine, then writes a `BENCH_<stamp>.json` report
//! (stamp = Unix seconds) for before/after comparisons across PRs; see
//! EXPERIMENTS.md for the recorded history.
//!
//! * `--samples S` — timed samples per workload (default 3; plus one
//!   warm-up each).
//! * `--jobs J` — worker threads for the parallel fan-out measurement
//!   (default: available parallelism).
//! * `--shards S` — shard threads for the intra-simulation speedup
//!   measurements (default 4).
//! * `--partition P` — shard partition strategy
//!   (`auto|contiguous|hamming|bisection|bfs`, default `auto`); the
//!   measured cut fraction is printed per scenario and never changes
//!   results.
//! * `--out PATH` — report path (default `BENCH_<stamp>.json` in the
//!   current directory).
//! * `--quick` — n = 10 only (fast smoke run).
//! * `--large` — *instead of* the table workloads, run the
//!   million-packet scale scenarios: a hypercube(16) and a 256×256 mesh
//!   dynamic run (λ = 1, ≥10⁶ delivered packets each) on the sequential
//!   engine vs `--shards S` shard threads, recording delivered-packet
//!   counts and the sharded speedup in the report's metadata. These
//!   minutes-long runs are timed cold (no warm-up iteration).
//! * `--trace PATH` / `--metrics-out PATH` / `--watchdog K` — after the
//!   timed (recorder-free) measurements, re-run one Table 6 and one
//!   Table 9 row with recording sinks and print a metrics summary
//!   block; the instrumented re-runs are *not* timed, so the baseline
//!   numbers stay comparable across PRs.
//! * `--faults PLAN.json` — inject a `fadr-faults/1` plan into the
//!   table workloads and the instrumented re-runs (measures the
//!   degraded-mode overhead; the `--large` scenarios ignore it).
//! * `--compare self` — time the same workload twice, interleaved, and
//!   demand a within-noise verdict; any directional verdict exits
//!   nonzero. This is the fail-closed sanity check of the statistical
//!   harness itself: a comparison method that can call identical code
//!   "faster" would also launder noise into fake regressions.
//! * `--compare lanes` — the lane engine's acceptance measurement:
//!   `--lanes R` (default 32) replications of a hypercube(8) λ = 1
//!   dynamic run, batched in one `fadr_sim::LaneSim` vs R standalone
//!   sequential runs, interleaved. Asserts per-lane delivered counts
//!   are bit-identical across engines and reports the aggregate
//!   replication-throughput speedup (delivered packets per wall-clock
//!   second) with an overlap-aware verdict. The speedup is recorded in
//!   EXPERIMENTS.md, not asserted: wall-clock thresholds in CI are
//!   flakes waiting to happen.
//!
//! Exit codes follow the workspace convention: 0 on success (and for
//! `--help`, which prints to stdout), 1 when `--compare self` claims a
//! direction, 2 on a usage or I/O error.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use fadr_bench::exec;
use fadr_bench::obs::{self, MetricsRow, ObsArgs};
use fadr_bench::perf::{compare, compare_line, report_line, time, time_cold, to_json, Measurement};
use fadr_bench::runner::{dims_for, run_row, run_rows_recorded, run_table_dims, spec, RunOptions};
use fadr_core::{HypercubeFullyAdaptive, MeshFullyAdaptive};
use fadr_metrics::Verdict;
use fadr_qdg::RoutingFunction;
use fadr_sim::{lane_seeds, LaneSim, PartitionStrategy, ShardedSimulator, SimConfig, Simulator};
use fadr_workloads::Pattern;

/// [`time`] for a harness run, which fails only on a checkpoint/resume
/// snapshot it cannot read, restore or write: the error ends the run.
fn time_ok<T>(
    name: &str,
    samples: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<Measurement, String> {
    let mut failed = None;
    let m = time(name, samples, || f().map_err(|e| failed = Some(e)));
    failed.map_or(Ok(m), Err)
}

/// `--compare self`: run the identical workload on both sides of the
/// interleaved harness. The only honest verdict is within-noise;
/// anything directional means the harness itself manufactures signal,
/// so the binary exits nonzero (CI runs this fail-closed).
fn compare_self(samples: usize) -> ExitCode {
    let workload = || run_row(spec(9), 8, RunOptions::default());
    let r = compare("self_a", "self_b", samples, workload, workload);
    println!("{}", compare_line(&r));
    if r.verdict == Verdict::WithinNoise {
        println!("# compare self: ok (identical workloads are indistinguishable)");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "# compare self: FAILED — identical workloads judged {}; the harness is \
             reading noise as signal",
            r.verdict.label()
        );
        ExitCode::FAILURE
    }
}

/// `--compare lanes`: R replications of the hypercube(8) λ = 1 dynamic
/// run, batched as one [`LaneSim`] vs R standalone sequential runs,
/// interleaved. Delivered counts must be bit-identical per lane; the
/// reported number is the aggregate replication throughput speedup.
fn compare_lanes(samples: usize, lanes: usize) -> ExitCode {
    const N: usize = 8;
    const CYCLES: u64 = 300;
    let cfg = SimConfig::default();
    let seeds = lane_seeds(cfg.seed, lanes);
    let size = 1usize << N;
    let dest = move |s: usize, rng: &mut _| Pattern::Random.draw(s, size, rng);

    // The lane engine is built once: its memoized routing table is a
    // construction-time cost amortized over every replication batch,
    // exactly as the sweep harness uses it.
    let mut lane_sim = LaneSim::with_lane_seeds(HypercubeFullyAdaptive::new(N), cfg, seeds.clone());
    println!(
        "# compare lanes: hypercube({N}), lambda 1.0, {CYCLES} cycles, {lanes} lanes \
         ({} memoized routing states)",
        lane_sim.memo_entries()
    );

    let mut seq_delivered: Vec<u64> = Vec::new();
    let mut lane_delivered: Vec<u64> = Vec::new();
    let r = compare(
        &format!("seq_x{lanes}"),
        &format!("lanes_{lanes}"),
        samples,
        || {
            seq_delivered = seeds
                .iter()
                .map(|&seed| {
                    let mut sim =
                        Simulator::new(HypercubeFullyAdaptive::new(N), SimConfig { seed, ..cfg });
                    sim.run_dynamic(1.0, dest, CYCLES).delivered
                })
                .collect();
        },
        || {
            lane_delivered = lane_sim
                .run_dynamic(1.0, dest, CYCLES)
                .iter()
                .map(|res| res.delivered)
                .collect();
        },
    );
    assert_eq!(
        seq_delivered, lane_delivered,
        "per-lane delivered counts diverged between the engines"
    );
    let total: u64 = lane_delivered.iter().sum();
    println!("{}", compare_line(&r));
    println!(
        "# compare lanes: {total} delivered per side (bit-identical per lane), \
         aggregate {:.0} vs {:.0} packets/s, speedup {:.2}x ({})",
        total as f64 / r.a_ci.mean,
        total as f64 / r.b_ci.mean,
        r.a_ci.mean / r.b_ci.mean,
        r.verdict.label()
    );
    ExitCode::SUCCESS
}

/// One `--large` scenario: a dynamic λ = 1 run on the sequential engine
/// vs `shards` shard threads. The horizon is sized so each run delivers
/// well over 10⁶ packets (asserted); sequential and sharded deliver the
/// *bit-identical* packet set, which doubles as an at-scale equivalence
/// check. Returns `(delivered, speedup)` for the report metadata.
fn large_scenario<R>(
    label: &str,
    rf: R,
    cycles: u64,
    samples: usize,
    shards: usize,
    partition: PartitionStrategy,
    measurements: &mut Vec<Measurement>,
) -> (u64, f64)
where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send,
{
    let cfg = SimConfig::default();
    let size = rf.topology().num_nodes();
    let dest = move |s: usize, rng: &mut _| Pattern::Random.draw(s, size, rng);

    let mut seq_sim = Simulator::new(rf.clone(), cfg);
    let mut seq_delivered = 0u64;
    let m_seq = time_cold(&format!("{label}_seq"), samples, || {
        seq_delivered = seq_sim.run_dynamic(1.0, dest, cycles).delivered;
        seq_delivered
    });
    println!("{}", report_line(&m_seq));

    let mut shr_sim = ShardedSimulator::with_strategy(rf, cfg, shards, partition);
    println!("# {label}: partition {}", shr_sim.partition_stats());
    let mut shr_delivered = 0u64;
    let m_shr = time_cold(&format!("{label}_shards{shards}"), samples, || {
        shr_delivered = shr_sim.run_dynamic(1.0, dest, cycles).delivered;
        shr_delivered
    });
    println!("{}", report_line(&m_shr));

    assert_eq!(
        seq_delivered, shr_delivered,
        "{label}: sharded delivered count diverged from sequential"
    );
    assert!(
        seq_delivered >= 1_000_000,
        "{label}: only {seq_delivered} packets delivered; raise the horizon"
    );
    let speedup = m_seq.min() / m_shr.min();
    let cut = shr_sim.partition_stats().cut_fraction();
    println!(
        "# {label}: {seq_delivered} delivered, {speedup:.2}x speedup at {shards} shards \
         (cut {:.1}%)",
        100.0 * cut
    );
    measurements.push(m_seq);
    measurements.push(m_shr);
    (seq_delivered, speedup)
}

const USAGE: &str = "usage: perf [--samples S] [--jobs J] [--shards S] [--partition P] [--out PATH] [--quick | --large] [--lanes R] [--compare self|lanes]";

/// Parsed command line.
struct Cli {
    samples: usize,
    jobs: usize,
    shards: usize,
    partition: PartitionStrategy,
    out: Option<String>,
    quick: bool,
    large: bool,
    lanes: usize,
    compare_mode: Option<String>,
    obs_args: ObsArgs,
}

/// Parse the command line; `Ok(None)` means `--help` was asked for.
fn parse_args() -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        samples: 3,
        jobs: exec::default_jobs(),
        shards: 4,
        partition: PartitionStrategy::Auto,
        out: None,
        quick: false,
        large: false,
        lanes: 32,
        compare_mode: None,
        obs_args: ObsArgs::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--lanes" => {
                cli.lanes = exec::parse_in(
                    "--lanes",
                    Some(&next("--lanes")?),
                    1..=usize::MAX,
                    "a positive integer",
                )?;
            }
            "--compare" => match next("--compare")?.as_str() {
                m @ ("self" | "lanes") => cli.compare_mode = Some(m.to_string()),
                m => return Err(format!("--compare must be self|lanes, got {m:?}")),
            },
            "--samples" => {
                cli.samples = exec::parse_in(
                    "--samples",
                    Some(&next("--samples")?),
                    1..=usize::MAX,
                    "a positive integer",
                )?;
            }
            "--jobs" => cli.jobs = exec::parse_jobs(&next("--jobs")?)?,
            "--out" => cli.out = Some(next("--out")?),
            "--quick" => cli.quick = true,
            "--large" => cli.large = true,
            "--shards" => cli.shards = exec::parse_shards(&next("--shards")?)?,
            "--partition" => {
                cli.partition = next("--partition")?
                    .parse()
                    .map_err(|e: String| format!("--partition: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE} {}", ObsArgs::USAGE);
                return Ok(None);
            }
            other => {
                if !cli.obs_args.parse_flag(other, &mut next)? {
                    return Err(format!("unknown argument {other}"));
                }
            }
        }
    }
    if cli.compare_mode.is_some() && (cli.obs_args.enabled() || cli.obs_args.faults.is_some()) {
        return Err("--compare runs recorder-free; drop the observability/fault flags".into());
    }
    Ok(Some(cli))
}

fn main() -> ExitCode {
    let result = match parse_args() {
        Ok(Some(cli)) => run(cli),
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => Err(format!("{e}\n{USAGE} {}", ObsArgs::USAGE)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(exec::USAGE_ERROR)
    })
}

/// Run the measurements; `Err` is a usage or I/O error (exit 2), while
/// a failed `--compare self` verdict is a finding (exit 1).
fn run(cli: Cli) -> Result<ExitCode, String> {
    let Cli {
        samples,
        jobs,
        shards,
        partition,
        out,
        quick,
        large,
        lanes,
        compare_mode,
        obs_args,
    } = cli;
    if let Some(mode) = compare_mode {
        return Ok(match mode.as_str() {
            "self" => compare_self(samples.max(2)),
            _ => compare_lanes(samples.max(2), lanes),
        });
    }

    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // `--faults` rides every RunOptions-driven workload (the table rows
    // and the instrumented re-runs); the `--large` scenarios stay
    // fault-free so their delivered-count floor keeps holding.
    let faults = obs_args.load_fault_plan()?;
    let snapshot = obs_args.snapshot_policy()?;
    let opts = RunOptions {
        partition,
        faults,
        snapshot,
        ..RunOptions::default()
    };
    let dims: &[usize] = if quick { &[10] } else { &[10, 11, 12] };
    let mut measurements = Vec::new();
    // Shard threads time-slice whatever the host exposes, so a speedup
    // number is only interpretable next to the core count it ran on
    // (a 1-core container caps any --shards N at parity minus overhead).
    let host_threads = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let mut meta = vec![
        ("stamp", stamp.to_string()),
        ("samples", samples.to_string()),
        ("jobs", jobs.to_string()),
        ("quick", quick.to_string()),
        ("large", large.to_string()),
        ("shards", shards.to_string()),
        ("partition", partition.name().to_string()),
        ("host_threads", host_threads.to_string()),
    ];

    if large {
        // Million-packet scale scenarios: dynamic λ = 1 runs sized so
        // each delivers over 10⁶ packets, sequential vs sharded engine.
        let (d, s) = large_scenario(
            "hypercube16_dynamic",
            HypercubeFullyAdaptive::new(16),
            60,
            samples,
            shards,
            partition,
            &mut measurements,
        );
        meta.push(("hypercube16_delivered", d.to_string()));
        meta.push(("hypercube16_speedup", format!("{s:.2}")));
        // 12000 cycles: the saturated 256x256 mesh delivers ever more
        // slowly as its buffers fill toward global saturation
        // (measured cumulative: 281k by cycle 700, 518k by 1800, 830k
        // by 5000 — marginal rate decaying 216 -> 97 packets/cycle),
        // so the horizon carries a large margin: even if the rate
        // quarters again, 12000 cycles clear 10^6 delivered.
        let (d, s) = large_scenario(
            "mesh256_dynamic",
            MeshFullyAdaptive::new(256, 256),
            12_000,
            samples,
            shards,
            partition,
            &mut measurements,
        );
        meta.push(("mesh256_delivered", d.to_string()));
        meta.push(("mesh256_speedup", format!("{s:.2}")));
    } else {
        // Static rows: Table 1 (random, 1 packet) and Table 6 (complement,
        // n packets) — the light and heavy ends of the static workloads.
        for &table in &[1usize, 6] {
            for &n in dims {
                let m = time_ok(&format!("table{table}_n{n}"), samples, || {
                    run_row(spec(table), n, opts)
                })?;
                println!("{}", report_line(&m));
                measurements.push(m);
            }
        }
        // One dynamic row (Table 9: random, λ = 1).
        let m = time_ok("table9_n10_dynamic", samples, || run_row(spec(9), 10, opts))?;
        println!("{}", report_line(&m));
        measurements.push(m);
        // The full Table-6 row fan-out, sequential vs parallel, for the
        // harness speedup trend (one row when `--jobs 1`: names are keys).
        let m = time_ok("table6_rows_jobs1", samples, || {
            run_table_dims(6, &dims_for(spec(6), false), opts, 1)
        })?;
        println!("{}", report_line(&m));
        measurements.push(m);
        if jobs != 1 {
            let m = time_ok(&format!("table6_rows_jobs{jobs}"), samples, || {
                run_table_dims(6, &dims_for(spec(6), false), opts, jobs)
            })?;
            println!("{}", report_line(&m));
            measurements.push(m);
        }
        // One sharded-engine point for the intra-run speedup trend.
        if shards > 1 {
            let shard_opts = RunOptions { shards, ..opts };
            let m = time_ok(&format!("table9_n10_shards{shards}"), samples, || {
                run_row(spec(9), 10, shard_opts)
            })?;
            println!("{}", report_line(&m));
            measurements.push(m);
        }
    }
    let path = out.unwrap_or_else(|| format!("BENCH_{stamp}.json"));
    std::fs::write(&path, to_json(&meta, &measurements))
        .map_err(|e| format!("failed to write {path}: {e}"))?;
    println!("wrote {path}");

    // Instrumented (untimed) re-runs: one static and one dynamic row
    // with recording sinks, for the metrics summary block and exports.
    if obs_args.enabled() {
        let rc = obs_args.record_config();
        let mut metrics = Vec::new();
        for &table in &[6usize, 9] {
            let recorded = run_rows_recorded(spec(table), &[10], opts, 1, rc)?;
            metrics.extend(recorded.iter().map(|r| MetricsRow::from_recorded(table, r)));
        }
        println!("# metrics summary (instrumented re-runs, untimed)");
        obs::report(&metrics);
        obs::export(&obs_args, "FullyAdaptive", &metrics)
            .map_err(|e| format!("failed to write observability output: {e}"))?;
    }
    Ok(ExitCode::SUCCESS)
}
