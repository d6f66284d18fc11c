//! Parameter sweeps emitting CSV series (extension experiments beyond
//! the paper's fixed operating points).
//!
//! ```text
//! sweep lambda [--n N] [--cycles C] [--jobs J] [--shards S] [--lanes R]  # offered load vs throughput/latency/I_r
//! sweep capacity [--n N] [--table K] [--jobs J] [--shards S]             # central-queue capacity vs latency
//! ```
//!
//! `--lanes R` replicates every lambda point across `R` independent RNG
//! lanes of one batched engine (`fadr_sim::LaneSim`) and emits
//! mean ± 95% CI columns instead of single noisy samples (the CSV
//! header changes, so downstream parsing is never silently wrong).
//! The lane sweep runs router-major: each router builds one engine,
//! whose routing-state table is its costly set-up, and runs all eleven
//! λ points on it, so a sweep builds three tables, not thirty-three.
//! Lanes batch clean recorder-free runs only: `--lanes > 1` rejects
//! `--shards > 1`, recording flags, `--faults`, checkpoint/resume, and
//! the capacity mode.
//!
//! `--partition P` picks the shard partition strategy
//! (`auto|contiguous|hamming|bisection|bfs`, default `auto`); a `#`
//! comment line above the CSV reports the resulting cut fraction.
//!
//! Each sweep runs the fully-adaptive algorithm, the static hang, and
//! e-cube + SBP side by side. Sweep points are independent simulations,
//! so they fan out over `--jobs` worker threads (default: available
//! parallelism); the lane sweep fans out its three routers instead, so
//! it gains nothing from more than three jobs. Rows are computed into
//! slots and printed in sweep order, so the CSV is bit-identical for
//! any `--jobs` value. `--shards S` additionally runs each simulation
//! on `S` shard threads (bit-identical for any `S`; composes with
//! `--jobs`).
//!
//! Observability: `--trace PATH`, `--metrics-out PATH`, and
//! `--watchdog K` attach recording sinks to every sweep point; metrics
//! rows carry a `label` identifying the point (the CSV itself is
//! unchanged by recording). `--faults PLAN.json` injects a
//! `fadr-faults/1` plan into every sweep point (degraded-mode routing).
//!
//! Numeric flags parse strictly: `--n` must be a hypercube dimension
//! `1..=30`, `--cycles` positive, `--table` in `1..=12`. Exit codes
//! follow the `lint`/`certify`/`replay` convention: 0 on success, 2 on
//! a usage or I/O error.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use fadr_bench::exec;
use fadr_bench::obs::{self, MetricsRow, ObsArgs, RecordConfig};
use fadr_bench::runner::{
    dynamic_random_recorded, lane_sweep, run_rows_recorded, spec, Algo, RunOptions,
};
use fadr_core::HypercubeFullyAdaptive;
use fadr_qdg::RoutingFunction;
use fadr_sim::{PartitionStrategy, SimConfig, SinkSet};
use fadr_topology::Hypercube;

/// The offered loads of both λ sweeps, in output order.
const LAMBDAS: [f64; 11] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// The command line's run controls, shared by every point of a
/// recorded sweep.
struct Sweep {
    n: usize,
    jobs: usize,
    rc: RecordConfig,
    /// Shards, partition, faults and snapshot policy of every point.
    opts: RunOptions,
}

impl Sweep {
    /// Run `points` sweep points (index `i` is point `i / 3` of router
    /// `i % 3`) over `--jobs` workers, then print `header` and each
    /// point's CSV line in sweep order, bit-identical for any `--jobs`.
    /// A point yields its CSV line, its metrics label and its sinks.
    fn run<F>(
        &self,
        header: &str,
        table: usize,
        points: usize,
        point: F,
    ) -> Result<Vec<MetricsRow>, String>
    where
        F: Fn(usize, Algo) -> Result<(String, String, SinkSet), String> + Sync,
    {
        // All three routers run on the same n-cube, so one `#` comment
        // line reports the shard partition's cut for the whole sweep.
        let (shards, partition) = (self.opts.shards, self.opts.partition);
        if shards > 1 {
            let rf = HypercubeFullyAdaptive::new(self.n);
            let layout = fadr_sim::Layout::new(&rf);
            let shards = shards.clamp(1, layout.num_nodes.max(1));
            if let Ok(part) = fadr_sim::Partition::new(partition, rf.topology(), &layout, shards) {
                println!("# partition: {}", part.stats);
            }
        }
        let results = exec::run_indexed(points * Algo::ALL.len(), self.jobs, |i| {
            point(i / Algo::ALL.len(), Algo::ALL[i % Algo::ALL.len()])
        });
        let results = results.into_iter().collect::<Result<Vec<_>, String>>()?;
        println!("{header}");
        let mut metrics = Vec::new();
        for (line, label, sinks) in results {
            println!("{line}");
            metrics.push(MetricsRow {
                table,
                n: self.n,
                label: Some(label),
                sinks,
            });
        }
        Ok(metrics)
    }

    /// Offered load vs throughput, latency and effective injection rate.
    fn lambda(&self, cycles: u64) -> Result<Vec<MetricsRow>, String> {
        let size = 1usize << self.n;
        self.run(
            "lambda,algo,throughput,l_avg,l_max,injection_rate",
            0,
            LAMBDAS.len(),
            |l, algo| {
                let lambda = LAMBDAS[l];
                // λ points run at the engine's default seed.
                let opts = RunOptions {
                    dynamic_cycles: cycles,
                    seed: SimConfig::default().seed,
                    algo,
                    ..self.opts
                };
                let (res, sinks) = dynamic_random_recorded(lambda, self.n, opts, self.rc)?;
                let name = algo.name();
                let thr = res.delivered as f64 / (size as f64 * cycles as f64);
                let line = format!(
                    "{lambda},{name},{thr:.4},{:.2},{},{:.3}",
                    res.stats.mean(),
                    res.stats.max(),
                    res.injection_rate()
                );
                Ok((line, format!("lambda={lambda} algo={name}"), sinks))
            },
        )
    }

    /// Central-queue capacity vs latency on table `table`'s workload.
    fn capacity(&self, table: usize) -> Result<Vec<MetricsRow>, String> {
        const CAPS: [usize; 8] = [1, 2, 3, 5, 8, 10, 12, 16];
        self.run("capacity,algo,l_avg,l_max", table, CAPS.len(), |c, algo| {
            let cap = CAPS[c];
            let opts = RunOptions {
                queue_capacity: cap,
                algo,
                ..self.opts
            };
            // One dimension, one rep: the recorded row is the sweep point.
            let mut recorded = run_rows_recorded(spec(table), &[self.n], opts, 1, self.rc)?;
            let rec = recorded.remove(0);
            let line = format!(
                "{cap},{},{:.2},{}",
                algo.name(),
                rec.row.l_avg,
                rec.row.l_max
            );
            Ok((line, format!("cap={cap} algo={}", algo.name()), rec.sinks))
        })
    }
}

/// The lane-batched λ sweep, run router-major: each router builds one
/// lane engine — and with it the routing-state table, the engine's one
/// expensive set-up — and runs every λ on it in order
/// ([`lane_sweep`]). Routers fan out over `--jobs`; each work unit drops
/// its engine when it finishes, so at `--jobs 1` only one table is alive
/// at a time. Every point runs `lanes` independent replications
/// (per-lane RNG streams split from the base seed) and reports
/// mean ± 95% CI per column. Rows print in λ-major, router-minor order,
/// bit-identical for any `--jobs` value.
fn lambda_sweep_lanes(n: usize, cycles: u64, jobs: usize, lanes: usize) {
    let rows = exec::run_indexed(Algo::ALL.len(), jobs, |i| {
        lane_sweep(Algo::ALL[i], n, &LAMBDAS, cycles, lanes)
    });
    println!(
        "lambda,algo,throughput_mean,throughput_ci95,l_avg_mean,l_avg_ci95,l_max,\
         injection_rate_mean,injection_rate_ci95"
    );
    for (l, lambda) in LAMBDAS.iter().enumerate() {
        for (algo, points) in Algo::ALL.iter().zip(&rows) {
            let p = &points[l];
            println!(
                "{lambda},{},{:.4},{:.4},{:.2},{:.2},{},{:.3},{:.3}",
                algo.name(),
                p.throughput.mean,
                p.throughput.half_width,
                p.l_avg.mean,
                p.l_avg.half_width,
                p.l_max,
                p.injection_rate.mean,
                p.injection_rate.half_width
            );
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(exec::USAGE_ERROR)
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let usage = || {
        format!(
            "usage: sweep <lambda|capacity> [--n N] [--cycles C] [--table K] [--jobs J] [--shards S] [--lanes R] [--partition P] {}",
            ObsArgs::USAGE
        )
    };
    let (mode, rest) = argv.split_first().ok_or_else(usage)?;
    if mode != "lambda" && mode != "capacity" {
        return Err(usage());
    }
    let mut n = 8usize;
    let mut cycles = 300u64;
    let mut table = 6usize;
    let mut jobs = exec::default_jobs();
    let mut shards = 1usize;
    let mut lanes = 1usize;
    let mut partition = PartitionStrategy::Auto;
    let mut obs_args = ObsArgs::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--n" => {
                let what = format!("a hypercube dimension in 1..={}", Hypercube::MAX_DIMS);
                n = exec::parse_in(
                    "--n",
                    it.next().map(String::as_str),
                    1..=Hypercube::MAX_DIMS,
                    &what,
                )?;
            }
            "--cycles" => {
                cycles = exec::parse_in(
                    "--cycles",
                    it.next().map(String::as_str),
                    1..=u64::MAX,
                    "a positive integer",
                )?;
            }
            "--table" => {
                table = exec::parse_in(
                    "--table",
                    it.next().map(String::as_str),
                    1..=12,
                    "a table number in 1..=12",
                )?;
            }
            "--jobs" => jobs = exec::parse_jobs(it.next().ok_or("--jobs needs a value")?)?,
            "--shards" => {
                shards = exec::parse_shards(it.next().ok_or("--shards needs a value")?)?;
            }
            "--lanes" => {
                lanes = exec::parse_in(
                    "--lanes",
                    it.next().map(String::as_str),
                    1..=usize::MAX,
                    "a positive integer",
                )?;
            }
            "--partition" => {
                partition = it
                    .next()
                    .ok_or("--partition needs a value")?
                    .parse()
                    .map_err(|e: String| format!("--partition: {e}"))?;
            }
            other => {
                let mut next = |flag: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{flag} needs a value"))
                };
                if !obs_args.parse_flag(other, &mut next)? {
                    return Err(format!("unknown argument {other}"));
                }
            }
        }
    }
    obs_args.validate_shards(shards)?;
    obs_args.validate_lanes(lanes)?;
    if lanes > 1 && shards > 1 {
        return Err("--lanes > 1 runs the sequential lane engine; drop --shards".into());
    }
    if lanes > 1 && mode == "capacity" {
        return Err("the capacity sweep does not support --lanes (use the lambda sweep)".into());
    }
    let sweep = Sweep {
        n,
        jobs,
        rc: obs_args.record_config(),
        opts: RunOptions {
            shards,
            partition,
            faults: obs_args.load_fault_plan()?,
            snapshot: obs_args.snapshot_policy()?,
            ..RunOptions::default()
        },
    };
    let metrics = match mode.as_str() {
        "lambda" if lanes > 1 => {
            lambda_sweep_lanes(n, cycles, jobs, lanes);
            return Ok(());
        }
        "lambda" => sweep.lambda(cycles)?,
        _ => sweep.capacity(table)?,
    };
    if obs_args.enabled() {
        obs::report(&metrics);
        obs::export(&obs_args, "mixed", &metrics)
            .map_err(|e| format!("failed to write observability output: {e}"))?;
    }
    Ok(())
}
