//! Regenerate the paper's Tables 1–12.
//!
//! ```text
//! tables [--table K]... [--full] [--cap N] [--cycles N] [--seed S] [--jobs J] [--shards S] [--partition P]
//!        [--lanes R] [--csv] [--trace PATH] [--metrics-out PATH] [--watchdog K]
//! ```
//!
//! * `--table K` — regenerate only table K (repeatable); default: all 12.
//! * `--full` — the paper's complete sweep (n = 10..14; slow at n = 14).
//! * `--cap N` — central queue capacity (default 5, the paper's value;
//!   0 deliberately wedges the network and requires `--watchdog`).
//! * `--cycles N` — dynamic-run horizon in routing cycles (default 500).
//! * `--seed S` — base RNG seed.
//! * `--jobs J` — worker threads for the row × replication fan-out
//!   (default: available parallelism). Output is bit-identical for any
//!   value of `J`.
//! * `--shards S` — threads *inside* each simulation (sharded engine;
//!   default 1 = sequential). Composes with `--jobs`: each of the `J`
//!   concurrent runs uses `S` shard threads. Output is bit-identical
//!   for any value of `S`.
//! * `--lanes R` — run the `R` replications of each row batched in the
//!   lane engine (`fadr_sim::LaneSim`) instead of as `R` standalone
//!   simulations. Implies `--reps R`; output is bit-identical to
//!   `--reps R` without `--lanes` (CI diffs the two). Incompatible with
//!   `--shards`, `--faults`, checkpoints, and the recording sinks.
//! * `--csv` — emit CSV instead of aligned text.
//! * `--trace PATH` — write JSONL packet lifecycles (first 256 packets
//!   per run).
//! * `--metrics-out PATH` — write routing-decision counters and stall
//!   reports as JSON (schema `fadr-metrics/1`).
//! * `--watchdog K` — abort a run after `K` cycles without a delivery
//!   and report the stall instead of spinning to the cycle cap.
//! * `--faults PLAN.json` — inject the `fadr-faults/1` plan into every
//!   run (degraded-mode routing; rows that abort on a fault partition
//!   are flagged like watchdog aborts).
//!
//! Numeric flags parse strictly (`--cycles`, `--reps` and `--lanes`
//! must be positive). Exit codes follow the workspace convention: 0 on
//! success (and for `--help`, which prints to stdout), 2 on a usage or
//! I/O error (including a checkpoint snapshot that cannot be read,
//! restored or written).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use fadr_bench::exec;
use fadr_bench::obs::{self, MetricsRow, ObsArgs};
use fadr_bench::runner::{
    dims_for, render_table, run_rows_lanes, run_table_dims, run_table_dims_recorded, spec, Algo,
    RunOptions,
};

struct Args {
    tables: Vec<usize>,
    full: bool,
    csv: bool,
    jobs: usize,
    lanes: usize,
    opts: RunOptions,
    obs: ObsArgs,
}

fn usage() -> String {
    format!(
        "usage: tables [--table K]... [--full] [--cap N] [--cycles N] [--seed S] [--reps R] [--algo A] [--jobs J] [--shards S] [--partition P] [--lanes R] [--csv] {}",
        ObsArgs::USAGE
    )
}

/// Parse the command line; `Ok(None)` means `--help` was asked for.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        tables: Vec::new(),
        full: false,
        csv: false,
        jobs: exec::default_jobs(),
        lanes: 1,
        opts: RunOptions::default(),
        obs: ObsArgs::default(),
    };
    let mut reps_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--table" => {
                let t = exec::parse_in(
                    "--table",
                    Some(&next("--table")?),
                    1..=12,
                    "a table number in 1..=12",
                )?;
                args.tables.push(t);
            }
            "--full" => args.full = true,
            "--csv" => args.csv = true,
            "--cap" => {
                args.opts.queue_capacity = exec::parse_in(
                    "--cap",
                    Some(&next("--cap")?),
                    0..=usize::MAX,
                    "a queue capacity",
                )?;
            }
            "--cycles" => {
                args.opts.dynamic_cycles = exec::parse_in(
                    "--cycles",
                    Some(&next("--cycles")?),
                    1..=u64::MAX,
                    "a positive integer",
                )?;
            }
            "--seed" => {
                args.opts.seed =
                    exec::parse_in("--seed", Some(&next("--seed")?), 0..=u64::MAX, "an integer")?;
            }
            "--reps" => {
                args.opts.reps = exec::parse_in(
                    "--reps",
                    Some(&next("--reps")?),
                    1..=u32::MAX,
                    "a positive integer",
                )?;
                reps_given = true;
            }
            "--lanes" => {
                args.lanes = exec::parse_in(
                    "--lanes",
                    Some(&next("--lanes")?),
                    1..=usize::MAX,
                    "a positive integer",
                )?;
            }
            "--algo" => {
                let v = next("--algo")?;
                args.opts.algo = Algo::parse(&v)
                    .ok_or("--algo must be fully-adaptive | static-hang | ecube-sbp")?;
            }
            "--jobs" => {
                args.jobs = exec::parse_jobs(&next("--jobs")?)?;
            }
            "--shards" => {
                args.opts.shards = exec::parse_shards(&next("--shards")?)?;
            }
            "--partition" => {
                args.opts.partition = next("--partition")?
                    .parse()
                    .map_err(|e: String| format!("--partition: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            other => {
                if !args.obs.parse_flag(other, &mut next)? {
                    return Err(format!("unknown argument {other}"));
                }
            }
        }
    }
    if args.tables.is_empty() {
        args.tables = (1..=12).collect();
    }
    if args.opts.queue_capacity == 0 && args.obs.watchdog.is_none() {
        return Err("--cap 0 wedges the network; it requires --watchdog".into());
    }
    args.obs.validate_shards(args.opts.shards)?;
    args.opts.faults = args.obs.load_fault_plan()?;
    args.opts.snapshot = args.obs.snapshot_policy()?;
    if args.lanes > 1 {
        if reps_given && args.opts.reps as usize != args.lanes {
            return Err("--lanes R already runs R replications (as lanes); drop --reps".into());
        }
        if args.opts.shards > 1 {
            return Err("--lanes > 1 runs the sequential lane engine; drop --shards".into());
        }
        args.obs.validate_lanes(args.lanes)?;
        args.opts.reps = u32::try_from(args.lanes).map_err(|_| "--lanes is too large")?;
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", usage());
            return ExitCode::from(exec::USAGE_ERROR);
        }
    };
    eprintln!(
        "# fully-adaptive hypercube routing (SPAA'91), queue capacity {}, dynamic horizon {} cycles, {} jobs, {} shards{}",
        args.opts.queue_capacity,
        args.opts.dynamic_cycles,
        args.jobs,
        args.opts.shards,
        if args.full { ", full n=10..14 sweep" } else { "" }
    );
    let mut metrics: Vec<MetricsRow> = Vec::new();
    for &t in &args.tables {
        let start = std::time::Instant::now();
        let dims = dims_for(spec(t), args.full);
        let table = if args.lanes > 1 {
            Ok(render_table(
                t,
                &run_rows_lanes(spec(t), &dims, args.opts, args.jobs),
            ))
        } else if args.obs.enabled() {
            let rc = args.obs.record_config();
            run_table_dims_recorded(t, &dims, args.opts, args.jobs, rc).map(|(table, recorded)| {
                metrics.extend(recorded.iter().map(|r| MetricsRow::from_recorded(t, r)));
                table
            })
        } else {
            run_table_dims(t, &dims, args.opts, args.jobs)
        };
        let table = match table {
            Ok(table) => table,
            Err(e) => {
                eprintln!("table {t}: {e}");
                return ExitCode::from(exec::USAGE_ERROR);
            }
        };
        if args.csv {
            print!("{}", table.to_csv());
        } else {
            println!("{}", table.to_text());
        }
        eprintln!("# table {t} regenerated in {:.1?}", start.elapsed());
    }
    if args.obs.enabled() {
        obs::report(&metrics);
        let algo = format!("{:?}", args.opts.algo);
        if let Err(e) = obs::export(&args.obs, &algo, &metrics) {
            eprintln!("failed to write observability output: {e}");
            return ExitCode::from(exec::USAGE_ERROR);
        }
    }
    ExitCode::SUCCESS
}
