//! Table specifications and experiment execution.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fadr_core::{EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang};
use fadr_metrics::{
    table::fmt2, MeanCi, Recorder, RunningStats, ShardRecorder, SinkSet, StallReport, Table,
    WatchdogSink,
};
use fadr_qdg::RoutingFunction;
use fadr_sim::{
    DynamicOutcome, DynamicResult, LaneSim, PartitionStrategy, ShardedSimulator, SimConfig,
    Simulator, SnapshotMsg, StaticOutcome, StaticResult, StopReason,
};
use fadr_workloads::{static_backlog, Pattern};

use crate::obs::RecordConfig;
use crate::paper;

/// The four § 7 communication patterns, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// Uniform random destinations.
    Random,
    /// Bitwise complement permutation.
    Complement,
    /// Half-address transpose permutation.
    Transpose,
    /// Random level-preserving permutation.
    Leveled,
}

impl PatternKind {
    /// Compile for an n-cube (leveled permutations are seeded).
    pub fn compile(self, dims: usize, seed: u64) -> Pattern {
        match self {
            PatternKind::Random => Pattern::Random,
            PatternKind::Complement => Pattern::complement(dims),
            PatternKind::Transpose => Pattern::transpose(dims),
            PatternKind::Leveled => {
                Pattern::leveled_permutation(dims, &mut StdRng::seed_from_u64(seed))
            }
        }
    }

    /// Pattern name as printed in the paper's table captions.
    pub fn label(self) -> &'static str {
        match self {
            PatternKind::Random => "Random Routing",
            PatternKind::Complement => "Complement",
            PatternKind::Transpose => "Transpose",
            PatternKind::Leveled => "Leveled Permutation",
        }
    }
}

/// What a paper table runs: the pattern plus the injection model.
#[derive(Debug, Clone, Copy)]
pub struct TableSpec {
    /// Table number (1–12).
    pub number: usize,
    /// Communication pattern.
    pub pattern: PatternKind,
    /// `None` = dynamic λ = 1; `Some(k)` = static with `k(n)` packets.
    pub packets: Option<PacketsPerNode>,
}

/// Static-injection backlog depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketsPerNode {
    /// One packet per node (Tables 1–4).
    One,
    /// `n = log N` packets per node (Tables 5–8).
    LogN,
}

/// Specifications of the paper's twelve tables.
pub const TABLES: [TableSpec; 12] = [
    TableSpec {
        number: 1,
        pattern: PatternKind::Random,
        packets: Some(PacketsPerNode::One),
    },
    TableSpec {
        number: 2,
        pattern: PatternKind::Complement,
        packets: Some(PacketsPerNode::One),
    },
    TableSpec {
        number: 3,
        pattern: PatternKind::Transpose,
        packets: Some(PacketsPerNode::One),
    },
    TableSpec {
        number: 4,
        pattern: PatternKind::Leveled,
        packets: Some(PacketsPerNode::One),
    },
    TableSpec {
        number: 5,
        pattern: PatternKind::Random,
        packets: Some(PacketsPerNode::LogN),
    },
    TableSpec {
        number: 6,
        pattern: PatternKind::Complement,
        packets: Some(PacketsPerNode::LogN),
    },
    TableSpec {
        number: 7,
        pattern: PatternKind::Transpose,
        packets: Some(PacketsPerNode::LogN),
    },
    TableSpec {
        number: 8,
        pattern: PatternKind::Leveled,
        packets: Some(PacketsPerNode::LogN),
    },
    TableSpec {
        number: 9,
        pattern: PatternKind::Random,
        packets: None,
    },
    TableSpec {
        number: 10,
        pattern: PatternKind::Complement,
        packets: None,
    },
    TableSpec {
        number: 11,
        pattern: PatternKind::Transpose,
        packets: None,
    },
    TableSpec {
        number: 12,
        pattern: PatternKind::Leveled,
        packets: None,
    },
];

/// Look up a table spec by number.
pub fn spec(number: usize) -> TableSpec {
    TABLES[number - 1]
}

/// Which hypercube router the harness runs (the paper's tables use the
/// fully-adaptive § 3 algorithm; the others enable baseline tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// § 3 fully-adaptive (the paper's evaluated algorithm).
    FullyAdaptive,
    /// The underlying hang without dynamic links (≈ \[BGSS89\]/\[Kon90\]).
    StaticHang,
    /// Oblivious e-cube + structured buffer pool (\[Gun81\]/\[MS80\]).
    EcubeSbp,
}

impl Algo {
    /// Parse a `--algo` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fully-adaptive" | "adaptive" => Some(Self::FullyAdaptive),
            "static-hang" | "hang" => Some(Self::StaticHang),
            "ecube-sbp" | "ecube" => Some(Self::EcubeSbp),
            _ => None,
        }
    }

    /// Canonical name, round-trippable through [`Algo::parse`] (used in
    /// snapshot metadata so `replay` can rebuild the router).
    pub fn name(self) -> &'static str {
        match self {
            Self::FullyAdaptive => "fully-adaptive",
            Self::StaticHang => "static-hang",
            Self::EcubeSbp => "ecube-sbp",
        }
    }
}

/// Flight-recorder checkpoint/resume policy (`--checkpoint-at` /
/// `--resume-from`): every work unit either writes a `fadr-snapshot/1`
/// file when it reaches a cycle (then continues in-process, so measured
/// rows are unchanged), or restores its snapshot and resumes instead of
/// running from cycle 0. Snapshot files are named `<label>.snap` where
/// the label is the work unit's coordinates (`t<table>_n<n>_q<cap>_r<rep>`
/// for table rows), so resume pairs with the checkpoint run per unit.
/// Runs that finish before the checkpoint cycle write no snapshot and
/// rerun from cycle 0 on resume — either way the final tables are
/// bit-identical to an uninterrupted run.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotPolicy {
    /// Pause and write a checkpoint when a run reaches this cycle.
    pub at: Option<u64>,
    /// Directory holding the `<label>.snap` files (leaked to `'static`
    /// so the policy stays `Copy` across the `--jobs` fan-out).
    pub dir: &'static std::path::Path,
    /// Restore `<label>.snap` and resume instead of running afresh.
    pub resume: bool,
}

impl SnapshotPolicy {
    /// The snapshot file of the work unit labelled `label`.
    pub fn path(&self, label: &str) -> std::path::PathBuf {
        self.dir.join(format!("{label}.snap"))
    }
}

/// Harness options.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Central queue capacity (the paper states 5; see EXPERIMENTS.md for
    /// the capacity discussion).
    pub queue_capacity: usize,
    /// Horizon (routing cycles) for dynamic runs.
    pub dynamic_cycles: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Independent replications per row (averaged; L_max is the max over
    /// replications). The paper reports single runs; default 1.
    pub reps: u32,
    /// Routing algorithm under test.
    pub algo: Algo,
    /// Intra-simulation shards (threads *inside* one run; composes with
    /// `--jobs`, which parallelizes *across* runs). 1 = the sequential
    /// engine; any value yields bit-identical results.
    pub shards: usize,
    /// How sharded runs split nodes across shards (`--partition`).
    /// Purely a performance knob — every strategy is bit-identical —
    /// that trades cross-shard mailbox traffic (see
    /// [`fadr_sim::ShardedSimulator::partition_stats`]).
    pub partition: PartitionStrategy,
    /// Fault plan injected into every run (`--faults`); the `'static`
    /// borrow keeps [`RunOptions`] `Copy` across the `--jobs` fan-out
    /// (see [`crate::obs::ObsArgs::load_fault_plan`]). Faulted runs may
    /// legitimately end partitioned or with dropped packets, so the
    /// "must drain" assertion is waived when a plan is present.
    pub faults: Option<&'static fadr_sim::FaultPlan>,
    /// Checkpoint/resume policy applied to every work unit
    /// (`--checkpoint-at` / `--resume-from`); `None` runs straight
    /// through.
    pub snapshot: Option<SnapshotPolicy>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            queue_capacity: 5,
            dynamic_cycles: 500,
            seed: 0xFAD2,
            reps: 1,
            algo: Algo::FullyAdaptive,
            shards: 1,
            partition: PartitionStrategy::Auto,
            faults: None,
            snapshot: None,
        }
    }
}

/// Measured row of a regenerated table.
#[derive(Debug, Clone, Copy)]
pub struct RowResult {
    /// Hypercube dimension.
    pub n: usize,
    /// Mean latency in time cycles.
    pub l_avg: f64,
    /// Maximum latency.
    pub l_max: u64,
    /// Effective injection rate (dynamic tables only).
    pub injection_rate: Option<f64>,
    /// Any replication of this row was aborted (watchdog stall): its
    /// statistics cover only the packets delivered before the abort, so
    /// rendered tables flag it instead of passing it off as a clean run.
    pub aborted: bool,
}

/// Run one row (one hypercube dimension) of one table on the § 3
/// fully-adaptive algorithm, averaging over `opts.reps` replications.
pub fn run_row(spec: TableSpec, n: usize, opts: RunOptions) -> RowResult {
    let reps = opts.reps.max(1);
    let results: Vec<RowResult> = (0..reps)
        .map(|rep| run_row_once(spec, n, opts, u64::from(rep)))
        .collect();
    reduce_reps(n, &results)
}

/// Fold per-replication results into one row. Replications must be in
/// rep order; the accumulation order here is the single reduction path
/// for both sequential and parallel execution, which is what makes
/// `--jobs N` output bit-identical to `--jobs 1` (floating-point sums
/// are order-sensitive).
fn reduce_reps(n: usize, results: &[RowResult]) -> RowResult {
    let reps = results.len() as u32;
    let mut avg = 0.0;
    let mut max = 0u64;
    let mut ir_sum = 0.0;
    let mut ir_any = false;
    let mut aborted = false;
    for r in results {
        avg += r.l_avg;
        max = max.max(r.l_max);
        aborted |= r.aborted;
        if let Some(ir) = r.injection_rate {
            ir_sum += ir;
            ir_any = true;
        }
    }
    RowResult {
        n,
        l_avg: avg / f64::from(reps),
        l_max: max,
        injection_rate: ir_any.then(|| ir_sum / f64::from(reps)),
        aborted,
    }
}

/// Run several rows of one table, fanning the `(dimension, replication)`
/// grid out over `jobs` worker threads.
///
/// Every work unit seeds its RNG streams purely from
/// `(opts.seed, spec.number, rep, n)`, so results do not depend on which
/// worker ran them or in what order; the per-row reduction then happens
/// in fixed rep order on the calling thread. Output is bit-identical to
/// the sequential `run_row` loop (see `tests/parallel_identity.rs`).
pub fn run_rows(spec: TableSpec, dims: &[usize], opts: RunOptions, jobs: usize) -> Vec<RowResult> {
    let reps = opts.reps.max(1) as usize;
    let units = dims.len() * reps;
    let results = crate::exec::run_indexed(units, jobs, |i| {
        run_row_once(spec, dims[i / reps], opts, (i % reps) as u64)
    });
    results
        .chunks(reps)
        .zip(dims)
        .map(|(chunk, &n)| reduce_reps(n, chunk))
        .collect()
}

/// One table row with the merged observability sinks of all its
/// replications.
#[derive(Debug, Clone)]
pub struct RecordedRow {
    /// The measured row (bit-identical to the unrecorded path).
    pub row: RowResult,
    /// Merged sinks (fixed replication order, so deterministic for any
    /// `jobs`).
    pub sinks: SinkSet,
}

/// [`run_rows`] with recording sinks attached to every replication.
///
/// Parallelism-safe: each work unit records into its own [`SinkSet`];
/// the per-row merge happens on the calling thread in fixed rep order,
/// so both the measured rows *and* the merged sinks are bit-identical
/// for any `jobs` value.
pub fn run_rows_recorded(
    spec: TableSpec,
    dims: &[usize],
    opts: RunOptions,
    jobs: usize,
    rc: RecordConfig,
) -> Vec<RecordedRow> {
    let reps = opts.reps.max(1) as usize;
    let units = dims.len() * reps;
    let results = crate::exec::run_indexed(units, jobs, |i| {
        run_row_once_recorded(spec, dims[i / reps], opts, (i % reps) as u64, rc)
    });
    results
        .chunks(reps)
        .zip(dims)
        .map(|(chunk, &n)| {
            let rows: Vec<RowResult> = chunk.iter().map(|(r, _)| *r).collect();
            let mut sinks = chunk[0].1.clone();
            for (_, s) in &chunk[1..] {
                sinks.merge(s);
            }
            RecordedRow {
                row: reduce_reps(n, &rows),
                sinks,
            }
        })
        .collect()
}

fn run_row_once(spec: TableSpec, n: usize, opts: RunOptions, rep: u64) -> RowResult {
    let cfg = row_cfg(spec, n, opts, rep);
    let label = row_label(spec, n, opts, rep);
    match opts.algo {
        Algo::FullyAdaptive => row_with(HypercubeFullyAdaptive::new(n), spec, n, opts, cfg, &label),
        Algo::StaticHang => row_with(HypercubeStaticHang::new(n), spec, n, opts, cfg, &label),
        Algo::EcubeSbp => row_with(EcubeSbp::new(n), spec, n, opts, cfg, &label),
    }
}

/// The snapshot label of one `(table, n, rep)` work unit (the queue
/// capacity participates because sweeps vary it with everything else
/// fixed, and two different configurations must not share a snapshot
/// file).
fn row_label(spec: TableSpec, n: usize, opts: RunOptions, rep: u64) -> String {
    format!("t{}_n{n}_q{}_r{rep}", spec.number, opts.queue_capacity)
}

/// One unrecorded replication on whichever engine `opts.shards` selects
/// (the sharded engine is bit-identical, so this is purely a perf knob).
fn row_with<R>(
    rf: R,
    spec: TableSpec,
    n: usize,
    opts: RunOptions,
    cfg: SimConfig,
    label: &str,
) -> RowResult
where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send + SnapshotMsg,
{
    let require_drain = opts.faults.is_none();
    if opts.shards > 1 {
        let mut sim = ShardedSimulator::with_strategy(rf, cfg, opts.shards, opts.partition);
        if let Some(plan) = opts.faults {
            sim = sim.with_faults(plan.clone());
        }
        drive_sharded(sim, spec, n, opts, cfg.seed, require_drain, label).0
    } else {
        let mut sim = Simulator::new(rf, cfg);
        if let Some(plan) = opts.faults {
            sim = sim.with_faults(plan.clone());
        }
        drive(sim, spec, n, opts, cfg.seed, require_drain, label).0
    }
}

/// The [`SimConfig`] of one `(table, n, rep)` work unit; seeding is a
/// pure function of those coordinates (see [`run_rows`]).
fn row_cfg(spec: TableSpec, n: usize, opts: RunOptions, rep: u64) -> SimConfig {
    SimConfig {
        queue_capacity: opts.queue_capacity,
        seed: opts.seed ^ ((spec.number as u64) << 32) ^ (rep << 16) ^ n as u64,
        ..SimConfig::default()
    }
}

/// One replication with recording sinks attached; the recorder shares
/// the plain path's seeding, so measured rows are bit-identical with
/// and without recording (`tests/recording.rs` enforces this).
fn run_row_once_recorded(
    spec: TableSpec,
    n: usize,
    opts: RunOptions,
    rep: u64,
    rc: RecordConfig,
) -> (RowResult, SinkSet) {
    let cfg = row_cfg(spec, n, opts, rep);
    let label = row_label(spec, n, opts, rep);
    let (row, mut sinks) = match opts.algo {
        Algo::FullyAdaptive => recorded_with(
            HypercubeFullyAdaptive::new(n),
            spec,
            n,
            opts,
            cfg,
            rc,
            &label,
        ),
        Algo::StaticHang => {
            recorded_with(HypercubeStaticHang::new(n), spec, n, opts, cfg, rc, &label)
        }
        Algo::EcubeSbp => recorded_with(EcubeSbp::new(n), spec, n, opts, cfg, rc, &label),
    };
    sinks.flush();
    (row, sinks)
}

/// One recorded replication on whichever engine `opts.shards` selects.
///
/// Sharded runs build one watchdog-free [`SinkSet`] per shard (a
/// per-shard [`WatchdogSink`] would see only its shard's deliveries and
/// misfire) and move the `--watchdog` window to the sharded engine's
/// global watchdog; after the run the engine's [`StallReport`], if any,
/// is re-installed into the merged sink set so downstream reporting
/// (`obs::report`, metrics JSON) is oblivious to which engine ran.
#[allow(clippy::too_many_arguments)]
fn recorded_with<R>(
    rf: R,
    spec: TableSpec,
    n: usize,
    opts: RunOptions,
    cfg: SimConfig,
    rc: RecordConfig,
    label: &str,
) -> (RowResult, SinkSet)
where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send + SnapshotMsg,
{
    // A watchdogged or faulted run may abort instead of draining;
    // report, don't panic.
    let require_drain = rc.watchdog.is_none() && opts.faults.is_none();
    if opts.shards > 1 {
        // The wait-for-graph probe is global like the watchdog, but has
        // no engine-level equivalent; binaries reject `--waitgraph`
        // with `--shards > 1`, and this strip keeps the per-shard sets
        // shardable if a caller slips one through.
        let shard_rc = RecordConfig {
            watchdog: None,
            waitgraph: false,
            ..rc
        };
        let classes = rf.num_classes();
        let mut sim =
            ShardedSimulator::with_recorders_strategy(rf, cfg, opts.shards, opts.partition, |_| {
                shard_rc.build(1 << n, classes)
            });
        if let Some(plan) = opts.faults {
            sim = sim.with_faults(plan.clone());
        }
        if let Some(k) = rc.watchdog {
            sim = sim.with_watchdog(k);
        }
        let (row, stall, mut sinks) =
            drive_sharded(sim, spec, n, opts, cfg.seed, require_drain, label);
        if let Some(k) = rc.watchdog {
            let mut wd = WatchdogSink::new(k);
            wd.report = stall;
            sinks.watchdog = Some(wd);
        }
        (row, sinks)
    } else {
        let sinks = rc.build(1 << n, rf.num_classes());
        let mut sim = Simulator::with_recorder(rf, cfg, sinks);
        if let Some(plan) = opts.faults {
            sim = sim.with_faults(plan.clone());
        }
        drive(sim, spec, n, opts, cfg.seed, require_drain, label)
    }
}

/// Write one snapshot file, failing loudly: a checkpoint the resume leg
/// can't find would silently degrade to a from-scratch rerun.
fn write_snapshot(sp: &SnapshotPolicy, label: &str, text: &str) {
    let path = sp.path(label);
    std::fs::write(&path, text)
        .unwrap_or_else(|e| panic!("writing snapshot {}: {e}", path.display()));
}

/// Unwrap an outcome that cannot be `Paused` (no pause was requested on
/// the final leg of any checkpoint/resume sequence).
fn ran_out(outcome: StaticOutcome) -> StaticResult {
    match outcome {
        StaticOutcome::Finished(res) => res,
        StaticOutcome::Paused(_) => unreachable!("no pause requested"),
    }
}

/// [`ran_out`] for dynamic runs.
fn ran_out_dyn(outcome: DynamicOutcome) -> DynamicResult {
    match outcome {
        DynamicOutcome::Finished(res) => res,
        DynamicOutcome::Paused(_) => unreachable!("no pause requested"),
    }
}

/// `run_static` under a [`SnapshotPolicy`]: checkpoint mid-run and
/// continue in-process, or restore and resume. A missing snapshot on
/// resume means the run drained before the checkpoint cycle — rerun
/// from cycle 0 (bit-identical either way).
fn static_run<R: RoutingFunction, Rec: Recorder>(
    sim: &mut Simulator<R, Rec>,
    backlog: &[Vec<usize>],
    snap: Option<SnapshotPolicy>,
    meta: &str,
    label: &str,
) -> StaticResult
where
    R::Msg: SnapshotMsg,
{
    let Some(sp) = snap else {
        return sim.run_static(backlog);
    };
    if sp.resume {
        let path = sp.path(label);
        return match std::fs::read_to_string(&path) {
            Err(_) => sim.run_static(backlog),
            Ok(text) => {
                let (_, progress) = sim
                    .restore(&text)
                    .unwrap_or_else(|e| panic!("restoring {}: {e}", path.display()));
                ran_out(sim.resume_static(backlog, progress, None))
            }
        };
    }
    match sim.run_static_until(backlog, sp.at) {
        StaticOutcome::Finished(res) => res,
        StaticOutcome::Paused(progress) => {
            write_snapshot(&sp, label, &sim.checkpoint(meta, &progress));
            ran_out(sim.resume_static(backlog, progress, None))
        }
    }
}

/// [`static_run`] on the sharded engine (same protocol; snapshots are
/// partition-agnostic, so checkpoint and resume legs may run on
/// different engines or shard counts).
fn static_run_sharded<R, Rec>(
    sim: &mut ShardedSimulator<R, Rec>,
    backlog: &[Vec<usize>],
    snap: Option<SnapshotPolicy>,
    meta: &str,
    label: &str,
) -> StaticResult
where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send + SnapshotMsg,
    Rec: ShardRecorder + Send,
{
    let Some(sp) = snap else {
        return sim.run_static(backlog);
    };
    if sp.resume {
        let path = sp.path(label);
        return match std::fs::read_to_string(&path) {
            Err(_) => sim.run_static(backlog),
            Ok(text) => {
                let (_, progress) = sim
                    .restore(&text)
                    .unwrap_or_else(|e| panic!("restoring {}: {e}", path.display()));
                ran_out(sim.resume_static(backlog, progress, None))
            }
        };
    }
    match sim.run_static_until(backlog, sp.at) {
        StaticOutcome::Finished(res) => res,
        StaticOutcome::Paused(progress) => {
            write_snapshot(&sp, label, &sim.checkpoint(meta, &progress));
            ran_out(sim.resume_static(backlog, progress, None))
        }
    }
}

/// `run_dynamic` under a [`SnapshotPolicy`] (see [`static_run`]).
fn dynamic_run<R: RoutingFunction, Rec: Recorder, F>(
    sim: &mut Simulator<R, Rec>,
    lambda: f64,
    mut dest: F,
    cycles: u64,
    snap: Option<SnapshotPolicy>,
    meta: &str,
    label: &str,
) -> DynamicResult
where
    R::Msg: SnapshotMsg,
    F: FnMut(usize, &mut StdRng) -> usize,
{
    let Some(sp) = snap else {
        return sim.run_dynamic(lambda, dest, cycles);
    };
    if sp.resume {
        let path = sp.path(label);
        return match std::fs::read_to_string(&path) {
            Err(_) => sim.run_dynamic(lambda, dest, cycles),
            Ok(text) => {
                let (_, progress) = sim
                    .restore(&text)
                    .unwrap_or_else(|e| panic!("restoring {}: {e}", path.display()));
                ran_out_dyn(sim.resume_dynamic(lambda, dest, cycles, progress, None))
            }
        };
    }
    match sim.run_dynamic_until(lambda, &mut dest, cycles, sp.at) {
        DynamicOutcome::Finished(res) => res,
        DynamicOutcome::Paused(progress) => {
            write_snapshot(&sp, label, &sim.checkpoint(meta, &progress));
            ran_out_dyn(sim.resume_dynamic(lambda, dest, cycles, progress, None))
        }
    }
}

/// [`dynamic_run`] on the sharded engine.
#[allow(clippy::too_many_arguments)]
fn dynamic_run_sharded<R, Rec, F>(
    sim: &mut ShardedSimulator<R, Rec>,
    lambda: f64,
    dest: F,
    cycles: u64,
    snap: Option<SnapshotPolicy>,
    meta: &str,
    label: &str,
) -> DynamicResult
where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send + SnapshotMsg,
    Rec: ShardRecorder + Send,
    F: Fn(usize, &mut StdRng) -> usize + Sync,
{
    let Some(sp) = snap else {
        return sim.run_dynamic(lambda, dest, cycles);
    };
    if sp.resume {
        let path = sp.path(label);
        return match std::fs::read_to_string(&path) {
            Err(_) => sim.run_dynamic(lambda, dest, cycles),
            Ok(text) => {
                let (_, progress) = sim
                    .restore(&text)
                    .unwrap_or_else(|e| panic!("restoring {}: {e}", path.display()));
                ran_out_dyn(sim.resume_dynamic(lambda, dest, cycles, progress, None))
            }
        };
    }
    match sim.run_dynamic_until(lambda, &dest, cycles, sp.at) {
        DynamicOutcome::Finished(res) => res,
        DynamicOutcome::Paused(progress) => {
            write_snapshot(&sp, label, &sim.checkpoint(meta, &progress));
            ran_out_dyn(sim.resume_dynamic(lambda, dest, cycles, progress, None))
        }
    }
}

fn drive<R: RoutingFunction, Rec: Recorder>(
    mut sim: Simulator<R, Rec>,
    spec: TableSpec,
    n: usize,
    opts: RunOptions,
    seed: u64,
    require_drain: bool,
    label: &str,
) -> (RowResult, Rec)
where
    R::Msg: SnapshotMsg,
{
    let size = 1usize << n;
    let pattern = spec.pattern.compile(n, seed ^ 0x1e7e1);
    let meta = crate::replay::meta_line(
        label,
        opts.algo,
        spec.number,
        n,
        opts.queue_capacity,
        opts.dynamic_cycles,
        seed,
        None,
    );
    let row = match spec.packets {
        Some(per_node) => {
            let k = match per_node {
                PacketsPerNode::One => 1,
                PacketsPerNode::LogN => n,
            };
            let mut rng = StdRng::seed_from_u64(seed ^ 0xbac1);
            let backlog = static_backlog(&pattern, size, k, &mut rng);
            let res = static_run(&mut sim, &backlog, opts.snapshot, &meta, label);
            if require_drain {
                assert!(res.drained, "table {} n={n} failed to drain", spec.number);
            }
            RowResult {
                n,
                l_avg: res.stats.mean(),
                l_max: res.stats.max(),
                injection_rate: None,
                aborted: matches!(res.stop, StopReason::Aborted | StopReason::Partitioned),
            }
        }
        None => {
            let res = dynamic_run(
                &mut sim,
                1.0,
                move |s, rng| pattern.draw(s, size, rng),
                opts.dynamic_cycles,
                opts.snapshot,
                &meta,
                label,
            );
            RowResult {
                n,
                l_avg: res.stats.mean(),
                l_max: res.stats.max(),
                injection_rate: Some(res.injection_rate()),
                aborted: matches!(res.stop, StopReason::Aborted | StopReason::Partitioned),
            }
        }
    };
    (row, sim.into_recorder())
}

/// [`drive`] on the sharded engine: identical workload construction and
/// row extraction, so rows are bit-identical to the sequential path for
/// any shard count (`tests/sharded_identity.rs` enforces this over all
/// twelve tables). Also returns the engine watchdog's stall report so
/// the recorded path can surface it.
#[allow(clippy::too_many_arguments)]
fn drive_sharded<R, Rec>(
    mut sim: ShardedSimulator<R, Rec>,
    spec: TableSpec,
    n: usize,
    opts: RunOptions,
    seed: u64,
    require_drain: bool,
    label: &str,
) -> (RowResult, Option<StallReport>, Rec)
where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send + SnapshotMsg,
    Rec: ShardRecorder + Send,
{
    let size = 1usize << n;
    let pattern = spec.pattern.compile(n, seed ^ 0x1e7e1);
    let meta = crate::replay::meta_line(
        label,
        opts.algo,
        spec.number,
        n,
        opts.queue_capacity,
        opts.dynamic_cycles,
        seed,
        None,
    );
    let row = match spec.packets {
        Some(per_node) => {
            let k = match per_node {
                PacketsPerNode::One => 1,
                PacketsPerNode::LogN => n,
            };
            let mut rng = StdRng::seed_from_u64(seed ^ 0xbac1);
            let backlog = static_backlog(&pattern, size, k, &mut rng);
            let res = static_run_sharded(&mut sim, &backlog, opts.snapshot, &meta, label);
            if require_drain {
                assert!(res.drained, "table {} n={n} failed to drain", spec.number);
            }
            RowResult {
                n,
                l_avg: res.stats.mean(),
                l_max: res.stats.max(),
                injection_rate: None,
                aborted: matches!(res.stop, StopReason::Aborted | StopReason::Partitioned),
            }
        }
        None => {
            let res = dynamic_run_sharded(
                &mut sim,
                1.0,
                move |s, rng| pattern.draw(s, size, rng),
                opts.dynamic_cycles,
                opts.snapshot,
                &meta,
                label,
            );
            RowResult {
                n,
                l_avg: res.stats.mean(),
                l_max: res.stats.max(),
                injection_rate: Some(res.injection_rate()),
                aborted: matches!(res.stop, StopReason::Aborted | StopReason::Partitioned),
            }
        }
    };
    let stall = sim.stall_report().cloned();
    (row, stall, sim.into_recorder())
}

/// One recorded dynamic run with uniform-random destinations on
/// whichever engine `shards` selects — the sweep binary's work unit.
/// Results and sinks are bit-identical for any `shards` value; the
/// watchdog handling matches `recorded_with` (per-shard sink sets carry
/// no watchdog, the engine-level one's stall report is re-installed
/// into the merged set). `snap`/`label` apply the checkpoint/resume
/// policy to this point, with a sweep-supplied file-safe label (the
/// snapshot's meta records `table=0` plus the injection rate, which is
/// how `replay` knows to rebuild a uniform-random workload).
#[allow(clippy::too_many_arguments)]
pub fn dynamic_random_recorded<R>(
    rf: R,
    algo: Algo,
    cfg: SimConfig,
    lambda: f64,
    cycles: u64,
    rc: RecordConfig,
    shards: usize,
    partition: PartitionStrategy,
    faults: Option<&fadr_sim::FaultPlan>,
    snap: Option<SnapshotPolicy>,
    label: &str,
) -> (DynamicResult, SinkSet)
where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send + SnapshotMsg,
{
    let size = rf.topology().num_nodes();
    let classes = rf.num_classes();
    let n = size.trailing_zeros() as usize;
    let meta = crate::replay::meta_line(
        label,
        algo,
        0,
        n,
        cfg.queue_capacity,
        cycles,
        cfg.seed,
        Some(lambda),
    );
    if shards > 1 {
        let shard_rc = RecordConfig {
            watchdog: None,
            waitgraph: false,
            ..rc
        };
        let mut sim = ShardedSimulator::with_recorders_strategy(rf, cfg, shards, partition, |_| {
            shard_rc.build(size, classes)
        });
        if let Some(plan) = faults {
            sim = sim.with_faults(plan.clone());
        }
        if let Some(k) = rc.watchdog {
            sim = sim.with_watchdog(k);
        }
        let res = dynamic_run_sharded(
            &mut sim,
            lambda,
            move |s, rng| Pattern::Random.draw(s, size, rng),
            cycles,
            snap,
            &meta,
            label,
        );
        let stall = sim.stall_report().cloned();
        let mut sinks = sim.into_recorder();
        if let Some(k) = rc.watchdog {
            let mut wd = WatchdogSink::new(k);
            wd.report = stall;
            sinks.watchdog = Some(wd);
        }
        sinks.flush();
        (res, sinks)
    } else {
        let mut sim = Simulator::with_recorder(rf, cfg, rc.build(size, classes));
        if let Some(plan) = faults {
            sim = sim.with_faults(plan.clone());
        }
        let res = dynamic_run(
            &mut sim,
            lambda,
            move |s, rng| Pattern::Random.draw(s, size, rng),
            cycles,
            snap,
            &meta,
            label,
        );
        let mut sinks = sim.into_recorder();
        sinks.flush();
        (res, sinks)
    }
}

/// [`run_row`] on the batched lane engine: the row's `opts.reps`
/// replications run as lanes of one [`LaneSim`] sharing a single
/// precomputed routing table, instead of `reps` standalone simulators.
///
/// Lane `rep` uses exactly the seeds [`run_row`]'s replication `rep`
/// would (engine streams from [`row_cfg`], pattern compile from
/// `seed ^ 0x1e7e1`, static backlog from `seed ^ 0xbac1`), and the lane
/// engine guarantees each lane is bit-identical to a standalone
/// sequential run with that seed — so the reduced row is bit-identical
/// to [`run_row`]'s (`tests/lane_identity.rs` enforces this).
///
/// # Panics
///
/// Panics if `opts` requests shards, faults, or checkpoints: the lane
/// engine batches clean replications only (binaries reject those flag
/// combinations up front; this is the backstop).
pub fn run_row_lanes(spec: TableSpec, n: usize, opts: RunOptions) -> RowResult {
    assert!(
        opts.shards <= 1 && opts.faults.is_none() && opts.snapshot.is_none(),
        "lane-batched rows support neither shards, faults, nor checkpoints"
    );
    match opts.algo {
        Algo::FullyAdaptive => row_lanes_with(HypercubeFullyAdaptive::new(n), spec, n, opts),
        Algo::StaticHang => row_lanes_with(HypercubeStaticHang::new(n), spec, n, opts),
        Algo::EcubeSbp => row_lanes_with(EcubeSbp::new(n), spec, n, opts),
    }
}

/// [`run_rows`] on the lane engine: rows fan out over `jobs` worker
/// threads, and each row's replications run as lanes of one shared
/// engine (replication-level parallelism is subsumed by the lanes).
pub fn run_rows_lanes(
    spec: TableSpec,
    dims: &[usize],
    opts: RunOptions,
    jobs: usize,
) -> Vec<RowResult> {
    crate::exec::run_indexed(dims.len(), jobs, |i| run_row_lanes(spec, dims[i], opts))
}

fn row_lanes_with<R: RoutingFunction>(
    rf: R,
    spec: TableSpec,
    n: usize,
    opts: RunOptions,
) -> RowResult {
    let reps = opts.reps.max(1);
    let seeds: Vec<u64> = (0..reps)
        .map(|rep| row_cfg(spec, n, opts, u64::from(rep)).seed)
        .collect();
    let cfg = row_cfg(spec, n, opts, 0);
    let size = 1usize << n;
    let mut sim = LaneSim::with_lane_seeds(rf, cfg, seeds.clone());
    let results: Vec<RowResult> = match spec.packets {
        Some(per_node) => {
            let k = match per_node {
                PacketsPerNode::One => 1,
                PacketsPerNode::LogN => n,
            };
            let backlogs: Vec<Vec<Vec<usize>>> = seeds
                .iter()
                .map(|&s| {
                    let pattern = spec.pattern.compile(n, s ^ 0x1e7e1);
                    let mut rng = StdRng::seed_from_u64(s ^ 0xbac1);
                    static_backlog(&pattern, size, k, &mut rng)
                })
                .collect();
            sim.run_static(&backlogs)
                .iter()
                .map(|res| {
                    assert!(res.drained, "table {} n={n} failed to drain", spec.number);
                    RowResult {
                        n,
                        l_avg: res.stats.mean(),
                        l_max: res.stats.max(),
                        injection_rate: None,
                        aborted: matches!(res.stop, StopReason::Aborted | StopReason::Partitioned),
                    }
                })
                .collect()
        }
        None => {
            let patterns: Vec<Pattern> = seeds
                .iter()
                .map(|&s| spec.pattern.compile(n, s ^ 0x1e7e1))
                .collect();
            sim.run_dynamic_indexed(
                1.0,
                |lane, src, rng| patterns[lane].draw(src, size, rng),
                opts.dynamic_cycles,
            )
            .iter()
            .map(|res| RowResult {
                n,
                l_avg: res.stats.mean(),
                l_max: res.stats.max(),
                injection_rate: Some(res.injection_rate()),
                aborted: matches!(res.stop, StopReason::Aborted | StopReason::Partitioned),
            })
            .collect()
        }
    };
    reduce_reps(n, &results)
}

/// One lane-batched sweep point: per-lane aggregates folded into
/// mean ± 95% CI views (the statistically honest replacement for the
/// single-sample sweep columns).
#[derive(Debug, Clone, Copy)]
pub struct LanePoint {
    /// Normalized throughput (delivered / (nodes × cycles)) across lanes.
    pub throughput: MeanCi,
    /// Mean latency across lanes.
    pub l_avg: MeanCi,
    /// Maximum latency over all lanes.
    pub l_max: u64,
    /// Effective injection rate across lanes.
    pub injection_rate: MeanCi,
    /// Total packets delivered, summed over lanes.
    pub delivered: u64,
}

/// One dynamic uniform-random sweep point run on every lane of `sim`,
/// reduced to [`LanePoint`] statistics. Each run resets every lane, so
/// one engine — and its routing-state table, built once in
/// [`LaneSim::new`] — serves any number of points in any order, each
/// result equal to a fresh engine's at that λ.
pub fn dynamic_random_lanes<R: RoutingFunction>(
    sim: &mut LaneSim<R>,
    lambda: f64,
    cycles: u64,
) -> LanePoint {
    let size = sim.num_nodes();
    let results = sim.run_dynamic(
        lambda,
        move |s, rng| Pattern::Random.draw(s, size, rng),
        cycles,
    );
    let mut thr = RunningStats::new();
    let mut l_avg = RunningStats::new();
    let mut ir = RunningStats::new();
    let mut l_max = 0u64;
    let mut delivered = 0u64;
    for res in &results {
        thr.push(res.delivered as f64 / (size as f64 * cycles as f64));
        l_avg.push(res.stats.mean());
        ir.push(res.injection_rate());
        l_max = l_max.max(res.stats.max());
        delivered += res.delivered;
    }
    LanePoint {
        throughput: thr.ci95(),
        l_avg: l_avg.ci95(),
        l_max,
        injection_rate: ir.ci95(),
        delivered,
    }
}

/// Dimensions a table covers: the paper's full sweep or a reduced default.
pub fn dims_for(spec: TableSpec, full: bool) -> Vec<usize> {
    let base: Vec<usize> = if spec.number == 12 {
        if full {
            (9..=14).collect()
        } else {
            (9..=12).collect()
        }
    } else if full {
        (10..=14).collect()
    } else {
        (10..=12).collect()
    };
    base
}

/// Regenerate one table sequentially. Equivalent to
/// [`run_table_jobs`] with `jobs = 1`.
pub fn run_table(number: usize, full: bool, opts: RunOptions) -> Table {
    run_table_jobs(number, full, opts, 1)
}

/// Regenerate one table with row × replication work units spread over
/// `jobs` worker threads. Output is bit-identical for every `jobs`.
pub fn run_table_jobs(number: usize, full: bool, opts: RunOptions, jobs: usize) -> Table {
    run_table_dims(number, &dims_for(spec(number), full), opts, jobs)
}

/// Regenerate one table over an explicit dimension list, returning a
/// rendered [`Table`] with measured and paper reference columns side by
/// side. The dims override exists so tests and sweeps can run the full
/// table pipeline at reduced scale.
pub fn run_table_dims(number: usize, dims: &[usize], opts: RunOptions, jobs: usize) -> Table {
    render_table(number, &run_rows(spec(number), dims, opts, jobs))
}

/// [`run_table_dims`] with recording: returns the rendered table plus
/// each row's merged sinks for JSON export. The rendered table is
/// bit-identical to the unrecorded one.
pub fn run_table_dims_recorded(
    number: usize,
    dims: &[usize],
    opts: RunOptions,
    jobs: usize,
    rc: RecordConfig,
) -> (Table, Vec<RecordedRow>) {
    let recorded = run_rows_recorded(spec(number), dims, opts, jobs, rc);
    let rows: Vec<RowResult> = recorded.iter().map(|r| r.row).collect();
    (render_table(number, &rows), recorded)
}

/// Render measured rows of table `number` next to the paper's reference
/// columns.
pub fn render_table(number: usize, rows: &[RowResult]) -> Table {
    let s = spec(number);
    let injection = match s.packets {
        Some(PacketsPerNode::One) => "1 packet".to_string(),
        Some(PacketsPerNode::LogN) => "n packets".to_string(),
        None => "lambda = 1".to_string(),
    };
    let dynamic = s.packets.is_none();
    let headers: Vec<&str> = if dynamic {
        vec![
            "n",
            "N",
            "L_avg",
            "L_max",
            "I_r (%)",
            "paper L_avg",
            "paper L_max",
            "paper I_r",
        ]
    } else {
        vec!["n", "N", "L_avg", "L_max", "paper L_avg", "paper L_max"]
    };
    // Flag aborted rows in place of passing them off as clean runs:
    // their statistics cover only the packets delivered before the
    // watchdog stopped the simulation.
    let aborted_note = if rows.iter().any(|r| r.aborted) {
        " [* = aborted by watchdog; stats cover delivered packets only]"
    } else {
        ""
    };
    let mut table = Table::new(
        format!(
            "Table {number}: {}, {injection}{aborted_note}",
            s.pattern.label()
        ),
        &headers,
    );
    for row in rows {
        let n = row.n;
        let l_avg = fmt2(row.l_avg);
        let mut cells = vec![
            n.to_string(),
            (1usize << n).to_string(),
            if row.aborted {
                format!("{l_avg}*")
            } else {
                l_avg
            },
            row.l_max.to_string(),
        ];
        if dynamic {
            cells.push(format!("{:.0}", 100.0 * row.injection_rate.unwrap_or(0.0)));
            if let Some((a, m, ir)) = paper::dynamic_ref(number, n) {
                cells.extend([fmt2(a), m.to_string(), ir.to_string()]);
            } else {
                cells.extend(["-".into(), "-".into(), "-".into()]);
            }
        } else if let Some((a, m)) = paper::static_ref(number, n) {
            cells.extend([fmt2(a), m.to_string()]);
        } else {
            cells.extend(["-".into(), "-".into()]);
        }
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_all_tables() {
        for (i, s) in TABLES.iter().enumerate() {
            assert_eq!(s.number, i + 1);
        }
        assert_eq!(spec(6).pattern, PatternKind::Complement);
        assert!(spec(9).packets.is_none());
    }

    #[test]
    fn dims_defaults() {
        assert_eq!(dims_for(spec(1), false), vec![10, 11, 12]);
        assert_eq!(dims_for(spec(1), true), vec![10, 11, 12, 13, 14]);
        assert_eq!(dims_for(spec(12), false), vec![9, 10, 11, 12]);
    }

    #[test]
    fn run_row_static_small() {
        // Exercise the runner on a small complement row: exact 2n+1.
        let s = TableSpec {
            number: 2,
            pattern: PatternKind::Complement,
            packets: Some(PacketsPerNode::One),
        };
        let r = run_row(s, 6, RunOptions::default());
        assert_eq!(r.l_max, 13);
        assert!((r.l_avg - 13.0).abs() < 1e-9);
    }

    #[test]
    fn run_row_dynamic_small() {
        let s = TableSpec {
            number: 9,
            pattern: PatternKind::Random,
            packets: None,
        };
        let opts = RunOptions {
            dynamic_cycles: 100,
            ..RunOptions::default()
        };
        let r = run_row(s, 6, opts);
        assert!(r.injection_rate.unwrap() > 0.5);
        assert!(r.l_avg > 0.0);
    }
}
