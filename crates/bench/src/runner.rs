//! Table specifications and experiment execution.
//!
//! Every simulation the harness runs is one [`WorkUnit`]: a replication
//! `(table, n, rep)` of a paper-table row, or a sweep point `(λ, n)`,
//! with its router, queue capacity, horizon and seed. The unit derives
//! everything else: the [`SimConfig`], the snapshot label, the snapshot
//! meta line (which [`WorkUnit::parse`] reads back, so `replay` rebuilds
//! the same unit) and the `Workload` (a static backlog, or λ plus a
//! destination pattern).
//!
//! One private driver runs a unit on the sequential or the sharded
//! engine (`RunOptions::shards`), recorder-free or with recording sinks,
//! straight through or split at a checkpoint ([`SnapshotPolicy`]); every
//! combination yields bit-identical rows. Lane rows batch a row's
//! replications as lanes of one [`LaneSim`], each lane seeded and loaded
//! from its own unit.

use std::io::ErrorKind;
use std::marker::PhantomData;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fadr_core::{EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang};
use fadr_metrics::{
    table::fmt2, LatencyStats, MeanCi, NoRecorder, RunningStats, ShardRecorder, SinkSet, Table,
    WatchdogSink,
};
use fadr_qdg::RoutingFunction;
use fadr_sim::{
    DynamicOutcome, DynamicResult, LaneSim, PartitionStrategy, RunProgress, ShardedSimulator,
    SimConfig, Simulator, SnapshotMsg, StaticOutcome, StaticResult, StopReason,
};
use fadr_topology::Hypercube;
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
    /// Every router, in the sweeps' output order.
    pub const ALL: [Algo; 3] = [Self::FullyAdaptive, Self::StaticHang, Self::EcubeSbp];

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

    /// Run `task` on this router over the `n`-cube: the harness's one
    /// `Algo` → router match.
    pub(crate) fn run<T: RouterTask>(self, n: usize, task: T) -> T::Output {
        match self {
            Algo::FullyAdaptive => task.run(HypercubeFullyAdaptive::new(n)),
            Algo::StaticHang => task.run(HypercubeStaticHang::new(n)),
            Algo::EcubeSbp => task.run(EcubeSbp::new(n)),
        }
    }
}

/// Flight-recorder checkpoint/resume policy (`--checkpoint-at` /
/// `--resume-from`): every work unit either writes a `fadr-snapshot/1`
/// file when it reaches a cycle (then continues in-process, so measured
/// rows are unchanged), or restores its snapshot and resumes instead of
/// running from cycle 0. Snapshot files are named `<label>.snap` after
/// the [`WorkUnit`] label, so resume pairs with the checkpoint run per
/// unit. Runs that finish before the checkpoint cycle write no snapshot
/// and rerun from cycle 0 on resume — either way the final tables are
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

/// A router every harness engine can run and checkpoint (a bound
/// alias, implemented for every such router).
pub(crate) trait Router: RoutingFunction<Msg = Self::Message> + Clone + Send {
    /// The router's message type.
    type Message: Send + SnapshotMsg;
}

impl<R> Router for R
where
    R: RoutingFunction + Clone + Send,
    R::Msg: Send + SnapshotMsg,
{
    type Message = R::Msg;
}

/// Code generic over the router type, handed to [`Algo::run`] (a
/// closure cannot be generic, so each caller names its task).
pub(crate) trait RouterTask {
    /// What the task returns.
    type Output;
    /// Run on router `rf`.
    fn run<R: Router>(self, rf: R) -> Self::Output;
}

/// One harness work unit: replication `rep` of row `n` of a paper table
/// (`table >= 1`), or a uniform-random sweep point at offered load
/// `lambda` (`table == 0`).
///
/// Its fields are exactly those of the snapshot meta line
/// ([`WorkUnit::meta_line`], read back by [`WorkUnit::parse`]), so a
/// snapshot names the unit that wrote it: `replay` rebuilds the workload
/// from it, and a resume refuses a snapshot of any other unit.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkUnit {
    /// Snapshot file stem: `t<table>_n<n>_q<cap>_r<rep>` for table rows,
    /// `lambda<λ>_<algo>` for sweep points.
    pub label: String,
    /// Router under test.
    pub algo: Algo,
    /// Paper table number (0 = a sweep point: dynamic, uniform random).
    pub table: usize,
    /// Hypercube dimension.
    pub n: usize,
    /// Central queue capacity.
    pub cap: usize,
    /// Dynamic horizon in routing cycles.
    pub cycles: u64,
    /// Engine seed; the pattern and backlog seeds derive from it.
    pub seed: u64,
    /// Offered load of a sweep point (`table == 0`).
    pub lambda: Option<f64>,
}

/// What a work unit injects.
#[derive(Debug, Clone)]
pub(crate) enum Workload {
    /// Static injection: node `v` injects the packets of `backlog[v]` in
    /// order, and the run ends when the network drains.
    Backlog(Vec<Vec<usize>>),
    /// Dynamic injection: every node tries to inject with probability
    /// `lambda` each cycle, drawing destinations from `pattern` over
    /// `nodes` nodes.
    Dynamic {
        /// Offered load.
        lambda: f64,
        /// Destination pattern.
        pattern: Pattern,
        /// Network size.
        nodes: usize,
    },
}

impl Workload {
    /// Whether restored run progress belongs to this workload (a static
    /// cursor over exactly its backlog, or a dynamic run).
    pub(crate) fn accepts(&self, progress: &RunProgress) -> bool {
        match (self, progress) {
            (Self::Backlog(b), RunProgress::Static { next_idx, .. }) => next_idx.len() == b.len(),
            (Self::Dynamic { .. }, RunProgress::Dynamic { .. }) => true,
            _ => false,
        }
    }
}

impl WorkUnit {
    /// Replication `rep` of row `n` of table `spec`. The seed is a pure
    /// function of `(opts.seed, table, rep, n)`, so a unit's result does
    /// not depend on which worker runs it (see [`run_rows`]).
    pub(crate) fn row(spec: TableSpec, n: usize, rep: u64, opts: &RunOptions) -> Self {
        Self {
            // The capacity is in the label because the capacity sweep
            // varies it with everything else fixed.
            label: format!("t{}_n{n}_q{}_r{rep}", spec.number, opts.queue_capacity),
            algo: opts.algo,
            table: spec.number,
            n,
            cap: opts.queue_capacity,
            cycles: opts.dynamic_cycles,
            seed: opts.seed ^ ((spec.number as u64) << 32) ^ (rep << 16) ^ n as u64,
            lambda: None,
        }
    }

    /// The uniform-random sweep point at offered load `lambda` on the
    /// `n`-cube, seeded with `opts.seed` itself.
    pub(crate) fn point(lambda: f64, n: usize, opts: &RunOptions) -> Self {
        Self {
            label: format!("lambda{lambda}_{}", opts.algo.name()),
            algo: opts.algo,
            table: 0,
            n,
            cap: opts.queue_capacity,
            cycles: opts.dynamic_cycles,
            seed: opts.seed,
            lambda: Some(lambda),
        }
    }

    /// The engine configuration.
    pub(crate) fn config(&self) -> SimConfig {
        SimConfig {
            queue_capacity: self.cap,
            seed: self.seed,
            ..SimConfig::default()
        }
    }

    /// The unit's workload: a table row's pattern and static backlog
    /// derive from its seed, dynamic tables run at λ = 1, and sweep
    /// points draw uniform-random destinations at their own λ.
    pub(crate) fn workload(&self) -> Workload {
        let nodes = 1usize << self.n;
        let (pattern, packets) = match self.table {
            0 => (Pattern::Random, None),
            t => (
                spec(t).pattern.compile(self.n, self.seed ^ 0x1e7e1),
                spec(t).packets,
            ),
        };
        let k = match packets {
            None => {
                let lambda = self.lambda.unwrap_or(1.0);
                return Workload::Dynamic {
                    lambda,
                    pattern,
                    nodes,
                };
            }
            Some(PacketsPerNode::One) => 1,
            Some(PacketsPerNode::LogN) => self.n,
        };
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xbac1);
        Workload::Backlog(static_backlog(&pattern, nodes, k, &mut rng))
    }

    /// The snapshot meta line: the label, then `key=value` pairs
    /// (`lambda` only for sweep points).
    pub fn meta_line(&self) -> String {
        let mut out = format!(
            "{} algo={} table={} n={} cap={} cycles={} seed={}",
            self.label,
            self.algo.name(),
            self.table,
            self.n,
            self.cap,
            self.cycles,
            self.seed
        );
        if let Some(l) = self.lambda {
            out.push_str(&format!(" lambda={l}"));
        }
        out
    }

    /// Parse a meta line (label first, then `key=value` pairs; unknown
    /// keys are ignored so older binaries can read newer snapshots).
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut words = line.split_whitespace();
        let label = words.next().ok_or("empty snapshot meta line")?.to_string();
        let mut unit = WorkUnit {
            label,
            algo: Algo::FullyAdaptive,
            table: 0,
            n: 0,
            cap: 0,
            cycles: 0,
            seed: 0,
            lambda: None,
        };
        let mut algo = None;
        for w in words {
            let (key, val) = w
                .split_once('=')
                .ok_or_else(|| format!("bad meta field `{w}` (expected key=value)"))?;
            let bad = || format!("bad meta field `{w}` (not a valid {key})");
            match key {
                "algo" => algo = Some(Algo::parse(val).ok_or_else(bad)?),
                "table" => unit.table = val.parse().ok().filter(|&t| t <= 12).ok_or_else(bad)?,
                "n" => {
                    let dims = 1..=Hypercube::MAX_DIMS;
                    unit.n = val
                        .parse()
                        .ok()
                        .filter(|n| dims.contains(n))
                        .ok_or_else(bad)?;
                }
                "cap" => unit.cap = val.parse().map_err(|_| bad())?,
                "cycles" => unit.cycles = val.parse().map_err(|_| bad())?,
                "seed" => unit.seed = val.parse().map_err(|_| bad())?,
                "lambda" => {
                    let l = val.parse().ok().filter(|l| (0.0..=1.0).contains(l));
                    unit.lambda = Some(l.ok_or_else(bad)?);
                }
                _ => {}
            }
        }
        match algo {
            Some(algo) if unit.n > 0 => Ok(WorkUnit { algo, ..unit }),
            _ => Err("snapshot meta is missing algo= or n= (not a runner snapshot?)".into()),
        }
    }
}

/// The recorder a work unit runs with: [`NoRecorder`] on the unrecorded
/// path, so `Rec::ENABLED` stays `false` and every hook compiles away,
/// or a [`SinkSet`] built from a [`RecordConfig`].
trait UnitRecorder: ShardRecorder + Send {
    /// The recorder of one engine, or of one shard of a sharded engine.
    fn build(rc: &RecordConfig, nodes: usize, classes: usize) -> Self;
    /// Close a run: install the sharded engine's global watchdog, if
    /// any, and flush buffered sinks.
    fn finish(&mut self, watchdog: Option<WatchdogSink>);
}

impl UnitRecorder for NoRecorder {
    fn build(_: &RecordConfig, _: usize, _: usize) -> Self {
        NoRecorder
    }
    fn finish(&mut self, _: Option<WatchdogSink>) {}
}

impl UnitRecorder for SinkSet {
    fn build(rc: &RecordConfig, nodes: usize, classes: usize) -> Self {
        rc.build(nodes, classes)
    }
    fn finish(&mut self, watchdog: Option<WatchdogSink>) {
        if watchdog.is_some() {
            self.watchdog = watchdog;
        }
        self.flush();
    }
}

/// How one leg of a run ended.
enum Leg {
    Paused(RunProgress),
    Static(StaticResult),
    Dynamic(DynamicResult),
}

impl From<StaticOutcome> for Leg {
    fn from(outcome: StaticOutcome) -> Self {
        match outcome {
            StaticOutcome::Paused(progress) => Self::Paused(progress),
            StaticOutcome::Finished(res) => Self::Static(res),
        }
    }
}

impl From<DynamicOutcome> for Leg {
    fn from(outcome: DynamicOutcome) -> Self {
        match outcome {
            DynamicOutcome::Paused(progress) => Self::Paused(progress),
            DynamicOutcome::Finished(res) => Self::Dynamic(res),
        }
    }
}

/// The engine a work unit runs on: sequential, or sharded when
/// `RunOptions::shards > 1`. Snapshots are partition-agnostic, so a
/// checkpoint from either engine resumes on either.
#[allow(clippy::large_enum_variant)] // one per work unit, built once
enum Engine<R: RoutingFunction, Rec: ShardRecorder> {
    Seq(Simulator<R, Rec>),
    Sharded(ShardedSimulator<R, Rec>),
}

impl<R: Router, Rec: UnitRecorder> Engine<R, Rec> {
    /// Build the engine of `unit`. Sharded, its per-shard recorders lack
    /// the global watchdog (a shard sees only its own deliveries) and
    /// wait-for-graph probe (binaries reject `--waitgraph` with shards);
    /// the engine runs the watchdog instead.
    fn new(rf: R, unit: &WorkUnit, opts: &RunOptions, rc: &RecordConfig) -> Self {
        let (cfg, nodes, classes) = (unit.config(), rf.topology().num_nodes(), rf.num_classes());
        if opts.shards > 1 {
            let shard_rc = RecordConfig {
                watchdog: None,
                waitgraph: false,
                ..*rc
            };
            let mut sim = ShardedSimulator::with_recorders_strategy(
                rf,
                cfg,
                opts.shards,
                opts.partition,
                |_| Rec::build(&shard_rc, nodes, classes),
            );
            if let Some(plan) = opts.faults {
                sim = sim.with_faults(plan.clone());
            }
            if let Some(k) = rc.watchdog {
                sim = sim.with_watchdog(k);
            }
            Self::Sharded(sim)
        } else {
            let mut sim = Simulator::with_recorder(rf, cfg, Rec::build(rc, nodes, classes));
            if let Some(plan) = opts.faults {
                sim = sim.with_faults(plan.clone());
            }
            Self::Seq(sim)
        }
    }

    /// Run `w` from cycle 0, or from restored progress `from`, until it
    /// ends or reaches cycle `pause_at`.
    fn leg(
        &mut self,
        w: &Workload,
        cycles: u64,
        from: Option<RunProgress>,
        pause_at: Option<u64>,
    ) -> Leg {
        match w {
            Workload::Backlog(b) => match (self, from) {
                (Self::Seq(s), None) => s.run_static_until(b, pause_at).into(),
                (Self::Seq(s), Some(p)) => s.resume_static(b, p, pause_at).into(),
                (Self::Sharded(s), None) => s.run_static_until(b, pause_at).into(),
                (Self::Sharded(s), Some(p)) => s.resume_static(b, p, pause_at).into(),
            },
            &Workload::Dynamic {
                lambda,
                ref pattern,
                nodes,
            } => {
                let dest = |v, rng: &mut StdRng| pattern.draw(v, nodes, rng);
                match (self, from) {
                    (Self::Seq(s), None) => s.run_dynamic_until(lambda, dest, cycles, pause_at),
                    (Self::Seq(s), Some(p)) => s.resume_dynamic(lambda, dest, cycles, p, pause_at),
                    (Self::Sharded(s), None) => s.run_dynamic_until(lambda, dest, cycles, pause_at),
                    (Self::Sharded(s), Some(p)) => {
                        s.resume_dynamic(lambda, dest, cycles, p, pause_at)
                    }
                }
                .into()
            }
        }
    }

    /// Restore `text`, which must be a snapshot of `unit` whose progress
    /// fits `w`, and return where its run stopped.
    fn restore(
        &mut self,
        text: &str,
        unit: &WorkUnit,
        w: &Workload,
    ) -> Result<RunProgress, String> {
        let theirs = crate::replay::peek_meta(text)?;
        if theirs != *unit {
            return Err(format!(
                "it holds work unit `{}`, not `{}`",
                theirs.meta_line(),
                unit.meta_line()
            ));
        }
        let (_, progress) = match self {
            Self::Seq(s) => s.restore(text),
            Self::Sharded(s) => s.restore(text),
        }?;
        if !w.accepts(&progress) {
            return Err("its run progress does not fit the work unit's workload".into());
        }
        Ok(progress)
    }

    fn checkpoint(&self, meta: &str, progress: &RunProgress) -> String {
        match self {
            Self::Seq(s) => s.checkpoint(meta, progress),
            Self::Sharded(s) => s.checkpoint(meta, progress),
        }
    }

    /// The run's recorder, finished (see [`UnitRecorder::finish`]).
    fn into_recorder(self, watchdog: Option<u64>) -> Rec {
        let (mut rec, wd) = match self {
            Self::Seq(sim) => (sim.into_recorder(), None),
            Self::Sharded(sim) => {
                let wd = watchdog.map(|k| {
                    let mut wd = WatchdogSink::new(k);
                    wd.report = sim.stall_report().cloned();
                    wd
                });
                (sim.into_recorder(), wd)
            }
        };
        rec.finish(wd);
        rec
    }
}

/// Run `unit` on `eng` to its end under the snapshot policy `snap`:
/// straight through; or pause at the checkpoint cycle, write the unit's
/// snapshot and continue in-process; or restore the unit's snapshot and
/// resume. On resume only a missing file means "this run drained before
/// the checkpoint cycle" and reruns it from cycle 0 (bit-identical
/// either way); any other read error, a snapshot the engine cannot
/// restore, or one of another unit is an error naming the file, as is a
/// snapshot that cannot be written.
fn drive<R: Router, Rec: UnitRecorder>(
    eng: &mut Engine<R, Rec>,
    unit: &WorkUnit,
    snap: Option<SnapshotPolicy>,
) -> Result<Leg, String> {
    let w = unit.workload();
    let Some(sp) = snap else {
        return Ok(eng.leg(&w, unit.cycles, None, None));
    };
    let path = sp.path(&unit.label);
    if sp.resume {
        let from = match std::fs::read_to_string(&path) {
            Err(e) if e.kind() == ErrorKind::NotFound => None,
            Err(e) => return Err(format!("reading snapshot {}: {e}", path.display())),
            Ok(text) => Some(
                eng.restore(&text, unit, &w)
                    .map_err(|e| format!("restoring {}: {e}", path.display()))?,
            ),
        };
        return Ok(eng.leg(&w, unit.cycles, from, None));
    }
    match eng.leg(&w, unit.cycles, None, sp.at) {
        Leg::Paused(progress) => {
            std::fs::write(&path, eng.checkpoint(&unit.meta_line(), &progress))
                .map_err(|e| format!("writing snapshot {}: {e}", path.display()))?;
            Ok(eng.leg(&w, unit.cycles, Some(progress), None))
        }
        done => Ok(done),
    }
}

/// Run `unit` to its end on the engine `opts.shards` selects, recording
/// into a `Rec` built from `rc`.
fn run_unit<Rec: UnitRecorder>(
    unit: &WorkUnit,
    opts: &RunOptions,
    rc: &RecordConfig,
) -> Result<(Leg, Rec), String> {
    struct Task<'a, Rec> {
        unit: &'a WorkUnit,
        opts: &'a RunOptions,
        rc: &'a RecordConfig,
        rec: PhantomData<Rec>,
    }
    impl<Rec: UnitRecorder> RouterTask for Task<'_, Rec> {
        type Output = Result<(Leg, Rec), String>;
        fn run<R: Router>(self, rf: R) -> Self::Output {
            let mut eng = Engine::<R, Rec>::new(rf, self.unit, self.opts, self.rc);
            let leg = drive(&mut eng, self.unit, self.opts.snapshot)?;
            Ok((leg, eng.into_recorder(self.rc.watchdog)))
        }
    }
    let task = Task {
        unit,
        opts,
        rc,
        rec: PhantomData,
    };
    unit.algo.run(unit.n, task)
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

impl RowResult {
    /// The row of one run that ended with `stop`.
    fn new(n: usize, stats: &LatencyStats, injection_rate: Option<f64>, stop: StopReason) -> Self {
        Self {
            n,
            l_avg: stats.mean(),
            l_max: stats.max(),
            injection_rate,
            aborted: matches!(stop, StopReason::Aborted | StopReason::Partitioned),
        }
    }
}

/// Run one row (one hypercube dimension) of one table, averaging over
/// `opts.reps` replications.
/// Fails as [`run_rows`] does.
pub fn run_row(spec: TableSpec, n: usize, opts: RunOptions) -> Result<RowResult, String> {
    Ok(run_rows(spec, &[n], opts, 1)?[0])
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
/// Every work unit seeds its RNG streams purely from its coordinates
/// (see `WorkUnit::row`), so results do not depend on which worker ran
/// them or in what order; the per-row reduction then happens in fixed
/// rep order on the calling thread. Output is bit-identical for every
/// `jobs` (see `tests/parallel_identity.rs`).
///
/// # Errors
///
/// A snapshot that `opts.snapshot` cannot read, restore or write (see
/// [`SnapshotPolicy`]); the message names the file. The first failing
/// unit in grid order wins.
pub fn run_rows(
    spec: TableSpec,
    dims: &[usize],
    opts: RunOptions,
    jobs: usize,
) -> Result<Vec<RowResult>, String> {
    let rows = run_rows_with::<NoRecorder>(spec, dims, opts, jobs, RecordConfig::default())?;
    Ok(rows.into_iter().map(|(row, _)| row).collect())
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
/// Fails as [`run_rows`] does.
pub fn run_rows_recorded(
    spec: TableSpec,
    dims: &[usize],
    opts: RunOptions,
    jobs: usize,
    rc: RecordConfig,
) -> Result<Vec<RecordedRow>, String> {
    let rows = run_rows_with::<SinkSet>(spec, dims, opts, jobs, rc)?;
    Ok(rows
        .into_iter()
        .map(|(row, recs)| {
            let mut recs = recs.into_iter();
            let mut sinks = recs.next().expect("at least one replication");
            recs.for_each(|other| sinks.merge(&other));
            RecordedRow { row, sinks }
        })
        .collect())
}

/// The rows of [`run_rows`], each with the recorders of its
/// replications in rep order.
fn run_rows_with<Rec: UnitRecorder>(
    spec: TableSpec,
    dims: &[usize],
    opts: RunOptions,
    jobs: usize,
    rc: RecordConfig,
) -> Result<Vec<(RowResult, Vec<Rec>)>, String> {
    let reps = opts.reps.max(1) as usize;
    let results = crate::exec::run_indexed(dims.len() * reps, jobs, |i| {
        let unit = WorkUnit::row(spec, dims[i / reps], (i % reps) as u64, &opts);
        let (leg, rec) = run_unit::<Rec>(&unit, &opts, &rc)?;
        let row = match leg {
            Leg::Static(res) => {
                // A watchdogged or faulted run may abort instead of
                // draining; report, don't panic.
                if rc.watchdog.is_none() && opts.faults.is_none() {
                    assert!(
                        res.drained,
                        "table {} n={} failed to drain",
                        unit.table, unit.n
                    );
                }
                RowResult::new(unit.n, &res.stats, None, res.stop)
            }
            Leg::Dynamic(res) => {
                RowResult::new(unit.n, &res.stats, Some(res.injection_rate()), res.stop)
            }
            Leg::Paused(_) => unreachable!("drive runs every unit to its end"),
        };
        Ok((row, rec))
    });
    let mut results = results
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?
        .into_iter();
    Ok(dims
        .iter()
        .map(|&n| {
            let (rows, recs): (Vec<RowResult>, Vec<Rec>) = results.by_ref().take(reps).unzip();
            (reduce_reps(n, &rows), recs)
        })
        .collect())
}

/// One recorded uniform-random dynamic run at offered load `lambda` on
/// the `n`-cube — the sweep binary's work unit (`WorkUnit::point`:
/// router, capacity, horizon and seed from `opts`). Results and sinks
/// are bit-identical for any `opts.shards`; `opts.snapshot` applies the
/// checkpoint/resume policy to the point (its meta line records
/// `table=0` plus λ, which is how `replay` rebuilds the workload).
/// Fails as [`run_rows`] does.
pub fn dynamic_random_recorded(
    lambda: f64,
    n: usize,
    opts: RunOptions,
    rc: RecordConfig,
) -> Result<(DynamicResult, SinkSet), String> {
    match run_unit::<SinkSet>(&WorkUnit::point(lambda, n, &opts), &opts, &rc)? {
        (Leg::Dynamic(res), sinks) => Ok((res, sinks)),
        _ => unreachable!("a sweep point is a dynamic run, driven to its end"),
    }
}

/// [`run_row`] on the batched lane engine: the row's `opts.reps`
/// replications run as lanes of one [`LaneSim`] sharing a single
/// precomputed routing table, instead of `reps` standalone simulators.
///
/// Lane `rep` takes the seed and the workload of the row's replication
/// `rep` (`WorkUnit::row`), and the lane engine guarantees each lane
/// is bit-identical to a standalone sequential run with that seed — so
/// the reduced row is bit-identical to [`run_row`]'s
/// (`tests/lane_identity.rs` enforces this).
///
/// # Panics
///
/// Panics if `opts` requests shards, faults, or checkpoints: the lane
/// engine batches clean replications only (binaries reject those flag
/// combinations up front; this is the backstop).
pub fn run_row_lanes(spec: TableSpec, n: usize, opts: RunOptions) -> RowResult {
    struct Task<'a>(&'a [WorkUnit]);
    impl RouterTask for Task<'_> {
        type Output = Vec<RowResult>;
        fn run<R: Router>(self, rf: R) -> Vec<RowResult> {
            let units = self.0;
            let (table, n, cycles) = (units[0].table, units[0].n, units[0].cycles);
            let seeds = units.iter().map(|u| u.seed).collect();
            let mut sim = LaneSim::with_lane_seeds(rf, units[0].config(), seeds);
            let (mut backlogs, mut patterns, mut rate) = (Vec::new(), Vec::new(), None);
            for w in units.iter().map(WorkUnit::workload) {
                match w {
                    Workload::Backlog(b) => backlogs.push(b),
                    Workload::Dynamic {
                        lambda,
                        pattern,
                        nodes,
                    } => {
                        rate = Some((lambda, nodes));
                        patterns.push(pattern);
                    }
                }
            }
            match rate {
                None => sim
                    .run_static(&backlogs)
                    .iter()
                    .map(|res| {
                        assert!(res.drained, "table {table} n={n} failed to drain");
                        RowResult::new(n, &res.stats, None, res.stop)
                    })
                    .collect(),
                Some((lambda, nodes)) => sim
                    .run_dynamic_indexed(
                        lambda,
                        |lane, src, rng| patterns[lane].draw(src, nodes, rng),
                        cycles,
                    )
                    .iter()
                    .map(|res| RowResult::new(n, &res.stats, Some(res.injection_rate()), res.stop))
                    .collect(),
            }
        }
    }
    assert!(
        opts.shards <= 1 && opts.faults.is_none() && opts.snapshot.is_none(),
        "lane-batched rows support neither shards, faults, nor checkpoints"
    );
    let units: Vec<WorkUnit> = (0..u64::from(opts.reps.max(1)))
        .map(|rep| WorkUnit::row(spec, n, rep, &opts))
        .collect();
    reduce_reps(n, &opts.algo.run(n, Task(&units)))
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

/// The lane-batched λ sweep of one router, run router-major: one
/// [`LaneSim`] of `lanes` lanes (per-lane seeds split from the default
/// seed) — and with it the routing-state table, the engine's one
/// expensive set-up — runs every λ of `lambdas` in order, each point as
/// [`dynamic_random_lanes`].
pub fn lane_sweep(
    algo: Algo,
    n: usize,
    lambdas: &[f64],
    cycles: u64,
    lanes: usize,
) -> Vec<LanePoint> {
    struct Task<'a> {
        lambdas: &'a [f64],
        cycles: u64,
        lanes: usize,
    }
    impl RouterTask for Task<'_> {
        type Output = Vec<LanePoint>;
        fn run<R: Router>(self, rf: R) -> Vec<LanePoint> {
            let mut sim = LaneSim::new(rf, SimConfig::default(), self.lanes);
            self.lambdas
                .iter()
                .map(|&lambda| dynamic_random_lanes(&mut sim, lambda, self.cycles))
                .collect()
        }
    }
    let task = Task {
        lambdas,
        cycles,
        lanes,
    };
    algo.run(n, task)
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

/// Regenerate one table over an explicit dimension list, returning a
/// rendered [`Table`] with measured and paper reference columns side by
/// side. The dims override exists so tests and sweeps can run the full
/// table pipeline at reduced scale.
/// Fails as [`run_rows`] does.
pub fn run_table_dims(
    number: usize,
    dims: &[usize],
    opts: RunOptions,
    jobs: usize,
) -> Result<Table, String> {
    Ok(render_table(
        number,
        &run_rows(spec(number), dims, opts, jobs)?,
    ))
}

/// [`run_table_dims`] with recording: returns the rendered table plus
/// each row's merged sinks for JSON export. The rendered table is
/// bit-identical to the unrecorded one.
/// Fails as [`run_rows`] does.
pub fn run_table_dims_recorded(
    number: usize,
    dims: &[usize],
    opts: RunOptions,
    jobs: usize,
    rc: RecordConfig,
) -> Result<(Table, Vec<RecordedRow>), String> {
    let recorded = run_rows_recorded(spec(number), dims, opts, jobs, rc)?;
    let rows: Vec<RowResult> = recorded.iter().map(|r| r.row).collect();
    Ok((render_table(number, &rows), recorded))
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
        let r = run_row(s, 6, RunOptions::default()).unwrap();
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
        let r = run_row(s, 6, opts).unwrap();
        assert!(r.injection_rate.unwrap() > 0.5);
        assert!(r.l_avg > 0.0);
    }
}
