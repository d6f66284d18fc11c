//! The simulation engine: data-oriented packet store, queue state, and
//! the three-step routing cycle (fill, link, read).
//!
//! Packet state lives in a struct-of-arrays [`PacketStore`] and cached
//! routing options in a shared [`OptionArena`] (see [`crate::store`]);
//! output/input-buffer occupancy is mirrored in dense bitsets so the
//! link pass can test a whole channel with two word fetches instead of
//! a per-buffer scan. The fill and read passes run the mask kernels of
//! [`crate::kernel`], the same ones [`crate::LaneSim`] runs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fadr_metrics::{
    Control, LatencyStats, NoRecorder, Recorder, ShardRecorder, TimeSeries, TraceState,
};
use fadr_qdg::{BufferClass, HopKind, LinkKind, QueueId, QueueKind, RoutingFunction, SnapshotMsg};
use fadr_topology::NodeId;

use crate::fault::{FaultKind, FaultPlan, FaultState};
use crate::kernel::{self, ReadSlots};
use crate::layout::{Layout, NONE};
use crate::partition::OwnedNodes;
use crate::snapshot::{self, Loc, PacketRec, ParsedSnapshot};
use crate::store::{BitSet, MoveOpt, OptionArena, PacketInit, PacketStore};
use crate::SimConfig;

/// Why a simulation run ended.
///
/// `StaticResult::drained` alone cannot tell a watchdog abort from a
/// `max_cycles` timeout — both used to surface as `drained: false`, so a
/// table row produced by an aborted (stalled) run was indistinguishable
/// from one that merely ran out of its cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Static run: every injected packet was delivered.
    Drained,
    /// Dynamic run: the requested cycle horizon elapsed.
    HorizonReached,
    /// Static run: the [`crate::SimConfig::max_cycles`] safety cap was
    /// hit before the network drained.
    MaxCycles,
    /// An attached [`Recorder`] returned [`Control::Stop`] — e.g. a
    /// watchdog sink declared a no-progress stall.
    Aborted,
    /// A fault left some destination unreachable from a live packet
    /// (see [`crate::fault`]); the run aborted at the end of the cycle
    /// that detected it. [`Simulator::partitioned_destinations`] lists
    /// the unreachable destinations.
    Partitioned,
}

/// Result of a static-injection run (§ 7, Tables 1–8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticResult {
    /// Latency statistics over all delivered packets (in time cycles,
    /// `2 · routing cycles + 1`).
    pub stats: LatencyStats,
    /// Routing cycles executed.
    pub cycles: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets that were to be injected.
    pub total: u64,
    /// Whether every offered packet was accounted for — delivered, or
    /// (under fault injection) dropped/lost to a dead node (always true
    /// for a deadlock-free algorithm within the cycle cap; without
    /// faults this is simply "everything delivered"). Equivalent to
    /// `stop == StopReason::Drained`; kept alongside [`StopReason`] for
    /// callers that only care about success.
    pub drained: bool,
    /// Packets destroyed in flight by node-down faults (0 without a
    /// fault plan).
    pub dropped: u64,
    /// Backlog entries never injected because their source node died
    /// (0 without a fault plan).
    pub lost: u64,
    /// Why the run ended (distinguishes a watchdog abort from a
    /// `max_cycles` timeout, which `drained` alone cannot).
    pub stop: StopReason,
}

/// Result of a dynamic-injection run (§ 7, Tables 9–12).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicResult {
    /// Latency statistics over packets delivered during the run.
    pub stats: LatencyStats,
    /// Injection attempts (each node, each cycle, with probability λ).
    pub attempts: u64,
    /// Successful injections (attempts finding the injection buffer free).
    pub injected: u64,
    /// Packets delivered within the horizon.
    pub delivered: u64,
    /// Routing cycles executed.
    pub cycles: u64,
    /// Packets destroyed in flight by node-down faults (0 without a
    /// fault plan).
    pub dropped: u64,
    /// Why the run ended ([`StopReason::HorizonReached`] unless a
    /// recorder aborted it or a fault partitioned the network).
    pub stop: StopReason,
}

/// Per-central-queue occupancy statistics, sampled once per routing
/// cycle when [`crate::SimConfig::track_occupancy`] is set. Queues are
/// indexed `node * num_classes + class`.
///
/// All state is integer, so [`OccupancyProbe::merge_shard`] is exact and
/// `PartialEq` can assert bit-identity between a sequential probe and a
/// merged sharded one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancyProbe {
    /// Peak occupancy per queue.
    pub max: Vec<u16>,
    /// Sum of sampled occupancies per queue (mean = sum / samples).
    pub sum: Vec<u64>,
    /// Number of samples taken.
    pub samples: u64,
}

impl OccupancyProbe {
    /// Mean occupancy of queue `(node, class)` over the run.
    ///
    /// Total: returns 0.0 when occupancy was never tracked (or the queue
    /// index is out of range) instead of panicking.
    pub fn mean(&self, node: usize, num_classes: usize, class: usize) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sum
            .get(node * num_classes + class)
            .map_or(0.0, |&s| s as f64 / self.samples as f64)
    }

    /// Peak occupancy of queue `(node, class)`.
    ///
    /// Total: returns 0 when occupancy was never tracked (or the queue
    /// index is out of range) instead of panicking.
    pub fn peak(&self, node: usize, num_classes: usize, class: usize) -> u16 {
        self.max
            .get(node * num_classes + class)
            .copied()
            .unwrap_or(0)
    }

    /// Number of queues tracked (`num_nodes * num_classes`; 0 when
    /// occupancy was never tracked).
    pub fn num_queues(&self) -> usize {
        self.max.len()
    }

    /// Network-total mean occupancy per cycle: the sum of every queue's
    /// mean, i.e. the average number of packets resident in central
    /// queues across the run. Equals the sum of [`OccupancyProbe::mean`]
    /// over all queues by construction.
    pub fn total_mean(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sum.iter().sum::<u64>() as f64 / self.samples as f64
    }

    /// Largest per-queue peak across the network. Note this is the max
    /// of *per-queue* peaks (each possibly attained at a different
    /// cycle), not the peak simultaneous network population.
    pub fn total_peak(&self) -> u16 {
        self.max.iter().copied().max().unwrap_or(0)
    }

    /// Merge a sibling shard's probe from the same run. Each queue is
    /// sampled by exactly one shard (the other shards leave it at zero),
    /// so peaks combine by elementwise max and sums by elementwise add;
    /// the sample count — one per cycle on every shard — takes the max
    /// rather than the sum.
    pub fn merge_shard(&mut self, other: &OccupancyProbe) {
        if other.max.len() > self.max.len() {
            self.max.resize(other.max.len(), 0);
            self.sum.resize(other.sum.len(), 0);
        }
        for (a, &b) in self.max.iter_mut().zip(&other.max) {
            *a = (*a).max(b);
        }
        for (a, &b) in self.sum.iter_mut().zip(&other.sum) {
            *a += b;
        }
        self.samples = self.samples.max(other.samples);
    }
}

impl DynamicResult {
    /// The paper's effective injection rate `I_r` (successes / attempts).
    pub fn injection_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.injected as f64 / self.attempts as f64
        }
    }
}

/// Injection-side progress of a paused run: the workload cursors and
/// counters that live in the run *loop* rather than in the engine state,
/// and therefore must ride along with a checkpoint. Returned by the
/// `*_until` run methods on pause and fed back into the `resume_*`
/// methods (or serialized into the snapshot by
/// [`Simulator::checkpoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunProgress {
    /// A static-injection run.
    Static {
        /// Per-node backlog cursor (a dead source node's cursor is
        /// already exhausted, so its write-off is never repeated).
        next_idx: Vec<usize>,
        /// Backlog entries written off because their source node died.
        lost: u64,
    },
    /// A dynamic-injection run (the RNG streams are *not* stored: they
    /// are fast-forwarded deterministically on resume).
    Dynamic {
        /// Injection attempts so far.
        attempts: u64,
        /// Successful injections so far.
        injected: u64,
    },
}

/// Outcome of a pausable static run: finished, or paused at the
/// requested cycle with the progress needed to resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaticOutcome {
    /// The run ended (drained, aborted, or hit the cycle cap).
    Finished(StaticResult),
    /// The run paused at the requested cycle (post-injection); the
    /// engine now sits at the checkpointable pause point.
    Paused(RunProgress),
}

/// Outcome of a pausable dynamic run; see [`StaticOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicOutcome {
    /// The run ended (horizon reached or aborted).
    Finished(DynamicResult),
    /// The run paused at the requested cycle (post-injection).
    Paused(RunProgress),
}

/// Internal parameter pack for [`Simulator::dynamic_loop`].
struct DynState {
    lambda: f64,
    cycles: u64,
    attempts: u64,
    injected: u64,
    pause_at: Option<u64>,
    resumed: bool,
}

/// The packet-routing simulator; see the crate docs for the model.
///
/// `Rec` is the attached event [`Recorder`], monomorphized into the hot
/// loop: the default [`NoRecorder`] has empty inline hooks, so an
/// unobserved simulator compiles to exactly the code it had before the
/// observability layer existed. Pass a [`fadr_metrics::SinkSet`] (or any
/// custom recorder) via [`Simulator::with_recorder`] to collect
/// routing-decision counters, packet traces, or watchdog evidence.
pub struct Simulator<R: RoutingFunction, Rec: Recorder = NoRecorder> {
    rf: R,
    rec: Rec,
    /// Next packet uid (injection order; never recycled).
    next_uid: u64,
    cfg: SimConfig,
    /// Shared with sibling shard simulators in sharded runs (the layout
    /// is immutable after construction).
    layout: Arc<Layout>,
    num_classes: usize,
    /// Central-queue occupancy, indexed `node * num_classes + class`.
    /// Queue *membership* lives in `node_fifo`; only the per-class counts
    /// are needed for capacity checks and the occupancy probe.
    queue_len: Vec<u32>,
    /// Per-node queued packets in FIFO-across-queues order (nondecreasing
    /// `enqueued_at`), maintained incrementally: arrivals append at the
    /// back, stutters re-enqueue at the back, staged packets are removed
    /// in place. This replaces a per-cycle rebuild + sort of the same
    /// ordering, which dominated the fill-phase cost.
    node_fifo: Vec<Vec<u32>>,
    outbuf: Vec<u32>,
    inbuf: Vec<u32>,
    /// Per node: its occupied input buffers, as a slot mask (bit `i` ⇔
    /// the node's `i`-th input buffer holds a packet) under the layout's
    /// `fast_read` predicate and as a count otherwise (see
    /// [`Layout::occupy`]). Every `inbuf` writer goes through
    /// [`Simulator::set_in`] / [`Simulator::clear_in`], which keep it.
    in_mask: Vec<u64>,
    /// Round-robin pointer per channel (link-phase fairness). `u16`
    /// because a channel may carry up to 257 buffer classes.
    chan_rr: Vec<u16>,
    /// Occupied output buffers per channel (link-phase skip count;
    /// `u16` for the same 257-class reason as `chan_rr`).
    chan_pending: Vec<u16>,
    /// Injection buffer per node (`NONE` = empty).
    inj_buf: Vec<u32>,
    /// Struct-of-arrays packet slab (slots recycled, uids never).
    store: PacketStore<R::Msg>,
    /// Cached per-packet option segments (exact-fit recycled).
    opts: OptionArena<R::Msg>,
    /// Scratch list options are computed into before being stored in
    /// the arena (one allocation for the whole simulator lifetime).
    opt_scratch: Vec<MoveOpt<R::Msg>>,
    /// Bitset mirror of `outbuf[b] != NONE` (link-phase word probes).
    out_occ: BitSet,
    /// Bitset mirror of `inbuf[b] != NONE`.
    in_occ: BitSet,
    /// Bitset mirror of `chan_pending[c] > 0` (link-phase iteration
    /// visits only channels with staged traffic).
    chan_live: BitSet,
    cycle: u64,
    stats: LatencyStats,
    delivered: u64,
    occupancy: OccupancyProbe,
    minimality_violations: u64,
    throughput: Option<TimeSeries>,
    /// The attached fault schedule, if any (survives resets; the per-run
    /// state in `faults` is rebuilt from it).
    fault_plan: Option<Arc<FaultPlan>>,
    /// Per-run fault state (dead channels/nodes, freezes, flaky windows,
    /// surviving-graph distances); `None` without a fault plan, so the
    /// unfaulted hot path pays one `Option` check per guard site.
    faults: Option<FaultState>,
    /// Destinations found unreachable this run (unsorted, deduplicated).
    partitioned: Vec<u32>,
    /// Packets destroyed by node-down faults this run.
    dropped: u64,
    /// Some packet this run had an internal (stutter) option, so the
    /// fill pass must look for stutters (never set on routing functions
    /// without internal hops, which then skip that scan entirely).
    any_stutters: bool,
    // Scratch (reused across nodes/cycles). `wanting` serves only the
    // position-major fill scan of layouts failing `fast_fill`;
    // `staging` holds one node's `(packet, position)` fill decisions.
    wanting: Vec<Vec<u32>>,
    staging: Vec<(u32, u32)>,
    stutters: Vec<u32>,
}

impl<R: RoutingFunction> Simulator<R> {
    /// Build a simulator for `rf` with the given configuration and no
    /// recorder (the zero-overhead default).
    pub fn new(rf: R, cfg: SimConfig) -> Self {
        Self::with_recorder(rf, cfg, NoRecorder)
    }
}

impl<R: RoutingFunction, Rec: Recorder> Simulator<R, Rec> {
    /// Build a simulator with an attached event recorder. The recorder
    /// observes every run of this simulator (it is *not* reset between
    /// runs); use one recorder per run for per-run metrics.
    ///
    /// A `queue_capacity` of 0 is permitted: it wedges the network (no
    /// packet can ever enter a central queue), which is useful for
    /// exercising watchdog sinks against a guaranteed stall.
    pub fn with_recorder(rf: R, cfg: SimConfig, rec: Rec) -> Self {
        let layout = Arc::new(Layout::new(&rf));
        Self::with_shared_layout(rf, cfg, rec, layout)
    }

    /// Build a simulator on an already-computed layout (shared between
    /// the per-shard simulators of a [`crate::ShardedSimulator`], which
    /// would otherwise recompute it once per shard).
    pub(crate) fn with_shared_layout(rf: R, cfg: SimConfig, rec: Rec, layout: Arc<Layout>) -> Self {
        let n = layout.num_nodes;
        let num_classes = rf.num_classes();
        let max_out = if layout.fast_fill {
            0
        } else {
            layout.node_out_bufs.iter().map(Vec::len).max().unwrap_or(0)
        };
        Self {
            cfg,
            rec,
            next_uid: 0,
            num_classes,
            queue_len: vec![0; n * num_classes],
            node_fifo: vec![Vec::new(); n],
            outbuf: vec![NONE; layout.num_buffers()],
            inbuf: vec![NONE; layout.num_buffers()],
            in_mask: vec![0; n],
            chan_rr: vec![0; layout.num_channels()],
            chan_pending: vec![0; layout.num_channels()],
            inj_buf: vec![NONE; n],
            store: PacketStore::new(),
            opts: OptionArena::new(),
            opt_scratch: Vec::new(),
            out_occ: BitSet::new(layout.num_buffers()),
            in_occ: BitSet::new(layout.num_buffers()),
            chan_live: BitSet::new(layout.num_channels()),
            cycle: 0,
            stats: LatencyStats::new(),
            delivered: 0,
            occupancy: OccupancyProbe::default(),
            minimality_violations: 0,
            throughput: (cfg.throughput_window > 0).then(|| TimeSeries::new(cfg.throughput_window)),
            fault_plan: None,
            faults: None,
            partitioned: Vec::new(),
            dropped: 0,
            any_stutters: false,
            wanting: vec![Vec::new(); max_out],
            staging: Vec::new(),
            stutters: Vec::new(),
            layout,
            rf,
        }
    }

    /// Attach a fault plan: its scheduled events fire at their cycles on
    /// every subsequent run (see [`crate::fault`] for the model). The
    /// plan's events are sorted by cycle here, so both engines process
    /// them in the same order.
    #[must_use]
    pub fn with_faults(mut self, mut plan: FaultPlan) -> Self {
        plan.normalize();
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Share an already-normalized plan (the sharded driver hands every
    /// shard the same `Arc`).
    pub(crate) fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault_plan = Some(plan);
    }

    /// Destinations a fault made unreachable in the last run, sorted and
    /// deduplicated. Non-empty exactly when the run stopped with
    /// [`StopReason::Partitioned`].
    pub fn partitioned_destinations(&self) -> Vec<u32> {
        let mut out = self.partitioned.clone();
        out.sort_unstable();
        out
    }

    /// Occupancy statistics of the last run (empty unless
    /// [`crate::SimConfig::track_occupancy`] was set).
    pub fn occupancy(&self) -> &OccupancyProbe {
        &self.occupancy
    }

    /// The attached event recorder.
    pub fn recorder(&self) -> &Rec {
        &self.rec
    }

    /// Mutable access to the attached event recorder.
    pub fn recorder_mut(&mut self) -> &mut Rec {
        &mut self.rec
    }

    /// Consume the simulator and return its recorder (e.g. to reduce a
    /// sink after a run).
    pub fn into_recorder(self) -> Rec {
        self.rec
    }

    /// Packets delivered with a hop count different from the topology
    /// distance (0 for a correct minimal algorithm; only counted when
    /// [`crate::SimConfig::check_minimality`] is set).
    pub fn minimality_violations(&self) -> u64 {
        self.minimality_violations
    }

    /// Delivered-packets time series of the last run, if
    /// [`crate::SimConfig::throughput_window`] was non-zero.
    pub fn throughput(&self) -> Option<&TimeSeries> {
        self.throughput.as_ref()
    }

    /// The routing function under simulation.
    pub fn routing(&self) -> &R {
        &self.rf
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.layout.num_nodes
    }

    pub(crate) fn reset(&mut self) {
        self.queue_len.fill(0);
        for f in &mut self.node_fifo {
            f.clear();
        }
        self.outbuf.fill(NONE);
        self.inbuf.fill(NONE);
        self.in_mask.fill(0);
        self.chan_rr.fill(0);
        self.chan_pending.fill(0);
        self.inj_buf.fill(NONE);
        self.store.clear();
        self.opts.clear();
        self.opt_scratch.clear();
        self.out_occ.clear_all();
        self.in_occ.clear_all();
        self.chan_live.clear_all();
        self.next_uid = 0;
        self.cycle = 0;
        self.stats = LatencyStats::new();
        self.delivered = 0;
        self.occupancy = OccupancyProbe::default();
        self.minimality_violations = 0;
        self.dropped = 0;
        self.any_stutters = false;
        self.partitioned.clear();
        self.faults = self
            .fault_plan
            .as_ref()
            .map(|p| FaultState::new(Arc::clone(p), &self.layout, self.num_classes));
        self.throughput =
            (self.cfg.throughput_window > 0).then(|| TimeSeries::new(self.cfg.throughput_window));
        if self.cfg.track_occupancy {
            self.occupancy.max = vec![0; self.queue_len.len()];
            self.occupancy.sum = vec![0; self.queue_len.len()];
        }
    }

    /// Run a static-injection experiment: node `v` injects the packets of
    /// `backlog[v]` (in order) as fast as its injection buffer frees up,
    /// and the run ends when the network drains.
    pub fn run_static(&mut self, backlog: &[Vec<NodeId>]) -> StaticResult {
        match self.run_static_until(backlog, None) {
            StaticOutcome::Finished(r) => r,
            StaticOutcome::Paused(_) => unreachable!("no pause requested"),
        }
    }

    /// [`Simulator::run_static`] with an optional pause point: with
    /// `pause_at = Some(p)` the run stops at cycle `p` *after* the
    /// injection pass but *before* the routing step — the engine's
    /// checkpointable pause point (see [`crate::snapshot`]) — and
    /// returns the loop progress needed to resume.
    pub fn run_static_until(
        &mut self,
        backlog: &[Vec<NodeId>],
        pause_at: Option<u64>,
    ) -> StaticOutcome {
        assert_eq!(backlog.len(), self.num_nodes());
        self.reset();
        self.static_loop(backlog, vec![0usize; backlog.len()], 0, pause_at, false)
    }

    /// Continue a static run from a restored checkpoint (see
    /// [`Simulator::restore`]). The engine must already hold the
    /// restored state; `backlog` must be the original workload.
    ///
    /// # Panics
    ///
    /// Panics if `progress` is not [`RunProgress::Static`] or its cursor
    /// vector does not match `backlog`.
    pub fn resume_static(
        &mut self,
        backlog: &[Vec<NodeId>],
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> StaticOutcome {
        assert_eq!(backlog.len(), self.num_nodes());
        let RunProgress::Static { next_idx, lost } = progress else {
            panic!("resume_static needs static progress");
        };
        assert_eq!(next_idx.len(), backlog.len(), "progress/backlog mismatch");
        self.static_loop(backlog, next_idx, lost, pause_at, true)
    }

    fn static_loop(
        &mut self,
        backlog: &[Vec<NodeId>],
        mut next_idx: Vec<usize>,
        mut lost: u64,
        pause_at: Option<u64>,
        mut resumed: bool,
    ) -> StaticOutcome {
        let total: u64 = backlog.iter().map(|b| b.len() as u64).sum();
        let mut aborted = false;
        while self.delivered + self.dropped + lost < total && self.cycle < self.cfg.max_cycles {
            if resumed {
                // The restored cycle already performed its injections
                // (the pause point is post-injection); run its routing
                // step directly.
                resumed = false;
            } else {
                for v in 0..backlog.len() {
                    if next_idx[v] >= backlog[v].len() {
                        continue;
                    }
                    if !self.node_alive(v) {
                        // A dead node's remaining backlog is never offered.
                        lost += (backlog[v].len() - next_idx[v]) as u64;
                        next_idx[v] = backlog[v].len();
                    } else if self.inj_buf[v] == NONE {
                        let dst = backlog[v][next_idx[v]];
                        next_idx[v] += 1;
                        self.inj_buf[v] = self.alloc_packet(v, dst);
                    }
                }
                if pause_at == Some(self.cycle) {
                    return StaticOutcome::Paused(RunProgress::Static { next_idx, lost });
                }
            }
            if self.step() == Control::Stop {
                aborted = true;
                break;
            }
        }
        let accounted = self.delivered + self.dropped + lost == total;
        let stop = if accounted {
            StopReason::Drained
        } else if !self.partitioned.is_empty() {
            StopReason::Partitioned
        } else if aborted {
            StopReason::Aborted
        } else {
            StopReason::MaxCycles
        };
        StaticOutcome::Finished(StaticResult {
            stats: self.stats.clone(),
            cycles: self.cycle,
            delivered: self.delivered,
            total,
            drained: stop == StopReason::Drained,
            dropped: self.dropped,
            lost,
            stop,
        })
    }

    /// Run a dynamic-injection experiment for `cycles` routing cycles:
    /// each node attempts an injection each cycle with probability
    /// `lambda`, drawing destinations from `dest`.
    ///
    /// Each node draws its Bernoulli trials and destinations from its
    /// *own* deterministic RNG stream (seeded from
    /// [`crate::SimConfig::seed`] and the node id), and the destination
    /// is drawn on every attempt whether or not the injection buffer is
    /// free. Together these make the offered workload a pure function of
    /// `(seed, λ, cycles)`: it no longer depends on buffer occupancy
    /// (i.e. on the routing algorithm, queue capacity, or fill order), so
    /// latency numbers from different configurations answer the same
    /// question — and a sharded run injects the exact same packets as a
    /// sequential one regardless of how nodes are partitioned.
    pub fn run_dynamic(
        &mut self,
        lambda: f64,
        dest: impl FnMut(NodeId, &mut StdRng) -> NodeId,
        cycles: u64,
    ) -> DynamicResult {
        match self.run_dynamic_until(lambda, dest, cycles, None) {
            DynamicOutcome::Finished(r) => r,
            DynamicOutcome::Paused(_) => unreachable!("no pause requested"),
        }
    }

    /// [`Simulator::run_dynamic`] with an optional pause point (see
    /// [`Simulator::run_static_until`] for the pause-point semantics).
    pub fn run_dynamic_until(
        &mut self,
        lambda: f64,
        mut dest: impl FnMut(NodeId, &mut StdRng) -> NodeId,
        cycles: u64,
        pause_at: Option<u64>,
    ) -> DynamicOutcome {
        assert!((0.0..=1.0).contains(&lambda));
        self.reset();
        let seed = self.cfg.seed;
        let rngs: Vec<StdRng> = (0..self.num_nodes()).map(|v| node_rng(seed, v)).collect();
        let st = DynState {
            lambda,
            cycles,
            attempts: 0,
            injected: 0,
            pause_at,
            resumed: false,
        };
        self.dynamic_loop(st, &mut dest, rngs)
    }

    /// Continue a dynamic run from a restored checkpoint. `lambda`,
    /// `dest`, and `cycles` must be the original workload parameters:
    /// the per-node RNG streams are not stored in the snapshot but
    /// *fast-forwarded* — each node's stream is replayed through the
    /// draws the paused run already consumed (one Bernoulli trial plus,
    /// on success, one destination draw per cycle, destinations drawn
    /// unconditionally by the run loop), which is only possible because
    /// the draw discipline is a pure function of `(seed, λ, cycle)`.
    ///
    /// # Panics
    ///
    /// Panics if `progress` is not [`RunProgress::Dynamic`].
    pub fn resume_dynamic(
        &mut self,
        lambda: f64,
        mut dest: impl FnMut(NodeId, &mut StdRng) -> NodeId,
        cycles: u64,
        progress: RunProgress,
        pause_at: Option<u64>,
    ) -> DynamicOutcome {
        assert!((0.0..=1.0).contains(&lambda));
        let RunProgress::Dynamic { attempts, injected } = progress else {
            panic!("resume_dynamic needs dynamic progress");
        };
        let seed = self.cfg.seed;
        // The pause point is post-injection at cycle P, so each stream
        // has consumed exactly P + 1 per-cycle draw rounds.
        let rounds = self.cycle + 1;
        let rngs: Vec<StdRng> = (0..self.num_nodes())
            .map(|v| {
                let mut rng = node_rng(seed, v);
                for _ in 0..rounds {
                    let _ = draw(&mut rng, lambda, v, &mut dest);
                }
                rng
            })
            .collect();
        let st = DynState {
            lambda,
            cycles,
            attempts,
            injected,
            pause_at,
            resumed: true,
        };
        self.dynamic_loop(st, &mut dest, rngs)
    }

    fn dynamic_loop(
        &mut self,
        mut st: DynState,
        dest: &mut impl FnMut(NodeId, &mut StdRng) -> NodeId,
        mut rngs: Vec<StdRng>,
    ) -> DynamicOutcome {
        let mut stop = StopReason::HorizonReached;
        while self.cycle < st.cycles {
            if st.resumed {
                // The restored cycle already performed its injections.
                st.resumed = false;
            } else {
                for (v, rng) in rngs.iter_mut().enumerate() {
                    // Destinations are drawn unconditionally (see
                    // `draw`): a blocked attempt discards the draw
                    // instead of deferring it, keeping the per-node
                    // stream independent of buffer occupancy (and of
                    // fault-induced node deaths — a dead node keeps
                    // drawing and discarding).
                    let Some(dst) = draw(rng, st.lambda, v, dest) else {
                        continue;
                    };
                    st.attempts += 1;
                    if self.inj_buf[v] == NONE && self.node_alive(v) {
                        self.inj_buf[v] = self.alloc_packet(v, dst);
                        st.injected += 1;
                    }
                }
                if st.pause_at == Some(self.cycle) {
                    return DynamicOutcome::Paused(RunProgress::Dynamic {
                        attempts: st.attempts,
                        injected: st.injected,
                    });
                }
            }
            if self.step() == Control::Stop {
                stop = if self.partitioned.is_empty() {
                    StopReason::Aborted
                } else {
                    StopReason::Partitioned
                };
                break;
            }
        }
        DynamicOutcome::Finished(DynamicResult {
            stats: self.stats.clone(),
            attempts: st.attempts,
            injected: st.injected,
            delivered: self.delivered,
            cycles: self.cycle,
            dropped: self.dropped,
            stop,
        })
    }

    fn alloc_packet(&mut self, src: NodeId, dst: NodeId) -> u32 {
        let msg = self.rf.initial_msg(src, dst);
        let uid = self.next_uid;
        self.next_uid += 1;
        if Rec::ENABLED {
            self.rec.on_inject(self.cycle, uid, src as u32, dst as u32);
        }
        self.store.insert(PacketInit {
            src: src as u32,
            dst: dst as u32,
            uid,
            hops: 0,
            inject_cycle: self.cycle,
            enqueued_at: self.cycle,
            moved_at: u64::MAX,
            msg,
            next_class: 0,
            class: 0,
            escape: false,
        })
    }

    /// One routing cycle: node fill, link, node read. Returns the
    /// recorder's verdict (always [`Control::Continue`] for the no-op
    /// recorder, in which case the check folds away).
    fn step(&mut self) -> Control {
        if self.faults.is_some() {
            self.apply_faults(&OwnedNodes::all(self.layout.num_nodes));
        }
        self.fill_phase();
        self.link_phase();
        self.read_phase();
        if self.cfg.track_occupancy {
            self.sample_occupancy(&OwnedNodes::all(self.layout.num_nodes));
        }
        if Rec::ENABLED && self.rec.want_waitgraph() {
            // Live wait-for-graph probe: collected only when a sink asks
            // for it, so the unobserved hot path pays one (inlined,
            // constant-false) check.
            let edges = self.local_wait_edges();
            self.rec.on_wait_probe(self.cycle, &edges);
        }
        let mut ctl = self.end_cycle();
        if !self.partitioned.is_empty() {
            // A partitioned destination can never drain: stop at the end
            // of the cycle that detected it instead of spinning to the
            // cycle cap.
            ctl = Control::Stop;
        }
        if Rec::ENABLED && ctl == Control::Stop {
            // A stopping run (watchdog stall, partition) gets the
            // blocked wait-for relation attached to its stall evidence.
            let edges = self.local_wait_edges();
            self.rec.on_stall_waits(&edges);
        }
        self.cycle += 1;
        ctl
    }

    /// The blocked wait-for relation over the queued packets of `nodes`:
    /// an edge `(v, c, w, c')` records that some packet resident in
    /// central queue `(v, c)` has a cached link option into queue
    /// `(w, c')` which `is_full` reports at capacity. Sorted and
    /// deduplicated, so sequential and (merged) sharded probes agree. A
    /// cycle in this relation among *fully*-blocked queues is exactly
    /// the deadlock configuration the paper's QDG argument excludes.
    pub(crate) fn wait_edges(
        &self,
        nodes: &OwnedNodes,
        is_full: &dyn Fn(u32, u8) -> bool,
    ) -> Vec<(u32, u8, u32, u8)> {
        let mut edges = Vec::new();
        for v in nodes.iter() {
            for &p in &self.node_fifo[v] {
                let class = self.store.class[p as usize];
                for i in self.store.opt_range(p) {
                    let buf = self.opts.buf[i];
                    if buf == NONE {
                        continue;
                    }
                    let chan = self.layout.buf_chan[buf as usize] as usize;
                    let w = self.layout.chan_to[chan];
                    let c2 = self.opts.to_class[i];
                    if is_full(w, c2) {
                        edges.push((v as u32, class, w, c2));
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// [`Simulator::wait_edges`] over all nodes against this engine's
    /// own queue lengths (the sequential probe; shards must consult the
    /// merged cross-shard occupancy instead).
    fn local_wait_edges(&self) -> Vec<(u32, u8, u32, u8)> {
        let cap = self.cfg.queue_capacity;
        let full = |w: u32, c: u8| {
            self.queue_len[w as usize * self.num_classes + usize::from(c)] as usize >= cap
        };
        self.wait_edges(&OwnedNodes::all(self.layout.num_nodes), &full)
    }

    /// Record one occupancy sample over the queues of `nodes` (a shard
    /// samples only the node set it owns).
    pub(crate) fn sample_occupancy(&mut self, nodes: &OwnedNodes) {
        for v in nodes.iter() {
            for q in v * self.num_classes..(v + 1) * self.num_classes {
                let len = self.queue_len[q] as u16;
                self.occupancy.max[q] = self.occupancy.max[q].max(len);
                self.occupancy.sum[q] += u64::from(len);
            }
        }
        self.occupancy.samples += 1;
    }

    /// Fire the recorder's end-of-cycle hook (without advancing the
    /// cycle counter) and return its verdict.
    pub(crate) fn end_cycle(&mut self) -> Control {
        if Rec::ENABLED {
            self.rec.on_cycle_end(self.cycle)
        } else {
            Control::Continue
        }
    }

    /// Node cycle, part 1 (§ 7.1): "each node fills its output buffers
    /// from low to high dimensions, taking messages from the queues in
    /// FIFO order."
    ///
    /// FIFO-across-queues priority comes straight from `node_fifo`, which
    /// is kept in arrival order incrementally (appends on arrival and on
    /// stutter re-enqueue, in-place removal when staged) — no per-cycle
    /// rebuild or sort. Same-cycle arrivals rank in the order the read
    /// phase accepted them, which rotates per cycle and is therefore fair
    /// across classes.
    fn fill_phase(&mut self) {
        for node in 0..self.layout.num_nodes {
            self.fill_node(node);
        }
    }

    /// Fill pass for a single node (a shard runs this over the node
    /// range it owns; the node's queues, output buffers, and packet
    /// state are all shard-local).
    ///
    /// Under the layout's `fast_fill` predicate this is one FIFO pass
    /// over the packets' want masks ([`kernel::fill_pass`]); a packet in
    /// a frozen queue offers an empty mask, so fault runs take the same
    /// path. Other layouts build per-position wanting lists and run
    /// [`kernel::fill_scan`].
    pub(crate) fn fill_node(&mut self, node: usize) {
        if self.node_fifo[node].is_empty() {
            return;
        }
        let n_out = self.layout.node_out_bufs[node].len();
        let order = self.cfg.fill_order;
        let start = kernel::fill_start(order, self.cycle, node, n_out);
        let mut staging = std::mem::take(&mut self.staging);
        staging.clear();
        let fifo = &self.node_fifo[node];
        let cycle = self.cycle;
        let nc = self.num_classes;
        let (class, wants) = (&self.store.class, &self.store.wants);
        // A frozen queue refuses all movement: its packets neither stage
        // onto links nor stutter until the thaw.
        let frozen =
            |fs: &FaultState, p: u32| fs.frozen(node * nc + usize::from(class[p as usize]), cycle);
        if self.layout.fast_fill {
            let first = self.layout.first_out[node] as usize;
            let ones = if n_out == 64 { !0 } else { (1u64 << n_out) - 1 };
            let avail = !self.out_occ.extract(first, n_out) & ones;
            match &self.faults {
                None => kernel::fill_pass(
                    fifo.iter().map(|&p| (p, wants[p as usize])),
                    avail,
                    order,
                    start,
                    &mut staging,
                ),
                Some(fs) => kernel::fill_pass(
                    fifo.iter()
                        .map(|&p| (p, if frozen(fs, p) { 0 } else { wants[p as usize] })),
                    avail,
                    order,
                    start,
                    &mut staging,
                ),
            }
        } else {
            for w in self.wanting.iter_mut().take(n_out) {
                w.clear();
            }
            for &p in fifo {
                if self.faults.as_ref().is_some_and(|fs| frozen(fs, p)) {
                    continue;
                }
                for i in self.store.opt_range(p) {
                    let buf = self.opts.buf[i];
                    if buf != NONE {
                        let pos = self.layout.buf_out_pos[buf as usize] as usize;
                        self.wanting[pos].push(p);
                    }
                }
            }
            let out_bufs = &self.layout.node_out_bufs[node];
            let outbuf = &self.outbuf;
            kernel::fill_scan(
                &self.wanting,
                n_out,
                order,
                start,
                |pos| outbuf[out_bufs[pos] as usize] == NONE,
                &mut staging,
            );
        }
        for &(p, pos) in &staging {
            self.stage_packet(node, p, pos as usize);
        }
        // Remove staged packets from the node's FIFO (order preserved).
        if !staging.is_empty() {
            let store = &mut self.store;
            let queue_len = &mut self.queue_len;
            let num_classes = self.num_classes;
            let rec = &mut self.rec;
            let cycle = self.cycle;
            self.node_fifo[node].retain(|&p| {
                let pi = p as usize;
                // Stutters run after this drain, so a queued packet that
                // moved this cycle is one the fill pass just staged.
                if store.moved_at[pi] == cycle {
                    let class = store.class[pi];
                    let q = node * num_classes + usize::from(class);
                    queue_len[q] -= 1;
                    if Rec::ENABLED {
                        rec.on_queue_leave(cycle, store.uid[pi], node as u32, class, queue_len[q]);
                    }
                    false
                } else {
                    true
                }
            });
        }
        self.staging = staging;
        if self.any_stutters {
            self.stutter_node(node);
        }
    }

    /// Move queued packet `p` onto the output buffer at fill position
    /// `pos` of `node`, taking the first of its options on that buffer.
    fn stage_packet(&mut self, node: usize, p: u32, pos: usize) {
        let buf = self.layout.out_buf(node, pos);
        let o = self
            .store
            .opt_range(p)
            .find(|&i| self.opts.buf[i] as usize == buf)
            .expect("fill decision names one of the packet's options");
        let pi = p as usize;
        debug_assert_ne!(
            self.store.moved_at[pi], self.cycle,
            "queued packet moved twice"
        );
        self.store.msg[pi] = self.opts.next[o].clone();
        self.store.next_class[pi] = self.opts.to_class[o];
        self.store.escape[pi] = self.opts.escape[o];
        self.store.moved_at[pi] = self.cycle;
        self.outbuf[buf] = p;
        self.out_occ.set(buf);
        let chan = self.layout.buf_chan[buf] as usize;
        self.chan_pending[chan] += 1;
        self.chan_live.set(chan);
    }

    /// The stutter half of the fill pass at `node`, run after staging.
    fn stutter_node(&mut self, node: usize) {
        // Candidates in FIFO order, one entry per packet with an
        // internal option (a second entry of the same packet would
        // retry the same blocked check, a no-op), frozen queues
        // excluded.
        self.stutters.clear();
        for &p in &self.node_fifo[node] {
            let pi = p as usize;
            if self.store.stutters[pi] == 0 {
                continue;
            }
            let q = node * self.num_classes + usize::from(self.store.class[pi]);
            if !self.queue_frozen(q) {
                self.stutters.push(p);
            }
        }
        // Internal stutters (e.g. the shuffle-exchange's degenerate
        // one-node cycles): advance state without crossing a link,
        // costing one cycle. A stutter whose target class differs
        // from the current residence physically migrates the packet,
        // subject to the target queue's capacity — a full target
        // blocks the stutter this cycle exactly like a full output
        // buffer blocks a link move.
        for i in 0..self.stutters.len() {
            let p = self.stutters[i];
            let pi = p as usize;
            if self.store.moved_at[pi] == self.cycle {
                continue;
            }
            let o = self
                .store
                .opt_range(p)
                .find(|&i| self.opts.buf[i] == NONE)
                .expect("stutter option");
            let (next, to_class) = (self.opts.next[o].clone(), self.opts.to_class[o]);
            let from_class = self.store.class[pi];
            if to_class != from_class {
                let qt = node * self.num_classes + usize::from(to_class);
                if self.queue_len[qt] as usize >= self.cfg.queue_capacity || self.queue_frozen(qt) {
                    continue;
                }
            }
            self.store.msg[pi] = next;
            self.store.moved_at[pi] = self.cycle;
            self.store.enqueued_at[pi] = self.cycle;
            let uid = self.store.uid[pi];
            if Rec::ENABLED {
                self.rec
                    .on_stutter(self.cycle, uid, node as u32, from_class, to_class);
            }
            if to_class != from_class {
                self.store.class[pi] = to_class;
                let qf = node * self.num_classes + usize::from(from_class);
                let qt = node * self.num_classes + usize::from(to_class);
                self.queue_len[qf] -= 1;
                self.queue_len[qt] += 1;
                if Rec::ENABLED {
                    self.rec.on_queue_leave(
                        self.cycle,
                        uid,
                        node as u32,
                        from_class,
                        self.queue_len[qf],
                    );
                    self.rec.on_queue_enter(
                        self.cycle,
                        uid,
                        node as u32,
                        to_class,
                        self.queue_len[qt],
                    );
                }
            }
            // Re-enqueued now: move to the back of the arrival order.
            let fifo = &mut self.node_fifo[node];
            let pos = fifo
                .iter()
                .position(|&x| x == p)
                .expect("stuttering packet is queued at its node");
            fifo.remove(pos);
            fifo.push(p);
            self.compute_options(p, node, to_class);
        }
    }

    /// Link cycle (§ 7.1): each directed channel forwards at most one
    /// packet per cycle, round-robin over its traffic-class buffers, and
    /// only into an empty input buffer on the far side.
    ///
    /// Iterates the `chan_live` bitset word by word, so idle channels
    /// cost one word fetch per 64 instead of one counter read each. The
    /// word snapshot is safe because [`Simulator::link_chan`] only ever
    /// *clears* live bits (a link pass moves packets out of output
    /// buffers, never into them).
    fn link_phase(&mut self) {
        for w in 0..self.chan_live.num_words() {
            let mut bits = self.chan_live.word(w);
            while bits != 0 {
                let chan = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.link_chan(chan);
            }
        }
    }

    /// Link pass for one channel whose endpoints are both local; returns
    /// whether a packet crossed (a shard's per-cycle link count feeds the
    /// replicated watchdog state in sharded runs).
    ///
    /// For channels of at most 64 buffer classes (every real routing
    /// family here; 2–3 is typical) the "staged and far side empty"
    /// scan collapses to a bitmask probe: extract the channel's output
    /// and input occupancy windows, and pick the first candidate at or
    /// after the round-robin pointer (wrapping below it) with two
    /// trailing-zeros counts — exactly the buffer the rotating scan
    /// would have chosen.
    pub(crate) fn link_chan(&mut self, chan: usize) -> bool {
        if self.chan_pending[chan] == 0 {
            return false;
        }
        if let Some(fs) = &self.faults {
            if fs.link_blocked(chan as u32, self.cycle) {
                return false;
            }
        }
        let start = self.layout.chan_buf_start[chan] as usize;
        let len = self.layout.chan_buf_len[chan] as usize;
        let rr = self.chan_rr[chan] as usize;
        let pos = if len <= 64 {
            let avail = self.out_occ.extract(start, len) & !self.in_occ.extract(start, len);
            if avail == 0 {
                return false;
            }
            let hi = avail >> rr;
            if hi != 0 {
                rr + hi.trailing_zeros() as usize
            } else {
                avail.trailing_zeros() as usize
            }
        } else {
            // >64 classes: plain rotating scan (exercised by the
            // 257-class layout regression family, not by any real
            // routing function).
            let Some(pos) = (0..len)
                .map(|i| (rr + i) % len)
                .find(|&pos| self.outbuf[start + pos] != NONE && self.inbuf[start + pos] == NONE)
            else {
                return false;
            };
            pos
        };
        let b = start + pos;
        let p = self.outbuf[b];
        self.set_in(self.layout.chan_to[chan] as usize, b, p);
        let pi = p as usize;
        self.store.hops[pi] += 1;
        if Rec::ENABLED {
            self.rec.on_link(
                self.cycle,
                self.store.uid[pi],
                self.layout.chan_from[chan],
                self.layout.chan_to[chan],
                matches!(self.layout.buf_class[b], BufferClass::Dynamic),
                self.store.class[pi],
                self.store.next_class[pi],
            );
        }
        self.outbuf[b] = NONE;
        self.out_occ.clear(b);
        self.chan_pending[chan] -= 1;
        if self.chan_pending[chan] == 0 {
            self.chan_live.clear(chan);
        }
        self.chan_rr[chan] = ((pos + 1) % len) as u16;
        true
    }

    /// Place packet `p` in input buffer `b` at node `to` (its channel's
    /// target), keeping the occupancy bitset and read mask in step.
    fn set_in(&mut self, to: usize, b: usize, p: u32) {
        self.inbuf[b] = p;
        self.in_occ.set(b);
        self.layout.occupy(&mut self.in_mask[to], b);
    }

    /// Empty input buffer `b` at node `to`.
    fn clear_in(&mut self, to: usize, b: usize) {
        self.inbuf[b] = NONE;
        self.in_occ.clear(b);
        self.layout.vacate(&mut self.in_mask[to], b);
    }

    /// Node cycle, part 2 (§ 7.1): "the node reads its input buffers and
    /// its injection buffer and moves their messages to the required
    /// queues, if there is place to do so … in a fair way."
    fn read_phase(&mut self) {
        for node in 0..self.layout.num_nodes {
            self.read_node(node);
        }
    }

    /// Read pass for a single node (shard-local: a node's input buffers
    /// are filled by the link pass of the shard that *owns the node*, so
    /// no cross-shard state is touched here).
    ///
    /// Slots are the node's input buffers followed by its injection
    /// buffer, read in rotating order from `cycle % slots`. Under the
    /// layout's `fast_read` predicate only the occupied ones are visited
    /// ([`ReadSlots`] over the node's read mask); otherwise every slot
    /// is checked.
    pub(crate) fn read_node(&mut self, node: usize) {
        let inputs = self.in_mask[node];
        let inj = self.inj_buf[node] != NONE;
        if inputs == 0 && !inj {
            return;
        }
        let n_in = self.layout.node_in_bufs(node).len();
        let slots = n_in + 1;
        let start = (self.cycle as usize) % slots;
        if self.layout.fast_read {
            for slot in ReadSlots::new(inputs, n_in, inj, start) {
                self.read_slot(node, slot, n_in);
            }
        } else {
            for i in 0..slots {
                self.read_slot(node, (start + i) % slots, n_in);
            }
        }
    }

    /// Read slot `slot` of `node` (a no-op when it is empty): input
    /// buffer `slot` below `n_in`, the injection buffer at `n_in`.
    fn read_slot(&mut self, node: usize, slot: usize, n_in: usize) {
        if slot < n_in {
            let b = self.layout.in_bufs[self.layout.in_start[node] as usize + slot] as usize;
            let p = self.inbuf[b];
            debug_assert!(
                !self.layout.fast_read || p != NONE,
                "read mask names an empty slot"
            );
            if p != NONE && self.accept_arrival(node, p) {
                self.clear_in(node, b);
            }
        } else {
            let p = self.inj_buf[node];
            if p != NONE && self.accept_injection(node, p) {
                self.inj_buf[node] = NONE;
            }
        }
    }

    /// Move an arriving packet into its target queue (or deliver it);
    /// returns false if the queue is full (or frozen) and the packet
    /// must wait.
    fn accept_arrival(&mut self, node: usize, p: u32) -> bool {
        let pi = p as usize;
        if self.store.escape[pi] {
            // Degraded-mode escape hop: the staged `msg` is a
            // placeholder (the pre-hop routing state is gone), so the
            // packet restarts its routing state here via the injection
            // transition. All checks run before any mutation, so a
            // refused packet retries intact next cycle.
            let dst = self.store.dst[pi];
            if dst as usize == node {
                self.deliver(p);
                return true;
            }
            let msg = self.rf.initial_msg(node, dst as usize);
            let class = self.entry_class(node, &msg);
            let q = node * self.num_classes + usize::from(class);
            if self.queue_len[q] as usize >= self.cfg.queue_capacity || self.queue_frozen(q) {
                if Rec::ENABLED {
                    let uid = self.store.uid[pi];
                    self.rec.on_block(self.cycle, uid, node as u32, class);
                }
                return false;
            }
            self.store.msg[pi] = msg;
            self.store.escape[pi] = false;
            let ok = self.enqueue_central(node, p, class, false);
            debug_assert!(ok);
            return true;
        }
        let class = self.store.next_class[pi];
        if self.rf.deliverable(node, &self.store.msg[pi]) {
            debug_assert_eq!(self.store.dst[pi] as usize, node);
            self.deliver(p);
            return true;
        }
        self.enqueue_central(node, p, class, true)
    }

    /// Move a freshly injected packet into its entry queue (or deliver a
    /// self-addressed packet locally).
    fn accept_injection(&mut self, node: usize, p: u32) -> bool {
        if self.store.dst[p as usize] as usize == node {
            self.deliver(p);
            return true;
        }
        let class = self.entry_class(node, &self.store.msg[p as usize].clone());
        self.enqueue_central(node, p, class, true)
    }

    /// The central class targeted by the injection queue's single
    /// (internal, static) transition for `msg` at `node`.
    fn entry_class(&self, node: usize, msg: &R::Msg) -> u8 {
        entry_class_of(&self.rf, node, msg)
    }

    /// Enqueue packet `p` into central queue `class` at `node`. With
    /// `check`, a full or frozen queue refuses the packet (recording a
    /// block) and returns false; without, the packet is forced in — the
    /// fault layer's reabsorption path, which deliberately tolerates
    /// transient over-capacity (see [`crate::fault`]).
    fn enqueue_central(&mut self, node: usize, p: u32, class: u8, check: bool) -> bool {
        let q = node * self.num_classes + usize::from(class);
        if check && (self.queue_len[q] as usize >= self.cfg.queue_capacity || self.queue_frozen(q))
        {
            if Rec::ENABLED {
                let uid = self.store.uid[p as usize];
                self.rec.on_block(self.cycle, uid, node as u32, class);
            }
            return false;
        }
        let pi = p as usize;
        self.store.enqueued_at[pi] = self.cycle;
        self.store.class[pi] = class;
        let uid = self.store.uid[pi];
        self.queue_len[q] += 1;
        if Rec::ENABLED {
            self.rec
                .on_queue_enter(self.cycle, uid, node as u32, class, self.queue_len[q]);
        }
        self.node_fifo[node].push(p);
        self.compute_options(p, node, class);
        true
    }

    /// Whether central queue `q` is frozen by a fault this cycle.
    fn queue_frozen(&self, q: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.frozen(q, self.cycle))
    }

    /// Whether node `v` survives the faults applied so far (always true
    /// without a fault plan).
    pub(crate) fn node_alive(&self, v: usize) -> bool {
        !self.faults.as_ref().is_some_and(|f| f.is_node_dead(v))
    }

    fn deliver(&mut self, p: u32) {
        let pi = p as usize;
        let latency = 2 * (self.cycle - self.store.inject_cycle[pi]) + 1;
        if Rec::ENABLED {
            self.rec.on_deliver(
                self.cycle,
                self.store.uid[pi],
                latency,
                u32::from(self.store.hops[pi]),
                self.store.class[pi],
            );
        }
        if self.cfg.check_minimality {
            let d = self
                .rf
                .topology()
                .distance(self.store.src[pi] as usize, self.store.dst[pi] as usize);
            if usize::from(self.store.hops[pi]) != d {
                self.minimality_violations += 1;
            }
        }
        self.stats.record(latency);
        if let Some(ts) = &mut self.throughput {
            ts.record(self.cycle, 1.0);
        }
        self.delivered += 1;
        self.store.release(p, &mut self.opts);
    }

    /// Cache the moves available to packet `p` for its residence in
    /// central queue `class` of `node`.
    fn compute_options(&mut self, p: u32, node: usize, class: u8) {
        let mut opts = std::mem::take(&mut self.opt_scratch);
        opts.clear();
        // Borrow the message in place: `rf`, `store`, and `layout` are
        // disjoint fields and all borrowed immutably here, so the hot
        // path needs no `msg.clone()`.
        push_move_options(
            &self.rf,
            &self.layout,
            node,
            class,
            &self.store.msg[p as usize],
            &mut opts,
        );
        if self.faults.is_some() {
            self.opt_scratch = opts;
            self.finalize_options(p, node);
        } else {
            debug_assert!(!opts.is_empty(), "queued packet with no moves (dead end)");
            self.set_options(p, &mut opts);
            self.opt_scratch = opts;
        }
    }

    /// Store `opts` as packet `p`'s option segment (with its fill
    /// summary; see [`PacketStore::set_options`]).
    fn set_options(&mut self, p: u32, opts: &mut Vec<MoveOpt<R::Msg>>) {
        self.store
            .set_options(p, &mut self.opts, opts, &self.layout.buf_out_pos);
        self.any_stutters |= self.store.stutters[p as usize] != 0;
    }

    /// Degraded-mode post-pass over a freshly computed option set: once
    /// any permanent fault exists, keep only moves that strictly
    /// shorten the **surviving-graph** distance to the destination, and
    /// when none survive fall back to a single escape hop along a
    /// surviving shortest path — or report a partition when the
    /// destination is unreachable (see [`crate::fault`]).
    ///
    /// Progress on the *original* topology is not enough: a minimal
    /// option can lead into a region whose only minimal continuation is
    /// dead, and the escape hop out of it would undo the progress —
    /// packets then ping-pong between the trap node and its neighbour
    /// forever (a livelock this crate's differential fault suite caught
    /// on a mesh with one dead node). The monotone discipline makes
    /// every degraded hop decrease a per-destination potential, so no
    /// routing cycle can form. In-place class changes (stutters) are
    /// dropped too: they make no distance progress, and the escape
    /// fallback restarts the routing state at the next node anyway.
    fn finalize_options(&mut self, p: u32, node: usize) {
        let mut opts = std::mem::take(&mut self.opt_scratch);
        let dst = self.store.dst[p as usize];
        // With no permanent faults the original option set — which
        // always contains a static hop — passes through untouched.
        let mut has_static = true;
        if self
            .faults
            .as_ref()
            .expect("fault state attached")
            .has_dead()
        {
            self.faults
                .as_mut()
                .expect("fault state attached")
                .ensure_distances(dst, &self.layout);
            let fs = self.faults.as_ref().expect("fault state attached");
            let d = fs.distances(dst);
            let here = d[node];
            let layout = &self.layout;
            opts.retain(|o| {
                if o.buf == NONE {
                    return false;
                }
                let chan = layout.buf_chan[o.buf as usize];
                if fs.chan_dead(chan) {
                    return false;
                }
                let to = layout.chan_to[chan as usize] as usize;
                !fs.is_node_dead(to) && here != u32::MAX && d[to] == here - 1
            });
            has_static = opts.iter().any(|o| {
                matches!(
                    self.layout.buf_class[o.buf as usize],
                    BufferClass::Static(_)
                )
            });
        }
        if opts.is_empty() {
            let class = self.store.class[p as usize];
            match self.escape_option(node, dst as usize, class) {
                Some(opt) => opts.push(opt),
                None => {
                    if !self.partitioned.contains(&dst) {
                        self.partitioned.push(dst);
                        if Rec::ENABLED {
                            self.rec.on_partition(self.cycle, dst);
                        }
                    }
                }
            }
        } else if !has_static {
            // § 2 condition 3 on the surviving graph: a state whose
            // surviving moves are all dynamic (its one static port
            // died) must keep a static continuation, so the escape hop
            // is appended as the static fallback — taken only when
            // every preceding option is blocked. The escape exists
            // whenever the retained set is non-empty (both demand a
            // live distance-decreasing out-channel).
            let class = self.store.class[p as usize];
            if let Some(opt) = self.escape_option(node, dst as usize, class) {
                opts.push(opt);
            }
        }
        self.set_options(p, &mut opts);
        self.opt_scratch = opts;
    }

    /// One hop of escape routing on the surviving graph: the
    /// lowest-port live out-channel making shortest-path progress
    /// toward `dst`. Returns `None` when `dst` is unreachable from
    /// `node` over live channels between live nodes.
    fn escape_option(&mut self, node: usize, dst: usize, class: u8) -> Option<MoveOpt<R::Msg>> {
        self.faults
            .as_mut()
            .expect("fault state attached")
            .ensure_distances(dst as u32, &self.layout);
        let fs = self.faults.as_ref().expect("fault state attached");
        let d = fs.distances(dst as u32);
        let here = d[node];
        if here == u32::MAX {
            return None;
        }
        debug_assert!(here > 0, "queued packet at its destination");
        for port in 0..self.layout.max_ports {
            let Some(chan) = self.layout.chan(node, port) else {
                continue;
            };
            if fs.chan_dead(chan) {
                continue;
            }
            let to = self.layout.chan_to[chan as usize] as usize;
            if fs.is_node_dead(to) || d[to] != here - 1 {
                continue;
            }
            // Ride the channel's first declared buffer class; a static
            // class pins the arrival class, a dynamic one keeps the
            // packet's current class until the receiver restarts it.
            let buf = self.layout.chan_buf_start[chan as usize];
            let to_class = match self.layout.buf_class[buf as usize] {
                BufferClass::Static(c) => c,
                BufferClass::Dynamic => class,
            };
            let next = self.rf.initial_msg(node, dst);
            return Some(MoveOpt {
                buf,
                to_class,
                next,
                escape: true,
            });
        }
        None
    }

    // --- Fault injection (see `crate::fault`) --------------------------

    /// Apply scheduled fault events up to the current cycle, plus the
    /// per-cycle flaky-link retry bookkeeping. Runs at the top of every
    /// cycle, before the fill pass; `nodes` is the caller's owned node
    /// set (the full network for the sequential engine), gating all
    /// packet surgery and recording so a sharded run performs each side
    /// effect exactly once, on the shard that owns the state — while the
    /// flag state inside [`FaultState`] is replicated identically on
    /// every shard.
    pub(crate) fn apply_faults(&mut self, nodes: &OwnedNodes) {
        let Some(mut fs) = self.faults.take() else {
            return;
        };
        let cycle = self.cycle;
        let mut permanent = false;
        let mut reabsorb: Vec<(u32, usize)> = Vec::new();
        while fs.next_event < fs.plan.events.len() && fs.plan.events[fs.next_event].cycle <= cycle {
            let ev = fs.plan.events[fs.next_event];
            fs.next_event += 1;
            if Rec::ENABLED && nodes.contains(ev.kind.primary_node() as usize) {
                self.rec
                    .on_fault(cycle, ev.kind.code(), ev.kind.primary_node());
            }
            match ev.kind {
                FaultKind::LinkDown { from, to } => {
                    permanent = true;
                    for chan in 0..self.layout.num_channels() {
                        if self.layout.chan_from[chan] == from
                            && self.layout.chan_to[chan] == to
                            && fs.kill_chan(chan as u32)
                            && nodes.contains(from as usize)
                        {
                            self.reabsorb_chan(chan, &mut reabsorb);
                        }
                    }
                }
                FaultKind::NodeDown { node } => {
                    let v = node as usize;
                    if v >= self.layout.num_nodes || !fs.kill_node(v) {
                        continue;
                    }
                    permanent = true;
                    for chan in 0..self.layout.num_channels() {
                        let cf = self.layout.chan_from[chan] as usize;
                        let ct = self.layout.chan_to[chan] as usize;
                        if (cf != v && ct != v) || !fs.kill_chan(chan as u32) {
                            continue;
                        }
                        if cf == v {
                            // Out-channel of the dead node: staged
                            // packets die with it.
                            if nodes.contains(v) {
                                self.drop_outbufs(chan);
                            }
                        } else {
                            // In-channel: the live sender reabsorbs its
                            // staged packets; packets already across in
                            // the dead node's input buffers die.
                            if nodes.contains(cf) {
                                self.reabsorb_chan(chan, &mut reabsorb);
                            }
                            if nodes.contains(v) {
                                self.drop_inbufs(chan);
                            }
                        }
                    }
                    if nodes.contains(v) {
                        self.drop_node_packets(v);
                    }
                }
                FaultKind::QueueFreeze {
                    node,
                    class,
                    duration,
                } => {
                    let v = node as usize;
                    let c = usize::from(class);
                    if v < self.layout.num_nodes && c < self.num_classes {
                        fs.freeze(v * self.num_classes + c, cycle + duration);
                    }
                }
                FaultKind::FlakyLink {
                    from,
                    to,
                    until,
                    threshold,
                } => {
                    for chan in 0..self.layout.num_channels() {
                        if self.layout.chan_from[chan] == from && self.layout.chan_to[chan] == to {
                            fs.set_flaky(chan as u32, until, threshold);
                        }
                    }
                }
            }
        }
        // Flaky retry/backoff: a packet staged on a channel that was
        // fault-down last cycle has waited one more cycle; after
        // `retry_limit` consecutive down-cycles it is reabsorbed into
        // the sender's central queue and rerouted.
        for i in 0..fs.flaky_chans.len() {
            let chan = fs.flaky_chans[i];
            let Some((_, threshold)) = fs.flaky_window(chan, cycle) else {
                continue;
            };
            if fs.plan.retry_limit == 0
                || !nodes.contains(self.layout.chan_from[chan as usize] as usize)
            {
                continue;
            }
            if self.chan_pending[chan as usize] == 0 {
                fs.reset_fail(chan);
            } else if cycle > 0 && fs.flaky_down_at(chan, cycle - 1, threshold) {
                if fs.count_fail(chan) {
                    self.reabsorb_chan(chan as usize, &mut reabsorb);
                }
            } else {
                fs.reset_fail(chan);
            }
        }
        if permanent {
            fs.clear_distances();
        }
        self.faults = Some(fs);
        for &(p, node) in &reabsorb {
            self.reroute_packet(p, node);
        }
        if permanent {
            // Degraded sweep: every queued packet's option set must be
            // re-restricted to the surviving graph (and may fall back
            // to an escape hop, or report a partition).
            for v in nodes.iter() {
                if !self.node_alive(v) {
                    continue;
                }
                for i in 0..self.node_fifo[v].len() {
                    let p = self.node_fifo[v][i];
                    let class = self.store.class[p as usize];
                    self.compute_options(p, v, class);
                }
            }
        }
    }

    /// Pull every staged packet off `chan`'s output buffers for
    /// re-queueing at the (live) sender.
    fn reabsorb_chan(&mut self, chan: usize, out: &mut Vec<(u32, usize)>) {
        if self.chan_pending[chan] == 0 {
            return;
        }
        let from = self.layout.chan_from[chan] as usize;
        let start = self.layout.chan_buf_start[chan] as usize;
        let len = usize::from(self.layout.chan_buf_len[chan]);
        for b in start..start + len {
            let p = self.outbuf[b];
            if p != NONE {
                self.outbuf[b] = NONE;
                self.out_occ.clear(b);
                out.push((p, from));
            }
        }
        self.chan_pending[chan] = 0;
        self.chan_live.clear(chan);
    }

    /// Drop every packet staged on `chan` (its source node died).
    fn drop_outbufs(&mut self, chan: usize) {
        let start = self.layout.chan_buf_start[chan] as usize;
        let len = usize::from(self.layout.chan_buf_len[chan]);
        for b in start..start + len {
            let p = self.outbuf[b];
            if p != NONE {
                self.outbuf[b] = NONE;
                self.out_occ.clear(b);
                self.drop_packet(p);
            }
        }
        self.chan_pending[chan] = 0;
        self.chan_live.clear(chan);
    }

    /// Drop every packet sitting in `chan`'s input buffers (they crossed
    /// into a node that then died).
    fn drop_inbufs(&mut self, chan: usize) {
        let to = self.layout.chan_to[chan] as usize;
        let start = self.layout.chan_buf_start[chan] as usize;
        let len = usize::from(self.layout.chan_buf_len[chan]);
        for b in start..start + len {
            let p = self.inbuf[b];
            if p != NONE {
                self.clear_in(to, b);
                self.drop_packet(p);
            }
        }
    }

    /// Drop every packet resident at dead node `v`: its central queues
    /// and its injection buffer.
    fn drop_node_packets(&mut self, v: usize) {
        let fifo = std::mem::take(&mut self.node_fifo[v]);
        for p in fifo {
            let class = self.store.class[p as usize];
            let q = v * self.num_classes + usize::from(class);
            self.queue_len[q] -= 1;
            if Rec::ENABLED {
                let uid = self.store.uid[p as usize];
                self.rec
                    .on_queue_leave(self.cycle, uid, v as u32, class, self.queue_len[q]);
            }
            self.drop_packet(p);
        }
        let inj = self.inj_buf[v];
        if inj != NONE {
            self.inj_buf[v] = NONE;
            self.drop_packet(inj);
        }
    }

    /// Destroy a packet in flight (node-down collateral).
    fn drop_packet(&mut self, p: u32) {
        if Rec::ENABLED {
            let uid = self.store.uid[p as usize];
            self.rec.on_drop(self.cycle, uid);
        }
        self.dropped += 1;
        self.store.release(p, &mut self.opts);
    }

    /// Re-queue a reabsorbed packet at `node` with a restarted routing
    /// state — the pre-hop state is unrecoverable (staging overwrote
    /// `msg`), so the packet re-enters via the injection transition.
    /// The enqueue is unchecked: reabsorption deliberately tolerates
    /// transient over-capacity (see [`crate::fault`]).
    fn reroute_packet(&mut self, p: u32, node: usize) {
        debug_assert!(self.node_alive(node));
        let pi = p as usize;
        let dst = self.store.dst[pi] as usize;
        debug_assert_ne!(dst, node, "staged packet addressed to its own node");
        let msg = self.rf.initial_msg(node, dst);
        let class = self.entry_class(node, &msg);
        self.store.msg[pi] = msg;
        self.store.escape[pi] = false;
        self.store.next_class[pi] = class;
        if Rec::ENABLED {
            let uid = self.store.uid[pi];
            self.rec.on_reroute(self.cycle, uid, node as u32, class);
        }
        let ok = self.enqueue_central(node, p, class, false);
        debug_assert!(ok);
    }

    // --- Sharding support (used by `crate::sharded`) -------------------
    //
    // A sharded run drives a set of full-size `Simulator`s, each touching
    // only the node range it owns; the methods below expose exactly the
    // per-node/per-channel state transitions the shard workers need.

    /// Current routing cycle (after a [`Simulator::restore`], the
    /// checkpoint cycle — the replay harness reports its resume window
    /// from this).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advance the cycle counter (the sharded driver's analog of the
    /// increment at the end of [`Simulator::step`]).
    pub(crate) fn advance_cycle(&mut self) {
        self.cycle += 1;
    }

    /// Packets delivered so far.
    pub(crate) fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Latency statistics accumulated so far.
    pub(crate) fn latency_stats(&self) -> &LatencyStats {
        &self.stats
    }

    /// Whether node `v`'s injection buffer is free.
    pub(crate) fn inj_free(&self, v: usize) -> bool {
        self.inj_buf[v] == NONE
    }

    /// Inject a packet at `src` (the injection buffer must be free).
    pub(crate) fn inject(&mut self, src: NodeId, dst: NodeId) {
        debug_assert_eq!(self.inj_buf[src], NONE, "injection buffer occupied");
        self.inj_buf[src] = self.alloc_packet(src, dst);
    }

    /// Set the next packet uid (the sharded driver hands each shard its
    /// slice of the global injection order so uids stay dense and match
    /// the sequential engine's).
    pub(crate) fn set_next_uid(&mut self, uid: u64) {
        self.next_uid = uid;
    }

    /// Packets destroyed by faults on this shard so far.
    pub(crate) fn dropped_count(&self) -> u64 {
        self.dropped
    }

    /// Whether this shard found any destination unreachable this run.
    pub(crate) fn has_partition(&self) -> bool {
        !self.partitioned.is_empty()
    }

    /// Non-empty central queues over `nodes` as `(node, class, occupancy)`
    /// — the watchdog stall report's snapshot. Ordered by `nodes` (the
    /// sharded caller sorts the merged result).
    pub(crate) fn nonempty_queues(&self, nodes: &[u32]) -> Vec<(u32, u8, u32)> {
        let mut out = Vec::new();
        for &node in nodes {
            for class in 0..self.num_classes {
                let len = self.queue_len[node as usize * self.num_classes + class];
                if len > 0 {
                    out.push((node, class as u8, len));
                }
            }
        }
        out
    }

    /// The live (undelivered, unfreed) packet with the smallest uid, as
    /// `(uid, src, dst, inject_cycle)`. In a sharded run the sender-side
    /// copy of a cross-shard packet stays live until its ack is
    /// processed, but a duplicate shares its uid, so the minimum is
    /// unaffected.
    pub(crate) fn oldest_live(&self) -> Option<(u64, u32, u32, u64)> {
        let mut dead = vec![false; self.store.len()];
        for &f in &self.store.free {
            dead[f as usize] = true;
        }
        (0..self.store.len())
            .filter(|&i| !dead[i])
            .map(|i| {
                (
                    self.store.uid[i],
                    self.store.src[i],
                    self.store.dst[i],
                    self.store.inject_cycle[i],
                )
            })
            .min_by_key(|&(uid, ..)| uid)
    }

    /// Current `next_uid` frontier. At the sharded pause point the
    /// driver replicates the global frontier into every shard, so any
    /// shard's value is the run's.
    pub(crate) fn next_uid(&self) -> u64 {
        self.next_uid
    }

    /// Number of central-queue classes per node.
    pub(crate) fn classes(&self) -> usize {
        self.num_classes
    }

    /// Occupancy of central queue `q` (`node * num_classes + class`).
    pub(crate) fn queue_len_at(&self, q: usize) -> u32 {
        self.queue_len[q]
    }

    /// Round-robin pointer of channel `chan` (meaningful on the shard
    /// that executes the channel's link pass).
    pub(crate) fn chan_rr_at(&self, chan: usize) -> u16 {
        self.chan_rr[chan]
    }

    /// Sparse flaky-link consecutive-down counters (empty without a
    /// fault plan). Meaningful on the shard owning each channel's
    /// source node.
    pub(crate) fn flaky_fail_counts(&self) -> Vec<(u32, u32)> {
        self.faults
            .as_ref()
            .map_or_else(Vec::new, FaultState::fail_counts)
    }
}

/// Checkpoint/restore (the flight recorder's snapshot layer). Available
/// whenever the routing function's message type knows how to serialize
/// itself (every algorithm in `fadr-core` does).
impl<R: RoutingFunction, Rec: Recorder> Simulator<R, Rec>
where
    R::Msg: SnapshotMsg,
{
    /// Serialize the complete engine state as a `fadr-snapshot/1`
    /// document. Only valid at the pause point a `*_until` run method
    /// stops at (cycle `P`, post-injection, pre-fault-application):
    /// there no packet is staged mid-move, so the placement alone
    /// determines all derived state. `progress` is the loop progress the
    /// pause returned; `meta` is a free-form single-line label echoed
    /// back by [`Simulator::restore`].
    #[must_use]
    pub fn checkpoint(&self, meta: &str, progress: &RunProgress) -> String {
        debug_assert!(
            self.partitioned.is_empty(),
            "checkpointing a partitioned run"
        );
        let n = self.layout.num_nodes;
        let mut lines = String::new();
        let mut count = 0usize;
        for v in 0..n {
            count += self.push_queued_packets(v, &mut lines);
        }
        for v in 0..n {
            count += self.push_inj_packet(v, &mut lines);
        }
        for b in 0..self.layout.num_buffers() {
            count += self.push_out_packet(b, &mut lines);
        }
        for b in 0..self.layout.num_buffers() {
            count += self.push_in_packet(b, &mut lines);
        }
        let g = snapshot::Globals {
            cfg: &self.cfg,
            dims: (
                n,
                self.num_classes,
                self.layout.num_buffers(),
                self.layout.num_channels(),
            ),
            cycle: self.cycle,
            next_uid: self.next_uid,
            delivered: self.delivered,
            dropped: self.dropped,
            minviol: self.minimality_violations,
            chan_rr: self.chan_rr.clone(),
            fail: self.flaky_fail_counts(),
            stats: &self.stats,
            occupancy: self.cfg.track_occupancy.then_some(&self.occupancy),
            throughput: self.throughput.as_ref(),
        };
        snapshot::assemble(meta, &g, count, &lines, progress)
    }

    /// Load a `fadr-snapshot/1` document, replacing the engine state
    /// with the snapshot's. Returns the snapshot's meta label and the
    /// loop progress to feed into the matching `resume_*` run method.
    ///
    /// The snapshot's configuration and network shape must match this
    /// simulator's exactly (resuming under different parameters would
    /// silently be a different run). On error the engine is left
    /// mid-restore; call a `run_*` method (which resets) before reusing
    /// it.
    pub fn restore(&mut self, text: &str) -> Result<(String, RunProgress), String> {
        let snap: ParsedSnapshot<R::Msg> = snapshot::parse(text)?;
        self.restore_from(&snap)?;
        Ok((snap.meta, snap.progress))
    }

    /// Append the packet lines of node `v`'s central queues (FIFO
    /// order); returns how many were written.
    pub(crate) fn push_queued_packets(&self, v: usize, out: &mut String) -> usize {
        for &p in &self.node_fifo[v] {
            snapshot::push_packet_line(out, &self.packet_rec(Loc::Queue(v as u32), p));
        }
        self.node_fifo[v].len()
    }

    /// Append node `v`'s injection-buffer packet line, if occupied.
    pub(crate) fn push_inj_packet(&self, v: usize, out: &mut String) -> usize {
        let p = self.inj_buf[v];
        if p == NONE {
            return 0;
        }
        snapshot::push_packet_line(out, &self.packet_rec(Loc::Inj(v as u32), p));
        1
    }

    /// Append output buffer `b`'s packet line, if occupied.
    pub(crate) fn push_out_packet(&self, b: usize, out: &mut String) -> usize {
        let p = self.outbuf[b];
        if p == NONE {
            return 0;
        }
        snapshot::push_packet_line(out, &self.packet_rec(Loc::Out(b as u32), p));
        1
    }

    /// Append input buffer `b`'s packet line, if occupied.
    pub(crate) fn push_in_packet(&self, b: usize, out: &mut String) -> usize {
        let p = self.inbuf[b];
        if p == NONE {
            return 0;
        }
        snapshot::push_packet_line(out, &self.packet_rec(Loc::In(b as u32), p));
        1
    }

    fn packet_rec(&self, loc: Loc, p: u32) -> PacketRec<R::Msg> {
        let pi = p as usize;
        PacketRec {
            loc,
            src: self.store.src[pi],
            dst: self.store.dst[pi],
            uid: self.store.uid[pi],
            hops: self.store.hops[pi],
            inject_cycle: self.store.inject_cycle[pi],
            enqueued_at: self.store.enqueued_at[pi],
            moved_at: self.store.moved_at[pi],
            class: self.store.class[pi],
            next_class: self.store.next_class[pi],
            escape: self.store.escape[pi],
            msg: self.store.msg[pi].clone(),
        }
    }

    /// Load a parsed snapshot (possibly filtered to this shard's nodes
    /// by the sharded driver): reset, restore the global counters and
    /// accumulators, replay the fault schedule up to the snapshot cycle,
    /// prime the recorder, place every packet, and recompute the cached
    /// routing options against the replayed fault flags.
    pub(crate) fn restore_from(&mut self, snap: &ParsedSnapshot<R::Msg>) -> Result<(), String> {
        let dims = (
            self.layout.num_nodes,
            self.num_classes,
            self.layout.num_buffers(),
            self.layout.num_channels(),
        );
        if snap.dims != dims {
            return Err(format!(
                "snapshot network shape {:?} does not match the engine's {dims:?}",
                snap.dims
            ));
        }
        if snap.cfg != self.cfg {
            return Err("snapshot configuration does not match the engine's".into());
        }
        self.reset();
        self.cycle = snap.cycle;
        self.next_uid = snap.next_uid;
        self.delivered = snap.delivered;
        self.dropped = snap.dropped;
        self.minimality_violations = snap.minviol;
        self.stats = snap.stats.clone();
        if let Some(occ) = &snap.occupancy {
            if occ.max.len() != self.queue_len.len() || occ.sum.len() != self.queue_len.len() {
                return Err("snapshot occupancy table has the wrong shape".into());
            }
            self.occupancy = occ.clone();
        }
        if let Some(ts) = &snap.throughput {
            if ts.window() != self.cfg.throughput_window {
                return Err("snapshot throughput window differs from the configuration".into());
            }
            self.throughput = Some(ts.clone());
        }
        if snap.chan_rr.len() != self.chan_rr.len() {
            return Err("snapshot chan_rr table has the wrong length".into());
        }
        self.chan_rr.copy_from_slice(&snap.chan_rr);
        self.replay_faults(snap.cycle, &snap.fail)?;
        if Rec::ENABLED {
            self.rec.on_resume(snap.cycle);
        }
        for r in &snap.packets {
            self.place_packet(r)?;
        }
        // Cached option segments are derived state: recompute them for
        // every queued packet, after the fault replay so degraded-mode
        // filtering sees the same dead topology as the original run.
        for v in 0..self.layout.num_nodes {
            let mut i = 0;
            while i < self.node_fifo[v].len() {
                let p = self.node_fifo[v][i];
                let class = self.store.class[p as usize];
                self.compute_options(p, v, class);
                i += 1;
            }
        }
        Ok(())
    }

    /// Re-apply the flag effects of every fault event before `cycle`
    /// (packet surgery is unnecessary: the snapshot's placement already
    /// reflects it), then restore the sparse flaky retry counters.
    fn replay_faults(&mut self, cycle: u64, fail: &[(u32, u32)]) -> Result<(), String> {
        let Some(mut fs) = self.faults.take() else {
            if fail.is_empty() {
                return Ok(());
            }
            return Err("snapshot carries fault counters but no fault plan is attached".into());
        };
        let mut permanent = false;
        while fs.next_event < fs.plan.events.len() && fs.plan.events[fs.next_event].cycle < cycle {
            let ev = fs.plan.events[fs.next_event];
            fs.next_event += 1;
            match ev.kind {
                FaultKind::LinkDown { from, to } => {
                    permanent = true;
                    for chan in 0..self.layout.num_channels() {
                        if self.layout.chan_from[chan] == from && self.layout.chan_to[chan] == to {
                            fs.kill_chan(chan as u32);
                        }
                    }
                }
                FaultKind::NodeDown { node } => {
                    let v = node as usize;
                    if v >= self.layout.num_nodes || !fs.kill_node(v) {
                        continue;
                    }
                    permanent = true;
                    for chan in 0..self.layout.num_channels() {
                        let cf = self.layout.chan_from[chan] as usize;
                        let ct = self.layout.chan_to[chan] as usize;
                        if cf == v || ct == v {
                            fs.kill_chan(chan as u32);
                        }
                    }
                }
                FaultKind::QueueFreeze {
                    node,
                    class,
                    duration,
                } => {
                    let v = node as usize;
                    let c = usize::from(class);
                    if v < self.layout.num_nodes && c < self.num_classes {
                        fs.freeze(v * self.num_classes + c, ev.cycle + duration);
                    }
                }
                FaultKind::FlakyLink {
                    from,
                    to,
                    until,
                    threshold,
                } => {
                    for chan in 0..self.layout.num_channels() {
                        if self.layout.chan_from[chan] == from && self.layout.chan_to[chan] == to {
                            fs.set_flaky(chan as u32, until, threshold);
                        }
                    }
                }
            }
        }
        if permanent {
            fs.clear_distances();
        }
        for &(chan, cnt) in fail {
            if !fs.set_fail_count(chan, cnt) {
                self.faults = Some(fs);
                return Err(format!("snapshot fail counter for unknown channel {chan}"));
            }
        }
        self.faults = Some(fs);
        Ok(())
    }

    /// Insert one snapshot packet at its serialized location, priming
    /// the recorder (`on_inject`, plus `on_queue_enter` for queued
    /// packets) so per-packet sinks see every live packet once.
    fn place_packet(&mut self, r: &PacketRec<R::Msg>) -> Result<(), String> {
        let nc = self.num_classes;
        if usize::from(r.class) >= nc || usize::from(r.next_class) >= nc {
            return Err(format!(
                "packet {} names an out-of-range queue class",
                r.uid
            ));
        }
        if r.src as usize >= self.layout.num_nodes || r.dst as usize >= self.layout.num_nodes {
            return Err(format!("packet {} has out-of-range endpoints", r.uid));
        }
        if Rec::ENABLED {
            self.rec.on_inject(r.inject_cycle, r.uid, r.src, r.dst);
        }
        let slot = self.store.insert(PacketInit {
            src: r.src,
            dst: r.dst,
            uid: r.uid,
            hops: r.hops,
            inject_cycle: r.inject_cycle,
            enqueued_at: r.enqueued_at,
            moved_at: r.moved_at,
            class: r.class,
            next_class: r.next_class,
            escape: r.escape,
            msg: r.msg.clone(),
        });
        match r.loc {
            Loc::Queue(v) => {
                let v = v as usize;
                if v >= self.layout.num_nodes {
                    return Err(format!("packet {} queued at an unknown node", r.uid));
                }
                let q = v * nc + usize::from(r.class);
                self.queue_len[q] += 1;
                if Rec::ENABLED {
                    self.rec.on_queue_enter(
                        self.cycle,
                        r.uid,
                        v as u32,
                        r.class,
                        self.queue_len[q],
                    );
                }
                self.node_fifo[v].push(slot);
            }
            Loc::Inj(v) => {
                let v = v as usize;
                if v >= self.layout.num_nodes || self.inj_buf[v] != NONE {
                    return Err(format!("packet {} in a bad injection slot", r.uid));
                }
                self.inj_buf[v] = slot;
            }
            Loc::Out(b) => {
                let b = b as usize;
                if b >= self.outbuf.len() || self.outbuf[b] != NONE {
                    return Err(format!("packet {} in a bad output buffer", r.uid));
                }
                self.outbuf[b] = slot;
                self.out_occ.set(b);
                let chan = self.layout.buf_chan[b] as usize;
                self.chan_pending[chan] += 1;
                self.chan_live.set(chan);
            }
            Loc::In(b) => {
                let b = b as usize;
                if b >= self.inbuf.len() || self.inbuf[b] != NONE {
                    return Err(format!("packet {} in a bad input buffer", r.uid));
                }
                let chan = self.layout.buf_chan[b] as usize;
                self.set_in(self.layout.chan_to[chan] as usize, b, slot);
            }
        }
        Ok(())
    }
}

/// A packet in flight across a shard boundary: everything the receiving
/// shard needs to reconstruct the sender's packet, including the
/// in-flight trace state when a [`TraceSink`](fadr_metrics::TraceSink)
/// is attached (the receiver adopts it so the packet's event history
/// stays contiguous in one sink).
pub(crate) struct Transfer<M> {
    src: u32,
    dst: u32,
    uid: u64,
    hops: u16,
    inject_cycle: u64,
    enqueued_at: u64,
    moved_at: u64,
    class: u8,
    next_class: u8,
    msg: M,
    escape: bool,
    trace: Option<TraceState>,
}

/// One cross-shard offer: the packet staged in output buffer `buf` of
/// channel `chan`. Offers in a mailbox are flat (no per-channel nesting)
/// and ascending by `(chan, buf)` — senders emit channels in ascending
/// id order, so receivers can consume with a single cursor per sender.
pub(crate) struct OfferItem<M> {
    pub(crate) chan: u32,
    buf: u32,
    payload: Option<Transfer<M>>,
}

impl<R: RoutingFunction, Rec: ShardRecorder> Simulator<R, Rec> {
    /// Snapshot the packets staged on cross-shard channel `chan` as
    /// transfer offers, in ascending buffer order. Offers are re-issued
    /// every cycle until the receiver takes them (mirroring how the
    /// sequential link pass retries a staged packet whose input buffer
    /// is full).
    pub(crate) fn collect_offers(&self, chan: usize, out: &mut Vec<OfferItem<R::Msg>>) {
        if self.chan_pending[chan] == 0 {
            return;
        }
        if let Some(fs) = &self.faults {
            // Same guard as the sequential link pass: a dead or
            // flaky-down channel carries nothing this cycle.
            if fs.link_blocked(chan as u32, self.cycle) {
                return;
            }
        }
        let start = self.layout.chan_buf_start[chan] as usize;
        let len = self.layout.chan_buf_len[chan] as usize;
        for b in start..start + len {
            let p = self.outbuf[b];
            if p == NONE {
                continue;
            }
            let pi = p as usize;
            out.push(OfferItem {
                chan: chan as u32,
                buf: b as u32,
                payload: Some(Transfer {
                    src: self.store.src[pi],
                    dst: self.store.dst[pi],
                    uid: self.store.uid[pi],
                    hops: self.store.hops[pi],
                    inject_cycle: self.store.inject_cycle[pi],
                    enqueued_at: self.store.enqueued_at[pi],
                    moved_at: self.store.moved_at[pi],
                    class: self.store.class[pi],
                    next_class: self.store.next_class[pi],
                    msg: self.store.msg[pi].clone(),
                    escape: self.store.escape[pi],
                    trace: if Rec::ENABLED {
                        self.rec.snapshot_trace(self.store.uid[pi])
                    } else {
                        None
                    },
                }),
            });
        }
    }

    /// Link pass for a cross-shard channel, executed by the shard that
    /// owns the receiving endpoint. `offered` holds the sender's offers
    /// for this channel; the round-robin scan is identical to
    /// [`Simulator::link_chan`] with "output buffer occupied" replaced by
    /// "offer present". Returns the taken buffer (to acknowledge to the
    /// sender) if a packet crossed.
    pub(crate) fn take_cross(
        &mut self,
        chan: usize,
        offered: &mut [OfferItem<R::Msg>],
    ) -> Option<u32> {
        if let Some(fs) = &self.faults {
            // Fault flags are replicated, so receiver and sender agree
            // on blocked channels; the sender will not have offered,
            // but guard here too for symmetry with `link_chan`.
            if fs.link_blocked(chan as u32, self.cycle) {
                return None;
            }
        }
        let start = self.layout.chan_buf_start[chan] as usize;
        let len = self.layout.chan_buf_len[chan] as usize;
        let rr = self.chan_rr[chan] as usize;
        for i in 0..len {
            let b = start + (rr + i) % len;
            if self.inbuf[b] != NONE {
                continue;
            }
            let Some(entry) = offered
                .iter_mut()
                .find(|o| o.buf as usize == b && o.payload.is_some())
            else {
                continue;
            };
            let t = entry.payload.take().expect("offer present");
            self.accept_transfer(chan, b, t);
            self.chan_rr[chan] = ((rr + i + 1) % len) as u16;
            return Some(b as u32);
        }
        None
    }

    /// Materialize a transferred packet in this shard's slab and input
    /// buffer, firing the same link event the sequential engine would.
    fn accept_transfer(&mut self, chan: usize, buf: usize, t: Transfer<R::Msg>) {
        if Rec::ENABLED {
            if let Some(state) = t.trace {
                self.rec.adopt_trace(t.uid, state);
            }
            self.rec.on_link(
                self.cycle,
                t.uid,
                self.layout.chan_from[chan],
                self.layout.chan_to[chan],
                matches!(self.layout.buf_class[buf], BufferClass::Dynamic),
                t.class,
                t.next_class,
            );
        }
        let slot = self.store.insert(PacketInit {
            src: t.src,
            dst: t.dst,
            uid: t.uid,
            hops: t.hops + 1,
            inject_cycle: t.inject_cycle,
            enqueued_at: t.enqueued_at,
            moved_at: t.moved_at,
            msg: t.msg,
            next_class: t.next_class,
            class: t.class,
            escape: t.escape,
        });
        self.set_in(self.layout.chan_to[chan] as usize, buf, slot);
    }

    /// Process a cross-shard acknowledgement: the receiver took the
    /// packet staged in output buffer `buf`, so free the sender-side
    /// copy (and its trace state, which the receiver adopted).
    fn apply_ack(&mut self, buf: usize) {
        let slot = self.outbuf[buf];
        debug_assert_ne!(slot, NONE, "ack for an empty output buffer");
        if Rec::ENABLED {
            self.rec.discard_trace(self.store.uid[slot as usize]);
        }
        self.outbuf[buf] = NONE;
        self.out_occ.clear(buf);
        let chan = self.layout.buf_chan[buf] as usize;
        self.chan_pending[chan] -= 1;
        if self.chan_pending[chan] == 0 {
            self.chan_live.clear(chan);
        }
        self.store.release(slot, &mut self.opts);
    }

    /// Drain a batch of cross-shard acknowledgements (one mailbox lock's
    /// worth) in order.
    pub(crate) fn apply_acks(&mut self, bufs: &[u32]) {
        for &b in bufs {
            self.apply_ack(b as usize);
        }
    }
}

/// The routing-table core shared by the sequential and lane engines:
/// enumerate the moves available to a packet carrying `msg` while
/// resident in central queue `class` of `node`, resolving each
/// transition to a concrete output buffer (or `NONE` for an in-place
/// stutter). A pure function of `(rf, layout, node, class, msg)` — the
/// property that lets [`crate::LaneSim`] memoize its results in a table
/// shared across all lanes.
pub(crate) fn push_move_options<R: RoutingFunction>(
    rf: &R,
    layout: &Layout,
    node: usize,
    class: u8,
    msg: &R::Msg,
    opts: &mut Vec<MoveOpt<R::Msg>>,
) {
    rf.for_each_transition(QueueId::central(node, class), msg, &mut |t| match t.hop {
        HopKind::Link(port) => {
            let (bc, to_class) = match (t.kind, t.to.kind) {
                (LinkKind::Static, QueueKind::Central(c)) => (BufferClass::Static(c), c),
                (LinkKind::Dynamic, QueueKind::Central(c)) => (BufferClass::Dynamic, c),
                _ => unreachable!("link hops target central queues"),
            };
            opts.push(MoveOpt {
                buf: layout.buffer(node, port, bc),
                to_class,
                next: t.msg,
                escape: false,
            });
        }
        HopKind::Internal => match t.to.kind {
            QueueKind::Central(c) => {
                debug_assert_eq!(t.to.node, node, "internal stutter stays at the node");
                opts.push(MoveOpt {
                    buf: NONE,
                    to_class: c,
                    next: t.msg,
                    escape: false,
                });
            }
            _ => unreachable!("queued packets are never at their destination"),
        },
    });
}

/// The central class targeted by the injection queue's single
/// (internal, static) transition for `msg` at `node` — pure in
/// `(rf, node, msg)`, so the lane engine memoizes it per node/message.
pub(crate) fn entry_class_of<R: RoutingFunction>(rf: &R, node: usize, msg: &R::Msg) -> u8 {
    let mut entry: Option<u8> = None;
    rf.for_each_transition(QueueId::inject(node), msg, &mut |t| {
        debug_assert_eq!(t.hop, HopKind::Internal);
        if let QueueKind::Central(c) = t.to.kind {
            entry = Some(c);
        }
    });
    entry.expect("injection transition exists")
}

/// Deterministic per-node RNG stream for dynamic injection: node `v`'s
/// Bernoulli trials and destination draws come from its own generator,
/// so the offered workload is independent of the order nodes are visited
/// in — the property that lets a sharded run reproduce the sequential
/// injection sequence exactly.
pub(crate) fn node_rng(seed: u64, v: usize) -> StdRng {
    // Golden-ratio multiply decorrelates consecutive node ids before
    // `seed_from_u64`'s SplitMix64 scrambling.
    StdRng::seed_from_u64(seed ^ (v as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One per-cycle injection draw of node `v`'s stream: the Bernoulli
/// trial (skipped at λ = 1) and, on success, the destination draw.
/// This is *the* RNG consumption contract of a dynamic run — both run
/// loops and the checkpoint-resume fast-forward replay exactly this, so
/// a resumed stream continues bit-identically.
pub(crate) fn draw(
    rng: &mut StdRng,
    lambda: f64,
    v: NodeId,
    dest: &mut impl FnMut(NodeId, &mut StdRng) -> NodeId,
) -> Option<NodeId> {
    if lambda < 1.0 && !rng.gen_bool(lambda) {
        return None;
    }
    Some(dest(v, rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every node's read mask recomputed from `inbuf`.
    fn read_masks_from_inbufs<R: RoutingFunction, Rec: Recorder>(
        sim: &Simulator<R, Rec>,
    ) -> Vec<u64> {
        (0..sim.layout.num_nodes)
            .map(|v| {
                sim.layout
                    .node_in_bufs(v)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| sim.inbuf[b as usize] != NONE)
                    .fold(0, |m, (slot, _)| m | 1u64 << slot)
            })
            .collect()
    }

    #[test]
    fn read_masks_survive_a_node_dying_with_full_input_buffers() {
        // A saturated hypercube(4) with one-packet queues keeps packets
        // waiting in input buffers; killing a node then empties its
        // input buffers through `drop_inbufs`, which must clear their
        // read-mask bits (a stale bit makes the read pass visit an
        // empty slot).
        let dead = 5usize;
        let mut hits = 0;
        for c in 4..40u64 {
            let plan = FaultPlan::parse(&format!(
                r#"{{"schema": "fadr-faults/1", "seed": 1, "retry_limit": 0, "events": [{{"cycle": {c}, "kind": "node_down", "node": {dead}}}]}}"#
            ))
            .expect("plan parses");
            let cfg = SimConfig {
                queue_capacity: 1,
                ..SimConfig::default()
            };
            let mut sim =
                Simulator::new(fadr_core::HypercubeFullyAdaptive::new(4), cfg).with_faults(plan);
            let dest = |v: NodeId, rng: &mut StdRng| (v + 1 + rng.gen_range(0..15usize)) % 16;
            let DynamicOutcome::Paused(_) = sim.run_dynamic_until(1.0, dest, 100, Some(c)) else {
                panic!("run ended before cycle {c}");
            };
            assert_eq!(sim.in_mask, read_masks_from_inbufs(&sim), "cycle {c}");
            if sim.in_mask[dead] == 0 {
                continue;
            }
            hits += 1;
            sim.apply_faults(&OwnedNodes::all(16));
            assert_eq!(sim.in_mask[dead], 0, "cycle {c}");
            assert_eq!(sim.in_mask, read_masks_from_inbufs(&sim), "cycle {c}");
        }
        assert!(
            hits > 0,
            "the dying node never held a packet in an input buffer"
        );
    }

    #[test]
    fn node_rng_streams_are_distinct() {
        let mut a = node_rng(7, 0);
        let mut b = node_rng(7, 1);
        let va: Vec<u64> = (0..4).map(|_| a.gen_range(0..1u64 << 60)).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.gen_range(0..1u64 << 60)).collect();
        assert_ne!(va, vb);
        // Same (seed, node) reproduces the stream.
        let mut a2 = node_rng(7, 0);
        let va2: Vec<u64> = (0..4).map(|_| a2.gen_range(0..1u64 << 60)).collect();
        assert_eq!(va, va2);
    }
}
