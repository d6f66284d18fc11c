//! Observability wiring shared by the harness binaries: the
//! `--trace` / `--metrics-out` / `--watchdog` / `--journal` /
//! `--waitgraph` flags, the `--checkpoint-at` / `--resume-from` flight
//! recorder controls, sink construction, and structured JSON export of
//! recorded runs.
//!
//! The binaries keep their timing paths recorder-free ([`fadr_sim::NoRecorder`]
//! monomorphizes to nothing); recording is opt-in per invocation and
//! routes through [`crate::runner::run_rows_recorded`], which merges
//! per-worker sinks in fixed replication order so recorded runs stay
//! bit-identical for any `--jobs` value.

use std::fmt::Write as _;
use std::path::PathBuf;

use fadr_metrics::{JournalSink, SinkSet};
use fadr_sim::FaultPlan;

use crate::runner::{RecordedRow, SnapshotPolicy};

/// Packets traced per run when `--trace` is given (first-N by injection
/// order; later packets are counted, not traced).
pub const DEFAULT_TRACE_LIMIT: usize = 256;

/// Per-queue rows included in each counters JSON block (top by peak
/// occupancy; the rest are summarized, not dropped silently).
pub const TOP_QUEUES: usize = 8;

/// Which sinks an instrumented run attaches.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordConfig {
    /// Attach a [`fadr_metrics::CounterSink`].
    pub counters: bool,
    /// Attach a [`fadr_metrics::TraceSink`] bounded to this many packets.
    pub trace: Option<usize>,
    /// Attach a [`fadr_metrics::WatchdogSink`] with this no-progress
    /// window (cycles).
    pub watchdog: Option<u64>,
    /// Attach a [`JournalSink`] bounded to this many events.
    pub journal: Option<usize>,
    /// Attach a [`fadr_metrics::LatencySink`] (per-class p50/p95/p99/max).
    pub latency: bool,
    /// Attach a [`fadr_metrics::WaitGraphSink`] (per-cycle wait-for-graph
    /// probe; global semantics, so incompatible with `--shards > 1`).
    pub waitgraph: bool,
}

impl RecordConfig {
    /// Whether any sink is enabled (if not, callers should use the
    /// recorder-free path).
    pub fn enabled(&self) -> bool {
        self.counters
            || self.trace.is_some()
            || self.watchdog.is_some()
            || self.journal.is_some()
            || self.latency
            || self.waitgraph
    }

    /// Build the sink set for one run over a `num_nodes` ×
    /// `num_classes` network.
    pub fn build(&self, num_nodes: usize, num_classes: usize) -> SinkSet {
        let mut s = SinkSet::new();
        if self.counters {
            s = s.with_counters(num_nodes, num_classes);
        }
        if let Some(limit) = self.trace {
            s = s.with_trace(limit);
        }
        if let Some(k) = self.watchdog {
            s = s.with_watchdog(k);
        }
        if let Some(capacity) = self.journal {
            s = s.with_journal(capacity);
        }
        if self.latency {
            s = s.with_latency(num_classes);
        }
        if self.waitgraph {
            s = s.with_waitgraph();
        }
        s
    }
}

/// Parsed observability flags, shared by the `tables`/`sweep`/`perf`
/// binaries.
#[derive(Debug, Clone, Default)]
pub struct ObsArgs {
    /// `--metrics-out PATH`: write a counters/stall JSON document.
    pub metrics_out: Option<PathBuf>,
    /// `--trace PATH`: write JSONL packet lifecycles.
    pub trace_out: Option<PathBuf>,
    /// `--watchdog K`: abort a run after `K` cycles without a delivery.
    pub watchdog: Option<u64>,
    /// `--faults PATH`: inject the `fadr-faults/1` plan at `PATH` into
    /// every run (see [`fadr_sim::fault`]).
    pub faults: Option<PathBuf>,
    /// `--journal PATH`: write every run's event journal (flight
    /// recorder) with its order-insensitive stream hash.
    pub journal_out: Option<PathBuf>,
    /// `--waitgraph`: probe the wait-for graph every cycle (cycle
    /// candidates + longest blocked-chain depth in `--metrics-out`).
    pub waitgraph: bool,
    /// `--checkpoint-at CYCLE`: pause every run at this cycle, write a
    /// `fadr-snapshot/1` file into `--checkpoint-dir`, then continue.
    pub checkpoint_at: Option<u64>,
    /// `--checkpoint-dir DIR`: where `--checkpoint-at` snapshots go.
    pub checkpoint_dir: Option<PathBuf>,
    /// `--resume-from DIR`: restore each run's snapshot from `DIR`
    /// instead of running it from cycle 0 (bit-identical results).
    pub resume_from: Option<PathBuf>,
}

impl ObsArgs {
    /// Usage fragment for the binaries' `--help` text.
    pub const USAGE: &'static str = "[--trace PATH] [--metrics-out PATH] [--watchdog K] \
         [--faults PLAN.json] [--journal PATH] [--waitgraph] \
         [--checkpoint-at CYCLE --checkpoint-dir DIR | --resume-from DIR]";

    /// Try to consume one observability flag. Returns `Ok(true)` if
    /// `arg` was one of ours, `Ok(false)` to let the caller handle it;
    /// `next` fetches the flag's value from the argument stream.
    pub fn parse_flag(
        &mut self,
        arg: &str,
        next: &mut dyn FnMut(&str) -> Result<String, String>,
    ) -> Result<bool, String> {
        match arg {
            "--metrics-out" => {
                self.metrics_out = Some(PathBuf::from(next("--metrics-out")?));
                Ok(true)
            }
            "--trace" => {
                self.trace_out = Some(PathBuf::from(next("--trace")?));
                Ok(true)
            }
            "--watchdog" => {
                let k: u64 = next("--watchdog")?
                    .parse()
                    .map_err(|e| format!("--watchdog: {e}"))?;
                if k == 0 {
                    return Err("--watchdog window must be at least 1 cycle".into());
                }
                self.watchdog = Some(k);
                Ok(true)
            }
            "--faults" => {
                self.faults = Some(PathBuf::from(next("--faults")?));
                Ok(true)
            }
            "--journal" => {
                self.journal_out = Some(PathBuf::from(next("--journal")?));
                Ok(true)
            }
            "--waitgraph" => {
                self.waitgraph = true;
                Ok(true)
            }
            "--checkpoint-at" => {
                self.checkpoint_at = Some(
                    next("--checkpoint-at")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-at: {e}"))?,
                );
                Ok(true)
            }
            "--checkpoint-dir" => {
                self.checkpoint_dir = Some(PathBuf::from(next("--checkpoint-dir")?));
                Ok(true)
            }
            "--resume-from" => {
                self.resume_from = Some(PathBuf::from(next("--resume-from")?));
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Load and parse the `--faults` plan, if given. The plan is leaked
    /// into a `'static` borrow so it can ride inside the `Copy`
    /// [`crate::runner::RunOptions`] across worker threads — one
    /// allocation per process invocation, freed at exit.
    pub fn load_fault_plan(&self) -> Result<Option<&'static FaultPlan>, String> {
        let Some(path) = &self.faults else {
            return Ok(None);
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("--faults {}: {e}", path.display()))?;
        let plan =
            FaultPlan::parse(&text).map_err(|e| format!("--faults {}: {e}", path.display()))?;
        Ok(Some(Box::leak(Box::new(plan))))
    }

    /// Whether any flag was given (if not, the binary should take its
    /// recorder-free path). Checkpoint/resume flags are run control, not
    /// sinks, so they do not force the recorded path by themselves.
    pub fn enabled(&self) -> bool {
        self.metrics_out.is_some()
            || self.trace_out.is_some()
            || self.watchdog.is_some()
            || self.journal_out.is_some()
            || self.waitgraph
    }

    /// The record configuration these flags imply: counters *and*
    /// latency percentiles power `--metrics-out`, the trace sink is
    /// bounded to [`DEFAULT_TRACE_LIMIT`] packets per run, the journal
    /// ring to [`JournalSink::DEFAULT_CAPACITY`] events.
    pub fn record_config(&self) -> RecordConfig {
        RecordConfig {
            counters: self.metrics_out.is_some(),
            trace: self.trace_out.as_ref().map(|_| DEFAULT_TRACE_LIMIT),
            watchdog: self.watchdog,
            journal: self
                .journal_out
                .as_ref()
                .map(|_| JournalSink::DEFAULT_CAPACITY),
            latency: self.metrics_out.is_some(),
            waitgraph: self.waitgraph,
        }
    }

    /// The checkpoint/resume policy these flags imply, with its snapshot
    /// directory leaked to `'static` so it can ride inside the `Copy`
    /// [`crate::runner::RunOptions`] across worker threads (one
    /// allocation per process invocation, like the fault plan).
    /// `--checkpoint-at` creates the directory eagerly so worker threads
    /// never race on it; `--resume-from` must name an existing one.
    pub fn snapshot_policy(&self) -> Result<Option<SnapshotPolicy>, String> {
        match (self.checkpoint_at, &self.resume_from) {
            (Some(_), Some(_)) => {
                Err("--checkpoint-at and --resume-from are mutually exclusive".into())
            }
            (Some(at), None) => {
                let dir = self
                    .checkpoint_dir
                    .clone()
                    .ok_or("--checkpoint-at needs --checkpoint-dir DIR")?;
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("--checkpoint-dir {}: {e}", dir.display()))?;
                Ok(Some(SnapshotPolicy {
                    at: Some(at),
                    dir: Box::leak(dir.into_boxed_path()),
                    resume: false,
                }))
            }
            // A mistyped `--resume-from` must not silently rerun
            // everything from cycle 0.
            (None, Some(dir)) if !dir.is_dir() => {
                Err(format!("--resume-from {}: not a directory", dir.display()))
            }
            (None, Some(dir)) => Ok(Some(SnapshotPolicy {
                at: None,
                dir: Box::leak(dir.clone().into_boxed_path()),
                resume: true,
            })),
            (None, None) => {
                if self.checkpoint_dir.is_some() {
                    return Err("--checkpoint-dir needs --checkpoint-at CYCLE".into());
                }
                Ok(None)
            }
        }
    }

    /// Reject flag combinations that cannot run on a sharded engine:
    /// the wait-for-graph probe is global (a shard-local probe would
    /// miss cross-shard blocked chains).
    pub fn validate_shards(&self, shards: usize) -> Result<(), String> {
        if self.waitgraph && shards > 1 {
            return Err("--waitgraph needs the sequential engine (--shards 1): \
                 the wait-for-graph probe is global"
                .into());
        }
        Ok(())
    }

    /// Reject flag combinations the lane-batched path (`--lanes > 1`)
    /// cannot honor: recording sinks, fault plans, and checkpoint/resume
    /// all assume one standalone simulator per run, and the lane engine
    /// batches clean recorder-free replications only.
    ///
    /// # Errors
    ///
    /// Names the first conflicting flag group.
    pub fn validate_lanes(&self, lanes: usize) -> Result<(), String> {
        if lanes <= 1 {
            return Ok(());
        }
        if self.enabled() {
            return Err("--lanes > 1 runs the recorder-free lane engine; drop \
                 --trace/--metrics-out/--watchdog/--journal/--waitgraph"
                .into());
        }
        if self.faults.is_some() {
            return Err("--lanes > 1 does not support --faults".into());
        }
        if self.checkpoint_at.is_some() || self.resume_from.is_some() {
            return Err("--lanes > 1 does not support checkpoint/resume".into());
        }
        Ok(())
    }
}

/// One exported row of a metrics document: where it ran plus its merged
/// sinks.
#[derive(Debug, Clone)]
pub struct MetricsRow {
    /// Paper table number (0 = not a paper table, e.g. a sweep point —
    /// see `label`).
    pub table: usize,
    /// Hypercube dimension.
    pub n: usize,
    /// Free-form point label for non-table rows (e.g.
    /// `"lambda=0.4 algo=fully-adaptive"`).
    pub label: Option<String>,
    /// Merged sinks of all replications of this row.
    pub sinks: SinkSet,
}

impl MetricsRow {
    /// Lift a [`RecordedRow`] into an export row.
    pub fn from_recorded(table: usize, r: &RecordedRow) -> Self {
        Self {
            table,
            n: r.row.n,
            label: None,
            sinks: r.sinks.clone(),
        }
    }
}

/// Render the full metrics JSON document (`fadr-metrics/1` schema):
/// one object per instrumented row with its routing-decision counters
/// and, when a watchdog fired, the stall report.
pub fn metrics_json(algo: &str, rows: &[MetricsRow]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\": \"fadr-metrics/1\", \"algo\": \"{algo}\", \"rows\": ["
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"table\": {}, \"n\": {}, ", row.table, row.n);
        match &row.label {
            // Labels are harness-generated (no quotes/escapes to worry
            // about).
            Some(l) => {
                let _ = write!(out, "\"label\": \"{l}\", ");
            }
            None => out.push_str("\"label\": null, "),
        }
        match &row.sinks.counters {
            Some(c) => {
                let _ = write!(out, "\"counters\": {}, ", c.to_json(TOP_QUEUES));
            }
            None => out.push_str("\"counters\": null, "),
        }
        match &row.sinks.latency {
            Some(l) => {
                let _ = write!(out, "\"latency\": {}, ", l.to_json());
            }
            None => out.push_str("\"latency\": null, "),
        }
        match &row.sinks.waitgraph {
            Some(w) => {
                let _ = write!(out, "\"waitgraph\": {}, ", w.to_json());
            }
            None => out.push_str("\"waitgraph\": null, "),
        }
        match row.sinks.stall() {
            Some(s) => {
                let _ = write!(out, "\"stall\": {}", s.to_json());
            }
            None => out.push_str("\"stall\": null"),
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Concatenate every row's trace lines into one JSONL body (one packet
/// lifecycle per line; `pkt` ids restart per replication).
pub fn trace_jsonl(rows: &[MetricsRow]) -> String {
    let mut out = String::new();
    for row in rows {
        if let Some(t) = &row.sinks.trace {
            for line in t.lines() {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// Concatenate every row's retained journal into one text body: a `#`
/// header line per row (event count, order-insensitive stream hash,
/// ring evictions) followed by one event per line. Line-diffing two
/// journal files localizes the first divergent event of a run pair.
pub fn journal_text(rows: &[MetricsRow]) -> String {
    let mut out = String::new();
    for row in rows {
        let Some(j) = &row.sinks.journal else {
            continue;
        };
        let place = match &row.label {
            Some(l) => format!("{l} n={}", row.n),
            None => format!("table {} n={}", row.table, row.n),
        };
        let _ = writeln!(
            out,
            "# {place} events={} hash={:#018x} dropped={}",
            j.count(),
            j.hash(),
            j.dropped
        );
        for line in j.lines() {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Write the metrics document, trace, and/or journal file named by
/// `args`, then print a one-line confirmation per file to stderr.
pub fn export(args: &ObsArgs, algo: &str, rows: &[MetricsRow]) -> std::io::Result<()> {
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, metrics_json(algo, rows))?;
        eprintln!("# metrics written to {}", path.display());
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, trace_jsonl(rows))?;
        eprintln!("# trace written to {}", path.display());
    }
    if let Some(path) = &args.journal_out {
        std::fs::write(path, journal_text(rows))?;
        eprintln!("# journal written to {}", path.display());
    }
    Ok(())
}

/// Print the post-run observability summary: stall reports always, and
/// a compact counters digest per row when counters ran.
pub fn report(rows: &[MetricsRow]) {
    for row in rows {
        let place = match &row.label {
            Some(l) => format!("{l} n={}", row.n),
            None => format!("table {} n={}", row.table, row.n),
        };
        if let Some(c) = &row.sinks.counters {
            eprintln!(
                "# {place}: links {} ({:.1}% dynamic), stutters {}, blocked {}, peak queue {} ({:.3} mean total)",
                c.links_total(),
                100.0 * c.dynamic_share(),
                c.stutters,
                c.blocked_cycles,
                c.peak_max(),
                c.mean_total(),
            );
        }
        if let Some(w) = &row.sinks.waitgraph {
            eprintln!(
                "# {place}: wait-graph max chain depth {} (cycle {}), {} cycle-candidate cycle(s){}",
                w.max_chain_depth,
                w.max_chain_cycle,
                w.cycle_candidate_cycles,
                match w.first_cycle_candidate {
                    Some(c) => format!(", first at cycle {c}"),
                    None => String::new(),
                }
            );
        }
        if let Some(j) = &row.sinks.journal {
            eprintln!(
                "# {place}: journal {} events, hash {:#018x} ({} evicted from ring)",
                j.count(),
                j.hash(),
                j.dropped
            );
        }
        if let Some(s) = row.sinks.stall() {
            // One classification path for the whole workspace:
            // `StallReport::verdict()` distinguishes fault partitions
            // from deadlock/livelock signatures.
            let why = match s.verdict() {
                "partitioned" => "a fault made destination(s) unreachable",
                "deadlock" => "no movement: deadlock signature",
                _ => "movement without delivery: livelock suspect",
            };
            eprintln!(
                "# {place}: WATCHDOG STALL [{}] at cycle {} ({} in flight, {} link moves in window) - {why}",
                s.verdict(),
                s.cycle,
                s.in_flight,
                s.links_in_window,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flag_consumes_only_obs_flags() {
        let mut o = ObsArgs::default();
        let mut vals = vec!["out.json".to_string()];
        let mut next = |_: &str| Ok(vals.remove(0));
        assert!(o.parse_flag("--metrics-out", &mut next).unwrap());
        let mut no_val = |_: &str| -> Result<String, String> { Err("no value".into()) };
        assert!(!o.parse_flag("--cap", &mut no_val).unwrap());
        assert_eq!(o.metrics_out.as_deref().unwrap().to_str(), Some("out.json"));
        assert!(o.enabled());
        let rc = o.record_config();
        assert!(rc.counters && rc.trace.is_none() && rc.watchdog.is_none());
    }

    #[test]
    fn watchdog_flag_rejects_zero() {
        let mut o = ObsArgs::default();
        let mut next = |_: &str| Ok("0".to_string());
        assert!(o.parse_flag("--watchdog", &mut next).is_err());
    }

    #[test]
    fn record_config_builds_requested_sinks() {
        let rc = RecordConfig {
            counters: true,
            trace: Some(4),
            watchdog: Some(100),
            journal: Some(1 << 10),
            latency: true,
            waitgraph: true,
        };
        let s = rc.build(8, 2);
        assert!(s.counters.is_some() && s.trace.is_some() && s.watchdog.is_some());
        assert!(s.journal.is_some() && s.latency.is_some() && s.waitgraph.is_some());
        assert!(rc.enabled());
        assert!(!RecordConfig::default().enabled());
    }

    #[test]
    fn snapshot_flags_validate() {
        let mut o = ObsArgs::default();
        assert!(o.snapshot_policy().unwrap().is_none());
        o.checkpoint_at = Some(10);
        assert!(o.snapshot_policy().is_err(), "missing --checkpoint-dir");
        o.resume_from = Some(std::env::temp_dir());
        assert!(o.snapshot_policy().is_err(), "mutually exclusive");
        o.checkpoint_at = None;
        let sp = o.snapshot_policy().unwrap().unwrap();
        assert!(sp.resume && sp.at.is_none());
        o.resume_from = Some(PathBuf::from("/nonexistent/snapshots"));
        assert!(o.snapshot_policy().is_err(), "missing resume directory");
        assert!(o.validate_shards(1).is_ok());
        o.waitgraph = true;
        assert!(o.validate_shards(4).is_err(), "waitgraph is global");
    }

    #[test]
    fn metrics_json_renders_null_slots() {
        let row = MetricsRow {
            table: 1,
            n: 3,
            label: None,
            sinks: SinkSet::new(),
        };
        let doc = metrics_json("fully-adaptive", &[row]);
        assert!(doc.contains("\"schema\": \"fadr-metrics/1\""));
        assert!(doc.contains("\"label\": null"));
        assert!(doc.contains("\"counters\": null"));
        assert!(doc.contains("\"latency\": null"));
        assert!(doc.contains("\"waitgraph\": null"));
        assert!(doc.contains("\"stall\": null"));
    }
}
