//! Snapshot replay: restore a `fadr-snapshot/1` checkpoint, rebuild the
//! workload it was running from its metadata line, and re-execute —
//! with a journal attached — to a target cycle or to completion. The
//! journal of the replayed segment can then be diffed against a
//! reference journal (`--journal` output of the original run) to
//! localize the *first divergent event* of a run pair, which is the
//! flight-recorder debugging loop: checkpoint near the anomaly, replay
//! deterministically, diff.
//!
//! The snapshot's `meta` line *is* the run's [`WorkUnit`]
//! ([`WorkUnit::meta_line`]): a label followed by `key=value` pairs
//! carrying everything the engine state does not — which router ran,
//! which paper table or offered load, the dynamic horizon, and the
//! seed. `replay` parses it back and rebuilds the workload with the
//! same `WorkUnit::workload` constructor the runner used, so the
//! replayed segment injects exactly what the original run did. Engine
//! state (queue capacity, RNG seed, in-flight packets) lives in the
//! snapshot body itself, which the engine checks against the unit's
//! configuration on restore.

use rand::rngs::StdRng;

use fadr_metrics::{JournalSink, StallReport, WaitGraphSink};
use fadr_sim::{DynamicOutcome, FaultPlan, Simulator, StaticOutcome, StopReason};

use crate::obs::RecordConfig;
use crate::runner::{Router, RouterTask, WorkUnit, Workload};

/// Read the `meta` line of a snapshot without restoring it.
pub fn peek_meta(text: &str) -> Result<WorkUnit, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some("fadr-snapshot/1") => {}
        _ => return Err("not a fadr-snapshot/1 file".into()),
    }
    let meta = lines
        .next()
        .and_then(|l| l.strip_prefix("meta "))
        .ok_or("snapshot has no meta line")?;
    WorkUnit::parse(meta)
}

/// Replay controls (the `replay` binary's flags).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOptions {
    /// Re-execute up to this cycle (pause there); `None` = to completion.
    pub to: Option<u64>,
    /// Attach a no-progress watchdog with this window.
    pub watchdog: Option<u64>,
    /// Attach the live wait-for-graph probe.
    pub waitgraph: bool,
    /// Journal ring capacity (0 = [`JournalSink::DEFAULT_CAPACITY`]).
    pub journal_capacity: usize,
    /// Fault plan of the original run, if it had one (fault replay needs
    /// the same schedule to reproduce post-checkpoint fault events).
    pub faults: Option<&'static FaultPlan>,
}

/// What a replay produced.
#[derive(Debug, Clone)]
pub struct ReplayOutput {
    /// The snapshot's work unit, parsed from its meta line.
    pub meta: WorkUnit,
    /// Cycle the snapshot restored to (the checkpoint cycle).
    pub start_cycle: u64,
    /// Cycle the replay stopped at.
    pub end_cycle: u64,
    /// How the replayed segment ended.
    pub outcome: String,
    /// The replayed segment's journal (events strictly after
    /// `start_cycle`).
    pub journal: JournalSink,
    /// Wait-for-graph summary, when enabled.
    pub waitgraph: Option<WaitGraphSink>,
    /// Stall report, when a watchdog fired.
    pub stall: Option<StallReport>,
}

/// Restore `text` and re-execute its workload under `ro` (sequential
/// engine; snapshots are partition-agnostic, so shard-run checkpoints
/// replay here unchanged).
pub fn replay(text: &str, ro: &ReplayOptions) -> Result<ReplayOutput, String> {
    struct Task<'a> {
        unit: WorkUnit,
        text: &'a str,
        ro: &'a ReplayOptions,
    }
    impl RouterTask for Task<'_> {
        type Output = Result<ReplayOutput, String>;
        fn run<R: Router>(self, rf: R) -> Self::Output {
            let Self { unit, text, ro } = self;
            let rc = RecordConfig {
                journal: Some(match ro.journal_capacity {
                    0 => JournalSink::DEFAULT_CAPACITY,
                    cap => cap,
                }),
                watchdog: ro.watchdog,
                waitgraph: ro.waitgraph,
                ..RecordConfig::default()
            };
            let sinks = rc.build(rf.topology().num_nodes(), rf.num_classes());
            // The engine validates the unit's config against the
            // snapshot's `cfg` record on restore, so a tampered meta line
            // cannot silently replay the wrong configuration.
            let mut sim = Simulator::with_recorder(rf, unit.config(), sinks);
            if let Some(plan) = ro.faults {
                sim = sim.with_faults(plan.clone());
            }
            let (_, progress) = sim.restore(text)?;
            let start_cycle = sim.cycle();
            if let Some(to) = ro.to.filter(|&to| to <= start_cycle) {
                return Err(format!(
                    "--to {to} is not after the checkpoint cycle {start_cycle}"
                ));
            }
            let w = unit.workload();
            if !w.accepts(&progress) {
                return Err("snapshot progress does not fit its work unit's workload".into());
            }
            let outcome = match &w {
                Workload::Backlog(b) => match sim.resume_static(b, progress, ro.to) {
                    StaticOutcome::Paused(_) => format!("paused at cycle {}", sim.cycle()),
                    StaticOutcome::Finished(res) => describe_stop(res.stop, res.drained),
                },
                &Workload::Dynamic {
                    lambda,
                    ref pattern,
                    nodes,
                } => {
                    let dest = |v, rng: &mut StdRng| pattern.draw(v, nodes, rng);
                    match sim.resume_dynamic(lambda, dest, unit.cycles, progress, ro.to) {
                        DynamicOutcome::Paused(_) => format!("paused at cycle {}", sim.cycle()),
                        DynamicOutcome::Finished(res) => describe_stop(res.stop, true),
                    }
                }
            };
            let end_cycle = sim.cycle();
            let mut sinks = sim.into_recorder();
            sinks.flush();
            let stall = sinks.stall().cloned();
            Ok(ReplayOutput {
                meta: unit,
                start_cycle,
                end_cycle,
                outcome,
                journal: sinks.journal.take().ok_or("journal sink vanished")?,
                waitgraph: sinks.waitgraph.take(),
                stall,
            })
        }
    }
    let unit = peek_meta(text)?;
    unit.algo.run(unit.n, Task { unit, text, ro })
}

fn describe_stop(stop: StopReason, drained: bool) -> String {
    match stop {
        StopReason::Aborted => "aborted (watchdog stall)".to_string(),
        StopReason::Partitioned => "aborted (destination partitioned)".to_string(),
        _ if drained => "finished (drained)".to_string(),
        _ => "finished".to_string(),
    }
}

/// The cycle number of a journal line (`<cycle> <kind> ...`); comment
/// (`#`) and malformed lines return `None`.
fn line_cycle(line: &str) -> Option<u64> {
    line.split_whitespace().next()?.parse().ok()
}

/// Restrict journal `lines` to events with `floor < cycle <= ceil`,
/// dropping `#` headers — the comparable window of a reference journal
/// against a replayed segment.
pub fn journal_window(lines: &[String], floor: u64, ceil: Option<u64>) -> Vec<String> {
    lines
        .iter()
        .filter(|l| {
            line_cycle(l).is_some_and(|c| {
                c > floor
                    && match ceil {
                        Some(hi) => c <= hi,
                        None => true,
                    }
            })
        })
        .cloned()
        .collect()
}

/// Pick the reference-journal section belonging to `meta`'s work unit.
/// A `--journal` file holds one `#`-headed section per instrumented row
/// (`# table <t> n=<n> ...` for table rows, `# <label> n=<n> ...` for
/// sweep points); a replayed snapshot diffs against exactly one of
/// them. A headerless file is taken whole.
pub fn select_section(lines: &[String], meta: &WorkUnit) -> Result<Vec<String>, String> {
    let mut sections: Vec<(String, Vec<String>)> = Vec::new();
    for line in lines {
        if let Some(hdr) = line.strip_prefix('#') {
            sections.push((hdr.trim().to_string(), Vec::new()));
        } else if let Some((_, body)) = sections.last_mut() {
            body.push(line.clone());
        } else {
            // No header yet: a bare journal (e.g. replay --journal-out
            // output with its header stripped, or a hand-cut excerpt).
            return Ok(lines.to_vec());
        }
    }
    if sections.len() <= 1 {
        return Ok(sections.pop().map(|(_, body)| body).unwrap_or_default());
    }
    let table_tag = format!("table {} n={} ", meta.table, meta.n);
    let label_tag = format!("{} ", meta.label);
    // Sweep rows carry a display label ("lambda=0.4 algo=fully-adaptive
    // n=8 ..." / "cap=5 algo=... n=8 ...") that differs from the
    // file-safe snapshot label; match those by coordinates instead.
    let algo_tag = format!("algo={} ", meta.algo.name());
    let n_tag = format!(" n={} ", meta.n);
    let point_tag = match meta.lambda {
        Some(l) => format!("lambda={l} "),
        None => format!("cap={} ", meta.cap),
    };
    let mut hits: Vec<usize> = (0..sections.len())
        .filter(|&i| {
            let h = &sections[i].0;
            h.starts_with(&table_tag)
                || h.starts_with(&label_tag)
                || (h.contains(&point_tag) && h.contains(&algo_tag) && h.contains(&n_tag))
        })
        .collect();
    match (hits.len(), hits.pop()) {
        (1, Some(i)) => Ok(std::mem::take(&mut sections[i].1)),
        (0, _) => Err(format!(
            "reference journal has {} sections but none match this snapshot \
             (wanted `# {}` or `# {}`)",
            sections.len(),
            table_tag.trim(),
            label_tag.trim()
        )),
        _ => Err(format!(
            "reference journal has multiple sections matching this snapshot \
             (`# {}`); cut it down to one",
            label_tag.trim()
        )),
    }
}

/// First divergent line between two journals, with both sides (`None`
/// when a journal ran out). Returns `None` when the journals agree.
pub fn first_divergence(
    a: &[String],
    b: &[String],
) -> Option<(usize, Option<String>, Option<String>)> {
    let common = a.len().min(b.len());
    for i in 0..common {
        if a[i] != b[i] {
            return Some((i, Some(a[i].clone()), Some(b[i].clone())));
        }
    }
    if a.len() != b.len() {
        return Some((common, a.get(common).cloned(), b.get(common).cloned()));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Algo;

    #[test]
    fn meta_round_trips() {
        let unit = WorkUnit {
            label: "t9_n6_q5_r0".into(),
            algo: Algo::EcubeSbp,
            table: 9,
            n: 6,
            cap: 5,
            cycles: 500,
            seed: 0xFAD2,
            lambda: None,
        };
        let m = WorkUnit::parse(&unit.meta_line()).unwrap();
        assert_eq!(m.label, "t9_n6_q5_r0");
        assert_eq!(m.algo, Algo::EcubeSbp);
        assert_eq!(
            (m.table, m.n, m.cap, m.cycles, m.seed),
            (9, 6, 5, 500, 0xFAD2)
        );
        assert_eq!(m.lambda, None);

        let unit = WorkUnit {
            label: "lambda0.4_fully-adaptive".into(),
            algo: Algo::FullyAdaptive,
            table: 0,
            n: 8,
            cap: 5,
            cycles: 300,
            seed: 7,
            lambda: Some(0.4),
        };
        let m = WorkUnit::parse(&unit.meta_line()).unwrap();
        assert_eq!(m.table, 0);
        assert_eq!(m.lambda, Some(0.4));
    }

    #[test]
    fn meta_rejects_garbage() {
        assert!(WorkUnit::parse("").is_err());
        assert!(WorkUnit::parse("label onlylabel").is_err());
        assert!(WorkUnit::parse("label algo=warp n=4").is_err());
        assert!(
            WorkUnit::parse("label algo=fully-adaptive").is_err(),
            "missing n"
        );
        // Unknown keys are forward-compatible noise, not errors.
        assert!(WorkUnit::parse("label algo=fully-adaptive n=4 future=1").is_ok());
    }

    #[test]
    fn peek_requires_magic() {
        assert!(peek_meta("not a snapshot").is_err());
        assert!(peek_meta("fadr-snapshot/1\nnometa").is_err());
        let m = peek_meta("fadr-snapshot/1\nmeta x algo=ecube-sbp n=3\ncfg ...").unwrap();
        assert_eq!(m.algo, Algo::EcubeSbp);
    }

    #[test]
    fn divergence_localizes_first_mismatch() {
        let a: Vec<String> = ["1 a", "2 b", "3 c"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let b: Vec<String> = ["1 a", "2 x", "3 c"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(first_divergence(&a, &a), None);
        let (i, l, r) = first_divergence(&a, &b).unwrap();
        assert_eq!(
            (i, l.as_deref(), r.as_deref()),
            (1, Some("2 b"), Some("2 x"))
        );
        let short = &a[..2];
        let (i, l, r) = first_divergence(short, &a).unwrap();
        assert_eq!((i, l, r.as_deref()), (2, None, Some("3 c")));
    }

    #[test]
    fn section_selection_matches_work_unit() {
        let lines: Vec<String> = [
            "# table 9 n=10 events=2 hash=0x0 dropped=0",
            "1 a",
            "2 b",
            "# table 9 n=11 events=1 hash=0x0 dropped=0",
            "3 c",
            "# lambda=0.4 algo=ecube-sbp n=10 events=1 hash=0x0 dropped=0",
            "4 d",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let t9 = WorkUnit::parse("t9_n10_q5_r0 algo=fully-adaptive table=9 n=10").unwrap();
        assert_eq!(select_section(&lines, &t9).unwrap(), vec!["1 a", "2 b"]);
        let sweep =
            WorkUnit::parse("lambda0.4_ecube-sbp algo=ecube-sbp table=0 n=10 lambda=0.4").unwrap();
        assert_eq!(select_section(&lines, &sweep).unwrap(), vec!["4 d"]);
        let miss = WorkUnit::parse("t1_n4_q5_r0 algo=fully-adaptive table=1 n=4").unwrap();
        assert!(select_section(&lines, &miss).is_err());
        // Headerless journals are taken whole.
        let bare: Vec<String> = vec!["1 a".into(), "2 b".into()];
        assert_eq!(select_section(&bare, &miss).unwrap(), bare);
    }

    #[test]
    fn window_filters_headers_and_range() {
        let lines: Vec<String> = ["# hdr", "3 deliver", "5 link", "9 link"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            journal_window(&lines, 3, Some(5)),
            vec!["5 link".to_string()]
        );
        assert_eq!(journal_window(&lines, 0, None).len(), 3);
    }
}
