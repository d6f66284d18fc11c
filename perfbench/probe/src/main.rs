//! In-process probe of the perfbench benchmark.
//!
//! ```text
//! probe sim      --seed S --cycles C --tables 1,2,…
//! probe setup    --seed S --tables 1,2,… --reps K
//! probe analysis --inst hypercube:9,mesh:20,… --reps K
//! probe calibrate
//! probe layers   --seed S --cycles C --static 1,… --dynamic 9,… --inst … --run ID --spans PATH
//! ```
//!
//! `sim` replays every row of the given § 7 tables through the public
//! engine API, with the seeding the `tables` command uses, and prints
//! the counts the benchmark checks the command's output against.
//! `setup` times the set-up constructors of those rows `K` times. `analysis` certifies each instance, re-checks every
//! certificate, confirms the SE(4) paper-literal rejection and times
//! the instances' constructors. `calibrate` times fixed work that
//! depends on no crate of the repository. `layers` runs every layer the
//! benchmark reports, records a span around each call into a crate,
//! prints the per-layer metrics and writes the spans to `PATH`.
//!
//! Every mode prints one JSON object on stdout.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use fadr_core::{HypercubeFullyAdaptive, MeshFullyAdaptive, ShuffleExchangeRouting, TorusTwoPhase};
use fadr_lint::{lint_scheme, LintConfig, LintId};
use fadr_metrics::table::fmt2;
use fadr_metrics::CounterSink;
use fadr_qdg::sym::Symmetry;
use fadr_qdg::{QueueId, QueueKind, RoutingFunction};
use fadr_sim::{ShardedSimulator, SimConfig, Simulator};
use fadr_verify::{certify, check_certificate, classgraph, Outcome};
use fadr_workloads::{static_backlog, Pattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------- spans

/// One timed call: `parent` indexes the enclosing span of the same run.
struct Span {
    name: String,
    detail: String,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
}

/// Spans kept in memory and written out once, at the end of the run.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span; returns its value and duration in seconds.
    fn span<T>(&mut self, name: &str, detail: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            detail: detail.to_string(),
            start_ns: (start - self.t0).as_nanos(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id].end_ns = (end - self.t0).as_nanos();
        (out, (end - start).as_secs_f64())
    }

    /// Total seconds of every span called `name`.
    fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    fn write(&self, path: &str, run: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{run}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"detail\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.detail, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

// ---------------------------------------------------------------- config

struct Args {
    seed: u64,
    cycles: u64,
    reps: usize,
    tables: Vec<usize>,
    static_tables: Vec<usize>,
    dynamic_tables: Vec<usize>,
    inst: Vec<String>,
    run: String,
    spans: String,
}

fn parse_list<T: std::str::FromStr>(v: &str) -> Result<Vec<T>, String> {
    v.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("bad list item {s}")))
        .collect()
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 0,
        cycles: 500,
        reps: 0,
        tables: Vec::new(),
        static_tables: Vec::new(),
        dynamic_tables: Vec::new(),
        inst: Vec::new(),
        run: "probe".into(),
        spans: String::new(),
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number"))
        };
        match flag.as_str() {
            "--seed" => a.seed = num(v)?,
            "--cycles" => a.cycles = num(v)?,
            "--reps" => a.reps = num(v)? as usize,
            "--tables" => a.tables = parse_list(v)?,
            "--static" => a.static_tables = parse_list(v)?,
            "--dynamic" => a.dynamic_tables = parse_list(v)?,
            "--inst" => a.inst = parse_list(v)?,
            "--run" => a.run = v.clone(),
            "--spans" => a.spans = v.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

// ---------------------------------------------------------------- § 7 rows

/// One row of a § 7 table, seeded exactly as the `tables` command seeds
/// replication 0 of it.
#[derive(Clone, Copy)]
struct Row {
    table: usize,
    n: usize,
    seed: u64,
}

/// Rows of `table` at the `tables` command's default dimensions.
fn rows(tables: &[usize], base_seed: u64) -> Vec<Row> {
    let mut out = Vec::new();
    for &table in tables {
        let lo = if table == 12 { 9 } else { 10 };
        for n in lo..=12 {
            let seed = base_seed ^ ((table as u64) << 32) ^ n as u64;
            out.push(Row { table, n, seed });
        }
    }
    out
}

fn is_static(table: usize) -> bool {
    table <= 8
}

/// The table's destination pattern (tables cycle random, complement,
/// transpose, leveled).
fn pattern(row: Row) -> Pattern {
    match (row.table - 1) % 4 {
        0 => Pattern::Random,
        1 => Pattern::complement(row.n),
        2 => Pattern::transpose(row.n),
        _ => Pattern::leveled_permutation(row.n, &mut StdRng::seed_from_u64(row.seed ^ 0x1e7e1)),
    }
}

fn packets_per_node(row: Row) -> usize {
    if row.table <= 4 {
        1
    } else {
        row.n
    }
}

fn cfg(row: Row) -> SimConfig {
    SimConfig {
        queue_capacity: 5,
        seed: row.seed,
        ..SimConfig::default()
    }
}

fn backlog(row: Row, pat: &Pattern) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(row.seed ^ 0xbac1);
    static_backlog(pat, 1 << row.n, packets_per_node(row), &mut rng)
}

/// Counts of one simulated row, as the benchmark checks them.
#[derive(Default)]
struct RowCounts {
    l_avg: String,
    l_max: u64,
    i_r: Option<String>,
    cycles: u64,
    delivered: u64,
    total: u64,
    attempts: u64,
    injected: u64,
    drained: bool,
    links_static: u64,
    links_dynamic: u64,
    blocked_cycles: u64,
}

impl RowCounts {
    fn json(&self, row: Row) -> String {
        let i_r = self
            .i_r
            .as_ref()
            .map_or("null".to_string(), |v| format!("\"{v}\""));
        format!(
            "{{\"table\":{},\"n\":{},\"l_avg\":\"{}\",\"l_max\":{},\"i_r\":{i_r},\"cycles\":{},\"delivered\":{},\"total\":{},\"drained\":{}}}",
            row.table, row.n, self.l_avg, self.l_max, self.cycles, self.delivered, self.total, self.drained
        )
    }
}

/// Run one row on the sequential engine, with or without a
/// `CounterSink`, inside spans named after the layer each call belongs
/// to. `cycles` is the dynamic horizon.
fn run_row(tr: &mut Tracer, row: Row, cycles: u64, counted: bool) -> RowCounts {
    let kind = if is_static(row.table) {
        "static"
    } else {
        "dynamic"
    };
    let detail = format!("t{} n{}", row.table, row.n);
    let size = 1usize << row.n;
    let (rf, _) = tr.span("topology.build", &detail, |_| {
        HypercubeFullyAdaptive::new(row.n)
    });
    let classes = rf.num_classes();
    let pat = pattern(row);
    let bl = if is_static(row.table) {
        Some(
            tr.span("workloads.backlog", &detail, |_| backlog(row, &pat))
                .0,
        )
    } else {
        None
    };
    let mut c = RowCounts::default();
    macro_rules! drive {
        ($sim:expr, $run:literal) => {{
            let (mut sim, _) = tr.span(&format!("sim.{kind}.new"), &detail, |_| $sim);
            match &bl {
                Some(bl) => {
                    let (res, _) = tr.span(&format!("sim.{kind}.{}", $run), &detail, |_| {
                        sim.run_static(bl)
                    });
                    c.l_avg = fmt2(res.stats.mean());
                    c.l_max = res.stats.max();
                    c.cycles = res.cycles;
                    c.delivered = res.delivered;
                    c.total = res.total;
                    c.drained = res.drained;
                }
                None => {
                    let (res, _) = tr.span(&format!("sim.{kind}.{}", $run), &detail, |_| {
                        sim.run_dynamic(1.0, |s, rng| pat.draw(s, size, rng), cycles)
                    });
                    c.l_avg = fmt2(res.stats.mean());
                    c.l_max = res.stats.max();
                    c.i_r = Some(format!("{:.0}", 100.0 * res.injection_rate()));
                    c.cycles = res.cycles;
                    c.delivered = res.delivered;
                    c.total = res.injected;
                    c.attempts = res.attempts;
                    c.injected = res.injected;
                    c.drained = true;
                }
            }
            sim
        }};
    }
    if counted {
        let sim = drive!(
            Simulator::with_recorder(rf, cfg(row), CounterSink::new(size, classes)),
            "run_counted"
        );
        let sink = sim.into_recorder();
        c.links_static = sink.links_static;
        c.links_dynamic = sink.links_dynamic;
        c.blocked_cycles = sink.blocked_cycles;
    } else {
        drive!(Simulator::new(rf, cfg(row)), "run");
    }
    c
}

/// Set-up of one row: everything the command builds before its first
/// routing cycle.
fn setup_row(row: Row) {
    let rf = HypercubeFullyAdaptive::new(row.n);
    let pat = pattern(row);
    if is_static(row.table) {
        black_box(backlog(row, &pat));
    }
    black_box(Simulator::new(rf, cfg(row)));
}

fn json_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", items.join(","))
}

fn mode_sim(a: &Args) -> String {
    let mut tr = Tracer::new();
    let rows: Vec<String> = rows(&a.tables, a.seed)
        .into_iter()
        .map(|row| run_row(&mut tr, row, a.cycles, false).json(row))
        .collect();
    format!("{{\"rows\":[{}]}}", rows.join(","))
}

fn mode_setup(a: &Args) -> String {
    let samples: Vec<f64> = (0..a.reps)
        .map(|_| {
            let t = Instant::now();
            for row in rows(&a.tables, a.seed) {
                setup_row(row);
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    format!("{{\"setup_samples\":{}}}", json_list(&samples))
}

// ---------------------------------------------------------------- § 2 analysis

/// Call `$body` with `$rf` bound to the routing function an instance
/// spec (`family:size`) names; evaluates to `None` on an unknown family.
macro_rules! with_instance {
    ($spec:expr, |$rf:ident| $body:expr) => {{
        let (family, size) = $spec.split_once(':').unwrap_or(($spec, "0"));
        let k: usize = size.parse().unwrap_or(0);
        match family {
            "hypercube" => {
                let $rf = HypercubeFullyAdaptive::new(k);
                Some($body)
            }
            "mesh" => {
                let $rf = MeshFullyAdaptive::new(k, k);
                Some($body)
            }
            "torus" => {
                let $rf = TorusTwoPhase::new(k, k);
                Some($body)
            }
            "se" => {
                let $rf = ShuffleExchangeRouting::new(k);
                Some($body)
            }
            "se-paper-literal" => {
                let $rf = ShuffleExchangeRouting::paper_literal(k);
                Some($body)
            }
            _ => None,
        }
    }};
}

/// Metric-name key of an instance spec: `mesh:20` → `mesh20`.
fn inst_key(spec: &str) -> String {
    spec.replace(':', "")
}

const REJECT: &str = "se-paper-literal:4";

/// Certify, then re-check the certificate; `Err` names what failed.
fn certify_and_check<R: Symmetry>(tr: &mut Tracer, rf: &R, key: &str) -> Result<(), String> {
    let (outcome, _) = tr.span("verify.certify", key, |_| certify(rf));
    let Outcome::Certified(cert) = outcome else {
        return Err(format!("{key}: rejected"));
    };
    let (checked, _) = tr.span("verify.check", key, |_| check_certificate(rf, &cert));
    checked.map_err(|e| format!("{key}: certificate fails re-check: {e}"))
}

fn expect_reject(tr: &mut Tracer) -> Result<(), String> {
    with_instance!(REJECT, |rf| {
        let (outcome, _) = tr.span("verify.reject", REJECT, |_| certify(&rf));
        match outcome {
            Outcome::Rejected(_) => Ok(()),
            Outcome::Certified(_) => Err("SE(4) paper-literal was certified".to_string()),
        }
    })
    .expect("known family")
}

/// `reps` samples of the seconds it takes to build every instance's
/// routing function, each averaged over enough builds to dwarf the timer
/// resolution.
fn setup_analysis(inst: &[String], reps: usize) -> Vec<f64> {
    const INNER: usize = 50;
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..INNER {
                for spec in inst.iter().map(String::as_str).chain([REJECT]) {
                    with_instance!(spec, |rf| {
                        black_box(rf);
                    });
                }
            }
            t.elapsed().as_secs_f64() / INNER as f64
        })
        .collect()
}

fn mode_analysis(a: &Args) -> String {
    let mut tr = Tracer::new();
    let mut errors = Vec::new();
    for spec in &a.inst {
        let key = inst_key(spec);
        match with_instance!(spec.as_str(), |rf| certify_and_check(&mut tr, &rf, &key)) {
            Some(Ok(())) => {}
            Some(Err(e)) => errors.push(e),
            None => errors.push(format!("unknown instance {spec}")),
        }
    }
    if let Err(e) = expect_reject(&mut tr) {
        errors.push(e);
    }
    let errs: Vec<String> = errors.iter().map(|e| format!("\"{e}\"")).collect();
    format!(
        "{{\"checked\":{},\"errors\":[{}],\"setup_samples\":{}}}",
        a.inst.len() + 1,
        errs.join(","),
        json_list(&setup_analysis(&a.inst, a.reps))
    )
}

// ---------------------------------------------------------------- layers

/// Reachable `(queue, message)` states of `rf`, from seeded random walks
/// of packets injected at random sources towards random destinations.
fn reachable_states<R: RoutingFunction>(rf: &R, seed: u64, walks: usize) -> Vec<(QueueId, R::Msg)> {
    let n = rf.topology().num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut states = Vec::new();
    for _ in 0..walks {
        let src = rng.gen_range(0..n);
        let dst = (src + 1 + rng.gen_range(0..n - 1)) % n;
        let mut at = QueueId::inject(src);
        let mut msg = rf.initial_msg(src, dst);
        while at.kind != QueueKind::Deliver {
            let next = rf.transitions(at, &msg);
            states.push((at, msg));
            let t = next[rng.gen_range(0..next.len())].clone();
            at = t.to;
            msg = t.msg;
        }
    }
    states
}

/// Mean nanoseconds per call of `f`, called `calls` times per round
/// until at least `budget` seconds have passed.
fn ns_per_call(calls: usize, budget: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || start.elapsed().as_secs_f64() < budget {
        f();
        rounds += 1;
    }
    start.elapsed().as_secs_f64() * 1e9 / (rounds * calls) as f64
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(k, v, u)| format!("\"{k}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
            .collect();
        format!("{{{}}}", items.join(","))
    }
}

/// Simulate `tables` twice — plain, then with a `CounterSink` — and
/// report the `sim.<kind>.*` metrics. `Err` if the two passes disagree
/// on any simulated count.
fn sim_layers(
    tr: &mut Tracer,
    m: &mut Metrics,
    kind: &str,
    tables: &[usize],
    seed: u64,
    cycles: u64,
) -> Result<(), String> {
    let rows = rows(tables, seed);
    let mut plain = Vec::new();
    let mut counted = Vec::new();
    // Plain and counted runs alternate row by row, so neither side
    // always runs on a colder cache.
    for &row in &rows {
        let detail = format!("t{} n{}", row.table, row.n);
        plain.push(
            tr.span(&format!("sim.{kind}.row"), &detail, |tr| {
                run_row(tr, row, cycles, false)
            })
            .0,
        );
        counted.push(
            tr.span(&format!("sim.{kind}.row_counted"), &detail, |tr| {
                run_row(tr, row, cycles, true)
            })
            .0,
        );
    }
    for ((row, p), c) in rows.iter().zip(&plain).zip(&counted) {
        let same = (&p.l_avg, p.l_max, &p.i_r, p.cycles, p.delivered, p.total)
            == (&c.l_avg, c.l_max, &c.i_r, c.cycles, c.delivered, c.total);
        if !same {
            return Err(format!(
                "t{} n{}: counted run differs from plain run",
                row.table, row.n
            ));
        }
    }
    let run_s = tr.total(&format!("sim.{kind}.run"));
    let counted_s = tr.total(&format!("sim.{kind}.run_counted"));
    let sum = |f: fn(&RowCounts) -> u64| counted.iter().map(f).sum::<u64>();
    let node_cycles: u64 = rows
        .iter()
        .zip(&plain)
        .map(|(r, c)| (1u64 << r.n) * c.cycles)
        .sum();
    let delivered = sum(|c| c.delivered);
    let hops = sum(|c| c.links_static + c.links_dynamic);
    let p = format!("sim.{kind}.");
    m.put(
        &format!("{p}new_s"),
        tr.total(&format!("sim.{kind}.new")) / 2.0,
        "s",
    );
    m.put(&format!("{p}run_s"), run_s, "s");
    m.put(
        &format!("{p}ns_per_node_cycle"),
        run_s * 1e9 / node_cycles as f64,
        "ns",
    );
    m.put(&format!("{p}ns_per_hop"), run_s * 1e9 / hops as f64, "ns");
    m.put(&format!("{p}cycles"), sum(|c| c.cycles) as f64, "count");
    m.put(&format!("{p}delivered"), delivered as f64, "count");
    m.put(
        &format!("{p}links_static"),
        sum(|c| c.links_static) as f64,
        "count",
    );
    m.put(
        &format!("{p}links_dynamic"),
        sum(|c| c.links_dynamic) as f64,
        "count",
    );
    m.put(
        &format!("{p}dynamic_share"),
        sum(|c| c.links_dynamic) as f64 / hops as f64,
        "ratio",
    );
    m.put(
        &format!("{p}blocked_cycles"),
        sum(|c| c.blocked_cycles) as f64,
        "count",
    );
    m.put(
        &format!("{p}blocked_per_packet"),
        sum(|c| c.blocked_cycles) as f64 / delivered as f64,
        "count",
    );
    m.put(
        &format!("metrics.recorder_overhead.{kind}"),
        counted_s / run_s,
        "ratio",
    );
    if kind == "dynamic" {
        m.put(
            &format!("{p}inject_accept_ratio"),
            sum(|c| c.injected) as f64 / sum(|c| c.attempts) as f64,
            "ratio",
        );
    }
    Ok(())
}

/// Class graph, certificate, re-check and the two lint runs of one
/// instance, each inside its own span.
fn analyse<R: Symmetry>(tr: &mut Tracer, m: &mut Metrics, rf: &R, key: &str) -> Result<(), String> {
    let (cg, t) = tr.span("verify.classgraph", key, |_| classgraph::build(rf, false));
    cg.map_err(|v| format!("{key}: class graph violation {v:?}"))?;
    m.put(&format!("verify.classgraph_s.{key}"), t, "s");
    certify_and_check(tr, rf, key)?;
    let scheme_cfg = LintConfig::default();
    let (report, scheme_s) = tr.span("lint.scheme", key, |_| lint_scheme(rf, &scheme_cfg));
    if report.errors() > 0 {
        return Err(format!("{key}: {} lint error(s)", report.errors()));
    }
    let explore_cfg = LintConfig::only(&[LintId::DeadEnd]);
    let (_, explore_s) = tr.span("lint.explore", key, |_| lint_scheme(rf, &explore_cfg));
    m.put(&format!("lint.scheme_s.{key}"), scheme_s, "s");
    m.put(&format!("lint.explore_s.{key}"), explore_s, "s");
    m.put(&format!("lint.passes_s.{key}"), scheme_s - explore_s, "s");
    Ok(())
}

fn analysis_layers(tr: &mut Tracer, m: &mut Metrics, inst: &[String]) -> Result<(), String> {
    for spec in inst {
        let key = inst_key(spec);
        tr.span("topology.build", &key, |_| {
            with_instance!(spec.as_str(), |rf| {
                black_box(rf);
            })
        });
        with_instance!(spec.as_str(), |rf| analyse(tr, m, &rf, &key))
            .ok_or_else(|| format!("unknown instance {spec}"))??;
        let by_key = |name: &str| -> f64 {
            tr.spans
                .iter()
                .filter(|s| s.name == name && s.detail == key)
                .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
                .sum()
        };
        m.put(
            &format!("verify.certify_s.{key}"),
            by_key("verify.certify"),
            "s",
        );
        m.put(
            &format!("verify.check_s.{key}"),
            by_key("verify.check"),
            "s",
        );
    }
    expect_reject(tr)?;
    m.put("verify.reject_s", tr.total("verify.reject"), "s");
    Ok(())
}

fn mode_layers(a: &Args) -> Result<String, String> {
    let mut tr = Tracer::new();
    let mut m = Metrics(Vec::new());
    sim_layers(
        &mut tr,
        &mut m,
        "static",
        &a.static_tables,
        a.seed,
        a.cycles,
    )?;
    sim_layers(
        &mut tr,
        &mut m,
        "dynamic",
        &a.dynamic_tables,
        a.seed,
        a.cycles,
    )?;
    m.put(
        "workloads.backlog_s",
        tr.total("workloads.backlog") / 2.0,
        "s",
    );
    analysis_layers(&mut tr, &mut m, &a.inst)?;
    m.put("topology.build_s", tr.total("topology.build"), "s");

    // Routing-function calls on states packets actually reach.
    let rf = HypercubeFullyAdaptive::new(10);
    let states = reachable_states(&rf, a.seed, 2000);
    let (ns, _) = tr.span("core.transitions", "hypercube10", |_| {
        ns_per_call(states.len(), 0.3, || {
            for (at, msg) in &states {
                let mut hops = 0u32;
                rf.for_each_transition(*at, msg, &mut |t| {
                    hops += 1;
                    black_box(t);
                });
                black_box(hops);
            }
        })
    });
    m.put("core.transitions_ns", ns, "ns");

    // Destination draws of the four § 7 patterns at n = 12.
    let mut rng = StdRng::seed_from_u64(a.seed);
    let pats: Vec<Pattern> = (1..=4)
        .map(|t| {
            pattern(Row {
                table: t,
                n: 12,
                seed: a.seed,
            })
        })
        .collect();
    let size = 1usize << 12;
    let (ns, _) = tr.span("workloads.draw", "n12", |_| {
        ns_per_call(4 * size, 0.3, || {
            for p in &pats {
                for s in 0..size {
                    black_box(p.draw(s, size, &mut rng));
                }
            }
        })
    });
    m.put("workloads.draw_ns", ns, "ns");

    // Two shard threads against the sequential engine on one Table 9 row.
    let row = rows(&[9], a.seed)[0];
    let pat = pattern(row);
    let n_nodes = 1usize << row.n;
    let (_, seq) = tr.span("sim.sharded.sequential", "t9 n10", |_| {
        Simulator::new(HypercubeFullyAdaptive::new(row.n), cfg(row)).run_dynamic(
            1.0,
            |s, rng| pat.draw(s, n_nodes, rng),
            a.cycles,
        )
    });
    let (_, sharded) = tr.span("sim.sharded.shards2", "t9 n10", |_| {
        ShardedSimulator::new(HypercubeFullyAdaptive::new(row.n), cfg(row), 2).run_dynamic(
            1.0,
            |s, rng| pat.draw(s, n_nodes, rng),
            a.cycles,
        )
    });
    m.put("sim.sharded.slowdown", sharded / seq, "ratio");

    if !a.spans.is_empty() {
        tr.write(&a.spans, &a.run)
            .map_err(|e| format!("cannot write {}: {e}", a.spans))?;
    }
    // In-process seconds of the same work each workload's commands do,
    // for `bench.overhead_s`.
    let analysis_s = [
        "verify.certify",
        "verify.check",
        "verify.reject",
        "lint.scheme",
    ]
    .iter()
    .map(|name| tr.total(name))
    .sum::<f64>();
    Ok(format!(
        "{{\"metrics\":{},\"work_s\":{{\"static_drain\":{},\"saturated_dynamic\":{},\"static_analysis\":{analysis_s}}}}}",
        m.json(),
        tr.total("sim.static.row"),
        tr.total("sim.dynamic.row")
    ))
}

/// Seconds of seeded random read-modify-writes with integer mixing over
/// a table of `words` u64s: the fastest of three repetitions, since
/// contention only slows it.
fn calibration_loop(words: usize, iters: usize) -> f64 {
    let mut table: Vec<u64> = (0..words as u64).collect();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let start = Instant::now();
        for _ in 0..iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (words - 1);
            table[i] = table[i].wrapping_mul(0x2545_F491_4F6C_DD1D) ^ x;
        }
        best = best.min(start.elapsed().as_secs_f64());
        black_box(&table);
    }
    best
}

/// Fixed work that depends on nothing in the repository, timed to track
/// how fast the host runs at the moment: the geometric mean of a
/// cache-resident loop (512 KiB) and a memory-bound one (4 MiB), since
/// contention from other tenants slows the two differently and the
/// simulator does both kinds of work.
fn mode_calibrate() -> String {
    let cached = calibration_loop(1 << 16, 16_000_000);
    let memory = calibration_loop(1 << 19, 6_000_000);
    format!(
        "{{\"calibrate_s\":{},\"cached_s\":{cached},\"memory_s\":{memory}}}",
        (cached * memory).sqrt()
    )
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = argv.split_first() else {
        eprintln!("usage: probe <sim|setup|analysis|calibrate|layers> [flags]");
        return std::process::ExitCode::from(2);
    };
    let out = parse_args(rest).and_then(|a| match mode.as_str() {
        "sim" => Ok(mode_sim(&a)),
        "setup" => Ok(mode_setup(&a)),
        "calibrate" => Ok(mode_calibrate()),
        "analysis" => Ok(mode_analysis(&a)),
        "layers" => mode_layers(&a),
        other => Err(format!("unknown mode {other}")),
    });
    match out {
        Ok(json) => {
            println!("{json}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("probe: {e}");
            std::process::ExitCode::from(1)
        }
    }
}
