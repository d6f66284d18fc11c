#!/usr/bin/env python3
"""perfbench: the fadroute benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare --a RESULT.json... --b RESULT.json...
    python3 perfbench/run.py write-golden

Run from the root of a source tree. The benchmark builds the `tables`,
`sweep`, `certify` and `lint` commands and its own probe from source
(into $CARGO_TARGET_DIR, default `.bench_build`), then drives the
commands as child processes, one at a time, each with `--jobs 1`.

An untraced run (`--trace 0`) checks every output, repeats the
workload's commands for `--seconds` seconds and reports the end-to-end
metrics. A traced run (`--trace 1`) checks the outputs the same way,
then records spans around the benchmark's own calls into each crate
(through the probe) and around every command, and reports the
per-layer metrics. The last line of stdout is the result object; a
full record with provenance and every sample goes to `.bench_out/`.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
GOLDEN = BENCH / "golden"
OUT = ROOT / ".bench_out"

# Outputs of the seeded `tables` workloads are compared with the golden
# files at this seed; at any other seed they are checked for invariants.
GOLDEN_SEED = 1
STATIC_TABLES = [1, 2, 3, 4, 5, 6, 7, 8]
DYNAMIC_TABLES = [9, 10, 11, 12]
DYNAMIC_CYCLES = 50
LANE_N, LANE_R, LANE_CYCLES = 8, 4, 100
INSTANCES = ["hypercube:9", "mesh:20", "torus:20", "se:8"]
MIN_PASSES = 3
# Host speed drifts by a third over minutes on shared machines, as other
# tenants contend for the core and its caches. Each timed pass is
# bracketed by the probe's calibration (fixed work that no repository
# change can touch), and the time metrics are scaled to a host on which
# the calibration takes CAL_REF_S: reported = measured * CAL_REF_S /
# calibration. Raw times are kept in the run record.
CAL_REF_S = 0.031
# Every child is killed if the run has not ended by then.
RUN_BUDGET_S = 170.0


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def binary(name):
    return str(target_dir() / "release" / name)


# ------------------------------------------------------------------ commands

def tables_argv(tables, seed, cycles=None):
    argv = [binary("tables")]
    for t in tables:
        argv += ["--table", str(t)]
    argv += ["--jobs", "1", "--seed", str(seed)]
    if cycles is not None:
        argv += ["--cycles", str(cycles)]
    return argv


def sweep_argv(cycles):
    return [binary("sweep"), "lambda", "--n", str(LANE_N), "--cycles", str(cycles),
            "--lanes", str(LANE_R), "--jobs", "1"]


def family_args(inst):
    family, size = inst.split(":")
    return ["--family", family, "--n", size]


def analysis_commands():
    """(key, argv, tool) for every command of one static_analysis pass."""
    cmds = []
    for inst in INSTANCES:
        key = inst.replace(":", "")
        cmds.append((f"certify_{key}", [binary("certify")] + family_args(inst), "certify"))
        cmds.append((f"lint_{key}", [binary("lint")] + family_args(inst), "lint"))
    se4 = ["--family", "se", "--n", "4", "--algo", "paper-literal"]
    cmds.append(("certify_se4_paper_literal", [binary("certify")] + se4 + ["--expect-reject"], "certify"))
    cmds.append(("lint_se4_paper_literal",
                 [binary("lint")] + se4 + ["--expect", "class-capacity-exhausted"], "lint"))
    return cmds


def commands(workload, seed):
    """(key, argv, tool) of one pass of `workload` at `seed`."""
    if workload == "static_drain":
        return [("tables_1-8", tables_argv(STATIC_TABLES, seed), "tables")]
    if workload == "saturated_dynamic":
        return [("tables_9-12", tables_argv(DYNAMIC_TABLES, seed, DYNAMIC_CYCLES), "tables")]
    if workload == "lane_sweep":
        return [("sweep_lambda", sweep_argv(LANE_CYCLES), "sweep")]
    return analysis_commands()


def setup_commands(workload, seed):
    """Commands whose wall time is one set-up sample (static_drain times
    its constructors in process instead)."""
    if workload == "saturated_dynamic":
        return [("tables_9-12_cycles1", tables_argv(DYNAMIC_TABLES, seed, 1), "tables")]
    if workload == "lane_sweep":
        return [("sweep_lambda_cycles1", sweep_argv(1), "sweep")]
    # static_analysis: routing-function constructors are plain field
    # copies (tens of nanoseconds, timed in process and added); what
    # precedes the first analysis step is the start-up of the two
    # binaries, run here through exits that do no analysis.
    return [("certify_start", [binary("certify"), "--help"], "certify"),
            ("lint_start", [binary("lint"), "--list"], "lint")]


WORKLOADS = {
    "static_drain": "Tables 1-8: static backlogs drained to empty, up to 4096 nodes",
    "saturated_dynamic": f"Tables 9-12: lambda = 1 for {DYNAMIC_CYCLES} cycles, network saturated",
    "lane_sweep": f"sweep lambda --lanes {LANE_R} on hypercube({LANE_N}): batched engine, light loads",
    "static_analysis": "certify and lint on four schemes plus the SE(4) paper-literal rejection",
}


# ------------------------------------------------------------------ children

class Runner:
    """Runs children one at a time through the `spawn` launcher and keeps
    every span and failure in memory."""

    def __init__(self, run_id, traced):
        self.run_id = run_id
        self.traced = traced
        self.t0 = time.perf_counter_ns()
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.spans = []
        self.attempted = 0
        self.failures = []
        self.argvs = {}

    def span(self, name, start_ns, end_ns, detail=""):
        if self.traced:
            self.spans.append({"run": self.run_id, "id": len(self.spans), "parent": None,
                               "name": name, "detail": detail,
                               "start_ns": start_ns - self.t0, "end_ns": end_ns - self.t0})

    def fail(self, what):
        self.failures.append(what)

    def run(self, key, argv, expect_code=0):
        """Run one command; returns (stdout, wall_s, maxrss_mb) or None
        after recording a failure."""
        self.attempted += 1
        self.argvs[key] = argv
        start = time.perf_counter_ns()
        proc = subprocess.Popen([binary("spawn")] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.fail(f"{key}: timed out")
            return None
        self.span(f"cmd.{key}", start, time.perf_counter_ns(), " ".join(argv[1:]))
        report = [ln for ln in err.splitlines() if ln.startswith("@@spawn ")]
        if proc.returncode != 0 or not report:
            self.fail(f"{key}: launcher failed: {err.strip()[-300:]}")
            return None
        rep = json.loads(report[-1][len("@@spawn "):])
        if rep["code"] != expect_code:
            self.fail(f"{key}: exit {rep['code']} (expected {expect_code}): {err.strip()[-300:]}")
            return None
        return out, rep["wall_s"], rep["maxrss_kb"] / 1024.0

    def probe(self, mode, *args):
        """Run the in-process probe; returns its JSON object or None."""
        res = self.run(f"probe_{mode}", [binary("fadr-perfbench-probe"), mode] + list(args))
        if res is None:
            return None
        return json.loads(res[0].strip().splitlines()[-1])


# ------------------------------------------------------------------ checks

TIME_RE = re.compile(r"\bin \d+(?:\.\d+)?(?:ns|µs|us|ms|s)\b")


def normalize(text):
    """Output with `#` timing lines dropped and reported durations masked."""
    lines = [TIME_RE.sub("in <t>", ln) for ln in text.splitlines() if not ln.startswith("#")]
    return "\n".join(lines).strip() + "\n"


def golden_path(workload, key):
    return GOLDEN / workload / f"{key}.txt"


def golden_mismatch(workload, key, text):
    """None if `text` matches the golden file, else a description."""
    path = golden_path(workload, key)
    if not path.exists():
        return f"{key}: golden file {path.relative_to(ROOT)} missing"
    want = path.read_text()
    got = normalize(text)
    if got == want:
        return None
    for i, (w, g) in enumerate(zip(want.splitlines(), got.splitlines()), 1):
        if w != g:
            return f"{key}: line {i} differs from golden: {g!r} != {w!r}"
    return f"{key}: length differs from golden"


def parse_tables(text):
    """Rows of every table in `tables` text output: dicts keyed by the
    table number plus the column headers."""
    rows, table, headers = [], None, None
    for ln in text.splitlines():
        m = re.match(r"Table (\d+):", ln)
        if m:
            table, headers = int(m.group(1)), None
        elif ln.startswith("|"):
            cells = [c.strip() for c in ln.strip("|").split("|")]
            if headers is None:
                headers = cells
            else:
                rows.append({"table": table, **dict(zip(headers, cells))})
    return rows


def check_tables(text, expected, label):
    """Compare `tables` output with the probe's in-process rows; returns
    a list of mismatches."""
    got = parse_tables(text)
    errs = []
    if [(r["table"], int(r["n"])) for r in got] != [(e["table"], e["n"]) for e in expected]:
        return [f"{label}: rows {[(r['table'], r['n']) for r in got]} differ from the probe's"]
    for r, e in zip(got, expected):
        where = f"{label}: table {e['table']} n={e['n']}"
        if int(r["N"]) != 1 << e["n"]:
            errs.append(f"{where}: N={r['N']}")
        if r["L_avg"] != e["l_avg"] or int(r["L_max"]) != e["l_max"]:
            errs.append(f"{where}: L_avg/L_max {r['L_avg']}/{r['L_max']} != probe {e['l_avg']}/{e['l_max']}")
        if e["i_r"] is not None and r.get("I_r (%)") != e["i_r"]:
            errs.append(f"{where}: I_r {r.get('I_r (%)')} != probe {e['i_r']}")
        if e["i_r"] is None and not (e["drained"] and e["delivered"] == e["total"]):
            errs.append(f"{where}: did not drain ({e['delivered']} of {e['total']} delivered)")
    return errs


def paper_err_pct(text):
    """Mean |L_avg - paper| / paper, in percent, over rows with a paper value."""
    errs = [abs(float(r["L_avg"]) - float(r["paper L_avg"])) / float(r["paper L_avg"])
            for r in parse_tables(text) if r.get("paper L_avg", "-") != "-"]
    return 100.0 * statistics.fmean(errs) if errs else None


def check_sweep(text):
    rows = [ln.split(",") for ln in text.strip().splitlines() if not ln.startswith(("#", "lambda,"))]
    if len(rows) != 33 or any(len(r) != 9 for r in rows):
        return [f"sweep: {len(rows)} rows, expected 33 of 9 columns"], 0
    delivered = sum(float(r[2]) * (1 << LANE_N) * LANE_CYCLES * LANE_R for r in rows)
    return [], delivered


def check_analysis(key, text):
    if "se4_paper_literal" in key:
        ok = ("REJECTED" in text) if key.startswith("certify") else ("error[class-capacity-exhausted]" in text)
    elif key.startswith("certify"):
        ok = "CERTIFIED" in text and "(certificate re-validated)" in text
    else:
        ok = " 0 error(s)" in text
    return [] if ok else [f"{key}: unexpected verdict"]


# ------------------------------------------------------------------ one run

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Run:
    def __init__(self, workload, seed, seconds, traced):
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.r = Runner(f"{workload}:seed{seed}:trace{int(traced)}", traced)
        self.expected = None      # probe rows of the seeded tables
        self.first_out = {}       # per command key: first output, for determinism
        self.samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": [], "certify_s": [], "lint_s": [],
                        "raw_wall_s": [], "raw_setup_s": [], "calibrate_s": []}
        self.delivered = None
        self.paper_err = None
        self.setup_inproc = None

    # -- checking passes

    def golden_pass(self):
        """The workload's commands at the golden seed, compared with the
        golden files."""
        for key, argv, _ in commands(self.workload, GOLDEN_SEED):
            res = self.r.run(key, argv)
            if res is not None:
                err = golden_mismatch(self.workload, key, res[0])
                if err:
                    self.r.fail(err)

    def checking_pass(self):
        """In-process replay of the workload through the probe: the
        counts the command outputs are checked against."""
        w = self.workload
        if w in ("static_drain", "saturated_dynamic"):
            tables = STATIC_TABLES if w == "static_drain" else DYNAMIC_TABLES
            got = self.r.probe("sim", "--seed", str(self.seed), "--cycles", str(DYNAMIC_CYCLES),
                               "--tables", ",".join(map(str, tables)))
            if got is not None:
                self.expected = got["rows"]
                self.delivered = sum(e["delivered"] for e in got["rows"])
        elif w == "static_analysis":
            got = self.r.probe("analysis", "--inst", ",".join(INSTANCES), "--reps", "9")
            if got is not None:
                for e in got["errors"]:
                    self.r.fail(f"probe analysis: {e}")
                self.setup_inproc = statistics.median(got["setup_samples"])

    # -- timed passes

    def check_output(self, key, text):
        w = self.workload
        errs = []
        if w in ("static_drain", "saturated_dynamic"):
            if self.expected is None:
                errs.append(f"{key}: no probe rows to check against")
            else:
                errs += check_tables(text, self.expected, key)
            if self.seed == GOLDEN_SEED:
                errs += [e for e in [golden_mismatch(w, key, text)] if e]
            self.paper_err = paper_err_pct(text)
        else:
            errs += [e for e in [golden_mismatch(w, key, text)] if e]
            if w == "lane_sweep":
                sweep_errs, self.delivered = check_sweep(text)
                errs += sweep_errs
            else:
                errs += check_analysis(key, text)
        first = self.first_out.setdefault(key, text)
        if normalize(first) != normalize(text):
            errs.append(f"{key}: output differs between passes")
        for e in errs:
            self.r.fail(e)

    def one_pass(self):
        """Run the workload's commands once; returns the pass's walls."""
        start = time.perf_counter()
        wall = rss = 0.0
        per_tool = {"certify": 0.0, "lint": 0.0}
        for key, argv, tool in commands(self.workload, self.seed):
            res = self.r.run(key, argv)
            if res is None:
                continue
            out, w, m = res
            self.check_output(key, out)
            wall += w
            rss = max(rss, m)
            per_tool[tool] = per_tool.get(tool, 0.0) + w
        return wall, rss, per_tool, time.perf_counter() - start

    def setup_sample(self):
        """Set-up samples taken beside each pass, so they see the same
        host conditions as the passes."""
        if self.workload == "static_drain":
            got = self.r.probe("setup", "--seed", str(self.seed), "--reps", "3",
                               "--tables", ",".join(map(str, STATIC_TABLES)))
            return got["setup_samples"] if got else []
        walls = {}
        for key, argv, tool in setup_commands(self.workload, self.seed):
            res = self.r.run(key, argv)
            if res is not None:
                if tool in ("tables", "sweep") and not res[0].strip():
                    self.r.fail(f"{key}: empty output")
                walls[tool] = res[1]
        if self.workload == "static_analysis":
            tools = [t for _, _, t in analysis_commands()]
            return [tools.count("certify") * walls.get("certify", 0.0)
                    + tools.count("lint") * walls.get("lint", 0.0) + (self.setup_inproc or 0.0)]
        return [sum(walls.values())]

    def calibrate(self):
        got = self.r.probe("calibrate")
        cal = got["calibrate_s"] if got else CAL_REF_S
        self.samples["calibrate_s"].append(cal)
        return cal

    def timed(self):
        start = time.monotonic()
        cal_before = self.calibrate()
        while True:
            setup = self.setup_sample()
            wall, rss, per_tool, _ = self.one_pass()
            cal_after = self.calibrate()
            scale = CAL_REF_S / ((cal_before + cal_after) / 2)
            cal_before = cal_after
            s = self.samples
            s["raw_wall_s"].append(wall)
            s["raw_setup_s"] += setup
            s["wall_s"].append(wall * scale)
            s["setup_s"] += [x * scale for x in setup]
            s["peak_rss_mb"].append(rss)
            s["certify_s"].append(per_tool["certify"] * scale)
            s["lint_s"].append(per_tool["lint"] * scale)
            done = len(s["wall_s"])
            if (time.monotonic() - start >= self.seconds and done >= MIN_PASSES) or self.r.failures:
                break

    # -- metrics

    def end_to_end(self):
        med = statistics.median
        s = self.samples
        wall = med(s["wall_s"])
        m = {"wall_s": (wall, "s"), "setup_s": (med(s["setup_s"]), "s"),
             "peak_rss_mb": (med(s["peak_rss_mb"]), "MB")}
        extra = {
            "packets_per_s": (self.delivered / wall if self.delivered else None, "1/s"),
            "error_rate": (len(self.r.failures) / max(1, self.r.attempted), "ratio"),
            "paper_err_pct": (self.paper_err, "%"),
            "certify_s": (med(s["certify_s"]) if self.workload == "static_analysis" else None, "s"),
            "lint_s": (med(s["lint_s"]) if self.workload == "static_analysis" else None, "s"),
            "raw_wall_s": (med(s["raw_wall_s"]), "s"),
            "raw_setup_s": (med(s["raw_setup_s"]), "s"),
            "calibrate_s": (med(s["calibrate_s"]), "s"),
        }
        return m, extra

    def per_layer(self):
        """Traced run: one untraced and one traced pass of the workload,
        the lane engine through `--lanes`, and the probe's layer spans."""
        self.r.traced = False
        untraced = self.one_pass()
        self.r.traced = True
        traced = self.one_pass()
        m = {}
        lane_setup = self.r.run("sweep_lambda_cycles1", sweep_argv(1))
        lane_full = self.r.run("sweep_lambda", sweep_argv(LANE_CYCLES))
        if lane_setup and lane_full:
            m["sim.lanes.setup_s"] = (lane_setup[1], "s")
            m["sim.lanes.run_s"] = (lane_full[1] - lane_setup[1], "s")
            m["sim.lanes.setup_share"] = (lane_setup[1] / lane_full[1], "ratio")
            m["sim.lanes.rss_mb"] = (lane_setup[2], "MB")
        spans_file = OUT / f"{self.key()}-probe-spans.jsonl"
        start = time.perf_counter_ns()
        got = self.r.probe("layers", "--seed", str(self.seed), "--cycles", str(DYNAMIC_CYCLES),
                           "--static", ",".join(map(str, STATIC_TABLES)),
                           "--dynamic", ",".join(map(str, DYNAMIC_TABLES)),
                           "--inst", ",".join(INSTANCES), "--run", self.r.run_id,
                           "--spans", str(spans_file))
        if got is None:
            return m
        self.merge_probe_spans(spans_file, start)
        for k, v in got["metrics"].items():
            m[k] = (v["value"], v["unit"])
        # The traced counts must equal the untraced checking pass's.
        kind = {"static_drain": "static", "saturated_dynamic": "dynamic"}.get(self.workload)
        if kind and self.expected is not None:
            want = (sum(e["delivered"] for e in self.expected), sum(e["cycles"] for e in self.expected))
            have = (m[f"sim.{kind}.delivered"][0], m[f"sim.{kind}.cycles"][0])
            if want != have:
                self.r.fail(f"traced counts {have} differ from the checking pass {want}")
        work = got["work_s"].get(self.workload, untraced[0])
        m["bench.overhead_s"] = (untraced[3] - work, "s")
        m["bench.trace_overhead_s"] = (traced[3] - untraced[3], "s")
        return m

    def merge_probe_spans(self, path, start_ns):
        """Re-number the probe's spans under the benchmark's span of the
        probe call, so one file holds the run's whole tree."""
        parent = next((s["id"] for s in reversed(self.r.spans) if s["name"] == "cmd.probe_layers"), None)
        base = len(self.r.spans)
        offset = start_ns - self.r.t0
        for ln in path.read_text().splitlines():
            s = json.loads(ln)
            s["id"] += base
            s["parent"] = parent if s["parent"] is None else s["parent"] + base
            s["start_ns"] += offset
            s["end_ns"] += offset
            self.r.spans.append(s)
        path.unlink()

    def key(self):
        return f"{self.workload}-seed{self.seed}-trace{int(self.traced)}"

    def execute(self):
        self.golden_pass()
        self.checking_pass()
        if self.traced:
            metrics, extra = self.per_layer(), {}
        else:
            self.timed()
            metrics, extra = self.end_to_end()
        return metrics, extra


# ------------------------------------------------------------------ provenance

def git_rev():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or None


def tree_hash():
    """SHA-256 over the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for base in (ROOT / "crates", ROOT / "src", BENCH):
        files += sorted(p for p in base.rglob("*") if p.is_file() and "target" not in p.parts
                        and "__pycache__" not in p.parts)
    for p in files:
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for ln in Path("/proc/cpuinfo").read_text().splitlines():
            if ln.startswith("model name"):
                return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "fadr-bench", "--bin", "tables", "--bin", "sweep",
         "-p", "fadr-verify", "--bin", "certify", "-p", "fadr-lint", "--bin", "lint"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "probe" / "Cargo.toml")],
    ]
    for argv in steps:
        res = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr)
        if res.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(argv)}")


# ------------------------------------------------------------------ report

def fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def main_run(args):
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload}; one of {', '.join(WORKLOADS)}")
    build()
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, extra = run.execute()
    r = run.r
    failed = len(r.failures)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(run.samples['wall_s'])} attempted={r.attempted} failed={failed}")
    for f in r.failures:
        print(f"  FAILED {f}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<40} {fmt(value):>14} {unit}")
    record = {
        "schema": "perfbench/1",
        "key": run.key(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "tree_hash": tree_hash(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "argv": r.argvs,
        "samples": run.samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "attempted": r.attempted,
        "failures": r.failures,
    }
    (OUT / f"{run.key()}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{run.key()}-spans.jsonl", "w") as f:
            for s in r.spans:
                f.write(json.dumps(s) + "\n")
    print(f"  record: {(OUT / (run.key() + '.json')).relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": r.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


# ------------------------------------------------------------------ compare

def verdict(a, b, better):
    """The direction `b` moved from `a`: claimed only when `b` wins (or
    loses) at least nine tenths of the pairs and the medians differ by
    more than the spread between `a`'s own runs."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    pairs = min(len(a), len(b))
    q1, q3 = quartiles(a)
    diff = abs(statistics.median(b) - statistics.median(a))
    if pairs and diff > q3 - q1:
        if wins >= 0.9 * pairs:
            return "better"
        if losses >= 0.9 * pairs:
            return "worse"
    return "no direction"


def compare(a_files, b_files):
    """{workload: {metric: verdict}} over result records of two sides."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    def load(files):
        by = {}
        for f in files:
            rec = json.loads(Path(f).read_text())
            for k, v in rec["metrics"].items():
                by.setdefault(rec["workload"], {}).setdefault(k, []).append(v["value"])
        return by

    a, b = load(a_files), load(b_files)
    return {w: {k: verdict(a[w][k], b[w][k], better.get(k, "lower"))
                for k in a[w] if k in b.get(w, {})}
            for w in a}


# ------------------------------------------------------------------ golden

def write_golden():
    """Regenerate the golden files from the current tree (at GOLDEN_SEED)."""
    build()
    r = Runner("golden", False)
    for w in WORKLOADS:
        (GOLDEN / w).mkdir(parents=True, exist_ok=True)
        for key, argv, _ in commands(w, GOLDEN_SEED):
            res = r.run(key, argv)
            if res is None:
                sys.exit(f"perfbench: {r.failures[-1]}")
            golden_path(w, key).write_text(normalize(res[0]))
            print(f"wrote {golden_path(w, key).relative_to(ROOT)}")


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("--a", nargs="+", required=True)
        p.add_argument("--b", nargs="+", required=True)
        a = p.parse_args(argv[1:])
        print(json.dumps(compare(a.a, a.b), indent=1))
        return
    if argv[:1] == ["write-golden"]:
        write_golden()
        return
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    main_run(p.parse_args(argv))


if __name__ == "__main__":
    main()
