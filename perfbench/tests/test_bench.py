"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

The tests build the commands and the probe when needed, and run two
short traced runs and one short untraced run of static_analysis, the
quickest workload (about two minutes in all on two cores).
"""

import json
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class GoldenTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        shutil.copytree(run.GOLDEN, self.tmp / "golden")
        self.saved = run.GOLDEN
        run.GOLDEN = self.tmp / "golden"

    def tearDown(self):
        run.GOLDEN = self.saved
        shutil.rmtree(self.tmp)

    def test_one_altered_character_fails_the_check(self):
        for path in sorted(run.GOLDEN.rglob("*.txt")):
            workload, key = path.parent.name, path.stem
            text = path.read_text()
            self.assertIsNone(run.golden_mismatch(workload, key, text), path)
            i = len(text) // 2
            path.write_text(text[:i] + ("x" if text[i] != "x" else "y") + text[i + 1:])
            self.assertIsNotNone(run.golden_mismatch(workload, key, text), path)

    def test_real_output_matches_and_altered_golden_does_not(self):
        run.build()
        r = run.Runner("test", False)
        key, argv, _ = run.analysis_commands()[0]
        out = r.run(key, argv)[0]
        self.assertIsNone(run.golden_mismatch("static_analysis", key, out))
        path = run.golden_path("static_analysis", key)
        path.write_text(path.read_text().replace("CERTIFIED", "CERTIFIEd", 1))
        self.assertIsNotNone(run.golden_mismatch("static_analysis", key, out))

    def test_timing_lines_do_not_count(self):
        self.assertEqual(run.normalize("# took 3s\nexplored: 5 states in 1.25ms (x)\n"),
                         "explored: 5 states in <t> (x)\n")


class LauncherTest(unittest.TestCase):
    def test_peak_rss_is_not_floored_by_the_launcher(self):
        run.build()
        r = run.Runner("test", False)
        _, _, rss_mb = r.run("true", ["/bin/true"])
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.assertLess(rss_mb, own_mb / 2)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_is_well_formed(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                  "per_layer"})
        self.assertEqual(set(w["name"] for w in s["workloads"]), set(run.WORKLOADS))
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in s["end_to_end"]))


class RunTest(unittest.TestCase):
    """Two traced runs and one untraced run at the same seed."""

    @classmethod
    def setUpClass(cls):
        cls.traced = [bench("static_analysis", 7, 1, 1) for _ in range(2)]
        cls.untraced = bench("static_analysis", 7, 1, 0)

    def check_names(self, result, group):
        want = {m["name"]: m["unit"] for m in spec()[group]}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, v in result["metrics"].items():
            self.assertRegex(name, NAME_RE)
            self.assertEqual(v["unit"], want[name], name)

    def test_results_are_correct(self):
        for res in self.traced + [self.untraced]:
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertGreaterEqual(res["attempted"], 1)

    def test_metric_names_match_benchmark_json(self):
        self.check_names(self.untraced, "end_to_end")
        for res in self.traced:
            self.check_names(res, "per_layer")

    def test_two_traced_runs_give_identical_counts(self):
        a, b = (r["metrics"] for r in self.traced)
        counts = [k for k, v in a.items() if v["unit"] == "count"]
        self.assertTrue(counts)
        for k in counts:
            self.assertEqual(a[k]["value"], b[k]["value"], k)


class CompareTest(unittest.TestCase):
    def test_a_against_a_claims_no_direction(self):
        for a in ([1.0], [1.0, 1.2, 0.9, 1.1, 1.05], [3.0] * 10):
            for better in ("higher", "lower"):
                self.assertEqual(run.verdict(a, list(a), better), "no direction")

    def test_a_against_a_records_claim_no_direction(self):
        files = sorted(str(p) for p in run.OUT.glob("*-trace0.json"))
        if not files:
            self.skipTest("no untraced result records yet")
        for verdicts in run.compare(files, files).values():
            self.assertEqual(set(verdicts.values()), {"no direction"})

    def test_a_clear_shift_is_claimed(self):
        a = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
        b = [x * 1.5 for x in a]
        self.assertEqual(run.verdict(a, b, "lower"), "worse")
        self.assertEqual(run.verdict(b, a, "lower"), "better")


if __name__ == "__main__":
    unittest.main()
