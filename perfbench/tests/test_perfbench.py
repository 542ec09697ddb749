"""Tests for the benchmark's own code.

Run from the repository root (builds the benchmark on first use, ~2 minutes):

    python3 -m unittest discover -s perfbench/tests -v

Each test runs real workloads for --seconds 1 (one pass), so the suite
takes a few minutes on a 4-core host.
"""

import json
import os
import re
import shutil
import subprocess
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, seed=1, trace=0, extra=(), cwd=ROOT):
    """Runs the benchmark; returns (exit code, result row, final JSON)."""
    cmd = ["python3", RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        return out.returncode, None, None
    return out.returncode, json.loads(lines[-2]), json.loads(lines[-1])


class MetricNames(unittest.TestCase):
    def test_declared_names_are_well_formed(self):
        for name in E2E + LAYERS + WORKLOADS:
            self.assertRegex(name, NAME_RE)

    def test_each_workload_prints_exactly_the_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, row, res = run_bench(w)
                self.assertEqual(rc, 0)
                self.assertEqual(list(res["metrics"]), E2E)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertEqual(row["ops_failed"], 0)
                for name, m in res["metrics"].items():
                    self.assertRegex(name, NAME_RE)
                    self.assertGreater(m["value"], 0)

    def test_traced_run_prints_every_layer_metric_and_a_trace(self):
        rc, row, res = run_bench("mysql_fdip", trace=1)
        self.assertEqual(rc, 0)
        self.assertTrue(res["correct"])
        self.assertEqual(list(res["metrics"]), LAYERS)
        # mysql_fdip runs no UDP configuration: no UDP work is replayed.
        self.assertEqual(res["metrics"]["core.bloom_ns"]["value"], 0)
        self.assertEqual(res["metrics"]["core.udp_drop_ratio"]["value"], 0)
        trace = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "out", "mysql_fdip-seed1.trace.json")
        with open(os.path.join(ROOT, trace)) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        self.assertIn("sim.measure", names)
        self.assertIn("host_us_per_phase", names)


class Digests(unittest.TestCase):
    def test_same_seed_same_digest_other_seed_differs(self):
        _, a, _ = run_bench("mysql_fdip", seed=5)
        _, b, _ = run_bench("mysql_fdip", seed=5)
        _, c, _ = run_bench("mysql_fdip", seed=6)
        self.assertEqual(a["report_digest"], b["report_digest"])
        self.assertNotEqual(a["report_digest"], c["report_digest"])

    def test_corrupted_pin_counts_as_failed_operations(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=scratch)
        try:
            pins = os.path.join(tmp, "digests")
            shutil.copytree(os.path.join(ROOT, "perfbench", "digests"), pins)
            path = os.path.join(pins, "mysql_fdip.txt")
            with open(path) as f:
                lines = f.read().splitlines()
            i = next(k for k, l in enumerate(lines) if not l.startswith("#"))
            digest = lines[i].split()[-1]
            flipped = ("1" if digest[0] != "1" else "2") + digest[1:]
            lines[i] = lines[i][: -len(digest)] + flipped
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
            rc, row, res = run_bench("mysql_fdip", extra=["--digests", pins])
            self.assertEqual(rc, 0)
            self.assertFalse(res["correct"])
            self.assertGreaterEqual(res["failed"], 1)
            self.assertEqual(row["ops_failed"], res["failed"])
        finally:
            shutil.rmtree(tmp)


class Contract(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", "mysql_fdip",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn("correct", out.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
