#!/usr/bin/env python3
"""Tests of the host-clock benchmark itself.

    python3 hostbench/test_run.py

Runs every workload at a small scale (one round, every output check, in
both the timed and the traced form), shows that a perturbed reference is
reported as a failed operation, and that the benchmark refuses to run
without the engine sources next to it.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SCALE = "0.05"

# Checks one round makes: 2 per native run, 2 per serial-Pin run (3 for
# dcache), 3 per SuperPin run (4 for dcache), the ticks check, and two
# replay checks. A timed round has three native and three Pin runs plus
# -spmp 0 and -spmp 3; a traced round one of each plus two -spmp 3 runs.
PER_ROUND = {
    ("icount", 0): 3 * 2 + 3 * 2 + 2 * 3 + 1 + 2,
    ("dcache", 0): 3 * 2 + 3 * 3 + 2 * 4 + 1 + 2,
    ("icount", 1): 2 + 2 + 2 * 3 + 1 + 2,
    ("dcache", 1): 2 + 3 + 2 * 4 + 1 + 2,
}
WORKLOADS = {"mcf-icount": "icount", "gcc-icount": "icount",
             "swim-dcache": "dcache"}


def bench(workload, *extra, trace=0, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--scale", SCALE, *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[-2], json.loads(lines[-1])


class SmallScale(unittest.TestCase):
    def test_every_workload_passes_every_check(self):
        for workload, family in WORKLOADS.items():
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    summary, r = result(bench(workload, trace=trace))
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertTrue(r["correct"], summary)
                    self.assertEqual(r["failed"], 0, summary)
                    self.assertEqual(r["attempted"],
                                     PER_ROUND[(family, trace)])
                    for m in r["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_timed_metrics_are_never_zero(self):
        _, r = result(bench("gcc-icount"))
        self.assertEqual(len(r["metrics"]), 10)
        for name, m in r["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_traced_run_writes_span_file(self):
        proc = bench("mcf-icount", trace=1)
        result(proc)
        path = ROOT / ".bench_build" / "hostbench" / "traces" / \
            "mcf-icount-7.json"
        self.assertIn(str(path), proc.stderr)
        events = json.loads(path.read_text())["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        for span in ("workloads.generate", "analysis.cfg", "vm.interp",
                     "pin.serial", "superpin.run", "vm.fork", "host.stream",
                     "replay.capture", "replay.decode", "replay.replay_all"):
            self.assertIn(span, names)
        self.assertEqual(len({e["args"]["run"] for e in events
                              if e["ph"] == "X"}), 1)


class PerturbedReference(unittest.TestCase):
    def test_retired_count_off_by_one_fails(self):
        summary, r = result(bench("mcf-icount", "--perturb", "insts"))
        self.assertFalse(r["correct"])
        # The three native.insts and pin.icount checks, and the icount and
        # partition checks of both SuperPin runs, compare against it.
        self.assertEqual(r["failed"], 10)
        for name in ("native.insts", "pin.icount", "superpin.icount",
                     "spmp.icount", "superpin.partition", "spmp.partition"):
            self.assertIn(name, summary)

    def test_replay_against_other_tool_fails(self):
        summary, r = result(bench("swim-dcache", "--perturb", "replay-tool"))
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 1)
        self.assertIn("replay.fini x1", summary)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_engine_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("mcf-icount", cwd=tmp,
                         script=Path(tmp) / HERE.name / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
