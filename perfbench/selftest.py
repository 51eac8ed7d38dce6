"""Self-tests of the benchmark: its checkers are not vacuous, and a tiny run
prints every metric named in BENCHMARK.json.

    python3 perfbench/selftest.py

Not collected by pytest on purpose: the tiny runs spawn workers and take
about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from worker import new_stats, run_cycles  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def first(wl: workloads.Workload, slot: str) -> workloads.Query:
    return wl.make(slot, random.Random(7))


class TamperedAnswers(unittest.TestCase):
    """One genuine answer per workload passes; the same answer tampered fails."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp(dir=ROOT / ".perfbench_work")

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def workload(self, name):
        return workloads.Workload(name, 1, self.tmp)

    def test_interp(self):
        wl = self.workload("interp")
        for slot in ("p2_small_special_low", "p2_mid", "p4_m1", "torsion_2"):
            q = first(wl, slot)
            res = wl.run(q)
            self.assertTrue(wl.check(q, res), slot)
            self.assertFalse(wl.check(q, dataclasses.replace(res, h0=res.h0 + 1000)), slot)
        q = first(wl, "p2_small_low")
        res = wl.run(q)
        self.assertFalse(wl.check(q, dataclasses.replace(res, h0=res.h0 + 1)))

    def test_classify(self):
        wl = self.workload("classify")
        q = first(wl, "witness_t2")
        verdict = wl.run(q)
        self.assertTrue(wl.check(q, verdict))
        ev = verdict.evidence
        bad = dataclasses.replace(verdict, evidence=dataclasses.replace(
            ev, lower=int(ev.upper) + 1))
        self.assertFalse(wl.check(q, bad))
        bad = dataclasses.replace(verdict, evidence=dataclasses.replace(
            ev, undecided=(q.args[0].D,)))
        self.assertFalse(wl.check(q, bad))
        q = first(wl, "c10_indeterminate")
        verdict = wl.run(q)
        self.assertTrue(wl.check(q, verdict))
        self.assertFalse(wl.check(q, dataclasses.replace(verdict, tag=type(verdict.tag)(
            "AsymptoticallySpecial"))))

    def test_orbit(self):
        wl = self.workload("orbit")
        for slot in ("count_low", "list", "cache", "nef", "reduce"):
            q = first(wl, slot)
            code, out = wl.run(q)
            self.assertTrue(wl.check(q, (code, out)), slot)
            payload = json.loads(out)
            if "count" in payload:
                payload["count"] += 1
            elif "nef_up_to_bound" in payload:
                payload["nef_up_to_bound"] = not payload["nef_up_to_bound"]
            else:
                payload["result"]["d"] += 1
            self.assertFalse(wl.check(q, (code, json.dumps(payload))), slot)
        q = first(wl, "list")
        code, out = wl.run(q)
        payload = json.loads(out)
        payload["classes"][0]["d"] += 1
        self.assertFalse(wl.check(q, (code, json.dumps(payload))))

    def test_exception_counts_as_failure(self):
        class Raising:
            def cycle(self):
                return [workloads.Query("boom", ())]

            def run(self, q):
                raise ValueError("boom")

            def check(self, q, result):
                return True

        stats = new_stats()
        with mock.patch("worker.machine_speed", return_value=0.02):
            run_cycles(Raising(), None, 0, 1, stats)
        self.assertEqual(stats["failed"], 1)


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class TinyRuns(unittest.TestCase):
    """Every workload runs; every metric of the manifest is printed."""

    def run_all(self, trace: int, kind: str):
        out = bench("--workload", "all", "--seed", "3", "--seconds", "0.5",
                    "--trace", str(trace))
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for workload in MANIFEST["workloads"]:
            for metric in MANIFEST[kind]:
                key = f"{workload['name']}.{metric['name']}"
                self.assertIn(key, result["metrics"])
                self.assertEqual(result["metrics"][key]["unit"], metric["unit"], key)
            self.assertIn(f"{workload['name']} failed_ratio", out.stdout)

    def test_end_to_end(self):
        self.run_all(0, "end_to_end")

    def test_traced(self):
        self.run_all(1, "per_layer")

    def test_refuses_without_sources(self):
        tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = bench("--workload", "interp", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    unittest.main()
