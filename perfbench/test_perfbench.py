#!/usr/bin/env python3
"""Tests of the benchmark driver's contract.

    python3 perfbench/test_perfbench.py        (from the repository root)

Builds the benchmark like run.py does, then checks the documented exit codes
on bad arguments and on a missing lotec_worker, and that the count metrics
repeat exactly for a seed and change with it.  Takes about four minutes.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build helper)

EXIT_USAGE, EXIT_RUNTIME = 2, 3
WORKLOADS = ("hot_nested", "cold_scan", "wire_hot")
DRIVER = None


def setUpModule():
    global DRIVER
    DRIVER = run.build()
    if DRIVER is None:
        raise RuntimeError("benchmark build failed")


def invoke(args, driver=None, env=None):
    return subprocess.run([driver or DRIVER] + args, capture_output=True,
                          text=True, env=env, timeout=300)


def result(args):
    p = invoke(args)
    if p.returncode != 0:
        raise AssertionError(f"{args} exited {p.returncode}: {p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def values(res, names):
    return {n: res["metrics"][n]["value"] for n in names}


def args_for(workload, seed, trace):
    return ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]


class UsageErrors(unittest.TestCase):
    BAD = [
        [],
        ["--workload", "hot_nested", "--seed", "1", "--seconds", "1"],
        ["--workload", "hot_nested", "--seed", "1", "--seconds", "1",
         "--trace"],
        ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
        ["--workload", "hot_nested", "--seed", "12x", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "hot_nested", "--seed", "-1", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "hot_nested", "--seed", "99999999999999999999999",
         "--seconds", "1", "--trace", "0"],
        ["--workload", "hot_nested", "--seed", "1", "--seconds", "0",
         "--trace", "0"],
        ["--workload", "hot_nested", "--seed", "1", "--seconds", "1",
         "--trace", "2"],
        ["--workload", "hot_nested", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--bogus", "1"],
        ["--workload", "hot_nested", "--workload", "cold_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
    ]

    def test_bad_arguments_exit_with_usage_code_and_no_result(self):
        for bad in self.BAD:
            with self.subTest(args=bad):
                p = invoke(bad)
                self.assertEqual(p.returncode, EXIT_USAGE, p.stderr)
                self.assertEqual(p.stdout, "")
                self.assertIn("usage:", p.stderr)


class MissingWorker(unittest.TestCase):
    def test_wire_workload_without_worker_is_an_error(self):
        # A copy of the driver with no lotec_worker beside it.
        lonely = os.path.join(run.BUILD_DIR, "no_worker")
        os.makedirs(lonely, exist_ok=True)
        driver = shutil.copy(DRIVER, lonely)
        env = {k: v for k, v in os.environ.items() if k != "LOTEC_WORKER"}
        for extra in ({}, {"LOTEC_WORKER": os.path.join(lonely, "missing")}):
            with self.subTest(env=extra):
                p = invoke(args_for("wire_hot", 1, 0), driver,
                           dict(env, **extra))
                self.assertEqual(p.returncode, EXIT_RUNTIME, p.stderr)
                self.assertEqual(p.stdout, "")
                self.assertIn("lotec_worker", p.stderr.lower())


class Determinism(unittest.TestCase):
    E2E = ("msgs_per_commit", "bytes_per_commit")
    LAYER = ("txn.deadlock_retries_per_commit", "page.evicted_per_commit")

    def test_count_metrics_repeat_for_a_seed(self):
        for w in WORKLOADS:
            for trace, names in ((0, self.E2E), (1, self.LAYER)):
                with self.subTest(workload=w, trace=trace):
                    a = result(args_for(w, 7, trace))
                    b = result(args_for(w, 7, trace))
                    self.assertTrue(a["correct"] and b["correct"])
                    self.assertEqual(values(a, names), values(b, names))

    def test_another_seed_changes_the_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = result(args_for(w, 7, 0))
                b = result(args_for(w, 8, 0))
                self.assertNotEqual(values(a, self.E2E), values(b, self.E2E))

    def test_wire_carries_the_in_process_traffic(self):
        a = result(args_for("hot_nested", 9, 0))
        b = result(args_for("wire_hot", 9, 0))
        self.assertEqual(values(a, self.E2E), values(b, self.E2E))


if __name__ == "__main__":
    unittest.main()
