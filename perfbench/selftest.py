"""Tests of the benchmark itself.

    python3 perfbench/selftest.py        (from the repository root)

They check that the generators are seeded and never repeat an instance, that
the closed-form answers match the engine on the first operations of every
workload and that a corrupted expected value is caught, that a traced run
repeats its counts exactly, and that run.py fails without printing a result
where the program is missing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
OPS = 12  # covers every operation kind of every workload


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)
    parent = os.path.dirname(WORK)
    if os.path.isdir(parent) and not os.listdir(parent):
        os.rmdir(parent)


def constants(op: dict) -> set[str]:
    return set(re.findall(r"\b[a-z]\d+x\d+[a-z]\w*", "".join(op["files"].values())))


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (wl.sparse_keys_op, wl.aic_rules_op):
            self.assertEqual(make(7, 3), make(7, 3))
        self.assertEqual(wl.dense_prefs_session(7, 3), wl.dense_prefs_session(7, 3))

    def test_seed_changes_inputs(self):
        for make in (wl.sparse_keys_op, wl.aic_rules_op):
            self.assertNotEqual([make(1, i)["files"] for i in range(20)],
                                [make(2, i)["files"] for i in range(20)])

    def test_no_constant_shared_between_operations(self):
        for make in (wl.sparse_keys_op, wl.aic_rules_op):
            seen: set[str] = set()
            for i in range(40):
                names = constants(make(1, i))
                self.assertTrue(names)
                self.assertFalse(names & seen)
                seen |= names
        facts = [set(wl.dense_prefs_session(1, s)["facts"]) for s in range(10)]
        self.assertEqual(sum(map(len, facts)), len(set().union(*facts)))


class Checks(unittest.TestCase):
    """The closed-form answers agree with the engine, and a wrong one does not."""

    @classmethod
    def setUpClass(cls):
        os.makedirs(WORK, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def runner(self, workload: str):
        runner = child.make_runner(workload, 3, os.path.join(WORK, f"{workload}-{self.id()}"))
        runner.prepare(OPS)
        return runner

    @staticmethod
    def corrupt(op: dict) -> None:
        """Drop one expected line, repair or answer (or add an answer to an
        expected empty set)."""
        if "stdout" in op:
            op["stdout"] = "".join(op["stdout"].splitlines(True)[1:])
        elif isinstance(op["expected"], frozenset):
            op["expected"] = frozenset(list(op["expected"])[1:])
        else:
            op["expected"] = op["expected"][1:] if op["expected"] else (("extra",),)

    def test_every_operation_checks_out_and_a_corruption_is_caught(self):
        for workload in wl.WORKLOADS:
            runner = self.runner(workload)
            for index in range(OPS):
                with self.subTest(workload=workload, op=index, kind=runner.kind(index)):
                    result = runner.run(index)
                    self.assertEqual(runner.check(index, result), "")
                    self.corrupt(runner.ops[index])
                    self.assertNotEqual(runner.check(index, result), "")

    def test_wrong_exit_code_is_caught(self):
        runner = self.runner("sparse-keys")
        code, stdout, stderr = runner.run(0)
        self.assertNotEqual(runner.check(0, (3, stdout, stderr)), "")


class Tracing(unittest.TestCase):
    def traced(self, name: str) -> dict:
        spans = os.path.join(WORK, f"{name}.json")
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--workload", "aic-rules", "--seed", "5",
             "--mode", "trace", "--ops", "4", "--workdir", os.path.join(WORK, name), "--spans", spans],
            cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src")),
            capture_output=True, text=True, check=True, timeout=120,
        )
        self.assertEqual(json.loads(out.stdout.splitlines()[-1])["failed"], 0)
        with open(spans, encoding="utf-8") as handle:
            recorded = json.load(handle)
        metrics = tracing.layer_metrics(recorded["names"], recorded["spans"])
        return {k: v for k, v in metrics.items() if not k.endswith("self_s")}

    def test_counts_repeat_exactly(self):
        os.makedirs(WORK, exist_ok=True)
        try:
            first, second = self.traced("a"), self.traced("b")
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        self.assertEqual(first, second)
        self.assertGreater(first["aic.calls"], 0)
        self.assertGreater(first["cli.calls"], 0)
        self.assertEqual(first["query.calls"], 0)

    def test_self_time_excludes_children(self):
        names = ["cli.main", "conflicts.conflicts"]
        spans = [[0, -1, 0, 0.0, 1.0, -1, False], [0, 0, 1, 0.2, 0.5, 3, True]]
        metrics = tracing.layer_metrics(names, spans)
        self.assertAlmostEqual(metrics["cli.self_s"], 0.7)
        self.assertAlmostEqual(metrics["conflicts.self_s"], 0.3)
        self.assertEqual(metrics["conflicts.count"], 3)


class Contract(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = os.path.join(WORK, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sparse-keys", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
