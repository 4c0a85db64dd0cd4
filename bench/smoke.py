"""Smoke tests of the benchmark harness on tiny inputs (point, a2 and the
oracle at max_total_dim=2).

    python3 bench/smoke.py        (from the root of a checkout; about 10 s)
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

import dynkin
import run
import spans
import worker

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

TINY_ORACLE = run.oracle_item("a2", [2], 2)
TINY_GOLDEN = {"compared": 22, "nonzero": 17, "skipped": 0, "mismatches": []}


def tiny(work: str, seed: int) -> list[dict]:
    return [run.verify_item(os.path.join(run.DATA, "point.json"), 1),
            run.verify_item(os.path.join(run.DATA, "a2.json"), 3), TINY_ORACLE]


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class TinyWorkload(unittest.TestCase):
    def setUp(self):
        self.assertTrue(os.path.isdir(os.path.join(ROOT, "src", "hallie")),
                        "run from the root of a checkout")
        self.saved = run.WORKLOADS.copy(), run.load_goldens
        run.WORKLOADS["tiny"] = tiny
        goldens = self.saved[1]()
        goldens["oracle"][TINY_ORACLE["id"]] = TINY_GOLDEN
        run.load_goldens = lambda: goldens

    def tearDown(self):
        run.WORKLOADS.clear()
        run.WORKLOADS.update(self.saved[0])
        run.load_goldens = self.saved[1]

    def bench(self, trace: int) -> tuple[list[str], dict]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                             "--trace", str(trace)])
        self.assertEqual(code, 0)
        lines = out.getvalue().splitlines()
        return lines[:-1], json.loads(lines[-1])

    def assert_metrics(self, trace: int, kind: str) -> None:
        lines, result = self.bench(trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 3)
        want = declared(kind)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, unit in want.items():
            self.assertTrue(any(line.startswith(f"tiny {name} = ") and line.endswith(f" {unit}")
                                for line in lines), name)
        self.assertIn("tiny failed_frac = 0 ratio", lines)

    def test_end_to_end_metrics_printed_with_units(self):
        self.assert_metrics(0, "end_to_end")

    def test_layer_metrics_printed_with_units(self):
        # the traced run also fails an item whose traced output differs
        self.assert_metrics(1, "per_layer")

    def test_golden_mismatch_counts_as_failure(self):
        TINY_GOLDEN["nonzero"] += 1
        try:
            _, result = self.bench(0)
        finally:
            TINY_GOLDEN["nonzero"] -= 1
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


class Tracing(unittest.TestCase):
    def snapshot(self) -> dict:
        import hallie.hall

        bound = {(name, attr): value for name, module in sys.modules.items()
                 if name == "hallie" or name.startswith("hallie.")
                 for attr, value in vars(module).items()}
        bound.update({("ARFamily", attr): value
                      for attr, value in vars(hallie.hall.ARFamily).items()})
        return bound

    def test_traced_outputs_identical_and_attributes_restored(self):
        import hallie.hall
        import hallie.reps

        items = tiny("", 0)
        plain = [worker.run_item(item) for item in items]
        before = self.snapshot()
        tracer, families = spans.Tracer(), {}
        with tracer.installed(lambda t: worker.install(t, families)):
            self.assertIsNot(hallie.hall.hom_dim, before[("hallie.reps", "hom_dim")])
            self.assertIsNot(hallie.reps.hom_dim, before[("hallie.reps", "hom_dim")])
            traced = [worker.run_item(item) for item in items]
        self.assertEqual(traced, plain)
        self.assertEqual([code for code, _ in plain], [0, 0, 0])
        after = self.snapshot()
        self.assertEqual(after.keys(), before.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        summary = spans.summarize(list(zip(
            (tracer.names[i] for i in tracer.span_name), tracer.span_parent,
            tracer.span_start, tracer.span_end)))
        self.assertGreater(summary["hall.grass"]["calls"], 0)
        self.assertGreater(summary["hall.hom"]["calls"], 0)

    def test_self_time(self):
        rows = [("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0), ("b", 1, 2.0, 3.0),
                ("c", 0, 5.0, 6.0)]
        summary = spans.summarize(rows)
        self.assertEqual(summary["a"], {"calls": 1, "s": 10.0, "self_s": 6.0})
        # the nested b adds to self time only
        self.assertEqual(summary["b"], {"calls": 1, "s": 3.0, "self_s": 3.0})
        self.assertEqual(summary["c"], {"calls": 1, "s": 1.0, "self_s": 1.0})


class Dynkin(unittest.TestCase):
    def test_orientations_seeded_and_distinct(self):
        first = dynkin.orientations("A", 6, 7, 3)
        self.assertEqual(first, dynkin.orientations("A", 6, 7, 3))
        self.assertEqual(len(set(first)), 3)
        self.assertNotEqual(first, dynkin.orientations("A", 6, 8, 3))

    def test_gabriel_self_check(self):
        for kind, n in (("A", 3), ("A", 6), ("D", 4), ("D", 5), ("E", 6)):
            for seed in (0, 1):
                for flips in dynkin.orientations(kind, n, seed, 1):
                    self.assertEqual(dynkin.self_check(kind, n, flips),
                                     dynkin.root_count(kind, n))


class Refusal(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = os.path.join(run.BENCH, "work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-deep",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
