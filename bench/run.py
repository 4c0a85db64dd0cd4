"""hallie benchmark: one command, three workloads, timed and traced.

    python3 bench/run.py --workload verify-deep --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the program under test is the checkout's
``src/hallie``.  With ``--trace 0`` each item runs in a fresh child process,
the way a user runs it, for ``--seconds`` seconds (closed loop, one client,
items round-robin); the end-to-end metrics are reported.  With ``--trace 1``
the items run once untraced and once traced, each pass in-process in its
own child; the per-layer metrics are reported.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from statistics import median

from dynkin import dynkin_text, orientation_name, orientations, root_count

BENCH = os.path.dirname(os.path.abspath(__file__))
ITEM_TIMEOUT_S = 90.0
RUN_LIMIT_S = 170.0        # hard wall for a whole run, set-up included
SETUP_REPEATS = 11         # timed set-ups per run, after one untimed warm-up
DATA = os.path.join("src", "hallie", "data")

def verify_item(path: str, roots: int | None) -> dict:
    """``roots``: positive roots verify must compare against, None when the
    algebra has relations and the comparison is skipped."""
    return {"id": os.path.basename(path), "kind": "verify", "algebra": path,
            "roots": roots}


def oracle_item(name: str, primes: list[int], max_total_dim: int) -> dict:
    return {"id": f"oracle:{name}:{','.join(map(str, primes))}:{max_total_dim}",
            "kind": "oracle", "algebra": os.path.join(DATA, f"{name}.json"),
            "primes": primes, "max_total_dim": max_total_dim}


def dynkin_items(work: str, kind: str, n: int, seed: int, count: int) -> list[dict]:
    """Write ``count`` seeded orientations of the Dynkin quiver.  A file is
    named by its orientation, so equal files get equal names (verify prints
    the name)."""
    items = []
    for flips in orientations(kind, n, seed, count):
        path = os.path.join(work, orientation_name(kind, n, flips) + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dynkin_text(kind, n, flips))
        items.append(verify_item(os.path.relpath(path), root_count(kind, n)))
    return items


# Each workload returns its items; writing generated algebras is set-up work.
def verify_deep(work: str, seed: int) -> list[dict]:
    """Few indecomposables, dimension vectors with 2s: Hall counting
    (the grass route) dominates.  csquare brings the branch with relations."""
    return [verify_item(os.path.join(DATA, "d4.json"), 12),
            verify_item(os.path.join(DATA, "csquare.json"), None),
            *dynkin_items(work, "D", 4, seed, 1)]


def verify_wide(work: str, seed: int) -> list[dict]:
    """Multiplicity-free roots, many pairs: class enumeration and Lie-table
    assembly take a larger share.  A5, not A6: an A6 verify takes 8-13 s,
    too few samples per run to be steady.  Three orientations, so that one
    seed's draw moves the pass time less."""
    return dynkin_items(work, "A", 5, seed, 3)


def oracle_sweep(work: str, seed: int) -> list[dict]:
    """The criterion-6 oracle scaled down: the hom route at fixed primes,
    no interpolation, no Lie tables.  a2 runs at each prime separately, so a
    run holds more, shorter samples.  Inputs are fixed; the seed only orders
    the items."""
    return [oracle_item("a2", [2], 4), oracle_item("a2", [3], 4),
            oracle_item("a3_bound", [2], 4)]


WORKLOADS = {"verify-deep": verify_deep, "verify-wide": verify_wide,
             "oracle-sweep": oracle_sweep}


def run_child(cmd: list[str], root: str, env: dict, work: str, timeout: float) -> dict:
    """Run one child process to completion, killed after ``timeout`` seconds;
    its exit code, stdout, wall seconds and peak RSS (from wait4)."""
    out_path = os.path.join(work, "child.stdout")
    timed_out = threading.Event()
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out,
                                stdin=subprocess.DEVNULL)

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    return {"code": proc.returncode, "stdout": stdout, "wall_s": wall,
            "rss_kb": usage.ru_maxrss, "timed_out": timed_out.is_set()}


def item_command(item: dict) -> list[str]:
    if item["kind"] == "verify":
        return [sys.executable, "-m", "hallie.cli", "verify", "--algebra", item["algebra"]]
    return [sys.executable, os.path.join(BENCH, "worker.py"), "oracle", item["algebra"],
            ",".join(map(str, item["primes"])), str(item["max_total_dim"])]


def check(item: dict, code: int, stdout: bytes, goldens: dict) -> str | None:
    """Why the item's output is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if item["kind"] == "oracle":
        want = goldens["oracle"][item["id"]]
        return None if doc == want else f"oracle result {doc} != golden {want}"
    digest = hashlib.sha256(stdout).hexdigest()
    golden = goldens["verify_stdout_sha256"].get(item["id"])
    if golden is not None and digest != golden:
        return f"stdout sha256 {digest} != golden {golden}"
    if doc.get("ok") is not True:
        return "verify reported ok != true"
    roots = {c["name"]: c for c in doc.get("checks", [])}.get("root system comparison")
    if roots is None or not roots["ok"]:
        return "root system comparison missing or failed"
    if item["roots"] is not None and roots["detail"] != f"{item['roots']} positive roots":
        return f"root system comparison: {roots['detail']!r}"
    return None


class Bench:
    def __init__(self, root: str, workload: str, seed: int, goldens: dict):
        self.root, self.workload, self.seed, self.goldens = root, workload, seed, goldens
        self.work = os.path.join(BENCH, "work", workload)
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.started = time.perf_counter()
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.notes: dict[str, float] = {}  # printed, not part of the result

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, cmd: list[str], timeout: float = ITEM_TIMEOUT_S) -> dict:
        return run_child(cmd, self.root, self.env, self.work, min(timeout, self.remaining()))

    def record(self, item_id: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{item_id}: {reason}")

    def setup(self) -> tuple[list[dict], list[float], list[float]]:
        """Generate the workload's algebras and import hallie.cli in a child
        that parses them, 1 + SETUP_REPEATS times; the items, and the set-up
        seconds and the child's import seconds of the timed repeats.  The
        warm-up absorbs one-off costs such as writing bytecode caches."""
        setup_s, import_s = [], []
        for _ in range(1 + SETUP_REPEATS):
            t0 = time.perf_counter()
            shutil.rmtree(self.work, ignore_errors=True)
            os.makedirs(self.work)
            items = WORKLOADS[self.workload](self.work, self.seed)
            algebras = sorted({item["algebra"] for item in items})
            res = self.child([sys.executable, os.path.join(BENCH, "worker.py"),
                              "setup", *algebras])
            setup_s.append(time.perf_counter() - t0)
            if res["code"] != 0:
                raise SystemExit(f"set-up child failed with exit code {res['code']}")
            info = json.loads(res["stdout"])
            expected = os.path.join(os.path.realpath(self.root), "src", "hallie")
            if os.path.dirname(os.path.realpath(info["hallie_file"])) != expected:
                raise SystemExit(f"imported {info['hallie_file']}, not the checkout's hallie")
            import_s.append(info["import_s"])
        random.Random(self.seed).shuffle(items)
        return items, setup_s[1:], import_s[1:]

    def timed(self, items: list[dict], seconds: float) -> dict[str, float]:
        """Run the items round-robin, each at least once, and start another
        only while its last wall time still fits in ``seconds``.  The sum of
        each item's median wall time, and the largest median peak RSS."""
        walls = {item["id"]: [] for item in items}
        rss = {item["id"]: [] for item in items}
        start = time.perf_counter()
        k = 0
        while True:
            item = items[k % len(items)]
            if k >= len(items) and (time.perf_counter() - start
                                    + walls[item["id"]][-1] > seconds):
                break
            k += 1
            res = self.child(item_command(item))
            reason = "timeout" if res["timed_out"] else check(
                item, res["code"], res["stdout"], self.goldens)
            self.record(item["id"], reason)
            walls[item["id"]].append(res["wall_s"])
            rss[item["id"]].append(res["rss_kb"])
        self.notes["samples"] = k
        return {"wall_s": sum(median(w) for w in walls.values()),
                "peak_rss_mb": max(median(r) for r in rss.values()) / 1024.0}

    def traced(self, items: list[dict]) -> dict:
        items_path = os.path.join(self.work, "items.json")
        with open(items_path, "w", encoding="utf-8") as fh:
            json.dump(items, fh)
        worker = [sys.executable, os.path.join(BENCH, "worker.py"), "pass", items_path]
        passes = []
        for extra in ([], [os.path.join(self.work, "spans.jsonl")]):
            out_path = os.path.join(self.work, f"pass{len(passes)}.json")
            res = self.child(worker + [out_path] + extra, timeout=self.remaining())
            if res["code"] != 0 or res["timed_out"]:
                raise SystemExit(f"in-process pass failed (exit {res['code']}, "
                                 f"timed out: {res['timed_out']})")
            with open(out_path, "r", encoding="utf-8") as fh:
                passes.append(json.load(fh))
        plain, traced = passes
        for item, a, b in zip(items, plain["results"], traced["results"]):
            for result in (a, b):
                reason = check(item, result["code"], result["stdout"].encode("utf-8"),
                               self.goldens)
                if result is b and reason is None and a != b:
                    reason = "traced output differs from untraced"
                self.record(item["id"], reason)
        metrics = dict(traced["layers"])
        metrics["proc.cpu_s"] = traced["cpu_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return metrics


def load_goldens() -> dict:
    with open(os.path.join(BENCH, "goldens.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def source_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src", "hallie")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


UNITS = {"src.lines": "lines", "hall.max_prime": "prime", "hall.max_degree_bound": "degree",
         "hall.degree_slack": "degree", "peak_rss_mb": "MB", "failed_frac": "ratio",
         "samples": "count"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")) or "_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hallie", "__init__.py")):
        print("error: run from the root of a hallie checkout (no src/hallie here)",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, load_goldens())
    items, setup_s, import_s = bench.setup()
    if args.trace:
        metrics = bench.traced(items)
        metrics["cli.import_s"] = median(import_s)
        metrics["src.lines"] = source_lines(root)
    else:
        metrics = bench.timed(items, args.seconds)
        metrics["setup_s"] = median(setup_s)
    bench.notes["failed_frac"] = bench.failed / bench.attempted
    for name, value in sorted(metrics.items()) + sorted(bench.notes.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit(name)}")
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
