"""Child-side half of the benchmark: everything that imports hallie.

    python3 bench/worker.py setup ALGEBRA...
        import hallie.cli and parse the algebras; print timings as JSON.
    python3 bench/worker.py oracle ALGEBRA PRIMES MAX_TOTAL_DIM
        run hallie.check_oracle_equivalence with jobs=1; print its result.
    python3 bench/worker.py pass ITEMS_JSON OUT_JSON [SPANS_JSONL]
        run the items in this process, one after another; with SPANS_JSONL,
        trace them, dump the spans there and add the per-layer metrics.

hallie must be importable (run.py puts the checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

from spans import Tracer, load_spans, summarize

# Primes whose Hall-count time is reported.  A polynomial of degree bound D
# is counted at the first D+2 primes, one more after a retry: up to 17 on the
# verify workloads today, up to 31 on D5.
COUNT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def cmd_setup(paths: list[str]) -> dict:
    t0 = time.perf_counter()
    import hallie.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t0
    from hallie import parse_algebra

    t1 = time.perf_counter()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            parse_algebra(fh.read())
    return {"import_s": import_s, "parse_s": time.perf_counter() - t1,
            "hallie_file": os.path.abspath(hallie.cli.__file__)}


def oracle_output(path: str, primes: list[int], max_total_dim: int) -> str:
    from hallie import check_oracle_equivalence, parse_algebra

    with open(path, "r", encoding="utf-8") as fh:
        spec = parse_algebra(fh.read())
    report = check_oracle_equivalence(spec, primes, max_total_dim, jobs=1)
    return json.dumps({"compared": report.compared, "nonzero": report.nonzero,
                       "skipped": report.skipped,
                       "mismatches": [list(m) for m in report.mismatches]},
                      sort_keys=True) + "\n"


def run_item(item: dict) -> tuple[int, str]:
    """(exit code, stdout) of one item, as its child process would give them."""
    out = io.StringIO()
    try:
        if item["kind"] == "verify":
            from hallie.cli import run

            with contextlib.redirect_stdout(out):
                code = run(["verify", "--algebra", item["algebra"]])
            return code, out.getvalue()
        return 0, oracle_output(item["algebra"], item["primes"], item["max_total_dim"])
    except Exception:  # an uncaught exception is the item's failure, not ours
        traceback.print_exc()
        return 1, out.getvalue()


def install(tracer: Tracer, families: dict) -> None:
    """Wrap the public functions of algebra, knit, linalg, reps, hall and
    liealg that the verify and oracle paths call."""
    # ``hallie.knit`` the package attribute is the function, so go by name
    algebra, hall, knit, liealg, linalg, reps = (
        importlib.import_module(f"hallie.{name}")
        for name in ("algebra", "hall", "knit", "liealg", "linalg", "reps"))
    span, counters = tracer.span, tracer.counters
    hom_dim = reps.hom_dim

    def spans(fn, name, on_result=None):
        tracer.replace(fn, span(fn, name, on_result))

    def knitted(ar, args, kwargs):
        counters["knit.vertices"] += len(ar.vertices)

    def matched(ok, args, kwargs):
        counters["reps.matches_class.accepted"] += bool(ok)

    def grass_counted(value, args, kwargs):
        counters["hall.grass.nonzero"] += value != 0

    def hom_counted(value, args, kwargs):
        n1, m = args[1], args[3]
        counters["hall.hom.maps"] += m.field.p ** hom_dim(n1, m)

    def family_seen(poly, args, kwargs):
        families[id(args[0])] = args[0]

    spans(algebra.parse_algebra, "algebra.parse")
    spans(algebra.projective_rep, "algebra.projective_rep")
    spans(knit.knit, "knit", knitted)
    spans(knit.check_field_independence, "knit.field_independence")
    spans(linalg.rref, "linalg.rref")
    spans(linalg.intersect_subspaces, "linalg.intersect_subspaces")
    tracer.replace(linalg.subspaces_between,
                   tracer.yields(linalg.subspaces_between, "linalg.subspaces_between"))
    for fn in (reps.hom_dim, reps.hom_space, reps.identify, reps.aut_order,
               reps.quotient_by_subtuple, reps.restrict_to_subtuple):
        spans(fn, "reps." + fn.__name__)
    spans(reps.matches_class, "reps.matches_class", matched)
    spans(reps.decompose, "reps.decompose")
    spans(reps.decompose_with_embeddings, "reps.decompose")
    spans(hall.hall_number_grass, "hall.grass", grass_counted)
    spans(hall.hall_number_hom, "hall.hom", hom_counted)
    spans(hall.lagrange_interpolate, "hall.lagrange")
    tracer.replace(hall.closed_subspace_tuples,
                   tracer.yields(hall.closed_subspace_tuples, "hall.subspace_tuples"))
    tracer.replace_method(hall.ARFamily, "count", span(
        hall.ARFamily.count, lambda self, a, c, b, p: f"hall.count.p{p}"))
    tracer.replace_method(hall.ARFamily, "polynomial", span(
        hall.ARFamily.polynomial, "hall.polynomial", family_seen))
    spans(liealg.enumerate_module_classes, "liealg.enumerate_module_classes")
    spans(liealg.hall_lie_table, "liealg.hall_table")
    spans(liealg.euler_lie_table, "liealg.euler_table")
    spans(liealg.jacobi_check, "liealg.jacobi")
    spans(liealg.verify_isomorphism, "liealg.sign_twist")
    spans(liealg.positive_roots, "liealg.root_system")
    spans(liealg.compare_with_root_system, "liealg.root_system")


def polynomial_stats(families) -> dict[str, int]:
    """Counters read from ARFamily.known_polynomials() after an item."""
    stats = {"hall.polynomials": 0, "hall.interpolated": 0, "hall.retries": 0,
             "hall.max_prime": 0, "hall.max_degree_bound": 0, "hall.degree_slack": 0}
    for family in families:
        for poly in family.known_polynomials():
            stats["hall.polynomials"] += 1
            if not poly.primes:
                continue  # settled by the dimension law or the Hom shortcut
            stats["hall.interpolated"] += 1
            if len(poly.excluded_primes) > len(family.config.excluded_primes):
                stats["hall.retries"] += 1
            stats["hall.max_prime"] = max(stats["hall.max_prime"], poly.validation_prime,
                                          *poly.primes)
            stats["hall.max_degree_bound"] = max(stats["hall.max_degree_bound"],
                                                 poly.degree_bound)
            stats["hall.degree_slack"] += poly.degree_bound - (len(poly.coefficients) - 1)
    return stats


def layer_metrics(summary: dict, counters: dict) -> dict[str, float]:
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "algebra.parse_s": get("algebra.parse", "s"),
        "algebra.projective_rep.calls": get("algebra.projective_rep", "calls"),
        "knit.calls": get("knit", "calls"),
        "knit.s": get("knit", "s"),
        "knit.vertices": counters.get("knit.vertices", 0),
        "knit.field_independence_s": get("knit.field_independence", "s"),
        "linalg.rref.calls": get("linalg.rref", "calls"),
        "linalg.rref.s": get("linalg.rref", "s"),
        "linalg.subspaces_between.calls": counters.get("linalg.subspaces_between.calls", 0),
        "linalg.subspaces_between.yielded": counters.get("linalg.subspaces_between.yielded", 0),
        "linalg.intersect_subspaces.calls": get("linalg.intersect_subspaces", "calls"),
    }
    for name in ("hom_dim", "hom_space", "identify", "matches_class"):
        m[f"reps.{name}.calls"] = get(f"reps.{name}", "calls")
        m[f"reps.{name}.s"] = get(f"reps.{name}", "s")
    m["reps.matches_class.accept_ratio"] = ratio(
        counters.get("reps.matches_class.accepted", 0), get("reps.matches_class", "calls"))
    for name in ("quotient_by_subtuple", "restrict_to_subtuple", "aut_order"):
        m[f"reps.{name}.s"] = get(f"reps.{name}", "s")
    m["reps.decompose.calls"] = get("reps.decompose", "calls")

    count_names = [n for n in summary if n.startswith("hall.count.p")]
    m["hall.count.calls"] = sum(get(n, "calls") for n in count_names)
    m["hall.grass.calls"] = get("hall.grass", "calls")
    m["hall.grass.s"] = get("hall.grass", "s")
    m["hall.grass.nonzero_ratio"] = ratio(counters.get("hall.grass.nonzero", 0),
                                          get("hall.grass", "calls"))
    m["hall.subspace_tuples"] = counters.get("hall.subspace_tuples.yielded", 0)
    m["hall.hom.calls"] = get("hall.hom", "calls")
    m["hall.hom.s"] = get("hall.hom", "s")
    m["hall.hom.maps"] = counters.get("hall.hom.maps", 0)
    for p in COUNT_PRIMES:
        m[f"hall.count_s.p{p}"] = get(f"hall.count.p{p}", "s")
    unreported = [n for n in count_names if int(n[len("hall.count.p"):]) not in COUNT_PRIMES]
    if unreported:
        raise ValueError(f"counts at primes outside COUNT_PRIMES: {unreported}")
    m["hall.max_prime"] = counters.get("hall.max_prime", 0)
    m["hall.polynomial.calls"] = get("hall.polynomial", "calls")
    m["hall.interpolated"] = counters.get("hall.interpolated", 0)
    polys = counters.get("hall.polynomials", 0)
    m["hall.shortcut_ratio"] = ratio(polys - m["hall.interpolated"], polys)
    m["hall.lagrange.s"] = get("hall.lagrange", "s")
    for name in ("retries", "max_degree_bound", "degree_slack"):
        m[f"hall.{name}"] = counters.get(f"hall.{name}", 0)

    m["liealg.enumerate_module_classes.calls"] = get("liealg.enumerate_module_classes", "calls")
    m["liealg.enumerate_module_classes.s"] = get("liealg.enumerate_module_classes", "s")
    m["liealg.hall_table.self_s"] = get("liealg.hall_table", "self_s")
    m["liealg.euler_table.self_s"] = get("liealg.euler_table", "self_s")
    m["liealg.jacobi.s"] = get("liealg.jacobi", "s")
    m["liealg.sign_twist.s"] = get("liealg.sign_twist", "s")
    m["liealg.root_system.s"] = get("liealg.root_system", "s")
    return m


def cmd_pass(items_path: str, out_path: str, spans_path: str | None) -> None:
    with open(items_path, "r", encoding="utf-8") as fh:
        items = json.load(fh)
    import hallie.cli  # noqa: F401  (keep the import out of the timed pass)

    tracer, families = Tracer(), {}
    results = []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if spans_path:
            stack.enter_context(tracer.installed(lambda t: install(t, families)))
        for item in items:
            code, stdout = run_item(item)
            results.append({"code": code, "stdout": stdout})
            if spans_path:  # read the polynomials before the family is dropped
                for key, value in polynomial_stats(families.values()).items():
                    if key.startswith("hall.max"):
                        tracer.counters[key] = max(tracer.counters[key], value)
                    else:
                        tracer.counters[key] += value
                families.clear()
    wall = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    doc = {"results": results, "wall_s": wall,
           "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)}
    if spans_path:
        tracer.dump(spans_path)
        header, spans = load_spans(spans_path)
        doc["layers"] = layer_metrics(summarize(spans), header["counters"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv: list[str]) -> int:
    command, args = argv[0], argv[1:]
    if command == "setup":
        print(json.dumps(cmd_setup(args)))
    elif command == "oracle":
        primes = [int(p) for p in args[1].split(",")]
        sys.stdout.write(oracle_output(args[0], primes, int(args[2])))
    elif command == "pass":
        cmd_pass(args[0], args[1], args[2] if len(args) > 2 else None)
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
