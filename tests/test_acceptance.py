"""Acceptance suite: one test per criterion, each printing a pass line with
its timing (run with -s to watch them live)."""

import itertools
import time

import hallie
from hallie import load_algebra
from hallie.hall import ARFamily, check_oracle_equivalence
from hallie.knit import check_field_independence
from hallie.liealg import (GradedVector, compare_with_root_system,
                           enumerate_module_classes, euler_lie_table,
                           graded_multiply, hall_lie_table, jacobi_check,
                           positive_roots, verify_isomorphism)
from hallie.linalg import PrimeField
from hallie.reps import MultiplicityVector

_PIPELINES: dict[str, dict] = {}


def pipeline(name: str) -> dict:
    """Knit + both Lie tables for a shipped algebra, built once."""
    if name not in _PIPELINES:
        spec = load_algebra(hallie.example_algebra_path(name))
        family = ARFamily(spec)
        result = {"spec": spec, "family": family}
        result["hall_table"] = hall_lie_table(family)
        result["euler_table"] = euler_lie_table(result["hall_table"])
        _PIPELINES[name] = result
    return _PIPELINES[name]


def report(n: int, elapsed: float, detail: str) -> None:
    print(f"criterion {n}: PASS ({elapsed:.2f}s) - {detail}")


def test_criterion_1_a2_pipeline():
    t0 = time.monotonic()
    data = pipeline("a2")
    ar = data["family"].reference_quiver()
    assert len(ar.vertices) == 3
    assert {tuple(v.rep.dims) for v in ar.vertices} == {(1, 0), (0, 1), (1, 1)}
    kt, lt = data["hall_table"], data["euler_table"]
    nonzero = [(pair, entry) for pair, entry in kt.entries.items() if entry]
    assert len(nonzero) == 1
    assert nonzero[0][1][1] in (1, -1)
    assert verify_isomorphism(kt, lt).ok
    assert jacobi_check(kt).ok and jacobi_check(lt).ok
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, elapsed, "A2: 3 indecomposables, one bracket pair, sign twist "
                       "and Jacobi exact")


def test_criterion_2_a3_pipeline():
    t0 = time.monotonic()
    data = pipeline("a3")
    ar = data["family"].reference_quiver()
    assert len(ar.vertices) == 6
    rs = positive_roots(data["spec"].cartan_matrix())
    assert len(rs.positive_roots) == 6
    cmp_report = compare_with_root_system(data["hall_table"], rs)
    assert cmp_report.ok, cmp_report.failures()
    jac = jacobi_check(data["hall_table"])
    assert jac.ok and len(jac.checks) == 20
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(2, elapsed, "A3: 6 indecomposables matched to 6 positive roots, "
                       "Jacobi exact on all 20 triples")


def test_criterion_3_d4_pipeline():
    t0 = time.monotonic()
    data = pipeline("d4")
    ar = data["family"].reference_quiver()
    assert len(ar.vertices) == 12
    rs = positive_roots(data["spec"].cartan_matrix())
    assert len(rs.positive_roots) == 12
    cmp_report = compare_with_root_system(data["hall_table"], rs)
    assert cmp_report.ok, cmp_report.failures()
    iso = verify_isomorphism(data["hall_table"], data["euler_table"])
    assert iso.ok and len(iso.checks) == 66  # every unordered pair
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(3, elapsed, "D4: 12 indecomposables vs reflection closure, sign "
                       "twist exact on all 66 pairs")


def test_criterion_4_bound_a3_pipeline():
    t0 = time.monotonic()
    data = pipeline("a3_bound")
    ar = data["family"].reference_quiver()
    assert len(ar.vertices) == 5
    assert {tuple(v.rep.dims) for v in ar.vertices} == \
        {(0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 0), (1, 0, 0)}
    fi = check_field_independence(data["spec"], [2, 3, 5])
    assert fi.vertex_count == 5
    assert verify_isomorphism(data["hall_table"], data["euler_table"]).ok
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(4, elapsed, "bound A3: 5 indecomposables, identical over primes "
                       "{2,3,5}, sign twist exact")


def brute_force_line_count(p: int) -> int:
    # oracle: lines of F_p^2 counted as normalized nonzero vectors
    seen = set()
    for x in range(p):
        for y in range(p):
            if x == y == 0:
                continue
            lead = PrimeField(p).inv(x if x else y)
            seen.add(((x * lead) % p, (y * lead) % p))
    return len(seen)


def test_criterion_5_projective_line_polynomial():
    t0 = time.monotonic()
    family = pipeline("a2")["family"]
    s1 = MultiplicityVector.unit("1-0")
    poly = family.polynomial(s1, s1, MultiplicityVector({"1-0": 2}))
    assert poly.coefficients == (1, 1)  # T + 1
    observed = dict(zip(poly.primes + (poly.validation_prime,),
                        poly.counts + (poly.validation_count,)))
    assert observed == {2: 3, 3: 4, 5: 6}
    for p, count in observed.items():
        assert count == brute_force_line_count(p)
    assert poly.evaluate(1) == 2  # Euler characteristic of the projective line
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(5, elapsed, "phi = T + 1 with counts {3,4,6} at p in {2,3,5}; "
                       "phi(1) = 2")


def test_criterion_6_oracle_equivalence():
    t0 = time.monotonic()
    details = []
    for name in ("a2", "a3_bound"):
        spec = load_algebra(hallie.example_algebra_path(name))
        rep = check_oracle_equivalence(spec, (2, 3), max_total_dim=5)
        assert rep.ok, rep.mismatches
        assert rep.compared > 0
        details.append(f"{name}: {rep.compared} triples agree "
                       f"({rep.skipped} beyond the hom-oracle bound)")
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(6, elapsed, "; ".join(details))


def test_criterion_7_interpolation_robustness():
    t0 = time.monotonic()
    checked = 0
    for name in ("a2", "a3", "d4", "a3_bound"):
        family = pipeline(name)["family"]
        for poly in family.known_polynomials():
            if poly.validation_prime is None:
                continue  # triple was settled without counting
            assert poly.evaluate(poly.validation_prime) == poly.validation_count
            for p, count in zip(poly.primes, poly.counts):
                assert poly.evaluate(p) == count
            checked += 1
    assert checked > 0
    elapsed = time.monotonic() - t0
    report(7, elapsed, f"{checked} interpolated polynomials reproduce their "
                       "held-out prime exactly")


def test_criterion_8_lie_closure_and_grading():
    t0 = time.monotonic()
    names = hallie.example_algebra_names()
    entries = 0
    for name in names:
        data = pipeline(name)  # construction itself enforces closure
        for table in (data["hall_table"], data["euler_table"]):
            for (i, j), entry in table.entries.items():
                if entry is None:
                    continue
                target, _ = entry
                want = tuple(a + b for a, b in zip(table.dims[i], table.dims[j]))
                assert tuple(table.dims[target]) == want, (name, i, j)
                entries += 1
    elapsed = time.monotonic() - t0
    report(8, elapsed, f"{len(names)} algebras: all {entries} nonzero "
                       "commutators land on one indecomposable at the summed "
                       "dimension vector")


def test_criterion_9_hall_product_associativity():
    t0 = time.monotonic()
    family = pipeline("a2")["family"]
    ar = family.reference_quiver()
    classes = []
    for d1 in range(5):
        for d2 in range(5):
            if 0 < d1 + d2 <= 4:
                classes.extend(enumerate_module_classes(ar, (d1, d2)))
    total_dim = {mv: sum(ar.class_dim_vector(mv)) for mv in classes}
    triples = 0
    for x, y, z in itertools.product(classes, repeat=3):
        if total_dim[x] + total_dim[y] + total_dim[z] > 4:
            continue
        gx, gy, gz = (GradedVector([(mv, 1)]) for mv in (x, y, z))
        left = graded_multiply(family, graded_multiply(family, gx, gy), gz)
        right = graded_multiply(family, gx, graded_multiply(family, gy, gz))
        assert left == right, (x, y, z)
        triples += 1
    assert triples > 0
    elapsed = time.monotonic() - t0
    report(9, elapsed, f"degenerate Hall product associative on all {triples} "
                       "class triples of total dimension <= 4")
