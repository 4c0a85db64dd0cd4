import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallie import hall, linalg, reps
from hallie.algebra import parse_algebra
from hallie.errors import (ExtDimensionMismatch, FieldDependenceDetected,
                           InconsistentCounts, NegativeMultiplicity,
                           NonIntegralCoefficients, NonIntegralOrbitCount,
                           NotClosed, ResourceBound)
from hallie.hall import (ARFamily, HallConfig, check_oracle_equivalence,
                         closed_subspace_tuples, first_primes, hall_number_grass,
                         hall_number_hom, hall_numbers_ext, hall_numbers_grass,
                         hall_numbers_hom, lagrange_interpolate)
from hallie.knit import ARQuiver, ARVertex, knit
from hallie.linalg import enumerate_subspaces, scalar_orbits
from hallie.liealg import hall_lie_table
from hallie.reps import (ExtSpace, MultiplicityVector, Representation, SubspaceTuple,
                         direct_sum, hom_dim, identify, matches_class,
                         quotient_by_subtuple, restrict_to_subtuple, simple_rep,
                         sub_quotient)


S1, S2, P1 = (MultiplicityVector.unit(vid) for vid in ("1-0", "0-1", "1-1"))

# D4 with the arrows 2 -> 1, 3 -> 2 and 4 -> 2 (every edge of 1-2, 2-3, 2-4
# reversed): 12 indecomposables, one of dimension vector 1-2-1-1.
D4_111 = """{"vertices": ["1", "2", "3", "4"],
 "arrows": [{"id": "a1", "from": "2", "to": "1"},
            {"id": "a2", "from": "3", "to": "2"},
            {"id": "a3", "from": "4", "to": "2"}],
 "relations": []}"""


@pytest.fixture(scope="module")
def a2_setup(algebras):
    spec = algebras["a2"]
    return spec, {p: knit(spec, p) for p in (2, 3, 5)}


def a2_modules(spec, ar, p):
    s1 = simple_rep(spec, "1", p)
    s2 = simple_rep(spec, "2", p)
    p1 = ar.vertex("1-1").rep
    return s1, s2, p1


class TestFirstPrimes:
    def test_basic(self):
        assert first_primes(4) == [2, 3, 5, 7]

    def test_excluded(self):
        assert first_primes(3, excluded=(2, 5)) == [3, 7, 11]


class TestCounting:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_unique_submodule(self, a2_setup, p):
        spec, ars = a2_setup
        ar = ars[p]
        s1, s2, p1 = a2_modules(spec, ar, p)
        assert hall_number_grass(ar, s2, s1, p1) == 1
        assert hall_number_hom(ar, s2, s1, p1) == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_wrong_direction_is_empty(self, a2_setup, p):
        spec, ars = a2_setup
        ar = ars[p]
        s1, s2, p1 = a2_modules(spec, ar, p)
        assert hall_number_grass(ar, s1, s2, p1) == 0
        assert hall_number_hom(ar, s1, s2, p1) == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_projective_line_count(self, a2_setup, p):
        spec, ars = a2_setup
        ar = ars[p]
        s1 = simple_rep(spec, "1", p)
        square = direct_sum(spec, s1.field, [s1, s1])
        assert hall_number_grass(ar, s1, s1, square) == p + 1
        assert hall_number_hom(ar, s1, s1, square) == p + 1

    def test_dimension_mismatch_gives_zero(self, a2_setup):
        spec, ars = a2_setup
        ar = ars[2]
        s1, s2, p1 = a2_modules(spec, ar, 2)
        assert hall_number_grass(ar, s1, s1, p1) == 0
        assert hall_number_hom(ar, s1, s1, p1) == 0

    def test_zero_submodule_class(self, a2_setup):
        spec, ars = a2_setup
        ar = ars[3]
        s1, s2, p1 = a2_modules(spec, ar, 3)
        z = direct_sum(spec, p1.field, [])
        assert hall_number_grass(ar, z, p1, p1) == 1
        assert hall_number_hom(ar, z, p1, p1) == 1
        assert hall_number_grass(ar, p1, z, p1) == 1


class TestClosedTuples:
    def test_count_bounds_hall_number(self, a2_setup):
        # every counted submodule is in particular a stable tuple
        spec, ars = a2_setup
        ar = ars[2]
        s1, s2, p1 = a2_modules(spec, ar, 2)
        m = direct_sum(spec, p1.field, [p1, s2])
        for e1 in range(m.dims[0] + 1):
            for e2 in range(m.dims[1] + 1):
                tuples = [t for t in closed_subspace_tuples(m) if t.dims == (e1, e2)]
                total = 0
                for n1_parts in _classes_of_dim(spec, ar, (e1, e2), 2):
                    n2_dims = (m.dims[0] - e1, m.dims[1] - e2)
                    for n2_parts in _classes_of_dim(spec, ar, n2_dims, 2):
                        total += hall_number_grass(ar, n1_parts, n2_parts, m)
                assert total <= len(tuples)

    def test_tuples_are_stable(self, a2_setup):
        spec, ars = a2_setup
        ar = ars[3]
        p1 = ar.vertex("1-1").rep
        m = direct_sum(spec, p1.field, [p1, p1])
        for tup in closed_subspace_tuples(m):
            sub_quotient(m, tup)  # raises NotClosed if enumeration lied


def _classes_of_dim(spec, ar, dims, p):
    """All modules of the given dimension vector, as explicit direct sums."""
    from hallie.liealg import enumerate_module_classes
    for mv in enumerate_module_classes(ar, dims):
        yield ar.class_module(mv)


class TestOracleAgreement:
    @pytest.mark.parametrize("p", [2, 3])
    def test_a2_exhaustive_small(self, a2_setup, p):
        # every class triple with ambient total dimension <= 3
        spec, ars = a2_setup
        ar = ars[p]
        from hallie.liealg import enumerate_module_classes
        dim_vectors = [(d1, d2) for d1 in range(4) for d2 in range(4)
                       if 0 < d1 + d2 <= 3]
        for d in dim_vectors:
            for b in enumerate_module_classes(ar, d):
                m = ar.class_module(b)
                for e in itertools.product(*(range(x + 1) for x in d)):
                    rest = tuple(x - y for x, y in zip(d, e))
                    for a_mv in enumerate_module_classes(ar, e):
                        for c_mv in enumerate_module_classes(ar, rest):
                            n1 = ar.class_module(a_mv)
                            n2 = ar.class_module(c_mv)
                            grass = hall_number_grass(ar, n1, n2, m)
                            hom = hall_number_hom(ar, n1, n2, m)
                            assert grass == hom, (a_mv, c_mv, b, p)


def _count_on_all_coordinates(ar, n1, n2, m, tuples):
    """The subspace route with every sub and quotient built and classified
    on all knitted vertices: the reference for the Hom-basis classification
    on distinguishing sets.  ``tuples`` are the closed subspace tuples of m
    of n1's shape.  A zero Hom space settles a count before any
    classification, on both sides."""
    if hom_dim(n1, m) == 0 or hom_dim(m, n2) == 0:
        return 0
    want_sub = list(enumerate(ar.hom_vectors(identify(n1, ar))[0]))
    want_quot = list(enumerate(ar.hom_vectors(identify(n2, ar))[0]))
    count = 0
    for tup in tuples:
        sub, _ = restrict_to_subtuple(m, tup)
        if matches_class(sub, ar, want_sub):
            quot, _ = quotient_by_subtuple(m, tup)
            count += matches_class(quot, ar, want_quot)
    return count


@pytest.fixture(scope="module")
def bracket_grass(algebras):
    """Per (algebra name, p): a knitted quiver, and the entry of a bracket
    triple (sub x, quotient y, ambient class b) in the ``hall_numbers_grass``
    rows of the class module of b.  Each b is walked once, and the walk is
    shared by the tests that compare bracket triples with the grass route."""
    quivers = {}

    def get(name, p):
        if (name, p) not in quivers:
            ar, walks = knit(algebras[name], p), {}

            def entry(x, y, b):
                if b not in walks:
                    walks[b] = hall_numbers_grass(ar, ar.class_module(b))
                pair = (MultiplicityVector.unit(x.id), MultiplicityVector.unit(y.id))
                return walks[b].get(x.rep.dims, {}).get(pair, 0)
            quivers[(name, p)] = ar, entry
        return quivers[(name, p)]
    return get


class TestSeparatingSets:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["a3", "a3_bound", "csquare", "d4"])
    def test_bracket_triples_match_full_classification(self, bracket_grass, name, p):
        """Every triple of a bracket [x, y] (sub x, quotient y, any class b
        of the summed dimension vector) counted by the rows of
        ``hall_numbers_grass`` on distinguishing sets and by
        ``matches_class`` over all coordinates."""
        ar, grass = bracket_grass(name, p)
        pairs = {}
        for x, y in itertools.permutations(ar.vertices, 2):
            d = tuple(i + j for i, j in zip(x.rep.dims, y.rep.dims))
            pairs.setdefault(d, []).append((x, y))
        nonzero = 0
        for d, group in pairs.items():
            for b in ar.module_classes(d):
                m = ar.class_module(b)
                shapes = {}
                for tup in closed_subspace_tuples(m):
                    shapes.setdefault(tup.dims, []).append(tup)
                for x, y in group:
                    want = _count_on_all_coordinates(ar, x.rep, y.rep, m,
                                                     shapes.get(x.rep.dims, []))
                    assert grass(x, y, b) == want, (x.id, y.id, b.render())
                    nonzero += want != 0
        assert nonzero > 0


def _groups(ar, max_total_dim):
    """(b, e, sub classes, quotient classes) over every class b of total
    dimension at most ``max_total_dim`` and every shape e below it."""
    for d in itertools.product(range(max_total_dim + 1), repeat=len(ar.spec.vertices)):
        if not 0 < sum(d) <= max_total_dim:
            continue
        for b in ar.module_classes(d):
            for e in itertools.product(*(range(x + 1) for x in d)):
                rest = tuple(x - y for x, y in zip(d, e))
                yield b, e, ar.module_classes(e), ar.module_classes(rest)


class TestRows:
    """The grass and hom routes answer a whole row at once; the per-triple
    functions look their entry up in it."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["a2", "a3_bound", "csquare"])
    def test_grass_row_is_the_triples(self, algebras, name, p):
        """Each row holds the nonzero per-triple counts over its classes,
        and its counts sum to the number of tuples of shape e."""
        ar = knit(algebras[name], p)
        module = ar.class_module
        walks = {}
        for b, e, subs, quots in _groups(ar, 3):
            m = module(b)
            if b not in walks:
                walks[b] = (hall_numbers_grass(ar, m),
                            Counter(t.dims for t in closed_subspace_tuples(m)))
            rows, shapes = walks[b]
            row = rows.get(e, {})
            assert sum(row.values()) == shapes[e]
            triples = {(a, c): hall_number_grass(ar, module(a), module(c), m)
                       for a in subs for c in quots}
            assert row == {k: n for k, n in triples.items() if n}, (b.render(), e)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["a2", "a3_bound", "csquare"])
    def test_hom_row_is_the_triples(self, algebras, name, p):
        ar = knit(algebras[name], p)
        module = ar.class_module
        for b, e, subs, quots in _groups(ar, 3):
            m = module(b)
            for a in subs:
                row = hall_numbers_hom(ar, a, m)
                triples = {c: hall_number_hom(ar, module(a), module(c), m)
                           for c in quots}
                assert row == {c: n for c, n in triples.items() if n}, \
                    (a.render(), b.render())

    def test_partly_skipped_group_keeps_the_report(self, algebras, monkeypatch):
        """A hom bound of 4 skips some but not all sub classes a of a group
        (b, e) at p = 2; the report is the one the per-triple sweep gave."""
        spec = algebras["a3_bound"]
        ar = knit(spec, 2)
        mixed = 0
        for b, e, subs, _ in _groups(ar, 3):
            m = ar.class_module(b)
            over = [2 ** sum(n * hom_dim(ar.vertex(x).rep, m) for x, n in a.items()) > 4
                    for a in subs]
            mixed += any(over) and not all(over)
        assert mixed > 0
        monkeypatch.setattr(reps, "HOM_WALK_BOUND", 4)
        rep = check_oracle_equivalence(spec, (2, 3), 3)
        assert (rep.compared, rep.nonzero, rep.skipped, rep.mismatches) == \
            (258, 149, 132, [])


def _class_modules(ar, max_total_dim):
    """Every class module of total dimension at most ``max_total_dim``."""
    for d in itertools.product(range(max_total_dim + 1), repeat=len(ar.spec.vertices)):
        if 0 < sum(d) <= max_total_dim:
            for b in ar.module_classes(d):
                yield b, ar.class_module(b)


class TestOneWalkPerAmbient:
    """The subspace route walks every shape of an ambient module at once
    and answers the rows of every shape from that walk."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["a2", "a3", "a3_bound", "csquare", "d4"])
    def test_every_shape_walk_is_the_union(self, algebras, name, p):
        """``closed_subspace_tuples(m)`` yields, each once, the union over
        the shapes e of the arrow-stable tuples of shape e: those of the
        products of ``enumerate_subspaces`` that ``restrict_to_subtuple``
        accepts."""
        ar = knit(algebras[name], p)
        for b, m in _class_modules(ar, 4):
            walked = [tup.key() for tup in closed_subspace_tuples(m)]
            stable = []
            for e in itertools.product(*(range(x + 1) for x in m.dims)):
                for bases in itertools.product(*(
                        enumerate_subspaces(d, k, m.field) for d, k in zip(m.dims, e))):
                    tup = SubspaceTuple(m, bases)
                    try:
                        restrict_to_subtuple(m, tup)
                    except NotClosed:
                        continue
                    stable.append(tup.key())
            assert len(set(walked)) == len(walked), b.render()
            assert sorted(walked) == sorted(stable), b.render()

    def test_cap_bounds_the_whole_walk(self, algebras, monkeypatch):
        ar = knit(algebras["a3"], 2)
        m = ar.class_module(ar.module_classes((1, 2, 1))[0])
        shapes = Counter(tup.dims for tup in closed_subspace_tuples(m))
        total = sum(shapes.values())
        assert max(shapes.values()) < total
        monkeypatch.setattr(linalg, "SUBSPACE_CAP", total - 1)
        with pytest.raises(ResourceBound):
            list(closed_subspace_tuples(m))
        with pytest.raises(ResourceBound):
            hall_numbers_grass(ar, m)
        monkeypatch.setattr(linalg, "SUBSPACE_CAP", total)
        assert sum(hall_numbers_grass(ar, m)[(0, 1, 1)].values()) == shapes[(0, 1, 1)] == 3

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["a2", "a3_bound", "csquare"])
    def test_memo_rows_match_a_fresh_quiver(self, algebras, name, p):
        """Rows walked module after module on one quiver, which keeps the
        Hom bases of each, equal those of a quiver knitted fresh for each
        ambient class; the rows are the caller's, their counts sum to the
        number of tuples, and ``forget`` drops the module's frame."""
        spec = algebras[name]
        ar = knit(spec, p)
        for b, m in _class_modules(ar, 3):
            fresh = knit(spec, p)
            rows = hall_numbers_grass(ar, m)
            assert rows == hall_numbers_grass(fresh, fresh.class_module(b)), b.render()
            assert sum(n for row in rows.values() for n in row.values()) \
                == len(list(closed_subspace_tuples(m)))
            rows.clear()
            assert hall_numbers_grass(ar, m) == hall_numbers_grass(
                fresh, fresh.class_module(b))
            frame = ar.hom_frame(m)
            ar.forget(m)
            assert ar.hom_frame(m) is not frame


class TestFamilyQuivers:
    def test_field_dependent_quiver_is_never_served(self, algebras, monkeypatch):
        """A quiver whose vertex ids differ from the reference knit (a3
        knitted in place of a2 at p = 3) is rejected on every call, not
        only on the first."""
        fam = ARFamily(algebras["a2"])
        fam.quiver(2)
        real = hall.knit
        monkeypatch.setattr(hall, "knit",
                            lambda spec, p, config: real(algebras["a3"], p, config))
        for _ in range(2):
            with pytest.raises(FieldDependenceDetected):
                fam.quiver(3)

    @pytest.mark.parametrize("name", ["a2", "a3", "a3_bound", "a3_sink", "csquare",
                                      "d4", "point", "D4_111"])
    def test_shared_memos_match_fresh_knits(self, algebras, name):
        """Every class list, Hom vector pair and distinguishing set the
        quivers of one family share, filled by a Lie table over primes 2, 3
        and 5, is what a quiver knitted afresh at p = 2, 3, 5 or 7 computes
        itself."""
        spec = algebras[name] if name in algebras else parse_algebra(D4_111)
        fam = ARFamily(spec)
        hall_lie_table(fam)
        first = fam.quiver(2)
        assert first._distinguishing or name == "point"  # one vertex, no pairs
        for p in (2, 3, 5, 7):
            shared = fam.quiver(p)
            assert shared._classes is first._classes
            assert shared._hom_vectors is first._hom_vectors
            assert shared._distinguishing is first._distinguishing
            fresh = knit(spec, p)
            for (d, bounds), classes in first._classes.items():
                assert fresh.module_classes(d, bounds) == classes, (p, d, bounds)
            for mv, vectors in first._hom_vectors.items():
                assert fresh.hom_vectors(mv) == vectors, (p, mv)
            for (d, outof, bounds), found in first._distinguishing.items():
                assert fresh.distinguishing_set(d, outof, bounds) == found, (p, d)

    def test_quiver_with_another_order_or_hom_matrix_is_rejected(
            self, algebras, monkeypatch):
        """Memos are shared only after the knitted order and the Hom matrix
        are checked against the first quiver.  At p = 3 one Hom-matrix entry
        is changed; at p = 5 the knitted order is permuted by the symmetry
        of d4 that swaps the legs 1 and 2, which keeps the Hom matrix, so
        only the order tells it apart.  Both are rejected on every call,
        and a quiver that agrees is still served."""
        spec = algebras["d4"]
        fam = ARFamily(spec)
        fam.quiver(2)
        real = hall.knit

        def doctored(spec, p, config):
            ar = real(spec, p, config)
            if p == 3:
                ar.hom_matrix()[0][-1] += 1
            elif p == 5:
                def swapped(vid):
                    d = vid.split("-")
                    return "-".join([d[1], d[0]] + d[2:])

                permuted = [ar.vertex(swapped(vid)) for vid in ar.order]
                ar = ARQuiver(spec, ar.field,
                              [ARVertex(v.id, i, v.rep, v.projective)
                               for i, v in enumerate(permuted)],
                              ar.arrows, ar.tau, ar.meshes)
                assert ar.order != fam.quiver(2).order
                assert ar.hom_matrix() == fam.quiver(2).hom_matrix()
            return ar

        monkeypatch.setattr(hall, "knit", doctored)
        for p in (3, 5):
            for _ in range(2):
                with pytest.raises(FieldDependenceDetected):
                    fam.quiver(p)
        assert fam.quiver(7)._classes is fam.quiver(2)._classes


def _lagrange_fractions(nodes, values):
    """Lagrange interpolation over ``Fraction``s, one basis polynomial at a
    time: the reference for ``lagrange_interpolate``."""
    coeffs = [Fraction(0)] * len(nodes)
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        num, den = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(nodes):
            if j != i:
                num = [Fraction(0)] + num
                for k in range(len(num) - 1):
                    num[k] -= xj * num[k + 1]
                den *= xi - xj
        for k, c in enumerate(num):
            coeffs[k] += Fraction(yi) / den * c
    return coeffs


class TestInterpolation:
    def test_lagrange_exact(self):
        # nodes (2,3,5), values of 2t^2 - t + 3
        coeffs = lagrange_interpolate([2, 3, 5], [9, 18, 48])
        assert coeffs == [3, -1, 2]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-40, 40), max_size=7, unique=True).flatmap(
        lambda nodes: st.tuples(st.just(nodes), st.lists(
            st.integers(-10**6, 10**6), min_size=len(nodes), max_size=len(nodes)))))
    def test_lagrange_matches_fraction_reference(self, data):
        """The integer route with one common denominator against the
        Fraction route it replaced; random values mostly give non-integral
        coefficients, which must come out the same."""
        nodes, values = data
        assert lagrange_interpolate(nodes, values) == _lagrange_fractions(nodes, values)

    def test_lagrange_non_integral_coefficients(self):
        """t ↦ [t = 5] on the nodes 2, 3, 5 is (t − 2)(t − 3)/6."""
        assert lagrange_interpolate([2, 3, 5], [0, 0, 1]) == [
            Fraction(1), Fraction(-5, 6), Fraction(1, 6)]

    def test_projective_line_polynomial(self, families):
        fam = families["a2"]
        s1 = MultiplicityVector.unit("1-0")
        b = MultiplicityVector({"1-0": 2})
        poly = fam.polynomial(s1, s1, b)
        assert poly.coefficients == (1, 1)
        assert poly.primes == (2, 3)
        assert poly.counts == (3, 4)
        assert poly.validation_prime == 5
        assert poly.validation_count == 6
        assert poly.evaluate(1) == 2

    def test_constant_polynomial(self, families):
        fam = families["a2"]
        poly = fam.polynomial(MultiplicityVector.unit("0-1"),
                              MultiplicityVector.unit("1-0"),
                              MultiplicityVector.unit("1-1"))
        assert poly.coefficients == (1,)

    def test_dim_law_violation_gives_zero_poly(self, families):
        fam = families["a2"]
        poly = fam.polynomial(MultiplicityVector.unit("1-0"),
                              MultiplicityVector.unit("1-0"),
                              MultiplicityVector.unit("1-1"))
        assert poly.is_zero()

    def test_polynomial_reproduces_every_observed_count(self, families):
        fam = families["a2"]
        s1 = MultiplicityVector.unit("1-0")
        b = MultiplicityVector({"1-0": 2})
        poly = fam.polynomial(s1, s1, b)
        for p, count in zip(poly.primes, poly.counts):
            assert poly.evaluate(p) == count
        assert poly.evaluate(poly.validation_prime) == poly.validation_count

    def test_excluded_primes_shift_nodes(self, algebras):
        fam = ARFamily(algebras["a2"], HallConfig(excluded_primes=(2,)))
        s1 = MultiplicityVector.unit("1-0")
        b = MultiplicityVector({"1-0": 2})
        poly = fam.polynomial(s1, s1, b)
        assert poly.primes == (3, 5)
        assert poly.validation_prime == 7
        assert poly.coefficients == (1, 1)
        assert poly.counts == (4, 6)

    def test_euler_characteristic(self, families):
        fam = families["a2"]
        assert fam.euler(MultiplicityVector.unit("0-1"),
                         MultiplicityVector.unit("1-0"),
                         MultiplicityVector.unit("1-1")) == 1
        assert fam.euler(MultiplicityVector.unit("1-0"),
                         MultiplicityVector.unit("1-0"),
                         MultiplicityVector({"1-0": 2})) == 2
        # mismatched dimension vectors
        assert fam.euler(MultiplicityVector.unit("1-0"),
                         MultiplicityVector.unit("1-0"),
                         MultiplicityVector.unit("1-1")) == 0


class TestBadPrimeProtocol:
    def _corrupt(self, fam, corruptions):
        real = fam.count

        def corrupted(a, c, b, p):
            return real(a, c, b, p) + corruptions.get(p, 0)
        fam.count = corrupted

    def test_retry_excludes_smallest_prime(self, algebras):
        from hallie.hall import ARFamily
        fam = ARFamily(algebras["a2"])
        self._corrupt(fam, {2: 1})  # make 2 look like a bad prime
        s1 = MultiplicityVector.unit("1-0")
        poly = fam.polynomial(s1, s1, MultiplicityVector({"1-0": 2}))
        assert poly.excluded_primes == (2,)
        assert poly.primes == (3, 5)
        assert poly.validation_prime == 7
        assert poly.coefficients == (1, 1)

    def test_non_integral_coefficients_raise(self, algebras):
        """F = q² + q + 1 for S1 in S1³ with quotient S1² has degree bound
        2, so it is interpolated on 2, 3, 5; one more at 5 adds
        (t − 2)(t − 3)/6."""
        fam = ARFamily(algebras["a2"])
        self._corrupt(fam, {5: 1})
        s1 = MultiplicityVector.unit("1-0")
        with pytest.raises(NonIntegralCoefficients):
            fam.polynomial(s1, MultiplicityVector({"1-0": 2}),
                           MultiplicityVector({"1-0": 3}))

    def test_persistent_disagreement_fails(self, algebras):
        from hallie.errors import InconsistentCounts
        from hallie.hall import ARFamily
        fam = ARFamily(algebras["a2"])
        self._corrupt(fam, {5: 2})  # corrupt the first validation prime
        s1 = MultiplicityVector.unit("1-0")
        with pytest.raises(InconsistentCounts):
            fam.polynomial(s1, s1, MultiplicityVector({"1-0": 2}))


class TestOracleEquivalenceReport:
    def test_small_report(self, algebras):
        from hallie.hall import check_oracle_equivalence
        rep = check_oracle_equivalence(algebras["a2"], (2,), max_total_dim=2)
        assert rep.ok
        assert rep.compared > 0 and rep.skipped == 0

    def test_zero_total_dimension_is_empty(self, algebras):
        from hallie.hall import check_oracle_equivalence
        rep = check_oracle_equivalence(algebras["a2"], (2,), max_total_dim=0)
        assert rep.ok
        assert rep.compared == rep.nonzero == rep.skipped == 0

    @pytest.mark.parametrize("jobs", [2, 0])
    def test_jobs_other_than_one_raise(self, algebras, jobs):
        from hallie.hall import check_oracle_equivalence
        with pytest.raises(ValueError, match="jobs"):
            check_oracle_equivalence(algebras["a2"], (2,), 2, jobs=jobs)

    @pytest.mark.parametrize("sub,quot,total", [
        (S2, S1, P1), (S1, S1, S1 + S1), (S1 + S1, S1, S1 + S1 + S1),
        (S1, S1 + S1, S1 + S1 + S1)])
    def test_images_reached_by_other_than_aut_maps_raise(self, algebras, sub, quot,
                                                         total):
        """Every image of an injective map is reached by exactly |Aut n1|
        maps, the closed form ``class_aut_order``; with it doctored to
        twice its value on the sub class the hom route must raise.  On
        S1 ⊂ S1 + S1 at p = 3 the doctored total 4·2 would still divide by
        2·2.  S1² ⊂ S1³ walks a block of multiplicity 2, one map per orbit
        of GL_2(F_3)."""
        ar = knit(algebras["a2"], 3)
        n1, n2, m = (ar.class_module(mv) for mv in (sub, quot, total))
        assert hall_number_hom(ar, n1, n2, m) > 0
        real = ar.class_aut_order
        ar.class_aut_order = lambda mv: real(mv) * (2 if mv == sub else 1)
        with pytest.raises(NonIntegralOrbitCount):
            hall_number_hom(ar, n1, n2, m)

    def test_sub_class_with_a_large_endomorphism_ring_is_walked(self, algebras):
        """S2³ ⊕ S1² has p^{dim End} = 3^13 > 10^6 at p = 3, but
        p^{dim Hom} = 3^9 into S2 ⊕ P1²; the hom route reads |Aut| in closed
        form and walks it.  S1 does not embed in S2 ⊕ P1², so the row is
        empty, as the subspace route's entry is."""
        ar = knit(algebras["a2"], 3)
        a = MultiplicityVector({"0-1": 3, "1-0": 2})
        b = MultiplicityVector({"0-1": 1, "1-1": 2})
        m = ar.class_module(b)
        into = ar.hom_vectors(a)[0]
        assert 3 ** sum(n * into[ar.order.index(x)] for x, n in a.items()) > 10 ** 6
        assert hall_numbers_hom(ar, a, m) == {}
        assert hall_numbers_grass(ar, m).get((2, 3), {}).get(
            (a, MultiplicityVector.zero()), 0) == 0


class TestHomSubClass:
    """The hom route walks the summands X^n of the sub class, read off the
    multiplicity vector, not off the module it is handed."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_class_module_and_equal_module_agree(self, algebras, monkeypatch, p):
        """``hall_number_hom`` handed the class module of each sub class
        and handed an equal module built apart give the same counts and
        the same skips, on every triple of a2 up to total dimension 4,
        some with a summand of multiplicity above 1: the route keys the
        sub by its class (``identify``), never by the object."""
        ar = knit(algebras["a2"], p)
        monkeypatch.setattr(reps, "HOM_WALK_BOUND", 3 ** 7)
        pairs = []
        for d in itertools.product(range(5), repeat=2):
            if not 0 < sum(d) <= 4:
                continue
            for b in ar.module_classes(d):
                for e in itertools.product(*(range(x + 1) for x in d)):
                    rest = tuple(x - y for x, y in zip(d, e))
                    pairs.extend((a_mv, c_mv, b) for a_mv in ar.module_classes(e)
                                 for c_mv in ar.module_classes(rest))
        bare = {}

        def stripped(mv):
            if mv not in bare:
                m = ar.class_module(mv)
                bare[mv] = Representation(m.spec, m.field, m.dims, m.maps)
            return bare[mv]

        def counts(sub):
            out = []
            for a_mv, c_mv, b in pairs:
                try:
                    out.append(hall_number_hom(ar, sub(a_mv), ar.class_module(c_mv),
                                               ar.class_module(b)))
                except ResourceBound:
                    out.append(None)
            return out

        by_class = counts(ar.class_module)
        assert counts(stripped) == by_class
        assert sum(n is not None for n in by_class) > 100
        assert any(n > 1 for (a_mv, _, _), count in zip(pairs, by_class)
                   if count for _, n in a_mv.items())


class TestStrategyConfig:
    """The Ext route ARFamily counts with against the grass route and the
    hom oracle."""

    def test_hom_strategy_matches_grass(self, families):
        fam = families["a3_bound"]
        s3, s2, p2 = (MultiplicityVector.unit(vid)
                      for vid in ("0-0-1", "0-1-0", "0-1-1"))
        ar = fam.quiver(3)
        n1, n2, m = (ar.class_module(mv) for mv in (s3, s2, p2))
        assert hall_number_grass(ar, n1, n2, m) == 1
        assert hall_number_hom(ar, n1, n2, m) == 1
        assert fam.count(s3, s2, p2, 3) == 1


class TestDegreeBound:
    """The tight bound min(Σ e(d−e), hom(a,b) − end(a), hom(b,c) − end(c))
    against the Grassmannian bound Σ e(d−e) it replaced."""

    @pytest.mark.parametrize("name", ["a3", "a3_bound", "csquare"])
    def test_tight_bound_matches_grassmannian_route(self, families, name):
        fam = families[name]
        hall_lie_table(fam)
        interpolated = 0
        for poly in fam.known_polynomials():
            e = fam.class_dims(poly.sub_class)
            d = fam.class_dims(poly.total_class)
            grass_bound = sum(ex * (dx - ex) for ex, dx in zip(e, d))
            assert poly.degree_bound <= grass_bound
            if not poly.primes:
                continue  # settled by the dimension law or the Hom shortcut
            interpolated += 1
            primes = first_primes(grass_bound + 2, poly.excluded_primes)
            counts = [fam.count(poly.sub_class, poly.quot_class,
                                poly.total_class, p) for p in primes]
            coeffs = [int(c) for c in lagrange_interpolate(primes, counts)]
            while len(coeffs) > 1 and coeffs[-1] == 0:
                coeffs.pop()
            assert tuple(coeffs) == poly.coefficients
            if not poly.is_zero():
                assert len(poly.coefficients) - 1 == poly.degree_bound
        assert interpolated > 0

    def test_count_above_free_orbit_bound_raises(self, algebras, monkeypatch):
        """Every count of one triple inflated by 10 still fits a line, so
        the held-out prime agrees; only the free action of F_p^* on the
        injections S1 -> S1^2 (at most (p^2 - 1)/(p - 1) of them up to
        scalars) rules the counts out."""
        real = hall.hall_numbers_ext
        monkeypatch.setattr(hall, "hall_numbers_ext", lambda *args: {
            b: value + 10 for b, value in real(*args).items()})
        fam = ARFamily(algebras["a2"])
        s1 = MultiplicityVector.unit("1-0")
        with pytest.raises(InconsistentCounts, match="exceeds"):
            fam.polynomial(s1, s1, MultiplicityVector({"1-0": 2}))


class TestExtRoute:
    """Riedtmann's formula over one walk of Ext¹(c, a) against the grass
    route, and the run-time checks that guard it."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["a3", "a3_bound", "csquare", "d4"])
    def test_bracket_triples_match_grass(self, bracket_grass, name, p):
        """Every triple of a bracket [x, y]: sub x, quotient y and every
        class b of the summed dimension vector."""
        ar, grass = bracket_grass(name, p)
        nonzero = 0
        for x, y in itertools.permutations(ar.vertices, 2):
            a, c = MultiplicityVector.unit(x.id), MultiplicityVector.unit(y.id)
            table = hall_numbers_ext(ar, a, c)
            d = tuple(i + j for i, j in zip(x.rep.dims, y.rep.dims))
            classes = ar.module_classes(d)
            assert set(table) <= set(classes)
            for b in classes:
                want = grass(x, y, b)
                assert table.get(b, 0) == want, (x.id, y.id, b.render())
                nonzero += want != 0
        assert nonzero > 0

    def test_split_and_nonsplit_counts(self, algebras):
        """Ext¹(S1, S2) is a line over A2: its zero class gives S1 + S2,
        the other p - 1 classes give P1, and each is counted once."""
        for p in (2, 3, 5):
            ar = knit(algebras["a2"], p)
            assert hall_numbers_ext(ar, S2, S1) == {P1: 1, S1 + S2: 1}
            assert hall_numbers_ext(ar, S1, S2) == {S1 + S2: 1}

    def test_kernel_of_delta_checked_against_hom_matrix(self, algebras):
        """dim Hom(S2, P1) = 1; with that entry of the Hom matrix doctored
        to 0 the coboundary kernel disagrees with it."""
        ar = knit(algebras["a2"], 2)
        ar.hom_matrix()[ar.order.index("0-1")][ar.order.index("1-1")] = 0
        with pytest.raises(ExtDimensionMismatch, match="ker"):
            hall_numbers_ext(ar, P1, S2)

    def test_euler_form_checked_on_hereditary_input(self, algebras, monkeypatch):
        real = hall.ext_space
        monkeypatch.setattr(hall, "ext_space", lambda c, a: ExtSpace(
            real(c, a).basis[1:], real(c, a).hom_dim))
        ar = knit(algebras["a2"], 2)
        with pytest.raises(ExtDimensionMismatch, match="Euler form"):
            hall_numbers_ext(ar, S2, S1)

    def test_inexact_division_raises(self, algebras):
        ar = knit(algebras["a2"], 3)
        real = ar.class_aut_order
        ar.class_aut_order = lambda mv: real(mv) + (mv == P1)
        with pytest.raises(NonIntegralOrbitCount):
            hall_numbers_ext(ar, S2, S1)


def _ext_table_by_identify(ar, a, c):
    """``hall_numbers_ext`` with every middle term identified by
    ``identify`` on all knitted vertices: the reference for the
    identification among the bracket-bounded classes."""
    p = ar.field.p
    n1, n2 = ar.class_module(a), ar.class_module(c)
    ext = reps.ext_space(n2, n1)
    cocycle = [0] * (len(ext.basis[0]) if ext.basis else 0)
    deltas = [[(0, 0, j, v) for j, v in enumerate(z) if v] for z in ext.basis]
    walked = {}
    for k, weight in enumerate(scalar_orbits([[cocycle]], deltas, p)):
        b = a + c if k == 0 else identify(reps.middle_term(n1, n2, cocycle), ar)
        walked[b] = walked.get(b, 0) + weight
    hom_ca = sum(n * ar.hom_vectors(a)[0][ar.by_id[x].index] for x, n in c.items())
    denominator = ar.class_aut_order(a) * ar.class_aut_order(c) * p ** hom_ca
    return {b: k * ar.class_aut_order(b) // denominator for b, k in walked.items()}


class TestBoundedMiddleTerms:
    """Middle terms of Ext¹(c, a) identified on the distinguishing set of
    the classes below the Hom vectors of a + c, against ``identify``."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["a2", "a3", "a3_bound", "csquare", "d4"])
    def test_every_small_pair_matches_identify(self, algebras, monkeypatch, name, p):
        """Every ordered pair (a, c) of classes of total dimension at most
        3 together: each walked middle term gets the class ``identify``
        gives it, and the whole table is the reference's."""
        ar = knit(algebras[name], p)
        real = hall._middle_class
        seen = []

        def recorded(ar, split, m):
            seen.append((m, real(ar, split, m)))
            return seen[-1][1]
        monkeypatch.setattr(hall, "_middle_class", recorded)
        classes = [mv for d in itertools.product(range(4), repeat=len(ar.spec.vertices))
                   if 0 < sum(d) <= 2 for mv in ar.module_classes(d)]
        total = {mv: sum(ar.class_dim_vector(mv)) for mv in classes}
        pairs = 0
        for a, c in itertools.product(classes, repeat=2):
            if total[a] + total[c] > 3:
                continue
            want = _ext_table_by_identify(ar, a, c)
            assert hall_numbers_ext(ar, a, c) == want, (a.render(), c.render())
            pairs += 1
        assert pairs and seen
        for m, b in seen:
            assert b == identify(m, ar)

    def test_split_middle_term_of_nonzero_class_raises(self, algebras, monkeypatch):
        """Ext¹(S1, S2) ≠ 0 over A2; a middle term built as S1 ⊕ S2 for the
        nonzero class contradicts Miyata's theorem."""
        monkeypatch.setattr(hall, "middle_term", lambda a, c, cocycle: reps.middle_term(
            a, c, [0] * len(cocycle)))
        ar = knit(algebras["a2"], 3)
        with pytest.raises(ExtDimensionMismatch, match="split middle term"):
            hall_numbers_ext(ar, S2, S1)

    def test_middle_term_off_the_bounded_table_raises(self, algebras):
        """On the commutative square, Ext¹(1-1-1-0, 0-0-0-1) has the middle
        term 1-1-1-1, told from the other bounded class by dim Hom(0-1-1-1,
        -) = 1.  With that Hom-matrix entry doctored to 0 the walked middle
        term's vector matches no bounded class."""
        ar = knit(algebras["csquare"], 2)
        ar.hom_matrix()[ar.order.index("0-1-1-1")][ar.order.index("1-1-1-1")] = 0
        a, c = MultiplicityVector.unit("0-0-0-1"), MultiplicityVector.unit("1-1-1-0")
        with pytest.raises(NegativeMultiplicity, match="matches no class"):
            hall_numbers_ext(ar, a, c)
