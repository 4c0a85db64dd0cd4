import itertools

import pytest

from hallie import hall, reps
from hallie.errors import (ExtDimensionMismatch, InconsistentCounts,
                           NonIntegralOrbitCount, ResourceBound)
from hallie.hall import (ARFamily, HallConfig, closed_subspace_tuples,
                         first_primes, hall_number_grass, hall_number_hom,
                         hall_numbers_ext, lagrange_interpolate)
from hallie.knit import knit
from hallie.liealg import hall_lie_table
from hallie.reps import (ExtSpace, MultiplicityVector, Representation, direct_sum,
                         hom_dim, identify, matches_class, quotient_by_subtuple,
                         restrict_to_subtuple, simple_rep, sub_quotient)


S1, S2, P1 = (MultiplicityVector.unit(vid) for vid in ("1-0", "0-1", "1-1"))


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
        from hallie.reps import zero_rep
        z = zero_rep(spec, p1.field)
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
                tuples = list(closed_subspace_tuples(m, (e1, e2)))
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
        for tup in closed_subspace_tuples(m, (1, 1)):
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


def _count_on_all_coordinates(ar, n1, n2, m):
    """The subspace route with every sub and quotient classified on all
    knitted vertices: the reference for the separating sets.  A zero Hom
    space settles a count before any classification, on both sides."""
    if hom_dim(n1, m) == 0 or hom_dim(m, n2) == 0:
        return 0
    want_sub = list(enumerate(ar.hom_vectors(identify(n1, ar))[0]))
    want_quot = list(enumerate(ar.hom_vectors(identify(n2, ar))[0]))
    count = 0
    for tup in closed_subspace_tuples(m, n1.dims):
        sub, _ = restrict_to_subtuple(m, tup)
        if matches_class(sub, ar, want_sub):
            quot, _ = quotient_by_subtuple(m, tup)
            count += matches_class(quot, ar, want_quot)
    return count


class TestSeparatingSets:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["a3", "a3_bound", "csquare", "d4"])
    def test_bracket_triples_match_full_classification(self, algebras, name, p):
        """Every triple of a bracket [x, y] (sub x, quotient y, any class b
        of the summed dimension vector) counted by ``hall_number_grass`` on
        separating sets and by ``matches_class`` over all coordinates."""
        ar = knit(algebras[name], p)
        nonzero = 0
        for x, y in itertools.permutations(ar.vertices, 2):
            d = tuple(i + j for i, j in zip(x.rep.dims, y.rep.dims))
            for b in ar.module_classes(d):
                m = ar.class_module(b)
                want = _count_on_all_coordinates(ar, x.rep, y.rep, m)
                assert hall_number_grass(ar, x.rep, y.rep, m) == want, \
                    (x.id, y.id, b.render())
                nonzero += want != 0
        assert nonzero > 0


class TestInterpolation:
    def test_lagrange_exact(self):
        # nodes (2,3,5), values of 2t^2 - t + 3
        coeffs = lagrange_interpolate([2, 3, 5], [9, 18, 48])
        assert coeffs == [3, -1, 2]

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
    def test_images_reached_by_other_than_aut_maps_raise(self, algebras, monkeypatch,
                                                         sub, quot, total):
        """Every image of an injective map is reached by exactly |Aut n1|
        maps; with |Aut| doctored to twice its value the hom route must
        raise.  On S1 ⊂ S1 + S1 at p = 3 the doctored total 4·2 would still
        divide by 2·2.  S1² ⊂ S1³ walks a block of multiplicity 2, one
        map per orbit of GL_2(F_3)."""
        ar = knit(algebras["a2"], 3)
        n1, n2, m = (ar.class_module(mv) for mv in (sub, quot, total))
        assert hall_number_hom(ar, n1, n2, m) > 0
        real = hall.aut_order
        monkeypatch.setattr(hall, "aut_order", lambda rep, bound: 2 * real(rep, bound))
        with pytest.raises(NonIntegralOrbitCount):
            hall_number_hom(ar, n1, n2, m)


class TestHomRuns:
    @pytest.mark.parametrize("p", [2, 3])
    def test_runs_match_one_block(self, algebras, monkeypatch, p):
        """The hom route over the runs of each class module against the
        same modules without runs, walked as one block each (one map per
        scalar orbit), on every triple of a2 up to total dimension 4."""
        ar = knit(algebras["a2"], p)
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
                                               ar.class_module(b), hom_bound=3 ** 7))
                except ResourceBound:
                    out.append(None)
            return out

        with_runs = counts(ar.class_module)
        monkeypatch.setattr(reps, "_AUT_CACHE", {})
        assert counts(stripped) == with_runs
        assert sum(n is not None for n in with_runs) > 100
        assert any(n > 1 for (a_mv, _, _), count in zip(pairs, with_runs)
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
    def test_bracket_triples_match_grass(self, algebras, name, p):
        """Every triple of a bracket [x, y]: sub x, quotient y and every
        class b of the summed dimension vector."""
        ar = knit(algebras[name], p)
        nonzero = 0
        for x, y in itertools.permutations(ar.vertices, 2):
            a, c = MultiplicityVector.unit(x.id), MultiplicityVector.unit(y.id)
            table = hall_numbers_ext(ar, a, c, x.rep, y.rep)
            d = tuple(i + j for i, j in zip(x.rep.dims, y.rep.dims))
            classes = ar.module_classes(d)
            assert set(table) <= set(classes)
            for b in classes:
                want = hall_number_grass(ar, x.rep, y.rep, ar.class_module(b))
                assert table.get(b, 0) == want, (x.id, y.id, b.render())
                nonzero += want != 0
        assert nonzero > 0

    def test_split_and_nonsplit_counts(self, algebras):
        """Ext¹(S1, S2) is a line over A2: its zero class gives S1 + S2,
        the other p - 1 classes give P1, and each is counted once."""
        for p in (2, 3, 5):
            ar = knit(algebras["a2"], p)
            s2, s1 = ar.vertex("0-1").rep, ar.vertex("1-0").rep
            assert hall_numbers_ext(ar, S2, S1, s2, s1) == {P1: 1, S1 + S2: 1}
            assert hall_numbers_ext(ar, S1, S2, s1, s2) == {S1 + S2: 1}

    def test_kernel_of_delta_checked_against_hom_matrix(self, algebras):
        """dim Hom(S2, P1) = 1; with that entry of the Hom matrix doctored
        to 0 the coboundary kernel disagrees with it."""
        ar = knit(algebras["a2"], 2)
        ar.hom_matrix()[ar.order.index("0-1")][ar.order.index("1-1")] = 0
        with pytest.raises(ExtDimensionMismatch, match="ker"):
            hall_numbers_ext(ar, P1, S2, ar.vertex("1-1").rep, ar.vertex("0-1").rep)

    def test_euler_form_checked_on_hereditary_input(self, algebras, monkeypatch):
        real = hall.ext_space
        monkeypatch.setattr(hall, "ext_space", lambda c, a: ExtSpace(
            real(c, a).basis[1:], real(c, a).hom_dim))
        ar = knit(algebras["a2"], 2)
        with pytest.raises(ExtDimensionMismatch, match="Euler form"):
            hall_numbers_ext(ar, S2, S1, ar.vertex("0-1").rep, ar.vertex("1-0").rep)

    def test_inexact_division_raises(self, algebras):
        ar = knit(algebras["a2"], 3)
        real = ar.class_aut_order
        ar.class_aut_order = lambda mv: real(mv) + (mv == P1)
        with pytest.raises(NonIntegralOrbitCount):
            hall_numbers_ext(ar, S2, S1, ar.vertex("0-1").rep, ar.vertex("1-0").rep)
