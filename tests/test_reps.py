import itertools
import json

import pytest

from hallie.algebra import NonSchurianWarning, parse_algebra, projective_rep
from hallie import reps
from hallie.errors import DecompositionBudgetExceeded, NotClosed, ResourceBound
from hallie.knit import knit
from hallie.linalg import FMatrix, PrimeField
from hallie.reps import (MultiplicityVector, Representation, SubspaceTuple,
                         aut_order, check_relations, decompose, direct_sum,
                         find_isomorphism, hom_dim, hom_space, identify,
                         simple_rep, sub_quotient, zero_rep)


@pytest.fixture(scope="module")
def a2(algebras):
    return algebras["a2"]


@pytest.fixture(scope="module")
def a3_bound(algebras):
    return algebras["a3_bound"]


def tuple_at(m, bases):
    field = m.field
    mats = [FMatrix.from_rows(field, rows, ncols=d)
            for rows, d in zip(bases, m.dims)]
    return SubspaceTuple(m, tuple(mats))


class TestCheckRelations:
    def test_simples_always_pass(self, a3_bound):
        for x in a3_bound.vertices:
            assert check_relations(simple_rep(a3_bound, x, 2))

    def test_projective_passes(self, a3_bound):
        assert check_relations(projective_rep(a3_bound, "1", 3))

    def test_faithful_a3_fails_zero_relation(self, a3_bound):
        field = PrimeField(3)
        one = FMatrix.identity(field, 1)
        rep = Representation(a3_bound, field, (1, 1, 1), {"a": one, "b": one})
        assert not check_relations(rep)


class TestHomSpace:
    def test_a2_dimensions(self, a2):
        s1 = simple_rep(a2, "1", 3)
        s2 = simple_rep(a2, "2", 3)
        p1 = projective_rep(a2, "1", 3)
        assert hom_dim(s1, s2) == 0
        assert hom_dim(p1, s1) == 1
        assert hom_dim(s2, p1) == 1
        assert hom_dim(p1, s2) == 0

    def test_basis_elements_are_homomorphisms(self, a3_bound):
        p1 = projective_rep(a3_bound, "1", 2)
        p2 = projective_rep(a3_bound, "2", 2)
        for f in hom_space(p1, p2):
            for a in a3_bound.quiver.arrows:
                left = f[a.target].mul(p1.maps[a.id])
                right = p2.maps[a.id].mul(f[a.source])
                assert left == right


class TestSubQuotient:
    def test_trivial_tuples(self, a2):
        p1 = projective_rep(a2, "1", 2)
        sq = sub_quotient(p1, tuple_at(p1, [[], []]))
        assert sq.sub.dims == (0, 0) and sq.quot.dims == p1.dims
        sq = sub_quotient(p1, tuple_at(p1, [[[1]], [[1]]]))
        assert sq.sub.dims == p1.dims and sq.quot.dims == (0, 0)

    def test_socle_of_p1(self, a2):
        p1 = projective_rep(a2, "1", 5)
        sq = sub_quotient(p1, tuple_at(p1, [[], [[1]]]))
        assert sq.sub.dims == (0, 1)   # the simple socle
        assert sq.quot.dims == (1, 0)  # the simple top

    def test_not_closed(self, a2):
        p1 = projective_rep(a2, "1", 5)
        with pytest.raises(NotClosed):
            sub_quotient(p1, tuple_at(p1, [[[1]], []]))

    def test_dimension_law_exhaustive_small(self, a3_bound):
        from hallie.hall import closed_subspace_tuples
        p = projective_rep(a3_bound, "2", 2)
        m = direct_sum(a3_bound, p.field, [p, simple_rep(a3_bound, "2", 2)])
        for tup in closed_subspace_tuples(m):
            sq = sub_quotient(m, tup)
            got = tuple(a + b for a, b in zip(sq.sub.dims, sq.quot.dims))
            assert got == m.dims
            # projection and inclusion compose to zero
            for v in a3_bound.vertices:
                assert sq.projection[v].mul(sq.inclusion[v]).is_zero()


class TestDirectSum:
    def test_empty(self, a2):
        z = direct_sum(a2, PrimeField(2), [])
        assert z.is_zero()

    def test_simple_sum(self, a2):
        field = PrimeField(3)
        m = direct_sum(a2, field, [simple_rep(a2, "1", 3), simple_rep(a2, "2", 3)])
        assert m.dims == (1, 1)
        assert m.maps["a"].is_zero()

    def test_block_assembly(self, a2):
        field = PrimeField(3)
        m = direct_sum(a2, field, [projective_rep(a2, "1", 3),
                                   simple_rep(a2, "1", 3)])
        assert m.dims == (2, 1)
        assert m.maps["a"].rows == ((1, 0),)


class TestDecompose:
    def test_projective_indecomposable(self, a2):
        p1 = projective_rep(a2, "1", 2)
        out = decompose(p1)
        assert len(out) == 1
        rep, mult = out[0]
        assert mult == 1 and rep.dims == (1, 1)

    def test_simple_square(self, a2):
        s1 = simple_rep(a2, "1", 2)
        m = direct_sum(a2, s1.field, [s1, s1])
        out = decompose(m)
        assert len(out) == 1
        rep, mult = out[0]
        assert mult == 2 and rep.dims == (1, 0)

    def test_mixed_sum(self, a2):
        field = PrimeField(3)
        m = direct_sum(a2, field, [projective_rep(a2, "1", 3),
                                   simple_rep(a2, "2", 3),
                                   simple_rep(a2, "2", 3)])
        out = decompose(m)
        assert [(rep.dims, mult) for rep, mult in out] == [((1, 1), 1), ((0, 1), 2)]

    def test_square_radical_is_indecomposable(self, algebras):
        # rad P_1 of the commutative square has dimension vector (0,1,1,1);
        # its endomorphism ring is one-dimensional (hom-counting oracle), so
        # it does not split
        spec = algebras["csquare"]
        p1 = projective_rep(spec, "1", 3)
        from hallie.knit import radical_tuple
        from hallie.reps import restrict_to_subtuple
        rad, _ = restrict_to_subtuple(p1, radical_tuple(p1, "1"))
        assert rad.dims == (0, 1, 1, 1)
        assert hom_dim(rad, rad) == 1  # independent certificate
        out = decompose(rad)
        assert [(rep.dims, mult) for rep, mult in out] == [((0, 1, 1, 1), 1)]

    def test_deterministic(self, a2):
        field = PrimeField(2)
        m = direct_sum(a2, field, [projective_rep(a2, "1", 2),
                                   simple_rep(a2, "1", 2)])
        first = decompose(m)
        second = decompose(m)
        assert [(r.dims, c) for r, c in first] == [(r.dims, c) for r, c in second]


class TestIndecomposableCertificate:
    """Modules that no endomorphism splits, so that ``decompose`` walks the
    whole of End before it calls them indecomposable."""

    @staticmethod
    def kronecker_block(p):
        # a = 1, b = a nilpotent Jordan block on the Kronecker quiver:
        # End = F_p[x]/(x^2), local of dimension 2, so no Fitting split
        with pytest.warns(NonSchurianWarning):
            spec = parse_algebra(json.dumps({
                "vertices": ["1", "2"],
                "arrows": [{"id": "a", "from": "1", "to": "2"},
                           {"id": "b", "from": "1", "to": "2"}]}))
        field = PrimeField(p)
        return Representation(spec, field, (2, 2), {
            "a": FMatrix.identity(field, 2),
            "b": FMatrix.from_rows(field, [[0, 1], [0, 0]], ncols=2)})

    @pytest.mark.parametrize("p", [2, 3])
    def test_local_endomorphism_ring_is_certified(self, p):
        m = self.kronecker_block(p)
        assert len(hom_space(m, m)) == 2
        assert [(rep.dims, mult) for rep, mult in decompose(m)] == [((2, 2), 1)]

    @pytest.mark.parametrize("p", [2, 3])
    def test_split_module_splits(self, a2, p):
        s1 = simple_rep(a2, "1", p)
        m = direct_sum(a2, s1.field, [s1, s1])
        assert [(rep.dims, mult) for rep, mult in decompose(m)] == [((1, 0), 2)]

    def test_split_found_past_the_basis(self, a2, monkeypatch):
        """End(S1 ⊕ S1) handed over as the basis [I, I + E11] over F_3:
        both elements are invertible, so neither splits, and the walk must
        reach 2I + E11 = diag(0, 2)."""
        real = reps.solve_nullspace

        def doctored(A):
            if (A.nrows, A.ncols) == (0, 4):  # the End constraints of S1 ⊕ S1
                return [(1, 0, 0, 1), (2, 0, 0, 1)]
            return real(A)
        monkeypatch.setattr(reps, "solve_nullspace", doctored)
        s1 = simple_rep(a2, "1", 3)
        m = direct_sum(a2, s1.field, [s1, s1])
        assert [(rep.dims, mult) for rep, mult in decompose(m)] == [((1, 0), 2)]

    def test_certificate_bound(self, monkeypatch):
        m = self.kronecker_block(2)
        monkeypatch.setattr(reps, "HOM_WALK_BOUND", 3)
        with pytest.raises(DecompositionBudgetExceeded):
            reps.decompose_with_embeddings(m)
        monkeypatch.setattr(reps, "HOM_WALK_BOUND", 4)
        assert len(reps.decompose_with_embeddings(m)) == 1


@pytest.fixture(scope="module")
def ar2(algebras):
    return knit(algebras["a2"], 3)


class TestIdentify:
    def test_units(self, ar2):
        for v in ar2.vertices:
            assert identify(v.rep, ar2) == MultiplicityVector.unit(v.id)

    def test_zero(self, ar2, a2):
        assert identify(zero_rep(a2, ar2.field), ar2) == MultiplicityVector.zero()

    def test_mixed(self, ar2, a2):
        m = direct_sum(a2, ar2.field, [projective_rep(a2, "1", 3),
                                       simple_rep(a2, "2", 3)])
        assert identify(m, ar2) == MultiplicityVector({"1-1": 1, "0-1": 1})

    def test_additive(self, ar2, a2):
        reps = [v.rep for v in ar2.vertices]
        for x, y in itertools.product(reps, repeat=2):
            both = direct_sum(a2, ar2.field, [x, y])
            assert identify(both, ar2) == identify(x, ar2) + identify(y, ar2)

    def test_identify_after_decompose(self, ar2, a2):
        m = direct_sum(a2, ar2.field, [projective_rep(a2, "1", 3),
                                       simple_rep(a2, "1", 3),
                                       simple_rep(a2, "1", 3)])
        parts = []
        for rep, mult in decompose(m):
            parts.extend([rep] * mult)
        rebuilt = direct_sum(a2, ar2.field, parts)
        assert identify(rebuilt, ar2) == identify(m, ar2)


class TestAutOrder:
    def test_simple(self, a2):
        assert aut_order(simple_rep(a2, "1", 2)) == 1
        assert aut_order(simple_rep(a2, "1", 5)) == 4

    def test_gl2(self, a2):
        s1 = simple_rep(a2, "1", 2)
        m = direct_sum(a2, s1.field, [s1, s1])
        assert aut_order(m) == 6  # |GL_2(F_2)|
        s1 = simple_rep(a2, "1", 3)
        m = direct_sum(a2, s1.field, [s1, s1])
        assert aut_order(m) == 48  # |GL_2(F_3)|

    def test_zero_rep(self, a2):
        assert aut_order(zero_rep(a2, PrimeField(3))) == 1

    def test_projective(self, a2):
        # End(P_1) = F_p, so Aut has p - 1 elements
        assert aut_order(projective_rep(a2, "1", 5)) == 4

    def test_bound_is_checked_on_every_call(self, a2, monkeypatch):
        """p^{dim End} = 3^9 for S1³ at p = 3: counted under the default
        bound, and refused under a tight one on the next call."""
        s1 = simple_rep(a2, "1", 3)
        m = direct_sum(a2, s1.field, [s1, s1, s1])
        assert aut_order(m) == 11232  # |GL_3(F_3)|
        monkeypatch.setattr(reps, "HOM_WALK_BOUND", 100)
        with pytest.raises(ResourceBound):
            aut_order(m)

    def test_bare_module_walks_its_summands(self, a2):
        """The walk over the summands ``decompose`` finds, on a class
        module and on an equal module built apart, against the closed form
        of the class and the count by hand."""
        ar = knit(a2, 3)
        mv = MultiplicityVector({"0-1": 1, "1-1": 1, "1-0": 2})
        m = ar.class_module(mv)
        bare = Representation(a2, m.field, m.dims, m.maps)
        assert sorted(n for _, n in decompose(bare)) == [1, 1, 2]
        assert bare == m and bare is not m
        # |Aut| = 3^{end − Σ n²} · 2 · 2 · |GL_2(F_3)|, with end = 9
        assert aut_order(bare) == aut_order(m) == ar.class_aut_order(mv) \
            == 3 ** 3 * 2 * 2 * 48


class TestCachedHashes:
    def test_representation_key_is_kept_and_fresh(self, a2):
        """The kept key equals one computed anew, and equal modules built
        apart hash equal."""
        field = PrimeField(3)
        parts = [simple_rep(a2, "1", 3), simple_rep(a2, "2", 3)]
        m, twin = (direct_sum(a2, field, parts) for _ in range(2))
        h = hash(m)
        assert m.key() is m.key()
        assert m.key() == (3, m.dims, tuple(sorted((a, x.rows) for a, x in m.maps.items())))
        assert m == twin and hash(m) == hash(twin) == h
        assert hash(direct_sum(a2, field, parts[::-1])) == h

    def test_multiplicity_vector_hash(self):
        mv = MultiplicityVector({"1-0": 1, "0-1": 2})
        same = MultiplicityVector([("0-1", 1), ("1-0", 1), ("2-2", 0), ("0-1", 1)])
        assert mv == same and hash(mv) == hash(same) == hash(mv.items())
        assert hash(MultiplicityVector.unit("1-0") + MultiplicityVector({"0-1": 2})) == hash(mv)


class TestFindIsomorphism:
    def test_identifies_equal_bricks(self, a2):
        p = projective_rep(a2, "1", 3)
        q = projective_rep(a2, "1", 3)
        iso = find_isomorphism(p, q)
        assert iso is not None

    @pytest.mark.parametrize("p", [2, 3])
    def test_isomorphism_past_the_basis(self, a2, monkeypatch, p):
        """Hom(S1 ⊕ S1, S1 ⊕ S1) has the unit matrices E_ij as its basis,
        and none is invertible: the walk must combine them."""
        s1 = simple_rep(a2, "1", p)
        m = direct_sum(a2, s1.field, [s1, s1])
        assert all(not reps.hom_is_invertible(f) for f in hom_space(m, m))
        iso = find_isomorphism(m, m)
        assert iso is not None and reps.hom_is_invertible(iso)
        monkeypatch.setattr(reps, "HOM_WALK_BOUND", 2)
        with pytest.raises(ResourceBound):
            find_isomorphism(m, m)

    def test_distinguishes_nonisomorphic(self, a2):
        field = PrimeField(2)
        split = direct_sum(a2, field, [simple_rep(a2, "1", 2),
                                       simple_rep(a2, "2", 2)])
        assert find_isomorphism(projective_rep(a2, "1", 2), split) is None
