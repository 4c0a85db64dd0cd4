import itertools
import json

import pytest

import hallie
from hallie import liealg
from hallie.cli import run
from hallie.errors import NotClosedOnIndecomposables, NotFiniteType
from hallie.liealg import (GradedVector, LieTable, compare_with_root_system,
                           enumerate_module_classes, euler_lie_table,
                           hall_lie_table, hall_product, jacobi_check,
                           positive_roots, verify_isomorphism)
from hallie.reps import MultiplicityVector

S1 = MultiplicityVector.unit("1-0")
S2 = MultiplicityVector.unit("0-1")
P1 = MultiplicityVector.unit("1-1")
SPLIT = MultiplicityVector({"1-0": 1, "0-1": 1})
ZERO = MultiplicityVector.zero()


class TestGradedVector:
    def test_cancellation(self):
        v = GradedVector([(S1, 1)]) - GradedVector([(S1, 1)])
        assert v.is_zero()

    def test_merge(self):
        v = GradedVector([(S1, 2), (S2, 1), (S1, -1)])
        assert v.terms == {S1: 1, S2: 1}

    def test_scale(self):
        v = GradedVector([(S1, 2)]).scale(-3)
        assert v.terms == {S1: -6}


class TestModuleClasses:
    def test_a2_mixed_dimension(self, families):
        ar = families["a2"].reference_quiver()
        classes = enumerate_module_classes(ar, (1, 1))
        assert set(classes) == {P1, SPLIT}

    def test_zero_dimension(self, families):
        ar = families["a2"].reference_quiver()
        assert enumerate_module_classes(ar, (0, 0)) == [ZERO]

    def test_isotypic(self, families):
        ar = families["a2"].reference_quiver()
        assert enumerate_module_classes(ar, (2, 0)) == \
            [MultiplicityVector({"1-0": 2})]


class TestProducts:
    def test_hall_product_both_extensions(self, families):
        fam = families["a2"]
        assert hall_product(fam, S1, S2) == GradedVector([(P1, 1), (SPLIT, 1)])

    def test_hall_product_split_only(self, families):
        fam = families["a2"]
        assert hall_product(fam, S2, S1) == GradedVector([(SPLIT, 1)])

    def test_hall_unit(self, families):
        fam = families["a2"]
        for mv in (S1, S2, P1, SPLIT):
            assert hall_product(fam, ZERO, mv) == GradedVector([(mv, 1)])
            assert hall_product(fam, mv, ZERO) == GradedVector([(mv, 1)])

    def test_associativity_small(self, families):
        from hallie.liealg import graded_multiply
        fam = families["a2"]
        unit_vecs = [GradedVector([(mv, 1)]) for mv in (S1, S2, P1)]
        for x, y, z in itertools.product(unit_vecs, repeat=3):
            left = graded_multiply(fam, graded_multiply(fam, x, y), z)
            right = graded_multiply(fam, x, graded_multiply(fam, y, z))
            assert left == right


class TestLieTables:
    def test_a2_hall_table(self, families):
        kt = hall_lie_table(families["a2"])
        nonzero = {pair: entry for pair, entry in kt.entries.items() if entry}
        assert nonzero == {("0-1", "1-0"): ("1-1", -1)}

    def test_a2_euler_table(self, families):
        lt = euler_lie_table(hall_lie_table(families["a2"]))
        nonzero = {pair: entry for pair, entry in lt.entries.items() if entry}
        assert nonzero == {("0-1", "1-0"): ("1-1", 1)}
        # antisymmetry through the accessor
        assert lt.bracket("1-0", "0-1") == ("1-1", -1)
        assert lt.bracket("1-0", "1-0") is None

    def test_a3_bracket_example(self, families):
        # [u_{S_1}, u_{P_2}] = u_{P_1} in the equioriented A3
        kt = hall_lie_table(families["a3"])
        assert kt.bracket("1-0-0", "0-1-1") == ("1-1-1", 1)

    def test_grading(self, families):
        for name in ("a2", "a3", "a3_bound", "csquare"):
            kt = hall_lie_table(families[name])
            for (i, j), entry in kt.entries.items():
                if entry is not None:
                    want = tuple(a + b for a, b in zip(kt.dims[i], kt.dims[j]))
                    assert tuple(kt.dims[entry[0]]) == want, (name, i, j)

    def test_bracket_vanishing_direction(self, families):
        # for a nonzero bracket exactly one order carries the extension
        fam = families["a3"]
        kt = hall_lie_table(fam)
        for (i, j), entry in kt.entries.items():
            if entry is None:
                continue
            z = MultiplicityVector.unit(entry[0])
            ui, uj = MultiplicityVector.unit(i), MultiplicityVector.unit(j)
            one_way = fam.euler(ui, uj, z)   # sub i, quotient j
            other = fam.euler(uj, ui, z)     # sub j, quotient i
            assert (one_way != 0) != (other != 0), (i, j)


class TestVerification:
    @pytest.mark.parametrize("name", ["point", "a2", "a3", "a3_sink",
                                      "a3_bound", "csquare"])
    def test_sign_twist_and_jacobi(self, families, name):
        kt = hall_lie_table(families[name])
        lt = euler_lie_table(kt)
        assert verify_isomorphism(kt, lt).ok, name
        assert jacobi_check(kt).ok, name
        assert jacobi_check(lt).ok, name

    def test_jacobi_triple_counts(self, families):
        assert len(jacobi_check(hall_lie_table(families["a2"])).checks) == 1
        assert len(jacobi_check(hall_lie_table(families["a3"])).checks) == 20


class TestChecksCanFail:
    """Each check verify prints must reject a corrupted table."""

    def test_jacobi_rejects_doubled_bracket(self, families):
        kt = hall_lie_table(families["a3"])
        pairs = kt.nonzero_pairs()
        assert pairs
        for pair in pairs:
            target, coeff = kt.entries[pair]
            bad = LieTable(kt.basis, kt.dims,
                           {**kt.entries, pair: (target, 2 * coeff)})
            assert len(jacobi_check(bad).failures()) == 1, pair

    def test_sign_twist_rejects_negated_entry(self, families):
        kt = hall_lie_table(families["a3"])
        lt = euler_lie_table(kt)
        for i, j in lt.nonzero_pairs():
            target, coeff = lt.entries[(i, j)]
            bad = LieTable(lt.basis, lt.dims,
                           {**lt.entries, (i, j): (target, -coeff)})
            failures = verify_isomorphism(kt, bad).failures()
            assert [c.name for c in failures] == [f"pair ({i}, {j})"]

    @pytest.mark.parametrize("extra, reason", [
        (SPLIT, "decomposable class"), (S1, "more than one class")],
        ids=["decomposable", "two-units"])
    def test_lie_closure_rejects_stray_term(self, families, monkeypatch, capsys,
                                            extra, reason):
        """A commutator with a term on a decomposable class, or spread over
        two unit classes, fails the lie closure check: the table raises and
        verify exits 1."""
        real = liealg.hall_product

        def corrupted(family, c, a):
            out = real(family, c, a)
            if (c, a) == (S2, S1):
                out = out + GradedVector([(extra, 1)])
            return out
        monkeypatch.setattr(liealg, "hall_product", corrupted)
        with pytest.raises(NotClosedOnIndecomposables, match=reason):
            hall_lie_table(families["a2"])
        code = run(["verify", "--algebra", hallie.example_algebra_path("a2")])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert not doc["ok"]
        assert [c["name"] for c in doc["checks"]] == ["knit", "field independence",
                                                      "lie closure"]
        assert not doc["checks"][-1]["ok"] and reason in doc["checks"][-1]["detail"]


KNOWN_D4_ROOTS = {
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1),
    (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1),
    (1, 1, 1, 1), (1, 1, 1, 2),
}


class TestRootSystems:
    def test_a2_roots(self, algebras):
        rs = positive_roots(algebras["a2"].cartan_matrix())
        assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}

    def test_a3_roots(self, algebras):
        rs = positive_roots(algebras["a3"].cartan_matrix())
        assert len(rs.positive_roots) == 6

    def test_d4_roots(self, algebras):
        rs = positive_roots(algebras["d4"].cartan_matrix())
        assert set(rs.positive_roots) == KNOWN_D4_ROOTS

    def test_affine_rejected(self, monkeypatch):
        # the cycle graph on three vertices is simply laced but affine
        affine = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        monkeypatch.setattr(liealg, "ROOT_CAP", 64)
        with pytest.raises(NotFiniteType, match="64"):
            positive_roots(affine)

    def test_root_cap_is_read_on_every_call(self, algebras, monkeypatch):
        """D4 has 12 positive roots: a cap of 11 stops its closure."""
        cartan = algebras["d4"].cartan_matrix()
        monkeypatch.setattr(liealg, "ROOT_CAP", 11)
        with pytest.raises(NotFiniteType):
            positive_roots(cartan)
        monkeypatch.setattr(liealg, "ROOT_CAP", 12)
        assert len(positive_roots(cartan).positive_roots) == 12

    def test_invalid_cartan_rejected(self):
        with pytest.raises(ValueError):
            positive_roots([[2, -3], [-1, 2]])

    @pytest.mark.parametrize("name,count", [("a2", 3), ("a3", 6), ("a3_sink", 6)])
    def test_comparison_passes(self, families, algebras, name, count):
        kt = hall_lie_table(families[name])
        rs = positive_roots(algebras[name].cartan_matrix())
        assert len(rs.positive_roots) == count
        assert compare_with_root_system(kt, rs).ok
