import importlib
import itertools
import json

import pytest

from hallie.algebra import parse_algebra
from hallie.errors import (FieldDependenceDetected, IsProjective,
                           NonUnitriangularHomMatrix, NotRepresentationFinite)
from hallie.knit import (KnitConfig, ar_sequence, ar_to_doc,
                         check_field_independence, compare_quiver_shapes, knit)
from hallie.liealg import enumerate_module_classes
from hallie.reps import MultiplicityVector, aut_order, check_relations, hom_dim

knit_module = importlib.import_module("hallie.knit")  # hallie.knit is the function

P1 = MultiplicityVector.unit("1-1")
SPLIT = MultiplicityVector({"1-0": 1, "0-1": 1})

EXPECTED_VERTEX_COUNTS = {
    "point": 1,
    "a2": 3,
    "a3": 6,
    "a3_sink": 6,
    "a3_bound": 5,
    "csquare": 11,
    "d4": 12,
}


@pytest.fixture(scope="module")
def knits(algebras):
    return {name: knit(spec, 2) for name, spec in algebras.items()}


class TestKnitShapes:
    def test_vertex_counts(self, knits):
        for name, expected in EXPECTED_VERTEX_COUNTS.items():
            assert len(knits[name].vertices) == expected, name

    def test_point(self, knits):
        ar = knits["point"]
        assert len(ar.arrows) == 0
        assert ar.vertices[0].projective

    def test_a2(self, knits):
        ar = knits["a2"]
        assert [v.id for v in ar.vertices] == ["0-1", "1-1", "1-0"]
        assert [(a.source, a.target) for a in ar.arrows] == \
            [("0-1", "1-1"), ("1-1", "1-0")]
        assert ar.tau == {"1-0": "0-1"}
        assert {v.id for v in ar.vertices if v.projective} == {"0-1", "1-1"}

    def test_a3_bound(self, knits):
        # hand-knit oracle for the bound quiver: five indecomposables
        ar = knits["a3_bound"]
        assert {v.id for v in ar.vertices} == \
            {"0-0-1", "0-1-1", "0-1-0", "1-1-0", "1-0-0"}
        assert ar.tau == {"0-1-0": "0-0-1", "1-0-0": "0-1-0"}

    def test_d4_matches_positive_root_count(self, knits, algebras):
        from hallie.liealg import positive_roots
        rs = positive_roots(algebras["d4"].cartan_matrix())
        ar = knits["d4"]
        assert len(ar.vertices) == len(rs.positive_roots) == 12
        assert {tuple(v.rep.dims) for v in ar.vertices} == set(rs.positive_roots)

    def test_vertex_count_equals_distinct_dim_vectors(self, knits):
        for name, ar in knits.items():
            dims = {tuple(v.rep.dims) for v in ar.vertices}
            assert len(dims) == len(ar.vertices), name


class TestKnitInvariants:
    def test_mesh_relation(self, knits):
        for name, ar in knits.items():
            for z, mesh in ar.meshes.items():
                z_dims = ar.vertex(z).rep.dims
                x_dims = ar.vertex(mesh.translate).rep.dims
                middle = [0] * len(z_dims)
                for mid in mesh.middles:
                    for i, d in enumerate(ar.vertex(mid).rep.dims):
                        middle[i] += d
                assert tuple(middle) == tuple(a + b for a, b in zip(z_dims, x_dims)), \
                    (name, z)

    def test_vertices_satisfy_relations_and_are_bricks(self, knits):
        for name, ar in knits.items():
            for v in ar.vertices:
                assert check_relations(v.rep), (name, v.id)
                assert hom_dim(v.rep, v.rep) == 1, (name, v.id)

    def test_hom_matrix_unitriangular(self, knits):
        for name, ar in knits.items():
            H = ar.hom_matrix()
            for i in range(len(ar.vertices)):
                assert H[i][i] == 1
                for j in range(i):
                    assert H[i][j] == 0, (name, i, j)

    def test_arrow_maps_are_nonzero_homs(self, knits):
        for name, ar in knits.items():
            for arrow in ar.arrows:
                src = ar.vertex(arrow.source).rep
                dst = ar.vertex(arrow.target).rep
                assert any(not m.is_zero() for m in arrow.maps.values())
                for a in ar.spec.quiver.arrows:
                    left = arrow.maps[a.target].mul(src.maps[a.id])
                    right = dst.maps[a.id].mul(arrow.maps[a.source])
                    assert left == right, (name, arrow.source, arrow.target)

    def test_trivial_valuation(self, knits):
        for name, ar in knits.items():
            seen = set()
            for arrow in ar.arrows:
                key = (arrow.source, arrow.target)
                assert key not in seen, name
                seen.add(key)


class TestARSequences:
    def test_a2_sequence(self, knits):
        seq = ar_sequence(knits["a2"], "1-0")
        assert seq.translate.id == "0-1"
        assert [m.id for m in seq.middles] == ["1-1"]

    def test_a3_path_sequence(self, knits):
        # 0 -> S_3 -> P_2 -> S_2 -> 0 in the equioriented A3
        seq = ar_sequence(knits["a3"], "0-1-0")
        assert seq.translate.id == "0-0-1"
        assert [m.id for m in seq.middles] == ["0-1-1"]

    def test_d4_triple_middle(self, knits):
        seq = ar_sequence(knits["d4"], "1-1-1-1")
        assert seq.translate.id == "1-1-1-2"
        assert len(seq.middles) == 3

    def test_projective_rejected(self, knits):
        with pytest.raises(IsProjective):
            ar_sequence(knits["a2"], "1-1")

    def test_every_mesh_verifies(self, knits):
        for name, ar in knits.items():
            for z in ar.meshes:
                ar_sequence(ar, z)  # raises on any failed exactness check


class TestFieldIndependence:
    def test_a2(self, algebras):
        report = check_field_independence(algebras["a2"], [2, 3, 5])
        assert report.vertex_count == 3

    def test_point(self, algebras):
        report = check_field_independence(algebras["point"], [2, 3])
        assert report.vertex_count == 1

    def test_d4(self, algebras):
        report = check_field_independence(algebras["d4"], [2, 3])
        assert report.vertex_count == 12

    def test_needs_two_primes(self, algebras):
        with pytest.raises(ValueError):
            check_field_independence(algebras["a2"], [2])

    def test_knitted_quivers_compared_as_given(self, algebras):
        """verify compares the quivers its family already knitted; a
        doctored translate over one prime must fail the comparison."""
        quivers = {p: knit(algebras["a2"], p) for p in (2, 3)}
        assert compare_quiver_shapes(quivers).primes == (2, 3)
        quivers[3].tau["1-0"] = "1-1"
        with pytest.raises(FieldDependenceDetected, match="F_3"):
            compare_quiver_shapes(quivers)


class TestLimits:
    def test_representation_infinite_input_fails_fast(self):
        # four subspace quiver: tame, representation-infinite, schurian
        doc = {"vertices": ["1", "2", "3", "4", "5"],
               "arrows": [{"id": a, "from": v, "to": "5"}
                          for a, v in zip("abcd", "1234")],
               "relations": []}
        spec = parse_algebra(json.dumps(doc))
        with pytest.raises(NotRepresentationFinite):
            knit(spec, 2, KnitConfig(max_vertices=40))


class TestSerialization:
    def test_roundtrip(self, algebras):
        """``knit --with-maps`` prints the document as JSON, and every matrix
        it stores is the knitted one, row by row."""
        spec = algebras["a3_bound"]
        ar = knit(spec, 3)
        doc = ar_to_doc(ar, with_maps=True)
        assert json.loads(json.dumps(doc)) == doc

        def rows(mat):
            return [list(r) for r in mat.rows]

        def blocks(maps):
            return {vx: rows(maps[vx]) for vx in spec.vertices}

        assert doc["representations"] == {
            v.id: {aid: rows(mat) for aid, mat in v.rep.maps.items()}
            for v in ar.vertices}
        assert doc["arrow_maps"] == [blocks(a.maps) for a in ar.arrows]
        assert ar.meshes and set(doc["meshes"]) == set(ar.meshes)
        for z, mesh in ar.meshes.items():
            stored = doc["meshes"][z]
            assert stored["translate"] == mesh.translate
            assert stored["middles"] == list(mesh.middles)
            assert stored["eta"] == [blocks(h) for h in mesh.eta]
            assert stored["nu"] == [blocks(h) for h in mesh.nu]


class TestQuiverMemos:
    def test_class_list_is_a_fresh_copy(self, algebras):
        ar = knit(algebras["a2"], 2)
        first = enumerate_module_classes(ar, (1, 1))
        assert first == [P1, SPLIT]
        first.append(MultiplicityVector.zero())
        first.reverse()
        assert enumerate_module_classes(ar, (1, 1)) == [P1, SPLIT]

    def test_memos_are_per_quiver(self, algebras):
        ar2, ar3 = knit(algebras["a2"], 2), knit(algebras["a2"], 3)
        assert ar2.module_classes((1, 1)) is not ar3.module_classes((1, 1))
        m3 = ar3.vertex("1-1").rep
        assert ar3.class_of(m3) == P1
        with pytest.raises(ValueError):
            ar2.class_of(m3)  # an F_3 module is not served from ar3's memo

    def test_class_of_identifies_once(self, algebras, monkeypatch):
        calls = []
        real = knit_module.identify
        monkeypatch.setattr(knit_module, "identify",
                            lambda m, ar: calls.append(m) or real(m, ar))
        ar = knit(algebras["a2"], 3)
        m = ar.class_module(SPLIT)
        assert ar.class_of(m) == ar.class_of(m) == SPLIT
        assert len(calls) == 1

    def test_separating_sets_separate(self, knits):
        for name, ar in knits.items():
            for mv in ar.module_classes((1,) * len(ar.spec.vertices)):
                into = ar.hom_vectors(mv)[0]
                sep = ar.separating_set(mv)
                for other in ar.module_classes(ar.class_dim_vector(mv)):
                    if other != mv:
                        rival = ar.hom_vectors(other)[0]
                        assert any(rival[k] != into[k] for k in sep), (name, mv)

    def test_bounded_classes_are_the_filtered_classes(self, knits):
        """The knapsack pruned on Hom-vector bounds gives exactly the
        classes of the unbounded list whose Hom vectors lie below them, in
        the same order; the bounds are those of every bracket pair."""
        for name, ar in knits.items():
            for x, y in itertools.permutations(ar.vertices, 2):
                hx = ar.hom_vectors(MultiplicityVector.unit(x.id))
                hy = ar.hom_vectors(MultiplicityVector.unit(y.id))
                bounds = tuple([i + j for i, j in zip(u, v)] for u, v in zip(hx, hy))
                d = [i + j for i, j in zip(x.rep.dims, y.rep.dims)]
                want = [b for b in ar.module_classes(d)
                        if all(all(h <= m for h, m in zip(vec, bound))
                               for vec, bound in zip(ar.hom_vectors(b), bounds))]
                assert list(ar.module_classes(d, bounds)) == want, (name, x.id, y.id)

    def test_shared_hom_vector_raises(self, algebras):
        """identify checks only the diagonal of the Hom matrix; a doctored
        entry below it gives P1 and S1 + S2 one into-vector, and building
        either separating set must fail instead of looping."""
        ar = knit(algebras["a2"], 2)
        ar.hom_matrix()[ar.order.index("1-0")][ar.order.index("1-1")] = 1
        assert ar.hom_vectors(P1)[0] == ar.hom_vectors(SPLIT)[0]
        for mv in (P1, SPLIT):
            with pytest.raises(NonUnitriangularHomMatrix):
                ar.separating_set(mv)


class TestClosedFormAut:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["a3", "d4", "csquare"])
    def test_matches_enumeration(self, algebras, name, p):
        """``class_aut_order`` against ``reps.aut_order`` on every class
        whose dimension-vector entries are at most 2 and whose endomorphism
        enumeration fits 20,000 maps."""
        ar = knit(algebras[name], p)
        checked = 0
        for d in itertools.product(range(3), repeat=len(ar.spec.vertices)):
            for mv in ar.module_classes(d):
                into = ar.hom_vectors(mv)[0]
                end = sum(n * into[ar.order.index(x)] for x, n in mv.items())
                if p ** end > 20_000:
                    continue
                assert ar.class_aut_order(mv) == aut_order(ar.class_module(mv)), \
                    mv.render()
                checked += 1
        assert checked > 0
