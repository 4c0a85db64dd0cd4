import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallie.algebra import parse_algebra
from hallie.errors import (FieldDependenceDetected, IsProjective,
                           NonUnitriangularHomMatrix, NotRepresentationFinite)
from hallie.hall import closed_subspace_tuples
from hallie.knit import ar_sequence, ar_to_doc, check_field_independence, knit
from hallie import liealg
from hallie.linalg import _block_tally
from hallie.hall import ARFamily
from hallie.liealg import enumerate_module_classes, hall_lie_table
from hallie.reps import (MultiplicityVector, aut_order, check_relations, hom_dim,
                         identify, quotient_by_subtuple, restrict_to_subtuple)

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
        assert seq.translate == "0-1"
        assert seq.middles == ("1-1",)

    def test_a3_path_sequence(self, knits):
        # 0 -> S_3 -> P_2 -> S_2 -> 0 in the equioriented A3
        seq = ar_sequence(knits["a3"], "0-1-0")
        assert seq.translate == "0-0-1"
        assert seq.middles == ("0-1-1",)

    def test_d4_triple_middle(self, knits):
        seq = ar_sequence(knits["d4"], "1-1-1-1")
        assert seq.translate == "1-1-1-2"
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
        """verify compares the quivers its family already knitted
        (``share_memos``); a doctored translate over one prime must fail
        the comparison, although the order and the Hom matrix agree."""
        quivers = {p: knit(algebras["a2"], p) for p in (2, 3)}
        quivers[3].share_memos(quivers[2])
        quivers[3].tau["1-0"] = "1-1"
        assert quivers[3].order == quivers[2].order
        with pytest.raises(FieldDependenceDetected, match="F_3"):
            quivers[3].share_memos(quivers[2])


class TestLimits:
    def test_representation_infinite_input_fails_fast(self):
        # four subspace quiver: tame, representation-infinite, schurian
        doc = {"vertices": ["1", "2", "3", "4", "5"],
               "arrows": [{"id": a, "from": v, "to": "5"}
                          for a, v in zip("abcd", "1234")],
               "relations": []}
        spec = parse_algebra(json.dumps(doc))
        with pytest.raises(NotRepresentationFinite):
            knit(spec, 2, max_vertices=40)


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


def _knapsack(ar, d):
    """Every class of dimension vector d by the plain knapsack over all
    knitted vertices in their order, count 0 first: the reference for
    ``ARQuiver.module_classes``."""
    out = []

    def recurse(pos, remaining, acc):
        if pos == len(ar.vertices):
            if not any(remaining):
                out.append(MultiplicityVector(acc))
            return
        v = ar.vertices[pos]
        top = min((r // x for x, r in zip(v.rep.dims, remaining) if x), default=0)
        for n in range(top + 1):
            recurse(pos + 1, tuple(r - n * x for x, r in zip(v.rep.dims, remaining)),
                    acc + [(v.id, n)])

    recurse(0, tuple(d), [])
    return out


def _below(ar, d, bounds):
    """The reference classes of d whose Hom vectors lie below ``bounds``."""
    return [b for b in _knapsack(ar, d)
            if all(h <= m for vec, bound in zip(ar.hom_vectors(b), bounds)
                   for h, m in zip(vec, bound))]


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
        assert identify(m3, ar3) == P1
        with pytest.raises(ValueError):
            identify(m3, ar2)  # an F_3 module is not identified over F_2

    def test_separating_sets_separate(self, knits):
        """The distinguishing set of the all-ones dimension vector, on the
        into side and on the out-of side, tells every class from every
        other, and its table maps each restricted vector to its class."""
        for name, ar in knits.items():
            d = (1,) * len(ar.spec.vertices)
            for side in (0, 1):
                coords, table = ar.distinguishing_set(d, outof=bool(side))
                for mv in ar.module_classes(d):
                    vec = ar.hom_vectors(mv)[side]
                    assert table[tuple(vec[k] for k in coords)] == mv
                    for other in ar.module_classes(d):
                        if other != mv:
                            rival = ar.hom_vectors(other)[side]
                            assert any(rival[k] != vec[k] for k in coords), (name, mv)

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

    @pytest.mark.parametrize("name", sorted(EXPECTED_VERTEX_COUNTS))
    def test_hall_product_bounds_match_the_reference_knapsack(self, algebras,
                                                               monkeypatch, name):
        """Every (d, bounds) that ``hall_product`` forms while building the
        Hall table, on a quiver over the same prime that has not seen
        them: the bounded list is the reference's filtered list, in order,
        and the unbounded list is the reference's."""
        formed = []
        real = liealg.enumerate_module_classes
        monkeypatch.setattr(liealg, "enumerate_module_classes", lambda ar, d, bounds=None: (
            formed.append((tuple(d), bounds)) or real(ar, d, bounds)))
        family = ARFamily(algebras[name])
        hall_lie_table(family)
        ar = knit(algebras[name], family.reference_quiver().field.p)
        assert formed or name == "point"
        for d, bounds in formed:
            assert list(ar.module_classes(d, bounds)) == _below(ar, d, bounds), (d, bounds)
            assert list(ar.module_classes(d)) == _knapsack(ar, d)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["a3", "a3_bound", "csquare", "d4"]), st.data())
    def test_random_bounds_match_the_reference_knapsack(self, knits, name, data):
        ar = knits[name]
        n, width = len(ar.vertices), len(ar.spec.vertices)
        d = data.draw(st.lists(st.integers(0, 2), min_size=width, max_size=width))
        bounds = [data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
                  for _ in range(2)]
        assert list(ar.module_classes(d, bounds)) == _below(ar, d, bounds)

    def test_shared_hom_vector_raises(self, algebras):
        """identify checks only the diagonal of the Hom matrix; a doctored
        entry below it gives P1 and S1 + S2 one into-vector, and building
        the into-side distinguishing set of their dimension vector must
        fail instead of looping."""
        ar = knit(algebras["a2"], 2)
        ar.hom_matrix()[ar.order.index("1-0")][ar.order.index("1-1")] = 1
        assert ar.hom_vectors(P1)[0] == ar.hom_vectors(SPLIT)[0]
        with pytest.raises(NonUnitriangularHomMatrix):
            ar.distinguishing_set((1, 1))


class TestHomFrame:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["a2", "a3", "a3_bound", "csquare", "d4"])
    def test_vectors_match_built_modules(self, algebras, name, p):
        """The frame's Hom vectors of every closed subspace tuple of every
        class module of total dimension at most 4 against hom_dim on the
        sub and the quotient built from the tuple, on every knitted
        vertex."""
        ar = knit(algebras[name], p)
        xs = [v.rep for v in ar.vertices]
        every = range(len(xs))
        checked = 0
        for d in itertools.product(range(5), repeat=len(ar.spec.vertices)):
            if not 0 < sum(d) <= 4:
                continue
            for mv in ar.module_classes(d):
                m = ar.class_module(mv)
                frame = ar.hom_frame(m)
                for tup in closed_subspace_tuples(m):
                    sub, _ = restrict_to_subtuple(m, tup)
                    quot, _ = quotient_by_subtuple(m, tup)
                    assert frame.into_vector(tup.key(), every) == [
                        hom_dim(x, sub) for x in xs], (mv.render(), tup.dims)
                    assert frame.outof_vector(tup.key(), every) == [
                        hom_dim(quot, x) for x in xs], (mv.render(), tup.dims)
                    checked += 1
        assert checked > 0


class TestFrameTallies:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["a2", "a3", "csquare"])
    def test_tally_is_a_fresh_block_tally(self, algebras, name, p):
        """Each tally the frame keeps for the hom route equals a fresh
        ``_block_tally`` of its (k, n), asked n = 1 first so that a memo
        that dropped the multiplicity would answer n = 2 wrongly."""
        ar = knit(algebras[name], p)
        nonempty = 0
        for d in itertools.product(range(4), repeat=len(ar.spec.vertices)):
            for mv in ar.module_classes(d) if 0 < sum(d) <= 3 else ():
                m = ar.class_module(mv)
                frame = ar.hom_frame(m)
                for k, v in enumerate(ar.vertices):
                    for n in (1, 2):
                        tally = frame.tally(k, n)
                        fresh = _block_tally(n, v.rep.dims, frame.into_basis(k),
                                             m.dims, m.field)
                        assert tally == fresh, (mv.render(), k, n)
                        assert frame.tally(k, n) is tally
                        nonempty += bool(tally)
        assert nonempty > 0


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
