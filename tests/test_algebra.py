import json

import pytest

import hallie
from hallie.algebra import Path, load_algebra, parse_algebra, projective_rep
from hallie.errors import (CyclicQuiver, InadmissibleRelation,
                           NonSchurianWarning, ParseError)
from hallie.knit import knit
from hallie.reps import check_relations


def doc(vertices, arrows, relations=()):
    return json.dumps({"vertices": vertices, "arrows": arrows,
                       "relations": list(relations)})


A3_BOUND = doc(["1", "2", "3"],
               [{"id": "a", "from": "1", "to": "2"},
                {"id": "b", "from": "2", "to": "3"}],
               [{"kind": "zero", "path": ["b", "a"]}])

# 2x3 commutative ladder: 1 -a-> 2 -b-> 3 over 4 -c-> 5 -d-> 6, rungs u, v, w,
# both squares commuting.  The three paths 1 -> 6 span one coset.
LADDER = doc(["1", "2", "3", "4", "5", "6"],
             [{"id": "a", "from": "1", "to": "2"},
              {"id": "b", "from": "2", "to": "3"},
              {"id": "c", "from": "4", "to": "5"},
              {"id": "d", "from": "5", "to": "6"},
              {"id": "u", "from": "1", "to": "4"},
              {"id": "v", "from": "2", "to": "5"},
              {"id": "w", "from": "3", "to": "6"}],
             [{"kind": "commutativity", "lhs": ["v", "a"], "rhs": ["c", "u"]},
              {"kind": "commutativity", "lhs": ["w", "b"], "rhs": ["d", "v"]}])


class TestParsing:
    def test_point_algebra(self):
        spec = parse_algebra(doc(["1"], []))
        assert spec.path_basis == (Path((), "1", "1"),)
        assert spec.dimension == 1
        assert spec.nilpotency_bound == 0

    def test_a2(self):
        spec = parse_algebra(doc(["1", "2"], [{"id": "a", "from": "1", "to": "2"}]))
        assert spec.dimension == 3
        assert set(spec.path_basis) == {
            Path((), "1", "1"), Path((), "2", "2"), Path(("a",), "1", "2")}

    def test_a3_with_zero_relation(self):
        spec = parse_algebra(A3_BOUND)
        assert spec.dimension == 5
        assert Path(("b", "a"), "1", "3") not in spec.path_basis
        assert spec.nilpotency_bound == 2

    def test_commutative_square(self):
        spec = load_algebra(hallie.example_algebra_path("csquare"))
        assert spec.dimension == 9
        # exactly one representative for the two parallel length-2 paths,
        # and the tie-break keeps the lexicographically smaller one
        long_paths = [q for q in spec.path_basis if len(q) == 2]
        assert long_paths == [Path(("c", "a"), "1", "4")]
        assert spec.rewrites[Path(("d", "b"), "1", "4")] == \
            ((1, Path(("c", "a"), "1", "4")),)

    def test_rejects_cycle(self):
        with pytest.raises(CyclicQuiver):
            parse_algebra(doc(["1", "2"],
                              [{"id": "a", "from": "1", "to": "2"},
                               {"id": "b", "from": "2", "to": "1"}]))

    def test_rejects_short_relation(self):
        with pytest.raises(InadmissibleRelation):
            parse_algebra(doc(["1", "2"], [{"id": "a", "from": "1", "to": "2"}],
                              [{"kind": "zero", "path": ["a"]}]))

    def test_rejects_non_parallel_commutativity(self):
        with pytest.raises(InadmissibleRelation):
            parse_algebra(doc(
                ["1", "2", "3", "4"],
                [{"id": "a", "from": "1", "to": "2"},
                 {"id": "b", "from": "2", "to": "3"},
                 {"id": "c", "from": "2", "to": "4"}],
                [{"kind": "commutativity", "lhs": ["b", "a"], "rhs": ["c", "a"]}]))

    def test_rejects_malformed(self):
        with pytest.raises(ParseError):
            parse_algebra("not json at all {")
        with pytest.raises(ParseError):
            parse_algebra(doc([], []))
        with pytest.raises(ParseError):
            parse_algebra(doc(["1", "1"], []))
        with pytest.raises(ParseError):
            parse_algebra(doc(["1"], [{"id": "a", "from": "1", "to": "9"}]))
        for arrows in (5, None):
            with pytest.raises(ParseError, match="'arrows' must be a list"):
                parse_algebra(json.dumps({"vertices": ["1"], "arrows": arrows}))
        with pytest.raises(ParseError, match="'relations' must be a list"):
            parse_algebra(json.dumps({"vertices": ["1"], "relations": None}))
        with pytest.raises(ParseError, match="vertex ids must be strings"):
            parse_algebra(doc(["1", 2], []))
        for arrow in ({"id": 7, "from": "1", "to": "2"},
                      {"id": "a", "from": 1, "to": "2"}):
            with pytest.raises(ParseError, match="must be strings"):
                parse_algebra(doc(["1", "2"], [arrow]))
        edge = [{"id": "a", "from": "1", "to": "2"}]
        for path in (5, ["a", ["x"]], "a", [1]):
            with pytest.raises(ParseError, match="list of arrow ids"):
                parse_algebra(doc(["1", "2"], edge, [{"kind": "zero", "path": path}]))

    def test_rejects_unknown_arrow_in_relation(self):
        with pytest.raises(ParseError):
            parse_algebra(doc(["1", "2"], [{"id": "a", "from": "1", "to": "2"}],
                              [{"kind": "zero", "path": ["z", "a"]}]))

    def test_rejects_non_composable_path(self):
        with pytest.raises(ParseError):
            parse_algebra(doc(["1", "2", "3"],
                              [{"id": "a", "from": "1", "to": "2"},
                               {"id": "b", "from": "1", "to": "3"}],
                              [{"kind": "zero", "path": ["b", "a"]}]))

    def test_non_schurian_warning(self):
        kronecker = doc(["1", "2"],
                        [{"id": "a", "from": "1", "to": "2"},
                         {"id": "b", "from": "1", "to": "2"}])
        with pytest.warns(NonSchurianWarning):
            parse_algebra(kronecker)


class TestProjectives:
    def test_point(self):
        spec = parse_algebra(doc(["1"], []))
        p1 = projective_rep(spec, "1", 2)
        assert p1.dims == (1,)

    def test_a2(self):
        spec = parse_algebra(doc(["1", "2"], [{"id": "a", "from": "1", "to": "2"}]))
        p1 = projective_rep(spec, "1", 5)
        assert p1.dims == (1, 1)
        assert p1.maps["a"].rows == ((1,),)

    def test_a3_bound_radical_dies(self):
        spec = parse_algebra(A3_BOUND)
        p1 = projective_rep(spec, "1", 3)
        assert p1.dims == (1, 1, 0)

    def test_commutative_square_rewrite(self):
        spec = load_algebra(hallie.example_algebra_path("csquare"))
        p1 = projective_rep(spec, "1", 2)
        assert p1.dims == (1, 1, 1, 1)
        # both length-2 routes hit the same basis coset with coefficient 1
        assert p1.maps["c"].rows == ((1,),)
        assert p1.maps["d"].rows == ((1,),)


class TestCommutativeLadder:
    def test_rewrites_land_on_basis_paths(self):
        spec = parse_algebra(LADDER)
        basis = set(spec.path_basis)
        for path, terms in spec.rewrites.items():
            assert all(q in basis for _, q in terms), path
        dcu = Path(("d", "c", "u"), "1", "6")
        assert spec.rewrites[Path(("w", "b", "a"), "1", "6")] == ((1, dcu),)
        assert spec.rewrites[Path(("d", "v", "a"), "1", "6")] == ((1, dcu),)

    def test_projectives_and_knit_over_f2(self):
        spec = parse_algebra(LADDER)
        for x in spec.vertices:
            assert check_relations(projective_rep(spec, x, 2)), x
        ar = knit(spec, 2)
        dims = {v.rep.dims for v in ar.vertices}
        assert all(projective_rep(spec, x, 2).dims in dims for x in spec.vertices)


class TestProjectiveInvariants:
    @pytest.mark.parametrize("p", [2, 3])
    def test_relations_dims_and_total(self, algebras, p):
        for name, spec in algebras.items():
            dims_per_vertex = {}
            total = 0
            for x in spec.vertices:
                rep = projective_rep(spec, x, p)
                assert check_relations(rep), (name, x, p)
                dims_per_vertex[x] = rep.dims
                total += rep.total_dim
            assert total == spec.dimension, name
            # dimension vectors do not depend on the prime
            for x in spec.vertices:
                assert projective_rep(spec, x, 5).dims == dims_per_vertex[x]


class TestDerivedData:
    def test_injective_dim_vectors_a3_bound(self):
        spec = parse_algebra(A3_BOUND)
        inj = spec.injective_dim_vectors()
        assert inj["1"] == (1, 0, 0)
        assert inj["2"] == (1, 1, 0)
        assert inj["3"] == (0, 1, 1)

    def test_cartan_matrix_d4(self, algebras):
        cartan = algebras["d4"].cartan_matrix()
        assert cartan == ((2, 0, 0, -1), (0, 2, 0, -1), (0, 0, 2, -1),
                          (-1, -1, -1, 2))

    def test_topological_order(self, algebras):
        spec = algebras["csquare"]
        order = spec.topo_order
        pos = {v: i for i, v in enumerate(order)}
        for a in spec.quiver.arrows:
            assert pos[a.source] < pos[a.target]
