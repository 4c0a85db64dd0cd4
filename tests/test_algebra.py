import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hallie
from hallie.algebra import (Arrow, Path, Quiver, Relation, _all_paths, _compose,
                            compute_path_basis, load_algebra, parse_algebra,
                            projective_rep)
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


def rational_path_basis(quiver, relations):
    """Reference for ``compute_path_basis``: the path basis by Gaussian
    elimination over Q of the padded relation generators, per (source,
    target) pair, with columns in descending ``Path.sort_key`` order so that
    the free column of a coset is its shortest, lexicographically smallest
    path.  Rewrite coefficients are left as the elimination gives them."""
    paths = _all_paths(quiver)
    longest = max((len(q) for q in paths), default=0)
    by_pair = {}
    for q in paths:
        by_pair.setdefault((q.source, q.target), []).append(q)
    elements = {}
    for rel in relations:
        terms = [(1, rel.lhs)] if rel.kind == "zero" else [(1, rel.lhs), (-1, rel.rhs)]
        src, dst = rel.lhs.source, rel.lhs.target
        for x in (q for q in paths if q.source == dst):
            for y in (q for q in paths if q.target == src):
                elem = {}
                for coeff, mid in terms:
                    w = _compose(x, _compose(mid, y))
                    elem[w] = elem.get(w, 0) + coeff
                elements.setdefault((y.source, x.target), []).append(elem)
    basis, rewrites = [], {}
    for pair, pair_paths in by_pair.items():
        cols = sorted(pair_paths, key=lambda q: q.sort_key(), reverse=True)
        col_of = {q: i for i, q in enumerate(cols)}
        rows = [[Fraction(0)] * len(cols) for _ in elements.get(pair, [])]
        for row, elem in zip(rows, elements.get(pair, [])):
            for q, c in elem.items():
                row[col_of[q]] += c
        pivots = []
        r = 0
        for c in range(len(cols)):
            pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            rows[r] = [x / rows[r][c] for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        for i, c in enumerate(pivots):
            rewrites[cols[c]] = tuple((-val, cols[j]) for j, val in enumerate(rows[i])
                                      if j != c and val)
        for q in cols:
            if col_of[q] not in pivots:
                rewrites[q] = ((1, q),)
                basis.append(q)
    basis.sort(key=lambda q: (len(q), quiver.vertices.index(q.source), q.arrows))
    return tuple(basis), rewrites, longest


def grid(rows, cols):
    """The commuting rows x cols grid: vertices "i,j", arrows h(i,j) to the
    right and v(i,j) downwards, every square commuting."""
    vertices = tuple(f"{i},{j}" for i in range(rows) for j in range(cols))
    arrows = [Arrow(f"h{i}{j}", f"{i},{j}", f"{i},{j + 1}")
              for i in range(rows) for j in range(cols - 1)]
    arrows += [Arrow(f"v{i}{j}", f"{i},{j}", f"{i + 1},{j}")
               for i in range(rows - 1) for j in range(cols)]
    quiver = Quiver(vertices, tuple(arrows))
    square = tuple(Relation("commutativity",
                       Path((f"h{i + 1}{j}", f"v{i}{j}"), f"{i},{j}", f"{i + 1},{j + 1}"),
                       Path((f"v{i}{j + 1}", f"h{i}{j}"), f"{i},{j}", f"{i + 1},{j + 1}"))
              for i in range(rows - 1) for j in range(cols - 1))
    return quiver, square


@st.composite
def bound_quivers(draw):
    """An acyclic quiver on up to 7 vertices (arrows go from a lower to a
    higher vertex, parallel arrows allowed) with 1-5 zero or commutativity
    relations among its paths of length at least 2."""
    n = draw(st.integers(2, 7))
    arrow = st.integers(0, n - 2).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(s + 1, n - 1)))
    ends = draw(st.lists(arrow, min_size=2, max_size=9))
    quiver = Quiver(tuple(str(v) for v in range(n)),
                    tuple(Arrow(f"a{k}", str(s), str(t)) for k, (s, t) in enumerate(ends)))
    long_paths = [q for q in _all_paths(quiver) if len(q) >= 2]
    if not long_paths:
        return quiver, ()
    relations = []
    for _ in range(draw(st.integers(1, 5))):
        lhs = draw(st.sampled_from(long_paths))
        parallel = [q for q in long_paths if q != lhs
                    and (q.source, q.target) == (lhs.source, lhs.target)]
        if parallel and draw(st.booleans()):
            relations.append(Relation("commutativity", lhs, draw(st.sampled_from(parallel))))
        else:
            relations.append(Relation("zero", lhs))
    return quiver, tuple(relations)


@st.composite
def bound_grids(draw):
    """A commuting grid up to 3 x 4 with 0-3 zero relations of length >= 2."""
    quiver, square = grid(draw(st.integers(1, 3)), draw(st.integers(2, 4)))
    long_paths = [q for q in _all_paths(quiver) if len(q) >= 2]
    zeros = draw(st.lists(st.sampled_from(long_paths), max_size=3)) if long_paths else []
    return quiver, square + tuple(Relation("zero", q) for q in zeros)


class TestPathBasisOracle:
    """``compute_path_basis`` (commutativity classes) against the elimination
    over Q: the same basis in the same order, the same rewrites, the same
    longest path."""

    def test_shipped_algebras_and_ladder(self, algebras):
        specs = dict(algebras, ladder=parse_algebra(LADDER))
        for name, spec in specs.items():
            got = compute_path_basis(spec.quiver, spec.relations)
            assert got == rational_path_basis(spec.quiver, spec.relations), name
            assert got == (spec.path_basis, spec.rewrites, spec.nilpotency_bound), name

    @pytest.mark.parametrize("zero", [["c", "a"], ["d", "b"]])
    def test_a_zero_side_kills_the_whole_class(self, zero):
        with open(hallie.example_algebra_path("csquare"), encoding="utf-8") as fh:
            square = json.load(fh)
        square["relations"].append({"kind": "zero", "path": zero})
        spec = parse_algebra(json.dumps(square))
        assert [q for q in spec.path_basis if len(q) == 2] == []
        assert spec.rewrites[Path(("c", "a"), "1", "4")] == ()
        assert spec.rewrites[Path(("d", "b"), "1", "4")] == ()
        assert compute_path_basis(spec.quiver, spec.relations) == \
            rational_path_basis(spec.quiver, spec.relations)

    @given(bound_quivers())
    @settings(max_examples=300, deadline=None)
    def test_random_relation_systems(self, system):
        quiver, relations = system
        assert compute_path_basis(quiver, relations) == rational_path_basis(quiver, relations)

    @given(bound_grids())
    @settings(max_examples=100, deadline=None)
    def test_commuting_grids_with_zero_relations(self, system):
        quiver, relations = system
        assert compute_path_basis(quiver, relations) == rational_path_basis(quiver, relations)

    def test_full_commuting_grid(self):
        quiver, square = grid(3, 4)
        basis, rewrites, longest = compute_path_basis(quiver, square)
        assert (basis, rewrites, longest) == rational_path_basis(quiver, square)
        # one basis path per pair of comparable vertices, none vanishing
        assert len(basis) == sum((3 - i) * (4 - j) for i in range(3) for j in range(4))
        assert all(rewrites[q] for q in _all_paths(quiver))
