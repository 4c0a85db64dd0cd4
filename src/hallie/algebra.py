"""Bound quiver algebras with integral relations.

An algebra is described by a JSON document:

    {"vertices": ["1", "2"],
     "arrows": [{"id": "a", "from": "1", "to": "2"}],
     "relations": [{"kind": "zero", "path": ["b", "a"]},
                   {"kind": "commutativity", "lhs": ["c", "a"], "rhs": ["d", "b"]}]}

Paths list arrow ids in composition order: the leftmost arrow is applied
last, so ``["b", "a"]`` means "first a, then b" and requires the target of
``a`` to equal the source of ``b``.

Relations are restricted to zero relations and commutativity relations with
coefficients +1/-1.  This guarantees that the path basis computed over the
rationals stays a basis over every prime field: each excluded path rewrites
to another basis path (or to zero) with coefficient +1 or -1.  A violation
of that property is reported as NonIntegralRewrite rather than silently
producing field-dependent behaviour.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import (CyclicQuiver, InadmissibleRelation, NonIntegralRewrite,
                     NonSchurianWarning, ParseError)
from .linalg import FMatrix, PrimeField


@dataclass(frozen=True)
class Path:
    """A path in the quiver; ``arrows`` in composition order (leftmost applied
    last).  Trivial paths have no arrows and equal source and target."""

    arrows: tuple[str, ...]
    source: str
    target: str

    def __len__(self) -> int:
        return len(self.arrows)

    def sort_key(self) -> tuple:
        return (len(self.arrows), self.source, self.arrows)

    def __repr__(self) -> str:
        if not self.arrows:
            return f"e({self.source})"
        return "*".join(self.arrows)


@dataclass(frozen=True)
class Arrow:
    id: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]


@dataclass(frozen=True)
class Relation:
    kind: str  # "zero" | "commutativity"
    lhs: Path
    rhs: Path | None = None


@dataclass(frozen=True)
class AlgebraSpec:
    """A validated bound quiver algebra with its computed path basis.

    ``rewrites`` sends every path to its expansion in basis paths; entries
    are lists of (coefficient, basis path) with coefficients in {+1, -1}
    (an empty list means the path is zero in the algebra).
    """

    quiver: Quiver
    relations: tuple[Relation, ...]
    path_basis: tuple[Path, ...]
    nilpotency_bound: int
    rewrites: dict[Path, tuple[tuple[int, Path], ...]] = field(repr=False)
    topo_order: tuple[str, ...] = field(repr=False)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.quiver.vertices

    @property
    def dimension(self) -> int:
        return len(self.path_basis)

    def arrows_from(self, v: str) -> list[Arrow]:
        return [a for a in self.quiver.arrows if a.source == v]

    def arrows_into(self, v: str) -> list[Arrow]:
        return [a for a in self.quiver.arrows if a.target == v]

    def basis_paths(self, source: str, target: str) -> list[Path]:
        return [q for q in self.path_basis if q.source == source and q.target == target]

    def render_dim_id(self, dims: Sequence[int]) -> str:
        return "-".join(str(d) for d in dims)

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Symmetrized Cartan matrix of the underlying graph of the quiver."""
        n = len(self.vertices)
        index = {v: i for i, v in enumerate(self.vertices)}
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for a in self.quiver.arrows:
            i, j = index[a.source], index[a.target]
            m[i][j] -= 1
            m[j][i] -= 1
        return tuple(tuple(row) for row in m)

    def injective_dim_vectors(self) -> dict[str, tuple[int, ...]]:
        """Dimension vector of the indecomposable injective at each vertex:
        the count of basis paths into that vertex."""
        out = {}
        for y in self.vertices:
            out[y] = tuple(len(self.basis_paths(z, y)) for z in self.vertices)
        return out


def _toposort(vertices: Sequence[str], arrows: Sequence[Arrow]) -> tuple[str, ...]:
    indeg = {v: 0 for v in vertices}
    for a in arrows:
        indeg[a.target] += 1
    order: list[str] = []
    ready = [v for v in vertices if indeg[v] == 0]
    while ready:
        v = ready.pop(0)
        order.append(v)
        for a in arrows:
            if a.source == v:
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    ready.append(a.target)
    if len(order) != len(vertices):
        raise CyclicQuiver("the quiver contains a directed cycle")
    return tuple(order)


def _compose(left: Path, right: Path) -> Path:
    """left after right; requires right.target == left.source."""
    if right.target != left.source:
        raise ValueError("paths not composable")
    return Path(left.arrows + right.arrows, right.source, left.target)


def _all_paths(quiver: Quiver) -> list[Path]:
    by_len: list[list[Path]] = [[Path((), v, v) for v in quiver.vertices]]
    while by_len[-1]:
        nxt = []
        for q in by_len[-1]:
            for a in quiver.arrows:
                if a.source == q.target:
                    nxt.append(Path((a.id,) + q.arrows, q.source, a.target))
        if not nxt:
            break
        by_len.append(nxt)
    flat = [q for level in by_len for q in level]
    return flat


def _path_from_ids(quiver: Quiver, ids: Sequence[str], where: str) -> Path:
    if not ids:
        raise ParseError(f"{where}: empty path")
    arrows = {}
    for a in quiver.arrows:
        arrows[a.id] = a
    for aid in ids:
        if aid not in arrows:
            raise ParseError(f"{where}: unknown arrow id {aid!r}")
    # composition order: ids[-1] applied first
    for later, earlier in zip(ids, ids[1:]):
        if arrows[earlier].target != arrows[later].source:
            raise ParseError(
                f"{where}: arrows {earlier!r} -> {later!r} are not composable")
    return Path(tuple(ids), arrows[ids[-1]].source, arrows[ids[0]].target)


def parse_algebra(text: str) -> AlgebraSpec:
    """Parse and validate an algebra document; compute the path basis."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")

    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise ParseError("'vertices' must be a non-empty list")
    vertices = tuple(str(v) for v in raw_vertices)
    if len(set(vertices)) != len(vertices):
        raise ParseError("duplicate vertex ids")

    arrows: list[Arrow] = []
    seen = set()
    for entry in doc.get("arrows", []):
        if not isinstance(entry, dict) or not {"id", "from", "to"} <= set(entry):
            raise ParseError(f"arrow entry {entry!r} needs keys id/from/to")
        aid, src, dst = str(entry["id"]), str(entry["from"]), str(entry["to"])
        if aid in seen:
            raise ParseError(f"duplicate arrow id {aid!r}")
        if src not in vertices or dst not in vertices:
            raise ParseError(f"arrow {aid!r} has undeclared endpoint")
        seen.add(aid)
        arrows.append(Arrow(aid, src, dst))
    quiver = Quiver(vertices, tuple(arrows))
    topo = _toposort(vertices, arrows)

    relations: list[Relation] = []
    for entry in doc.get("relations", []):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ParseError(f"relation entry {entry!r} needs a 'kind'")
        kind = entry["kind"]
        if kind == "zero":
            path = _path_from_ids(quiver, entry.get("path", []), "zero relation")
            if len(path) < 2:
                raise InadmissibleRelation(
                    f"zero relation {path!r} has length {len(path)} < 2")
            relations.append(Relation("zero", path))
        elif kind == "commutativity":
            lhs = _path_from_ids(quiver, entry.get("lhs", []), "commutativity lhs")
            rhs = _path_from_ids(quiver, entry.get("rhs", []), "commutativity rhs")
            if len(lhs) < 2 or len(rhs) < 2:
                raise InadmissibleRelation("commutativity sides must have length >= 2")
            if lhs.source != rhs.source or lhs.target != rhs.target:
                raise InadmissibleRelation(
                    f"commutativity pair {lhs!r} = {rhs!r} is not parallel")
            if lhs == rhs:
                raise InadmissibleRelation("commutativity relation with identical sides")
            relations.append(Relation("commutativity", lhs, rhs))
        else:
            raise ParseError(f"unknown relation kind {kind!r}")

    basis, rewrites, longest = compute_path_basis(quiver, tuple(relations))

    schurian_violations = [
        (s, t) for s in vertices for t in vertices
        if sum(1 for q in basis if q.source == s and q.target == t) > 1]
    if schurian_violations:
        warnings.warn(
            f"algebra is not schurian: multiple basis paths for {schurian_violations}",
            NonSchurianWarning, stacklevel=2)

    return AlgebraSpec(quiver=quiver, relations=tuple(relations),
                       path_basis=basis, nilpotency_bound=longest,
                       rewrites=rewrites, topo_order=topo)


def load_algebra(path: str) -> AlgebraSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def compute_path_basis(quiver: Quiver, relations: tuple[Relation, ...]):
    """Coset representatives of paths modulo the relation ideal.

    For each (source, target) pair the span of padded relation generators is
    eliminated exactly over the rationals; columns are ordered by descending
    length-then-lexicographic order so that the surviving representative of a
    coset is the shortest, lexicographically smallest path.  Every pivot row
    must have coefficients in {0, +1, -1}; anything else raises
    NonIntegralRewrite since the basis would not transfer to every prime.
    """
    paths = _all_paths(quiver)
    longest = max((len(q) for q in paths), default=0)
    by_pair: dict[tuple[str, str], list[Path]] = {}
    for q in paths:
        by_pair.setdefault((q.source, q.target), []).append(q)

    # padded relation elements, grouped by (source, target)
    elements: dict[tuple[str, str], list[dict[Path, int]]] = {}
    for rel in relations:
        terms = [(1, rel.lhs)] if rel.kind == "zero" else [(1, rel.lhs), (-1, rel.rhs)]
        src, dst = rel.lhs.source, rel.lhs.target
        lefts = [q for q in paths if q.source == dst]
        rights = [q for q in paths if q.target == src]
        for x in lefts:
            for y in rights:
                elem: dict[Path, int] = {}
                for coeff, mid in terms:
                    w = _compose(x, _compose(mid, y))
                    elem[w] = elem.get(w, 0) + coeff
                key = (y.source, x.target)
                elements.setdefault(key, []).append(elem)

    basis: list[Path] = []
    rewrites: dict[Path, tuple[tuple[int, Path], ...]] = {}
    for pair, pair_paths in by_pair.items():
        # descending (length, lex) so the preferred representative is never a pivot
        cols = sorted(pair_paths, key=lambda q: q.sort_key(), reverse=True)
        col_of = {q: i for i, q in enumerate(cols)}
        rows = [[Fraction(0)] * len(cols) for _ in elements.get(pair, [])]
        for row, elem in zip(rows, elements.get(pair, [])):
            for q, c in elem.items():
                row[col_of[q]] += c
        pivots = _rational_rref(rows)
        pivot_cols = {c for c, _ in pivots}
        pair_basis = [q for q in cols if col_of[q] not in pivot_cols]
        for c, row in pivots:
            terms = []
            for j, val in enumerate(row):
                if j == c or val == 0:
                    continue
                coeff = -val
                if coeff.denominator != 1 or coeff not in (-1, 1):
                    raise NonIntegralRewrite(
                        f"path {cols[c]!r} rewrites with coefficient {coeff}, "
                        "outside {+1, -1}; not instantiable over every prime")
                terms.append((int(coeff), cols[j]))
            rewrites[cols[c]] = tuple(terms)
        for q in pair_basis:
            rewrites[q] = ((1, q),)
        basis.extend(pair_basis)

    basis.sort(key=lambda q: (len(q), quiver.vertices.index(q.source), q.arrows))
    return tuple(basis), rewrites, longest


def _rational_rref(rows: list[list[Fraction]]) -> list[tuple[int, list[Fraction]]]:
    """In-place RREF over Q; returns (pivot column, reduced row) pairs.

    The rows are read only after the last elimination: a pivot row is
    replaced by a new list each time a later pivot clears its column.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [(c, rows[i]) for i, c in enumerate(pivots)]


def reduce_path(spec: AlgebraSpec, path: Path) -> tuple[tuple[int, Path], ...]:
    """Expansion of a path in the basis; empty tuple if the path is zero."""
    return spec.rewrites[path]


def projective_rep(spec: AlgebraSpec, x: str, p: int):
    """The indecomposable projective at vertex x, over F_p.

    The space at vertex y is spanned by the basis paths from x to y; an
    arrow acts by post-composition followed by rewriting into the basis.
    """
    from .reps import Representation  # local import to avoid a cycle

    if x not in spec.vertices:
        raise ValueError(f"unknown vertex {x!r}")
    field = PrimeField(p)
    bases = {y: spec.basis_paths(x, y) for y in spec.vertices}
    dims = tuple(len(bases[y]) for y in spec.vertices)
    maps = {}
    for a in spec.quiver.arrows:
        src_paths = bases[a.source]
        dst_paths = bases[a.target]
        dst_index = {q: i for i, q in enumerate(dst_paths)}
        rows = [[0] * len(src_paths) for _ in dst_paths]
        for j, q in enumerate(src_paths):
            extended = Path((a.id,) + q.arrows, q.source, a.target)
            for coeff, basis_path in reduce_path(spec, extended):
                rows[dst_index[basis_path]][j] = coeff % p
        maps[a.id] = FMatrix.from_rows(field, rows, ncols=len(src_paths))
    return Representation(spec, field, dims, maps)
