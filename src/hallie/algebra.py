"""Bound quiver algebras with integral relations.

An algebra is described by a JSON document:

    {"vertices": ["1", "2"],
     "arrows": [{"id": "a", "from": "1", "to": "2"}],
     "relations": [{"kind": "zero", "path": ["b", "a"]},
                   {"kind": "commutativity", "lhs": ["c", "a"], "rhs": ["d", "b"]}]}

Paths list arrow ids in composition order: the leftmost arrow is applied
last, so ``["b", "a"]`` means "first a, then b" and requires the target of
``a`` to equal the source of ``b``.

Relations are restricted to zero relations and commutativity relations
lhs = rhs, so the ideal they generate is spanned by differences of paths
and by paths.  The path basis is therefore the same over every field: one
shortest, lexicographically smallest path for each class of paths that
padded commutativity relations join and no padded zero relation reaches
(``compute_path_basis`` holds the argument).
"""

from __future__ import annotations

import json
import warnings
from typing import Sequence

from .errors import (CyclicQuiver, InadmissibleRelation, NonSchurianWarning,
                     ParseError)
from .linalg import FMatrix, PrimeField


class Path:
    """A path in the quiver; ``arrows`` in composition order (leftmost applied
    last).  Trivial paths have no arrows and equal source and target."""

    __slots__ = ("arrows", "source", "target")

    def __init__(self, arrows: tuple[str, ...], source: str, target: str):
        self.arrows = arrows
        self.source = source
        self.target = target

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Path) and (other.arrows, other.source, other.target)
                == (self.arrows, self.source, self.target))

    def __hash__(self) -> int:
        return hash((self.arrows, self.source, self.target))

    def __len__(self) -> int:
        return len(self.arrows)

    def sort_key(self) -> tuple:
        return (len(self.arrows), self.source, self.arrows)

    def __repr__(self) -> str:
        if not self.arrows:
            return f"e({self.source})"
        return "*".join(self.arrows)


class Arrow:
    __slots__ = ("id", "source", "target")

    def __init__(self, id: str, source: str, target: str):
        self.id = id
        self.source = source
        self.target = target


class Quiver:
    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]):
        self.vertices = vertices
        self.arrows = arrows


class Relation:
    __slots__ = ("kind", "lhs", "rhs")

    def __init__(self, kind: str, lhs: Path, rhs: Path | None = None):
        self.kind = kind  # "zero" | "commutativity"
        self.lhs = lhs
        self.rhs = rhs


class AlgebraSpec:
    """A validated bound quiver algebra with its computed path basis.

    ``rewrites`` sends every path to its expansion in basis paths, a tuple
    of (coefficient, basis path) pairs: ``((1, rep),)`` for a path whose
    class is represented by ``rep``, ``()`` for a path that is zero in the
    algebra.
    """

    __slots__ = ("quiver", "relations", "path_basis", "nilpotency_bound",
                 "rewrites", "topo_order")

    def __init__(self, quiver: Quiver, relations: tuple[Relation, ...],
                 path_basis: tuple[Path, ...], nilpotency_bound: int,
                 rewrites: dict[Path, tuple[tuple[int, Path], ...]],
                 topo_order: tuple[str, ...]):
        self.quiver = quiver
        self.relations = relations
        self.path_basis = path_basis
        self.nilpotency_bound = nilpotency_bound
        self.rewrites = rewrites
        self.topo_order = topo_order

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
    if not isinstance(ids, list) or not all(isinstance(aid, str) for aid in ids):
        raise ParseError(f"{where}: a path must be a list of arrow ids, got {ids!r}")
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


def _entries(doc: dict, key: str) -> list:
    """The list under ``key``, empty when the key is absent."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"{key!r} must be a list, got {entries!r}")
    return entries


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
    if not all(isinstance(v, str) for v in raw_vertices):
        raise ParseError(f"vertex ids must be strings, got {raw_vertices!r}")
    vertices = tuple(raw_vertices)
    if len(set(vertices)) != len(vertices):
        raise ParseError("duplicate vertex ids")

    arrows: list[Arrow] = []
    seen = set()
    for entry in _entries(doc, "arrows"):
        if not isinstance(entry, dict) or not {"id", "from", "to"} <= set(entry):
            raise ParseError(f"arrow entry {entry!r} needs keys id/from/to")
        aid, src, dst = entry["id"], entry["from"], entry["to"]
        if not all(isinstance(x, str) for x in (aid, src, dst)):
            raise ParseError(f"arrow entry {entry!r}: id/from/to must be strings")
        if aid in seen:
            raise ParseError(f"duplicate arrow id {aid!r}")
        if src not in vertices or dst not in vertices:
            raise ParseError(f"arrow {aid!r} has undeclared endpoint")
        seen.add(aid)
        arrows.append(Arrow(aid, src, dst))
    quiver = Quiver(vertices, tuple(arrows))
    topo = _toposort(vertices, arrows)

    relations: list[Relation] = []
    for entry in _entries(doc, "relations"):
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
    """Coset representatives of paths modulo the relation ideal I, with the
    rewrite of every path: ``((1, rep),)`` onto its class representative,
    or ``()`` when the path lies in I.

    Paths are joined into classes by the padded commutativity relations
    x·lhs·y ~ x·rhs·y (x, y paths); a class holding a padded zero relation
    x·r·y is zero; every other class is represented by its minimum under
    ``Path.sort_key`` (shortest, then lexicographically smallest).

    Why this is a basis over every field k.  I is spanned over k by the
    padded generators: differences of two paths of one class, and
    monomials of a zero class.  So every path is congruent modulo I to its
    class representative, or to 0 when its class is zero, and the
    representatives of the nonzero classes span kQ/I.  For a nonzero class
    C, the functional φ_C that is 1 on the paths of C and 0 on every other
    path kills every generator, hence I; it is 1 on C's representative and
    0 on every other one, so the representatives are independent modulo I.
    They are a basis of kQ/I over every k, and every rewrite has the
    coefficient 1.  Checked at run time: both sides of each relation
    rewrite alike, and a zero relation rewrites to ``()``.
    """
    paths = _all_paths(quiver)
    longest = max((len(q) for q in paths), default=0)
    parent = {q: q for q in paths}

    def find(q: Path) -> Path:
        q = parent[q]
        while parent[q] is not q:
            q = parent[q]
        return q

    zeros = []
    for rel in relations:
        lefts = [x for x in paths if x.source == rel.lhs.target]
        rights = [y for y in paths if y.target == rel.lhs.source]
        for x in lefts:
            for y in rights:
                w = _compose(x, _compose(rel.lhs, y))
                if rel.kind == "zero":
                    zeros.append(w)
                else:
                    parent[find(w)] = find(_compose(x, _compose(rel.rhs, y)))

    zero_roots = {find(w) for w in zeros}
    reps: dict[Path, Path] = {}
    for q in sorted(paths, key=Path.sort_key):
        reps.setdefault(find(q), q)
    rewrites = {q: () if find(q) in zero_roots else ((1, reps[find(q)]),)
                for q in paths}
    for rel in relations:
        assert rewrites[rel.lhs] == (() if rel.kind == "zero" else rewrites[rel.rhs]), rel
    basis = sorted((q for root, q in reps.items() if root not in zero_roots),
                   key=lambda q: (len(q), quiver.vertices.index(q.source), q.arrows))
    return tuple(basis), rewrites, longest


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
            for coeff, basis_path in spec.rewrites[extended]:
                rows[dst_index[basis_path]][j] = coeff % p
        maps[a.id] = FMatrix.from_rows(field, rows, ncols=len(src_paths))
    return Representation(spec, field, dims, maps)
