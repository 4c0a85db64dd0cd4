"""Arithmetic of representations of a bound quiver over a prime field.

A representation assigns to each vertex a column space F_p^d and to each
arrow a matrix (rows indexed by the target, columns by the source).  All
values are immutable; operations are pure functions.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .errors import (DecompositionBudgetExceeded, NegativeMultiplicity,
                     NonUnitriangularHomMatrix, NotClosed, ResourceBound)
from .linalg import (FMatrix, PrimeField, coords_in_rowspace, echelon,
                     injective_images, quotient_projection, reduce_vector,
                     row_space, rref, rref_pivots, scalar_orbits, solve_nullspace)

if TYPE_CHECKING:
    from .algebra import AlgebraSpec
    from .knit import ARQuiver

# Maps past which a walk of Hom raises ResourceBound: ``_first_in_span``,
# ``aut_order`` and ``hall.hall_numbers_hom``.
HOM_WALK_BOUND = 1_000_000


class Representation:
    """A module over the instantiated algebra: one matrix per arrow plus a
    dimension vector (indexed by the quiver's vertex order).

    Equality and hashing go by ``key()``, which is kept once computed, as
    nothing changes ``dims`` or ``maps``.
    """

    __slots__ = ("spec", "field", "dims", "maps", "_key")

    def __init__(self, spec: "AlgebraSpec", field: PrimeField,
                 dims: Sequence[int], maps: Mapping[str, FMatrix]):
        self.spec = spec
        self.field = field
        self.dims = tuple(dims)
        if len(self.dims) != len(spec.vertices) or any(d < 0 for d in self.dims):
            raise ValueError(f"bad dimension vector {dims!r}")
        index = {v: i for i, v in enumerate(spec.vertices)}
        checked = {}
        for a in spec.quiver.arrows:
            m = maps[a.id]
            want = (self.dims[index[a.target]], self.dims[index[a.source]])
            if m.shape != want:
                raise ValueError(f"arrow {a.id!r}: matrix {m.shape} != {want}")
            checked[a.id] = m
        self.maps = checked
        self._key: tuple | None = None

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def dim_id(self) -> str:
        return self.spec.render_dim_id(self.dims)

    def key(self) -> tuple:
        if self._key is None:
            self._key = (self.field.p, self.dims,
                         tuple(sorted((a, m.rows) for a, m in self.maps.items())))
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Representation) and other.key() == self.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Representation(p={self.field.p}, dim={self.dims})"


def zero_rep(spec: "AlgebraSpec", field: PrimeField) -> Representation:
    maps = {a.id: FMatrix.zeros(field, 0, 0) for a in spec.quiver.arrows}
    return Representation(spec, field, (0,) * len(spec.vertices), maps)


def simple_rep(spec: "AlgebraSpec", x: str, p: int) -> Representation:
    field = PrimeField(p)
    dims = tuple(1 if v == x else 0 for v in spec.vertices)
    index = {v: i for i, v in enumerate(spec.vertices)}
    maps = {a.id: FMatrix.zeros(field, dims[index[a.target]], dims[index[a.source]])
            for a in spec.quiver.arrows}
    return Representation(spec, field, dims, maps)


def path_matrix(m: Representation, arrows: Sequence[str]) -> FMatrix:
    """Composite of the arrow maps along a path (composition order: the last
    listed arrow acts first)."""
    spec = m.spec
    if not arrows:
        raise ValueError("empty path")
    out = m.maps[arrows[-1]]
    for aid in reversed(arrows[:-1]):
        out = m.maps[aid].mul(out)
    return out


def check_relations(m: Representation) -> bool:
    """True iff every relation holds as a matrix identity."""
    for rel in m.spec.relations:
        lhs = path_matrix(m, rel.lhs.arrows)
        if rel.kind == "zero":
            if not lhs.is_zero():
                return False
        else:
            if lhs != path_matrix(m, rel.rhs.arrows):
                return False
    return True


def direct_sum(spec: "AlgebraSpec", field: PrimeField,
               parts: Sequence[Representation]) -> Representation:
    """Block-diagonal sum; the empty sum is the zero representation."""
    for part in parts:
        if part.spec is not spec or part.field != field:
            raise ValueError("direct_sum over mixed spec or field")
    n = len(spec.vertices)
    index = {v: i for i, v in enumerate(spec.vertices)}
    dims = tuple(sum(part.dims[i] for part in parts) for i in range(n))
    maps = {}
    for a in spec.quiver.arrows:
        ti, si = index[a.target], index[a.source]
        rows = [[0] * dims[si] for _ in range(dims[ti])]
        roff = coff = 0
        for part in parts:
            block = part.maps[a.id]
            for i, row in enumerate(block.rows):
                for j, val in enumerate(row):
                    if val:
                        rows[roff + i][coff + j] = val
            roff += part.dims[ti]
            coff += part.dims[si]
        maps[a.id] = FMatrix.from_rows(field, rows, ncols=dims[si])
    return Representation(spec, field, dims, maps)


def summand_inclusions(spec: "AlgebraSpec", field: PrimeField,
                       parts: Sequence[Representation]) -> list[dict[str, FMatrix]]:
    """Vertex-indexed block inclusion maps of each part into the direct sum."""
    n = len(spec.vertices)
    totals = [sum(part.dims[i] for part in parts) for i in range(n)]
    out = []
    offset = [0] * n
    for part in parts:
        incl = {}
        for i, v in enumerate(spec.vertices):
            rows = [[0] * part.dims[i] for _ in range(totals[i])]
            for j in range(part.dims[i]):
                rows[offset[i] + j][j] = 1
            incl[v] = FMatrix.from_rows(field, rows, ncols=part.dims[i])
        out.append(incl)
        for i in range(n):
            offset[i] += part.dims[i]
    return out


# ---------------------------------------------------------------------------
# Hom spaces


def hom_space(m: Representation, n: Representation) -> list[dict[str, FMatrix]]:
    """A basis of the intertwiner space Hom(m, n).

    Each element is a vertex-indexed tuple of matrices (f_x) satisfying
    f_t . M_a = N_a . f_s for every arrow a: s -> t.
    """
    A = _hom_constraints(m, n)
    if A is None:
        return []
    kernel = solve_nullspace(A)
    return [_unflatten_hom(m, n, vec) for vec in kernel]


def hom_dim(m: Representation, n: Representation) -> int:
    A = _hom_constraints(m, n)
    if A is None:
        return 0
    return A.ncols - rref(A).rank


def _hom_constraints(m: Representation, n: Representation) -> FMatrix | None:
    """Constraint matrix whose kernel is Hom(m, n); None when the variable
    space itself is zero."""
    if m.spec is not n.spec or m.field != n.field:
        raise ValueError("hom_space over mixed spec or field")
    spec, field, p = m.spec, m.field, m.field.p
    verts = spec.vertices
    index = {v: i for i, v in enumerate(verts)}
    offsets = {}
    total = 0
    for i, v in enumerate(verts):
        offsets[v] = total
        total += n.dims[i] * m.dims[i]
    if total == 0:
        return None
    rows: list[tuple[int, ...]] = []
    for a in spec.quiver.arrows:
        s, t = a.source, a.target
        Ms, Na = m.maps[a.id], n.maps[a.id]
        nt, ms = n.dims[index[t]], m.dims[index[s]]
        mt, ns = m.dims[index[t]], n.dims[index[s]]
        if nt == 0 or ms == 0:
            continue
        for i in range(nt):
            for j in range(ms):
                row = [0] * total
                for k in range(mt):  # f_t[i, k] * Ms[k, j]
                    c = Ms.rows[k][j]
                    if c:
                        row[offsets[t] + i * mt + k] = c
                for k in range(ns):  # - Na[i, k] * f_s[k, j]
                    c = Na.rows[i][k]
                    if c:
                        pos = offsets[s] + k * ms + j
                        row[pos] = (row[pos] - c) % p
                rows.append(tuple(row))
    return FMatrix(field, len(rows), total, tuple(rows))


def _unflatten_hom(m: Representation, n: Representation,
                   vec: tuple[int, ...]) -> dict[str, FMatrix]:
    field = m.field
    out = {}
    pos = 0
    for i, v in enumerate(m.spec.vertices):
        nrows, ncols = n.dims[i], m.dims[i]
        rows = tuple(tuple(vec[pos + r * ncols + c] for c in range(ncols))
                     for r in range(nrows))
        out[v] = FMatrix(field, nrows, ncols, rows)
        pos += nrows * ncols
    return out


# ---------------------------------------------------------------------------
# Extensions


class ExtSpace:
    """Ext¹(c, a) as cocycles modulo coboundaries.

    A cocycle z is one block Z_α: c_{s(α)} -> a_{t(α)} per arrow, flattened
    row-major in the quiver's arrow order (``middle_term`` reads it back).
    ``basis`` spans a complement of the coboundaries in the cocycles, so its
    F_p-combinations are the extension classes, each exactly once;
    ``hom_dim`` is dim ker δ = dim Hom(c, a).
    """

    __slots__ = ("basis", "hom_dim")

    def __init__(self, basis: tuple[tuple[int, ...], ...], hom_dim: int):
        self.basis = basis
        self.hom_dim = hom_dim

    @property
    def dim(self) -> int:
        return len(self.basis)


def _cocycle_offsets(a: Representation, c: Representation) -> tuple[dict[str, int], int]:
    """Start of each arrow's block Z_α (a_{t(α)} x c_{s(α)}) in a flat cocycle."""
    index = {v: i for i, v in enumerate(a.spec.vertices)}
    offsets, total = {}, 0
    for al in a.spec.quiver.arrows:
        offsets[al.id] = total
        total += a.dims[index[al.target]] * c.dims[index[al.source]]
    return offsets, total


def ext_space(c: Representation, a: Representation) -> ExtSpace:
    """Ext¹(c, a) from block upper-triangular representations.

    Every extension 0 -> a -> b -> c -> 0 is, after a choice of vector-space
    splitting b_x = a_x ⊕ c_x, the representation with arrow maps
    [[A_α, Z_α], [0, C_α]].  Its path maps are again block upper-triangular,
    with off-diagonal block Σ_j A_{left of j} Z_{α_j} C_{right of j} along
    the path: linear in Z, because no product of blocks can hold two Zs.
    So the relations of the algebra cut out a linear space of cocycles (a
    zero relation asks the block to vanish, a commutativity relation asks
    the two blocks to agree; a and c satisfy the relations already).  Two
    cocycles give equivalent extensions iff they differ by a coboundary
    δ(f)_α = A_α f_{s(α)} − f_{t(α)} C_α, f ∈ ⊕_x Hom(c_x, a_x), and
    ker δ = Hom(c, a).
    """
    if a.spec is not c.spec or a.field != c.field:
        raise ValueError("ext_space over mixed spec or field")
    spec, field, p = a.spec, a.field, a.field.p
    inv = field.inverses
    index = {v: i for i, v in enumerate(spec.vertices)}
    offsets, total = _cocycle_offsets(a, c)

    constraints: list[list[int]] = []
    for rel in spec.relations:
        nt = a.dims[index[rel.lhs.target]]
        ns = c.dims[index[rel.lhs.source]]
        forms = [[0] * total for _ in range(nt * ns)]
        sides = [(1, rel.lhs)] + ([(-1, rel.rhs)] if rel.kind == "commutativity" else [])
        for sign, path in sides:
            ids = path.arrows
            for j, aid in enumerate(ids):
                left = (path_matrix(a, ids[:j]) if j
                        else FMatrix.identity(field, nt))
                right = (path_matrix(c, ids[j + 1:]) if j + 1 < len(ids)
                         else FMatrix.identity(field, ns))
                width, base = right.nrows, offsets[aid]
                for i, lrow in enumerate(left.rows):
                    for r, lval in enumerate(lrow):
                        if not lval:
                            continue
                        for s, rrow in enumerate(right.rows):
                            var = base + r * width + s
                            for k, rval in enumerate(rrow):
                                if rval:
                                    forms[i * ns + k][var] += sign * lval * rval
        constraints.extend([x % p for x in form] for form in forms)
    if constraints and total:
        cocycles = solve_nullspace(FMatrix(field, len(constraints), total,
                                           tuple(map(tuple, constraints))))
    else:
        cocycles = [tuple(int(i == j) for j in range(total)) for i in range(total)]

    coboundaries = []
    for x, v in enumerate(spec.vertices):
        for r in range(a.dims[x]):
            for s in range(c.dims[x]):
                vec = [0] * total
                for al in spec.quiver.arrows:
                    if al.source == v:  # A_α E_rs: column r of A_α in column s
                        width = c.dims[x]
                        for i, row in enumerate(a.maps[al.id].rows):
                            if row[r]:
                                vec[offsets[al.id] + i * width + s] += row[r]
                    if al.target == v:  # − E_rs C_α: minus row s of C_α in row r
                        width = c.dims[index[al.source]]
                        for k, val in enumerate(c.maps[al.id].rows[s]):
                            if val:
                                vec[offsets[al.id] + r * width + k] -= val
                coboundaries.append([val % p for val in vec])
    pivots = echelon(coboundaries, p, inv)
    hom = len(coboundaries) - len(pivots)

    # Clear the coboundary pivot columns from each cocycle: a nonzero
    # coboundary is nonzero on some pivot column, so what is left spans a
    # complement of the coboundaries inside the cocycles.
    span = list(zip(pivots, coboundaries))
    reduced = [list(reduce_vector(span, z, p)) for z in cocycles]
    rank = len(echelon(reduced, p, inv))
    return ExtSpace(tuple(tuple(z) for z in reduced[:rank]), hom)


def middle_term(a: Representation, c: Representation,
                cocycle: Sequence[int]) -> Representation:
    """The middle term of the extension of c by a with the given flat
    cocycle (layout of ``ext_space``): arrow maps [[A_α, Z_α], [0, C_α]] on
    a_x ⊕ c_x.  The zero cocycle gives ``direct_sum([a, c])``."""
    spec, field = a.spec, a.field
    index = {v: i for i, v in enumerate(spec.vertices)}
    offsets, _ = _cocycle_offsets(a, c)
    dims = tuple(x + y for x, y in zip(a.dims, c.dims))
    maps = {}
    for al in spec.quiver.arrows:
        s = index[al.source]
        width, base = c.dims[s], offsets[al.id]
        top = tuple(arow + tuple(cocycle[base + i * width:base + (i + 1) * width])
                    for i, arow in enumerate(a.maps[al.id].rows))
        pad = (0,) * a.dims[s]
        bottom = tuple(pad + crow for crow in c.maps[al.id].rows)
        maps[al.id] = FMatrix(field, len(top) + len(bottom), dims[s], top + bottom)
    return Representation(spec, field, dims, maps)


def hom_is_invertible(f: Mapping[str, FMatrix]) -> bool:
    return all(mat.nrows == mat.ncols and mat.rank() == mat.nrows
               for mat in f.values())


def compose_homs(outer: Mapping[str, FMatrix],
                 inner: Mapping[str, FMatrix]) -> dict[str, FMatrix]:
    return {v: outer[v].mul(inner[v]) for v in outer}


def _first_in_span(m: Representation, n: Representation,
                   test: Callable[[dict[str, FMatrix]], object],
                   error: type[ResourceBound]):
    """What ``test`` returns on the first map of Hom(m, n) where it returns
    anything but None; None when no map gets that far.

    The walk runs over the kernel of ``_hom_constraints(m, n)`` with
    ``linalg.scalar_orbits``, one map per orbit of F_p^*: the zero map
    (counted, not tested), then the first basis element, the second, the
    second plus multiples of the first, and so on.  ``test`` must give the
    same verdict on f and λf.  Raises ``error`` once the summed orbit
    weights, the zero map included, pass ``HOM_WALK_BOUND``; the whole walk
    weighs p^{dim Hom(m, n)}.
    """
    A = _hom_constraints(m, n)
    kernel = solve_nullspace(A) if A is not None else []
    field, p = m.field, m.field.p
    shapes = list(zip(n.dims, m.dims))
    slots = [(i, r, c) for i, (nrows, ncols) in enumerate(shapes)
             for r in range(nrows) for c in range(ncols)]  # _unflatten_hom's layout
    deltas = [[(*slots[j], x) for j, x in enumerate(vec) if x] for vec in kernel]
    mats = [[[0] * ncols for _ in range(nrows)] for nrows, ncols in shapes]
    walked, bound = 0, HOM_WALK_BOUND
    for k, weight in enumerate(scalar_orbits(mats, deltas, p)):
        walked += weight
        if walked > bound:
            raise error(f"walk of Hom over F_{p} passes {bound} maps "
                        f"({p}^{len(kernel)} in all)")
        if k:
            f = {v: FMatrix(field, nrows, ncols, tuple(map(tuple, mat)))
                 for v, (nrows, ncols), mat in zip(m.spec.vertices, shapes, mats)}
            found = test(f)
            if found is not None:
                return found
    return None


def find_isomorphism(m: Representation, n: Representation) -> dict[str, FMatrix] | None:
    """An invertible intertwiner m -> n, or None.

    One walk of Hom(m, n) by ``_first_in_span``: f and λf are invertible
    together.  Raises ``ResourceBound`` once the walk passes
    ``HOM_WALK_BOUND`` maps.
    """
    if m.dims != n.dims:
        return None
    if m.total_dim == 0:
        return {v: FMatrix.zeros(m.field, 0, 0) for v in m.spec.vertices}
    return _first_in_span(m, n, lambda f: f if hom_is_invertible(f) else None,
                          ResourceBound)


# ---------------------------------------------------------------------------
# Subspace tuples, submodules and quotients


class SubspaceTuple:
    """Per-vertex subspace bases inside a target representation.

    Bases must be canonical reduced-echelon matrices.
    """

    __slots__ = ("target", "bases")

    def __init__(self, target: Representation, bases: tuple[FMatrix, ...]):
        for i, b in enumerate(bases):
            if b.ncols != target.dims[i] or b.nrows > target.dims[i]:
                raise ValueError("subspace basis shape mismatch")
            rref_pivots(b)
        self.target = target
        self.bases = bases  # indexed like spec.vertices; e_x rows, d_x cols

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.nrows for b in self.bases)

    def key(self) -> tuple:
        return tuple(b.rows for b in self.bases)


class SubQuot:
    __slots__ = ("sub", "quot", "inclusion", "projection")

    def __init__(self, sub: Representation, quot: Representation,
                 inclusion: dict[str, FMatrix], projection: dict[str, FMatrix]):
        self.sub = sub
        self.quot = quot
        self.inclusion = inclusion    # sub coords -> ambient coords (d x e)
        self.projection = projection  # ambient coords -> quotient coords ((d-e) x d)


def restrict_to_subtuple(m: Representation, u: SubspaceTuple):
    """The subrepresentation carried by an arrow-stable subspace tuple.

    Returns (sub, inclusion); raises NotClosed when some arrow map leaves
    the tuple.
    """
    spec, field = m.spec, m.field
    verts = spec.vertices
    index = {v: i for i, v in enumerate(verts)}
    sub_dims = u.dims
    pivots = [rref_pivots(b) for b in u.bases]
    maps = {}
    for a in spec.quiver.arrows:
        Bs, Bt = u.bases[index[a.source]], u.bases[index[a.target]]
        cols = []
        for row in Bs.rows:
            image = m.maps[a.id].apply(row)
            coords = coords_in_rowspace(Bt, pivots[index[a.target]], image)
            if coords is None:
                raise NotClosed(f"arrow {a.id!r} leaves the subspace tuple")
            cols.append(coords)
        rows = tuple(tuple(col[i] for col in cols) for i in range(Bt.nrows))
        maps[a.id] = FMatrix(field, Bt.nrows, Bs.nrows, rows)
    sub = Representation(spec, field, sub_dims, maps)
    inclusion = {v: u.bases[index[v]].transpose() for v in verts}
    return sub, inclusion


def quotient_by_subtuple(m: Representation, u: SubspaceTuple):
    """The quotient representation in the fixed complement basis (ambient
    coordinates at the non-pivot columns of each subspace basis).

    Returns (quot, projection): the projection at each vertex is
    ``linalg.quotient_projection`` of its basis, and the map of an arrow
    s -> t is the projected image P_t · M_a restricted to the complement
    columns of s.  Assumes the tuple is arrow-stable.
    """
    spec, field = m.spec, m.field
    index = {v: i for i, v in enumerate(spec.vertices)}
    projection = {v: quotient_projection(u.bases[i]) for v, i in index.items()}
    complements = {}
    for v, i in index.items():
        pivots = set(rref_pivots(u.bases[i]))
        complements[v] = [j for j in range(m.dims[i]) if j not in pivots]
    maps = {}
    for a in spec.quiver.arrows:
        cols = complements[a.source]
        image = projection[a.target].mul(m.maps[a.id])
        maps[a.id] = FMatrix(field, image.nrows, len(cols),
                             tuple(tuple(row[j] for j in cols) for row in image.rows))
    quot = Representation(spec, field, [len(complements[v]) for v in index], maps)
    return quot, projection


def sub_quotient(m: Representation, u: SubspaceTuple) -> SubQuot:
    """Split m along an arrow-stable subspace tuple; raises NotClosed when
    the tuple is not a subrepresentation."""
    sub, inclusion = restrict_to_subtuple(m, u)
    quot, projection = quotient_by_subtuple(m, u)
    return SubQuot(sub, quot, inclusion, projection)


# ---------------------------------------------------------------------------
# Direct-sum decomposition (Fitting splitting)


def _fitting_split(m: Representation, f: Mapping[str, FMatrix]):
    """Stable image/kernel tuples of f^N with N = total dimension, or None
    when f^N is zero or invertible (no splitting information)."""
    N = max(m.total_dim, 1)
    powered = {v: f[v].power(N) for v in f}
    img_rows = []
    ker_rows = []
    for i, v in enumerate(m.spec.vertices):
        img_rows.append(row_space(powered[v].transpose()))
        kernel = solve_nullspace(powered[v])
        ker_rows.append(row_space(FMatrix.from_rows(m.field, kernel, ncols=m.dims[i])))
    img_dim = sum(b.nrows for b in img_rows)
    if img_dim == 0 or img_dim == m.total_dim:
        return None
    return SubspaceTuple(m, tuple(img_rows)), SubspaceTuple(m, tuple(ker_rows))


def decompose_with_embeddings(m: Representation):
    """Split m into indecomposable summands with explicit embeddings.

    Returns a list of (summand, embedding) pairs where the embedding is a
    vertex-indexed matrix tuple into m.  A summand with dim End = 1 is
    indecomposable.  Any other is split along the stable image and kernel
    of f^N for the first endomorphism f that ``_first_in_span`` finds with
    f^N neither zero nor invertible, and is indecomposable when there is
    none.

    Why the walk is the certificate.  If m = U ⊕ V with U, V nonzero, the
    projection e onto U along V is an endomorphism with e^N = e, neither
    zero nor invertible.  f and λf (λ ≠ 0) have the same Fitting splitting
    and are invertible together, so walking one map per orbit of F_p^*
    sees every endomorphism.  A walk that finds no split shows that every
    endomorphism is nilpotent or invertible; then End(m) is local and m is
    indecomposable.  Raises ``DecompositionBudgetExceeded`` once a walk
    passes ``HOM_WALK_BOUND`` maps.
    """
    if m.is_zero():
        return []
    identity_embed = {v: FMatrix.identity(m.field, d)
                      for v, d in zip(m.spec.vertices, m.dims)}
    work = [(m, identity_embed)]
    out = []
    while work:
        rep, embed = work.pop(0)
        split = None
        if hom_dim(rep, rep) > 1:
            split = _first_in_span(rep, rep, partial(_fitting_split, rep),
                                   DecompositionBudgetExceeded)
        if split is None:
            out.append((rep, embed))
            continue
        for tup in split:
            part, incl = restrict_to_subtuple(rep, tup)
            work.append((part, compose_homs(embed, incl)))
    return out


def decompose(m: Representation) -> list[tuple[Representation, int]]:
    """Indecomposable summands with multiplicities.

    Summands are grouped by explicit isomorphism and ordered by descending
    total dimension, then dimension vector, so the output depends on m
    alone.
    """
    pieces = decompose_with_embeddings(m)
    groups: list[tuple[Representation, int]] = []
    for rep, _ in pieces:
        for i, (other, count) in enumerate(groups):
            if rep.dims == other.dims and find_isomorphism(other, rep) is not None:
                groups[i] = (other, count + 1)
                break
        else:
            groups.append((rep, 1))
    groups.sort(key=lambda pair: (-pair[0].total_dim, pair[0].dims))
    return groups


# ---------------------------------------------------------------------------
# Multiplicity vectors and identification against a knitted AR quiver


class MultiplicityVector:
    """A finite-support multiset of AR-quiver vertex ids (immutable)."""

    __slots__ = ("_items", "_hash")

    def __init__(self, counts: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        if isinstance(counts, Mapping):
            items = counts.items()
        else:
            items = counts
        cleaned = {}
        for key, val in items:
            if val < 0:
                raise ValueError("negative multiplicity")
            if val:
                cleaned[key] = cleaned.get(key, 0) + val
        self._items = tuple(sorted(cleaned.items()))
        self._hash = hash(self._items)

    @classmethod
    def unit(cls, vertex_id: str) -> "MultiplicityVector":
        return cls({vertex_id: 1})

    @classmethod
    def zero(cls) -> "MultiplicityVector":
        return cls({})

    def items(self) -> tuple[tuple[str, int], ...]:
        return self._items

    def get(self, key: str) -> int:
        for k, v in self._items:
            if k == key:
                return v
        return 0

    def is_zero(self) -> bool:
        return not self._items

    def unit_id(self) -> str | None:
        """The vertex id when this is a unit vector, else None."""
        if len(self._items) == 1 and self._items[0][1] == 1:
            return self._items[0][0]
        return None

    def __add__(self, other: "MultiplicityVector") -> "MultiplicityVector":
        counts = dict(self._items)
        for k, v in other._items:
            counts[k] = counts.get(k, 0) + v
        return MultiplicityVector(counts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiplicityVector) and other._items == self._items

    def __hash__(self) -> int:
        return self._hash

    def render(self) -> str:
        if not self._items:
            return "0"
        return ",".join(f"{k}:{v}" for k, v in self._items)

    def __repr__(self) -> str:
        return f"MultiplicityVector({self.render()})"


def identify(m: Representation, ar: "ARQuiver") -> MultiplicityVector:
    """Multiplicities of each knitted indecomposable inside m.

    Solves the unitriangular system H . mult = h where h_i = dim Hom(X_i, m)
    and H is the Hom matrix of the AR quiver in its directed order.
    """
    if m.spec is not ar.spec or m.field != ar.field:
        raise ValueError("representation and AR quiver disagree on spec or field")
    H = ar.hom_matrix()
    n = len(ar.vertices)
    for i in range(n):
        if H[i][i] != 1:
            raise NonUnitriangularHomMatrix(
                f"dim End({ar.vertices[i].id}) = {H[i][i]} != 1")
    h = [hom_dim(v.rep, m) for v in ar.vertices]
    mult = [0] * n
    for i in range(n - 1, -1, -1):
        val = h[i] - sum(H[i][j] * mult[j] for j in range(i + 1, n))
        if val < 0:
            raise NegativeMultiplicity(
                f"negative multiplicity at {ar.vertices[i].id}: {val}")
        mult[i] = val
    total = [0] * len(m.dims)
    for v, count in zip(ar.vertices, mult):
        for k in range(len(total)):
            total[k] += count * v.rep.dims[k]
    if tuple(total) != m.dims:
        raise NegativeMultiplicity(
            f"identification mismatch: {tuple(total)} != {m.dims} "
            "(input not a module over the algebra, or AR quiver incomplete)")
    return MultiplicityVector({v.id: c for v, c in zip(ar.vertices, mult) if c})


def matches_class(m: Representation, ar: "ARQuiver",
                  expected: Sequence[tuple[int, int]]) -> bool:
    """Whether dim Hom(X_k, m) equals the given value at each given
    coordinate: ``expected`` lists pairs (k, dim Hom(X_k, class)) over
    knitted vertices X_k.  Aborts at the first mismatch.

    Over all coordinates a full match pins down the isomorphism class,
    since the Hom matrix is unitriangular.  It solves one Hom system per
    coordinate on a module that must be built first; the counting routes
    read the same dimensions off the Hom bases of the ambient module
    instead (``ARQuiver.hom_frame``), and this stays as the reference
    classification they are tested against.
    """
    vertices = ar.vertices
    for k, want in expected:
        if hom_dim(vertices[k].rep, m) != want:
            return False
    return True


def _hom_block(n: int, x: Representation, maps: list[dict[str, FMatrix]]) -> tuple:
    """n copies of x, with ``maps`` out of x as rows of fᵀ: one block of
    ``linalg.injective_images``."""
    return (n, x.dims, [[f[v].transpose().rows for v in x.spec.vertices] for f in maps])


def aut_order(m: Representation) -> int:
    """Order of the automorphism group: the injective maps into m from
    the summands X^n that ``decompose(m)`` returns, whose sum is isomorphic
    to m, counted by ``linalg.injective_images`` with one block
    (n, a basis of Hom(X, m)) per summand, one map per orbit of
    Π GL_n(F_p).  An injective map between modules of one dimension is an
    isomorphism, and the isomorphisms from a fixed module onto m are as
    many as Aut(m).  Raises ``ResourceBound`` when p^{dim End(m)} exceeds
    ``HOM_WALK_BOUND``.  It is the tests' reference for the closed form
    ``ARQuiver.class_aut_order``, which the counting routes use."""
    blocks = [_hom_block(n, x, hom_space(x, m)) for x, n in decompose(m)]
    h = sum(n * len(basis) for n, _, basis in blocks)
    p = m.field.p
    if p ** h > HOM_WALK_BOUND:
        raise ResourceBound(f"automorphism enumeration needs {p}^{h} endomorphisms "
                            f"> bound {HOM_WALK_BOUND}")
    return sum(injective_images(m.dims, blocks, m.field).values())
