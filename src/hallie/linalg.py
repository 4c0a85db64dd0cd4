"""Exact linear algebra and subspace enumeration over prime fields F_p.

Matrices are immutable tuples of tuples of plain ints reduced mod p; the
whole package works with exact integer arithmetic, no floating point.
Two kernels do every reduction: ``echelon`` brings a whole matrix to
reduced row echelon form, and ``reduce_vector`` reduces one vector
against the rows of a reduced echelon basis.  ``rref_pivots`` is the one
check that a basis is in reduced echelon form.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from typing import Iterable, Iterator, Sequence

from .errors import ResourceBound

# Subspaces of one dimension past which ``enumerate_subspaces`` raises
# ResourceBound, and the bound of ``hall.closed_subspace_tuples`` too.
SUBSPACE_CAP = 10_000_000


def is_prime(n: int) -> bool:
    """Primality by trial division; anything below 2 is not prime."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """Arithmetic context for the field with p elements.

    ``inverses[a]`` is the inverse of a nonzero residue a (``inverses[0]``
    is a placeholder 0); the echelon kernel indexes it directly.
    """

    __slots__ = ("p", "inverses")

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {p!r}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.inverses = (0,) + tuple(pow(x, p - 2, p) for x in range(1, p))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class FMatrix:
    """Immutable matrix over a prime field.

    Explicit row/column counts so zero-by-n and n-by-zero matrices behave.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: PrimeField, nrows: int, ncols: int,
                 rows: tuple[tuple[int, ...], ...]):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Sequence[Sequence[int]],
                  ncols: int | None = None) -> "FMatrix":
        p = field.p
        reduced = tuple(tuple(x % p for x in row) for row in rows)
        if reduced:
            width = len(reduced[0])
            if any(len(r) != width for r in reduced):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError(f"expected {ncols} columns, got {width}")
            ncols = width
        elif ncols is None:
            raise ValueError("ncols required for a matrix with no rows")
        return cls(field, len(reduced), ncols, reduced)

    @classmethod
    def zeros(cls, field: PrimeField, nrows: int, ncols: int) -> "FMatrix":
        row = (0,) * ncols
        return cls(field, nrows, ncols, tuple(row for _ in range(nrows)))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FMatrix":
        return cls(field, n, n,
                   tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.rows)

    def transpose(self) -> "FMatrix":
        rows = tuple(tuple(self.rows[i][j] for i in range(self.nrows))
                     for j in range(self.ncols))
        return FMatrix(self.field, self.ncols, self.nrows, rows)

    def mul(self, other: "FMatrix") -> "FMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        p = self.field.p
        ocols = other.ncols
        orows = other.rows
        out = []
        for row in self.rows:
            acc = [0] * ocols
            for k, a in enumerate(row):
                if a:
                    orow = orows[k]
                    for j in range(ocols):
                        acc[j] += a * orow[j]
            out.append(tuple(x % p for x in acc))
        return FMatrix(self.field, self.nrows, ocols, tuple(out))

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vector) != self.ncols:
            raise ValueError("vector length mismatch")
        p = self.field.p
        return tuple(sum(a * v for a, v in zip(row, vector)) % p for row in self.rows)

    def power(self, n: int) -> "FMatrix":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        result = FMatrix.identity(self.field, self.nrows)
        base = self
        while n > 0:
            if n & 1:
                result = result.mul(base)
            base = base.mul(base)
            n >>= 1
        return result

    def rank(self) -> int:
        return rref(self).rank

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FMatrix) and other.field == self.field
                and other.shape == self.shape and other.rows == self.rows)

    def __hash__(self) -> int:
        return hash((self.field.p, self.nrows, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"FMatrix(p={self.field.p}, {self.nrows}x{self.ncols}, {list(map(list, self.rows))})"


def vstack(field: PrimeField, blocks: Sequence[FMatrix], ncols: int) -> FMatrix:
    rows: list[tuple[int, ...]] = []
    for b in blocks:
        if b.ncols != ncols:
            raise ValueError("column mismatch in vstack")
        rows.extend(b.rows)
    return FMatrix(field, len(rows), ncols, tuple(rows))


def hstack(field: PrimeField, blocks: Sequence[FMatrix], nrows: int) -> FMatrix:
    for b in blocks:
        if b.nrows != nrows:
            raise ValueError("row mismatch in hstack")
    rows = tuple(tuple(itertools.chain.from_iterable(b.rows[i] for b in blocks))
                 for i in range(nrows))
    ncols = sum(b.ncols for b in blocks)
    return FMatrix(field, nrows, ncols, rows)


class RREF:
    __slots__ = ("matrix", "rank", "pivots")

    def __init__(self, matrix: FMatrix, rank: int, pivots: tuple[int, ...]):
        self.matrix = matrix
        self.rank = rank
        self.pivots = pivots


def echelon(rows: list[list[int]], p: int, inv: Sequence[int]) -> list[int]:
    """Reduce mutable rows of residues mod p to reduced row echelon form in
    place and return the pivot columns.

    The pivot rows come first, in pivot order; the pivot in each column is
    the first nonzero entry at or below the current row, so the result is
    deterministic.  ``inv`` is the field's inverse table.  The rank is
    ``len(pivots)``: callers that need full rank compare it with the row
    count.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        i = r
        while i < nrows and not rows[i][c]:
            i += 1
        if i == nrows:
            continue
        row_r = rows[i]
        if i != r:
            rows[i] = rows[r]
        f = inv[row_r[c]]
        if f != 1:
            row_r = [(x * f) % p for x in row_r]
        rows[r] = row_r
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(a - f * b) % p for a, b in zip(row, row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def odometer(mats: list[list[list[int]]],
             deltas: Sequence[Sequence[tuple[int, int, int, int]]],
             p: int) -> Iterator[int]:
    """Walk every F_p-combination of h basis elements, yielding 1 (its
    weight, as in ``scalar_orbits``) per combination with ``mats`` holding
    it.

    ``mats`` is a list of mutable matrices, zero on entry; basis element k
    is the flat list ``deltas[k]`` of ``(i, r, c, v)``, meaning v at row r,
    column c of matrix i.  The combinations run in odometer order, zero
    first, so each step adds one basis element, or a few when digits carry:
    all p**h combinations, each exactly once.
    """
    digits = [0] * len(deltas)
    yield 1
    for _ in range(p ** len(deltas) - 1):
        k = 0
        while True:
            for i, r, c, v in deltas[k]:
                row = mats[i][r]
                row[c] = (row[c] + v) % p
            digits[k] += 1
            if digits[k] < p:
                break
            digits[k] = 0
            k += 1
        yield 1


def scalar_orbits(mats: list[list[list[int]]],
                  deltas: Sequence[Sequence[tuple[int, int, int, int]]],
                  p: int) -> Iterator[int]:
    """Walk one F_p-combination per orbit of the scalars F_p^*, yielding the
    orbit size with ``mats`` holding the representative.

    Same arguments as ``odometer``.  The zero combination comes first, with
    weight 1.  Then, for each k, basis element k is added once and
    ``odometer`` walks elements 0..k-1 from where the matrices stand: the
    offset already there lies in the span of elements 0..k-1, so the walk
    still visits each combination with coefficient 1 at k and 0 above k
    exactly once.  Those are the representatives of the nonzero orbits, each
    of size p - 1, so the weights sum to p**h.  A caller counting a property
    that scaling by a nonzero scalar preserves counts the same total as a
    full ``odometer`` walk with a (p - 1)-th of the steps.
    """
    yield 1
    for k, delta in enumerate(deltas):
        for i, r, c, v in delta:
            row = mats[i][r]
            row[c] = (row[c] + v) % p
        for _ in odometer(mats, deltas[:k], p):
            yield p - 1


def injective_images(col_dims: Sequence[int],
                     blocks: Sequence[tuple[int, Sequence[int], Sequence]],
                     field: PrimeField) -> dict[tuple, int]:
    """The injective maps out of a direct sum of blocks, tallied by image:
    {image key: number of maps}.

    A block (n, row_dims, basis) is n copies of one summand X, and ``basis``
    spans the maps out of X: ``basis[k][i]`` holds the ``row_dims[i]`` rows
    of element k at vertex i, each of ``col_dims[i]`` entries (for a map f
    of representations, the rows of fᵀ).  A map of the sum is one element
    of that span per copy, with the rows of every copy stacked at each
    vertex.  It is injective when those rows are independent at every
    vertex, and its image is their span.  The key of an image is, per
    vertex, the rows of the reduced echelon basis of that span (``()``
    where it is zero).  ``basis`` may be dependent: each map is counted
    once.  A zero summand (no rows anywhere) has one map, and its block
    adds nothing.

    The walk visits one map per orbit of G = Π GL_n(F_p), one factor per
    block.  g ∈ G replaces the copies' maps (f_1, …, f_n) of a block by
    (Σ_k g_{k1} f_k, …, Σ_k g_{kn} f_k): that is precomposition by an
    automorphism of the sum, so it keeps injectivity and the image.
    * Independence: on an injective map the copies' maps of a block are
      linearly independent.  Were Σ c_j f_j = 0 with c ≠ 0, then for any
      nonzero x ∈ X the element x ⊗ c of X ⊗ F_p^n = X^n would map to
      (Σ c_j f_j)(x) = 0.
    * The slice: so they span an n-dimensional subspace W of the block's
      span.  Exactly one g moves them to the reduced echelon basis of W,
      in the coordinates of an echelon basis of the span, and f∘g = f
      forces g = 1 when f is injective.  So each orbit of injective maps
      has |G| elements and exactly one member whose every block is in
      that form.  The walk takes, per block, each such basis once, with
      weight |G|: pivots c_1 < … < c_n, and copy j with a 1 at c_j, 0
      before it and at the other pivots, and any value elsewhere.  For
      n = 1 that is one map per orbit of F_p^*, weight p − 1.
    * Row by row: the echelon basis of the span is taken over coordinates
      ordered by (vertex, row, column), so each element is zero on the
      rows before the one that holds its pivot, and a row of a copy is
      final once the coordinates whose pivot lies in it are fixed.  Each
      copy is walked one row at a time (``odometer`` over those
      coordinates), and each row is checked as it becomes final against
      a per-vertex echelon of the rows fixed before it: a row in their
      span stays there in every completion, so the subtree is skipped.
      The first row of every copy must be nonzero, so every pivot c_j
      lies in the first row.  The last row ends each map and the image
      depends only on it reduced against the rows above, so each distinct
      reduction is echeloned once.
    * Blocks: injectivity and the image depend only on the span of each
      block's rows at each vertex.  So each block is walked once and
      tallied by those spans, and the blocks are then added in order
      against the per-vertex echelon of the blocks before, pruned the same
      way.
    The weights of all keys sum to the number of injective maps.
    """
    return tallied_images(col_dims, [
        (n, _block_tally(n, row_dims, basis, col_dims, field))
        for n, row_dims, basis in blocks if any(row_dims)], field)


def tallied_images(col_dims: Sequence[int], tallies: Sequence[tuple[int, Counter]],
                   field: PrimeField) -> dict[tuple, int]:
    """``injective_images`` from each nonzero block's multiplicity n and
    ``_block_tally`` (``knit.HomFrame.tally`` keeps them per ambient)."""
    p = field.p
    weight = 1
    for n, _ in tallies:
        for k in range(n):
            weight *= p ** n - p ** k
    images: dict[tuple, int] = {}
    _add_blocks([tally for _, tally in tallies], [[] for _ in col_dims], weight,
                images, p, field.inverses)
    return images


def _block_tally(n: int, row_dims: Sequence[int], basis: Sequence,
                 col_dims: Sequence[int], field: PrimeField) -> Counter:
    """The walk of one block of ``injective_images``: for each reduced
    echelon basis of an n-dimensional subspace of the span of ``basis``
    whose n maps have independent rows at every vertex, the per-vertex
    reduced echelon rows of those rows, counted."""
    p, inv = field.p, field.inverses
    vertex = [i for i, r in enumerate(row_dims) for _ in range(r)]  # per row
    tally: Counter = Counter()
    if any(not col_dims[i] for i in vertex):
        return tally  # a row with no entries is zero: no map is injective
    starts = list(itertools.accumulate((col_dims[i] for i in vertex), initial=0))
    flat = [[x for i in range(len(col_dims)) for row in element[i] for x in row]
            for element in basis]
    span = flat[:len(echelon(flat, p, inv))]
    level = [bisect.bisect_right(starts, next(c for c, x in enumerate(e) if x)) - 1
             for e in span]
    deltas = [[(0, L, c - starts[L], e[c]) for L in range(len(vertex))
               for c in range(starts[L], starts[L + 1]) if e[c]] for e in span]
    block = (vertex, starts, level, deltas, tally, p, inv)
    for pattern in itertools.combinations(
            [k for k, L in enumerate(level) if L == 0], n):
        _walk_copy(block, pattern, 0, [[] for _ in col_dims])
    return tally


def _walk_copy(block: tuple, pattern: tuple, j: int, spans: list) -> None:
    """Copy j of a block, its coordinates led by the 1 at ``pattern[j]``,
    row by row against ``spans``, the per-vertex echelon of the rows of the
    copies before it."""
    vertex, starts, level, deltas, _, _, _ = block
    rows = [[0] * (starts[L + 1] - starts[L]) for L in range(len(vertex))]
    for _, L, c, x in deltas[pattern[j]]:
        rows[L][c] = x
    free = [[deltas[k] for k, lk in enumerate(level)
             if lk == L and k > pattern[j] and k not in pattern]
            for L in range(len(vertex))]
    _walk_rows(block, pattern, j, 0, [rows], free, spans)


def _walk_rows(block: tuple, pattern: tuple, j: int, L: int, mats: list,
               free: list, spans: list) -> None:
    """Rows L onwards of copy j: row L is final once the coordinates whose
    pivot lies in it are fixed (``odometer``), so it is checked then."""
    vertex, _, _, _, tally, p, inv = block
    if L == len(vertex):
        _walk_copy(block, pattern, j + 1, spans)
        return
    i = vertex[L]
    if L + 1 == len(vertex) and j + 1 == len(pattern):
        # the last row ends each map, and its image depends only on that
        # row reduced against the rows above it: echelon each one once
        finals = Counter(reduce_vector(spans[i], mats[0][L], p)
                         for _ in odometer(mats, free[L], p))
        for v, count in finals.items():
            grown = _grow(spans[i], [v], p, inv)
            if grown is not None:
                tally[tuple(tuple(e for _, e in s) for s in
                            spans[:i] + [grown] + spans[i + 1:])] += count
        return
    for _ in odometer(mats, free[L], p):
        grown = _grow(spans[i], [mats[0][L]], p, inv)
        if grown is not None:
            _walk_rows(block, pattern, j, L + 1, mats, free,
                       spans[:i] + [grown] + spans[i + 1:])


def _add_blocks(tallies: Sequence[dict[tuple, int]], spans: list, weight: int,
                images: dict[tuple, int], p: int, inv: Sequence[int]) -> None:
    """The walk of ``injective_images`` from the rows so far (per vertex,
    the reduced echelon rows (pivot, row) of their span, sorted by pivot)
    through the blocks still to add, tallying each injective completion's
    image in ``images`` with ``weight`` times its multiplicity."""
    if not tallies:
        key = tuple(tuple(e for _, e in span) for span in spans)
        images[key] = images.get(key, 0) + weight
        return
    for key, n in tallies[0].items():
        grown = []
        for span, rows in zip(spans, key):
            span = _grow(span, rows, p, inv)
            if span is None:
                break  # dependent: no completion is injective
            grown.append(span)
        else:
            _add_blocks(tallies[1:], grown, weight * n, images, p, inv)


def reduce_vector(span: Iterable[tuple[int, Sequence[int]]], v: Sequence[int],
                  p: int) -> tuple[int, ...]:
    """v reduced against the rows (pivot, row) of span, each led by a 1 at
    its pivot and zero at the other rows' pivots: v minus v[c] times the
    row of each pivot c, so the result is zero at every pivot, and zero
    everywhere exactly when v lies in the span.  The one reduction kernel
    of the package (``echelon`` reduces a whole matrix)."""
    for c, e in span:
        f = v[c]
        if f:
            v = [(a - f * b) % p for a, b in zip(v, e)]
    return tuple(v)


def rref_pivots(basis: FMatrix) -> list[int]:
    """Pivot columns of a reduced-echelon basis; rejects anything that is
    not fully reduced (leading 1s on strictly increasing columns, pivot
    columns zero in every other row)."""
    pivots = []
    for row in basis.rows:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None or row[lead] != 1 or (pivots and lead <= pivots[-1]):
            raise ValueError("subspace basis is not in reduced echelon form")
        pivots.append(lead)
    if any(row[c] for i, row in enumerate(basis.rows)
           for j, c in enumerate(pivots) if i != j):
        raise ValueError("subspace basis is not in reduced echelon form")
    return pivots


def _grow(span: list, rows: Sequence[tuple[int, ...]], p: int,
          inv: Sequence[int]) -> list | None:
    """The reduced echelon rows (pivot, row) of span + rows, sorted by
    pivot, or None when the rows are not independent modulo span."""
    for v in rows:
        v = reduce_vector(span, v, p)
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            return None
        f = inv[v[lead]]
        v = tuple((x * f) % p for x in v)
        span = sorted([(c, reduce_vector(((lead, v),), e, p)) for c, e in span]
                      + [(lead, v)])
    return span


def rref(m: FMatrix) -> RREF:
    """Reduced row echelon form over F_p, by ``echelon``."""
    rows = [list(r) for r in m.rows]
    pivots = echelon(rows, m.field.p, m.field.inverses)
    reduced = FMatrix(m.field, m.nrows, m.ncols, tuple(tuple(row) for row in rows))
    return RREF(reduced, len(pivots), tuple(pivots))


def coords_in_rowspace(basis: FMatrix, pivots: Sequence[int],
                       vector: Sequence[int]) -> tuple[int, ...] | None:
    """Coordinates of a vector against the rows of a reduced-echelon basis
    with the given pivot columns, or None when it lies outside their span
    (``reduce_vector`` leaves something).  Rows of ``basis`` beyond
    ``len(pivots)`` are ignored."""
    p = basis.field.p
    v = [x % p for x in vector]
    if any(reduce_vector(zip(pivots, basis.rows), v, p)):
        return None
    return tuple(v[c] for c in pivots)


def row_space(m: FMatrix) -> FMatrix:
    """Canonical basis (RREF rows, zero rows dropped) of the row space."""
    res = rref(m)
    return FMatrix(m.field, res.rank, m.ncols, res.matrix.rows[:res.rank])


def solve_nullspace(m: FMatrix) -> list[tuple[int, ...]]:
    """A basis of the right kernel {v : m v = 0}, one vector per free column:
    the rows of ``quotient_projection`` of the row space, whose kernel it
    is."""
    return list(quotient_projection(row_space(m)).rows)


def gaussian_binomial(d: int, e: int, p: int) -> int:
    """Number of e-dimensional subspaces of F_p^d, by the product formula."""
    if e < 0 or e > d:
        return 0
    num = 1
    den = 1
    for i in range(1, e + 1):
        num *= p ** (d - e + i) - 1
        den *= p ** i - 1
    return num // den


def enumerate_subspaces(d: int, e: int, field: PrimeField) -> Iterator[FMatrix]:
    """Every e-dimensional subspace of F_p^d, exactly once, as a canonical
    reduced-echelon basis matrix (e rows, d columns).

    Subspaces are generated by pivot-column pattern, then by free entries;
    the count is the Gaussian binomial.  Raises ResourceBound if that count
    exceeds ``SUBSPACE_CAP``.
    """
    if e < 0 or e > d:
        raise ValueError(f"need 0 <= e <= d, got e={e}, d={d}")
    total = gaussian_binomial(d, e, field.p)
    if total > SUBSPACE_CAP:
        raise ResourceBound(f"{total} subspaces of dimension {e} in F_{field.p}^{d} "
                            f"exceeds cap {SUBSPACE_CAP}")
    p = field.p
    for pivots in itertools.combinations(range(d), e):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(e) for j in range(pivots[i] + 1, d)
                if j not in pivot_set]
        base = [[0] * d for _ in range(e)]
        for i, c in enumerate(pivots):
            base[i][c] = 1
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [row[:] for row in base]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield FMatrix(field, e, d, tuple(tuple(r) for r in rows))


def quotient_projection(base: FMatrix) -> FMatrix:
    """Projection of F_p^d onto the complement coordinates of a reduced
    echelon basis R (``rref_pivots`` checks it, raising ``ValueError`` on
    anything else): a (d-r) x d matrix whose kernel is exactly the row
    space of R.  Coordinate k of the projection of v is v_k minus
    Σ_i v[c_i] R_i[k] over the pivots c_i, so row k is e_k minus R_i[k] at
    each c_i: the null space vector of free column k of R."""
    pivots = rref_pivots(base)
    p, d = base.field.p, base.ncols
    rows = []
    for free in (k for k in range(d) if k not in pivots):
        v = [0] * d
        v[free] = 1
        for row, c in zip(base.rows, pivots):
            v[c] = -row[free] % p
        rows.append(tuple(v))
    return FMatrix(base.field, len(rows), d, tuple(rows))


def preimage_subspace(m: FMatrix, base: FMatrix) -> FMatrix:
    """Canonical basis of {x : m x in rowspace(base)}; m maps F_p^s -> F_p^t
    and ``base`` spans a subspace of F_p^t."""
    proj = quotient_projection(base)
    constrained = proj.mul(m)
    kernel = solve_nullspace(constrained)
    return row_space(FMatrix.from_rows(m.field, kernel, ncols=m.ncols))


def intersect_subspaces(a: FMatrix, b: FMatrix) -> FMatrix:
    """Canonical basis of the intersection of two row spaces."""
    stacked = vstack(a.field, [quotient_projection(a), quotient_projection(b)],
                     ncols=a.ncols)
    kernel = solve_nullspace(stacked)
    return row_space(FMatrix.from_rows(a.field, kernel, ncols=a.ncols))


def subspace_contains(outer: FMatrix, inner: FMatrix) -> bool:
    """Whether rowspace(inner) is contained in rowspace(outer)."""
    res = rref(outer)
    return all(coords_in_rowspace(res.matrix, res.pivots, v) is not None
               for v in inner.rows)


def subspaces_between(lower: FMatrix, upper: FMatrix) -> Iterator[FMatrix]:
    """Every subspace W with lower <= W <= upper, dimension by dimension,
    as canonical RREF bases: one ``rref`` of upper gives B, row k led by a
    1 at q_k, the rows of lower are solved for their coordinates in B once,
    and each superspace w of their span (``enumerate_superspaces``) is
    mapped back to w·B.

    w·B is reduced echelon: with w reduced echelon, row i led by a 1 at
    t_i, row i of w·B = Σ_k w_ik B_k is zero before q_{t_i} and 1 there,
    and at each q_k it reads w_ik (B is reduced), 0 at the other t_j.
    """
    up = rref(upper)
    if up.rank == upper.ncols:  # B is the identity, so w·B = w
        yield from enumerate_superspaces(lower)
        return
    pivots = up.pivots
    coords = [coords_in_rowspace(up.matrix, pivots, v) for v in lower.rows]
    if None in coords:
        return  # lower is not inside upper: nothing between them
    big = FMatrix(upper.field, up.rank, upper.ncols, up.matrix.rows[:up.rank])
    base = FMatrix(upper.field, len(coords), up.rank, tuple(coords))
    for w in enumerate_superspaces(base):
        out = w.mul(big)
        assert tuple(tuple(row[q] for q in pivots) for row in out.rows) == w.rows
        yield out


def enumerate_superspaces(base: FMatrix) -> Iterator[FMatrix]:
    """Every subspace of F_p^d containing the row space of ``base``,
    dimension by dimension, as canonical RREF bases (``SUBSPACE_CAP`` bounds
    each dimension): ``base`` is echeloned once, to R with pivots P; each
    quotient subspace's reduced echelon basis is lifted onto the other
    columns, each row of R reduced against the lifted rows
    (``reduce_vector``), and the rows merged by pivot.

    That is reduced echelon: a lifted row is led by a 1 at its pivot and is
    zero at P and at the other lifted pivots, so it is a valid reduction
    row and clearing with it moves no other pivot column; and a row of R,
    zero before its leading 1, is only cleared at lifted pivots after it,
    as a lifted row is zero before its own pivot, so its leading 1 stays.
    """
    field = base.field
    p, d = field.p, base.ncols
    rows = [list(row) for row in base.rows]
    pivots = echelon(rows, p, field.inverses)
    r = len(pivots)
    complement = [j for j in range(d) if j not in set(pivots)]
    for k in range(r, d + 1):
        for w in enumerate_subspaces(d - r, k - r, field):
            lifted = []
            for wrow in w.rows:
                v = [0] * d
                for col, x in zip(complement, wrow):
                    v[col] = x
                lifted.append((complement[next(j for j, x in enumerate(wrow) if x)], v))
            merged = [(c, reduce_vector(lifted, row, p))
                      for c, row in zip(pivots, rows)] + lifted
            merged.sort(key=lambda item: item[0])
            yield FMatrix(field, k, d, tuple(tuple(row) for _, row in merged))
