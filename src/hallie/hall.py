"""Hall numbers over prime fields and their interpolating polynomials.

The Hall number of a triple (n1, n2, m) is the number of submodules
U of m with U isomorphic to n1 and m/U isomorphic to n2.  Three independent
counting routes are provided, and each answers a whole row at once:

* ``hall_numbers_ext`` counts by Riedtmann's formula
  F^b_{a,c} = |Ext¹(c,a)_b| · |Aut b| / (|Aut a| · |Aut c| · q^{hom(c,a)}):
  one walk of Ext¹(c, a), one extension class per orbit of the nonzero
  scalars, identifies the middle term of each class and so answers every
  ambient class b at once.  A middle term is identified among the classes
  below the Hom vectors of a ⊕ c, the classes a bracket can reach, by
  solving dim Hom(X_k, -) only on the few knitted vertices X_k that tell
  those classes apart (``ARQuiver.distinguishing_set`` with bounds).
  |Aut| is read in closed form off the Hom matrix
  (``ARQuiver.class_aut_order``: the maps between non-isomorphic summands
  form the radical, and End/rad is a product of matrix algebras M_n(F_q)).
  ``ARFamily`` counts with it (``ext_hall_number``, one walk per pair
  memoized on the quiver); the proof sketches are in its docstring.
* ``hall_numbers_grass`` walks the arrow-stable subspace tuples of every
  shape of m once (in quiver-topological vertex order, so closure
  constraints prune the walk, each candidate built as its reduced echelon
  basis by ``linalg.subspaces_between``) and answers every pair (a, c) of
  sub and quotient classes of every shape, by shape.  It classifies each
  sub by its into-vector and each quotient by its out-of vector, read off
  the Hom bases of m (``ARQuiver.hom_frame``) on the distinguishing set of
  the dimension vector only (``ARQuiver.distinguishing_set``).  It is the
  reference route of ``check_oracle_equivalence``.
* ``hall_numbers_hom`` enumerates the injective homomorphisms from a
  sub class a = ⊕ X_i^{n_i} into m once, with ``linalg.tallied_images``,
  and answers every quotient class c at once: one map per orbit of
  Π GL_{n_i}(F_p), that is one reduced echelon basis of an
  n_i-dimensional subspace of Hom(X_i, m) per distinct summand, weighted
  by the orbit size, walked one row at a time against an incremental
  echelon so that a row falling in the span of the rows above it cuts off
  the subtree; m's ``HomFrame`` keeps the walk of each summand X_i^{n_i}.
  Each distinct image is classified once, by the out-of vector of its
  cokernel on every knitted vertex, and must be reached by exactly
  |Aut(a)| maps, the closed form ``ARQuiver.class_aut_order`` that the
  Ext route divides by.  It is the independent oracle of
  ``check_oracle_equivalence``, which compares all three routes.

``hall_number_grass`` and ``hall_number_hom`` answer one triple: they name
the classes of its sub and quotient with ``reps.identify`` and look them
up in their row.  Each route's walk raises ``ResourceBound`` past one
module constant, read at call time: ``linalg.SUBSPACE_CAP``,
``reps.HOM_WALK_BOUND`` or ``EXT_WALK_BOUND``.  The routes ask the knitted
``ARQuiver`` for what it memoizes: the classes of each dimension vector,
the Hom bases of each ambient module and the distinguishing set of each
dimension vector.  The quivers an ``ARFamily`` knits over several primes
share one memo of the classes, Hom vectors and distinguishing sets, which
depend only on the knitted order and the Hom matrix
(``ARQuiver.share_memos`` checks that both agree); the memos of modules,
Hom bases, |Aut| and Hall numbers stay with each prime's quiver.

Interpolation: counts are taken at the first D+2 primes not on the excluded
list, where D is the degree bound min(Σ e(d−e), hom(a,b) − end(a),
hom(b,c) − end(c)) of ``ARFamily._interpolate`` (the ambient Grassmannian
dimension, or the tight bound from counting injections and surjections,
whichever is smaller); exact Lagrange interpolation (integers over one
common denominator) on the first D+1 of them must give integer
coefficients, and the held-out last prime must reproduce the interpolated
value exactly.  On a validation
failure the smallest prime used is excluded once and the whole protocol
retried.  The counts of an accepted polynomial must also respect the free
action of the scalars on injections and surjections.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

from . import linalg, reps
from .algebra import AlgebraSpec
from .errors import (ExtDimensionMismatch, InconsistentCounts,
                     NegativeMultiplicity, NonIntegralCoefficients,
                     NonIntegralOrbitCount, NonUnitriangularHomMatrix,
                     ResourceBound)
from .knit import ARQuiver, knit
from .linalg import (FMatrix, gaussian_binomial, intersect_subspaces, is_prime,
                     preimage_subspace, row_space, scalar_orbits, subspaces_between,
                     tallied_images)
from .reps import (MultiplicityVector, Representation, SubspaceTuple, ext_space,
                   hom_dim, identify, middle_term)

# p^{dim Ext¹(c, a)} past which ``hall_numbers_ext`` raises ResourceBound
# instead of walking the extension classes.
EXT_WALK_BOUND = 1_000_000


class HallConfig:
    __slots__ = ("excluded_primes", "max_vertices")

    def __init__(self, excluded_primes: tuple[int, ...] = (),
                 max_vertices: int = 512):
        self.excluded_primes = excluded_primes
        self.max_vertices = max_vertices


def first_primes(count: int, excluded: Sequence[int] = ()) -> list[int]:
    """The first ``count`` primes not in ``excluded``, as a fresh list."""
    primes: list[int] = []
    n = 1
    while len(primes) < count:
        n += 1
        if n not in excluded and is_prime(n):
            primes.append(n)
    return primes


# ---------------------------------------------------------------------------
# Counting


def closed_subspace_tuples(m: Representation) -> Iterator[SubspaceTuple]:
    """All arrow-stable subspace tuples of every shape inside m, exactly
    once.

    Vertices are filled one at a time; the subspace at a vertex is pinched
    between the span of the images along arrows from already-chosen sources
    (a lower bound) and the intersection of preimages along arrows into
    already-chosen targets (an upper bound), and takes every dimension
    between them, so every emitted tuple is stable by construction.  The
    fill order (topological or its reverse, whichever leaves fewer
    unconstrained choices) changes only the speed.  Raises ResourceBound
    once the tuples yielded pass ``linalg.SUBSPACE_CAP``.
    """
    spec, field = m.spec, m.field
    verts = spec.vertices
    index = {v: i for i, v in enumerate(verts)}
    order = _fill_order(m)
    produced, cap = 0, linalg.SUBSPACE_CAP
    chosen: dict[str, FMatrix] = {}

    def bounds(v: str) -> tuple[FMatrix, FMatrix]:
        d = m.dims[index[v]]
        lower_rows = []
        for a in spec.arrows_into(v):
            if a.source in chosen:
                mat = m.maps[a.id]
                lower_rows.extend(mat.apply(row) for row in chosen[a.source].rows)
        lower = (row_space(FMatrix.from_rows(field, lower_rows, ncols=d))
                 if lower_rows else FMatrix.zeros(field, 0, d))
        upper = FMatrix.identity(field, d)
        for a in spec.arrows_from(v):
            if a.target in chosen:
                upper = intersect_subspaces(
                    upper, preimage_subspace(m.maps[a.id], chosen[a.target]))
        return lower, upper

    def recurse(pos: int) -> Iterator[SubspaceTuple]:
        nonlocal produced
        if pos == len(order):
            produced += 1
            if produced > cap:
                raise ResourceBound(f"subspace tuple enumeration exceeded cap {cap}")
            yield SubspaceTuple(m, tuple(chosen[v] for v in verts))
            return
        v = order[pos]
        for candidate in subspaces_between(*bounds(v)):
            chosen[v] = candidate
            yield from recurse(pos + 1)
        chosen.pop(v, None)

    yield from recurse(0)


def _fill_order(m: Representation) -> tuple[str, ...]:
    """Topological or reverse-topological fill order, whichever has the
    smaller product of unconstrained per-vertex subspace counts, of every
    dimension."""
    spec = m.spec
    index = {v: i for i, v in enumerate(spec.vertices)}
    p = m.field.p

    def cost(order: Sequence[str]) -> int:
        seen: set[str] = set()
        total = 1
        for v in order:
            constrained = (any(a.source in seen for a in spec.arrows_into(v))
                           or any(a.target in seen for a in spec.arrows_from(v)))
            if not constrained:
                d = m.dims[index[v]]
                total *= sum(gaussian_binomial(d, k, p) for k in range(d + 1))
            seen.add(v)
        return total

    forward = spec.topo_order
    backward = tuple(reversed(forward))
    return forward if cost(forward) <= cost(backward) else backward


def _dim_law_holds(n1: Representation, n2: Representation,
                   m: Representation) -> bool:
    if n1.spec is not m.spec or n2.spec is not m.spec:
        raise ValueError("Hall counting over mixed algebra specs")
    if n1.field != m.field or n2.field != m.field:
        raise ValueError("Hall counting over mixed fields")
    return tuple(a + b for a, b in zip(n1.dims, n2.dims)) == m.dims


def hall_numbers_grass(ar: ARQuiver, m: Representation
                       ) -> dict[tuple[int, ...], dict[tuple, int]]:
    """The Hall numbers of m over every pair of classes (a, c), by the
    shape of a: {shape: {(a, c): number of submodules U ≅ a with m/U ≅ c}},
    counted in one walk of the stable subspace tuples of every shape
    (``closed_subspace_tuples``, bounded by ``linalg.SUBSPACE_CAP``).

    Each tuple's sub is classified by its into-vector and its quotient by
    its out-of vector, both read off the Hom bases of m (``ARQuiver.
    hom_frame``, which holds the proof sketch), on the distinguishing set
    of the sub's and of the quotient's dimension vector only
    (``ARQuiver.distinguishing_set``).  Why that decides the classes:

    * a sub or quotient of dimension vector e is a module over the algebra;
    * every module is a direct sum of knitted indecomposables, because the
      knitted component is finite and therefore the whole AR quiver
      (Auslander), so the module is one of ``ar.module_classes(e)``;
    * the Hom matrix is unitriangular, so distinct classes have distinct
      into-vectors and distinct out-of vectors, and the distinguishing set
      tells every class of e from every other;
    * hence the class whose vector agrees with the module's on that set is
      the module's class.
    """
    frame = ar.hom_frame(m)
    rows: dict[tuple[int, ...], dict] = {}
    for tup in closed_subspace_tuples(m):
        shape = tup.dims
        sub_coords, subs = ar.distinguishing_set(shape)
        quot_coords, quots = ar.distinguishing_set(
            tuple(y - x for x, y in zip(shape, m.dims)), outof=True)
        key = tup.key()
        pair = (_lookup(subs, frame.into_vector(key, sub_coords)),
                _lookup(quots, frame.outof_vector(key, quot_coords)))
        counts = rows.setdefault(shape, {})
        counts[pair] = counts.get(pair, 0) + 1
    return rows


def _lookup(table: dict[tuple[int, ...], MultiplicityVector],
            vector: Sequence[int]) -> MultiplicityVector:
    mv = table.get(tuple(vector))
    if mv is None:
        raise NegativeMultiplicity(
            f"Hom vector {tuple(vector)} matches no class of its dimension "
            "vector (AR quiver incomplete)")
    return mv


def hall_number_grass(ar: ARQuiver, n1: Representation, n2: Representation,
                      m: Representation) -> int:
    """Submodules of m isomorphic to n1 with quotient isomorphic to n2: the
    entry (class of n1, class of n2) of ``hall_numbers_grass``, settled as
    0 without enumeration when Hom(n1, m) or Hom(m, n2) is zero."""
    if not _dim_law_holds(n1, n2, m):
        return 0
    if n1.total_dim and hom_dim(n1, m) == 0:
        return 0
    if n2.total_dim and hom_dim(m, n2) == 0:
        return 0
    row = hall_numbers_grass(ar, m).get(n1.dims, {})
    return row.get((identify(n1, ar), identify(n2, ar)), 0)


def hall_numbers_hom(ar: ARQuiver, a: MultiplicityVector,
                     m: Representation) -> dict[MultiplicityVector, int]:
    """The same numbers through injective homomorphisms n1 -> m, n1 a
    module of class a, for every quotient class at once: {c: number of
    images U of injective maps with m/U of class c}.

    ``linalg.tallied_images`` walks Hom(n1, m) one orbit of
    G = Π GL_{n_i}(F_p) at a time, for a = ⊕ X_i^{n_i} read off
    ``a.items()`` in knitted order, with a basis of Hom(X_i, m) per
    distinct summand from m's Hom bases, so n1 itself is never built.
    The walk of each run X_i^{n_i} depends only on X_i, n_i and m, so m's
    frame keeps it (``HomFrame.tally``) and the runs are added in knitted
    order.  G mixes the copies of each summand; it acts freely on the
    injective maps and keeps their image.  Its proof
    sketch covers the slice (on an injective map the copies' maps of X_i
    are independent, so each orbit has one member whose copies are the
    reduced echelon basis of an n_i-dimensional subspace of Hom(X_i, m))
    and the pruning (rows that fall in the span of the rows above them at
    their vertex leave no injective completion).  Each distinct image is
    a submodule U ≅ n1, classified once: the out-of vector of m/U, read
    off the Hom bases of m (``ARQuiver.hom_frame``) on every knitted
    vertex, must be the out-of vector of one class of its dimension
    vector.  Comparing every coordinate keeps this route independent of
    the distinguishing sets of the subspace route.

    Checked at run time: the injective maps with image U are the
    isomorphisms n1 -> U followed by the inclusion, and precomposition by
    Aut(n1) acts freely and transitively on them, so every image must be
    reached by exactly |Aut(n1)| maps (else ``NonIntegralOrbitCount``),
    the closed form ``ARQuiver.class_aut_order`` that the Ext route
    divides by.  Raises ``ResourceBound`` when p^{dim Hom(n1, m)} exceeds
    ``reps.HOM_WALK_BOUND``.
    """
    p = m.field.p
    frame = ar.hom_frame(m)
    runs = sorted((ar.by_id[x].index, n) for x, n in a.items())
    h = sum(n * len(frame.into_basis(k)) for k, n in runs)
    if p ** h > reps.HOM_WALK_BOUND:
        raise ResourceBound(
            f"hom enumeration needs {p}^{h} maps > bound {reps.HOM_WALK_BOUND}")
    aut = ar.class_aut_order(a)
    rest = tuple(y - x for x, y in zip(ar.class_dim_vector(a), m.dims))
    classes = ar.module_classes(rest)
    quotients = {tuple(ar.hom_vectors(c)[1]): c for c in classes}
    if len(quotients) != len(classes):
        raise NonUnitriangularHomMatrix(
            f"two classes of dimension vector {rest} share their out-of vector")
    every = range(len(ar.vertices))
    images = tallied_images(m.dims, [(n, frame.tally(k, n)) for k, n in runs],
                            m.field)
    counts: dict[MultiplicityVector, int] = {}
    for key, maps in images.items():
        if maps != aut:
            raise NonIntegralOrbitCount(
                f"{maps} injective maps onto one image, but |Aut| = {aut}")
        c = _lookup(quotients, frame.outof_vector(key, every))
        counts[c] = counts.get(c, 0) + 1
    return counts


def hall_number_hom(ar: ARQuiver, n1: Representation, n2: Representation,
                    m: Representation) -> int:
    """Submodules of m isomorphic to n1 with quotient isomorphic to n2 by
    the hom oracle: the entry (class of n2) of the ``hall_numbers_hom``
    row of the class of n1."""
    if not _dim_law_holds(n1, n2, m):
        return 0
    row = hall_numbers_hom(ar, identify(n1, ar), m)
    return row.get(identify(n2, ar), 0)


def hall_numbers_ext(ar: ARQuiver, a: MultiplicityVector, c: MultiplicityVector
                     ) -> dict[MultiplicityVector, int]:
    """The Hall numbers F^b_{a,c} of every class b at once, by Riedtmann's
    formula over F_q (q = p):

        F^b_{a,c} = |Ext¹(c, a)_b| · |Aut b| / (|Aut a| · |Aut c| · q^{hom(c, a)}),

    where Ext¹(c, a)_b is the set of extension classes whose middle term is
    of class b, walked on the modules of a and c (``ar.class_module``).
    Classes b missing from the result have F = 0.

    Why the formula.  Aut b acts on the exact sequences 0 -> a -f-> b -g->
    c -> 0 by φ·(f, g) = (φf, gφ⁻¹).  The orbits are the extension classes
    with middle term b, and the stabilizer of (f, g) is {1 + f h g : h ∈
    Hom(c, a)}, so there are |Ext¹(c, a)_b| · |Aut b| / q^{hom(c, a)} such
    sequences.  Each submodule U ≅ a of b with b/U ≅ c is the image of f
    for |Aut a| · |Aut c| of them.

    The walk visits one extension class per orbit of F_q^* (scaling the
    cocycle by λ conjugates the middle term by λ on a), weighted by the
    orbit size; the zero class is a ⊕ c.  |Aut| comes in closed form from
    ``ARQuiver.class_aut_order``, hom(c, a) from the Hom matrix.

    Identification of a middle term m of a nonzero class.  m is one of the
    bracket-bounded classes ``ar.module_classes(dim a + dim c, bounds)``,
    bounds = (into(a) + into(c), outof(a) + outof(c)) = ``ar.hom_vectors
    (a + c)``, the bounds ``liealg.hall_product`` enumerates with:

    * Hom(X, −) is left exact, so on 0 -> a -> m -> c -> 0 it gives
      dim Hom(X, m) ≤ dim Hom(X, a) + dim Hom(X, c) for every knitted X,
      and Hom(−, X) gives dim Hom(m, X) ≤ dim Hom(a, X) + dim Hom(c, X);
    * m is a direct sum of knitted indecomposables (the knitted component
      is the whole AR quiver), so its class is on the bounded list;
    * the class of m is not a ⊕ c: the middle term of a non-split exact
      sequence is never isomorphic to the sum of its ends (T. Miyata,
      *Note on direct summands of modules*, J. Math. Kyoto Univ. 7, 1967).

    ``ar.distinguishing_set`` picks knitted vertices X_k whose into-vectors
    tell every class of that list from every other, a ⊕ c included, and
    memoizes them on the quiver per (dimension vector, bounds); only
    dim Hom(X_k, m) at those k is solved, and the class whose vector agrees
    there is m's.

    Checked at run time: dim ker δ equals hom(c, a) and, on a hereditary
    algebra, dim Ext¹(c, a) = hom(c, a) − ⟨dim c, dim a⟩ for the Euler form
    ⟨x, y⟩ = Σ_i x_i y_i − Σ_α x_{s(α)} y_{t(α)} (else
    ``ExtDimensionMismatch``); a middle term whose vector matches no
    bounded class raises ``NegativeMultiplicity``, one that reads as a ⊕ c
    raises ``ExtDimensionMismatch``, and two bounded classes with one
    vector raise ``NonUnitriangularHomMatrix``; every division is exact
    (else ``NonIntegralOrbitCount``).  Raises ``ResourceBound`` when
    p^{dim Ext¹(c, a)} exceeds ``EXT_WALK_BOUND``.
    """
    p = ar.field.p
    n1, n2 = ar.class_module(a), ar.class_module(c)
    ext = ext_space(n2, n1)
    if p ** ext.dim > EXT_WALK_BOUND:
        raise ResourceBound(
            f"Ext¹({c.render()}, {a.render()}) walk needs {p}^{ext.dim} classes "
            f"> bound {EXT_WALK_BOUND}")
    hom_ca = _pair(ar, c, ar.hom_vectors(a)[0])
    if ext.hom_dim != hom_ca:
        raise ExtDimensionMismatch(
            f"dim ker δ = {ext.hom_dim} for Ext¹({c.render()}, {a.render()}), "
            f"but the Hom matrix gives dim Hom = {hom_ca}")
    spec = ar.spec
    if not spec.relations:
        index = {v: i for i, v in enumerate(spec.vertices)}
        euler = (sum(x * y for x, y in zip(n2.dims, n1.dims))
                 - sum(n2.dims[index[al.source]] * n1.dims[index[al.target]]
                       for al in spec.quiver.arrows))
        if ext.dim != hom_ca - euler:
            raise ExtDimensionMismatch(
                f"dim Ext¹({c.render()}, {a.render()}) = {ext.dim}, but the "
                f"Euler form gives {hom_ca - euler}")
    cocycle = [0] * (len(ext.basis[0]) if ext.basis else 0)
    deltas = [[(0, 0, j, v) for j, v in enumerate(z) if v] for z in ext.basis]
    split = a + c
    walked: dict[MultiplicityVector, int] = {}
    for k, weight in enumerate(scalar_orbits([[cocycle]], deltas, p)):
        b = split if k == 0 else _middle_class(ar, split, middle_term(n1, n2, cocycle))
        walked[b] = walked.get(b, 0) + weight
    denominator = ar.class_aut_order(a) * ar.class_aut_order(c) * p ** hom_ca
    out = {}
    for b, classes in walked.items():
        numerator = classes * ar.class_aut_order(b)
        if numerator % denominator:
            raise NonIntegralOrbitCount(
                f"{classes} extension classes with middle term {b.render()}: "
                f"{numerator} not divisible by {denominator}")
        out[b] = numerator // denominator
    return out


def _middle_class(ar: ARQuiver, split: MultiplicityVector,
                  m: Representation) -> MultiplicityVector:
    """The class of the middle term m of a nonzero extension class whose
    split middle term is ``split``: identified on the distinguishing set
    of the classes below the Hom vectors of ``split``
    (``hall_numbers_ext`` holds the proof sketch)."""
    coords, table = ar.distinguishing_set(m.dims, bounds=ar.hom_vectors(split))
    b = _lookup(table, [hom_dim(ar.vertices[k].rep, m) for k in coords])
    if b == split:
        raise ExtDimensionMismatch(
            f"a nonzero extension class has the split middle term {split.render()}")
    return b


def ext_hall_number(ar: ARQuiver, a: MultiplicityVector, c: MultiplicityVector,
                    b: MultiplicityVector) -> int:
    """F^b_{a,c} over the quiver's field by ``hall_numbers_ext``, whose
    table of every b is memoized on the quiver per pair (a, c)."""
    table = ar.ext_tables.get((a, c))
    if table is None:
        table = ar.ext_tables[(a, c)] = hall_numbers_ext(ar, a, c)
    return table.get(b, 0)


# ---------------------------------------------------------------------------
# Hall polynomials


class HallPolynomial:
    """Integer polynomial reproducing the counts F at every prime, with the
    evidence that produced it."""

    __slots__ = ("coefficients", "sub_class", "quot_class", "total_class",
                 "degree_bound", "primes", "counts", "validation_prime",
                 "validation_count", "excluded_primes")

    def __init__(self, coefficients: tuple[int, ...], sub_class: MultiplicityVector,
                 quot_class: MultiplicityVector, total_class: MultiplicityVector,
                 degree_bound: int, primes: tuple[int, ...], counts: tuple[int, ...],
                 validation_prime: int | None, validation_count: int | None,
                 excluded_primes: tuple[int, ...] = ()):
        self.coefficients = coefficients  # constant term first
        self.sub_class = sub_class
        self.quot_class = quot_class
        self.total_class = total_class
        self.degree_bound = degree_bound
        self.primes = primes
        self.counts = counts
        self.validation_prime = validation_prime
        self.validation_count = validation_count
        self.excluded_primes = excluded_primes

    def evaluate(self, t: int) -> int:
        acc = 0
        power = 1
        for c in self.coefficients:
            acc += c * power
            power *= t
        return acc

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def to_doc(self) -> dict:
        return {
            "phi": list(self.coefficients),
            "phi_at_1": self.evaluate(1),
            "triple": {"sub": self.sub_class.render(),
                       "quotient": self.quot_class.render(),
                       "total": self.total_class.render()},
            "degree_bound": self.degree_bound,
            "primes": list(self.primes),
            "counts": list(self.counts),
            "validation_prime": self.validation_prime,
            "validation_count": self.validation_count,
            "excluded_primes": list(self.excluded_primes),
        }


def lagrange_interpolate(nodes: Sequence[int], values: Sequence[int]) -> list[Fraction]:
    """Exact interpolation; coefficients constant-term first.

    Over the integers with one common denominator: the Lagrange basis
    polynomial of node x_i is P(t)/(t − x_i) divided by w_i = Π_{j≠i}
    (x_i − x_j), where P(t) = Π_j (t − x_j).  With L the least common
    multiple of the w_i, every L/w_i is an integer, so the numerator
    Σ_i y_i · (L/w_i) · P(t)/(t − x_i) has integer coefficients (the
    quotient by t − x_i is exact, by synthetic division), and the
    coefficients are those integers over L."""
    product = [1]  # P(t), constant term first
    for x in nodes:
        product = [0] + product
        for k in range(len(product) - 1):
            product[k] -= x * product[k + 1]
    weights = [math.prod(xi - xj for j, xj in enumerate(nodes) if j != i)
               for i, xi in enumerate(nodes)]
    common = math.lcm(*weights)
    numerator = [0] * len(nodes)
    for xi, yi, wi in zip(nodes, values, weights):
        scale = yi * (common // wi)
        carry = 0  # P(t)/(t − x_i), from the top coefficient down
        for k in range(len(nodes) - 1, -1, -1):
            carry = product[k + 1] + xi * carry
            numerator[k] += scale * carry
    return [Fraction(c, common) for c in numerator]


class ARFamily:
    """Knitted AR quivers of one algebra over many primes, with memoized
    module classes, Hall counts and Hall polynomials.

    Classes are named by multiplicity vectors over the (field-independent)
    vertex ids, so the same class can be instantiated over every prime.
    """

    def __init__(self, spec: AlgebraSpec, config: HallConfig | None = None):
        self.spec = spec
        self.config = config or HallConfig()
        self._quivers: dict[int, ARQuiver] = {}
        self._polynomials: dict[tuple, HallPolynomial] = {}
        self._dims: dict[MultiplicityVector, tuple[int, ...]] = {}

    # -- knitting ----------------------------------------------------------

    def quiver(self, p: int) -> ARQuiver:
        """The quiver over F_p, knitted once.  Every quiver after the first
        shares the first one's class lists, Hom vectors and distinguishing
        sets (``ARQuiver.share_memos``, which raises
        ``FieldDependenceDetected`` when the knitted orders or Hom matrices
        differ); a quiver that fails that check is not kept."""
        ar = self._quivers.get(p)
        if ar is not None:
            return ar
        ar = knit(self.spec, p, self.config.max_vertices)
        if self._quivers:
            ar.share_memos(next(iter(self._quivers.values())))
        self._quivers[p] = ar
        return ar

    def reference_quiver(self) -> ARQuiver:
        return self.quiver(first_primes(1, self.config.excluded_primes)[0])

    # -- classes -----------------------------------------------------------

    def class_dims(self, mv: MultiplicityVector) -> tuple[int, ...]:
        """The dimension vector of the class mv, memoized per class."""
        dims = self._dims.get(mv)
        if dims is None:
            dims = self._dims[mv] = self.reference_quiver().class_dim_vector(mv)
        return dims

    # -- counting ----------------------------------------------------------

    def count(self, a: MultiplicityVector, c: MultiplicityVector,
              b: MultiplicityVector, p: int) -> int:
        """Hall number at one prime: submodule class a, quotient class c,
        ambient class b.  One walk of Ext¹(c, a) answers every b
        (``ext_hall_number``)."""
        return ext_hall_number(self.quiver(p), a, c, b)

    # -- polynomials -------------------------------------------------------

    def polynomial(self, a: MultiplicityVector, c: MultiplicityVector,
                   b: MultiplicityVector) -> HallPolynomial:
        key = (a, c, b)
        if key in self._polynomials:
            return self._polynomials[key]
        poly = self._interpolate(a, c, b, tuple(self.config.excluded_primes))
        self._polynomials[key] = poly
        return poly

    def _interpolate(self, a, c, b, excluded: tuple[int, ...],
                     retried: bool = False) -> HallPolynomial:
        """Interpolate F^b_{a,c} from counts at D+2 primes, where

            D = min(Σ e(d−e), hom(a,b) − end(a), hom(b,c) − end(c)),

        every term read off the cached Hom matrix (hom(a,b) = dim Hom(a,b),
        end(a) = dim End(a); these dimensions are field-independent).

        Why D bounds the degree.  Over F_q, each submodule U ≅ a of b with
        b/U ≅ c is the image of exactly |Aut a| injective maps a -> b, so
        F(q)·|Aut a| ≤ q^{hom(a,b)}.  End(a) modulo its radical is a product
        of matrix algebras M_n(F_q), so |Aut a| ≥ κ·q^{end(a)} with κ > 0
        independent of q (κ ≥ 0.28^k for k isotypic parts).  Hence
        F(q) ≤ q^{hom(a,b) − end(a)}/κ, and the Hall polynomial, which exists
        for representation-directed algebras and takes the value F at
        infinitely many primes, has degree ≤ hom(a,b) − end(a).  The kernels
        of the |Aut c|·F(q) surjections b -> c with kernel ≅ a give
        hom(b,c) − end(c) the same way.  The Grassmannian dimension Σ e(d−e)
        bounds the degree too, so the min never needs more primes than it.

        The counts of an accepted polynomial are checked against the free
        action of F_q^* on those injections and surjections (none is zero
        when a and c are nonzero): (q−1)·F(q) ≤ q^{hom(a,b)} − 1 and
        (q−1)·F(q) ≤ q^{hom(b,c)} − 1, else ``InconsistentCounts``.
        """
        e = self.class_dims(a)
        ce = self.class_dims(c)
        d = self.class_dims(b)
        if tuple(x + y for x, y in zip(e, ce)) != d:
            return HallPolynomial((0,), a, c, b, 0, (), (), None, None, excluded)
        ar = self.reference_quiver()
        hom_a, hom_c, hom_b = (ar.hom_vectors(mv) for mv in (a, c, b))
        if not _possibly_nonzero(hom_a, hom_c, hom_b):
            # count provably zero over every field: no embedding/projection
            # can shrink the Hom vectors
            return HallPolynomial((0,), a, c, b, 0, (), (), None, None, excluded)
        hom_ab = _pair(ar, a, hom_b[0])
        hom_bc = _pair(ar, c, hom_b[1])
        degree_bound = min(sum(ex * (dx - ex) for ex, dx in zip(e, d)),
                           hom_ab - _pair(ar, a, hom_a[0]),
                           hom_bc - _pair(ar, c, hom_c[1]))
        primes = first_primes(degree_bound + 2, excluded)
        counts = [self.count(a, c, b, p) for p in primes]
        nodes, held_out = primes[:-1], primes[-1]
        values, check = counts[:-1], counts[-1]
        raw = lagrange_interpolate(nodes, values)
        coeffs = []
        for frac in raw:
            if frac.denominator != 1:
                raise NonIntegralCoefficients(
                    f"coefficient {frac} for triple ({a.render()}, {c.render()}, "
                    f"{b.render()})")
            coeffs.append(int(frac))
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        poly = HallPolynomial(tuple(coeffs), a, c, b, degree_bound,
                              tuple(nodes), tuple(values), held_out, check,
                              excluded)
        if poly.evaluate(held_out) != check:
            if retried:
                raise InconsistentCounts(
                    f"held-out prime {held_out} gives {check}, interpolation "
                    f"gives {poly.evaluate(held_out)} (after retry)")
            return self._interpolate(a, c, b, excluded + (min(primes),),
                                     retried=True)
        if not a.is_zero() and not c.is_zero():
            free = min(hom_ab, hom_bc)
            for p, count in zip(primes, counts):
                if (p - 1) * count > p ** free - 1:
                    raise InconsistentCounts(
                        f"count {count} at p={p} for triple ({a.render()}, "
                        f"{c.render()}, {b.render()}) exceeds (p^{free} - 1)/(p - 1), "
                        f"the orbits of F_p^* on nonzero maps")
        return poly

    def euler(self, a: MultiplicityVector, c: MultiplicityVector,
              b: MultiplicityVector) -> int:
        return self.polynomial(a, c, b).evaluate(1)

    def known_polynomials(self) -> list[HallPolynomial]:
        return list(self._polynomials.values())


def _pair(ar: ARQuiver, mv: MultiplicityVector, vector: Sequence[int]) -> int:
    """Σ_{x∈mv} n_x · vector[x]: with the into-vector of M (from
    ``ar.hom_vectors``) this is dim Hom(mv, M), with its out-of vector
    dim Hom(M, mv)."""
    return sum(n * vector[ar.by_id[x].index] for x, n in mv.items())


def _possibly_nonzero(hom_a, hom_c, hom_b) -> bool:
    """Exact necessary conditions for a nonzero Hall number, from
    left-exactness of Hom applied to 0 -> M(a) -> M(b) -> M(c) -> 0:

        dim Hom(X, a) <= dim Hom(X, b) <= dim Hom(X, a) + dim Hom(X, c)
        dim Hom(c, X) <= dim Hom(b, X) <= dim Hom(a, X) + dim Hom(c, X)

    for every indecomposable X.  Each argument is the (into, out-of) pair
    of ``ARQuiver.hom_vectors`` (the Hom dimensions are field-independent).
    """
    (into_a, outof_a), (into_c, outof_c), (into_b, outof_b) = hom_a, hom_c, hom_b
    for k in range(len(into_b)):
        if not into_a[k] <= into_b[k] <= into_a[k] + into_c[k]:
            return False
        if not outof_c[k] <= outof_b[k] <= outof_a[k] + outof_c[k]:
            return False
    return True


class OracleEquivalenceReport:
    __slots__ = ("compared", "nonzero", "skipped", "mismatches")

    def __init__(self, compared: int, nonzero: int, skipped: int,
                 mismatches: list[tuple]):
        self.compared = compared
        self.nonzero = nonzero
        self.skipped = skipped  # triples outside the hom-oracle resource bounds
        self.mismatches = mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_oracle_equivalence(spec: AlgebraSpec, primes: Sequence[int],
                             max_total_dim: int,
                             jobs: int = 1) -> OracleEquivalenceReport:
    """Compare the three counting routes on every triple of module classes
    whose members each have total dimension at most ``max_total_dim``.

    The routes answer rows: per ambient class b and sub class a, one hom
    row over every quotient class c; per b, one grass walk of every shape
    of b, with rows over every (a, c) of each shape.  That walk runs on the
    first shape of b with an a that is not skipped and takes in every
    shape, those whose hom rows are all skipped too; ``linalg.SUBSPACE_CAP``
    bounds the whole walk.  The resource bound of the hom oracle depends on
    (b, a) only (p^{dim Hom(a, b)} against ``reps.HOM_WALK_BOUND``), so when
    the hom row of (b, a) exceeds it every triple (a, c, b) is recorded as
    skipped (the hom oracle's precondition fails there) and no route counts
    it.  On every other triple the grass and hom counts must agree exactly,
    and so must the Ext route's (walked once per (a, c) on the prime's
    quiver).  A mismatch is recorded as (p, a, c, b, grass, hom, ext).  The
    sweep runs in one process: ``jobs`` must be 1.
    """
    from .liealg import enumerate_module_classes

    if jobs != 1:
        raise ValueError("jobs must be 1: the oracle sweep runs in one process")
    dim_vectors = [d for d in itertools.product(
        *(range(max_total_dim + 1) for _ in spec.vertices))
        if 0 < sum(d) <= max_total_dim]
    compared = nonzero = skipped = 0
    mismatches = []
    for p in primes:
        ar = knit(spec, p)
        for d in dim_vectors:
            for b in enumerate_module_classes(ar, d):
                m = ar.class_module(b)
                by_shape = None
                for e in itertools.product(*(range(x + 1) for x in d)):
                    rest = tuple(x - y for x, y in zip(d, e))
                    quotients = enumerate_module_classes(ar, rest)
                    hom_rows = {}
                    for a in enumerate_module_classes(ar, e):
                        try:
                            hom_rows[a] = hall_numbers_hom(ar, a, m)
                        except ResourceBound:
                            skipped += len(quotients)
                    if not hom_rows:
                        continue
                    if by_shape is None:
                        by_shape = hall_numbers_grass(ar, m)
                    grass_row = by_shape.get(e, {})
                    for a, hom_row in hom_rows.items():
                        for c in quotients:
                            grass = grass_row.get((a, c), 0)
                            hom = hom_row.get(c, 0)
                            compared += 1
                            if grass:
                                nonzero += 1
                            ext = ext_hall_number(ar, a, c, b)
                            if grass != hom or ext != grass:
                                mismatches.append((p, a.render(), c.render(),
                                                   b.render(), grass, hom, ext))
                ar.forget(m)
    return OracleEquivalenceReport(compared, nonzero, skipped, sorted(mismatches))
