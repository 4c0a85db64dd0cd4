"""Hall numbers over prime fields and their interpolating polynomials.

The Hall number of a triple (n1, n2, m) is the number of submodules
U of m with U isomorphic to n1 and m/U isomorphic to n2.  Three independent
counting routes are provided:

* ``hall_numbers_ext`` counts by Riedtmann's formula
  F^b_{a,c} = |Ext¹(c,a)_b| · |Aut b| / (|Aut a| · |Aut c| · q^{hom(c,a)}):
  one walk of Ext¹(c, a), one extension class per orbit of the nonzero
  scalars, identifies the middle term of each class and so answers every
  ambient class b at once.  |Aut| is read in closed form off the Hom matrix
  (``ARQuiver.class_aut_order``: the maps between non-isomorphic summands
  form the radical, and End/rad is a product of matrix algebras M_n(F_q)).
  ``ARFamily`` counts with it (``ext_hall_number``, one walk per pair
  memoized on the quiver); the proof sketch is in its docstring.
* ``hall_number_grass`` enumerates arrow-stable subspace tuples directly
  (in quiver-topological vertex order, so closure constraints prune the
  enumeration) and classifies the resulting sub/quotient pair.  It compares
  Hom dimensions only on the separating set of each expected class: the
  knitted vertices whose Hom dimensions, read off the Hom matrix, tell that
  class apart from every other class of its dimension vector.  It is the
  reference route of ``check_oracle_equivalence``.
* ``hall_number_hom`` enumerates the injective homomorphisms n1 -> m with
  ``linalg.injective_images``: one map per orbit of Π GL_{n_i}(F_p) for
  n1 = ⊕ X_i^{n_i}, that is one reduced echelon basis of an
  n_i-dimensional subspace of Hom(X_i, m) per distinct summand, weighted
  by the orbit size, walked one row at a time against an incremental
  echelon so that a row falling in the span of the rows above it cuts off
  the subtree.  Each distinct image is
  classified once, its cokernel compared on every knitted vertex, and must
  be reached by exactly |Aut(n1)| maps.  It is the independent oracle of
  ``check_oracle_equivalence``, which compares all three routes.

The routes ask the knitted ``ARQuiver`` for what it memoizes: the classes
of each dimension vector, the class of each module they identify and the
separating set of each class.

Interpolation: counts are taken at the first D+2 primes not on the excluded
list, where D is the degree bound min(Σ e(d−e), hom(a,b) − end(a),
hom(b,c) − end(c)) of ``ARFamily._interpolate`` (the ambient Grassmannian
dimension, or the tight bound from counting injections and surjections,
whichever is smaller); Lagrange interpolation over exact rationals on the
first D+1 of them must give integer coefficients, and the held-out last
prime must reproduce the interpolated value exactly.  On a validation
failure the smallest prime used is excluded once and the whole protocol
retried.  The counts of an accepted polynomial must also respect the free
action of the scalars on injections and surjections.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .algebra import AlgebraSpec
from .errors import (ExtDimensionMismatch, FieldDependenceDetected,
                     InconsistentCounts, NonIntegralCoefficients,
                     NonIntegralOrbitCount, ResourceBound)
from .knit import ARQuiver, KnitConfig, knit
from .linalg import (FMatrix, gaussian_binomial, injective_images,
                     intersect_subspaces, is_prime, preimage_subspace, row_space,
                     scalar_orbits, subspaces_between)
from .reps import (MultiplicityVector, Representation, SubspaceTuple, aut_order,
                   ext_space, hom_blocks, hom_dim, matches_class, middle_term,
                   quotient_by_subtuple, restrict_to_subtuple)


@dataclass(frozen=True)
class HallConfig:
    excluded_primes: tuple[int, ...] = ()
    seed: int = 0
    max_vertices: int = 512


def primes_from(start_after: int = 1) -> Iterator[int]:
    n = max(start_after, 1)
    while True:
        n += 1
        if is_prime(n):
            yield n


def first_primes(count: int, excluded: Sequence[int] = ()) -> list[int]:
    out = []
    for p in primes_from():
        if p in excluded:
            continue
        out.append(p)
        if len(out) == count:
            return out
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Counting


def closed_subspace_tuples(m: Representation, e: Sequence[int],
                           cap: int = 10_000_000) -> Iterator[SubspaceTuple]:
    """All arrow-stable subspace tuples of shape e inside m, exactly once.

    Vertices are filled one at a time; the subspace at a vertex is pinched
    between the span of the images along arrows from already-chosen sources
    (a lower bound) and the intersection of preimages along arrows into
    already-chosen targets (an upper bound), so every emitted tuple is
    stable by construction and dead branches are pruned early.  The fill
    order is the quiver-topological order or its reverse, whichever leaves
    fewer unconstrained choices.
    """
    spec, field = m.spec, m.field
    verts = spec.vertices
    index = {v: i for i, v in enumerate(verts)}
    if len(e) != len(verts) or any(x < 0 for x in e):
        raise ValueError("bad shape vector")
    if any(e[i] > m.dims[i] for i in range(len(verts))):
        return
    order = _fill_order(m, e)
    produced = 0
    chosen: dict[str, FMatrix] = {}

    def bounds(v: str) -> tuple[FMatrix, FMatrix] | None:
        d = m.dims[index[v]]
        lower_rows = []
        for a in spec.arrows_into(v):
            if a.source in chosen:
                mat = m.maps[a.id]
                lower_rows.extend(mat.apply(row) for row in chosen[a.source].rows)
        lower = (row_space(FMatrix.from_rows(field, lower_rows, ncols=d))
                 if lower_rows else FMatrix.zeros(field, 0, d))
        if lower.nrows > e[index[v]]:
            return None
        upper = FMatrix.identity(field, d)
        for a in spec.arrows_from(v):
            if a.target in chosen:
                upper = intersect_subspaces(
                    upper, preimage_subspace(m.maps[a.id], chosen[a.target]))
                if upper.nrows < e[index[v]]:
                    return None
        return lower, upper

    def recurse(pos: int) -> Iterator[SubspaceTuple]:
        nonlocal produced
        if pos == len(order):
            produced += 1
            if produced > cap:
                raise ResourceBound(
                    f"subspace tuple enumeration exceeded cap {cap}")
            yield SubspaceTuple(m, tuple(chosen[v] for v in verts))
            return
        v = order[pos]
        pinch = bounds(v)
        if pinch is None:
            return
        lower, upper = pinch
        for candidate in subspaces_between(lower, upper, e[index[v]], cap=cap):
            chosen[v] = candidate
            yield from recurse(pos + 1)
        chosen.pop(v, None)

    yield from recurse(0)


def _fill_order(m: Representation, e: Sequence[int]) -> tuple[str, ...]:
    """Topological or reverse-topological fill order, whichever has the
    smaller product of unconstrained per-vertex subspace counts."""
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
                total *= gaussian_binomial(m.dims[index[v]], e[index[v]], p)
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


def hall_number_grass(ar: ARQuiver, n1: Representation, n2: Representation,
                      m: Representation, cap: int = 10_000_000) -> int:
    """Count submodules of m isomorphic to n1 with quotient isomorphic to n2
    by direct enumeration of stable subspace tuples.

    Each sub and quotient is classified by ``matches_class`` on the
    separating set of its expected class only (``ARQuiver.separating_set``),
    not on every knitted vertex.  Why that decides the class:

    * a sub or quotient of dimension vector e is a module over the algebra;
    * every module is a direct sum of knitted indecomposables, because the
      knitted component is finite and therefore the whole AR quiver
      (Auslander), so the module is one of ``ar.module_classes(e)``;
    * the Hom matrix is unitriangular, so distinct classes have distinct
      into-vectors (dim Hom(X_k, -))_k, and every other class of dimension
      vector e differs from class a somewhere on a's separating set;
    * hence a module of dimension vector e that agrees with class a on a's
      separating set is of class a.
    """
    if not _dim_law_holds(n1, n2, m):
        return 0
    if n1.total_dim and hom_dim(n1, m) == 0:
        return 0
    if n2.total_dim and hom_dim(m, n2) == 0:
        return 0
    expected_sub = _separating_coordinates(ar, ar.class_of(n1))
    expected_quot = _separating_coordinates(ar, ar.class_of(n2))
    count = 0
    for tup in closed_subspace_tuples(m, n1.dims, cap=cap):
        sub, _ = restrict_to_subtuple(m, tup)
        if not matches_class(sub, ar, expected_sub):
            continue
        quot, _ = quotient_by_subtuple(m, tup)
        if matches_class(quot, ar, expected_quot):
            count += 1
    return count


def _separating_coordinates(ar: ARQuiver,
                            mv: MultiplicityVector) -> list[tuple[int, int]]:
    """(k, dim Hom(X_k, mv)) over the separating set of mv."""
    into, _ = ar.hom_vectors(mv)
    return [(k, into[k]) for k in ar.separating_set(mv)]


def hall_number_hom(ar: ARQuiver, n1: Representation, n2: Representation,
                    m: Representation, hom_bound: int = 1_000_000,
                    aut_bound: int = 1_000_000) -> int:
    """Count the same set through injective homomorphisms n1 -> m: the
    images of those maps whose cokernel is isomorphic to n2.

    ``linalg.injective_images`` walks Hom(n1, m) one orbit of
    G = Π GL_{n_i}(F_p) at a time, for n1 = ⊕ X_i^{n_i} as ``n1.runs``
    records it (``reps.hom_blocks``: a basis of Hom(X_i, m) per distinct
    summand).  G mixes the copies of each summand; it acts freely on the
    injective maps and keeps their image.  Its proof sketch covers the
    slice (on an injective map the copies' maps of X_i are independent, so
    each orbit has one member whose copies are the reduced echelon basis
    of an n_i-dimensional subspace of Hom(X_i, m)) and the pruning (rows
    that fall in the span of the rows above them at their vertex leave no
    injective completion).  Each distinct image is a submodule U ≅ n1,
    classified once: the cokernel m/U is compared on every knitted vertex,
    which keeps this route independent of the separating sets of the
    subspace route.

    Checked at run time: the injective maps with image U are the
    isomorphisms n1 -> U followed by the inclusion, and precomposition by
    Aut(n1) acts freely and transitively on them, so every image must be
    reached by exactly |Aut(n1)| maps (else ``NonIntegralOrbitCount``).
    ``aut_order`` counts |Aut(n1)| with the same walker over End(n1), on
    the same runs.  Raises ``ResourceBound`` when p^{dim Hom(n1, m)}
    exceeds ``hom_bound`` or p^{dim End(n1)} exceeds ``aut_bound``.
    """
    if not _dim_law_holds(n1, n2, m):
        return 0
    p = m.field.p
    blocks = hom_blocks(n1, m)
    h = sum(n * len(basis) for n, _, basis in blocks)
    if p ** h > hom_bound:
        raise ResourceBound(
            f"hom enumeration needs {p}^{h} maps > bound {hom_bound}")
    aut = aut_order(n1, bound=aut_bound)
    expected_quot = list(enumerate(ar.hom_vectors(ar.class_of(n2))[0]))
    field = m.field
    count = 0
    for key, maps in injective_images(m.dims, blocks, field).items():
        if maps != aut:
            raise NonIntegralOrbitCount(
                f"{maps} injective maps onto one image, but |Aut| = {aut}")
        bases = tuple(FMatrix(field, len(rows), d, rows)
                      for rows, d in zip(key, m.dims))
        quot, _ = quotient_by_subtuple(m, SubspaceTuple(m, bases))
        count += matches_class(quot, ar, expected_quot)
    return count


def hall_numbers_ext(ar: ARQuiver, a: MultiplicityVector, c: MultiplicityVector,
                     n1: Representation, n2: Representation
                     ) -> dict[MultiplicityVector, int]:
    """The Hall numbers F^b_{a,c} of every class b at once, by Riedtmann's
    formula over F_q (q = p):

        F^b_{a,c} = |Ext¹(c, a)_b| · |Aut b| / (|Aut a| · |Aut c| · q^{hom(c, a)}),

    where Ext¹(c, a)_b is the set of extension classes whose middle term is
    of class b; n1 and n2 are modules of the classes a and c.  Classes b
    missing from the result have F = 0.

    Why the formula.  Aut b acts on the exact sequences 0 -> a -f-> b -g->
    c -> 0 by φ·(f, g) = (φf, gφ⁻¹).  The orbits are the extension classes
    with middle term b, and the stabilizer of (f, g) is {1 + f h g : h ∈
    Hom(c, a)}, so there are |Ext¹(c, a)_b| · |Aut b| / q^{hom(c, a)} such
    sequences.  Each submodule U ≅ a of b with b/U ≅ c is the image of f
    for |Aut a| · |Aut c| of them.

    The walk visits one extension class per orbit of F_q^* (scaling the
    cocycle by λ conjugates the middle term by λ on a), weighted by the
    orbit size, and identifies each middle term with ``ar.class_of``; the
    zero class is a ⊕ c.  |Aut| comes in closed form from
    ``ARQuiver.class_aut_order``, hom(c, a) from the Hom matrix.  Checked
    at run time: dim ker δ equals hom(c, a) and, on a hereditary algebra,
    dim Ext¹(c, a) = hom(c, a) − ⟨dim c, dim a⟩ for the Euler form
    ⟨x, y⟩ = Σ_i x_i y_i − Σ_α x_{s(α)} y_{t(α)} (else
    ``ExtDimensionMismatch``); every division is exact (else
    ``NonIntegralOrbitCount``).
    """
    p = ar.field.p
    ext = ext_space(n2, n1)
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
    walked: dict[MultiplicityVector, int] = {}
    for k, weight in enumerate(scalar_orbits([[cocycle]], deltas, p)):
        b = a + c if k == 0 else ar.class_of(middle_term(n1, n2, cocycle))
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


def ext_hall_number(ar: ARQuiver, a: MultiplicityVector, c: MultiplicityVector,
                    b: MultiplicityVector) -> int:
    """F^b_{a,c} over the quiver's field by ``hall_numbers_ext``, whose
    table of every b is memoized on the quiver per pair (a, c)."""
    table = ar.ext_tables.get((a, c))
    if table is None:
        table = ar.ext_tables[(a, c)] = hall_numbers_ext(
            ar, a, c, ar.class_module(a), ar.class_module(c))
    return table.get(b, 0)


# ---------------------------------------------------------------------------
# Hall polynomials


@dataclass(frozen=True)
class HallPolynomial:
    """Integer polynomial reproducing the counts F at every prime, with the
    evidence that produced it."""

    coefficients: tuple[int, ...]  # constant term first
    sub_class: MultiplicityVector
    quot_class: MultiplicityVector
    total_class: MultiplicityVector
    degree_bound: int
    primes: tuple[int, ...]
    counts: tuple[int, ...]
    validation_prime: int | None
    validation_count: int | None
    excluded_primes: tuple[int, ...] = ()

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
    """Exact interpolation; coefficients constant-term first."""
    n = len(nodes)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        num = [Fraction(1)]  # product of (t - xj) for j != i
        den = Fraction(1)
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            num = _poly_mul_linear(num, -Fraction(xj))
            den *= Fraction(xi - xj)
        scale = Fraction(yi) / den
        for k, c in enumerate(num):
            coeffs[k] += scale * c
    return coeffs


def _poly_mul_linear(poly: list[Fraction], constant: Fraction) -> list[Fraction]:
    """poly(t) * (t + constant)."""
    out = [Fraction(0)] * (len(poly) + 1)
    for k, c in enumerate(poly):
        out[k] += c * constant
        out[k + 1] += c
    return out


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
        self._reference_ids: frozenset[str] | None = None

    # -- knitting ----------------------------------------------------------

    def quiver(self, p: int) -> ARQuiver:
        ar = self._quivers.get(p)
        if ar is not None:
            return ar
        ar = knit(self.spec, p, KnitConfig(max_vertices=self.config.max_vertices,
                                           seed=self.config.seed))
        self._quivers[p] = ar
        ids = frozenset(v.id for v in ar.vertices)
        if self._reference_ids is None:
            self._reference_ids = ids
        elif ids != self._reference_ids:
            raise FieldDependenceDetected(
                f"vertex ids over F_{p} differ from the reference knit")
        return ar

    def reference_quiver(self) -> ARQuiver:
        return self.quiver(first_primes(1, self.config.excluded_primes)[0])

    # -- classes -----------------------------------------------------------

    def class_dims(self, mv: MultiplicityVector) -> tuple[int, ...]:
        return self.reference_quiver().class_dim_vector(mv)

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


@dataclass
class OracleEquivalenceReport:
    compared: int
    nonzero: int
    skipped: int          # triples outside the hom-oracle resource bounds
    mismatches: list[tuple]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_oracle_equivalence(spec: AlgebraSpec, primes: Sequence[int],
                             max_total_dim: int, hom_bound: int = 1_000_000,
                             aut_bound: int = 1_000_000,
                             jobs: int = 1) -> OracleEquivalenceReport:
    """Compare the three counting routes on every triple of module classes
    whose members each have total dimension at most ``max_total_dim``.

    Triples whose hom-side enumeration exceeds the configured resource
    bounds are recorded as skipped (the hom oracle's precondition fails
    there); the hom route runs first, so a skipped triple is not counted
    by the other routes.  On every other triple the grass and hom counts
    must agree exactly, and so must the Ext route's (walked once per
    (a, c) on the prime's quiver).  A mismatch is recorded as (p, a, c, b,
    grass, hom, ext).  The sweep runs in one process: ``jobs`` must be 1.
    """
    if jobs != 1:
        raise ValueError("jobs must be 1: the oracle sweep runs in one process")
    dim_vectors = [d for d in itertools.product(
        *(range(max_total_dim + 1) for _ in spec.vertices))
        if 0 < sum(d) <= max_total_dim]
    results = [_oracle_equivalence_slice(spec, p, dim_vectors, hom_bound, aut_bound)
               for p in primes]
    compared = sum(r[0] for r in results)
    nonzero = sum(r[1] for r in results)
    skipped = sum(r[2] for r in results)
    mismatches = sorted(m for r in results for m in r[3])
    return OracleEquivalenceReport(compared, nonzero, skipped, mismatches)


def _oracle_equivalence_slice(spec: AlgebraSpec, p: int,
                              dim_vectors: Sequence[tuple[int, ...]],
                              hom_bound: int, aut_bound: int
                              ) -> tuple[int, int, int, list]:
    from .liealg import enumerate_module_classes

    ar = knit(spec, p)
    module = ar.class_module
    compared = nonzero = skipped = 0
    mismatches = []
    for d in dim_vectors:
        for b in enumerate_module_classes(ar, d):
            m = module(b)
            for e in itertools.product(*(range(x + 1) for x in d)):
                rest = tuple(x - y for x, y in zip(d, e))
                for a_mv in enumerate_module_classes(ar, e):
                    n1 = module(a_mv)
                    for c_mv in enumerate_module_classes(ar, rest):
                        n2 = module(c_mv)
                        try:
                            hom = hall_number_hom(ar, n1, n2, m,
                                                  hom_bound=hom_bound,
                                                  aut_bound=aut_bound)
                        except ResourceBound:
                            skipped += 1
                            continue
                        grass = hall_number_grass(ar, n1, n2, m)
                        compared += 1
                        if grass:
                            nonzero += 1
                        ext = ext_hall_number(ar, a_mv, c_mv, b)
                        if grass != hom or ext != grass:
                            mismatches.append(
                                (p, a_mv.render(), c_mv.render(), b.render(),
                                 grass, hom, ext))
    return compared, nonzero, skipped, mismatches
