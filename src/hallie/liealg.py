"""Lie structure constants on the indecomposable basis.

The degenerate Hall product is formed degree by degree on module classes
(multiplicity vectors over the knitted vertex ids):

    u_c . u_a = sum_b phi(a, c, b)(1) u_b,

where phi counts submodules of class a in b with quotient of class c.  The
Euler product v_m . v_n = sum_x chi(m, n, x) v_x takes chi, the Euler
characteristic of the variety of submodules of class m in x with quotient
of class n, as phi(m, n, x) evaluated at 1.  The roles are opposite: the
*right* factor of the Hall product is the submodule class, the *left*
factor of the Euler product is.  So the Euler table is derived from the
Hall polynomials, as the negated Hall table, and not recomputed.

Commutators of unit classes close on unit classes.  Both bracket tables are
compared through the sign twist eps(x) = (-1)^(total dim x - 1); with the
derived Euler table that comparison checks the identity
eps(x + y) = -eps(x) eps(y) on every nonzero bracket.  The Hall table is
also compared against the positive roots of the underlying graph when the
algebra is hereditary.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import NotClosedOnIndecomposables, NotFiniteType
from .hall import ARFamily
from .knit import ARQuiver
from .reps import MultiplicityVector
from .report import CheckResult, Report

# Positive roots past which ``positive_roots`` raises NotFiniteType.
ROOT_CAP = 10_000


class GradedVector:
    """Finite integer combination of module classes."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[MultiplicityVector, int]] = ()):
        acc: dict[MultiplicityVector, int] = {}
        for mv, c in terms:
            if c:
                acc[mv] = acc.get(mv, 0) + c
        self.terms = {mv: c for mv, c in acc.items() if c}

    def __add__(self, other: "GradedVector") -> "GradedVector":
        return GradedVector(list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return GradedVector(list(self.terms.items())
                            + [(mv, -c) for mv, c in other.terms.items()])

    def scale(self, k: int) -> "GradedVector":
        return GradedVector([(mv, k * c) for mv, c in self.terms.items()])

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedVector) and other.terms == self.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "GradedVector(0)"
        body = " + ".join(f"{c}*[{mv.render()}]"
                          for mv, c in sorted(self.terms.items(),
                                              key=lambda kv: kv[0].render()))
        return f"GradedVector({body})"


def enumerate_module_classes(ar: ARQuiver, d: Sequence[int],
                             bounds: tuple[Sequence[int], Sequence[int]] | None = None
                             ) -> list[MultiplicityVector]:
    """All multiplicity vectors whose weighted dimension vector equals d,
    enumerated deterministically (bounded knapsack in the knitted order),
    optionally only those whose Hom vectors lie below ``bounds``.

    The knapsack runs once per dimension vector, bounds and quiver
    (``ARQuiver.module_classes``); each call returns a fresh list."""
    return list(ar.module_classes(d, bounds))


def hall_product(family: ARFamily, c: MultiplicityVector,
                 a: MultiplicityVector) -> GradedVector:
    """u_c . u_a: coefficients are Hall polynomial values at 1 summed over
    classes at the total dimension vector; a is the submodule class.

    Only the classes b with into(b) <= into(a) + into(c) and
    outof(b) <= outof(a) + outof(c) are enumerated.  Every other class fails
    an upper inequality of ``_possibly_nonzero`` and so has the zero
    polynomial: skipping it cannot change the product.  Hom vectors add
    over direct sums, so the bounds are the Hom vectors of a + c."""
    ar = family.reference_quiver()
    split = a + c
    terms = []
    for b in enumerate_module_classes(ar, family.class_dims(split),
                                      ar.hom_vectors(split)):
        value = family.euler(a, c, b)
        if value:
            terms.append((b, value))
    return GradedVector(terms)


def graded_multiply(family: ARFamily, left: GradedVector,
                    right: GradedVector) -> GradedVector:
    out = GradedVector()
    for lm, lc in left.terms.items():
        for rm, rc in right.terms.items():
            out = out + hall_product(family, lm, rm).scale(lc * rc)
    return out


class LieTable:
    """Structure constants on the indecomposable basis.

    Only pairs i < j in the knitted order are stored; each entry is either
    None (vanishing bracket) or (target id, coefficient)."""

    __slots__ = ("basis", "dims", "totals", "entries")

    def __init__(self, basis: tuple[str, ...], dims: dict[str, tuple[int, ...]],
                 totals: dict[str, int],
                 entries: dict[tuple[str, str], tuple[str, int] | None]):
        self.basis = basis
        self.dims = dims
        self.totals = totals
        self.entries = entries

    def bracket(self, x: str, y: str) -> tuple[str, int] | None:
        if x == y:
            return None
        if (x, y) in self.entries:
            return self.entries[(x, y)]
        flipped = self.entries[(y, x)]
        if flipped is None:
            return None
        target, coeff = flipped
        return (target, -coeff)

    def nonzero_pairs(self) -> list[tuple[str, str]]:
        return [pair for pair, value in self.entries.items() if value is not None]

    def to_doc(self) -> dict:
        return {
            "basis": list(self.basis),
            "dims": {k: list(v) for k, v in self.dims.items()},
            "brackets": {
                f"{i}|{j}": (None if entry is None
                             else {"target": entry[0], "coefficient": entry[1]})
                for (i, j), entry in sorted(self.entries.items())
            },
        }


def hall_lie_table(family: ARFamily) -> LieTable:
    """Brackets of unit classes as commutators of the Hall product."""
    ar = family.reference_quiver()
    ids = [v.id for v in ar.vertices]
    units = {vid: MultiplicityVector.unit(vid) for vid in ids}
    entries: dict[tuple[str, str], tuple[str, int] | None] = {}
    for i, xi in enumerate(ids):
        for xj in ids[i + 1:]:
            commutator = (hall_product(family, units[xi], units[xj])
                          - hall_product(family, units[xj], units[xi]))
            entry = None
            for mv, coeff in commutator.terms.items():
                unit = mv.unit_id()
                if unit is None:
                    raise NotClosedOnIndecomposables(
                        f"[{xi}, {xj}] has coefficient {coeff} on the "
                        f"decomposable class {mv.render()}")
                if entry is not None:
                    raise NotClosedOnIndecomposables(
                        f"[{xi}, {xj}] is supported on more than one class")
                entry = (unit, coeff)
            entries[(xi, xj)] = entry
    return LieTable(tuple(ids),
                    {v.id: v.rep.dims for v in ar.vertices},
                    {v.id: v.rep.total_dim for v in ar.vertices},
                    entries)


def euler_lie_table(kt: LieTable) -> LieTable:
    """Brackets of unit classes as commutators of the Euler product, read
    off the Hall table ``kt``.

    Both products sum phi(sub, quot, x)(1) over the classes x with the
    roles of the factors swapped, v_m . v_n = u_n . u_m, so every
    commutator changes sign: [m, n]_E = -[m, n]_H."""
    return LieTable(kt.basis, kt.dims, kt.totals, {
        pair: None if entry is None else (entry[0], -entry[1])
        for pair, entry in kt.entries.items()})


def verify_isomorphism(kt: LieTable, lt: LieTable) -> Report:
    """Check that u_x -> eps(x) v_x with eps(x) = (-1)^(total dim - 1)
    intertwines the two bracket tables, pair by pair."""
    checks = []
    if kt.basis != lt.basis:
        return Report([CheckResult("same basis", False,
                                   "tables have different bases")])

    def eps(vid: str) -> int:
        return -1 if kt.totals[vid] % 2 == 0 else 1

    for (i, j), k_entry in sorted(kt.entries.items()):
        l_entry = lt.entries[(i, j)]
        mapped = (None if k_entry is None
                  else (k_entry[0], eps(k_entry[0]) * k_entry[1]))
        twisted = (None if l_entry is None
                   else (l_entry[0], eps(i) * eps(j) * l_entry[1]))
        ok = mapped == twisted
        checks.append(CheckResult(
            f"pair ({i}, {j})", ok,
            "" if ok else f"sign-twisted brackets differ: {mapped} vs {twisted}"))
    return Report(checks)


def jacobi_check(t: LieTable) -> Report:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 over every basis triple."""

    def outer(x: str, inner: tuple[str, int] | None) -> dict[str, int]:
        if inner is None:
            return {}
        target, coeff = inner
        nxt = t.bracket(x, target)
        if nxt is None:
            return {}
        return {nxt[0]: coeff * nxt[1]}

    checks = []
    n = len(t.basis)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                x, y, z = t.basis[i], t.basis[j], t.basis[k]
                acc: dict[str, int] = {}
                for part in (outer(x, t.bracket(y, z)),
                             outer(y, t.bracket(z, x)),
                             outer(z, t.bracket(x, y))):
                    for key, val in part.items():
                        acc[key] = acc.get(key, 0) + val
                residue = {key: val for key, val in acc.items() if val}
                ok = not residue
                checks.append(CheckResult(
                    f"triple ({x}, {y}, {z})", ok,
                    "" if ok else f"Jacobi residue {residue}"))
    return Report(checks)


# ---------------------------------------------------------------------------
# Root systems


class RootSystem:
    __slots__ = ("cartan", "positive_roots")

    def __init__(self, cartan: tuple[tuple[int, ...], ...],
                 positive_roots: tuple[tuple[int, ...], ...]):
        self.cartan = cartan
        self.positive_roots = positive_roots


def positive_roots(cartan: Sequence[Sequence[int]]) -> RootSystem:
    """All positive roots of a simply-laced Cartan matrix by reflection
    closure from the simple roots, keeping positive vectors only; raises
    ``NotFiniteType`` once there are more than ``ROOT_CAP``."""
    n = len(cartan)
    for i, row in enumerate(cartan):
        if len(row) != n or row[i] != 2:
            raise ValueError("not a Cartan matrix")
        for j, val in enumerate(row):
            if i != j and val not in (0, -1):
                raise ValueError("not simply laced")
            if cartan[i][j] != cartan[j][i]:
                raise ValueError("Cartan matrix must be symmetric")

    def reflect(v: tuple[int, ...], i: int) -> tuple[int, ...]:
        pairing = sum(cartan[i][j] * v[j] for j in range(n))
        out = list(v)
        out[i] -= pairing
        return tuple(out)

    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = reflect(v, i)
                if all(x >= 0 for x in w) and w not in roots:
                    roots.add(w)
                    nxt.append(w)
        if len(roots) > ROOT_CAP:
            raise NotFiniteType(
                f"reflection closure exceeded {ROOT_CAP} positive roots")
        frontier = nxt
    ordered = sorted(roots, key=lambda v: (sum(v), v))
    return RootSystem(tuple(tuple(r) for r in cartan), tuple(ordered))


def compare_with_root_system(t: LieTable, rs: RootSystem) -> Report:
    """For a hereditary algebra of Dynkin type: dimension vectors must
    biject with the positive roots, brackets must be nonzero exactly when
    the dimension sum is a root, and every constant must be +1 or -1."""
    checks = []
    dim_set = {tuple(t.dims[b]) for b in t.basis}
    root_set = set(rs.positive_roots)
    checks.append(CheckResult(
        "dimension vectors biject with positive roots",
        dim_set == root_set and len(dim_set) == len(t.basis),
        f"{len(t.basis)} basis elements vs {len(root_set)} roots"))
    for (i, j), entry in sorted(t.entries.items()):
        total = tuple(a + b for a, b in zip(t.dims[i], t.dims[j]))
        is_root = total in root_set
        checks.append(CheckResult(
            f"bracket ({i}, {j}) nonzero iff root sum", (entry is not None) == is_root,
            f"dim sum {total}, entry {entry}"))
        if entry is not None:
            checks.append(CheckResult(
                f"constant ({i}, {j}) is +1/-1", entry[1] in (1, -1),
                f"constant {entry[1]}"))
    return Report(checks)
