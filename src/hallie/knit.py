"""Auslander-Reiten quiver construction by knitting.

The procedure builds every indecomposable with explicit matrices:

1. A projective P_x is inserted as soon as every indecomposable summand of
   rad P_x is already present; the inclusions of the summands become arrows.
2. A constructed vertex X is processed once all arrows out of it are known
   (every projective whose radical contains X is inserted and every
   predecessor of X has been processed).  If X is injective, nothing more
   happens.  Otherwise the maps on the arrows out of X assemble into a left
   minimal almost split monomorphism eta: X -> E; its cokernel Z is a new
   vertex with translate tau(Z) = X, and the cokernel projection restricted
   to each summand of E is a new arrow E_i -> Z.

Injectivity of a vertex is decided by its dimension vector against the
dimension vectors of the indecomposable injectives, which are read off the
path basis.  Vertex ids are the dimension vectors rendered as
"d1-d2-...-dn"; over a representation-directed algebra these are unique.
"""

from __future__ import annotations

from operator import mul
from typing import Mapping, Sequence

from .algebra import AlgebraSpec, projective_rep
from .errors import (EtaNotInjective, FieldDependenceDetected, IsProjective,
                     NonUnitriangularHomMatrix, NotDirected,
                     NotRepresentationFinite)
from .linalg import (FMatrix, PrimeField, _block_tally, echelon, hstack,
                     reduce_vector, row_space, vstack)
from .reps import (MultiplicityVector, Representation, SubspaceTuple,
                   check_relations, compose_homs, decompose_with_embeddings,
                   direct_sum, find_isomorphism, hom_dim, hom_space, identify,
                   restrict_to_subtuple, sub_quotient, summand_inclusions)


class KnitConfig:
    __slots__ = ("max_vertices",)

    def __init__(self, max_vertices: int = 512):
        self.max_vertices = max_vertices


class ARVertex:
    __slots__ = ("id", "index", "rep", "projective")

    def __init__(self, id: str, index: int, rep: Representation, projective: bool):
        self.id = id
        self.index = index
        self.rep = rep
        self.projective = projective


class ARArrow:
    __slots__ = ("source", "target", "maps")

    def __init__(self, source: str, target: str, maps: dict[str, FMatrix]):
        self.source = source
        self.target = target
        self.maps = maps  # vertex id -> block of the irreducible map


class Mesh:
    __slots__ = ("target", "translate", "middles", "eta", "nu")

    def __init__(self, target: str, translate: str, middles: tuple[str, ...],
                 eta: tuple[dict[str, FMatrix], ...],
                 nu: tuple[dict[str, FMatrix], ...]):
        self.target = target
        self.translate = translate
        self.middles = middles
        self.eta = eta
        self.nu = nu


class ARSequence:
    __slots__ = ("translate", "middles", "eta", "nu")

    def __init__(self, translate: ARVertex, middles: tuple[ARVertex, ...],
                 eta: tuple[dict[str, FMatrix], ...],
                 nu: tuple[dict[str, FMatrix], ...]):
        self.translate = translate
        self.middles = middles
        self.eta = eta
        self.nu = nu


class ARQuiver:
    """The knitted Auslander-Reiten quiver with explicit irreducible maps.

    Besides the Hom matrix, a quiver memoizes what Hall counting asks of it
    again and again: the module classes of each dimension vector and
    bounds (``module_classes``), the Hom vectors and |Aut| of each class
    (``hom_vectors``, ``class_aut_order``), the module of each class
    (``class_module``), the class ``identify`` found for each module it was
    asked about (``class_of``), the Hom bases of each ambient module the
    subspace and hom routes count in (``hom_frame``, dropped by
    ``forget``), the distinguishing coordinates of each dimension vector
    and bounds (``distinguishing_set``) and the Hall numbers of each pair
    (a, c) from one walk of Ext¹(c, a) (``ext_tables``).
    The class lists, Hom vectors and distinguishing sets do not depend on
    the prime once the knitted order and the Hom matrix agree, and the
    quivers of one ``hall.ARFamily`` share them (``share_memos``, which
    holds the check and the proof sketch).  The other memos hold modules,
    Hom bases, |Aut| and Hall numbers over this quiver's field and stay
    with it.
    """

    def __init__(self, spec: AlgebraSpec, field: PrimeField,
                 vertices: list[ARVertex], arrows: list[ARArrow],
                 tau: dict[str, str], meshes: dict[str, Mesh]):
        self.spec = spec
        self.field = field
        self.vertices = vertices
        self.arrows = arrows
        self.tau = tau
        self.meshes = meshes
        self.by_id = {v.id: v for v in vertices}
        self.order = [v.id for v in vertices]
        self._hom_matrix: list[list[int]] | None = None
        self._classes: dict[tuple, tuple[MultiplicityVector, ...]] = {}
        self._hom_vectors: dict[MultiplicityVector, tuple[tuple[int, ...],
                                                          tuple[int, ...]]] = {}
        self._aut_orders: dict[MultiplicityVector, int] = {}
        self._identified: dict[Representation, MultiplicityVector] = {}
        self._frames: dict[Representation, HomFrame] = {}
        self._distinguishing: dict[tuple, tuple[tuple[int, ...], dict]] = {}
        self._modules: dict[MultiplicityVector, Representation] = {}
        self.ext_tables: dict[tuple[MultiplicityVector, MultiplicityVector],
                              dict[MultiplicityVector, int]] = {}

    def share_memos(self, first: "ARQuiver") -> None:
        """Read and fill the memos of ``module_classes``, ``hom_vectors`` and
        ``distinguishing_set`` of ``first``, the quiver of the same algebra
        knitted first over another prime, instead of this quiver's own.

        Why they may be shared.  Each is a function of the knitted order,
        the dimension vectors of the knitted vertices and the Hom matrix
        alone: the knapsack of ``module_classes`` runs over the vertices in
        the knitted order with their dimension vectors and prunes on
        columns and rows of the Hom matrix; ``hom_vectors`` sums rows and
        columns of the Hom matrix at the knitted indices of a class's
        summands; ``distinguishing_set`` groups the ``hom_vectors`` of a
        ``module_classes`` list; and the classes they return are named by
        vertex ids, not modules.  Vertex ids render the dimension vectors,
        so equal knitted orders carry equal dimension vectors.  Both
        quivers' Hom matrices are already computed (``knit`` checks their
        unitriangularity), so the check costs a few comparisons: if the
        orders, the shapes (``quiver_shape``) or the Hom matrices differ,
        ``FieldDependenceDetected`` is raised and nothing is shared.  This
        is the one field-independence check of the package
        (``check_field_independence`` and ``verify`` run it).
        """
        if self.order != first.order:
            raise FieldDependenceDetected(
                f"knitted order over F_{self.field.p} differs from F_{first.field.p}")
        if quiver_shape(self) != quiver_shape(first):
            raise FieldDependenceDetected(
                f"AR quiver over F_{self.field.p} differs from F_{first.field.p}")
        if self.hom_matrix() != first.hom_matrix():
            raise FieldDependenceDetected(
                f"Hom matrix over F_{self.field.p} differs from F_{first.field.p}")
        self._classes = first._classes
        self._hom_vectors = first._hom_vectors
        self._distinguishing = first._distinguishing

    def vertex(self, vertex_id: str) -> ARVertex:
        return self.by_id[vertex_id]

    def hom_matrix(self) -> list[list[int]]:
        """H[i][j] = dim Hom(X_i, X_j) in the knitted order (cached)."""
        if self._hom_matrix is None:
            reps = [v.rep for v in self.vertices]
            self._hom_matrix = [[hom_dim(a, b) for b in reps] for a in reps]
        return self._hom_matrix

    def class_dim_vector(self, mv) -> tuple[int, ...]:
        """Dimension vector of the module class given by a multiplicity vector."""
        total = [0] * len(self.spec.vertices)
        for vid, count in mv.items():
            rep = self.by_id[vid].rep
            for k in range(len(total)):
                total[k] += count * rep.dims[k]
        return tuple(total)

    def hom_vectors(self, mv) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(dim Hom(X_k, class))_k and (dim Hom(class, X_k))_k over the
        knitted basis, read off the cached Hom matrix; memoized per class."""
        vectors = self._hom_vectors.get(mv)
        if vectors is None:
            H = self.hom_matrix()
            n = len(self.vertices)
            into = [0] * n
            outof = [0] * n
            for vid, count in mv.items():
                j = self.by_id[vid].index
                for k in range(n):
                    into[k] += count * H[k][j]
                    outof[k] += count * H[j][k]
            vectors = self._hom_vectors[mv] = (tuple(into), tuple(outof))
        return vectors

    def module_classes(self, d: Sequence[int],
                       bounds: tuple[Sequence[int], Sequence[int]] | None = None
                       ) -> tuple[MultiplicityVector, ...]:
        """All multiplicity vectors whose weighted dimension vector equals d,
        enumerated deterministically (bounded knapsack in the knitted
        order) and memoized per dimension vector and bounds.

        ``bounds`` = (into_max, out-of_max) keeps only the classes whose
        ``hom_vectors`` lie below both, coordinate by coordinate.  The
        knapsack prunes on the prefix: the Hom matrix has no negative
        entries, so the vectors of a prefix only grow as summands are
        added, and a prefix above a bound has no completion below it.

        Candidate vertices.  The knapsack runs only over the vertices X
        that can be a summand: dims(X) ≤ d and, when bounded,
        into_max[X] ≥ 1 and out-of_max[X] ≥ 1.  A summand X of multiplicity
        n in a class M gives dim Hom(X, M) ≥ n·H[X][X] = n and likewise
        dim Hom(M, X) ≥ n, because H[X][X] = 1 and H ≥ 0; so n is also at
        most into_max[X] and out-of_max[X].  Every other vertex could only
        be given the count 0, so dropping it leaves the list and its order
        unchanged.  A branch also ends as soon as some coordinate of d that
        is still unfilled lies outside the support of every candidate left.
        """
        key = (tuple(d), None if bounds is None else tuple(map(tuple, bounds)))
        classes = self._classes.get(key)
        if classes is not None:
            return classes
        d, bounds = key
        H = self.hom_matrix()
        n = len(self.vertices)
        candidates = []
        for v in self.vertices:
            top = min((y // x for x, y in zip(v.rep.dims, d) if x), default=0)
            if bounds is not None:
                top = min(top, bounds[0][v.index], bounds[1][v.index])
            if top:
                j = v.index
                candidates.append((v.id, v.rep.dims, top,
                                   tuple(H[k][j] for k in range(n)), H[j]))
        cover = [0] * (len(candidates) + 1)  # coordinates the rest can fill
        for pos in range(len(candidates) - 1, -1, -1):
            cover[pos] = cover[pos + 1] | sum(
                1 << i for i, x in enumerate(candidates[pos][1]) if x)
        out: list[MultiplicityVector] = []

        def recurse(pos: int, remaining: tuple[int, ...], into: Sequence[int],
                    outof: Sequence[int], acc: list[tuple[str, int]]) -> None:
            left = sum(1 << i for i, x in enumerate(remaining) if x)
            if not left:
                out.append(MultiplicityVector(acc))
                return
            if left & ~cover[pos]:
                return
            vid, dims, top, column, row = candidates[pos]
            top = min(top, min(y // x for x, y in zip(dims, remaining) if x))
            for count in range(top + 1):
                if count:
                    remaining = tuple(y - x for x, y in zip(dims, remaining))
                    if bounds is not None:
                        into = [x + h for x, h in zip(into, column)]
                        outof = [x + h for x, h in zip(outof, row)]
                        if (any(x > m for x, m in zip(into, bounds[0]))
                                or any(x > m for x, m in zip(outof, bounds[1]))):
                            break  # more copies of v only raise the vectors
                acc.append((vid, count))
                recurse(pos + 1, remaining, into, outof, acc)
                acc.pop()

        recurse(0, d, [0] * n, [0] * n, [])
        self._classes[key] = classes = tuple(out)
        return classes

    def class_aut_order(self, mv: MultiplicityVector) -> int:
        """|Aut| of the class mv over the quiver's field F_q, in closed form
        from the Hom matrix: for mv = ⊕ X_i^{n_i},

            |Aut| = q^{end − Σ n_i²} · Π |GL_{n_i}(F_q)|,  end = dim End(mv).

        Why.  Each End(X_i) is k: the Hom matrix has 1 on its diagonal.  The
        Hom matrix is upper unitriangular in the knitted order, so End(mv),
        written in blocks Hom(X_i^{n_i}, X_j^{n_j}), is block triangular with
        diagonal blocks M_{n_i}(k); the off-diagonal blocks are maps between
        non-isomorphic indecomposables, which form a nilpotent ideal (the
        radical), of dimension end − Σ n_i².  End(mv)/rad ≅ Π M_{n_i}(k), and
        an endomorphism is invertible iff its image there is, so Aut(mv) is
        the preimage of Π GL_{n_i}(k): |rad| · Π |GL_{n_i}(k)| elements.
        Memoized per class.
        """
        order = self._aut_orders.get(mv)
        if order is None:
            q = self.field.p
            into = self.hom_vectors(mv)[0]
            end = sum(n * into[self.by_id[x].index] for x, n in mv.items())
            order = q ** (end - sum(n * n for _, n in mv.items()))
            for _, n in mv.items():
                for k in range(n):
                    order *= q ** n - q ** k
            self._aut_orders[mv] = order
        return order

    def class_of(self, m: Representation) -> MultiplicityVector:
        """``identify(m, self)``, memoized per module."""
        mv = self._identified.get(m)
        if mv is None:
            mv = self._identified[m] = identify(m, self)
        return mv

    def hom_frame(self, m: Representation) -> "HomFrame":
        """The ``HomFrame`` of m against the knitted vertices, memoized per
        module."""
        frame = self._frames.get(m)
        if frame is None:
            frame = self._frames[m] = HomFrame(m, [v.rep for v in self.vertices])
        return frame

    def forget(self, m: Representation) -> None:
        """Drop the frame kept for module m."""
        self._frames.pop(m, None)

    def distinguishing_set(self, d: Sequence[int], outof: bool = False,
                           bounds: tuple[Sequence[int], Sequence[int]] | None = None
                           ) -> tuple[tuple[int, ...], dict[tuple[int, ...],
                                                            MultiplicityVector]]:
        """Knitted vertex indices k at which the into-vectors
        (dim Hom(X_k, -))_k, or with ``outof`` the out-of vectors
        (dim Hom(-, X_k))_k, read off the Hom matrix, tell every class of
        ``module_classes(d, bounds)`` from every other, with the class of
        each restricted vector; memoized per dimension vector, side and
        bounds.  With ``bounds`` the set only has to separate the classes
        below them, so it is no longer than the set of all of d: the Ext
        route of ``hall.hall_numbers_ext`` identifies middle terms on it.

        Built greedily: each step takes the coordinate that splits the
        classes not yet told apart into the most groups (the lowest index
        on a tie), so the most telling coordinates come first.  Each step
        splits at least one group, else ``NonUnitriangularHomMatrix`` is
        raised: two classes with one vector mean the Hom matrix is not
        unitriangular.
        """
        key = (tuple(d), outof, None if bounds is None else tuple(map(tuple, bounds)))
        found = self._distinguishing.get(key)
        if found is not None:
            return found
        vectors = [(self.hom_vectors(mv)[int(outof)], mv)
                   for mv in self.module_classes(d, bounds)]
        coords: list[int] = []
        while True:
            groups: dict[tuple[int, ...], list[list[int]]] = {}
            for vec, _ in vectors:
                groups.setdefault(tuple(vec[k] for k in coords), []).append(vec)
            clashes = [g for g in groups.values() if len(g) > 1]
            if not clashes:
                break
            parts = [sum(len({vec[k] for vec in g}) for g in clashes)
                     for k in range(len(self.vertices))]
            k = max(range(len(parts)), key=parts.__getitem__)
            if parts[k] == len(clashes):
                raise NonUnitriangularHomMatrix(
                    f"two classes of dimension vector {tuple(d)} share their "
                    f"{'out-of' if outof else 'into'}-vector")
            coords.append(k)
        table = {tuple(vec[k] for k in coords): mv for vec, mv in vectors}
        self._distinguishing[key] = found = (tuple(coords), table)
        return found

    def class_module(self, mv) -> Representation:
        """The direct sum of the knitted indecomposables in mv, in knitted
        order with each repeated by its multiplicity, memoized per class."""
        m = self._modules.get(mv)
        if m is None:
            m = self._modules[mv] = direct_sum(
                self.spec, self.field,
                [v.rep for v in self.vertices for _ in range(mv.get(v.id))])
        return m


class HomFrame:
    """Bases of Hom(X_k, m) and Hom(m, X_k) for every knitted vertex X_k,
    from which the Hom vectors of a submodule U ⊂ m and of m/U are read
    without building either module, and the hom route's walks (``tally``).

    A submodule is given by its subspace tuple: per vertex i, the rows of
    the reduced echelon basis of U_i ⊂ m_i (``SubspaceTuple.key()``, the
    image keys of ``linalg.injective_images``).

    Why.  Hom(X, -) and Hom(-, X) are left exact, so applied to
    0 -> U -> m -> m/U -> 0 they give

        Hom(X_k, U)   ≅ {f ∈ Hom(X_k, m) : f(X_k) ⊆ U},
        Hom(m/U, X_k) ≅ {g ∈ Hom(m, X_k) : g(U) = 0}.

    Write f = Σ_j c_j f_j over the basis f_1, …, f_h of Hom(X_k, m).  The
    condition f(X_k) ⊆ U is linear in c: f_i(x) ≡ 0 modulo U_i for every
    vertex i and basis vector x of (X_k)_i, and reducing f_{j,i}(x) against
    the reduced echelon basis of U_i is the projection onto m_i/U_i.  So
    dim Hom(X_k, U) = h − rank of the matrix whose row j lists the reduced
    f_{j,i}(x).  Likewise dim Hom(m/U, X_k) = h' − rank of the matrix whose
    row j lists g_{j,i}(u) for the basis rows u of every U_i.

    Either vector pins down the class of a module M = ⊕ X_j^{n_j}:
    dim Hom(X_k, M) = Σ_j H[k][j] n_j and dim Hom(M, X_k) = Σ_j n_j H[j][k]
    for the Hom matrix H, which is unitriangular, so both systems solve
    uniquely for the multiplicities.
    """

    __slots__ = ("m", "xs", "p", "inv", "_into", "_outof", "_tallies")

    def __init__(self, m: Representation, xs: Sequence[Representation]):
        self.m, self.xs = m, xs
        self.p, self.inv = m.field.p, m.field.inverses
        self._into: list[list | None] = [None] * len(xs)
        self._outof: list[list | None] = [None] * len(xs)
        self._tallies: dict[tuple[int, int], dict] = {}

    def into_basis(self, k: int) -> list:
        """A basis of Hom(X_k, m), computed on first use: per map f, per
        vertex, the rows of fᵀ (the images of a basis of (X_k)_i), as
        ``linalg.injective_images`` takes them."""
        if self._into[k] is None:
            self._into[k] = [tuple(f[v].transpose().rows for v in self.m.spec.vertices)
                             for f in hom_space(self.xs[k], self.m)]
        return self._into[k]

    def outof_basis(self, k: int) -> list:
        """A basis of Hom(m, X_k), computed on first use: per map g, per
        vertex, the rows of g."""
        if self._outof[k] is None:
            self._outof[k] = [tuple(g[v].rows for v in self.m.spec.vertices)
                              for g in hom_space(self.m, self.xs[k])]
        return self._outof[k]

    def tally(self, k: int, n: int) -> dict:
        """``linalg._block_tally`` of X_k^n against m, computed on first use."""
        tally = self._tallies.get((k, n))
        if tally is None:
            tally = self._tallies[(k, n)] = _block_tally(
                n, self.xs[k].dims, self.into_basis(k), self.m.dims, self.m.field)
        return tally

    def into_vector(self, sub: Sequence[Sequence[Sequence[int]]],
                    coords: Sequence[int]) -> list[int]:
        """dim Hom(X_k, U) for each k in coords."""
        p = self.p
        spans = [[(next(c for c, x in enumerate(u) if x), u) for u in rows]
                 for rows in sub]
        out = []
        for k in coords:
            matrix = []
            for f in self.into_basis(k):
                row = []
                for span, images in zip(spans, f):
                    for v in images:  # v modulo U_i
                        row.extend(reduce_vector(span, v, p))
                matrix.append(row)
            out.append(len(matrix) - len(echelon(matrix, p, self.inv)))
        return out

    def outof_vector(self, sub: Sequence[Sequence[Sequence[int]]],
                     coords: Sequence[int]) -> list[int]:
        """dim Hom(m/U, X_k) for each k in coords."""
        p = self.p
        out = []
        for k in coords:
            matrix = [[sum(map(mul, g_row, u)) % p
                       for g_i, basis in zip(g, sub) for u in basis for g_row in g_i]
                      for g in self.outof_basis(k)]
            out.append(len(matrix) - len(echelon(matrix, p, self.inv)))
        return out


def _hom_check(source: Representation, target: Representation,
               maps: Mapping[str, FMatrix]) -> bool:
    """Whether a vertex-indexed matrix tuple is a homomorphism source -> target."""
    spec = source.spec
    for a in spec.quiver.arrows:
        left = maps[a.target].mul(source.maps[a.id])
        right = target.maps[a.id].mul(maps[a.source])
        if left != right:
            return False
    return True


def _is_nonzero(maps: Mapping[str, FMatrix]) -> bool:
    return any(not m.is_zero() for m in maps.values())


def radical_tuple(p_rep: Representation, x: str) -> SubspaceTuple:
    """rad P_x inside P_x: the full space away from x, zero at x."""
    field = p_rep.field
    bases = []
    for v, d in zip(p_rep.spec.vertices, p_rep.dims):
        if v == x:
            bases.append(FMatrix.zeros(field, 0, d))
        else:
            bases.append(FMatrix.identity(field, d))
    return SubspaceTuple(p_rep, tuple(bases))


def knit(spec: AlgebraSpec, p: int, config: KnitConfig | None = None) -> ARQuiver:
    """Construct the Auslander-Reiten quiver of the algebra over F_p."""
    config = config or KnitConfig()
    field = PrimeField(p)
    verts = spec.vertices

    projectives = {x: projective_rep(spec, x, p) for x in verts}
    for x, pr in projectives.items():
        assert check_relations(pr), f"projective at {x} violates relations"

    # radical summands with embeddings into P_x, computed up front
    rad_summands: dict[str, list[tuple[Representation, dict[str, FMatrix]]]] = {}
    rad_ids: dict[str, list[str]] = {}
    for x in verts:
        pr = projectives[x]
        tup = radical_tuple(pr, x)
        rad, incl = restrict_to_subtuple(pr, tup)
        if rad.is_zero():
            rad_summands[x] = []
            rad_ids[x] = []
            continue
        pieces = decompose_with_embeddings(rad)
        with_embed = [(rep, compose_homs(incl, emb)) for rep, emb in pieces]
        ids = [rep.dim_id() for rep, _ in with_embed]
        if len(set(ids)) != len(ids):
            raise NotDirected(
                f"rad P_{x} has repeated summand dimension vectors {ids}; "
                "arrows would have non-trivial valuation")
        rad_summands[x] = with_embed
        rad_ids[x] = ids

    injective_ids = {spec.render_dim_id(d)
                     for d in spec.injective_dim_vectors().values()}
    # which projectives wait on a given summand id
    needed_by: dict[str, set[str]] = {}
    for x, ids in rad_ids.items():
        for vid in ids:
            needed_by.setdefault(vid, set()).add(x)

    vertices: list[ARVertex] = []
    arrows: list[ARArrow] = []
    tau: dict[str, str] = {}
    meshes: dict[str, Mesh] = {}
    by_id: dict[str, ARVertex] = {}
    arrows_out: dict[str, list[ARArrow]] = {}
    arrows_in: dict[str, list[ARArrow]] = {}
    processed: set[str] = set()
    inserted: set[str] = set()

    def add_vertex(rep: Representation, projective: bool) -> ARVertex:
        vid = rep.dim_id()
        if vid in by_id:
            raise NotDirected(
                f"duplicate dimension vector {vid}; the input is outside the "
                "representation-directed class")
        if len(vertices) >= config.max_vertices:
            raise NotRepresentationFinite(
                f"knitting exceeded {config.max_vertices} vertices without closing up")
        assert check_relations(rep)
        v = ARVertex(vid, len(vertices), rep, projective)
        vertices.append(v)
        by_id[vid] = v
        arrows_out.setdefault(vid, [])
        arrows_in.setdefault(vid, [])
        return v

    def add_arrow(source: str, target: str, maps: dict[str, FMatrix]) -> None:
        src, dst = by_id[source], by_id[target]
        if not _is_nonzero(maps) or not _hom_check(src.rep, dst.rep, maps):
            raise NotDirected(f"arrow {source} -> {target} is not a nonzero map")
        if any(a.target == target for a in arrows_out[source]):
            raise NotDirected(
                f"second arrow {source} -> {target}; non-trivial valuation")
        arrow = ARArrow(source, target, maps)
        arrows.append(arrow)
        arrows_out[source].append(arrow)
        arrows_in[target].append(arrow)

    def insert_projective(x: str) -> None:
        v = add_vertex(projectives[x], projective=True)
        for rep, emb in rad_summands[x]:
            source = by_id[rep.dim_id()]
            iso = find_isomorphism(source.rep, rep)
            if iso is None:
                raise NotDirected(
                    f"radical summand of P_{x} with dimension vector "
                    f"{rep.dim_id()} is not isomorphic to the knitted vertex")
            add_arrow(source.id, v.id, compose_homs(emb, iso))
        inserted.add(x)

    def ready(v: ARVertex) -> bool:
        waiting = needed_by.get(v.id, ())
        if any(x not in inserted for x in waiting):
            return False
        return all(a.source in processed for a in arrows_in[v.id])

    def process(v: ARVertex) -> None:
        processed.add(v.id)
        if v.id in injective_ids:
            return
        outs = sorted(arrows_out[v.id], key=lambda a: a.target)
        if not outs:
            # no successors: nothing to extend, the vertex is injective
            return
        targets = [by_id[a.target] for a in outs]
        e_rep = direct_sum(spec, field, [t.rep for t in targets])
        inclusions = summand_inclusions(spec, field, [t.rep for t in targets])
        spans = []
        for i, vx in enumerate(verts):
            eta = vstack(field, [a.maps[vx] for a in outs], ncols=v.rep.dims[i])
            spans.append(row_space(eta.transpose()))  # the image of eta at vx
            if spans[-1].nrows != v.rep.dims[i]:
                raise EtaNotInjective(
                    f"left almost split map out of {v.id} is not injective at "
                    f"vertex {vx}")
        image = SubspaceTuple(e_rep, tuple(spans))
        sq = sub_quotient(e_rep, image)
        z_rep = sq.quot
        expected = tuple(e_rep.dims[i] - v.rep.dims[i] for i in range(len(verts)))
        assert z_rep.dims == expected, "mesh dimension relation failed"
        z = add_vertex(z_rep, projective=False)
        tau[z.id] = v.id
        nu_list = []
        for t, incl in zip(targets, inclusions):
            nu = compose_homs(sq.projection, incl)
            add_arrow(t.id, z.id, nu)
            nu_list.append(nu)
        meshes[z.id] = Mesh(target=z.id, translate=v.id,
                            middles=tuple(t.id for t in targets),
                            eta=tuple(a.maps for a in outs), nu=tuple(nu_list))

    while True:
        progress = False
        for x in verts:
            if x not in inserted and all(i in by_id for i in rad_ids[x]):
                insert_projective(x)
                progress = True
        candidates = sorted((v for v in vertices if v.id not in processed and ready(v)),
                            key=lambda v: v.id)
        if candidates:
            process(candidates[0])
            progress = True
        done = len(inserted) == len(verts) and all(v.id in processed for v in vertices)
        if done:
            break
        if not progress:
            raise NotDirected("knitting stalled; no ready vertex and no "
                              "insertable projective")

    ar = ARQuiver(spec, field, vertices, arrows, tau, meshes)
    H = ar.hom_matrix()
    for i in range(len(vertices)):
        if H[i][i] != 1:
            raise NonUnitriangularHomMatrix(
                f"dim End({vertices[i].id}) = {H[i][i]} != 1")
        for j in range(i):
            if H[i][j] != 0:
                raise NotDirected(
                    f"Hom({vertices[i].id}, {vertices[j].id}) != 0 against the "
                    "knitting order")
    return ar


def ar_sequence(ar: ARQuiver, z: str) -> ARSequence:
    """The stored almost split sequence ending at a non-projective vertex,
    re-verified: eta mono, nu epi, nu . eta = 0, exactness by ranks."""
    vert = ar.vertex(z)
    if vert.projective:
        raise IsProjective(f"{z} is projective; no almost split sequence ends there")
    mesh = ar.meshes[z]
    x = ar.vertex(mesh.translate)
    middles = tuple(ar.vertex(mid) for mid in mesh.middles)
    spec, field = ar.spec, ar.field
    for i, vx in enumerate(spec.vertices):
        eta_blocks = [m[vx] for m in mesh.eta]
        eta = vstack(field, eta_blocks, ncols=x.rep.dims[i])
        if eta.rank() != x.rep.dims[i]:
            raise EtaNotInjective(f"stored eta not injective at vertex {vx}")
        nu = hstack(field, [m[vx] for m in mesh.nu], nrows=vert.rep.dims[i])
        composite = nu.mul(eta)
        if not composite.is_zero():
            raise NotDirected(f"nu . eta != 0 at vertex {vx}")
        if nu.rank() != vert.rep.dims[i]:
            raise NotDirected(f"stored nu not surjective at vertex {vx}")
        mid_total = sum(mid.rep.dims[i] for mid in middles)
        if x.rep.dims[i] + vert.rep.dims[i] != mid_total:
            raise NotDirected(f"mesh dimensions inconsistent at vertex {vx}")
    return ARSequence(x, middles, mesh.eta, mesh.nu)


def quiver_shape(ar: ARQuiver) -> dict:
    """Field-independent summary used for cross-prime comparison.

    Vertices are matched through their dimension vectors (their ids), which
    determine indecomposables uniquely here, so equality of the id-level
    shapes is the right notion of isomorphism of translation quivers.
    """
    return {
        "vertices": sorted((v.id, v.projective) for v in ar.vertices),
        "arrows": sorted((a.source, a.target) for a in ar.arrows),
        "tau": sorted(ar.tau.items()),
    }


class FieldIndependenceReport:
    __slots__ = ("primes", "vertex_count")

    def __init__(self, primes: tuple[int, ...], vertex_count: int):
        self.primes = primes
        self.vertex_count = vertex_count


def check_field_independence(spec: AlgebraSpec, primes: Sequence[int],
                             config: KnitConfig | None = None) -> FieldIndependenceReport:
    """Knit over each prime and check each quiver against the first
    (``ARQuiver.share_memos``, which raises ``FieldDependenceDetected``)."""
    if len(primes) < 2:
        raise ValueError("need at least two primes")
    first = knit(spec, primes[0], config)
    for p in primes[1:]:
        knit(spec, p, config).share_memos(first)
    return FieldIndependenceReport(tuple(primes), len(first.vertices))


# ---------------------------------------------------------------------------
# serialization (CLI output)


def ar_to_doc(ar: ARQuiver, with_maps: bool = False) -> dict:
    doc = {
        "prime": ar.field.p,
        "vertices": [
            {"id": v.id, "dim": list(v.rep.dims), "total_dim": v.rep.total_dim,
             "projective": v.projective, "tau": ar.tau.get(v.id)}
            for v in ar.vertices
        ],
        "arrows": [{"source": a.source, "target": a.target} for a in ar.arrows],
        "order": list(ar.order),
    }
    if with_maps:
        doc["representations"] = {
            v.id: {aid: [list(r) for r in mat.rows]
                   for aid, mat in v.rep.maps.items()}
            for v in ar.vertices
        }
        doc["arrow_maps"] = [
            {vx: [list(r) for r in a.maps[vx].rows] for vx in ar.spec.vertices}
            for a in ar.arrows
        ]
        doc["meshes"] = {
            z: {"translate": m.translate, "middles": list(m.middles),
                "eta": [{vx: [list(r) for r in h[vx].rows] for vx in ar.spec.vertices}
                        for h in m.eta],
                "nu": [{vx: [list(r) for r in h[vx].rows] for vx in ar.spec.vertices}
                       for h in m.nu]}
            for z, m in ar.meshes.items()
        }
    return doc

