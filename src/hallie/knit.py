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

from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import AlgebraSpec, projective_rep
from .errors import (EtaNotInjective, FieldDependenceDetected, IsProjective,
                     NonUnitriangularHomMatrix, NotDirected,
                     NotRepresentationFinite)
from .linalg import FMatrix, PrimeField, hstack, row_space, vstack
from .reps import (MultiplicityVector, Representation, SubspaceTuple,
                   check_relations, compose_homs, decompose_with_embeddings,
                   direct_sum, find_isomorphism, hom_dim, identify,
                   restrict_to_subtuple, sub_quotient, summand_inclusions)


@dataclass(frozen=True)
class KnitConfig:
    max_vertices: int = 512
    seed: int = 0


@dataclass
class ARVertex:
    id: str
    index: int
    rep: Representation
    projective: bool


@dataclass
class ARArrow:
    source: str
    target: str
    maps: dict[str, FMatrix]  # vertex id -> block of the irreducible map


@dataclass
class Mesh:
    target: str
    translate: str
    middles: tuple[str, ...]
    eta: tuple[dict[str, FMatrix], ...]
    nu: tuple[dict[str, FMatrix], ...]


@dataclass
class ARSequence:
    translate: ARVertex
    middles: tuple[ARVertex, ...]
    eta: tuple[dict[str, FMatrix], ...]
    nu: tuple[dict[str, FMatrix], ...]


class ARQuiver:
    """The knitted Auslander-Reiten quiver with explicit irreducible maps.

    Besides the Hom matrix, a quiver memoizes what Hall counting asks of it
    again and again: the module classes of each dimension vector
    (``module_classes``), the module of each class (``class_module``), the
    class ``identify`` found for each module it was asked about
    (``class_of``), the separating set of each class
    (``separating_set``) and, in ``ext_tables``, the Hall numbers of each
    pair (a, c) from one walk of Ext¹(c, a) (``hall.ext_hall_number``).
    The memos belong to this quiver, so quivers over different primes never
    share them.
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
        self._classes: dict[tuple[int, ...], tuple[MultiplicityVector, ...]] = {}
        self._identified: dict[Representation, MultiplicityVector] = {}
        self._separating: dict[MultiplicityVector, tuple[int, ...]] = {}
        self._modules: dict[MultiplicityVector, Representation] = {}
        self.ext_tables: dict[tuple[MultiplicityVector, MultiplicityVector],
                              dict[MultiplicityVector, int]] = {}

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

    def hom_vectors(self, mv) -> tuple[list[int], list[int]]:
        """(dim Hom(X_k, class))_k and (dim Hom(class, X_k))_k over the
        knitted basis, read off the cached Hom matrix."""
        H = self.hom_matrix()
        n = len(self.vertices)
        into = [0] * n
        outof = [0] * n
        for vid, count in mv.items():
            j = self.by_id[vid].index
            for k in range(n):
                into[k] += count * H[k][j]
                outof[k] += count * H[j][k]
        return into, outof

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
        """
        key = (tuple(d), None if bounds is None else tuple(map(tuple, bounds)))
        classes = self._classes.get(key)
        if classes is not None:
            return classes
        verts = self.vertices
        n = len(verts)
        H = self.hom_matrix() if bounds is not None else None
        out: list[MultiplicityVector] = []

        def recurse(pos: int, remaining: tuple[int, ...], into: list[int],
                    outof: list[int], acc: list[tuple[str, int]]) -> None:
            if pos == len(verts):
                if all(x == 0 for x in remaining):
                    out.append(MultiplicityVector(acc))
                return
            v = verts[pos]
            dims = v.rep.dims
            top = min((remaining[i] // dims[i] for i in range(len(dims)) if dims[i]),
                      default=0)
            for count in range(top + 1):
                nxt = tuple(remaining[i] - count * dims[i] for i in range(len(dims)))
                if H is not None and count:
                    into = [into[k] + H[k][pos] for k in range(n)]
                    outof = [outof[k] + H[pos][k] for k in range(n)]
                    if (any(x > m for x, m in zip(into, bounds[0]))
                            or any(x > m for x, m in zip(outof, bounds[1]))):
                        break  # more copies of v only raise the vectors
                acc.append((v.id, count))
                recurse(pos + 1, nxt, into, outof, acc)
                acc.pop()

        recurse(0, tuple(d), [0] * n, [0] * n, [])
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
        """
        q = self.field.p
        into = self.hom_vectors(mv)[0]
        end = sum(n * into[self.by_id[x].index] for x, n in mv.items())
        order = q ** (end - sum(n * n for _, n in mv.items()))
        for _, n in mv.items():
            for k in range(n):
                order *= q ** n - q ** k
        return order

    def class_of(self, m: Representation) -> MultiplicityVector:
        """``identify(m, self)``, memoized per module."""
        mv = self._identified.get(m)
        if mv is None:
            mv = self._identified[m] = identify(m, self)
        return mv

    def separating_set(self, mv: MultiplicityVector) -> tuple[int, ...]:
        """Knitted vertex indices k at which dim Hom(X_k, -), read off the
        Hom matrix, tells the class mv apart from every other class of its
        dimension vector; memoized per class.

        Built greedily: each step takes the coordinate that separates mv
        from the most classes not yet told apart (the lowest index on a
        tie), so the most telling coordinates come first.  Each step
        separates at least one more class, else
        ``NonUnitriangularHomMatrix`` is raised: two classes with one
        into-vector mean the Hom matrix is not unitriangular.
        """
        sep = self._separating.get(mv)
        if sep is not None:
            return sep
        into = self.hom_vectors(mv)[0]
        rivals = [self.hom_vectors(other)[0]
                  for other in self.module_classes(self.class_dim_vector(mv))
                  if other != mv]
        chosen = []
        while rivals:
            split = [sum(r[k] != into[k] for r in rivals) for k in range(len(into))]
            k = max(range(len(into)), key=split.__getitem__)
            if not split[k]:
                raise NonUnitriangularHomMatrix(
                    f"class {mv.render()} shares its Hom vector with another "
                    "class of its dimension vector")
            chosen.append(k)
            rivals = [r for r in rivals if r[k] == into[k]]
        self._separating[mv] = sep = tuple(chosen)
        return sep

    def class_module(self, mv) -> Representation:
        """The direct sum of the knitted indecomposables in mv, memoized
        per class, with its summands and their multiplicities recorded in
        ``runs`` (the blocks of the hom oracle, ``reps.hom_blocks``)."""
        m = self._modules.get(mv)
        if m is None:
            runs = tuple((v.rep, mv.get(v.id)) for v in self.vertices if mv.get(v.id))
            m = direct_sum(self.spec, self.field,
                           [x for x, n in runs for _ in range(n)])
            m.runs = runs
            self._modules[mv] = m
        return m


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
        pieces = decompose_with_embeddings(rad, seed=config.seed)
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
        eta = {}
        for i, vx in enumerate(verts):
            blocks = [a.maps[vx] for a in outs]
            eta[vx] = vstack(field, blocks, ncols=v.rep.dims[i])
        for i, vx in enumerate(verts):
            if eta[vx].rank() != v.rep.dims[i]:
                raise EtaNotInjective(
                    f"left almost split map out of {v.id} is not injective at "
                    f"vertex {vx}")
        image = SubspaceTuple(e_rep, tuple(row_space(eta[vx].transpose())
                                           for vx in verts))
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
    """Field-independent summary used for cross-prime comparison."""
    return {
        "vertices": sorted((v.id, v.projective) for v in ar.vertices),
        "arrows": sorted((a.source, a.target) for a in ar.arrows),
        "tau": sorted(ar.tau.items()),
    }


@dataclass
class FieldIndependenceReport:
    primes: tuple[int, ...]
    vertex_count: int


def compare_quiver_shapes(quivers: Mapping[int, ARQuiver]) -> FieldIndependenceReport:
    """Insist that quivers knitted over several primes (keyed by prime, the
    first one the reference) have one combinatorial shape.

    Vertices are matched through their dimension vectors, which determine
    indecomposables uniquely here, so equality of the id-level shapes is the
    right notion of isomorphism of translation quivers.
    """
    primes = list(quivers)
    if len(primes) < 2:
        raise ValueError("need at least two primes")
    reference = quiver_shape(quivers[primes[0]])
    for p in primes[1:]:
        if quiver_shape(quivers[p]) != reference:
            raise FieldDependenceDetected(
                f"AR quiver over F_{p} differs from F_{primes[0]}")
    return FieldIndependenceReport(tuple(primes), len(reference["vertices"]))


def check_field_independence(spec: AlgebraSpec, primes: Sequence[int],
                             config: KnitConfig | None = None) -> FieldIndependenceReport:
    """Knit over each prime and compare the shapes (``compare_quiver_shapes``)."""
    return compare_quiver_shapes({p: knit(spec, p, config) for p in primes})


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

