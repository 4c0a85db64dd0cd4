"""Seeded Dynkin quivers (A_n, D_n, E_6) as hallie algebra documents.

The underlying graph is fixed by the type; each arrow's orientation is drawn
from the seed, so one seed always gives the same algebra files.  Vertices are
named "1".."n" and arrows "a1".."a<n-1>" along the edge list below.
"""

from __future__ import annotations

import json
import random


def dynkin_edges(kind: str, n: int) -> list[tuple[int, int]]:
    """Edges of the Dynkin graph, vertices numbered from 1."""
    if kind == "A" and n >= 1:
        return [(i, i + 1) for i in range(1, n)]
    if kind == "D" and n >= 4:
        return [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
    if kind == "E" and n == 6:
        return [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]
    raise ValueError(f"no Dynkin graph {kind}{n} here (A_n, D_n with n >= 4, E6)")


def root_count(kind: str, n: int) -> int:
    """Number of positive roots, i.e. of indecomposables (Gabriel)."""
    counts = {"A": n * (n + 1) // 2, "D": n * (n - 1), "E": 36}
    dynkin_edges(kind, n)  # rejects types not covered here
    return counts[kind]


def orientations(kind: str, n: int, seed: int, count: int = 1) -> list[tuple[bool, ...]]:
    """``count`` distinct orientations drawn from the seed, one flip bit per
    edge: False keeps edge (i, j) as the arrow i -> j, True reverses it."""
    edges = len(dynkin_edges(kind, n))
    picks = random.Random(f"{kind}{n}:{seed}").sample(range(2 ** edges), count)
    return [tuple(bool(pick >> k & 1) for k in range(edges)) for pick in picks]


def orientation_name(kind: str, n: int, flips: tuple[bool, ...]) -> str:
    return f"{kind}{n}_" + "".join("1" if flip else "0" for flip in flips)


def dynkin_text(kind: str, n: int, flips: tuple[bool, ...]) -> str:
    """The algebra file contents, byte-stable for a given orientation."""
    arrows = []
    for k, ((i, j), flip) in enumerate(zip(dynkin_edges(kind, n), flips), start=1):
        src, dst = (j, i) if flip else (i, j)
        arrows.append({"id": f"a{k}", "from": str(src), "to": str(dst)})
    doc = {"vertices": [str(v) for v in range(1, n + 1)], "arrows": arrows,
           "relations": []}
    return json.dumps(doc, indent=2) + "\n"


def self_check(kind: str, n: int, flips: tuple[bool, ...]) -> int:
    """Number of indecomposables, after checking Gabriel's theorem on the
    generated quiver: hallie's positive roots of its Cartan matrix are as
    many as the vertices knitted over F_2, and as ``root_count`` says.
    Needs hallie importable."""
    from hallie import knit, parse_algebra, positive_roots

    spec = parse_algebra(dynkin_text(kind, n, flips))
    roots = len(positive_roots(spec.cartan_matrix()).positive_roots)
    knitted = len(knit(spec, 2).vertices)
    if not roots == knitted == root_count(kind, n):
        raise AssertionError(f"{orientation_name(kind, n, flips)}: {roots} positive roots, "
                             f"{knitted} knitted indecomposables, "
                             f"{root_count(kind, n)} expected")
    return knitted
