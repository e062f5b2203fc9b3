"""Input generators and oracles shared by several workloads."""

from __future__ import annotations

import random
from fractions import Fraction

from precubical import (
    CubeSet,
    PLPath,
    RefinementPoset,
    Segment,
    boundary_cube,
    euclidean,
    full_cube,
    is_non_self_linked,
    is_proper,
)
from precubical.toolkit import parse_pv, pv_to_euclidean

from harness import Tracer, expect

GENERATORS = {"boundary_cube": boundary_cube, "full_cube": full_cube}
WAYPOINT_DENOMINATOR = 97


def build_complex(tr: Tracer, entry: dict) -> tuple[CubeSet, str, str, int]:
    """The complex of a catalog entry, its extreme vertices and the chain length between them."""
    if "pv" in entry:
        prog = tr.call("toolkit.pv_compile", parse_pv, entry["pv"])
        X, source, target = tr.call("toolkit.pv_compile", pv_to_euclidean, prog)
        return X, source, target, sum(len(actions) for actions in prog.processes)
    n = entry["n"]
    X = tr.call("cubeset.build", GENERATORS[entry["generator"]], n)
    return X, "v" + "0" * n, "v" + "1" * n, n


def proper_non_self_linked(tr: Tracer, X: CubeSet) -> bool:
    return tr.call("cubeset.check", is_proper, X)[0] and tr.call("cubeset.check", is_non_self_linked, X)[0]


def band(n: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Boxes of the diagonal band of width one: unit squares (i, j) with |i - j| <= 1."""
    return [((i, j), (i + 1, j + 1)) for i in range(n) for j in range(n) if abs(i - j) <= 1]


def build_band(tr: Tracer, n: int) -> CubeSet:
    return tr.call("cubeset.build", euclidean, band(n))


def band_path(n: int, rng: random.Random) -> PLPath:
    """A seeded strict monotone path across the band from (0, 0) to (n, n).

    It has one waypoint inside each diagonal square, at coordinates with
    denominator 97, so it crosses square junctions off their vertices:
    strict but not tame.
    """
    den = WAYPOINT_DENOMINATOR
    waypoints = [(Fraction(0), Fraction(0))]
    for k in range(n):
        waypoints.append(tuple(k + Fraction(rng.randint(1, den - 1), den) for _ in range(2)))
    waypoints.append((Fraction(n), Fraction(n)))
    return grid_path(waypoints)


def grid_path(waypoints: list[tuple[Fraction, ...]]) -> PLPath:
    """The straight-leg path through increasing grid points, one segment per cell crossed."""
    points: list[tuple[Fraction, ...]] = []
    for a, b in zip(waypoints, waypoints[1:]):
        cuts = {Fraction(0), Fraction(1)}
        for x, y in zip(a, b):
            level = x.numerator // x.denominator + 1
            while level < y:
                cuts.add((level - x) / (y - x))
                level += 1
        for lam in sorted(cuts):
            point = tuple(x + lam * (y - x) for x, y in zip(a, b))
            if not points or point != points[-1]:
                points.append(point)
    m = len(points) - 1
    segments = []
    for k, (a, b) in enumerate(zip(points, points[1:])):
        bottom, top, local_a, local_b = [], [], [], []
        for x, y in zip(a, b):
            if x == y and x.denominator == 1:
                bottom.append(int(x))
                top.append(int(x))
            else:
                mid = (x + y) / 2
                z = mid.numerator // mid.denominator
                bottom.append(z)
                top.append(z + 1)
                local_a.append(x - z)
                local_b.append(y - z)
        cube = ",".join(map(str, bottom)) + "|" + ",".join(map(str, top))
        segments.append(Segment(cube, ((Fraction(k, m), tuple(local_a)), (Fraction(k + 1, m), tuple(local_b)))))
    return PLPath(tuple(segments))


def signed_chain_count(X: CubeSet, poset: RefinementPoset) -> int:
    """Sum over the chains of (-1) ** sum(dim - 1): an Euler characteristic computed without a complex."""
    return sum((-1) ** sum(X.dim(c) - 1 for c in chain.cubes) for chain in poset.objects)


def check_poset(X: CubeSet, poset: RefinementPoset, entry: dict) -> None:
    """Object count, cover count and the signed chain count against the catalog."""
    expect("poset truncated", poset.truncated, False)
    expect("chain count", len(poset.objects), entry["objects"])
    if "covers" in entry:
        expect("cover count", len(poset.covers), entry["covers"])
    if "euler" in entry:
        expect("signed chain count", signed_chain_count(X, poset), entry["euler"])


def nerve_counts(K) -> dict[str, int]:
    """Simplex counts and the boundary-matrix sizes they imply (computed, not measured)."""
    f = K.simplex_counts()
    return {
        "nerve.maximal_simplices": len(K.maximal),
        "nerve.simplices": sum(f),
        "nerve.matrix_entries": sum(f[k - 1] * f[k] for k in range(1, len(f))),
        "nerve.nonzeros": sum((k + 1) * f[k] for k in range(1, len(f))),
    }
