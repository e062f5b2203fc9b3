"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from precubical import CubeChain, CubeSet, PLPath, Point, Segment, full_cube


def glued_squares() -> CubeSet:
    """Two squares glued along their entire boundary (a directed 2-sphere).

    Not proper: both squares run from v00 to v11.
    """
    base = full_cube(2)
    cubes = {c: base.dim(c) for c in base.cubes() if c != "**"}
    faces = {c: base.face_table(c) for c in cubes if base.dim(c) > 0}
    for sq in ("sqA", "sqB"):
        cubes[sq] = 2
        faces[sq] = base.face_table("**")
    return CubeSet(cubes, faces)


def interp(seg: Segment, t: Fraction) -> tuple[Fraction, ...]:
    """The coordinates of a segment at time ``t`` by plain ``Fraction`` arithmetic.

    A reference for the library's integer-numerator interpolation: the
    breakpoint's own coordinates, else ``xa + lam*(xb - xa)`` with
    ``lam = (t - ta)/(tb - ta)`` on the piece holding ``t``.
    """
    for (ta, xa), (tb, xb) in zip(seg.points, seg.points[1:]):
        if t == ta:
            return xa
        if ta < t < tb:
            lam = (t - ta) / (tb - ta)
            return tuple(a + lam * (b - a) for a, b in zip(xa, xb))
    assert t == seg.t1, f"time {t} outside segment [{seg.t0}, {seg.t1}]"
    return seg.points[-1][1]


def walk_iterated_face(X: CubeSet, cid: str, word: str) -> str:
    """The iterated face of a cube along a face word, by the face maps alone.

    A frozen reference for the cached face table: the face maps are
    applied one letter at a time from the highest axis down.
    """
    assert len(word) == X.dim(cid)
    cur = cid
    for i in range(len(word), 0, -1):
        if word[i - 1] != "*":
            cur = X.face(cur, i, int(word[i - 1]))
    return cur


def all_carriers_in_face_collar(X: CubeSet, p: Point, d: str) -> bool:
    """Whether ``p`` lies in the collar of the cube ``d``, read through every carrier.

    A frozen reference for the library's own-cube test: ``p`` is pushed to
    its canonical carrier c, embedded into every cube at every location of
    c there, and tested against every collar box of that cube, one box per
    location of an iterated face of ``d`` (below 1/2 on axes frozen at 0,
    above 1/2 on axes frozen at 1).
    """
    word = "".join("0" if x == 0 else "1" if x == 1 else "*" for x in p.coords)
    c = X.iterated_faces(p.cube)[word]
    interior = [x for x, ch in zip(p.coords, word) if ch == "*"]
    faces_of_d = set(X.iterated_faces(d).values())
    half = Fraction(1, 2)
    for cube in X.cubes():
        table = X.iterated_faces(cube)
        boxes = [g for g, e in table.items() if e in faces_of_d]
        for w, e in table.items():
            if e != c:
                continue
            it = iter(interior)
            coords = [Fraction(int(ch)) if ch != "*" else next(it) for ch in w]
            for g in boxes:
                if all(ch == "*" or (x < half if ch == "0" else x > half) for x, ch in zip(coords, g)):
                    return True
    return False


def rand_fraction(rng: random.Random, lo=Fraction(0), hi=Fraction(1), den: int = 97) -> Fraction:
    """A random fraction strictly between lo and hi."""
    return lo + Fraction(rng.randint(1, den - 1), den) * (hi - lo)


def increasing_values(rng: random.Random, count: int, den: int = 97) -> list[Fraction]:
    """``count`` strictly increasing fractions strictly inside (0, 1)."""
    nums = rng.sample(range(1, den), count)
    return [Fraction(n, den) for n in sorted(nums)]


def random_strict_tame_path(X: CubeSet, chain: CubeChain, rng: random.Random, inner: int = 2) -> PLPath:
    """A random strict tame path through the cubes of a chain."""
    n = len(chain.cubes)
    assert n > 0
    segments = []
    for i, c in enumerate(chain.cubes):
        d = X.dim(c)
        k = rng.randint(0, inner)
        times = [Fraction(i, n)]
        times += [Fraction(i, n) + t * Fraction(1, n) for t in increasing_values(rng, k)]
        times += [Fraction(i + 1, n)]
        columns = []
        for _ in range(d):
            columns.append([Fraction(0)] + increasing_values(rng, k) + [Fraction(1)])
        points = tuple(
            (times[j], tuple(col[j] for col in columns)) for j in range(k + 2)
        )
        segments.append(Segment(c, points))
    p = PLPath(tuple(segments))
    p.validate(X)
    return p


def random_two_facet_path(B3: CubeSet, rng: random.Random) -> PLPath:
    """A strict path on the boundary 3-cube crossing a facet junction mid-edge.

    Runs inside the bottom facet to a point on the shared edge, then inside
    the far facet to the top; not tame unless the crossing hits a vertex.
    """
    h = rand_fraction(rng)
    k1 = rng.randint(0, 2)
    times1 = [Fraction(0)] + [t / 2 for t in increasing_values(rng, k1)] + [Fraction(1, 2)]
    xs = [Fraction(0)] + increasing_values(rng, k1) + [Fraction(1)]
    ys = [Fraction(0)] + [v * h for v in increasing_values(rng, k1)] + [h]
    seg1 = Segment("**0", tuple((times1[j], (xs[j], ys[j])) for j in range(k1 + 2)))
    k2 = rng.randint(0, 2)
    times2 = [Fraction(1, 2)] + [Fraction(1, 2) + t / 2 for t in increasing_values(rng, k2)] + [Fraction(1)]
    ys2 = [h] + [h + v * (1 - h) for v in increasing_values(rng, k2)] + [Fraction(1)]
    zs2 = [Fraction(0)] + increasing_values(rng, k2) + [Fraction(1)]
    seg2 = Segment("1**", tuple((times2[j], (ys2[j], zs2[j])) for j in range(k2 + 2)))
    p = PLPath((seg1, seg2))
    p.validate(B3)
    return p


def euclidean_path(X: CubeSet, waypoints: list[tuple]) -> PLPath:
    """A directed PL path through global integer-grid coordinates.

    Waypoints must be componentwise non-decreasing; legs are split at
    integer crossings and assigned to the elementary cell they traverse.
    """
    pts = [tuple(Fraction(x) for x in w) for w in waypoints]
    for a, b in zip(pts, pts[1:]):
        assert all(x <= y for x, y in zip(a, b)), "waypoints must be non-decreasing"
    m = len(pts) - 1
    # refine each leg at interior integer crossings
    times: list[Fraction] = []
    points: list[tuple[Fraction, ...]] = []
    for leg in range(m):
        a, b = pts[leg], pts[leg + 1]
        cuts = {Fraction(0), Fraction(1)}
        for x, y in zip(a, b):
            lvl = x.numerator // x.denominator + 1
            while lvl < y:
                if x < lvl:
                    cuts.add(Fraction(lvl - x, y - x))
                lvl += 1
        for lam in sorted(cuts):
            t = Fraction(leg) + lam
            coord = tuple(x + lam * (y - x) for x, y in zip(a, b))
            if not times or t > times[-1]:
                times.append(t)
                points.append(coord)
    segments = []
    for i in range(len(points) - 1):
        a, b = points[i], points[i + 1]
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
        cid = ",".join(map(str, bottom)) + "|" + ",".join(map(str, top))
        segments.append(
            Segment(cid, ((times[i], tuple(local_a)), (times[i + 1], tuple(local_b))))
        )
    # merge consecutive segments in the same cell
    merged: list[Segment] = []
    for seg in segments:
        if merged and merged[-1].cube == seg.cube:
            merged[-1] = Segment(merged[-1].cube, merged[-1].points + seg.points[1:])
        else:
            merged.append(seg)
    p = PLPath(tuple(merged)).normalized()
    p.validate(X)
    return p


def random_monotone_grid_path(X: CubeSet, extent: tuple[int, ...], rng: random.Random, steps: int = 4) -> PLPath:
    """A random strict monotone path across a full euclidean grid."""
    dims = len(extent)
    cur = [Fraction(0)] * dims
    waypoints = [tuple(cur)]
    for s in range(1, steps):
        nxt = [
            rand_fraction(rng, cur[i], Fraction(extent[i]))
            for i in range(dims)
        ]
        cur = nxt
        waypoints.append(tuple(cur))
    waypoints.append(tuple(Fraction(e) for e in extent))
    return euclidean_path(X, waypoints)
