"""Cube-wise taming of strict paths subordinate to a cube chain's collar.

The taming of a strict path along a chain replaces each stage by a path
running exactly from the stage cube's bottom vertex to its top vertex:
coordinates outside the stage face are pinned to 0 or 1 and the free
coordinates are rescaled affinely over the stage window.  Stage windows
are separated by crossing times: where consecutive stage faces share a
carrier cube the cut is the exact rational root of

    m_j = (min over the j-th stage's free axes) + (max over the next stage's free axes) = 1,

which a strict subordinate path crosses once; where the path switches
carrier cubes through the star of the junction vertex, the cut is the
presentation junction time.  All arithmetic is rational, so the cuts and
the tamed breakpoints are exact.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .carrier import FacePartition, Point, _in_box, canonicalize, in_star, representatives
from .chains import CubeChain
from .cubeset import CubeSet
from .dpath import PLPath, Segment, _interp, _segments_at, _times_between, evaluate, is_strict
from .errors import PrecubicalError, SubordinationError

__all__ = [
    "MSurface",
    "CrossingProfile",
    "crossing_times",
    "tame_cube",
    "tame",
    "taming_homotopy",
]

@dataclass(frozen=True)
class MSurface:
    """The crossing surface between two consecutive stage faces.

    Evaluated in the coordinates of ``cube`` as ``min`` over ``min_axes``
    plus ``max`` over ``max_axes``; the crossing time is where the value
    reaches 1 along the path.
    """

    cube: str
    min_axes: tuple[int, ...]
    max_axes: tuple[int, ...]

    def value(self, coords: tuple[Fraction, ...]) -> Fraction:
        return min(coords[a - 1] for a in self.min_axes) + max(coords[a - 1] for a in self.max_axes)


@dataclass(frozen=True)
class CrossingProfile:
    """Stage windows and crossing data of a path along a chain.

    ``cuts`` are the strictly ascending junction times; ``surfaces`` hold
    the surface solved at each cut, or ``None`` when the cut sits at a
    presentation junction inside a vertex star; ``partitions`` give one
    embedding of each stage cube into a carrier of the path over its
    window; ``windows`` are the stage intervals.
    """

    cuts: tuple[Fraction, ...]
    surfaces: tuple[MSurface | None, ...]
    partitions: tuple[FacePartition | None, ...]
    windows: tuple[tuple[Fraction, Fraction], ...]


def _hosts(X: CubeSet, carrier: str, cube: str) -> list[FacePartition]:
    """Embeddings of ``cube`` as an iterated face of ``carrier`` (or itself)."""
    return [FacePartition.from_word(w) for c, w in X.face_locations(cube) if c == carrier]


def _stage_coords(X: CubeSet, carrier: str, coords: tuple[Fraction, ...], stage: str) -> tuple[Fraction, ...] | None:
    """Face coordinates along ``stage`` of a point given in ``carrier``.

    When the carrier hosts the stage cube as a face, these are simply the
    coordinates on the free axes.  A point sitting on the stage cube's own
    boundary keeps its canonical coordinates, embedded through the face's
    axis pattern.  Any other point must lie in the collar box of some face
    of the stage inside the carrier, and the coordinates are the collar
    retraction: frozen axes of that face contribute 0 or 1, the rest come
    from the box's free axes.
    """
    direct = _hosts(X, carrier, stage)
    if direct:
        g = direct[0]
        return tuple(coords[a - 1] for a in sorted(g.free))
    point = canonicalize(X, Point(carrier, coords))
    for h_word, e in sorted(X.iterated_faces(stage).items()):
        if e == point.cube and e != stage:
            it = iter(point.coords)
            return tuple(
                Fraction(0) if ch == "0" else Fraction(1) if ch == "1" else next(it)
                for ch in h_word
            )
    results = set()
    for h_word, e in sorted(X.iterated_faces(stage).items()):
        if e == stage:
            continue
        for c, g_word in X.face_locations(e):
            if c != carrier:
                continue
            if not _in_box(coords, g_word):
                continue
            free_vals = iter(x for x, ch in zip(coords, g_word) if ch == "*")
            results.add(
                tuple(
                    Fraction(0) if ch == "0" else Fraction(1) if ch == "1" else next(free_vals)
                    for ch in h_word
                )
            )
    if len(results) == 1:
        return results.pop()
    if len(results) > 1:
        raise SubordinationError(f"ambiguous collar coordinates of {stage!r} in {carrier!r}")
    return None


def _linear_events(seg: Segment, axes: tuple[int, ...], lo: Fraction, hi: Fraction) -> set[Fraction]:
    """Times in [lo, hi] where the active min/max coordinate can switch."""
    out: set[Fraction] = set()
    for (ta, xa), (tb, xb) in zip(seg.points, seg.points[1:]):
        a, b = max(ta, lo), min(tb, hi)
        if a > b:
            continue
        for i, j in itertools.combinations(axes, 2):
            fa, fb = xa[i - 1] - xa[j - 1], xb[i - 1] - xb[j - 1]
            if fa == fb:
                continue
            t = ta - fa / (fb - fa) * (tb - ta)
            if a <= t <= b:
                out.add(t)
    return out


def _m_root_in_segment(seg: Segment, surface: MSurface, lo: Fraction, hi: Fraction) -> Fraction | None:
    """The first time in [lo, hi] where the surface value reaches 1."""
    if lo > hi:
        return None
    times: set[Fraction] = {lo, hi}
    times.update(t for t, _ in seg.points if lo < t < hi)
    times.update(_linear_events(seg, surface.min_axes + surface.max_axes, lo, hi))
    grid = sorted(times)
    vals = [surface.value(_interp(seg, t)) for t in grid]
    one = Fraction(1)
    for k in range(len(grid)):
        if vals[k] == one:
            return grid[k]
        if k + 1 < len(grid) and vals[k] < one < vals[k + 1]:
            ta, tb, va, vb = grid[k], grid[k + 1], vals[k], vals[k + 1]
            return ta + (one - va) / (vb - va) * (tb - ta)
    return None


def _stage_windows(X: CubeSet, p: PLPath, chain: CubeChain) -> CrossingProfile:
    """Cut the path domain into one window per chain cube."""
    n = len(chain.cubes)
    vertices = chain.vertex_sequence(X)
    segs, ends = p.segments, p._time_index[0]
    cuts: list[Fraction] = []
    surfaces: list[MSurface | None] = []
    cur = p.t0
    for j in range(n - 1):
        cj, cj1 = chain.cubes[j], chain.cubes[j + 1]
        star_vertex = vertices[j + 1]
        found: tuple[Fraction, MSurface | None] | None = None
        # the scan starts at the first segment reaching the previous cut
        for si in range(bisect_left(ends, cur), len(segs)):
            seg = segs[si]
            gs = _hosts(X, seg.cube, cj)
            gs1 = _hosts(X, seg.cube, cj1)
            if gs and gs1:
                for g, g1 in itertools.product(gs, gs1):
                    surf = MSurface(seg.cube, tuple(sorted(g.free)), tuple(sorted(g1.free)))
                    root = _m_root_in_segment(seg, surf, max(cur, seg.t0), seg.t1)
                    if root is not None and in_star(X, evaluate(X, p, root), star_vertex):
                        found = (root, surf)
                        break
                if found:
                    break
                continue
            if gs:
                continue
            # carrier hosts the next stage only, or neither; a mid-stage dip
            # into a low cube is recognized by the current stage reappearing
            # as a direct face further on before the next stage does
            if not gs1:
                reappears = False
                for later in itertools.islice(segs, si + 1, None):
                    if _hosts(X, later.cube, cj):
                        reappears = True
                        break
                    if _hosts(X, later.cube, cj1):
                        break
                if reappears:
                    continue
            u = max(cur, seg.t0)
            if in_star(X, evaluate(X, p, u), star_vertex):
                found = (u, None)
                break
            raise SubordinationError(
                f"stage {j + 1} of {chain.cubes} begins at t={u} outside the star of {star_vertex!r}"
            )
        if found is None:
            raise SubordinationError(f"no crossing between stages {j} and {j + 1} of {chain.cubes}")
        cut, surf = found
        if (cuts and cut <= cuts[-1]) or cut <= p.t0:
            raise SubordinationError("crossing times are not strictly ascending")
        cuts.append(cut)
        surfaces.append(surf)
        cur = cut
    bounds = [p.t0] + cuts + [p.t1]
    windows = [(bounds[j], bounds[j + 1]) for j in range(n)]
    partitions = [_window_partition(X, p, chain.cubes[j], *windows[j]) for j in range(n)]
    return CrossingProfile(tuple(cuts), tuple(surfaces), tuple(partitions), tuple(windows))


def _window_partition(X: CubeSet, p: PLPath, cube: str, a: Fraction, b: Fraction) -> FacePartition | None:
    """One direct embedding of the stage into a carrier over the window.

    ``None`` when the path only touches the stage cube through its boundary
    collar (coordinates then come from the collar retraction).
    """
    segs = p.segments
    for si in range(bisect_right(p._time_index[0], a), len(segs)):
        if segs[si].t0 >= b:
            break
        gs = _hosts(X, segs[si].cube, cube)
        if gs:
            return gs[0]
    return None


def crossing_times(X: CubeSet, p: PLPath, chain: CubeChain) -> CrossingProfile:
    """Exact crossing times of a strict path along a chain's collar.

    A one-cube chain has an empty profile; otherwise each consecutive pair
    of stage faces contributes one exactly solved cut.  Raises
    :class:`SubordinationError` when no crossing structure exists, which
    means the path is not subordinate to the chain's collar.
    """
    if not is_strict(X, p):
        raise PrecubicalError("crossing_times expects a strict path")
    chain.validate(X)
    return _stage_windows(X, p, chain)


def tame_cube(X: CubeSet, p: PLPath, fp: FacePartition, a, b) -> Segment:
    """One stage of the taming, in the coordinates of the carrier cube.

    Over [a, b] the coordinates in the frozen axis sets are pinned to 0
    and 1 and the free coordinates are rescaled affinely so the piece runs
    from the stage face's bottom vertex to its top vertex.  The interval
    must lie inside a single presentation segment; a zero rescale
    denominator signals a degenerate (non-strict or non-subordinate)
    stage.
    """
    a, b = Fraction(a), Fraction(b)
    seg = next((s for s in _segments_at(p, a) if b <= s.t1), None)
    if seg is None:
        raise PrecubicalError(f"[{a}, {b}] is not inside a single presentation segment")
    if fp.n != X.dim(seg.cube):
        raise PrecubicalError("face partition does not match the carrier cube")
    xa, xb = _interp(seg, a), _interp(seg, b)
    times = [a] + [t for t, _ in seg.points if a < t < b] + [b]
    pts = []
    for t in times:
        x = _interp(seg, t)
        coords = []
        for i in range(1, fp.n + 1):
            if i in fp.at0:
                coords.append(Fraction(0))
            elif i in fp.at1:
                coords.append(Fraction(1))
            else:
                den = xb[i - 1] - xa[i - 1]
                if den == 0:
                    raise SubordinationError(
                        f"axis {i} is constant on [{a}, {b}]: degenerate stage"
                    )
                coords.append((x[i - 1] - xa[i - 1]) / den)
        pts.append((t, tuple(coords)))
    return Segment(seg.cube, tuple(pts))


def _stage_value(X: CubeSet, p: PLPath, stage: str, t: Fraction, prefer_last: bool) -> tuple[Fraction, ...]:
    segs = _segments_at(p, t)
    for seg in reversed(segs) if prefer_last else segs:
        f = _stage_coords(X, seg.cube, _interp(seg, t), stage)
        if f is not None:
            return f
    raise SubordinationError(f"point at t={t} is outside the collar of stage cube {stage!r}")


def tame(X: CubeSet, p: PLPath, chain: CubeChain) -> PLPath:
    """Tame a strict path subordinate to the collar of ``chain``.

    The output runs through the chain's cubes, hitting the j-th chain
    vertex exactly at the j-th crossing time; it is strict, tame,
    subordinate to the chain, idempotent under re-taming, and fixes paths
    already presented through the chain's vertices.
    """
    if not is_strict(X, p):
        raise PrecubicalError("tame expects a strict path")
    chain.validate(X)
    if p.start_point(X).cube != chain.source or p.end_point(X).cube != chain.target:
        raise SubordinationError("path and chain endpoints differ")
    n = len(chain.cubes)
    if n == 0:
        return p
    profile = _stage_windows(X, p, chain)
    out: list[Segment] = []
    for j, cube in enumerate(chain.cubes):
        a, b = profile.windows[j]
        if not a < b:
            raise SubordinationError(f"stage {j} has an empty window")
        fa = _stage_value(X, p, cube, a, prefer_last=False)
        fb = _stage_value(X, p, cube, b, prefer_last=True)
        dens = [hi - lo for lo, hi in zip(fa, fb)]
        if any(d == 0 for d in dens):
            raise SubordinationError(f"degenerate free axis on stage {j}: rescale denominator is zero")
        pts = []
        for t in (a, *_times_between(p, a, b), b):
            f = _stage_value(X, p, cube, t, prefer_last=(t == b))
            pts.append((t, tuple((x - lo) / d for x, lo, d in zip(f, fa, dens))))
        out.append(Segment(cube, tuple(pts)))
    result = PLPath(tuple(out))
    result.validate(X)
    return result


def taming_homotopy(X: CubeSet, p: PLPath, chain: CubeChain, s) -> PLPath:
    """The linear homotopy stage between a path and its taming.

    Convex combination at every breakpoint time of either path, formed in
    the presentation cubes of ``p`` (the tamed point is embedded there by
    a representative).  Stage 0 is the resampled path, stage 1 the taming;
    every stage is strict and subordinate to the chain's collar.
    """
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise PrecubicalError("homotopy stage must lie in [0, 1]")
    if len(chain.cubes) == 0:
        return p
    q = tame(X, p, chain)
    times = sorted(set(p.breakpoint_times()) | set(q.breakpoint_times()))
    segments: list[Segment] = []
    for seg in p.segments:
        pts = []
        for t in times[bisect_left(times, seg.t0) : bisect_right(times, seg.t1)]:
            xp = _interp(seg, t)
            qpt = evaluate(X, q, t)
            reps = [coords for c, coords in representatives(X, qpt) if c == seg.cube]
            if not reps:
                raise SubordinationError(
                    f"tamed point {qpt} has no representative in carrier {seg.cube!r}"
                )
            xq = reps[0]
            pts.append((t, tuple((1 - s) * c1 + s * c2 for c1, c2 in zip(xp, xq))))
        if len(pts) >= 2:
            segments.append(Segment(seg.cube, tuple(pts)))
    result = PLPath(tuple(segments))
    result.validate(X)
    return result
