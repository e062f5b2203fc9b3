"""Strict paths along cube chains: finest chains, subordination, taming.

This is the layer where paths meet chains.  A strict path determines
its finest chain (the faces of its middle-hyperplane crossings), may be
subordinate to the collar of a chain, and every chain has a diagonal
witness path.

The taming of a strict path along a chain replaces each stage by a path
running exactly from the stage cube's bottom vertex to its top vertex:
coordinates outside the stage face are pinned to 0 or 1 and the free
coordinates are rescaled affinely over the stage window.  Stage windows
are separated by crossing times, each decided by one rule.  In the
carrier cube of every presentation segment the j-th stage is read on its
largest faces through its top vertex and the next stage on its largest
faces through its bottom vertex, both located in the carrier; the cut is
the first time, in the star of the junction vertex, that is an exact
rational root of

    m_j = (min over the ending face's free axes, 1 if none)
        + (max over the starting face's free axes, 0 if none) = 1.

Both faces are read in the carrier the segment runs in, so a stretch
presented in a face or in a larger cube around it gives the same cut.  All
arithmetic is rational, so the cuts and the tamed breakpoints are exact.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .carrier import (
    HALF,
    ONE,
    ZERO,
    FacePartition,
    Point,
    _coords_in,
    _embed,
    _in_box,
    _in_collar_boxes,
    _rational,
    canonicalize,
    in_star,
)
from .chains import CubeChain
from .cubeset import CubeSet
from .dpath import (
    PLPath,
    Segment,
    _interp,
    _samples,
    _segments_at,
    _times_between,
    evaluate,
    is_strict,
)
from .errors import PrecubicalError, SubordinationError

__all__ = [
    "finest_chain",
    "subordinate_to_collar",
    "chain_diagonal",
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
    plus ``max`` over ``max_axes``; an empty side reads 1 (``min``) or 0
    (``max``), which is how a stage met in the carrier only at the junction
    vertex enters.  The crossing time is where the value reaches 1 along
    the path.
    """

    cube: str
    min_axes: tuple[int, ...]
    max_axes: tuple[int, ...]

    def value(self, coords: tuple[Fraction, ...]) -> Fraction:
        low = min([coords[a - 1] for a in self.min_axes], default=ONE)
        return low + max([coords[a - 1] for a in self.max_axes], default=ZERO)


@dataclass(frozen=True)
class CrossingProfile:
    """Stage windows and crossing data of a path along a chain.

    ``cuts`` are the strictly ascending junction times; ``surfaces`` hold
    the surface solved at each cut; ``partitions`` give one
    embedding of each stage cube into a carrier of the path over its
    window; ``windows`` are the stage intervals.
    """

    cuts: tuple[Fraction, ...]
    surfaces: tuple[MSurface, ...]
    partitions: tuple[FacePartition | None, ...]
    windows: tuple[tuple[Fraction, Fraction], ...]


def _free(word: str, coords) -> tuple:
    """The entries of ``coords`` on the free axes of ``word``."""
    return tuple(x for x, ch in zip(coords, word) if ch == "*")


def _largest(boxes: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """The ``(box word, face word)`` pairs of ``boxes`` whose face has the most free axes."""
    top = max((h.count("*") for _, h in boxes), default=-1)
    return [(g, h) for g, h in boxes if h.count("*") == top]


def _stage_coords(X: CubeSet, carrier: str, coords: tuple[Fraction, ...], stage: str) -> tuple[Fraction, ...] | None:
    """Face coordinates along ``stage`` of a point given in ``carrier``.

    When the carrier hosts the stage cube as a face once, these are simply
    the coordinates on the free axes.  A point sitting on the stage cube
    keeps its canonical coordinates, embedded through the face's axis
    pattern.  Any other point must lie in the collar box of some face of
    the stage inside the carrier; of the boxes holding it the largest face
    decides, and the coordinates are its collar retraction: frozen axes of
    that face contribute 0 or 1, the rest come from the box's free axes.
    A carrier that hosts the stage more than once (a self-linked carrier)
    takes the same route; its boxes around the stage itself are the
    largest, so a point read differently by two of them is ambiguous.
    """
    direct = X._locations_of(stage).get(carrier, ())
    if len(direct) == 1:
        return _free(direct[0], coords)
    # the carrier hosts the stage never or more than once, so a canonical
    # cube that is the stage or a face of it places the point on the stage
    on_boundary = _coords_in(X, canonicalize(X, Point(carrier, coords)), stage)
    if on_boundary:
        return on_boundary[0]
    boxes = [(g, h) for g, h in X._collar(stage).get(carrier, ()) if _in_box(coords, g)]
    results = {_embed(h, _free(g, coords)) for g, h in _largest(boxes)}
    if len(results) > 1:
        raise SubordinationError(f"ambiguous collar coordinates of {stage!r} in {carrier!r}")
    return results.pop() if results else None


def _m_root_in_segment(seg: Segment, surface: MSurface, lo: Fraction) -> Fraction | None:
    """The first time in [lo, seg.t1] where the surface value reaches 1.

    The value min_i x_i + max_j x_j is 1 or more exactly when every min
    axis i has a max axis j with x_i + x_j >= 1, and along a directed
    segment no such sum decreases.  So the value first reaches 1 at the
    latest, over i, of the earliest, over j, first passage of x_i + x_j to
    1: with no max axes x_i alone must reach 1, with no min axes that is
    ``lo``.  ``None`` when the value stays below 1, or is above 1 already
    at ``lo``.
    """
    if surface.value(seg.points[-1][1]) < ONE:
        return None
    start = _interp(seg, lo)
    if surface.value(start) > ONE:
        return None
    ahead = seg.points[bisect_right(seg.points, lo, key=itemgetter(0)) :]

    def first_passage(i: int, j: int | None) -> Fraction | None:
        def level(x: tuple[Fraction, ...]) -> Fraction:
            return x[i - 1] if j is None else x[i - 1] + x[j - 1]

        ta, fa = lo, level(start)
        if fa >= ONE:
            return lo
        for tb, xb in ahead:
            fb = level(xb)
            if fb >= ONE:
                return ta + (ONE - fa) / (fb - fa) * (tb - ta)
            ta, fa = tb, fb
        return None

    root = lo
    for i in surface.min_axes:
        # the value at seg.t1 is 1 or more, so some x_i + x_j reaches 1 by then
        root = max(root, min(t for j in surface.max_axes or (None,) if (t := first_passage(i, j)) is not None))
    return root


def _surfaces(X: CubeSet, carrier: str, ending: str, starting: str) -> list[MSurface]:
    """The crossing surfaces of two consecutive stages read in one carrier.

    The ending stage is read on its largest faces through its top vertex
    (face words without ``0``), the starting stage on its largest faces
    through its bottom vertex (face words without ``1``), each as located
    in the carrier; empty when the carrier misses the junction vertex.
    """

    def axes(stage: str, side: str) -> list[tuple[int, ...]]:
        faces = [(g, h) for g, h in X._collar(stage).get(carrier, ()) if side not in h]
        return [_free(g, itertools.count(1)) for g, _ in _largest(faces)]

    return [MSurface(carrier, a, b) for a, b in itertools.product(axes(ending, "0"), axes(starting, "1"))]


def _crossing(X: CubeSet, p: PLPath, cur: Fraction, ending: str, starting: str, vertex: str) -> tuple[Fraction, MSurface]:
    """The first time from ``cur`` on, in the star of ``vertex``, where the path reaches m = 1."""
    # a segment ending at cur holds no cut after it
    for seg in p.segments[bisect_right(p._time_index[0], cur) :]:
        for surf in _surfaces(X, seg.cube, ending, starting):
            root = _m_root_in_segment(seg, surf, max(cur, seg.t0))
            if root is not None and in_star(X, Point(seg.cube, _interp(seg, root)), vertex):
                return root, surf
    raise SubordinationError(f"no crossing from {ending!r} to {starting!r} in the star of {vertex!r}")


def _stage_windows(X: CubeSet, p: PLPath, chain: CubeChain) -> tuple[tuple, tuple, tuple]:
    """Cut the path domain into one window per chain cube; returns the cuts, their surfaces and the windows."""
    bounds = [p.t0]
    surfaces: list[MSurface] = []
    for ending, starting, vertex in zip(chain.cubes, chain.cubes[1:], chain.vertex_sequence(X)[1:]):
        cut, surf = _crossing(X, p, bounds[-1], ending, starting, vertex)
        if cut <= bounds[-1]:
            raise SubordinationError("crossing times are not strictly ascending")
        bounds.append(cut)
        surfaces.append(surf)
    bounds.append(p.t1)
    windows = tuple(zip(bounds, bounds[1:])) if chain.cubes else ()
    return tuple(bounds[1:-1]), tuple(surfaces), windows


def _window_partition(X: CubeSet, p: PLPath, cube: str, a: Fraction, b: Fraction) -> FacePartition | None:
    """One direct embedding of the stage into a carrier over the window.

    The first segment over the window whose carrier hosts the stage gives
    the location: of several (a self-linked carrier), the first whose
    frozen coordinates the path holds over the segment's part of the
    window, else the first.  ``None`` when the path only touches the stage
    cube through its boundary collar (coordinates then come from the
    collar retraction).
    """
    hosts = X._locations_of(cube)
    for seg in p.segments[bisect_right(p._time_index[0], a) :]:
        if seg.t0 >= b:
            break
        gs = hosts.get(seg.cube)
        if gs:
            if len(gs) > 1:
                # coordinates never decrease: a frozen 0 holds if 0 at the end, a frozen 1 if 1 at the start
                lo, hi = _interp(seg, max(a, seg.t0)), _interp(seg, min(b, seg.t1))
                held = lambda g: all(ch == "*" or (lo if ch == "1" else hi)[i] == int(ch) for i, ch in enumerate(g))
                gs = [g for g in gs if held(g)] or gs
            return FacePartition.from_word(gs[0])
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
    cuts, surfaces, windows = _stage_windows(X, p, chain)
    partitions = tuple(_window_partition(X, p, cube, *w) for cube, w in zip(chain.cubes, windows))
    return CrossingProfile(cuts, surfaces, partitions, windows)


def tame_cube(X: CubeSet, p: PLPath, fp: FacePartition, a, b) -> Segment:
    """One stage of the taming, in the coordinates of the carrier cube.

    Over [a, b] the coordinates in the frozen axis sets are pinned to 0
    and 1 and the free coordinates are rescaled affinely so the piece runs
    from the stage face's bottom vertex to its top vertex.  The interval
    must lie inside a single presentation segment; a zero rescale
    denominator signals a degenerate (non-strict or non-subordinate)
    stage.
    """
    a, b = _rational(a, "time"), _rational(b, "time")
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
    _, _, windows = _stage_windows(X, p, chain)
    out: list[Segment] = []
    for j, cube in enumerate(chain.cubes):
        a, b = windows[j]
        if not a < b:
            raise SubordinationError(f"stage {j} has an empty window")
        fa = _stage_value(X, p, cube, a, prefer_last=False)
        fb = _stage_value(X, p, cube, b, prefer_last=True)
        dens = [hi - lo for lo, hi in zip(fa, fb)]
        if any(d == 0 for d in dens):
            raise SubordinationError(f"degenerate free axis on stage {j}: rescale denominator is zero")
        inner = [(t, _stage_value(X, p, cube, t, prefer_last=False)) for t in _times_between(p, a, b)]
        pts = [(t, tuple((x - lo) / d for x, lo, d in zip(f, fa, dens))) for t, f in [(a, fa), *inner, (b, fb)]]
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
    s = _rational(s, "homotopy stage")
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
            reps = _coords_in(X, qpt, seg.cube)
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


# -- the finest chain of a strict path ---------------------------------------


def middle_crossings(X: CubeSet, p: PLPath) -> list[tuple[Fraction, str]]:
    """All crossings of the coordinate-1/2 hyperplanes as ``(time, face)`` pairs.

    Segment by segment, every segment from its first breakpoint, in time
    order: the samples of :func:`~precubical.dpath._samples`, built without
    midpoints, that have a coordinate equal to 1/2.  A strict path meets
    each middle hyperplane of a segment cube at most once.  The face of a
    crossing has the word ``*`` on the coordinates equal to 1/2 at that
    time, ``0`` on those below and ``1`` on those above, so simultaneous
    crossings give a single pair.
    """
    out: list[tuple[Fraction, str]] = []
    for seg in p.segments:
        faces = X.iterated_faces(seg.cube)
        for _, t, coords in _samples(seg, midpoints=False):
            if HALF in coords:
                word = "".join("*" if x == HALF else "0" if x < HALF else "1" for x in coords)
                out.append((t, faces[word]))
    return out


def finest_chain(X: CubeSet, p: PLPath) -> CubeChain:
    """The chain of middle-hyperplane faces crossed by a strict path.

    Each crossing classifies the segment-cube axes into below / at / above
    1/2 and contributes the face frozen accordingly; crossings shared by
    two presentation segments at their junction produce the same face and
    are merged.  Vertex endpoints are required; a path with no crossings
    yields the empty chain.
    """
    if not is_strict(X, p):
        raise PrecubicalError("finest_chain expects a strict path")
    start = p.start_point(X)
    end = p.end_point(X)
    if not start.is_vertex() or not end.is_vertex():
        raise PrecubicalError("finest_chain expects a path between vertices")
    cubes: list[str] = []
    last = None
    for crossing in middle_crossings(X, p):
        if crossing != last:
            cubes.append(crossing[1])
        last = crossing
    chain = CubeChain(start.cube, end.cube, tuple(cubes))
    chain.validate(X)
    return chain


# -- subordination to a collar -------------------------------------------------


def subordinate_to_collar(X: CubeSet, p: PLPath, chain: CubeChain) -> bool:
    """Whether the path admits cuts placing each stage in one collar.

    Greedy scan over the samples of :func:`~precubical.dpath._samples`
    (breakpoints, 1/2-crossings, and the midpoints between them), each
    canonicalized once and tested in that form against the collar boxes:
    stage i must stay inside the collar of the i-th chain cube and each
    cut value must lie in the star of the junction vertex.  Cuts are taken
    as late as possible, which is optimal because a later cut only shrinks
    the remaining constraint intervals.
    """
    if p.start_point(X) != Point(chain.source, ()):
        raise PrecubicalError("path and chain sources differ")
    if p.end_point(X) != Point(chain.target, ()):
        raise PrecubicalError("path and chain targets differ")
    # a junction is read on the earlier segment, as in evaluate
    pts = [
        canonicalize(X, Point(seg.cube, coords))
        for i, seg in enumerate(p.segments)
        for _, _, coords in _samples(seg, first=not i)
    ]
    n = len(chain.cubes)
    if n == 0:
        return all(pt == pts[0] for pt in pts)
    vertices = chain.vertex_sequence(X)
    lo = 0
    for i, cube in enumerate(chain.cubes):
        # stage i holds the samples from lo up to the first one outside its collar
        collar = X._collar(cube)
        end = next((k for k in range(lo, len(pts)) if not _in_collar_boxes(pts[k], collar)), len(pts))
        if end == lo:
            return False
        if i == n - 1:
            return end == len(pts)
        # and is cut at the last of them in the star of the next junction vertex
        star = X._collar(vertices[i + 1])
        lo = next((k for k in range(end - 1, lo - 1, -1) if _in_collar_boxes(pts[k], star)), None)
        if lo is None:
            return False
    return True


# -- canonical witness paths ---------------------------------------------------


def chain_diagonal(X: CubeSet, chain: CubeChain) -> PLPath:
    """The constant-speed diagonal path through a chain's cubes.

    Runs each cube from its bottom to its top vertex along the diagonal; a
    canonical strict tame path subordinate to the chain (and its collar).
    """
    chain.validate(X)
    n = len(chain.cubes)
    if n == 0:
        return PLPath((Segment(chain.source, ((Fraction(0), ()), (Fraction(1), ()))),))
    segments = []
    for i, c in enumerate(chain.cubes):
        d = X.dim(c)
        zero = (Fraction(0),) * d
        one = (Fraction(1),) * d
        segments.append(Segment(c, ((Fraction(i, n), zero), (Fraction(i + 1, n), one))))
    return PLPath(tuple(segments))
