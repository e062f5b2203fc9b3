"""Exact piecewise-linear directed paths and the operations on them.

A directed path is stored as its presentation: an ordered list of
segments, each a carrier cube with breakpoints ``(time, coords)``.
Coordinates are exact rationals, times strictly increase inside a
segment, segments abut in time, and the junction points agree after
canonicalization.  Evaluation interpolates linearly, so every derived
quantity (crossing times, arc lengths, taming cuts) stays rational.

Each path lazily builds one time index on first use: the ascending
segment end times and the distinct breakpoint times.  Paths are
immutable, so the index never goes stale; every per-time lookup (the
segments holding a time, the breakpoints inside an interval) bisects it
instead of scanning all segments.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .carrier import HALF, Point, _coords_in, canonicalize, l1_distance_in_cube, leq_in_cube
from .cubeset import CubeSet
from .errors import PrecubicalError

__all__ = [
    "Breakpoint",
    "Segment",
    "PLPath",
    "KinkSequence",
    "path",
    "rational_flow",
    "exponential_flow",
    "evaluate",
    "is_strict",
    "is_tame",
    "concatenate",
    "reparametrize",
    "strictify",
    "strictify_homotopy",
    "l1_length",
    "naturalize",
    "path_to_kinks",
    "kinks_to_path",
    "paths_equal",
]

Breakpoint = tuple[Fraction, tuple[Fraction, ...]]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _coerce_points(points: Iterable) -> tuple[Breakpoint, ...]:
    out = []
    for t, coords in points:
        out.append((_frac(t), tuple(_frac(x) for x in coords)))
    return tuple(out)


@dataclass(frozen=True)
class Segment:
    """One presentation segment: a cube and its timed breakpoints."""

    cube: str
    points: tuple[Breakpoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", _coerce_points(self.points))
        if len(self.points) < 2:
            raise PrecubicalError("a segment needs at least two breakpoints")
        times = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise PrecubicalError(f"segment times must strictly increase: {times}")

    @property
    def t0(self) -> Fraction:
        return self.points[0][0]

    @property
    def t1(self) -> Fraction:
        return self.points[-1][0]


@dataclass(frozen=True)
class PLPath:
    """A directed piecewise-linear path given by its presentation."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(s if isinstance(s, Segment) else Segment(*s) for s in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise PrecubicalError("a path needs at least one segment")
        for a, b in zip(segs, segs[1:]):
            if a.t1 != b.t0:
                raise PrecubicalError(f"segment intervals must abut: {a.t1} != {b.t0}")

    @property
    def t0(self) -> Fraction:
        return self.segments[0].t0

    @property
    def t1(self) -> Fraction:
        return self.segments[-1].t1

    @cached_property
    def _time_index(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """Segment end times and distinct breakpoint times, both ascending."""
        times: list[Fraction] = []
        for seg in self.segments:
            for t, _ in seg.points:
                if not times or t > times[-1]:
                    times.append(t)
        return tuple(seg.t1 for seg in self.segments), tuple(times)

    def breakpoint_times(self) -> list[Fraction]:
        return list(self._time_index[1])

    def validate(self, X: CubeSet) -> None:
        """Check coordinate ranges, monotonicity, and junction continuity."""
        for si, seg in enumerate(self.segments):
            n = X.dim(seg.cube)
            for t, coords in seg.points:
                if len(coords) != n:
                    raise PrecubicalError(
                        f"segment {si}: {len(coords)} coordinates for {n}-cube {seg.cube!r} at t={t}"
                    )
            for (_, a), (_, b) in zip(seg.points, seg.points[1:]):
                if any(y < x for x, y in zip(a, b)):
                    raise PrecubicalError(f"segment {si}: coordinates must be non-decreasing")
        for si, (a, b) in enumerate(zip(self.segments, self.segments[1:])):
            left = canonicalize(X, Point(a.cube, a.points[-1][1]))
            right = canonicalize(X, Point(b.cube, b.points[0][1]))
            if left != right:
                raise PrecubicalError(f"junction {si + 1} mismatch: {left} != {right}")

    def start_point(self, X: CubeSet) -> Point:
        seg = self.segments[0]
        return canonicalize(X, Point(seg.cube, seg.points[0][1]))

    def end_point(self, X: CubeSet) -> Point:
        seg = self.segments[-1]
        return canonicalize(X, Point(seg.cube, seg.points[-1][1]))

    def normalized(self) -> "PLPath":
        """The same path reparametrized affinely onto the domain [0, 1]."""
        if (self.t0, self.t1) == (0, 1):
            return self
        return reparametrize(self, ((0, self.t0), (1, self.t1)))


def path(segments: Sequence[tuple[str, Sequence]]) -> PLPath:
    """Convenience constructor from ``(cube, [(t, coords), ...])`` pairs."""
    return PLPath(tuple(Segment(cube, _coerce_points(pts)) for cube, pts in segments))


# -- evaluation ---------------------------------------------------------------


def _segments_at(p: PLPath, t: Fraction) -> tuple[Segment, ...]:
    """The one or two segments whose closed interval holds ``t``, in order.

    Two exactly at a junction time, none outside the path domain.
    """
    if t < p.t0 or t > p.t1:
        return ()
    ends = p._time_index[0]
    i = bisect_left(ends, t)
    return p.segments[i : i + 2] if ends[i] == t else p.segments[i : i + 1]


def _times_between(p: PLPath, a: Fraction, b: Fraction) -> tuple[Fraction, ...]:
    """The breakpoint times strictly between ``a`` and ``b``, ascending."""
    times = p._time_index[1]
    return times[bisect_right(times, a) : bisect_left(times, b)]


def _interp(seg: Segment, t: Fraction) -> tuple[Fraction, ...]:
    pts = seg.points
    k = bisect_left(pts, t, key=itemgetter(0))
    if k < len(pts) and pts[k][0] == t:
        return pts[k][1]
    if k == 0 or k == len(pts):
        raise PrecubicalError(f"time {t} outside segment [{seg.t0}, {seg.t1}]")
    (ta, xa), (tb, xb) = pts[k - 1], pts[k]
    lam = (t - ta) / (tb - ta)
    return tuple(a + lam * (b - a) for a, b in zip(xa, xb))


def evaluate(X: CubeSet, p: PLPath, t) -> Point:
    """The canonical point of the path at time ``t``."""
    t = _frac(t)
    segs = _segments_at(p, t)
    if not segs:
        raise PrecubicalError(f"time {t} outside the path domain [{p.t0}, {p.t1}]")
    # at a junction the earlier segment's end point is used
    return canonicalize(X, Point(segs[0].cube, _interp(segs[0], t)))


def paths_equal(X: CubeSet, p: PLPath, q: PLPath) -> bool:
    """Pointwise equality on the union of breakpoint times plus midpoints.

    Midpoints matter: two linear pieces presented in different cubes can
    agree at their shared breakpoints yet trace different arcs in between.
    """
    if (p.t0, p.t1) != (q.t0, q.t1):
        return False
    times = _with_midpoints(p._time_index[1] + q._time_index[1])
    return all(evaluate(X, p, t) == evaluate(X, q, t) for t in times)


def _with_midpoints(times: Iterable[Fraction]) -> list[Fraction]:
    """The distinct ``times``, ascending, with the midpoint of each consecutive pair inserted."""
    ts = sorted(set(times))
    out = ts[:1]
    for a, b in zip(ts, ts[1:]):
        out += ((a + b) / 2, b)
    return out


# -- directedness predicates --------------------------------------------------


def is_strict(X: CubeSet, p: PLPath) -> bool:
    """Whether every coordinate strictly increases except while pinned at 0 or 1."""
    for seg in p.segments:
        for (_, a), (_, b) in zip(seg.points, seg.points[1:]):
            for x, y in zip(a, b):
                if x == y and x != 0 and x != 1:
                    return False
                if y < x:
                    return False
    return True


def _piece_events(seg: Segment) -> list[Fraction]:
    """Times (besides breakpoints) where some coordinate hits 0, 1, or 1/2."""
    out: list[Fraction] = []
    for (ta, xa), (tb, xb) in zip(seg.points, seg.points[1:]):
        for x, y in zip(xa, xb):
            if y == x:
                continue
            for level in (Fraction(0), HALF, Fraction(1)):
                if x < level < y:
                    out.append(ta + (level - x) / (y - x) * (tb - ta))
    return out


def _vertex_times(X: CubeSet, p: PLPath) -> list[Fraction]:
    """All times at which the path sits at a vertex.

    Between consecutive breakpoints each coordinate is affine, so it can
    only sit at 0 or 1 on a whole piece or reach them at a piece end;
    vertex visits therefore happen exactly at breakpoint times.
    """
    return [t for t in p._time_index[1] if evaluate(X, p, t).is_vertex()]


def _piece_carrier(X: CubeSet, p: PLPath, a: Fraction, b: Fraction) -> str | None:
    """A cube containing the whole sub-path on [a, b] (with a < b), or None.

    The open interval between consecutive sample times has a constant
    minimal carrier, so midpoint carriers together with endpoint carriers
    determine containment.  Returns a common coface of minimal dimension.
    """
    times = _with_midpoints([a, *_times_between(p, a, b), b])
    least = _least_carriers(X, (evaluate(X, p, t).cube for t in times))
    return least[0] if least else None


def _least_carriers(X: CubeSet, cubes: Iterable[str]) -> list[str]:
    """The common carriers of least dimension of some cubes, sorted; empty if there are none.

    Stops reading ``cubes`` as soon as the common carriers run out.
    """
    common = None
    for c in cubes:
        carriers = X._locations_of(c).keys()
        common = carriers if common is None else common & carriers
        if not common:
            return []
    least = min(X.dim(c) for c in common)
    return sorted(c for c in common if X.dim(c) == least)


def is_tame(X: CubeSet, p: PLPath) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Decide tameness and return the witnessing vertex junction times.

    A path is tame when it can be re-segmented so that every junction value
    is a vertex; the candidate junctions are the vertex visits along the
    trajectory, and each inter-vertex piece must fit inside a single cube.
    """
    if not p.start_point(X).is_vertex() or not p.end_point(X).is_vertex():
        return False, None
    hits = _vertex_times(X, p)
    if not hits or hits[0] != p.t0 or hits[-1] != p.t1:
        return False, None
    for a, b in zip(hits, hits[1:]):
        if _piece_carrier(X, p, a, b) is None:
            return False, None
    return True, tuple(hits)


# -- concatenation and reparametrization -------------------------------------


def concatenate(X: CubeSet, p: PLPath, q: PLPath) -> PLPath:
    """Concatenation of presentations; ``q`` is shifted to start at ``p.t1``."""
    if p.end_point(X) != q.start_point(X):
        raise PrecubicalError(
            f"cannot concatenate: {p.end_point(X)} != {q.start_point(X)}"
        )
    shift = p.t1 - q.t0
    shifted = tuple(
        Segment(s.cube, tuple((t + shift, c) for t, c in s.points)) for s in q.segments
    )
    return PLPath(p.segments + shifted)


def reparametrize(p: PLPath, phi: Sequence[tuple]) -> PLPath:
    """Precompose with a non-decreasing piecewise-linear surjection.

    ``phi`` is given by breakpoints ``(u, t)`` mapping the new domain onto
    the old one; it must be onto, so its first/last ``t`` equal the path's
    domain endpoints.  Constant stretches of ``phi`` introduce pauses.
    """
    pairs = [(_frac(u), _frac(t)) for u, t in phi]
    if len(pairs) < 2:
        raise PrecubicalError("a reparametrization needs at least two breakpoints")
    for (u0, t0), (u1, t1) in zip(pairs, pairs[1:]):
        if u1 <= u0 or t1 < t0:
            raise PrecubicalError("reparametrization must be strictly increasing in u and non-decreasing in t")
    if pairs[0][1] != p.t0 or pairs[-1][1] != p.t1:
        raise PrecubicalError("reparametrization must map onto the path domain")

    # Knots in the new domain: phi's own breakpoints plus the preimages of
    # the path's breakpoint times; between consecutive knots the composite
    # is affine inside one presentation cube.
    knots: list[tuple[Fraction, Fraction]] = [pairs[0]]
    for (u0, t0), (u1, t1) in zip(pairs, pairs[1:]):
        for bt in _times_between(p, t0, t1):
            knots.append((u0 + (bt - t0) / (t1 - t0) * (u1 - u0), bt))
        knots.append((u1, t1))

    segments: list[Segment] = []
    cur_seg: Segment | None = None
    cur_pts: list[Breakpoint] = []

    def flush():
        if cur_seg is not None and len(cur_pts) >= 2:
            segments.append(Segment(cur_seg.cube, tuple(cur_pts)))

    for (ua, ta), (ub, tb) in zip(knots, knots[1:]):
        if ub == ua:
            continue
        if cur_seg is None or not (cur_seg.t0 <= ta and tb <= cur_seg.t1):
            # no breakpoint lies strictly between consecutive knots, so the
            # first segment holding ta that reaches tb holds the whole piece
            nxt = next(s for s in _segments_at(p, ta) if tb <= s.t1)
            if cur_seg is not nxt:
                flush()
                cur_seg, cur_pts = nxt, [(ua, _interp(nxt, ta))]
        cur_pts.append((ub, _interp(cur_seg, tb)))
    flush()
    return PLPath(tuple(segments))


# -- strictifying flows -------------------------------------------------------


def rational_flow(t: Fraction, x: Fraction) -> Fraction:
    """Exact strictifying flow ``x + t*x*(1-x)`` on the unit square.

    Fixes 0 and 1, is the identity at t=0, strictly order-preserving in x,
    and strictly increasing in t on interior points; all of these hold
    exactly in rational arithmetic.
    """
    t, x = _frac(t), _frac(x)
    return x + t * x * (1 - x)


def exponential_flow(t: float, x: float) -> float:
    """The exponential reference flow ``x*e^t / (1 - x + x*e^t)`` (floats).

    Satisfies the same laws as :func:`rational_flow` up to floating-point
    error; provided for fidelity demonstrations only.
    """
    if x == 0.0 or x == 1.0:
        return x
    e = math.exp(t)
    return (x * e) / (1.0 - x + x * e)


def _apply_flow(kind: str, t: Fraction, x: Fraction) -> Fraction:
    if kind == "rational":
        return rational_flow(t, x)
    if kind in ("paper", "exponential"):
        v = Fraction(exponential_flow(float(t), float(x))).limit_denominator(10**15)
        return min(max(v, Fraction(0)), Fraction(1))
    raise PrecubicalError(f"unknown flow kind {kind!r}")


def _resample_times(p: PLPath, samples: int) -> dict[int, list[Fraction]]:
    out: dict[int, list[Fraction]] = {}
    for si, seg in enumerate(p.segments):
        ts = {seg.t0 + Fraction(k, samples) * (seg.t1 - seg.t0) for k in range(samples + 1)}
        ts.update(t for t, _ in seg.points)
        out[si] = sorted(ts)
    return out


def strictify(X: CubeSet, p: PLPath, flow: str = "rational", samples: int = 16) -> PLPath:
    """Strictify a directed path by the diagonal flow, resampled to PL.

    Applies the flow componentwise at every evaluation time (the segment
    breakpoints plus ``samples`` + 1 evenly spaced times per segment) and
    interpolates.  Cube membership at every time and the endpoint vertices
    are unchanged; tame paths stay tame.  Requires the domain [0, 1].
    """
    return strictify_homotopy(X, p, 1, flow, samples)


def strictify_homotopy(X: CubeSet, p: PLPath, s, flow: str = "rational", samples: int = 16) -> PLPath:
    """The stage-``s`` strictification: flow time scaled by ``s`` in [0, 1].

    Stage 0 reproduces the path (resampled) and stage 1 is
    :func:`strictify`; interior coordinates are non-decreasing in ``s``.
    """
    s = _frac(s)
    if not 0 <= s <= 1:
        raise PrecubicalError("homotopy stage must lie in [0, 1]")
    if samples < 1:
        raise PrecubicalError("samples must be positive")
    if (p.t0, p.t1) != (0, 1):
        raise PrecubicalError("strictify expects a path on the domain [0, 1]")
    times = _resample_times(p, samples)
    segments = []
    for si, seg in enumerate(p.segments):
        pts = []
        for t in times[si]:
            st = s * t
            pts.append((t, tuple(_apply_flow(flow, st, x) for x in _interp(seg, t))))
        segments.append(Segment(seg.cube, tuple(pts)))
    return PLPath(tuple(segments))


# -- arc length and naturalization -------------------------------------------


def l1_length(X: CubeSet, p: PLPath) -> Fraction:
    """Total Manhattan length: the sum of coordinate increments."""
    return _cumulative_length(p)[-1][-1]


def _cumulative_length(p: PLPath) -> list[list[Fraction]]:
    """Per segment, the accumulated length at each breakpoint."""
    out: list[list[Fraction]] = []
    acc = Fraction(0)
    for seg in p.segments:
        cur = [acc]
        for (_, a), (_, b) in zip(seg.points, seg.points[1:]):
            acc += sum((y - x for x, y in zip(a, b)), Fraction(0))
            cur.append(acc)
        out.append(cur)
    return out


def naturalize(X: CubeSet, p: PLPath) -> PLPath:
    """Reparametrize by accumulated Manhattan length, scaled onto [0, 1].

    Pauses (zero-length stretches) are dropped; the result has constant
    speed and the same trace.  Idempotent on already-natural paths.
    """
    cums = _cumulative_length(p)
    total = cums[-1][-1]
    if total == 0:
        return p.normalized()
    segments: list[Segment] = []
    for seg, cum in zip(p.segments, cums):
        pts: list[Breakpoint] = []
        for (t, coords), c in zip(seg.points, cum):
            s = c / total
            if pts and s == pts[-1][0]:
                continue
            pts.append((s, coords))
        if len(pts) >= 2:
            segments.append(Segment(seg.cube, tuple(pts)))
    return PLPath(tuple(segments))


# -- kink sequences -----------------------------------------------------------


@dataclass(frozen=True)
class KinkSequence:
    """Integral-time samples of a natural tame path.

    Consecutive points share a carrier cube, are componentwise ordered
    there, and sit at Manhattan distance exactly 1.
    """

    points: tuple[Point, ...]

    def __post_init__(self):
        if not self.points:
            raise PrecubicalError("a kink sequence needs at least one point")

    def validate(self, X: CubeSet) -> None:
        for i, (a, b) in enumerate(zip(self.points, self.points[1:])):
            if not leq_in_cube(X, a, b):
                raise PrecubicalError(f"kink step {i}: points are not ordered in a common cube")
            d = l1_distance_in_cube(X, a, b)
            if d != 1:
                raise PrecubicalError(f"kink step {i}: distance {d} != 1")


def _check_natural(X: CubeSet, p: PLPath) -> Fraction:
    """Return the integral length of a constant-speed path, or raise."""
    cums = _cumulative_length(p)
    total = cums[-1][-1]
    if total.denominator != 1 or total == 0:
        raise PrecubicalError(f"path length {total} is not a positive integer")
    span = p.t1 - p.t0
    for seg, cum in zip(p.segments, cums):
        for (t, _), c in zip(seg.points, cum):
            if c * span != (t - p.t0) * total:
                raise PrecubicalError("path is not natural (speed is not constant)")
    return total


def path_to_kinks(X: CubeSet, p: PLPath) -> KinkSequence:
    """Sample a natural tame path at the integral times of its arc length."""
    total = _check_natural(X, p)
    tame, _ = is_tame(X, p)
    if not tame:
        raise PrecubicalError("path_to_kinks expects a tame path")
    span = p.t1 - p.t0
    pts = [evaluate(X, p, p.t0 + Fraction(k, int(total)) * span) for k in range(int(total) + 1)]
    ks = KinkSequence(tuple(pts))
    ks.validate(X)
    return ks


def _minimal_common_cube(X: CubeSet, a: Point, b: Point) -> str:
    minimal = _least_carriers(X, (a.cube, b.cube))
    if not minimal:
        raise PrecubicalError(f"kink points {a} and {b} share no cube")
    if len(minimal) != 1:
        raise PrecubicalError(f"minimal common cube of {a} and {b} is not unique: {minimal}")
    return minimal[0]


def _rep_in(X: CubeSet, p: Point, cube: str) -> tuple[Fraction, ...]:
    reps = _coords_in(X, p, cube)
    if not reps:
        raise PrecubicalError(f"{p} has no representative in {cube!r}")
    if len(set(reps)) != 1:
        raise PrecubicalError(f"{p} has several representatives in {cube!r}")
    return reps[0]


def kinks_to_path(X: CubeSet, ks: KinkSequence) -> PLPath:
    """Join consecutive kink points by unit-speed segments, scaled onto [0, 1].

    Defined only on proper non-self-linked complexes, where the minimal
    common cube and the line segment inside it are unique.
    """
    if not X.proper_non_self_linked():
        raise PrecubicalError("kinks_to_path requires a proper, non-self-linked complex")
    ks.validate(X)
    pts = [canonicalize(X, q) for q in ks.points]
    if len(pts) == 1:
        only = pts[0]
        if not only.is_vertex():
            raise PrecubicalError("a single-point kink sequence must be a vertex")
        return PLPath((Segment(only.cube, ((Fraction(0), ()), (Fraction(1), ()))),))
    n = len(pts) - 1
    segments = []
    for k, (a, b) in enumerate(zip(pts, pts[1:])):
        cube = _minimal_common_cube(X, a, b)
        ca, cb = _rep_in(X, a, cube), _rep_in(X, b, cube)
        if any(y < x for x, y in zip(ca, cb)):
            raise PrecubicalError(f"kink step {k} is not increasing in {cube!r}")
        segments.append(
            Segment(cube, ((Fraction(k, n), ca), (Fraction(k + 1, n), cb)))
        )
    return PLPath(tuple(segments))
