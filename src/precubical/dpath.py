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
instead of scanning all segments.  Whole-path work needs no lookup: the
scans (tameness, collar subordination, middle crossings) walk the
segments in order, each segment listing its own samples (see
:func:`_samples`), and taming walks the breakpoints forward once.

A piece holds its time and coordinates as integer numerators over one
denominator each (:func:`_line`, :func:`_lines`).  The scans read every
sample from these integers as signs, the face word of its canonical
carrier and the sides of 1/2 of its free coordinates, and build no
point.  A ``Fraction`` is built only for a value that is returned: each
point between breakpoints by :func:`_point_at`, one per moving
coordinate (the values of :func:`evaluate` and the taming stages, the
integral-length points of :func:`path_to_kinks`), each flowed grid
coordinate of :func:`strictify_homotopy`, each crossing or vertex-hit
time and each accumulated length.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .carrier import (
    Point,
    _common_rep_pairs,
    _face_word,
    _pairs_distance,
    _pairs_ordered,
    _rational,
    _sides,
    canonicalize,
)
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


_FRACTION = frozenset({Fraction})


def _coerce_points(points: Iterable) -> tuple[Breakpoint, ...]:
    """``points`` as a tuple of ``(time, coordinates)`` tuples of ``Fraction``s.

    Input that already has this exact shape is returned as it is; anything
    else is copied, converting each entry.
    """
    if type(points) is tuple:
        for bp in points:
            if (
                type(bp) is not tuple
                or len(bp) != 2
                or type(bp[0]) is not Fraction
                or type(bp[1]) is not tuple
                or not _FRACTION.issuperset(map(type, bp[1]))
            ):
                break
        else:
            return points
    return tuple((_rational(t, "time"), tuple([_rational(x, "coordinate") for x in coords])) for t, coords in points)


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
        if any(b.numerator * a.denominator <= a.numerator * b.denominator for a, b in zip(times, times[1:])):
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
                for x in coords:
                    if not 0 <= x.numerator <= x.denominator:
                        raise PrecubicalError(f"segment {si}: coordinate {x} outside [0, 1] at t={t}")
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
    """Convenience constructor from ``(cube, [(t, coords), ...])`` pairs (``Segment`` coerces them)."""
    return PLPath(tuple(Segment(cube, pts) for cube, pts in segments))


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
    """The coordinates of a segment at time ``t``: a breakpoint's own, else :func:`_point_at` on its piece."""
    pts = seg.points
    k = bisect_left(pts, t, key=itemgetter(0))
    if k < len(pts) and pts[k][0] == t:
        return pts[k][1]
    if k == 0 or k == len(pts):
        raise PrecubicalError(f"time {t} outside segment [{seg.t0}, {seg.t1}]")
    return _between(pts[k - 1], pts[k], t)


def _between(a: Breakpoint, b: Breakpoint, t: Fraction) -> tuple[Fraction, ...]:
    """The coordinates at a time ``t`` strictly between the consecutive breakpoints ``a`` and ``b``, by :func:`_point_at`."""
    (ta, xa), (tb, xb) = a, b
    lo, rise, d = _line(ta, tb)
    # t = tn/tq lies (tn*d - lo*tq) / (tq*rise) of the way from ta = lo/d to tb = (lo + rise)/d
    return _point_at(_lines(xa, xb), t.numerator * d - lo * t.denominator, t.denominator * rise)


def evaluate(X: CubeSet, p: PLPath, t) -> Point:
    """The canonical point of the path at time ``t``."""
    t = _rational(t, "time")
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
                # the sign of y - x; a coordinate may hold only at 0 or 1
                rise = y.numerator * x.denominator - x.numerator * y.denominator
                if rise < 0 or rise == 0 and x.numerator != 0 and x.numerator != x.denominator:
                    return False
    return True


_BREAKPOINT, _CROSSING, _MIDPOINT = "breakpoint", "crossing", "midpoint"


def _line(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """``(lo, rise, d)`` with ``a = lo/d`` and ``b = (lo + rise)/d``: the value at ``lam`` is ``(lo + lam*rise)/d``."""
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    return an * bd, bn * ad - an * bd, ad * bd


def _lines(xa: tuple[Fraction, ...], xb: tuple[Fraction, ...]) -> list[tuple[Fraction, int, int, int]]:
    """Per coordinate of a piece from ``xa`` to ``xb``, its start value and its :func:`_line`."""
    return [(a, *_line(a, b)) for a, b in zip(xa, xb)]


def _point_at(lines: list[tuple[Fraction, int, int, int]], p: int, q: int) -> tuple[Fraction, ...]:
    """The coordinates the fraction ``p/q`` (with ``q > 0``) along a piece given by :func:`_lines`.

    Each is the single ``Fraction(lo*q + p*rise, d*q)``; a coordinate that
    does not move keeps its start value.
    """
    return tuple([Fraction(lo * q + p * rise, d * q) if rise else a for a, lo, rise, d in lines])


def _codes(X: CubeSet, cube: str, x: tuple[Fraction, ...]) -> tuple[str, str]:
    """The canonical face word of the point ``x`` of ``cube`` and the sides of 1/2 of its free coordinates.

    A point :func:`~precubical.carrier.canonicalize` refuses is refused with its error.
    """
    if len(x) != X.dim(cube) or not all(0 <= c.numerator <= c.denominator for c in x):
        canonicalize(X, Point(cube, x))  # raises the error this point gets there
    word = _face_word(x)
    return word, _sides([c for c, ch in zip(x, word) if ch == "*"])


def _sides_at(free: list[tuple[int, int, int]], p: int, q: int) -> str:
    """The sides of 1/2 at ``p/q`` along a piece of the coordinates on these lines: ``2*(lo*q + p*rise)`` against ``d*q``."""
    sides = ""
    for lo, rise, d in free:
        v, w = 2 * (lo * q + p * rise), d * q
        sides += "0" if v < w else "1" if v > w else "*"
    return sides


def _samples(
    X: CubeSet, seg: Segment, first: bool = True, *, midpoints: bool = True
) -> Iterator[tuple[str, tuple[int, int], str, str]]:
    """The samples of one segment as ``(kind, time, word, sides)``, in time order.

    The samples are every breakpoint (``_BREAKPOINT``), every time strictly
    inside a piece where some coordinate rises through 1/2 (``_CROSSING``,
    one sample for simultaneous crossings), and the midpoint between each
    pair of consecutive samples (``_MIDPOINT``).  Between consecutive
    samples of a directed segment every coordinate stays on one side of
    1/2 and either stays at 0 or 1 or stays off them, so the minimal
    carrier and the collar boxes holding the point are those of the
    midpoint: a predicate that only reads these is decided on the samples.
    With ``first=False`` the first breakpoint is left out, as a junction is
    read on the earlier segment; with ``midpoints=False`` the midpoints are
    not yielded.

    A sample is read as signs, and no point is built: ``word`` spells its
    canonical carrier in the segment cube, ``sides`` the side of 1/2
    (``0``, ``*`` or ``1``) of each coordinate on the free axes of
    ``word``, and ``time`` is an unreduced integer pair ``(n, d)``, ``d > 0``.
    Every point strictly inside a piece has one canonical carrier: ``0``
    where both ends are 0, ``1`` where both are 1, ``*`` elsewhere.  On a
    coordinate's :func:`_line` the crossing of 1/2 is at
    ``(d - 2*lo) / (2*rise)``; over one common denominator ``q`` the
    crossings sort and merge as integers.  Both ends of a piece are checked
    as :func:`~precubical.carrier.canonicalize` checks a point before its
    inside is read.
    """
    pts = seg.points
    tb, xb = pts[0]
    end = _codes(X, seg.cube, xb)
    if first:
        yield _BREAKPOINT, (tb.numerator, tb.denominator), *end
    for (ta, xa), (tb, xb) in zip(pts, pts[1:]):
        end = _codes(X, seg.cube, xb)
        lines = list(map(_line, xa, xb))
        word = "".join(["*" if rise or 0 < lo < d else "0" if lo == 0 else "1" for lo, rise, d in lines])
        free = [line for line, ch in zip(lines, word) if ch == "*"]
        halves = [(d - 2 * lo, 2 * rise) for lo, rise, d in free if 2 * lo < d < 2 * (lo + rise)]
        q = math.lcm(*[den for _, den in halves])
        # the stops along the piece over the denominator q: 0, then each crossing, then q
        stops = [0, *sorted({num * (q // den) for num, den in halves}), q]
        tlo, trise, td = _line(ta, tb)
        for a, b in zip(stops, stops[1:]):
            if midpoints:
                yield _MIDPOINT, (2 * q * tlo + (a + b) * trise, 2 * q * td), word, _sides_at(free, a + b, 2 * q)
            if b != q:
                yield _CROSSING, (q * tlo + b * trise, q * td), word, _sides_at(free, b, q)
        yield _BREAKPOINT, (tb.numerator, tb.denominator), *end


def is_tame(X: CubeSet, p: PLPath) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Decide tameness and return the witnessing vertex junction times.

    A path is tame when it can be re-segmented so that every junction value
    is a vertex; the candidate junctions are the vertex visits along the
    trajectory, and each inter-vertex piece must fit inside a single cube.
    One walk over the samples of :func:`_samples` decides both.  An affine
    coordinate reaches 0 or 1 only at a piece end or holds it throughout,
    so the visits are the breakpoints at a vertex (both ends of a pause at
    a vertex); the samples since the last visit must share a carrier.  The
    inside of a piece has one canonical cube, so one carrier set is read
    per piece and per breakpoint.
    """
    hits: list[Fraction] = []
    common = None
    last = None
    for i, seg in enumerate(p.segments):
        faces = X.iterated_faces(seg.cube)
        for kind, time, word, _ in _samples(X, seg, first=not i):
            cube = faces[word]
            if kind is not _BREAKPOINT and cube == last:
                continue  # the rest of a piece adds no carrier
            last = cube
            carriers = X._locations_of(cube).keys()
            common = carriers if common is None else common & carriers
            if not common:
                return False, None
            if kind is _BREAKPOINT and "*" not in word:
                hits.append(Fraction(*time))
                common = carriers
    if not hits or hits[0] != p.t0 or hits[-1] != p.t1:
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
    pairs = [(_rational(u, "time"), _rational(t, "time")) for u, t in phi]
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
    t, x = _rational(t, "flow time"), _rational(x, "coordinate")
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


def strictify(X: CubeSet, p: PLPath, flow: str = "rational", samples: int = 16) -> PLPath:
    """Strictify a directed path by the diagonal flow, resampled to PL.

    Applies the flow componentwise at every evaluation time (the segment
    breakpoints plus ``samples`` + 1 evenly spaced times per segment) and
    interpolates.  Cube membership at every time and the endpoint vertices
    are unchanged; tame paths stay tame.  Requires the domain [0, 1].
    Computed by :func:`strictify_homotopy` at stage 1, so the output is the
    exact per-time evaluation described there.
    """
    return strictify_homotopy(X, p, 1, flow, samples)


def strictify_homotopy(X: CubeSet, p: PLPath, s, flow: str = "rational", samples: int = 16) -> PLPath:
    """The stage-``s`` strictification: flow time scaled by ``s`` in [0, 1].

    Stage 0 reproduces the path (resampled) and stage 1 is
    :func:`strictify`; interior coordinates are non-decreasing in ``s``.

    Each segment is resampled by one merge walk over its evenly spaced
    times and its own breakpoints, both already ascending.  The grid
    times are read off the segment's :func:`_line` and the points between
    breakpoints off each piece's :func:`_lines` as :func:`_point_at` reads
    them, but as unreduced integer pairs.  The ``rational`` flow
    ``x + s*t*x*(1-x)`` is applied to each pair, so every output
    coordinate is one ``Fraction`` of integer numerators; the other flows
    go through the float reference (``n / d`` rounds as the ``float`` of
    the reduced value does).  Either way the output equals, point for
    point, the flow applied at every distinct sample time to the exactly
    interpolated path.
    """
    s = _rational(s, "homotopy stage")
    if not 0 <= s <= 1:
        raise PrecubicalError("homotopy stage must lie in [0, 1]")
    if not isinstance(samples, int) or samples < 1:
        raise PrecubicalError(f"samples must be a positive integer, got {samples!r}")
    if flow == "rational":
        def move(an: int, ad: int, xn: int, xd: int) -> Fraction:
            # x + st*x*(1-x) with x = xn/xd and st = an/ad
            return Fraction(xn * (xd * ad + an * (xd - xn)), ad * xd * xd)
    elif flow in ("paper", "exponential"):
        def move(an: int, ad: int, xn: int, xd: int) -> Fraction:
            # the float reference, read back as a fraction clamped to [0, 1]
            v = Fraction(exponential_flow(an / ad, xn / xd)).limit_denominator(10**15)
            return min(max(v, Fraction(0)), Fraction(1))
    else:
        raise PrecubicalError(f"unknown flow kind {flow!r}")
    if (p.t0, p.t1) != (0, 1):
        raise PrecubicalError("strictify expects a path on the domain [0, 1]")

    def flowed(t: Fraction, xs: Iterable[tuple[int, int]]) -> Breakpoint:
        # the flow time s*t as an/ad, each coordinate as an integer pair (xn, xd)
        an, ad = s.numerator * t.numerator, s.denominator * t.denominator
        return t, tuple([move(an, ad, xn, xd) for xn, xd in xs])

    def pairs(xs: tuple[Fraction, ...]) -> list[tuple[int, int]]:
        return [(x.numerator, x.denominator) for x in xs]

    segments = []
    for seg in p.segments:
        pts = seg.points
        # the k-th evenly spaced time is (lo*samples + k*rise) / (d*samples), k = 0..samples
        lo, rise, d = _line(pts[0][0], pts[-1][0])
        den = d * samples
        grid = lo * samples + rise
        out = [flowed(pts[0][0], pairs(pts[0][1]))]
        for (ta, xa), (tb, xb) in zip(pts, pts[1:]):
            lines = _lines(xa, xb)
            # a grid time g/den lies the fraction (g*pd - plo*den) / q along the piece, q = prise*den
            plo, prise, pd = _line(ta, tb)
            end, q = (plo + prise) * den, prise * den
            while grid * pd < end:
                # each coordinate (xlo*q + num*xrise) / (xd*q) as in _point_at, left unreduced for the flow
                num = grid * pd - plo * den
                xs = [(xlo * q + num * xrise, xd * q) if xrise else (x.numerator, x.denominator) for x, xlo, xrise, xd in lines]
                out.append(flowed(Fraction(grid, den), xs))
                grid += rise
            if grid * pd == end:  # this grid time is the breakpoint tb itself
                grid += rise
            out.append(flowed(tb, pairs(xb)))
        segments.append(Segment(seg.cube, tuple(out)))
    return PLPath(tuple(segments))


# -- arc length and naturalization -------------------------------------------


def l1_length(X: CubeSet, p: PLPath) -> Fraction:
    """Total Manhattan length: the sum of coordinate increments."""
    return _cumulative_length(p)[-1][-1]


def _cumulative_length(p: PLPath) -> list[list[Fraction]]:
    """Per segment, the accumulated length at each breakpoint, each one ``Fraction`` of integer numerators over a common denominator."""
    out: list[list[Fraction]] = []
    acc = Fraction(0)
    for seg in p.segments:
        cur = [acc]
        for (_, a), (_, b) in zip(seg.points, seg.points[1:]):
            den = math.lcm(acc.denominator, *[x.denominator for x in a + b])
            rise = sum([y.numerator * (den // y.denominator) - x.numerator * (den // x.denominator) for x, y in zip(a, b)])
            acc = Fraction(acc.numerator * (den // acc.denominator) + rise, den)
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
        _kink_steps(X, self)


def _kink_steps(X: CubeSet, ks: KinkSequence) -> list[list[tuple[str, tuple[Fraction, ...], tuple[Fraction, ...]]]]:
    """Each step's representative pairs (:func:`~precubical.carrier._common_rep_pairs`), once the step is checked."""
    steps = []
    for i, (a, b) in enumerate(zip(ks.points, ks.points[1:])):
        pairs = _common_rep_pairs(X, a, b)
        if not _pairs_ordered(pairs):
            raise PrecubicalError(f"kink step {i}: points are not ordered in a common cube")
        d = _pairs_distance(pairs)
        if d != 1:
            raise PrecubicalError(f"kink step {i}: distance {d} != 1")
        steps.append(pairs)
    return steps


def _check_natural(X: CubeSet, p: PLPath) -> list[list[Fraction]]:
    """The cumulative lengths of a constant-speed path of integral length, or raise.

    A path of length 0 is constant, which counts as natural.
    """
    cums = _cumulative_length(p)
    total = cums[-1][-1]
    if total.denominator != 1:
        raise PrecubicalError(f"path length {total} is not an integer")
    span = p.t1 - p.t0
    for seg, cum in zip(p.segments, cums):
        for (t, _), c in zip(seg.points, cum):
            if c * span != (t - p.t0) * total:
                raise PrecubicalError("path is not natural (speed is not constant)")
    return cums


def path_to_kinks(X: CubeSet, p: PLPath) -> KinkSequence:
    """Sample a natural tame path at the integral times of its arc length.

    At constant speed the time and the length of a point are affine in
    each other, so the point at length ``k`` is the one :func:`evaluate`
    returns at the ``k``-th integral time.  One walk over the pieces finds
    each: a breakpoint when ``k`` is its cumulative length (a junction is
    read on the earlier segment), otherwise the point the fraction
    ``(k - ca) / (cb - ca)`` along the piece from length ``ca`` to ``cb``.
    A constant path at a vertex has length 0 and gives the one-point
    sequence that :func:`kinks_to_path` turns back into it.
    """
    cums = _check_natural(X, p)
    tame, _ = is_tame(X, p)
    if not tame:
        raise PrecubicalError("path_to_kinks expects a tame path")
    pts = [p.start_point(X)]
    k = 1
    for seg, cum in zip(p.segments, cums):
        for ((_, xa), (_, xb)), ca, cb in zip(zip(seg.points, seg.points[1:]), cum, cum[1:]):
            lines = _lines(xa, xb)
            # k - ca = (k*d - lo)/d and cb - ca = rise/d
            lo, rise, d = _line(ca, cb)
            while k < cb:
                pts.append(canonicalize(X, Point(seg.cube, _point_at(lines, k * d - lo, rise))))
                k += 1
            if k == cb:
                pts.append(canonicalize(X, Point(seg.cube, xb)))
                k += 1
    ks = KinkSequence(tuple(pts))
    ks.validate(X)
    return ks


def kinks_to_path(X: CubeSet, ks: KinkSequence) -> PLPath:
    """Join consecutive kink points by unit-speed segments, scaled onto [0, 1].

    Defined only on proper non-self-linked complexes, where the minimal
    common cube and the line segment inside it are unique.  Each step's
    cube and end coordinates are read from the representative pairs that
    checking the sequence found; a non-self-linked cube locates a face at
    most once, so each common cube has one pair.
    """
    if not X.proper_non_self_linked():
        raise PrecubicalError("kinks_to_path requires a proper, non-self-linked complex")
    steps = _kink_steps(X, ks)
    if not steps:
        only = canonicalize(X, ks.points[0])
        if not only.is_vertex():
            raise PrecubicalError("a single-point kink sequence must be a vertex")
        return PLPath((Segment(only.cube, ((Fraction(0), ()), (Fraction(1), ()))),))
    n = len(steps)
    segments = []
    for k, pairs in enumerate(steps):
        least = min(X.dim(cube) for cube, _, _ in pairs)
        minimal = [pair for pair in pairs if X.dim(pair[0]) == least]
        if len(minimal) != 1:
            a, b = (canonicalize(X, q) for q in ks.points[k : k + 2])
            cubes = sorted(cube for cube, _, _ in minimal)
            raise PrecubicalError(f"minimal common cube of {a} and {b} is not unique: {cubes}")
        cube, ca, cb = minimal[0]
        if any(y < x for x, y in zip(ca, cb)):
            raise PrecubicalError(f"kink step {k} is not increasing in {cube!r}")
        segments.append(
            Segment(cube, ((Fraction(k, n), ca), (Fraction(k + 1, n), cb)))
        )
    return PLPath(tuple(segments))
