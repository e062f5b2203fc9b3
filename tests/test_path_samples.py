"""The segment sampler against a frozen reference of the per-time scans it replaced.

``is_tame``, ``subordinate_to_collar`` and ``middle_crossings`` walk each
segment's samples, and ``taming._m_root_in_segment`` takes the first
passage of pairwise sums.  The references below are the earlier designs,
kept here as they were: evaluation at merged global sample times,
level events per segment, and a walk back over pairwise switch times.
The sampler itself, which reads each sample as its canonical word and
sides of 1/2 from integer numerators, is checked against the ``Fraction``
sampler it replaced, each of whose samples is canonicalized and read as
signs; ``tame``'s one forward walk against the per-time stage loop in
``helpers``; the collar test on canonical points against the
all-carriers reference in ``helpers``; and the one-walk ``path_to_kinks``
against evaluation at every integral time.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precubical import (
    KinkSequence,
    Point,
    PrecubicalError,
    boundary_cube,
    canonicalize,
    enumerate_chains,
    euclidean,
    finest_chain,
    full_cube,
    in_face_collar,
    in_star,
    is_tame,
    naturalize,
    path_to_kinks,
    q_complex,
    reparametrize,
    subordinate_to_collar,
    tame,
    z_complex,
)
from precubical.carrier import HALF, ONE, ZERO, _in_collar_boxes, _sides
from precubical.dpath import _BREAKPOINT, _CROSSING, _MIDPOINT, PLPath, Segment, _samples, _times_between
from precubical.taming import MSurface, _m_root_in_segment, middle_crossings

from helpers import (
    all_carriers_in_face_collar,
    euclidean_path,
    interp,
    random_strict_tame_path,
    random_two_facet_path,
    reference_tame,
)

# -- the reference ----------------------------------------------------------------


def _with_midpoints(times: Iterable[F]) -> list[F]:
    ts = sorted(set(times))
    out = ts[:1]
    for a, b in zip(ts, ts[1:]):
        out += ((a + b) / 2, b)
    return out


def ref_evaluate(X, p, t):
    """:func:`evaluate` by a scan and :func:`helpers.interp` (a junction read on the earlier segment)."""
    seg = next(seg for seg in p.segments if seg.t0 <= t <= seg.t1)
    return canonicalize(X, Point(seg.cube, interp(seg, t)))


def _piece_events(seg: Segment) -> list[F]:
    out = []
    for (ta, xa), (tb, xb) in zip(seg.points, seg.points[1:]):
        for x, y in zip(xa, xb):
            if y == x:
                continue
            for level in (F(0), HALF, F(1)):
                if x < level < y:
                    out.append(ta + (level - x) / (y - x) * (tb - ta))
    return out


def _least_carriers(X, cubes):
    common = None
    for c in cubes:
        carriers = X._locations_of(c).keys()
        common = carriers if common is None else common & carriers
        if not common:
            return []
    least = min(X.dim(c) for c in common)
    return sorted(c for c in common if X.dim(c) == least)


def _vertex_times(X, p):
    return [t for t in p.breakpoint_times() if ref_evaluate(X, p, t).is_vertex()]


def _piece_carrier(X, p, a, b):
    times = _with_midpoints([a, *_times_between(p, a, b), b])
    least = _least_carriers(X, (ref_evaluate(X, p, t).cube for t in times))
    return least[0] if least else None


def ref_is_tame(X, p):
    if not p.start_point(X).is_vertex() or not p.end_point(X).is_vertex():
        return False, None
    hits = _vertex_times(X, p)
    if not hits or hits[0] != p.t0 or hits[-1] != p.t1:
        return False, None
    for a, b in zip(hits, hits[1:]):
        if _piece_carrier(X, p, a, b) is None:
            return False, None
    return True, tuple(hits)


def ref_middle_crossings(X, p):
    out = []
    for seg in p.segments:
        faces = X.iterated_faces(seg.cube)
        times = set(_piece_events(seg))
        times.update(t for t, coords in seg.points if HALF in coords)
        for t in sorted(times):
            word = "".join("*" if x == HALF else "0" if x < HALF else "1" for x in interp(seg, t))
            if "*" in word:
                out.append((t, faces[word]))
    return out


def ref_subordinate_to_collar(X, p, chain):
    if p.start_point(X) != Point(chain.source, ()):
        raise PrecubicalError("path and chain sources differ")
    if p.end_point(X) != Point(chain.target, ()):
        raise PrecubicalError("path and chain targets differ")
    samples = _with_midpoints(itertools.chain(p.breakpoint_times(), *map(_piece_events, p.segments)))
    pts = {t: ref_evaluate(X, p, t) for t in samples}
    n = len(chain.cubes)
    if n == 0:
        origin = pts[samples[0]]
        return all(pt == origin for pt in pts.values())
    vertices = chain.vertex_sequence(X)
    lo = 0
    for i, cube in enumerate(chain.cubes):
        in_collar_upto = lo - 1
        for k in range(lo, len(samples)):
            if in_face_collar(X, pts[samples[k]], cube):
                in_collar_upto = k
            else:
                break
        if in_collar_upto < lo:
            return False
        if i == n - 1:
            return in_collar_upto == len(samples) - 1
        cut = None
        for k in range(in_collar_upto, lo - 1, -1):
            if in_star(X, pts[samples[k]], vertices[i + 1]):
                cut = k
                break
        if cut is None:
            return False
        lo = cut
    return True


def _linear_events(seg, axes, lo, hi):
    out = set()
    for i, j in itertools.combinations(axes, 2):
        for (ta, xa), (tb, xb) in zip(seg.points, seg.points[1:]):
            a, b = max(ta, lo), min(tb, hi)
            if a > b:
                continue
            fa, fb = xa[i - 1] - xa[j - 1], xb[i - 1] - xb[j - 1]
            if fa == fb:
                continue
            t = ta - fa / (fb - fa) * (tb - ta)
            if a <= t <= b:
                out.add(t)
    return out


def ref_m_root_in_segment(seg, surface, lo):
    tb, vb = seg.t1, surface.value(seg.points[-1][1])
    if vb < ONE:
        return None
    times = {lo}
    times.update(t for t, _ in seg.points if lo < t < tb)
    times.update(_linear_events(seg, surface.min_axes + surface.max_axes, lo, tb))
    times.discard(tb)
    for ta in sorted(times, reverse=True):
        va = surface.value(interp(seg, ta))
        if va < ONE:
            return tb if vb == ONE else ta + (ONE - va) / (vb - va) * (tb - ta)
        tb, vb = ta, va
    return tb if vb == ONE else None


# -- inputs ---------------------------------------------------------------------------


def _grid(extent):
    X = euclidean([(lo, tuple(x + 1 for x in lo)) for lo in itertools.product(*map(range, extent))])
    corner = lambda e: "|".join([",".join(map(str, e))] * 2)
    return X, extent, enumerate_chains(X, corner([0] * len(extent)), corner(extent), sum(extent)).objects


GRIDS = [_grid(e) for e in [(2, 2), (3, 2), (2, 1, 1), (2, 2, 1)]]
B3 = boundary_cube(3)
B3_CHAINS = enumerate_chains(B3, "v000", "v111", 3).objects
TAME_SPACES = [
    (X, enumerate_chains(X, s, t, 4).objects)
    for X, s, t in [(full_cube(3), "v000", "v111"), (q_complex(2), "q0_0", "q0_2"), (q_complex(3), "q0_0", "q0_3")]
]


@st.composite
def _lattice_grid_paths(draw):
    """A directed path across a grid with waypoints on a 1/6 lattice, so that
    vertex visits, 1/2-crossings at breakpoints and pieces along faces occur."""
    X, extent, chains = draw(st.sampled_from(GRIDS))
    steps = draw(st.integers(1, 4))
    columns = [sorted(draw(st.lists(st.integers(0, 6 * e), min_size=steps, max_size=steps))) for e in extent]
    waypoints = [(0,) * len(extent), *zip(*[[F(x, 6) for x in col] for col in columns]), extent]
    return X, euclidean_path(X, waypoints), chains


# z2 (self-linked, not proper) with its loops of at most four steps
Z2 = (z_complex(2), [chain for chain in enumerate_chains(z_complex(2), "c0", "c0", 4).objects if chain.cubes])
FULL_CUBES = {n: full_cube(n) for n in range(1, 5)}
FULL_CHAINS = {n: enumerate_chains(FULL_CUBES[n], "v" + "0" * n, "v" + "1" * n, n).objects for n in (2, 3, 4)}


@st.composite
def _full_cube_paths(draw):
    """A path from corner to corner of the top cell of full2, full3 or full4 on
    a 1/6 lattice: coordinates pinned at 0 or at 1 over whole pieces, axes
    copied from others so that crossings coincide, and, in some of them, one
    axis that falls over a piece.  A few chains between its ends come with it."""
    n = draw(st.integers(2, 4))
    count = draw(st.integers(1, 4))
    columns = []
    for _ in range(n):
        if columns and draw(st.booleans()):
            columns.append(list(columns[draw(st.integers(0, len(columns) - 1))]))
        else:
            # 0 and 6 repeat, so an axis often stays at 0 or at 1 over a piece
            columns.append([0, *sorted(draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 4, 5, 6, 6]), min_size=count, max_size=count))), 6])
    if draw(st.booleans()):
        axis = draw(st.integers(0, n - 1))
        columns[axis][1:-1] = columns[axis][-2:0:-1]  # the inner values reversed: a falling piece
    times = [F(k, count + 1) for k in range(count + 2)]
    p = PLPath((Segment("*" * n, tuple(zip(times, zip(*[[F(x, 6) for x in col] for col in columns])))),))
    chains = draw(st.lists(st.sampled_from(FULL_CHAINS[n]), min_size=1, max_size=6, unique=True))
    return FULL_CUBES[n], p, chains


@st.composite
def _paths(draw):
    """A lattice grid path, a two-facet path on B3, a strict tame path on
    full3, q2, q3 or z2, or a path across the top cell of full2 to full4,
    with chains between its ends; half of them paused."""
    kind = draw(st.sampled_from(["grid", "two-facet", "strict-tame", "full-cube"]))
    if kind == "grid":
        X, p, chains = draw(_lattice_grid_paths())
    elif kind == "full-cube":
        X, p, chains = draw(_full_cube_paths())
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        if kind == "two-facet":
            X, p, chains = B3, random_two_facet_path(B3, rng), B3_CHAINS
        else:
            X, chains = draw(st.sampled_from(TAME_SPACES + [Z2]))
            p = random_strict_tame_path(X, rng.choice(chains), rng)
    if draw(st.booleans()):
        # pause at a breakpoint or inside a piece, by a constant stretch of phi
        times = p.breakpoint_times()
        k = draw(st.integers(0, len(times) - 2))
        t = draw(st.sampled_from([times[k], (times[k] + times[k + 1]) / 2, times[k + 1]]))
        p = reparametrize(p, [(0, p.t0), (F(1, 3), t), (F(2, 3), t), (1, p.t1)])
    return X, p, chains


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # the exception itself is part of the answer
        return type(e), str(e)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_paths())
def test_path_scans_match_the_reference(case):
    X, p, chains = case
    assert _outcome(is_tame, X, p) == _outcome(ref_is_tame, X, p)
    assert _outcome(middle_crossings, X, p) == _outcome(ref_middle_crossings, X, p)
    for chain in chains:
        assert _outcome(subordinate_to_collar, X, p, chain) == _outcome(ref_subordinate_to_collar, X, p, chain)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_paths())
def test_tame_matches_the_stage_loop_reference(case):
    # refusals included: the error type and text are part of the answer
    X, p, chains = case
    for chain in chains:
        assert _outcome(tame, X, p, chain) == _outcome(reference_tame, X, p, chain)


@st.composite
def _segments_and_surfaces(draw):
    """A directed segment of a full cube, with pauses, and a surface on subsets
    of its axes (either side may be empty) and a start time on a breakpoint or
    inside a piece."""
    n = draw(st.integers(1, 4))
    count = draw(st.integers(2, 5))
    times = [F(k, 24) for k in sorted(draw(st.sets(st.integers(0, 24), min_size=count, max_size=count)))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    axes = [[F(k, 12) for k in sorted(rng.choices(range(13), k=count))] for _ in range(n)]
    seg = Segment("*" * n, tuple(zip(times, zip(*axes))))
    surface = MSurface("*" * n, *(tuple(rng.sample(range(1, n + 1), rng.randint(0, n))) for _ in range(2)))
    k = draw(st.integers(0, count - 2))
    lam = draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(5, 7)]))
    return seg, surface, times[k] + lam * (times[k + 1] - times[k])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_segments_and_surfaces())
def test_first_passage_root_matches_the_reference(case):
    seg, surface, lo = case
    assert _m_root_in_segment(seg, surface, lo) == ref_m_root_in_segment(seg, surface, lo)


# -- the integer sampler ------------------------------------------------------------


def ref_samples(seg, first=True):
    """The sampler as it was built on ``Fraction`` arithmetic."""
    pts = seg.points
    if first:
        t, x = pts[0]
        yield _BREAKPOINT, t, x
    for (ta, xa), (tb, xb) in zip(pts, pts[1:]):
        dt, rises = tb - ta, [b - a for a, b in zip(xa, xb)]
        crossings = sorted({(HALF - a) / (b - a) for a, b in zip(xa, xb) if a < HALF < b})
        last = ZERO
        for lam in (*crossings, ONE):
            mid = (last + lam) / 2
            yield _MIDPOINT, ta + mid * dt, tuple([a + mid * r for a, r in zip(xa, rises)])
            if lam < ONE:
                yield _CROSSING, ta + lam * dt, tuple([a + lam * r for a, r in zip(xa, rises)])
            last = lam
        yield _BREAKPOINT, tb, xb


_LEVELS = st.sampled_from([F(0), HALF, F(1)])


@st.composite
def _directed_segments(draw):
    """A directed segment of a full cube whose coordinates often sit at 0, 1/2
    or 1, with pauses (a breakpoint repeated at a later time) and axes copied
    from others, so that crossings coincide."""
    n = draw(st.integers(1, 4))
    count = draw(st.integers(2, 6))
    times = sorted(draw(st.sets(st.fractions(-2, 3, max_denominator=30), min_size=count, max_size=count)))
    coordinate = st.one_of(_LEVELS, st.fractions(0, 1, max_denominator=36))
    columns = []
    for _ in range(n):
        if columns and draw(st.booleans()):
            columns.append(list(columns[draw(st.integers(0, len(columns) - 1))]))
        else:
            columns.append(sorted(draw(st.lists(coordinate, min_size=count, max_size=count))))
    points = list(zip(*columns))
    for k in draw(st.lists(st.integers(1, count - 1), max_size=2)):
        points[k] = points[k - 1]  # a pause: the point holds while time runs on
    return Segment("*" * n, tuple(zip(times, points)))


def ref_sign_samples(X, seg, first=True, midpoints=True):
    """The samples of :func:`ref_samples`, each canonicalized and read as signs: its
    canonical word in the segment cube and the sides of 1/2 of its interior coordinates."""
    for kind, t, coords in ref_samples(seg, first):
        if kind is _MIDPOINT and not midpoints:
            continue
        pt = canonicalize(X, Point(seg.cube, coords))
        word = "".join("0" if x == ZERO else "1" if x == ONE else "*" for x in coords)
        assert X.iterated_faces(seg.cube)[word] == pt.cube
        yield kind, t, word, "".join("0" if x < HALF else "1" if x > HALF else "*" for x in pt.coords)


def _exact(samples):
    """The sampler's samples with each time as a ``Fraction`` (its pair's denominator checked positive)."""
    out = []
    for kind, (n, d), word, sides in samples:
        assert type(n) is int and type(d) is int and d > 0
        out.append((kind, F(n, d), word, sides))
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_directed_segments(), st.booleans())
def test_integer_sampler_matches_the_fraction_sampler(seg, first):
    X = FULL_CUBES[len(seg.cube)]
    want = list(ref_sign_samples(X, seg, first))
    assert _exact(_samples(X, seg, first)) == want
    assert _exact(_samples(X, seg, first, midpoints=False)) == list(ref_sign_samples(X, seg, first, midpoints=False))


def test_integer_sampler_on_a_simultaneous_crossing_and_a_pause():
    seg = Segment("**", ((F(0), (F(0), F(1, 4))), (F(1), (F(1), F(3, 4))), (F(2), (F(1), F(3, 4)))))
    X = FULL_CUBES[2]
    assert _exact(_samples(X, seg)) == list(ref_sign_samples(X, seg)) == [
        (_BREAKPOINT, F(0), "0*", "0"),
        (_MIDPOINT, F(1, 4), "**", "00"),
        (_CROSSING, F(1, 2), "**", "**"),
        (_MIDPOINT, F(3, 4), "**", "11"),
        (_BREAKPOINT, F(1), "1*", "1"),
        (_MIDPOINT, F(3, 2), "1*", "1"),
        (_BREAKPOINT, F(2), "1*", "1"),
    ]


def test_sampler_refuses_a_breakpoint_as_canonicalize_does():
    X = FULL_CUBES[2]
    for x in ((F(1, 2), F(6, 5)), (F(1, 2),)):
        bad = Segment("**", ((F(0), (F(0), F(0))), (F(1), x)))
        with pytest.raises(PrecubicalError) as want:
            canonicalize(X, Point("**", x))
        with pytest.raises(PrecubicalError) as got:
            list(_samples(X, bad))
        assert str(got.value) == str(want.value)


# -- collar membership on canonical points ------------------------------------------


COLLAR_SPACES = [full_cube(3), boundary_cube(3), q_complex(2), q_complex(3), z_complex(2), GRIDS[3][0]]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(COLLAR_SPACES), st.data())
def test_collar_helper_matches_in_face_collar_on_canonical_points(X, data):
    cube = data.draw(st.sampled_from(sorted(X.cubes())))
    levels = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(1, 3), F(2, 3)]
    p = canonicalize(X, Point(cube, tuple(data.draw(st.sampled_from(levels)) for _ in range(X.dim(cube)))))
    for d in sorted(X.cubes()):
        want = all_carriers_in_face_collar(X, p, d)
        sides = "".join("0" if x < HALF else "1" if x > HALF else "*" for x in p.coords)
        assert _sides(p.coords) == sides
        assert _in_collar_boxes(p.cube, sides, X._collar(d)) == in_face_collar(X, p, d) == want
        if X.dim(d) == 0:
            assert in_star(X, p, d) == want


# -- kinks in one walk --------------------------------------------------------------


def ref_path_to_kinks(X, p):
    total = int(sum(sum(b - a for a, b in zip(xa, xb)) for seg in p.segments for (_, xa), (_, xb) in zip(seg.points, seg.points[1:])))
    span = p.t1 - p.t0
    ks = KinkSequence(tuple(ref_evaluate(X, p, p.t0 + F(k, total) * span) for k in range(total + 1)))
    ks.validate(X)
    return ks


def _split(p: PLPath, rng: random.Random) -> PLPath:
    """``p`` with each segment cut at a random one of its inner breakpoints, if it has one."""
    segments = []
    for seg in p.segments:
        if len(seg.points) > 2 and rng.random() < 0.5:
            k = rng.randint(1, len(seg.points) - 2)
            segments += [Segment(seg.cube, seg.points[: k + 1]), Segment(seg.cube, seg.points[k:])]
        else:
            segments.append(seg)
    return PLPath(tuple(segments))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(TAME_SPACES + [(X, chains) for X, _, chains in GRIDS] + [(B3, B3_CHAINS)]), st.integers(0, 2**32 - 1))
def test_one_walk_kinks_match_evaluation_at_integral_times(space, seed):
    X, chains = space
    rng = random.Random(seed)
    chain = rng.choice(chains)
    q = random_strict_tame_path(X, chain, rng, inner=3)
    # taming is defined on proper non-self-linked complexes
    for p in (q, tame(X, q, finest_chain(X, q))) if X.proper_non_self_linked() else (q,):
        natural = _split(naturalize(X, p), rng)
        assert path_to_kinks(X, natural) == ref_path_to_kinks(X, natural)


def test_kinks_at_a_junction_on_an_integral_length_off_the_vertices():
    # two segments of one square meeting at (1/2, 1/2), at length 1, and
    # the second presented on the edge x = 1 from length 3/2 on
    C2 = full_cube(2)
    p = PLPath(
        (
            Segment("**", ((F(0), (F(0), F(0))), (F(1, 2), (F(1, 2), F(1, 2))))),
            Segment("**", ((F(1, 2), (F(1, 2), F(1, 2))), (F(3, 4), (F(1), F(1, 2))))),
            Segment("1*", ((F(3, 4), (F(1, 2),)), (F(1), (F(1),)))),
        )
    )
    p.validate(C2)
    ks = path_to_kinks(C2, p)
    assert ks == ref_path_to_kinks(C2, p)
    assert ks.points == (Point("v00", ()), Point("**", (HALF, HALF)), Point("v11", ()))
