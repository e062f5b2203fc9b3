from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precubical import (
    CubeChain,
    FacePartition,
    KinkSequence,
    Point,
    PrecubicalError,
    boundary_cube,
    concatenate,
    euclidean,
    evaluate,
    full_cube,
    is_strict,
    is_tame,
    kinks_to_path,
    l1_length,
    naturalize,
    exponential_flow,
    finest_chain,
    path_to_kinks,
    paths_equal,
    rational_flow,
    reparametrize,
    strictify,
    strictify_homotopy,
    subordinate_to_collar,
    tame,
    tame_cube,
    taming_homotopy,
    z_complex,
)
from precubical.carrier import canonicalize
from precubical.dpath import PLPath, Segment, _samples, _segments_at, _times_between, path
from precubical.taming import middle_crossings

from helpers import euclidean_path, glued_squares, interp

SQ = full_cube(2)
DIAG = path([("**", [(0, (0, 0)), (1, (1, 1))])])


def two_stacked_squares():
    return euclidean([((0, 0), (1, 1)), ((0, 1), (1, 2))])


def test_evaluate_interpolates_and_canonicalizes():
    assert evaluate(SQ, DIAG, F(1, 2)) == Point("**", (F(1, 2), F(1, 2)))
    assert evaluate(SQ, DIAG, 0) == Point("v00", ())
    bent = path([("**", [(0, (0, 0)), (F(1, 2), (F(4, 5), F(1, 10))), (1, (1, 1))])])
    assert evaluate(SQ, bent, F(6, 11)) == Point("**", (F(9, 11), F(2, 11)))
    with pytest.raises(PrecubicalError):
        evaluate(SQ, DIAG, 2)


def test_junction_evaluates_identically_from_both_sides():
    E = two_stacked_squares()
    p = path(
        [
            ("0,0|1,1", [(0, (0, 0)), (F(1, 2), (F(1, 3), 1))]),
            ("0,1|1,2", [(F(1, 2), (F(1, 3), 0)), (1, (1, 1))]),
        ]
    )
    p.validate(E)
    assert evaluate(E, p, F(1, 2)) == Point("0,1|1,1", (F(1, 3),))


def test_segment_coerces_inexact_breakpoints_and_keeps_exact_ones():
    seg = Segment("**", [(0, [0, "1/3"]), ("1/2", (1, F(2, 3))), (True, (1, 1))])
    assert seg.points == ((0, (0, F(1, 3))), (F(1, 2), (1, F(2, 3))), (1, (1, 1)))
    assert all(type(x) is F for t, coords in seg.points for x in (t, *coords))
    assert all(type(bp) is tuple and type(bp[1]) is tuple for bp in seg.points)
    exact = ((F(0), (F(0), F(0))), (F(1), (F(1), F(1))))
    assert Segment("**", exact).points is exact
    with pytest.raises(PrecubicalError, match="strictly increase"):
        Segment("**", [(0, (0, 0)), ("0", (1, 1))])
    with pytest.raises(PrecubicalError, match="strictly increase"):
        Segment("**", ((F(1), (F(0),)), (F(1, 2), (F(1),))))
    with pytest.raises(PrecubicalError, match="coordinate must be a rational number, got 'x'"):
        Segment("**", [(0, ("x",)), (1, (1,))])


@pytest.mark.parametrize(
    "call",
    [
        lambda: evaluate(SQ, DIAG, "x"),
        lambda: evaluate(SQ, DIAG, float("nan")),
        lambda: reparametrize(DIAG, [(0, 0), ("x", 1)]),
        lambda: Segment("**", [("q", (0, 0)), (1, (1, 1))]),
        lambda: Point("**", ("x", 0)),
        lambda: Point("**", ("1/0", 0)),
        lambda: rational_flow("x", 0),
        lambda: tame_cube(SQ, DIAG, FacePartition.identity(2), "x", 1),
        lambda: taming_homotopy(SQ, DIAG, CubeChain("v00", "v11", ("**",)), None),
    ],
    ids=["evaluate", "evaluate-nan", "reparametrize", "segment", "point", "point-zero-denominator",
         "rational-flow", "tame-cube", "taming-homotopy"],
)
def test_non_rational_input_raises_a_library_error_naming_it(call):
    with pytest.raises(PrecubicalError, match=r"must be a rational number, got ('x'|'q'|nan|'1/0'|None)"):
        call()


def test_junction_mismatch_rejected():
    E = two_stacked_squares()
    p = path(
        [
            ("0,0|1,1", [(0, (0, 0)), (F(1, 2), (F(1, 3), 1))]),
            ("0,1|1,2", [(F(1, 2), (F(2, 3), 0)), (1, (1, 1))]),
        ]
    )
    with pytest.raises(PrecubicalError, match="junction 1"):
        p.validate(E)


def test_is_strict():
    assert is_strict(SQ, DIAG)
    paused = path([("**", [(0, (0, 0)), (F(1, 3), (F(1, 2), F(1, 2))), (F(2, 3), (F(1, 2), F(3, 4))), (1, (1, 1))])])
    assert not is_strict(SQ, paused)  # x pauses at an interior value
    pinned = path([("**", [(0, (0, 0)), (F(1, 2), (F(1, 2), 0)), (1, (1, 1))])])
    assert is_strict(SQ, pinned)  # a coordinate may sit at 0 or 1


def test_is_tame_simple_cases():
    ok, witness = is_tame(SQ, DIAG)
    assert ok and witness == (0, 1)
    # mid-edge crossing between two stacked squares is not tame
    E = two_stacked_squares()
    blue = path(
        [
            ("0,0|1,1", [(0, (0, 0)), (F(1, 2), (F(1, 2), 1))]),
            ("0,1|1,2", [(F(1, 2), (F(1, 2), 0)), (1, (1, 1))]),
        ]
    )
    assert not is_tame(E, blue)[0]
    # an interior presentation junction does not spoil tameness when the
    # pieces between vertex visits still fit in single cubes
    magenta = path(
        [
            ("0,0|1,1", [(0, (0, 0)), (F(1, 4), (F(1, 4), F(3, 4))), (F(1, 2), (1, 1))]),
            ("0,1|1,2", [(F(1, 2), (1, 0)), (1, (1, 1))]),
        ]
    )
    assert is_tame(E, magenta)[0]


def test_tame_witness_times_are_vertex_visits():
    E = two_stacked_squares()
    p = path(
        [
            ("0,0|1,1", [(0, (0, 0)), (F(1, 2), (1, 1))]),
            ("0,1|1,2", [(F(1, 2), (1, 0)), (1, (1, 1))]),
        ]
    )
    ok, witness = is_tame(E, p)
    assert ok and witness == (0, F(1, 2), 1)


def test_segment_samples_are_breakpoints_half_crossings_and_midpoints():
    seg = Segment("**", [(0, (0, 0)), (F(1, 2), (F(3, 4), F(1, 4))), (1, (1, 1))])
    kinds = [(kind, t) for kind, t, _ in _samples(seg)]
    assert kinds == [
        ("breakpoint", 0), ("midpoint", F(1, 6)), ("crossing", F(1, 3)), ("midpoint", F(5, 12)),
        ("breakpoint", F(1, 2)), ("midpoint", F(7, 12)), ("crossing", F(2, 3)), ("midpoint", F(5, 6)),
        ("breakpoint", 1),
    ]
    assert all(coords == interp(seg, t) for _, t, coords in _samples(seg))
    assert [t for _, t, _ in _samples(seg, first=False)] == [t for _, t in kinds[1:]]


def test_a_pause_at_a_vertex_is_witnessed_at_both_ends():
    E = two_stacked_squares()
    p = path(
        [
            ("0,0|1,1", [(0, (0, 0)), (F(1, 2), (1, 1))]),
            ("0,1|1,2", [(F(1, 2), (1, 0)), (1, (1, 1))]),
        ]
    )
    paused = reparametrize(p, [(0, 0), (F(1, 3), F(1, 2)), (F(2, 3), F(1, 2)), (1, 1)])
    assert evaluate(E, paused, F(1, 2)) == Point("1,1|1,1", ())
    assert is_tame(E, paused) == (True, (0, F(1, 3), F(2, 3), 1))


def test_is_tame_reads_a_junction_on_the_earlier_segment():
    E = two_stacked_squares()
    # the earlier segment ends at the vertex (1, 1), the later one starts mid-edge
    p = path(
        [
            ("0,0|1,1", [(0, (0, 0)), (F(1, 2), (1, 1))]),
            ("0,1|1,2", [(F(1, 2), (F(1, 3), 0)), (1, (1, 1))]),
        ]
    )
    with pytest.raises(PrecubicalError, match="junction 1"):
        p.validate(E)
    assert evaluate(E, p, F(1, 2)) == Point("1,1|1,1", ())
    assert is_tame(E, p) == (True, (0, F(1, 2), 1))


def test_middle_crossings_of_a_coordinate_held_at_half_are_its_breakpoints():
    # x is held at 1/2 over [1/4, 3/4], where y stays below 1/2
    held = path([("**", [(0, (0, 0)), (F(1, 4), (F(1, 2), F(1, 5))), (F(3, 4), (F(1, 2), F(2, 5))), (1, (1, F(2, 5)))])])
    assert not is_strict(SQ, held)
    assert middle_crossings(SQ, held) == [(F(1, 4), "*0"), (F(3, 4), "*0")]


def test_concatenate_and_constant_tail():
    E = two_stacked_squares()
    p = path([("0,0|1,1", [(0, (0, 0)), (1, (1, 1))])])
    const = path([("0,1|1,1", [(0, (F(1),)), (1, (F(1),))])])
    # constant path at p's endpoint: same trace, longer domain
    q = concatenate(E, p, const)
    assert q.t1 == 2
    assert evaluate(E, q, F(3, 2)) == evaluate(E, p, 1)
    with pytest.raises(PrecubicalError):
        concatenate(E, const, p)


def test_reparametrize_identity_and_pause():
    q = reparametrize(DIAG, [(0, 0), (1, 1)])
    assert paths_equal(SQ, q, DIAG)
    # a plateau in the reparametrization inserts a pause
    r = reparametrize(DIAG, [(0, 0), (F(1, 3), F(1, 2)), (F(2, 3), F(1, 2)), (1, 1)])
    assert evaluate(SQ, r, F(1, 3)) == evaluate(SQ, r, F(2, 3)) == Point("**", (F(1, 2), F(1, 2)))
    assert not is_strict(SQ, r)
    assert l1_length(SQ, r) == l1_length(SQ, DIAG)


def test_reparametrize_across_segments():
    E = two_stacked_squares()
    p = path(
        [
            ("0,0|1,1", [(0, (0, 0)), (F(1, 2), (1, 1))]),
            ("0,1|1,2", [(F(1, 2), (1, 0)), (1, (1, 1))]),
        ]
    )
    r = reparametrize(p, [(0, 0), (F(1, 4), F(1, 2)), (1, 1)])
    assert evaluate(E, r, F(1, 4)) == evaluate(E, p, F(1, 2))
    assert l1_length(E, r) == 3


# -- flows ---------------------------------------------------------------------


def flow_laws_hold(flow, t, x, y, s, exact: bool, tol: float = 0.0):
    one = 1 if exact else 1.0
    zero = 0 if exact else 0.0
    checks = [
        flow(zero, x) == x if exact else abs(flow(zero, x) - x) <= tol,
        flow(t, zero) == zero if exact else abs(flow(t, zero)) <= tol,
        flow(t, one) == one if exact else abs(flow(t, one) - one) <= tol,
    ]
    if x < y:
        checks.append(flow(t, x) < flow(t, y) if exact else flow(t, x) < flow(t, y) + tol)
    if s < t and zero < x < one:
        checks.append(flow(s, x) < flow(t, x) if exact else flow(s, x) < flow(t, x) + tol)
    if zero < x < one:
        v = flow(t, x)
        checks.append(zero < v < one if exact else -tol < v < one + tol)
    return all(checks)


def test_rational_flow_laws_exact():
    rng = random.Random(5)
    assert rational_flow(F(1, 2), F(1, 2)) == F(5, 8)
    for _ in range(500):
        t, s = sorted(F(rng.randint(0, 64), 64) for _ in range(2))
        x, y = sorted(F(rng.randint(0, 64), 64) for _ in range(2))
        assert flow_laws_hold(rational_flow, t, x, y, s, exact=True)


def test_exponential_flow_laws_within_tolerance():
    rng = random.Random(6)
    assert exponential_flow(0.0, 0.37) == 0.37
    x = 0.25
    t = 1.0
    expected = x * math.e / (1 - x + x * math.e)
    assert abs(exponential_flow(t, x) - expected) < 1e-15
    for _ in range(500):
        t, s = sorted(rng.random() for _ in range(2))
        x, y = sorted(rng.random() for _ in range(2))
        assert flow_laws_hold(exponential_flow, t, x, y, s, exact=False, tol=1e-12)


def test_strictify_fixes_pauses_and_preserves_membership():
    p = path(
        [("**", [(0, (0, 0)), (F(1, 4), (F(1, 2), F(1, 4))), (F(1, 2), (F(1, 2), F(1, 4))), (1, (1, 1))])]
    )
    assert not is_strict(SQ, p)
    q = strictify(SQ, p, samples=4)
    assert is_strict(SQ, q)
    assert q.segments[0].cube == "**"
    assert evaluate(SQ, q, 0) == Point("v00", ()) and evaluate(SQ, q, 1) == Point("v11", ())
    # interior points move forward, never backward
    for t in q.breakpoint_times():
        a = evaluate(SQ, p, t)
        b = evaluate(SQ, q, t)
        if a.cube == "**" and b.cube == "**":
            assert all(x <= y for x, y in zip(a.coords, b.coords))


def test_strictify_preserves_tameness():
    E = two_stacked_squares()
    p = path(
        [
            ("0,0|1,1", [(0, (0, 0)), (F(1, 4), (F(1, 2), F(1, 2))), (F(1, 2), (1, 1))]),
            ("0,1|1,2", [(F(1, 2), (1, 0)), (1, (1, 1))]),
        ]
    )
    assert is_tame(E, p)[0]
    q = strictify(E, p, samples=3)
    assert is_strict(E, q) and is_tame(E, q)[0]


def test_strictify_homotopy_endpoints_and_monotonicity():
    p = path(
        [("**", [(0, (0, 0)), (F(1, 4), (F(1, 3), F(1, 4))), (F(1, 2), (F(1, 3), F(1, 2))), (1, (1, 1))])]
    )
    q0 = strictify_homotopy(SQ, p, 0, samples=4)
    assert paths_equal(SQ, q0, p)
    q1 = strictify_homotopy(SQ, p, 1, samples=4)
    assert paths_equal(SQ, q1, strictify(SQ, p, samples=4))
    # interior coordinates are non-decreasing in the stage
    stages = [strictify_homotopy(SQ, p, F(k, 4), samples=4) for k in range(5)]
    for t in stages[0].breakpoint_times():
        values = [evaluate(SQ, st, t) for st in stages]
        for a, b in zip(values, values[1:]):
            if a.cube == b.cube == "**":
                assert all(x <= y for x, y in zip(a.coords, b.coords))


def test_strictify_requires_unit_domain_and_positive_samples():
    with pytest.raises(PrecubicalError):
        strictify(SQ, DIAG, samples=0)
    with pytest.raises(PrecubicalError):
        strictify_homotopy(SQ, DIAG, F(1, 2), samples=0)
    shifted = path([("**", [(0, (0, 0)), (2, (1, 1))])])
    with pytest.raises(PrecubicalError):
        strictify(SQ, shifted)
    # the arguments are checked before the domain, with a library error
    for stage in ("x", float("nan"), float("inf"), None):
        with pytest.raises(PrecubicalError, match="stage"):
            strictify_homotopy(SQ, shifted, stage)
    for samples in (2.5, "4"):
        with pytest.raises(PrecubicalError, match="samples"):
            strictify_homotopy(SQ, shifted, F(1, 2), samples=samples)
    # a path with no coordinates never reaches the flow itself
    with pytest.raises(PrecubicalError, match="flow"):
        strictify_homotopy(SQ, path([("v00", [(0, ()), (2, ())])]), 1, "bogus")


@st.composite
def _strictify_cases(draw):
    """A directed path in the top cell of a 1-, 2- or 3-cube, cut into segments
    at lattice times, with pauses and with breakpoints both on and off each
    segment's sample grid; and a stage, a flow and a sample count."""
    n = draw(st.integers(1, 3))
    samples = draw(st.integers(1, 20))
    ends = [F(0)] + [F(c, 12) for c in sorted(draw(st.sets(st.integers(1, 11), max_size=3)))] + [F(1)]
    fractions = st.fractions(0, 1, max_denominator=97)
    times = []
    for a, b in zip(ends, ends[1:]):
        on_grid = draw(st.sets(st.integers(1, samples), max_size=3))
        off_grid = draw(st.sets(fractions.filter(lambda x: 0 < x < 1), max_size=3))
        inner = {a + F(k, samples) * (b - a) for k in on_grid if k < samples}
        times.append(sorted({a, b} | inner | {a + x * (b - a) for x in off_grid}))
    count = sum(len(ts) - 1 for ts in times) + 1
    axes = [sorted(draw(st.lists(fractions, min_size=count, max_size=count))) for _ in range(n)]
    coords = list(zip(*axes))
    for i, pause in enumerate(draw(st.lists(st.booleans(), min_size=count - 1, max_size=count - 1)), 1):
        if pause:
            coords[i] = coords[i - 1]
    segments, i = [], 0
    for ts in times:
        segments.append(Segment("*" * n, tuple(zip(ts, coords[i : i + len(ts)]))))
        i += len(ts) - 1
    X, p = full_cube(n), PLPath(tuple(segments))
    p.validate(X)
    s = draw(st.one_of(st.sampled_from([F(0), F(1)]), fractions))
    return X, p, s, draw(st.sampled_from(["rational", "paper"])), samples


def paper_flow(t: F, x: F) -> F:
    """The ``paper`` flow as strictify applies it, frozen: the float reference read back as a fraction in [0, 1]."""
    v = F(exponential_flow(float(t), float(x))).limit_denominator(10**15)
    return min(max(v, F(0)), F(1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_strictify_cases())
def test_strictify_homotopy_equals_the_flow_at_every_sample_time(case):
    X, p, s, flow, samples = case
    q = strictify_homotopy(X, p, s, flow, samples)
    assert len(q.segments) == len(p.segments)
    for seg, out in zip(p.segments, q.segments):
        grid = {seg.t0 + F(k, samples) * (seg.t1 - seg.t0) for k in range(samples + 1)}
        times = sorted(grid | {t for t, _ in seg.points})
        move = rational_flow if flow == "rational" else paper_flow
        expected = [(t, tuple(move(s * t, x) for x in interp(seg, t))) for t in times]
        assert out.cube == seg.cube
        assert out.points == tuple(expected)


# -- lengths, naturalization, kinks ---------------------------------------------


def test_l1_length_and_invariance_under_reparametrization():
    E = two_stacked_squares()
    L = path([("0,0|1,1", [(0, (0, 0)), (F(1, 3), (1, 0)), (F(1, 2), (1, 1))]), ("0,1|1,2", [(F(1, 2), (1, 0)), (1, (1, 1))])])
    assert l1_length(E, L) == 3
    r = reparametrize(L, [(0, 0), (F(1, 5), F(2, 3)), (1, 1)])
    assert l1_length(E, r) == 3


def test_naturalize_l_shape():
    L = path([("**", [(0, (0, 0)), (F(1, 3), (1, 0)), (1, (1, 1))])])
    assert l1_length(SQ, L) == 2
    nat = naturalize(SQ, L)
    assert nat.segments[0].points[1][0] == F(1, 2)  # kink re-timed to the middle
    assert paths_equal(SQ, naturalize(SQ, nat), nat)


def test_naturalize_removes_pauses():
    L = path([("**", [(0, (0, 0)), (F(1, 4), (1, 0)), (F(1, 2), (1, 0)), (1, (1, 1))])])
    nat = naturalize(SQ, L)
    times = [t for s in nat.segments for t, _ in s.points]
    assert times == [0, F(1, 2), 1]
    assert l1_length(SQ, nat) == 2


def test_naturalized_paths_have_constant_speed():
    # between any two breakpoints, accumulated length is proportional to time
    L = path([("**", [(0, (0, 0)), (F(1, 5), (F(1, 2), F(1, 10))), (F(2, 5), (F(3, 4), F(1, 10))), (1, (1, 1))])])
    nat = naturalize(SQ, L)
    total = l1_length(SQ, nat)
    acc = F(0)
    prev = nat.segments[0].points[0]
    for t, coords in nat.segments[0].points[1:]:
        acc += sum(y - x for x, y in zip(prev[1], coords))
        assert acc == t * total
        prev = (t, coords)


def test_path_to_kinks_on_cube_diagonal():
    C3 = full_cube(3)
    diag = naturalize(C3, path([("***", [(0, (0, 0, 0)), (1, (1, 1, 1))])]))
    ks = path_to_kinks(C3, diag)
    assert [q.coords for q in ks.points] == [
        (),
        (F(1, 3), F(1, 3), F(1, 3)),
        (F(2, 3), F(2, 3), F(2, 3)),
        (),
    ]
    back = kinks_to_path(C3, ks)
    assert paths_equal(C3, back, diag)
    assert path_to_kinks(C3, back).points == ks.points


def test_kink_sequence_rejects_big_steps():
    C3 = full_cube(3)
    ks = KinkSequence((Point("v000", ()), Point("***", (F(2, 3), F(2, 3), F(2, 3)))))
    with pytest.raises(PrecubicalError):
        ks.validate(C3)


def test_a_constant_path_at_a_vertex_is_a_one_point_kink_sequence():
    ks = KinkSequence((Point("v00", ()),))
    const = kinks_to_path(SQ, ks)
    assert const == path([("v00", [(0, ()), (1, ())])])
    assert path_to_kinks(SQ, const) == ks
    # a constant path off the vertices is not tame, and a lone interior point is no path
    with pytest.raises(PrecubicalError, match="expects a tame path"):
        path_to_kinks(SQ, path([("**", [(0, (F(1, 2), F(1, 2))), (1, (F(1, 2), F(1, 2)))])]))
    with pytest.raises(PrecubicalError, match="single-point kink sequence must be a vertex"):
        kinks_to_path(SQ, KinkSequence((Point("**", (F(1, 2), F(1, 2))),)))


def test_kinks_to_path_refuses_self_linked_and_improper():
    Z = z_complex(2)
    ks = KinkSequence((Point("c0", ()),))
    with pytest.raises(PrecubicalError):
        kinks_to_path(Z, ks)
    with pytest.raises(PrecubicalError):
        kinks_to_path(glued_squares(), KinkSequence((Point("v00", ()),)))


def test_round_trip_on_pl_paths_equals_linearization():
    B = boundary_cube(3)
    # a natural tame path that is not piecewise linear between sections:
    # bends inside the bottom facet at quarter levels
    p = naturalize(
        B,
        path(
            [
                ("**0", [(0, (0, 0)), (F(1, 4), (F(3, 4), F(1, 4))), (F(1, 2), (1, 1))]),
                ("11*", [(F(1, 2), (F(0),)), (1, (F(1),))]),
            ]
        ),
    )
    ks = path_to_kinks(B, p)
    lin = kinks_to_path(B, ks)
    # linearization is idempotent and kink-preserving
    assert path_to_kinks(B, lin).points == ks.points
    assert paths_equal(B, kinks_to_path(B, path_to_kinks(B, lin)), lin)


def test_euclidean_path_helper_round_trip():
    E = euclidean([((i, j), (i + 1, j + 1)) for i in range(2) for j in range(2)])
    p = euclidean_path(E, [(0, 0), (F(3, 2), F(1, 2)), (2, 2)])
    assert is_strict(E, p)
    assert l1_length(E, p) == 4


def test_strictify_preserves_cube_membership():
    # the strictified point lies in every cube containing the original point
    E = two_stacked_squares()
    p = path(
        [
            ("0,0|1,1", [(0, (0, 0)), (F(1, 4), (F(1, 2), F(1, 2))), (F(1, 2), (1, 1))]),
            ("0,1|1,2", [(F(1, 2), (1, 0)), (1, (1, 1))]),
        ]
    )
    q = strictify(E, p, samples=4)
    for t in p.breakpoint_times():
        before = set(E.carriers_of(evaluate(E, p, t).cube))
        after = set(E.carriers_of(evaluate(E, q, t).cube))
        assert before <= after


def test_directed_loops_are_representable():
    # a cube may repeat in a presentation: run twice around the loop edge
    Z = z_complex(2)
    loop = path(
        [
            ("c1", [(0, (F(0),)), (F(1, 2), (F(1),))]),
            ("c1", [(F(1, 2), (F(0),)), (1, (F(1),))]),
        ]
    )
    loop.validate(Z)
    assert is_strict(Z, loop)
    assert l1_length(Z, loop) == 2
    assert evaluate(Z, loop, F(1, 4)) == Point("c1", (F(1, 2),))
    assert evaluate(Z, loop, F(1, 2)) == Point("c0", ())


def test_concatenate_two_square_diagonals():
    # two corner-to-corner squares: the diagonals chain through the shared vertex
    E = euclidean([((0, 0), (1, 1)), ((1, 1), (2, 2))])
    a = path([("0,0|1,1", [(0, (0, 0)), (1, (1, 1))])])
    b = path([("1,1|2,2", [(0, (0, 0)), (1, (1, 1))])])
    joined = concatenate(E, a, b).normalized()
    assert [s.cube for s in joined.segments] == ["0,0|1,1", "1,1|2,2"]
    assert evaluate(E, joined, F(1, 2)) == Point("1,1|1,1", ())
    ok, witness = is_tame(E, joined)
    assert ok and witness == (0, F(1, 2), 1)


def test_paths_equal_distinguishes_different_traces_between_breakpoints():
    Z = z_complex(2)
    through_edge = path([("c1", [(0, (F(0),)), (1, (F(1),))])])
    through_square = path([("c2", [(0, (F(0), F(0))), (1, (F(1), F(1)))])])
    # equal at both breakpoints (the unique vertex), different in between
    assert evaluate(Z, through_edge, 0) == evaluate(Z, through_square, 0)
    assert evaluate(Z, through_edge, 1) == evaluate(Z, through_square, 1)
    assert not paths_equal(Z, through_edge, through_square)
    assert paths_equal(Z, through_edge, through_edge)


# -- the time index -------------------------------------------------------------


def _scan_segments_at(p, t):
    return tuple(s for s in p.segments if s.t0 <= t <= s.t1)


def _scan_point(X, p, t):
    seg = _scan_segments_at(p, t)[0]
    for (ta, xa), (tb, xb) in zip(seg.points, seg.points[1:]):
        if ta <= t <= tb:
            lam = (t - ta) / (tb - ta)
            return canonicalize(X, Point(seg.cube, tuple(a + lam * (b - a) for a, b in zip(xa, xb))))
    raise AssertionError("no piece holds t")


_GRIDS = {extent: euclidean([((i, j), (i + 1, j + 1)) for i in range(extent[0]) for j in range(extent[1])])
          for extent in ((1, 1), (3, 1), (5, 1), (2, 2), (3, 2))}


@st.composite
def _strict_grid_paths(draw):
    """A strict path from corner to corner of a strip or grid, with waypoints on
    a 1/6 lattice so that vertex visits and 1/2-crossings at breakpoints occur."""
    extent = draw(st.sampled_from(sorted(_GRIDS)))
    steps = draw(st.integers(1, 5))
    columns = [
        sorted(draw(st.sets(st.integers(1, 6 * e - 1), min_size=steps, max_size=steps)))
        for e in extent
    ]
    waypoints = [(0, 0)] + [(F(x, 6), F(y, 6)) for x, y in zip(*columns)] + [extent]
    return _GRIDS[extent], euclidean_path(_GRIDS[extent], waypoints)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_strict_grid_paths())
def test_time_index_agrees_with_linear_scan(case):
    X, p = case
    bts = p.breakpoint_times()
    times = sorted(set(bts) | {s.t1 for s in p.segments} | {(a + b) / 2 for a, b in zip(bts, bts[1:])})
    assert times[0] == p.t0 and times[-1] == p.t1
    for t in times:
        assert _segments_at(p, t) == _scan_segments_at(p, t)
        assert evaluate(X, p, t) == _scan_point(X, p, t)
    for a in times[::3]:
        for b in times[::2]:
            assert list(_times_between(p, a, b)) == [t for t in bts if a < t < b]
    for t in (p.t0 - F(1, 7), p.t1 + F(1, 7)):
        assert _segments_at(p, t) == ()
        with pytest.raises(PrecubicalError):
            evaluate(X, p, t)
    chain = finest_chain(X, p)
    assert subordinate_to_collar(X, p, chain)
    q = tame(X, p, chain)
    assert paths_equal(X, tame(X, q, chain), q)


def test_time_index_is_private_to_the_path():
    X = two_stacked_squares()
    p = euclidean_path(X, [(0, 0), (F(1, 3), F(1, 2)), (1, 2)])
    times = p.breakpoint_times()
    before, h = evaluate(X, p, F(1, 2)), hash(p)
    same = euclidean_path(X, [(0, 0), (F(1, 3), F(1, 2)), (1, 2)])
    # the index is built on p only; equality and hash ignore it
    assert p == same and hash(same) == h
    times.append(F(5))
    times[0] = F(-1)
    assert p.breakpoint_times() == same.breakpoint_times() != times
    assert p.breakpoint_times() is not p.breakpoint_times()
    assert evaluate(X, p, F(1, 2)) == before
    assert p == same and hash(p) == h and {p: 1}[same] == 1
