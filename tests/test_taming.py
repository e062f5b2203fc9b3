from __future__ import annotations

import hashlib
import random
from fractions import Fraction as F

import pytest

from precubical import (
    CubeChain,
    FacePartition,
    Point,
    PrecubicalError,
    SubordinationError,
    boundary_cube,
    crossing_times,
    euclidean,
    evaluate,
    full_cube,
    finest_chain,
    is_strict,
    is_tame,
    naturalize,
    path_to_kinks,
    paths_equal,
    subordinate_to_collar,
    tame,
    tame_cube,
    taming_homotopy,
)
from precubical.dpath import path
from precubical.toolkit import write_chain, write_kinks, write_path

from helpers import euclidean_path, increasing_values, random_strict_tame_path, random_two_facet_path

SQ = full_cube(2)
B3 = boundary_cube(3)
BENT = path([("**", [(0, (0, 0)), (F(1, 2), (F(4, 5), F(1, 10))), (1, (1, 1))])])
BR = CubeChain("v00", "v11", ("*0", "1*"))


def test_crossing_profile_worked_example():
    prof = crossing_times(SQ, BENT, BR)
    assert prof.cuts == (F(6, 11),)
    surf = prof.surfaces[0]
    assert surf.cube == "**" and surf.min_axes == (1,) and surf.max_axes == (2,)
    # the crossing point solves min + max = 1 exactly
    pt = evaluate(SQ, BENT, F(6, 11))
    assert pt == Point("**", (F(9, 11), F(2, 11)))
    assert surf.value(pt.coords) == 1


def test_crossing_profile_through_a_vertex():
    corner = path([("**", [(0, (0, 0)), (F(1, 3), (1, 0)), (1, (1, 1))])])
    prof = crossing_times(SQ, corner, BR)
    assert prof.cuts == (F(1, 3),)
    assert evaluate(SQ, corner, F(1, 3)) == Point("v10", ())


def test_crossing_profile_single_cube_chain_is_empty():
    prof = crossing_times(SQ, BENT, CubeChain("v00", "v11", ("**",)))
    assert prof.cuts == () and prof.surfaces == ()
    assert prof.windows == ((F(0), F(1)),)


def test_crossing_times_ascend_and_solve_exactly():
    rng = random.Random(17)
    for _ in range(20):
        p = random_two_facet_path(B3, rng)
        fc = finest_chain(B3, p)
        prof = crossing_times(B3, p, fc)
        assert list(prof.cuts) == sorted(set(prof.cuts))
        for t, surf in zip(prof.cuts, prof.surfaces):
            if surf is not None:
                seg = [s for s in p.segments if s.t0 <= t <= s.t1 and s.cube == surf.cube]
                assert seg, "surface cube must carry the crossing"
                from precubical.dpath import _interp

                assert surf.value(_interp(seg[0], t)) == 1


def test_tame_cube_worked_piece():
    fp = FacePartition.of_sets(2, {2}, {1}, set())
    piece = tame_cube(SQ, BENT, fp, 0, F(6, 11))
    assert piece.cube == "**"
    # q = (x(t) * 11/9, 0): at the inner breakpoint x = 4/5 -> 44/45
    assert piece.points[0] == (F(0), (F(0), F(0)))
    assert piece.points[1] == (F(1, 2), (F(44, 45), F(0)))
    assert piece.points[2] == (F(6, 11), (F(1), F(0)))


def test_tame_cube_identity_when_already_full_range():
    fp = FacePartition.identity(2)
    diag = path([("**", [(0, (0, 0)), (1, (1, 1))])])
    piece = tame_cube(SQ, diag, fp, 0, 1)
    assert piece.points == ((F(0), (F(0), F(0))), (F(1), (F(1), F(1))))


def test_tame_cube_zero_denominator_is_degenerate():
    flat = path([("**", [(0, (0, 0)), (1, (1, 0))])])
    with pytest.raises(SubordinationError):
        tame_cube(SQ, flat, FacePartition.identity(2), 0, 1)


def test_tame_worked_example():
    q = tame(SQ, BENT, BR)
    assert [s.cube for s in q.segments] == ["*0", "1*"]
    assert evaluate(SQ, q, F(6, 11)) == Point("v10", ())
    assert is_strict(SQ, q) and is_tame(SQ, q)[0]
    assert subordinate_to_collar(SQ, q, BR)
    # endpoints preserved
    assert evaluate(SQ, q, 0) == Point("v00", ()) and evaluate(SQ, q, 1) == Point("v11", ())


def test_tame_fixes_paths_already_through_chain_vertices():
    corner = path([("*0", [(0, (F(0),)), (F(1, 3), (F(1),))]), ("1*", [(F(1, 3), (F(0),)), (1, (F(1),))])])
    corner.validate(SQ)
    q = tame(SQ, corner, BR)
    assert paths_equal(SQ, q, corner)
    h = taming_homotopy(SQ, corner, BR, F(1, 2))
    assert paths_equal(SQ, h, corner)


def test_tame_diagonal_with_square_chain_is_identity():
    diag = path([("**", [(0, (0, 0)), (1, (1, 1))])])
    q = tame(SQ, diag, CubeChain("v00", "v11", ("**",)))
    assert paths_equal(SQ, q, diag)


def test_tame_idempotent():
    q = tame(SQ, BENT, BR)
    assert paths_equal(SQ, tame(SQ, q, BR), q)


def test_tame_requires_subordination():
    with pytest.raises(SubordinationError):
        tame(SQ, BENT, CubeChain("v00", "v11", ("0*", "*1")))


def test_tame_rejects_unsubordinated_half_height_path():
    from precubical import euclidean

    E = euclidean([((0, 0), (1, 1)), ((1, 0), (2, 1))])
    p = path(
        [
            ("0,0|1,1", [(0, (0, 0)), (F(1, 4), (0, F(1, 2))), (F(1, 2), (1, F(1, 2)))]),
            ("1,0|2,1", [(F(1, 2), (0, F(1, 2))), (F(3, 4), (1, F(1, 2))), (1, (1, 1))]),
        ]
    )
    two_squares = CubeChain("0,0|0,0", "2,1|2,1", ("0,0|1,1", "1,0|2,1"))
    with pytest.raises(PrecubicalError):
        tame(E, p, two_squares)


def test_tame_keeps_boundary_hugging_paths_via_collar_coordinates():
    # a path presented through the edges of the chain cube still tames,
    # the collar retraction supplying pinned 0/1 coordinates
    corner = path([("*0", [(0, (F(0),)), (F(1, 2), (F(1),))]), ("1*", [(F(1, 2), (F(0),)), (1, (F(1),))])])
    q = tame(SQ, corner, CubeChain("v00", "v11", ("**",)))
    assert paths_equal(SQ, q, corner)


def test_taming_homotopy_midpoint_and_endpoints():
    h = taming_homotopy(SQ, BENT, BR, F(1, 2))
    assert evaluate(SQ, h, F(6, 11)) == Point("**", (F(10, 11), F(1, 11)))
    assert paths_equal(SQ, taming_homotopy(SQ, BENT, BR, 0), BENT)
    assert paths_equal(SQ, taming_homotopy(SQ, BENT, BR, 1), tame(SQ, BENT, BR))
    for s in (F(1, 4), F(1, 2), F(3, 4)):
        hs = taming_homotopy(SQ, BENT, BR, s)
        assert is_strict(SQ, hs)
        assert subordinate_to_collar(SQ, hs, BR)
    with pytest.raises(PrecubicalError):
        taming_homotopy(SQ, BENT, BR, 2)


def test_tame_across_presentation_cubes():
    p = path(
        [
            ("**0", [(0, (0, 0)), (F(1, 2), (1, F(3, 4)))]),
            ("1**", [(F(1, 2), (F(3, 4), 0)), (1, (1, 1))]),
        ]
    )
    fc = finest_chain(B3, p)
    assert fc.cubes == ("*00", "1*0", "11*")
    prof = crossing_times(B3, p, fc)
    assert prof.cuts == (F(2, 7), F(3, 5))
    q = tame(B3, p, fc)
    assert is_strict(B3, q) and is_tame(B3, q)[0]
    assert evaluate(B3, q, F(2, 7)) == Point("v100", ())
    assert evaluate(B3, q, F(3, 5)) == Point("v110", ())
    assert paths_equal(B3, tame(B3, q, fc), q)


def test_tame_randomized_full_suite():
    rng = random.Random(101)
    from precubical import enumerate_chains

    B3_POSET = enumerate_chains(B3, "v000", "v111", 3)
    for trial in range(25):
        if trial % 2 == 0:
            p = random_strict_tame_path(B3, rng.choice(B3_POSET.objects), rng)
        else:
            p = random_two_facet_path(B3, rng)
        fc = finest_chain(B3, p)
        q = tame(B3, p, fc)
        assert is_strict(B3, q) and is_tame(B3, q)[0]
        assert subordinate_to_collar(B3, q, fc)
        assert paths_equal(B3, tame(B3, q, fc), q)
        vs = fc.vertex_sequence(B3)
        for j, t in enumerate(crossing_times(B3, p, fc).cuts):
            assert evaluate(B3, q, t) == Point(vs[j + 1], ())


def ordered_diagonal_path(rng: random.Random, m: int = 2):
    """A strict path in the full 3-cube whose coordinates stay ordered
    x >= y >= z at every breakpoint."""
    windows = [increasing_values(rng, 3, den=199) for _ in range(m)]
    times = [F(0)] + increasing_values(rng, m) + [F(1)]
    pts = [(times[0], (F(0), F(0), F(0)))]
    for k, w in enumerate(windows):
        lo = F(k, m)
        hi = F(k + 1, m)
        vals = sorted((lo + v * (hi - lo) for v in w), reverse=True)
        pts.append((times[k + 1], tuple(vals)))
    pts.append((times[-1], (F(1), F(1), F(1))))
    return path([("***", pts)])


def test_refinement_compatibility_of_crossing_times_on_ordered_paths():
    # for coordinate-ordered paths the crossing time of the coarse chain
    # (bottom facet, top edge) agrees with one of the finer chain's cuts
    rng = random.Random(55)
    C3 = full_cube(3)
    coarse = CubeChain("v000", "v111", ("**0", "11*"))
    fine = CubeChain("v000", "v111", ("*00", "1*0", "11*"))
    for _ in range(10):
        p = ordered_diagonal_path(rng)
        if not (subordinate_to_collar(C3, p, coarse) and subordinate_to_collar(C3, p, fine)):
            continue
        cuts_c = set(crossing_times(C3, p, coarse).cuts)
        cuts_f = set(crossing_times(C3, p, fine).cuts)
        assert cuts_c <= cuts_f


def test_crossing_time_continuity_under_perturbation():
    # shrinking perturbations of the worked example move the cut less
    base = F(6, 11)
    deviations = []
    for eps in (F(1, 10), F(1, 100), F(1, 1000)):
        p = path([("**", [(0, (0, 0)), (F(1, 2), (F(4, 5) - eps, F(1, 10))), (1, (1, 1))])])
        cut = crossing_times(SQ, p, BR).cuts[0]
        deviations.append(abs(cut - base))
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[2] < F(1, 1000)


def test_tame_boundary_hugging_with_interior_breakpoints():
    # interior breakpoints on the chain cube's own boundary must keep their
    # actual coordinates (no collar squashing, no ambiguity)
    corner = path(
        [
            ("*0", [(0, (F(0),)), (F(1, 4), (F(2, 5),)), (F(1, 2), (F(1),))]),
            ("1*", [(F(1, 2), (F(0),)), (F(3, 4), (F(3, 5),)), (1, (F(1),))]),
        ]
    )
    corner.validate(SQ)
    q = tame(SQ, corner, CubeChain("v00", "v11", ("**",)))
    assert paths_equal(SQ, q, corner)


@pytest.mark.parametrize(
    "n, seed, digest",
    [
        (25, 25, "86fd7df780207cee6daf2fa96d180455dcf25c908823eba8c5ffe884ac82012b"),
        (50, 50, "065d5a2a933827003d50aee11839e4ebdf1dcd2f9f8263befc3973753eb99bf9"),
    ],
    ids=["band25", "band50"],
)
def test_path_stack_documents_are_pinned(n, seed, digest):
    # a seeded strict, non-tame path across the diagonal band of n squares,
    # with one waypoint inside each diagonal square
    X = euclidean([((i, j), (i + 1, j + 1)) for i in range(n) for j in range(n) if abs(i - j) <= 1])
    rng = random.Random(seed)
    waypoints = [(0, 0)] + [tuple(k + F(rng.randint(1, 96), 97) for _ in range(2)) for k in range(n)] + [(n, n)]
    p = euclidean_path(X, waypoints)
    chain = finest_chain(X, p)
    tamed = tame(X, p, chain)
    text = "".join([
        write_chain(chain),
        "".join(f"{t}\n" for t in crossing_times(X, p, chain).cuts),
        write_path(tamed, X),
        write_kinks(path_to_kinks(X, naturalize(X, tamed))),
    ])
    assert hashlib.sha256(text.encode()).hexdigest() == digest
