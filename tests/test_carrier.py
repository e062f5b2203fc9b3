from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precubical import (
    CubeChain,
    CubeSet,
    FacePartition,
    NoCommonCarrierError,
    Point,
    PrecubicalError,
    boundary_cube,
    canonicalize,
    euclidean,
    face,
    full_cube,
    hyperplane_level,
    in_collar,
    in_face_collar,
    in_star,
    is_tame,
    l1_distance_in_cube,
    leq_in_cube,
    q_complex,
    subordinate_to_collar,
    validate,
    z_complex,
)
from precubical.dpath import path
from precubical.carrier import representatives

from helpers import all_carriers_in_face_collar, glued_squares


SQ = full_cube(2)


def test_canonicalize_strips_boundary_coordinates():
    p = canonicalize(SQ, Point("**", (F(0), F(1, 2))))
    assert p == Point("0*", (F(1, 2),))
    q = canonicalize(SQ, Point("**", (F(1, 3), F(2, 3))))
    assert q == Point("**", (F(1, 3), F(2, 3)))
    v = canonicalize(SQ, Point("**", (F(1), F(1))))
    assert v == Point("v11", ())


def test_canonicalize_idempotent():
    rng = random.Random(0)
    for _ in range(50):
        coords = (F(rng.randint(0, 4), 4), F(rng.randint(0, 4), 4))
        p = canonicalize(SQ, Point("**", coords))
        assert canonicalize(SQ, p) == p


def _walk_canonicalize(X, p):
    """Canonicalization by face maps, stripping the lowest 0/1 coordinate first."""
    cube, coords = p.cube, list(p.coords)
    while True:
        for i, x in enumerate(coords):
            if x == 0 or x == 1:
                cube = X.face(cube, i + 1, int(x))
                del coords[i]
                break
        else:
            return Point(cube, tuple(coords))


_CANON_COMPLEXES = {
    "bd4": boundary_cube(4),
    "q3": q_complex(3),
    "z3": z_complex(3),
    "grid222": euclidean([(c, tuple(x + 1 for x in c)) for c in itertools.product(range(2), repeat=3)]),
}


@st.composite
def _points(draw):
    X = _CANON_COMPLEXES[draw(st.sampled_from(sorted(_CANON_COMPLEXES)))]
    cube = draw(st.sampled_from(sorted(X.cubes())))
    coordinate = st.one_of(st.sampled_from([F(0), F(1), F(1, 2)]), st.integers(1, 96).map(lambda k: F(k, 97)))
    coords = draw(st.lists(coordinate, min_size=X.dim(cube), max_size=X.dim(cube)))
    return X, Point(cube, tuple(coords))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_points())
def test_canonicalize_agrees_with_the_face_map_walk(case):
    X, p = case
    q = canonicalize(X, p)
    assert q == _walk_canonicalize(X, p)
    assert canonicalize(X, q) == q


def test_canonicalize_on_self_linked_complex():
    Z = z_complex(2)
    assert canonicalize(Z, Point("c2", (F(0), F(0)))) == Point("c0", ())
    assert canonicalize(Z, Point("c2", (F(1), F(0)))) == Point("c0", ())
    assert canonicalize(Z, Point("c2", (F(0), F(1, 2)))) == Point("c1", (F(1, 2),))


def test_face_by_partition():
    assert face(SQ, "**", FacePartition.of_sets(2, {1}, set(), {2})) == "v01"
    assert face(SQ, "**", FacePartition.identity(2)) == "**"
    B = boundary_cube(3)
    # facet z=0, freeze x at 0: the y-edge at x=0, z=0
    assert face(B, "**0", FacePartition.of_sets(2, {1}, {2}, set())) == "0*0"


def test_face_partition_words():
    fp = FacePartition.from_word("0*1")
    assert fp.at0 == {1} and fp.free == {2} and fp.at1 == {3}
    assert fp.word() == "0*1"
    with pytest.raises(Exception):
        FacePartition(2, frozenset({1}), frozenset({1}), frozenset({2}))


def test_in_collar_half_open_boundary():
    fp = FacePartition.of_sets(2, {1}, set(), {2})
    assert in_collar(SQ, Point("**", (F(1, 4), F(3, 4))), "**", fp)
    # exactly 1/2 is outside the half-open box
    assert not in_collar(SQ, Point("**", (F(1, 2), F(3, 4))), "**", fp)


def test_in_collar_from_both_sides_of_a_shared_edge():
    E = euclidean([((0, 0), (1, 1)), ((1, 0), (2, 1))])
    shared = "1,0|1,1"
    p = Point(shared, (F(1, 3),))
    left = FacePartition.of_sets(2, set(), {2}, {1})
    right = FacePartition.of_sets(2, {1}, {2}, set())
    assert in_collar(E, p, "0,0|1,1", left)
    assert in_collar(E, p, "1,0|2,1", right)
    assert in_face_collar(E, p, shared)


def test_collar_monotone_under_faces():
    # if c is a face of c', the collar of c sits inside the collar of c'
    rng = random.Random(1)
    B = boundary_cube(3)
    for _ in range(200):
        cube = rng.choice(sorted(B.cubes()))
        n = B.dim(cube)
        coords = tuple(F(rng.randint(0, 8), 8) for _ in range(n))
        p = canonicalize(B, Point(cube, coords))
        small = rng.choice(sorted(B.iterated_face_ids(cube)))
        for big in B.carriers_of(small):
            if in_face_collar(B, p, small):
                assert in_face_collar(B, p, big)


def test_only_face_vertices_inside_a_collar():
    # the vertices inside the collar of a face are the face's own vertices
    for d in sorted(SQ.cubes()):
        face_vertices = {f for f in SQ.iterated_face_ids(d) if SQ.dim(f) == 0}
        for v in SQ.vertices():
            assert in_face_collar(SQ, Point(v, ()), d) == (v in face_vertices)


def test_star_membership():
    assert in_star(SQ, Point("**", (F(1, 4), F(1, 4))), "v00")
    # (1/4, 3/4) sits in the quarter-box of the corner (0, 1) and no other
    p = Point("**", (F(1, 4), F(3, 4)))
    assert [v for v in SQ.vertices() if in_star(SQ, p, v)] == ["v01"]
    # a point on a middle hyperplane is in no vertex star at all
    q = Point("**", (F(1, 2), F(3, 4)))
    assert not any(in_star(SQ, q, v) for v in SQ.vertices())
    assert in_star(SQ, Point("v10", ()), "v10")
    with pytest.raises(Exception):
        in_star(SQ, p, "**")


def test_star_in_self_linked_complex():
    Z = z_complex(2)
    # every boundary point of the square collapses near the unique vertex
    assert in_star(Z, Point("c2", (F(1, 4), F(1, 4))), "c0")
    assert in_star(Z, Point("c2", (F(3, 4), F(1, 4))), "c0")
    assert not in_star(Z, Point("c2", (F(1, 2), F(1, 2))), "c0")


_COLLAR_COMPLEXES = {
    "q2": q_complex(2),
    "q3": q_complex(3),
    "q4": q_complex(4),
    "z2": z_complex(2),
    "z3": z_complex(3),
    "glued": glued_squares(),
    "bd3": boundary_cube(3),
    "full3": full_cube(3),
}


@st.composite
def _collar_cases(draw):
    """A complex (a named one or a random euclidean grid) and a point of it, boundary points included."""
    name = draw(st.sampled_from(sorted(_COLLAR_COMPLEXES) + ["grid"]))
    if name == "grid":
        extent = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda e: len(e) < 3 or max(e) < 3))
        X = euclidean([(lo, tuple(x + 1 for x in lo)) for lo in itertools.product(*map(range, extent))])
    else:
        X = _COLLAR_COMPLEXES[name]
    cube = draw(st.sampled_from(sorted(X.cubes())))
    coordinate = st.one_of(
        st.sampled_from([F(0), F(1), F(1, 2), F(1, 4), F(3, 4)]), st.integers(1, 96).map(lambda k: F(k, 97))
    )
    return X, Point(cube, tuple(draw(st.lists(coordinate, min_size=X.dim(cube), max_size=X.dim(cube)))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_collar_cases())
def test_collar_and_star_membership_match_the_all_carriers_reference(case):
    # the library tests a point against the collar boxes of its own cube only
    X, p = case
    for d in sorted(X.cubes()):
        want = all_carriers_in_face_collar(X, p, d)
        assert in_face_collar(X, p, d) == want, d
        if X.dim(d) == 0:
            assert in_star(X, p, d) == want, d


def _random_square(rng: random.Random) -> CubeSet:
    """The cells of ``full_cube(2)`` with every face map drawn at random among the cells one dimension down."""
    base = full_cube(2)
    cubes = {c: base.dim(c) for c in base.cubes()}
    below = {k: sorted(c for c, d in cubes.items() if d == k) for k in (0, 1)}
    faces = {c: {key: rng.choice(below[cubes[c] - 1]) for key in base.face_table(c)} for c in cubes if cubes[c]}
    return CubeSet(cubes, faces)


def test_geometric_predicates_refuse_a_complex_that_fails_validation():
    rng = random.Random(17)
    diagonal = path([("**", [(0, (0, 0)), (1, (1, 1))])])
    inside = Point("**", (F(1, 3), F(1, 4)))
    refused = 0
    for _ in range(100):
        X = _random_square(rng)
        violations = validate(X)
        chain = CubeChain(diagonal.start_point(X).cube, diagonal.end_point(X).cube, ("**",))
        calls = [
            lambda: in_face_collar(X, inside, "**"),
            lambda: in_star(X, inside, chain.source),
            lambda: is_tame(X, diagonal),
            lambda: subordinate_to_collar(X, diagonal, chain),
        ]
        if not violations:
            assert [call() for call in calls] == [True, True, (True, (0, 1)), True]
            continue
        refused += 1
        first = violations[0]
        for call in calls:
            with pytest.raises(PrecubicalError, match="fails validation") as e:
                call()
            assert f"first {first.kind} at {first.cube!r}: {first.detail}" in str(e.value)
    assert refused > 50


def test_generated_complexes_pass_the_locations_check():
    for gen in (full_cube, boundary_cube, q_complex, z_complex):
        for n in range(1, 5):
            X = gen(n)
            assert validate(X) == []
            for c in X.cubes():
                assert c in X.carriers_of(c)
                assert in_face_collar(X, Point(c, (F(1, 3),) * X.dim(c)), c)


def test_l1_distance_and_order():
    C3 = full_cube(3)
    a = Point("**", (F(0), F(0)))
    b = Point("**", (F(1), F(1)))
    assert l1_distance_in_cube(SQ, a, b) == 2
    x = Point("***", (F(1, 3), F(1, 3), F(1, 3)))
    y = Point("***", (F(2, 3), F(2, 3), F(2, 3)))
    assert l1_distance_in_cube(C3, x, y) == 1
    assert l1_distance_in_cube(C3, x, x) == 0
    assert leq_in_cube(C3, x, y) and not leq_in_cube(C3, y, x)


def test_l1_triangle_inequality_and_partial_order():
    rng = random.Random(2)
    pts = [
        canonicalize(SQ, Point("**", (F(rng.randint(0, 6), 6), F(rng.randint(0, 6), 6))))
        for _ in range(12)
    ]
    for a, b, c in itertools.product(pts, repeat=3):
        assert l1_distance_in_cube(SQ, a, c) <= l1_distance_in_cube(SQ, a, b) + l1_distance_in_cube(SQ, b, c)
    for a, b in itertools.product(pts, repeat=2):
        if leq_in_cube(SQ, a, b) and leq_in_cube(SQ, b, a):
            assert a == b


def test_no_common_carrier():
    E = euclidean([((0, 0), (1, 1)), ((1, 0), (2, 1))])
    a = Point("0,0|1,1", (F(1, 4), F(1, 4)))
    b = Point("1,0|2,1", (F(3, 4), F(3, 4)))
    with pytest.raises(NoCommonCarrierError):
        l1_distance_in_cube(E, a, b)


def test_hyperplane_level():
    assert hyperplane_level(SQ, Point("**", (F(1, 2), F(1, 2)))) == 1
    C3 = full_cube(3)
    assert hyperplane_level(C3, Point("***", (F(1, 3), F(1, 3), F(1, 3)))) == 1
    assert hyperplane_level(C3, Point("***", (F(2, 3), F(2, 3), F(2, 3)))) == 2
    assert hyperplane_level(SQ, Point("**", (F(1, 4), F(1, 4)))) is None
    assert hyperplane_level(SQ, Point("v00", ())) == 0


def test_hyperplane_level_on_shared_boundary():
    E = euclidean([((0, 0), (1, 1)), ((1, 0), (2, 1))])
    # interior points of the shared edge are on no integral section of a
    # maximal cell: the local sums are 3/2 (left cell) and 1/2 (right cell)
    assert hyperplane_level(E, Point("1,0|1,1", (F(1, 2),))) is None
    assert hyperplane_level(E, Point("1,0|2,1", (F(1, 4), F(3, 4)))) == 1


def test_representatives_enumerate_the_quotient():
    Z = z_complex(2)
    p = Point("c1", (F(1, 3),))
    reps = representatives(Z, p)
    in_square = sorted(coords for c, coords in reps if c == "c2")
    assert in_square == [
        (F(0), F(1, 3)),
        (F(1, 3), F(0)),
        (F(1, 3), F(1)),
        (F(1), F(1, 3)),
    ]


def test_representatives_of_a_non_canonical_point_are_those_of_its_canonical_form():
    SQ = full_cube(2)
    p = Point("**", (F(0), F(1, 2)))  # on the left edge 0*
    reps = representatives(SQ, p)
    assert sorted(reps) == sorted(representatives(SQ, canonicalize(SQ, p)))
    assert ("0*", (F(1, 2),)) in reps and ("**", (F(0), F(1, 2))) in reps
