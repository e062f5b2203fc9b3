from __future__ import annotations

import itertools

import pytest

from precubical import (
    BoxSpec,
    CubeSet,
    PrecubicalError,
    boundary_cube,
    euclidean,
    full_cube,
    is_non_self_linked,
    is_proper,
    q_complex,
    source_vertex,
    target_vertex,
    validate,
    z_complex,
)

from precubical.cubeset import MAX_FACE_ENTRIES
from precubical.toolkit import parse_pv, pv_to_euclidean

from helpers import glued_squares, walk_iterated_face


def counts(X, up_to):
    return [len(X.cubes_of_dim(k)) for k in range(up_to + 1)]


def test_full_cube_counts_and_validity():
    for n in range(4):
        X = full_cube(n)
        assert validate(X) == []
        # C(n,k) * 2^(n-k) cells per dimension
        from math import comb

        assert counts(X, n) == [comb(n, k) * 2 ** (n - k) for k in range(n + 1)]


def test_boundary_cube_counts():
    B = boundary_cube(3)
    assert counts(B, 3) == [8, 12, 6, 0]
    assert validate(B) == []


def test_empty_cubeset_is_valid():
    assert validate(CubeSet({}, {})) == []


def test_source_and_target_vertices():
    X = full_cube(2)
    assert source_vertex(X, "**") == "v00"
    assert target_vertex(X, "**") == "v11"
    assert source_vertex(X, "v01") == "v01"
    assert target_vertex(X, "v01") == "v01"
    Z = z_complex(2)
    assert source_vertex(Z, "c2") == "c0"
    assert target_vertex(Z, "c2") == "c0"


def test_swapped_edge_breaks_two_relation_instances():
    # swapping the endpoints of the lower first edge of a square violates the
    # commuting relation for (i, j, alpha=0) with both values of beta
    X = full_cube(2)
    cubes = {c: X.dim(c) for c in X.cubes()}
    faces = {c: X.face_table(c) for c in cubes if X.dim(c) > 0}
    faces["0*"] = {(1, 0): "v01", (1, 1): "v00"}
    broken = CubeSet(cubes, faces)
    bad = validate(broken)
    relation = [v for v in bad if v.kind == "relation"]
    assert len(relation) == 2
    assert {v.cube for v in relation} == {"**"}


def test_missing_face_reported():
    X = CubeSet({"v": 0, "e": 1}, {"e": {(1, 0): "v"}})
    bad = validate(X)
    assert [v.kind for v in bad] == ["missing-face"]


def test_is_proper():
    assert is_proper(boundary_cube(3)) == (True, None)
    ok, witness = is_proper(glued_squares())
    assert not ok and set(witness) == {"sqA", "sqB"}
    assert is_proper(q_complex(3))[0]


def test_is_non_self_linked():
    grid = euclidean([((i, j), (i + 1, j + 1)) for i in range(2) for j in range(2)])
    assert is_non_self_linked(grid) == (True, None)
    ok, witness = is_non_self_linked(z_complex(2))
    assert not ok and witness is not None
    ok, witness = is_non_self_linked(q_complex(2))
    assert not ok and witness[0] == "q2_0"
    for X in (grid, z_complex(2), q_complex(2), glued_squares(), boundary_cube(3)):
        expected = is_proper(X)[0] and is_non_self_linked(X)[0]
        assert X.proper_non_self_linked() is expected
        # each check runs once per instance; the public functions return its cached tuple
        assert is_proper(X) is is_proper(X) and is_non_self_linked(X) is is_non_self_linked(X)


@pytest.mark.parametrize(
    "X, witness",
    [(q_complex(2), ("q2_0", 0)), (q_complex(3), ("q2_0", 0)), (z_complex(2), ("c1", 0)), (z_complex(3), ("c1", 0))],
    ids=["q2", "q3", "z2", "z3"],
)
def test_non_self_linked_witness_is_the_first_cube_and_dimension_with_coinciding_faces(X, witness):
    assert is_non_self_linked(X) == (False, witness)


def test_q_complex_counts_and_structure():
    Q = q_complex(2)
    assert counts(Q, 2) == [3, 2, 1]
    assert validate(Q) == []
    # bottom/top vertices walk the class index
    assert source_vertex(Q, "q2_0") == "q0_0"
    assert target_vertex(Q, "q2_0") == "q0_2"
    for n in range(5):
        Qn = q_complex(n)
        assert counts(Qn, n) == [n - k + 1 for k in range(n + 1)]
        assert validate(Qn) == []
        assert is_proper(Qn)[0]


def test_z_complex_structure():
    Z = z_complex(3)
    assert counts(Z, 3) == [1, 1, 1, 1]
    assert validate(Z) == []
    ok, _ = is_proper(Z)
    assert not ok


def test_euclidean_two_square_strip():
    E = euclidean([((0, 0), (1, 1)), ((1, 0), (2, 1))])
    assert counts(E, 2) == [6, 7, 2]
    assert validate(E) == []
    assert is_proper(E)[0] and is_non_self_linked(E)[0]


def test_euclidean_shares_faces():
    E = euclidean([((0, 0), (1, 1)), ((1, 0), (2, 1))])
    left, right = "0,0|1,1", "1,0|2,1"
    assert E.face(left, 1, 1) == E.face(right, 1, 0) == "1,0|1,1"


def test_euclidean_rejects_bad_boxes():
    with pytest.raises(PrecubicalError):
        BoxSpec((0, 0), (2, 1))
    with pytest.raises(PrecubicalError):
        euclidean([((0,), (1,)), ((0, 0), (1, 1))])


def test_generators_refuse_oversized_face_tables_before_building():
    assert MAX_FACE_ENTRIES >= 2 * 10 * 3**9  # full_cube(10) and boundary_cube(10) stay in reach
    with pytest.raises(PrecubicalError, match=r"full_cube\(40\) would build 324,204,412,241,518,101,360 face-table"):
        full_cube(40)
    for gen, n in [(boundary_cube, 11), (boundary_cube, 10**9), (z_complex, 1000), (q_complex, 200), (z_complex, 10**12)]:
        with pytest.raises(PrecubicalError, match=rf"{gen.__name__}\({n}\) would build .* over the limit of 1,000,000"):
            gen(n)
    for gen in (full_cube, boundary_cube, z_complex, q_complex):
        with pytest.raises(PrecubicalError, match="non-negative"):
            gen(-1)


def test_generators_always_validate():
    gens = [full_cube(3), boundary_cube(4), z_complex(3), q_complex(4)]
    gens.append(euclidean([((0, 0, 0), (1, 1, 1)), ((1, 1, 1), (2, 2, 2))]))
    for X in gens:
        assert validate(X) == []


def test_face_locations_and_carriers():
    X = full_cube(2)
    locs = X.face_locations("v00")
    assert ("**", "00") in locs and ("0*", "0") in locs and ("v00", "") in locs
    assert X.carriers_of("*0") == ["**", "*0"]
    assert X.cubes_from("v00") == ("**", "*0", "0*")


@pytest.mark.parametrize(
    "build",
    [
        lambda: boundary_cube(5),
        lambda: full_cube(4),
        lambda: q_complex(4),
        lambda: z_complex(3),
        lambda: pv_to_euclidean(parse_pv("A = P(a).V(a).P(b).V(b); B = P(a).V(a).P(b).V(b); C = P(a).V(a)"))[0],
        lambda: euclidean([(c, tuple(x + 1 for x in c)) for c in itertools.product(range(2), repeat=3)]),
    ],
    ids=["bd5", "full4", "q4", "z3", "pv", "grid222"],
)
def test_iterated_faces_table_equals_the_per_word_walk(build):
    X = build()
    for c in X.cubes():
        words = list(map("".join, itertools.product("0*1", repeat=X.dim(c))))
        walked = {w: walk_iterated_face(X, c, w) for w in words}
        assert list(X.iterated_faces(c).items()) == list(walked.items())
        assert {w: X.iterated_face(c, w) for w in words} == walked


@pytest.mark.parametrize("word", ["x*", "0", "0**", "*2", ""])
def test_iterated_face_refuses_a_word_outside_the_table(word):
    with pytest.raises(PrecubicalError, match="not a word over 0, \\*, 1 of length 2"):
        full_cube(2).iterated_face("**", word)


@pytest.mark.parametrize(
    "build",
    [
        lambda: boundary_cube(4),
        lambda: q_complex(3),
        lambda: z_complex(3),
        lambda: pv_to_euclidean(parse_pv("A = P(a).V(a).P(b).V(b); B = P(a).V(a).P(b).V(b); C = P(a).V(a)"))[0],
    ],
    ids=["bd4", "q3", "z3", "pv684"],
)
def test_face_locations_and_carriers_match_a_rebuild_from_the_face_tables(build):
    X = build()
    rebuilt = {c: [] for c in X.cubes()}
    for carrier in sorted(X.cubes()):
        for word, fid in sorted(X.iterated_faces(carrier).items()):
            rebuilt[fid].append((carrier, word))
    for c in X.cubes():
        assert X.face_locations(c) == rebuilt[c]
        assert X.carriers_of(c) == sorted({carrier for carrier, _ in rebuilt[c]})


def test_iterated_faces_raises_on_a_missing_face_entry():
    X = full_cube(2)
    faces = {c: X.face_table(c) for c in X.cubes() if X.dim(c) > 0}
    del faces["*0"][(1, 1)]  # faces are applied from the highest axis down, so d(2,0) then d(1,1)
    broken = CubeSet({c: X.dim(c) for c in X.cubes()}, faces)
    with pytest.raises(PrecubicalError, match=r"no face entry d\(1,1\)"):
        broken.iterated_faces("**")
    with pytest.raises(PrecubicalError, match=r"no face entry d\(1,1\)"):
        broken.iterated_faces("*0")


def test_validate_reports_unknown_face_ids():
    X = CubeSet({"v": 0, "e": 1}, {"e": {(1, 0): "v", (1, 1): "ghost"}})
    kinds = sorted(v.kind for v in validate(X))
    assert "unknown-face" in kinds
