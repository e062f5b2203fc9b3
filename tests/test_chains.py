from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precubical import (
    NO_COARSEST,
    CubeChain,
    CubeSet,
    PrecubicalError,
    boundary_cube,
    chain_diagonal,
    coarsest_common_refinement,
    common_refinement_exists,
    elementary_refinements,
    enumerate_chains,
    euclidean,
    finest_chain,
    full_cube,
    is_strict,
    q_complex,
    is_tame,
    refinement_set,
    refines,
    subordinate_to_collar,
    validate,
    z_complex,
)
from precubical.chains import _ccr_brute
from precubical.dpath import path

from helpers import (
    glued_squares,
    random_monotone_grid_path,
    random_strict_tame_path,
    random_two_facet_path,
    reference_enumeration,
)

SQ = full_cube(2)
B3 = boundary_cube(3)
SQ_POSET = enumerate_chains(SQ, "v00", "v11", 2)
B3_POSET = enumerate_chains(B3, "v000", "v111", 3)


def chain(src, tgt, *cubes):
    return CubeChain(src, tgt, tuple(cubes))


def test_chain_validation():
    c = chain("v00", "v11", "*0", "1*")
    c.validate(SQ)
    assert c.vertex_sequence(SQ) == ("v00", "v10", "v11")
    assert c.length(SQ) == 2
    with pytest.raises(PrecubicalError):
        chain("v00", "v11", "0*", "*0").validate(SQ)
    with pytest.raises(PrecubicalError):
        chain("v00", "v11").validate(SQ)  # empty needs equal endpoints
    chain("v00", "v00").validate(SQ)


def test_elementary_refinements_of_a_square():
    refs = elementary_refinements(SQ, chain("v00", "v11", "**"))
    assert sorted(r.cubes for r in refs) == [("*0", "1*"), ("0*", "*1")]
    # splitting along axis set {1} freezes axis 1 first at 0 (left edge),
    # then the complement at 1 (top edge)
    assert ("0*", "*1") in {r.cubes for r in refs}
    assert elementary_refinements(SQ, chain("v00", "v10", "*0")) == []


def test_refinement_preserves_length_and_endpoints():
    for c in B3_POSET.objects:
        for r in elementary_refinements(B3, c):
            r.validate(B3)
            assert r.length(B3) == c.length(B3)
            assert (r.source, r.target) == (c.source, c.target)


def test_refines_basic():
    square = chain("v00", "v11", "**")
    br = chain("v00", "v11", "*0", "1*")
    lt = chain("v00", "v11", "0*", "*1")
    assert refines(SQ, square, square)
    assert refines(SQ, br, square)
    assert not refines(SQ, br, lt)
    assert not refines(SQ, square, br)


def test_refines_does_not_validate_its_chains():
    # a block holds at least one cube, so a chain listing a vertex still refines itself
    loop = chain("v00", "v00", "v00")
    assert refines(SQ, loop, loop)
    assert refines(SQ, chain("v00", "v11", "v00", "*0", "1*"), chain("v00", "v11", "v00", "**"))
    assert not refines(SQ, chain("v00", "v11", "*0", "1*"), chain("v00", "v11", "v00", "**"))


def test_refines_is_a_partial_order_on_desk_posets():
    GS = glued_squares()
    fixtures = [
        (SQ, SQ_POSET),
        (B3, B3_POSET),
        (q_complex(3), enumerate_chains(q_complex(3), "q0_0", "q0_3", 3)),
        (q_complex(4), enumerate_chains(q_complex(4), "q0_0", "q0_4", 4)),
        (z_complex(2), enumerate_chains(z_complex(2), "c0", "c0", 3)),
        (z_complex(3), enumerate_chains(z_complex(3), "c0", "c0", 4)),
        (GS, enumerate_chains(GS, "v00", "v11", 2)),
    ]
    for X, poset in fixtures:
        objs = poset.objects
        rel = {(i, j): refines(X, a, b) for i, a in enumerate(objs) for j, b in enumerate(objs)}
        for i in range(len(objs)):
            assert rel[i, i]
        for i, j in itertools.permutations(range(len(objs)), 2):
            if rel[i, j] and rel[j, i]:
                assert objs[i] == objs[j]
        for i, j, k in itertools.product(range(len(objs)), repeat=3):
            if rel[i, j] and rel[j, k]:
                assert rel[i, k]
        assert poset.refines_matrix() == [[rel[i, j] for j in range(len(objs))] for i in range(len(objs))]


def test_enumerate_full_square():
    assert [c.cubes for c in SQ_POSET.objects] == [("**",), ("*0", "1*"), ("0*", "*1")]
    assert SQ_POSET.covers == ((0, 1), (0, 2))
    assert not SQ_POSET.truncated


def test_enumerate_boundary_cube_is_a_twelve_cycle():
    assert len(B3_POSET.objects) == 12
    assert not B3_POSET.truncated
    by_len = {}
    for c in B3_POSET.objects:
        by_len.setdefault(len(c.cubes), []).append(c)
    assert len(by_len[2]) == 6 and len(by_len[3]) == 6
    # cover graph: every coarse chain covers exactly 2, every fine chain is
    # covered by exactly 2, and the graph is a single 12-cycle
    deg = {i: 0 for i in range(12)}
    for a, b in B3_POSET.covers:
        deg[a] += 1
        deg[b] += 1
    assert all(d == 2 for d in deg.values())
    seen = {0}
    adj = {i: set() for i in range(12)}
    for a, b in B3_POSET.covers:
        adj[a].add(b)
        adj[b].add(a)
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert seen == set(range(12))


def test_enumerate_z_complex_truncates():
    Z = z_complex(2)
    poset = enumerate_chains(Z, "c0", "c0", 2)
    cubes = {c.cubes for c in poset.objects}
    assert ("c1",) in cubes and ("c1", "c1") in cubes and ("c2",) in cubes
    assert poset.truncated


def test_finest_chain_examples():
    diag = path([("**", [(0, (0, 0)), (1, (1, 1))])])
    assert finest_chain(SQ, diag).cubes == ("**",)
    bent = path([("**", [(0, (0, 0)), (F(1, 2), (F(1, 2), F(1, 5))), (1, (1, 1))])])
    assert finest_chain(SQ, bent).cubes == ("*0", "1*")
    const = path([("v00", [(0, ()), (1, ())])])
    assert finest_chain(SQ, const).cubes == ()


def test_finest_chain_requires_strictness():
    paused = path([("**", [(0, (0, 0)), (F(1, 3), (F(1, 4), F(1, 4))), (F(2, 3), (F(1, 4), F(1, 2))), (1, (1, 1))])])
    with pytest.raises(PrecubicalError):
        finest_chain(SQ, paused)


def test_subordinate_to_collar_examples():
    diag = path([("**", [(0, (0, 0)), (1, (1, 1))])])
    assert subordinate_to_collar(SQ, diag, chain("v00", "v11", "**"))
    assert not subordinate_to_collar(SQ, diag, chain("v00", "v11", "*0", "1*"))
    bent = path([("**", [(0, (0, 0)), (F(1, 2), (F(4, 5), F(1, 10))), (1, (1, 1))])])
    assert subordinate_to_collar(SQ, bent, chain("v00", "v11", "*0", "1*"))
    assert subordinate_to_collar(SQ, bent, chain("v00", "v11", "**"))
    assert not subordinate_to_collar(SQ, bent, chain("v00", "v11", "0*", "*1"))


def test_half_height_path_subordinate_to_nothing():
    # running along the half-height line of a horizontal strip touches no
    # collar chain at all
    E = euclidean([((0, 0), (1, 1)), ((1, 0), (2, 1))])
    p = path(
        [
            ("0,0|1,1", [(0, (0, 0)), (F(1, 4), (0, F(1, 2))), (F(1, 2), (1, F(1, 2)))]),
            ("1,0|2,1", [(F(1, 2), (0, F(1, 2))), (F(3, 4), (1, F(1, 2))), (1, (1, 1))]),
        ]
    )
    p.validate(E)
    poset = enumerate_chains(E, "0,0|0,0", "2,1|2,1", 3)
    assert len(poset.objects) > 0
    assert not any(subordinate_to_collar(E, p, c) for c in poset.objects)


def test_strict_path_subordinate_to_its_finest_chain():
    rng = random.Random(11)
    for _ in range(10):
        p = random_two_facet_path(B3, rng)
        fc = finest_chain(B3, p)
        assert subordinate_to_collar(B3, p, fc)


def test_chain_diagonal_is_strict_tame_and_subordinate():
    for c in B3_POSET.objects:
        d = chain_diagonal(B3, c)
        assert is_strict(B3, d) and is_tame(B3, d)[0]
        assert subordinate_to_collar(B3, d, c)
        assert finest_chain(B3, d).cubes == c.cubes


def test_ccr_reflexive_and_worked_example():
    byc = {c.cubes: c for c in B3_POSET.objects}
    a = byc[("**0", "11*")]
    assert coarsest_common_refinement(B3, a, a) == a
    b = byc[("*00", "1**")]
    r = coarsest_common_refinement(B3, a, b)
    assert r.cubes == ("*00", "1*0", "11*")
    # chains around opposite sides of the hexagon share nothing
    zxy = byc[("00*", "**1")]
    assert coarsest_common_refinement(B3, a, zxy) is None


def test_ccr_glued_squares_has_no_coarsest():
    GS = glued_squares()
    a = chain("v00", "v11", "sqA")
    b = chain("v00", "v11", "sqB")
    assert coarsest_common_refinement(GS, a, b) is NO_COARSEST


def test_ccr_recursive_matches_brute_force():
    fixtures = [
        (SQ, SQ_POSET),
        (B3, B3_POSET),
    ]
    E = euclidean([((i, j), (i + 1, j + 1)) for i in range(2) for j in range(2)])
    fixtures.append((E, enumerate_chains(E, "0,0|0,0", "2,2|2,2", 4)))
    for X, poset in fixtures:
        for a in poset.objects:
            for b in poset.objects:
                fast = coarsest_common_refinement(X, a, b)
                slow = _ccr_brute(X, a, b)
                assert fast == slow or fast is slow


def test_ccr_falls_back_when_heads_share_two_largest_lower_faces():
    # squares S1: v -> t1 and S2: v -> t2 share both lower edges e1: v -> a
    # and e2: v -> b; each top continues by one edge to w, so the chains pass
    # t1 and t2 at the same dimension position and share no refinement
    cubes = {v: 0 for v in ("v", "a", "b", "t1", "t2", "w")}
    faces = {"e1": ("v", "a"), "e2": ("v", "b"), "g1": ("t1", "w"), "g2": ("t2", "w")}
    for k in ("1", "2"):
        faces[f"f{k}a"] = ("a", f"t{k}")
        faces[f"f{k}b"] = ("b", f"t{k}")
    faces = {e: {(1, 0): lo, (1, 1): hi} for e, (lo, hi) in faces.items()}
    cubes.update({e: 1 for e in faces})
    for k in ("1", "2"):
        cubes[f"S{k}"] = 2
        faces[f"S{k}"] = {(1, 0): "e2", (2, 0): "e1", (1, 1): f"f{k}a", (2, 1): f"f{k}b"}
    X = CubeSet(cubes, faces)
    assert validate(X) == [] and X.proper_non_self_linked()
    a = chain("v", "w", "S1", "g1")
    b = chain("v", "w", "S2", "g2")
    assert coarsest_common_refinement(X, a, b) is None
    assert _ccr_brute(X, a, b) is None
    assert not common_refinement_exists(X, [a, b])


def _square_with_detour():
    """The full square plus edges v00 -> w -> v11 through a vertex w off the square; proper and non-self-linked."""
    base = full_cube(2)
    cubes = {c: base.dim(c) for c in base.cubes()}
    faces = {c: base.face_table(c) for c in cubes if base.dim(c) > 0}
    cubes.update({"w": 0, "e": 1, "f": 1})
    faces.update({"e": {(1, 0): "v00", (1, 1): "w"}, "f": {(1, 0): "w", (1, 1): "v11"}})
    return CubeSet(cubes, faces)


def test_ccr_is_none_when_the_other_chain_detours_around_a_square():
    # both chains pass only their own vertices, and the cubes joining them
    # (the edges e, f) do not refine the square
    X = _square_with_detour()
    assert validate(X) == [] and X.proper_non_self_linked()
    a, b = chain("v00", "v11", "**"), chain("v00", "v11", "e", "f")
    assert coarsest_common_refinement(X, a, b) is None
    assert _ccr_brute(X, a, b) is None
    assert not common_refinement_exists(X, [a, b])


def test_ccr_on_a_long_strip_needs_no_recursion():
    # 1,499 shared head edges, then a vertical edge against the last square
    n = 1500
    strip = euclidean([((i, 0), (i + 1, 1)) for i in range(n)])
    edges = tuple(f"{i},0|{i + 1},0" for i in range(n))
    a = CubeChain("0,0|0,0", f"{n},1|{n},1", edges + (f"{n},0|{n},1",))
    b = CubeChain("0,0|0,0", f"{n},1|{n},1", edges[:-1] + (f"{n - 1},0|{n},1",))
    assert coarsest_common_refinement(strip, a, b) == a
    assert coarsest_common_refinement(strip, b, b) == b


def test_ccr_and_refines_on_an_8_cube_list_no_refinements():
    # the top cube of full_cube(8) has 545,835 refinements; the traced peak is
    # about 330 MB if they are listed, 31 MB if blocks are decided one by one
    n = 8
    X = full_cube(n)
    top = chain("v" + "0" * n, "v" + "1" * n, "*" * n)
    split = chain(top.source, top.target, "0" + "*" * (n - 1), "*" + "1" * (n - 1))
    edges = chain(top.source, top.target, *("1" * k + "*" + "0" * (n - k - 1) for k in range(n)))
    tracemalloc.start()
    try:
        ccr = coarsest_common_refinement(X, top, split)
        decided = refines(X, edges, top), refines(X, edges, split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the edges move the first coordinate first, which the split's lower face fixes at 0
    assert ccr == split and decided == (True, False)
    assert peak < 96 * 2**20


def test_common_refinement_exists():
    byc = {c.cubes: c for c in B3_POSET.objects}
    trio = [byc[("**0", "11*")], byc[("*00", "1**")], byc[("*00", "1*0", "11*")]]
    assert common_refinement_exists(B3, trio)
    assert not common_refinement_exists(B3, [byc[("**0", "11*")], byc[("00*", "**1")]])
    assert common_refinement_exists(B3, [byc[("**0", "11*")]])


def test_refinement_sets_are_down_sets():
    for c in B3_POSET.objects:
        down = refinement_set(B3, c)
        for d in down:
            assert refines(B3, d, c)


def test_finest_chain_minimality_randomized():
    rng = random.Random(23)
    E = euclidean([((i, j), (i + 1, j + 1)) for i in range(2) for j in range(2)])
    E_POSET = enumerate_chains(E, "0,0|0,0", "2,2|2,2", 4)
    cases = []
    for _ in range(6):
        cases.append((SQ, SQ_POSET, random_strict_tame_path(SQ, rng.choice(SQ_POSET.objects), rng)))
        cases.append((B3, B3_POSET, random_two_facet_path(B3, rng)))
        cases.append((E, E_POSET, random_monotone_grid_path(E, (2, 2), rng)))
    for X, poset, p in cases:
        fc = finest_chain(X, p)
        hits = 0
        for c in poset.objects:
            if subordinate_to_collar(X, p, c):
                hits += 1
                assert refines(X, fc, c)
        assert hits >= 1


def test_enumerate_loop_free_same_endpoint_gives_empty_chain_only():
    poset = enumerate_chains(SQ, "v00", "v00", 2)
    assert [c.cubes for c in poset.objects] == [()]
    assert not poset.truncated


def test_enumerate_long_line_needs_no_recursion():
    line = euclidean([((i,), (i + 1,)) for i in range(1500)])
    poset = enumerate_chains(line, "0|0", "1500|1500", 1500)
    assert len(poset.objects) == 1 and len(poset.objects[0].cubes) == 1500
    assert not poset.truncated


def test_enumerate_unreachable_target_is_empty():
    poset = enumerate_chains(SQ, "v11", "v00", 4)
    assert poset.objects == ()
    assert not poset.truncated


def test_enumerate_chains_on_self_linked_quotient_cube():
    from precubical import q_complex

    Q = q_complex(2)
    poset = enumerate_chains(Q, "q0_0", "q0_2", 2)
    assert [c.cubes for c in poset.objects] == [("q2_0",), ("q1_0", "q1_1")]
    # both axis splits of the quotient square collapse to the same pair
    assert poset.covers == ((0, 1),)
    refs = elementary_refinements(Q, poset.objects[0])
    assert len(refs) == 1


# -- covers against a reference built from split words --------------------------


def _reference_refinements(X, chain):
    """Elementary refinements from split words, each face found by walking the face maps."""
    out = []
    for i, c in enumerate(chain.cubes):
        n = X.dim(c)
        for r in range(1, n):
            for J in itertools.combinations(range(n), r):
                lower = "".join("0" if a in J else "*" for a in range(n))
                upper = "".join("*" if a in J else "1" for a in range(n))
                split = (X.iterated_face(c, lower), X.iterated_face(c, upper))
                refined = CubeChain(chain.source, chain.target, chain.cubes[:i] + split + chain.cubes[i + 1 :])
                if refined not in out:
                    out.append(refined)
    return out


def _assert_covers_match_reference(X, source, target, length):
    poset = enumerate_chains(X, source, target, length)
    index = {chain: i for i, chain in enumerate(poset.objects)}
    covers = set()
    for i, chain in enumerate(poset.objects):
        refined = _reference_refinements(X, chain)
        assert elementary_refinements(X, chain) == refined
        covers.update((i, index[r]) for r in refined if r in index)
    assert poset.covers == tuple(sorted(covers))


@st.composite
def _random_box_sets(draw):
    """Unit boxes of a small 2D or 3D grid: the two corner boxes plus a random subset of the rest."""
    shape = draw(st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 3), (2, 2, 2), (3, 2, 2), (2, 3, 2)]))
    corners = [(0,) * len(shape), tuple(k - 1 for k in shape)]
    rest = [c for c in itertools.product(*map(range, shape)) if c not in corners]
    keep = draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
    boxes = corners + [c for c, k in zip(rest, keep) if k]
    X = euclidean([(c, tuple(x + 1 for x in c)) for c in boxes])
    origin, far = ",".join("0" * len(shape)), ",".join(map(str, shape))
    return X, f"{origin}|{origin}", f"{far}|{far}", sum(shape)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_random_box_sets())
def test_covers_and_refinements_match_the_split_word_reference(case):
    _assert_covers_match_reference(*case)


@pytest.mark.parametrize(
    "X, source, target, length",
    [
        (q_complex(2), "q0_0", "q0_2", 2),
        (q_complex(3), "q0_0", "q0_3", 3),
        (q_complex(4), "q0_0", "q0_4", 4),
        (z_complex(2), "c0", "c0", 3),
        (z_complex(3), "c0", "c0", 4),
    ],
    ids=["q2", "q3", "q4", "z2", "z3"],
)
def test_covers_match_the_reference_where_splits_collapse(X, source, target, length):
    _assert_covers_match_reference(X, source, target, length)


# -- the enumeration against a frozen copy of the per-split build ----------------


def _assert_enumeration_matches_the_reference(X, source, target, length):
    poset = enumerate_chains(X, source, target, length)
    expected = reference_enumeration(X, source, target, length)
    assert [c.cubes for c in poset.objects] == [c.cubes for c in expected.objects]
    assert poset.covers == expected.covers
    assert (poset.truncated, poset.proper_non_self_linked) == (expected.truncated, expected.proper_non_self_linked)
    assert poset == expected


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_random_box_sets(), st.integers(-1, 0))
def test_enumeration_matches_the_frozen_reference_on_box_sets(case, slack):
    X, source, target, length = case
    _assert_enumeration_matches_the_reference(X, source, target, length + slack)


@pytest.mark.parametrize(
    "X, source, target, length",
    [
        (q_complex(2), "q0_0", "q0_2", 2),
        (q_complex(3), "q0_0", "q0_3", 3),
        (q_complex(4), "q0_0", "q0_4", 4),
        (z_complex(2), "c0", "c0", 2),
        (z_complex(2), "c0", "c0", 3),
        (z_complex(3), "c0", "c0", 3),
        (z_complex(3), "c0", "c0", 4),
        (glued_squares(), "v00", "v11", 2),
        (boundary_cube(3), "v000", "v111", 3),
        (boundary_cube(4), "v0000", "v1111", 4),
        (boundary_cube(5), "v00000", "v11111", 5),
    ],
    ids=["q2", "q3", "q4", "z2-2", "z2-3", "z3-3", "z3-4", "glued-squares", "bd3", "bd4", "bd5"],
)
def test_enumeration_matches_the_frozen_reference(X, source, target, length):
    _assert_enumeration_matches_the_reference(X, source, target, length)


# -- refinement queries against the breadth-first reference ----------------------


def _bfs_refinement_set(X, chain):
    """The closure of ``chain`` under elementary refinements, by breadth-first search."""
    seen = {chain}
    frontier = [chain]
    while frontier:
        for r in elementary_refinements(X, frontier.pop()):
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return seen


def _bfs_refines(X, fine, coarse):
    """Search the refinements of ``coarse`` for ``fine``, pruning chains whose vertices do not embed into fine's."""
    if fine == coarse:
        return True
    if fine.length(X) != coarse.length(X):
        return False
    fine_vertices = fine.vertex_sequence(X)

    def compatible(c):
        it = iter(fine_vertices)
        return all(any(w == v for w in it) for v in c.vertex_sequence(X))

    seen = {coarse}
    frontier = [coarse]
    while frontier:
        for r in elementary_refinements(X, frontier.pop()):
            if r == fine:
                return True
            if r not in seen and compatible(r):
                seen.add(r)
                frontier.append(r)
    return False


def _scan_ccr(X, a, b):
    """The coarsest common refinement by scanning the common refinements for maximal ones."""
    common = _bfs_refinement_set(X, a) & _bfs_refinement_set(X, b)
    if not common:
        return None
    maximal = [c for c in common if not any(o != c and _bfs_refines(X, c, o) for o in common)]
    return maximal[0] if len(maximal) == 1 else NO_COARSEST


def _assert_refinement_queries_match_the_reference(X, poset, pairs):
    objs = poset.objects
    for c in objs:
        assert refinement_set(X, c) == _bfs_refinement_set(X, c)
    for i, j in pairs:
        a, b = objs[i], objs[j]
        assert refines(X, a, b) == _bfs_refines(X, a, b)
        expected = _scan_ccr(X, a, b)
        assert coarsest_common_refinement(X, a, b) == expected
        assert _ccr_brute(X, a, b) == expected
        assert common_refinement_exists(X, [a, b]) == (expected is not None)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_random_box_sets(), st.data())
def test_refinement_queries_match_the_reference_on_box_sets(case, data):
    X, source, target, length = case
    poset = enumerate_chains(X, source, target, length)
    index = st.integers(0, max(0, len(poset.objects) - 1))
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=8)) if poset.objects else []
    # related pairs: a chain against its refinements and its covers' refinements
    for coarse, fine in poset.covers[:: max(1, len(poset.covers) // 8)]:
        pairs += [(fine, coarse), (coarse, fine)]
    _assert_refinement_queries_match_the_reference(X, poset, pairs)


@pytest.mark.parametrize(
    "X, source, target, length",
    [
        (q_complex(2), "q0_0", "q0_2", 2),
        (q_complex(3), "q0_0", "q0_3", 3),
        (q_complex(4), "q0_0", "q0_4", 4),
        (z_complex(2), "c0", "c0", 3),
        (z_complex(3), "c0", "c0", 4),
        (glued_squares(), "v00", "v11", 2),
        (_square_with_detour(), "v00", "v11", 2),
    ],
    ids=["q2", "q3", "q4", "z2", "z3", "glued-squares", "square-with-detour"],
)
def test_refinement_queries_match_the_reference_on_every_pair(X, source, target, length):
    poset = enumerate_chains(X, source, target, length)
    pairs = list(itertools.product(range(len(poset.objects)), repeat=2))
    _assert_refinement_queries_match_the_reference(X, poset, pairs)
