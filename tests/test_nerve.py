from __future__ import annotations

import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precubical import (
    HomologyResult,
    PrecubicalError,
    SimplicialComplex,
    betti,
    boundary_cube,
    components,
    covering_nerve,
    enumerate_chains,
    euclidean,
    euler,
    full_cube,
    homology,
    order_complex,
    q_complex,
    smith_normal_form,
    z_complex,
)
from precubical.toolkit import parse_pv, pv_to_euclidean


def test_smith_normal_form_known_matrices():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    # divisibility chain d1 | d2 | ...
    d = smith_normal_form([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    for a, b in zip(d, d[1:]):
        assert b % a == 0


def _det(m):
    """The determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * v * _det([row[:j] + row[j + 1 :] for row in m[1:]]) for j, v in enumerate(m[0]) if v)


def _determinantal_divisors(m):
    """The nonzero Smith diagonal as quotients of the gcds of the k x k minors."""
    out, prev = [], 1
    for k in range(1, min(len(m), len(m[0])) + 1):
        g = 0
        for rows in itertools.combinations(range(len(m)), k):
            for cols in itertools.combinations(range(len(m[0])), k):
                g = math.gcd(g, _det([[m[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


# up to 4 x 4, entries -9..9: a column count, then 1 to 4 rows of that length
_SMALL_MATRICES = st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), min_size=1, max_size=4)
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_SMALL_MATRICES)
def test_smith_normal_form_matches_the_determinantal_divisors(m):
    from precubical.nerve import _elementary_divisors

    want = _determinantal_divisors(m)
    assert smith_normal_form(m) == want
    columns = [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(len(m[0]))]
    assert sorted(_elementary_divisors(columns)) == want


def test_homology_of_standard_complexes():
    disk = SimplicialComplex(("a", "b", "c"), ((0, 1, 2),))
    assert betti(disk) == (1, 0, 0)
    sphere = SimplicialComplex(("a", "b", "c", "d"), ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    assert betti(sphere) == (1, 0, 1)
    circle = SimplicialComplex(tuple("abc"), ((0, 1), (1, 2), (0, 2)))
    assert betti(circle) == (1, 1)
    two_points = SimplicialComplex(("a", "b"), ((0,), (1,)))
    assert betti(two_points) == (2,)
    assert components(two_points) == 2
    # components come from a union-find, not from homology
    mutex3, start, end = pv_to_euclidean(parse_pv("A = P(a).V(a); B = P(a).V(a); C = P(a).V(a)"))
    mutex3_order = order_complex(enumerate_chains(mutex3, start, end, 6))
    z2 = order_complex(enumerate_chains(z_complex(2), "c0", "c0", 2))
    assert "truncated-approximation" in z2.flags
    unused_vertex = SimplicialComplex(tuple("abcd"), ((0, 1), (2,)))
    for K in (disk, sphere, circle, two_points, mutex3_order, z2, unused_vertex):
        assert components(K) == betti(K)[0]
    assert components(mutex3_order) == 6
    assert components(unused_vertex) == 2


RP2 = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
       (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]


def test_homology_torsion_visible():
    h = homology(SimplicialComplex(tuple("abcdef"), tuple(RP2)))
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())


def test_cone_has_trivial_positive_homology():
    # join a fresh apex to every maximal simplex of a circle
    circle = [(0, 1), (1, 2), (0, 2)]
    cone = SimplicialComplex(tuple("abcd"), tuple(s + (3,) for s in circle))
    assert betti(cone) == (1, 0, 0)


def test_euler_poincare_on_fixtures():
    fixtures = [
        SimplicialComplex(("a", "b", "c"), ((0, 1, 2),)),
        SimplicialComplex(("a", "b", "c", "d"), ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
        order_complex(enumerate_chains(boundary_cube(3), "v000", "v111", 3)),
    ]
    for K in fixtures:
        h = homology(K)
        assert all(not t for t in h.torsion)
        assert euler(K) == sum((-1) ** k * b for k, b in enumerate(h.betti))


def test_order_complex_of_full_square_is_a_path():
    poset = enumerate_chains(full_cube(2), "v00", "v11", 2)
    K = order_complex(poset)
    assert K.simplex_counts() == [3, 2]
    assert betti(K) == (1, 0)


def test_order_complex_single_chain():
    poset = enumerate_chains(full_cube(1), "v0", "v1", 1)
    K = order_complex(poset)
    assert K.simplex_counts() == [1]
    assert betti(K) == (1,)


def test_order_complex_of_boundary_cube_is_a_circle():
    poset = enumerate_chains(boundary_cube(3), "v000", "v111", 3)
    K = order_complex(poset)
    assert K.simplex_counts() == [12, 12]
    assert betti(K) == (1, 1)


def test_covering_nerve_of_full_square():
    X = full_cube(2)
    poset = enumerate_chains(X, "v00", "v11", 2)
    K = covering_nerve(X, poset)
    # the two edge chains have no common refinement, so no 2-simplex forms
    assert K.simplex_counts() == [3, 2]
    assert betti(K) == (1, 0)


def test_covering_nerve_triangle_on_boundary_cube():
    B = boundary_cube(3)
    poset = enumerate_chains(B, "v000", "v111", 3)
    K = covering_nerve(B, poset)
    byc = {c.cubes: i for i, c in enumerate(poset.objects)}
    tri = tuple(sorted((byc[("**0", "11*")], byc[("*00", "1**")], byc[("*00", "1*0", "11*")])))
    assert tri in set(K.maximal)
    assert betti(K)[:2] == (1, 1)


def test_covering_nerve_matches_order_complex_on_proper_fixtures():
    grid = euclidean([((i, j), (i + 1, j + 1)) for i in range(2) for j in range(2)])
    cases = [
        (full_cube(2), "v00", "v11", 2),
        (full_cube(3), "v000", "v111", 3),
        (boundary_cube(3), "v000", "v111", 3),
        (grid, "0,0|0,0", "2,2|2,2", 4),
    ]
    for X, a, b, ml in cases:
        poset = enumerate_chains(X, a, b, ml)
        assert homology(order_complex(poset)).equivalent(homology(covering_nerve(X, poset)))


def test_maximal_simplices_are_distinct_and_inclusion_maximal():
    # both complexes keep Hasse-diagram paths and finest-chain up-sets unpruned;
    # grading by cube count is what makes them distinct and inclusion-maximal
    prog = parse_pv("A = P(a).P(b).V(b).V(a); B = P(b).P(a).V(a).V(b)")
    deadlock, start, end = pv_to_euclidean(prog)
    cases = [
        (boundary_cube(4), "v0000", "v1111", 4),
        (full_cube(4), "v0000", "v1111", 4),
        (deadlock, start, end, 8),
        (z_complex(2), "c0", "c0", 2),
        (q_complex(3), "q0_0", "q0_3", 3),
    ]
    for X, a, b, ml in cases:
        poset = enumerate_chains(X, a, b, ml)
        for K in (order_complex(poset), covering_nerve(X, poset)):
            sets = [set(s) for s in K.maximal]
            assert len(set(K.maximal)) == len(K.maximal)
            assert not any(s < t for s in sets for t in sets)
    bd4 = enumerate_chains(boundary_cube(4), "v0000", "v1111", 4)
    assert len(order_complex(bd4).maximal) == 144


def test_flags_propagate():
    Z = z_complex(2)
    poset = enumerate_chains(Z, "c0", "c0", 2)
    K = order_complex(poset)
    assert "truncated-approximation" in K.flags
    CN = covering_nerve(Z, poset)
    assert "no-nerve-lemma-guarantee" in CN.flags
    assert "no-nerve-lemma-guarantee" in homology(CN).flags


def test_order_complex_flags_self_linked_quotient_cubes():
    # the poset merges the two axis splits of a self-linked cube, so its order
    # complex can disagree with the signed chain count; the poset records that
    # its complex lacks the nerve-lemma guarantee, so the result is flagged
    for n in (2, 3):
        Q = q_complex(n)
        poset = enumerate_chains(Q, "q0_0", f"q0_{n}", n)
        assert poset.proper_non_self_linked is False
        signed = sum((-1) ** sum(Q.dim(c) - 1 for c in chain.cubes) for chain in poset.objects)
        K = order_complex(poset)
        assert K.flags == {"no-nerve-lemma-guarantee"}
        assert "no-nerve-lemma-guarantee" in homology(K).flags
        if n == 2:
            assert (euler(K), signed) == (1, 0)
    for X, a, b, ml in ((boundary_cube(3), "v000", "v111", 3), (z_complex(2), "c0", "c0", 2)):
        poset = enumerate_chains(X, a, b, ml)
        proper = X.proper_non_self_linked()
        assert poset.proper_non_self_linked is proper
        assert ("no-nerve-lemma-guarantee" in order_complex(poset).flags) == (not proper)


@pytest.mark.parametrize(
    "X, source, target, length",
    [
        (q_complex(2), "q0_0", "q0_2", 2),
        (q_complex(3), "q0_0", "q0_3", 3),
        (q_complex(4), "q0_0", "q0_4", 4),
        (z_complex(2), "c0", "c0", 2),
        (z_complex(3), "c0", "c0", 3),
    ],
    ids=["q2", "q3", "q4", "z2", "z3"],
)
def test_nerves_of_self_linked_posets_are_flagged_without_the_complex(X, source, target, length):
    poset = enumerate_chains(X, source, target, length)
    for K in (order_complex(poset), covering_nerve(None, poset)):
        assert "no-nerve-lemma-guarantee" in K.flags


def test_covering_nerve_reads_the_guarantee_from_the_poset():
    square = enumerate_chains(full_cube(2), "v00", "v11", 2)
    quotient = enumerate_chains(q_complex(2), "q0_0", "q0_2", 2)
    assert covering_nerve(None, square) == covering_nerve(full_cube(2), square)
    assert "no-nerve-lemma-guarantee" not in covering_nerve(None, square).flags
    assert "no-nerve-lemma-guarantee" in covering_nerve(None, quotient).flags
    # an explicit guarantee overrides the poset's record, both ways
    assert "no-nerve-lemma-guarantee" in covering_nerve(None, square, guarantee=False).flags
    assert "no-nerve-lemma-guarantee" not in covering_nerve(None, quotient, guarantee=True).flags


def test_homology_result_text():
    bd3 = order_complex(enumerate_chains(boundary_cube(3), "v000", "v111", 3))
    assert str(homology(bd3)) == "H0 = Z^1; H1 = Z^1"
    assert str(homology(SimplicialComplex(tuple("abcdef"), tuple(RP2)))) == "H0 = Z^1; H1 = Z^0 + Z/2; H2 = Z^0"
    assert str(HomologyResult((), ())) == "trivial"


def test_homology_result_equivalence_ignores_padding():
    a = HomologyResult((1, 1), ((), ()))
    b = HomologyResult((1, 1, 0), ((), (), ()))
    c = HomologyResult((1, 0), ((), ()))
    assert a.equivalent(b) and not a.equivalent(c)


def test_simplex_budget_guard():
    big = SimplicialComplex(tuple(str(i) for i in range(24)), (tuple(range(24)),))
    with pytest.raises(PrecubicalError):
        big.simplices(budget=1000)


def test_simplex_budget_error_names_dimension_and_counts():
    K = SimplicialComplex(tuple("abcde"), ((0, 1, 2, 3, 4),))
    # the 4-simplex and its 5 facets fit the budget of 6; the first 2-face does not
    with pytest.raises(PrecubicalError, match=r"^simplex budget of 6 exceeded in dimension 2 "
                       r"\(counts so far \[0, 0, 0, 5, 1\]\)$"):
        K.simplices(budget=6)


def test_simplex_budget_refusal_holds_at_most_the_budget():
    # the 60-vertex simplex has 60 facets and C(60, 2) = 1770 faces of dimension 57;
    # the closure stops among those, holding about the budget and not a whole dimension
    big = SimplicialComplex(tuple(str(i) for i in range(60)), (tuple(range(60)),))
    tracemalloc.start()
    try:
        with pytest.raises(PrecubicalError, match=r"^simplex budget of 1000 exceeded in dimension 57 "):
            big.simplices(budget=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "simplex",
    [(-1, 0), (-1,), (0, 3), (3,), (1, 0), (0, 2, 1), (0, 0), (0, 1, 1)],
    ids=["negative", "negative-vertex", "too-large", "too-large-vertex", "unsorted", "unsorted-tail",
         "repeated", "repeated-tail"],
)
def test_bad_simplices_are_refused(simplex):
    with pytest.raises(PrecubicalError, match="bad simplex"):
        SimplicialComplex(("a", "b", "c"), ((0, 1, 2), simplex))


def _frontier_closure(K, budget):
    """The face closure as a breadth-first frontier from the maximal simplices, sorted by dimension.

    A frozen reference: each face is built once per coface, level by level.
    """
    by_dim = [set() for _ in range(K.dim() + 1)]
    total = 0
    frontier = set(K.maximal)
    seen = set()
    while frontier:
        nxt = set()
        for s in frontier:
            if s in seen or not s:
                continue
            seen.add(s)
            total += 1
            if total > budget:
                raise PrecubicalError(f"simplex budget of {budget} exceeded")
            by_dim[len(s) - 1].add(s)
            for i in range(len(s)):
                f = s[:i] + s[i + 1 :]
                if f and f not in seen:
                    nxt.add(f)
        frontier = nxt
    return [sorted(d) for d in by_dim]


@st.composite
def _mixed_complexes(draw):
    """Simplices of 1 to 6 vertices on up to 9, not pruned to the maximal ones."""
    n = draw(st.integers(1, 9))
    simplices = draw(
        st.lists(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=min(6, n)), max_size=8)
    )
    return SimplicialComplex(tuple(str(i) for i in range(n)), tuple(tuple(sorted(s)) for s in simplices))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_mixed_complexes(), st.integers(0, 150))
def test_closure_matches_the_frontier_closure(K, budget):
    reference = _frontier_closure(K, 10**6)
    assert K.simplices() == reference
    assert K.simplex_counts() == [len(d) for d in reference]
    # both refuse exactly when the closure has more simplices than the budget
    if sum(map(len, reference)) > budget:
        with pytest.raises(PrecubicalError, match=f"^simplex budget of {budget} exceeded in dimension "):
            K.simplices(budget=budget)
    else:
        assert K.simplices(budget=budget) == reference


def test_order_complexes_of_the_benchmark_posets():
    K = order_complex(enumerate_chains(boundary_cube(5), "v00000", "v11111", 5))
    assert K.simplex_counts() == [540, 3420, 5760, 2880] and euler(K) == 0
    X, source, target = pv_to_euclidean(parse_pv("A = P(a).V(a).P(b).V(b); B = P(a).V(a).P(b).V(b); C = P(a).V(a)"))
    poset = enumerate_chains(X, source, target, 10)
    assert len(poset.objects) == 684 and euler(order_complex(poset)) == 12


def test_empty_complex():
    K = SimplicialComplex((), ())
    h = homology(K)
    assert h.betti == () and components(K) == 0


# -- independent Betti oracle ------------------------------------------------------
#
# Betti numbers are determined by boundary ranks over the rationals; a plain
# fraction-based Gaussian elimination is an independent route to the same
# numbers and cross-checks the integer Smith normal form reduction.


def _rank_over_q(matrix):
    from fractions import Fraction

    rows = [[Fraction(x) for x in row] for row in matrix if any(row)]
    rank = 0
    col = 0
    ncols = len(matrix[0]) if matrix else 0
    while rows and col < ncols:
        pivot_row = next((i for i, r in enumerate(rows) if r[col] != 0), None)
        if pivot_row is None:
            col += 1
            continue
        rows[0], rows[pivot_row] = rows[pivot_row], rows[0]
        piv = rows[0]
        for r in rows[1:]:
            if r[col] != 0:
                factor = r[col] / piv[col]
                for j in range(col, ncols):
                    r[j] -= factor * piv[j]
        rows = [r for r in rows[1:] if any(r)]
        rank += 1
        col += 1
    return rank


def _dense_boundary(lower, upper):
    index = {s: i for i, s in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for j, s in enumerate(upper):
        for i in range(len(s)):
            mat[index[s[:i] + s[i + 1 :]]][j] = -1 if i % 2 else 1
    return mat


def _betti_via_rational_ranks(K):
    grades = K.simplices()
    dim = len(grades) - 1
    ranks = [0] * (dim + 2)
    for k in range(1, dim + 1):
        ranks[k] = _rank_over_q(_dense_boundary(grades[k - 1], grades[k]))
    return tuple(len(grades[k]) - ranks[k] - ranks[k + 1] for k in range(dim + 1))


def test_betti_matches_independent_rational_rank_oracle():
    grid = euclidean([((i, j), (i + 1, j + 1)) for i in range(3) for j in range(3) if (i, j) != (1, 1)])
    complexes = [
        SimplicialComplex(("a", "b", "c", "d"), ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
        order_complex(enumerate_chains(boundary_cube(3), "v000", "v111", 3)),
        order_complex(enumerate_chains(boundary_cube(4), "v0000", "v1111", 4)),
        covering_nerve(boundary_cube(3), enumerate_chains(boundary_cube(3), "v000", "v111", 3)),
        order_complex(enumerate_chains(grid, "0,0|0,0", "3,3|3,3", 6)),
    ]
    for K in complexes:
        assert betti(K) == _betti_via_rational_ranks(K)


def test_order_complex_of_empty_and_singleton_posets():
    empty = enumerate_chains(full_cube(2), "v11", "v00", 4)
    K = order_complex(empty)
    assert K.labels == () and homology(K).betti == ()
    single = enumerate_chains(full_cube(2), "v00", "v00", 2)
    K1 = order_complex(single)
    assert betti(K1) == (1,)


# -- sparse kernel against the dense Smith normal form ---------------------------------


def _dense_homology(K):
    """Homology from dense boundary matrices and the public Smith normal form."""
    grades = K.simplices()
    diags = [[]] * (len(grades) + 1)
    for k in range(1, len(grades)):
        diags[k] = [d for d in smith_normal_form(_dense_boundary(grades[k - 1], grades[k])) if d]
    return HomologyResult(
        tuple(len(g) - len(diags[k]) - len(diags[k + 1]) for k, g in enumerate(grades)),
        tuple(tuple(d for d in diags[k + 1] if d > 1) for k in range(len(grades))),
    )


def _check_against_dense(K):
    from precubical.nerve import _boundary

    h = homology(K)
    assert h.equivalent(_dense_homology(K))
    assert euler(K) == sum((-1) ** k * b for k, b in enumerate(h.betti))
    assert components(K) == (h.betti[0] if h.betti else 0)
    grades = K.simplices()
    for k in range(2, len(grades)):
        outer = _boundary(grades[k - 2], grades[k - 1])
        for col in _boundary(grades[k - 1], grades[k]):
            total = {}
            for r, v in col.items():
                for i, w in outer[r].items():
                    total[i] = total.get(i, 0) + v * w
            assert not any(total.values())
    return h


@st.composite
def _random_complexes(draw):
    n = draw(st.integers(1, 8))
    # mostly edges to tetrahedra: uniform sizes from 1 to 5 vertices let one
    # big simplex swallow the rest, and almost every complex is contractible
    size = st.integers(2, 4) | st.integers(1, 5)
    vertex_sets = draw(
        st.lists(
            size.flatmap(lambda k: st.frozensets(st.integers(0, n - 1), min_size=min(k, n), max_size=min(k, n))),
            min_size=3,
            max_size=8,
        )
    )
    maximal = {tuple(sorted(s)) for s in vertex_sets if not any(s < t for t in vertex_sets)}
    return SimplicialComplex(tuple(str(i) for i in range(n)), tuple(sorted(maximal)))


@settings(derandomize=True, max_examples=300, deadline=1000)
@given(_random_complexes())
def test_sparse_homology_matches_dense_smith_normal_form(K):
    _check_against_dense(K)


def test_sparse_homology_finds_torsion_above_degree_one():
    # the suspension of the projective plane: H2 = Z/2
    suspension = tuple(s + (6,) for s in RP2) + tuple(s + (7,) for s in RP2)
    h = _check_against_dense(SimplicialComplex(tuple("abcdefgh"), suspension))
    assert h.betti == (1, 0, 0, 0)
    assert h.torsion == ((), (), (2,), ())


# -- the three routes on random grids --------------------------------------------------


@st.composite
def _random_grid_complexes(draw):
    """Unit squares of a small grid: the two corner squares plus a random subset of the rest."""
    w, h = draw(st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]))
    corners = [(0, 0), (w - 1, h - 1)]
    rest = [(i, j) for i in range(w) for j in range(h) if (i, j) not in corners]
    keep = draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
    squares = corners + [sq for sq, k in zip(rest, keep) if k]
    X = euclidean([((i, j), (i + 1, j + 1)) for i, j in squares])
    return X, "0,0|0,0", f"{w},{h}|{w},{h}", w + h


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_random_grid_complexes())
def test_order_complex_covering_nerve_and_chain_count_agree(case):
    X, source, target, length = case
    poset = enumerate_chains(X, source, target, length)
    assert not poset.truncated
    K = order_complex(poset)
    assert homology(K).equivalent(homology(covering_nerve(X, poset)))
    signed = sum((-1) ** sum(X.dim(c) - 1 for c in chain.cubes) for chain in poset.objects)
    assert euler(K) == signed
