"""Order complexes, covering nerves, and integer simplicial homology.

The refinement poset of cube chains is turned into simplicial complexes
two ways: the order complex (simplices are totally ordered subsets) and
the covering nerve (simplices are sets of chains possessing a common
refinement).

Homology is computed over the integers with arbitrary-precision
arithmetic, so torsion is visible.  Each boundary map is stored as
sparse columns and reduced by unit-pivot elimination: a +-1 entry is
picked, preferring short rows and columns, and the matrix is replaced by
its Schur complement.  A unit pivot makes the row and column operations
unimodular, so this is exact over Z and contributes one ``1`` to the
Smith normal form diagonal.  Once no unit entry is left, the small
residual block goes to the dense :func:`smith_normal_form`.  This is the
reduction approach of Kaczynski, Mischaikow and Mrozek, *Computational
Homology* (2004).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Sequence

from .chains import RefinementPoset
from .cubeset import CubeSet
from .errors import PrecubicalError

__all__ = [
    "SimplicialComplex",
    "HomologyResult",
    "order_complex",
    "covering_nerve",
    "homology",
    "betti",
    "euler",
    "components",
    "smith_normal_form",
]

DEFAULT_SIMPLEX_BUDGET = 200_000


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite complex stored by maximal simplices over indexed vertices.

    ``labels`` names the vertices (kept for serialization and debugging);
    ``maximal`` lists inclusion-maximal simplices as sorted index tuples.
    ``flags`` carries quality notes such as ``truncated-approximation``.
    """

    labels: tuple[str, ...]
    maximal: tuple[tuple[int, ...], ...]
    flags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        for s in self.maximal:
            if any(not 0 <= v < len(self.labels) for v in s) or list(s) != sorted(set(s)):
                raise PrecubicalError(f"bad simplex {s}")

    def dim(self) -> int:
        return max((len(s) - 1 for s in self.maximal), default=-1)

    def simplices(self, budget: int = DEFAULT_SIMPLEX_BUDGET) -> list[list[tuple[int, ...]]]:
        """Downward closure by dimension: ``result[k]`` lists the k-simplices."""
        by_dim: list[set[tuple[int, ...]]] = [set() for _ in range(self.dim() + 1)]
        total = 0
        frontier = set(self.maximal)
        seen: set[tuple[int, ...]] = set()
        while frontier:
            nxt: set[tuple[int, ...]] = set()
            for s in frontier:
                if s in seen or not s:
                    continue
                seen.add(s)
                total += 1
                if total > budget:
                    raise PrecubicalError(
                        f"simplex budget of {budget} exceeded in dimension {len(s) - 1} "
                        f"(counts so far {[len(d) for d in by_dim]})"
                    )
                by_dim[len(s) - 1].add(s)
                for i in range(len(s)):
                    f = s[:i] + s[i + 1 :]
                    if f and f not in seen:
                        nxt.add(f)
            frontier = nxt
        return [sorted(d) for d in by_dim]

    def simplex_counts(self) -> list[int]:
        return [len(d) for d in self.simplices()]


def _labels(poset: RefinementPoset) -> tuple[str, ...]:
    return tuple("|".join(c.cubes) if c.cubes else "(empty)" for c in poset.objects)


def _flags(poset: RefinementPoset, guarantee: bool | None) -> frozenset[str]:
    """Flags of ``order_complex`` and ``covering_nerve``; an explicit ``guarantee`` overrides the poset's."""
    flags = set()
    if poset.truncated:
        flags.add("truncated-approximation")
    if not (poset.proper_non_self_linked if guarantee is None else guarantee):
        flags.add("no-nerve-lemma-guarantee")
    return frozenset(flags)


def order_complex(
    poset: RefinementPoset, X: CubeSet | None = None, guarantee: bool | None = None
) -> SimplicialComplex:
    """The complex of totally ordered subsets of the refinement poset.

    Maximal simplices are the maximal chains of the poset, i.e. the
    root-to-leaf paths of its cover (Hasse) diagram.  Each cover adds
    exactly one cube, so the poset is graded by cube count: a path meets
    every grade between its ends once, which makes distinct paths distinct
    sets, and no element can be inserted into a path from a coarsest to a
    finest chain, which makes each path inclusion-maximal.  A truncated
    poset yields a flagged lower approximation.  On complexes that are not
    proper and non-self-linked the poset merges refinements (two splits of
    a self-linked cube can give the same chain), so the result is flagged
    as in :func:`covering_nerve`.  The poset records whether its complex
    is proper and non-self-linked; an explicit ``guarantee`` overrides that
    record, and ``X`` is not read.
    """
    n = len(poset.objects)
    finer: list[list[int]] = [[] for _ in range(n)]
    is_root = [True] * n
    for coarse, fine in poset.covers:
        finer[coarse].append(fine)
        is_root[fine] = False
    maximal: list[tuple[int, ...]] = []
    # each stack entry is a path from a root, extended until it ends at a leaf
    stack = [(i,) for i in range(n) if is_root[i]]
    while stack:
        walk = stack.pop()
        if finer[walk[-1]]:
            stack.extend(walk + (nxt,) for nxt in finer[walk[-1]])
        else:
            maximal.append(tuple(sorted(walk)))
    return SimplicialComplex(_labels(poset), tuple(sorted(maximal)), _flags(poset, guarantee))


def covering_nerve(
    X: CubeSet | None, poset: RefinementPoset, guarantee: bool | None = None
) -> SimplicialComplex:
    """The nerve of the covering by collar path spaces, one per chain.

    A set of chains spans a simplex exactly when it has a common
    refinement, i.e. when it is contained in the up-set of some chain; so
    the maximal simplices are the up-sets of the finest chains.  These need
    no pruning: if the up-set of a finest chain ``a`` lies in that of
    ``b``, then ``b`` refines ``a``, and as nothing is finer than ``a``,
    ``b`` is ``a``.  On complexes that are not proper and non-self-linked
    the covering loses its nerve-lemma guarantee, which is recorded as a
    flag rather than refusing the computation.  The poset records whether
    its complex is proper and non-self-linked; an explicit ``guarantee``
    overrides that record, and ``X`` is not read.
    """
    has_finer = {coarse for coarse, _ in poset.covers}
    finest = [i for i in range(len(poset.objects)) if i not in has_finer]
    return SimplicialComplex(_labels(poset), tuple(sorted(poset.upsets(finest))), _flags(poset, guarantee))


# -- integer homology ---------------------------------------------------------


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """The diagonal of the Smith normal form of an integer matrix.

    Exact arbitrary-precision elimination; the returned non-negative
    diagonal entries satisfy the divisibility chain d1 | d2 | ...
    """
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag: list[int] = []
    top = 0
    left = 0
    while top < rows and left < cols:
        pivot = None
        best = None
        for i in range(top, rows):
            for j in range(left, cols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[left], row[pj] = row[pj], row[left]
        while True:
            # clear the pivot column
            for i in range(top + 1, rows):
                if a[i][left]:
                    q = a[i][left] // a[top][left]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                    if a[i][left]:
                        a[top], a[i] = a[i], a[top]
            # clear the pivot row
            row_done = True
            for j in range(left + 1, cols):
                if a[top][j]:
                    q = a[top][j] // a[top][left]
                    if q:
                        for i in range(top, rows):
                            a[i][j] -= q * a[i][left]
                    if a[top][j]:
                        for i in range(top, rows):
                            a[i][left], a[i][j] = a[i][j], a[i][left]
                        row_done = False
            if row_done and all(a[i][left] == 0 for i in range(top + 1, rows)):
                break
        diag.append(abs(a[top][left]))
        top += 1
        left += 1
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for k in range(len(diag) - 1):
            x, y = diag[k], diag[k + 1]
            if x and y % x != 0:
                g = math.gcd(x, y)
                diag[k], diag[k + 1] = g, x * y // g
                changed = True
            elif x == 0 and y != 0:
                diag[k], diag[k + 1] = y, x
                changed = True
    return [d for d in diag if d != 0] + [0] * sum(1 for d in diag if d == 0)


@dataclass(frozen=True)
class HomologyResult:
    """Integral homology: one Betti number and torsion list per degree."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    flags: frozenset[str] = field(default_factory=frozenset)

    def __str__(self) -> str:
        parts = []
        for k, (b, tor) in enumerate(zip(self.betti, self.torsion)):
            s = f"H{k} = Z^{b}"
            if tor:
                s += " + " + " + ".join(f"Z/{t}" for t in tor)
            parts.append(s)
        return "; ".join(parts) if parts else "trivial"

    def equivalent(self, other: "HomologyResult") -> bool:
        """Equality of homology groups degree by degree (ignoring padding)."""
        n = max(len(self.betti), len(other.betti))
        pad = lambda xs, fill: tuple(xs) + (fill,) * (n - len(xs))
        return pad(self.betti, 0) == pad(other.betti, 0) and pad(self.torsion, ()) == pad(
            other.torsion, ()
        )


def _boundary(lower: list[tuple[int, ...]], upper: list[tuple[int, ...]]) -> list[dict[int, int]]:
    """The boundary of each simplex in ``upper`` as a sparse column ``{row: +-1}``.

    Rows number the simplices of ``lower``, the faces one dimension down.
    """
    index = {s: i for i, s in enumerate(lower)}
    return [{index[s[:i] + s[i + 1 :]]: -1 if i % 2 else 1 for i in range(len(s))} for s in upper]


def _elementary_divisors(columns: list[dict[int, int]]) -> list[int]:
    """The nonzero Smith normal form diagonal of a sparse integer matrix.

    Eliminates unit pivots first, taking the shortest column and, within
    it, the +-1 entry of the shortest row; each one is a ``1`` on the
    diagonal.  What is left has no unit entry and goes to
    :func:`smith_normal_form`.  ``columns`` is consumed.
    """
    cols = {j: c for j, c in enumerate(columns) if c}
    rows: dict[int, set[int]] = {}
    for j, c in cols.items():
        for i in c:
            rows.setdefault(i, set()).add(j)
    # entries go stale when their column changes or goes; the fresh one is queued again
    queue = [(len(c), j) for j, c in cols.items()]
    heapify(queue)
    units = 0
    while queue:
        n, j = heappop(queue)
        col = cols.get(j)
        if col is None or len(col) != n:
            continue
        units_here = [i for i, v in col.items() if v == 1 or v == -1]
        if not units_here:
            continue
        i = min(units_here, key=lambda r: len(rows[r]))
        del cols[j]
        for r in col:
            rows[r].discard(j)
        p = col.pop(i)
        # subtract multiples of the pivot column to clear row i; then row i and
        # column j are gone and what remains is the Schur complement
        for j2 in rows.pop(i):
            c2 = cols[j2]
            f = c2.pop(i) * p
            for r, v in col.items():
                w = c2.get(r, 0) - f * v
                if w:
                    if r not in c2:
                        rows[r].add(j2)
                    c2[r] = w
                else:
                    del c2[r]
                    rows[r].discard(j2)
            if c2:
                heappush(queue, (len(c2), j2))
            else:
                del cols[j2]
        units += 1
    residual = list(cols.values())
    used = sorted({i for c in residual for i in c})
    rest = smith_normal_form([[c.get(i, 0) for c in residual] for i in used])
    return [1] * units + [d for d in rest if d]


def homology(K: SimplicialComplex) -> HomologyResult:
    """Integral simplicial homology from the Smith normal forms of the boundaries.

    Each boundary is reduced sparsely by unit pivots, which are unimodular
    and so exact over Z, and the residual block without unit entries by
    the dense :func:`smith_normal_form`.  The diagonal ``[1] * units``
    followed by that of the residual keeps the divisibility chain, so
    torsion coefficients come out in Smith order.
    """
    if not K.labels or not K.maximal:
        return HomologyResult((), (), K.flags)
    grades = K.simplices()
    dim = len(grades) - 1
    diags: list[list[int]] = [[] for _ in range(dim + 2)]
    for k in range(1, dim + 1):
        diags[k] = _elementary_divisors(_boundary(grades[k - 1], grades[k]))
    betti = []
    torsion = []
    for k in range(dim + 1):
        betti.append(len(grades[k]) - len(diags[k]) - len(diags[k + 1]))
        torsion.append(tuple(x for x in diags[k + 1] if x > 1))
    return HomologyResult(tuple(betti), tuple(torsion), K.flags)


def betti(K: SimplicialComplex) -> tuple[int, ...]:
    return homology(K).betti


def euler(K: SimplicialComplex) -> int:
    """Alternating sum of simplex counts."""
    return sum((-1) ** k * c for k, c in enumerate(K.simplex_counts()))


def components(K: SimplicialComplex) -> int:
    """Connected components of the vertices that lie in some maximal simplex.

    A union-find over the maximal simplices; equal to ``betti(K)[0]``, and
    0 for a complex without simplices.
    """
    parent: dict[int, int] = {}

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for s in K.maximal:
        for v in s:
            parent.setdefault(v, v)
        for v in s[1:]:
            parent[root(v)] = root(s[0])
    return sum(1 for v in parent if parent[v] == v)
