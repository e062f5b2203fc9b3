"""Cube chains, the refinement poset, finest chains, and common refinements.

A cube chain between two vertices is a sequence of positive-dimensional
cubes in which each cube's top vertex is the next one's bottom vertex.
Refinement (replacing a cube by a complementary lower/upper face pair,
closed reflexively and transitively) partially orders the chains between
fixed endpoints; that poset is the combinatorial skeleton of the schedule
space and feeds the nerve computations.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .carrier import HALF, Point, in_face_collar, in_star
from .cubeset import CubeSet, source_vertex, target_vertex
from .dpath import PLPath, Segment, _interp, _piece_events, _with_midpoints, evaluate, is_strict
from .errors import PrecubicalError

__all__ = [
    "CubeChain",
    "RefinementPoset",
    "NO_COARSEST",
    "elementary_refinements",
    "refines",
    "enumerate_chains",
    "finest_chain",
    "subordinate_to_collar",
    "refinement_set",
    "coarsest_common_refinement",
    "common_refinement_exists",
    "chain_diagonal",
]

@dataclass(frozen=True)
class CubeChain:
    """An ordered run of positive-dimensional cubes between two vertices.

    The empty chain is permitted only between equal endpoints.
    """

    source: str
    target: str
    cubes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "cubes", tuple(self.cubes))
        if not self.cubes and self.source != self.target:
            raise PrecubicalError("an empty chain needs equal endpoints")

    def validate(self, X: CubeSet) -> None:
        prev = self.source
        for c in self.cubes:
            if X.dim(c) < 1:
                raise PrecubicalError(f"chain cube {c!r} has dimension 0")
            if source_vertex(X, c) != prev:
                raise PrecubicalError(f"chain breaks at {c!r}: source {source_vertex(X, c)!r} != {prev!r}")
            prev = target_vertex(X, c)
        if prev != self.target:
            raise PrecubicalError(f"chain ends at {prev!r}, declared target {self.target!r}")

    def vertex_sequence(self, X: CubeSet) -> tuple[str, ...]:
        seq = [self.source]
        for c in self.cubes:
            seq.append(target_vertex(X, c))
        return tuple(seq)

    def length(self, X: CubeSet) -> int:
        return sum(X.dim(c) for c in self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)


class _NoCoarsest:
    """Sentinel outcome: common refinements exist but none is coarsest."""

    def __repr__(self) -> str:
        return "NO_COARSEST"


NO_COARSEST = _NoCoarsest()

def elementary_refinements(X: CubeSet, chain: CubeChain) -> list[CubeChain]:
    """All chains arising by splitting one cube into a lower/upper face pair.

    Splitting an n-cube along a proper non-empty axis set ``J`` yields the
    lower face with word ``0`` on ``J`` and ``*`` elsewhere, followed by the
    upper face with word ``*`` on ``J`` and ``1`` elsewhere; the two share
    the intermediate vertex.  The pairs are read from the complex's cached
    split table.  Splits are taken cube by cube, ``J`` in lexicographic
    order by size, and results are deduplicated.
    """
    unique = dict.fromkeys(_single_splits(X, chain.cubes))
    return [CubeChain(chain.source, chain.target, cubes) for cubes in unique]


def _single_splits(X: CubeSet, cubes: tuple[str, ...]) -> Iterable[tuple[str, ...]]:
    """The cube tuples splitting one cube of ``cubes`` along one pair of its split table, cube by cube."""
    for k, c in enumerate(cubes):
        head, tail = cubes[:k], cubes[k + 1 :]
        for split in X._splits_of(c):
            yield head + split + tail


def refinement_set(X: CubeSet, chain: CubeChain) -> set[CubeChain]:
    """The reflexive-transitive closure of elementary refinements.

    Refinements split the cubes independently, so the closure is the
    product of the sets of blocks refining each cube alone: the cube
    itself, or a refinement of the lower face of a split followed by one
    of the upper face.
    """
    blocks: dict[str, set[tuple[str, ...]]] = {}

    def refining(c: str) -> set[tuple[str, ...]]:
        if c not in blocks:
            found = {(c,)}
            for lower, upper in X._splits_of(c):
                uppers = refining(upper)
                found.update(head + tail for head in refining(lower) for tail in uppers)
            blocks[c] = found
        return blocks[c]

    products = itertools.product(*map(refining, chain.cubes))
    return {CubeChain(chain.source, chain.target, sum(parts, ())) for parts in products}


def refines(X: CubeSet, fine: CubeChain, coarse: CubeChain) -> bool:
    """Whether ``fine`` arises from ``coarse`` by elementary refinements.

    A split keeps dimensions additive, so ``fine`` must cut into
    consecutive blocks, one per cube of ``coarse`` with the same total
    dimension, each refining that cube alone.  A block refines a cube if it
    is that cube, or if for some split its cut at the lower face's
    dimension refines the lower face and the rest refines the upper face.
    A block holds at least one cube.
    """
    if (fine.source, fine.target) != (coarse.source, coarse.target):
        raise PrecubicalError("refines compares chains with equal endpoints")
    cubes = fine.cubes

    def cut(start: int, n: int) -> int:
        stop, dim = start, 0
        while stop < len(cubes) and (stop == start or dim < n):
            dim += X.dim(cubes[stop])
            stop += 1
        return stop

    @functools.cache
    def block_refines(start: int, stop: int, c: str) -> bool:
        if cubes[start:stop] == (c,):
            return True
        for lower, upper in X._splits_of(c):
            mid = cut(start, X.dim(lower))
            if mid < stop and block_refines(start, mid, lower) and block_refines(mid, stop, upper):
                return True
        return False

    start = 0
    for c in coarse.cubes:
        stop = cut(start, X.dim(c))
        if not block_refines(start, stop, c):
            return False
        start = stop
    return start == len(cubes)


@dataclass(frozen=True)
class RefinementPoset:
    """All cube chains between two vertices, ordered by refinement.

    ``covers`` holds index pairs ``(coarser, finer)`` generated by
    elementary refinements.  ``truncated`` is set when some enumeration
    branch was cut at ``max_length`` while still extendable, in which case
    the poset is a lower approximation.  ``proper_non_self_linked`` records
    whether the complex was proper and non-self-linked, so whether its
    nerves carry the nerve-lemma guarantee.
    """

    source: str
    target: str
    objects: tuple[CubeChain, ...]
    covers: tuple[tuple[int, int], ...]
    truncated: bool
    max_length: int
    proper_non_self_linked: bool

    def index(self, chain: CubeChain) -> int:
        return self.objects.index(chain)

    def upsets(self, indices: Iterable[int]) -> list[tuple[int, ...]]:
        """For each index i, the sorted indices of the objects that object i refines.

        Object i itself is included; each up-set is a depth-first search
        from i over the coarser side of the covers.
        """
        coarser: list[list[int]] = [[] for _ in self.objects]
        for coarse, fine in self.covers:
            coarser[fine].append(coarse)
        out = []
        for i in indices:
            seen = {i}
            stack = [i]
            while stack:
                for j in coarser[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            out.append(tuple(sorted(seen)))
        return out

    def refines_matrix(self) -> list[list[bool]]:
        """``m[i][j]`` iff object i refines object j (i finer or equal)."""
        n = len(self.objects)
        m = [[False] * n for _ in range(n)]
        for i, up in enumerate(self.upsets(range(n))):
            for j in up:
                m[i][j] = True
        return m


def enumerate_chains(X: CubeSet, source: str, target: str, max_length: int) -> RefinementPoset:
    """Enumerate every cube chain between two vertices up to ``max_length``.

    Depth-first extension over cubes with matching source vertex; loops are
    allowed, so the bound is mandatory.  Results are ordered canonically by
    (cube count, id list) and covers are restricted to enumerated objects.
    """
    if X.dim(source) != 0 or X.dim(target) != 0:
        raise PrecubicalError("chain endpoints must be vertices")
    found: list[tuple[str, ...]] = []
    truncated = False
    # depth-first over (vertex, cubes so far, length), so long chains need no recursion
    stack: list[tuple[str, tuple[str, ...], int]] = [(source, (), 0)]
    while stack:
        vertex, cubes, length = stack.pop()
        if vertex == target:
            found.append(cubes)
        for c in X.cubes_from(vertex):
            d = X.dim(c)
            if length + d > max_length:
                truncated = True
            else:
                stack.append((target_vertex(X, c), cubes + (c,), length + d))
    # each chain is reached once: distinct stack entries hold distinct cube tuples
    found.sort(key=lambda cs: (len(cs), cs))
    index = {cubes: i for i, cubes in enumerate(found)}
    covers: list[tuple[int, int]] = []
    for i, cubes in enumerate(found):
        finer = {j for j in map(index.get, _single_splits(X, cubes)) if j is not None}
        covers.extend((i, j) for j in sorted(finer))
    objects = tuple(CubeChain(source, target, cubes) for cubes in found)
    return RefinementPoset(source, target, objects, tuple(covers), truncated, max_length, X.proper_non_self_linked())


# -- the finest chain of a strict path ---------------------------------------


def middle_crossings(X: CubeSet, p: PLPath) -> list[tuple[Fraction, str]]:
    """All crossings of the coordinate-1/2 hyperplanes as ``(time, face)`` pairs.

    Segment by segment, in time order.  A strict path meets each middle
    hyperplane of a segment cube at most once.  The face of a crossing has
    the word ``*`` on the coordinates equal to 1/2 at that time, ``0`` on
    those below and ``1`` on those above, so simultaneous crossings give a
    single pair.
    """
    out: list[tuple[Fraction, str]] = []
    for seg in p.segments:
        faces = X.iterated_faces(seg.cube)
        times = set(_piece_events(seg))
        times.update(t for t, coords in seg.points if HALF in coords)
        for t in sorted(times):
            word = "".join("*" if x == HALF else "0" if x < HALF else "1" for x in _interp(seg, t))
            if "*" in word:
                out.append((t, faces[word]))
    return out


def finest_chain(X: CubeSet, p: PLPath) -> CubeChain:
    """The chain of middle-hyperplane faces crossed by a strict path.

    Each crossing classifies the segment-cube axes into below / at / above
    1/2 and contributes the face frozen accordingly; crossings shared by
    two presentation segments at their junction produce the same face and
    are merged.  Vertex endpoints are required; a path with no crossings
    yields the empty chain.
    """
    if not is_strict(X, p):
        raise PrecubicalError("finest_chain expects a strict path")
    start = p.start_point(X)
    end = p.end_point(X)
    if not start.is_vertex() or not end.is_vertex():
        raise PrecubicalError("finest_chain expects a path between vertices")
    cubes: list[str] = []
    last = None
    for crossing in middle_crossings(X, p):
        if crossing != last:
            cubes.append(crossing[1])
        last = crossing
    chain = CubeChain(start.cube, end.cube, tuple(cubes))
    chain.validate(X)
    return chain


# -- subordination to a collar -------------------------------------------------


def subordinate_to_collar(X: CubeSet, p: PLPath, chain: CubeChain) -> bool:
    """Whether the path admits cuts placing each stage in one collar.

    Greedy scan over the sample times (breakpoints, 1/2-crossings, and
    interval midpoints): stage i must stay inside the collar of the i-th
    chain cube and each cut value must lie in the star of the junction
    vertex.  Cuts are taken as late as possible, which is optimal because
    a later cut only shrinks the remaining constraint intervals.
    """
    if p.start_point(X) != Point(chain.source, ()):
        raise PrecubicalError("path and chain sources differ")
    if p.end_point(X) != Point(chain.target, ()):
        raise PrecubicalError("path and chain targets differ")
    samples = _with_midpoints(itertools.chain(p._time_index[1], *map(_piece_events, p.segments)))
    pts = {t: evaluate(X, p, t) for t in samples}
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


# -- common refinements --------------------------------------------------------


def common_refinement_exists(X: CubeSet, chains) -> bool:
    """Whether a set of chains has a common refinement.

    Computed by intersecting the enumerated refinement sets pairwise.
    """
    chains = list(chains)
    if not chains:
        raise PrecubicalError("need at least one chain")
    endpoints = {(c.source, c.target) for c in chains}
    if len(endpoints) != 1:
        raise PrecubicalError("chains must share endpoints")
    common = refinement_set(X, chains[0])
    for c in chains[1:]:
        common &= refinement_set(X, c)
        if not common:
            return False
    return True


def coarsest_common_refinement(X: CubeSet, a: CubeChain, b: CubeChain):
    """The coarsest common refinement of two chains, if one exists.

    Returns a chain, ``None`` when the chains have no common refinement, or
    :data:`NO_COARSEST` when common refinements exist but no coarsest one.
    On proper non-self-linked complexes a refinement passes every vertex
    of the chains it refines, at the same dimension position, and the cube
    between two vertices is unique, so only one candidate can be coarsest:
    it passes exactly the vertices of both chains.  Otherwise the
    refinement sets are intersected directly.
    """
    if (a.source, a.target) != (b.source, b.target):
        raise PrecubicalError("chains must share endpoints")
    if not X.proper_non_self_linked():
        return _ccr_brute(X, a, b)
    passes = {0: a.source}
    for chain in (a, b):
        position = 0
        for c in chain.cubes:
            position += X.dim(c)
            v = target_vertex(X, c)
            if passes.setdefault(position, v) != v:
                return None
    vertices = [passes[position] for position in sorted(passes)]
    cubes = []
    for v, w in zip(vertices, vertices[1:]):
        joins = [c for c in X.cubes_from(v) if target_vertex(X, c) == w]
        if not joins:
            return None
        cubes.append(joins[0])
    candidate = CubeChain(a.source, a.target, tuple(cubes))
    return candidate if refines(X, candidate, a) and refines(X, candidate, b) else None


def _ccr_brute(X: CubeSet, a: CubeChain, b: CubeChain):
    """The coarsest common refinement from the intersected refinement sets.

    Common refinements are closed under refining, so one is maximal exactly
    when it is no elementary refinement of another; several maximal ones
    give :data:`NO_COARSEST`.
    """
    common = refinement_set(X, a) & refinement_set(X, b)
    if not common:
        return None
    maximal = common.difference(*(elementary_refinements(X, c) for c in common))
    if len(maximal) == 1:
        return maximal.pop()
    return NO_COARSEST


# -- canonical witness paths ---------------------------------------------------


def chain_diagonal(X: CubeSet, chain: CubeChain) -> PLPath:
    """The constant-speed diagonal path through a chain's cubes.

    Runs each cube from its bottom to its top vertex along the diagonal; a
    canonical strict tame path subordinate to the chain (and its collar).
    """
    chain.validate(X)
    n = len(chain.cubes)
    if n == 0:
        return PLPath((Segment(chain.source, ((Fraction(0), ()), (Fraction(1), ()))),))
    segments = []
    for i, c in enumerate(chain.cubes):
        d = X.dim(c)
        zero = (Fraction(0),) * d
        one = (Fraction(1),) * d
        segments.append(Segment(c, ((Fraction(i, n), zero), (Fraction(i + 1, n), one))))
    return PLPath(tuple(segments))
