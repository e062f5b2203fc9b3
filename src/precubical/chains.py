"""Cube chains, the refinement poset, finest chains, and common refinements.

A cube chain between two vertices is a sequence of positive-dimensional
cubes in which each cube's top vertex is the next one's bottom vertex.
Refinement (replacing a cube by a complementary lower/upper face pair,
closed reflexively and transitively) partially orders the chains between
fixed endpoints; that poset is the combinatorial skeleton of the schedule
space and feeds the nerve computations.
"""

from __future__ import annotations

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

# a lower face word to the word of its complementary upper face: free axes freeze at 1, 0-axes become free
_UPPER = str.maketrans("0*", "*1")


def elementary_refinements(X: CubeSet, chain: CubeChain) -> list[CubeChain]:
    """All chains arising by splitting one cube into a lower/upper face pair.

    Splitting an n-cube along a proper non-empty axis set ``J`` yields the
    lower face with word ``0`` on ``J`` and ``*`` elsewhere, followed by the
    upper face with word ``*`` on ``J`` and ``1`` elsewhere; the two share
    the intermediate vertex.  Splits are taken cube by cube, ``J`` in
    lexicographic order by size, and results are deduplicated.
    """
    out: list[CubeChain] = []
    seen: set[tuple[str, ...]] = set()
    for i, c in enumerate(chain.cubes):
        n = X.dim(c)
        if n < 2:
            continue
        faces = X.iterated_faces(c)
        for r in range(1, n):
            for j0 in itertools.combinations(range(n), r):
                word = "".join("0" if a in j0 else "*" for a in range(n))
                lower, upper = faces[word], faces[word.translate(_UPPER)]
                cubes = chain.cubes[:i] + (lower, upper) + chain.cubes[i + 1 :]
                if cubes not in seen:
                    seen.add(cubes)
                    out.append(CubeChain(chain.source, chain.target, cubes))
    return out


def refinement_set(X: CubeSet, chain: CubeChain) -> set[CubeChain]:
    """The reflexive-transitive closure of elementary refinements."""
    seen = {chain}
    frontier = [chain]
    while frontier:
        cur = frontier.pop()
        for r in elementary_refinements(X, cur):
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return seen


def refines(X: CubeSet, fine: CubeChain, coarse: CubeChain) -> bool:
    """Whether ``fine`` arises from ``coarse`` by elementary refinements."""
    if (fine.source, fine.target) != (coarse.source, coarse.target):
        raise PrecubicalError("refines compares chains with equal endpoints")
    if fine == coarse:
        return True
    if fine.length(X) != coarse.length(X):
        return False
    fine_vertices = fine.vertex_sequence(X)

    def compatible(c: CubeChain) -> bool:
        # the vertex sequence of anything refining to `fine` must embed
        # into fine's vertex sequence in order
        it = iter(enumerate(fine_vertices))
        for v in c.vertex_sequence(X):
            for _, w in it:
                if w == v:
                    break
            else:
                return False
        return True

    seen = {coarse}
    frontier = [coarse]
    while frontier:
        cur = frontier.pop()
        for r in elementary_refinements(X, cur):
            if r == fine:
                return True
            if r not in seen and compatible(r):
                seen.add(r)
                frontier.append(r)
    return False


@dataclass(frozen=True)
class RefinementPoset:
    """All cube chains between two vertices, ordered by refinement.

    ``covers`` holds index pairs ``(coarser, finer)`` generated by
    elementary refinements.  ``truncated`` is set when some enumeration
    branch was cut at ``max_length`` while still extendable, in which case
    the poset is a lower approximation.
    """

    source: str
    target: str
    objects: tuple[CubeChain, ...]
    covers: tuple[tuple[int, int], ...]
    truncated: bool
    max_length: int

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
    objects = tuple(
        CubeChain(source, target, cubes)
        for cubes in sorted(set(found), key=lambda cs: (len(cs), cs))
    )
    index = {c.cubes: i for i, c in enumerate(objects)}
    covers: list[tuple[int, int]] = []
    for i, chain in enumerate(objects):
        for r in elementary_refinements(X, chain):
            j = index.get(r.cubes)
            if j is not None:
                covers.append((i, j))
    return RefinementPoset(source, target, objects, tuple(sorted(covers)), truncated, max_length)


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


def _lower_faces(X: CubeSet, cid: str) -> dict[str, str]:
    """Faces of a cube with the same bottom vertex: face id to face word.

    On a proper non-self-linked complex each such face id arises from a
    single word, so the mapping is well-defined.
    """
    return {fid: word for word, fid in X.iterated_faces(cid).items() if "1" not in word}


def _split_head(X: CubeSet, chain: CubeChain, lower_id: str, word: str) -> CubeChain:
    """Replace the head cube by the upper face left when ``lower_id`` (named by ``word``) is split off."""
    upper = X.iterated_faces(chain.cubes[0])[word.translate(_UPPER)]
    return CubeChain(target_vertex(X, lower_id), chain.target, (upper,) + chain.cubes[1:])


def coarsest_common_refinement(X: CubeSet, a: CubeChain, b: CubeChain):
    """The coarsest common refinement of two chains, if one exists.

    Returns a chain, ``None`` when the chains have no common refinement, or
    :data:`NO_COARSEST` when common refinements exist but no coarsest one.
    On proper non-self-linked complexes the head cubes are split off one at
    a time, in a loop; otherwise the refinement sets are intersected
    directly.
    """
    if (a.source, a.target) != (b.source, b.target):
        raise PrecubicalError("chains must share endpoints")
    if X.proper_non_self_linked():
        return _ccr_heads(X, a, b)
    return _ccr_brute(X, a, b)


def _ccr_heads(X: CubeSet, a: CubeChain, b: CubeChain):
    # split off the largest common lower face of the two head cubes until the
    # chains agree; the result is those heads followed by the agreed tail
    source, target = a.source, a.target
    heads: list[str] = []
    while True:
        if a == b:
            tail = a
            break
        if a.length(X) != b.length(X) or not a.cubes or not b.cubes:
            return None
        ha, hb = a.cubes[0], b.cubes[0]
        lower_a, lower_b = _lower_faces(X, ha), _lower_faces(X, hb)
        common = {d for d in lower_a.keys() & lower_b.keys() if X.dim(d) >= 1}
        if not common:
            return None
        top = max(X.dim(d) for d in common)
        best = [d for d in common if X.dim(d) == top]
        if len(best) != 1:
            # several largest common lower faces, which proper complexes allow (two
            # squares sharing both lower edges); fall back to the exhaustive route
            tail = _ccr_brute(X, a, b)
            break
        d = best[0]
        if d == ha:
            a = CubeChain(target_vertex(X, d), a.target, a.cubes[1:])
        else:
            a = _split_head(X, a, d, lower_a[d])
        if d == hb:
            b = CubeChain(target_vertex(X, d), b.target, b.cubes[1:])
        else:
            b = _split_head(X, b, d, lower_b[d])
        heads.append(d)
    if not heads or tail is None or tail is NO_COARSEST:
        return tail
    return CubeChain(source, target, tuple(heads) + tail.cubes)


def _ccr_brute(X: CubeSet, a: CubeChain, b: CubeChain):
    common = refinement_set(X, a) & refinement_set(X, b)
    if not common:
        return None
    maximal = [
        c for c in common
        if not any(o != c and refines(X, c, o) for o in common)
    ]
    if len(maximal) == 1:
        return maximal[0]
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
