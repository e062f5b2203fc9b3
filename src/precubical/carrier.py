"""Points of the geometric realization: canonical forms, collars, stars.

A point is stored as a carrier cube plus exact rational local coordinates.
Canonicalization strips coordinates sitting at 0 or 1 through the face
maps until the remaining coordinates are interior; the canonical form is
unique, which makes point equality a plain comparison.  All predicates
work on the set of representatives of a point, so they remain correct on
self-linked complexes where the quotient map identifies boundary points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .cubeset import CubeSet
from .errors import NoCommonCarrierError, PrecubicalError

__all__ = [
    "FacePartition",
    "Point",
    "canonicalize",
    "face",
    "in_collar",
    "in_face_collar",
    "in_star",
    "l1_distance_in_cube",
    "leq_in_cube",
    "hyperplane_level",
    "representatives",
]

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class FacePartition:
    """A partition of the axes 1..n into frozen-at-0, free, and frozen-at-1.

    Equivalent to a word over ``{0, *, 1}``; ``FacePartition.from_word("0*1")``
    freezes axis 1 at 0, keeps axis 2, and freezes axis 3 at 1.
    """

    n: int
    at0: frozenset[int]
    free: frozenset[int]
    at1: frozenset[int]

    def __post_init__(self):
        all_axes = frozenset(range(1, self.n + 1))
        if self.at0 | self.free | self.at1 != all_axes or len(self.at0) + len(self.free) + len(self.at1) != self.n:
            raise PrecubicalError(f"not an exact partition of 1..{self.n}: {self}")

    @classmethod
    def from_word(cls, word: str) -> "FacePartition":
        at0 = frozenset(i + 1 for i, ch in enumerate(word) if ch == "0")
        free = frozenset(i + 1 for i, ch in enumerate(word) if ch == "*")
        at1 = frozenset(i + 1 for i, ch in enumerate(word) if ch == "1")
        if len(at0) + len(free) + len(at1) != len(word):
            raise PrecubicalError(f"bad face word {word!r}")
        return cls(len(word), at0, free, at1)

    @classmethod
    def of_sets(cls, n: int, at0: Iterable[int], free: Iterable[int], at1: Iterable[int]) -> "FacePartition":
        return cls(n, frozenset(at0), frozenset(free), frozenset(at1))

    @classmethod
    def identity(cls, n: int) -> "FacePartition":
        return cls(n, frozenset(), frozenset(range(1, n + 1)), frozenset())

    def word(self) -> str:
        return "".join("0" if i in self.at0 else "1" if i in self.at1 else "*" for i in range(1, self.n + 1))

    def is_vertex(self) -> bool:
        return not self.free


@dataclass(frozen=True)
class Point:
    """A location in the geometric realization: carrier cube plus coordinates."""

    cube: str
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in self.coords)
        object.__setattr__(self, "coords", coords)
        for x in self.coords:
            if not 0 <= x <= 1:
                raise PrecubicalError(f"coordinate {x} outside [0, 1]")

    def is_vertex(self) -> bool:
        return not self.coords


def canonicalize(X: CubeSet, p: Point) -> Point:
    """Push a point to its minimal carrier face.

    Strips coordinates equal to 0 or 1 (lowest axis first) through the face
    maps until all remaining coordinates are interior.  Idempotent.
    """
    cube = p.cube
    coords = list(p.coords)
    if len(coords) != X.dim(cube):
        raise PrecubicalError(f"point has {len(coords)} coordinates but cube {cube!r} has dimension {X.dim(cube)}")
    while True:
        for i, x in enumerate(coords):
            if x == 0 or x == 1:
                cube = X.face(cube, i + 1, int(x))
                del coords[i]
                break
        else:
            return Point(cube, tuple(coords))


def face(X: CubeSet, cid: str, fp: FacePartition) -> str:
    """The iterated face of a cube named by a partition of its axes."""
    if fp.n != X.dim(cid):
        raise PrecubicalError(f"partition over {fp.n} axes applied to {X.dim(cid)}-cube {cid!r}")
    return X.iterated_face(cid, fp.word())


def representatives(X: CubeSet, p: Point) -> list[tuple[str, tuple[Fraction, ...]]]:
    """All ``(cube, coords)`` pairs mapping to ``p`` under the quotient.

    ``p`` must be canonical.  Each representative arises from one location
    of the carrier as an iterated face of a bigger cube, with the interior
    coordinates slotted into the free axes.
    """
    out: list[tuple[str, tuple[Fraction, ...]]] = []
    for cube, word in X.face_locations(p.cube):
        coords: list[Fraction] = []
        it = iter(p.coords)
        for ch in word:
            if ch == "*":
                coords.append(next(it))
            else:
                coords.append(Fraction(int(ch)))
        out.append((cube, tuple(coords)))
    return out


def _in_box(coords: tuple[Fraction, ...], word: str) -> bool:
    # Half-open collar box of the face named by ``word``: strictly below 1/2
    # on axes frozen at 0, strictly above on axes frozen at 1; free axes
    # are unconstrained.
    return all(ch == "*" or (x < HALF if ch == "0" else x > HALF) for x, ch in zip(coords, word))


def in_collar(X: CubeSet, p: Point, cid: str, fp: FacePartition) -> bool:
    """Whether ``p`` lies in the collar box of one named face of ``cid``.

    True iff some representative of ``p`` in ``cid`` has coordinates below
    1/2 on the frozen-at-0 axes and above 1/2 on the frozen-at-1 axes.
    """
    if fp.n != X.dim(cid):
        raise PrecubicalError(f"partition over {fp.n} axes applied to {X.dim(cid)}-cube {cid!r}")
    p = canonicalize(X, p)
    word = fp.word()
    return any(cube == cid and _in_box(coords, word) for cube, coords in representatives(X, p))


def _collar_boxes(X: CubeSet, d: str) -> dict[str, list[str]]:
    """The face words of the collar boxes of ``d``, by cube; built once per complex."""
    boxes = X._collars.get(d)
    if boxes is None:
        boxes = {}
        for e in sorted(X.iterated_face_ids(d)):
            for cube, word in X.face_locations(e):
                boxes.setdefault(cube, []).append(word)
        X._collars[d] = boxes
    return boxes


def in_face_collar(X: CubeSet, p: Point, d: str) -> bool:
    """Whether ``p`` lies in the collar of the cube ``d`` inside the complex.

    The collar is the union of the collar boxes of every location of every
    iterated face of ``d`` (including ``d`` itself).
    """
    reps = representatives(X, canonicalize(X, p))
    boxes = _collar_boxes(X, d)
    return any(_in_box(coords, word) for cube, coords in reps for word in boxes.get(cube, ()))


def in_star(X: CubeSet, p: Point, v: str) -> bool:
    """Whether ``p`` lies in the star of the vertex ``v``.

    The star is the collar of a vertex: the union over all cofaces of the
    vertex-face collar boxes (partitions with no free axes).
    """
    if X.dim(v) != 0:
        raise PrecubicalError(f"star is defined for vertices; {v!r} has dimension {X.dim(v)}")
    return in_face_collar(X, p, v)


def _common_rep_pairs(X: CubeSet, p: Point, q: Point):
    p = canonicalize(X, p)
    q = canonicalize(X, q)
    p_reps: dict[str, list[tuple[Fraction, ...]]] = {}
    for cube, coords in representatives(X, p):
        p_reps.setdefault(cube, []).append(coords)
    pairs = []
    for cube, coords_q in representatives(X, q):
        for coords_p in p_reps.get(cube, ()):
            pairs.append((cube, coords_p, coords_q))
    if not pairs:
        raise NoCommonCarrierError(f"points {p} and {q} share no carrier cube")
    return pairs


def l1_distance_in_cube(X: CubeSet, p: Point, q: Point) -> Fraction:
    """Manhattan distance between two points of a shared carrier cube.

    When several carriers exist the minimum over representative pairs is
    returned; on proper non-self-linked complexes all pairs agree.
    """
    return min(
        sum((abs(a - b) for a, b in zip(cp, cq)), Fraction(0))
        for _, cp, cq in _common_rep_pairs(X, p, q)
    )


def leq_in_cube(X: CubeSet, p: Point, q: Point) -> bool:
    """Componentwise order of two points inside some shared carrier cube."""
    return any(
        all(a <= b for a, b in zip(cp, cq))
        for _, cp, cq in _common_rep_pairs(X, p, q)
    )


def hyperplane_level(X: CubeSet, p: Point) -> int | None:
    """The integer diagonal level of a point, when it lies on one.

    A point of an n-cube is on level k (with 0 < k < n) when its coordinate
    sum in some maximal carrier equals k.  Vertices report their canonical
    coordinate sum, which is trivially 0.
    """
    p = canonicalize(X, p)
    if p.is_vertex():
        return 0
    carriers: dict[str, list[tuple[Fraction, ...]]] = {}
    for cube, coords in representatives(X, p):
        carriers.setdefault(cube, []).append(coords)
    maximal = [
        c for c in carriers
        if not any(other != c and c in X.iterated_face_ids(other) for other in carriers)
    ]
    levels = set()
    for cube in maximal:
        n = X.dim(cube)
        for coords in carriers[cube]:
            s = sum(coords, Fraction(0))
            if s.denominator == 1 and 0 < s < n:
                levels.add(int(s))
    if not levels:
        return None
    return min(levels)
