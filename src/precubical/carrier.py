"""Points of the geometric realization: canonical forms, collars, stars.

A point is stored as a carrier cube plus exact rational local coordinates.
Canonicalization moves a point to the face its coordinates at 0 or 1
name, read from the carrier's face table, leaving interior coordinates
only; the canonical form is unique, which makes point equality a plain
comparison.  All predicates work on the set of representatives of a
point, so they remain correct on self-linked complexes where the
quotient map identifies boundary points.
"""

from __future__ import annotations

import math
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

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)


def _rational(x, what: str = "value") -> Fraction:
    """``x`` as a ``Fraction``, or a :class:`PrecubicalError` naming it if it is not a rational number."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise PrecubicalError(f"{what} must be a rational number, got {x!r}") from None


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
        coords = tuple(x if isinstance(x, Fraction) else _rational(x, "coordinate") for x in self.coords)
        object.__setattr__(self, "coords", coords)
        for x in self.coords:
            if not 0 <= x.numerator <= x.denominator:
                raise PrecubicalError(f"coordinate {x} outside [0, 1]")

    def is_vertex(self) -> bool:
        return not self.coords


def canonicalize(X: CubeSet, p: Point) -> Point:
    """Push a point to its minimal carrier face.

    The coordinates equal to 0 or 1 spell, with ``*`` for the others, a
    face word of the carrier; the point's canonical carrier is that face,
    read from the cached ``iterated_faces`` table, and its coordinates are
    the remaining interior ones.  Idempotent.
    """
    if len(p.coords) != X.dim(p.cube):
        raise PrecubicalError(f"point has {len(p.coords)} coordinates but cube {p.cube!r} has dimension {X.dim(p.cube)}")
    word = _face_word(p.coords)
    return Point(X.iterated_faces(p.cube)[word], tuple([x for x, ch in zip(p.coords, word) if ch == "*"]))


def _face_word(coords: Iterable[Fraction]) -> str:
    """The face word coordinates spell: ``0`` and ``1`` where they are 0 or 1, ``*`` elsewhere."""
    return "".join(["0" if x.numerator == 0 else "1" if x.numerator == x.denominator else "*" for x in coords])


def face(X: CubeSet, cid: str, fp: FacePartition) -> str:
    """The iterated face of a cube named by a partition of its axes."""
    if fp.n != X.dim(cid):
        raise PrecubicalError(f"partition over {fp.n} axes applied to {X.dim(cid)}-cube {cid!r}")
    return X.iterated_face(cid, fp.word())


def representatives(X: CubeSet, p: Point) -> list[tuple[str, tuple[Fraction, ...]]]:
    """All ``(cube, coords)`` pairs mapping to ``p`` under the quotient.

    ``p`` is canonicalized first.  Each representative arises from one
    location of the canonical carrier as an iterated face of a bigger cube,
    with the interior coordinates slotted into the free axes.
    """
    p = canonicalize(X, p)
    return [(cube, _embed(word, p.coords)) for cube, word in X.face_locations(p.cube)]


def _embed(word: str, interior: Iterable[Fraction]) -> tuple[Fraction, ...]:
    """The coordinates of a point of the face named by ``word`` in its cube.

    Axes frozen at 0 or 1 take that value; the free axes take ``interior``
    in order.
    """
    it = iter(interior)
    return tuple(ZERO if ch == "0" else ONE if ch == "1" else next(it) for ch in word)


def _coords_in(X: CubeSet, p: Point, cube: str) -> list[tuple[Fraction, ...]]:
    """The coordinates of every representative of the canonical ``p`` in ``cube``."""
    return [_embed(word, p.coords) for word in X._locations_of(p.cube).get(cube, ())]


def _sides(coords: Iterable[Fraction]) -> str:
    """The side of 1/2 of each coordinate: ``0`` below, ``1`` above, ``*`` on it.

    A coordinate ``n/d`` is below 1/2 exactly when ``2*n < d``.
    """
    return "".join(["0" if 2 * x.numerator < x.denominator else "1" if 2 * x.numerator > x.denominator else "*" for x in coords])


def _in_box(sides: str, word: str) -> bool:
    # Half-open collar box of the face named by ``word``: strictly below 1/2
    # on axes frozen at 0, strictly above on axes frozen at 1; free axes
    # are unconstrained.  ``sides`` are the point's sides of 1/2 (:func:`_sides`).
    return all(ch == "*" or ch == side for ch, side in zip(word, sides))


def in_collar(X: CubeSet, p: Point, cid: str, fp: FacePartition) -> bool:
    """Whether ``p`` lies in the collar box of one named face of ``cid``.

    True iff some representative of ``p`` in ``cid`` has coordinates below
    1/2 on the frozen-at-0 axes and above 1/2 on the frozen-at-1 axes.
    """
    if fp.n != X.dim(cid):
        raise PrecubicalError(f"partition over {fp.n} axes applied to {X.dim(cid)}-cube {cid!r}")
    word = fp.word()
    return any(_in_box(_sides(coords), word) for coords in _coords_in(X, canonicalize(X, p), cid))


def in_face_collar(X: CubeSet, p: Point, d: str) -> bool:
    """Whether ``p`` lies in the collar of the cube ``d`` inside the complex.

    The collar is the union of the collar boxes of every location of every
    iterated face of ``d`` (including ``d`` itself).  It is read in the
    point's own canonical cube, as :func:`_in_collar_boxes` explains.
    """
    p = canonicalize(X, p)
    return _in_collar_boxes(p.cube, _sides(p.coords), X._collar(d))


def _in_collar_boxes(cube: str, sides: str, collar: dict[str, list[tuple[str, str]]]) -> bool:
    """Whether a canonical point ``p`` lies in one of the boxes of ``collar``.

    ``p`` is given by its cube c and the :func:`_sides` of its coordinates,
    which are all a box reads.  ``collar`` is a cube's collar table from
    ``X._collar``, and only the boxes in c are tested.  That decides
    membership on every complex that passes ``validate`` (the locations
    index refuses any other): say a box ``g`` of a carrier C
    of c holds the representative of ``p`` at the location ``w`` of c in
    C.  That representative is 0 or 1 on the frozen axes of ``w``, so
    ``g`` agrees with ``w`` wherever it freezes one of them, and ``g``
    read on the free axes of ``w`` is a box of c that holds ``p``.  That
    box locates in c the face of C named by ``w`` on its frozen axes and
    by ``g`` elsewhere, an iterated face of the face ``g`` names; by the
    pre-cubical relations it is an iterated face of the collar's cube, so
    the table lists it.  A path scan tests its samples by cube and sides
    without building their coordinates.
    """
    return any(_in_box(sides, box) for box, _ in collar.get(cube, ()))


def in_star(X: CubeSet, p: Point, v: str) -> bool:
    """Whether ``p`` lies in the star of the vertex ``v``.

    The star is the collar of a vertex: the union over all cofaces of the
    vertex-face collar boxes (partitions with no free axes).
    """
    if X.dim(v) != 0:
        raise PrecubicalError(f"star is defined for vertices; {v!r} has dimension {X.dim(v)}")
    return in_face_collar(X, p, v)


def _common_rep_pairs(X: CubeSet, p: Point, q: Point) -> list[tuple[str, tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Every ``(cube, p coords, q coords)`` of the two points in a shared carrier, or raise."""
    p = canonicalize(X, p)
    q = canonicalize(X, q)
    p_locations = X._locations_of(p.cube)
    pairs = [
        (cube, _embed(word_p, p.coords), _embed(word_q, q.coords))
        for cube, words_q in X._locations_of(q.cube).items()
        for word_q in words_q
        for word_p in p_locations.get(cube, ())
    ]
    if not pairs:
        raise NoCommonCarrierError(f"points {p} and {q} share no carrier cube")
    return pairs


def l1_distance_in_cube(X: CubeSet, p: Point, q: Point) -> Fraction:
    """Manhattan distance between two points of a shared carrier cube.

    When several carriers exist the minimum over representative pairs is
    returned; on proper non-self-linked complexes all pairs agree.
    """
    return _pairs_distance(_common_rep_pairs(X, p, q))


def leq_in_cube(X: CubeSet, p: Point, q: Point) -> bool:
    """Componentwise order of two points inside some shared carrier cube."""
    return _pairs_ordered(_common_rep_pairs(X, p, q))


def _pairs_distance(pairs) -> Fraction:
    """The least Manhattan distance over representative pairs of :func:`_common_rep_pairs`, each one ``Fraction`` of integer numerators."""
    out = []
    for _, cp, cq in pairs:
        den = math.lcm(*[x.denominator for x in cp + cq])
        out.append(Fraction(sum([abs(a.numerator * (den // a.denominator) - b.numerator * (den // b.denominator)) for a, b in zip(cp, cq)]), den))
    return min(out)


def _pairs_ordered(pairs) -> bool:
    """Whether some representative pair of :func:`_common_rep_pairs` is componentwise ordered."""
    return any(all(a <= b for a, b in zip(cp, cq)) for _, cp, cq in pairs)


def hyperplane_level(X: CubeSet, p: Point) -> int | None:
    """The integer diagonal level of a point, when it lies on one.

    A point of an n-cube is on level k (with 0 < k < n) when its coordinate
    sum in some maximal carrier equals k.  Vertices report their canonical
    coordinate sum, which is trivially 0.
    """
    p = canonicalize(X, p)
    if p.is_vertex():
        return 0
    carriers = X._locations_of(p.cube)
    levels = set()
    for cube, words in carriers.items():
        if any(other != cube and other in carriers for other in X._locations_of(cube)):
            continue  # not maximal: a face of another carrier
        n = X.dim(cube)
        for word in words:
            s = sum(_embed(word, p.coords), Fraction(0))
            if s.denominator == 1 and 0 < s < n:
                levels.add(int(s))
    if not levels:
        return None
    return min(levels)
