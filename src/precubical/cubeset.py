"""Finite pre-cubical sets: representation, validation, and generators.

A pre-cubical set is a graded family of cubes with face maps
``d(i, alpha)`` sending an n-cube to an (n-1)-cube, for ``alpha`` in
{0, 1} and ``i`` in 1..n, subject to the relations

    d(i, a) d(j, b) = d(j-1, b) d(i, a)      for i < j.

Cubes carry explicit string ids and face maps are stored as total
tables rather than computed, so that self-linked complexes (where
combinatorial shortcuts fail) are representable.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .errors import PrecubicalError, UnknownCubeError

__all__ = [
    "CubeSet",
    "BoxSpec",
    "Violation",
    "validate",
    "source_vertex",
    "target_vertex",
    "is_proper",
    "is_non_self_linked",
    "full_cube",
    "boundary_cube",
    "euclidean",
    "z_complex",
    "q_complex",
]


@dataclass(frozen=True)
class Violation:
    """One defect found by :func:`validate`.

    ``kind`` is one of ``"missing-face"``, ``"unknown-face"``,
    ``"dimension"`` or ``"relation"``.
    """

    kind: str
    cube: str
    detail: str


class CubeSet:
    """An immutable finite pre-cubical set.

    ``cubes`` maps each cube id to its dimension; ``faces`` maps the id of
    each cube of positive dimension to a table ``{(i, alpha): face_id}``
    with ``i`` 1-based.  Instances are not mutated after construction and
    all queries are pure, so they are safe to share between threads.
    """

    def __init__(self, cubes: Mapping[str, int], faces: Mapping[str, Mapping[tuple[int, int], str]]):
        self._dims = dict(cubes)
        self._faces = {c: dict(t) for c, t in faces.items()}
        for cid, d in self._dims.items():
            if d < 0:
                raise PrecubicalError(f"cube {cid!r} has negative dimension {d}")
        # lazily built indexes, the one place every face lookup is read from:
        # face tables (iterated_faces; iterated_face reads one entry); end
        # vertices (_ends_of, the 0...0 and 1...1 entries of the face
        # tables); split tables (_splits_of, for chains); the locations
        # index (_locations_of, face -> {carrier: [words]}); and collar
        # tables (_collar, cube -> {carrier: [(box word, face word)]})
        self._iterated: dict[str, dict[str, str]] = {}
        self._ends: dict[str, tuple[str, str]] = {}
        self._splits: dict[str, tuple[tuple[str, str], ...]] = {}
        self._locations: dict[str, dict[str, tuple[str, ...]]] | None = None
        self._collars: dict[str, dict[str, list[tuple[str, str]]]] = {}
        self._by_source: dict[str, tuple[str, ...]] | None = None

    # -- basic queries ---------------------------------------------------

    def __contains__(self, cid: str) -> bool:
        return cid in self._dims

    def __len__(self) -> int:
        return len(self._dims)

    def dim(self, cid: str) -> int:
        try:
            return self._dims[cid]
        except KeyError:
            raise UnknownCubeError(f"unknown cube {cid!r}") from None

    def cubes(self) -> Iterator[str]:
        return iter(self._dims)

    def cubes_of_dim(self, n: int) -> list[str]:
        return sorted(c for c, d in self._dims.items() if d == n)

    def vertices(self) -> list[str]:
        return self.cubes_of_dim(0)

    def max_dim(self) -> int:
        return max(self._dims.values(), default=-1)

    def face(self, cid: str, i: int, alpha: int) -> str:
        n = self.dim(cid)
        if not 1 <= i <= n:
            raise PrecubicalError(f"face index {i} out of range for {n}-cube {cid!r}")
        if alpha not in (0, 1):
            raise PrecubicalError(f"face side must be 0 or 1, got {alpha!r}")
        try:
            return self._faces[cid][(i, alpha)]
        except KeyError:
            raise PrecubicalError(f"cube {cid!r} has no face entry d({i},{alpha})") from None

    def face_table(self, cid: str) -> dict[tuple[int, int], str]:
        return dict(self._faces.get(cid, {}))

    # -- iterated faces ----------------------------------------------------
    #
    # The iterated face of a cube along a word over {'0', '*', '1'} (one
    # letter per axis) freezes the '0'/'1' axes on the named side and keeps
    # the '*' axes.  By the pre-cubical relations the result does not depend
    # on the application order; faces are applied from the highest axis down
    # so lower indices stay stable.

    def iterated_face(self, cid: str, word: str) -> str:
        """The iterated face of a cube along one face word, read from :meth:`iterated_faces`.

        A word that is not one of the table's keys (a wrong length or a
        letter other than ``0``, ``*`` and ``1``) is refused.
        """
        faces = self.iterated_faces(cid)
        try:
            return faces[word]
        except KeyError:
            raise PrecubicalError(
                f"face word {word!r} is not a word over 0, *, 1 of length {self.dim(cid)} for cube {cid!r}"
            ) from None

    def iterated_faces(self, cid: str) -> dict[str, str]:
        """All iterated faces of a cube, keyed by face word (self included).

        Words come in the order of ``itertools.product("0*1", repeat=dim)``.
        The table is built one axis at a time from the highest down: each
        level maps the word suffixes seen so far to their faces, so every
        face map is applied once per shared suffix rather than once per
        word.
        """
        cached = self._iterated.get(cid)
        if cached is not None:
            return cached
        table = {"": cid}
        for i in range(self.dim(cid), 0, -1):
            table = {
                ch + suffix: cube if ch == "*" else self.face(cube, i, int(ch))
                for ch in "0*1"
                for suffix, cube in table.items()
            }
        self._iterated[cid] = table
        return table

    def _splits_of(self, cid: str) -> tuple[tuple[str, str], ...]:
        """The ``(lower, upper)`` face pairs that split a cube along each proper non-empty axis set J.

        The lower face has the word ``0`` on J and ``*`` elsewhere, the upper
        face ``*`` on J and ``1`` elsewhere, so the two meet at one vertex.  J
        runs by size, then lexicographically.  Pairs are not deduplicated: a
        self-linked cube can repeat one.
        """
        cached = self._splits.get(cid)
        if cached is not None:
            return cached
        faces = self.iterated_faces(cid)
        n = self._dims[cid]
        words = (
            "".join("0" if a in J else "*" for a in range(n))
            for r in range(1, n)
            for J in itertools.combinations(range(n), r)
        )
        table = tuple((faces[word], faces[word.translate(_UPPER)]) for word in words)
        self._splits[cid] = table
        return table

    def iterated_face_ids(self, cid: str) -> frozenset[str]:
        return frozenset(self.iterated_faces(cid).values())

    def _locations_of(self, target: str) -> dict[str, tuple[str, ...]]:
        """The words locating ``target`` in each of its carriers (itself included), all sorted."""
        if self._locations is None:
            locations: dict[str, dict[str, tuple[str, ...]]] = {c: {} for c in self._dims}
            for cid in sorted(self._dims):
                words: dict[str, list[str]] = {}
                for word, fid in sorted(self.iterated_faces(cid).items()):
                    words.setdefault(fid, []).append(word)
                for fid, ws in words.items():
                    locations[fid][cid] = tuple(ws)
            self._locations = locations
        try:
            return self._locations[target]
        except KeyError:
            raise UnknownCubeError(f"unknown cube {target!r}") from None

    def face_locations(self, target: str) -> list[tuple[str, str]]:
        """All pairs ``(cube, word)`` with ``iterated_faces(cube)[word] == target``.

        Includes the trivial location ``(target, '*' * dim)``.
        """
        return [(cid, word) for cid, words in self._locations_of(target).items() for word in words]

    def carriers_of(self, cid: str) -> list[str]:
        """Cubes having ``cid`` among their iterated faces (``cid`` included), sorted."""
        return list(self._locations_of(cid))

    def _collar(self, cid: str) -> dict[str, list[tuple[str, str]]]:
        """The collar boxes of a cube by carrier: one ``(box word, face word)`` pair per
        location (the box word) of each iterated face of ``cid`` (the face word).
        """
        collar = self._collars.get(cid)
        if collar is None:
            collar = {}
            for h_word, e in self.iterated_faces(cid).items():
                for carrier, words in self._locations_of(e).items():
                    collar.setdefault(carrier, []).extend((g_word, h_word) for g_word in words)
            self._collars[cid] = collar
        return collar

    def _ends_of(self, cid: str) -> tuple[str, str]:
        """The source and target vertex of a cube: its faces ``0...0`` and ``1...1`` in :meth:`iterated_faces`."""
        ends = self._ends.get(cid)
        if ends is None:
            n, faces = self.dim(cid), self.iterated_faces(cid)
            ends = self._ends[cid] = (faces["0" * n], faces["1" * n])
        return ends

    def cubes_from(self, vertex: str) -> tuple[str, ...]:
        """Positive-dimensional cubes whose source vertex is ``vertex``."""
        if self._by_source is None:
            index: dict[str, list[str]] = {v: [] for v in self._dims}
            for cid in sorted(self._dims):
                if self._dims[cid] > 0:
                    index.setdefault(self._ends_of(cid)[0], []).append(cid)
            self._by_source = {v: tuple(cs) for v, cs in index.items()}
        return self._by_source.get(vertex, ())

    @functools.cached_property
    def _proper(self) -> tuple[bool, tuple[str, str] | None]:
        """The answer of :func:`is_proper`, decided once per instance."""
        seen: dict[tuple[str, str], str] = {}
        for cid in sorted(self._dims):
            key = self._ends_of(cid)
            if key in seen:
                return False, (seen[key], cid)
            seen[key] = cid
        return True, None

    @functools.cached_property
    def _non_self_linked(self) -> tuple[bool, tuple[str, int] | None]:
        """The answer of :func:`is_non_self_linked`, decided once per instance."""
        for cid in sorted(self._dims):
            faces = self.iterated_faces(cid)
            if len(set(faces.values())) == len(faces):
                continue
            n = self._dims[cid]
            # some faces coincide; name the lowest dimension where they do
            by_dim: dict[int, set[str]] = {k: set() for k in range(n + 1)}
            for word, fid in faces.items():
                by_dim[word.count("*")].add(fid)
            for k in range(n + 1):
                if len(by_dim[k]) != math.comb(n, k) * 2 ** (n - k):
                    return False, (cid, k)
        return True, None

    def proper_non_self_linked(self) -> bool:
        """Whether the complex is proper and non-self-linked, read from the cached checks.

        Coarsest common refinements, the nerve-lemma guarantee recorded on
        every refinement poset and kink-sequence reconstruction depend on it.
        """
        return self._proper[0] and self._non_self_linked[0]


# a lower face word to the word of its complementary upper face: free axes freeze at 1, 0-axes become free
_UPPER = str.maketrans("0*", "*1")


# -- structural predicates -------------------------------------------------


def validate(X: CubeSet) -> list[Violation]:
    """Check face-table completeness, dimensions, and the pre-cubical relations.

    Violations are returned as data; an empty list means the complex is valid.
    """
    out: list[Violation] = []
    for cid in sorted(X.cubes()):
        n = X.dim(cid)
        table = X.face_table(cid)
        for i in range(1, n + 1):
            for alpha in (0, 1):
                fid = table.get((i, alpha))
                if fid is None:
                    out.append(Violation("missing-face", cid, f"d({i},{alpha}) missing"))
                elif fid not in X:
                    out.append(Violation("unknown-face", cid, f"d({i},{alpha}) = {fid!r} not in complex"))
                elif X.dim(fid) != n - 1:
                    out.append(
                        Violation("dimension", cid, f"d({i},{alpha}) = {fid!r} has dimension {X.dim(fid)}, expected {n - 1}")
                    )
        extra = [k for k in table if not (1 <= k[0] <= n and k[1] in (0, 1))]
        for k in extra:
            out.append(Violation("unknown-face", cid, f"unexpected face entry d{k}"))
    if out:
        return out
    for cid in sorted(X.cubes()):
        n = X.dim(cid)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for alpha in (0, 1):
                    for beta in (0, 1):
                        left = X.face(X.face(cid, j, beta), i, alpha)
                        right = X.face(X.face(cid, i, alpha), j - 1, beta)
                        if left != right:
                            out.append(
                                Violation(
                                    "relation",
                                    cid,
                                    f"d({i},{alpha})d({j},{beta}) = {left!r} but d({j - 1},{beta})d({i},{alpha}) = {right!r}",
                                )
                            )
    return out


def source_vertex(X: CubeSet, cid: str) -> str:
    """The bottom vertex of a cube: its iterated face with word ``0...0``."""
    return X._ends_of(cid)[0]


def target_vertex(X: CubeSet, cid: str) -> str:
    """The top vertex of a cube: its iterated face with word ``1...1``."""
    return X._ends_of(cid)[1]


def is_proper(X: CubeSet) -> tuple[bool, tuple[str, str] | None]:
    """Whether distinct cubes never share both source and target vertex.

    Returns ``(True, None)`` or ``(False, (cube_a, cube_b))`` with a
    witnessing pair.  Decided once per instance.
    """
    return X._proper


def is_non_self_linked(X: CubeSet) -> tuple[bool, tuple[str, int] | None]:
    """Whether every n-cube has the full count of distinct iterated k-faces.

    An n-cube must have ``C(n, k) * 2**(n-k)`` distinct k-faces for every
    ``k <= n``; a shortfall means boundary faces were identified with each
    other.  Returns a witnessing ``(cube, k)`` on failure.  Decided once
    per instance.
    """
    return X._non_self_linked


# -- generators --------------------------------------------------------------

MAX_FACE_ENTRIES = 1_000_000
"""The most face-map entries a generator builds: ``full_cube(10)`` has 393,660, ``full_cube(11)`` 1,299,078."""


def _check_size(kind: str, n: int, entries: Callable[[int], int]) -> None:
    """Refuse a negative dimension, or a face table of more than ``MAX_FACE_ENTRIES`` entries.

    ``entries(n)`` counts the face maps the generator would build.  Every
    generator's count is at least ``n**2`` once ``n >= 2``, so a larger
    ``n`` is refused without counting (a large full cube's count is itself
    a huge integer).
    """
    if n < 0:
        raise PrecubicalError("dimension must be non-negative")
    size = entries(n) if n * n <= MAX_FACE_ENTRIES else None
    if size is None or size > MAX_FACE_ENTRIES:
        count = f"at least {n * n:,}" if size is None else f"{size:,}"
        raise PrecubicalError(
            f"{kind}({n}) would build {count} face-table entries, over the limit of {MAX_FACE_ENTRIES:,}"
        )


def _word_id(word: str) -> str:
    if "*" in word or word == "":
        return word if word else "v"
    return "v" + word


def full_cube(n: int) -> CubeSet:
    """The standard n-cube with all of its faces.

    Cells are named by their face word over ``{0, *, 1}``; vertices get a
    ``v`` prefix (``v01``), so the top cell of ``full_cube(2)`` is ``**``
    and its source vertex is ``v00``.
    """
    _check_size("full_cube", n, lambda n: 2 * n * 3**n // 3)
    cubes: dict[str, int] = {}
    faces: dict[str, dict[tuple[int, int], str]] = {}
    for word_tuple in itertools.product("0*1", repeat=n):
        word = "".join(word_tuple)
        cid = _word_id(word)
        k = word.count("*")
        cubes[cid] = k
        if k:
            table: dict[tuple[int, int], str] = {}
            stars = [i for i, ch in enumerate(word) if ch == "*"]
            for i, pos in enumerate(stars, start=1):
                for alpha in (0, 1):
                    sub = word[:pos] + str(alpha) + word[pos + 1 :]
                    table[(i, alpha)] = _word_id(sub)
            faces[cid] = table
    return CubeSet(cubes, faces)


def boundary_cube(n: int) -> CubeSet:
    """The boundary of the n-cube: ``full_cube(n)`` without its top cell."""
    _check_size("boundary_cube", n, lambda n: 2 * n * 3**n // 3 - 2 * n)
    X = full_cube(n)
    cubes = {c: X.dim(c) for c in X.cubes() if X.dim(c) < n}
    faces = {c: X.face_table(c) for c in cubes if X.dim(c) > 0}
    return CubeSet(cubes, faces)


@dataclass(frozen=True)
class BoxSpec:
    """An elementary box in ``Z**n``: bottom/top corners with extents 0 or 1."""

    bottom: tuple[int, ...]
    top: tuple[int, ...]

    def __post_init__(self):
        if len(self.bottom) != len(self.top):
            raise PrecubicalError("bottom and top must have the same length")
        for k, l in zip(self.bottom, self.top):
            if not 0 <= l - k <= 1:
                raise PrecubicalError(f"box extent {l - k} out of range in {self}")

    @property
    def ambient(self) -> int:
        return len(self.bottom)


def _euclid_id(bottom: tuple[int, ...], top: tuple[int, ...]) -> str:
    return ",".join(map(str, bottom)) + "|" + ",".join(map(str, top))


def euclidean(boxes: Iterable[BoxSpec | tuple]) -> CubeSet:
    """The cubical complex spanned by elementary boxes and all their faces.

    Cells are named by their integer corner pair, e.g. ``0,0|1,1`` for the
    unit square at the origin; shared faces of adjacent boxes are identified
    by coordinates, so the result is always proper and non-self-linked.
    """
    specs = [b if isinstance(b, BoxSpec) else BoxSpec(tuple(b[0]), tuple(b[1])) for b in boxes]
    if not specs:
        return CubeSet({}, {})
    ambient = specs[0].ambient
    for s in specs:
        if s.ambient != ambient:
            raise PrecubicalError("all boxes must share one ambient dimension")
    cells: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for s in specs:
        extents = [(k, l) for k, l in zip(s.bottom, s.top)]
        options = [((k, l), (k, k), (l, l)) if l > k else ((k, k),) for k, l in extents]
        for choice in itertools.product(*options):
            bottom = tuple(c[0] for c in choice)
            top = tuple(c[1] for c in choice)
            cells.add((bottom, top))
    cubes: dict[str, int] = {}
    faces: dict[str, dict[tuple[int, int], str]] = {}
    for bottom, top in sorted(cells):
        cid = _euclid_id(bottom, top)
        span = [i for i in range(ambient) if top[i] > bottom[i]]
        cubes[cid] = len(span)
        if span:
            table: dict[tuple[int, int], str] = {}
            for i, axis in enumerate(span, start=1):
                for alpha in (0, 1):
                    val = top[axis] if alpha else bottom[axis]
                    nb = bottom[:axis] + (val,) + bottom[axis + 1 :]
                    nt = top[:axis] + (val,) + top[axis + 1 :]
                    table[(i, alpha)] = _euclid_id(nb, nt)
            faces[cid] = table
    return CubeSet(cubes, faces)


def z_complex(n: int) -> CubeSet:
    """One cube in every dimension up to ``n``, every face map collapsing down.

    Not proper and self-linked for ``n >= 1``: all faces of the k-cube are
    the single (k-1)-cube.
    """
    _check_size("z_complex", n, lambda n: n * (n + 1))
    cubes = {f"c{k}": k for k in range(n + 1)}
    faces = {
        f"c{k}": {(i, alpha): f"c{k - 1}" for i in range(1, k + 1) for alpha in (0, 1)}
        for k in range(1, n + 1)
    }
    return CubeSet(cubes, faces)


def q_complex(n: int) -> CubeSet:
    """The quotient of the n-cube identifying k-faces with equal vertex-weight spans.

    There are ``n - k + 1`` k-cubes ``qk_j``, the class of k-faces whose
    bottom vertex has j coordinates equal to 1.  Freezing any axis at
    ``alpha`` moves the class index by ``alpha``, so the face maps are
    ``d(i, alpha) qk_j = q(k-1)_(j + alpha)`` for every axis i; the stated
    index shift is forced by the pre-cubical relations (an i-dependent shift
    violates them) and by the bottom/top vertex weights of the classes.
    Proper but self-linked for ``n >= 2``.
    """
    _check_size("q_complex", n, lambda n: n * (n + 1) * (n + 2) // 3)
    cubes = {f"q{k}_{j}": k for k in range(n + 1) for j in range(n - k + 1)}
    faces = {
        f"q{k}_{j}": {(i, alpha): f"q{k - 1}_{j + alpha}" for i in range(1, k + 1) for alpha in (0, 1)}
        for k in range(1, n + 1)
        for j in range(n - k + 1)
    }
    X = CubeSet(cubes, faces)
    bad = validate(X)
    if bad:
        raise PrecubicalError(f"quotient-cube generator produced an invalid complex: {bad[0]}")
    return X
