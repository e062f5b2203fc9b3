"""Bit-exact JSON document formats.

All documents are JSON with fixed schemas and deterministic writers
(sorted keys, fixed indentation), so identical inputs produce identical
bytes.  Rationals are serialized as strings like ``"1/3"`` (integers stay
bare, ``"2"``), which round-trips exactly.

Schemas:

* cubeset:  ``{"cubes": [{"id", "dim", "faces": {"d0_1": id, ...}}]}``
  where ``d{a}_{i}`` is the face on side ``a`` along axis ``i``;
* path:     ``{"start": id, "segments": [{"cube": id,
  "breakpoints": [[t, [x, ...]], ...]}]}``;
* chain:    ``{"from": id, "to": id, "cubes": [id, ...]}``;
* kinks:    ``{"points": [{"cube": id, "coords": [x, ...]}, ...]}``;
* poset:    ``{"from", "to", "max_length", "truncated",
  "proper_non_self_linked", "objects": [[id, ...], ...],
  "covers": [[coarser, finer], ...]}``, every key required
  (``proper_non_self_linked`` records the nerve-lemma guarantee);
* complex:  ``{"vertices": [label, ...], "maximal_simplices": [[i, ...], ...],
  "flags": [...]}``;
* homology: ``{"betti": [...], "torsion": [[...], ...], "flags": [...]}``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from ..errors import FormatError, PrecubicalError

# Each parser imports the module of its own document kind, so a process
# loads only the layers of the documents it reads.
if TYPE_CHECKING:
    from ..chains import CubeChain, RefinementPoset
    from ..cubeset import CubeSet
    from ..dpath import KinkSequence, PLPath
    from ..nerve import HomologyResult, SimplicialComplex

__all__ = [
    "parse_cubeset",
    "write_cubeset",
    "parse_path",
    "write_path",
    "parse_chain",
    "write_chain",
    "parse_kinks",
    "write_kinks",
    "parse_poset",
    "write_poset",
    "parse_complex",
    "write_complex",
    "parse_homology",
    "write_homology",
    "loads",
    "dumps",
]


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", line=e.lineno, column=e.colno) from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    return doc


def _rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise FormatError(f"{where}: rationals must be strings or integers, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"{where}: cannot parse rational {value!r}") from None
    raise FormatError(f"{where}: cannot parse rational {value!r}")


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer", bool: "a boolean"}


def _shaped(value: Any, kind: type, where: str) -> Any:
    """``value`` if it is a JSON value of ``kind``; booleans and other numbers are not integers."""
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise FormatError(f"{where}: expected {_JSON_KINDS[kind]}, got {value!r:.40}")
    return value


def _items(value: Any, kind: type, where: str) -> list:
    """``value`` if it is a JSON list of values of ``kind``."""
    for k, item in enumerate(_shaped(value, list, where)):
        _shaped(item, kind, f"{where}[{k}]")
    return value


def _expect(doc: dict, key: str, where: str, kind: type | None = None) -> Any:
    if key not in doc:
        raise FormatError(f"{where}: missing key {key!r}")
    return doc[key] if kind is None else _shaped(doc[key], kind, f"{where} {key!r}")


# -- cubeset -------------------------------------------------------------------


def parse_cubeset(text: str, check: bool = True) -> CubeSet:
    return _cubeset_of(loads(text), check)


def _cubeset_of(doc: dict, check: bool = True) -> CubeSet:
    """The complex of an already loaded cubeset document."""
    from ..cubeset import CubeSet, validate

    entries = _items(_expect(doc, "cubes", "cubeset"), dict, "cubeset 'cubes'")
    cubes: dict[str, int] = {}
    faces: dict[str, dict[tuple[int, int], str]] = {}
    for k, entry in enumerate(entries):
        where = f"cubeset 'cubes'[{k}]"
        cid = _expect(entry, "id", where, str)
        dim = _expect(entry, "dim", where, int)
        if dim < 0:
            raise FormatError(f"{where}: negative dim {dim}")
        if cid in cubes:
            raise FormatError(f"{where}: duplicate id {cid!r}")
        cubes[cid] = dim
        table: dict[tuple[int, int], str] = {}
        for key, fid in _shaped(entry.get("faces", {}), dict, f"{where} 'faces'").items():
            _shaped(fid, str, f"{where} face {key!r}")
            try:
                alpha_s, i_s = key.removeprefix("d").split("_")
                alpha, i = int(alpha_s), int(i_s)
                if alpha not in (0, 1) or not 1 <= i <= dim:
                    raise ValueError
            except ValueError:
                raise FormatError(f"{where}: bad face key {key!r}") from None
            table[(i, alpha)] = fid
        if table:
            faces[cid] = table
    X = CubeSet(cubes, faces)
    if check:
        # recorded on X, so the geometric lookups later in the stage do not validate again
        bad = validate(X)
        if bad:
            listing = "; ".join(f"{v.kind} at {v.cube!r}: {v.detail}" for v in bad[:10])
            raise FormatError(f"cubeset fails validation ({len(bad)} violations): {listing}")
    return X


def write_cubeset(X: CubeSet, extra: dict | None = None) -> str:
    entries = []
    for cid in sorted(X.cubes()):
        entry: dict[str, Any] = {"id": cid, "dim": X.dim(cid)}
        table = X.face_table(cid)
        if table:
            entry["faces"] = {f"d{alpha}_{i}": fid for (i, alpha), fid in sorted(table.items())}
        entries.append(entry)
    doc: dict[str, Any] = {"cubes": entries}
    if extra:
        doc.update(extra)
    return dumps(doc)


# -- paths ---------------------------------------------------------------------


def parse_path(text: str, X: CubeSet | None = None) -> PLPath:
    from ..dpath import PLPath, Segment

    doc = loads(text)
    segs_doc = _items(_expect(doc, "segments", "path"), dict, "path 'segments'")
    if not segs_doc:
        raise FormatError("path: 'segments' must be a non-empty list")
    segments = []
    for k, seg in enumerate(segs_doc):
        where = f"path 'segments'[{k}]"
        cube = _expect(seg, "cube", where, str)
        points = []
        for bp in _expect(seg, "breakpoints", where, list):
            if not isinstance(bp, list) or len(bp) != 2 or not isinstance(bp[1], list):
                raise FormatError(f"{where}: breakpoints must be [t, [coords]] pairs")
            t = _rational(bp[0], where)
            coords = tuple(_rational(x, where) for x in bp[1])
            points.append((t, coords))
        try:
            segments.append(Segment(cube, tuple(points)))
        except PrecubicalError as e:
            raise FormatError(f"{where}: {e}") from None
    try:
        p = PLPath(tuple(segments))
    except PrecubicalError as e:
        raise FormatError(f"path: {e}") from None
    if X is not None:
        try:
            p.validate(X)
        except PrecubicalError as e:
            raise FormatError(f"path: {e}") from None
        declared = doc.get("start")
        if declared is not None and p.start_point(X).cube != declared:
            raise FormatError(
                f"path: declared start {declared!r} but path begins at {p.start_point(X).cube!r}"
            )
    return p


def write_path(p: PLPath, X: CubeSet | None = None) -> str:
    doc: dict[str, Any] = {
        "segments": [
            {
                "cube": seg.cube,
                "breakpoints": [[str(t), [str(x) for x in coords]] for t, coords in seg.points],
            }
            for seg in p.segments
        ]
    }
    if X is not None:
        doc["start"] = p.start_point(X).cube
    return dumps(doc)


# -- chains and posets ---------------------------------------------------------


def parse_chain(text: str, X: CubeSet | None = None) -> CubeChain:
    from ..chains import CubeChain

    doc = loads(text)
    chain = CubeChain(
        _expect(doc, "from", "chain", str),
        _expect(doc, "to", "chain", str),
        tuple(_items(_expect(doc, "cubes", "chain"), str, "chain 'cubes'")),
    )
    if X is not None:
        try:
            chain.validate(X)
        except PrecubicalError as e:
            raise FormatError(f"chain: {e}") from None
    return chain


def write_chain(chain: CubeChain) -> str:
    return dumps({"from": chain.source, "to": chain.target, "cubes": list(chain.cubes)})


def parse_poset(text: str) -> RefinementPoset:
    from ..chains import CubeChain, RefinementPoset

    doc = loads(text)
    source = _expect(doc, "from", "poset", str)
    target = _expect(doc, "to", "poset", str)
    objects = tuple(
        CubeChain(source, target, tuple(_items(cubes, str, f"poset 'objects'[{k}]")))
        for k, cubes in enumerate(_items(_expect(doc, "objects", "poset"), list, "poset 'objects'"))
    )
    covers = []
    for k, cover in enumerate(_items(_expect(doc, "covers", "poset"), list, "poset 'covers'")):
        if len(_items(cover, int, f"poset 'covers'[{k}]")) != 2:
            raise FormatError(f"poset 'covers'[{k}]: expected a [coarser, finer] pair, got {cover!r:.40}")
        covers.append(tuple(cover))
    # order_complex and covering_nerve rely on covers being distinct one-cube refinements,
    # and order_complex on each cover leading to a later object
    for a, b in covers:
        if not (0 <= a < len(objects) and 0 <= b < len(objects)) or len(objects[b]) != len(objects[a]) + 1:
            raise FormatError(f"poset: cover {[a, b]} does not add one cube to a listed chain")
        if b < a:
            raise FormatError(f"poset: cover {[a, b]} leads to an earlier object")
    if len(set(covers)) != len(covers):
        raise FormatError("poset: repeated cover")
    return RefinementPoset(
        source,
        target,
        objects,
        tuple(covers),
        _expect(doc, "truncated", "poset", bool),
        _expect(doc, "max_length", "poset", int),
        _expect(doc, "proper_non_self_linked", "poset", bool),
    )


def write_poset(poset: RefinementPoset, proper_non_self_linked: bool | None = None) -> str:
    """The poset document; ``proper_non_self_linked``, when given, overrides the poset's record."""
    if proper_non_self_linked is None:
        proper_non_self_linked = poset.proper_non_self_linked
    return dumps(
        {
            "from": poset.source,
            "to": poset.target,
            "max_length": poset.max_length,
            "truncated": poset.truncated,
            "proper_non_self_linked": proper_non_self_linked,
            "objects": [list(c.cubes) for c in poset.objects],
            "covers": [list(c) for c in poset.covers],
        }
    )


# -- kink sequences --------------------------------------------------------------


def parse_kinks(text: str, X: CubeSet | None = None) -> KinkSequence:
    from ..carrier import Point, canonicalize
    from ..dpath import KinkSequence

    doc = loads(text)
    pts = []
    for k, entry in enumerate(_items(_expect(doc, "points", "kinks"), dict, "kinks 'points'")):
        where = f"kinks 'points'[{k}]"
        cube = _expect(entry, "cube", where, str)
        coords = tuple(_rational(x, where) for x in _expect(entry, "coords", where, list))
        try:
            q = Point(cube, coords)
            pts.append(q if X is None else canonicalize(X, q))
        except PrecubicalError as e:
            raise FormatError(f"{where}: expected a point ({e})") from None
    ks = KinkSequence(tuple(pts))
    if X is not None:
        try:
            ks.validate(X)
        except PrecubicalError as e:
            raise FormatError(f"kinks: {e}") from None
    return ks


def write_kinks(ks: KinkSequence) -> str:
    return dumps({"points": [{"cube": q.cube, "coords": [str(x) for x in q.coords]} for q in ks.points]})


# -- complexes and homology ------------------------------------------------------


def parse_complex(text: str) -> SimplicialComplex:
    from ..nerve import SimplicialComplex

    doc = loads(text)
    labels = tuple(_items(_expect(doc, "vertices", "complex"), str, "complex 'vertices'"))
    simplices = _items(_expect(doc, "maximal_simplices", "complex"), list, "complex 'maximal_simplices'")
    return SimplicialComplex(
        labels,
        tuple(_simplex(s, len(labels), f"complex 'maximal_simplices'[{k}]") for k, s in enumerate(simplices)),
        frozenset(_items(doc.get("flags", []), str, "complex 'flags'")),
    )


def _simplex(value: Any, vertex_count: int, where: str) -> tuple[int, ...]:
    """``value`` as a simplex: strictly increasing vertex indices below ``vertex_count``."""
    s = _items(value, int, where)
    if any(not 0 <= v < vertex_count for v in s) or any(u >= v for u, v in zip(s, s[1:])):
        raise FormatError(f"{where}: expected strictly increasing vertex indices below {vertex_count}, got {s!r:.40}")
    return tuple(s)


def write_complex(K: SimplicialComplex) -> str:
    return dumps(
        {
            "vertices": list(K.labels),
            "maximal_simplices": [list(s) for s in K.maximal],
            "flags": sorted(K.flags),
        }
    )


def parse_homology(text: str) -> HomologyResult:
    from ..nerve import HomologyResult

    doc = loads(text)
    torsion = _items(_expect(doc, "torsion", "homology"), list, "homology 'torsion'")
    return HomologyResult(
        tuple(_items(_expect(doc, "betti", "homology"), int, "homology 'betti'")),
        tuple(tuple(_items(ts, int, f"homology 'torsion'[{k}]")) for k, ts in enumerate(torsion)),
        frozenset(_items(doc.get("flags", []), str, "homology 'flags'")),
    )


def write_homology(h: HomologyResult) -> str:
    return dumps(
        {
            "betti": list(h.betti),
            "torsion": [list(t) for t in h.torsion],
            "flags": sorted(h.flags),
        }
    )
