"""path-stack: the exact directed-path stack on long diagonal bands.

Set-up builds the bands and one seeded strict, non-tame path per band.
Each query runs the path stack on its band: predicates, finest chain,
crossing times, taming, evaluation at the cuts, collar subordination,
strictification, naturalization and the kink round trip, and it
canonicalizes every breakpoint of the input path.
"""

from __future__ import annotations

import random

from precubical import (
    Point,
    canonicalize,
    crossing_times,
    evaluate,
    finest_chain,
    is_strict,
    is_tame,
    kinks_to_path,
    naturalize,
    path_to_kinks,
    paths_equal,
    strictify,
    subordinate_to_collar,
    tame,
)

from harness import Query, Tracer, WrongAnswer, expect
from workloads.common import band_path, build_band


def setup(seed: int, catalog: dict, tracer: Tracer, workdir: str) -> list[Query]:
    queries = []
    for entry in catalog["entries"]:
        X = build_band(tracer, entry["band"])
        p = band_path(entry["band"], random.Random(f"{seed}/{entry['name']}"))
        queries.append(_query(entry["name"], X, p))
    return queries


def _query(name: str, X, p) -> Query:
    def run(tr: Tracer) -> dict:
        out = {
            "strict": tr.call("dpath.is_strict", is_strict, X, p),
            "tame": tr.call("dpath.is_tame", is_tame, X, p)[0],
        }
        chain = out["chain"] = tr.call("chains.finest", finest_chain, X, p)
        cuts = out["cuts"] = tr.call("taming.crossing_times", crossing_times, X, p, chain).cuts
        q = out["tamed"] = tr.call("taming.tame", tame, X, p, chain)
        out["tamed_tame"] = tr.call("dpath.is_tame", is_tame, X, q)[0]
        out["at_cuts"] = [tr.call("dpath.evaluate", evaluate, X, q, t) for t in cuts]
        out["subordinate"] = tr.call("chains.subordinate", subordinate_to_collar, X, p, chain)
        out["strictified"] = tr.call("dpath.strictify", strictify, X, p)
        natural = out["natural"] = tr.call("dpath.naturalize", naturalize, X, q)
        kinks = out["kinks"] = tr.call("dpath.kinks", path_to_kinks, X, natural)
        out["linear"] = tr.call("dpath.kinks", kinks_to_path, X, kinks)
        out["canonical"] = [
            tr.call("carrier.canonicalize", canonicalize, X, Point(seg.cube, coords))
            for seg in p.segments
            for _, coords in seg.points
        ]
        return out

    def check(out: dict) -> None:
        check_path_stack(X, p, out)

    def counts(out: dict) -> dict[str, int]:
        return {
            "cubeset.cubes": len(X),
            "dpath.segments": len(p.segments),
            "taming.cuts": len(out["cuts"]),
            "carrier.points": len(out["canonical"]),
        }

    return Query(name, run, check, counts)


def check_path_stack(X, p, out: dict) -> None:
    """The known answers: a strict non-tame input, and a tamed path that is
    strict, tame, hits the chain's vertices at the cuts and is fixed by
    taming again; kinks survive a round trip; canonical points are interior."""
    expect("input strict", out["strict"], True)
    expect("input tame", out["tame"], False)
    chain, cuts, q = out["chain"], out["cuts"], out["tamed"]
    expect("cut count", len(cuts), len(chain.cubes) - 1)
    expect("tamed path strict", is_strict(X, q), True)
    expect("tamed path tame", out["tamed_tame"], True)
    vertices = chain.vertex_sequence(X)
    expect("points at the cuts", out["at_cuts"], [Point(v, ()) for v in vertices[1:-1]])
    if not paths_equal(X, tame(X, q, chain), q):
        raise WrongAnswer("taming the tamed path moved it")
    expect("subordinate to the finest chain", out["subordinate"], True)
    expect("strictified path strict", is_strict(X, out["strictified"]), True)
    expect("kink round trip", path_to_kinks(X, out["linear"]).points, out["kinks"].points)
    for point in out["canonical"]:
        if X.dim(point.cube) != len(point.coords) or not all(0 < x < 1 for x in point.coords):
            raise WrongAnswer(f"{point} is not in canonical form")
