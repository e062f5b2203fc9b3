"""schedule-homology: the whole in-process route from a complex to its homology.

Each query builds its complex (a generator, or a PV program compiled to a
Euclidean complex), checks that it is proper and non-self-linked,
enumerates the chain poset, builds the order complex or the covering nerve
and computes integer homology.  The seed only orders the passes.
"""

from __future__ import annotations

from precubical import HomologyResult, covering_nerve, enumerate_chains, homology, order_complex

from harness import Query, Tracer, WrongAnswer, expect
from workloads.common import build_complex, nerve_counts, proper_non_self_linked


def setup(seed: int, catalog: dict, tracer: Tracer, workdir: str) -> list[Query]:
    return [_query(entry) for entry in catalog["entries"]]


def check_homology(h: HomologyResult, entry: dict) -> None:
    known = HomologyResult(tuple(entry["betti"]), tuple(tuple(t) for t in entry["torsion"]))
    if not h.equivalent(known):
        raise WrongAnswer(f"homology {h.betti} {h.torsion}, expected {entry['betti']} {entry['torsion']}")
    expect("homology flags", h.flags, frozenset())


def _query(entry: dict) -> Query:
    def run(tr: Tracer):
        X, source, target, length = build_complex(tr, entry)
        proper = proper_non_self_linked(tr, X)
        poset = tr.call("chains.enumerate", enumerate_chains, X, source, target, length)
        if entry["route"] == "order":
            K = tr.call("nerve.order_complex", order_complex, poset)
        else:
            K = tr.call("nerve.covering_nerve", covering_nerve, X, poset)
        return proper, tr.call("nerve.homology", homology, K), len(X), poset, K

    def check(answer) -> None:
        proper, h = answer[:2]
        expect("proper and non-self-linked", proper, True)
        check_homology(h, entry)

    def counts(answer) -> dict[str, int]:
        _, _, cubes, poset, K = answer
        return {
            "cubeset.cubes": cubes,
            "chains.objects": len(poset.objects),
            "chains.covers": len(poset.covers),
            **nerve_counts(K),
        }

    return Query(entry["name"], run, check, counts)
