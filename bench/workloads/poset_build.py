"""poset-build: large chain posets and the complexes built on them, no homology.

Queries build and check their complex and enumerate its chain poset; then
they build the order complex and take its Euler characteristic, build the
covering nerve, or stop at the poset.  One query runs a seeded batch of
coarsest common refinements on bd5 chain pairs.  The seed orders the passes
and draws the chain pairs.
"""

from __future__ import annotations

import random

from precubical import (
    NO_COARSEST,
    CubeChain,
    CubeSet,
    RefinementPoset,
    coarsest_common_refinement,
    common_refinement_exists,
    covering_nerve,
    enumerate_chains,
    euler,
    order_complex,
    refines,
)

from harness import Query, Tracer, WrongAnswer, expect
from workloads.common import build_complex, check_poset, proper_non_self_linked

RELATED_STEPS = 2  # coarsening steps from a shared chain to each member of a related pair


def setup(seed: int, catalog: dict, tracer: Tracer, workdir: str) -> list[Query]:
    queries = []
    for entry in catalog["entries"]:
        if entry["kind"] == "ccr_batch":
            queries.append(_ccr_query(entry, tracer, random.Random(f"{seed}/{entry['name']}")))
        else:
            queries.append(_poset_query(entry))
    return queries


def _poset_query(entry: dict) -> Query:
    kind = entry["kind"]

    def run(tr: Tracer):
        X, source, target, length = build_complex(tr, entry)
        proper = proper_non_self_linked(tr, X)
        poset = tr.call("chains.enumerate", enumerate_chains, X, source, target, length)
        if kind == "order_euler":
            K = tr.call("nerve.order_complex", order_complex, poset)
            chi = tr.call("nerve.euler", euler, K)
        elif kind == "covering":
            K, chi = tr.call("nerve.covering_nerve", covering_nerve, X, poset), None
        else:
            K, chi = None, None
        return proper, len(X), poset, K, chi

    def check(answer) -> None:
        proper, _, poset, K, chi = answer
        expect("proper and non-self-linked", proper, True)
        X, _, _, _ = build_complex(Tracer(), entry)
        check_poset(X, poset, entry)
        if kind == "order_euler":
            expect("Euler characteristic", chi, entry["euler"])
            if "f_vector" in entry:
                expect("f-vector", K.simplex_counts(), entry["f_vector"])
        if kind == "covering":
            expect("maximal simplices", len(K.maximal), entry["maximal_simplices"])

    def counts(answer) -> dict[str, int]:
        _, cubes, poset, K, _ = answer
        out = {"cubeset.cubes": cubes, "chains.objects": len(poset.objects), "chains.covers": len(poset.covers)}
        if K is not None:
            out["nerve.maximal_simplices"] = len(K.maximal)
        return out

    return Query(entry["name"], run, check, counts)


def related_pairs(poset: RefinementPoset, count: int, rng: random.Random) -> list[tuple[CubeChain, CubeChain]]:
    """Pairs of chains that coarsen one shared chain, so that they have a common refinement."""
    coarser: dict[int, list[int]] = {i: [] for i in range(len(poset.objects))}
    for coarse, fine in poset.covers:
        coarser[fine].append(coarse)

    def walk_up(i: int) -> int:
        for _ in range(RELATED_STEPS):
            if coarser[i]:
                i = rng.choice(coarser[i])
        return i

    pairs = []
    for _ in range(count):
        shared = rng.randrange(len(poset.objects))
        pairs.append((poset.objects[walk_up(shared)], poset.objects[walk_up(shared)]))
    return pairs


def _ccr_query(entry: dict, tracer: Tracer, rng: random.Random) -> Query:
    X, source, target, length = build_complex(tracer, entry)
    poset = tracer.call("chains.enumerate", enumerate_chains, X, source, target, length)
    objects = poset.objects
    pairs = [(rng.choice(objects), rng.choice(objects)) for _ in range(entry["random_pairs"])]
    pairs += related_pairs(poset, entry["related_pairs"], rng)
    rng.shuffle(pairs)

    def run(tr: Tracer):
        return [tr.call("chains.ccr", coarsest_common_refinement, X, a, b) for a, b in pairs]

    def check(answer) -> None:
        expect("result count", len(answer), len(pairs))
        for (a, b), found in zip(pairs, answer):
            check_ccr(X, a, b, found)

    def counts(answer) -> dict[str, int]:
        return {
            "chains.ccr_calls": len(answer),
            "chains.ccr_found": sum(found is not None for found in answer),
        }

    return Query(entry["name"], run, check, counts)


def check_ccr(X: CubeSet, a: CubeChain, b: CubeChain, found) -> None:
    """``None`` exactly when no common refinement exists; a returned chain refines both."""
    exists = common_refinement_exists(X, [a, b])
    expect(f"common refinement of {a.cubes} and {b.cubes} found", found is not None, exists)
    if found is not None and found is not NO_COARSEST:
        if not (refines(X, found, a) and refines(X, found, b)):
            raise WrongAnswer(f"{found.cubes} does not refine both {a.cubes} and {b.cubes}")
