"""Tests of the benchmark itself: oracles, seeded streams, failure accounting.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import harness  # noqa: E402
from harness import HostSpeed, Query, Runner, Tracer, WrongAnswer  # noqa: E402
from precubical import HomologyResult  # noqa: E402
from workloads import path_stack, poset_build, schedule_homology  # noqa: E402

BD3_ORDER_EULER = {"name": "bd3", "kind": "order_euler", "generator": "boundary_cube", "n": 3, "objects": 12, "euler": 0}


def catalog_entry(workload: str, name: str) -> dict:
    return next(e for e in harness._load_catalog(workload)["entries"] if e["name"] == name)


def test_homology_oracle_rejects_a_wrong_betti_vector():
    entry = catalog_entry("schedule-homology", "bd4-order")
    schedule_homology.check_homology(HomologyResult((1, 0, 1, 0), ((), (), (), ())), entry)
    with pytest.raises(WrongAnswer):
        schedule_homology.check_homology(HomologyResult((1, 1, 1), ((), (), ())), entry)
    with pytest.raises(WrongAnswer):
        schedule_homology.check_homology(HomologyResult((1, 0, 1), ((), (2,), ())), entry)


def test_euler_oracles_reject_a_wrong_euler_number():
    query = poset_build._poset_query(BD3_ORDER_EULER)
    proper, cubes, poset, K, chi = query.run(Tracer())
    query.check((proper, cubes, poset, K, chi))
    with pytest.raises(WrongAnswer):
        query.check((proper, cubes, poset, K, chi + 1))
    # the signed chain count is checked on its own against the catalog number
    wrong_catalog = poset_build._poset_query({**BD3_ORDER_EULER, "euler": 2})
    with pytest.raises(WrongAnswer, match="signed chain count"):
        wrong_catalog.check((proper, cubes, poset, K, 2))


def _small_path_stack(seed: int) -> list[Query]:
    catalog = {"entries": [{"name": "band3", "band": 3}, {"name": "band5", "band": 5}]}
    return path_stack.setup(seed, catalog, Tracer(), None)


def test_same_seed_yields_the_same_query_stream():
    def stream(seed):
        queries = _small_path_stack(seed)
        runner = Runner(queries, seed, Tracer(), HostSpeed())
        order = [[q.name for q in runner.next_pass()] for _ in range(6)]
        return order, [q.run(Tracer()) for q in queries]

    order, answers = stream(7)
    assert stream(7) == (order, answers)
    other_order, other_answers = stream(8)
    assert other_answers != answers
    assert len({tuple(p) for p in order}) > 1  # passes are shuffled


def test_path_stack_oracle_accepts_its_own_answers():
    for q in _small_path_stack(3):
        q.check(q.run(Tracer()))


def _fake(name, run, answer_ok=True):
    def check(answer):
        if not answer_ok:
            raise WrongAnswer("forced")

    return Query(name, run, check)


def test_forced_failures_raise_the_failed_ratio(monkeypatch):
    monkeypatch.setattr(harness, "QUERY_CAP_S", 0.2)

    def boom(tr):
        raise ValueError("forced")

    queries = [
        _fake("fine", lambda tr: 1),
        _fake("raises", boom),
        _fake("wrong", lambda tr: 2, answer_ok=False),
        _fake("slow", lambda tr: time.sleep(5)),
    ]
    with HostSpeed() as speed:
        runner = Runner(queries, 0, Tracer(), speed)
        start = time.perf_counter()
        assert runner.passes(0) == 1
        assert time.perf_counter() - start < 2  # the slow query was stopped at the cap
    status = {o.query: o.status for o in runner.outcomes}
    assert status == {"fine": "ok", "raises": "error", "wrong": "wrong", "slow": "timeout"}
    metrics = harness._end_to_end(runner, None, [0.1])
    assert metrics["correct_ratio"] == pytest.approx(0.25)
    adjusted = sum(speed.adjust(o.start, o.end) for o in runner.outcomes)
    assert metrics["queries_per_s"] == pytest.approx(1 / adjusted)


def test_a_later_answer_must_equal_the_verified_one():
    answers = iter([1, 1, 2])
    runner = Runner([_fake("drifts", lambda tr: next(answers))], 0, Tracer(), HostSpeed())
    runner.passes(0)
    runner.passes(0)
    runner.passes(0)
    assert [o.status for o in runner.outcomes] == ["ok", "ok", "wrong"]


def test_self_time_subtracts_child_spans():
    spans = [
        ["query", 0.0, 10.0, None, "q#0"],
        ["nerve.homology", 1.0, 7.0, 0, "q#0"],
        ["cubeset.build", 7.0, 8.0, 0, "q#0"],
        ["cubeset.build", 0.0, 2.0, None, harness.SETUP],
    ]
    wall = lambda start, end: end - start  # noqa: E731
    in_passes = harness.self_times(spans, lambda q: q != harness.SETUP, wall)
    assert in_passes == {"query": 3.0, "nerve.homology": 6.0, "cubeset.build": 1.0}
    assert harness.self_times(spans, lambda q: q == harness.SETUP, wall) == {"cubeset.build": 2.0}


def test_adjusted_time_scales_by_the_host_speed_near_the_interval():
    speed = HostSpeed()
    # gauges at t = 0..9 take 1 s, at t = 10..19 take 2 s
    speed.log = [(float(t), 1.0 if t < 10 else 2.0) for t in range(20)]
    reference = harness.GAUGE_REFERENCE_S
    assert speed.adjust(0.5, 7.5) == pytest.approx(0.0)  # all its time was gauges
    # an interval with no gauge inside is gauged by the 16 nearest: six of 1 s and ten of 2 s after t = 3
    assert speed.adjust(20.0, 30.0) == pytest.approx(10.0 * reference / (26 / 16))
    assert speed.adjust(-10.0, 0.0) == pytest.approx(10.0 * reference / (22 / 16))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
