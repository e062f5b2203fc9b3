"""cli-pipeline: command-line pipelines, one child process at a time.

Each query runs one pipeline of ``python -m precubical.toolkit.cli``
stages, and every stage gets the previous stage's stdout on its stdin.
A homology pipeline is ``gen`` (or ``pv build``) | ``chains`` | ``nerve`` |
``homology``; a band pipeline is one path command on the band complex.  As
a client, the query writes its input path document and parses the last
stage's output.  Set-up writes the band complex, the finest chain of the
band's seeded path and the PV programs into the run's work directory.
Every stage's stdout must be byte-identical to the in-process writer
applied to the same library result.
"""

from __future__ import annotations

import functools
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from precubical import (
    covering_nerve,
    enumerate_chains,
    finest_chain,
    homology,
    is_non_self_linked,
    is_proper,
    naturalize,
    order_complex,
    path_to_kinks,
    tame,
)
from precubical.toolkit import formats

from harness import ROOT, SRC, Query, Tracer, WrongAnswer, expect
from workloads.common import band_path, build_band, build_complex
from workloads.schedule_homology import check_homology

RSS_OF = resource.RUSAGE_CHILDREN  # the peak memory is that of the largest stage
STARTUP_PROBES = 5
CLI = [sys.executable, "-m", "precubical.toolkit.cli"]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
PARSERS = {
    "finest": formats.parse_chain,
    "tame": formats.parse_path,
    "seq": formats.parse_kinks,
    "homology": formats.parse_homology,
}


class StageFailed(Exception):
    """A stage exited with a non-zero code."""


def run_stage(args: list[str], stdin: bytes) -> bytes:
    proc = subprocess.run(CLI + args, input=stdin, capture_output=True, env=ENV, cwd=ROOT)
    if proc.returncode != 0:
        raise StageFailed(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
    return proc.stdout


def probe(seconds) -> dict[str, float]:
    """Median time of ``--help``: process start plus imports.  ``seconds(start, end)``
    gives the duration of an interval."""
    times = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run(CLI + ["--help"], capture_output=True, env=ENV, cwd=ROOT, check=True)
        times.append(seconds(start, time.perf_counter()))
    return {"toolkit.cli_startup_s": statistics.median(times)}


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def setup(seed: int, catalog: dict, tracer: Tracer, workdir: str) -> list[Query]:
    n = catalog["band"]
    X = build_band(tracer, n)
    path = band_path(n, random.Random(f"{seed}/band{n}"))
    chain = tracer.call("chains.finest", finest_chain, X, path)
    natural = tracer.call("dpath.naturalize", naturalize, X, tracer.call("taming.tame", tame, X, path, chain))
    files = {
        "band": _write(workdir, "band.json", tracer.call("toolkit.write", formats.write_cubeset, X)),
        "chain": _write(workdir, "chain.json", tracer.call("toolkit.write", formats.write_chain, chain)),
    }
    band_inputs = {"path": path, "natural": natural}
    queries = []
    for entry in catalog["entries"]:
        if "stage" in entry:
            stage = [arg.format(**files) for arg in entry["stage"]]
            p = band_inputs[entry["input"]]
            expected = functools.partial(_band_documents, stage[0], X, p, chain)
            queries.append(_query(entry["name"], [stage], expected, (X, p), None))
        else:
            stages, expected = _homology_pipeline(entry, workdir)
            queries.append(_query(entry["name"], stages, expected, None, entry))
    return queries


def _band_documents(command: str, X, p, chain) -> list[str]:
    """The output of a band command, written in-process."""
    if command == "finest":
        return [formats.write_chain(finest_chain(X, p))]
    if command == "tame":
        return [formats.write_path(tame(X, p, chain), X)]
    return [formats.write_kinks(path_to_kinks(X, p))]


def _homology_pipeline(entry: dict, workdir: str):
    """The stages of a homology pipeline, and its documents written in-process."""
    X, source, target, length = build_complex(Tracer(), entry)
    if "pv" in entry:
        first = ["pv", "build", _write(workdir, f"{entry['name']}.pv", entry["pv"] + "\n")]
        chains = ["chains", "--max-len", str(length)]
        extra = {"start": source, "end": target}
    else:
        first = ["gen", entry["generator"].replace("_", "-"), str(entry["n"])]
        chains = ["chains", "--from", source, "--to", target, "--max-len", str(length)]
        extra = None
    stages = [first, chains, ["nerve", f"--{entry['route']}"], ["homology"]]

    def expected() -> list[str]:
        guarantee = is_proper(X)[0] and is_non_self_linked(X)[0]
        poset = enumerate_chains(X, source, target, length)
        if entry["route"] == "covering":
            K = covering_nerve(None, poset, guarantee=guarantee)
        else:
            K = order_complex(poset)
        return [
            formats.write_cubeset(X, extra=extra),
            formats.write_poset(poset, proper_non_self_linked=guarantee),
            formats.write_complex(K),
            formats.write_homology(homology(K)),
        ]

    return stages, expected


def _query(name: str, stages: list[list[str]], expected, path_input, entry: dict | None) -> Query:
    parse = PARSERS[stages[-1][0]]

    def run(tr: Tracer):
        data = b""
        if path_input is not None:
            X, p = path_input
            data = tr.call("toolkit.write", formats.write_path, p, X).encode()
        sent = len(data)
        outputs = []
        for args in stages:
            data = tr.call("toolkit.cli_stage", run_stage, args, data)
            outputs.append(data)
        return sent, outputs, tr.call("toolkit.parse", parse, data.decode())

    def check(answer) -> None:
        _, outputs, result = answer
        docs = expected()
        expect("stage count", len(outputs), len(docs))
        for args, got, want in zip(stages, outputs, docs):
            if got != want.encode():
                raise WrongAnswer(f"`{args[0]}` output differs from the in-process document")
        if entry is not None:
            check_homology(result, entry)

    def counts(answer) -> dict[str, int]:
        sent, outputs, _ = answer
        received = [len(out) for out in outputs]
        return {
            "toolkit.cli_stages": len(stages),
            "toolkit.bytes": sent + sum(received) + sum(received[:-1]),
        }

    return Query(name, run, check, counts)
