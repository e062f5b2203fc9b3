from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from precubical import (
    CubeChain,
    FormatError,
    KinkSequence,
    Point,
    boundary_cube,
    covering_nerve,
    enumerate_chains,
    euclidean,
    full_cube,
    is_non_self_linked,
    is_proper,
    order_complex,
    paths_equal,
    q_complex,
    validate,
    z_complex,
)
from precubical.dpath import path
from precubical.toolkit import (
    parse_chain,
    parse_cubeset,
    parse_kinks,
    parse_path,
    parse_poset,
    parse_pv,
    pv_to_euclidean,
    write_chain,
    write_complex,
    write_cubeset,
    write_kinks,
    write_path,
    write_poset,
)
from precubical.toolkit.cli import main


# -- formats --------------------------------------------------------------------


def test_cubeset_round_trip():
    for X in (full_cube(2), boundary_cube(3), z_complex(2)):
        text = write_cubeset(X)
        Y = parse_cubeset(text)
        assert write_cubeset(Y) == text
        assert sorted(Y.cubes()) == sorted(X.cubes())
        assert all(Y.dim(c) == X.dim(c) for c in X.cubes())


def test_rationals_parse_exactly():
    X = full_cube(2)
    text = write_path(path([("**", [(0, (0, 0)), ("1/3", ("1/3", "1/7")), (1, (1, 1))])]), X)
    p = parse_path(text, X)
    assert p.segments[0].points[1][0] == F(1, 3)
    assert p.segments[0].points[1][1] == (F(1, 3), F(1, 7))
    assert write_path(p, X) == text


def test_floats_rejected_in_documents():
    X = full_cube(2)
    doc = {"segments": [{"cube": "**", "breakpoints": [[0, [0, 0]], [0.5, [1, 1]]]}]}
    with pytest.raises(FormatError):
        parse_path(json.dumps(doc), X)


def test_path_junction_mismatch_names_the_junction():
    from precubical import euclidean

    E = euclidean([((0, 0), (1, 1)), ((1, 0), (2, 1))])
    doc = {
        "segments": [
            {"cube": "0,0|1,1", "breakpoints": [["0", ["0", "0"]], ["1/2", ["1", "1/3"]]]},
            {"cube": "1,0|2,1", "breakpoints": [["1/2", ["0", "2/3"]], ["1", ["1", "1"]]]},
        ]
    }
    with pytest.raises(FormatError, match="junction 1"):
        parse_path(json.dumps(doc), E)


def test_path_start_declaration_checked():
    X = full_cube(2)
    text = write_path(path([("**", [(0, (0, 0)), (1, (1, 1))])]), X)
    assert json.loads(text)["start"] == "v00"
    tampered = text.replace('"v00"', '"v11"')
    with pytest.raises(FormatError, match="declared start"):
        parse_path(tampered, X)


def test_cubeset_validation_on_load():
    X = full_cube(2)
    doc = json.loads(write_cubeset(X))
    for entry in doc["cubes"]:
        if entry["id"] == "0*":
            entry["faces"]["d0_1"] = "v01"
            entry["faces"]["d1_1"] = "v00"
    with pytest.raises(FormatError, match="violation"):
        parse_cubeset(json.dumps(doc))


def test_syntax_error_carries_position():
    with pytest.raises(FormatError) as err:
        parse_cubeset("{bad json")
    assert err.value.line == 1 and err.value.column is not None


def test_chain_and_poset_round_trip():
    B = boundary_cube(3)
    chain = CubeChain("v000", "v111", ("**0", "11*"))
    assert parse_chain(write_chain(chain), B) == chain
    poset = enumerate_chains(B, "v000", "v111", 3)
    text = write_poset(poset)
    back = parse_poset(text)
    assert back == poset and back.proper_non_self_linked
    assert write_poset(back) == text
    quotient = enumerate_chains(q_complex(2), "q0_0", "q0_2", 2)
    assert json.loads(write_poset(quotient))["proper_non_self_linked"] is False
    assert parse_poset(write_poset(quotient)) == quotient
    # the keyword overrides the poset's record
    assert parse_poset(write_poset(quotient, proper_non_self_linked=True)).proper_non_self_linked


_PV684 = "A = P(a).V(a).P(b).V(b); B = P(a).V(a).P(b).V(b); C = P(a).V(a)"


@pytest.mark.parametrize(
    "build, length, digest",
    [
        (lambda: (boundary_cube(5), "v00000", "v11111"), 5,
         "0ced547a2cf56491dc823d66cae810219beb5f9fb92d3e6a992ba91714f89ba3"),
        (lambda: pv_to_euclidean(parse_pv(_PV684)), 10,
         "26eb5e4f82d85605397eef4718434e7325c0b7094faa9c45cbde389da289c79a"),
        (lambda: (q_complex(4), "q0_0", "q0_4"), 4,
         "ae92dc04b6766ec1f35a8f1ab8c07b347455aeccfacacd4b6cdf478196056d4a"),
    ],
    ids=["bd5", "pv684", "q4"],
)
def test_poset_documents_are_pinned(build, length, digest):
    # any change in the order of objects or covers changes these bytes
    X, source, target = build()
    text = write_poset(enumerate_chains(X, source, target, length))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_parse_poset_rejects_covers_that_do_not_add_one_cube():
    doc = json.loads(write_poset(enumerate_chains(boundary_cube(3), "v000", "v111", 3)))
    for covers in ([[0, 0]], [[0, 99]], [[0, 6], [6, 0]], [doc["covers"][0]] * 2):
        with pytest.raises(FormatError):
            parse_poset(json.dumps({**doc, "covers": covers}))


def test_parse_poset_rejects_covers_that_lead_to_earlier_objects():
    doc = json.loads(write_poset(enumerate_chains(boundary_cube(3), "v000", "v111", 3)))
    last = len(doc["objects"]) - 1
    reversed_doc = {
        **doc,
        "objects": doc["objects"][::-1],
        "covers": [[last - a, last - b] for a, b in doc["covers"]],
    }
    with pytest.raises(FormatError, match="leads to an earlier object"):
        parse_poset(json.dumps(reversed_doc))


def test_parse_poset_accepts_only_integer_cover_indices():
    doc = json.loads(write_poset(enumerate_chains(boundary_cube(3), "v000", "v111", 3)))
    a, b = doc["covers"][0]
    for bad in ([a, b + 0.9], [a, float(b)], [a, str(b)], [True, b]):
        with pytest.raises(FormatError, match=r"poset 'covers'\[0\]"):
            parse_poset(json.dumps({**doc, "covers": [bad] + doc["covers"][1:]}))


def test_kinks_round_trip():
    C3 = full_cube(3)
    ks = KinkSequence(
        (
            Point("v000", ()),
            Point("***", (F(1, 3), F(1, 3), F(1, 3))),
            Point("***", (F(2, 3), F(2, 3), F(2, 3))),
            Point("v111", ()),
        )
    )
    assert parse_kinks(write_kinks(ks), C3).points == ks.points


# -- PV programs ------------------------------------------------------------------


def test_pv_mutex_is_the_boundary_square():
    prog = parse_pv("A = P(a).V(a); B = P(a).V(a)")
    assert prog.semaphores == {"a": 1}
    X, start, end = pv_to_euclidean(prog)
    assert validate(X) == []
    assert is_proper(X)[0] and is_non_self_linked(X)[0]
    assert len(X.cubes_of_dim(0)) == 8
    assert len(X.cubes_of_dim(1)) == 8
    assert len(X.cubes_of_dim(2)) == 0
    assert start == "0,0|0,0" and end == "2,2|2,2"


def test_pv_single_process_interval():
    X, start, end = pv_to_euclidean(parse_pv("P(a).V(a)"))
    assert len(X.cubes_of_dim(0)) == 3 and len(X.cubes_of_dim(1)) == 2
    assert start == "0|0" and end == "2|2"


def test_pv_empty_program_is_a_point():
    X, start, end = pv_to_euclidean(parse_pv(""))
    assert len(X) == 1 and start == end


def test_pv_independent_semaphores_leave_full_grid():
    X, _, _ = pv_to_euclidean(parse_pv("A = P(a).V(a); B = P(b).V(b)"))
    assert len(X.cubes_of_dim(2)) == 4  # nothing forbidden


def test_pv_rejects_malformed_programs():
    with pytest.raises(FormatError):
        parse_pv("A = P(a).P(a)")
    with pytest.raises(FormatError):
        parse_pv("A = V(a)")
    with pytest.raises(FormatError):
        parse_pv("A = P(a)")
    with pytest.raises(FormatError):
        parse_pv("A = hop(a)")


def test_pv_three_philosophers_not_deadlock_free_geometry():
    # three processes sharing one mutex: the grid minus a 3d block column
    X, start, end = pv_to_euclidean(parse_pv("P(a).V(a); P(a).V(a); P(a).V(a)"))
    assert validate(X) == []
    assert len(X.cubes_of_dim(3)) == 0


# -- CLI ---------------------------------------------------------------------------


SRC = str(Path(__file__).resolve().parent.parent / "src")
# the child processes import the library from this checkout, installed or not
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(args: list[str], stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "precubical.toolkit.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )


def test_cli_pipeline_boundary_cube(tmp_path):
    gen = run_cli(["gen", "boundary-cube", "3"])
    assert gen.returncode == 0
    chains = run_cli(["chains", "--from", "v000", "--to", "v111", "--max-len", "3"], gen.stdout)
    assert chains.returncode == 0
    nerve = run_cli(["nerve", "--order"], chains.stdout)
    assert nerve.returncode == 0
    hom = run_cli(["homology"], nerve.stdout)
    assert hom.returncode == 0
    assert json.loads(hom.stdout)["betti"] == [1, 1]


def test_cli_order_complex_flags_self_linked_inputs():
    for n in (2, 3):
        gen = run_cli(["gen", "q-complex", str(n)])
        chains = run_cli(["chains", "--from", "q0_0", "--to", f"q0_{n}", "--max-len", str(n)], gen.stdout)
        nerve = run_cli(["nerve", "--order"], chains.stdout)
        assert nerve.returncode == 0
        assert json.loads(nerve.stdout)["flags"] == ["no-nerve-lemma-guarantee"]
        hom = run_cli(["homology"], nerve.stdout)
        assert "no-nerve-lemma-guarantee" in json.loads(hom.stdout)["flags"]
    # a proper input keeps the document it had before the flag existed
    gen = run_cli(["gen", "boundary-cube", "3"])
    chains = run_cli(["chains", "--from", "v000", "--to", "v111", "--max-len", "3"], gen.stdout)
    nerve = run_cli(["nerve", "--order"], chains.stdout)
    poset = enumerate_chains(boundary_cube(3), "v000", "v111", 3)
    assert nerve.stdout == write_complex(order_complex(poset))


@pytest.mark.parametrize(
    "X, source, target, length",
    [
        (q_complex(2), "q0_0", "q0_2", 2),
        (q_complex(3), "q0_0", "q0_3", 3),
        (z_complex(2), "c0", "c0", 2),
        (boundary_cube(3), "v000", "v111", 3),
        (full_cube(2), "v00", "v11", 2),
    ],
    ids=["q2", "q3", "z2", "bd3", "full2"],
)
def test_cli_nerves_equal_the_in_process_nerves(X, source, target, length):
    poset = enumerate_chains(X, source, target, length)
    chains = run_cli(["chains", "--from", source, "--to", target, "--max-len", str(length)], write_cubeset(X))
    assert chains.stdout == write_poset(poset)
    for route, K in (("--order", order_complex(poset)), ("--covering", covering_nerve(None, poset))):
        nerve = run_cli(["nerve", route], chains.stdout)
        assert nerve.returncode == 0
        assert nerve.stdout == write_complex(K)


def test_cli_poset_without_its_guarantee_is_refused():
    doc = json.loads(write_poset(enumerate_chains(boundary_cube(3), "v000", "v111", 3)))
    del doc["proper_non_self_linked"]
    r = run_cli(["nerve", "--order"], json.dumps(doc))
    assert r.returncode == 2
    assert r.stderr == "error: poset: missing key 'proper_non_self_linked'\n", r.stderr


def test_cli_gen_refuses_an_oversized_cube_at_once():
    r = subprocess.run(
        [sys.executable, "-m", "precubical.toolkit.cli", "gen", "full-cube", "40"],
        capture_output=True,
        text=True,
        env=CLI_ENV,
        timeout=30,
    )
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("error: full_cube(40) would build 324,204,412,241,518,101,360 face-table entries")


def test_cli_outputs_are_deterministic():
    a = run_cli(["gen", "full-cube", "2"]).stdout
    b = run_cli(["gen", "full-cube", "2"]).stdout
    assert a == b


def test_cli_check_reports_z_complex():
    gen = run_cli(["gen", "z-complex", "2"])
    check = run_cli(["check"], gen.stdout)
    assert check.returncode == 0
    report = json.loads(check.stdout)
    assert report["valid"] and not report["proper"] and not report["non_self_linked"]


def test_cli_pv_to_homology(tmp_path):
    pv_file = tmp_path / "mutex.pv"
    pv_file.write_text("A = P(a).V(a)\nB = P(a).V(a)\n")
    built = run_cli(["pv", "build", str(pv_file)])
    assert built.returncode == 0
    chains = run_cli(["chains", "--max-len", "4"], built.stdout)
    assert chains.returncode == 0
    hom = run_cli(["homology"], run_cli(["nerve", "--order"], chains.stdout).stdout)
    assert json.loads(hom.stdout)["betti"] == [2]


def test_cli_strictify_tame_finest_roundtrip(tmp_path):
    X = full_cube(2)
    cubeset_file = tmp_path / "square.json"
    cubeset_file.write_text(write_cubeset(X))
    bent = path([("**", [(0, (0, 0)), (F(1, 2), (F(4, 5), F(1, 10))), (1, (1, 1))])])
    path_text = write_path(bent, X)

    finest = run_cli(["finest", "-", "--cubeset", str(cubeset_file)], path_text)
    assert finest.returncode == 0
    assert json.loads(finest.stdout)["cubes"] == ["*0", "1*"]

    chain_file = tmp_path / "chain.json"
    chain_file.write_text(finest.stdout)
    tamed = run_cli(["tame", "--chain", str(chain_file), "--cubeset", str(cubeset_file)], path_text)
    assert tamed.returncode == 0
    q = parse_path(tamed.stdout, X)
    assert [s.cube for s in q.segments] == ["*0", "1*"]

    strictified = run_cli(["strictify", "--flow", "rational", "--samples", "4", "--cubeset", str(cubeset_file)], path_text)
    assert strictified.returncode == 0

    paper = run_cli(["strictify", "--flow", "paper", "--samples", "4", "--cubeset", str(cubeset_file)], path_text)
    assert paper.returncode == 0


def test_cli_naturalize_and_seq(tmp_path):
    C3 = full_cube(3)
    cubeset_file = tmp_path / "cube3.json"
    cubeset_file.write_text(write_cubeset(C3))
    diag = path([("***", [(0, (0, 0, 0)), (1, (1, 1, 1))])])
    nat = run_cli(["naturalize", "--cubeset", str(cubeset_file)], write_path(diag, C3))
    assert nat.returncode == 0
    kinks = run_cli(["seq", "to", "--cubeset", str(cubeset_file)], nat.stdout)
    assert kinks.returncode == 0
    assert len(json.loads(kinks.stdout)["points"]) == 4
    back = run_cli(["seq", "from", "--cubeset", str(cubeset_file)], kinks.stdout)
    assert back.returncode == 0
    assert paths_equal(C3, parse_path(back.stdout, C3), parse_path(nat.stdout, C3))


def test_cli_seq_round_trip_of_a_one_point_sequence(tmp_path):
    square = tmp_path / "square.json"
    square.write_text(write_cubeset(full_cube(2)))
    ks = '{"points": [{"cube": "v00", "coords": []}]}'
    back = run_cli(["seq", "from", "--cubeset", str(square)], ks)
    assert back.returncode == 0, back.stderr
    assert parse_path(back.stdout, full_cube(2)) == path([("v00", [(0, ()), (1, ())])])
    again = run_cli(["seq", "to", "--cubeset", str(square)], back.stdout)
    assert again.returncode == 0, again.stderr
    assert json.loads(again.stdout) == json.loads(ks)


def test_cli_exit_codes(tmp_path):
    # syntax error -> 2
    bad = run_cli(["check"], "{not json")
    assert bad.returncode == 2
    # domain error -> 1 (taming a non-subordinate path)
    X = full_cube(2)
    cubeset_file = tmp_path / "square.json"
    cubeset_file.write_text(write_cubeset(X))
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(write_chain(CubeChain("v00", "v11", ("0*", "*1"))))
    bent = write_path(path([("**", [(0, (0, 0)), (F(1, 2), (F(4, 5), F(1, 10))), (1, (1, 1))])]), X)
    r = run_cli(["tame", "--chain", str(chain_file), "--cubeset", str(cubeset_file)], bent)
    assert r.returncode == 1
    # missing file -> 2
    r = run_cli(["pv", "build", str(tmp_path / "missing.pv")])
    assert r.returncode == 2


@pytest.mark.parametrize("command", [["naturalize"], ["strictify", "--samples", "2"]])
@pytest.mark.parametrize(
    "breakpoints, where",
    [
        ([["0", ["0", "0"]], ["1", ["2", "1"]]], "coordinate 2 outside [0, 1] at t=1"),
        ([["0", ["0", "0"]], ["1", ["1e400", "1"]]], f"coordinate 1{'0' * 400} outside [0, 1] at t=1"),
        ([["0", ["0", "-1/3"]], ["1/2", ["1/2", "1/2"]], ["1", ["1", "1"]]], "coordinate -1/3 outside [0, 1] at t=0"),
    ],
    ids=["above", "huge", "below"],
)
def test_cli_path_commands_refuse_coordinates_outside_the_unit_square(tmp_path, command, breakpoints, where):
    # each path is monotone, so only the range check refuses it; without it
    # naturalize wrote the point back and strictify wrote huge negative
    # coordinates, both with exit 0
    square = tmp_path / "square.json"
    square.write_text(write_cubeset(full_cube(2)))
    doc = {"segments": [{"cube": "**", "breakpoints": breakpoints}]}
    r = run_cli([*command, "--cubeset", str(square)], json.dumps(doc))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == f"error: path: segment 0: {where}\n", r.stderr


# stands for the path of a full_cube(2) cubeset file written by the test
_SQUARE = object()
_SEQ_FROM = ["seq", "from", "--cubeset", _SQUARE]
_POSET_DOC = json.loads(write_poset(enumerate_chains(boundary_cube(3), "v000", "v111", 3)))


@pytest.mark.parametrize(
    "command, doc, names",
    [
        (["homology"], {"vertices": ["a"], "maximal_simplices": [["x"]]}, "complex 'maximal_simplices'[0][0]"),
        (["homology"], {"vertices": ["a"], "maximal_simplices": 5}, "complex 'maximal_simplices'"),
        (["nerve", "--order"], {**_POSET_DOC, "covers": [[0]]}, "poset 'covers'[0]"),
        (["nerve", "--order"], {**_POSET_DOC, "objects": 5}, "poset 'objects'"),
        (["nerve", "--order"], {**_POSET_DOC, "max_length": "x"}, "poset 'max_length'"),
        (["check"], {"cubes": [5]}, "cubeset 'cubes'[0]"),
        (["check"], {"cubes": [{"id": "e", "dim": 1, "faces": ["v0", "v1"]}]}, "cubeset 'cubes'[0] 'faces'"),
        (["homology"], {"vertices": ["a"], "maximal_simplices": [[5]]}, "complex 'maximal_simplices'[0]"),
        (["homology"], {"vertices": ["a"], "maximal_simplices": [[-1]]}, "complex 'maximal_simplices'[0]"),
        (["homology"], {"vertices": ["a", "b"], "maximal_simplices": [[0], [1, 0]]}, "complex 'maximal_simplices'[1]"),
        (["homology"], {"vertices": ["a"], "maximal_simplices": [[0, 0]]}, "complex 'maximal_simplices'[0]"),
        (["homology"], {"vertices": [1, [2]], "maximal_simplices": [[0, 1]]}, "complex 'vertices'[0]"),
        (_SEQ_FROM, {"points": [{"cube": "v00", "coords": []}, {"cube": "0*", "coords": ["2"]}]}, "kinks 'points'[1]"),
        (_SEQ_FROM, {"points": [{"cube": "nope", "coords": []}]}, "kinks 'points'[0]"),
        (_SEQ_FROM, {"points": [{"cube": "**", "coords": ["1/2"]}]}, "kinks 'points'[0]"),
    ],
    ids=[
        "simplex-entry", "simplices", "cover", "objects", "max-length", "cube", "faces",
        "vertex-above-range", "vertex-below-range", "vertices-decreasing", "vertex-repeated",
        "vertex-label", "kink-coordinate", "kink-cube", "kink-coordinate-count",
    ],
)
def test_cli_malformed_documents_give_a_one_line_error(tmp_path, command, doc, names):
    square = tmp_path / "square.json"
    square.write_text(write_cubeset(full_cube(2)))
    command = [str(square) if arg is _SQUARE else arg for arg in command]
    r = run_cli(command, json.dumps(doc))
    assert r.returncode == 2
    assert r.stderr.startswith(f"error: {names}: expected ") and r.stderr.count("\n") == 1, r.stderr


@pytest.mark.parametrize(
    "command, stdin",
    [
        (["homology"], "[" * 100_000 + "]" * 100_000),
        (["check", "--input", "BAD"], ""),
        (["naturalize", "--cubeset", "BAD"], "{}"),
        (["tame", "--cubeset", "SQUARE", "--chain", "BAD"], "DIAGONAL"),
        (["finest", "--cubeset", "SQUARE", "BAD"], ""),
        (["pv", "build", "BAD"], ""),
    ],
    ids=["deep-nesting", "input", "cubeset", "chain", "finest-path", "pv-file"],
)
def test_cli_unreadable_inputs_give_a_one_line_error(tmp_path, command, stdin):
    # a too deeply nested document or a file that is not UTF-8 is a format error, not a traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    square = tmp_path / "square.json"
    square.write_text(write_cubeset(full_cube(2)))
    files = {"BAD": str(bad), "SQUARE": str(square)}
    diagonal = write_path(path([("**", [(0, (0, 0)), (1, (1, 1))])]), full_cube(2))
    r = run_cli([files.get(arg, arg) for arg in command], diagonal if stdin == "DIAGONAL" else stdin)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr


def test_cli_chains_rejects_an_embedded_start_that_is_not_an_id():
    doc = {**json.loads(write_cubeset(full_cube(2))), "start": ["v00"], "end": "v11"}
    r = run_cli(["chains", "--max-len", "2"], json.dumps(doc))
    assert r.returncode == 2
    assert r.stderr.startswith("error: need --from/--to") and r.stderr.count("\n") == 1, r.stderr


def test_cli_output_and_input_flags(tmp_path):
    out = tmp_path / "cube.json"
    r = run_cli(["gen", "full-cube", "2", "--output", str(out)])
    assert r.returncode == 0 and r.stdout == ""
    r2 = run_cli(["check", "--input", str(out)])
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["valid"]


@pytest.mark.parametrize("command", ["gen", "finest", "pv"])
def test_cli_input_is_refused_where_no_document_is_read(tmp_path, command):
    # these commands take their input from arguments (or, for finest, from its
    # path argument), so an --input option would be silently ignored
    missing = str(tmp_path / "missing.json")
    cubeset_file = tmp_path / "square.json"
    cubeset_file.write_text(write_cubeset(full_cube(2)))
    pv_file = tmp_path / "prog.pv"
    pv_file.write_text(_PV684)
    diagonal = write_path(path([("**", [(0, (0, 0)), (1, (1, 1))])]), full_cube(2))
    argv, stdin = {
        "gen": (["gen", "full-cube", "1"], ""),
        "finest": (["finest", "--cubeset", str(cubeset_file), "-"], diagonal),
        "pv": (["pv", "build", str(pv_file)], ""),
    }[command]
    assert run_cli(argv, stdin).returncode == 0
    r = run_cli(argv + ["--input", missing], stdin)
    assert r.returncode == 2
    assert "unrecognized arguments: --input" in r.stderr, r.stderr


def test_cli_covering_nerve_flags_from_truncated_loop_complex():
    gen = run_cli(["gen", "z-complex", "2"])
    chains = run_cli(["chains", "--from", "c0", "--to", "c0", "--max-len", "2"], gen.stdout)
    assert chains.returncode == 0
    assert json.loads(chains.stdout)["truncated"] is True
    assert json.loads(chains.stdout)["proper_non_self_linked"] is False
    nerve = run_cli(["nerve", "--covering"], chains.stdout)
    assert nerve.returncode == 0
    flags = set(json.loads(nerve.stdout)["flags"])
    assert {"truncated-approximation", "no-nerve-lemma-guarantee"} <= flags
    hom = run_cli(["homology"], nerve.stdout)
    assert {"truncated-approximation", "no-nerve-lemma-guarantee"} <= set(json.loads(hom.stdout)["flags"])


def test_cli_chains_on_a_long_line():
    line = euclidean([((i,), (i + 1,)) for i in range(1500)])
    r = run_cli(["chains", "--from", "0|0", "--to", "1500|1500", "--max-len", "1500"], write_cubeset(line))
    assert r.returncode == 0, r.stderr
    assert len(json.loads(r.stdout)["objects"]) == 1


def test_pv_two_semaphore_deadlock_geometry():
    # the classic crossed-locks program: forbidden region is a plus-shaped
    # cross, leaving two schedule classes around it
    from precubical import (
        covering_nerve,
        enumerate_chains,
        homology,
        is_non_self_linked,
        order_complex,
    )

    prog = parse_pv("A = P(a).P(b).V(b).V(a); B = P(b).P(a).V(a).V(b)")
    X, start, end = pv_to_euclidean(prog)
    assert validate(X) == []
    assert is_proper(X)[0] and is_non_self_linked(X)[0]
    assert len(X.cubes_of_dim(0)) == 20  # 5x5 grid minus the 5 cross vertices
    assert len(X.cubes_of_dim(2)) == 4   # only the four corner cells survive
    poset = enumerate_chains(X, start, end, 8)
    assert not poset.truncated
    ho = homology(order_complex(poset))
    assert ho.betti[0] == 2 and all(b == 0 for b in ho.betti[1:])
    assert ho.equivalent(homology(covering_nerve(X, poset)))
