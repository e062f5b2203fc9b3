"""Command-line interface.

Subcommands read one document from stdin (or ``--input``) and write one
document to stdout (or ``--output``), so they compose into pipelines;
``gen`` and ``pv build`` read no document, and ``finest`` reads its path
from the named file (``-`` for stdin):

    precubical gen boundary-cube 3 \\
      | precubical chains --from v000 --to v111 --max-len 3 \\
      | precubical nerve --order \\
      | precubical homology

Commands operating on paths need the complex as well, passed via
``--cubeset FILE``.  Exit codes: 0 on success, 1 on domain errors, 2 on
I/O and syntax errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .. import chains as chains_mod
from .. import cubeset as cubeset_mod
from .. import dpath as dpath_mod
from .. import nerve as nerve_mod
from .. import taming as taming_mod
from ..errors import FormatError, PrecubicalError
from . import formats, pv as pv_mod

GENERATORS = {
    "full-cube": cubeset_mod.full_cube,
    "boundary-cube": cubeset_mod.boundary_cube,
    "z-complex": cubeset_mod.z_complex,
    "q-complex": cubeset_mod.q_complex,
}


def _read(args) -> str:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return fh.read()
    return sys.stdin.read()


def _write(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_cubeset_arg(args) -> cubeset_mod.CubeSet:
    if not getattr(args, "cubeset", None):
        raise FormatError("this command needs --cubeset FILE")
    with open(args.cubeset, "r", encoding="utf-8") as fh:
        return formats.parse_cubeset(fh.read())


def cmd_gen(args) -> None:
    gen = GENERATORS[args.kind]
    _write(args, formats.write_cubeset(gen(args.n)))


def cmd_check(args) -> None:
    X = formats.parse_cubeset(_read(args), check=False)
    violations = cubeset_mod.validate(X)
    report: dict = {
        "valid": not violations,
        "violations": [
            {"kind": v.kind, "cube": v.cube, "detail": v.detail} for v in violations
        ],
    }
    if not violations:
        proper, pw = cubeset_mod.is_proper(X)
        nsl, nw = cubeset_mod.is_non_self_linked(X)
        report["proper"] = proper
        report["non_self_linked"] = nsl
        if pw:
            report["proper_witness"] = list(pw)
        if nw:
            report["self_linked_witness"] = {"cube": nw[0], "face_dim": nw[1]}
    _write(args, formats.dumps(report))


def cmd_chains(args) -> None:
    text = _read(args)
    X = formats.parse_cubeset(text)
    doc = json.loads(text)
    source = args.source or doc.get("start")
    target = args.target or doc.get("end")
    if not (source and target and isinstance(source, str) and isinstance(target, str)):
        raise FormatError("need --from/--to (or a cubeset with embedded start/end ids)")
    poset = chains_mod.enumerate_chains(X, source, target, args.max_len)
    _write(args, formats.write_poset(poset))


def cmd_nerve(args) -> None:
    poset = formats.parse_poset(_read(args))
    if args.covering:
        K = nerve_mod.covering_nerve(None, poset)
    else:
        K = nerve_mod.order_complex(poset)
    _write(args, formats.write_complex(K))


def cmd_homology(args) -> None:
    K = formats.parse_complex(_read(args))
    _write(args, formats.write_homology(nerve_mod.homology(K)))


def cmd_strictify(args) -> None:
    X = _load_cubeset_arg(args)
    p = formats.parse_path(_read(args), X)
    out = dpath_mod.strictify(X, p.normalized(), flow=args.flow, samples=args.samples)
    _write(args, formats.write_path(out, X))


def cmd_tame(args) -> None:
    X = _load_cubeset_arg(args)
    p = formats.parse_path(_read(args), X)
    with open(args.chain, "r", encoding="utf-8") as fh:
        chain = formats.parse_chain(fh.read(), X)
    _write(args, formats.write_path(taming_mod.tame(X, p.normalized(), chain), X))


def cmd_naturalize(args) -> None:
    X = _load_cubeset_arg(args)
    p = formats.parse_path(_read(args), X)
    _write(args, formats.write_path(dpath_mod.naturalize(X, p), X))


def cmd_finest(args) -> None:
    X = _load_cubeset_arg(args)
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    p = formats.parse_path(text, X)
    _write(args, formats.write_chain(chains_mod.finest_chain(X, p)))


def cmd_seq(args) -> None:
    X = _load_cubeset_arg(args)
    if args.direction == "to":
        p = formats.parse_path(_read(args), X)
        _write(args, formats.write_kinks(dpath_mod.path_to_kinks(X, p)))
    else:
        ks = formats.parse_kinks(_read(args), X)
        _write(args, formats.write_path(dpath_mod.kinks_to_path(X, ks), X))


def cmd_pv(args) -> None:
    with open(args.file, "r", encoding="utf-8") as fh:
        prog = pv_mod.parse_pv(fh.read())
    X, start, end = pv_mod.pv_to_euclidean(prog)
    _write(args, formats.write_cubeset(X, extra={"start": start, "end": end}))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="precubical", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_cubeset: bool = False, reads_document: bool = True):
        if reads_document:
            p.add_argument("--input", help="read the document from FILE instead of stdin")
        p.add_argument("--output", help="write the result to FILE instead of stdout")
        if needs_cubeset:
            p.add_argument("--cubeset", required=True, help="the complex the document refers to")

    p = sub.add_parser("gen", help="generate a named complex")
    p.add_argument("kind", choices=sorted(GENERATORS))
    p.add_argument("n", type=int)
    common(p, reads_document=False)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="validate a complex and report properness")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("chains", help="enumerate the cube-chain refinement poset")
    p.add_argument("--from", dest="source", help="source vertex id")
    p.add_argument("--to", dest="target", help="target vertex id")
    p.add_argument("--max-len", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("nerve", help="order complex or covering nerve of a poset")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--order", action="store_true")
    g.add_argument("--covering", action="store_true")
    common(p)
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("homology", help="integer homology of a complex")
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("strictify", help="strictify a directed path")
    p.add_argument("--flow", choices=["paper", "rational"], default="rational")
    p.add_argument("--samples", type=int, default=16)
    common(p, needs_cubeset=True)
    p.set_defaults(func=cmd_strictify)

    p = sub.add_parser("tame", help="tame a strict path along a chain")
    p.add_argument("--chain", required=True, help="chain document FILE")
    common(p, needs_cubeset=True)
    p.set_defaults(func=cmd_tame)

    p = sub.add_parser("naturalize", help="arc-length reparametrization")
    common(p, needs_cubeset=True)
    p.set_defaults(func=cmd_naturalize)

    p = sub.add_parser("finest", help="finest chain of a strict path")
    p.add_argument("path", help="path document FILE ('-' for stdin)")
    common(p, needs_cubeset=True, reads_document=False)
    p.set_defaults(func=cmd_finest)

    p = sub.add_parser("seq", help="convert between paths and kink sequences")
    p.add_argument("direction", choices=["to", "from"])
    common(p, needs_cubeset=True)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("pv", help="build a state space from a PV program")
    p.add_argument("action", choices=["build"])
    p.add_argument("file", help="PV program FILE")
    common(p, reads_document=False)
    p.set_defaults(func=cmd_pv)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PrecubicalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
