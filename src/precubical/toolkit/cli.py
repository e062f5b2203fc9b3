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
import sys
from typing import TYPE_CHECKING

from ..errors import FormatError, PrecubicalError
from . import formats

if TYPE_CHECKING:
    from ..cubeset import CubeSet

# Each command imports the modules it runs, so parsing the arguments loads
# no compute module and a pipeline stage loads only its own layers.
GENERATORS = ("boundary-cube", "full-cube", "q-complex", "z-complex")


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


def _load_cubeset_arg(args) -> CubeSet:
    if not getattr(args, "cubeset", None):
        raise FormatError("this command needs --cubeset FILE")
    with open(args.cubeset, "r", encoding="utf-8") as fh:
        return formats.parse_cubeset(fh.read())


def cmd_gen(args) -> None:
    from .. import cubeset

    gen = getattr(cubeset, args.kind.replace("-", "_"))
    _write(args, formats.write_cubeset(gen(args.n)))


def cmd_check(args) -> None:
    from ..cubeset import is_non_self_linked, is_proper, validate

    X = formats.parse_cubeset(_read(args), check=False)
    violations = validate(X)
    report: dict = {
        "valid": not violations,
        "violations": [
            {"kind": v.kind, "cube": v.cube, "detail": v.detail} for v in violations
        ],
    }
    if not violations:
        proper, pw = is_proper(X)
        nsl, nw = is_non_self_linked(X)
        report["proper"] = proper
        report["non_self_linked"] = nsl
        if pw:
            report["proper_witness"] = list(pw)
        if nw:
            report["self_linked_witness"] = {"cube": nw[0], "face_dim": nw[1]}
    _write(args, formats.dumps(report))


def cmd_chains(args) -> None:
    from ..chains import enumerate_chains

    doc = formats.loads(_read(args))
    X = formats._cubeset_of(doc)
    source = args.source or doc.get("start")
    target = args.target or doc.get("end")
    if not (source and target and isinstance(source, str) and isinstance(target, str)):
        raise FormatError("need --from/--to (or a cubeset with embedded start/end ids)")
    poset = enumerate_chains(X, source, target, args.max_len)
    _write(args, formats.write_poset(poset))


def cmd_nerve(args) -> None:
    from ..nerve import covering_nerve, order_complex

    poset = formats.parse_poset(_read(args))
    if args.covering:
        K = covering_nerve(None, poset)
    else:
        K = order_complex(poset)
    _write(args, formats.write_complex(K))


def cmd_homology(args) -> None:
    from ..nerve import homology

    K = formats.parse_complex(_read(args))
    _write(args, formats.write_homology(homology(K)))


def cmd_strictify(args) -> None:
    from ..dpath import strictify

    X = _load_cubeset_arg(args)
    p = formats.parse_path(_read(args), X)
    out = strictify(X, p.normalized(), flow=args.flow, samples=args.samples)
    _write(args, formats.write_path(out, X))


def cmd_tame(args) -> None:
    from ..taming import tame

    X = _load_cubeset_arg(args)
    p = formats.parse_path(_read(args), X)
    with open(args.chain, "r", encoding="utf-8") as fh:
        chain = formats.parse_chain(fh.read(), X)
    _write(args, formats.write_path(tame(X, p.normalized(), chain), X))


def cmd_naturalize(args) -> None:
    from ..dpath import naturalize

    X = _load_cubeset_arg(args)
    p = formats.parse_path(_read(args), X)
    _write(args, formats.write_path(naturalize(X, p), X))


def cmd_finest(args) -> None:
    from ..taming import finest_chain

    X = _load_cubeset_arg(args)
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    p = formats.parse_path(text, X)
    _write(args, formats.write_chain(finest_chain(X, p)))


def cmd_seq(args) -> None:
    from ..dpath import kinks_to_path, path_to_kinks

    X = _load_cubeset_arg(args)
    if args.direction == "to":
        p = formats.parse_path(_read(args), X)
        _write(args, formats.write_kinks(path_to_kinks(X, p)))
    else:
        ks = formats.parse_kinks(_read(args), X)
        _write(args, formats.write_path(kinks_to_path(X, ks), X))


def cmd_pv(args) -> None:
    from .pv import parse_pv, pv_to_euclidean

    with open(args.file, "r", encoding="utf-8") as fh:
        prog = parse_pv(fh.read())
    X, start, end = pv_to_euclidean(prog)
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
    p.add_argument("kind", choices=GENERATORS)
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
