"""Lazy package exports, and the modules each CLI command loads."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import precubical
import precubical.toolkit
from precubical import boundary_cube, enumerate_chains, order_complex
from precubical.toolkit import write_complex, write_cubeset, write_poset

PACKAGES = {
    precubical: ("carrier", "chains", "cubeset", "dpath", "errors", "nerve", "taming"),
    precubical.toolkit: ("formats", "pv"),
}


@pytest.mark.parametrize("package", list(PACKAGES), ids=lambda package: package.__name__)
def test_every_export_is_the_object_of_its_defining_module(package):
    modules = [importlib.import_module(f"{package.__name__}.{name}") for name in PACKAGES[package]]
    for name in package.__all__:
        # errors.py has no __all__: every name it defines is public
        owners = [module for module in modules if name in getattr(module, "__all__", vars(module))]
        assert len(owners) == 1, name
        assert getattr(package, name) is getattr(owners[0], name), name


@pytest.mark.parametrize("package", list(PACKAGES), ids=lambda package: package.__name__)
def test_star_import_and_dir_list_every_export(package):
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(package, name) for name in package.__all__)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("package", list(PACKAGES), ids=lambda package: package.__name__)
def test_unknown_names_raise_attribute_error(package):
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package.__name__} import no_such_name", {})


def test_submodules_resolve_as_attributes():
    assert precubical.taming is importlib.import_module("precubical.taming")
    assert precubical.toolkit.formats is importlib.import_module("precubical.toolkit.formats")


SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

# Runs the CLI in-process, then reports the package modules it loaded on stderr.
PROBE = """\
import sys
from precubical.toolkit.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as e:
    code = e.code
sys.stderr.write(" ".join(m for m in sys.modules if m.startswith("precubical.")))
sys.exit(code)
"""


def loaded_modules(args: list[str], stdin: str = "") -> set[str]:
    """The ``precubical.*`` modules (without the prefix) loaded by one CLI command."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *args], input=stdin, capture_output=True, text=True, env=ENV, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("precubical.") for m in proc.stderr.split()}


COMPUTE = {"cubeset", "carrier", "chains", "dpath", "nerve", "taming", "toolkit.pv"}
PATHS = {"carrier", "dpath", "taming", "toolkit.pv"}
BD3 = boundary_cube(3)
POSET = enumerate_chains(BD3, "v000", "v111", 3)


@pytest.mark.parametrize(
    "args, stdin, needed, excluded",
    [
        (["--help"], "", set(), COMPUTE),
        (["gen", "boundary-cube", "3"], "", {"cubeset"}, COMPUTE - {"cubeset"}),
        (["chains", "--from", "v000", "--to", "v111", "--max-len", "3"], write_cubeset(BD3), {"chains"}, PATHS | {"nerve"}),
        (["nerve", "--order"], write_poset(POSET), {"nerve"}, PATHS),
        (["nerve", "--covering"], write_poset(POSET), {"nerve"}, PATHS),
        (["homology"], write_complex(order_complex(POSET)), {"nerve"}, PATHS | {"cubeset", "chains"}),
    ],
    ids=["help", "gen", "chains", "nerve-order", "nerve-covering", "homology"],
)
def test_each_command_loads_only_its_layers(args, stdin, needed, excluded):
    loaded = loaded_modules(args, stdin)
    assert needed <= loaded
    assert not loaded & excluded, sorted(loaded & excluded)
