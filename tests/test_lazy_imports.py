"""The package and the CLI load only the modules a command runs.

``import bcorder`` loads no submodule; each public name is imported on first
access.  Each subcommand, run in a fresh process, loads exactly the bcorder
modules it needs, so a cold process without cached bytecode compiles no
other, and none of them imports numpy.ma, which np.unique would load for
about 8 ms of a cold process.
"""

import os
import subprocess
import sys

import pytest

import bcorder

SRC = os.path.dirname(os.path.dirname(bcorder.__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))

# what every command loads: the package, the CLI and the modules it imports eagerly
BASE = {"bcorder", "bcorder.cli", "bcorder.probcore", "bcorder.channels", "bcorder.bscbec"}
EVERY = BASE | {"bcorder.classify", "bcorder.regions", "bcorder.verifysuite"}

_PROBE = (
    "import contextlib, io, sys, bcorder.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = bcorder.cli.main(sys.argv[1:])\n"
    "names = (name for name in sys.modules if name.split('.')[0] == 'bcorder' or name == 'numpy.ma')\n"
    "print(code, ' '.join(sorted(names)))\n"
)


def _loaded(*argv: str) -> tuple[int, set[str]]:
    res = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], env=ENV, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    code, _, names = res.stdout.strip().partition(" ")
    return int(code), set(names.split())


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (["classify", "--bsc", "0.1", "--bec", "0.5", "--grid", "10"], 0, BASE | {"bcorder.classify"}),
        (["symmetry", "--bsc", "0.1", "--bec", "0.5"], 0, BASE | {"bcorder.classify"}),
        # one channel has no dominance to decide, so no ordering test
        (["symmetry", "--bsc", "0.1"], 0, BASE),
        (["dcurve", "--p", "0.1", "--e", "0.3", "--samples", "11"], 0, BASE),
        (["phase-map", "--grid", "5"], 0, BASE),
        (["region", "--bsc", "0.1", "--bec", "0.5", "--which", "ib", "--grid", "10"], 0, BASE | {"bcorder.regions"}),
        # an unknown bound is refused from the names alone
        (["region", "--bsc", "0.1", "--bec", "0.5", "--which", "nope"], 2, BASE),
        (["verify-paper", "--list"], 0, EVERY),
        (["verify-paper", "--check", "nope"], 2, EVERY),
        (["--help"], 0, BASE),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_command_loads_only_its_modules(argv, code, modules):
    assert _loaded(*argv) == (code, modules)


def test_package_import_loads_no_submodule():
    probe = "import sys, bcorder; print(sorted(name for name in sys.modules if name.startswith('bcorder')))"
    res = subprocess.run([sys.executable, "-c", probe], env=ENV, capture_output=True, text=True, timeout=120)
    assert res.stdout == "['bcorder']\n", res.stderr


def test_public_names_resolve_to_their_module_objects():
    import importlib

    for module, names in bcorder._EXPORTS.items():
        mod = importlib.import_module(f"bcorder.{module}")
        assert getattr(bcorder, module) is mod
        for name in names:
            assert getattr(bcorder, name) is getattr(mod, name), name
            assert bcorder.__dict__[name] is getattr(mod, name), name  # kept after first access
    assert len(set(bcorder.__all__)) == len(bcorder.__all__)
    assert set(bcorder.__all__) <= set(dir(bcorder))


def test_star_import_binds_every_public_name():
    scope: dict = {}
    exec("from bcorder import *", scope)
    assert {name for name in scope if name != "__builtins__"} == set(bcorder.__all__)
    for name in bcorder.__all__:
        assert scope[name] is getattr(bcorder, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        bcorder.not_a_name  # noqa: B018


def test_region_bound_names_have_one_definition():
    from bcorder import cli, probcore, regions

    assert cli.REGION_BOUNDS is regions.REGION_BOUNDS is probcore.REGION_BOUNDS
    assert regions._BOUND_KINDS is probcore.REGION_BOUND_KINDS
