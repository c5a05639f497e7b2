"""What each process loads: the package is lazy, and each subcommand imports only what it runs."""

import importlib
import json

import pytest
from test_cli import run_python

import qubitlab

# runs cli.main(ARGV) in a fresh interpreter and prints the qubitlab modules it loaded, then whether numpy
# and numpy.random were
RUN_MAIN = """
import contextlib, io, json, sys
from qubitlab import cli
try:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(json.loads(sys.argv[1]))
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "qubitlab")))
print(json.dumps("numpy" in sys.modules))
print(json.dumps("numpy.random" in sys.modules))
"""

SHELL = ["qubitlab", "qubitlab.cli", "qubitlab.errors"]
PROJECT = [*SHELL, "qubitlab.measure"]
BELL = [*PROJECT, "qubitlab.bell"]
CHSH = [*BELL, "qubitlab.boxes"]
GAME = [*SHELL, "qubitlab.measure", "qubitlab.quoin", "qubitlab.rng"]

MODULE_SETS = {
    "help": (["--help"], SHELL),
    "usage-error": (["chsh", "--source", "bogus"], SHELL),
    "project": (["project", "--theta", "1"], PROJECT),
    "project-trials": (["project", "--theta", "1", "--trials", "100"], [*PROJECT, "qubitlab.rng"]),
    "bell": (["bell", "--kind", "phi+", "--a", "0", "--b", "1"], BELL),
    "bell-trials": (["bell", "--kind", "singlet", "--a", "0", "--b", "1", "--trials", "100"], [*BELL, "qubitlab.rng"]),
    "chsh-prbox": (["chsh", "--source", "prbox"], CHSH),
    "chsh-lhv": (["chsh", "--source", "lhv"], CHSH),
    "chsh-extremal": (["chsh", "--source", "quantum", "--angles", "0,pi,0,pi"], CHSH),
    "chsh-quantum": (["chsh", "--source", "quantum"], CHSH),
    "chsh-scan": (["chsh", "--source", "quantum", "--scan", "36"], CHSH),
    "game": (["game", "simulate", "--games", "10"], GAME),
    "game-transcript": (["game", "simulate", "--games", "10", "--transcript", "{tmp}/t.jsonl"], GAME),
}

# the analytic commands run on floats, a non-extremal box's conservation trace and the Tsirelson scan included;
# numpy comes with sampling and the game
NO_NUMPY = {
    "help", "usage-error", "project", "bell", "chsh-prbox", "chsh-lhv", "chsh-extremal", "chsh-quantum", "chsh-scan"
}
# numpy.random (about 15 ms) comes with sampling and with the game: every draw is keyed by
# numpy's SeedSequence, once per (seed, stream), also where `game simulate` plays blocks of games
NUMPY_RANDOM = {"project-trials", "bell-trials", "game", "game-transcript"}


@pytest.mark.parametrize("case", list(MODULE_SETS))
def test_subcommand_loads_only_its_modules(tmp_path, case):
    argv, expected = MODULE_SETS[case]
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    proc = run_python(["-c", RUN_MAIN, json.dumps(argv)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules, numpy_loaded, numpy_random_loaded = map(json.loads, proc.stdout.splitlines())
    assert modules == sorted(expected)
    assert numpy_loaded == (case not in NO_NUMPY)
    assert numpy_random_loaded == (case in NUMPY_RANDOM)


def test_bare_import_loads_no_submodule_and_no_numpy():
    code = "import sys, qubitlab; print(sorted(m for m in sys.modules if m.startswith(('qubitlab.', 'numpy'))))"
    proc = run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_largest_scan_loads_no_numpy():
    # default, equal and antipodal Alice angles: the last two make a part flat, so every grid point is evaluated
    code = """
import math, sys
from qubitlab.boxes import MAX_SCAN_N, tsirelson_scan
for angles in ((0.0, math.pi / 2.0), (0.3, 0.3), (0.3 + math.pi, 0.3)):
    tsirelson_scan(n=MAX_SCAN_N, alice_angles=angles)
assert "numpy" not in sys.modules
"""
    proc = run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_int_angles_and_tolerances_load_no_numpy():
    # each int used to reach numpy through the one number check, which imported it for anything but a float
    code = """
import sys
from qubitlab.bell import BellKind, closed_form_joint, plane_direction
from qubitlab.boxes import no_signalling_check, pr_box, tsirelson_scan
from qubitlab.measure import binomial_band
tsirelson_scan(alice_angles=(0, 1))
plane_direction("xz", 0)
closed_form_joint(BellKind.SINGLET, 1)
no_signalling_check(pr_box(), 0)
binomial_band(1, 10)
assert "numpy" not in sys.modules
"""
    proc = run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_names_and_submodules_resolve_on_first_access():
    code = """
import sys, qubitlab
from qubitlab import tensor
assert sorted(m for m in sys.modules if m.startswith("qubitlab.")) == ["qubitlab.errors", "qubitlab.hilbert"]
assert qubitlab.quoin.monte_carlo is sys.modules["qubitlab.quoin"].monte_carlo
assert "qubitlab.spinops" not in sys.modules
"""
    proc = run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", qubitlab.__all__)
def test_export_is_the_object_in_its_home_module(name):
    home = importlib.import_module(f"qubitlab.{qubitlab._HOME[name]}")
    obj = getattr(qubitlab, name)
    assert obj is getattr(home, name)
    assert getattr(obj, "__module__", home.__name__) == home.__name__


def test_dir_lists_every_export_and_submodule():
    assert set(dir(qubitlab)) >= {*qubitlab.__all__, "bell", "cli", "quoin", "rng", "spinops", "__version__"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qubitlab.no_such_name
    with pytest.raises(ImportError):
        from qubitlab import no_such_name  # noqa: F401
