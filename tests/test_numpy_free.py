"""numpy stays off the cold path of every game that draws nothing at random.

`import beta_arena` does not load numpy, and neither does any command that
touches only real bases (`expand --real`, `admissible`, `regions`) nor any
game or scan on the real, complex or componentwise presets against a Bob
that draws nothing at random.  Each of these runs in a fresh interpreter,
since this one has numpy loaded, and its output must equal the same
command's output here.  The commands that still need numpy (a random
stream, the avoidance play's matrix powers, a 2x2 or 4x4 reconstruct) are
checked to load it.  No quaternion command loads fractions or decimal.
The pure-Python formulas that stand in for numpy on those paths are
compared with numpy bit for bit.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beta_arena import cli
from beta_arena.cli import parse_lattice
from beta_arena.complexexp import _DELTA_POLY, _delta_root, gamma_constants
from beta_arena.numeric import DigitKernel, Quaternion, metallic_mean
from beta_arena.quatexp import isoclinic_matrix
from beta_arena.systems import QuatSystem
from test_pinned_outputs import TRACE_PINS

# runs cli.main on the JSON argv in sys.argv[1]; prints exit code, whether
# numpy got loaded, and stdout
MAIN = """
import contextlib, io, json, sys
from beta_arena import cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, "numpy" in sys.modules, out.getvalue()]))
"""

# plays dwinning-golden against the given Bob at seed 0; prints whether numpy
# got loaded and the sha256 of the trace
TRACE = """
import hashlib, json, sys
from beta_arena.presets import build_preset, run_setup
trace, _ = run_setup(build_preset("dwinning-golden", bob=sys.argv[1]), seed=0)
print(json.dumps(["numpy" in sys.modules,
                  hashlib.sha256(trace.to_json().encode()).hexdigest()]))
"""


def fresh(code, *args):
    """Run code in a new interpreter and decode the JSON line it prints."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_package_import_leaves_numpy_unloaded():
    assert fresh('import json, sys, beta_arena\n'
                 'print(json.dumps("numpy" in sys.modules))') is False


REAL_COMMANDS = {
    "expand-real": ["expand", "--real", "golden", "--x", "0.3", "--n", "12"],
    "admissible": ["admissible", "--real", "silver", "--n", "5"],
    "regions-G": ["regions", "--curve", "G", "--theta", "0.05"],
    "regions-A": ["regions", "--curve", "A", "--b", "golden"],
    "regions-F": ["regions", "--curve", "F", "--r", "4.5"],
    "regions-classify": ["regions", "--curve", "classify", "--r", "4.5", "--theta", "0.05"],
    **{f"game-{preset}-{bob}": ["game", "--preset", f"dwinning-{preset}", "--bob", bob,
                                "--seed", "3"]
       for preset in ("golden", "silver") for bob in ("optimal-drift", "center-hold")},
    "scan-golden": ["scan", "--preset", "dwinning-golden", "--alpha", "0.05:0.65:0.2",
                    "--seeds", "2"],
}


@pytest.mark.parametrize("argv", REAL_COMMANDS.values(), ids=REAL_COMMANDS.keys())
def test_real_commands_run_without_numpy(capsys, argv):
    code, loaded, out = fresh(MAIN, json.dumps(argv))
    assert not loaded
    assert (code, out) == (cli.main(argv), capsys.readouterr().out)


# the complex and componentwise presets play in 2 and 4 coordinates
PLANE_AND_QUAT_COMMANDS = {
    **{f"game-{preset}-{bob}": ["game", "--preset", preset, "--bob", bob, "--seed", "3"]
       for preset in ("cwinning-nine-halves", "qwinning-componentwise")
       for bob in ("optimal-drift", "center-hold")},
    "scan-nine-halves": ["scan", "--preset", "cwinning-nine-halves",
                         "--alpha", "0.5:0.9:0.2", "--seeds", "2"],
    "scan-componentwise": ["scan", "--preset", "qwinning-componentwise",
                           "--alpha", "0.02:0.06:0.02", "--seeds", "2"],
}


@pytest.mark.parametrize("argv", PLANE_AND_QUAT_COMMANDS.values(),
                         ids=PLANE_AND_QUAT_COMMANDS.keys())
def test_plane_and_quaternion_games_run_without_numpy(capsys, argv):
    code, loaded, out = fresh(MAIN, json.dumps(argv))
    assert not loaded
    assert (code, out) == (cli.main(argv), capsys.readouterr().out)


# what still loads numpy, as the README says: a random stream, the
# avoidance play's powers of A, and a 2x2 or 4x4 reconstruct
NUMPY_COMMANDS = {
    **{f"game-{preset}": ["game", "--preset", f"notwinning-{preset}", "--seed", "1"]
       for preset in ("lipschitz", "hurwitz", "symmetric", "zeta")},
    "game-random-bob": ["game", "--preset", "cwinning-nine-halves", "--bob", "random"],
    "expand-complex": ["expand", "--complex", "4.5", "0.05", "--z", "0.3", "0.6",
                       "--n", "6"],
    "expand-quat": ["expand", "--quat", "3", "3", "3", "3", "--lattice", "lipschitz",
                    "--z", "0.31", "0.62", "0.05", "0.44", "--n", "6"],
}


@pytest.mark.parametrize("argv", NUMPY_COMMANDS.values(), ids=NUMPY_COMMANDS.keys())
def test_matrix_and_random_commands_load_numpy(capsys, argv):
    code, loaded, out = fresh(MAIN, json.dumps(argv))
    assert loaded
    assert (code, out) == (cli.main(argv), capsys.readouterr().out)


# runs cli.main on the JSON argv in sys.argv[1]; prints the exit code and
# which of fractions and decimal got loaded
EXACT = """
import contextlib, io, json, sys
from beta_arena import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted({"fractions", "decimal"} & set(sys.modules))]))
"""

QUAT_COMMANDS = {
    "game-componentwise": ["game", "--preset", "qwinning-componentwise", "--seed", "0"],
    "expand-quat": NUMPY_COMMANDS["expand-quat"],
    "expand-quat-zeta": ["expand", "--quat", "0", "6", "0", "0", "--lattice", "zeta:0.25",
                         "--z", "0.1", "0.2", "0.3", "0.4", "--n", "4"],
}


@pytest.mark.parametrize("argv", QUAT_COMMANDS.values(), ids=QUAT_COMMANDS.keys())
def test_lattice_inverse_leaves_fractions_and_decimal_unloaded(argv):
    # the lattice inverse is exact over integers, without fractions (which
    # imports decimal)
    assert fresh(EXACT, json.dumps(argv)) == [0, []]


def test_random_bob_loads_numpy_and_keeps_its_stream():
    loaded, digest = fresh(TRACE, "random")
    assert loaded
    assert digest == TRACE_PINS[("dwinning-golden", "random")][0]
    assert fresh(TRACE, "optimal-drift") == [
        False, TRACE_PINS[("dwinning-golden", "optimal-drift")][0]]


# -- the numpy-free formulas against numpy ----------------------------------------

@settings(max_examples=500, deadline=None)
@given(st.floats(1.001, 1e6), st.lists(st.integers(0, 10 ** 6), max_size=40),
       st.booleans())
def test_one_by_one_reconstruct_is_numpys_solve(a, digits, as_tuples):
    kernel = DigitKernel(((a,),), (0.0,), (1.0,))
    acc = np.zeros(1)
    for d in reversed(digits):
        acc = np.linalg.solve(kernel.A, acc + d)
    got = kernel.reconstruct([(d,) for d in digits] if as_tuples else digits)
    assert [x.hex() for x in got] == [float(acc[0]).hex()]


def test_delta_root_is_numpys_root_to_a_few_ulps():
    # the bisection ends on the root to the last bit or two; numpy's
    # companion-matrix root is a few ulps off it
    d = _delta_root()
    acc = 0.0
    for c in _DELTA_POLY:
        acc = acc * d + c
    assert abs(acc) <= 1e-15
    roots = np.roots(_DELTA_POLY)
    want = min(z.real for z in roots if abs(z.imag) < 1e-12 and z.real > 0.0)
    assert abs(d - want) <= 8 * math.ulp(want)
    assert gamma_constants() is gamma_constants()


def hexes(values):
    return [float(x).hex() for x in np.ravel(values)]


# every stock lattice, against the quaternions of the CLI examples and the presets
LATTICES = ("lipschitz", "lipschitz-centered", "hurwitz-box", "symmetric:0.25", "zeta:0.25")
RADICES = {
    "cli": Quaternion(0.0, metallic_mean(1), 0.0, 0.0),
    "lipschitz": Quaternion(3.0, 3.0, 3.0, 3.0),
    "hurwitz": Quaternion(0.0, 5.0, 0.0, 0.0),
    "symmetric": Quaternion(0.0, 0.0, 0.0, 10.0),
    "zeta": Quaternion(0.0, 6.0, 0.0, 0.0),
    "componentwise": Quaternion.real(3.0),
}


@pytest.mark.parametrize("lattice_name", LATTICES)
@pytest.mark.parametrize("q", RADICES.values(), ids=RADICES.keys())
def test_stock_lattice_arithmetic_is_numpys(lattice_name, q):
    lattice = parse_lattice(lattice_name)
    B = np.array([v.components for v in lattice.basis], dtype=float).T
    Binv = np.linalg.inv(B)
    assert hexes(lattice.B) == hexes(B)
    assert hexes(lattice.Binv) == hexes(Binv)
    assert hexes(lattice.row_norms) == hexes(np.linalg.norm(Binv, axis=1))
    A = Binv @ (abs(q) * np.asarray(isoclinic_matrix(q))) @ B
    assert hexes(lattice.digit_map(q).A) == hexes(A)
    system = QuatSystem(q, lattice)
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = rng.uniform(-2.0, 2.0, size=4)
        assert hexes(system.coords(p)) == hexes(Binv @ p)
        assert hexes(system._point(p)) == hexes(B @ p)
