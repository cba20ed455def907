"""The package runs without numpy.

`import beta_arena` does not load numpy, and every command prints the same
bytes with numpy blocked (`sys.modules['numpy'] = None`): all eight presets,
a random Bob, a losing-preset scan, `expand` on all three systems, every
`regions` curve and `admissible`.  Each row runs in a fresh interpreter,
since this one has numpy loaded, and its output must equal the same
command's output here.  No quaternion command loads fractions or decimal.
The plain-Python formulas are checked against exact references: the
reconstruction against the exact sum in integers, the ball sample against
its pinned stream, and numpy's results where numpy is the reference.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beta_arena import cli
from beta_arena.complexexp import _DELTA_POLY, ComplexBase, _delta_root, gamma_constants
from beta_arena.numeric import DigitKernel, Quaternion, metallic_mean
from beta_arena.quatexp import isoclinic_matrix, stock_lattice
from beta_arena.realexp import RealBase
from beta_arena.strategies import _ball_sample
from beta_arena.systems import QuatSystem
from test_quatexp import exact_inverse

# runs cli.main on the JSON argv in sys.argv[1] with numpy blocked; prints
# the exit code, stdout and stderr
MAIN = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from beta_arena import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def fresh(code, *args):
    """Run code in a new interpreter and decode the JSON line it prints."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def assert_same_without_numpy(capsys, argv):
    got = fresh(MAIN, json.dumps(argv))
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert got == [code, captured.out, captured.err]


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
    assert_same_without_numpy(capsys, argv)


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
    assert_same_without_numpy(capsys, argv)


# matrix powers and inverses (the losing presets' avoidance play, the 2x2
# and 4x4 reconstruct of expand) and random streams
MATRIX_AND_RANDOM_COMMANDS = {
    **{f"game-{preset}": ["game", "--preset", f"notwinning-{preset}", "--seed", "1"]
       for preset in ("lipschitz", "hurwitz", "symmetric", "zeta")},
    "game-random-bob": ["game", "--preset", "cwinning-nine-halves", "--bob", "random"],
    "game-golden-random-bob": ["game", "--preset", "dwinning-golden", "--bob", "random"],
    "game-componentwise-random-bob": ["game", "--preset", "qwinning-componentwise",
                                      "--bob", "random", "--seed", "2"],
    "scan-lipschitz": ["scan", "--preset", "notwinning-lipschitz",
                       "--alpha", "0.8:0.9:0.05", "--seeds", "2"],
    "expand-complex": ["expand", "--complex", "4.5", "0.05", "--z", "0.3", "0.6",
                       "--n", "6"],
    "expand-quat": ["expand", "--quat", "3", "3", "3", "3", "--lattice", "lipschitz",
                    "--z", "0.31", "0.62", "0.05", "0.44", "--n", "6"],
    "expand-quat-zeta-json": ["expand", "--quat", "0", "6", "0", "0", "--lattice", "zeta:0.25",
                              "--z", "0.1", "0.2", "0.3", "0.4", "--n", "4",
                              "--format", "json"],
}


@pytest.mark.parametrize("argv", MATRIX_AND_RANDOM_COMMANDS.values(),
                         ids=MATRIX_AND_RANDOM_COMMANDS.keys())
def test_matrix_and_random_commands_run_without_numpy(capsys, argv):
    assert_same_without_numpy(capsys, argv)


def test_no_numpy_table_covers_every_preset_system_and_curve():
    rows = [*REAL_COMMANDS.values(), *PLANE_AND_QUAT_COMMANDS.values(),
            *MATRIX_AND_RANDOM_COMMANDS.values()]

    def values(command, option):
        return {argv[argv.index(option) + 1] for argv in rows
                if argv[0] == command and option in argv}
    assert values("game", "--preset") == set(cli.PRESETS)
    assert "random" in values("game", "--bob")
    assert values("scan", "--preset") & {p for p in cli.PRESETS if p.startswith("notwinning")}
    assert {"--real", "--complex", "--quat"} <= {a for argv in rows if argv[0] == "expand"
                                                 for a in argv}
    assert values("regions", "--curve") == {"A", "F", "G", "classify"}
    assert any(argv[0] == "admissible" for argv in rows)


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
    "game-zeta": ["game", "--preset", "notwinning-zeta", "--seed", "0"],
    "expand-quat": MATRIX_AND_RANDOM_COMMANDS["expand-quat"],
    "expand-quat-zeta": ["expand", "--quat", "0", "6", "0", "0", "--lattice", "zeta:0.25",
                         "--z", "0.1", "0.2", "0.3", "0.4", "--n", "4"],
}


@pytest.mark.parametrize("argv", QUAT_COMMANDS.values(), ids=QUAT_COMMANDS.keys())
def test_lattice_inverse_leaves_fractions_and_decimal_unloaded(argv):
    # matrix powers and inverses are exact over integers, without fractions
    # (which imports decimal)
    assert fresh(EXACT, json.dumps(argv)) == [0, []]


# -- the plain-Python formulas against exact references ---------------------------

# 1x1, 2x2 and 4x4 stock kernels: real bases, complex bases and the losing
# presets' quaternion radices on their lattices
KERNELS = {
    "golden": RealBase(metallic_mean(1)).kernel,
    "two-and-a-half": RealBase(2.5).kernel,
    "nine-halves": ComplexBase(4.5, 0.05).kernel,
    "golden-quarter-turn": ComplexBase(metallic_mean(1), math.pi / 2, lo=(0.0, 0.0)).kernel,
    **{name: QuatSystem(q, stock_lattice(lattice)).kernel for name, q, lattice in (
        ("lipschitz", Quaternion(3.0, 3.0, 3.0, 3.0), "lipschitz"),
        ("hurwitz", Quaternion(0.0, 5.0, 0.0, 0.0), "hurwitz-box"),
        ("zeta", Quaternion(0.0, 6.0, 0.0, 0.0), "zeta:0.25"),
        ("golden-i", Quaternion(0.0, metallic_mean(1), 0.0, 0.0), "lipschitz-centered"))},
}


def exact_sum(A, digits):
    """sum_j A^-j d_j and sum_j |A^-1|^j |d_j|, both exact, by Horner's rule
    with the exact inverse of A."""
    inv = exact_inverse(A)
    acc = bound = [Fraction(0)] * len(A)
    for d in reversed(digits):
        acc = [sum(x * (a + di) for x, a, di in zip(row, acc, d)) for row in inv]
        bound = [sum(abs(x) * (b + abs(di)) for x, b, di in zip(row, bound, d))
                 for row in inv]
    return acc, bound


def assert_within_horner_bound(kernel, digits, got):
    # each Horner step rounds d + acc once per coordinate and the product with
    # the rounded A^-1 in dim + 1 more roundings, so after n steps every
    # coordinate is within gamma_{n (dim + 2)} sum_j (|A^-1|^j |d_j|)_i of the
    # exact sum; 2 n (dim + 2) 2^-53 bounds that gamma here
    dim = len(kernel.A)
    exact, bound = exact_sum(kernel.A, [d if isinstance(d, tuple) else (d,) for d in digits])
    factor = Fraction(2 * len(digits) * (dim + 2), 2 ** 53)
    assert len(got) == dim
    for x, e, b in zip(got, exact, bound):
        assert abs(Fraction(x) - e) <= factor * b, (x, float(e), float(b))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(KERNELS)), st.data())
def test_reconstruct_is_within_horner_bound_of_the_exact_sum(name, data):
    kernel = KERNELS[name]
    digit = st.tuples(*(st.integers(lo, hi) for lo, hi in zip(kernel.lo, kernel.hi)))
    digits = data.draw(st.lists(digit, max_size=40))
    assert_within_horner_bound(kernel, digits, kernel.reconstruct(digits))


@settings(max_examples=200, deadline=None)
@given(st.floats(1.001, 1e6), st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=40),
       st.booleans())
def test_one_by_one_reconstruct_takes_ints_or_tuples_within_the_bound(a, digits, as_tuples):
    kernel = DigitKernel(((a,),), (0.0,), (1.0,))
    got = kernel.reconstruct([(d,) for d in digits] if as_tuples else digits)
    assert [x.hex() for x in got] == [x.hex() for x in kernel.reconstruct(digits)]
    assert_within_horner_bound(kernel, digits, got)


# the first three draws of _ball_sample(random.Random(seed), dim), in hex
BALL_PINS = {
    (1, 0): [["0x1.60b01f314fb7cp-1"], ["0x1.082532f1f3834p-1"], ["-0x1.4556bbeb45a20p-3"]],
    (2, 1): [["0x1.0e1aef0813e26p-1", "-0x1.f59e5ee1d0148p-2"],
             ["-0x1.2b2a87a632180p-7", "-0x1.9dc4ea1c6bbf0p-4"],
             ["0x1.367660612e768p-2", "0x1.27a7181adfcc8p-1"]],
    (4, 2): [["0x1.578d0495a4882p-1", "0x1.e3443bcf1822cp-2",
              "0x1.5b9b9cda94e3cp-2", "-0x1.88efc0bf983ccp-2"],
             ["0x1.b1f2826ca7f18p-3", "0x1.b575bc124bc88p-3",
              "0x1.4c9c955ccc4c8p-3", "-0x1.5dd0e18009370p-1"],
             ["-0x1.eb7579271c770p-3", "0x1.9131417129070p-1",
              "0x1.a5eef150df4e0p-5", "0x1.efb36cb5b1e50p-4"]],
}


@pytest.mark.parametrize("dim, seed", BALL_PINS, ids=lambda v: str(v))
def test_ball_sample_keeps_its_stream_inside_the_open_ball(dim, seed):
    rng = random.Random(seed)
    draws = [_ball_sample(rng, dim) for _ in range(2000)]
    assert [[x.hex() for x in v] for v in draws[:3]] == BALL_PINS[dim, seed]
    # exactly: the sum of the exact squares of every draw is below 1
    assert all(sum(Fraction(x) ** 2 for x in v) < 1 for v in draws)


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
    lattice = stock_lattice(lattice_name)
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
        assert hexes(system.point(p)) == hexes(B @ p)
