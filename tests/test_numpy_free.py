"""numpy stays off the cold path of the real (1-D) case.

`import beta_arena` does not load numpy, and neither does any command that
touches only real bases: `expand --real`, `admissible`, `regions` and the
real games and scans against a Bob that draws nothing at random.  Each of
these runs in a fresh interpreter, since this one has numpy loaded, and its
output must equal the same command's output here.  The pure-Python
formulas that stand in for numpy on that path are compared with numpy bit
for bit.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beta_arena import cli
from beta_arena.complexexp import _DELTA_POLY, _delta_root, gamma_constants
from beta_arena.game import _norm
from beta_arena.numeric import DigitKernel
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


def test_random_bob_loads_numpy_and_keeps_its_stream():
    loaded, digest = fresh(TRACE, "random")
    assert loaded
    assert digest == TRACE_PINS[("dwinning-golden", "random")][0]
    assert fresh(TRACE, "optimal-drift") == [
        False, TRACE_PINS[("dwinning-golden", "optimal-drift")][0]]


# -- the numpy-free formulas against numpy ----------------------------------------

@settings(max_examples=1000, deadline=None)
@given(st.floats(-1e150, 1e150))
def test_one_coordinate_norm_is_numpys(x):
    # sqrt(x * x) against the 1-element dot np.linalg.norm takes
    v = np.array([x])
    assert _norm((x,)).hex() == float(np.linalg.norm(v)).hex()


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
