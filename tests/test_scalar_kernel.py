"""The digit kernel of a real base against the generic body, bit for bit.

A real base's kernel is DigitKernel with a 1x1 matrix.  Its step and expand
must give the digits, remainders (float.hex) and margins (float.hex) of the
class's DigitKernel.step and DigitKernel.expand, the body every shape runs,
raise the same errors with the same text, and take the same guarded floors:
each call of numeric.safe_floor, which the benchmark's tracer counts, is
recorded with its argument.
"""

from __future__ import annotations

import math
import random

import pytest
from test_kernel_digests import kernels, on_face

from beta_arena import numeric
from beta_arena.numeric import _BAND, EPS_FLOOR, DigitKernel, metallic_mean
from beta_arena.realexp import RealBase

# 2.9999999999 has digits 0..2, and points just below 1 map within the band
# under 3, so their snap to 3 leaves the digit range and is refused
BASES = {"golden": metallic_mean(1), "silver": metallic_mean(2), "2.5": 2.5, "3": 3.0,
         "1.7234": 1.7234, "2.9999999999": 2.9999999999}
SHIFTS = (0.0, 1e-12, -1e-12, 5e-10, -5e-10, EPS_FLOOR, -EPS_FLOOR, 1.5e-9, -1.5e-9,
          _BAND, -_BAND, 2.5e-9, -2.5e-9)
DEPTH = 24


@pytest.fixture
def floors(monkeypatch):
    """float.hex() of each value numeric.safe_floor is called on."""
    seen, safe_floor = [], numeric.safe_floor

    def recording(x):
        seen.append(float(x).hex())
        return safe_floor(x)
    monkeypatch.setattr(numeric, "safe_floor", recording)
    return seen


def outcome(floors, run, *args):
    """(run's result with each float as float.hex(), or its error's type and
    text; the guarded floors it took)."""
    floors.clear()
    try:
        out = run(*args)
    except (ValueError, OverflowError, TypeError, IndexError) as exc:
        out = type(exc), str(exc)
    else:
        if isinstance(out, tuple):  # step: (digit, remainder, margin)
            d, u, margin = out
            out = d, tuple(x.hex() for x in u), margin.hex()
    return out, list(floors)


def band_edges(kernel):
    """Points whose image is exactly the float k + _BAND or k + 1 - _BAND
    for a digit k, where one is reachable: the fast path's edges."""
    (a,), = kernel.A
    out = []
    for k in range(kernel.hi[0] + 1):
        for t in (k + _BAND, k + 1.0 - _BAND):
            u = t / a
            for _ in range(8):
                if 0.0 + a * u == t:
                    out.append(u)
                    break
                u = math.nextafter(u, math.inf if 0.0 + a * u < t else -math.inf)
    return [u for u in out if 0.0 <= u < 1.0]


def points(name, kernel):
    """Uniform points of [0, 1), points whose image lies on or beside a
    digit-cell face, the fast path's edges and both ends of the box."""
    rng = random.Random(f"scalar-kernel:{name}")
    out = [rng.random() for _ in range(40)]
    for shift in SHIFTS:
        for _ in range(4):
            u = on_face(kernel, [rng.random()], 0, shift)
            if u is not None:
                out.append(u[0])
    out += band_edges(kernel)
    out += [0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0 - 1e-11, 1.0 - 1e-10,
            math.nextafter(1.0, 0.0)]
    return out


@pytest.mark.parametrize("nudge", [True, False], ids=["nudge", "error"])
@pytest.mark.parametrize("name", sorted(BASES))
def test_real_kernel_is_the_generic_body(name, nudge, floors):
    kernel = RealBase(BASES[name]).kernel
    pts = points(name, kernel)
    assert band_edges(kernel), name  # the edges are reachable in every base here
    for x in pts:
        u = [x]
        for _ in range(DEPTH):
            got = outcome(floors, kernel.step, u, nudge)
            assert got == outcome(floors, DigitKernel.step, kernel, u, nudge), (name, u)
            if not isinstance(got[0][1], tuple):
                break  # the step raised
            u = kernel.step(u, nudge)[1]
        for n in (1, 2, DEPTH):
            assert (outcome(floors, kernel.expand, [x], n, nudge)
                    == outcome(floors, DigitKernel.expand, kernel, [x], n, nudge)), (name, x, n)


@pytest.mark.parametrize("nudge", [True, False], ids=["nudge", "error"])
@pytest.mark.parametrize("name", sorted(BASES))
def test_real_kernel_refuses_as_the_generic_body(name, nudge, floors):
    kernel = RealBase(BASES[name]).kernel
    for x in (math.nan, math.inf, -math.inf, 1e308, -1e308, 2.0 ** 1023):
        got = outcome(floors, kernel.step, (x,), nudge)
        assert got == outcome(floors, DigitKernel.step, kernel, (x,), nudge), (name, x)
        for n in (0, 1, 3):
            assert (outcome(floors, kernel.expand, (x,), n, nudge)
                    == outcome(floors, DigitKernel.expand, kernel, (x,), n, nudge)), (name, x, n)
    # a length below 0 is refused, and 0 digits read no coordinate
    for u, n in (((0.5,), -1), ((0.5,), 0), ((), 0), ((), -1), ((), 2)):
        assert (outcome(floors, kernel.expand, u, n, nudge)
                == outcome(floors, DigitKernel.expand, kernel, u, n, nudge)), (name, u, n)
    assert outcome(floors, kernel.expand, (0.5,), -1, nudge)[0] == (
        ValueError, "length must be nonnegative")


def test_only_a_1x1_kernel_binds_its_own_body():
    # the instance's step and expand shadow the class's generic body
    for name, kernel in kernels().items():
        own = {"step", "expand"} & set(vars(kernel))
        assert own == ({"step", "expand"} if len(kernel.A) == 1 else set()), name
