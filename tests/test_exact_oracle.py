"""An exact recheck of every verified or falsified verdict of the presets.

Each digit kernel is a float matrix A with float offsets, and a quaternion
system takes a point's lattice coordinates with its lattice's float matrix
Binv, so the system is rational: u = Binv p, then u -> A u - d.  (Binv is
B's inverse rounded once per entry; it is exact for the four box lattices,
not for zeta's.)  From the final center's exact lattice coordinates the walk
u_j = A u_{j-1} - d_j then needs only fractions.Fraction.  Digit j is
decided for the whole final ball B(c, r) when, on every row i, the distance
from (A u_{j-1})_i - off_i to the nearest integer exceeds
r ||row_i(A^j Binv)||_2; the squares are compared, so no root is taken.  Every digit a verdict rests on (each certified one) must be
decided and must be the float verifier's digit.

The games are the eight presets at seeds 0-7, the winning ones against every
Bob: 128 games, all verified, resting on 1024 certified digits.  The least
slack ratio, distance over r ||row||, is 18.99998 (notwinning-hurwitz,
seed 6, digit 14).  Then perfbench's sweep windows, which straddle each
preset's bound: the middle alpha of every stratum at game seeds 0 and 1.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from beta_arena.game import StrategyError
from beta_arena.presets import BOBS, PRESETS, build_preset, run_setup
from beta_arena.systems import QuatSystem

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workload_sweep import WINDOWS  # noqa: E402

GAMES = [(name, bob) for name in PRESETS
         for bob in ([None] if name.startswith("notwinning") else sorted(BOBS))]
# (preset, alpha, game seed) over the sweep windows
SWEEP = [(name, round(lo + (i + 0.5) * (hi - lo) / n, 6), seed)
         for name, windows in WINDOWS.items() for lo, hi, n in windows
         for i in range(n) for seed in (0, 1)]


def _exact(matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in matrix]


def _mul(M, N) -> list[list[Fraction]]:
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*N)] for row in M]


def _binv(system) -> list[list[Fraction]]:
    """The system's ambient-to-lattice matrix, exactly: the identity for a
    real or complex system, the lattice's Binv for a quaternion one."""
    if isinstance(system, QuatSystem):
        return _exact(system.lattice.Binv)
    return [[Fraction(int(i == j)) for j in range(system.dim)] for i in range(system.dim)]


def least_slack(system, center, radius: float, digits) -> Fraction:
    """The least squared slack ratio, dist^2 / (r^2 ||row_i(A^j Binv)||^2) over
    the given digits j and every row i; AssertionError if a digit is not
    decided for the whole ball or is not the exact walk's digit."""
    A = _exact(system.kernel.A)
    offsets = [Fraction(row[1]) for row in system.kernel._rows]
    M = _binv(system)
    u = [sum(m * Fraction(c) for m, c in zip(row, center)) for row in M]
    r2 = Fraction(radius) ** 2
    least = None
    for j, want in enumerate(digits, 1):
        M = _mul(A, M)
        w = [sum(a * x for a, x in zip(row, u)) for row in A]
        digit = tuple(math.floor(wi - off) for wi, off in zip(w, offsets))
        for wi, off, d, row in zip(w, offsets, digit, M):
            dist = min(wi - off - d, d + 1 - (wi - off))
            bound2 = r2 * sum(x * x for x in row)
            assert dist * dist > bound2, f"digit {j} is not decided for the whole ball"
            ratio = dist * dist / bound2
            least = ratio if least is None else min(least, ratio)
        assert digit == want, f"digit {j} is {digit}, the verifier's is {want}"
        u = [wi - d for wi, d in zip(w, digit)]
    return least


def _certified(result) -> list[tuple[int, ...]]:
    return [d if isinstance(d, tuple) else (d,) for d in result.digits[:result.certified]]


@pytest.mark.parametrize("name, bob", GAMES, ids=[f"{n}-{b}" if b else n for n, b in GAMES])
def test_every_certified_digit_is_decided_exactly(name, bob):
    decided = 0
    for seed in range(8):
        setup = build_preset(name, bob=bob)
        try:
            trace, result = run_setup(setup, seed=seed)
        except StrategyError:
            continue
        if result.verdict in ("verified", "falsified"):
            assert result.certified > 0, seed
            try:
                least_slack(setup.system, trace.final_center, trace.final_radius,
                            _certified(result))
            except AssertionError as exc:
                raise AssertionError(f"{name} {bob} seed {seed}: {exc}") from None
            decided += 1
    assert decided > 0, f"no game of {name} {bob} reached a verdict to recheck"


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_every_certified_digit_of_the_sweep_windows_is_decided_exactly(name):
    decided = 0
    for _, alpha, seed in (g for g in SWEEP if g[0] == name):
        setup = build_preset(name, alpha=alpha)
        try:
            trace, result = run_setup(setup, seed=seed)
        except StrategyError:
            continue
        if result.verdict in ("verified", "falsified"):
            try:
                least_slack(setup.system, trace.final_center, trace.final_radius,
                            _certified(result))
            except AssertionError as exc:
                raise AssertionError(f"{name} alpha {alpha} seed {seed}: {exc}") from None
            decided += 1
    assert decided > 0, f"no game of {name} in the sweep windows reached a verdict"


def test_oracle_refuses_a_ball_or_a_digit_it_cannot_confirm():
    setup = build_preset("dwinning-golden")
    trace, result = run_setup(setup, seed=0)
    digits = _certified(result)
    ratio = math.sqrt(least_slack(setup.system, trace.final_center, trace.final_radius, digits))
    wider = trace.final_radius * ratio * 1.01
    with pytest.raises(AssertionError, match="not decided for the whole ball"):
        least_slack(setup.system, trace.final_center, wider, digits)
    wrong = digits[:-1] + [(digits[-1][0] + 1,)]
    with pytest.raises(AssertionError, match=f"digit {len(digits)} is"):
        least_slack(setup.system, trace.final_center, trace.final_radius, wrong)
