"""Pins of the rules that realexp and complexexp state once: the greedy orbit
with its boundary snap, the full-length test behind the exceptional set E,
and the quadratic F with the level-1 threshold cos t + sin t.

Each pin is a sha256 over the exact values (floats by .hex()), so a change
that moves one bit or one digit anywhere on the grid fails it.
"""

import hashlib
import math
import random

import pytest

from beta_arena.complexexp import ComplexBase, F_roots, F_value, check_Ck, discriminant
from beta_arena.numeric import EPS_CMP, metallic_mean
from beta_arena.realexp import RealBase


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def outcome(f, *args) -> str:
    """repr of f(*args), floats by .hex(), or the error it raises."""
    try:
        got = f(*args)
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(got, float):
        return got.hex()
    if isinstance(got, tuple) and all(isinstance(x, float) for x in got):
        return repr(tuple(x.hex() for x in got))
    return repr(got)


# -- the greedy orbits -----------------------------------------------------------

def orbit_bases() -> list[float]:
    """Metallic means, a few algebraic and integer bases, bases within 1e-12 to
    1e-8 of an integer (where the snap band of 2e-9 decides digits), and a
    seeded sample."""
    bases = [metallic_mean(j) for j in range(1, 12)]
    bases += [1.0 + math.sqrt(3.0), 2.5, 3.0, 7.0, 1.0001, 1.5]
    for n in range(2, 12):
        for e in (1e-12, 5e-11, 3e-10, 9e-10, 1e-9, 1.5e-9, 2e-9, 2.5e-9, 1e-8):
            bases += [n - e, n + e]
    rng = random.Random(2028)
    bases += [1.0 + 11.0 * rng.random() for _ in range(200)]
    return bases


def test_real_base_data_is_pinned():
    lines = []
    for b in orbit_bases():
        base = RealBase(b)
        digits, terminated = base._one
        lines.append(f"{b.hex()} {base.s_b} {base.c_digits} {base.i_b} {base.K_b} "
                     f"{base.iK_determined} {digits} {terminated}")
    assert len(lines) == 397
    assert digest(lines) == "2a23811e5aa6cd1f4d39f4cf6fccf499637910672766dafc6ffc6c9b7f41c44c"


# -- the exceptional set E -------------------------------------------------------

E_BASES = (1.0 + math.sqrt(3.0), 2.0 + math.sqrt(6.0), (3.0 + math.sqrt(21.0)) / 2.0)


def full_length(base: RealBase, block) -> bool:
    """The cylinder of block has length b**-len(block), up to EPS_CMP."""
    lo, hi = base.cylinder_interval(block)
    return hi - lo >= base.b ** -len(block) - EPS_CMP


@pytest.mark.parametrize("b, d_prime, pin", [
    (E_BASES[0], 1, "aa9f5d43a3a935ee8533ba7c3fc9cc1b691f6f689b74a8c7686205da7407e0ea"),
    (E_BASES[1], 1, "ef71920265c736733ab00bc8e198e988a25fcb756f803015a7e63c0e9b5c3227"),
    (E_BASES[2], 2, "bc66ac184edd1132449c91d2154ce2880079675f4af4c30dc6ea019f81468b2d"),
])
def test_in_E_is_pinned_and_is_the_full_length_test(b, d_prime, pin):
    base = RealBase(b)
    assert base.d_prime == d_prime
    lines = []
    for n in range(5):
        for w in base.enumerate_admissible(n):
            for d in range(d_prime + 1):
                flag = base.in_E(w, d)
                assert flag == (not full_length(base, w + (d,))), (b, w, d)
                lines.append(f"{w} {d} {flag}")
    assert digest(lines) == pin


# -- the quadratic F and the level-1 threshold -----------------------------------

ANGLES = [math.pi * (j / 1000.0 - 0.5) for j in range(2001)] + [
    0.0, 1e-12, 1e-9, math.pi / 4.0, math.pi / 2.0, -math.pi / 4.0, 0.05, 0.3, 0.5237]


def test_F_quadratic_is_pinned():
    lines = []
    for t in ANGLES:
        lines.append(outcome(discriminant, t))
        lines.append(outcome(F_roots, t))
        for N in (0.5, 1.0, 2.0, 3.0, 7.25, 10.0):
            lines.append(outcome(F_value, N, t))
    assert digest(lines) == "ed9c81ab48575e28978922d5eb6df350ba2850c50083c58cee244a73de412c4a"


def test_level_one_check_is_pinned():
    lines = []
    for t in ANGLES[::10]:
        cps = math.cos(t) + math.sin(t)
        for r in (1.0001, 1.2, 1.41421356, 1.5, 2.0, 3.3, 4.5, 4.5 + 1e-13, abs(cps) + 1e-13,
                  abs(cps) * 3.0 + 2e-11, 9.0):
            lines.append(outcome(lambda: check_Ck(ComplexBase(r, t), 1)))
    assert digest(lines) == "0bf51d71240f7f2343d52c526d6fef1ee51050151b58f9380cd1aa319d7eee46"
