"""The verifier reads the orbit that `expand` prints.

certified_digits converts its center to kernel coordinates once and steps
the adapter's kernel from there, so its digits are expand_digits' in nudge
mode, bit for bit, on every preset's system and every `expand` system: a
step that crossed the basis and back would change the remainder on a
lattice whose basis change is not exact (zeta: 1, 6i, j, 6k) and, some
digits later, the digits.  Points are uniform in the domain or have an
image on a digit-cell face, which puts the step on its snap path; the
systems and points are tests/test_certified_reference.py's.
"""

from __future__ import annotations

import random

import pytest
from test_certified_reference import LATTICES, SYSTEMS, points

from beta_arena.game import certified_digits
from beta_arena.numeric import Quaternion
from beta_arena.quatexp import stock_lattice
from beta_arena.systems import QuatSystem, expand_digits

M = 32
POINTS = 24  # per system; every fourth is a face point


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_certified_digits_are_expand_digits(name):
    system = SYSTEMS[name]
    for p in points(system, random.Random(f"one-orbit:{name}"), POINTS):
        assert certified_digits(system, p, 1e-13, M)[0] == expand_digits(system, p, M, "nudge"), p


def test_a_quaternion_orbit_crosses_the_basis_once():
    # coords once for the center, and no step maps a remainder back
    for name in LATTICES:
        system = QuatSystem(Quaternion(3.0, 3.0, 3.0, 3.0), stock_lattice(name))
        lattice = system.lattice
        p = system.point([row[1] + 0.4 for row in system.kernel._rows])
        calls = {"Binv_times": 0, "B_times": 0}

        def counted(key, fn):
            def wrapper(v):
                calls[key] += 1
                return fn(v)
            return wrapper
        lattice.Binv_times = counted("Binv_times", lattice.Binv_times)
        lattice.B_times = counted("B_times", lattice.B_times)
        certified_digits(system, p, 1e-13, M)
        assert calls == {"Binv_times": 1, "B_times": 0}, name
