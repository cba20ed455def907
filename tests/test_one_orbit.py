"""The verifier reads the orbit that `expand` prints.

certified_digits converts its center to kernel coordinates once and steps
the adapter's kernel from there, so its digits are expand_digits' in nudge
mode, bit for bit, on every preset's system and every `expand` system: a
step that crossed the basis and back would change the remainder on a
lattice whose basis change is not exact (zeta: 1, 6i, j, 6k) and, some
digits later, the digits.  Points are uniform in the domain or have an
image on a digit-cell face, which puts the step on its snap path.
"""

from __future__ import annotations

import random

import pytest
from test_kernel_digests import on_face

from beta_arena.complexexp import ComplexBase
from beta_arena.game import certified_digits
from beta_arena.numeric import Quaternion, metallic_mean
from beta_arena.presets import PRESETS, build_preset
from beta_arena.quatexp import stock_lattice
from beta_arena.realexp import RealBase
from beta_arena.systems import ComplexSystem, QuatSystem, RealSystem, expand_digits

M = 32
POINTS = 24  # per system; every fourth is a face point
LATTICES = ("lipschitz", "lipschitz-centered", "hurwitz-box", "symmetric:0.25", "zeta:0.25")


def expand_systems():
    """The systems `expand` builds: name -> adapter."""
    out = {f"real-{b}": RealSystem(RealBase(metallic_mean(1) if b == "golden" else float(b)))
           for b in ("golden", "2.5", "3")}
    for centered, lo in ((True, (-0.5, -0.5)), (False, (0.0, 0.0))):
        out[f"complex-4.5e^0.05i-centered={centered}"] = ComplexSystem(
            ComplexBase(4.5, 0.05, lo=lo))
    for name in LATTICES:
        out[f"quat-3+3i+3j+3k-{name}"] = QuatSystem(Quaternion(3.0, 3.0, 3.0, 3.0),
                                                     stock_lattice(name))
    return out


SYSTEMS = {**{f"preset-{name}": build_preset(name).system for name in PRESETS},
           **expand_systems()}


def points(system, rng):
    """Ambient points of the system's domain, every fourth with one
    coordinate of its image on a digit-cell face."""
    offsets = [row[1] for row in system.kernel._rows]
    out = []
    while len(out) < POINTS:
        u = [o + rng.random() for o in offsets]
        if len(out) % 4 == 0:
            u = on_face(system.kernel, u, rng.randrange(len(u)))
        p = None if u is None else system._point(u)
        if p is not None and system.contains(p):
            out.append(p)
    return out


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_certified_digits_are_expand_digits(name):
    system = SYSTEMS[name]
    for p in points(system, random.Random(f"one-orbit:{name}")):
        assert certified_digits(system, p, 1e-13, M)[0] == expand_digits(system, p, M, "nudge"), p


def test_a_quaternion_orbit_crosses_the_basis_once():
    # coords once for the center, and no step maps a remainder back
    for name in LATTICES:
        system = QuatSystem(Quaternion(3.0, 3.0, 3.0, 3.0), stock_lattice(name))
        lattice = system.lattice
        p = system._point([row[1] + 0.4 for row in system.kernel._rows])
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
