"""certified_digits against the verifier's one-step-per-digit loop.

certified_digits steps the adapter through the digits it certifies and the
first one that fails, then reads the rest of the orbit from the kernel's
expand in nudge mode.  reference_certified (tests/kernel_reference.py) steps
the adapter for all m digits.  The two must give the same digits and the
same certified count on every preset's system and every `expand` system,
for radii from 1e-14 to 1e-1 and depths from -1 to 64, at uniform centers
and at centers whose image lies on a digit-cell face; and certified_digits
must call the adapter's step min(m, certified + 1) times, never for m <= 0.

The module imports neither numpy nor pytest, so a bare interpreter runs it:

    PYTHONPATH=src python3 tests/test_certified_reference.py
"""

from __future__ import annotations

import random

from kernel_reference import reference_certified
from test_kernel_digests import on_face

from beta_arena.complexexp import ComplexBase
from beta_arena.game import certified_digits
from beta_arena.numeric import Quaternion, metallic_mean
from beta_arena.presets import PRESETS, build_preset
from beta_arena.quatexp import stock_lattice
from beta_arena.realexp import RealBase
from beta_arena.systems import ComplexSystem, QuatSystem, RealSystem

LATTICES = ("lipschitz", "lipschitz-centered", "hurwitz-box", "symmetric:0.25", "zeta:0.25")
RADII = tuple(10.0 ** -k for k in range(14, 0, -1))  # 1e-14 to 1e-1
DEPTHS = (-1, 0, 1, 2, 32, 64)
POINTS = 24  # per system; every fourth is a face point


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


def points(system, rng, count):
    """count ambient points of the system's domain, every fourth with one
    coordinate of its image on a digit-cell face."""
    offsets = [row[1] for row in system.kernel._rows]
    out = []
    while len(out) < count:
        u = [o + rng.random() for o in offsets]
        if len(out) % 4 == 0:
            u = on_face(system.kernel, u, rng.randrange(len(u)))
        p = None if u is None else system._point(u)
        if p is not None and system.contains(p):
            out.append(p)
    return out


class Counted:
    """The system with a step that counts its calls."""

    def __init__(self, system):
        self.system, self.steps = system, 0

    def __getattr__(self, name):
        return getattr(self.system, name)

    def step(self, u):
        self.steps += 1
        return self.system.step(u)


def problems(name):
    """Each case of one system where certified_digits differs from the
    reference loop or steps other than min(m, certified + 1) times, and a
    note if no ball certified nothing or no ball certified all m >= 1 digits."""
    system = SYSTEMS[name]
    out, certified_counts = [], set()
    for p in points(system, random.Random(f"certified:{name}"), POINTS):
        for radius in RADII:
            for m in DEPTHS:
                counted = Counted(system)
                got = certified_digits(counted, p, radius, m)
                want = reference_certified(system, p, radius, m)
                steps = min(m, got[1] + 1) if m >= 1 else 0
                if got != want or counted.steps != steps:
                    out.append(f"{p} radius {radius!r} m {m}: {got} against {want}, "
                               f"{counted.steps} steps against {steps}")
                if m >= 1:
                    certified_counts.add({0: "none", m: "all"}.get(got[1], "some"))
    out += [f"no ball certified {k}" for k in ("none", "all") if k not in certified_counts]
    return out


def test_certified_digits_match_the_reference_loop():
    assert {name: problems(name) for name in SYSTEMS} == {name: [] for name in SYSTEMS}


if __name__ == "__main__":
    import sys
    bad = False
    for name in sorted(SYSTEMS):
        found = problems(name)
        bad = bad or bool(found)
        print(f"{'FAIL' if found else 'ok  '} {name}")
        for line in found[:5]:
            print(f"     {line}")
    sys.exit(1 if bad else 0)
