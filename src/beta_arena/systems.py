"""Uniform adapters over the three expansion systems.

The game engine and the outcome verifier only need a handful of operations:
ambient dimension, the scaling factor of one digit step, membership in the
fundamental domain, and a single expansion step, snapping at a boundary, that
also reports how far the pre-floor image sits from its digit-cell boundary.
The `expand` command uses the same adapters, so each system is described in
one place.  Points travel as float tuples of the ambient dimension (any
float sequence is taken) regardless of the underlying system; each adapter
converts them to the lattice coordinates of its digit kernel (`coords`) and
back (`_point`).  The quaternion adapter's basis changes are 4x4 products
in plain Python (quatexp._mat_vec); no adapter loads numpy.
"""

from __future__ import annotations

from typing import Sequence

from .complexexp import ComplexBase
from .numeric import Quaternion, nudge_mode
from .quatexp import LatticeDomain, _mat_vec
from .realexp import RealBase


class RealSystem:
    dim = 1

    def __init__(self, base: RealBase):
        self.base = base
        self.kernel = base.kernel
        self.radix_norm = base.b

    def coords(self, p) -> list[float]:
        return [float(p[0])]

    def contains(self, p: Sequence[float]) -> bool:
        return 0.0 <= p[0] < 1.0

    def _point(self, u) -> tuple[float, ...]:
        return tuple(u)

    def step(self, p: Sequence[float]):
        (d,), u, margin = self.kernel.step(self.coords(p), nudge=True)
        return d, u, margin

    def digit_matches(self, a, b) -> bool:
        return a == b


class ComplexSystem:
    dim = 2

    def __init__(self, base: ComplexBase):
        self.base = base
        self.kernel = base.kernel
        self.radix_norm = base.r

    def coords(self, p) -> list[float]:
        return [float(p[0]), float(p[1])]

    def contains(self, p: Sequence[float]) -> bool:
        return (self.base.lo[0] <= p[0] < self.base.lo[0] + 1.0
                and self.base.lo[1] <= p[1] < self.base.lo[1] + 1.0)

    def _point(self, u) -> tuple[float, ...]:
        return tuple(u)

    def step(self, p: Sequence[float]):
        d, u, margin = self.kernel.step(self.coords(p), nudge=True)
        return d, u, margin

    def digit_matches(self, a, b) -> bool:
        return tuple(a) == tuple(b)


class QuatSystem:
    dim = 4

    def __init__(self, q: Quaternion, lattice: LatticeDomain):
        self.q = q
        self.lattice = lattice
        self.kernel = lattice.digit_map(q)
        self.radix_norm = abs(q)

    def coords(self, p) -> list[float]:
        return _mat_vec(self.lattice.Binv, p)

    def contains(self, p: Sequence[float]) -> bool:
        return self.lattice.box_contains(self.coords(p))

    def _point(self, u) -> list[float]:
        return _mat_vec(self.lattice.B, u)

    def step(self, p: Sequence[float]):
        d, u, margin = self.kernel.step(self.coords(p), nudge=True)
        return d, self._point(u), margin

    def digit_matches(self, a, b) -> bool:
        return tuple(a) == tuple(b)


def expand_digits(system, p: Sequence[float], n: int, on_ambiguous: str = "nudge") -> list:
    """First n digits of p under the system's expansion map."""
    digits = system.kernel.expand(system.coords(p), n, nudge_mode(on_ambiguous))
    return [d for (d,) in digits] if system.dim == 1 else digits
