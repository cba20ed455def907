"""Uniform adapters over the three expansion systems.

The game engine and the outcome verifier only need a handful of operations:
ambient dimension, the scaling factor of one digit step, membership in the
fundamental domain, and a single expansion step that also reports how far the
pre-floor image sits from its digit-cell boundary.  Points travel as numpy
arrays of the ambient dimension regardless of the underlying system; each
adapter converts them to the lattice coordinates of its digit kernel.
"""

from __future__ import annotations

import numpy as np

from .complexexp import ComplexBase
from .numeric import DEFAULT_TOL, Quaternion, Tolerance
from .quatexp import LatticeDomain
from .realexp import RealBase


class RealSystem:
    dim = 1

    def __init__(self, base: RealBase):
        self.base = base
        self.kernel = base.kernel
        self.radix_norm = base.b
        self.tol = base.tol

    def coords(self, p) -> list[float]:
        return [float(p[0])]

    def contains(self, p: np.ndarray) -> bool:
        return 0.0 <= p[0] < 1.0

    def step(self, p: np.ndarray, on_ambiguous: str = "nudge"):
        (d,), u, margin = self.kernel.step(self.coords(p), on_ambiguous == "nudge")
        return d, np.array(u), margin

    def digit_matches(self, a, b) -> bool:
        return a == b


class ComplexSystem:
    dim = 2

    def __init__(self, base: ComplexBase):
        self.base = base
        self.kernel = base.kernel
        self.radix_norm = base.r
        self.tol = base.tol

    def coords(self, p) -> list[float]:
        return [float(p[0]), float(p[1])]

    def contains(self, p: np.ndarray) -> bool:
        return (self.base.lo[0] <= p[0] < self.base.lo[0] + 1.0
                and self.base.lo[1] <= p[1] < self.base.lo[1] + 1.0)

    def step(self, p: np.ndarray, on_ambiguous: str = "nudge"):
        d, u, margin = self.kernel.step(self.coords(p), on_ambiguous == "nudge")
        return d, np.array(u), margin

    def digit_matches(self, a, b) -> bool:
        return tuple(a) == tuple(b)


class QuatSystem:
    dim = 4

    def __init__(self, q: Quaternion, lattice: LatticeDomain,
                 tol: Tolerance = DEFAULT_TOL):
        self.q = q
        self.lattice = lattice
        self.kernel = lattice.digit_map(q, tol)
        self.radix_norm = abs(q)
        self.tol = tol

    def coords(self, p) -> list[float]:
        return (self.lattice.Binv @ np.asarray(p, dtype=float)).tolist()

    def contains(self, p: np.ndarray) -> bool:
        return self.lattice.box_contains(self.coords(p))

    def step(self, p: np.ndarray, on_ambiguous: str = "nudge"):
        d, u, margin = self.kernel.step(self.coords(p), on_ambiguous == "nudge")
        return d, self.lattice.B @ u, margin

    def digit_matches(self, a, b) -> bool:
        return tuple(a) == tuple(b)


def expand_digits(system, p: np.ndarray, n: int, on_ambiguous: str = "nudge") -> list:
    """First n digits of p under the system's expansion map."""
    digits = system.kernel.expand(system.coords(p), n, on_ambiguous == "nudge")
    return [d for (d,) in digits] if system.dim == 1 else digits
