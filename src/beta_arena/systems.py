"""Uniform adapters over the three expansion systems.

The game engine and the outcome verifier only need a handful of operations:
ambient dimension, the scaling factor of one digit step, membership in the
fundamental domain, and a single expansion step that also reports how far the
pre-floor image sits from its digit-cell boundary.  The `expand` command uses
the same adapters, so each system is described in one place.  Points travel
as numpy arrays of the ambient dimension regardless of the underlying system;
each adapter converts them to the lattice coordinates of its digit kernel
(`coords`) and back (`_point`).
"""

from __future__ import annotations

import numpy as np

from .complexexp import ComplexBase
from .numeric import DEFAULT_TOL, Quaternion, Tolerance, nudge_mode
from .quatexp import LatticeDomain
from .realexp import RealBase


class RealSystem:
    dim = 1

    def __init__(self, base: RealBase):
        self.base = base
        self.kernel = base.kernel
        self.radix_norm = base.b

    def coords(self, p) -> list[float]:
        return [float(p[0])]

    def contains(self, p: np.ndarray) -> bool:
        return 0.0 <= p[0] < 1.0

    def _point(self, u) -> np.ndarray:
        return np.array(u)

    def step(self, p: np.ndarray, on_ambiguous: str = "nudge"):
        (d,), u, margin = self.kernel.step(self.coords(p), nudge_mode(on_ambiguous))
        return d, self._point(u), margin

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

    def contains(self, p: np.ndarray) -> bool:
        return (self.base.lo[0] <= p[0] < self.base.lo[0] + 1.0
                and self.base.lo[1] <= p[1] < self.base.lo[1] + 1.0)

    def _point(self, u) -> np.ndarray:
        return np.array(u)

    def step(self, p: np.ndarray, on_ambiguous: str = "nudge"):
        d, u, margin = self.kernel.step(self.coords(p), nudge_mode(on_ambiguous))
        return d, self._point(u), margin

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

    def coords(self, p) -> list[float]:
        return (self.lattice.Binv @ np.asarray(p, dtype=float)).tolist()

    def contains(self, p: np.ndarray) -> bool:
        return self.lattice.box_contains(self.coords(p))

    def _point(self, u) -> np.ndarray:
        return self.lattice.B @ u

    def step(self, p: np.ndarray, on_ambiguous: str = "nudge"):
        d, u, margin = self.kernel.step(self.coords(p), nudge_mode(on_ambiguous))
        return d, self._point(u), margin

    def digit_matches(self, a, b) -> bool:
        return tuple(a) == tuple(b)


def expand_digits(system, p: np.ndarray, n: int, on_ambiguous: str = "nudge") -> list:
    """First n digits of p under the system's expansion map."""
    digits = system.kernel.expand(system.coords(p), n, nudge_mode(on_ambiguous))
    return [d for (d,) in digits] if system.dim == 1 else digits
