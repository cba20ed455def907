"""Uniform adapters over the three expansion systems.

The game engine and the outcome verifier only need a handful of operations:
ambient dimension, the scaling factor of one digit step, membership in the
fundamental domain, and a single expansion step, snapping at a boundary, that
also reports how far the pre-floor image sits from its digit-cell boundary.
Each adapter's `box` describes its domain axis by axis where it can: one
(scale, lower) pair per ambient coordinate, with contains(p) exactly when
lower <= scale * p[i] < lower + 1 for every i, or None when the domain is
not a box along the ambient axes (a sheared lattice).  max_step_inside,
which clips a drift at the domain's edge, reads the box to probe only the
coordinates a ray moves, so it lives here beside the contains it agrees with.
The `expand` command uses the same adapters, so each system is described in
one place.  Points travel as float tuples of the ambient dimension (any
float sequence is taken) regardless of the underlying system; each adapter
converts them to the lattice coordinates of its digit kernel (`coords`) and
back (`_point`).  The quaternion adapter's basis changes are its lattice's
Binv_times and B_times, plain-Python 4x4 products built once by the digit
kernel's numeric._image; no adapter loads numpy, and this module imports no
expansion module, as each adapter takes its base ready-built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .numeric import nudge_mode

if TYPE_CHECKING:
    from .complexexp import ComplexBase
    from .numeric import Quaternion
    from .quatexp import LatticeDomain
    from .realexp import RealBase


class RealSystem:
    dim = 1
    box = ((1.0, 0.0),)

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
        self.box = ((1.0, base.lo[0]), (1.0, base.lo[1]))

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
        # with a diagonal Binv, coordinate i of coords(p) is Binv[i][i] * p[i]
        # plus signed zeros, which compare as that product does
        Binv = lattice.Binv
        diagonal = all(x == 0.0 for i, row in enumerate(Binv)
                       for j, x in enumerate(row) if i != j)
        self.box = (tuple((Binv[i][i], lo) for i, lo in enumerate(lattice.offsets))
                    if diagonal else None)

    def coords(self, p) -> tuple[float, ...]:
        return self.lattice.Binv_times(map(float, p))

    def contains(self, p: Sequence[float]) -> bool:
        return self.lattice.box_contains(self.coords(p))

    def _point(self, u) -> tuple[float, ...]:
        return self.lattice.B_times(map(float, u))

    def step(self, p: Sequence[float]):
        d, u, margin = self.kernel.step(self.coords(p), nudge=True)
        return d, self.lattice.B_times(u), margin

    def digit_matches(self, a, b) -> bool:
        return tuple(a) == tuple(b)


def max_step_inside(system, start: Sequence[float], direction: Sequence[float],
                    step: float) -> float:
    """Largest t <= step with start + t * direction still in the system's
    domain, by 60 halvings of [0, step] on its membership test; step itself
    when system is None.

    With a box, a probe evaluates only the coordinates the direction moves,
    as scale * (a + mid * b) against the box's bounds, and gets contains'
    answer.  RealSystem and ComplexSystem compare p[i] itself, and their
    scale 1.0 gives 1.0 * x == x.  QuatSystem compares coordinate i of
    Binv_times(p) in LatticeDomain.box_contains; with a diagonal Binv
    that is +0.0 + Binv[i][i] * x plus off-diagonal products that are signed
    zeros, none of which changes a comparison, and a coordinate that
    overflows fails on both paths (in Binv_times it stays infinite, and its
    products with zeros make the other coordinates NaN).  A fixed coordinate
    (b == 0) is checked once at t = step: a + t * b compares as a for every
    finite t, and t is finite in every probe exactly when step is.  tests/test_systems.py holds each
    adapter's contains to the box formula.
    """
    if system is None:
        return step
    pairs = list(zip(map(float, start), map(float, direction)))
    if system.contains([a + step * b for a, b in pairs]):
        return step
    lo, hi = 0.0, step
    if system.box is None:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if system.contains([a + mid * b for a, b in pairs]):
                lo = mid
            else:
                hi = mid
        return lo * (1.0 - 1e-9)
    moving = []
    for (a, b), (scale, lower) in zip(pairs, system.box):
        if b:
            moving.append((a, b, scale, lower, lower + 1.0))
        elif not lower <= scale * (a + step * b) < lower + 1.0:
            return 0.0  # every probe fails
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        for a, b, scale, lower, upper in moving:
            if not lower <= scale * (a + mid * b) < upper:
                hi = mid
                break
        else:
            lo = mid
    return lo * (1.0 - 1e-9)


def expand_digits(system, p: Sequence[float], n: int, on_ambiguous: str = "nudge") -> list:
    """First n digits of p under the system's expansion map."""
    digits = system.kernel.expand(system.coords(p), n, nudge_mode(on_ambiguous))
    return [d for (d,) in digits] if system.dim == 1 else digits
