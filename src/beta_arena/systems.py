"""Uniform adapters over the three expansion systems.

The game engine and the outcome verifier only need a handful of operations:
ambient dimension, the scaling factor of one digit step, membership in the
fundamental domain, and a single expansion step, snapping at a boundary, that
also reports how far the pre-floor image sits from its digit-cell boundary.
Each adapter's `box` describes its domain axis by axis where it can: one
(scale, lower) pair per ambient coordinate, with contains(p) exactly when
lower <= scale * p[i] < lower + 1 for every i, or None when the domain is
not a box along the ambient axes (a sheared lattice).  max_step_inside,
which clips Bob's drift along the first axis at the domain's edge, reads
the box to find the one exact crossing on that axis, so it lives here
beside the contains it agrees with.
The `expand` command uses the same adapters, so each system is described in
one place.  Points travel as float tuples of the ambient dimension (any
float sequence is taken) regardless of the underlying system; each adapter
converts one to the lattice coordinates of its digit kernel (`coords`) and
back (`point`), crossing the basis once a call.  `step(u, n, radius)` is
the kernel's walk from u in kernel coordinates, snapping at a boundary and
giving a real digit as an int: n digits and how many a ball of that radius
certifies at the adapter's radix_norm.  certified_digits converts a point
once and makes that one call, so its digits are expand_digits' in nudge
mode: one orbit.  Each adapter defines its own step, although all three
read alike, because perfbench's tracer patches RealSystem.step,
ComplexSystem.step and QuatSystem.step by name, one span per system.
The quaternion adapter's kernel is its lattice's digit_map(q),
which the lattice builds once per q, and its basis changes are the
lattice's Binv_times and B_times, plain-Python 4x4 products built once by
the digit kernel's numeric._image.  This module imports no expansion
module, as each adapter takes its base ready-built.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .numeric import nudge_mode

if TYPE_CHECKING:
    from .complexexp import ComplexBase
    from .numeric import Quaternion
    from .quatexp import LatticeDomain
    from .realexp import RealBase


class RealSystem:
    """A real base on [0, 1); kernel coordinates: the point's one float."""
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

    def point(self, u) -> tuple[float, ...]:
        return tuple(u)

    def step(self, u: Sequence[float], n: int, radius: float) -> tuple[list, int]:
        return self.kernel.walk(u, n, True, radius, self.radix_norm)


class ComplexSystem:
    """A complex base on its square; kernel coordinates: the point's two floats."""
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

    def point(self, u) -> tuple[float, ...]:
        return tuple(u)

    def step(self, u: Sequence[float], n: int, radius: float) -> tuple[list, int]:
        return self.kernel.walk(u, n, True, radius, self.radix_norm)


class QuatSystem:
    """A quaternion base on a lattice's box; kernel coordinates: Binv_times."""
    dim = 4

    def __init__(self, q: Quaternion, lattice: LatticeDomain):
        self.q = q
        self.lattice = lattice
        self.kernel = lattice.digit_map(q)
        self.radix_norm = abs(q)
        Binv = lattice.Binv
        diagonal = all(x == 0.0 for i, row in enumerate(Binv)
                       for j, x in enumerate(row) if i != j)
        self.box = (tuple((Binv[i][i], lo) for i, lo in enumerate(lattice.offsets))
                    if diagonal else None)

    def coords(self, p) -> tuple[float, ...]:
        return self.lattice.Binv_times(map(float, p))

    def contains(self, p: Sequence[float]) -> bool:
        """Whether coords(p) lies in the lattice's box.  With a box (diagonal Binv),
        coords(p)[i] is Binv[i][i] * p[i] plus +-0.0 on finite p; inf or nan fails both."""
        if self.box is None:
            return self.lattice.box_contains(self.coords(p))
        (s0, l0), (s1, l1), (s2, l2), (s3, l3) = self.box
        x0, x1, x2, x3 = p
        return (l0 <= s0 * float(x0) < l0 + 1.0 and l1 <= s1 * float(x1) < l1 + 1.0
                and l2 <= s2 * float(x2) < l2 + 1.0 and l3 <= s3 * float(x3) < l3 + 1.0)

    def point(self, u) -> tuple[float, ...]:
        return self.lattice.B_times(map(float, u))

    def step(self, u: Sequence[float], n: int, radius: float) -> tuple[list, int]:
        return self.kernel.walk(u, n, True, radius, self.radix_norm)


def max_step_inside(system, start: Sequence[float], step: float) -> float:
    """Largest t <= step with start + t * e_1 still in the system's domain:
    the point at t is inside and the one at the next float is not.  step
    itself when the full step stays inside, which is the first question
    asked of contains; 0.0 from a start outside or for a step that is not
    finite and above 0.

    With a box, the other coordinates stay where they are and are tested
    once, and membership along the ray is lower <= scale * (a + t) < upper
    on the first, contains' answer: RealSystem and ComplexSystem compare
    p[i], and 1.0 * x == x; QuatSystem's contains reads the same box.  The
    test is monotone in t, as every rounding is, so from a start inside the
    ray is inside exactly for t <= U, U the crossing _exit gives or a float
    next to it.  Where it is not, _halvings bisects the box test, and
    without a box it bisects contains.  tests/test_systems.py holds each
    adapter's contains to the box formula.
    """
    a, *rest = map(float, start)
    if system.contains([a + step, *rest]):
        return step
    if system.box is None:
        return _halvings(lambda t: system.contains([a + t, *rest]), step)
    (scale, lower), *others = system.box
    for x, (s, lo) in zip(rest, others):
        if not lo <= s * x < lo + 1.0:
            return 0.0
    upper = lower + 1.0

    def inside(t):
        return lower <= scale * (a + t) < upper

    if 0.0 < step < math.inf and inside(0.0):
        t = _exit(a, scale, lower, upper)
        for _ in range(2):  # t is U, or a float next to it: step onto U
            if not inside(t):
                t = math.nextafter(t, -math.inf)
            elif inside(math.nextafter(t, math.inf)):
                t = math.nextafter(t, math.inf)
            else:
                return t
        return _halvings(inside, step)
    return 0.0


def _exit(a: float, scale: float, lower: float, upper: float) -> float:
    """The largest t with lower <= scale * (a + t) < upper from a start a
    inside, or a float next to it: the largest float t with a + t rounding
    to at most z, the last value of a + t the axis admits.  That is
    z + h - a, h half the gap above z, rounded by fsum, or the float below
    as the sum a + t decides.  Where t is subnormal its rounding leaves it
    further off.  (Walking t by nextafter from z - a would not do: a + t
    keeps one value for about ulp(a) of t.)
    """
    z = (upper if scale > 0.0 else lower) / scale
    if not lower <= scale * z < upper:
        z = math.nextafter(z, -math.inf)
    elif lower <= scale * math.nextafter(z, math.inf) < upper:
        z = math.nextafter(z, math.inf)
    t = math.fsum((z, (math.nextafter(z, math.inf) - z) / 2.0, -a))
    return math.nextafter(t, -math.inf) if a + t > z else t


def _halvings(inside, step: float) -> float:
    """The t that halving [0, step] on the test inside ends on, from
    inside(0) and not inside(step) to adjacent floats t and nextafter(t,
    inf); 0.0 when inside(0) fails or step is not finite and above 0."""
    if not (0.0 < step < math.inf and inside(0.0)):
        return 0.0
    lo, hi = 0.0, step
    while True:
        mid = lo + 0.5 * (hi - lo)
        if mid == lo or mid == hi:
            return lo
        if inside(mid):
            lo = mid
        else:
            hi = mid


def expand_digits(system, p: Sequence[float], n: int, on_ambiguous: str = "nudge") -> list:
    """First n digits of p under the system's expansion map, as its kernel gives them."""
    return system.kernel.expand(system.coords(p), n, nudge_mode(on_ambiguous))
