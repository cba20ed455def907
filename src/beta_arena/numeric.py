"""Quaternion arithmetic, tolerance-aware rounding and the digit kernel.

The digit maps in one, two and four dimensions are one affine map in
lattice coordinates, DigitKernel, so they share a single arithmetic path.
Every floor taken near an integer is flagged, and callers decide whether to
abort or to snap to the boundary.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


class AmbiguousValueError(ValueError):
    """A quantity landed inside the tolerance band around a decision boundary."""


@dataclass(frozen=True)
class Tolerance:
    """Rounding policy.

    eps_floor is the half-width of the ambiguity band around integers used by
    floor operations; eps_cmp is the slack allowed in ordinary comparisons.
    """

    eps_floor: float = 1e-9
    eps_cmp: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_floor < 0.25:
            raise ValueError("eps_floor must lie in (0, 1/4)")
        if not 0.0 < self.eps_cmp < self.eps_floor:
            raise ValueError("eps_cmp must lie in (0, eps_floor)")


DEFAULT_TOL = Tolerance()


def safe_floor(x: float, tol: Tolerance = DEFAULT_TOL) -> tuple[int, bool]:
    """Floor with an ambiguity flag.

    Returns (n, ambiguous).  When x is farther than tol.eps_floor from every
    integer, n = floor(x) and ambiguous is False.  Inside the band, n is the
    nearest integer (the snap target) and ambiguous is True.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot floor non-finite value {x!r}")
    nearest = round(x)
    if abs(x - nearest) <= tol.eps_floor:
        return int(nearest), True
    return math.floor(x), False


def tol_floor(x: float, tol: Tolerance = DEFAULT_TOL, nudge: bool = False) -> int:
    """Floor that either raises on ambiguity or snaps to the nearest integer."""
    n, ambiguous = safe_floor(x, tol)
    if ambiguous and not nudge:
        raise AmbiguousValueError(f"{x!r} is within {tol.eps_floor} of an integer")
    return n


def nudge_mode(on_ambiguous: str) -> bool:
    """True for "nudge" (snap at a boundary), False for "error" (raise);
    every expansion entry point checks its on_ambiguous argument here."""
    if on_ambiguous not in ("error", "nudge"):
        raise ValueError("on_ambiguous must be 'error' or 'nudge'")
    return on_ambiguous == "nudge"


class DigitKernel:
    """The digit map u -> A u - d, d = floor(A u - offsets), in lattice coordinates.

    A point u lies in the half-open box [offsets, offsets + 1) and its
    remainder A u - d lands back in it.  The real, complex and quaternion
    expansions are all this map: A is the radix b, the rotation-dilation
    matrix of xi, or left multiplication by q written in the lattice basis.
    Dividing by row_norms[i] turns a distance to a face {u_i = c} into a
    Euclidean distance in the ambient space.

    Snap policy in nudge mode: a coordinate of A u - offsets within
    eps_floor of an integer takes that integer as its digit, unless no point
    of the box has that digit, and its remainder is put exactly on the
    lower face.
    """

    def __init__(self, A, offsets, row_norms, tol: Tolerance = DEFAULT_TOL):
        self.A = tuple(map(tuple, A))
        self.tol = tol
        # digits per coordinate: the cells [d, d + 1) that the image of the box
        # meets, up to eps_cmp; the box is open above, so the image reaches
        # its top only when no entry of the row is positive
        self.lo, self.hi = [], []
        for row, off in zip(self.A, offsets):
            corner = sum(map(operator.mul, row, offsets)) - off
            top = corner + sum(a for a in row if a > 0.0)
            self.lo.append(math.floor(corner + sum(a for a in row if a < 0.0)))
            self.hi.append(math.ceil(top - tol.eps_cmp) - 1 if top > corner + tol.eps_cmp
                           else math.floor(top + tol.eps_cmp))
        self._rows = tuple(zip(self.A, offsets, row_norms, self.lo, self.hi))

    def step(self, u, nudge: bool = False):
        """One step from u: (digit, remainder, margin), the margin being the
        Euclidean distance from A u to the boundary of its digit cell."""
        eps = self.tol.eps_floor
        digit, nxt, margin = [], [], math.inf
        for row, off, norm, lo, hi in self._rows:
            w = sum(map(operator.mul, row, u))
            t = w - off
            d = tol_floor(t, self.tol, nudge)
            f = math.floor(t)
            if not lo <= d <= hi:  # a snap may not leave the digit range
                d = f
            digit.append(d)
            nxt.append(off if abs(t - d) <= eps else w - d)
            frac = t - f
            margin = min(margin, frac / norm, (1.0 - frac) / norm)
        return tuple(digit), tuple(nxt), margin

    def expand(self, u, n: int, nudge: bool = False) -> list[tuple[int, ...]]:
        """First n digits of u."""
        if n < 0:
            raise ValueError("length must be nonnegative")
        out = []
        for _ in range(n):
            d, u, _ = self.step(u, nudge)
            out.append(d)
        return out

    def reconstruct(self, digits) -> np.ndarray:
        """Lattice coordinates of sum_j A^-j d_j, the point these digits
        describe up to A^-n times the box."""
        acc = np.zeros(len(self.A))
        for d in reversed(digits):
            acc = np.linalg.solve(self.A, acc + d)
        return acc


@dataclass(frozen=True)
class Quaternion:
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    @staticmethod
    def real(x: float) -> "Quaternion":
        return Quaternion(float(x), 0.0, 0.0, 0.0)

    @staticmethod
    def complex2(re: float, im: float) -> "Quaternion":
        return Quaternion(float(re), float(im), 0.0, 0.0)

    @staticmethod
    def from_components(v) -> "Quaternion":
        a, b, c, d = (float(t) for t in v)
        return Quaternion(a, b, c, d)

    @property
    def components(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return quat_mul(self, other)
        return self.scale(float(other))

    def __rmul__(self, other) -> "Quaternion":
        # scalar * quaternion; quaternion * quaternion goes through __mul__
        return self.scale(float(other))

    def scale(self, s: float) -> "Quaternion":
        return Quaternion(s * self.a, s * self.b, s * self.c, s * self.d)

    def conj(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm2(self) -> float:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def __abs__(self) -> float:
        return math.sqrt(self.norm2())

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return self.conj().scale(1.0 / n2)

    def powi(self, n: int) -> "Quaternion":
        """Integer power, negative exponents via the inverse."""
        if n < 0:
            return self.inverse().powi(-n)
        out = Quaternion.real(1.0)
        base = self
        while n:
            if n & 1:
                out = quat_mul(out, base)
            base = quat_mul(base, base)
            n >>= 1
        return out

    def approx_eq(self, other: "Quaternion", eps: float) -> bool:
        return abs(self - other) <= eps


def quat_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p q (i^2 = j^2 = k^2 = ijk = -1)."""
    return Quaternion(
        p.a * q.a - p.b * q.b - p.c * q.c - p.d * q.d,
        p.a * q.b + p.b * q.a + p.c * q.d - p.d * q.c,
        p.a * q.c - p.b * q.d + p.c * q.a + p.d * q.b,
        p.a * q.d + p.b * q.c - p.c * q.b + p.d * q.a,
    )


def metallic_mean(j: int) -> float:
    """Positive root of x^2 = j x + 1."""
    if j <= 0:
        raise ValueError("index must be a positive integer")
    return (j + math.sqrt(j * j + 4.0)) / 2.0
