"""Expansions in a complex base xi = r e^(i theta) with Gaussian-integer digits.

The digit map subtracts the lattice point that returns xi*z to a fixed
half-open unit square.  For the square centered at the origin the digit set
is a filled square of size N exactly when (2N-1)(cos t + sin t) < r and
r <= (2N+1)/(cos t + sin t), with the angle folded into [0, pi/4] by the
quarter-turn symmetry of the lattice.  The k-th refinement of the domain
tiles into rotated squares when the polynomial f below stays positive, and
everything here reduces to evaluating, inverting, or bounding that family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numeric import (DEFAULT_TOL, AmbiguousValueError, DigitKernel, Quaternion,
                      Tolerance, nudge_mode)

QUARTER = math.pi / 4.0
GaussInt = tuple[int, int]

# coefficients of the polynomial whose smallest positive root is tan(gamma2/2)
_DELTA_POLY = (1.0, 16.0, 0.0, 0.0, 30.0, 0.0, 0.0, -16.0, 1.0)


def fold_angle(theta: float) -> float:
    """Reduce an angle to [0, pi/4] using the symmetries of the square lattice."""
    t = math.fmod(theta, math.pi / 2.0)
    if t < 0.0:
        t += math.pi / 2.0
    return t if t <= QUARTER else math.pi / 2.0 - t


class Classification(NamedTuple):
    square: bool
    N: int


class CkResult(NamedTuple):
    holds: bool
    certified: bool


@dataclass(frozen=True)
class SquareRegion:
    """Open-below, closed-above parameter interval (v_lo, u_hi] for one N."""

    N: int
    v_lo: float
    u_hi: float


@dataclass(frozen=True)
class GammaConstants:
    gamma1: float
    gamma2: float
    delta: float
    l_minus: float | None = None
    l_plus: float | None = None


class ComplexBase:
    """Base xi = r e^(i theta) acting on a half-open unit square.

    lo gives the lower-left corner of the square; the centered square
    [-1/2, 1/2)^2 is the default and is required by the region machinery.
    The raw angle drives the digit map while the folded angle drives all
    threshold computations.
    """

    def __init__(self, r: float, theta: float, tol: Tolerance = DEFAULT_TOL,
                 lo: tuple[float, float] = (-0.5, -0.5)):
        if not 1.0 < r < math.inf:
            raise ValueError("modulus must be finite and exceed 1")
        self.r = float(r)
        self.theta = float(theta)
        self.tol = tol
        self.lo = (float(lo[0]), float(lo[1]))
        self.theta_folded = fold_angle(self.theta)
        self.c = math.cos(self.theta_folded)
        self.s = math.sin(self.theta_folded)
        self.xi = Quaternion.complex2(r * math.cos(self.theta), r * math.sin(self.theta))
        self.kernel = DigitKernel(((self.xi.a, -self.xi.b), (self.xi.b, self.xi.a)),
                                  self.lo, (1.0, 1.0), tol)
        self.N: int | None = None
        if self.is_centered:
            try:
                cls = classify_digit_set(self.r, self.theta, tol)
            except AmbiguousValueError:
                cls = None
            if cls is not None and cls.square:
                self.N = cls.N

    @property
    def is_centered(self) -> bool:
        return self.lo == (-0.5, -0.5)

    def contains(self, z: Quaternion) -> bool:
        return (self.lo[0] <= z.a < self.lo[0] + 1.0
                and self.lo[1] <= z.b < self.lo[1] + 1.0)

    def expand(self, z: Quaternion, n: int, on_ambiguous: str = "error") -> list[GaussInt]:
        if not self.contains(z):
            raise ValueError("point outside the fundamental square")
        return self.kernel.expand([z.a, z.b], n, nudge_mode(on_ambiguous))


def classify_digit_set(r: float, theta: float, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Size and shape of the digit set on the centered square.

    Returns (square, N) where N is the sup-norm radius of the digit bounding
    box.  Raises AmbiguousValueError within 10*eps_cmp of either region
    boundary rather than guessing a side.
    """
    if not 1.0 < r < math.inf:
        raise ValueError("modulus must be finite and exceed 1")
    t = fold_angle(theta)
    cps = math.cos(t) + math.sin(t)
    beps = 10.0 * tol.eps_cmp
    x = (r * cps + 1.0) / 2.0
    nearest = round(x)
    if abs(x - nearest) * 2.0 / cps <= beps:
        raise AmbiguousValueError(f"r={r!r} sits on a digit-set size boundary")
    N = math.ceil(x) - 1
    gap = r - (2 * N - 1) * cps
    if abs(gap) <= beps:
        raise AmbiguousValueError(f"r={r!r} sits on the square/non-square boundary")
    return Classification(square=gap > 0.0, N=N)


def u_threshold(N: int, theta: float) -> float:
    """Largest modulus for which the digit bounding box stays at size N."""
    if N < 1:
        raise ValueError("N must be positive")
    t = fold_angle(theta)
    return (2 * N + 1) / (math.cos(t) + math.sin(t))


def f_value(N: int, k: int, theta: float, r: float) -> float:
    """The refinement polynomial r^k - 2N sum r^(k-j)(|cos jt|+|sin jt|) - (|cos kt|+|sin kt|)."""
    if k < 1:
        raise ValueError("k must be positive")
    t = fold_angle(theta)
    acc = r ** k
    for j in range(1, k):
        acc -= 2.0 * N * r ** (k - j) * (abs(math.cos(j * t)) + abs(math.sin(j * t)))
    acc -= abs(math.cos(k * t)) + abs(math.sin(k * t))
    return acc


def v_threshold(N: int, k: int, theta: float) -> float:
    """Positive root of the refinement polynomial, by bisection.

    For k = 1 this is cos t + sin t; for k = 2 it agrees with the closed form
    N(c+s) + sqrt(N^2 (c+s)^2 + cos 2t + sin 2t).
    """
    if N < 1:
        raise ValueError("N must be positive")
    t = fold_angle(theta)
    if k == 1:
        return math.cos(t) + math.sin(t)
    lo = 1.0
    hi = 2.0 * math.sqrt(2.0) * N * k + 2.0
    while f_value(N, k, t, hi) <= 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f_value(N, k, t, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def check_Ck(base: ComplexBase, k: int) -> CkResult:
    """Does the k-th refinement of the centered square tile into squares?

    Exact for k <= 2.  For k >= 3 a True answer is still a guarantee (the
    sufficient condition held) but a False answer is inconclusive.
    """
    if not base.is_centered:
        raise ValueError("refinement checks require the centered square")
    if base.N is None:
        raise ValueError("digit set is not square; no refinement structure")
    if k == 1:
        holds = base.r >= base.c + base.s - base.tol.eps_cmp
        return CkResult(holds, True)
    v = v_threshold(base.N, k, base.theta_folded)
    return CkResult(base.r > v, k <= 2)


def discriminant(theta: float) -> float:
    """Discriminant governing whether the size-N region family terminates."""
    t = fold_angle(theta)
    c2 = math.cos(2 * t)
    s2 = math.sin(2 * t)
    cps2 = (math.cos(t) + math.sin(t)) ** 2
    return 4.0 * (1.0 - s2) ** 2 - 16.0 * s2 * ((c2 + s2) * cps2 - 1.0)


def F_value(N: float, theta: float) -> float:
    """Quadratic in N whose negativity makes the size-N interval nonempty."""
    t = fold_angle(theta)
    c2 = math.cos(2 * t)
    s2 = math.sin(2 * t)
    cps2 = (math.cos(t) + math.sin(t)) ** 2
    return 4.0 * s2 * N * N - 2.0 * (1.0 - s2) * N + ((c2 + s2) * cps2 - 1.0)


def F_roots(theta: float) -> tuple[float, float]:
    """Roots L- <= L+ of the quadratic above; requires a positive discriminant."""
    t = fold_angle(theta)
    disc = discriminant(t)
    if disc <= 0.0:
        raise ValueError("discriminant is not positive; no real roots")
    s2 = math.sin(2 * t)
    if s2 == 0.0:
        raise ValueError("quadratic degenerates at theta = 0")
    root = math.sqrt(disc)
    return ((2.0 * (1.0 - s2) - root) / (8.0 * s2),
            (2.0 * (1.0 - s2) + root) / (8.0 * s2))


def _delta_root() -> float:
    roots = np.roots(_DELTA_POLY)
    real = [float(z.real) for z in roots if abs(z.imag) < 1e-12 and z.real > 0.0]
    if not real:
        raise RuntimeError("no positive real root found for the gamma2 polynomial")
    return min(real)


def gamma_constants(theta: float | None = None) -> GammaConstants:
    """Angle thresholds of the region family.

    gamma1 bounds the angles with positive discriminant, gamma2 = 2 arctan d
    with d the smallest positive root of x^8 + 16x^7 + 30x^4 - 16x + 1 bounds
    the angles with a nonempty family.  When theta is supplied and lies below
    gamma1 the quadratic roots L-' L+ at that angle are attached.
    """
    lo, hi = 1e-9, QUARTER
    if discriminant(lo) <= 0.0 or discriminant(hi) >= 0.0:
        raise RuntimeError("discriminant sign pattern unexpected")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if discriminant(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    gamma1 = 0.5 * (lo + hi)
    delta = _delta_root()
    gamma2 = 2.0 * math.atan(delta)
    l_minus = l_plus = None
    if theta is not None and 0.0 < fold_angle(theta) < gamma1:
        l_minus, l_plus = F_roots(theta)
    return GammaConstants(gamma1, gamma2, delta, l_minus, l_plus)


def G_region(theta: float, tol: Tolerance = DEFAULT_TOL) -> list[SquareRegion]:
    """Moduli r for which the base r e^(i theta) refines into squares at
    every level, as a union of intervals (v_lo, u_hi] indexed by N.

    Empty at and above gamma2.  At theta = 0 the family is infinite and is
    truncated at N = 10.
    """
    t = fold_angle(theta)
    if t >= gamma_constants().gamma2 - 1e-15:
        return []
    if t < 1e-12:
        return [SquareRegion(N, N + math.sqrt(N * N + 1.0), 2 * N + 1) for N in range(1, 11)]
    _, l_plus = F_roots(t)
    top = math.ceil(l_plus - tol.eps_cmp) - 1
    return [SquareRegion(N, v_threshold(N, 2, t), u_threshold(N, t))
            for N in range(1, top + 1)]


def snake_order(N: int) -> list[GaussInt]:
    """Digits of the size-N square in boustrophedon order.

    Consecutive entries differ by exactly one lattice step: rows are swept
    bottom to top, alternating direction, beginning at -N - Ni and walking
    the bottom row left to right.
    """
    if N < 1:
        raise ValueError("N must be positive")
    out: list[GaussInt] = []
    for s in range(2 * N + 1):
        sign = -1 if s % 2 == 0 else 1
        for t in range(1, 2 * N + 2):
            out.append((sign * (N + 1 - t), -N + s))
    return out


def Vk_squares(base: ComplexBase, k: int) -> list[Quaternion]:
    """Centers of the level-k square tiles whose k-th digit is zero.

    Tiles are translates of xi^-k times the centered square, one per digit
    block of length k-1, ordered snake-lexicographically.  Every tile is
    constructively checked to sit inside the domain by mapping its corners.
    """
    if not base.is_centered:
        raise ValueError("tile decompositions require the centered square")
    if k < 1:
        raise ValueError("k must be positive")
    if base.N is None:
        raise ValueError("digit set is not square; no tile structure")
    for n in range(1, k + 1):
        res = check_Ck(base, n)
        if not res.holds:
            raise ValueError(f"refinement condition fails at level {n}")
    digits = snake_order(base.N)
    inv = [base.xi.powi(-j) for j in range(k + 1)]
    eps = base.tol.eps_floor
    corners = [Quaternion.complex2(sx, sy) for sx in (-0.5, 0.5) for sy in (-0.5, 0.5)]

    def centers_for(prefix_sum: Quaternion, depth: int) -> list[Quaternion]:
        if depth == k - 1:
            return [prefix_sum]
        out = []
        for (da, db) in digits:
            step = inv[depth + 1] * Quaternion.complex2(da, db)
            out.extend(centers_for(prefix_sum + step, depth + 1))
        return out

    centers = centers_for(Quaternion(), 0)
    shrink = inv[k]
    for ctr in centers:
        for crn in corners:
            img = ctr + shrink * crn
            if abs(img.a) > 0.5 + eps or abs(img.b) > 0.5 + eps:
                raise ValueError("tile corner escaped the domain; refinement not established")
    return centers
