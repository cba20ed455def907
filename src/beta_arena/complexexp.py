"""Expansions in a complex base xi = r e^(i theta) with Gaussian-integer digits.

The digit map subtracts the lattice point that returns xi*z to a fixed
half-open unit square.  For the square centered at the origin the digit set
is a filled square of size N exactly when (2N-1)(cos t + sin t) < r and
r <= (2N+1)/(cos t + sin t), with the angle folded into [0, pi/4] by the
quarter-turn symmetry of the lattice.  The k-th refinement of the domain
tiles into rotated squares when the polynomial f below stays positive, and
everything here reduces to evaluating, inverting, or bounding that family,
or the quadratic F in N (written once, in _F) that bounds the region G.
The complex winning threshold and hold length close the module.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .numeric import (EPS_CMP, EPS_FLOOR, AmbiguousValueError, DigitKernel, FrozenRecord,
                      Quaternion, nudge_mode)
from .realexp import winning_gap

QUARTER = math.pi / 4.0
GaussInt = tuple[int, int]

# coefficients of the polynomial whose smallest positive root is tan(gamma2/2)
_DELTA_POLY = (1.0, 16.0, 0.0, 0.0, 30.0, 0.0, 0.0, -16.0, 1.0)


def fold_angle(theta: float) -> float:
    """Reduce an angle to [0, pi/4] using the symmetries of the square lattice."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
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


class SquareRegion(FrozenRecord):
    """Open-below, closed-above parameter interval (v_lo, u_hi] for one N."""

    __slots__ = ("N", "v_lo", "u_hi")

    def __init__(self, N: int, v_lo: float, u_hi: float):
        set_N, set_v_lo, set_u_hi = self._setters
        set_N(self, N)
        set_v_lo(self, v_lo)
        set_u_hi(self, u_hi)


class GammaConstants(FrozenRecord):
    __slots__ = ("gamma1", "gamma2", "delta")

    def __init__(self, gamma1: float, gamma2: float, delta: float):
        set_gamma1, set_gamma2, set_delta = self._setters
        set_gamma1(self, gamma1)
        set_gamma2(self, gamma2)
        set_delta(self, delta)


class ComplexBase:
    """Base xi = r e^(i theta) acting on a half-open unit square.

    lo gives the lower-left corner of the square; the centered square
    [-1/2, 1/2)^2 is the default and is required by the region machinery.
    The raw angle drives the digit map while the folded angle drives all
    threshold computations.
    """

    def __init__(self, r: float, theta: float, lo: tuple[float, float] = (-0.5, -0.5)):
        if not 1.0 < r < math.inf:
            raise ValueError("modulus must be finite and exceed 1")
        self.r = float(r)
        self.theta = float(theta)
        self.lo = (float(lo[0]), float(lo[1]))
        self.theta_folded = fold_angle(self.theta)
        self.xi = Quaternion.complex2(r * math.cos(self.theta), r * math.sin(self.theta))
        self.kernel = DigitKernel(((self.xi.a, -self.xi.b), (self.xi.b, self.xi.a)),
                                  self.lo, (1.0, 1.0))
        self.N: int | None = None
        if self.is_centered:
            try:
                cls = classify_digit_set(self.r, self.theta)
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


def classify_digit_set(r: float, theta: float) -> Classification:
    """Size and shape of the digit set on the centered square.

    Returns (square, N) where N is the sup-norm radius of the digit bounding
    box.  Raises AmbiguousValueError within 10*EPS_CMP of either region
    boundary rather than guessing a side.
    """
    if not 1.0 < r < math.inf:
        raise ValueError("modulus must be finite and exceed 1")
    t = fold_angle(theta)
    cps = math.cos(t) + math.sin(t)
    beps = 10.0 * EPS_CMP
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


def refinement_poly(N: int, k: int, theta: float):
    """The refinement polynomial r -> r^k - 2N sum_{j<k} r^(k-j) w_j - w_k,
    w_j = |cos jt| + |sin jt|, as a function of r.  The weights are computed
    once; each call subtracts the terms in order of increasing j."""
    if k < 1:
        raise ValueError("k must be positive")
    return _refinement(N, k, fold_angle(theta))[0]


def _refinement(N: int, k: int, t: float):
    """refinement_poly's function at the folded angle t, with its coefficients
    for Horner's rule: (f, (c_1, ..., c_(k-1), w_k)), c_j = 2N w_j."""
    w = [abs(math.cos(j * t)) + abs(math.sin(j * t)) for j in range(1, k + 1)]
    two_n, tail, terms = 2.0 * N, w.pop(), tuple(zip(range(k - 1, 0, -1), w))

    def f(r: float) -> float:
        try:
            acc = r ** k
            for e, wj in terms:
                acc -= two_n * r ** e * wj
        except OverflowError:
            raise ValueError(f"r**{k} at r = {r!r} is beyond double precision") from None
        return acc - tail
    return f, (*(two_n * wj for wj in w), tail)


def _newton_step(coefs: tuple[float, ...], r: float) -> float:
    """r - F(r)/F'(r) for F(r) = r^k - c_1 r^(k-1) - ... - c_(k-1) r - c_k,
    F and F' by one Horner pass; nan unless F'(r) > 0."""
    p, dp = 1.0, 0.0
    for c in coefs:
        dp = dp * r + p
        p = p * r - c
    return r - p / dp if dp > 0.0 else math.nan


def _newton_root(coefs: tuple[float, ...], hi: float) -> float:
    """An approximation of F's positive root by Newton's method from the right.

    F(r)/r^(k-2) = r^2 - c_1 r - c_2 - c_3/r - ... - c_k/r^(k-2).  Its root
    r* lies at or right of s, the root of r^2 - c_1 r - c_2, where F <= 0.
    The start is the root of r^2 - c_1 r - C, C = c_2 + c_3/s + ... +
    c_k/s^(k-2) (or hi if that is smaller): that quadratic is below
    F/r^(k-2) on r >= s, so the start lies right of r*, where F is
    increasing and convex.  Stops once a step moves r by at most 2^-30 of
    r, or after 12 steps; nan where a step fails.  Nothing rests on its
    accuracy: v_threshold certifies whatever it returns, or does without
    it."""
    c1, c2 = coefs[0], coefs[1]
    s, acc = 0.5 * (c1 + math.sqrt(c1 * c1 + 4.0 * c2)), 0.0
    for c in reversed(coefs[1:]):
        acc = acc / s + c
    r = min(0.5 * (c1 + math.sqrt(c1 * c1 + 4.0 * acc)), hi)
    for _ in range(12):
        nxt = _newton_step(coefs, r)
        if not abs(r - nxt) > r * 2.0 ** -30:
            return nxt
        r = nxt
    return r


def _bisect(below, lo: float, hi: float) -> float:
    """Midpoint of [lo, hi] after 200 halvings, each keeping the half whose
    ends straddle the point where below(x) turns from True to False.  Each
    halving is a function of (lo, hi) alone, so once one leaves them as they
    were every later one does too, and the loop stops there (after about 60
    halvings on the brackets used here) with the bits that 200 give.  It
    serves gamma1 and gamma2, and v_threshold, whose below(x) calls its
    polynomial only where the sign is in doubt."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return 0.5 * (lo + hi)


def v_threshold(N: int, k: int, theta: float) -> float:
    """Positive root of the refinement polynomial, by bisection.

    For k = 1 this is cos t + sin t; for k = 2 it agrees with the closed form
    N(c+s) + sqrt(N^2 (c+s)^2 + cos 2t + sin 2t).

    The bisection (_bisect) halves [1, hi], where hi starts at
    2 sqrt(2) N k + 2 and doubles while f(hi) <= 0 (f is refinement_poly's
    function, which refuses an r**k beyond double precision), and it calls f
    only where f's sign is in doubt.  Write F(r) = r^k - sum_j c_j r^(k-j) -
    tau with the coefficients f holds (c_j = 2N w_j >= 0, tau = w_k >= 1)
    and S(r) = r^k + sum_j c_j r^(k-j) + tau = 2 r^k - F(r).
    g = F/r^k = 1 - sum_j c_j r^-j - tau r^-k is strictly increasing on
    r > 0.  f rounds k subtractions and two products per term and takes k
    pows, so |f(r) - F(r)| <= gamma S(r) for r >= 1 with gamma = (k + 8)
    2^-50, room for pows far worse than 1 ulp.  If f(a) < -8 gamma a**k
    (at least 7 gamma a^k once that product is rounded), then F(a) < -5
    gamma a^k / (1 + gamma), so g(r) < g(a) gives F(r) < -5 gamma r^k /
    (1 + gamma) for every r in [1, a), and there f(r) <= (1 - gamma) F(r) +
    2 gamma r^k < 0.  Likewise, f(b) > 8 gamma b**k gives f(r) > 0 for
    every r > b.
    Newton's method (_newton_root) gives the root to about 2^-45, a and b
    sit 2^-40 of it to either side, and two calls of f certify them: a
    midpoint below a counts as below, one above b as not, so every halving
    keeps the half that f's own sign would keep, and the result has the bits
    of the bisection that calls f at every midpoint.  If the certificate
    fails (or a, b leave (1, hi)), a = 1 and b = hi, which is that
    bisection.  About 18 calls of f and 2-4 Newton steps replace about 56
    calls.
    """
    if N < 1:
        raise ValueError("N must be positive")
    t = fold_angle(theta)
    if k == 1:
        return math.cos(t) + math.sin(t)
    if k < 1:
        raise ValueError("k must be positive")
    f, coefs = _refinement(N, k, t)
    hi = 2.0 * math.sqrt(2.0) * N * k + 2.0
    while f(hi) <= 0.0:
        hi *= 2.0
    root = _newton_root(coefs, hi)
    a, b = root * (1.0 - 2.0 ** -40), root * (1.0 + 2.0 ** -40)
    slack = (k + 8) * 2.0 ** -47  # 8 gamma
    if not (1.0 < a and b < hi and f(a) < -slack * a ** k and f(b) > slack * b ** k):
        a, b = 1.0, hi
    return _bisect(lambda r: r < a or (r <= b and f(r) <= 0.0), 1.0, hi)


def check_Ck(base: ComplexBase, k: int) -> CkResult:
    """Does the k-th refinement of the centered square tile into squares?

    Exact for k <= 2.  For k >= 3 a True answer is still a guarantee (the
    sufficient condition held) but a False answer is inconclusive.
    """
    if not base.is_centered:
        raise ValueError("refinement checks require the centered square")
    if base.N is None:
        raise ValueError("digit set is not square; no refinement structure")
    v = v_threshold(base.N, k, base.theta_folded)
    if k == 1:  # v = cos t + sin t
        return CkResult(base.r >= v - EPS_CMP, True)
    return CkResult(base.r > v, k <= 2)


def _F(theta: float) -> tuple[float, float, float]:
    """(a, b, c) of F(N) = 4 sin2t N^2 - 2 (1 - sin2t) N + (cos2t + sin2t)(cos t
    + sin t)^2 - 1, negative exactly when the size-N interval is nonempty."""
    t = fold_angle(theta)
    s2 = math.sin(2 * t)
    cps2 = (math.cos(t) + math.sin(t)) ** 2
    return 4.0 * s2, -2.0 * (1.0 - s2), (math.cos(2 * t) + s2) * cps2 - 1.0


def discriminant(theta: float) -> float:
    """b^2 - 4ac of F, b^2 as 4 (b/2)**2: pow, whose last bit differs from
    b * b's for some b, as it always was."""
    a, b, c = _F(theta)
    return 4.0 * (b / 2.0) ** 2 - 4.0 * a * c


def F_value(N: float, theta: float) -> float:
    """F(N) at the angle theta."""
    a, b, c = _F(theta)
    return a * N * N + b * N + c


def F_roots(theta: float) -> tuple[float, float]:
    """Roots L- <= L+ of F; requires a positive discriminant."""
    disc = discriminant(theta)
    if disc <= 0.0:
        raise ValueError("discriminant is not positive; no real roots")
    a, b, _ = _F(theta)
    if a == 0.0:
        raise ValueError("quadratic degenerates at theta = 0")
    root = math.sqrt(disc)
    return (-b - root) / (2.0 * a), (-b + root) / (2.0 * a)


def _delta_root() -> float:
    """Smallest positive root of _DELTA_POLY, by bisection on [0, 1/8]: the
    polynomial falls from 1 at 0 to below 0 at 1/8, and its derivative
    -16 + 120 x^3 + 112 x^6 + 8 x^7 stays negative there."""

    def poly(x: float) -> float:
        acc = 0.0
        for c in _DELTA_POLY:
            acc = acc * x + c
        return acc

    if poly(0.125) >= 0.0:
        raise RuntimeError("no positive real root found for the gamma2 polynomial")
    return _bisect(lambda x: poly(x) > 0.0, 0.0, 0.125)


@functools.cache
def gamma_constants() -> GammaConstants:
    """Angle thresholds of the region family, computed once per process.

    gamma1 bounds the angles with positive discriminant, gamma2 = 2 arctan d
    with d the smallest positive root of x^8 + 16x^7 + 30x^4 - 16x + 1 bounds
    the angles with a nonempty family.  F_roots gives the quadratic roots
    L- and L+ at an angle below gamma1.
    """
    if discriminant(1e-9) <= 0.0 or discriminant(QUARTER) >= 0.0:
        raise RuntimeError("discriminant sign pattern unexpected")
    gamma1 = _bisect(lambda t: discriminant(t) > 0.0, 1e-9, QUARTER)
    delta = _delta_root()
    gamma2 = 2.0 * math.atan(delta)
    return GammaConstants(gamma1, gamma2, delta)


def G_region(theta: float) -> list[SquareRegion]:
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
    top = math.ceil(l_plus - EPS_CMP) - 1
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
    constructively checked to sit inside the domain by mapping its corners:
    no |fl(a + c_a)| or |fl(b + c_b)| over centers (a, b) and corner
    offsets (c_a, c_b) may pass 1/2 + EPS_FLOOR.  The offsets come in exact
    negative pairs (shrink * -z is -(shrink * z) exactly), and rounding is
    monotone and odd, so the largest |fl(a + c_a)| over offsets is
    fl(|a| + max |c_a|), and over centers fl(max |a| + max |c_a|): the
    extreme coordinates decide the test, with the same floats, in place of
    every pair.
    """
    if not base.is_centered:
        raise ValueError("tile decompositions require the centered square")
    if k < 1:
        raise ValueError("k must be positive")
    if base.N is None:
        raise ValueError("digit set is not square; no tile structure")
    # level 1 holds once N is set: r > (2N - 1)(cos t + sin t) >= cos t + sin t
    for n in range(2, k + 1):
        if not check_Ck(base, n).holds:
            raise ValueError(f"refinement condition fails at level {n}")
    digits = [Quaternion.complex2(da, db) for da, db in snake_order(base.N)]
    # level by level, as component tuples summed the way Quaternion.__add__ sums
    centers = [Quaternion().components]
    for j in range(1, k):
        inv = base.xi.powi(-j)
        steps = [(inv * dg).components for dg in digits]
        centers = [(a + sa, b + sb, c + sc, d + sd)
                   for a, b, c, d in centers for sa, sb, sc, sd in steps]
    shrink, lim = base.xi.powi(-k), 0.5 + EPS_FLOOR
    corners = [(shrink * Quaternion.complex2(sx, sy)).components[:2]
               for sx in (-0.5, 0.5) for sy in (-0.5, 0.5)]
    xs, ys, _, _ = zip(*centers)
    if (max(map(abs, xs)) + max(abs(ca) for ca, _ in corners) > lim
            or max(map(abs, ys)) + max(abs(cb) for _, cb in corners) > lim):
        raise ValueError("tile corner escaped the domain; refinement not established")
    return [Quaternion(*ctr) for ctr in centers]


def F_threshold(r: float, alpha: float) -> float:
    """Beta threshold for the complex winning strategy at modulus r."""
    if not r > 1.0 or not 0.0 < alpha < 1.0:
        raise ValueError("need r > 1, alpha in (0, 1)")
    w = 2.0 * math.sqrt(2.0) * r
    if math.isinf(2.0 * w):  # divided through by w, nothing overflows
        u = 1.0 / w
        return ((1.0 + u) * alpha - u) / (alpha * ((u - 1.0) * alpha + (2.0 - u)))
    den = alpha * ((1.0 - w) * alpha + (2.0 * w - 1.0))
    if abs(den) <= EPS_CMP:
        raise ValueError("threshold denominator vanishes")
    return ((w + 1.0) * alpha - 1.0) / den


def find_n_complex(r: float, alpha: float, beta: float, rho: float, k: int
                   ) -> int | None:
    """Hold-phase length n for the complex winning strategy at tile depth k.

    When (2-alpha) beta >= 1 the gap term is nonpositive and n = 1 works as
    soon as sqrt(2)/r^(k-1) < rho (alpha beta)(1-alpha); otherwise n must fit
    between the two logarithmic bounds.  None if no integer fits.
    """
    margin = 10.0 * EPS_CMP
    ab = alpha * beta
    g = winning_gap(alpha, beta)
    reach_const = (1.0 - alpha) / (math.sqrt(2.0) * r)
    if (2.0 - alpha) * beta >= 1.0:
        if math.sqrt(2.0) / r ** (k - 1) < rho * ab * (1.0 - alpha) - margin:
            return 1
        return None
    log_ab_inv = math.log(1.0 / ab, r)
    lo = (math.log(rho, r) + math.log(g, r) + k) / log_ab_inv
    hi = (math.log(rho, r) + math.log(reach_const, r) + k) / log_ab_inv
    n = max(1, math.ceil(lo))
    if n < hi:
        return n
    return None
