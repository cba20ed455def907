"""Expansions in a quaternion base over a lattice with a box fundamental domain.

A lattice is the integer span of four independent quaternions and the domain
is a half-open unit box in lattice coordinates, so the digit of a point is
read off by flooring its coordinates.  Left multiplication by the base is an
isoclinic rotation-dilation of R^4, which is what makes radius bookkeeping in
the game engine exact: |q z - q w| = |q| |z - w|.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

from .numeric import (EPS_CMP, DigitKernel, FrozenRecord, Quaternion, _image,
                      _power, nudge_mode, ordered_sum, quat_mul)

Coords = tuple[int, int, int, int]
Matrix = tuple[tuple[float, ...], ...]


def _mat_mul(X_times, Y: Matrix) -> Matrix:
    """X Y for 4x4 matrices, column by column through X_times, the map v -> X v."""
    return tuple(zip(*map(X_times, zip(*Y))))


class LatticeDomain:
    """Integer span of a basis plus a half-open unit box in its coordinates.

    offsets[i] is the lower end of the i-th coordinate range [offsets[i],
    offsets[i] + 1).  B (the basis vectors as columns) and Binv are float
    tuples of rows; Binv is the exact inverse of B rounded once per entry
    (numeric._power), so the basis changes of every stock lattice, whose B
    is diagonal, are one correctly rounded product per coordinate on any
    IEEE-754 machine.
    Binv_times and B_times are those basis changes, v -> Binv v and
    u -> B u on four floats, built once by the digit kernel's numeric._image.
    """

    def __init__(self, basis: Sequence[Quaternion], offsets: Sequence[float],
                 name: str = "custom"):
        if len(basis) != 4 or len(offsets) != 4:
            raise ValueError("need exactly four basis vectors and four offsets")
        self.basis = tuple(basis)
        self.offsets = tuple(float(o) for o in offsets)
        self.name = name
        self.B = tuple(zip(*(tuple(map(float, v.components)) for v in basis)))
        if not all(math.isfinite(x) for row in self.B for x in row):
            raise ValueError("basis must be finite")
        Binv = _power(self.B, -1)
        if Binv is None:
            raise ValueError("basis is singular")
        self.Binv = Binv
        self.Binv_times, self.B_times = _image(Binv), _image(self.B)
        # Euclidean distance to the plane {coord_i = c} is |coord_i - c| / row_norm_i
        self.row_norms = tuple(math.sqrt(ordered_sum(x * x for x in row))
                               for row in self.Binv)
        self._kernels: dict = {}  # digit_map's, by (q, abs(q))

    def to_coords(self, z: Quaternion) -> tuple[float, ...]:
        return self.Binv_times(map(float, z.components))

    def point(self, coords: Sequence[float]) -> Quaternion:
        return Quaternion(*self.B_times(map(float, coords)))

    def digit_map(self, q: Quaternion) -> DigitKernel:
        """The map z -> q z - d written in this lattice's coordinates, built
        on the first call for q and kept on this lattice, so q_expand and
        every QuatSystem on it share one kernel per q.

        The key is (q, abs(q)).  Quaternions equal by value and by norm give
        the same kernel: a -0.0 component changes only the sign of zero
        products, which each row of A, summed from +0.0, drops, and an int
        component divides by abs(q) as its float does.  The norm is in the
        key because an int component squares exactly where its float rounds,
        so above 2^26 an int q and its equal float q can differ in abs(q)."""
        n = abs(q)
        kernel = self._kernels.get((q, n))
        if kernel is None:
            scaled = tuple(tuple(n * m for m in row) for row in isoclinic_matrix(q))
            A = _mat_mul(_image(_mat_mul(self.Binv_times, scaled)), self.B)
            kernel = self._kernels[q, n] = DigitKernel(A, self.offsets, self.row_norms)
        return kernel

    def contains(self, z: Quaternion) -> bool:
        return self.box_contains(self.to_coords(z))

    def box_contains(self, t: Sequence[float]) -> bool:
        """Whether lattice coordinates t lie in the half-open unit box (the
        rule QuatSystem.box restates for systems.max_step_inside)."""
        for ti, lo in zip(t, self.offsets):
            if not (lo <= ti < lo + 1.0):
                return False
        return True

    def corners(self) -> list[Quaternion]:
        out = []
        for bits in itertools.product((0.0, 1.0), repeat=4):
            coords = [lo + b for lo, b in zip(self.offsets, bits)]
            out.append(self.point(coords))
        return out

    def cell_margin(self, w: Quaternion) -> float:
        """Euclidean distance from w to the boundary of its digit cell."""
        margins = []
        for c, lo, r in zip(self.to_coords(w), self.offsets, self.row_norms):
            t = c - lo
            frac = t - math.floor(t)
            margins.append(min(frac, 1.0 - frac) / r)
        return min(margins)

    def ball_inside(self, center: Quaternion, rho: float) -> bool:
        """Whether the closed ball B(center, rho) lies in the box, up to EPS_CMP:
        the smallest Euclidean distance from center to a face plane is rho or more."""
        return min(min(t - lo, lo + 1.0 - t) / r for t, lo, r in zip(
            self.to_coords(center), self.offsets, self.row_norms)) >= rho - EPS_CMP


def q_expand(q: Quaternion, lattice: LatticeDomain, z: Quaternion, n: int,
             on_ambiguous: str = "error") -> list[Coords]:
    """First n digits of z in base q on the lattice, through the lattice's one
    kernel for q (digit_map), which the first call builds."""
    if not lattice.contains(z):
        raise ValueError("point outside the fundamental box")
    return lattice.digit_map(q).expand(lattice.to_coords(z), n,
                                       nudge_mode(on_ambiguous))


def isoclinic_matrix(q: Quaternion) -> Matrix:
    """Orthogonal matrix M with |q| M vec(x) = vec(q x) for all x, as a
    tuple of rows."""
    n = abs(q)
    if not 0.0 < n < math.inf:
        raise ValueError("quaternion must be nonzero and finite")
    a, b, c, d = (t / n for t in q.components)
    return (
        (a, -b, -c, -d),
        (b, a, -d, c),
        (c, d, a, -b),
        (d, -c, b, a),
    )


# -- stock lattices ----------------------------------------------------------


def lipschitz(centered: bool = False) -> LatticeDomain:
    """Integer quaternions with the box [0,1)^4, or [-1/2,1/2)^4 when centered."""
    basis = (Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0),
             Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1))
    lo = -0.5 if centered else 0.0
    return LatticeDomain(basis, (lo,) * 4, name="lipschitz-centered" if centered else "lipschitz")


def hurwitz_box() -> LatticeDomain:
    """The box lattice with halved last axis: span(1, i, j, k/2) on [0,1)^3 x [0,1/2)."""
    basis = (Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0),
             Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 0.5))
    return LatticeDomain(basis, (0.0,) * 4, name="hurwitz-box")


def symmetric_domain(eps: float) -> LatticeDomain:
    """Scaled lattice 2 eps Z^4 with the origin-symmetric box [-eps, eps)^4."""
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    s = 2.0 * eps
    basis = (Quaternion(s, 0, 0, 0), Quaternion(0, s, 0, 0),
             Quaternion(0, 0, s, 0), Quaternion(0, 0, 0, s))
    return LatticeDomain(basis, (-0.5,) * 4, name=f"symmetric:{eps!r}")


def zeta_lattice(zeta: Quaternion, eta: Quaternion, epsilon: float) -> LatticeDomain:
    """Lattice spanned by 1, conj(zeta), eta, conj(zeta) eta with a shifted box.

    Requires a non-real zeta and a unit eta with zero real part, orthogonal
    to zeta in R^4.  The basis is taken with the conjugate axes negated
    (which spans the same lattice); in that frame the second and fourth
    coordinates of zeta * z reproduce the first and third of z, so every
    digit lies in Z + Z eta.  Named zeta:EPS, the spelling stock_lattice
    parses, for zeta = 6i and eta = j only; custom otherwise.
    """
    if abs(zeta.b) + abs(zeta.c) + abs(zeta.d) <= EPS_CMP:
        raise ValueError("zeta must not be real")
    if abs(eta.a) > EPS_CMP or abs(abs(eta) - 1.0) > EPS_CMP:
        raise ValueError("eta must be a unit quaternion with zero real part")
    dot = ordered_sum(x * y for x, y in zip(zeta.components, eta.components))
    if abs(dot) > EPS_CMP:
        raise ValueError("eta must be orthogonal to zeta")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    zc = zeta.conj()
    basis = (Quaternion(1, 0, 0, 0), -zc, eta, -quat_mul(zc, eta))
    stock = zeta.components == (0.0, 6.0, 0.0, 0.0) and eta.components == (0.0, 0.0, 1.0, 0.0)
    return LatticeDomain(basis, (-epsilon,) * 4, name=f"zeta:{epsilon!r}" if stock else "custom")


def stock_lattice(name: str) -> LatticeDomain:
    """The stock lattice spelled name, the inverse of LatticeDomain.name and
    the spelling of `expand --lattice`: lipschitz, lipschitz-centered,
    hurwitz-box, symmetric:EPS or zeta:EPS (zeta = 6i, eta = j), EPS 0.25
    when bare."""
    if name in ("lipschitz", "lipschitz-centered"):
        return lipschitz(centered=name == "lipschitz-centered")
    if name == "hurwitz-box":
        return hurwitz_box()
    kind, colon, eps = name.partition(":")
    if kind in ("symmetric", "zeta"):
        try:
            eps = float(eps) if colon else 0.25
        except ValueError:
            raise ValueError(f"--lattice {kind}:EPS needs a number EPS, got {name!r}") from None
        if kind == "symmetric":
            return symmetric_domain(eps)
        return zeta_lattice(Quaternion(0.0, 6.0, 0.0, 0.0), Quaternion(0.0, 0.0, 1.0, 0.0), eps)
    raise ValueError(f"unknown lattice {name!r}")


# -- losing-strategy constants ----------------------------------------------


class DomainConstants(FrozenRecord):
    """Geometry constants of a pointed domain: M = sup |z|, D = sup |xi - z|,
    and the master constant C_X used by the avoidance strategy."""

    __slots__ = ("xi", "rho", "M", "D", "C_X")

    def __init__(self, xi: Quaternion, rho: float, M: float, D: float, C_X: float):
        set_xi, set_rho, set_M, set_D, set_C_X = self._setters
        set_xi(self, xi)
        set_rho(self, rho)
        set_M(self, M)
        set_D(self, D)
        set_C_X(self, C_X)


def domain_constants(lattice: LatticeDomain, xi: Quaternion, rho: float) -> DomainConstants:
    """Constants for a ball B(xi, rho) sitting inside the domain box.

    Both suprema are attained at box corners.  Requires |xi| > 2 rho and the
    closed ball inside the box (up to comparison slack).
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    corners = lattice.corners()
    M = max(abs(c) for c in corners)
    D = max(abs(xi - c) for c in corners)
    if abs(xi) <= 2.0 * rho + EPS_CMP:
        raise ValueError("need |xi| > 2 rho")
    if not lattice.ball_inside(xi, rho):
        raise ValueError("ball B(xi, rho) is not inside the domain")
    denom = abs(xi) - 2.0 * rho
    C_X = max(1.0 + D / rho, M / denom, 1.0 / denom)
    return DomainConstants(xi, rho, M, D, C_X)


class COmegaResult(NamedTuple):
    value: float
    applicable: bool


def C_Omega(q: Quaternion, omega: Sequence[Quaternion], dc: DomainConstants) -> COmegaResult:
    """Avoidance constant C_X (1 + |sum q^(n-j) d_j|) for a digit block,
    and whether it clears |q|^n."""
    n = len(omega)
    if n == 0:
        raise ValueError("block must be nonempty")
    acc = Quaternion()
    for j, d in enumerate(omega, start=1):
        acc = acc + quat_mul(q.powi(n - j), d)
    value = dc.C_X * (1.0 + abs(acc))
    return COmegaResult(value, value < abs(q) ** n)


def avoid_constant(dc: DomainConstants, d: Quaternion) -> float:
    """Sharper single-digit constant max(1 + D/rho, (M + |d|) / (|xi| - 2 rho))."""
    denom = abs(dc.xi) - 2.0 * dc.rho
    return max(1.0 + dc.D / dc.rho, (dc.M + abs(d)) / denom)


class LosingParameters(FrozenRecord):
    """Alpha range [alpha_lo, 1) on which the avoidance strategy is justified;
    beta is pinned to |q|^-n / alpha."""

    __slots__ = ("alpha_lo", "q_norm_n")

    def __init__(self, alpha_lo: float, q_norm_n: float):
        set_alpha_lo, set_q_norm_n = self._setters
        set_alpha_lo(self, alpha_lo)
        set_q_norm_n(self, q_norm_n)

    def beta(self, alpha: float) -> float:
        if not self.alpha_lo <= alpha < 1.0:
            raise ValueError("alpha outside the admissible range")
        return 1.0 / (self.q_norm_n * alpha)


def losing_parameters(q: Quaternion, omega: Sequence[Quaternion],
                      dc: DomainConstants, constant: float | None = None) -> LosingParameters:
    """Parameter range certifying that points containing the block are avoidable.

    constant overrides the generic C_Omega value (e.g. with the sharper
    single-digit constant); errors out when no alpha < 1 works.
    """
    n = len(omega)
    qn = abs(q) ** n
    C = C_Omega(q, omega, dc).value if constant is None else constant
    alpha_lo = max(C, 1.0 + 1e-12) / qn
    if alpha_lo >= 1.0:
        raise ValueError(f"constant {C:.6g} does not clear |q|^{n} = {qn:.6g}")
    return LosingParameters(alpha_lo, qn)


def rot_balanced_rho(d_abs: float) -> float:
    """Radius balancing the two single-digit constants on the unit box with
    central xi: the positive root of 2 rho^2 + (3 + |d|) rho - 1 = 0."""
    if d_abs < 0.0:
        raise ValueError("digit magnitude must be nonnegative")
    return (math.sqrt(d_abs * d_abs + 6.0 * d_abs + 17.0) - d_abs - 3.0) / 4.0


def rot_constants(d: Quaternion) -> tuple[DomainConstants, float]:
    """Balanced constants for avoiding one digit on the unit-box integer lattice.

    Returns the domain constants at the balanced radius and the avoidance
    constant 1 + 1/rho.
    """
    L = lipschitz()
    xi = Quaternion(0.5, 0.5, 0.5, 0.5)
    rho = rot_balanced_rho(abs(d))
    dc = domain_constants(L, xi, rho)
    return dc, 1.0 + 1.0 / rho


def symmetric_constants(eps: float, tau: float, d_abs: float) -> tuple[Quaternion, float, float]:
    """Center, radius and avoidance constant for the origin-symmetric box.

    Here |xi| = 2 rho exactly, outside the generic constants' reach, and the
    constant becomes max(3 + 2 eps/tau, (2 eps + |d|) / (2 tau)).
    """
    if not 0.0 < tau < eps / 2.0:
        raise ValueError("need 0 < tau < eps / 2")
    xi = Quaternion(tau, tau, tau, tau)
    C = max(3.0 + 2.0 * eps / tau, (2.0 * eps + d_abs) / (2.0 * tau))
    return xi, tau, C
