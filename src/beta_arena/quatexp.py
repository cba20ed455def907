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
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .numeric import DEFAULT_TOL, DigitKernel, Quaternion, Tolerance, nudge_mode, quat_mul

Coords = tuple[int, int, int, int]


class LatticeDomain:
    """Integer span of a basis plus a half-open unit box in its coordinates.

    offsets[i] is the lower end of the i-th coordinate range [offsets[i],
    offsets[i] + 1).
    """

    def __init__(self, basis: Sequence[Quaternion], offsets: Sequence[float],
                 name: str = "custom"):
        if len(basis) != 4 or len(offsets) != 4:
            raise ValueError("need exactly four basis vectors and four offsets")
        self.basis = tuple(basis)
        self.offsets = tuple(float(o) for o in offsets)
        self.name = name
        self.B = np.array([v.components for v in basis], dtype=float).T
        det = np.linalg.det(self.B)
        if abs(det) < 1e-12:
            raise ValueError("basis is singular")
        self.Binv = np.linalg.inv(self.B)
        # Euclidean distance to the plane {coord_i = c} is |coord_i - c| / row_norm_i
        self.row_norms = np.linalg.norm(self.Binv, axis=1)

    def to_coords(self, z: Quaternion) -> np.ndarray:
        return self.Binv @ np.array(z.components)

    def point(self, coords: Sequence[float]) -> Quaternion:
        v = self.B @ np.array(coords, dtype=float)
        return Quaternion.from_components(v)

    def digit_map(self, q: Quaternion, tol: Tolerance = DEFAULT_TOL) -> DigitKernel:
        """The map z -> q z - d written in this lattice's coordinates."""
        A = self.Binv @ (abs(q) * isoclinic_matrix(q)) @ self.B
        return DigitKernel(A.tolist(), self.offsets, self.row_norms.tolist(), tol)

    def contains(self, z: Quaternion) -> bool:
        return self.box_contains(self.to_coords(z))

    def box_contains(self, t: Sequence[float]) -> bool:
        """Whether lattice coordinates t lie in the half-open unit box."""
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
        t = self.to_coords(w) - np.array(self.offsets)
        frac = t - np.floor(t)
        per_axis = np.minimum(frac, 1.0 - frac) / self.row_norms
        return float(per_axis.min())

    def face_margin(self, z: Quaternion) -> float:
        """Smallest Euclidean distance from z to a face plane of the domain box."""
        t = self.to_coords(z)
        lo = np.array(self.offsets)
        d_lo = (t - lo) / self.row_norms
        d_hi = (lo + 1.0 - t) / self.row_norms
        return float(min(d_lo.min(), d_hi.min()))

    def ball_inside(self, center: Quaternion, rho: float, slack: float = 0.0) -> bool:
        return self.face_margin(center) >= rho - slack


def q_expand(q: Quaternion, lattice: LatticeDomain, z: Quaternion, n: int,
             tol: Tolerance = DEFAULT_TOL, on_ambiguous: str = "error") -> list[Coords]:
    if not lattice.contains(z):
        raise ValueError("point outside the fundamental box")
    return lattice.digit_map(q, tol).expand(lattice.to_coords(z).tolist(), n,
                                            nudge_mode(on_ambiguous))


def isoclinic_matrix(q: Quaternion) -> np.ndarray:
    """Orthogonal matrix M with |q| M vec(x) = vec(q x) for all x."""
    n = abs(q)
    if not 0.0 < n < math.inf:
        raise ValueError("quaternion must be nonzero and finite")
    a, b, c, d = (t / n for t in q.components)
    return np.array([
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ])


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
    return LatticeDomain(basis, (-0.5,) * 4, name=f"symmetric:{eps:g}")


def zeta_lattice(zeta: Quaternion, eta: Quaternion, epsilon: float,
                 tol: Tolerance = DEFAULT_TOL) -> LatticeDomain:
    """Lattice spanned by 1, conj(zeta), eta, conj(zeta) eta with a shifted box.

    Requires a non-real zeta and a unit eta with zero real part, orthogonal
    to zeta in R^4.  The basis is taken with the conjugate axes negated
    (which spans the same lattice); in that frame the second and fourth
    coordinates of zeta * z reproduce the first and third of z, so every
    digit lies in Z + Z eta.
    """
    if abs(zeta.b) + abs(zeta.c) + abs(zeta.d) <= tol.eps_cmp:
        raise ValueError("zeta must not be real")
    if abs(eta.a) > tol.eps_cmp or abs(abs(eta) - 1.0) > tol.eps_cmp:
        raise ValueError("eta must be a unit quaternion with zero real part")
    dot = sum(x * y for x, y in zip(zeta.components, eta.components))
    if abs(dot) > tol.eps_cmp:
        raise ValueError("eta must be orthogonal to zeta")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    zc = zeta.conj()
    basis = (Quaternion(1, 0, 0, 0), -zc, eta, -quat_mul(zc, eta))
    return LatticeDomain(basis, (-epsilon,) * 4, name=f"zeta:{epsilon:g}")


# -- losing-strategy constants ----------------------------------------------


@dataclass(frozen=True)
class DomainConstants:
    """Geometry constants of a pointed domain: M = sup |z|, D = sup |xi - z|,
    and the master constant C_X used by the avoidance strategy."""

    xi: Quaternion
    rho: float
    M: float
    D: float
    C_X: float


def domain_constants(lattice: LatticeDomain, xi: Quaternion, rho: float,
                     tol: Tolerance = DEFAULT_TOL) -> DomainConstants:
    """Constants for a ball B(xi, rho) sitting inside the domain box.

    Both suprema are attained at box corners.  Requires |xi| > 2 rho and the
    closed ball inside the box (up to comparison slack).
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    corners = lattice.corners()
    M = max(abs(c) for c in corners)
    D = max(abs(xi - c) for c in corners)
    if abs(xi) <= 2.0 * rho + tol.eps_cmp:
        raise ValueError("need |xi| > 2 rho")
    if not lattice.ball_inside(xi, rho, slack=tol.eps_cmp):
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


@dataclass(frozen=True)
class LosingParameters:
    """Alpha range [alpha_lo, 1) on which the avoidance strategy is justified;
    beta is pinned to |q|^-n / alpha."""

    alpha_lo: float
    q_norm_n: float

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
