"""Ready-made game setups for the worked winning and losing examples.

Each builder assembles parameters, system, strategies and the claim the
finished game is supposed to satisfy, checking the relevant hypothesis
inequalities with an explicit margin.  Overridden parameters are accepted
even when they break the hypotheses (that failure mode is part of the CLI
contract); the builder records the violation in the setup notes and the
verification step renders the verdict.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .complexexp import ComplexBase
from .game import (Claim, GameParams, Strategy, StrategyError,
                   alice_complex_winning, alice_quaternion_componentwise,
                   alice_random, alice_real_winning, bob_avoid_block,
                   bob_center_hold, bob_optimal_drift, bob_random,
                   find_n_complex, find_nk_real, play, verify_outcome)
from .numeric import Quaternion
from .quatexp import (LatticeDomain, domain_constants, hurwitz_box, lipschitz,
                      symmetric_domain, symmetric_constants, zeta_lattice)
from .realexp import RealBase
from .systems import ComplexSystem, QuatSystem, RealSystem

HYPOTHESIS_MARGIN = 1e-9


@dataclass
class GameSetup:
    name: str
    kind: str  # "winning" | "losing"
    params: GameParams
    system: object
    alice: Strategy
    bob: Strategy
    claim: Claim
    verify_depth: int | None  # None: derive from the played trace
    max_rounds: int
    notes: list[str] = field(default_factory=list)


# Bob strategies a winning preset can be played against, by name
BOBS = {"optimal-drift": bob_optimal_drift, "random": bob_random,
        "center-hold": bob_center_hold}


def _make_bob(kind: str) -> Strategy:
    if kind not in BOBS:
        raise ValueError(f"unknown bob strategy {kind!r}")
    return BOBS[kind]()


def _real_window(b: float, alpha: float, beta: float, rho: float,
                 upper_factor: float, window: str) -> tuple[RealBase, int, int, list[str]]:
    """The base b and the (n, k) of its digit-steering window, or the noted
    fallback (1, 3) when find_nk_real finds none."""
    base = RealBase(b)
    if not base.iK_determined:
        # the zero-run bound K backs the threshold; an observed lower bound
        # would silently overstate the strategy's reach
        raise StrategyError(
            f"base {b!r}: tail expansion not resolved at depth {base.depth}")
    nk = find_nk_real(b, base.K_b, alpha, beta, rho, upper_factor=upper_factor)
    if nk is None:
        # keep k small so the strategy still has targets
        return base, 1, 3, [f"no (n, k) satisfies the {window}; using fallback (1, 3)"]
    return base, *nk, []


def real_winning_setup(b: float, d: int = 0, alpha: float = 0.05,
                       beta: float = 0.7, rho: float = 0.4, x0: float = 0.5,
                       bob: str = "optimal-drift", name: str = "real-winning",
                       max_rounds: int = 64) -> GameSetup:
    """Steer the k-th digit of a real expansion to d."""
    params = GameParams(alpha, beta, rho, 1, (x0,))
    base, n, k, notes = _real_window(b, alpha, beta, rho, 1.0, "strategy window")
    return GameSetup(
        name=name, kind="winning", params=params, system=RealSystem(base),
        alice=alice_real_winning(base, d, n, k), bob=_make_bob(bob),
        claim=Claim("contains", (d,), position=k), verify_depth=k,
        max_rounds=max_rounds, notes=notes)


def complex_winning_setup(r: float = 4.5, theta: float = 0.05, k: int = 2,
                          alpha: float = 0.6, beta: float = 0.75,
                          rho: float = 2.0, x0: tuple[float, float] = (0.0, 0.0),
                          bob: str = "optimal-drift",
                          name: str = "complex-winning",
                          max_rounds: int = 64) -> GameSetup:
    """Steer the k-th digit of a complex expansion to zero."""
    params = GameParams(alpha, beta, rho, 2, tuple(x0))
    base = ComplexBase(r, theta)
    notes = []
    n = find_n_complex(r, alpha, beta, rho, k)
    if n is None:
        notes.append("no hold length n satisfies the strategy window; using n = 1")
        n = 1
    return GameSetup(
        name=name, kind="winning", params=params, system=ComplexSystem(base),
        alice=alice_complex_winning(base, k, n), bob=_make_bob(bob),
        claim=Claim("contains", ((0, 0),), position=k), verify_depth=k,
        max_rounds=max_rounds, notes=notes)


def quat_componentwise_setup(b: float = 3.0,
                             digits: tuple[int, int, int, int] = (1, 0, 1, 0),
                             alpha: float = 0.04, beta: float = 0.5,
                             rho: float = 0.3,
                             x0: tuple = (0.5, 0.5, 0.5, 0.5),
                             bob: str = "optimal-drift",
                             name: str = "quat-componentwise",
                             max_rounds: int = 64) -> GameSetup:
    """Real radix acting on the unit box: force digit a_i on coordinate i.

    The threshold doubles the radix (2b) and the per-coordinate reach halves,
    hence the 0.5 window factor in the (n, k) search.
    """
    params = GameParams(alpha, beta, rho, 4, tuple(x0))
    base, n, k, notes = _real_window(b, alpha, beta, rho, 0.5, "halved window")
    system = QuatSystem(Quaternion.real(b), lipschitz())
    return GameSetup(
        name=name, kind="winning", params=params, system=system,
        alice=alice_quaternion_componentwise(base, digits, n, k),
        bob=_make_bob(bob),
        claim=Claim("contains", (tuple(digits),), position=k), verify_depth=k,
        max_rounds=max_rounds, notes=notes)


def _losing_setup(name: str, q: Quaternion, lattice: LatticeDomain,
                  xi: Quaternion, rho: float, constant: float,
                  omega: tuple[tuple[int, int, int, int], ...],
                  alpha: float, beta: float | None,
                  max_rounds: int) -> GameSetup:
    n = len(omega)
    qn = abs(q) ** n
    if not 0.0 < alpha < 1.0:  # checked before beta = 1/(alpha |q|^n) divides by it
        raise ValueError("alpha must lie in (0, 1)")
    if beta is None:
        beta = 1.0 / (alpha * qn)  # pins alpha beta = |q|^-n
    notes = []
    alpha_min = max(constant, 1.0) / qn
    if alpha < alpha_min - HYPOTHESIS_MARGIN:
        notes.append(f"alpha {alpha:.6g} below the avoidance bound {alpha_min:.6g}")
    if abs(alpha * beta * qn - 1.0) > 1e-9:
        notes.append("alpha*beta is not |q|^-n; the pinning radii are off scale")
    params = GameParams(alpha, beta, rho, 4, tuple(xi.components))
    system = QuatSystem(q, lattice)
    return GameSetup(
        name=name, kind="losing", params=params, system=system,
        alice=alice_random(),
        bob=bob_avoid_block(system, xi.components, omega),
        claim=Claim("avoids", omega), verify_depth=None,
        max_rounds=max_rounds, notes=notes)


def lipschitz_losing_setup(alpha: float = 0.9, beta: float | None = None,
                           rho: float = 0.4,
                           name: str = "notwinning-lipschitz",
                           max_rounds: int = 64) -> GameSetup:
    """Avoid digit 0 on the unit-box integer lattice.

    Uses the sharpened constant 5 valid for this particular domain and
    center (the generic constant would be 10).
    """
    q = Quaternion(3.0, 3.0, 3.0, 3.0)
    xi = Quaternion(0.5, 0.5, 0.5, 0.5)
    return _losing_setup(name, q, lipschitz(), xi, rho, 5.0,
                         ((0, 0, 0, 0),), alpha, beta, max_rounds)


def hurwitz_losing_setup(alpha: float = 0.93, beta: float | None = None,
                         rho: float = 0.25, name: str = "notwinning-hurwitz",
                         max_rounds: int = 64) -> GameSetup:
    """Avoid digit 0 on the box lattice with halved fourth axis."""
    q = Quaternion(0.0, 5.0, 0.0, 0.0)
    lattice = hurwitz_box()
    xi = Quaternion(0.5, 0.5, 0.5, 0.25)
    dc = domain_constants(lattice, xi, rho)
    return _losing_setup(name, q, lattice, xi, rho, dc.C_X,
                         ((0, 0, 0, 0),), alpha, beta, max_rounds)


def symmetric_losing_setup(alpha: float = 0.85, beta: float | None = None,
                           eps: float = 0.25, tau: float = 0.1,
                           name: str = "notwinning-symmetric",
                           max_rounds: int = 64) -> GameSetup:
    """Avoid digit 0 on the origin-symmetric box, where |xi| = 2 rho forces
    the modified constant."""
    q = Quaternion(0.0, 0.0, 0.0, 10.0)
    lattice = symmetric_domain(eps)
    xi, rho, constant = symmetric_constants(eps, tau, 0.0)
    return _losing_setup(name, q, lattice, xi, rho, constant,
                         ((0, 0, 0, 0),), alpha, beta, max_rounds)


def zeta_losing_setup(alpha: float = 0.5, beta: float | None = None,
                      rho: float = 0.49, name: str = "notwinning-zeta",
                      max_rounds: int = 64) -> GameSetup:
    """Avoid the two-digit zero block on the conjugate-axes lattice.

    A single-digit window is out of reach here (the domain constant exceeds
    |zeta| for every admissible ball), so the avoided block has length two
    and alpha beta is pinned to |zeta|^-2.
    """
    zeta = Quaternion(0.0, 6.0, 0.0, 0.0)
    eta = Quaternion(0.0, 0.0, 1.0, 0.0)
    lattice = zeta_lattice(zeta, eta, 0.25)
    xi = lattice.point((0.25, 0.25, 0.25, 0.25))
    dc = domain_constants(lattice, xi, rho)
    omega = ((0, 0, 0, 0), (0, 0, 0, 0))
    # block is all zeros, so the block constant reduces to C_X
    return _losing_setup(name, zeta, lattice, xi, rho, dc.C_X,
                         omega, alpha, beta, max_rounds)


# name -> (builder, the arguments that make the preset); overrides replace them
PRESETS = {
    "dwinning-golden": (real_winning_setup, {"b": (1.0 + math.sqrt(5.0)) / 2.0}),
    "dwinning-silver": (real_winning_setup,
                        {"b": 1.0 + math.sqrt(2.0), "beta": 0.6, "x0": 0.3}),
    "cwinning-nine-halves": (complex_winning_setup, {}),
    "qwinning-componentwise": (quat_componentwise_setup, {}),
    "notwinning-lipschitz": (lipschitz_losing_setup, {}),
    "notwinning-hurwitz": (hurwitz_losing_setup, {}),
    "notwinning-symmetric": (symmetric_losing_setup, {}),
    "notwinning-zeta": (zeta_losing_setup, {}),
}


def build_preset(name: str, **overrides) -> GameSetup:
    """The named preset with the given arguments replaced; None means keep.

    An argument the preset's builder does not take is refused by name.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
    builder, args = PRESETS[name]
    overrides = {k: v for k, v in overrides.items() if v is not None}
    takes = inspect.signature(builder).parameters
    for key in overrides:
        if key not in takes:
            raise ValueError(f"preset {name!r} does not take {key!r}")
    return builder(**{**args, **overrides, "name": name})


def run_setup(setup: GameSetup, seed: int = 0):
    """Play a setup to completion and verify its claim.

    Returns (trace, result).  The verification depth defaults to the claim
    block placement for winning setups and to two rounds short of the digits
    the pinning play resolved for losing ones.
    """
    trace = play(setup.params, setup.alice, setup.bob,
                 max_rounds=setup.max_rounds, system=setup.system, seed=seed)
    L = len(setup.claim.block)
    if setup.verify_depth is not None:
        depth = setup.verify_depth
    else:
        depth = L * max(1, trace.rounds_played - 2)
    result = verify_outcome(trace, setup.system, setup.claim, depth)
    return trace, result
