"""Ready-made game setups for the worked winning and losing examples.

Each builder assembles parameters, system, strategies and the claim the
finished game is supposed to satisfy, checking the relevant hypothesis
inequalities with an explicit margin.  Overridden parameters are accepted
even when they break the hypotheses (that failure mode is part of the CLI
contract); the builder records the violation in the setup notes and the
verification step renders the verdict.

A preset has two parts.  Its system part (the expansion system, the complex
target tiles, the quaternion lattice with Bob's avoidance play and its
powers of A) is a pure function of the preset's fixed geometry, so a
functools.cache keyed by value builds it once per process and every game
shares it.  The per-game part (parameters, the (n, k) or n search, notes,
claim and strategies) is built for each game; the shared objects carry no
game state, which lives in the scratch play keeps for each player of a
game.  The caches sit here and not in the constructors, which keep building
afresh on every call.  The complex and quaternion modules are imported only
by the builders that use them.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

from .game import Claim, GameParams, Strategy, StrategyError, play, verify_outcome
from .numeric import Quaternion, Record
from .realexp import RealBase, _zero_run_bound, find_nk_real
from .strategies import (alice_complex_winning, alice_quaternion_componentwise,
                         alice_random, alice_real_winning, bob_avoid_block,
                         bob_center_hold, bob_optimal_drift, bob_random)
from .systems import ComplexSystem, QuatSystem, RealSystem

if TYPE_CHECKING:
    from .quatexp import LatticeDomain

HYPOTHESIS_MARGIN = 1e-9


class GameSetup(Record):
    # claim: "contains" for the winning setups, "avoids" for the losing ones
    __slots__ = ("name", "params", "system", "alice", "bob", "claim", "max_rounds", "notes")

    def __init__(self, name: str, params: GameParams, system: object, alice: Strategy,
                 bob: Strategy, claim: Claim, max_rounds: int,
                 notes: list[str] | None = None):
        self.name = name
        self.params = params
        self.system = system
        self.alice = alice
        self.bob = bob
        self.claim = claim
        self.max_rounds = max_rounds
        self.notes = [] if notes is None else notes


# Bob strategies a winning preset can be played against, by name
BOBS = {"optimal-drift": bob_optimal_drift, "random": bob_random,
        "center-hold": bob_center_hold}


def _make_bob(kind: str) -> Strategy:
    if kind not in BOBS:
        raise ValueError(f"unknown bob strategy {kind!r}")
    return BOBS[kind]()


@functools.cache
def _real_base(b: float) -> RealBase:
    return RealBase(b)


@functools.cache
def _complex_system(r: float, theta: float, k: int):
    """The system of base r e^(i theta) and a tuple of the (x, y) centers of
    its level-k tiles whose k-th digit is zero."""
    from .complexexp import ComplexBase, Vk_squares
    base = ComplexBase(r, theta)
    targets = tuple((float(c.a), float(c.b)) for c in Vk_squares(base, k))
    return ComplexSystem(base), targets


@functools.cache
def _unit_box_system(b: float) -> QuatSystem:
    """Real radix b acting on the unit-box integer lattice."""
    from .quatexp import lipschitz
    return QuatSystem(Quaternion.real(b), lipschitz())


def _real_window(b: float, alpha: float, beta: float, rho: float,
                 upper_factor: float, window: str) -> tuple[RealBase, int, int, list[str]]:
    """The base b and the (n, k) of its digit-steering window, or the noted
    fallback (1, 3) when find_nk_real finds none."""
    base = _real_base(b)
    try:
        K = _zero_run_bound(base)
    except ValueError as exc:
        raise StrategyError(str(exc)) from None
    nk = find_nk_real(b, K, alpha, beta, rho, upper_factor=upper_factor)
    if nk is None:
        # keep k small so the strategy still has targets
        return base, 1, 3, [f"no (n, k) satisfies the {window}; using fallback (1, 3)"]
    return base, *nk, []


def real_winning_setup(b: float, alpha: float = 0.05, beta: float = 0.7,
                       rho: float = 0.4, x0: float = 0.5,
                       bob: str = "optimal-drift", name: str = "real-winning",
                       max_rounds: int = 64) -> GameSetup:
    """Steer the k-th digit of a real expansion to 0."""
    params = GameParams(alpha, beta, rho, 1, (x0,))
    base, n, k, notes = _real_window(b, alpha, beta, rho, 1.0, "strategy window")
    return GameSetup(
        name=name, params=params, system=RealSystem(base),
        alice=alice_real_winning(base, 0, n, k), bob=_make_bob(bob),
        claim=Claim("contains", (0,), position=k),
        max_rounds=max_rounds, notes=notes)


def complex_winning_setup(alpha: float = 0.6, beta: float = 0.75, rho: float = 2.0,
                          bob: str = "optimal-drift",
                          name: str = "complex-winning",
                          max_rounds: int = 64) -> GameSetup:
    """Steer the second digit of an expansion in base 4.5 e^(0.05 i) to zero,
    starting from the origin."""
    from .complexexp import find_n_complex
    r, k = 4.5, 2
    params = GameParams(alpha, beta, rho, 2, (0.0, 0.0))
    system, targets = _complex_system(r, 0.05, k)
    notes = []
    n = find_n_complex(r, alpha, beta, rho, k)
    if n is None:
        notes.append("no hold length n satisfies the strategy window; using n = 1")
        n = 1
    return GameSetup(
        name=name, params=params, system=system,
        alice=alice_complex_winning(targets, n), bob=_make_bob(bob),
        claim=Claim("contains", ((0, 0),), position=k),
        max_rounds=max_rounds, notes=notes)


def quat_componentwise_setup(alpha: float = 0.04, beta: float = 0.5, rho: float = 0.3,
                             bob: str = "optimal-drift",
                             name: str = "quat-componentwise",
                             max_rounds: int = 64) -> GameSetup:
    """Real radix 3 acting on the unit box: force digit (1, 0, 1, 0), digit
    a_i on coordinate i, from the box center.

    The threshold doubles the radix (2b) and the per-coordinate reach halves,
    hence the 0.5 window factor in the (n, k) search.
    """
    b, digits = 3.0, (1, 0, 1, 0)
    params = GameParams(alpha, beta, rho, 4, (0.5, 0.5, 0.5, 0.5))
    base, n, k, notes = _real_window(b, alpha, beta, rho, 0.5, "halved window")
    return GameSetup(
        name=name, params=params, system=_unit_box_system(b),
        alice=alice_quaternion_componentwise(base, digits, n, k),
        bob=_make_bob(bob),
        claim=Claim("contains", (digits,), position=k),
        max_rounds=max_rounds, notes=notes)


class _Avoidance(NamedTuple):
    """The system part of a losing preset: Bob's avoidance play for the
    block omega on the system, started from xi, and the avoidance constant."""
    system: QuatSystem
    xi: Quaternion
    constant: float
    omega: tuple[tuple[int, int, int, int], ...]
    bob: Strategy


def _avoidance(q: Quaternion, lattice: LatticeDomain, xi: Quaternion,
               constant: float, omega: tuple[tuple[int, int, int, int], ...]
               ) -> _Avoidance:
    system = QuatSystem(q, lattice)
    return _Avoidance(system, xi, constant, omega,
                      bob_avoid_block(system, xi.components, omega))


_ZERO_DIGIT = ((0, 0, 0, 0),)


def _losing_setup(name: str, av: _Avoidance, rho: float, alpha: float,
                  beta: float | None, max_rounds: int) -> GameSetup:
    n = len(av.omega)
    qn = av.system.radix_norm ** n
    if not 0.0 < alpha < 1.0:  # checked before beta = 1/(alpha |q|^n) divides by it
        raise ValueError("alpha must lie in (0, 1)")
    if beta is None:
        beta = 1.0 / (alpha * qn)  # pins alpha beta = |q|^-n
    notes = []
    alpha_min = max(av.constant, 1.0) / qn
    if alpha < alpha_min - HYPOTHESIS_MARGIN:
        notes.append(f"alpha {alpha:.6g} below the avoidance bound {alpha_min:.6g}")
    if abs(alpha * beta * qn - 1.0) > 1e-9:
        notes.append("alpha*beta is not |q|^-n; the pinning radii are off scale")
    return GameSetup(
        name=name, params=GameParams(alpha, beta, rho, 4, tuple(av.xi.components)),
        system=av.system, alice=alice_random(), bob=av.bob,
        claim=Claim("avoids", av.omega), max_rounds=max_rounds, notes=notes)


@functools.cache
def _lipschitz_avoidance() -> _Avoidance:
    from .quatexp import lipschitz
    return _avoidance(Quaternion(3.0, 3.0, 3.0, 3.0), lipschitz(),
                      Quaternion(0.5, 0.5, 0.5, 0.5), 5.0, _ZERO_DIGIT)


def lipschitz_losing_setup(alpha: float = 0.9, beta: float | None = None,
                           rho: float = 0.4,
                           name: str = "notwinning-lipschitz",
                           max_rounds: int = 64) -> GameSetup:
    """Avoid digit 0 on the unit-box integer lattice.

    Uses the sharpened constant 5 valid for this particular domain and
    center (the generic constant would be 10).
    """
    return _losing_setup(name, _lipschitz_avoidance(), rho, alpha, beta, max_rounds)


@functools.cache
def _hurwitz_avoidance(rho: float) -> _Avoidance:
    from .quatexp import domain_constants, hurwitz_box
    lattice = hurwitz_box()
    xi = Quaternion(0.5, 0.5, 0.5, 0.25)
    return _avoidance(Quaternion(0.0, 5.0, 0.0, 0.0), lattice, xi,
                      domain_constants(lattice, xi, rho).C_X, _ZERO_DIGIT)


def hurwitz_losing_setup(alpha: float = 0.93, beta: float | None = None,
                         rho: float = 0.25, name: str = "notwinning-hurwitz",
                         max_rounds: int = 64) -> GameSetup:
    """Avoid digit 0 on the box lattice with halved fourth axis."""
    return _losing_setup(name, _hurwitz_avoidance(rho), rho, alpha, beta, max_rounds)


@functools.cache
def _symmetric_avoidance() -> _Avoidance:
    from .quatexp import symmetric_constants, symmetric_domain
    xi, _, constant = symmetric_constants(0.25, 0.1, 0.0)
    return _avoidance(Quaternion(0.0, 0.0, 0.0, 10.0), symmetric_domain(0.25), xi,
                      constant, _ZERO_DIGIT)


def symmetric_losing_setup(alpha: float = 0.85, beta: float | None = None,
                           name: str = "notwinning-symmetric",
                           max_rounds: int = 64) -> GameSetup:
    """Avoid digit 0 on the origin-symmetric box [-1/4, 1/4)^4, where
    |xi| = 2 rho = 0.2 forces the modified constant."""
    from .quatexp import symmetric_constants
    _, rho, _ = symmetric_constants(0.25, 0.1, 0.0)
    return _losing_setup(name, _symmetric_avoidance(), rho, alpha, beta, max_rounds)


@functools.cache
def _zeta_avoidance(rho: float) -> _Avoidance:
    from .quatexp import domain_constants, zeta_lattice
    zeta = Quaternion(0.0, 6.0, 0.0, 0.0)
    lattice = zeta_lattice(zeta, Quaternion(0.0, 0.0, 1.0, 0.0), 0.25)
    xi = lattice.point((0.25, 0.25, 0.25, 0.25))
    # block is all zeros, so the block constant reduces to C_X
    return _avoidance(zeta, lattice, xi, domain_constants(lattice, xi, rho).C_X,
                      _ZERO_DIGIT * 2)


def zeta_losing_setup(alpha: float = 0.5, beta: float | None = None,
                      rho: float = 0.49, name: str = "notwinning-zeta",
                      max_rounds: int = 64) -> GameSetup:
    """Avoid the two-digit zero block on the conjugate-axes lattice.

    A single-digit window is out of reach here (the domain constant exceeds
    |zeta| for every admissible ball), so the avoided block has length two
    and alpha beta is pinned to |zeta|^-2.
    """
    return _losing_setup(name, _zeta_avoidance(rho), rho, alpha, beta, max_rounds)


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
# name -> the argument names its builder takes, the first local names of its code
_TAKES = {name: frozenset(c.co_varnames[:c.co_argcount + c.co_kwonlyargcount])
          for name, (builder, _) in PRESETS.items() for c in (builder.__code__,)}


def build_preset(name: str, **overrides) -> GameSetup:
    """The named preset with the given arguments replaced; None means keep.

    An argument the preset's builder does not take is refused by name.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
    builder, args = PRESETS[name]
    overrides = {k: v for k, v in overrides.items() if v is not None}
    for key in overrides:
        if key not in _TAKES[name]:
            raise ValueError(f"preset {name!r} does not take {key!r}")
    return builder(**{**args, **overrides, "name": name})


def run_setup(setup: GameSetup, seed: int = 0):
    """Play a setup to completion and verify its claim.

    Returns (trace, result).  A "contains" claim is verified up to the last
    digit of its block; an "avoids" claim two rounds short of the digits the
    pinning play resolved.
    """
    trace = play(setup.params, setup.alice, setup.bob,
                 max_rounds=setup.max_rounds, system=setup.system, seed=seed)
    claim = setup.claim
    L = len(claim.block)
    if claim.kind == "contains":
        depth = claim.position + L - 1
    else:
        depth = L * max(1, trace.rounds_played - 2)
    result = verify_outcome(trace, setup.system, claim, depth)
    return trace, result
