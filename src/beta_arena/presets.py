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

PRESETS maps each name to its builder, its arguments and the options a
caller may override.  One builder, losing_setup, plays the four rows of the
table LOSING.  Their avoidance constant C is C_Omega of the zero block over
domain_constants (hurwitz, zeta; cached per rho) or symmetric_constants
(where |xi| = 2 rho); lipschitz states its sharpened 5.0.  Alpha below
max(C, 1)/|q|^n is noted, not refused.
"""

from __future__ import annotations

import functools

from .game import Claim, GameParams, Strategy, StrategyError, play, verify_outcome
from .numeric import Quaternion, Record, metallic_mean
from .realexp import RealBase, _zero_run_bound, find_nk_real
from .strategies import (alice_complex_winning, alice_quaternion_componentwise,
                         alice_random, alice_real_winning, bob_avoid_block,
                         bob_center_hold, bob_optimal_drift, bob_random)
from .systems import ComplexSystem, QuatSystem, RealSystem

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
    from .quatexp import stock_lattice
    return QuatSystem(Quaternion.real(b), stock_lattice("lipschitz"))


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


# lipschitz's sharpened avoidance constant for the unit box around (1/2, ...);
# domain_constants gives 10 at rho = 0.4, and nothing in quatexp derives 5 yet
LIPSCHITZ_CONSTANT = 5.0

# name -> (radix q, stock_lattice name, Bob's first center xi, length n of the
# avoided zero block, the avoidance constant when it is not C_Omega's); no xi
# means symmetric_constants gives xi, rho and the constant
LOSING = {
    "notwinning-lipschitz": (Quaternion(3.0, 3.0, 3.0, 3.0), "lipschitz",
                             Quaternion(0.5, 0.5, 0.5, 0.5), 1, LIPSCHITZ_CONSTANT),
    "notwinning-hurwitz": (Quaternion(0.0, 5.0, 0.0, 0.0), "hurwitz-box",
                           Quaternion(0.5, 0.5, 0.5, 0.25), 1, None),
    "notwinning-symmetric": (Quaternion(0.0, 0.0, 0.0, 10.0), "symmetric:0.25", None, 1, None),
    # xi is the lattice point (1/4, 1/4, 1/4, 1/4); the domain constant exceeds
    # |zeta| for every admissible ball, so a one-digit block is out of reach
    "notwinning-zeta": (Quaternion(0.0, 6.0, 0.0, 0.0), "zeta:0.25",
                        Quaternion(0.25, 1.5, 0.25, 1.5), 2, None),
}


@functools.cache
def _losing_system(name: str, rho: float | None):
    """A losing preset's system, Bob's avoidance play, xi, its fixed radius
    (else rho) and its avoidance constant; rho is None where C ignores it."""
    from .quatexp import C_Omega, domain_constants, stock_lattice, symmetric_constants
    q, lattice, xi, n, constant = LOSING[name]
    lattice = stock_lattice(lattice)
    if xi is None:  # |xi| = 2 rho, outside the generic constants' reach
        xi, rho, constant = symmetric_constants(0.25, 0.1, 0.0)
    elif constant is None:
        constant = C_Omega(q, (Quaternion(),) * n, domain_constants(lattice, xi, rho)).value
    system = QuatSystem(q, lattice)
    return system, bob_avoid_block(system, xi.components, ((0, 0, 0, 0),) * n), xi, rho, constant


def losing_setup(name: str, alpha: float, beta: float | None = None,
                 rho: float | None = None, max_rounds: int = 64) -> GameSetup:
    """Bob avoids the zero block of the losing preset name at radius rho (the
    symmetric preset fixes its own); beta defaults to 1/(alpha |q|^n)."""
    *_, n, stated = LOSING[name]
    system, bob, xi, fixed_rho, constant = _losing_system(name, rho if stated is None else None)
    qn = system.radix_norm ** n
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
    rho = rho if fixed_rho is None else fixed_rho
    return GameSetup(
        name=name, params=GameParams(alpha, beta, rho, 4, tuple(xi.components)),
        system=system, alice=alice_random(), bob=bob,
        claim=Claim("avoids", ((0, 0, 0, 0),) * n), max_rounds=max_rounds, notes=notes)


_WINNING_OPTIONS = frozenset({"alpha", "beta", "rho", "bob", "max_rounds"})
_REAL_OPTIONS = _WINNING_OPTIONS | {"b", "x0"}
_LOSING_OPTIONS = frozenset({"alpha", "beta", "rho", "max_rounds"})

# name -> (builder, the arguments that make the preset, the options a caller
# may override); an override replaces the argument of its name
PRESETS = {
    "dwinning-golden": (real_winning_setup, {"b": metallic_mean(1)}, _REAL_OPTIONS),
    "dwinning-silver": (real_winning_setup, {"b": metallic_mean(2), "beta": 0.6, "x0": 0.3},
                        _REAL_OPTIONS),
    "cwinning-nine-halves": (complex_winning_setup, {}, _WINNING_OPTIONS),
    "qwinning-componentwise": (quat_componentwise_setup, {}, _WINNING_OPTIONS),
    "notwinning-lipschitz": (losing_setup, {"alpha": 0.9, "rho": 0.4}, _LOSING_OPTIONS),
    "notwinning-hurwitz": (losing_setup, {"alpha": 0.93, "rho": 0.25}, _LOSING_OPTIONS),
    # its radius comes from symmetric_constants
    "notwinning-symmetric": (losing_setup, {"alpha": 0.85}, _LOSING_OPTIONS - {"rho"}),
    "notwinning-zeta": (losing_setup, {"alpha": 0.5, "rho": 0.49}, _LOSING_OPTIONS),
}


def build_preset(name: str, **overrides) -> GameSetup:
    """The named preset with the given options replaced, None keeping one; an
    option the preset does not take is refused by name."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
    builder, args, options = PRESETS[name]
    overrides = {k: v for k, v in overrides.items() if v is not None}
    for key in overrides:
        if key not in options:
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
