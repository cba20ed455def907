"""Stock strategies for the game in game.py: callables GameState -> center.

A strategy reads the last ball (s.ball), how far it may move from its
center (s.reach), s.round_no and its own s.scratch.  The generic ones hold
Alice's center, drift from it along the first axis or draw at random.  The
winning ones hold, lock the target a strategy picks for Bob's center (the
real ones one coordinate at a time), then pull toward it; the losing one
(Bob's) reads the digits of Alice's center through the digit kernel and
recenters on the avoided-block-free cylinder shifted by xi.  Lengths are
math.hypot's and math.dist's, and every move spends at most s.reach, which
play has already made exact.  Draws come from s.rng, a random.Random, and
the avoidance play's powers of A are exact powers rounded once, grown by
one integer product per step (numeric._powers).

The avoidance play memoises, through functools.cache as it does its table
of powers of A, the product A^-j d for each digit d pinned at position j
and A^-depth xi for each depth, which recur from game to game.  Each entry
is the expression the play would evaluate in its place, so it has the same
bits, and it is a pure function of its key, so two threads that race on a
key store equal values.  The memo grows with the distinct (position,
digit) pairs the games on one system meet: 32 to 180 entries per system
after a 20-s run of perfbench's sweep.
"""

from __future__ import annotations

import math
import operator
from functools import cache, partial
from typing import Callable, Sequence

from .game import GameState, Strategy, StrategyError, Vector
from .numeric import _image, _powers
from .realexp import RealBase
from .systems import ComplexSystem, QuatSystem, max_step_inside


# -- generic strategies --------------------------------------------------------


def _ball_sample(rng, dim: int) -> list[float]:
    """A uniform point of the open unit ball: the first point drawn
    uniformly from the cube [-1, 1)^dim, each coordinate 2 rng.random() - 1
    (exact), whose squares, added left to right from +0.0, sum below 1."""
    random = rng.random
    while True:
        v = [2.0 * random() - 1.0 for _ in range(dim)]
        total = 0.0
        for x in v:
            total += x * x
        if total < 1.0:
            return v


def bob_center_hold() -> Strategy:
    return lambda s: s.ball.center


def alice_random() -> Strategy:
    """A uniform point within reach of the last ball's center that stays in
    the domain, for either player; the center itself after 256 draws
    outside it."""
    def f(s: GameState) -> Vector:
        center, reach = s.ball.center, s.reach
        for _ in range(256):
            y = tuple(c + reach * u for c, u in zip(center, _ball_sample(s.rng, s.params.dimension)))
            if s.system.contains(y):
                return y
        return center
    return f


bob_random = alice_random


def bob_optimal_drift() -> Strategy:
    """Move maximally away from Alice's center along the first axis,
    clipped at the domain's boundary."""
    def f(s: GameState) -> Vector:
        y = s.ball.center
        v = (1.0,) + (0.0,) * (s.params.dimension - 1)
        t = max_step_inside(s.system, y, s.reach)
        return tuple(a + t * b for a, b in zip(y, v))
    return f


# -- winning strategies (Alice) ------------------------------------------------


def _pull_toward(x: Vector, target: Vector, budget: float) -> Vector:
    delta = [t - c for t, c in zip(target, x)]
    dist = math.hypot(*delta)
    if dist <= budget or dist == 0.0:
        return target
    scale = budget / dist
    return tuple(c + e * scale for c, e in zip(x, delta))


def _lock_and_pull(n: int, nearest: Callable[[Vector], Vector],
                   what: str) -> Strategy:
    """Shared winning-play skeleton: hold n rounds, lock the target
    nearest(x) picks for Bob's center x, then pull toward it with the full
    legal budget every round."""
    def f(s: GameState) -> Vector:
        x = s.ball.center
        if s.round_no <= n:
            return x
        if "target" not in s.scratch:
            target = nearest(x)
            dist = math.dist(target, x)
            if dist > s.reach * (1.0 + 1e-9):
                raise StrategyError(
                    f"{what} at {dist:.3e} exceeds the legal reach {s.reach:.3e}")
            s.scratch["target"] = target
        return _pull_toward(x, s.scratch["target"], s.reach)
    return f


def _lock_full(base: RealBase, digits: Sequence[int], n: int, k: int,
               what: str) -> Strategy:
    """The real winning play on each coordinate: lock the center of the
    full-length level-k cylinder with k-th digit digits[j] nearest to
    coordinate j of Bob's center."""
    for d in digits:
        base.check_target(d, k)

    def nearest(x: Vector) -> Vector:
        centers = tuple(base.nearest_full_cylinder(xj, d, k) for d, xj in zip(digits, x))
        if None in centers:
            d = digits[centers.index(None)]
            raise StrategyError(f"no full-length cylinder interval for digit {d}")
        return centers
    return _lock_and_pull(n, nearest, what)


def alice_real_winning(base: RealBase, d: int, n: int, k: int) -> Strategy:
    """Steer the outcome's k-th digit to d: hold n rounds, then lock the
    nearest full-length level-k cylinder with last digit d."""
    return _lock_full(base, (d,), n, k, "nearest full cylinder target")


def alice_complex_winning(targets, n: int) -> Strategy:
    """Complex analog: targets is a tuple of the (x, y) centers of the
    level-k tiles whose k-th digit is zero, which the strategy only reads,
    so games may share it.  It locks the target nearest Bob's center by
    math.dist, the first on a tie."""
    return _lock_and_pull(n, lambda p: min(targets, key=partial(math.dist, p)),
                          "nearest full cylinder target")


def alice_quaternion_componentwise(base: RealBase, digits: Sequence[int],
                                   n: int, k: int) -> Strategy:
    """Real radix on the unit-box lattice: four independent copies of the 1D
    strategy, one per coordinate, sharing the hold length n and depth k."""
    if len(digits) != 4:
        raise ValueError("need one target digit per coordinate")
    return _lock_full(base, digits, n, k, "componentwise target")


# -- losing strategy (Bob) -----------------------------------------------------


def bob_avoid_block(system: ComplexSystem | QuatSystem, xi: Sequence[float],
                    omega: Sequence[tuple[int, ...]]) -> Strategy:
    """Digit-pinning avoidance play, written in the lattice coordinates of
    the system's digit kernel u -> A u - d.  It takes a quaternion (4-D) or
    complex (2-D) system, whose digits are tuples of ints; a 1-D system is
    refused, as its kernel's digits are bare ints.

    The state (m, pinned) records that Bob's ball pins the first m digits,
    pinned = sum_{j<=m} A^-j d_j.  At round k the strategy reads the digits
    at positions m+1 .. k|omega| off A^m (coords(y) - pinned), the local
    point of Alice's center y, adds them to pinned and recenters on
    pinned + A^-(k|omega|) coords(xi), which pins them for every point of
    Bob's ball.  m advances only when that move is played, so a round after
    a clipped one reads the skipped blocks too and Bob catches up.  When the
    avoidance inequalities hold no pinned window equals the avoided block
    and the formula move is always legal; both conditions are still checked,
    and on failure the strategy degrades to a clipped legal move and leaves
    a note in the trace instead of crashing.

    The strategy keeps no game state: (m, pinned) lives in Bob's scratch,
    and only the powers of A and the memo of products outlive a game, so
    one strategy serves every game on its system.
    """
    if system.dim == 1:
        raise ValueError("the avoidance play needs a 2-D or 4-D system, not a 1-D one,"
                         " whose digits are ints")
    win = len(omega)
    if win == 0:
        raise ValueError("avoided block must be nonempty")
    omega_coords = [tuple(int(c) for c in w) for w in omega]
    kernel = system.kernel
    xi_coords = system.coords(xi)
    fresh = (0, (0.0,) * len(kernel.A))  # the pinned point of a fresh game
    # the maps u -> A^j u and u -> A^-j u by j, and the memo: A^-j d by
    # (j, d) and A^-depth xi by depth, shared by every game on the strategy
    powers = _powers(kernel.A)
    power = cache(lambda j: tuple(map(_image, powers(j))))
    step = cache(lambda j, d: power(j)[1](d))
    shift = cache(lambda depth: power(depth)[1](xi_coords))

    def f(s: GameState) -> Vector:
        y = s.ball.center
        kk = s.round_no
        m, pinned = s.scratch.get("avoid", fresh)
        depth = kk * win
        local = power(m)[0](map(operator.sub, system.coords(y), pinned))
        digits = kernel.expand(local, depth - m, nudge=True)
        for i, d in enumerate(digits):
            if i % win == 0 and digits[i:i + win] == omega_coords:
                s.note(f"round {kk}: pinned window {(m + i) // win + 1} equals the avoided block")
            pinned = tuple(map(operator.add, pinned, step(m + i + 1, d)))
        proposal = system.point(map(operator.add, pinned, shift(depth)))
        gap = math.dist(proposal, y)
        if gap > s.reach:
            s.note(f"round {kk}: formula move exceeds the legal step; clipped")
            scale = s.reach / gap
            proposal = tuple(c + (p - c) * scale for p, c in zip(proposal, y))
            if not system.contains(proposal):
                proposal = y
        elif not system.contains(proposal):
            s.note(f"round {kk}: formula move left the domain; holding center")
            proposal = y
        else:
            s.scratch["avoid"] = (depth, pinned)
        return proposal
    return f
