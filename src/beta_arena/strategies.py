"""Stock strategies for the game in game.py: callables GameState -> center.

A strategy reads the last ball (s.ball), how far it may move from its
center (s.reach), s.round_no and its own s.scratch.  The generic ones hold
Alice's center, drift from it or draw at random.  The
winning ones hold, lock the target a strategy picks for Bob's center, then
pull toward it; the losing one (Bob's) reads the digits of Alice's center
through the digit kernel and recenters on the avoided-block-free cylinder
shifted by xi.  Lengths are numeric._norm's, which keeps numpy's bits, so
numpy is loaded only for the random PCG64 stream and the avoidance play's
matrix powers.

The avoidance play keeps a memo beside its table of powers of A: the
product A^-j d for each digit d pinned at position j, and A^-depth xi for
each depth, which recur from game to game.  Each entry is the numpy
expression the play would evaluate in its place, so it has the same bits,
and it is a pure function of its key, so two threads that race on a key
store equal values.  The memo grows with the distinct (position, digit)
pairs the games on one system meet: 32 to 180 entries per system after
a 20-s run of perfbench's sweep.
"""

from __future__ import annotations

import math
import operator
import threading
from typing import Callable, Sequence

from .game import GameState, Strategy, StrategyError, Vector, _escape
from .numeric import _HUGE, _distance, _norm
from .realexp import RealBase
from .systems import QuatSystem, max_step_inside


# -- generic strategies --------------------------------------------------------


def _ball_sample(rng, dim: int) -> list[float]:
    """A uniform point of the unit ball, drawn from numpy's generator rng."""
    v = rng.normal(size=dim).tolist()
    norm = _norm(v)
    if norm == 0.0:
        return [0.0] * dim
    scale = rng.random() ** (1.0 / dim)
    return [x / norm * scale for x in v]


def bob_center_hold() -> Strategy:
    return lambda s: s.ball.center


def _random_move(s: GameState, center: Vector, budget: float) -> Vector:
    """A uniform point within budget of center that play accepts: its ball
    of s.radius nests in s.ball and it stays in the domain; center itself
    after 256 misses.  A draw at the edge of the budget can escape by
    rounding, and counts as a miss like a draw outside the domain."""
    scale = budget * (1.0 - 1e-9)
    for _ in range(256):
        y = tuple(c + scale * u for c, u in zip(center, _ball_sample(s.rng, s.params.dimension)))
        if (_escape(s.ball, y, s.radius) is None
                and (s.system is None or s.system.contains(y))):
            return y
    return center


def alice_random() -> Strategy:
    """A uniform point within reach of the last ball's center, for either player."""
    return lambda s: _random_move(s, s.ball.center, s.reach)


bob_random = alice_random


def bob_optimal_drift(direction: Sequence[float] | None = None) -> Strategy:
    """Move maximally away from Alice's center along a fixed unit vector,
    clipped at the domain boundary when a domain is attached."""
    fixed = None
    if direction is not None:
        fixed = tuple(map(float, direction))
        norm = _norm(fixed)
        fixed = tuple(c / norm for c in fixed)

    def f(s: GameState) -> Vector:
        y = s.ball.center
        v = fixed if fixed is not None else (1.0,) + (0.0,) * (s.params.dimension - 1)
        t = max_step_inside(s.system, y, v, s.reach)
        return tuple(a + t * b for a, b in zip(y, v))
    return f


# -- winning strategies (Alice) ------------------------------------------------


def _pull_toward(x: Vector, target: Vector, budget: float) -> Vector:
    delta = [t - c for t, c in zip(target, x)]
    dist = _norm(delta)
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
            dist = _distance(target, x)
            if dist > s.reach * (1.0 + 1e-9):
                raise StrategyError(
                    f"{what} at {dist:.3e} exceeds the legal reach {s.reach:.3e}")
            s.scratch["target"] = target
        return _pull_toward(x, s.scratch["target"], s.reach * (1.0 - 1e-12))
    return f


def _nearest_row(targets: Sequence[Vector]) -> Callable[[Vector], Vector]:
    """The (x, y) of targets nearest to the point, the first on a tie.  The
    distance squares and adds without fusing, as np.linalg.norm(axis=1)
    does, so the pick is np.argmin's."""
    def nearest(p: Vector) -> Vector:
        def distance(t: Vector) -> float:
            dx, dy = t[0] - p[0], t[1] - p[1]
            return math.sqrt(dx * dx + dy * dy)
        return min(targets, key=distance)
    return nearest


def _nearest_full(base: RealBase, d: int, k: int, x: float) -> float:
    """Center of the full-length level-k cylinder with k-th digit d nearest x."""
    center = base.nearest_full_cylinder(x, d, k)
    if center is None:
        raise StrategyError(f"no full-length cylinder interval for digit {d}")
    return center


def alice_real_winning(base: RealBase, d: int, n: int, k: int) -> Strategy:
    """Steer the outcome's k-th digit to d: hold n rounds, then lock the
    nearest full-length level-k cylinder with last digit d."""
    base.check_target(d, k)
    return _lock_and_pull(n, lambda x: (_nearest_full(base, d, k, x[0]),),
                          "nearest full cylinder target")


def alice_complex_winning(targets, n: int) -> Strategy:
    """Complex analog: targets is a tuple of the (x, y) centers of the
    level-k tiles whose k-th digit is zero, which the strategy only reads,
    so games may share it."""
    return _lock_and_pull(n, _nearest_row(targets), "nearest full cylinder target")


def alice_quaternion_componentwise(base: RealBase, digits: Sequence[int],
                                   n: int, k: int) -> Strategy:
    """Real radix on the unit-box lattice: four independent copies of the 1D
    strategy, one per coordinate, sharing the hold length n and depth k."""
    if len(digits) != 4:
        raise ValueError("need one target digit per coordinate")
    for d in digits:
        base.check_target(d, k)

    def nearest(x: Vector) -> Vector:
        return tuple(_nearest_full(base, d, k, xj) for d, xj in zip(digits, x))
    return _lock_and_pull(n, nearest, "componentwise target")


# -- losing strategy (Bob) -----------------------------------------------------


def _overshoot(proposal: Vector, y: Vector, max_step: float) -> float | None:
    """gap = _distance(proposal, y) when gap > max_step, else None.

    A float filter answers most moves first, as in game._escape.  Both
    lengths are of the same float differences; with u = 2^-53, math.hypot's
    q errs by under an ulp, 2u q (Python 3.10 on), and _norm's gap by at
    most 3u of it, as its sum of squares cannot overflow while q < 2^500,
    plus 2^-535 where that sum underflows.  So gap < q (1 + 6u) + 2^-535,
    and a q with q + 16u q + 2^-500 < max_step in floats (its two roundings
    cost under 2u of the sum) has gap < max_step.  Every other case, NaN
    and inf too, takes the exact path, so each decision and each returned
    gap keeps its bits.
    """
    q = math.hypot(*map(operator.sub, proposal, y))
    if q < _HUGE and q + (2.0 ** -49 * q + 2.0 ** -500) < max_step:
        return None
    gap = _distance(proposal, y)
    return gap if gap > max_step else None


def bob_avoid_block(system: QuatSystem, xi: Sequence[float],
                    omega: Sequence[tuple[int, int, int, int]]) -> Strategy:
    """Digit-pinning avoidance play for quaternion expansions, written in the
    lattice coordinates of the system's digit kernel u -> A u - d.

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
    import numpy as np
    win = len(omega)
    if win == 0:
        raise ValueError("avoided block must be nonempty")
    omega_coords = [tuple(int(c) for c in w) for w in omega]
    kernel = system.kernel
    A = np.array(kernel.A)
    A_inv = np.linalg.inv(A)
    # (A^j, A^-j) by j, shared by every game on the strategy; one append
    # grows both, so a growth cut short cannot leave them out of step, and
    # the lock keeps games in two threads from appending the same power twice
    powers = [(np.eye(len(A)), np.eye(len(A)))]
    growing = threading.Lock()
    xi_coords = np.array(system.coords(xi))
    # the memo: A^-j d by (j, d) and A^-depth xi by depth, and the pinned
    # point of a fresh game; every game reads them and none writes into them
    steps: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    shifts: dict[int, np.ndarray] = {}
    fresh = (0, np.zeros(len(A)))

    def power(j: int) -> tuple[np.ndarray, np.ndarray]:
        if j >= len(powers):
            with growing:
                while len(powers) <= j:
                    up, down = powers[-1]
                    powers.append((A @ up, A_inv @ down))
        return powers[j]

    def f(s: GameState) -> Vector:
        y = s.ball.center
        kk = s.round_no
        m, pinned = s.scratch.get("avoid", fresh)
        depth = kk * win
        local = power(m)[0] @ (np.array(system.coords(y)) - pinned)
        digits = kernel.expand(local.tolist(), depth - m, nudge=True)
        for i, d in enumerate(digits):
            if i % win == 0 and digits[i:i + win] == omega_coords:
                s.note(f"round {kk}: pinned window equals the avoided block")
            step = steps.get((m + i + 1, d))
            if step is None:
                step = steps[m + i + 1, d] = power(m + i + 1)[1] @ d
            pinned = pinned + step
        shift = shifts.get(depth)
        if shift is None:
            shift = shifts[depth] = power(depth)[1] @ xi_coords
        proposal = system._point((pinned + shift).tolist())
        a_rad = s.ball.radius  # Alice's radius; Bob's is beta times it
        max_step = (a_rad - s.params.beta * a_rad) * (1.0 - 1e-12)
        gap = _overshoot(proposal, y, max_step)
        if gap is not None:
            s.note(f"round {kk}: formula move exceeds the legal step; clipped")
            scale = max_step / gap
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
