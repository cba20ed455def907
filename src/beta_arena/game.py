"""Schmidt (alpha, beta, rho)-game engine and constructive strategies.

Bob opens with a ball of radius rho; thereafter Alice places a ball of
radius alpha times the current one inside it, Bob answers inside hers with
the radius scaled by beta, and the intersection point of the chain is the
outcome.  Radii are forced by the schedule rho_n = (alpha beta)^n rho, so a
move is just a center; the engine validates both containment inequalities
with a small comparison slack and keeps centers inside the expansion domain
when one is attached (the game is played on the domain as a metric space).

Strategies are callables state -> center.  The constructive ones implement
the winning target-locking play (one skeleton: hold, lock the target a
strategy picks for Bob's center, then pull toward it) and the losing
digit-pinning play (Bob reads the digits of Alice's center through the
digit kernel and recenters on the avoided-block-free cylinder shifted by
xi).  Double precision runs out near radius 1e-12, so games stop there
rather than pretending to resolve further digits.

Centers are float tuples, and strategies may return any float sequence.
Lengths, targets and basis changes are plain Python that reproduces numpy's
bits (see _norm), so real, complex and componentwise games run without
numpy.  It is loaded only for the random strategies' PCG64 stream and the
quaternion avoidance play's matrix powers.
"""

from __future__ import annotations

import math
import operator
import threading
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Sequence

from .numeric import EPS_CMP, FrozenRecord, Record
from .realexp import RealBase
from .systems import QuatSystem, max_step_inside

RADIUS_FLOOR = 1e-12

Vector = tuple[float, ...]
Strategy = Callable[["GameState"], Sequence[float]]


# Dekker's splitter 2^27 + 1, and the range of |x| in which his split of
# x * x is exact: the split does not overflow and the error term does not
# underflow
_SPLIT = 134217729.0
_TINY, _HUGE = 2.0 ** -480, 2.0 ** 500


def _norm(v: Sequence[float]) -> float:
    """Euclidean length of a float vector, with np.linalg.norm's bits.

    np.linalg.norm computes exactly sqrt(v.dot(v)) for such a vector, and
    numpy's dot (on an FMA machine) is the fused chain acc = v0 * v0,
    acc = fma(vi, vi, acc); a Python sum of squares, or math.hypot, rounds
    differently in the last bit.  Each fma is done exactly: Dekker's split
    gives vi * vi = p + e with both floats, and fsum rounds acc + p + e
    once.  Out of the split's range, _square_add does it in integers.
    """
    if len(v) == 1:
        return math.sqrt(v[0] * v[0])
    x, *rest = v
    acc = x * x
    for x in rest:
        if (_TINY <= abs(x) <= _HUGE or x == 0.0) and acc <= _HUGE:
            c = _SPLIT * x
            hi = c - (c - x)
            lo = x - hi
            p = x * x
            acc = math.fsum((acc, p, lo * lo - (((p - hi * hi) - hi * lo) - lo * hi)))
        else:
            acc = _square_add(x, acc)
    return math.sqrt(acc)


def _square_add(x: float, acc: float) -> float:
    """fma(x, x, acc), x * x + acc rounded once, by exact integer arithmetic
    (int / int is correctly rounded); inf and nan propagate as in an fma."""
    if not (math.isfinite(x) and math.isfinite(acc)):
        return x * x + acc
    n, d = x.as_integer_ratio()
    m, e = acc.as_integer_ratio()
    try:
        return (n * n * e + m * d * d) / (d * d * e)
    except OverflowError:
        return math.inf


def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    """_norm of the coordinatewise difference a - b."""
    return _norm([x - y for x, y in zip(a, b)])


class IllegalMoveError(RuntimeError):
    def __init__(self, player: str, round_no: int, reason: str):
        super().__init__(f"illegal move by {player} in round {round_no}: {reason}")
        self.player = player
        self.round_no = round_no


class StrategyError(RuntimeError):
    """Raised when a strategy's hypotheses demonstrably fail at runtime."""


class GameParams(FrozenRecord):
    __slots__ = ("alpha", "beta", "rho", "dimension", "initial_center")

    def __init__(self, alpha: float, beta: float, rho: float, dimension: int,
                 initial_center: tuple[float, ...]):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not 0.0 < rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if dimension not in (1, 2, 4):
            raise ValueError("dimension must be 1, 2 or 4")
        if len(initial_center) != dimension:
            raise ValueError("initial center has the wrong dimension")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "initial_center", initial_center)

    def rho_n(self, n: int) -> float:
        return (self.alpha * self.beta) ** n * self.rho


class Move(Record):
    __slots__ = ("player", "round_no", "center", "radius")

    def __init__(self, player: str, round_no: int, center: Vector, radius: float):
        self.player = player
        self.round_no = round_no
        self.center = center
        self.radius = radius


class GameState(Record):
    __slots__ = ("params", "system", "seed", "moves", "scratch", "_rng")

    def __init__(self, params: GameParams, system: object | None, seed: int = 0,
                 moves: list[Move] | None = None, scratch: dict | None = None):
        self.params = params
        self.system = system
        self.seed = seed
        self.moves = [] if moves is None else moves
        self.scratch = {} if scratch is None else scratch
        self._rng = None

    @property
    def rng(self):
        """numpy's PCG64 generator for the game's seed, built on the first
        draw, so only a game with a random strategy loads numpy.random."""
        if self._rng is None:
            import numpy as np
            self._rng = np.random.default_rng(self.seed)
        return self._rng

    @property
    def round_no(self) -> int:
        """Index of the round currently being played (1-based)."""
        return (len(self.moves) + 1) // 2

    def bob_ball(self) -> Move:
        for mv in reversed(self.moves):
            if mv.player == "bob":
                return mv
        raise RuntimeError("no bob move recorded")

    def alice_ball(self) -> Move:
        for mv in reversed(self.moves):
            if mv.player == "alice":
                return mv
        raise RuntimeError("no alice move recorded")

    def note(self, text: str) -> None:
        self.scratch.setdefault("notes", []).append(text)


class GameTrace(Record):
    __slots__ = ("params", "seed", "moves", "status", "notes")

    def __init__(self, params: GameParams, seed: int, moves: list[Move], status: str,
                 notes: list[str] | None = None):
        self.params = params
        self.seed = seed
        self.moves = moves
        self.status = status
        self.notes = [] if notes is None else notes

    @property
    def final_center(self) -> Vector:
        return self.moves[-1].center

    @property
    def final_radius(self) -> float:
        return self.moves[-1].radius

    @property
    def rounds_played(self) -> int:
        return sum(1 for mv in self.moves if mv.player == "alice")

    def to_json(self) -> str:
        """The trace as json.dumps(sort_keys=True, indent=2) writes its params,
        seed, status, notes and moves (center as float()s, "legal": true), plus
        a newline, byte for byte: the indenting encoder is pure Python and cost
        more per game than play and verify."""
        p = self.params
        moves = [_MOVE_JSON % (_json_center(mv.center), _json_str(mv.player),
                               _json_number(mv.radius), _json_number(mv.round_no))
                 for mv in self.moves]
        return ('{\n  "moves": ' + _json_list(moves, "  ")
                + ',\n  "notes": ' + _json_list([_json_str(t) for t in self.notes], "  ")
                + ',\n  "params": {\n    "alpha": ' + _json_number(p.alpha)
                + ',\n    "beta": ' + _json_number(p.beta)
                + ',\n    "dimension": ' + _json_number(p.dimension)
                + ',\n    "initial_center": '
                + _json_list([_json_number(c) for c in p.initial_center], "    ")
                + ',\n    "rho": ' + _json_number(p.rho)
                + '\n  },\n  "seed": ' + _json_number(self.seed)
                + ',\n  "status": ' + _json_str(self.status) + "\n}\n")


_MOVE_JSON = ('{\n      "center": %s,\n      "legal": true,\n      "player": %s,'
              '\n      "radius": %s,\n      "round": %s\n    }')


def _json_number(v) -> str:
    """A number as json.dumps writes it: float.__repr__ (numpy 2's repr of a
    np.float64 differs), NaN and +-Infinity, int.__repr__ for an int."""
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        return "NaN" if v != v else ("Infinity" if v > 0 else "-Infinity")
    return int.__repr__(v)


def _json_center(center) -> str:
    """A move's center, float(c) for each c, laid out
    at the move's indent; only a center that is not finite needs
    _json_number."""
    xs = list(map(float, center))
    items = (list(map(float.__repr__, xs)) if all(map(math.isfinite, xs))
             else list(map(_json_number, xs)))
    return _json_list(items, "      ")


def _json_list(items: list[str], pad: str) -> str:
    """Encoded items laid out as json.dumps(indent=2) lays out a list at pad."""
    return "[\n  " + pad + (",\n  " + pad).join(items) + "\n" + pad + "]" if items else "[]"


def play(params: GameParams, alice: Strategy, bob: Strategy,
         max_rounds: int = 64, system=None, seed: int = 0) -> GameTrace:
    """Run the game to max_rounds or to the double-precision radius floor.

    Every center is validated against the containment inequality of its
    player before being accepted; a violation raises IllegalMoveError
    naming the player.  With a system attached, centers must also stay in
    the fundamental domain.
    """
    if system is not None and system.dim != params.dimension:
        raise ValueError("system dimension does not match game dimension")
    x0 = tuple(map(float, params.initial_center))
    if system is not None and not system.contains(x0):
        raise ValueError("initial center outside the domain")
    state = GameState(params, system, seed)
    state.moves.append(Move("bob", 0, x0, params.rho))
    status = "max-rounds"
    for n in range(1, max_rounds + 1):
        a_rad = params.alpha * params.rho_n(n - 1)
        b_rad = params.beta * a_rad
        if b_rad < RADIUS_FLOOR:
            status = "resolution-exhausted"
            break
        _play_move(state, "alice", alice, n, a_rad)
        _play_move(state, "bob", bob, n, b_rad)
    return GameTrace(params, seed, state.moves, status,
                     state.scratch.get("notes", []))


def _play_move(state: GameState, player: str, strategy: Strategy, round_no: int,
               radius: float) -> None:
    """Record the strategy's center once it is legal: finite, of the game's
    dimension, nested in the last ball and, with a system, in its domain."""
    proposal = strategy(state)
    try:
        center = tuple(map(float, proposal))
    except (TypeError, ValueError):
        center = ()
    if len(center) != state.params.dimension or not all(map(math.isfinite, center)):
        raise IllegalMoveError(player, round_no, "malformed center")
    gap = _escape(state.moves[-1], center, radius)
    if gap is not None:
        raise IllegalMoveError(player, round_no, f"ball escapes the previous one by {gap:.3e}")
    if state.system is not None and not state.system.contains(center):
        raise IllegalMoveError(player, round_no, "center left the domain")
    state.moves.append(Move(player, round_no, center, radius))


def _escape(outer: Move, center: Sequence[float], radius: float) -> float | None:
    """The nesting rule of play and audit_trace: how far the ball
    B(center, radius) reaches out of outer's ball, |c - c'| + r - R, or None
    when that is at most EPS_CMP.

    |c - c'| is _norm's, but a float filter answers most moves first.  With
    u = 2^-53 and S = q + |r| + |R|, math.hypot's q errs by under an ulp,
    2u q (Python 3.10 on), and _norm's length by at most 3u of it (Higham,
    ch. 3), as its sum of squares cannot overflow while q < 2^500; each
    gap's two roundings add 2u S, so the two gaps differ by at most 9u S,
    plus 2^-535 where that sum underflows.  A filtered gap below EPS_CMP by
    16u S + 2^-500 thus has an exact gap of at most EPS_CMP, for any
    EPS_CMP >= 0 (every exact gap is when S < EPS_CMP / 2).  Every other
    case, NaN and inf too, takes the exact path, so each decision and each
    reported gap keeps its bits.
    """
    q = math.hypot(*map(operator.sub, center, outer.center))
    bound = 2.0 ** -49 * (q + abs(radius) + abs(outer.radius)) + 2.0 ** -500
    if q < _HUGE and q + radius - outer.radius < EPS_CMP - bound:
        return None
    gap = _distance(center, outer.center) + radius - outer.radius
    return gap if gap > EPS_CMP else None


def audit_trace(trace: GameTrace) -> list[str]:
    """Re-verify every move of a finished game from the raw record.

    Returns a list of violation descriptions; an empty list is a pass.
    Checks the two containment inequalities, the radius schedule, and the
    resulting chain nesting.
    """
    p = trace.params
    problems: list[str] = []
    prev = trace.moves[0]
    if prev.player != "bob" or abs(prev.radius - p.rho) > 1e-9 * p.rho:
        problems.append("malformed opening ball")
    for mv in trace.moves[1:]:
        n = mv.round_no
        expected = p.alpha * p.rho_n(n - 1) if mv.player == "alice" else p.rho_n(n)
        if abs(mv.radius - expected) > 1e-9 * max(expected, 1e-300):
            problems.append(f"round {n} {mv.player}: radius off schedule")
        gap = _escape(prev, mv.center, mv.radius)
        if gap is not None:
            problems.append(f"round {n} {mv.player}: containment violated by {gap:.3e}")
        prev = mv
    return problems


# -- thresholds and (n, k) searches -------------------------------------------


def A_threshold(b: float, K: int, alpha: float) -> float:
    """Beta threshold for the 1D winning strategy at radix b with zero-run bound K."""
    if not b > 1.0 or K < 0 or not 0.0 < alpha < 1.0:
        raise ValueError("need b > 1, K >= 0, alpha in (0, 1)")
    kb = (K + 2.0) * b
    if math.isinf(4.0 * kb):  # divided through by kb, nothing overflows
        u = 1.0 / kb
        return ((2.0 + u) * alpha - u) / (alpha * ((4.0 - u) - alpha * (2.0 - u)))
    den = alpha * ((4.0 * kb - 1.0) - alpha * (2.0 * kb - 1.0))
    if abs(den) <= EPS_CMP:
        raise ValueError("threshold denominator vanishes")
    return ((2.0 * kb + 1.0) * alpha - 1.0) / den


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


def winning_gap(alpha: float, beta: float) -> float:
    """The quantity 2a - 4ab(1-a)/(1-ab) controlling both winning thresholds."""
    return 2.0 * alpha - 4.0 * alpha * beta * (1.0 - alpha) / (1.0 - alpha * beta)


def find_nk_real(b: float, K: int, alpha: float, beta: float, rho: float,
                 upper_factor: float = 1.0) -> tuple[int, int] | None:
    """Smallest (n, k) placing (K+2)/(rho (ab)^n b^(k-1)) inside the strategy
    window (lower, (1-alpha) * upper_factor).

    The search fixes n, takes the least k >= 2 clearing the upper bound, and
    advances n when that k undershoots the lower bound; it tries n up to
    10 000 and skips any k above 10 000.  None when exhausted;
    existence is only guaranteed for irrational log_b(alpha beta) or when the
    lower bound is nonpositive.
    """
    margin = 10.0 * EPS_CMP
    lower = b * (K + 2.0) * winning_gap(alpha, beta)
    upper = (1.0 - alpha) * upper_factor
    if lower >= upper - margin:
        return None
    ab = alpha * beta
    for n in range(1, 10_000 + 1):
        reach = rho * ab ** n
        base_mid = (K + 2.0) / reach if reach else math.inf
        if math.isinf(base_mid / upper):
            return None  # rho (ab)^n underflowed; later n only shrink it
        km1 = max(1, math.ceil(math.log(base_mid / upper, b) + 1e-12))
        if km1 + 1 > 10_000:
            continue
        try:
            mid = base_mid / b ** km1
        except OverflowError:  # b^(k-1) beyond double range
            return None
        if lower + margin < mid < upper - margin:
            return n, km1 + 1
    return None


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
    return lambda s: s.alice_ball().center


def _random_move(s: GameState, center: Vector, budget: float) -> Vector:
    """A uniform point within budget of center that stays in the domain;
    center itself after 256 misses."""
    scale = budget * (1.0 - 1e-9)
    for _ in range(256):
        y = tuple(c + scale * u for c, u in zip(center, _ball_sample(s.rng, s.params.dimension)))
        if s.system is None or s.system.contains(y):
            return y
    return center


def alice_random() -> Strategy:
    return lambda s: _random_move(
        s, s.bob_ball().center, (1.0 - s.params.alpha) * s.params.rho_n(s.round_no - 1))


def bob_random() -> Strategy:
    return lambda s: _random_move(
        s, s.alice_ball().center,
        s.params.alpha * s.params.rho_n(s.round_no - 1) * (1.0 - s.params.beta))


def bob_optimal_drift(direction: Sequence[float] | None = None) -> Strategy:
    """Move maximally away from Alice's center along a fixed unit vector,
    clipped at the domain boundary when a domain is attached."""
    fixed = None
    if direction is not None:
        fixed = tuple(map(float, direction))
        norm = _norm(fixed)
        fixed = tuple(c / norm for c in fixed)

    def f(s: GameState) -> Vector:
        y = s.alice_ball().center
        v = fixed if fixed is not None else (1.0,) + (0.0,) * (s.params.dimension - 1)
        a_rad = s.params.alpha * s.params.rho_n(s.round_no - 1)
        step = a_rad * (1.0 - s.params.beta)
        t = max_step_inside(s.system, y, v, step)
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
        x = s.bob_ball().center
        r = s.round_no
        if r <= n:
            return x
        budget = (1.0 - s.params.alpha) * s.params.rho_n(r - 1)
        if "target" not in s.scratch:
            target = nearest(x)
            dist = _distance(target, x)
            if dist > budget * (1.0 + 1e-9):
                raise StrategyError(
                    f"{what} at {dist:.3e} exceeds the legal reach {budget:.3e}")
            s.scratch["target"] = target
        return _pull_toward(x, s.scratch["target"], budget * (1.0 - 1e-12))
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

    The strategy keeps no game state: (m, pinned) lives in the game's
    scratch, and only the table of powers of A outlives a game, so one
    strategy serves every game on its system.
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

    def power(j: int) -> tuple[np.ndarray, np.ndarray]:
        if j >= len(powers):
            with growing:
                while len(powers) <= j:
                    up, down = powers[-1]
                    powers.append((A @ up, A_inv @ down))
        return powers[j]

    def f(s: GameState) -> Vector:
        y = s.alice_ball().center
        kk = s.round_no
        m, pinned = s.scratch.get("avoid", (0, np.zeros(len(A))))
        depth = kk * win
        local = power(m)[0] @ (np.array(system.coords(y)) - pinned)
        digits = kernel.expand(local.tolist(), depth - m, nudge=True)
        for i, d in enumerate(digits):
            if i % win == 0 and digits[i:i + win] == omega_coords:
                s.note(f"round {kk}: pinned window equals the avoided block")
            pinned = pinned + power(m + i + 1)[1] @ d
        proposal = system._point((pinned + power(depth)[1] @ xi_coords).tolist())
        a_rad = s.params.alpha * s.params.rho_n(kk - 1)
        b_rad = s.params.beta * a_rad
        max_step = (a_rad - b_rad) * (1.0 - 1e-12)
        gap = _distance(proposal, y)
        if gap > max_step:
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


# -- outcome verification ------------------------------------------------------


class Claim(FrozenRecord):
    """What a finished game is supposed to have achieved.

    kind "contains": the digits of the outcome match `block` starting at
    1-based `position`.  kind "avoids": no alignment window of length
    len(block) among the first m digits equals `block`.
    """

    __slots__ = ("kind", "block", "position")

    def __init__(self, kind: str, block: tuple, position: int = 1):
        if kind not in ("contains", "avoids"):
            raise ValueError("claim kind must be 'contains' or 'avoids'")
        if not block:
            raise ValueError("claim block must be nonempty")
        if position < 1:
            raise ValueError("position is 1-based")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "position", position)


class VerifyResult(Record):
    __slots__ = ("verdict", "digits", "certified", "reason")

    def __init__(self, verdict: str, digits: list, certified: int, reason: str):
        self.verdict = verdict
        self.digits = digits
        self.certified = certified
        self.reason = reason


def certified_digits(system, center: Sequence[float], radius: float, m: int
                     ) -> tuple[list, int]:
    """First m digits of `center` plus how many are certain for the whole ball.

    Digit j is certified when every point within `radius` of the center
    provably shares it: the pre-floor image at step j sits farther from its
    cell boundary than the radius grown by |radix|^j.
    """
    digits: list = []
    certified = 0
    growing = True
    cur = center
    growth = 1.0
    for j in range(1, m + 1):
        d, cur, margin = system.step(cur)
        digits.append(d)
        growth *= system.radix_norm
        if growing and radius * growth < margin * (1.0 - 1e-9):
            certified = j
        else:
            growing = False
    return digits, certified


def verify_outcome(trace: GameTrace, system, claim: Claim, m: int) -> VerifyResult:
    """Check a claim about the outcome against the final ball of a trace.

    Verified/falsified verdicts are only issued on digits certified for the
    entire final ball; a ball straddling a needed digit boundary yields
    indeterminate.
    """
    center = trace.final_center
    radius = trace.final_radius
    if not system.contains(center):
        return VerifyResult("indeterminate", [], 0, "outcome estimate outside the domain")
    digits, certified = certified_digits(system, center, radius, m)
    L = len(claim.block)
    if claim.kind == "contains":
        last_needed = claim.position + L - 1
        if last_needed > m:
            return VerifyResult("indeterminate", digits, certified,
                                "claim extends past the requested depth")
        for i in range(L):
            pos = claim.position + i
            if pos <= certified and not system.digit_matches(digits[pos - 1], claim.block[i]):
                return VerifyResult("falsified", digits, certified,
                                    f"digit {pos} is {digits[pos - 1]}, "
                                    f"expected {claim.block[i]}")
        if certified >= last_needed:
            return VerifyResult("verified", digits, certified,
                                f"block present at position {claim.position}")
        return VerifyResult("indeterminate", digits, certified,
                            f"only {certified} digits certified, need {last_needed}")
    # avoids: aligned windows of length L
    full_windows = m // L
    for w in range(full_windows):
        lo = w * L
        window = digits[lo:lo + L]
        window_certified = certified >= lo + L
        if all(system.digit_matches(a, b) for a, b in zip(window, claim.block)):
            if window_certified:
                return VerifyResult("falsified", digits, certified,
                                    f"avoided block occurs at window {w + 1}")
            return VerifyResult("indeterminate", digits, certified,
                                f"possible occurrence at uncertified window {w + 1}")
    if certified >= full_windows * L:
        return VerifyResult("verified", digits, certified,
                            f"first {full_windows} windows avoid the block")
    return VerifyResult("indeterminate", digits, certified,
                        f"only {certified} of {m} digits certified")
