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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .complexexp import ComplexBase, Vk_squares
from .numeric import DEFAULT_TOL, Tolerance
from .realexp import RealBase
from .systems import QuatSystem

RADIUS_FLOOR = 1e-12

Strategy = Callable[["GameState"], np.ndarray]


def _norm(v: np.ndarray) -> float:
    """Euclidean length of a 1-D float vector.

    np.linalg.norm computes exactly sqrt(v.dot(v)) for such a vector, so this
    gives the same bits without the wrapper's argument handling.  math.hypot
    and a Python sum of squares round differently in the last bit.
    """
    return math.sqrt(v.dot(v))


class IllegalMoveError(RuntimeError):
    def __init__(self, player: str, round_no: int, reason: str):
        super().__init__(f"illegal move by {player} in round {round_no}: {reason}")
        self.player = player
        self.round_no = round_no


class StrategyError(RuntimeError):
    """Raised when a strategy's hypotheses demonstrably fail at runtime."""


@dataclass(frozen=True)
class GameParams:
    alpha: float
    beta: float
    rho: float
    dimension: int
    initial_center: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not 0.0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if self.dimension not in (1, 2, 4):
            raise ValueError("dimension must be 1, 2 or 4")
        if len(self.initial_center) != self.dimension:
            raise ValueError("initial center has the wrong dimension")

    def rho_n(self, n: int) -> float:
        return (self.alpha * self.beta) ** n * self.rho


@dataclass
class Move:
    player: str
    round_no: int
    center: np.ndarray
    radius: float


@dataclass
class GameState:
    params: GameParams
    system: object | None
    rng: np.random.Generator
    moves: list[Move] = field(default_factory=list)
    scratch: dict = field(default_factory=dict)

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


@dataclass
class GameTrace:
    params: GameParams
    seed: int
    moves: list[Move]
    status: str
    notes: list[str] = field(default_factory=list)

    @property
    def final_center(self) -> np.ndarray:
        return self.moves[-1].center

    @property
    def final_radius(self) -> float:
        return self.moves[-1].radius

    @property
    def rounds_played(self) -> int:
        return sum(1 for mv in self.moves if mv.player == "alice")

    def to_dict(self) -> dict:
        return {
            "params": {
                "alpha": self.params.alpha,
                "beta": self.params.beta,
                "rho": self.params.rho,
                "dimension": self.params.dimension,
                "initial_center": list(self.params.initial_center),
            },
            "seed": self.seed,
            "status": self.status,
            "notes": list(self.notes),
            "moves": [
                {
                    "player": mv.player,
                    "round": mv.round_no,
                    "center": [float(c) for c in mv.center],
                    "radius": mv.radius,
                    "legal": True,
                }
                for mv in self.moves
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


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
    x0 = np.array(params.initial_center, dtype=float)
    if system is not None and not system.contains(x0):
        raise ValueError("initial center outside the domain")
    state = GameState(params, system, np.random.default_rng(seed))
    state.moves.append(Move("bob", 0, x0, params.rho))
    status = "max-rounds"
    for n in range(1, max_rounds + 1):
        rho_prev = params.rho_n(n - 1)
        a_rad = params.alpha * rho_prev
        b_rad = params.beta * a_rad
        if b_rad < RADIUS_FLOOR:
            status = "resolution-exhausted"
            break
        x_prev = state.bob_ball().center
        y = _checked_center(alice(state), params.dimension, "alice", n)
        _check_legal("alice", n, x_prev, y, a_rad, rho_prev, system)
        state.moves.append(Move("alice", n, y, a_rad))
        x = _checked_center(bob(state), params.dimension, "bob", n)
        _check_legal("bob", n, y, x, b_rad, a_rad, system)
        state.moves.append(Move("bob", n, x, b_rad))
    return GameTrace(params, seed, state.moves, status,
                     state.scratch.get("notes", []))


def _checked_center(c, dim: int, player: str, round_no: int) -> np.ndarray:
    arr = np.asarray(c, dtype=float).reshape(-1)
    if arr.shape != (dim,) or not all(map(math.isfinite, arr.tolist())):
        raise IllegalMoveError(player, round_no, "malformed center")
    return arr


def _check_legal(player: str, round_no: int, outer_center: np.ndarray,
                 center: np.ndarray, radius: float, outer_radius: float,
                 system) -> None:
    gap = _norm(center - outer_center) + radius - outer_radius
    if gap > DEFAULT_TOL.eps_cmp:
        raise IllegalMoveError(player, round_no,
                               f"ball escapes the previous one by {gap:.3e}")
    if system is not None and not system.contains(center):
        raise IllegalMoveError(player, round_no, "center left the domain")


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
        gap = _norm(mv.center - prev.center) + mv.radius - prev.radius
        if gap > DEFAULT_TOL.eps_cmp:
            problems.append(f"round {n} {mv.player}: containment violated by {gap:.3e}")
        prev = mv
    return problems


# -- thresholds and (n, k) searches -------------------------------------------


def A_threshold(b: float, K: int, alpha: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Beta threshold for the 1D winning strategy at radix b with zero-run bound K."""
    if not b > 1.0 or K < 0 or not 0.0 < alpha < 1.0:
        raise ValueError("need b > 1, K >= 0, alpha in (0, 1)")
    kb = (K + 2.0) * b
    den = alpha * ((4.0 * kb - 1.0) - alpha * (2.0 * kb - 1.0))
    if abs(den) <= tol.eps_cmp:
        raise ValueError("threshold denominator vanishes")
    return ((2.0 * kb + 1.0) * alpha - 1.0) / den


def F_threshold(r: float, alpha: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Beta threshold for the complex winning strategy at modulus r."""
    if not r > 1.0 or not 0.0 < alpha < 1.0:
        raise ValueError("need r > 1, alpha in (0, 1)")
    w = 2.0 * math.sqrt(2.0) * r
    den = alpha * ((1.0 - w) * alpha + (2.0 * w - 1.0))
    if abs(den) <= tol.eps_cmp:
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
    margin = 10.0 * DEFAULT_TOL.eps_cmp
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
    margin = 10.0 * DEFAULT_TOL.eps_cmp
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


def _ball_sample(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    norm = _norm(v)
    if norm == 0.0:
        return np.zeros(dim)
    return v / norm * rng.random() ** (1.0 / dim)


def _max_step_inside(system, start: np.ndarray, direction: np.ndarray,
                     step: float) -> float:
    """Largest t <= step with start + t * direction still in the domain."""
    if system is None:
        return step
    pairs = list(zip(start.tolist(), direction.tolist()))
    if system.contains([a + step * b for a, b in pairs]):
        return step
    lo, hi = 0.0, step
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if system.contains([a + mid * b for a, b in pairs]):
            lo = mid
        else:
            hi = mid
    return lo * (1.0 - 1e-9)


def alice_center_hold() -> Strategy:
    return lambda s: s.bob_ball().center.copy()


def bob_center_hold() -> Strategy:
    return lambda s: s.alice_ball().center.copy()


def _random_move(s: GameState, center: np.ndarray, budget: float) -> np.ndarray:
    """A uniform point within budget of center that stays in the domain;
    center itself after 256 misses."""
    for _ in range(256):
        y = center + budget * (1.0 - 1e-9) * _ball_sample(s.rng, s.params.dimension)
        if s.system is None or s.system.contains(y):
            return y
    return center.copy()


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
        fixed = np.asarray(direction, dtype=float)
        fixed = fixed / _norm(fixed)

    def f(s: GameState) -> np.ndarray:
        y = s.alice_ball().center
        if fixed is None:
            v = np.zeros(s.params.dimension)
            v[0] = 1.0
        else:
            v = fixed
        a_rad = s.params.alpha * s.params.rho_n(s.round_no - 1)
        step = a_rad * (1.0 - s.params.beta)
        t = _max_step_inside(s.system, y, v, step)
        return y + t * v
    return f


# -- winning strategies (Alice) ------------------------------------------------


def _pull_toward(x: np.ndarray, target: np.ndarray, budget: float) -> np.ndarray:
    delta = target - x
    dist = _norm(delta)
    if dist <= budget or dist == 0.0:
        return target.copy()
    return x + delta * (budget / dist)


def _lock_and_pull(n: int, nearest: Callable[[np.ndarray], np.ndarray],
                   what: str) -> Strategy:
    """Shared winning-play skeleton: hold n rounds, lock the target
    nearest(x) picks for Bob's center x, then pull toward it with the full
    legal budget every round."""
    def f(s: GameState) -> np.ndarray:
        x = s.bob_ball().center
        r = s.round_no
        if r <= n:
            return x.copy()
        budget = (1.0 - s.params.alpha) * s.params.rho_n(r - 1)
        if "target" not in s.scratch:
            target = nearest(x)
            dist = _norm(target - x)
            if dist > budget * (1.0 + 1e-9):
                raise StrategyError(
                    f"{what} at {dist:.3e} exceeds the legal reach {budget:.3e}")
            s.scratch["target"] = target
        return _pull_toward(x, s.scratch["target"], budget * (1.0 - 1e-12))
    return f


def _nearest_row(targets: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    return lambda x: targets[int(np.argmin(np.linalg.norm(targets - x, axis=1)))]


def _full_cylinder_centers(base: RealBase, d: int, k: int) -> np.ndarray:
    """Midpoints of the full-length level-k cylinders with k-th digit d."""
    centers = [0.5 * (iv.lo + iv.hi) for iv in base.cylinder_intervals(d, k)
               if iv.full_length]
    if not centers:
        raise StrategyError(f"no full-length cylinder interval for digit {d}")
    return np.array(centers)


def alice_real_winning(base: RealBase, d: int, n: int, k: int) -> Strategy:
    """Steer the outcome's k-th digit to d: hold n rounds, then lock the
    nearest full-length level-k cylinder with last digit d."""
    targets = _full_cylinder_centers(base, d, k).reshape(-1, 1)
    return _lock_and_pull(n, _nearest_row(targets), "nearest full cylinder target")


def alice_complex_winning(base: ComplexBase, k: int, n: int) -> Strategy:
    """Complex analog: targets are the centers of the level-k tiles whose
    k-th digit is zero."""
    targets = np.array([[c.a, c.b] for c in Vk_squares(base, k)])
    return _lock_and_pull(n, _nearest_row(targets), "nearest full cylinder target")


def alice_quaternion_componentwise(base: RealBase, digits: Sequence[int],
                                   n: int, k: int) -> Strategy:
    """Real radix on the unit-box lattice: four independent copies of the 1D
    strategy, one per coordinate, sharing the hold length n and depth k."""
    if len(digits) != 4:
        raise ValueError("need one target digit per coordinate")
    # one decomposition per distinct digit
    targets = {d: _full_cylinder_centers(base, d, k) for d in dict.fromkeys(digits)}
    per_axis = [targets[d] for d in digits]

    def nearest(x: np.ndarray) -> np.ndarray:
        return np.array([axis[int(np.argmin(np.abs(axis - x[j])))]
                         for j, axis in enumerate(per_axis)])
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
    """
    win = len(omega)
    if win == 0:
        raise ValueError("avoided block must be nonempty")
    omega_coords = [tuple(int(c) for c in w) for w in omega]
    kernel = system.kernel
    A = np.array(kernel.A)
    A_inv = np.linalg.inv(A)
    up, down = [np.eye(len(A))], [np.eye(len(A))]  # A^j and A^-j
    xi_coords = np.array(system.coords(xi))

    def power(j: int) -> tuple[np.ndarray, np.ndarray]:
        while len(up) <= j:
            up.append(A @ up[-1])
            down.append(A_inv @ down[-1])
        return up[j], down[j]

    def f(s: GameState) -> np.ndarray:
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
        proposal = system._point(pinned + power(depth)[1] @ xi_coords)
        a_rad = s.params.alpha * s.params.rho_n(kk - 1)
        b_rad = s.params.beta * a_rad
        max_step = (a_rad - b_rad) * (1.0 - 1e-12)
        gap = _norm(proposal - y)
        if gap > max_step:
            s.note(f"round {kk}: formula move exceeds the legal step; clipped")
            proposal = y + (proposal - y) * (max_step / gap)
            if not system.contains(proposal):
                proposal = y.copy()
        elif not system.contains(proposal):
            s.note(f"round {kk}: formula move left the domain; holding center")
            proposal = y.copy()
        else:
            s.scratch["avoid"] = (depth, pinned)
        return proposal
    return f


# -- outcome verification ------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """What a finished game is supposed to have achieved.

    kind "contains": the digits of the outcome match `block` starting at
    1-based `position`.  kind "avoids": no alignment window of length
    len(block) among the first m digits equals `block`.
    """
    kind: str
    block: tuple
    position: int = 1

    def __post_init__(self):
        if self.kind not in ("contains", "avoids"):
            raise ValueError("claim kind must be 'contains' or 'avoids'")
        if not self.block:
            raise ValueError("claim block must be nonempty")
        if self.position < 1:
            raise ValueError("position is 1-based")


@dataclass
class VerifyResult:
    verdict: str
    digits: list
    certified: int
    reason: str


def certified_digits(system, center: np.ndarray, radius: float, m: int
                     ) -> tuple[list, int]:
    """First m digits of `center` plus how many are certain for the whole ball.

    Digit j is certified when every point within `radius` of the center
    provably shares it: the pre-floor image at step j sits farther from its
    cell boundary than the radius grown by |radix|^j.
    """
    digits: list = []
    certified = 0
    growing = True
    cur = np.array(center, dtype=float)
    growth = 1.0
    for j in range(1, m + 1):
        d, cur, margin = system.step(cur, "nudge")
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
    if system is not None and not system.contains(center):
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
