"""Schmidt (alpha, beta, rho)-game engine, trace writer and verifier.

Bob opens with a ball of radius rho; thereafter Alice places a ball of
radius alpha times the current one inside it, Bob answers inside hers with
the radius scaled by beta, and the intersection point of the chain is the
outcome.  Radii are forced by the schedule rho_n = (alpha beta)^n rho, so a
move is just a center; the engine holds every ball exactly inside the one
before it (_escape) and keeps centers inside the expansion domain: every
game has a domain, a system, and is played on it as a metric space.
Double precision runs out near radius 1e-12, so games stop there rather
than pretending to resolve further digits.

Strategies (strategies.py) are callables GameState -> center that may
return any float sequence; play alone keeps the record and the radius
schedule, and publishes each mover's reach net of a slack of a few ulps,
so a move of that length nests exactly.  The game document is one
json.dumps of plain dicts (GameTrace.to_dict, game_json), and the verifier
decides what a finished game proved.
"""

from __future__ import annotations

import json
import math
import operator
from typing import Callable, Sequence

from .numeric import FrozenRecord, Record

RADIUS_FLOOR = 1e-12

Vector = tuple[float, ...]
Strategy = Callable[["GameState"], Sequence[float]]


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
        set_alpha, set_beta, set_rho, set_dimension, set_initial_center = self._setters
        set_alpha(self, alpha)
        set_beta(self, beta)
        set_rho(self, rho)
        set_dimension(self, dimension)
        set_initial_center(self, initial_center)

    def rho_n(self, n: int) -> float:
        return (self.alpha * self.beta) ** n * self.rho


class Move(FrozenRecord):
    __slots__ = ("player", "round_no", "center", "radius")

    def __init__(self, player: str, round_no: int, center: Vector, radius: float):
        set_player, set_round_no, set_center, set_radius = self._setters
        set_player(self, player)
        set_round_no(self, round_no)
        set_center(self, center)
        set_radius(self, radius)


class GameState(Record):
    """What a strategy sees: the game's params, system and seed, and, read-only
    and set by play before each move, round_no, ball (the last accepted Move,
    which the mover's ball must nest in), radius (the mover's own), reach
    (how far the mover's center may move from ball.center, net of play's
    slack, so any center within reach nests exactly) and the mover's own
    scratch."""

    __slots__ = ("params", "system", "seed", "_round_no", "_ball", "_radius", "_reach",
                 "_scratch", "_notes", "_rng")

    def __init__(self, params: GameParams, system: object, seed: int = 0):
        self.params, self.system, self.seed = params, system, seed
        self._round_no, self._ball, self._radius, self._reach, self._scratch = (
            0, None, 0.0, 0.0, {})
        self._notes: list[str] = []
        self._rng = None

    round_no = property(operator.attrgetter("_round_no"))
    ball = property(operator.attrgetter("_ball"))
    radius = property(operator.attrgetter("_radius"))
    reach = property(operator.attrgetter("_reach"))
    scratch = property(operator.attrgetter("_scratch"))

    @property
    def rng(self):
        """random.Random(seed), built on the first draw, so only a game with
        a random strategy imports random."""
        if self._rng is None:
            import random
            self._rng = random.Random(self.seed)
        return self._rng

    def note(self, text: str) -> None:
        self._notes.append(text)


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

    def to_dict(self) -> dict:
        """The trace document, schema 2: params, seed, status, notes and the
        moves, each center as float()s; every dict has its keys in sorted order."""
        p = self.params
        return {"moves": [{"center": [float(c) for c in mv.center], "player": mv.player,
                           "radius": mv.radius, "round": mv.round_no} for mv in self.moves],
                "notes": list(self.notes),
                "params": {"alpha": p.alpha, "beta": p.beta, "dimension": p.dimension,
                           "initial_center": list(p.initial_center), "rho": p.rho},
                "schema": 2, "seed": self.seed, "status": self.status}

    def to_json(self) -> str:
        """to_dict in one compact line, keys sorted as to_dict builds them, so that
        json.dumps neither sorts nor checks for cycles; NaN and inf as sort_keys=True."""
        return json.dumps(self.to_dict(), separators=(",", ":"), check_circular=False)


def game_json(setup, trace, result, violations: list[str]) -> str:
    """The game document around the trace's to_dict, written as to_json writes:
    every dict is built with its keys in sorted order, so json.dumps need not sort."""
    claim = setup.claim
    return json.dumps({
        "audit_violations": violations, "certified_digits": result.certified,
        "claim": {"block": claim.block, "kind": claim.kind, "position": claim.position},
        "preset": setup.name, "setup_notes": setup.notes, "trace": trace.to_dict(),
        "verdict": result.verdict, "verdict_reason": result.reason,
    }, separators=(",", ":"), check_circular=False)


def play(params: GameParams, alice: Strategy, bob: Strategy,
         max_rounds: int = 64, *, system, seed: int = 0) -> GameTrace:
    """Run the game to max_rounds or to the double-precision radius floor.

    Every center is validated against the containment inequality of its
    player before being accepted; a violation raises IllegalMoveError
    naming the player.  The game is played on system's domain: a system of
    another dimension or an initial center outside it is refused, and every
    center must stay in it.  A negative seed is refused.
    """
    if seed < 0:
        raise ValueError("seed must be at least 0")
    if system.dim != params.dimension:
        raise ValueError("system dimension does not match game dimension")
    x0 = tuple(map(float, params.initial_center))
    if not system.contains(x0):
        raise ValueError("initial center outside the domain")
    state = GameState(params, system, seed)
    moves = [Move("bob", 0, x0, params.rho)]
    scratch = {"alice": {}, "bob": {}}

    def move(player: str, strategy: Strategy, n: int, radius: float, reach: float) -> None:
        """Refresh what the strategy sees, then record its center once it is
        legal: finite, of the game's dimension, nested and in the domain."""
        state.params, state.system, state.seed = params, system, seed
        ball = moves[-1]
        state._round_no, state._ball, state._radius, state._reach, state._scratch = (
            n, ball, radius, max(0.0, reach - _slack(ball)), scratch[player])
        proposal = strategy(state)
        try:
            center = tuple(map(float, proposal))
        except (TypeError, ValueError):
            center = ()
        if len(center) != params.dimension or not all(map(math.isfinite, center)):
            raise IllegalMoveError(player, n, "malformed center")
        gap = _escape(ball, center, radius)
        if gap is not None:
            raise IllegalMoveError(player, n, f"ball escapes the previous one by {gap:.3e}")
        if not system.contains(center):
            raise IllegalMoveError(player, n, "center left the domain")
        moves.append(Move(player, n, center, radius))

    status = "max-rounds"
    for n in range(1, max_rounds + 1):
        rho = params.rho_n(n - 1)
        a_rad = params.alpha * rho
        b_rad = params.beta * a_rad
        if b_rad < RADIUS_FLOOR:
            status = "resolution-exhausted"
            break
        move("alice", alice, n, a_rad, (1.0 - params.alpha) * rho)
        move("bob", bob, n, b_rad, a_rad * (1.0 - params.beta))
    return GameTrace(params, seed, moves, status, state._notes)


def _slack(ball: Move) -> float:
    """How far inside its budget play publishes a mover's reach: 2^-48 of
    the ball's radius R plus four ulps of its largest center coordinate.
    With u = 2^-53, the budget (1 - alpha) R or (1 - beta) R rounds to
    within 3u R of the exact room R - r; a move of length reach along a unit
    vector, scaled and added in floats, lands within 7u R plus two ulps of
    the largest coordinate of it; _escape's float filter asks 10u R more.
    So a stock strategy's move nests exactly, and the filter decides it."""
    return 2.0 ** -48 * ball.radius + 4.0 * math.ulp(max(map(abs, ball.center)))


def _escape(outer: Move, center: Sequence[float], radius: float) -> float | None:
    """The nesting rule of play and audit_trace: None when the ball
    B(center, radius) lies inside outer's B(c', R), exactly: R - r >= 0 and
    sum (c_i - c'_i)^2 <= (R - r)^2.  Otherwise how far it reaches out,
    |c - c'| + r - R.

    A float filter answers most moves.  With u = 2^-53, math.dist's q of the
    rounded differences lies within 3u q of |c - c'| (its error is under an
    ulp since Python 3.10) and the room R - r rounds once, so a q below
    room (1 - 8u) by more than the least normal float shows an exact
    nesting.  Every other case takes the exact test in integers: each float
    is an integer over a power of two, so all share the largest denominator.
    A value that is not finite nests when its float gap is at most 0.
    """
    q = math.dist(center, outer.center)
    room = outer.radius - radius
    if q < room * (1.0 - 2.0 ** -50) - 2.0 ** -1022:
        return None
    values = (outer.radius, radius, *outer.center, *center)
    if not all(map(math.isfinite, values)):
        gap = q + radius - outer.radius
        return None if gap <= 0.0 else gap
    ratios = [x.as_integer_ratio() for x in values]
    # 2^64 times the common denominator keeps isqrt's error below 2^-64 of q
    scale = max(d for _, d in ratios) << 64
    R, r, *xs = [n * (scale // d) for n, d in ratios]
    room, dim = R - r, len(outer.center)
    N = sum((a - b) ** 2 for a, b in zip(xs[:dim], xs[dim:]))
    if room >= 0 and N <= room * room:
        return None
    root = math.isqrt(N)
    try:  # |c - c'| - room, from a difference of squares when room > 0
        return ((N - room * room) / (scale * (root + room)) if room > 0
                else (root - room) / scale)
    except OverflowError:
        return math.inf


def audit_trace(trace: GameTrace) -> list[str]:
    """Re-verify every move of a finished game from the raw record.

    Returns a list of violation descriptions; an empty list is a pass.
    Checks the opening ball, each radius against the schedule for equality
    and each ball's nesting in the one before it.
    """
    p = trace.params
    problems: list[str] = []
    prev = trace.moves[0]
    if prev.player != "bob" or prev.radius != p.rho:
        problems.append("malformed opening ball")
    for mv in trace.moves[1:]:
        n = mv.round_no
        a_rad = p.alpha * p.rho_n(n - 1)  # play's own expressions, so equality holds
        if mv.radius != (a_rad if mv.player == "alice" else p.beta * a_rad):
            problems.append(f"round {n} {mv.player}: radius off schedule")
        gap = _escape(prev, mv.center, mv.radius)
        if gap is not None:
            problems.append(f"round {n} {mv.player}: containment violated by {gap:.3e}")
        prev = mv
    return problems


# -- outcome verification ------------------------------------------------------


class Claim(FrozenRecord):
    """What a finished game is supposed to have achieved.

    kind "contains": the digits of the outcome match `block` starting at
    1-based `position`.  kind "avoids": no alignment window of length
    len(block) among the first m digits equals `block`.  Each digit is an int
    or a tuple of ints, for ==; verify_outcome asks the shape the digit
    kernel gives: an int on a 1-D system, a tuple of dim ints otherwise.
    """

    __slots__ = ("kind", "block", "position")

    def __init__(self, kind: str, block: tuple, position: int = 1):
        if kind not in ("contains", "avoids"):
            raise ValueError("claim kind must be 'contains' or 'avoids'")
        if not block:
            raise ValueError("claim block must be nonempty")
        if position < 1:
            raise ValueError("position is 1-based")
        if not all(isinstance(d, int) or isinstance(d, tuple) and all(isinstance(x, int) for x in d)
                   for d in block):
            raise ValueError("claim digits must be ints or tuples of ints")
        set_kind, set_block, set_position = self._setters
        set_kind(self, kind)
        set_block(self, block)
        set_position(self, position)


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
    cell boundary than the radius grown by |radix|^j, with the kernel's
    safety factor numeric._CERTIFIED on top.  The certified digits are a
    prefix.  One coords, then one adapter step, the kernel's walk in nudge
    mode, gives both the digits and the count, so the orbit is
    expand_digits' in nudge mode, bit for bit.  m <= 0 gives ([], 0) and
    steps nothing.
    """
    cur = system.coords(center)
    if m <= 0:
        return [], 0
    return system.step(cur, m, radius)


def verify_outcome(trace: GameTrace, system, claim: Claim, m: int) -> VerifyResult:
    """Check a claim about the outcome against the final ball of a trace.

    Verified/falsified verdicts are only issued on digits certified for the
    entire final ball; a ball straddling a needed digit boundary yields
    indeterminate, and so does a claim that needs more than m digits, an
    "avoids" block longer than m among them.  A claim digit of another shape
    than the system's digits (an int on a 1-D system, a tuple of dim ints
    otherwise) would never compare equal, and is refused with a ValueError,
    as is a negative depth m, which reads no digit and so decides nothing.
    """
    if m < 0:
        raise ValueError(f"verification depth must be nonnegative, not {m}")
    dim = system.dim
    if not all(isinstance(d, int) if dim == 1 else isinstance(d, tuple) and len(d) == dim
               for d in claim.block):
        shape = "an int" if dim == 1 else f"a tuple of {dim} ints"
        raise ValueError(f"claim digits must each be {shape} on a {dim}-D system")
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
            if pos <= certified and digits[pos - 1] != claim.block[i]:
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
    if not full_windows:
        return VerifyResult("indeterminate", digits, certified,
                            "claim extends past the requested depth")
    for w in range(full_windows):
        lo = w * L
        window = digits[lo:lo + L]
        window_certified = certified >= lo + L
        if all(a == b for a, b in zip(window, claim.block)):
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
