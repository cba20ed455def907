"""Schmidt (alpha, beta, rho)-game engine, trace writer and verifier.

Bob opens with a ball of radius rho; thereafter Alice places a ball of
radius alpha times the current one inside it, Bob answers inside hers with
the radius scaled by beta, and the intersection point of the chain is the
outcome.  Radii are forced by the schedule rho_n = (alpha beta)^n rho, so a
move is just a center; the engine validates both containment inequalities
with a small comparison slack and keeps centers inside the expansion domain
when one is attached (the game is played on the domain as a metric space).
Double precision runs out near radius 1e-12, so games stop there rather
than pretending to resolve further digits.

Strategies (strategies.py) are callables GameState -> center that may
return any float sequence; play alone keeps the record and the radius
schedule.  The game document has one writer, game_json with
GameTrace.to_json, and the verifier decides what a finished game proved.
"""

from __future__ import annotations

import math
import operator
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Sequence

from .numeric import _HUGE, EPS_CMP, FrozenRecord, Record, _distance

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
    (how far the mover's center may move from ball.center) and the mover's
    own scratch."""

    __slots__ = ("params", "system", "seed", "_round_no", "_ball", "_radius", "_reach",
                 "_scratch", "_notes", "_rng")

    def __init__(self, params: GameParams, system: object | None, seed: int = 0):
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
        """numpy's PCG64 generator for the game's seed, built on the first
        draw, so only a game with a random strategy loads numpy.random."""
        if self._rng is None:
            import numpy as np
            self._rng = np.random.default_rng(self.seed)
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

    def to_json(self) -> str:
        """The trace as json.dumps(sort_keys=True, indent=2) writes its params,
        seed, status, notes and moves (center as float()s, "legal": true), plus
        a newline, byte for byte: the indenting encoder is pure Python and cost
        more per game than play and verify."""
        p = self.params
        return ('{\n  "moves": ' + _json_list(_moves_json(self.moves, p.dimension), "  ")
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


# _MOVE_JSON by dimension, with each center coordinate a field of its own;
# %s writes a float as float.__repr__ and an int as int.__repr__
_MOVE_FORMAT = {dim: _MOVE_JSON.replace("%s", _json_list(["%s"] * dim, "      "), 1)
                for dim in (1, 2, 4)}
_center, _radius, _round_no = map(operator.attrgetter, ("center", "radius", "round_no"))


def _moves_json(moves: list[Move], dim: int) -> list[str]:
    """Each move as _MOVE_JSON lays it out.

    Moves as play records them, dim finite floats to a center, a finite
    float radius and an int round, take one _MOVE_FORMAT string each, as
    float.__repr__ is what json.dumps writes for such a float.  A sum of
    finite floats is finite unless it overflows, so a finite sum shows that
    every number is finite, and an overflowed one only sends the trace to
    the general path.  Any other trace (a numpy float, an int coordinate, a
    value that is not finite) writes each field with _json_center and
    _json_number, which give the same bytes.
    """
    centers = list(map(_center, moves))
    numbers = [*chain.from_iterable(centers), *map(_radius, moves)]
    if (set(map(len, centers)) <= {dim}
            and set(map(type, numbers)) <= {float} and math.isfinite(sum(numbers))
            and set(map(type, map(_round_no, moves))) <= {int}):
        fmt = _MOVE_FORMAT[dim]
        return [fmt % (*mv.center, _json_str(mv.player), mv.radius, mv.round_no)
                for mv in moves]
    return [_MOVE_JSON % (_json_center(mv.center), _json_str(mv.player),
                          _json_number(mv.radius), _json_number(mv.round_no))
            for mv in moves]


def game_json(setup, trace, result, violations: list[str]) -> str:
    """The game document as json.dumps(sort_keys=True, indent=2) writes it, byte
    for byte, with GameTrace.to_json spliced in one level down."""
    block = [_json_list(list(map(_json_number, d)), "      ") if isinstance(d, tuple)
             else _json_number(d) for d in setup.claim.block]
    return ('{\n  "audit_violations": ' + _json_list(list(map(_json_str, violations)), "  ")
            + ',\n  "certified_digits": ' + _json_number(result.certified)
            + ',\n  "claim": {\n    "block": ' + _json_list(block, "    ")
            + ',\n    "kind": ' + _json_str(setup.claim.kind)
            + ',\n    "position": ' + _json_number(setup.claim.position)
            + '\n  },\n  "preset": ' + _json_str(setup.name)
            + ',\n  "setup_notes": ' + _json_list(list(map(_json_str, setup.notes)), "  ")
            + ',\n  "trace": ' + trace.to_json()[:-1].replace("\n", "\n  ")
            + ',\n  "verdict": ' + _json_str(result.verdict)
            + ',\n  "verdict_reason": ' + _json_str(result.reason) + "\n}")


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
    moves = [Move("bob", 0, x0, params.rho)]
    scratch = {"alice": {}, "bob": {}}

    def move(player: str, strategy: Strategy, n: int, radius: float, reach: float) -> None:
        """Refresh what the strategy sees, then record its center once it is
        legal: finite, of the game's dimension, nested and in the domain."""
        state.params, state.system, state.seed = params, system, seed
        state._round_no, state._ball, state._radius, state._reach, state._scratch = (
            n, moves[-1], radius, reach, scratch[player])
        proposal = strategy(state)
        try:
            center = tuple(map(float, proposal))
        except (TypeError, ValueError):
            center = ()
        if len(center) != params.dimension or not all(map(math.isfinite, center)):
            raise IllegalMoveError(player, n, "malformed center")
        gap = _escape(moves[-1], center, radius)
        if gap is not None:
            raise IllegalMoveError(player, n, f"ball escapes the previous one by {gap:.3e}")
        if system is not None and not system.contains(center):
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
