import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from kernel_reference import reference_step

from beta_arena.complexexp import ComplexBase, F_threshold, find_n_complex
from beta_arena.game import (RADIUS_FLOOR, Claim, GameParams, GameTrace, IllegalMoveError,
                             Move, StrategyError, _escape, audit_trace, certified_digits,
                             game_json, play, verify_outcome)
from beta_arena.numeric import EPS_CMP, Quaternion, metallic_mean
from beta_arena.presets import BOBS, PRESETS, build_preset, run_setup
from beta_arena.quatexp import LatticeDomain, lipschitz, zeta_lattice
from beta_arena.realexp import A_threshold, RealBase, find_nk_real, winning_gap
from beta_arena.strategies import (alice_quaternion_componentwise, alice_random,
                                   alice_real_winning, bob_avoid_block, bob_center_hold,
                                   bob_optimal_drift, bob_random)
from beta_arena.systems import (ComplexSystem, QuatSystem, RealSystem, _exit, _halvings,
                                max_step_inside)

PHI = metallic_mean(1)


def alice_hold(s):
    """Alice keeps Bob's center: the hold phase of the winning strategies."""
    return s.ball.center


class Unbounded:
    """A domain that is all of R^dim: contains accepts every point, so play
    on it refuses no center for its place and max_step_inside returns the
    full step at its first question."""

    box = None

    def __init__(self, dim):
        self.dim = dim

    def contains(self, p):
        return True


# -- parameters and schedule ---------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        GameParams(0.0, 0.5, 1.0, 1, (0.5,))
    with pytest.raises(ValueError):
        GameParams(0.5, 1.0, 1.0, 1, (0.5,))
    with pytest.raises(ValueError):
        GameParams(0.5, 0.5, -1.0, 1, (0.5,))
    with pytest.raises(ValueError):
        GameParams(0.5, 0.5, 1.0, 3, (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        GameParams(0.5, 0.5, 1.0, 2, (0.5,))


def test_radius_schedule():
    p = GameParams(0.4, 0.5, 2.0, 1, (0.5,))
    assert p.rho_n(0) == 2.0
    assert p.rho_n(3) == pytest.approx(2.0 * 0.2 ** 3, abs=1e-15)


def test_hold_play_schedule_and_audit():
    p = GameParams(0.5, 0.5, 0.25, 1, (0.5,))
    trace = play(p, alice_hold, bob_center_hold(), max_rounds=10, system=Unbounded(1))
    assert trace.status == "max-rounds"
    assert trace.rounds_played == 10
    for mv in trace.moves:
        assert float(mv.center[0]) == 0.5
    radii = [mv.radius for mv in trace.moves]
    assert radii == sorted(radii, reverse=True)
    assert audit_trace(trace) == []


def test_resolution_floor_stops_play():
    p = GameParams(0.1, 0.1, 1.0, 1, (0.5,))
    trace = play(p, alice_hold, bob_center_hold(), max_rounds=64, system=Unbounded(1))
    assert trace.status == "resolution-exhausted"
    assert trace.final_radius >= 1e-14
    assert trace.rounds_played < 10


# -- legality enforcement ------------------------------------------------------

# A game at the edge of the nesting rule: Alice holds 0.5 at radius 1/2 and
# Bob's radius is 1/4, so Bob's ball at 0.75 touches hers from inside, and at
# the next float up, 0.75 + 2^-53, escapes it by 2^-53.
EDGE = GameParams(0.5, 0.5, 1.0, 1, (0.5,))
ABOVE = math.nextafter(0.75, 1.0)


def test_illegal_alice_is_named():
    p = GameParams(0.3, 0.5, 1.0, 1, (0.5,))

    def cheating_alice(state):
        return [c + 0.9 for c in state.ball.center]  # escapes x0-ball of radius 1

    with pytest.raises(IllegalMoveError) as exc:
        play(p, cheating_alice, bob_center_hold(), max_rounds=4, system=Unbounded(1))
    assert exc.value.player == "alice"
    assert exc.value.round_no == 1


def test_illegal_bob_is_named():
    p = GameParams(0.3, 0.5, 1.0, 1, (0.5,))

    def cheating_bob(state):
        return [c + 0.3 for c in state.ball.center]  # exceeds (1-beta) * 0.3

    with pytest.raises(IllegalMoveError) as exc:
        play(p, alice_hold, cheating_bob, max_rounds=4, system=Unbounded(1))
    assert exc.value.player == "bob"

    trace = play(EDGE, alice_hold, lambda s: (0.75,), max_rounds=1, system=Unbounded(1))
    assert audit_trace(trace) == []
    with pytest.raises(IllegalMoveError, match="escapes the previous one by 1.110e-16"):
        play(EDGE, alice_hold, lambda s: (ABOVE,), max_rounds=1, system=Unbounded(1))


def test_a_bob_escaping_by_half_the_comparison_slack_is_refused():
    # a Bob that leaves Alice's ball by EPS_CMP / 2 every round, away from
    # the nearer face of the domain
    def escaping(s):
        (c,), gap = s.ball.center, s.ball.radius - s.radius + EPS_CMP / 2.0
        return (c + gap if c < 0.5 else c - gap,)

    setup = build_preset("dwinning-golden")
    setup.bob = escaping
    with pytest.raises(IllegalMoveError, match="round 1: ball escapes the previous one by 5.000e-13"):
        run_setup(setup, seed=0)


def test_domain_escape_is_illegal():
    base = RealBase(PHI)
    p = GameParams(0.5, 0.5, 0.3, 1, (0.9,))

    def greedy_alice(state):
        return [c + 0.15 * (1.0 - 1e-9) for c in state.ball.center]

    with pytest.raises(IllegalMoveError) as exc:
        play(p, greedy_alice, bob_center_hold(), system=RealSystem(base))
    assert "domain" in str(exc.value)


def test_malformed_center_rejected():
    p = GameParams(0.3, 0.5, 1.0, 1, (0.5,))
    with pytest.raises(IllegalMoveError):
        play(p, lambda s: np.array([np.nan]), bob_center_hold(), system=Unbounded(1))
    with pytest.raises(IllegalMoveError):
        play(p, lambda s: np.array([0.5, 0.5]), bob_center_hold(), system=Unbounded(1))


def test_audit_catches_doctored_radius():
    p = GameParams(0.5, 0.5, 0.25, 1, (0.5,))
    trace = play(p, alice_hold, bob_center_hold(), max_rounds=6, system=Unbounded(1))
    mv = trace.moves[3]
    trace.moves[3] = Move(mv.player, mv.round_no, mv.center, mv.radius * 1.5)
    assert any("radius off schedule" in v for v in audit_trace(trace))


def test_audit_catches_doctored_center():
    p = GameParams(0.5, 0.5, 0.25, 1, (0.5,))
    trace = play(p, alice_hold, bob_center_hold(), max_rounds=6, system=Unbounded(1))
    mv = trace.moves[4]
    trace.moves[4] = Move(mv.player, mv.round_no, tuple(c + 0.2 for c in mv.center), mv.radius)
    assert any("containment violated" in v for v in audit_trace(trace))

    trace = play(EDGE, alice_hold, bob_center_hold(), max_rounds=1, system=Unbounded(1))
    bob = trace.moves[2]
    trace.moves[2] = Move(bob.player, bob.round_no, (0.75,), bob.radius)
    assert audit_trace(trace) == []
    trace.moves[2] = Move(bob.player, bob.round_no, (ABOVE,), bob.radius)
    assert audit_trace(trace) == ["round 1 bob: containment violated by 1.110e-16"]


@pytest.mark.parametrize("index", [0, 1, 2, 5])
def test_audit_catches_a_radius_one_ulp_off(index):
    # the schedule holds each radius to play's own expression, bit for bit;
    # a tolerance of 1e-9 of the radius would let a last-bit change through
    p = GameParams(0.3, 0.7, 0.4, 1, (0.5,))
    trace = play(p, alice_hold, bob_center_hold(), max_rounds=4, system=Unbounded(1))
    assert audit_trace(trace) == []
    mv = trace.moves[index]
    off = math.nextafter(mv.radius, 0.0)
    assert abs(off - mv.radius) <= 1e-9 * mv.radius
    trace.moves[index] = Move(mv.player, mv.round_no, mv.center, off)
    want = ("malformed opening ball" if index == 0
            else f"round {mv.round_no} {mv.player}: radius off schedule")
    assert audit_trace(trace) == [want]


# -- what a strategy sees ------------------------------------------------------

# Before the engine kept its own record, a Bob that moved Alice's ball onto
# its own last center, or planted Alice's lock target in a scratch both
# players shared, turned this verified game falsified with a clean audit.

def _componentwise_game(bob=None):
    setup = build_preset("qwinning-componentwise")
    if bob is not None:
        setup.bob = bob(setup.bob)
    return run_setup(setup, seed=0)


def test_bob_cannot_rewrite_the_ball_it_answers():
    def rewriting(drift):
        def f(s):
            ball = s.ball
            with pytest.raises(AttributeError, match="cannot assign to or delete field"):
                ball.center = s.scratch.get("last", s.params.initial_center)
            with pytest.raises(AttributeError):
                s.ball = Move(ball.player, ball.round_no, (0.5,) * 4, ball.radius)
            s.scratch["last"] = center = drift(s)
            return center
        return f

    honest, _ = _componentwise_game()
    trace, result = _componentwise_game(rewriting)
    assert trace.moves == honest.moves and trace.to_json() == honest.to_json()
    assert result.verdict == "verified"
    assert audit_trace(trace) == []


def test_bob_cannot_plant_alices_target():
    def planting(drift):
        def f(s):
            s.scratch["target"] = (0.5, 0.5, 0.5, 0.5)  # every digit (1, 1, 1, 1)
            return drift(s)
        return f

    honest, _ = _componentwise_game()
    trace, result = _componentwise_game(planting)
    assert trace.to_json() == honest.to_json()
    assert result.verdict == "verified"


def _exactly_nested(outer_center, R, center, r):
    """The nesting rule in rationals, without _escape's float filter: R - r >= 0
    and |c - c'|^2 <= (R - r)^2; a value that is not finite nests when the
    float gap is at most 0."""
    if not all(map(math.isfinite, (*outer_center, R, *center, r))):
        return math.dist(center, outer_center) + r - R <= 0.0
    room = Fraction(R) - Fraction(r)
    d2 = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(center, outer_center))
    return room >= 0 and d2 <= room * room


def _same_escape(outer, center, radius):
    """_escape decides as the exact rule does; an escape it names is not
    negative (one below the least float rounds to 0)."""
    gap = _escape(outer, center, radius)
    nested = _exactly_nested(outer.center, outer.radius, center, radius)
    return nested if gap is None else not nested and not gap < 0.0


# offsets of the inner center: O(1), tiny, subnormal, or one that takes the
# center difference past the largest float
_OFFSET = (st.floats(-1.0, 1.0) | st.floats(-1e-6, 1e-6)
           | st.integers(-64, 64).map(lambda k: k * 5e-324) | st.sampled_from([-1.7e308, 1.7e308]))
# four coordinates, of which a test takes the first dim
_CENTER4 = st.lists(st.floats(-1.0, 1.0) | st.sampled_from([0.0, 1e308]), min_size=4, max_size=4)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from((1, 2, 4)), _CENTER4, st.lists(_OFFSET, min_size=4, max_size=4),
       st.floats(1e-13, 10.0) | st.sampled_from([1e-300, 1e300]),
       st.integers(-64, 64))
def test_escape_matches_unfiltered_formula(dim, outer_center, offsets, R, k):
    # r puts the exact gap k steps of ulp(max(R, |c - c'|)) from 0, across
    # the filter's margin of 8u (R - r) and onto the touching ball itself
    outer_center = outer_center[:dim]
    center = tuple(o + e for o, e in zip(outer_center, offsets))
    n = math.dist(center, outer_center)
    outer = Move("alice", 1, tuple(outer_center), R)
    if not math.isfinite(n):
        assert _same_escape(outer, center, R / 2.0)
        return
    r = R - n + k * math.ulp(max(R, n))
    assert _same_escape(outer, center, r)
    for j in (-2, -1, 1, 2):  # a few ulps of r around it
        assert _same_escape(outer, center, r + j * math.ulp(r))


@pytest.mark.parametrize("outer_center, center, R, r", [
    ((0.0,), (5e-324 * 7,), 1e-300, 1e-300),           # subnormal difference, 1-D
    ((0.0, 0.0), (5e-324, -5e-324 * 3), 1e-310, 5e-311),  # subnormal, 2-D
    ((0.0,) * 4, (5e-324,) * 4, 1e-12, 2e-12),       # a gap of 1e-12 + 1e-323, 4-D
    ((1.7e308, 0.0), (-1.7e308, 0.0), 1.0, 0.5),     # the difference overflows
    ((1e154, 1e154), (-1e154, -1e154), 1e300, 1e300),  # its squares overflow
    ((0.0, 0.0), (1e155, 0.0), 1e160, 1.0),         # its square overflows a float
    ((0.0, -1.0), (0.28522356151969575, -1.2852235615196959), 0.00390625,
     -0.3994607790085106),                           # a negative radius, taken as it is
    ((0.5,), (math.nan,), 1.0, 0.5),                 # NaN escapes
    ((0.5, 0.5), (0.5, 0.5), math.inf, 0.5),
    # math.dist's q lies more than an ulp below |c - c'|, and R is the float
    # above q: q < R - r, yet the ball escapes
    ((9.713297436006592, 0.38353524675401784), (-55.706845119183, 68.71539718923513),
     94.59935733644086, 0.0),
    ((-0.00015073949185071323, -63.39047813279404, 42.88148138524228, 4.887969987545149e-05),
     (686.5740141625561, 518.8074284255557, -73.23110176672023, 92.51033072109558),
     912.3479437826696, 0.0),
])
def test_escape_edge_cases_match_unfiltered_formula(outer_center, center, R, r):
    assert _same_escape(Move("alice", 1, outer_center, R), center, r)


def _same_overshoot(proposal, y, max_step):
    """Whether a move from y to proposal overshoots max_step, as _escape
    decides it for a point in B(y, max_step) and as the exact length does."""
    return _same_escape(Move("bob", 1, tuple(y), max_step), proposal, 0.0)


# offsets (u, e) of the formula move, u * radius + e: at the scale of the
# step, subnormal, or past the largest float
_STEP_OFFSET = (st.floats(-1.0, 1.0).map(lambda u: (u, 0.0))
                | st.integers(-64, 64).map(lambda j: (0.0, j * 5e-324))
                | st.sampled_from([(0.0, -1.7e308), (0.0, 1.7e308)]))


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from((1, 2, 4)),
       st.floats(1e-300, 1e300) | st.sampled_from([1e-300, 2e-162, 1e-150, 1.0, 1e300]),
       st.integers(-64, 64), _CENTER4, st.lists(_STEP_OFFSET, min_size=4, max_size=4))
def test_overshoot_matches_unfiltered_distance(dim, radius, k, y, offsets):
    # max_step sits k ulps of the distance from it, across the filter's
    # margin and onto the distance itself
    y = y[:dim]
    proposal = tuple(c + u * radius + e for c, (u, e) in zip(y, offsets))
    gap = math.dist(proposal, y)
    if not math.isfinite(gap):
        assert _same_overshoot(proposal, y, radius)
        return
    max_step = gap + k * math.ulp(gap)
    for j in (-2, -1, 0, 1, 2):  # a few ulps of max_step around it
        assert _same_overshoot(proposal, y, max_step + j * math.ulp(max_step))


@pytest.mark.parametrize("proposal, y, max_step", [
    ((0.6740896286490659, -0.2587660209689042, 0.005969354830720253,
      -0.015325870491891491), (0.0,) * 4, 0.7222376316446992),  # 2 ulps above hypot
    ((2e-162, 0.0, 0.0, 0.0), (0.0,) * 4, 2.1e-162),   # the square rounds up to 5e-324
    ((1e-162,), (0.0,), 5e-324),                       # the square underflows to 0
    ((5e-324 * 3, 0.0), (0.0, -5e-324), 1e-323),        # subnormal differences
    ((1.7e308, 0.0, 0.0, 0.0), (-1.7e308, 0.0, 0.0, 0.0), 1.0),  # the difference overflows
    ((1e154, 1e154), (-1e154, -1e154), 1e300),         # its squares overflow
    ((0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 0.5, math.nan), 1.0),  # NaN overshoots
    ((0.5,), (0.25,), math.nan),
    ((0.5,), (0.25,), 0.25),                           # the distance equals max_step
])
def test_overshoot_edge_cases_match_unfiltered_distance(proposal, y, max_step):
    assert _same_overshoot(proposal, y, max_step)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 0.9), st.floats(0.1, 0.9), st.integers(0, 10_000))
def test_random_legal_players_always_audit_clean(alpha, beta, seed):
    p = GameParams(alpha, beta, 0.4, 1, (0.5,))
    trace = play(p, alice_random(), bob_random(), max_rounds=12, seed=seed,
                 system=RealSystem(RealBase(PHI)))
    assert audit_trace(trace) == []
    assert 0.0 <= float(trace.final_center[0]) < 1.0


# -- thresholds ----------------------------------------------------------------

def test_A_threshold_is_gap_root():
    # beta = A_b(alpha) balances b(K+2) * gap against 1 - alpha
    for b in (PHI, 2.5, 3.0):
        for K in (0, 1, 3):
            for alpha in (0.2, 0.35, 0.6):
                beta = A_threshold(b, K, alpha)
                if not 0.0 < beta < 1.0:
                    continue
                lhs = b * (K + 2.0) * winning_gap(alpha, beta)
                assert lhs == pytest.approx(1.0 - alpha, abs=1e-9), (b, K, alpha)


def test_F_threshold_is_gap_root():
    for r in (2.0, 4.5, 9.0):
        for alpha in (0.3, 0.5, 0.7):
            beta = F_threshold(r, alpha)
            if not 0.0 < beta < 1.0:
                continue
            lhs = winning_gap(alpha, beta)
            assert lhs == pytest.approx((1.0 - alpha) / (math.sqrt(2.0) * r),
                                        abs=1e-9), (r, alpha)


def test_F_threshold_frozen_value():
    want = (8495.0 - 180.0 * math.sqrt(2.0)) / 11901.0
    assert F_threshold(4.5, 0.6) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("huge", [1e308, 5e307, math.inf])
def test_thresholds_past_overflow_take_the_finite_limit(huge):
    # (K + 2) b or 2 sqrt(2) r (or twice it) overflows: the fraction divided
    # through by it tends to 1 / (2 - alpha)
    for alpha in (1e-6, 0.1, 0.5, 0.9):
        assert A_threshold(huge, 0, alpha) == pytest.approx(1.0 / (2.0 - alpha), rel=1e-12)
        assert F_threshold(huge, alpha) == pytest.approx(1.0 / (2.0 - alpha), rel=1e-12)


def test_winning_gap_sign():
    # (2 - alpha) beta >= 1 forces a nonpositive gap
    assert winning_gap(0.6, 0.75) <= 0.0
    assert winning_gap(0.05, 0.2) > 0.0


# -- (n, k) searches -----------------------------------------------------------

def test_find_nk_real_postconditions():
    cases = [(PHI, 0, 0.05, 0.7, 0.4), (1 + math.sqrt(2), 0, 0.05, 0.6, 0.4),
             (2.5, 6, 0.02, 0.9, 0.35), (PHI, 0, 0.3, 0.9, 1.0)]
    for b, K, alpha, beta, rho in cases:
        res = find_nk_real(b, K, alpha, beta, rho)
        assert res is not None, (b, alpha, beta)
        n, k = res
        assert n >= 1 and k >= 2
        mid = (K + 2.0) / (rho * (alpha * beta) ** n * b ** (k - 1))
        assert b * (K + 2.0) * winning_gap(alpha, beta) < mid < 1.0 - alpha


def test_find_nk_real_never_raises():
    # rho (ab)^n underflows, or b^(k-1) overflows, long before n_max: the
    # search must report exhaustion instead of raising
    for b in (PHI, metallic_mean(2), 2.5, 3.0):
        K = RealBase(b).K_b
        for factor in (1.0, 0.5):
            for i in range(1, 2000):
                for beta in (0.3, 0.5, 0.6, 0.7, 0.9):
                    res = find_nk_real(b, K, i / 2000, beta, 0.4, upper_factor=factor)
                    assert res is None or (res[0] >= 1 and res[1] >= 2)
    # the two reported cases: the dwinning-silver preset at alpha 0.4706
    # (underflow) and dwinning-golden at alpha 0.5005, beta 0.6 (overflow)
    for b, alpha in ((metallic_mean(2), 0.4706), (PHI, 0.5005)):
        assert find_nk_real(b, RealBase(b).K_b, alpha, 0.6, 0.4) is None


def test_find_nk_real_none_when_below_threshold():
    # beta below A leaves no window
    b, K, alpha = 2.5, 6, 0.4
    thr = A_threshold(b, K, alpha)
    assert 0.0 < thr < 1.0
    assert find_nk_real(b, K, alpha, thr - 0.05, 0.4) is None
    assert find_nk_real(b, K, alpha, min(0.99, thr + 0.05), 0.4) is not None


def test_find_nk_halved_window_matches_doubled_radix_threshold():
    # the componentwise search at factor 1/2 is governed by A at radix 2b
    b, K, rho = 3.0, 0, 0.3
    for alpha in (0.02, 0.05, 0.1, 0.2):
        thr = A_threshold(2.0 * b, K, alpha)
        for beta in (0.25, 0.5, 0.8):
            if abs(beta - thr) < 1e-6:
                continue
            got = find_nk_real(b, K, alpha, beta, rho, upper_factor=0.5)
            assert (got is not None) == (beta > thr), (alpha, beta, thr)


def test_find_n_complex_cases():
    # saturating parameters: one hold round suffices
    assert find_n_complex(4.5, 0.6, 0.75, 2.0, 2) == 1
    # positive gap: the hold length must fit the logarithmic window
    for rho, want in ((4.0, 1), (30.0, 2)):
        alpha, beta = 0.3, 0.55
        n = find_n_complex(4.5, alpha, beta, rho, 2)
        assert n == want, rho
        ab = alpha * beta
        g = winning_gap(alpha, beta)
        assert g > 0
        # reach at round n covers the tile-center spacing ...
        assert rho * ab ** n * (1.0 - alpha) > math.sqrt(2.0) / 4.5
        # ... while the drift penalty stays under the tile scale
        assert rho * ab ** n * g <= 4.5 ** -2 * (1.0 + 1e-9)
    # window devoid of integers, and hopeless parameters
    assert find_n_complex(4.5, 0.3, 0.5, 2.0, 2) is None
    assert find_n_complex(4.5, 0.05, 0.05, 2.0, 2) is None


# -- winning strategies end to end ----------------------------------------------

def test_real_winning_game_verifies():
    base = RealBase(PHI)
    nk = find_nk_real(PHI, 0, 0.05, 0.7, 0.4)
    n, k = nk
    params = GameParams(0.05, 0.7, 0.4, 1, (0.5,))
    trace = play(params, alice_real_winning(base, 0, n, k), bob_optimal_drift(),
                 system=RealSystem(base))
    assert audit_trace(trace) == []
    res = verify_outcome(trace, RealSystem(base), Claim("contains", (0,), k), k)
    assert res.verdict == "verified"


def test_real_winning_against_adversarial_directions():
    base = RealBase(PHI)
    n, k = find_nk_real(PHI, 0, 0.05, 0.7, 0.4)
    clipped = []

    def bob_drift_down(s):  # bob_optimal_drift's play along -1, clipped by halvings
        a, reach = s.ball.center[0], s.reach
        if s.system.contains((a - reach,)):
            return (a - reach,)
        clipped.append(a)
        return (a - _halvings(lambda t: s.system.contains((a - t,)), reach),)
    # from 0.001 the down drift meets the face at 0.0 once
    for x0 in (0.31, 0.001):
        params = GameParams(0.05, 0.7, 0.4, 1, (x0,))
        for bob in (bob_optimal_drift(), bob_drift_down):
            trace = play(params, alice_real_winning(base, 0, n, k), bob, system=RealSystem(base))
            res = verify_outcome(trace, RealSystem(base), Claim("contains", (0,), k), k)
            assert res.verdict == "verified", (x0, bob)
    assert len(clipped) == 1


def test_drift_writes_a_fixed_negative_zero_as_zero():
    # Bob's center is y + t * e_1, so a -0.0 coordinate off the drift's axis
    # becomes -0.0 + t * 0.0 == 0.0, and the trace writes 0.0 from then on
    params = GameParams(0.5, 0.5, 0.1, 2, (0.1, -0.0))
    trace = play(params, alice_hold, bob_optimal_drift(), max_rounds=3,
                 system=ComplexSystem(ComplexBase(4.5, 0.05)))
    alice, bob = trace.moves[1], trace.moves[2]
    assert (alice.player, bob.player) == ("alice", "bob")
    assert math.copysign(1.0, alice.center[1]) == -1.0
    assert math.copysign(1.0, bob.center[1]) == 1.0
    assert bob.center[0] > alice.center[0]
    assert '"center":[0.1,-0.0]' in trace.to_json()


def test_winning_strategy_survives_all_seeds():
    base = RealBase(PHI)
    n, k = find_nk_real(PHI, 0, 0.05, 0.7, 0.4)
    params = GameParams(0.05, 0.7, 0.4, 1, (0.5,))
    for seed in range(8):
        trace = play(params, alice_real_winning(base, 0, n, k), bob_random(),
                     system=RealSystem(base), seed=seed)
        res = verify_outcome(trace, RealSystem(base), Claim("contains", (0,), k), k)
        assert res.verdict == "verified", seed


def test_winning_targets_are_checked_at_build_and_never_enumerated(monkeypatch):
    # alphas just inside the golden, silver and componentwise bounds, where k
    # is 35 to 48 and listing the s_b^(k-1) blocks never finished
    def refuse(self, d, k):
        raise AssertionError("cylinder_intervals called")
    monkeypatch.setattr(RealBase, "cylinder_intervals", refuse)
    with pytest.raises(ValueError, match="k must be at least 2"):
        alice_real_winning(RealBase(PHI), 0, 1, 1)
    with pytest.raises(ValueError, match="digit 3 exceeds"):
        alice_quaternion_componentwise(RealBase(3.0), (1, 0, 3, 4), 1, 3)
    start = time.perf_counter()
    verdicts = {}
    for name, alpha in (("dwinning-golden", 0.638), ("dwinning-silver", 0.471),
                        ("qwinning-componentwise", 0.23)):
        setup = build_preset(name, alpha=alpha)
        assert setup.claim.position >= 35, name
        verdicts[name] = [run_setup(setup, seed=seed)[1].verdict for seed in range(2)]
    assert time.perf_counter() - start < 2.0
    assert verdicts["dwinning-golden"] == ["verified", "verified"]
    assert all(v in ("verified", "falsified", "indeterminate")
               for vs in verdicts.values() for v in vs)


# -- avoidance strategy ---------------------------------------------------------

def _avoid_setup(alpha):
    xi = (0.5, 0.5, 0.5, 0.5)
    params = GameParams(alpha, 1.0 / (alpha * 6.0), 0.4, 4, xi)
    system = QuatSystem(Quaternion(3.0, 3.0, 3.0, 3.0), lipschitz())
    bob = bob_avoid_block(system, xi, ((0, 0, 0, 0),))
    return params, system, bob


def test_avoidance_pins_nonzero_digits():
    params, system, bob = _avoid_setup(0.9)
    trace = play(params, alice_random(), bob, system=system, seed=3)
    assert audit_trace(trace) == []
    assert trace.notes == []  # formula moves stayed legal throughout
    m = trace.rounds_played - 2
    res = verify_outcome(trace, system, Claim("avoids", ((0, 0, 0, 0),)), m)
    assert res.verdict == "verified"


def test_avoidance_degrades_without_crashing():
    # alpha far below the hypothesis: moves get clipped, notes accumulate,
    # and the game still completes with a definite verdict
    params, system, bob = _avoid_setup(0.25)
    trace = play(params, alice_random(), bob, system=system, seed=3)
    assert trace.notes  # degradation was recorded
    res = verify_outcome(trace, system, Claim("avoids", ((0, 0, 0, 0),)),
                         max(1, trace.rounds_played - 2))
    assert res.verdict in ("verified", "falsified", "indeterminate")


def test_avoidance_takes_a_plane_and_refuses_a_line():
    # a 1-D kernel's digits are ints, which the play's images of A^-j d do
    # not take, so it refuses a 1-D system by name; a 2-D one plays
    with pytest.raises(ValueError, match="not a 1-D one"):
        bob_avoid_block(RealSystem(RealBase(3.0)), (0.5,), ((0,),))
    system = ComplexSystem(ComplexBase(4.5, 0.05))
    xi = (0.1, 0.1)
    trace = play(GameParams(0.9, 0.9, 0.4, 2, xi), alice_random(),
                 bob_avoid_block(system, xi, ((0, 0),)), max_rounds=3, system=system, seed=1)
    assert trace.rounds_played == 3
    assert audit_trace(trace) == []


def test_avoidance_note_names_the_window():
    # a clipped round leaves m in place, so the next round reads the same
    # window again; each note names it, numbered as verify_outcome numbers
    # the aligned windows
    trace, _ = run_setup(build_preset("notwinning-symmetric", alpha=0.518665), seed=2080)
    assert [note for note in trace.notes if "avoided block" in note] == [
        f"round {k}: pinned window 9 equals the avoided block" for k in (9, 10, 11)]


@pytest.mark.parametrize("preset, alpha, seed", [
    ("notwinning-lipschitz", 0.43, 2),  # clips rounds 3, 6, 7 and 9-11
    ("notwinning-hurwitz", 0.605954, 57741),
    ("notwinning-symmetric", 0.550507, 22869),
    ("notwinning-zeta", 0.141702, 20308),
])
def test_avoidance_reads_every_block_inside_the_box(monkeypatch, preset, alpha, seed):
    # Bob reads its digits off the local point of Alice's center inside the
    # cylinder its ball pins; after a clipped round that point must still be
    # taken at the depth actually pinned, so it lies in the box every round.
    # All of it is kernel arithmetic: no quaternion power is taken.
    setup = build_preset(preset, alpha=alpha)
    lattice = setup.system.lattice
    inside = []
    kernel = setup.system.kernel
    orig = kernel.expand

    def checked(u, n, nudge=False):
        inside.append(lattice.box_contains(u))
        return orig(u, n, nudge)

    def forbidden(self, n):
        raise AssertionError("Quaternion.powi called during the game")
    monkeypatch.setattr(kernel, "expand", checked)
    monkeypatch.setattr(Quaternion, "powi", forbidden)
    trace, _ = run_setup(setup, seed=seed)
    assert any("clipped" in note for note in trace.notes)
    assert len(inside) == trace.rounds_played
    assert all(inside), [r for r, ok in enumerate(inside, 1) if not ok]


# -- outcome verification --------------------------------------------------------

def test_certified_digits_respect_radius():
    base = RealBase(PHI)
    system = RealSystem(base)
    x = 0.5
    digits, certified = certified_digits(system, np.array([x]), 1e-9, 12)
    assert certified >= 8
    # all certified digits agree across the ball
    for dx in (-9e-10, 9e-10):
        other = base.digits(x + dx, certified, on_ambiguous="nudge")
        assert list(other) == digits[:certified]
    # a fat ball certifies nothing past the first boundary it straddles
    _, fat = certified_digits(system, np.array([x]), 0.2, 12)
    assert fat <= 1


@pytest.mark.parametrize("system, p, j", [
    (RealSystem(RealBase(PHI)), [0.3], 5),
    (ComplexSystem(ComplexBase(4.5, 0.05)), [0.1, 0.2], 3),
    (QuatSystem(Quaternion(3.0, 3.0, 3.0, 3.0), lipschitz()), [0.13, 0.27, 0.41, 0.66], 4),
], ids=["real", "complex", "quat"])
def test_certified_count_switches_at_the_digit_threshold(system, p, j):
    # digit j holds on the whole ball while radius * |radix|^j < margin_j;
    # the verifier asks for a (1 - 1e-9) safety factor on top
    steps, cur, growth = [], np.array(p), 1.0
    for _ in range(j + 1):
        _, cur, margin = reference_step(system.kernel, cur)
        growth *= system.radix_norm
        steps.append((margin, margin / growth))
    margin, t = steps[j - 1]
    # every earlier digit allows a radius above 2 t and digit j + 1 none as
    # large as t, so the count below is j or j - 1
    assert all(t_i > 2.0 * t for _, t_i in steps[:j - 1])
    assert steps[j][1] < 0.99 * t and 1.5 * t < margin
    for radius, want in ((t * (1.0 - 1e-8), j),      # inside, with the safety factor
                         (t * (1.0 - 1e-10), j - 1),  # inside, within the safety factor
                         (t * (1.0 + 1e-8), j - 1),   # just outside
                         (1.5 * t, j - 1)):           # below margin_j, above t
        _, certified = certified_digits(system, np.array(p), radius, j + 1)
        assert certified == want, radius


def test_verify_contains_falsified():
    base = RealBase(PHI)
    params = GameParams(0.5, 0.5, 0.25, 1, (0.5,))
    trace = play(params, alice_hold, bob_center_hold(), max_rounds=40, system=Unbounded(1))
    system = RealSystem(base)
    true_digits = base.digits(0.5, 3, on_ambiguous="nudge")
    wrong = 1 - true_digits[2]
    res = verify_outcome(trace, system, Claim("contains", (wrong,), 3), 5)
    assert res.verdict == "falsified"
    res = verify_outcome(trace, system, Claim("contains", (true_digits[2],), 3), 5)
    assert res.verdict == "verified"


def test_verify_indeterminate_on_fat_ball():
    base = RealBase(PHI)
    params = GameParams(0.5, 0.5, 0.25, 1, (0.5,))
    trace = play(params, alice_hold, bob_center_hold(), max_rounds=2, system=Unbounded(1))
    system = RealSystem(base)
    res = verify_outcome(trace, system, Claim("contains", (0,), 8), 8)
    assert res.verdict == "indeterminate"


def test_verify_avoids_falsified_when_block_present():
    base = RealBase(PHI)
    params = GameParams(0.5, 0.5, 0.25, 1, (0.5,))
    trace = play(params, alice_hold, bob_center_hold(), max_rounds=40, system=Unbounded(1))
    system = RealSystem(base)
    digs = base.digits(0.5, 4, on_ambiguous="nudge")
    res = verify_outcome(trace, system, Claim("avoids", (digs[0],)), 4)
    assert res.verdict == "falsified"


def test_claim_refuses_digits_that_would_never_compare_equal():
    # a digit written as a list or an array never equals the kernel's int tuple,
    # so a claim holding one would verify an "avoids" and falsify a "contains"
    system = QuatSystem(Quaternion(3.0, 3.0, 3.0, 3.0), lipschitz())
    params = GameParams(0.5, 0.5, 0.25, 4, (0.31, 0.17, 0.43, 0.12))
    trace = play(params, alice_hold, bob_center_hold(), max_rounds=40, system=system)
    digits, certified = certified_digits(system, trace.final_center, trace.final_radius, 4)
    assert certified == 4
    claim = Claim("contains", tuple(digits[:2]), 1)
    assert verify_outcome(trace, system, claim, 4).verdict == "verified"
    assert verify_outcome(trace, system, Claim("avoids", (digits[0],)), 4).verdict == "falsified"
    for bad in (list(digits[0]), np.array(digits[0]), tuple(map(np.int64, digits[0])),
                np.int64(1), 0.5, "ab", (0.0, 1, 0, 0)):
        with pytest.raises(ValueError, match="claim digits must be ints or tuples of ints"):
            Claim("avoids", (bad,))


def _held(system, center):
    """A game that holds its center to the radius floor: the outcome is center."""
    params = GameParams(0.5, 0.5, 0.25, system.dim, center)
    return play(params, alice_hold, bob_center_hold(), max_rounds=40, system=system)


def test_verify_refuses_claim_digits_of_another_shape():
    # a 1-D system's digits are ints and every other system's are tuples of dim
    # ints; any other shape never compares equal, so "avoids" would verify
    real = RealSystem(RealBase(PHI))
    trace = _held(real, (0.001,))
    assert certified_digits(real, (0.001,), trace.final_radius, 4) == ([0, 0, 0, 0], 4)
    assert verify_outcome(trace, real, Claim("avoids", (0,)), 4).verdict == "falsified"
    quat = QuatSystem(Quaternion(3.0, 0.0, 0.0, 0.0), lipschitz())
    complex_ = ComplexSystem(ComplexBase(4.5, 0.05))
    for system, center, block, shape in (
            (real, (0.001,), ((0,),), "an int on a 1-D system"),
            (quat, (0.01,) * 4, (0,), "a tuple of 4 ints on a 4-D system"),
            (complex_, (0.01, 0.01), ((0,),), "a tuple of 2 ints on a 2-D system")):
        trace = _held(system, center)
        with pytest.raises(ValueError, match=f"claim digits must each be {shape}"):
            verify_outcome(trace, system, Claim("avoids", block), 4)


def test_verify_avoids_shorter_than_its_block_is_indeterminate():
    # with m below the block's length no window is checked at all
    system = QuatSystem(Quaternion(3.0, 0.0, 0.0, 0.0), lipschitz())
    trace = _held(system, (0.01,) * 4)
    claim = Claim("avoids", ((0, 0, 0, 0),) * 2)
    for m in (0, 1):
        res = verify_outcome(trace, system, claim, m)
        assert (res.verdict, res.reason) == ("indeterminate",
                                             "claim extends past the requested depth"), m
        assert res.digits == [(0, 0, 0, 0)] * m
    assert verify_outcome(trace, system, claim, 2).verdict == "falsified"


def test_verify_refuses_a_negative_depth():
    # a negative m reads no digit: an "avoids" claim once came out verified
    # ("first -4 windows avoid the block"), a verdict on no digits at all
    setup = build_preset("notwinning-lipschitz")
    trace, _ = run_setup(setup, seed=0)
    for claim in (setup.claim, Claim("contains", setup.claim.block)):
        for m in (-1, -4):
            with pytest.raises(ValueError, match=f"depth must be nonnegative, not {m}"):
                verify_outcome(trace, setup.system, claim, m)
        res = verify_outcome(trace, setup.system, claim, 0)
        assert (res.verdict, res.digits, res.certified) == ("indeterminate", [], 0)


def trace_dict(trace):
    """A trace as a JSON-ready dict: schema 2, which GameTrace.to_json writes."""
    p = trace.params
    return {
        "schema": 2,
        "params": {"alpha": p.alpha, "beta": p.beta, "rho": p.rho,
                   "dimension": p.dimension, "initial_center": list(p.initial_center)},
        "seed": trace.seed,
        "status": trace.status,
        "notes": list(trace.notes),
        "moves": [{"player": mv.player, "round": mv.round_no,
                   "center": [float(c) for c in mv.center], "radius": mv.radius}
                  for mv in trace.moves],
    }


def test_trace_json_round_trip_fields():
    params = GameParams(0.5, 0.5, 0.25, 1, (0.5,))
    trace = play(params, alice_hold, bob_center_hold(), max_rounds=3, system=Unbounded(1))
    doc = json.loads(trace.to_json())
    assert doc["params"]["alpha"] == 0.5
    assert doc["status"] == "max-rounds"
    assert len(doc["moves"]) == 1 + 2 * 3
    assert doc["schema"] == 2
    assert all(sorted(mv) == ["center", "player", "radius", "round"] for mv in doc["moves"])
    assert trace.to_json() == trace.to_json()


def _dumps(trace):
    """The trace writer's specification: one compact line, keys sorted."""
    return json.dumps(trace_dict(trace), sort_keys=True, separators=(",", ":"))


NOTE = st.one_of(st.text(), st.sampled_from(
    ['say "hold"', "back\\slash", "tab\tnul\x00bell\x07\x1f", "caf\u00e9 \u2713 \U0001d538"]))
COORD = st.one_of(st.floats(-10.0, 10.0), st.integers(-3, 3),
                  st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((1, 2, 4)), st.floats(0.01, 0.99), st.floats(0.01, 0.99),
       st.one_of(st.integers(1, 5), st.floats(1e-6, 1e6)), st.data(),
       st.lists(NOTE, max_size=40), st.integers(0, 1 << 16))
def test_to_json_is_json_dumps_of_to_dict(dim, alpha, beta, rho, data, notes, seed):
    center = tuple(data.draw(st.lists(COORD, min_size=dim, max_size=dim)))
    params = GameParams(alpha, beta, rho, dim, center)
    # a center that is not finite can only open a game: no move could follow it
    rounds = data.draw(st.integers(0, 6)) if all(map(math.isfinite, center)) else 0
    trace = play(params, alice_random(), bob_random(), max_rounds=rounds, seed=seed,
                 system=Unbounded(dim))
    trace.notes = notes
    assert trace.to_json() == _dumps(trace)
    # to_dict builds every dict in sorted key order, which to_json writes unsorted
    doc = trace.to_dict()
    dicts = list(_dicts(doc))
    assert len(dicts) == 2 + len(trace.moves)  # the document, params, each move
    assert all(list(d) == sorted(d) for d in dicts)
    assert trace.to_json() == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _dicts(node):
    """Every dict in a JSON-ready tree, the root first."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _dicts(child)


def test_to_json_is_json_dumps_of_to_dict_on_every_preset():
    for name in PRESETS:
        bobs = [None] if name.startswith("notwinning") else sorted(BOBS)
        for bob in bobs:
            for seed in range(8):
                try:
                    trace, _ = run_setup(build_preset(name, bob=bob), seed=seed)
                except StrategyError:
                    continue
                assert trace.to_json() == _dumps(trace), (name, bob, seed)


def test_game_json_is_json_dumps_of_its_document():
    # one winning and one losing game, with and without audit violations;
    # the document's keys are listed out of order, and sort_keys sorts them
    for name, violations in (("dwinning-golden", []), ("notwinning-lipschitz", ["v1", "v0"])):
        setup = build_preset(name)
        trace, result = run_setup(setup, seed=0)
        claim = setup.claim
        doc = {"verdict_reason": result.reason, "verdict": result.verdict,
               "trace": trace_dict(trace), "setup_notes": setup.notes, "preset": setup.name,
               "claim": {"position": claim.position, "kind": claim.kind, "block": claim.block},
               "certified_digits": result.certified, "audit_violations": violations}
        want = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert game_json(setup, trace, result, violations) == want, name


def test_random_players_refuse_a_draw_that_escapes_by_rounding():
    # centers 4e4 from the origin round by ulps as large as the last radii
    # (5.4e-6); play's slack of four ulps of the largest coordinate keeps a
    # draw at the edge of Bob's reach inside Alice's ball
    params = GameParams(0.01, 0.01, 53568, 4, (0, 0, 0, 0))
    trace = play(params, alice_random(), bob_random(), max_rounds=4, seed=49624,
                 system=Unbounded(4))
    assert (trace.status, trace.rounds_played) == ("max-rounds", 4)
    assert audit_trace(trace) == []
    assert trace.to_json() == _dumps(trace)


def test_to_json_writes_numpy_floats_and_empty_lists_as_json_does():
    params = GameParams(np.float64(0.5), 0.5, np.float64(0.25), 1, (np.float64(0.5),))
    trace = GameTrace(params, 0, [], "max-rounds")
    assert trace.to_json() == _dumps(trace)
    assert '"moves":[],"notes":[]' in trace.to_json()
    # hand-built centers: each coordinate is written as float() of it
    centers = [(0, 0), (1, -2), (np.float32(0.1), np.float32(-0.3)),
               (np.float64(0.25), 3), (math.inf, 0), (np.float32(math.nan), 1)]
    moves = [Move("bob", k, c, 1.0) for k, c in enumerate(centers)]
    trace = GameTrace(GameParams(0.5, 0.5, 1.0, 2, (0.0, 0.0)), 0, moves, "max-rounds")
    assert trace.to_json() == _dumps(trace)
    assert '"center":[0.0,0.0]' in trace.to_json()
    # moves as play records them, with one odd move appended
    for dim in (1, 2, 4):
        played = play(GameParams(0.5, 0.5, 1.0, dim, (0.5,) * dim), alice_random(),
                      bob_random(), max_rounds=3, seed=dim, system=Unbounded(dim))
        c = played.moves[-1].center
        odd = [Move("bob", 4, c, 1), Move("bob", 4, c, np.float64(0.125)),
               Move("bob", 4, (math.inf,) + c[1:], 0.125),
               Move("bob", 4, (math.nan,) + c[1:], 0.125),
               Move("bob", 4, (np.float64(0.25),) + c[1:], 0.125),
               Move("bob", 4, (1,) + c[1:], 0.125), Move("bob", 4, c + (0.5,), 0.125)]
        for mv in odd:
            trace = GameTrace(played.params, played.seed, played.moves + [mv], played.status)
            assert trace.to_json() == _dumps(trace), (dim, mv)


# -- the drift's exit at the domain's face ------------------------------------------

def _array_max_step_inside(system, start, step):
    """Halvings of [0, step] along e_1 on contains, in numpy arrays, down to
    adjacent floats: the t they end on is inside and the next float is not.
    The oracle of max_step_inside, with its answers for a start outside and
    a step that is not finite and above 0."""
    direction = np.zeros(len(start))
    direction[0] = 1.0
    if system is None or system.contains(start + step * direction):
        return step
    if not (0.0 < step < math.inf and system.contains(start + 0.0 * direction)):
        return 0.0
    lo, hi = 0.0, step
    while True:
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            return lo
        if system.contains(start + mid * direction):
            lo = mid
        else:
            hi = mid


_ZETA = zeta_lattice(Quaternion(0.0, 6.0, 0.0, 0.0), Quaternion(0.0, 0.0, 1.0, 0.0), 0.25)
# a basis with a sheared fourth vector: no box, so every probe calls contains
_SHEARED = LatticeDomain((Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0),
                          Quaternion(0, 0, 1, 0), Quaternion(0, 0.5, 0.25, 1)), (0.0,) * 4)
STEP_SYSTEMS = (
    RealSystem(RealBase(PHI)),
    ComplexSystem(ComplexBase(4.5, 0.05)),
    QuatSystem(Quaternion(3.0, 3.0, 3.0, 3.0), lipschitz()),
    QuatSystem(Quaternion(0.0, 6.0, 0.0, 0.0), _ZETA),
    QuatSystem(Quaternion(3.0, 3.0, 3.0, 3.0), _SHEARED),
)


def _inside_point(system, u):
    if system.dim == 1:
        return np.array(u[:1])
    if system.dim == 2:
        return np.array([lo + x for lo, x in zip(system.base.lo, u)])
    lat = system.lattice
    return lat.B @ np.array([lo + x for lo, x in zip(lat.offsets, u)])


class _CountingSystem:
    """A system whose contains calls are counted."""

    def __init__(self, system):
        self.system, self.box, self.calls = system, system.box, 0

    def contains(self, p):
        self.calls += 1
        return self.system.contains(p)


# lattice coordinates of the start: mostly inside the box, some outside it,
# some on a face (0.0 is the lower face, 1.0 the last float below the upper)
START = st.lists(st.floats(0.0, 0.999) | st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0]),
                 min_size=4, max_size=4)
STEP = (st.floats(RADIUS_FLOOR, 3.0)
        | st.sampled_from([RADIUS_FLOOR, 1e-10, 1e-6, 3.0, math.inf, math.nan]))


def _start(system, u):
    """The start _inside_point gives, with each coordinate whose u is 1.0
    moved down to the last float its box axis admits."""
    start = _inside_point(system, u)
    for i, (scale, lower) in enumerate(system.box or ()):
        while u[i] == 1.0 and not lower <= scale * start[i] < lower + 1.0:
            start[i] = math.nextafter(start[i], -math.inf)
    return start


def test_step_systems_cover_box_and_fallback():
    assert STEP_SYSTEMS[-1].box is None
    assert all(s.box is not None for s in STEP_SYSTEMS[:-1])
    assert STEP_SYSTEMS[3].box[1] == (1.0 / 6.0, -0.25)  # zeta's scale


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(STEP_SYSTEMS), START, STEP)
def test_max_step_inside_matches_array_bisection(system, u, step):
    start = _start(system, u)
    # from the start, then from the exit Bob's drift moves to, which sits on
    # or next to a face when the first step is clipped
    for _ in range(2):
        with np.errstate(invalid="ignore", over="ignore"):
            want = _array_max_step_inside(system, start, step)
        counted = _CountingSystem(system)
        got = max_step_inside(counted, start, step)
        assert got.hex() == want.hex()
        if system.box is not None:  # only the full step asks contains
            assert counted.calls == 1
        start = start.copy()
        start[0] += got


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(STEP_SYSTEMS[:-1]),
       st.lists(st.floats(0.001, 0.999) | st.just(1.0), min_size=4, max_size=4),
       st.floats(RADIUS_FLOOR, 3.0))
def test_max_step_inside_finds_the_crossing_without_probing(system, u, step):
    # from a start inside, or on an upper face, the first axis's crossing
    # gives the exit: the point there is inside and the one at the next
    # float is not, and contains is asked only about the full step
    start = _start(system, u)
    counted = _CountingSystem(system)
    t = max_step_inside(counted, start, step)
    assert counted.calls == 1
    if t < step:
        assert system.contains([start[0] + t, *start[1:]])
        assert not system.contains([start[0] + math.nextafter(t, math.inf), *start[1:]])


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(sorted({axis for s in STEP_SYSTEMS[:-1] for axis in s.box})),
       st.floats(0.0, 1.0, exclude_max=True))
def test_exit_is_the_crossing_at_unit_speed(axis, u):
    # Bob's drift moves along e_1; the crossing _exit computes is the
    # largest t that stays inside, with no step onto it
    scale, lower = axis
    a = (lower + u) / scale
    assume(lower <= scale * a < lower + 1.0)
    t = _exit(a, scale, lower, lower + 1.0)
    assert lower <= scale * (a + t) < lower + 1.0
    assert not lower <= scale * (a + math.nextafter(t, math.inf)) < lower + 1.0


HALVING_STEPS = (RADIUS_FLOOR, 1e-10, 1e-6, 0.1, 1.0, 3.0, 2.0 ** -30,
                 math.nextafter(1.0, 0.0), math.nextafter(2.0, 3.0), 1e-300, 1e300)


@pytest.mark.parametrize("step", HALVING_STEPS)
def test_halvings_end_on_the_crossing_from_step_over_32(step):
    # a domain with no box is halved down to adjacent floats, so the exit
    # is the crossing t itself: at step / 32, the floats around it, the float
    # below step, and the powers of two under step down to 2^-70 of it
    edge = step / 32.0
    ts = [edge, math.nextafter(edge, 0.0), math.nextafter(edge, step),
          math.nextafter(step, 0.0), math.nextafter(edge / 8.0, 0.0),
          step / 300.0, step / 1000.0, step / 5000.0, step / 1e6]
    ts += [math.ldexp(1.0, e) for e in range(math.frexp(step)[1] - 70, math.frexp(step)[1])
           if math.ldexp(1.0, e) < step]
    for t in ts:
        assert _halvings(t.__ge__, step) == t


@settings(max_examples=1000, deadline=None)
@given(st.floats(1e-300, 1e300), st.floats(1.0 / 32.0, 1.0, exclude_max=True))
def test_halvings_reach_any_crossing_from_step_over_32(step, fraction):
    t = step * fraction
    assume(step / 32.0 <= t < step)
    assert _halvings(t.__ge__, step) == t


@pytest.mark.parametrize("step", (1.0, 3.0, 0.1, 1e-6))
@pytest.mark.parametrize("k", (31, 32, 33, 100, 300, 1000, 5000, 10 ** 6))
def test_max_step_inside_replays_far_from_the_face(step, k):
    # a start step / k below the face, from beside it to far from it: the
    # drift ends on the last float below the face, as halvings find it
    system = STEP_SYSTEMS[0]
    start = np.array([1.0 - step / k])
    want = _array_max_step_inside(system, start, step)
    got = max_step_inside(system, start, step)
    assert got.hex() == want.hex()
    assert start[0] + got == math.nextafter(1.0, 0.0)
