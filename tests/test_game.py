import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beta_arena.complexexp import ComplexBase
from beta_arena.game import (A_threshold, Claim, F_threshold, GameParams,
                             IllegalMoveError, StrategyError, _max_step_inside,
                             _norm, alice_center_hold,
                             alice_quaternion_componentwise, alice_random,
                             alice_real_winning, audit_trace,
                             bob_avoid_block, bob_center_hold,
                             bob_optimal_drift, bob_random, certified_digits,
                             find_n_complex, find_nk_real, play,
                             verify_outcome, winning_gap)
from beta_arena.numeric import DigitKernel, Quaternion, metallic_mean
from beta_arena.presets import build_preset, run_setup
from beta_arena.quatexp import lipschitz, zeta_lattice
from beta_arena.realexp import RealBase
from beta_arena.systems import ComplexSystem, QuatSystem, RealSystem

PHI = metallic_mean(1)


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
    trace = play(p, alice_center_hold(), bob_center_hold(), max_rounds=10)
    assert trace.status == "max-rounds"
    assert trace.rounds_played == 10
    for mv in trace.moves:
        assert float(mv.center[0]) == 0.5
    radii = [mv.radius for mv in trace.moves]
    assert radii == sorted(radii, reverse=True)
    assert audit_trace(trace) == []


def test_resolution_floor_stops_play():
    p = GameParams(0.1, 0.1, 1.0, 1, (0.5,))
    trace = play(p, alice_center_hold(), bob_center_hold(), max_rounds=64)
    assert trace.status == "resolution-exhausted"
    assert trace.final_radius >= 1e-14
    assert trace.rounds_played < 10


# -- legality enforcement ------------------------------------------------------

def test_illegal_alice_is_named():
    p = GameParams(0.3, 0.5, 1.0, 1, (0.5,))

    def cheating_alice(state):
        return state.bob_ball().center + 0.9  # escapes x0-ball of radius 1

    with pytest.raises(IllegalMoveError) as exc:
        play(p, cheating_alice, bob_center_hold(), max_rounds=4)
    assert exc.value.player == "alice"
    assert exc.value.round_no == 1


def test_illegal_bob_is_named():
    p = GameParams(0.3, 0.5, 1.0, 1, (0.5,))

    def cheating_bob(state):
        return state.alice_ball().center + 0.3  # exceeds (1-beta) * 0.3

    with pytest.raises(IllegalMoveError) as exc:
        play(p, alice_center_hold(), cheating_bob, max_rounds=4)
    assert exc.value.player == "bob"


def test_domain_escape_is_illegal():
    base = RealBase(PHI)
    p = GameParams(0.5, 0.5, 0.3, 1, (0.9,))

    def greedy_alice(state):
        return state.bob_ball().center + 0.15 * (1.0 - 1e-9)

    with pytest.raises(IllegalMoveError) as exc:
        play(p, greedy_alice, bob_center_hold(), system=RealSystem(base))
    assert "domain" in str(exc.value)


def test_malformed_center_rejected():
    p = GameParams(0.3, 0.5, 1.0, 1, (0.5,))
    with pytest.raises(IllegalMoveError):
        play(p, lambda s: np.array([np.nan]), bob_center_hold())
    with pytest.raises(IllegalMoveError):
        play(p, lambda s: np.array([0.5, 0.5]), bob_center_hold())


def test_audit_catches_doctored_radius():
    p = GameParams(0.5, 0.5, 0.25, 1, (0.5,))
    trace = play(p, alice_center_hold(), bob_center_hold(), max_rounds=6)
    trace.moves[3].radius *= 1.5
    assert any("radius off schedule" in v for v in audit_trace(trace))


def test_audit_catches_doctored_center():
    p = GameParams(0.5, 0.5, 0.25, 1, (0.5,))
    trace = play(p, alice_center_hold(), bob_center_hold(), max_rounds=6)
    trace.moves[4].center = trace.moves[4].center + 0.2
    assert any("containment violated" in v for v in audit_trace(trace))


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
    params = GameParams(0.05, 0.7, 0.4, 1, (0.31,))
    for direction in ([1.0], [-1.0]):
        trace = play(params, alice_real_winning(base, 0, n, k),
                     bob_optimal_drift(direction), system=RealSystem(base))
        res = verify_outcome(trace, RealSystem(base), Claim("contains", (0,), k), k)
        assert res.verdict == "verified", direction


def test_winning_strategy_survives_all_seeds():
    base = RealBase(PHI)
    n, k = find_nk_real(PHI, 0, 0.05, 0.7, 0.4)
    params = GameParams(0.05, 0.7, 0.4, 1, (0.5,))
    for seed in range(8):
        trace = play(params, alice_real_winning(base, 0, n, k), bob_random(),
                     system=RealSystem(base), seed=seed)
        res = verify_outcome(trace, RealSystem(base), Claim("contains", (0,), k), k)
        assert res.verdict == "verified", seed


def test_componentwise_decomposes_each_distinct_digit_once(monkeypatch):
    calls = []
    orig = RealBase.cylinder_intervals

    def counted(self, d, k):
        calls.append(d)
        return orig(self, d, k)
    monkeypatch.setattr(RealBase, "cylinder_intervals", counted)
    alice_quaternion_componentwise(RealBase(3.0), (1, 0, 1, 0), 1, 3)
    assert calls == [1, 0]


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


@pytest.mark.parametrize("preset, alpha, seed", [
    ("notwinning-lipschitz", 0.43, 2),  # clips rounds 8 and 12
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
    orig = DigitKernel.expand

    def checked(self, u, n, nudge=False):
        inside.append(lattice.box_contains(u))
        return orig(self, u, n, nudge)

    def forbidden(self, n):
        raise AssertionError("Quaternion.powi called during the game")
    monkeypatch.setattr(DigitKernel, "expand", checked)
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
        _, cur, margin = system.step(cur, "nudge")
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
    trace = play(params, alice_center_hold(), bob_center_hold(), max_rounds=40)
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
    trace = play(params, alice_center_hold(), bob_center_hold(), max_rounds=2)
    system = RealSystem(base)
    res = verify_outcome(trace, system, Claim("contains", (0,), 8), 8)
    assert res.verdict == "indeterminate"


def test_verify_avoids_falsified_when_block_present():
    base = RealBase(PHI)
    params = GameParams(0.5, 0.5, 0.25, 1, (0.5,))
    trace = play(params, alice_center_hold(), bob_center_hold(), max_rounds=40)
    system = RealSystem(base)
    digs = base.digits(0.5, 4, on_ambiguous="nudge")
    res = verify_outcome(trace, system, Claim("avoids", (digs[0],)), 4)
    assert res.verdict == "falsified"


def test_trace_json_round_trip_fields():
    params = GameParams(0.5, 0.5, 0.25, 1, (0.5,))
    trace = play(params, alice_center_hold(), bob_center_hold(), max_rounds=3)
    doc = trace.to_dict()
    assert doc["params"]["alpha"] == 0.5
    assert doc["status"] == "max-rounds"
    assert len(doc["moves"]) == 1 + 2 * 3
    assert all(mv["legal"] for mv in doc["moves"])
    assert trace.to_json() == trace.to_json()


# -- fast paths against their numpy originals -------------------------------------

def test_norm_matches_numpy_bitwise_on_random_vectors():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 4):
        vs = rng.normal(size=(4000, dim)) * 10.0 ** rng.uniform(-13, 1, size=(4000, 1))
        for v in vs:
            assert _norm(v).hex() == float(np.linalg.norm(v)).hex(), v


_signed = st.tuples(st.booleans(), st.floats(1e-13, 10.0)).map(
    lambda t: -t[1] if t[0] else t[1])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 2, 4)).flatmap(
    lambda dim: st.lists(_signed, min_size=dim, max_size=dim)))
def test_norm_matches_numpy_bitwise(components):
    v = np.array(components)
    assert _norm(v).hex() == float(np.linalg.norm(v)).hex()


def _array_max_step_inside(system, start, direction, step):
    """The array bisection _max_step_inside replaced, kept as its oracle."""
    if system is None or system.contains(start + step * direction):
        return step
    lo, hi = 0.0, step
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if system.contains(start + mid * direction):
            lo = mid
        else:
            hi = mid
    return lo * (1.0 - 1e-9)


_ZETA = zeta_lattice(Quaternion(0.0, 6.0, 0.0, 0.0), Quaternion(0.0, 0.0, 1.0, 0.0), 0.25)
STEP_SYSTEMS = (
    RealSystem(RealBase(PHI)),
    ComplexSystem(ComplexBase(4.5, 0.05)),
    QuatSystem(Quaternion(3.0, 3.0, 3.0, 3.0), lipschitz()),
    QuatSystem(Quaternion(0.0, 6.0, 0.0, 0.0), _ZETA),
)


def _inside_point(system, u):
    if system.dim == 1:
        return np.array(u[:1])
    if system.dim == 2:
        return np.array([lo + x for lo, x in zip(system.base.lo, u)])
    lat = system.lattice
    return lat.B @ np.array([lo + x for lo, x in zip(lat.offsets, u)])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(STEP_SYSTEMS),
       st.lists(st.floats(0.0, 0.999), min_size=4, max_size=4),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.floats(1e-12, 3.0))
def test_max_step_inside_matches_array_bisection(system, u, d, step):
    start = _inside_point(system, u)
    direction = np.array(d[:system.dim])
    want = _array_max_step_inside(system, start, direction, step)
    assert _max_step_inside(system, start, direction, step).hex() == want.hex()
    assert _max_step_inside(None, start, direction, step) == step
