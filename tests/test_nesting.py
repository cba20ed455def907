"""Every move of the stock games lies exactly inside the ball before it.

Schmidt's game needs each ball inside the one before it.  play decides that
with game._escape; this recheck does not use it.  Each stored float is a
rational, so the rule R - r >= 0 and sum (c_i - c'_i)^2 <= (R - r)^2 is
checked in fractions.Fraction on the recorded centers and radii
(test_game._exactly_nested).  The games
are the eight presets at seeds 0-7, the winning ones against every Bob, and
perfbench's sweep windows (test_exact_oracle.SWEEP).
"""

import math

import pytest

from beta_arena.game import GameParams, GameTrace, Move, StrategyError
from beta_arena.presets import build_preset, run_setup
from test_exact_oracle import GAMES, SWEEP
from test_game import _exactly_nested


def not_nested(trace) -> list[str]:
    """The moves of a trace whose ball is not exactly inside the one before."""
    return [f"round {mv.round_no} {mv.player}" for prev, mv in zip(trace.moves, trace.moves[1:])
            if not _exactly_nested(prev.center, prev.radius, mv.center, mv.radius)]


def _moves(games):
    """How many moves the games made, and those that do not nest."""
    count, bad = 0, []
    for name, overrides, seed in games:
        try:
            trace, _ = run_setup(build_preset(name, **overrides), seed=seed)
        except StrategyError:
            continue
        count += len(trace.moves) - 1
        bad += [f"{name} {overrides} seed {seed}: {m}" for m in not_nested(trace)]
    return count, bad


@pytest.mark.parametrize("name, bob", GAMES, ids=[f"{n}-{b}" if b else n for n, b in GAMES])
def test_every_move_nests_exactly(name, bob):
    count, bad = _moves([(name, {"bob": bob}, seed) for seed in range(8)])
    assert count > 0
    assert bad == []


@pytest.mark.parametrize("name", sorted({g[0] for g in SWEEP}))
def test_every_move_of_the_sweep_windows_nests_exactly(name):
    count, bad = _moves([(n, {"alpha": alpha}, seed) for n, alpha, seed in SWEEP if n == name])
    assert count > 0
    assert bad == []


def test_the_check_finds_a_ball_one_float_outside():
    # B(0.75, 1/4) touches B(0.5, 1/2) from inside; at the next float up it
    # reaches out by 2^-53
    params = GameParams(0.5, 0.5, 0.5, 1, (0.5,))
    for center, want in ((0.75, []), (math.nextafter(0.75, 1.0), ["round 1 alice"])):
        moves = [Move("bob", 0, (0.5,), 0.5), Move("alice", 1, (center,), 0.25)]
        assert not_nested(GameTrace(params, 0, moves, "max-rounds")) == want
