import collections
import os
import random

import pytest

from beta_arena import cli, complexexp, presets, quatexp
from beta_arena.complexexp import ComplexBase
from beta_arena.game import StrategyError, audit_trace
from beta_arena.presets import (PRESETS, build_preset, real_winning_setup,
                                run_setup)
from beta_arena.realexp import RealBase
from beta_arena.systems import QuatSystem

WINNING = ["dwinning-golden", "dwinning-silver", "cwinning-nine-halves",
           "qwinning-componentwise"]
LOSING = ["notwinning-lipschitz", "notwinning-hurwitz", "notwinning-symmetric",
          "notwinning-zeta"]


def clear_preset_caches():
    """Empty every per-process cache of presets.py, so the next build is cold."""
    for obj in vars(presets).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def test_catalog_is_complete():
    assert sorted(PRESETS) == sorted(WINNING + LOSING)


@pytest.mark.parametrize("name", WINNING)
def test_winning_presets_verify(name):
    setup = build_preset(name)
    assert setup.claim.kind == "contains"
    assert setup.notes == []  # hypotheses hold out of the box
    trace, result = run_setup(setup, seed=0)
    assert audit_trace(trace) == []
    assert result.verdict == "verified", (name, result.reason)


@pytest.mark.parametrize("name", LOSING)
def test_losing_presets_verify(name):
    setup = build_preset(name)
    assert setup.claim.kind == "avoids"
    assert setup.notes == []
    trace, result = run_setup(setup, seed=0)
    assert audit_trace(trace) == []
    assert result.verdict == "verified", (name, result.reason)
    assert trace.notes == []  # the formula move never needed clipping


@pytest.mark.parametrize("name", WINNING)
def test_winning_presets_beat_random_bob(name):
    setup = build_preset(name, bob="random")
    trace, result = run_setup(setup, seed=11)
    assert result.verdict == "verified", (name, result.reason)


@pytest.mark.parametrize("name", ["dwinning-golden", "notwinning-lipschitz"])
def test_play_refuses_a_negative_seed(name):
    # random.Random(-1) would play random.Random(1)'s stream, and golden's
    # game draws nothing from its seed: both are refused by name
    with pytest.raises(ValueError, match="^seed must be at least 0$"):
        run_setup(build_preset(name), seed=-1)


def test_losing_preset_beta_is_pinned():
    setup = build_preset("notwinning-hurwitz")
    p = setup.params
    assert p.alpha * p.beta * 5.0 == pytest.approx(1.0, abs=1e-12)
    setup = build_preset("notwinning-zeta")
    p = setup.params
    assert p.alpha * p.beta * 36.0 == pytest.approx(1.0, abs=1e-12)


def test_broken_alpha_is_flagged_not_fatal():
    setup = build_preset("notwinning-lipschitz", alpha=0.2)
    assert any("below the avoidance bound" in n for n in setup.notes)
    trace, result = run_setup(setup, seed=0)
    assert result.verdict in ("verified", "falsified", "indeterminate")


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        build_preset("no-such-thing")


@pytest.mark.parametrize("name, option", [
    ("notwinning-symmetric", "rho"),  # its radius comes from eps and tau
    ("notwinning-lipschitz", "bob"),  # the losing presets fix their Bob
    ("cwinning-nine-halves", "no_such_option"),
])
def test_unknown_override_rejected(name, option):
    with pytest.raises(ValueError, match=f"preset '{name}' does not take '{option}'"):
        build_preset(name, **{option: 0.1})


def test_override_replaces_preset_argument():
    assert build_preset("dwinning-silver").params.beta == 0.6
    assert build_preset("dwinning-silver", beta=0.65).params.beta == 0.65
    assert build_preset("dwinning-silver", beta=None).params.beta == 0.6


def test_unresolved_tail_base_refused():
    # b = 2.5 only yields an observed zero-run bound, never a certified one;
    # the winning threshold leans on that bound, so the builder must balk
    with pytest.raises(StrategyError, match="not resolved"):
        real_winning_setup(2.5)


def test_componentwise_preset_builds_one_real_base(monkeypatch):
    # the window search and the strategy share the base instead of each
    # building their own, and a second game reuses it
    clear_preset_caches()
    built = []
    orig = RealBase.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        orig(self, *args, **kwargs)
    monkeypatch.setattr(RealBase, "__init__", counted)
    build_preset("qwinning-componentwise")
    assert built == [(3.0,)]
    build_preset("qwinning-componentwise", alpha=0.05)
    assert built == [(3.0,)]


@pytest.mark.parametrize("preset, grid, built", [
    ("dwinning-golden", "0.3:0.775:0.025", {"RealBase": 1}),
    ("cwinning-nine-halves", "0.5:0.975:0.025", {"ComplexBase": 1, "Vk_squares": 1}),
    ("notwinning-zeta", "0.26:0.45:0.01", {"QuatSystem": 1}),
])
def test_scan_builds_each_system_once(monkeypatch, preset, grid, built):
    # a 20-point scan at two seeds plays 40 games on one system
    assert len(cli.parse_grid(grid)) == 20
    clear_preset_caches()
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for cls in (RealBase, ComplexBase, QuatSystem):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    # presets imports Vk_squares from complexexp when it builds a system
    monkeypatch.setattr(complexexp, "Vk_squares", counted("Vk_squares", complexexp.Vk_squares))
    assert cli.main(["scan", "--preset", preset, "--alpha", grid, "--seeds", "2",
                     "--out", os.devnull]) == 0
    assert calls == built


def _trace_bytes(name, seed, overrides):
    return run_setup(build_preset(name, **overrides), seed=seed)[0].to_json()


def test_warm_caches_leak_nothing_between_games():
    # games between the default ones override alpha, beta and rho; those at a
    # preset's own rho run to 64 rounds and grow the shared powers of A far
    # past the depth a default game reads
    between = [("notwinning-lipschitz", 1, {"alpha": 0.95, "beta": 0.9}),
               ("notwinning-hurwitz", 2, {"beta": 0.9}),
               ("notwinning-symmetric", 3, {"alpha": 0.9, "beta": 0.9}),
               ("notwinning-zeta", 0, {"alpha": 0.3, "beta": 0.9}),
               ("notwinning-hurwitz", 1, {"alpha": 0.7, "rho": 0.2}),
               ("notwinning-zeta", 2, {"alpha": 0.4, "rho": 0.4}),
               ("notwinning-lipschitz", 3, {"alpha": 0.5, "rho": 0.3}),
               ("cwinning-nine-halves", 0, {"alpha": 0.9, "bob": "random"}),
               ("dwinning-golden", 1, {"alpha": 0.2, "rho": 0.3}),
               ("qwinning-componentwise", 2, {"alpha": 0.15, "bob": "random"})]
    games = [(name, seed, {}) for name in PRESETS for seed in range(4)]
    random.Random(12).shuffle(games)
    order = [g for pair in zip(games, between * 4) for g in reversed(pair)]
    cold = {}
    for name, seed, overrides in order:
        clear_preset_caches()
        cold[name, seed, str(overrides)] = _trace_bytes(name, seed, overrides)
    clear_preset_caches()
    for name, seed, overrides in order:
        assert _trace_bytes(name, seed, overrides) == cold[name, seed, str(overrides)], (
            name, seed, overrides)


# name -> (alpha, beta, rho, initial center), (claim kind, block, position) and
# the verification depth len(result.digits) at seed 0
PINNED = {
    "dwinning-golden": ((0.05, 0.7, 0.4, (0.5,)), ("contains", (0,), 12), 12),
    "dwinning-silver": ((0.05, 0.6, 0.4, (0.3,)), ("contains", (0,), 7), 7),
    "cwinning-nine-halves": ((0.6, 0.75, 2.0, (0.0, 0.0)), ("contains", ((0, 0),), 2), 2),
    "qwinning-componentwise": ((0.04, 0.5, 0.3, (0.5, 0.5, 0.5, 0.5)),
                               ("contains", ((1, 0, 1, 0),), 7), 7),
    "notwinning-lipschitz": ((0.9, 0.18518518518518517, 0.4, (0.5, 0.5, 0.5, 0.5)),
                             ("avoids", ((0, 0, 0, 0),), 1), 12),
    "notwinning-hurwitz": ((0.93, 0.2150537634408602, 0.25, (0.5, 0.5, 0.5, 0.25)),
                           ("avoids", ((0, 0, 0, 0),), 1), 14),
    "notwinning-symmetric": ((0.85, 0.11764705882352941, 0.1, (0.1, 0.1, 0.1, 0.1)),
                             ("avoids", ((0, 0, 0, 0),), 1), 8),
    "notwinning-zeta": ((0.5, 0.05555555555555555, 0.49, (0.25, 1.5, 0.25, 1.5)),
                        ("avoids", ((0, 0, 0, 0), (0, 0, 0, 0)), 1), 10),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_preset_params_claim_and_depth_are_pinned(name):
    (alpha, beta, rho, x0), claim, depth = PINNED[name]
    setup = build_preset(name)
    p = setup.params
    assert (p.alpha, p.beta, p.rho, p.dimension, p.initial_center) == (
        alpha, beta, rho, len(x0), x0)
    assert (setup.claim.kind, setup.claim.block, setup.claim.position) == claim
    _, result = run_setup(setup, seed=0)
    assert len(result.digits) == depth


# preset -> the options among OPTION_VALUES that it takes; build_preset
# refuses every other one by name
TAKES = {
    "dwinning-golden": {"alpha", "beta", "rho", "bob", "max_rounds", "b", "x0"},
    "dwinning-silver": {"alpha", "beta", "rho", "bob", "max_rounds", "b", "x0"},
    "cwinning-nine-halves": {"alpha", "beta", "rho", "bob", "max_rounds"},
    "qwinning-componentwise": {"alpha", "beta", "rho", "bob", "max_rounds"},
    "notwinning-lipschitz": {"alpha", "beta", "rho", "max_rounds"},
    "notwinning-hurwitz": {"alpha", "beta", "rho", "max_rounds"},
    "notwinning-symmetric": {"alpha", "beta", "max_rounds"},
    "notwinning-zeta": {"alpha", "beta", "rho", "max_rounds"},
}
OPTION_VALUES = {"alpha": 0.5, "beta": 0.5, "rho": 0.2, "bob": "random",
                 "max_rounds": 8, "b": 3.0, "x0": 0.25}


@pytest.mark.parametrize("name", sorted(TAKES))
@pytest.mark.parametrize("option", sorted(OPTION_VALUES))
def test_preset_options_are_pinned(name, option):
    value = OPTION_VALUES[option]
    if option in TAKES[name]:
        build_preset(name, **{option: value})
    else:
        with pytest.raises(ValueError) as exc:
            build_preset(name, **{option: value})
        assert str(exc.value) == f"preset {name!r} does not take {option!r}"


# (preset, overrides) -> (alpha, beta, rho, dimension, initial center), the
# setup notes and (claim kind, block, position)
_ZERO = (0, 0, 0, 0)
LOSING_BUILDS = {
    ("notwinning-lipschitz", "alpha", 0.2): (
        (0.2, 0.8333333333333333, 0.4, 4, (0.5, 0.5, 0.5, 0.5)),
        ["alpha 0.2 below the avoidance bound 0.833333"], ("avoids", (_ZERO,), 1)),
    ("notwinning-hurwitz", "rho", 0.2): (
        (0.93, 0.2150537634408602, 0.2, 4, (0.5, 0.5, 0.5, 0.25)),
        ["alpha 0.93 below the avoidance bound 1.10139"], ("avoids", (_ZERO,), 1)),
    ("notwinning-zeta", "rho", 0.4): (
        (0.5, 0.05555555555555555, 0.4, 4, (0.25, 1.5, 0.25, 1.5)),
        [], ("avoids", (_ZERO, _ZERO), 1)),
    ("notwinning-zeta", "beta", 0.3): (
        (0.5, 0.3, 0.49, 4, (0.25, 1.5, 0.25, 1.5)),
        ["alpha*beta is not |q|^-n; the pinning radii are off scale"],
        ("avoids", (_ZERO, _ZERO), 1)),
    ("notwinning-symmetric", "alpha", 0.5): (
        (0.5, 0.2, 0.1, 4, (0.1, 0.1, 0.1, 0.1)),
        ["alpha 0.5 below the avoidance bound 0.8"], ("avoids", (_ZERO,), 1)),
}


@pytest.mark.parametrize("key", sorted(LOSING_BUILDS))
def test_losing_builds_are_pinned(key):
    name, option, value = key
    params, notes, claim = LOSING_BUILDS[key]
    setup = build_preset(name, **{option: value})
    p = setup.params
    assert (p.alpha, p.beta, p.rho, p.dimension, p.initial_center) == params
    assert setup.notes == notes
    assert (setup.claim.kind, setup.claim.block, setup.claim.position) == claim


def test_hurwitz_radius_past_the_center_is_refused():
    # the center (1/2, 1/2, 1/2, 1/4) has |xi| = 0.901 < 2 rho = 1.2
    with pytest.raises(ValueError) as exc:
        build_preset("notwinning-hurwitz", rho=0.6)
    assert str(exc.value) == "need |xi| > 2 rho"


@pytest.mark.parametrize("name", ["notwinning-hurwitz", "notwinning-zeta"])
def test_losing_constant_comes_from_the_paper_layer(monkeypatch, name):
    # C_Omega of the zero block over domain_constants, not a constant copied
    # into presets
    clear_preset_caches()
    calls = collections.Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper
    for fn in (quatexp.C_Omega, quatexp.domain_constants):
        monkeypatch.setattr(quatexp, fn.__name__, counted(fn))
    assert cli.main(["game", "--preset", name, "--out", os.devnull]) == 0
    assert calls == {"C_Omega": 1, "domain_constants": 1}
