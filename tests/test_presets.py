import pytest

from beta_arena.game import StrategyError, audit_trace
from beta_arena.presets import (PRESETS, build_preset, real_winning_setup,
                                run_setup)
from beta_arena.realexp import RealBase

WINNING = ["dwinning-golden", "dwinning-silver", "cwinning-nine-halves",
           "qwinning-componentwise"]
LOSING = ["notwinning-lipschitz", "notwinning-hurwitz", "notwinning-symmetric",
          "notwinning-zeta"]


def test_catalog_is_complete():
    assert sorted(PRESETS) == sorted(WINNING + LOSING)


@pytest.mark.parametrize("name", WINNING)
def test_winning_presets_verify(name):
    setup = build_preset(name)
    assert setup.kind == "winning"
    assert setup.notes == []  # hypotheses hold out of the box
    trace, result = run_setup(setup, seed=0)
    assert audit_trace(trace) == []
    assert result.verdict == "verified", (name, result.reason)


@pytest.mark.parametrize("name", LOSING)
def test_losing_presets_verify(name):
    setup = build_preset(name)
    assert setup.kind == "losing"
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
    # building their own
    built = []
    orig = RealBase.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        orig(self, *args, **kwargs)
    monkeypatch.setattr(RealBase, "__init__", counted)
    build_preset("qwinning-componentwise")
    assert built == [(3.0,)]
