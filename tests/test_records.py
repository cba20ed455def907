"""The value records behave as the dataclasses they replaced did.

Each record takes its fields positionally and by keyword, with the same
defaults; compares by value (and never equals a plain tuple of its fields);
hashes by value when frozen and is unhashable otherwise; refuses assignment
to or deletion of a field when frozen; writes `Name(field=value, ...)` as its repr; and
builds a fresh default list or dict for each instance.
"""

import copy
import importlib
import math
import pickle
import pkgutil

import pytest

import beta_arena

from beta_arena.complexexp import GammaConstants, SquareRegion
from beta_arena.game import Claim, GameParams, GameState, GameTrace, Move, VerifyResult
from beta_arena.numeric import FrozenRecord, Quaternion
from beta_arena.presets import GameSetup
from beta_arena.quatexp import DomainConstants, LosingParameters
from beta_arena.realexp import CylinderInterval

PARAMS = GameParams(0.5, 0.25, 1.0, 2, (0.0, 0.0))
CLAIM = Claim("contains", ((0, 0),), 2)


def alice(state):
    return state.ball.center


# class, field names, one value per field, whether the class is frozen
RECORDS = {
    "Quaternion": (Quaternion, ("a", "b", "c", "d"), (1.0, -2.0, 0.5, 3.0), True),
    "CylinderInterval": (CylinderInterval, ("block", "lo", "hi", "full_length"),
                         ((1, 0), 0.25, 0.5, True), True),
    "SquareRegion": (SquareRegion, ("N", "v_lo", "u_hi"), (2, 1.5, 2.5), True),
    "GammaConstants": (GammaConstants, ("gamma1", "gamma2", "delta"), (0.1, 0.2, 0.3), True),
    "DomainConstants": (DomainConstants, ("xi", "rho", "M", "D", "C_X"),
                        (Quaternion(0.5, 0.5, 0.5, 0.5), 0.1, 2.0, 1.0, 11.0), True),
    "LosingParameters": (LosingParameters, ("alpha_lo", "q_norm_n"), (0.4, 6.0), True),
    "GameParams": (GameParams, ("alpha", "beta", "rho", "dimension", "initial_center"),
                   (0.5, 0.25, 1.0, 2, (0.0, 0.0)), True),
    "Move": (Move, ("player", "round_no", "center", "radius"), ("bob", 3, (0.5,), 0.125),
             True),
    "GameState": (GameState, ("params", "system", "seed"), (PARAMS, None, 7), False),
    "GameTrace": (GameTrace, ("params", "seed", "moves", "status", "notes"),
                  (PARAMS, 3, [], "max-rounds", ["a note"]), False),
    "Claim": (Claim, ("kind", "block", "position"), ("avoids", ((0, 0, 0, 0),), 2), True),
    "VerifyResult": (VerifyResult, ("verdict", "digits", "certified", "reason"),
                     ("verified", [1, 0], 2, "block present"), False),
    "GameSetup": (GameSetup, ("name", "params", "system", "alice", "bob", "claim",
                              "max_rounds", "notes"),
                  ("custom", PARAMS, None, alice, alice, CLAIM, 12, ["n"]), False),
}
CASES = pytest.mark.parametrize("cls, names, values, frozen", RECORDS.values(),
                                ids=RECORDS.keys())


@CASES
def test_positional_and_keyword_construction_agree(cls, names, values, frozen):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword
    assert not by_position != by_keyword


@CASES
def test_equality_is_by_value_and_by_class(cls, names, values, frozen):
    a, b = cls(*values), cls(*values)
    assert a == b and a is not b
    assert a != tuple(values)
    assert a != object()
    other = list(values)
    other[0] = "something else"
    if cls is not GameParams and cls is not Claim:  # these validate their fields
        assert cls(*other) != a


@CASES
def test_frozen_records_hash_by_value_and_refuse_assignment(cls, names, values, frozen):
    a, b = cls(*values), cls(*values)
    if frozen:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
        for name in names:
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert [getattr(a, n) for n in names] == list(values)
    else:
        with pytest.raises(TypeError):
            hash(a)
        for name in names:
            setattr(a, name, 0)
            assert getattr(a, name) == 0


def test_every_frozen_record_takes_the_frozen_checks():
    # each FrozenRecord of the package is in RECORDS as frozen, so the tests
    # above check that it refuses assignment and deletion, hashes by value,
    # copies and pickles, with its fields stored through _setters
    for info in pkgutil.iter_modules(beta_arena.__path__):
        importlib.import_module(f"beta_arena.{info.name}")
    found, todo = set(), [FrozenRecord]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("beta_arena."):
                found.add(sub)
    assert found == {cls for cls, _, _, frozen in RECORDS.values() if frozen}
    for cls in found:
        assert len(cls._setters) == len(cls.__slots__)


@CASES
def test_repr_names_each_field(cls, names, values, frozen):
    want = f"{cls.__name__}(" + ", ".join(
        f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    assert repr(cls(*values)) == want


@CASES
def test_copies_are_equal_records(cls, names, values, frozen):
    a = cls(*values)
    for twin in (copy.copy(a), copy.deepcopy(a)):
        assert type(twin) is cls and twin == a and twin is not a
    if cls is not GameSetup:  # a setup holds strategies, which need not pickle
        assert pickle.loads(pickle.dumps(a)) == a


def test_defaults():
    assert Quaternion() == Quaternion(0.0, 0.0, 0.0, 0.0)
    assert Quaternion(1.0) == Quaternion(1.0, 0.0, 0.0, 0.0)
    assert Quaternion(d=2.0).components == (0.0, 0.0, 0.0, 2.0)
    assert Claim("contains", (0,)).position == 1
    state = GameState(PARAMS, None)
    assert (state.seed, state.round_no, state.ball, state.radius, state.reach,
            state.scratch) == (0, 0, None, 0.0, 0.0, {})
    assert GameTrace(PARAMS, 0, [], "max-rounds").notes == []
    setup = GameSetup("custom", PARAMS, None, alice, alice, CLAIM, 12)
    assert setup.notes == []


def test_default_lists_are_fresh_for_each_instance():
    s1, s2 = GameState(PARAMS, None), GameState(PARAMS, None)
    s1.scratch["k"] = 1
    s1.note("first")
    assert s2.scratch == {} and s2 == GameState(PARAMS, None) != s1
    t1, t2 = (GameTrace(PARAMS, 0, [], "max-rounds") for _ in range(2))
    t1.notes.append("x")
    assert t2.notes == []
    g1, g2 = (GameSetup("custom", PARAMS, None, alice, alice, CLAIM, 12) for _ in range(2))
    g1.notes.append("x")
    assert g2.notes == []


@pytest.mark.parametrize("args, message", [
    ((0.0, 0.5, 1.0, 1, (0.5,)), "alpha must lie in (0, 1)"),
    ((1.0, 0.5, 1.0, 1, (0.5,)), "alpha must lie in (0, 1)"),
    ((math.nan, 0.5, 1.0, 1, (0.5,)), "alpha must lie in (0, 1)"),
    ((0.5, 1.0, 1.0, 1, (0.5,)), "beta must lie in (0, 1)"),
    ((0.5, 0.5, 0.0, 1, (0.5,)), "rho must be positive and finite"),
    ((0.5, 0.5, math.inf, 1, (0.5,)), "rho must be positive and finite"),
    ((0.5, 0.5, 1.0, 3, (0.5, 0.5, 0.5)), "dimension must be 1, 2 or 4"),
    ((0.5, 0.5, 1.0, 2, (0.5,)), "initial center has the wrong dimension"),
])
def test_game_params_messages(args, message):
    with pytest.raises(ValueError) as info:
        GameParams(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("args, message", [
    (("covers", (0,)), "claim kind must be 'contains' or 'avoids'"),
    (("contains", ()), "claim block must be nonempty"),
    (("avoids", (0,), 0), "position is 1-based"),
])
def test_claim_messages(args, message):
    with pytest.raises(ValueError) as info:
        Claim(*args)
    assert str(info.value) == message


def test_game_state_keeps_its_rng_out_of_init_and_repr():
    state = GameState(PARAMS, None, 5)
    with pytest.raises(TypeError):
        GameState(PARAMS, None, 5, None)
    assert "rng" not in repr(state)
    assert state.rng is state.rng
