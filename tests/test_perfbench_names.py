"""The names perfbench's tracer patches still resolve, and still run.

`perfbench/tracer.py` wraps package functions and methods by name, and a
function in every module that bound it.  A moved or renamed name makes
`install` fail, or leaves a game running code the tracer never sees.  This
installs the tracer in a fresh interpreter, plays one `dwinning-golden`
game the way the `sweep` workload does, uninstalls the tracer, and checks
that the game ran through the wrapped names and that every patched binding
got its original object back.
"""

from pathlib import Path

from test_numpy_free import fresh

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# sys.argv[1] is the perfbench directory; prints the tracer's call counts,
# how many bindings it patched and which of them did not get their object back
TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
from beta_arena import game, presets

t = tracer.Tracer()
tracer.install(t)
undo = list(t._undo)
trace, result = presets.run_setup(presets.build_preset("dwinning-golden"), seed=0)
game.audit_trace(trace)
trace.to_json()
t.uninstall()
def current(owner, key):
    return owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
moved = [f"{getattr(owner, '__name__', owner)}.{key}" for owner, key, original in undo
         if current(owner, key) is not original]
print(json.dumps([dict(t.calls), len(undo), moved]))
"""

# what a game on the sweep path runs, by the tracer's span names
GAME_SPANS = ("presets.build_preset.dwinning-golden", "presets.run_setup", "game.play",
              "game.strategy.alice", "game.strategy.bob", "game.verify_outcome",
              "game.certified_digits", "game.audit_trace", "game.to_json", "systems.step.real")


def test_tracer_patches_resolve_and_are_undone():
    calls, patched, moved = fresh(TRACED, str(PERFBENCH))
    assert patched > len(GAME_SPANS)
    assert moved == []
    for name in GAME_SPANS:
        assert calls.get(name, 0) > 0, name
    assert calls["game.play"] == calls["game.verify_outcome"] == 1
