"""A cold start loads only what its command runs.

The package imports neither `dataclasses` nor `inspect`; a real-base
command loads neither the complex nor the quaternion module, and a complex
one does not load the quaternion module.  `import beta_arena` loads no submodule: the
package resolves its exported names and its submodules on first access.
Each check runs in a fresh interpreter, since this one has everything
loaded, and a command's output there must equal its output here.
"""

import importlib
import json

import pytest

import beta_arena
from beta_arena import cli
from test_numpy_free import fresh

WATCHED = ("dataclasses", "inspect", "beta_arena.complexexp", "beta_arena.quatexp")

# runs cli.main on the JSON argv in sys.argv[1]; prints the exit code, which
# WATCHED modules got loaded, and stdout
MAIN = f"""
import contextlib, io, json, sys
from beta_arena import cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
loaded = [m for m in {WATCHED!r} if m in sys.modules]
print(json.dumps([code, loaded, out.getvalue()]))
"""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert fresh("import json, sys, beta_arena.cli\n"
                 f"print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))") == []


# command -> the WATCHED modules it may load
COMMANDS = {
    "game-golden": (["game", "--preset", "dwinning-golden", "--seed", "1"], []),
    "game-silver-random": (["game", "--preset", "dwinning-silver", "--bob", "random"], []),
    "expand-real": (["expand", "--real", "golden", "--x", "0.3", "--n", "12"], []),
    "admissible": (["admissible", "--real", "silver", "--n", "5"], []),
    "regions-A": (["regions", "--curve", "A", "--b", "golden"], []),
    "game-nine-halves": (["game", "--preset", "cwinning-nine-halves", "--seed", "2"],
                         ["beta_arena.complexexp"]),
    "scan-nine-halves": (["scan", "--preset", "cwinning-nine-halves",
                          "--alpha", "0.5:0.9:0.2"], ["beta_arena.complexexp"]),
    "regions-G": (["regions", "--curve", "G", "--theta", "0.05"],
                  ["beta_arena.complexexp"]),
    "regions-F": (["regions", "--curve", "F", "--r", "4.5"], ["beta_arena.complexexp"]),
    "regions-classify": (["regions", "--curve", "classify", "--theta", "0.05"],
                         ["beta_arena.complexexp"]),
    "expand-complex": (["expand", "--complex", "4.5", "0.05", "--z", "0.3", "0.6"],
                       ["beta_arena.complexexp"]),
    "game-componentwise": (["game", "--preset", "qwinning-componentwise"],
                           ["beta_arena.quatexp"]),
    "expand-quat": (["expand", "--quat", "3", "3", "3", "3", "--z", "0.31", "0.62",
                     "0.05", "0.44", "--n", "6"], ["beta_arena.quatexp"]),
    "game-lipschitz": (["game", "--preset", "notwinning-lipschitz"], ["beta_arena.quatexp"]),
    "game-nine-halves-random": (["game", "--preset", "cwinning-nine-halves", "--bob", "random"],
                                ["beta_arena.complexexp"]),
}


@pytest.mark.parametrize("argv, allowed", COMMANDS.values(), ids=COMMANDS.keys())
def test_command_loads_only_its_system(capsys, argv, allowed):
    code, loaded, out = fresh(MAIN, json.dumps(argv))
    assert loaded == allowed
    assert (code, out) == (cli.main(argv), capsys.readouterr().out)


SUBMODULES = ("numeric", "realexp", "complexexp", "quatexp", "systems", "game", "strategies",
              "presets")

# imports the package alone, then resolves every exported name and former
# submodule attribute through it
RESOLVE = f"""
import importlib, json, sys
import beta_arena
before = sorted(m for m in sys.modules if m.startswith("beta_arena."))
names = {{}}
for name in beta_arena.__all__:
    value = getattr(beta_arena, name)
    home = getattr(value, "__module__", None)
    names[name] = home if name != "__version__" else value
ok = [getattr(beta_arena, m) is importlib.import_module("beta_arena." + m)
      for m in {SUBMODULES!r}]
star = {{}}
exec("from beta_arena import *", star)
print(json.dumps([before, names, ok, sorted(set(star) - {{"__builtins__"}})]))
"""


def test_package_import_loads_no_submodule_and_resolves_every_name():
    before, names, ok, star = fresh(RESOLVE)
    assert before == []
    assert ok == [True] * len(SUBMODULES)
    assert sorted(names) == sorted(beta_arena.__all__) == star
    for name, home in names.items():
        if name == "__version__":
            assert home == beta_arena.__version__
        elif home is not None:  # a dict such as PRESETS has no __module__
            assert home.startswith("beta_arena.")


def test_exported_names_are_the_submodules_objects():
    for name in beta_arena.__all__:
        value = getattr(beta_arena, name)
        if name == "__version__":
            continue
        home = getattr(value, "__module__", None)
        if home is not None and home.startswith("beta_arena."):
            assert getattr(importlib.import_module(home), name) is value
    assert set(beta_arena.__all__) <= set(dir(beta_arena))
    assert set(SUBMODULES) <= set(dir(beta_arena))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        beta_arena.no_such_name
    assert not hasattr(beta_arena, "dataclass")
    with pytest.raises(ImportError):
        exec("from beta_arena import no_such_name", {})
