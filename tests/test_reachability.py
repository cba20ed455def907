"""Every package function is reached by some CLI path, or is allow-listed
with its reason.

The probe runs a fixed list of `beta-arena` invocations in one fresh
interpreter (so no cache of an earlier test hides a call) under
sys.setprofile, and records the code object of every Python call.  A
function here is a module-level function or a method of a class defined in
the package, nested functions included; lambdas and comprehensions are not
counted.  Run this file as a script to print the probe's two lists.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

PACKAGE = "beta_arena"
MODULES = ("numeric", "realexp", "complexexp", "quatexp", "systems", "game", "strategies",
           "presets", "cli")

WINNING = ("dwinning-golden", "dwinning-silver", "cwinning-nine-halves", "qwinning-componentwise")
LOSING = ("notwinning-lipschitz", "notwinning-hurwitz", "notwinning-symmetric", "notwinning-zeta")
QUAT_POINT = ("--z", "0.01", "0.02", "-0.05", "0.04")


def commands() -> list[tuple[str, ...]]:
    out = []
    for preset in WINNING:
        out += [("game", "--preset", preset, "--seed", "0"),
                ("game", "--preset", preset, "--seed", "1", "--bob", "random"),
                ("game", "--preset", preset, "--seed", "2", "--bob", "center-hold")]
    for preset in LOSING:
        out += [("game", "--preset", preset, "--seed", "0")]
    for preset in WINNING + LOSING:
        out += [("scan", "--preset", preset, "--alpha", "0.05:0.95:0.3")]
    out += [
        ("expand", "--real", "golden", "--x", "0.86", "--n", "12"),
        ("expand", "--real", "2.5", "--x", "0.4", "--n", "12", "--format", "json"),
        ("expand", "--complex", "4.5", "0.05", "--z", "0.3", "0.6", "--n", "8"),
        ("expand", "--complex", "4.5", "0.05", "--z", "0.1", "-0.2", "--n", "8", "--centered",
         "--on-ambiguous", "nudge"),
    ]
    for lattice in ("lipschitz", "lipschitz-centered", "hurwitz-box", "symmetric:0.25", "zeta"):
        out += [("expand", "--quat", "3", "3", "3", "3", "--lattice", lattice, *QUAT_POINT,
                 "--n", "6")]
    out += [
        ("admissible", "--real", "golden", "--n", "5"),
        ("admissible", "--real", "2.5", "--n", "4", "--format", "json"),
        ("regions", "--curve", "A", "--b", "golden"),
        ("regions", "--curve", "F", "--format", "json"),
        ("regions", "--curve", "G", "--theta", "0.05"),
        ("regions", "--curve", "classify", "--r", "4.5", "--theta", "0.05"),
        ("expand",),  # a usage error
    ]
    return out


# name -> why no CLI path reaches it
ALLOWED = {
    # perfbench's workloads call these, and its tracer patches them by name
    "complexexp.ComplexBase.contains": "ComplexBase.expand, which perfbench calls, calls it",
    "complexexp.ComplexBase.expand": "perfbench calls it",
    "game.GameTrace.to_json": "perfbench calls it",
    "quatexp.LatticeDomain.cell_margin": "perfbench's tracer patches it; nothing calls it",
    "quatexp.LatticeDomain.contains": "perfbench's tracer patches it; no package code calls it",
    "quatexp.q_expand": "perfbench calls it",
    "realexp.CylinderInterval.__init__": "cylinder_intervals, which perfbench calls, builds it",
    "realexp.RealBase.cylinder_intervals": "perfbench calls it",
    "realexp.RealBase.digits": "perfbench calls it",
    "realexp.RealBase.is_admissible": "perfbench calls it",
    # paper formulas that the presets should state (ROADMAP item 7)
    "complexexp.F_value": "paper formula",
    "complexexp.refinement_poly": "paper formula; v_threshold builds the same function with its "
                                  "coefficients through complexexp._refinement",
    "quatexp.LosingParameters.__init__": "paper formula",
    "quatexp.LosingParameters.beta": "paper formula",
    "quatexp.avoid_constant": "paper formula",
    "quatexp.losing_parameters": "paper formula",
    "quatexp.rot_balanced_rho": "paper formula",
    "quatexp.rot_constants": "paper formula",
    "realexp.RealBase.in_E": "paper formula",
    # safety fallbacks that no stock system needs
    "game.IllegalMoveError.__init__": "an illegal move, which the stock strategies never make",
    "quatexp.LatticeDomain.box_contains": ("the box test of a sheared lattice (box is None) "
                                           "and of q_expand, which perfbench calls"),
    "systems._halvings": "max_step_inside on a sheared lattice (box is None)",
    # record and module protocol methods
    "numeric.FrozenRecord.__reduce__": "record protocol (copy and pickle)",
    "numeric.FrozenRecord.__setattr__": "record protocol (refuses writes)",
    "numeric.Record.__eq__": "record protocol",
    "numeric.Record.__repr__": "record protocol",
    "__init__.__dir__": "module protocol (PEP 562)",
    "__init__.__getattr__": "module protocol (PEP 562), for `import beta_arena` users",
}


def _functions(module) -> dict:
    """code object -> name for the functions and methods defined in module,
    nested ones included, lambdas and comprehensions not."""
    short = module.__name__.split(".", 1)[1] if "." in module.__name__ else "__init__"
    found = {}

    def walk(code, name):
        found.setdefault(code, name)  # __delattr__ = __setattr__ keeps the first name
        for const in code.co_consts:
            if hasattr(const, "co_code") and const.co_name.isidentifier():
                walk(const, f"{name}.<locals>.{const.co_name}")

    def visit(obj, name):
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            obj = obj.fget
        code = getattr(obj, "__code__", None)
        if code is not None and code.co_filename == module.__file__:
            walk(code, name)

    for attr, obj in vars(module).items():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            for meth, value in vars(obj).items():
                visit(value, f"{short}.{attr}.{meth}")
        else:
            visit(obj, f"{short}.{attr}")
    return found


def probe() -> tuple[list[str], list[str]]:
    """(every package function, those the commands reach)."""
    import importlib
    pkg = importlib.import_module(PACKAGE)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(record)
    try:
        for argv in commands():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(list(argv))
    finally:
        sys.setprofile(None)
    names = {}
    for module in (pkg, *(importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES)):
        names.update(_functions(module))
    return sorted(names.values()), sorted(names[c] for c in seen if c in names)


def _run_probe() -> tuple[set, set]:
    out = subprocess.run([sys.executable, os.path.abspath(__file__)], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    every, reached = json.loads(out)
    return set(every), set(reached)


def test_every_package_function_is_reached_or_allowed():
    every, reached = _run_probe()
    unreached = every - reached
    assert sorted(unreached - set(ALLOWED)) == [], "reached by no CLI path and not allow-listed"
    assert sorted(set(ALLOWED) & reached) == [], "allow-listed but reached"
    assert sorted(set(ALLOWED) - every) == [], "allow-listed but not a package function"


if __name__ == "__main__":
    print(json.dumps(probe()))
