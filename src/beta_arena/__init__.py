"""Digit expansions in real, complex and quaternionic bases, the digit-region
geometry they induce, and a radius-ratio game played on top of them.

`import beta_arena` loads no submodule: the module __getattr__ (PEP 562)
imports each submodule, and the one holding each name in __all__, on first use.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports here
_EXPORTS = {
    "numeric": "AmbiguousValueError Quaternion metallic_mean safe_floor tol_floor",
    "realexp": "A_threshold CylinderInterval RealBase find_nk_real winning_gap",
    "complexexp": "ComplexBase F_threshold find_n_complex",
    "quatexp": "COmegaResult DomainConstants LatticeDomain LosingParameters avoid_constant "
               "C_Omega domain_constants hurwitz_box isoclinic_matrix lipschitz losing_parameters "
               "q_expand rot_balanced_rho rot_constants stock_lattice symmetric_constants "
               "symmetric_domain zeta_lattice",
    "systems": "ComplexSystem QuatSystem RealSystem expand_digits",
    "game": "Claim GameParams GameTrace IllegalMoveError Move StrategyError VerifyResult "
            "audit_trace certified_digits game_json play verify_outcome",
    "strategies": "alice_complex_winning alice_quaternion_componentwise alice_random "
                  "alice_real_winning bob_avoid_block bob_center_hold bob_optimal_drift "
                  "bob_random",
    "presets": "GameSetup PRESETS build_preset run_setup",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
