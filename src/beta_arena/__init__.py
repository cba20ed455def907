"""Digit expansions in real, complex and quaternionic bases, the digit-region
geometry they induce, and a radius-ratio game played on top of them."""

from .numeric import AmbiguousValueError, Quaternion, metallic_mean, safe_floor, tol_floor
from .realexp import CylinderInterval, RealBase
from .complexexp import ComplexBase
from .quatexp import (COmegaResult, DomainConstants, LatticeDomain,
                      LosingParameters, avoid_constant, C_Omega,
                      domain_constants, hurwitz_box, isoclinic_matrix,
                      lipschitz, losing_parameters, q_expand,
                      rot_balanced_rho, rot_constants, symmetric_constants,
                      symmetric_domain, zeta_lattice)
from .systems import ComplexSystem, QuatSystem, RealSystem, expand_digits
from .game import (A_threshold, Claim, F_threshold, GameParams, GameTrace,
                   IllegalMoveError, Move, StrategyError, VerifyResult,
                   alice_center_hold, alice_complex_winning,
                   alice_quaternion_componentwise, alice_random,
                   alice_real_winning, audit_trace, bob_avoid_block,
                   bob_center_hold, bob_optimal_drift, bob_random,
                   certified_digits, find_n_complex, find_nk_real, play,
                   verify_outcome, winning_gap)
from .presets import GameSetup, PRESETS, build_preset, run_setup

__version__ = "0.1.0"

__all__ = [
    "AmbiguousValueError", "Quaternion", "metallic_mean", "safe_floor", "tol_floor",
    "CylinderInterval", "RealBase",
    "ComplexBase",
    "COmegaResult", "DomainConstants", "LatticeDomain", "LosingParameters",
    "avoid_constant", "C_Omega", "domain_constants", "hurwitz_box",
    "isoclinic_matrix", "lipschitz", "losing_parameters", "q_expand",
    "rot_balanced_rho", "rot_constants", "symmetric_constants",
    "symmetric_domain", "zeta_lattice",
    "ComplexSystem", "QuatSystem", "RealSystem", "expand_digits",
    "A_threshold", "Claim", "F_threshold", "GameParams", "GameTrace",
    "IllegalMoveError", "Move", "StrategyError", "VerifyResult",
    "alice_center_hold", "alice_complex_winning",
    "alice_quaternion_componentwise", "alice_random", "alice_real_winning",
    "audit_trace", "bob_avoid_block", "bob_center_hold", "bob_optimal_drift",
    "bob_random", "certified_digits", "find_n_complex", "find_nk_real",
    "play", "verify_outcome", "winning_gap",
    "GameSetup", "PRESETS", "build_preset", "run_setup",
    "__version__",
]
