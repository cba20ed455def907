"""Pinned digit strings and preset outcomes.

The digit table gives, for fixed points of each system, the first digits
in nudge mode, whether the point is a face point (its orbit lands on a
digit-cell face, so the error mode raises), and how many digits
certified_digits certifies for a ball of radius RADIUS.  Uniform points
expand the same way in both modes.  Orbits of an expanding map depend on
last-bit rounding after enough steps, so at most 12 digits are pinned.
Two face points of the quaternion base land on faces again at steps 4, 7
and 10; at step 10 the rounding residual carried from the earlier landings
has grown past EPS_FLOOR, so the digit there depends on how a snapped
remainder is rounded, and those rows stop at nine digits.

The preset table pins (verdict, status, rounds_played) of run_setup, or the
exception a setup raises, at default parameters and just outside each
preset's alpha bound.  The trace table pins the bytes of every move: the
sha256 of GameTrace.to_json() for each preset and Bob at seeds 0-3.
"""

import hashlib
import math

import numpy as np
import pytest

from beta_arena.complexexp import ComplexBase
from beta_arena.game import StrategyError, certified_digits
from beta_arena.numeric import AmbiguousValueError, Quaternion
from beta_arena.presets import build_preset, run_setup
from beta_arena.quatexp import (hurwitz_box, lipschitz, q_expand,
                                symmetric_domain, zeta_lattice)
from beta_arena.realexp import RealBase
from beta_arena.systems import (ComplexSystem, QuatSystem, RealSystem,
                                expand_digits)

RADIUS = 1e-6
PHI = (1.0 + math.sqrt(5.0)) / 2.0
Q = Quaternion(3.0, 3.0, 3.0, 3.0)

# system name -> rows of (point, digits, face point, certified count)
PINNED = {
    "golden": [
        (0.280492,
         [0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0],
         False, 12),
        (0.437852,
         [0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
         False, 12),
        (0.663477,
         [1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0],
         False, 12),
        (0.484507,
         [0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1],
         False, 12),
        (0.6180339887498948,
         [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         True, 0),
        (0.3819660112501051,
         [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         True, 1),
        (0.8541019662496845,
         [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         True, 2),
    ],
    "three": [
        (0.793144,
         [2, 1, 0, 1, 0, 2, 0, 1, 2, 1, 1, 0],
         False, 10),
        (0.939346,
         [2, 2, 1, 1, 0, 0, 2, 1, 0, 0, 1, 0],
         False, 11),
        (0.521566,
         [1, 1, 2, 0, 0, 2, 0, 1, 2, 2, 2, 2],
         False, 7),
        (0.555098,
         [1, 1, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2],
         False, 6),
        (0.3333333333333333,
         [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         True, 0),
        (0.7777777777777778,
         [2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         True, 1),
        (0.07407407407407407,
         [0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         True, 2),
    ],
    "complex": [
        ((0.05339875709739095, -0.1701944426661438),
         [(0, -1), (1, 1), (1, 1), (-1, -1), (1, 1), (2, -1), (-2, 1), (2, -1), (1, 1),
          (0, 0), (1, 2), (-1, 1)],
         False, 6),
        ((-0.32368854077445597, 0.4252406953178458),
         [(-2, 2), (2, -1), (0, 2), (1, -1), (-1, -1), (2, -2), (-1, -1), (-2, 2),
          (0, 1), (2, -1), (1, -1), (0, 2)],
         False, 6),
        ((0.01299054471301564, 0.04995380016750939),
         [(0, 0), (0, 1), (1, 0), (-1, 1), (-1, -1), (-2, -1), (1, 1), (1, 1),
          (-1, -1), (0, -2), (1, 2), (0, -1)],
         False, 8),
        ((-0.41360793874851876, 0.20904303480157294),
         [(-2, 1), (0, -1), (2, 2), (0, -2), (0, 1), (0, -1), (0, -1), (1, -1),
          (-1, 2), (0, 0), (-2, 0), (2, -1)],
         False, 7),
        ((-0.3429946824307341, -0.3165863945969277),
         [(-1, -1), (-2, -2), (0, -2), (0, 2), (1, -1), (0, 2), (1, 1), (1, 0),
          (-2, -1), (0, 1), (1, 2), (0, 0)],
         True, 0),
        ((0.09348766237023676, -0.354953558332317),
         [(1, -2), (-2, 2), (-1, -1), (-2, 0), (-1, 0), (0, 0), (-1, 0), (-2, 1),
          (-1, -2), (0, 0), (-1, 1), (-1, -1)],
         True, 0),
        ((-0.34941601205335093, -0.3130504151916904),
         [(-1, -1), (-2, -2), (-1, -1), (2, -1), (0, -2), (2, -1), (1, 1), (1, -1),
          (0, -2), (-2, -1), (2, -1), (0, 1)],
         True, 0),
    ],
    "lipschitz": [
        ((0.5550722933135851, 0.7818055626789369, 0.32333033071157014,
          0.5087153713592285),
         [(-4, 4, 3, 1), (-4, 5, 3, 4), (0, 5, 2, 4), (-1, 0, 0, 0), (-7, 1, 2, 3),
          (-2, 4, 4, 1), (-5, 5, 3, 1), (0, 3, 2, 3), (-2, 5, 1, 3), (-2, 0, 1, 0),
          (-5, 6, 3, 3), (-4, 6, 3, 3)],
         False, 6),
        ((0.4950654201196979, 0.9702571360705473, 0.7675958735058802,
          0.24062899729691523),
         [(-5, 2, 5, 1), (-6, 2, 5, 3), (-5, 6, 2, 2), (-2, 0, 1, -1), (-7, 2, 4, 2),
          (-6, 1, 1, 3), (-4, 2, 3, 6), (-6, 2, 3, 2), (-2, 0, 1, 1), (-2, 2, 2, -1),
          (-3, 2, -1, 3), (-4, 0, 3, 1)],
         False, 6),
        ((0.32261745149495835, 0.4008930534074756, 0.3209818857102634,
          0.30234983836096785),
         [(-3, 2, 2, 1), (-1, 4, 1, 4), (-4, 3, 2, 6), (-5, 2, 2, 3), (-2, 4, 0, 3),
          (-5, 5, 2, 3), (-4, -1, 1, 3), (-2, 3, 1, 1), (-6, 0, 1, 5), (-2, 3, 2, 0),
          (-6, -1, 3, 2), (-3, 3, 6, 1)],
         False, 5),
        ((0.07044084473319612, 0.7744840367969786, 0.5722174955441987,
          0.8412166056629858),
         [(-7, 3, 1, 2), (-2, 1, 4, 3), (-4, 0, 2, 4), (-2, 4, 4, 2), (-4, -1, 2, 3),
          (-2, 2, 3, 1), (-4, 3, 1, 4), (0, 4, 5, 1), (-4, 1, 2, 0), (-2, 4, 0, 3),
          (-4, 3, 4, 0), (-3, -1, 1, 2)],
         False, 6),
        ((0.7148650973438129, 0.9256473678219083, 0.41020280313417234,
          0.3840486016332271),
         [(-4, 4, 5, 1), (-2, 7, 3, 2), (-5, 4, 1, 1), (0, 0, 3, 2), (-5, 6, 0, 0),
          (-5, 2, 1, 5), (0, 1, 3, 4), (-1, 2, 2, -1), (-6, 5, 4, 4)],
         True, 0),
        ((0.5572786859221288, 0.37590013716639936, 0.23564858529387783,
          0.916306199283726),
         [(-3, 4, 0, 4), (-5, 0, 5, 0), (-1, 2, 3, 0), (-2, 4, 4, 0), (0, 2, 4, 3),
          (-1, 2, 5, 4), (-4, 3, 4, 0), (-3, -1, 5, 2), (-5, 3, 2, -1), (-3, 5, 3, 3),
          (-1, 4, 5, -1), (-6, 3, 2, -1)],
         True, 0),
        ((0.10931792574882174, 0.026816494262064547, 0.5541881737351877,
          0.0847204203909681),
         [(-2, -1, 1, 2), (-2, -1, 2, 3), (-6, 0, 0, 5), (-3, 3, 0, 3), (-2, 1, 1, 4),
          (-6, 3, 2, 4), (-3, 3, -1, 3), (-2, 0, 4, 6), (-1, 3, 4, 1), (-3, 3, 1, 0),
          (0, 2, 2, 3), (0, 4, 2, 3)],
         True, 0),
    ],
    "hurwitz_box": [
        ((0.620041098422703, 0.9211761649405869, 0.971079842403048,
          0.023825151385002685),
         [(-4, 1, 7, 4), (-4, 1, 3, -1), (-4, 0, 4, 4), (-4, 2, 4, 6), (-1, 2, 2, 9),
          (-5, 1, 5, 6), (-4, 2, 3, -3), (-2, 3, 5, 3), (-5, 3, 6, 7), (0, 3, 1, 6),
          (-4, 2, 6, 6), (-3, 1, 2, 3)],
         False, 6),
        ((0.07298587160441539, 0.5507149844578337, 0.07521226919970703,
          0.08887659926793329),
         [(-2, 1, 1, -2), (-6, 0, 5, 0), (-1, 4, 4, 3), (-3, -1, 2, 7), (-2, 2, 2, 2),
          (-3, 2, 5, 1), (-1, 1, 1, 1), (-1, 3, 1, 4), (-2, 1, 1, 5), (-3, 2, 5, 3),
          (-5, 0, 3, -1), (-3, 4, 6, 3)],
         False, 6),
        ((0.6889034166682863, 0.5099410941988076, 0.11184404211840626,
          0.3776893237324436),
         [(-1, 4, 2, 4), (-4, -1, 3, 2), (-2, 0, 2, 10), (-6, 1, 4, 3), (-5, 3, 3, 0),
          (-1, 1, 4, 10), (-4, 4, 3, 2), (0, 4, 5, 1), (-3, 6, 4, 2), (-2, 1, 1, 4),
          (-1, 3, 4, 1), (-2, 2, 2, 5)],
         False, 5),
        ((0.8681793258553627, 0.29642240563099465, 0.501513000830038,
          0.4474573844328536),
         [(-2, 3, 3, 9), (-1, 1, 5, 7), (-4, 3, 4, 1), (-1, 4, 3, 6), (-3, 3, 7, 5),
          (-2, 1, 3, 8), (-1, 1, 2, 0), (-3, 3, 2, -4), (-6, 1, 4, 5), (0, 1, 3, 6),
          (-2, -1, 3, 6), (0, 3, 4, 3)],
         False, 6),
        ((0.8699405081833407, 0.6349542409763265, 0.22083103361078527,
          0.014155233596228944),
         [(0, 3, 5, 2), (-5, 3, 1, -3), (-4, 2, 4, 8), (-3, 1, 3, 8), (-7, 0, 3, 3),
          (-4, 3, 5, 3), (-5, 3, 4, 3), (-3, 1, 4, 3), (-5, 2, 5, 4)],
         True, 0),
        ((0.4782437860066793, 0.902164436326646, 0.4310895785144134,
          0.14483113418107207),
         [(-3, 3, 5, 0), (-3, 2, -1, 1), (0, 1, 4, 6), (-4, 1, 3, 1), (-1, 5, 5, -1),
          (-3, 2, 5, 5), (-4, 3, 4, 1), (-2, 2, 4, 5), (-1, 2, 4, 6), (-6, 0, 3, 3),
          (0, 4, 3, 4), (-3, 3, 5, 1)],
         True, 0),
        ((0.6140891205557074, 0.06534489592439383, 0.5009933999349644,
          0.18042741641506563),
         [(-1, 1, 3, 7), (1, 2, 1, 4), (-4, 0, 2, 0), (-5, 1, 6, 1), (0, 5, 3, 5),
          (-1, 2, 2, 3), (-2, -1, 4, 6), (-4, 0, 2, 1), (-4, 2, 4, -1), (-4, 1, 1, 1),
          (-3, 2, 5, 2), (0, 5, 3, 5)],
         True, 0),
    ],
    "symmetric": [
        ((-0.2404941844155405, 0.04343244451674272, -0.22974110855218877,
          0.1267191607211684),
         [(-1, 1, -3, -2), (2, 0, 0, -2), (2, -1, -3, -1), (-3, 0, 0, 0),
          (-2, 3, 2, 3), (-1, -3, 0, -2), (-2, -1, -1, 3), (-2, 2, 2, 1),
          (2, -1, 1, 3), (-1, -3, 0, -2), (0, 1, 4, -1), (-1, 0, -4, -1)],
         False, 5),
        ((0.05397740955865998, 0.11047947197336577, -0.23635101954346283,
          0.1205180453222151),
         [(0, 3, -1, -1), (1, 2, 1, 0), (1, 0, 0, 2), (-2, -1, 0, -2), (-3, 1, 1, 1),
          (-3, 1, 2, 2), (1, 0, -1, -3), (0, 0, -2, 0), (-4, -1, -1, 0), (1, -2, 3, 1),
          (1, -3, -1, -1), (3, 2, -1, 0)],
         False, 6),
        ((-0.04949971363129296, -0.23738302754567692, -0.17956588767290527,
          -0.059214701398611125),
         [(3, -1, -2, 0), (1, -1, -2, -4), (-3, 1, 0, 2), (5, 0, 0, 0), (1, 0, -1, 0),
          (1, 1, 2, 1), (0, -1, 4, -1), (1, 0, -3, -2), (0, -2, -3, 0), (2, -1, 1, -1),
          (0, 0, 4, 0), (1, 0, 1, 2)],
         False, 5),
        ((0.021595952501825, -0.01260821572390286, -0.13376220101211422,
          -0.15168370129180808),
         [(2, 0, 0, -2), (-2, 1, -1, 2), (3, -1, -2, 0), (0, 0, 1, -4), (1, -4, -1, 0),
          (-1, 0, 4, 0), (1, -2, 0, 3), (-2, 1, -3, -1), (-2, -3, -1, 1),
          (2, 2, -4, 2), (-1, -4, -1, 1), (3, 2, 0, 0)],
         False, 5),
        ((-0.005352416942025956, 0.1500589308976871, -0.0889771869248285,
          -0.0056114652354584404),
         [(0, 1, 0, -1), (-2, -3, 3, -3), (-1, 4, -1, -1), (-2, 1, 2, 3),
          (0, 2, -1, -3), (-1, -2, 1, -2), (-4, 0, -1, 0), (-2, -4, -1, 1),
          (0, 1, 0, 1), (-2, 2, 1, 0), (0, 0, -1, -1), (-1, -2, 0, -1)],
         True, 0),
        ((-0.058157673649636976, 0.0009999148107400213, -0.048175531397397775,
          0.023999786524441454),
         [(0, 0, -1, 0), (0, -3, 2, -2), (-2, 3, 0, -1), (3, -1, 0, 0), (4, 1, -2, 1),
          (-3, -3, -1, 1), (-1, 4, -1, 0), (1, 1, 1, 1), (1, 0, -1, 1), (-1, 1, 0, -3),
          (3, 1, -1, 1), (3, 2, 0, -1)],
         True, 0),
        ((0.20300493852922966, 0.07964429391084937, -0.024678878016773154,
          -0.015348433268273814),
         [(1, 2, 2, 1), (3, -1, 0, -2), (2, 2, -1, 1), (4, 0, 0, 0), (3, 0, -1, 1),
          (-2, 1, -2, -1), (0, -2, 0, 0), (2, 0, -1, 1), (2, 2, 0, 0), (-1, -3, 2, 0),
          (-1, 1, 2, -1), (-2, 1, 0, -2)],
         True, 0),
    ],
    "zeta": [
        ((0.27028428769963797, 1.1760483613738646, 0.03688798578772334,
          -0.9782842835279797),
         [(0, 0, 7, -1), (-6, 0, 4, 0), (-11, 1, 16, -3), (-14, 3, 10, -1),
          (1, 0, -2, 0), (1, -1, -4, 1), (-14, 2, 3, 0), (-9, 2, 13, -2),
          (1, 0, -4, 1), (-5, 1, 8, -1), (4, -1, 1, 0), (2, -1, 1, -1)],
         False, 6),
        ((0.32264610956044226, 1.6191130352566723, 0.10355135268254656,
          0.655195164781293),
         [(-6, 1, 4, -1), (-19, 3, -9, 1), (-4, 0, -11, 2), (-21, 3, 8, -1),
          (-16, 2, -7, 1), (-4, 0, 4, 0), (-18, 3, 9, -1), (-6, 0, 2, 0),
          (-4, 1, 3, 0), (-8, 2, -14, 3), (2, -1, 1, -1), (-23, 4, 2, -1)],
         False, 6),
        ((0.1160590261074026, 1.1457121755959419, 0.1399724525898195,
          0.7635858682149543),
         [(-6, 1, 2, 0), (3, 0, 0, 0), (2, -1, -3, 1), (-5, 1, 3, -1), (1, 0, -1, 1),
          (-9, 1, -4, 0), (-15, 2, -10, 2), (4, -1, -1, 1), (-1, 0, -3, 0),
          (-8, 1, -7, 1), (-21, 3, -1, 1), (-12, 1, 10, -1)],
         False, 6),
        ((0.23360459037607784, 3.6333550171777915, -0.13009008827396762,
          -0.683497180829381),
         [(-8, 1, 13, -2), (-10, 1, 15, -2), (-12, 1, 13, -2), (-13, 2, 12, -2),
          (-24, 3, 3, 0), (0, 0, 5, -1), (-21, 3, -1, 1), (3, -1, 4, -1),
          (-9, 1, 11, -1), (-12, 1, 0, 0), (-15, 2, 8, -1), (-11, 2, -3, 1)],
         False, 6),
        ((0.49756079316821095, 0.37289516670731176, -0.17188241237285456,
          1.5472167859119552),
         [(-4, 1, -3, 1), (-2, 0, 12, -2), (-12, 2, -11, 2), (-15, 3, 7, -1),
          (-5, 1, -11, 2), (-6, 1, 2, 0), (-16, 2, 11, -1), (-2, 0, 4, 0),
          (-7, 1, 14, -2), (-5, 0, 10, -1), (-23, 3, 6, 0), (-4, 1, 8, -1)],
         True, 0),
        ((0.0896508185917923, -0.2859695635182265, -0.07005983653998721,
          1.1944394544299684),
         [(-2, 0, -5, 1), (-8, 0, 15, -2), (-5, 1, 12, -2), (-4, 1, -11, 2),
          (-13, 1, -4, 1), (-21, 4, 4, -1), (-4, 1, -9, 2), (-8, 2, -6, 2),
          (6, -1, -3, 0), (-9, 1, -3, 1), (-12, 1, -7, 1), (-15, 2, 6, -1)],
         True, 0),
        ((0.05553251135481224, 1.4874762663317656, 0.2349284753788483,
          2.697015279598105),
         [(-13, 2, -3, 1), (3, -1, 5, -1), (-6, 1, -3, 1), (-7, 1, 10, -2),
          (-11, 1, -9, 2), (5, -1, 5, 0), (-11, 2, 10, -2), (2, -1, 0, 1),
          (-8, 1, 14, -2), (-1, 0, 3, 0), (-2, 0, 2, -1), (-20, 3, 1, 0)],
         True, 0),
    ],
}

LATTICES = {
    "lipschitz": lipschitz,
    "hurwitz_box": hurwitz_box,
    "symmetric": lambda: symmetric_domain(0.25),
    "zeta": lambda: zeta_lattice(Quaternion(0.0, 6.0, 0.0, 0.0),
                                 Quaternion(0.0, 0.0, 1.0, 0.0), 0.25),
}


def _real(b):
    base = RealBase(b)
    return RealSystem(base), lambda x, n, mode: base.digits(x, n, mode)


def _complex():
    base = ComplexBase(4.5, 0.05)
    return (ComplexSystem(base),
            lambda p, n, mode: base.expand(Quaternion.complex2(*p), n, mode))


def _quat(name):
    lattice = LATTICES[name]()
    return (QuatSystem(Q, lattice),
            lambda p, n, mode: q_expand(Q, lattice, Quaternion(*p), n, on_ambiguous=mode))


SYSTEMS = {"golden": lambda: _real(PHI), "three": lambda: _real(3.0),
           "complex": _complex, **{name: (lambda n=name: _quat(n)) for name in LATTICES}}

ROWS = [pytest.param(name, *row, id=f"{name}-{i}")
        for name, rows in PINNED.items() for i, row in enumerate(rows)]


def _point(p):
    return np.array(p if isinstance(p, tuple) else (p,), dtype=float)


@pytest.mark.parametrize("name, point, digits, face, certified", ROWS)
def test_base_level_map(name, point, digits, face, certified):
    _, base_map = SYSTEMS[name]()
    assert base_map(point, len(digits), "nudge") == digits
    if face:
        with pytest.raises(AmbiguousValueError):
            base_map(point, len(digits), "error")
    else:
        assert base_map(point, len(digits), "error") == digits


@pytest.mark.parametrize("name, point, digits, face, certified", ROWS)
def test_expand_digits(name, point, digits, face, certified):
    system, _ = SYSTEMS[name]()
    n = len(digits)
    assert expand_digits(system, _point(point), n) == digits
    if face:
        with pytest.raises(AmbiguousValueError):
            expand_digits(system, _point(point), n, "error")
    else:
        assert expand_digits(system, _point(point), n, "error") == digits


@pytest.mark.parametrize("name, point, digits, face, certified", ROWS)
def test_certified_digits(name, point, digits, face, certified):
    system, _ = SYSTEMS[name]()
    got, cert = certified_digits(system, _point(point), RADIUS, len(digits))
    assert cert == certified
    assert got[:cert] == digits[:cert]


OUTCOMES = {
    "dwinning-golden": ("verified", "resolution-exhausted", 7),
    "dwinning-silver": ("verified", "resolution-exhausted", 7),
    "cwinning-nine-halves": ("verified", "resolution-exhausted", 35),
    "qwinning-componentwise": ("verified", "resolution-exhausted", 6),
    "notwinning-lipschitz": ("verified", "resolution-exhausted", 14),
    "notwinning-hurwitz": ("verified", "resolution-exhausted", 16),
    "notwinning-symmetric": ("verified", "resolution-exhausted", 10),
    "notwinning-zeta": ("verified", "resolution-exhausted", 7),
}

# preset -> (alpha just outside its bound, pinned outcome at seed 0)
OUTSIDE = {
    "dwinning-golden": (0.645, StrategyError),
    "dwinning-silver": (0.475, ("verified", "resolution-exhausted", 21)),
    "cwinning-nine-halves": (0.7, ("verified", "resolution-exhausted", 43)),
    "qwinning-componentwise": (0.24, StrategyError),
    "notwinning-lipschitz": (0.83, ("verified", "resolution-exhausted", 14)),
    "notwinning-hurwitz": (0.92, ("verified", "resolution-exhausted", 16)),
    "notwinning-symmetric": (0.79, ("verified", "resolution-exhausted", 10)),
    "notwinning-zeta": (0.27, ("verified", "resolution-exhausted", 7)),
}


def _outcome(preset, seed, **overrides):
    try:
        trace, result = run_setup(build_preset(preset, **overrides), seed=seed)
    except StrategyError:
        return StrategyError
    return result.verdict, trace.status, trace.rounds_played


@pytest.mark.parametrize("preset", sorted(OUTCOMES))
def test_preset_outcomes(preset):
    assert [_outcome(preset, seed) for seed in range(4)] == [OUTCOMES[preset]] * 4


@pytest.mark.parametrize("preset", sorted(OUTSIDE))
def test_preset_outcome_outside_bound(preset):
    alpha, want = OUTSIDE[preset]
    assert _outcome(preset, 0, alpha=alpha) == want


# (preset, bob) -> sha256 of GameTrace.to_json() at seeds 0-3; bob None is the
# losing presets" own avoidance play
TRACE_PINS = {
    ("dwinning-golden", "optimal-drift"): [
        "20e6b6ed5326fa2b840267e740c7c64c13ec2fc16402a7172c695724ab4449da",
        "65fca21625be73d9c3b83e2e1f03bd40976d614696607c7eb0cc200faa838e4d",
        "29bd263f29f049a5010c1c65b7a0ba7d7736b9984ac89324dd6982af6095511c",
        "33b99bcef40d896a3fd3e5fa984d883eafbfc888d32616e0c2ec6d599cecb6f9",
    ],
    ("dwinning-golden", "random"): [
        "b5f6aec0e2fe7f9a59cceda5c3576de0f9e5be157db3f24569fa9c2f37cc2e70",
        "627bfdea9e65352826152af0fca4aed40e3b95f978d6ca3545fce566e4267d95",
        "4976763a89a2d3f436c246cab5c486120717e61545ced28a7c5410a676bd85fb",
        "3c8f34c79f901e4d581952188a94023c5f6e086fcab34630fe4078fc0404e080",
    ],
    ("dwinning-golden", "center-hold"): [
        "90da02fde639c7c218103c3a3bf85d9c5e2b8fd25bc0c353e1f92cfeff2ba9e9",
        "ee0b8522990d61e700b3ab703b2f77548119c8975878cea794bab6af62eecf2e",
        "e0aca5e0c1a6da0b38fd922ab133df9fe7e870b7ba4782b440009a27b2a591c9",
        "5ecf81dd3b9191f131d18032c58d418f07c8b314f918be2d3b307bca81e70df8",
    ],
    ("dwinning-silver", "optimal-drift"): [
        "1b761b715ee00c0a881f714974047d317c85e28439c7b69eb74b1f8ab9cacec6",
        "46e8244df7860c1e089b8ec403712ee5532088a6d65e425a62f831401132cd34",
        "a386788c9b12579909704d688db44734de4aab45bdd5da4efdecc760843a897a",
        "56bb9cda9fe54465f39f5e313b7b1bb778c1b64b8caf4fcbac3d83b6d1bbdfea",
    ],
    ("dwinning-silver", "random"): [
        "07365c316ea131f6a9e4f476a5a2591dcd604c6c58c76bdaeb5be97456acd591",
        "f8517f8972a38cb794a9a5bd43df441605e847ffa67b289201895b86a604d340",
        "95b8f9253de75736a5fe4e4b23bc8ff0e71838fb39ac263e692ae3093277c393",
        "8c6d2b0cfa2c0c16bb59a50e45554981cf3f439c1b4c17b55cffdba5d60d8a7e",
    ],
    ("dwinning-silver", "center-hold"): [
        "e3fdf3b455b0389180d3f0feeff52075760509ac145f01ea4243edbaf7cd5663",
        "3ad9ceddcb26f65f0cf7e64156fa58ac1d2022f5f01b3b9218eac8b3362376d8",
        "bfd20e8fd5afc6a541fc8d36fc34551b7e5de53e04d9ecd5645c81fdb61a350f",
        "28f2d432f7f27bf8cd7cec422ed6edd51d4456f0b4b386d9a0553a80c33ae1d6",
    ],
    ("cwinning-nine-halves", "optimal-drift"): [
        "91d1b63d14aaabedf9fa4c7a0807409348a1ad02290569a6e2e2cfc32093a106",
        "47431d17bae03f479c6f59498718325c15f97fba2477fc92dd2002ca3cd73b3c",
        "577777dff443891c24ffd4a15f87f9e962e1971b30e536b8b251e997534cbf8a",
        "0fecbf1c91aa7b7ba63635e77306605b71a41ffdfee9f70f6b8fb29338a71559",
    ],
    ("cwinning-nine-halves", "random"): [
        "439de10eafd4424f17b04a5ce47142fb7953bef416572709a26a7ac7e0847709",
        "d3c89bc624b799320c46dc014ae50f2fa7719e8b260600c04844167653f14329",
        "a2dcd7062d2ef6cb37fa389ce6a0062610bdcc6305afc99f5a7a86256acbe399",
        "aa75de5b31142581459cd3acc34818547fc7b884729b0463c7f85652cc3d5a6e",
    ],
    ("cwinning-nine-halves", "center-hold"): [
        "45f243d20c38b32ebdcedd1834a302d5e1a59142685e81c381157f68457f0a4e",
        "2fd10763628fa346bc294c7079b63f05e7e50653c938df71dceb0d912d94f179",
        "89dce33519657bd21419cab08d3a470496d1976a8d88b13a0834648cfaefab36",
        "a52130450391ff4b52bc20a06dfbdbf00d7005317ab0abb49d49714afd77a253",
    ],
    ("qwinning-componentwise", "optimal-drift"): [
        "ff4dfe165e53d3dfe2800a68889cec03946ed446172cbf3f644eaaede3ce2126",
        "efafe9ae8da37a162af1b99f41afb200169174b0f85d274e8454f0e71b280e16",
        "2a9a742278a15d963e41c4822ccb0d0af6f241186e58e43d52bcc3df3e29509b",
        "114de37e05b7f0b61f3c514d418198a2ac427121609b6c53916d33786efcbd05",
    ],
    ("qwinning-componentwise", "random"): [
        "eb230ff77e402e23e45c27097d634c8c973f689224be36a70ad4e6225021c29d",
        "241f857211d2dda313b5e82156081f29a2c1ecb10272b23c005f29bbc506c7ed",
        "f846a1e790b0acdc79e0929b683fdad653d1da94d5bc9bc1366a8c83ca46a963",
        "21a60cd068891e044f81d8b2f77315503f0ff7678b810869e5279f325751d744",
    ],
    ("qwinning-componentwise", "center-hold"): [
        "02641267bc34e8cbc69985fc8e7f4eafbab19115152438832b62af531a62fe41",
        "04e4635b4a19dd4feaeb2c5e1f7a9a064fdbe2e464836da9d923c908e72346f5",
        "8e66c5733628735ebbaeaa5ebd438f72d9ea91c1fe42c634b7eb58e6964d8c52",
        "a1fd9af301e288f3f1c090ddaa449ad1924748b74bb05eb92d8b7ad90bf6b535",
    ],
    ("notwinning-lipschitz", None): [
        "4748d77fc85145b6cdf300c96252ca12c84f36274903932aeaef7bda28b56852",
        "1265624c7d4bbb74f0115632364228012192331207f821775c53750c7ceace79",
        "eedd4bd785bbc2c5f3818d139f6656a7e211c113d6b730947a4c7d460006fbd3",
        "6a771eafdb18f4104fd4c1705660a68a4e46bba7d43901965c6d68d0219e7466",
    ],
    ("notwinning-hurwitz", None): [
        "437f86c7a58cb337c9bb07e6f534e249eb15cdf102dd481bd709fbfc5f257d90",
        "815288fb51b13135ea89b4960333341451c272e34fa77b29d298538642093061",
        "06b669e2157f6989189d88135ec836ccd11e773f3aec29521aca3b0ea1ca627e",
        "f463f8432f575f230e18123bbdaa7cc758ed630111cf894aee9d0e5e9f3663a0",
    ],
    ("notwinning-symmetric", None): [
        "d5f5b4e281b794bc00785f6a19215ad19971899512ca6ac5abf6c51a59c905c4",
        "d279feacd1263ab8d20edb3243f9a12dd18d88f33280f6e5e9b0ae4d5652ca7c",
        "86ae325881a6e7d0289965d6cc213fe3d4ec39727c22b78300deaedb18b07fbe",
        "ae13ceda51638bc270e3dcadcb8d0d42e2dd001345f583b7cae7606042e46429",
    ],
    ("notwinning-zeta", None): [
        "a285bda9cee04f05342b4b5954dc8d3341824121f4f5e33e7e888c43e1ce4cc4",
        "69accfff9906c7e4f4d27e5e9e6e41a0884abd1606d578248038cddf56d257ef",
        "5dabaeab4d078c600bfe9f96412fe8e1a0fd22e1f235817c4331fb8877020f69",
        "5b523746b94307af2298c33600de1dbf41324896fa05b023f29976f9f567a03b",
    ],
}


TRACE_ROWS = [pytest.param(preset, bob, seed, digest, id=f"{preset}-{bob}-{seed}")
              for (preset, bob), digests in TRACE_PINS.items()
              for seed, digest in enumerate(digests)]


@pytest.mark.parametrize("preset, bob, seed, digest", TRACE_ROWS)
def test_trace_bytes(preset, bob, seed, digest):
    trace, _ = run_setup(build_preset(preset, bob=bob), seed=seed)
    assert hashlib.sha256(trace.to_json().encode()).hexdigest() == digest


# (preset, alpha, bob) -> sha256 of GameTrace.to_json() at seeds 0-3 above the
# preset's bound.  Bob's drift meets the domain's face and is clipped there in
# 3 of nine-halves' 52 rounds at alpha 0.78 and in all but its first round at
# 0.84 and beyond; at these alphas silver and componentwise play their drift
# unclipped, through the same box test.
CLIPPED_PINS = {
    ("cwinning-nine-halves", 0.78, "optimal-drift"): [
        "b7fe3a0ee5d015a79dd2177b50c0357c8037325dd421eeaf17c737f4f9860eb6",
        "a8ebcfb58ec1a3c97714eca96b516f040c21fce8c4577ebd9dcb8174b6e0af91",
        "2eb090f362ecabefc324cbf2299bc572eb16d58136b89e87304452ff3d0221dd",
        "2a5981fe2d174afe5f8bb069e814ab6e60938d35b8cda69802a8388e17a9a4a9",
    ],
    ("cwinning-nine-halves", 0.84, "optimal-drift"): [
        "ebae49704645f66369b0b1f8b7223908b448892e8dd5a0502c0f65653c1e6616",
        "2bb994a719d0df316b73cd231ecbace3aa6f58ead5e732de03281e8915a3549d",
        "3b59cf89f8dc643a6189b9892aa03642502bedbbdf0fbdd53c7838aceb68c212",
        "f2bdf034c475a4ee4ad9fcb18d2e1aef7e8744e917066322299ef61b13b1b0cc",
    ],
    ("cwinning-nine-halves", 0.9, "optimal-drift"): [
        "a0ec210b884433472cd9a85813cf44d7163ad95f777a26e0962132d15a11e3ec",
        "3c61e0b3a01fa8083f0d03fe4a909454ff65c9a6c9f52dc53cf6482d4fc1572c",
        "093a0e39654df037e0441694cebd4e343cd7598b2be3b9916aacd93078bec0ee",
        "49aeb339d0237591b697a6f50c9ab3836034a0ad1748ac5d45a2f7c7eb96efe9",
    ],
    ("cwinning-nine-halves", 0.94, "optimal-drift"): [
        "0f5c27283b1187dc1e1c0af43780123dbd5d7dceda4629cd703e40c66962ace8",
        "7b2d704dcf92678c3c54a052b96487cc9c4668a7252b677cc8c52a5844730b63",
        "5066ee4f0d017cacf74f59ba1cb34b02ebcdaa41cdf852a76fad40d6af0b2f91",
        "8afdaa3ee5f0b2a509c8721b5628b4aa433da445a73d0b631634a746ad819a4f",
    ],
    ("dwinning-silver", 0.475, "optimal-drift"): [
        "fba01440a00ce50316ef4ab51b082d1efe2ebd89ad584a40efc899589888c7b7",
        "c40cdfeeebaf37053b58d0a6cd8dede244a3e29c5d8f8b59fa546b631500565b",
        "74e731035cb3ec9fe762dddf325d42c1d1eaadbabd15021f3b098928d6dc5d0b",
        "ad1875f9a15e54c446b3b18d34c72d99179d5b854576fb2cd2a051ec831b4489",
    ],
    ("dwinning-silver", 0.6, "optimal-drift"): [
        "10012a74e807b049f9d822e0ac07294e15e20eeb6d89b6444d5f33cb30d606b7",
        "035fa098b0ed25461c8bdd6b61453451d660c0bc8cbfa97e852a761364196c66",
        "7faacb42471c3de6633f7291fe8eda8943020cc83b8885495a05ce1e79455697",
        "61b3093c3edff33ab377f81703dfa9c6aff865834d61d15d1cb1a91e50819a7b",
    ],
    ("qwinning-componentwise", 0.2, "optimal-drift"): [
        "a5c090b9461c4c4808567bebf75a17aede8b10913a07b310e729a248e1466188",
        "fdad4688c6915823f2d63bbc91357b5bc4a151d63e2a6ff120c1430c3b953da4",
        "19a587ea3c590035f8d3430663381b5c216059853de288d28952c9236ce44b5b",
        "ac1e897085e97d871585982beaff41428092a51d08b8e5b689f0d5eb0773460c",
    ],
}


CLIPPED_ROWS = [pytest.param(preset, alpha, bob, seed, digest,
                             id=f"{preset}-{alpha}-{bob}-{seed}")
                for (preset, alpha, bob), digests in CLIPPED_PINS.items()
                for seed, digest in enumerate(digests)]


@pytest.mark.parametrize("preset, alpha, bob, seed, digest", CLIPPED_ROWS)
def test_clipped_trace_bytes(preset, alpha, bob, seed, digest):
    trace, _ = run_setup(build_preset(preset, alpha=alpha, bob=bob), seed=seed)
    assert hashlib.sha256(trace.to_json().encode()).hexdigest() == digest
