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
        "94fc48e038e8b2e2ba6fefb9115d19b298db41b7eab9fe9329052c58fa70cba8",
        "1df3154e64e34d51db28a289dcd6638100464a131c859354bdb6179627731207",
        "35a94aac457cf84a87c7550ba2c903e0f649c6f3135ef0f9ab065984d4881bad",
        "1d6d4efb15020dbbcce365f67378f137ac6c2fa5fcff4f5b72894e41794000a4",
    ],
    ("dwinning-golden", "random"): [
        "d9f23aeccad31769ab461101e36442f65336ff68d1d3ee66eb9060fac2319b7b",
        "09d64c2ebae26e080d806f99d39269ce949386e496e7f4aff26a05d4691a1d88",
        "d3b135a85cb17cf72f471e5302fc862cd4a3b3d2b01a7d065ad5bf27f51af490",
        "da2b59eeaf1793568910d80ab95298c0cfe1333bc05000094bda682ab1948c5d",
    ],
    ("dwinning-golden", "center-hold"): [
        "d7791c8878423766970839cc7e0c4427af43cd22501b05478fe9b6f65bad0348",
        "2d4ba9bf31a6f5a7565207d1b5e7e327fe4cbf8967d55bcbba8de0c1d501cf18",
        "8b82c83e1ffb9ed273f690db218616877d68757395b518a04fae2ecc8e1f458f",
        "d353477e64e4676d7d2dd7eefdf232e50303841b332816eeee5b8257d41d74a9",
    ],
    ("dwinning-silver", "optimal-drift"): [
        "80d8df77f43d7a2b3e992d591ea99c30de65c61338a78a1318106544e8df3d70",
        "4d6831448882bff24c35de88cd3e3e939ee531b8d0ec7451092ea10b942bc0b4",
        "abd56be4a2ac41c773ccdc0d894797e9dc6cda2b3cfea970d09fde6020ce0547",
        "fa7a895bb44b3d4f5b73b542f3f80fb23d2d028914eeae9b512fcbe57652e2d7",
    ],
    ("dwinning-silver", "random"): [
        "b787655f7c126595ee2cfefd4fe6b13b1c136822aff22567d54126380c021ebe",
        "9855fe00bde662b2a70072ba508a715bccd5048a6c262e219c6a8f7afc3279d1",
        "1daed085be6d40a8cfc9bbc47ff0d22ec35377609578dbca2d9449e413ff5f9f",
        "a898098de91fc30a68ab59bcc9938b370cb3a148ad881a82c7aa29af2ee2b723",
    ],
    ("dwinning-silver", "center-hold"): [
        "8e14fad17a79dc94646966e45fb28a24400c653f87369f0b583b578d212a0048",
        "56c5cd0fa5a2f4831a7411b1eb7f4c48ac6994e0cfa45a9172fb0c25148788ae",
        "ad2b9cad1fbef693d44aae12e9ed843c319dea971538f12662f671341c37bbc0",
        "390e1de02cdb10e0ae5cd790f1224ecda13c90be0f06f4b51d951007a61270b8",
    ],
    ("cwinning-nine-halves", "optimal-drift"): [
        "8a4128a54a6723dfa8ca10f4e44b3b0cb9ac5d3b1523387249bee4607c984b1a",
        "6358910a57979a5524378241208c892d73866e7a41f9411bd4adde8479f6f05d",
        "70a7534e752d08a079eea60d2e3889f9b4c91200ef3bea1fad6ac63ad14f7b24",
        "7f9a2db7fc9e012a6f79d3ff43c10f867b98750c71c60fc48b5001d7c492895d",
    ],
    ("cwinning-nine-halves", "random"): [
        "e201318b08e66ebfd4e76ea05768fdc90e19f3596d6617b9e729ca06d50b22f0",
        "93e1e0ed9c475672a988a9a1ff56d47e8a5fbea438d1a20ffbf2e608e8dc1813",
        "9b9ba33a17232d870b7967910a66c23d5a7e7642b83993f72501935cf17fd565",
        "4c6aad75e44dd061f74fc739f0920ca7249e90d2dd789e7a7afd08a487c468a5",
    ],
    ("cwinning-nine-halves", "center-hold"): [
        "ba8126e75111ed24da6d38ea3739b509b4667618c4bedddb1ade742420f59224",
        "3a2d1d0de81cc09504b75af41e388f51bfbdf98f8e5c5b8cebe7cab67a9efabe",
        "9d4151f51a34d39c93f2b313492b0492b14641db40d6d1829d7b60292859d145",
        "f299b1cc6bbe2ab857ebbdab3916c4ff9dc4eb879f21c4f0cdaff5421a35b8c2",
    ],
    ("qwinning-componentwise", "optimal-drift"): [
        "d8cac11257ae20d7516d31e4d807e092009ebc51d3b9e926ecbafd64aa56dfd6",
        "167677ed97c670092ce30c1304d53592de1cf8505d9df3c15274cbcf3ba8d4fc",
        "c253d393cfd9e03d7668550ebfd47f13706667b3de088f44060455ce2593db1f",
        "dd9e8b0e4c773e4c638939db74ccee8dfbf67ff621a1250e79213e9c45307468",
    ],
    ("qwinning-componentwise", "random"): [
        "be94d6ae77387f13b7add14523bb1b11ea10c1e155f0a0e2951d9c0af46157ed",
        "aa11fa8352a45c52e55e17f8ff460909a92974b2725f9dc5cb8bcea579668735",
        "9522553260c0dd5a23e51161f535c881b95891a96a85f480c0052ba079901fd2",
        "c8773e6de23a2791a38c769b4a21a26237f503b609f8d0aa5105fcd765e8037b",
    ],
    ("qwinning-componentwise", "center-hold"): [
        "381b95655eca9c2b9f0e23346d34bbc857d467000de41b80ccf2ab3683e50c84",
        "e6b04870d055ff6496117a0f4377ed815938dfc65127a8a56b0d28497a6374e8",
        "9a9b382b3acf773d5f2fd92a0530659cd268700e46cde434d6c64bdacd7a081a",
        "00118a71d0efc7d333acafe603b00ab53a277b4e20540334c7f9c76fe6054b55",
    ],
    ("notwinning-lipschitz", None): [
        "6ae8fdd69debf56c15816519af2c3b2fa79222d9df740ef4a823f056e158cbcf",
        "21834d431754754282cf155e3d1da9f5067518d02f6f5090082d5bb63b467a17",
        "4d81406a6913c64e2196308d23eb373615cedbe6272fc429af56f45d8d943ba8",
        "1b17e87dff84f64c740222c63f3c7dfcc5809257dc5b48c2c7b1f92af877195d",
    ],
    ("notwinning-hurwitz", None): [
        "a5e8675245f3c0e65346e0963aba96673d29341fd09fdf2d5dd36ee93d92b626",
        "9f05464c57b87e0a72ca2a0ca19dca56e2dabadaa98e902de6e700b181c4c565",
        "c1f26571cf4ea3afe8c7b64c9c9f12703e292511b81b737435dcbd3cd8f64fda",
        "967cc8bd37bb33943259d2660247a28567cf7646e39cae15f612afefd1271bed",
    ],
    ("notwinning-symmetric", None): [
        "8112ef2b2b78f9b33580cde5369b46527e6eb4edbd17f2fa2da44bbff9a5d029",
        "15b24937368d1468439c070ab35956761e6d753e4014081d72f4a9da9b31a113",
        "3284ed51587c2c57135c6acd6a8fa762c69f4372e0bfc0667a94d5da7847b794",
        "6149d98094d65fa60c3d8ce34927c2312f3424d938b428eb08c0618e560810f6",
    ],
    ("notwinning-zeta", None): [
        "948344673134dd2b924dabbbbe8bd46130debb2b4ee37fedc5acb7e1a5cbed2e",
        "27206a024864df55a32c833bb4473a753d8c3a280257294fd76705f31721e596",
        "a3aa1ac654e636d32c68fa81a8171c09ded8f0d35e553bf943ee08aa766c3687",
        "195ad0e03b3c1f834c58eee1d72622e6d7fd4130b8d60064fa9266cd911d9bd0",
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
        "f4597ad212f56bbb19a99887d217e9f8d66e72f1045ab46465f828fc65e33525",
        "532495730fbb417dddf58679772b16866cceb46b86e766ef8b0b53ee2a0ce1de",
        "b42bd5d9c91a58ab062a0bce1ed6a860d2a4127762c9359629b493889ead78e7",
        "254ec5c3b5d6bf029ba93eb4ae49dbc7d483d186f64c052264bf69015f31f8ce",
    ],
    ("cwinning-nine-halves", 0.84, "optimal-drift"): [
        "9429e73e3042e027cf9a2768e67c63c1ce9a4f8ff3afd369b52387e78c379192",
        "fcf32a42e57e73a4482cdb8e260d7a3afda226cea964bfbef2356f27aaa0db18",
        "9c0fb74c86dc5361e697c8ff46eeed9fffdb9d65ac9ad48e43ee28da623bcdbd",
        "0fad526c8ddb27953141f607a9dd724d67e15d2808d49bd59ee91c195775f247",
    ],
    ("cwinning-nine-halves", 0.9, "optimal-drift"): [
        "0466e8007de0fc338d543f1ded8b10c98bf60b3014f61d07a088263b9bf9ebf7",
        "5cd6d1ab8bb2c29188d235f3180fd7dc670450aa9f98379b624de3499d50ae66",
        "ea1fbda3ff64aaa103b5a486c356ee81afaf7c2d0c8086b0439d2f0620c18eca",
        "bbb493c21e13cd9d3f3ab108710c47b849686b5c5b567a8b0d39fc661f8a2a5d",
    ],
    ("cwinning-nine-halves", 0.94, "optimal-drift"): [
        "8a544f2a6f54b5b847c988dd819f428ed73da5d310d91a6459f2d64decfc225c",
        "8745d85550bb12764104d30ec0c2208a09927e38ee86a9cbc4a6f6cad9ba1bd7",
        "3d015a1928bee212e22bcc851ca8fa611980c4bd2622830d2835919c56c39f60",
        "3ac2703c26e01c7c6a27b9fe092c6441e5272b15dec2b0b3015e862d156abc00",
    ],
    ("dwinning-silver", 0.475, "optimal-drift"): [
        "acbbc258ed606a5926f7d9ab9f0c3585414ba8c94f7a4342caa18685401f5c5d",
        "66727cd7fc36bec803ba54c2b6000f3815ad1a97e6e87cd5d34342f9c038ffe5",
        "257d1609850045b7aa3eaee07165cd894e0e00c2d21f32d6ba81166c5aec807a",
        "3b9c4de8ee4ace65b3b1d1469ba7ee45957d3224f7c1d6f3e484bd2c44c98a9f",
    ],
    ("dwinning-silver", 0.6, "optimal-drift"): [
        "6625b29c70ea290fb3881dcbe76486404619885ca43629f60ee30d15f88e6f5f",
        "0dea544668f978efb5bb68659c388cefd67b341bb03e954521c9b660cf05b4a4",
        "7f6e5af48b3386ef4b9589fe148c59176aa2b31036131dec5cd8be9366a4392c",
        "8115b7b073b2f5176af7b735ed3af0afbcce8fb9367e9daa2aa6510a2dd21b82",
    ],
    ("qwinning-componentwise", 0.2, "optimal-drift"): [
        "5878560c3accb934e3b65cb1e553cb48dd8aae2a6ded636b396e53db8da779c4",
        "c27f5a6e04998c5df95376cb08ab6cf8579cce0daa8a52aee99aaff87b43b53a",
        "7c6f85bfa92329bcc51da119f672285c5f22e6ef18f765192c1356cd7d2cf2da",
        "308fb9f28d112db39d710f75e06a4edced516e1eb0421ed4c855f2506dbaee74",
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


# (preset, x0) -> sha256 of GameTrace.to_json() at seeds 0-3 with the preset's
# own alpha and Bob.  Started at 0.999, golden's drift meets the face at 1.0
# and is clipped in one of its 7 rounds in each game: the one 1-D clipped
# drift pinned here, as no 1-D or 4-D preset game at its default start clips.
CLIPPED_START_PINS = {
    ("dwinning-golden", 0.999): [
        "0dba331bf7184bc11291226f33408076d1acdc12e5983b66204c255cee5be573",
        "4b1a79ac54d4b89cc58a0964ef629adeba1f30828c8799c1ea2fe489d48ba23d",
        "897e35dd326d93b88ef45546be0d6b5d9154a8e7b37a986470c104846a2a8d5d",
        "a80d3fc59f51a219aba62bb02cea6716a6546015fdac7fa6e97e9d960dab78cc",
    ],
}


@pytest.mark.parametrize("preset, x0, seed, digest", [
    pytest.param(preset, x0, seed, digest, id=f"{preset}-x0={x0}-{seed}")
    for (preset, x0), digests in CLIPPED_START_PINS.items()
    for seed, digest in enumerate(digests)])
def test_clipped_start_trace_bytes(preset, x0, seed, digest):
    trace, _ = run_setup(build_preset(preset, x0=x0), seed=seed)
    assert hashlib.sha256(trace.to_json().encode()).hexdigest() == digest
