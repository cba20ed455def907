"""Pinned outcomes of the four losing presets.

Each row is one game: preset, alpha (None for the preset's default), game
seed, then the verdict, the status, the rounds played, how many digits
certified_digits certifies for the final ball, and those digits.  The games
are every preset at its defaults with seeds 0-7, and sixteen alphas per
preset drawn from windows on both sides of its avoidance bound (0.833
lipschitz, 0.921 hurwitz, 0.8 symmetric, 0.272 zeta), one game seed each,
plus notwinning-lipschitz at alpha 0.43, seed 2, whose Bob clips rounds 3,
6, 7 and 9-11.  Clip notes and the last bits of the centers are not
pinned: they depend on how Bob's formula center is rounded.

The same games are rechecked at 60 digits with maps built from q and the
lattice basis, independently of the float digit kernel.
"""

import mpmath
import pytest

from beta_arena.presets import build_preset, run_setup
from beta_arena.strategies import bob_avoid_block

# (preset, alpha, seed, verdict, status, rounds, certified, certified digits)
PINS = [
    ('notwinning-lipschitz', None, 0, 'verified', 'resolution-exhausted', 14, 12,
     "-3,3,3,2 -4,2,2,3 -3,2,2,2 -3,3,2,3 -4,2,3,2 -3,2,3,3 -4,2,2,2 "
     "-4,2,3,3 -4,3,3,3 -4,3,2,3 -4,3,2,3 -4,3,2,2"),
    ('notwinning-lipschitz', None, 1, 'verified', 'resolution-exhausted', 14, 12,
     "-4,3,2,3 -3,2,3,2 -4,2,2,3 -4,2,2,2 -3,3,3,3 -4,2,3,3 -3,2,3,2 "
     "-4,2,3,2 -4,2,2,3 -4,3,2,3 -3,3,2,2 -3,2,2,2"),
    ('notwinning-lipschitz', None, 2, 'verified', 'resolution-exhausted', 14, 12,
     "-3,3,3,3 -3,2,3,3 -3,2,2,2 -3,2,3,2 -4,2,2,2 -3,3,3,3 -3,3,3,2 "
     "-3,2,2,3 -4,3,2,3 -3,2,3,3 -3,3,2,2 -3,2,2,3"),
    ('notwinning-lipschitz', None, 3, 'verified', 'resolution-exhausted', 14, 12,
     "-4,3,2,2 -4,2,3,2 -4,3,3,2 -4,3,2,2 -4,3,3,2 -3,2,2,3 -4,3,3,3 "
     "-4,3,3,3 -4,3,2,3 -4,3,3,3 -4,3,2,3 -4,2,3,2"),
    ('notwinning-lipschitz', None, 4, 'verified', 'resolution-exhausted', 14, 12,
     "-3,2,3,3 -4,2,2,2 -4,3,2,3 -4,3,3,2 -4,3,2,3 -3,3,2,2 -4,3,3,3 "
     "-4,2,2,3 -3,3,2,2 -4,3,2,2 -3,3,3,3 -3,3,2,3"),
    ('notwinning-lipschitz', None, 5, 'verified', 'resolution-exhausted', 14, 12,
     "-3,2,2,3 -4,3,3,3 -3,2,2,3 -3,2,2,3 -4,3,2,3 -4,3,3,3 -4,3,3,2 "
     "-4,2,2,2 -3,2,2,2 -3,2,3,2 -3,3,2,2 -3,3,3,2"),
    ('notwinning-lipschitz', None, 6, 'verified', 'resolution-exhausted', 14, 12,
     "-3,3,3,2 -4,3,3,2 -4,3,2,2 -3,3,2,3 -3,3,2,3 -3,3,2,3 -4,2,2,2 "
     "-4,3,3,3 -3,3,3,3 -4,2,2,2 -3,3,2,3 -3,2,2,3"),
    ('notwinning-lipschitz', None, 7, 'verified', 'resolution-exhausted', 14, 12,
     "-3,3,2,2 -4,2,3,2 -3,2,2,3 -4,2,3,2 -3,2,3,2 -4,3,3,3 -3,3,2,2 "
     "-4,3,2,3 -3,3,3,3 -4,3,2,3 -4,2,2,3 -3,2,2,2"),
    ('notwinning-lipschitz', 0.430622, 4005, 'verified', 'resolution-exhausted', 14, 12,
     "-4,2,3,2 -3,2,3,2 -4,2,1,2 -3,3,2,2 -5,2,3,2 -3,2,2,3 -4,2,3,3 "
     "-4,3,2,3 -3,2,4,2 -2,2,3,3 -4,1,3,2 -3,3,1,2"),
    ('notwinning-lipschitz', 0.454045, 47336, 'verified', 'resolution-exhausted', 14, 12,
     "-4,2,3,3 -3,2,3,3 -4,3,3,2 -4,3,2,2 -3,3,2,3 -3,3,2,2 -3,2,3,2 "
     "-4,3,2,3 -4,3,2,2 -3,3,3,3 -4,3,2,2 -4,2,4,2"),
    ('notwinning-lipschitz', 0.569126, 57606, 'verified', 'resolution-exhausted', 14, 12,
     "-4,2,2,3 -3,3,3,3 -4,3,3,3 -3,2,3,3 -4,2,3,2 -4,2,3,2 -4,3,2,3 "
     "-4,3,3,3 -4,3,3,3 -4,2,2,2 -3,3,2,2 -4,2,2,3"),
    ('notwinning-lipschitz', 0.571461, 34382, 'verified', 'resolution-exhausted', 14, 12,
     "-3,2,2,2 -3,3,3,3 -3,2,2,2 -3,3,2,2 -4,2,3,3 -4,2,2,2 -4,2,2,3 "
     "-3,3,2,2 -4,2,2,3 -3,3,2,2 -3,2,3,3 -3,2,3,3"),
    ('notwinning-lipschitz', 0.66658, 37645, 'verified', 'resolution-exhausted', 14, 12,
     "-4,2,3,2 -4,3,2,2 -4,2,3,3 -3,3,3,2 -3,2,2,3 -3,2,3,3 -3,3,3,3 "
     "-4,2,3,3 -4,3,2,3 -3,3,3,3 -3,2,3,3 -4,2,2,2"),
    ('notwinning-lipschitz', 0.691113, 47516, 'verified', 'resolution-exhausted', 14, 12,
     "-4,2,2,2 -3,2,2,3 -4,2,3,3 -4,2,2,3 -4,2,2,3 -3,3,3,2 -3,3,2,2 "
     "-3,2,3,3 -4,2,2,3 -4,3,3,2 -4,2,3,2 -3,3,2,3"),
    ('notwinning-lipschitz', 0.722992, 28322, 'verified', 'resolution-exhausted', 14, 12,
     "-3,2,2,3 -3,3,3,3 -4,3,3,3 -4,2,3,2 -4,3,2,2 -3,2,3,2 -3,3,3,3 "
     "-4,2,2,3 -4,3,2,2 -4,2,3,3 -4,3,2,3 -3,2,3,2"),
    ('notwinning-lipschitz', 0.76038, 1061, 'verified', 'resolution-exhausted', 14, 12,
     "-4,3,2,3 -4,3,3,2 -4,3,2,2 -3,2,3,3 -4,2,3,2 -3,3,2,3 -3,3,3,2 "
     "-3,2,2,2 -4,3,2,3 -3,2,3,3 -4,2,3,2 -4,3,2,2"),
    ('notwinning-lipschitz', 0.858827, 40575, 'verified', 'resolution-exhausted', 14, 12,
     "-4,3,2,2 -3,2,2,3 -3,3,3,2 -4,3,3,2 -4,3,2,2 -3,2,2,3 -3,2,3,2 "
     "-4,3,3,3 -4,2,3,2 -3,3,3,2 -4,3,3,2 -4,2,3,2"),
    ('notwinning-lipschitz', 0.867903, 9486, 'verified', 'resolution-exhausted', 14, 12,
     "-4,2,3,2 -3,3,2,3 -3,2,2,3 -3,2,2,2 -4,2,2,3 -3,2,2,2 -3,2,2,3 "
     "-3,3,2,3 -4,3,3,2 -4,2,2,3 -4,2,3,3 -3,3,3,3"),
    ('notwinning-lipschitz', 0.885109, 26772, 'verified', 'resolution-exhausted', 14, 12,
     "-4,3,3,3 -4,2,2,3 -4,3,2,3 -4,2,3,3 -4,2,3,2 -3,3,2,2 -4,2,2,3 "
     "-3,2,2,3 -4,3,2,2 -4,3,3,3 -3,3,3,3 -4,2,3,3"),
    ('notwinning-lipschitz', 0.894022, 16799, 'verified', 'resolution-exhausted', 14, 12,
     "-4,3,3,3 -3,2,2,3 -3,3,3,2 -4,3,3,3 -4,2,3,3 -4,3,2,3 -4,3,2,2 "
     "-3,2,2,3 -4,2,2,3 -3,2,2,2 -4,2,3,3 -4,2,3,3"),
    ('notwinning-lipschitz', 0.917643, 58369, 'verified', 'resolution-exhausted', 14, 12,
     "-3,2,2,2 -3,2,3,2 -3,2,3,2 -3,2,3,2 -3,3,2,2 -4,2,3,2 -4,2,2,3 "
     "-4,2,2,2 -3,2,3,3 -4,3,2,2 -4,2,2,2 -4,3,2,2"),
    ('notwinning-lipschitz', 0.923897, 22822, 'verified', 'resolution-exhausted', 14, 12,
     "-4,2,3,3 -3,2,2,2 -3,2,2,3 -3,2,2,2 -4,3,2,3 -3,3,3,3 -4,3,3,2 "
     "-3,2,3,2 -3,3,3,3 -3,2,3,3 -4,2,3,2 -3,3,3,2"),
    ('notwinning-lipschitz', 0.949507, 21574, 'verified', 'resolution-exhausted', 14, 12,
     "-3,3,3,2 -4,3,2,2 -4,3,2,3 -4,3,2,3 -4,2,3,2 -3,2,2,2 -3,3,2,2 "
     "-3,2,2,3 -3,2,3,2 -3,2,3,2 -3,2,2,2 -4,3,2,2"),
    ('notwinning-lipschitz', 0.96983, 57101, 'verified', 'resolution-exhausted', 14, 12,
     "-3,2,2,2 -3,2,3,2 -4,2,3,2 -3,2,3,3 -3,2,2,3 -3,2,3,2 -3,3,3,2 "
     "-4,2,2,3 -3,2,3,3 -4,3,2,2 -3,3,3,3 -4,3,3,2"),
    ('notwinning-lipschitz', 0.43, 2, 'verified', 'resolution-exhausted', 14, 12,
     "-3,3,4,3 -3,2,3,3 -3,1,2,2 -3,2,3,2 -4,2,2,2 -3,3,3,3 -3,3,2,1 "
     "-3,2,2,3 -4,3,2,3 -4,3,3,4 -2,3,2,3 -3,2,2,3"),
    ('notwinning-hurwitz', None, 0, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,4 -3,2,-2,5 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 "
     "-3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,5"),
    ('notwinning-hurwitz', None, 1, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,4 "
     "-3,2,-2,4 -3,2,-2,4"),
    ('notwinning-hurwitz', None, 2, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,4 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,4 -3,2,-2,4 -3,2,-2,5 "
     "-3,2,-2,5 -3,2,-2,4"),
    ('notwinning-hurwitz', None, 3, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,4 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,4 -3,2,-2,4"),
    ('notwinning-hurwitz', None, 4, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,5 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,5 "
     "-3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 "
     "-3,2,-2,4 -3,2,-2,5"),
    ('notwinning-hurwitz', None, 5, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,4"),
    ('notwinning-hurwitz', None, 6, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,4 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 "
     "-3,2,-2,4 -3,2,-2,4"),
    ('notwinning-hurwitz', None, 7, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,4 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,4 -3,2,-2,4"),
    ('notwinning-hurwitz', 0.601919, 41710, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-1,4 -3,2,-2,5 "
     "-3,2,-2,4 -3,2,-2,5"),
    ('notwinning-hurwitz', 0.605954, 57741, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 "
     "-3,2,-1,5 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,3,-2,5 "
     "-3,2,-2,5 -3,2,-1,4"),
    ('notwinning-hurwitz', 0.699582, 6449, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 "
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 "
     "-3,2,-2,5 -3,2,-2,4"),
    ('notwinning-hurwitz', 0.714503, 31743, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,5 -3,2,-2,5 -3,2,-1,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,5"),
    ('notwinning-hurwitz', 0.764283, 4668, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,4 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 "
     "-3,2,-2,5 -3,2,-2,4"),
    ('notwinning-hurwitz', 0.810982, 12076, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,5 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,4 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 "
     "-3,2,-2,4 -3,2,-2,5"),
    ('notwinning-hurwitz', 0.879031, 16294, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,4 -3,2,-2,4 "
     "-3,2,-2,4 -3,2,-2,4"),
    ('notwinning-hurwitz', 0.882649, 14996, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,4 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,4 -3,2,-2,5"),
    ('notwinning-hurwitz', 0.929342, 63902, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,4 -3,2,-2,4"),
    ('notwinning-hurwitz', 0.935297, 48327, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 "
     "-3,2,-2,4 -3,2,-2,4 -3,2,-2,5 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,4"),
    ('notwinning-hurwitz', 0.949938, 13790, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,4 "
     "-3,2,-2,5 -3,2,-2,5"),
    ('notwinning-hurwitz', 0.957259, 978, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 "
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,4 -3,2,-2,5 "
     "-3,2,-2,5 -3,2,-2,4"),
    ('notwinning-hurwitz', 0.967594, 58806, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,4 "
     "-3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,4 -3,2,-2,5 "
     "-3,2,-2,5 -3,2,-2,5"),
    ('notwinning-hurwitz', 0.967901, 27795, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,4 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 "
     "-3,2,-2,4 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 "
     "-3,2,-2,4 -3,2,-2,5"),
    ('notwinning-hurwitz', 0.975383, 35728, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 "
     "-3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,4 "
     "-3,2,-2,4 -3,2,-2,4"),
    ('notwinning-hurwitz', 0.975568, 9240, 'verified', 'resolution-exhausted', 16, 14,
     "-3,2,-2,4 -3,2,-2,4 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 -3,2,-2,5 "
     "-3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,5 -3,2,-2,4 -3,2,-2,5 "
     "-3,2,-2,5 -3,2,-2,4"),
    ('notwinning-symmetric', None, 0, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', None, 1, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', None, 2, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', None, 3, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', None, 4, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', None, 5, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', None, 6, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', None, 7, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', 0.550507, 29104, 'verified', 'resolution-exhausted', 10, 8,
     "-3,-3,2,2 -1,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-3,2,2 -2,-3,2,2 "
     "-3,-2,2,2 -3,-2,2,2"),
    ('notwinning-symmetric', 0.563474, 13973, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,3,2 -1,-1,1,1 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,1,2 -1,-2,2,2"),
    ('notwinning-symmetric', 0.635815, 46258, 'verified', 'resolution-exhausted', 11, 9,
     "-2,-2,3,2 -2,-2,2,3 -2,-2,1,2 -1,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2 -2,-1,2,2"),
    ('notwinning-symmetric', 0.648692, 19849, 'verified', 'resolution-exhausted', 11, 9,
     "-2,-2,2,2 -2,-2,2,1 -2,-2,2,1 -3,-2,2,2 -2,-3,2,2 -2,-2,2,3 "
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', 0.698009, 25345, 'verified', 'resolution-exhausted', 11, 9,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', 0.71892, 42700, 'verified', 'resolution-exhausted', 11, 9,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', 0.737595, 47847, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', 0.769161, 49983, 'verified', 'resolution-exhausted', 11, 9,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', 0.811945, 8049, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', 0.818754, 34507, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', 0.847273, 40731, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', 0.849519, 39526, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', 0.887608, 4583, 'verified', 'resolution-exhausted', 11, 9,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', 0.890335, 58226, 'verified', 'resolution-exhausted', 11, 9,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', 0.938302, 35534, 'verified', 'resolution-exhausted', 10, 8,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2"),
    ('notwinning-symmetric', 0.946843, 28994, 'verified', 'resolution-exhausted', 11, 9,
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 -2,-2,2,2 "
     "-2,-2,2,2 -2,-2,2,2 -2,-2,2,2"),
    ('notwinning-zeta', None, 0, 'verified', 'resolution-exhausted', 7, 10,
     "-10,0,-9,0 -15,0,-8,0 -10,0,-10,0 -9,0,-4,0 -9,0,-9,0 -9,0,-16,0 "
     "-8,0,-10,0 -13,0,-7,0 -8,0,-10,0 -9,0,-8,0"),
    ('notwinning-zeta', None, 1, 'verified', 'resolution-exhausted', 7, 10,
     "-9,0,-10,0 -9,0,-12,0 -9,0,-10,0 -10,0,-14,0 -9,0,-8,0 "
     "-15,0,-12,0 -9,0,-9,0 -3,0,-13,0 -9,0,-10,0 -3,0,-13,0"),
    ('notwinning-zeta', None, 2, 'verified', 'resolution-exhausted', 7, 10,
     "-10,0,-9,0 -15,0,-12,0 -9,0,-10,0 -7,0,-8,0 -10,0,-9,0 "
     "-7,0,-10,0 -9,0,-8,0 -10,0,-9,0 -9,0,-9,0 -13,0,-4,0"),
    ('notwinning-zeta', None, 3, 'verified', 'resolution-exhausted', 7, 10,
     "-9,0,-10,0 -5,0,-7,0 -8,0,-9,0 -7,0,-9,0 -9,0,-10,0 -9,0,-7,0 "
     "-10,0,-9,0 -5,0,-3,0 -9,0,-8,0 -4,0,-11,0"),
    ('notwinning-zeta', None, 4, 'verified', 'resolution-exhausted', 7, 10,
     "-8,0,-9,0 -14,0,-10,0 -9,0,-8,0 -13,0,-5,0 -9,0,-9,0 -9,0,-11,0 "
     "-10,0,-10,0 -11,0,-7,0 -10,0,-9,0 -7,0,-6,0"),
    ('notwinning-zeta', None, 5, 'verified', 'resolution-exhausted', 7, 10,
     "-9,0,-9,0 -9,0,-10,0 -9,0,-9,0 -4,0,-12,0 -10,0,-9,0 -6,0,-10,0 "
     "-8,0,-9,0 -8,0,-10,0 -10,0,-9,0 -9,0,-9,0"),
    ('notwinning-zeta', None, 6, 'verified', 'resolution-exhausted', 7, 10,
     "-10,0,-9,0 -14,0,-9,0 -8,0,-8,0 -11,0,-13,0 -9,0,-10,0 "
     "-13,0,-10,0 -9,0,-10,0 -15,0,-4,0 -10,0,-9,0 -6,0,-11,0"),
    ('notwinning-zeta', None, 7, 'verified', 'resolution-exhausted', 7, 10,
     "-9,0,-9,0 -10,0,-1,0 -8,0,-10,0 -7,0,-8,0 -9,0,-9,0 -4,0,-12,0 "
     "-9,0,-9,0 -6,0,-13,0 -9,0,-10,0 -8,0,-14,0"),
    ('notwinning-zeta', 0.141702, 20308, 'verified', 'resolution-exhausted', 7, 10,
     "-9,0,-9,0 -7,0,-18,0 -6,0,-7,0 -15,0,-5,0 -9,0,-7,0 -9,0,-13,0 "
     "-9,0,-10,0 -12,0,-13,0 -12,0,-10,0 6,0,-12,0"),
    ('notwinning-zeta', 0.147846, 22218, 'verified', 'resolution-exhausted', 7, 10,
     "-8,0,-9,0 -21,0,-4,0 -9,0,-7,0 -9,0,-7,0 -12,0,-8,0 -16,0,-7,0 "
     "-9,0,-11,0 -10,0,-7,0 -10,0,-9,0 -12,0,-21,0"),
    ('notwinning-zeta', 0.173589, 37028, 'verified', 'resolution-exhausted', 7, 10,
     "-8,0,-9,0 0,0,-7,0 -8,0,-9,0 -3,0,-11,0 -10,0,-9,0 -6,0,-17,0 "
     "-5,0,-11,0 -7,0,-13,0 -11,0,-8,0 -21,0,-10,0"),
    ('notwinning-zeta', 0.177652, 25715, 'verified', 'resolution-exhausted', 7, 10,
     "-9,0,-8,0 -19,0,-7,0 -8,0,-8,0 -8,0,-14,0 -10,0,-11,0 -4,0,-12,0 "
     "-10,0,-9,0 -5,0,-5,0 -11,0,-8,0 -4,0,-16,0"),
    ('notwinning-zeta', 0.221253, 9537, 'verified', 'resolution-exhausted', 7, 10,
     "-9,0,-8,0 -6,0,-12,0 -8,0,-10,0 -15,0,-10,0 -7,0,-9,0 -14,0,-9,0 "
     "-10,0,-9,0 -14,0,3,0 -8,0,-8,0 -9,0,-16,0"),
    ('notwinning-zeta', 0.225617, 51659, 'verified', 'resolution-exhausted', 7, 10,
     "-10,0,-9,0 -13,0,-19,0 -9,0,-7,0 -7,0,-7,0 -11,0,-9,0 -10,0,-1,0 "
     "-10,0,-8,0 -11,0,-4,0 -10,0,-9,0 -12,0,-2,0"),
    ('notwinning-zeta', 0.236041, 15462, 'verified', 'resolution-exhausted', 7, 10,
     "-9,0,-8,0 2,0,-9,0 -10,0,-11,0 -8,0,-13,0 -9,0,-9,0 -20,0,-13,0 "
     "-10,0,-8,0 -14,0,-1,0 -8,0,-9,0 -7,0,-9,0"),
    ('notwinning-zeta', 0.262801, 2178, 'verified', 'resolution-exhausted', 7, 10,
     "-9,0,-9,0 -8,0,-5,0 -10,0,-8,0 -8,0,-16,0 -8,0,-9,0 -14,0,1,0 "
     "-9,0,-10,0 -16,0,-17,0 -8,0,-10,0 -8,0,0,0"),
    ('notwinning-zeta', 0.275294, 571, 'verified', 'resolution-exhausted', 7, 10,
     "-10,0,-11,0 -3,0,-9,0 -10,0,-9,0 -9,0,-4,0 -10,0,-9,0 "
     "-20,0,-15,0 -8,0,-10,0 -12,0,-9,0 -9,0,-9,0 -12,0,-7,0"),
    ('notwinning-zeta', 0.282837, 1877, 'verified', 'resolution-exhausted', 7, 10,
     "-9,0,-9,0 -2,0,-6,0 -10,0,-8,0 -6,0,-1,0 -9,0,-9,0 -15,0,-20,0 "
     "-11,0,-10,0 -2,0,-10,0 -9,0,-9,0 -6,0,-18,0"),
    ('notwinning-zeta', 0.329038, 10418, 'verified', 'resolution-exhausted', 7, 10,
     "-10,0,-8,0 -13,0,-12,0 -8,0,-8,0 -9,0,-15,0 -9,0,-10,0 -6,0,-3,0 "
     "-10,0,-8,0 -5,0,-13,0 -9,0,-8,0 -10,0,-8,0"),
    ('notwinning-zeta', 0.340264, 12533, 'verified', 'resolution-exhausted', 7, 10,
     "-10,0,-10,0 -6,0,-13,0 -10,0,-10,0 -7,0,-7,0 -9,0,-8,0 "
     "-7,0,-15,0 -9,0,-9,0 -18,0,-11,0 -9,0,-8,0 -4,0,-11,0"),
    ('notwinning-zeta', 0.374118, 53867, 'verified', 'resolution-exhausted', 7, 10,
     "-10,0,-9,0 -8,0,-7,0 -10,0,-10,0 -9,0,-3,0 -10,0,-8,0 -11,0,-8,0 "
     "-8,0,-10,0 -11,0,-3,0 -9,0,-8,0 -6,0,-6,0"),
    ('notwinning-zeta', 0.389768, 3016, 'verified', 'resolution-exhausted', 7, 10,
     "-8,0,-8,0 -10,0,-9,0 -10,0,-8,0 -3,0,-14,0 -8,0,-9,0 -6,0,-8,0 "
     "-9,0,-11,0 -10,0,-5,0 -10,0,-9,0 -2,0,-12,0"),
    ('notwinning-zeta', 0.43864, 24559, 'verified', 'resolution-exhausted', 7, 10,
     "-9,0,-10,0 -11,0,-12,0 -10,0,-9,0 -8,0,-8,0 -8,0,-9,0 -13,0,-8,0 "
     "-9,0,-9,0 -18,0,-10,0 -9,0,-10,0 -6,0,-12,0"),
    ('notwinning-zeta', 0.446206, 52534, 'verified', 'resolution-exhausted', 7, 10,
     "-10,0,-10,0 -7,0,-12,0 -8,0,-9,0 -6,0,-11,0 -10,0,-10,0 "
     "-14,0,-11,0 -10,0,-10,0 -10,0,-6,0 -9,0,-8,0 -7,0,-10,0"),
]


def _digits(text):
    return [tuple(int(c) for c in d.split(",")) for d in text.split()]


@pytest.mark.parametrize(
    "preset, alpha, seed, verdict, status, rounds, certified, digits", PINS,
    ids=[f"{p[0]}-{p[1] or 'default'}-{p[2]}" for p in PINS])
def test_losing_outcome(preset, alpha, seed, verdict, status, rounds, certified, digits):
    trace, result = run_setup(build_preset(preset, alpha=alpha), seed=seed)
    assert (result.verdict, trace.status, trace.rounds_played, result.certified) == (
        verdict, status, rounds, certified)
    assert result.digits[:certified] == _digits(digits)


@pytest.mark.parametrize("preset", sorted({p[0] for p in PINS}))
def test_avoidance_memo_does_not_depend_on_game_order(preset):
    # each order plays seeds 0-7 on a fresh avoidance strategy, whose memo
    # starts empty, so the two orders fill it in different orders
    pins = {p[2]: p[3:] for p in PINS if p[0] == preset and p[1] is None}
    texts = []
    for order in (range(8), range(7, -1, -1)):
        setup = build_preset(preset)
        setup.bob = bob_avoid_block(setup.system, setup.params.initial_center,
                                    setup.claim.block)
        played = {}
        for seed in order:
            trace, result = run_setup(setup, seed=seed)
            verdict, status, rounds, certified, digits = pins[seed]
            assert (result.verdict, trace.status, trace.rounds_played, result.certified) == (
                verdict, status, rounds, certified)
            assert result.digits[:certified] == _digits(digits)
            played[seed] = trace.to_json()
        texts.append(played)
    assert texts[0] == texts[1]


class _ExactMap:
    """The digit map z -> q z - d of a QuatSystem at the working precision,
    in lattice coordinates, built from q and the lattice basis."""

    def __init__(self, system):
        a, b, c, d = map(mpmath.mpf, system.q.components)
        left = mpmath.matrix([[a, -b, -c, -d], [b, a, -d, c],
                              [c, d, a, -b], [d, -c, b, a]])  # x -> q x
        B = mpmath.matrix([[mpmath.mpf(v.components[i]) for v in system.lattice.basis]
                           for i in range(4)])
        Binv = B ** -1
        A = Binv * left * B
        self.B, self.Binv = B.tolist(), Binv.tolist()
        self.A, self.A_inv = A.tolist(), (A ** -1).tolist()
        self.offsets = [mpmath.mpf(o) for o in system.lattice.offsets]
        self.row_norms = [mpmath.sqrt(sum(x * x for x in row)) for row in self.Binv]
        self.q_norm = mpmath.sqrt(a * a + b * b + c * c + d * d)

    def orbit(self, point, n):
        """Digits, cell margins of the pre-floor images, and the remainder
        after n steps from an ambient point."""
        u = _mul(self.Binv, [mpmath.mpf(float(x)) for x in point])
        digits, margins = [], []
        for _ in range(n):
            t = [x - o for x, o in zip(_mul(self.A, u), self.offsets)]
            d = [int(mpmath.floor(x)) for x in t]
            frac = [x - k for x, k in zip(t, d)]
            margins.append(min(min(f, 1 - f) / r for f, r in zip(frac, self.row_norms)))
            digits.append(tuple(d))
            u = [f + o for f, o in zip(frac, self.offsets)]
        return digits, margins, u


def _mul(M, v):
    return [sum(m * x for m, x in zip(row, v)) for row in M]


def _accepted(trace, r):
    """Whether Bob's formula move was played in round r."""
    return not any(note.startswith(f"round {r}: formula move") for note in trace.notes)


@pytest.mark.parametrize("preset", sorted({p[0] for p in PINS}))
def test_losing_games_hold_at_60_digits(preset):
    with mpmath.workdps(60):
        exact = None
        for _, alpha, seed, *_ in (p for p in PINS if p[0] == preset):
            setup = build_preset(preset, alpha=alpha)
            exact = exact or _ExactMap(setup.system)
            trace, result = run_setup(setup, seed=seed)
            game = f"alpha={alpha} seed={seed}"
            # the certified digits are the exact digits of the final center,
            # each farther from its cell boundary than the ball's image
            cert = result.certified
            digits, margins, _ = exact.orbit(trace.final_center, cert)
            assert digits == result.digits[:cert], game
            for j, margin in enumerate(margins, 1):
                assert margin > trace.final_radius * exact.q_norm ** j, (game, j)
            # the verdict follows from the exact digits
            block, L = setup.claim.block, len(setup.claim.block)
            full = max(1, trace.rounds_played - 2)
            windows = [tuple(digits[w * L:(w + 1) * L]) for w in range(min(full, cert // L))]
            if result.verdict == "verified":
                assert len(windows) == full and block not in windows, game
            elif result.verdict == "falsified":
                assert block in windows, game
            # every formula move Bob played sits on its exact center
            # B (sum_{j<=N} A^-j d_j + A^-N coords(xi)), N = r|omega|, the d_j
            # being the digits of Alice's center y; the sum is
            # coords(y) - A^-N u_N for the remainder u_N of y
            xi = _mul(exact.Binv, [mpmath.mpf(x) for x in setup.params.initial_center])
            for alice, bob in zip(trace.moves[1::2], trace.moves[2::2]):
                r = bob.round_no
                if not _accepted(trace, r):
                    continue
                _, _, u = exact.orbit(alice.center, r * L)
                shift = [x - y for x, y in zip(xi, u)]
                for _ in range(r * L):
                    shift = _mul(exact.A_inv, shift)
                center = [mpmath.mpf(float(y)) + s
                          for y, s in zip(alice.center, _mul(exact.B, shift))]
                err = mpmath.sqrt(sum((c - float(x)) ** 2 for c, x in zip(center, bob.center)))
                assert err <= 1e-3 * bob.radius, (game, r, float(err / bob.radius))
