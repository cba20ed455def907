"""Bit-exact digests of the digit kernel's orbits, the same on every Python.

DigitKernel sums each row of A u left to right from +0.0.  Python 3.12 made
sum() of floats compensated, so a kernel that summed with sum() gave other
bits there, in the 4-D kernels first.  Each pin below is the sha256 of the
depth-32 orbits of one kernel: its rows, then per step the digit (an int
for a real kernel), the remainder and the margin as float.hex().  The
kernel's walk keeps its remainders and margins to itself, so the orbits are
stepped by tests/kernel_reference.py's reference_step on the kernel's rows
and image, which tests/test_scalar_kernel.py holds the walk to; the walk's
own digits must be the orbit's.  The pins were taken under Python 3.11,
whose sum() adds in this order.

The module imports neither numpy nor pytest, so a bare interpreter runs it:

    PYTHONPATH=src python3.12 tests/test_kernel_digests.py
"""

from __future__ import annotations

import hashlib
import math
import random

from kernel_reference import reference_step

from beta_arena.complexexp import ComplexBase
from beta_arena.numeric import Quaternion, metallic_mean
from beta_arena.quatexp import hurwitz_box, lipschitz, symmetric_domain, zeta_lattice
from beta_arena.realexp import RealBase

DEPTH = 32
STARTS = 24  # per kernel; every fourth has an image on a digit-cell face
Q = Quaternion(3.0, 3.0, 3.0, 3.0)

PINS = {
    "complex-4.5e^0.05i-lo-0.5":
        "2cab28e023f3ada8e04f6f84eaf83c4b2dc4bbbb05a1866da7690723de8d3d0c",
    "complex-4.5e^0.05i-lo0":
        "71ee1ea042e335cde397f36e3d372ed71394bda43a3fb7152ebbfd46e9b3da78",
    "quat-3+3i+3j+3k-hurwitz-box":
        "f67ba747a001a424056f1bec32d81360316105f646709f3a476d6ce6b054abac",
    "quat-3+3i+3j+3k-lipschitz":
        "b56c43ea22c9624185530dce18bf69cc30d251499a34e0926ff0c118c0d8daf3",
    "quat-3+3i+3j+3k-lipschitz-centered":
        "765af598062d08c9eb7c1a3f607bdc15b27446c01e52c3144b9fc58214a63f41",
    "quat-3+3i+3j+3k-symmetric:0.25":
        "1495ef07b4f27585f52eb4a690b2fdac78e2b5a1fd8e28c24b2f203641f7f229",
    "quat-3+3i+3j+3k-zeta:0.25":
        "45ea6f7f3c89337ec30e1f816313d3ffb0b38d9903677551aebcff01de864ce2",
    "real-3":
        "218ee9d421798ab2210197fa9ea3a4bbaa94cef8c56e25429ae3552f2a5a84d5",
    "real-golden":
        "ee12f81246e47c8157fc08e27f20018ae24189d210e95f3b8b057e2361a0ced0",
}


def kernels():
    """The stock kernels: name -> DigitKernel."""
    out = {"real-golden": RealBase(metallic_mean(1)).kernel, "real-3": RealBase(3.0).kernel}
    for lo in ((-0.5, -0.5), (0.0, 0.0)):
        out[f"complex-4.5e^0.05i-lo{lo[0]:g}"] = ComplexBase(4.5, 0.05, lo=lo).kernel
    for lattice in (lipschitz(), lipschitz(centered=True), hurwitz_box(), symmetric_domain(0.25),
                    zeta_lattice(Quaternion(0.0, 6.0, 0.0, 0.0), Quaternion(0.0, 0.0, 1.0, 0.0),
                                 0.25)):
        out[f"quat-3+3i+3j+3k-{lattice.name}"] = lattice.digit_map(Q)
    return out


def _solve(A, w):
    """u with A u = w, by Gaussian elimination with partial pivoting."""
    n = len(w)
    M = [list(row) + [x] for row, x in zip(A, w)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(M[r][c]))
        M[c], M[p] = M[p], M[c]
        for r in range(n):
            if r != c:
                k = M[r][c] / M[c][c]
                M[r] = [x - k * y for x, y in zip(M[r], M[c])]
    return [M[i][n] / M[i][i] for i in range(n)]


def on_face(kernel, u, axis, shift=0.0):
    """u moved so that coordinate `axis` of its image lies `shift` above a
    digit-cell face, up to rounding, or None when that leaves the box."""
    offsets = [row[1] for row in kernel._rows]
    w = [math.fsum(a * x for a, x in zip(row, u)) for row in kernel.A]
    w[axis] = offsets[axis] + math.floor(w[axis] - offsets[axis]) + shift
    u = _solve(kernel.A, w)
    return u if all(o <= x < o + 1.0 for x, o in zip(u, offsets)) else None


def starts(kernel, rng):
    """Points of the kernel's box; every fourth has one coordinate of its
    image on a digit-cell face, which puts the step on its snap path."""
    offsets = [row[1] for row in kernel._rows]
    out = []
    while len(out) < STARTS:
        u = [o + rng.random() for o in offsets]
        if len(out) % 4 == 0:
            u = on_face(kernel, u, rng.randrange(len(u)))
        if u is not None:
            out.append(u)
    return out


def orbit_digests():
    """name -> sha256 of the kernel's rows and the orbits of its starts."""
    out = {}
    for name, kernel in kernels().items():
        h = hashlib.sha256(repr(kernel._rows).encode())
        rng = random.Random(f"kernel-digest:{name}")
        for u in starts(kernel, rng):
            digits, first = [], u
            for _ in range(DEPTH):
                d, u, margin = reference_step(kernel, u)
                digits.append(d)
                h.update(f"{d} {[x.hex() for x in u]} {margin.hex()};".encode())
            assert kernel.expand(first, DEPTH, nudge=True) == digits, name
        out[name] = h.hexdigest()
    return out


def test_orbit_digests_match_the_pins():
    assert orbit_digests() == PINS


if __name__ == "__main__":
    import sys
    got = orbit_digests()
    bad = sorted(k for k in got.keys() | PINS.keys() if got.get(k) != PINS.get(k))
    for name in sorted(got):
        print(f"{'FAIL' if name in bad else 'ok  '} {name} {got[name]}")
    sys.exit(1 if bad else 0)
