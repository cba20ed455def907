"""The digit kernel's generic body: one loop over the rows of A u.

This is the body every DigitKernel ran before each shape got its own
straight-line walk in numeric (_scalar_body, _plane_body, _space_body).
The package no longer holds it; the tests keep it as the reference that
every walk must match digit for digit, certified count for certified count,
error for error and guarded floor for guarded floor
(tests/test_scalar_kernel.py).  It reads the kernel's _image and _rows, and
calls numeric's _snap and tol_floor, which call numeric.safe_floor by name.
As the kernel does, a 1x1 kernel's digit is a bare int.

reference_step is one step with its remainder and margin, which the walk
keeps to itself: tests that read a digit's (digit, remainder, margin) read
them here.  reference_walk is n such steps with the verifier's
certification test, and reference_expand and reference_certified (the loop
game.certified_digits ran before it made one walk per call) are its digits
and its walk from a system's point.  reference_fixed_point finds the step
of a 1x1 orbit after which the package's walk steps no more, and
terminating_blocks gives real points whose orbits reach one.
"""

from __future__ import annotations

import math

from beta_arena.numeric import _BAND, _snap, tol_floor


def reference_step(kernel, u, nudge: bool = True):
    """One step from u, snapping at a boundary unless nudge is False (then
    a digit within the band raises): (digit, remainder, margin), the margin
    being the Euclidean distance from A u to the boundary of its digit cell."""
    digit, nxt, margin, floor = [], [], math.inf, math.floor
    for w, (_, off, norm, lo, hi) in zip(kernel._image(u), kernel._rows):
        t = w - off
        try:
            f = floor(t)
        except (OverflowError, ValueError):
            tol_floor(t)  # raises tol_floor's error for a non-finite t
        frac = t - f
        rest = 1.0 - frac
        if frac > _BAND and rest > _BAND:
            digit.append(f)
            nxt.append(w - f)
        else:
            d, r = _snap(w, t, f, off, lo, hi, nudge)
            digit.append(d)
            nxt.append(r)
        # min(frac, rest) / norm is min(frac / norm, rest / norm): norm > 0
        m = (rest if rest < frac else frac) / norm
        if m < margin:
            margin = m
    return _digit(digit), tuple(nxt), margin


def reference_walk(kernel, u, n: int, nudge: bool = False, radius=None, radix=None
                   ) -> tuple[list, int]:
    """n steps from u: their digits, and how many of them a ball of radius
    about u certifies, digit j while radius * radix^j < margin_j * (1 - 1e-9);
    the count stops at the first digit that fails, and with no radius it is 0."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    digits, certified, certifying, growth = [], 0, radius is not None, 1.0
    for _ in range(n):
        d, u, margin = reference_step(kernel, u, nudge)
        digits.append(d)
        if certifying:
            growth *= radix
            if radius * growth < margin * (1.0 - 1e-9):
                certified += 1
            else:
                certifying = False
    return digits, certified


def reference_expand(kernel, u, n: int, nudge: bool = False) -> list:
    """First n digits of u: the digits of n steps, without their margins."""
    return reference_walk(kernel, u, n, nudge)[0]


def reference_certified(system, center, radius: float, m: int) -> tuple[list, int]:
    """certified_digits as reference steps over all m digits, from the
    system's coordinates of the center, snapping at a boundary
    (tests/test_certified_reference.py); m <= 0 steps nothing."""
    return reference_walk(system.kernel, system.coords(center), max(m, 0), True,
                          radius, system.radix_norm)


def reference_fixed_point(kernel, u, n: int, nudge: bool = False):
    """For a 1x1 kernel, the index of the first of n reference steps from u
    that takes the snap path and whose remainder equals its input, a fixed
    point after which every step repeats that one: the 1x1 walk stops
    stepping there.  None when no such step comes first, or a step raises
    before it (each step after a fixed point repeats it, so none raises)."""
    (_, off, *_), = kernel._rows
    for i in range(n):
        try:
            t = kernel._image(u)[0] - off
            frac = t - math.floor(t)
            _, r, _ = reference_step(kernel, u, nudge)
        except (ValueError, OverflowError, IndexError):
            return None
        if not (frac > _BAND and 1.0 - frac > _BAND) and r[0] == u[0]:
            return i
        u = r
    return None


def terminating_blocks(base) -> list:
    """(block, value) for each admissible block of the RealBase of length 1
    to 3 that ends in a nonzero digit: a terminating expansion, whose orbit
    snaps to 0 at the block's last digit and stays there, so the step after
    the block is its first at the fixed point."""
    return [(b, base.value(b)) for k in (1, 2, 3) for b in base.enumerate_admissible(k) if b[-1]]


def _digit(digit: list[int]):
    """A step's digit: the int itself for a 1x1 kernel, else the tuple."""
    return digit[0] if len(digit) == 1 else tuple(digit)
