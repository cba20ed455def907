"""The digit kernel's generic body: one loop over the rows of A u.

This is the body every DigitKernel ran before each shape got its own
straight-line body in numeric (_scalar_body, _plane_body, _space_body).
The package no longer holds it; the tests keep it as the reference that
every body must match digit for digit, float.hex for float.hex, error for
error and guarded floor for guarded floor (tests/test_scalar_kernel.py).
It reads the kernel's _image and _rows, and calls numeric's _snap and
tol_floor, which call numeric.safe_floor by name.  As the kernel does, the
step always snaps, and a 1x1 kernel's digit is a bare int.
"""

from __future__ import annotations

import math

from beta_arena.numeric import _BAND, _snap, tol_floor


def reference_step(kernel, u):
    """One step from u, snapping at a boundary: (digit, remainder, margin),
    the margin being the Euclidean distance from A u to the boundary of its
    digit cell."""
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
            d, r = _snap(w, t, f, off, lo, hi, True)
            digit.append(d)
            nxt.append(r)
        # min(frac, rest) / norm is min(frac / norm, rest / norm): norm > 0
        m = (rest if rest < frac else frac) / norm
        if m < margin:
            margin = m
    return _digit(digit), tuple(nxt), margin


def reference_expand(kernel, u, n: int, nudge: bool = False) -> list:
    """First n digits of u: the digits of n steps, without their margins."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    image, rows, floor = kernel._image, kernel._rows, math.floor
    out = []
    for _ in range(n):
        digit, nxt = [], []
        for w, (_, off, _, lo, hi) in zip(image(u), rows):
            t = w - off
            try:
                f = floor(t)
            except (OverflowError, ValueError):
                tol_floor(t)  # raises tol_floor's error for a non-finite t
            frac = t - f
            if frac > _BAND and 1.0 - frac > _BAND:
                digit.append(f)
                nxt.append(w - f)
            else:
                d, r = _snap(w, t, f, off, lo, hi, nudge)
                digit.append(d)
                nxt.append(r)
        out.append(_digit(digit))
        u = nxt
    return out


def _digit(digit: list[int]):
    """A step's digit: the int itself for a 1x1 kernel, else the tuple."""
    return digit[0] if len(digit) == 1 else tuple(digit)
