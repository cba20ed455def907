"""Every shape's digit kernel against the reference body, bit for bit.

DigitKernel binds one straight-line walk per shape at construction:
numeric._scalar_body for a 1x1 matrix (a real base), _plane_body for a 2x2
(a complex base) and _space_body for a 4x4 (a quaternion on a lattice).
Each walk must give the digits and certified counts of the generic row loop
that tests/kernel_reference.py keeps (reference_walk), in both snap modes,
with no ball and with balls whose radius sits on, just below and just above
the one where a digit's certification flips, so each margin is held to the
reference's bit for bit; it must raise the same errors with the same text,
and take the same guarded floors: each call of numeric.safe_floor, which the
benchmark's tracer counts, is recorded with its argument.  The one
difference is past a fixed point reached by a snap, a step whose remainder
equals its input: there the 1x1 walk stops stepping, so it takes the
reference's floors up to that step's and none after, and every floor the
reference takes after it must repeat that step's.  expand is the walk's
digits with no ball.
"""

from __future__ import annotations

import math
import random

import pytest
from kernel_reference import (reference_expand, reference_fixed_point, reference_step,
                              reference_walk, terminating_blocks)
from test_kernel_digests import kernels, on_face

from beta_arena import numeric
from beta_arena.complexexp import ComplexBase
from beta_arena.numeric import _BAND, EPS_FLOOR, DigitKernel, Quaternion, metallic_mean
from beta_arena.quatexp import zeta_lattice
from beta_arena.realexp import RealBase

# 2.9999999999 has digits 0..2, and points just below 1 map within the band
# under 3, so their snap to 3 leaves the digit range and is refused
BASES = {"golden": metallic_mean(1), "silver": metallic_mean(2), "2.5": 2.5, "3": 3.0,
         "1.7234": 1.7234, "2.9999999999": 2.9999999999}
SHIFTS = (0.0, 1e-12, -1e-12, 5e-10, -5e-10, EPS_FLOOR, -EPS_FLOOR, 1.5e-9, -1.5e-9,
          _BAND, -_BAND, 2.5e-9, -2.5e-9)
DEPTH = 24
# the walk only multiplies its growth by the radix, so one radix above 1
# serves every kernel
RADIX = 2.5


@pytest.fixture
def floors(monkeypatch):
    """float.hex() of each value numeric.safe_floor is called on."""
    seen, safe_floor = [], numeric.safe_floor

    def recording(x):
        seen.append(float(x).hex())
        return safe_floor(x)
    monkeypatch.setattr(numeric, "safe_floor", recording)
    return seen


def outcome(floors, run, *args):
    """(run's result, or its error's type and text; the guarded floors it took)."""
    floors.clear()
    try:
        out = run(*args)
    except (ValueError, OverflowError, TypeError, IndexError) as exc:
        out = type(exc), str(exc)
    return out, list(floors)


def radii(kernel, u, flips=(1, 2, DEPTH), radix=RADIX):
    """No ball, a point, an infinite ball, and for each digit j in flips
    (by default digits 1, 2 and DEPTH) of u's orbit the radius at which that
    digit's certification flips under radix, with the floats on each side of it."""
    out, growth = [None, 0.0, math.inf], 1.0
    for j in range(1, max(flips) + 1):
        try:
            _, u, margin = reference_step(kernel, u)
        except (ValueError, OverflowError, IndexError):
            break
        growth *= radix
        if j in flips:
            r = margin * (1.0 - 1e-9) / growth
            out += [math.nextafter(r, -math.inf), r, math.nextafter(r, math.inf)]
    return out


def to_fixed_point(floors, kernel, u, n, nudge, want):
    """want, the reference's outcome of n steps from u, as the walk must
    give it.  A 1x1 walk takes the reference's guarded floors up to and
    including the first step that snaps to its own input, and none after:
    every later step repeats that one, so each floor the reference takes
    after it must repeat that step's t.hex(), and want's floors are cut
    there.  2x2 and 4x4 walks take every floor the reference takes."""
    i = reference_fixed_point(kernel, u, n, nudge) if len(kernel.A) == 1 else None
    if i is None:
        return want
    result, seen = want
    k = len(outcome(floors, reference_expand, kernel, u, i + 1, nudge)[1])
    assert k and seen[k:] == [seen[k - 1]] * (len(seen) - k), (u, n, seen)
    return result, seen[:k]


def walks(floors, kernel, u, nudge, lengths=(1, 2, DEPTH), flips=(1, 2, DEPTH), radix=RADIX):
    """(the walk's outcome, the reference's) for each length and each
    radius of radii(kernel, u, flips, radix), and expand's against
    reference_expand with no ball; the reference's guarded floors end at a
    1x1 orbit's fixed point (to_fixed_point)."""
    balls = radii(kernel, u, flips, radix)
    for n in lengths:
        yield (outcome(floors, kernel.expand, u, n, nudge),
               to_fixed_point(floors, kernel, u, n, nudge,
                              outcome(floors, reference_expand, kernel, u, n, nudge)))
        for radius in balls:
            yield (outcome(floors, kernel.walk, u, n, nudge, radius, radix),
                   to_fixed_point(floors, kernel, u, n, nudge,
                                  outcome(floors, reference_walk, kernel, u, n, nudge,
                                          radius, radix)))


def band_edges(kernel):
    """Points whose image is exactly the float k + _BAND or k + 1 - _BAND
    for a digit k, where one is reachable: the fast path's edges."""
    (a,), = kernel.A
    out = []
    for k in range(kernel.hi[0] + 1):
        for t in (k + _BAND, k + 1.0 - _BAND):
            u = t / a
            for _ in range(8):
                if 0.0 + a * u == t:
                    out.append(u)
                    break
                u = math.nextafter(u, math.inf if 0.0 + a * u < t else -math.inf)
    return [u for u in out if 0.0 <= u < 1.0]


def points(name, kernel):
    """Uniform points of [0, 1), points whose image lies on or beside a
    digit-cell face, the fast path's edges and both ends of the box."""
    rng = random.Random(f"scalar-kernel:{name}")
    out = [rng.random() for _ in range(40)]
    for shift in SHIFTS:
        for _ in range(4):
            u = on_face(kernel, [rng.random()], 0, shift)
            if u is not None:
                out.append(u[0])
    out += band_edges(kernel)
    out += [0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0 - 1e-11, 1.0 - 1e-10,
            math.nextafter(1.0, 0.0)]
    return out


@pytest.mark.parametrize("nudge", [True, False], ids=["nudge", "error"])
@pytest.mark.parametrize("name", sorted(BASES))
def test_real_kernel_is_the_generic_body(name, nudge, floors):
    kernel = RealBase(BASES[name]).kernel
    pts = points(name, kernel)
    assert band_edges(kernel), name  # the edges are reachable in every base here
    for x in pts:
        for got, want in walks(floors, kernel, [x], nudge):
            assert got == want, (name, x)


@pytest.mark.parametrize("nudge", [True, False], ids=["nudge", "error"])
@pytest.mark.parametrize("name", sorted(BASES))
def test_real_kernel_refuses_as_the_generic_body(name, nudge, floors):
    kernel = RealBase(BASES[name]).kernel
    for x in (math.nan, math.inf, -math.inf, 1e308, -1e308, 2.0 ** 1023):
        for got, want in walks(floors, kernel, (x,), nudge, (0, 1, 3)):
            assert got == want, (name, x)
    # a length below 0 is refused, and 0 digits read no coordinate
    for u, n in (((0.5,), -1), ((0.5,), 0), ((), 0), ((), -1), ((), 2)):
        for got, want in walks(floors, kernel, u, nudge, (n,)):
            assert got == want, (name, u, n)
    assert outcome(floors, kernel.expand, (0.5,), -1, nudge)[0] == (
        ValueError, "length must be nonnegative")
    assert outcome(floors, kernel.walk, (0.5,), -1, nudge, 0.1, RADIX)[0] == (
        ValueError, "length must be nonnegative")


# -- a fixed point: the 1x1 walk stops stepping ----------------------------------

def zero_tails(base):
    """(point, index of its orbit's fixed point) for +-0.0 and each of
    kernel_reference.terminating_blocks."""
    return [(0.0, 0), (-0.0, 0)] + [(x, len(b)) for b, x in terminating_blocks(base)]


@pytest.mark.parametrize("nudge", [True, False], ids=["nudge", "error"])
@pytest.mark.parametrize("name", sorted(BASES))
def test_a_zero_tail_ends_the_walk(name, nudge, floors):
    # at lengths 1, 2, through the fixed point's step, one past it and DEPTH;
    # in error mode 0's image t = 0 is ambiguous, so the walk raises there
    # (at the block's last digit already) as the reference does
    base = RealBase(BASES[name])
    kernel = base.kernel
    for x, at in zero_tails(base):
        u = (x,)
        assert reference_fixed_point(kernel, u, DEPTH, True) == at, (name, x)
        lengths = sorted({1, 2, at + 1, at + 2, DEPTH})
        for got, want in walks(floors, kernel, u, nudge, lengths, (1, 2, at + 1, at + 2)):
            assert got == want, (name, x)
        if nudge:
            # DEPTH digits, zero after the fixed point, and no guarded floor
            # after the one of the fixed point's step
            (digits, _), seen = outcome(floors, kernel.walk, u, DEPTH, True, 0.0, RADIX)
            assert len(digits) == DEPTH and digits[at:] == [0] * (DEPTH - at), (name, x)
            assert seen == outcome(floors, reference_expand, kernel, u, at + 1, True)[1]
            assert seen[-1] == (0.0).hex()


def test_a_certifying_fixed_point_counts_on(floors):
    # x -> 2x on [1e-10, 1 + 1e-10) maps 1e-10 to t = 1e-10, which snaps to
    # digit 0 with its remainder put on the lower face, 1e-10 itself: every
    # step has margin 1e-10, so a ball keeps certifying past the fixed point
    kernel = DigitKernel(((2.0,),), (1e-10,), (1.0,))
    u, n = (1e-10,), 64
    assert reference_fixed_point(kernel, u, n, True) == 0
    assert reference_step(kernel, u) == (0, u, 1e-10)
    flips = (1, 2, 6, 29, 30, 33, 34, 36, 37, 49, 50, 63, 64)
    for nudge in (True, False):
        for got, want in walks(floors, kernel, u, nudge, (1, 2, 7, n), flips, 2.0):
            assert got == want, nudge
    counts = [kernel.walk(u, n, True, radius, 2.0)[1]
              for radius in (1e-30, 1e-25, 1e-21, 1e-20, 1e-19, 1e-12)]
    assert counts == [64, 49, 36, 33, 29, 6]
    assert outcome(floors, kernel.walk, u, n, False, 1e-20, 2.0)[0] == (
        numeric.AmbiguousValueError, "1e-10 is within 1e-09 of an integer")


@pytest.mark.parametrize("off", [-1.5e-9, -_BAND, math.nextafter(-EPS_FLOOR, -math.inf),
                                 -EPS_FLOOR])
def test_an_error_mode_fixed_point_inside_the_band(off, floors):
    # x -> 2x on [off, off + 1) maps 0 to t = -off: in (EPS_FLOOR, _BAND] the
    # step takes the snap path, but its floor is not ambiguous, so error
    # mode steps on with digit 0 and remainder 0; at t = EPS_FLOOR it raises
    kernel = DigitKernel(((2.0,),), (off,), (1.0,))
    u = (0.0,)
    flips = (1, 2, 10, 11, 37, 38, DEPTH)
    for nudge in (True, False):
        for got, want in walks(floors, kernel, u, nudge, (1, 2, DEPTH, 64), flips, 2.0):
            assert got == want, nudge
    if off < -EPS_FLOOR:
        assert reference_fixed_point(kernel, u, 64, False) == 0
        assert kernel.walk(u, 64, False)[0] == [0] * 64
    else:
        assert outcome(floors, kernel.walk, u, 1, False)[0] == (
            numeric.AmbiguousValueError, "1e-09 is within 1e-09 of an integer")
    if off == -1.5e-9:
        assert [kernel.walk(u, 64, False, radius, 2.0)[1] for radius in (1e-20, 1e-12)] == [37, 10]


# -- every shape: the 2x2 and 4x4 bodies -----------------------------------------

def body_kernels():
    """The stock kernels; a complex base whose square has a different offset
    on each axis, where no stock kernel's does, and the same map with another
    norm on each row, where a complex base's are both 1.0; and 6i on the
    zeta lattice of perfbench's digits workload: its A has one nonzero entry
    per row, where every stock 4x4 kernel's has more, and its body sums the
    zero products all the same."""
    out = kernels()
    plane = ComplexBase(4.5, 0.05, lo=(0.0, -0.5)).kernel
    out["complex-4.5e^0.05i-lo(0,-0.5)"] = plane
    out["complex-4.5e^0.05i-lo(0,-0.5)-norms(1,0.3)"] = DigitKernel(
        plane.A, (0.0, -0.5), (1.0, 0.3))
    six_i = Quaternion(0.0, 6.0, 0.0, 0.0)
    out["quat-6i-zeta"] = zeta_lattice(six_i, Quaternion(0.0, 0.0, 1.0, 0.0),
                                       0.25).digit_map(six_i)
    return out


KERNELS = body_kernels()


def edge_targets(kernel, axis):
    """The floats k + _BAND and k + 1 - _BAND, the fast path's edges, for the
    digits k of one axis nearest the lower face: at k = 0, t = _BAND is
    exactly the band test's bound."""
    lo, hi = kernel.lo[axis], kernel.hi[axis]
    return [k + e for k in sorted({lo, -1, 0, 1, hi}) if lo <= k <= hi
            for e in (_BAND, 1.0 - _BAND)]


def on_edge(kernel, base, axis, j, target):
    """base moved along coordinate j so that coordinate `axis` of its image,
    less its offset, is the float target, or the two points that straddle
    it when no float of u[j] gives it exactly; only points of the box."""
    off, a = kernel._rows[axis][1], kernel.A[axis][j]
    t = lambda u: kernel._image(u)[axis] - off
    u = list(base)
    u[j] += (target - t(u)) / a
    toward = math.inf if (t(u) < target) == (a > 0.0) else -math.inf
    out = []
    for _ in range(64):
        if t(u) == target:
            out = [list(u)]
            break
        nxt = list(u)
        nxt[j] = math.nextafter(u[j], toward)
        if (t(u) < target) != (t(nxt) < target):
            out = [list(u), nxt]
            break
        u = nxt
    return [u for u in out if all(o <= x < o + 1.0 for x, (_, o, *_) in zip(u, kernel._rows))]


def edge_points(kernel, rng):
    """Points whose image lies exactly on the fast path's edge on one axis
    where a float does, beside it where none does: from the origin, where
    an axis whose offset is 0 reaches t = _BAND exactly, and from a random
    point of the box."""
    offsets = [row[1] for row in kernel._rows]
    origin = [0.0 if o <= 0.0 < o + 1.0 else o for o in offsets]
    out = []
    for axis in range(len(offsets)):
        j = max(range(len(offsets)), key=lambda c: abs(kernel.A[axis][c]))
        for target in edge_targets(kernel, axis):
            for base in (origin, [o + rng.random() for o in offsets]):
                out += on_edge(kernel, base, axis, j, target)
    return out


def box_points(name, kernel):
    """Uniform points of the box, points whose image lies on or beside a
    digit-cell face on each axis, the fast path's edges on each axis, and
    both ends of the box."""
    rng = random.Random(f"kernel-body:{name}")
    offsets = [row[1] for row in kernel._rows]
    out = [[o + rng.random() for o in offsets] for _ in range(8)]
    for axis in range(len(offsets)):
        for shift in SHIFTS:
            for _ in range(4):
                u = on_face(kernel, [o + rng.random() for o in offsets], axis, shift)
                if u is not None:
                    out.append(u)
                    break
    out += edge_points(kernel, rng)
    out += [offsets, [math.nextafter(o + 1.0, o) for o in offsets]]
    return out


def exact_edges(kernel, pts):
    """The axes on which some point's image, less the offset, is exactly _BAND."""
    return {axis for u in pts for axis, (w, (_, off, *_)) in
            enumerate(zip(kernel._image(u), kernel._rows)) if w - off == _BAND}


@pytest.mark.parametrize("nudge", [True, False], ids=["nudge", "error"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_is_the_reference(name, nudge, floors):
    kernel = KERNELS[name]
    pts = box_points(name, kernel)
    # on an axis whose offset is 0, the band test's bound itself is reached
    assert {axis for axis, row in enumerate(kernel._rows) if row[1] == 0.0} <= exact_edges(
        kernel, pts), name
    for x in pts:
        for got, want in walks(floors, kernel, x, nudge):
            assert got == want, (name, x)


@pytest.mark.parametrize("nudge", [True, False], ids=["nudge", "error"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_refuses_as_the_reference(name, nudge, floors):
    kernel = KERNELS[name]
    dim = len(kernel.A)
    inside = [row[1] + 0.5 for row in kernel._rows]
    for j in range(dim):
        for x in (math.nan, math.inf, -math.inf, 1e308, -1e308):
            u = tuple(x if c == j else v for c, v in enumerate(inside))
            for got, want in walks(floors, kernel, u, nudge, (0, 1, 3)):
                assert got == want, (name, u)
            if not math.isfinite(x):  # a huge finite x may still step
                got = outcome(floors, kernel.walk, u, 1, nudge, 0.1, RADIX)[0]
                assert got[0] is ValueError, (name, u)
                assert got[1].startswith("cannot floor non-finite value"), (name, u)
    # a length below 0 is refused, 0 digits read no coordinate, and a u of
    # the wrong length is refused as the image refuses it
    for u in (tuple(inside), (), tuple(inside[1:]), (*inside, 0.5)):
        for got, want in walks(floors, kernel, u, nudge, (-1, 0, 1, 2)):
            assert got == want, (name, u)
    assert outcome(floors, kernel.expand, tuple(inside), -1, nudge)[0] == (
        ValueError, "length must be nonnegative")


def test_every_shape_binds_its_own_body():
    # the class defines no walk and no step: each instance binds its shape's
    # walk, and expand is that walk's digits
    assert not {"walk", "step"} & set(vars(DigitKernel))
    bodies = {1: "_scalar_body", 2: "_plane_body", 4: "_space_body"}
    for name, kernel in KERNELS.items():
        assert "walk" in vars(kernel) and not hasattr(kernel, "step"), name
        assert kernel.walk.__qualname__.split(".")[0] == bodies[len(kernel.A)], name
    # no body calls an image: each inlines its shape's product
    assert not any("image" in kernel.walk.__code__.co_freevars for kernel in KERNELS.values())
    assert metallic_mean(2) == pytest.approx(1 + math.sqrt(2), abs=1e-15)
    for j in range(1, 8):
        x = metallic_mean(j)
        assert x * x == pytest.approx(j * x + 1, abs=1e-10)
