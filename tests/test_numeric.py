import itertools
import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from kernel_reference import reference_fixed_point, reference_step
from test_kernel_digests import kernels as stock_kernels, on_face

from beta_arena.numeric import (EPS_CMP, EPS_FLOOR, AmbiguousValueError, DigitKernel,
                                Quaternion, _image, metallic_mean, safe_floor, tol_floor)
from beta_arena.presets import build_preset
from beta_arena.quatexp import hurwitz_box, lipschitz, symmetric_domain, zeta_lattice
from beta_arena.systems import QuatSystem

# Hamilton multiplication table, frozen by hand: rows q, columns p, entry q*p.
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

HAMILTON = {
    (1, 1): ONE, (1, 2): I, (1, 3): J, (1, 4): K,
    (2, 1): I, (2, 2): -ONE, (2, 3): K, (2, 4): -J,
    (3, 1): J, (3, 2): -K, (3, 3): -ONE, (3, 4): I,
    (4, 1): K, (4, 2): J, (4, 3): -I, (4, 4): -ONE,
}


def test_hamilton_table():
    units = {1: ONE, 2: I, 3: J, 4: K}
    for (r, c), want in HAMILTON.items():
        assert units[r] * units[c] == want


finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


@given(quats, quats)
def test_norm_multiplicative(p, q):
    assert abs(p * q) == pytest.approx(abs(p) * abs(q), rel=1e-9, abs=1e-9)


@given(quats, quats, quats)
def test_mul_associative_and_distributive(p, q, r):
    lhs = (p * q) * r
    rhs = p * (q * r)
    for a, b in zip(lhs.components, rhs.components):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-6)
    lhs = p * (q + r)
    rhs = p * q + p * r
    for a, b in zip(lhs.components, rhs.components):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-6)


def test_complex_embedding_matches_python_complex():
    # complex2 must be a ring homomorphism onto the (1, i) plane
    zs = [complex(0.3, -1.2), complex(-4.0, 0.7), complex(2.5, 2.5)]
    for z in zs:
        for w in zs:
            qz, qw = Quaternion.complex2(z.real, z.imag), Quaternion.complex2(w.real, w.imag)
            prod = qz * qw
            want = z * w
            assert prod.a == pytest.approx(want.real, abs=1e-12)
            assert prod.b == pytest.approx(want.imag, abs=1e-12)
            assert prod.c == 0.0 and prod.d == 0.0


def test_conjugate_and_inverse():
    q = Quaternion(1.0, -2.0, 3.0, 0.5)
    assert abs(q * q.conj() - Quaternion.real(q.norm2())) <= 1e-12
    assert abs(q * q.inverse() - ONE) <= 1e-12
    assert abs(q.inverse() * q - ONE) <= 1e-12


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300, 2.0 ** -1070])
def test_norm_and_inverse_at_extreme_magnitudes(scale):
    # the sum of squares overflows or underflows here: the norm and the
    # inverse are still those of a finite nonzero quaternion
    assert abs(Quaternion.real(scale)) == scale
    assert abs(Quaternion(0.0, 0.0, -scale, 0.0)) == scale
    q = Quaternion(3.0 * scale, 0.0, 4.0 * scale, 0.0)
    assert abs(q) == pytest.approx(5.0 * scale, rel=1e-15)
    if scale >= 2.0 ** -1000:  # 1 / scale is a float
        assert Quaternion.real(scale).inverse() == Quaternion.real(1.0 / scale)
        inv = Quaternion(0.0, -scale, 0.0, 0.0).inverse()
        assert inv == Quaternion(0.0, 1.0 / scale, 0.0, 0.0)
        assert abs(q * q.inverse() - ONE) <= 1e-15
    with pytest.raises(ZeroDivisionError, match="zero quaternion has no inverse"):
        Quaternion().inverse()


@settings(max_examples=300)
@given(quats)
def test_norm_and_inverse_keep_their_bits_on_a_normal_sum_of_squares(q):
    # where norm2() is a finite normal float, abs and inverse are its root
    # and conj() scaled by its reciprocal, bit for bit
    n2 = q.norm2()
    assume(n2 >= sys.float_info.min)
    assert abs(q) == math.sqrt(n2)
    assert q.inverse() == q.conj().scale(1.0 / n2)


def test_powi_matches_repeated_multiplication():
    q = Quaternion(0.3, 1.1, -0.4, 0.9)
    acc = ONE
    for n in range(7):
        assert abs(q.powi(n) - acc) <= 1e-9
        acc = acc * q
    inv = q.inverse()
    acc = ONE
    for n in range(5):
        assert abs(q.powi(-n) - acc) <= 1e-9
        acc = acc * inv


@given(st.integers(-6, 6), st.integers(-6, 6))
def test_powi_addition_law(m, n):
    q = Quaternion(0.2, 0.9, -0.3, 0.1)
    lhs = q.powi(m + n)
    rhs = q.powi(m) * q.powi(n)
    assert abs(lhs - rhs) <= 1e-7


def test_metallic_means():
    assert metallic_mean(1) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-15)
    assert metallic_mean(2) == pytest.approx(1 + math.sqrt(2), abs=1e-15)
    for j in range(1, 8):
        x = metallic_mean(j)
        assert x * x == pytest.approx(j * x + 1, abs=1e-10)


# coordinates of every size: subnormal, tiny, O(1) and huge, whose squares
# underflow or overflow a float
LENGTH_COORD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -480, 2.0 ** 500, 1e-162, 1e155]),
    st.floats(-2.0 ** -480, 2.0 ** -480), st.floats(-4.0, 4.0))


@settings(max_examples=1000, deadline=None)
@given(st.lists(LENGTH_COORD, min_size=1, max_size=4))
def test_hypot_is_within_an_ulp_of_the_exact_length(v):
    # every length in the game is math.hypot's or math.dist's: h errs by
    # under an ulp, so (h - ulp)^2 < sum v_i^2 < (h + ulp)^2 exactly
    h = math.hypot(*v)
    assume(math.isfinite(h + math.ulp(h)))
    exact = sum(Fraction(x) ** 2 for x in v)
    assert max(Fraction(h - math.ulp(h)), Fraction(0)) ** 2 <= exact
    assert exact < Fraction(h + math.ulp(h)) ** 2 or exact == 0 == h


def test_floor_band_lies_between_comparison_slack_and_a_quarter():
    # above EPS_CMP, so a value the comparisons call equal to an integer is
    # ambiguous to the floors; below 1/4, so no band swallows a whole cell
    assert EPS_CMP < EPS_FLOOR < 0.25


def test_tol_floor_policies():
    assert tol_floor(2.3) == 2
    assert tol_floor(-0.7) == -1
    with pytest.raises(AmbiguousValueError, match=r"is within 1e-09 of an integer"):
        tol_floor(3.0 - 1e-12)
    assert tol_floor(3.0 - 1e-12, nudge=True) == 3
    assert tol_floor(3.0 + 1e-12, nudge=True) == 3


def test_safe_floor_flags():
    assert safe_floor(1.9) == (1, False)
    assert safe_floor(1.999999999999) == (2, True)  # inside the snap band
    assert safe_floor(-1e-20) == (0, True)
    assert safe_floor(-0.4) == (-1, False)


def test_digit_kernel_range():
    # the box [0, 1) is open above, so base 3 has digits 0..2 only
    k = DigitKernel(((3.0,),), (0.0,), (1.0,))
    assert (k.lo, k.hi) == ([0], [2])
    # a row with no positive entry reaches its top on the closed lower face
    k = DigitKernel(((0.0, -1.5), (1.5, 0.0)), (0.0, 0.0), (1.0, 1.0))
    assert (k.lo, k.hi) == ([-2, 0], [0, 1])


@pytest.mark.parametrize("A, offsets, message", [
    (((math.inf,),), (0.0,), "nan to nan"),
    (((math.nan,),), (0.5,), "nan to nan"),
    (((1.7e308, -1.1e308), (1.1e308, 1.7e308)), (0.0, 0.0), "0.0 to inf"),
    (((-1e308, -1e308), (1.0, 0.0)), (0.0, 0.0), "-inf to 0.0"),
    (((1e308, 0.0), (0.0, 1e308)), (-0.5, 3e307), "inf to inf")])
def test_digit_kernel_refuses_a_digit_range_that_overflows(A, offsets, message):
    # its lo and hi would be the floor of inf or nan, which has no int
    with pytest.raises(ValueError, match=f"radix too large: a digit range runs from {message}"):
        DigitKernel(A, offsets, (1.0,) * len(A))


def test_digit_kernel_refuses_other_sizes():
    # every stock kernel and lattice is 1x1, 2x2 or 4x4
    with pytest.raises(ValueError, match="no image for a 3-row matrix"):
        DigitKernel(((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 2.0)), (0.0,) * 3, (1.0,) * 3)


def test_digit_kernel_snap_policy():
    k = DigitKernel(((3.0,),), (0.0,), (1.0,))
    # 3 u lands just above the integer 1: the remainder goes onto the face,
    # so the next digit is 0 (the walk snaps only with nudge): a 1x1 digit
    # is an int, and a face point's margin is 0, which no ball clears
    assert reference_step(k, (1.0 / 3.0 + 1e-12,))[:2] == (1, (0.0,))
    assert k.walk((1.0 / 3.0 + 1e-12,), 2, True, 0.0, 3.0) == ([1, 0], 1)
    assert k.expand((1.0 / 3.0 + 1e-12,), 1, nudge=True) == [1]
    with pytest.raises(AmbiguousValueError):
        k.expand((1.0 / 3.0 + 1e-12,), 1)
    # a snap to 3 would leave the digit range, so the floor stands, 3e-10
    # below the cell's top
    d, (r,), margin = reference_step(k, (1.0 - 1e-10,))
    assert d == 2 and 0.0 < r < 1.0 and margin < 1e-9
    assert k.walk((1.0 - 1e-10,), 1, True, 5e-11, 3.0) == ([2], 1)
    assert k.walk((1.0 - 1e-10,), 1, True, 2e-10, 3.0) == ([2], 0)
    assert k.expand((0.5,), 4) == [1, 1, 1, 1]
    assert k.reconstruct([(1,), (1,)]) == k.reconstruct([1, 1]) == pytest.approx([4.0 / 9.0])


def test_digit_kernel_rejects_negative_length():
    k = DigitKernel(((3.0,),), (0.0,), (1.0,))
    assert k.expand((0.5,), 0) == []
    with pytest.raises(ValueError, match="length must be nonnegative"):
        k.expand((0.5,), -1)


# -- the digit step against tol_floor on every coordinate ------------------------

def tol_floor_step(kernel, u, nudge):
    """One kernel step as it reads with tol_floor on every coordinate, its
    digit an int for a 1x1 kernel; nudge=False raises where it would snap."""
    digit, nxt, margin = [], [], math.inf
    for row, off, norm, lo, hi in kernel._rows:
        w = sum(map(operator.mul, row, u))
        t = w - off
        d = tol_floor(t, nudge)
        f = math.floor(t)
        if not lo <= d <= hi:
            d = f
        digit.append(d)
        nxt.append(off if abs(t - d) <= EPS_FLOOR else w - d)
        frac = t - f
        margin = min(margin, frac / norm, (1.0 - frac) / norm)
    return digit[0] if len(digit) == 1 else tuple(digit), tuple(nxt), margin


def outcome(step, *args):
    try:
        d, u, margin = step(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return d, [x.hex() for x in u], margin.hex()


def kernel_outcome(kernel, u, nudge):
    """The error of the kernel's walk of one digit where it raises, and else
    outcome(reference_step, kernel, u), which always snaps, once the walk's
    digit agrees with it and its certified count flips exactly at the
    reference's margin: a ball of radius r at radix 1 certifies the digit
    when r < margin * (1 - 1e-9)."""
    try:
        digits, _ = kernel.walk(u, 1, nudge)
    except ValueError as exc:
        return type(exc), str(exc)
    got = outcome(reference_step, kernel, u)
    assert digits == [got[0]], u
    r = float.fromhex(got[2]) * (1.0 - 1e-9)
    assert [kernel.walk(u, 1, nudge, x, 1.0)[1] for x in (math.nextafter(r, -math.inf), r)
            ] == [1, 0], u
    return got


# digits 0 .. 2^60 - 1 and -2^60 .. 0; u = |t| / 2^60 gives A u = t exactly
UP = DigitKernel(((2.0 ** 60,),), (0.0,), (1.0,))
DOWN = DigitKernel(((-(2.0 ** 60),),), (0.0,), (1.0,))
# digits 0 .. 2 only, so snaps at 3 are refused
THREE = DigitKernel(((3.0,),), (0.0,), (1.0,))


def _near(n):
    """Points on both sides of each edge of the band around n, and of the
    fast path's edge at twice its width."""
    out = []
    for sign in (1.0, -1.0):
        for off in (EPS_FLOOR * (1.0 - 2.0 ** -40), EPS_FLOOR, EPS_FLOOR * (1.0 + 2.0 ** -40),
                    2.0 * EPS_FLOOR):
            t = n + sign * off
            out += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    return out


STEP_POINTS = [t for n in (0, 1, 2, 3, 7, 1000, 2 ** 20, 2 ** 40) for m in (n, -n)
               for t in _near(m)]
STEP_POINTS += [0.5, -0.5, -0.3, -1e-17, 1e-17, -5e-324, 2.0 ** 52, 2.0 ** 52 + 1.0,
                -(2.0 ** 52), 2.0 ** 53, -(2.0 ** 53 + 2.0), 2.0 ** 59 + 2.0 ** 8, -(2.0 ** 59),
                2.0 ** 60, 1e300]


@pytest.mark.parametrize("nudge", [True, False], ids=["nudge", "error"])
def test_digit_step_is_the_tol_floor_step(nudge):
    for t in STEP_POINTS:
        kernel = UP if t >= 0.0 else DOWN
        u = (abs(t) * 2.0 ** -60,)
        if abs(t) >= 2.0 ** -900:  # A u is t itself above the underflow
            assert math.fsum(kernel.A[0]) * u[0] == t
        assert kernel_outcome(kernel, u, nudge) == outcome(tol_floor_step, kernel, u, nudge), t
        u = (t / 3.0,)
        assert kernel_outcome(THREE, u, nudge) == outcome(tol_floor_step, THREE, u, nudge), t


@pytest.mark.parametrize("nudge", [True, False], ids=["nudge", "error"])
@pytest.mark.parametrize("u, t", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
                                  (2.0 ** 1000, "inf")])
def test_digit_step_refuses_a_non_finite_image(nudge, u, t):
    message = f"cannot floor non-finite value {t}"
    assert kernel_outcome(UP, (u,), nudge) == (ValueError, message)
    assert outcome(tol_floor_step, UP, (u,), nudge) == (ValueError, message)


# -- expand is n steps -----------------------------------------------------------

STOCK_KERNELS = stock_kernels()


def _recorded(kernel, run):
    """run() with the kernel's image recording the points it is applied to:
    (run's result, or its AmbiguousValueError, and those points as float.hex()).
    Each shape's walk takes _image's product inline, 0.0 + a * u[0],
    0.0 + a * x + b * y and 0.0 + a0 * x0 + ... + a3 * x3, first row first,
    and holds the first row's entries in closure cells; they are swapped for
    floats that record what they multiply: a (a0) starts a point, and each
    later entry adds its coordinate."""
    seen = []
    cells = dict(zip(kernel.walk.__code__.co_freevars, kernel.walk.__closure__))

    def recording(a, first):
        class Recording(float):
            def __mul__(self, x):
                if first:
                    seen.append([])
                seen[-1].append(x.hex())
                return a * x
        return Recording(a)
    names = ("a0", "a1", "a2", "a3") if len(kernel.A) == 4 else ("a", "b")[:len(kernel.A)]
    hooks = {name: recording(cells[name].cell_contents, name == names[0]) for name in names}
    originals = {name: cells[name].cell_contents for name in hooks}
    for name, hook in hooks.items():
        cells[name].cell_contents = hook
    try:
        out = run()
    except AmbiguousValueError as exc:
        out = (type(exc), str(exc))
    finally:
        for name, original in originals.items():
            cells[name].cell_contents = original
    return out, seen


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(STOCK_KERNELS)), st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                                       min_size=4, max_size=4),
       st.integers(0, 4), st.sampled_from([None, 0.0, 5e-10, -5e-10, 1.5e-9, -1.5e-9, 2.5e-9]),
       st.integers(0, 40), st.booleans(), st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
def test_expand_is_n_steps(name, unit, axis, shift, n, nudge, radius):
    # expand feeds each remainder forward as the reference step returns it,
    # and raises the same AmbiguousValueError at the same digit, and so does
    # a walk with a ball, whose certifying digits take the same path; a
    # shift puts the image on (or beside) a digit-cell face, the snap path;
    # a 1x1 walk steps no more after a step that snaps to its own input
    kernel = STOCK_KERNELS[name]
    u = [row[1] + x for row, x in zip(kernel._rows, unit)]
    if shift is not None:
        u = on_face(kernel, u, axis % len(u), shift)
        assume(u is not None)

    orbit = [u]  # the snapping remainders, taken before the recording starts
    for _ in range(n):
        orbit.append(reference_step(kernel, orbit[-1])[1])
    # without nudge, a walk of one digit raises where the walk of n does
    steps = lambda: [kernel.expand(cur, 1, nudge)[0] for cur in orbit[:-1]]
    got = _recorded(kernel, lambda: kernel.expand(u, n, nudge))
    want = _recorded(kernel, steps)
    i = reference_fixed_point(kernel, u, n, nudge) if len(kernel.A) == 1 else None
    if i is not None:
        # the walk records the images up to and including the fixed point's;
        # each later step records its remainder, which equals its input
        out, seen = want
        assert orbit[i + 1][0] == orbit[i][0]
        assert seen[i + 1:] == [[orbit[i + 1][0].hex()]] * (n - 1 - i)
        want = out, seen[:i + 1]
    assert got == want
    assert got == _recorded(kernel, lambda: kernel.walk(u, n, nudge, radius, 2.0)[0])
    assert len(got[1]) >= min(n, 1)  # the recording sees the body that runs


# -- _image: the dense product, also where a row has one nonzero entry ---------

def _dense(M, u):
    """M u in doubles, each row added left to right from +0.0."""
    out = []
    for row in M:
        acc = 0.0
        for m, x in zip(row, u):
            acc += m * x
        out.append(acc)
    return out


# signed zeros, subnormals, values near overflow and ordinary ones
EDGE_VALUES = (0.0, -0.0, 5e-324, -2.5e-310, 1.7e308, -9.0e307, 0.3, -7.25)


def _monomial_matrices():
    """name -> 4x4 matrix with one nonzero entry per row: B and Binv of every
    stock lattice and the kernels of 5i, 10k, 6i and real 3 on the unit box."""
    out = {}
    for lattice in (lipschitz(), lipschitz(centered=True), hurwitz_box(), symmetric_domain(0.25),
                    zeta_lattice(Quaternion(0.0, 6.0, 0.0, 0.0), J, 0.25)):
        out[f"B-{lattice.name}"], out[f"Binv-{lattice.name}"] = lattice.B, lattice.Binv
    for name in ("notwinning-hurwitz", "notwinning-symmetric", "notwinning-zeta",
                 "qwinning-componentwise"):
        out[f"A-{name}"] = build_preset(name).system.kernel.A
    out["A-real-3-unit-box"] = QuatSystem(Quaternion.real(3.0), lipschitz()).kernel.A
    return out


MONOMIAL = _monomial_matrices()
# not monomial: one row has two nonzero entries
SPARSE = ((2.0, 0.0, 0.0, 0.5), (0.0, 3.0, 0.0, 0.0), (0.0, 0.0, 0.0, -1.0),
          (0.0, 0.0, 1.0, 0.0))


def _hexes(v):
    return [float.hex(x) for x in v]


@pytest.mark.parametrize("name", sorted(MONOMIAL) + ["sparse"])
def test_image_keeps_the_dense_bits_on_finite_input(name):
    M = SPARSE if name == "sparse" else MONOMIAL[name]
    nonzero = [sum(1 for a in row if a != 0.0) for row in M]
    assert nonzero == ([2, 1, 1, 1] if name == "sparse" else [1, 1, 1, 1]), name
    image = _image(M)
    for u in itertools.product(EDGE_VALUES, repeat=4):
        assert _hexes(image(u)) == _hexes(_dense(M, u)), (name, u)
        assert _hexes(image(map(float, u))) == _hexes(_dense(M, u)), (name, u)


@pytest.mark.parametrize("name", sorted(MONOMIAL) + ["sparse"])
def test_image_of_non_finite_input_is_non_finite(name):
    # a row that reads an inf or a nan is not finite, and a row that does not
    # read it is nan, 0 * inf, as in the dense sums
    M = SPARSE if name == "sparse" else MONOMIAL[name]
    for bad in (math.inf, -math.inf, math.nan):
        for k in range(4):
            u = [0.25, -0.5, 1.0, 0.0]
            u[k] = bad
            got = _image(M)(u)
            assert _hexes(got) == _hexes(_dense(M, u)), (name, u)
            assert not any(map(math.isfinite, got)), (name, u)
