import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from kernel_reference import reference_step

from beta_arena import complexexp
from beta_arena.complexexp import (QUARTER, CkResult, ComplexBase, F_roots, F_value, G_region,
                                   Vk_squares, check_Ck, classify_digit_set,
                                   discriminant, fold_angle,
                                   gamma_constants, refinement_poly, snake_order,
                                   u_threshold, v_threshold)
from beta_arena.numeric import AmbiguousValueError, Quaternion, metallic_mean
from beta_arena.systems import ComplexSystem

PHI = metallic_mean(1)


# -- independent oracles ------------------------------------------------------

def oracle_digit_set(r: float, theta: float) -> set[tuple[int, int]]:
    """Digits whose cell overlaps the image of the centered square.

    Pure geometry: the image is the square of side r rotated by theta, a
    digit (a, b) occurs exactly when its unit cell meets that square with
    positive area.  Separating-axis test on the four edge normals; strict
    inequalities so tangencies do not count.
    """
    c, s = math.cos(theta), math.sin(theta)
    half = (r / 2.0) * (abs(c) + abs(s))
    bound = int(math.ceil(half + 0.5)) + 1
    out = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if abs(a) >= 0.5 + half:
                continue
            if abs(b) >= 0.5 + half:
                continue
            if abs(a * c + b * s) >= r / 2.0 + (abs(c) + abs(s)) / 2.0:
                continue
            if abs(-a * s + b * c) >= r / 2.0 + (abs(c) + abs(s)) / 2.0:
                continue
            out.add((a, b))
    return out


def oracle_classify(r: float, theta: float) -> tuple[bool, int]:
    digits = oracle_digit_set(r, theta)
    n = max(max(abs(a), abs(b)) for a, b in digits)
    full = {(a, b) for a in range(-n, n + 1) for b in range(-n, n + 1)}
    return digits == full, n


def oracle_v2(N: int, theta: float) -> float:
    # closed-form root of the level-2 refinement polynomial
    cps = math.cos(theta) + math.sin(theta)
    rad = N * N * cps * cps + math.cos(2 * theta) + math.sin(2 * theta)
    return N * cps + math.sqrt(rad)


DELTA_POLY = lambda x: x ** 8 + 16 * x ** 7 + 30 * x ** 4 - 16 * x + 1


# -- digit map ----------------------------------------------------------------

def test_worked_example_digits_and_period():
    base = ComplexBase(PHI, math.pi / 2, lo=(0.0, 0.0))
    z = Quaternion.complex2(0.0, (5.0 - math.sqrt(5.0)) / 10.0)
    digs = base.expand(z, 9, on_ambiguous="nudge")
    assert digs == [(-1, 0)] + [(0, 0), (-2, 0)] * 4
    # minimal eventual period of the digit string
    start, period = detect_period(digs)
    assert (start, period) == (1, 2)
    assert tuple(digs[1:3]) == ((0, 0), (-2, 0))


def detect_period(digs):
    for start in range(len(digs)):
        tail = digs[start:]
        for p in range(1, len(tail) // 2 + 1):
            if all(tail[i] == tail[i % p] for i in range(len(tail))):
                return start, p
    raise AssertionError("no period found")


def test_remainder_stays_in_square():
    base = ComplexBase(3.3, 0.4)
    system = ComplexSystem(base)
    pts = [(-0.31, 0.12), (0.49, -0.45), (0.0, 0.0), (-0.5, -0.5)]
    for (x, y) in pts:
        cur = np.array([x, y])
        for _ in range(12):
            _, cur, _ = reference_step(system.kernel, cur)
            assert base.contains(Quaternion.complex2(*cur))


def test_expansion_reconstructs_point():
    base = ComplexBase(2.2, 0.3)
    z = Quaternion.complex2(0.217, -0.388)
    digs = base.expand(z, 20, on_ambiguous="nudge")
    acc = Quaternion.real(0.0)
    for j, (a, b) in enumerate(digs):
        acc = acc + base.xi.powi(-(j + 1)) * Quaternion.complex2(a, b)
    assert abs(z - acc) <= 2.2 ** -20 * 2.0


# -- digit set classification -------------------------------------------------

def test_classification_frozen_points():
    assert classify_digit_set(4.5, 0.05) == (True, 2)
    assert classify_digit_set(2.5, 0.0) == (True, 1)
    assert classify_digit_set(4.2, math.pi / 4) == (False, 3)


def test_classification_against_geometry_oracle():
    # coarse sweep; the acceptance suite runs the full-resolution one
    mism = total = 0
    for i in range(40):
        r = 1.3 + i * 0.24
        for j in range(12):
            theta = j * (math.pi / 4) / 12 + 0.013
            cps = math.cos(theta) + math.sin(theta)
            x = (r * cps + 1.0) / 2.0
            if abs(x - round(x)) < 1e-3:
                continue
            N = math.ceil(x) - 1
            if abs(r - (2 * N - 1) * cps) < 1e-3:
                continue
            total += 1
            if classify_digit_set(r, theta) != oracle_classify(r, theta):
                mism += 1
    assert total > 300
    assert mism == 0


def test_classification_folds_angle():
    for extra in (math.pi / 2, math.pi, -math.pi / 2):
        assert classify_digit_set(3.7, 0.21 + extra) == classify_digit_set(3.7, 0.21)
    assert classify_digit_set(3.7, -0.21) == classify_digit_set(3.7, 0.21)


def test_fold_angle_refuses_non_finite_angles():
    for theta in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="angle must be finite"):
            fold_angle(theta)


def test_classification_boundary_is_ambiguous():
    # r exactly at the square/non-square crossover for N = 2, theta fixed
    theta = 0.3
    cps = math.cos(theta) + math.sin(theta)
    with pytest.raises(AmbiguousValueError):
        classify_digit_set(3.0 * cps, theta)


# -- thresholds ---------------------------------------------------------------

def test_u_threshold_values():
    assert u_threshold(2, 0.0) == pytest.approx(5.0, abs=1e-14)
    assert u_threshold(1, math.pi / 4) == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-14)


def test_v1_is_angle_sum():
    for theta in (0.0, 0.1, 0.5):
        want = math.cos(theta) + math.sin(theta)
        assert v_threshold(3, 1, theta) == pytest.approx(want, abs=1e-12)


def test_v2_matches_closed_form():
    for N in range(1, 6):
        for theta in (0.0, 0.03, 0.1, 0.5, math.pi / 4):
            assert v_threshold(N, 2, theta) == pytest.approx(
                oracle_v2(N, theta), abs=1e-10), (N, theta)


def test_v2_at_zero_angle():
    for N in range(1, 6):
        want = N + math.sqrt(N * N + 1.0)
        assert v_threshold(N, 2, 0.0) == pytest.approx(want, abs=1e-10)


def test_v_thresholds_are_roots():
    for N in (1, 2, 4):
        for k in (2, 3, 4):
            for theta in (0.0, 0.07, 0.3):
                r = v_threshold(N, k, theta)
                assert refinement_poly(N, k, theta)(r) == pytest.approx(0.0, abs=1e-8)


def test_v_increasing_in_k():
    # finer refinement needs a larger modulus
    for theta in (0.0, 0.05):
        vs = [v_threshold(2, k, theta) for k in range(1, 6)]
        assert all(a < b + 1e-12 for a, b in zip(vs, vs[1:]))


def test_check_Ck_on_reference_base():
    base = ComplexBase(4.5, 0.05)
    for k in (1, 2):
        res = check_Ck(base, k)
        assert res.holds and res.certified
    # v2 < 4.5 <= u2 sandwich backing the two certified levels
    assert v_threshold(2, 2, 0.05) < 4.5 <= u_threshold(2, 0.05)


def test_F_balance_has_roots_below_gamma1():
    # F_value balances the level-2 and level-1 thresholds over continuous N;
    # its two roots exist below gamma1 and bracket the region levels
    assert 0.05 < gamma_constants().gamma1
    for L in F_roots(0.05):
        assert F_value(L, 0.05) == pytest.approx(0.0, abs=1e-8)


def test_gamma_constants():
    gc = gamma_constants()
    assert DELTA_POLY(gc.delta) == pytest.approx(0.0, abs=1e-10)
    assert gc.gamma2 == pytest.approx(2.0 * math.atan(gc.delta), abs=1e-12)
    # discriminant root separating the two-real-roots regime
    assert discriminant(gc.gamma1) == pytest.approx(0.0, abs=1e-8)
    assert discriminant(gc.gamma1 - 1e-4) > 0 > discriminant(gc.gamma1 + 1e-4)
    assert 0.129 < gc.gamma1 < 0.13
    assert 0.124 < gc.gamma2 < 0.125
    assert 0.0625 < gc.delta < 0.0626


def test_F_roots_bracket_integer_levels():
    l_minus, l_plus = F_roots(0.05)
    assert l_minus < l_plus
    regions = G_region(0.05)
    assert len(regions) == math.ceil(l_plus) - 1


# -- the bisection and the refinement polynomial --------------------------------

def bisect_200(below, lo, hi):
    """Reference: the bisection run for all of its 200 halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def v_threshold_bisections():
    """(predicate, lo, hi) of each bisection v_threshold runs, N <= 12, k <= 9."""
    for theta in (-0.3, 0.0, 0.05, 0.3, QUARTER, 2.0):
        for N in range(1, 13):
            for k in range(2, 10):
                f = refinement_poly(N, k, theta)
                hi = 2.0 * math.sqrt(2.0) * N * k + 2.0
                while f(hi) <= 0.0:
                    hi *= 2.0
                yield (lambda r, f=f: f(r) <= 0.0), 1.0, hi


def delta_poly_horner(x):
    acc = 0.0
    for c in complexexp._DELTA_POLY:
        acc = acc * x + c
    return acc


def odd_bits(x):
    """Not monotone: whether the hex digits of x hold an odd number of 1s."""
    return x.hex().count("1") % 2 == 1


def test_bisect_gives_the_bits_of_200_halvings():
    cases = list(v_threshold_bisections())
    cases += [(lambda x: delta_poly_horner(x) > 0.0, 0.0, 0.125),
              (lambda t: discriminant(t) > 0.0, 1e-9, QUARTER)]
    for below in (odd_bits, lambda x: math.sin(1e6 * x) > 0.0, lambda x: True, lambda x: False):
        for lo, hi in ((0.0, 1.0), (1.0, 0.0), (-3.0, 7.5), (-0.0, 0.0), (0.0, -0.0),
                       (-5e-324, 5e-324), (1e300, 3e300), (-1.0, -0.0)):
            cases.append((below, lo, hi))
    for below, lo, hi in cases:
        assert complexexp._bisect(below, lo, hi).hex() == bisect_200(below, lo, hi).hex()


def test_v_threshold_evaluates_its_polynomial_at_most_80_times(monkeypatch):
    calls = []
    make = complexexp.refinement_poly

    def counted(N, k, theta):
        f = make(N, k, theta)

        def g(r):
            calls.append(r)
            return f(r)
        return g

    monkeypatch.setattr(complexexp, "refinement_poly", counted)
    most = 0
    for theta in (-0.3, 0.0, 0.05, 0.3, QUARTER, 2.0):
        for N in range(1, 13):
            for k in range(1, 10):
                calls.clear()
                v_threshold(N, k, theta)
                most = max(most, len(calls))
    assert 0 < most <= 80


@pytest.mark.parametrize("N, k, bits", [(1, 121, "0x1.a12e0603babd6p+1"),
                                        (2, 110, "0x1.5cf2c4b037054p+2"),
                                        (5, 98, "0x1.80c097c21c9cap+3")])
def test_refinement_beyond_double_precision_is_refused_by_name(N, k, bits):
    # the bisection starts from the bracket [1, 2 sqrt(2) N k + 2]; one degree
    # more and r**k overflows at its upper end, whatever the angle
    assert v_threshold(N, k, 0.1).hex() == bits
    for theta in (0.1, -2.0, 0.7, 3.0):
        with pytest.raises(ValueError, match="beyond double precision"):
            v_threshold(N, k + 1, theta)
    with pytest.raises(ValueError, match="beyond double precision"):
        refinement_poly(N, k + 1, 0.1)(2.0 * math.sqrt(2.0) * N * (k + 1) + 2.0)


def test_refinement_checks_beyond_double_precision_raise_value_errors():
    base = ComplexBase(2.9, 0.0)
    assert base.N == 1
    assert check_Ck(base, 121) == CkResult(False, False)
    with pytest.raises(ValueError, match="beyond double precision"):
        check_Ck(base, 122)
    # Vk_squares checks the levels in order and stops at the first that
    # fails, long before a polynomial of degree 122
    with pytest.raises(ValueError, match="refinement condition fails at level 24"):
        Vk_squares(ComplexBase(3.0 - 2e-11, 0.0), 122)


# -- the square-refinement region ---------------------------------------------

def test_G_region_frozen():
    regs = G_region(0.0)
    assert regs[0].N == 1
    assert regs[0].v_lo == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)
    assert regs[0].u_hi == pytest.approx(3.0, abs=1e-12)
    assert G_region(0.2) == []
    assert G_region(0.1249) == []  # just above gamma2
    assert G_region(0.1248) != []  # just below


def test_G_region_membership_consistency():
    # radii inside a region interval classify square and refine at level 2
    for reg in G_region(0.03)[:3]:
        r = 0.5 * (reg.v_lo + reg.u_hi)
        assert classify_digit_set(r, 0.03) == (True, reg.N)
        assert check_Ck(ComplexBase(r, 0.03), 2).holds


# -- snake order and level-k tiles ---------------------------------------------

def test_snake_order_properties():
    for N in (1, 2, 3):
        order = snake_order(N)
        assert len(order) == (2 * N + 1) ** 2
        assert order[0] == (-N, -N)
        assert len(set(order)) == len(order)
        assert set(order) == {(a, b) for a in range(-N, N + 1)
                              for b in range(-N, N + 1)}
        for (a1, b1), (a2, b2) in zip(order, order[1:]):
            assert abs(a1 - a2) + abs(b1 - b2) == 1


def test_Vk_squares_counts():
    base = ComplexBase(4.5, 0.05)
    assert len(Vk_squares(base, 1)) == 1
    assert len(Vk_squares(base, 2)) == 25
    # level 3 needs a modulus above the k = 3 threshold
    deep = ComplexBase(4.99, 0.0)
    assert v_threshold(2, 3, 0.0) < 4.99 <= u_threshold(2, 0.0)
    assert len(Vk_squares(deep, 3)) == 625


def test_Vk_refinement_gate():
    # the k = 3 threshold exceeds 4.5 at theta = 0.05, so no level-3 tiling
    assert v_threshold(2, 3, 0.05) > 4.5
    with pytest.raises(ValueError):
        Vk_squares(ComplexBase(4.5, 0.05), 3)


def test_Vk_tile_points_have_zero_kth_digit():
    # definitional check: points sampled inside each tile expand with 0 at k
    base = ComplexBase(4.5, 0.05)
    k = 2
    shrink = base.xi.powi(-k)
    for center in Vk_squares(base, k):
        for (u, v) in ((0.0, 0.0), (0.35, -0.27), (-0.45, 0.45)):
            z = center + shrink * Quaternion.complex2(u, v)
            digs = base.expand(z, k, on_ambiguous="nudge")
            assert digs[k - 1] == (0, 0), (center, u, v)


def test_V2_center_gaps():
    base = ComplexBase(4.5, 0.05)
    centers = Vk_squares(base, 2)
    for c1, c2 in zip(centers, centers[1:]):
        assert abs(c1 - c2) <= math.sqrt(2.0) / 4.5 + 1e-12


def test_V3_center_gaps_within_prefix():
    # consecutive tiles sharing the first digit stay sqrt(2)/r^2 apart
    base = ComplexBase(4.99, 0.0)
    centers = Vk_squares(base, 3)
    for i in range(len(centers) - 1):
        if i % 25 == 24:  # prefix rollover, the bound does not apply
            continue
        assert abs(centers[i] - centers[i + 1]) <= math.sqrt(2.0) / 4.99 ** 2 + 1e-12


def test_Vk_requires_square_classification():
    base = ComplexBase(4.2, math.pi / 4)  # non-square digit set
    with pytest.raises(ValueError):
        Vk_squares(base, 2)


# -- property tests -----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.6, max_value=9.0),
       st.floats(min_value=0.0, max_value=0.78),
       st.floats(min_value=-0.49, max_value=0.49),
       st.floats(min_value=-0.49, max_value=0.49))
def test_digit_always_in_classified_box(r, theta, x, y):
    try:
        square, N = classify_digit_set(r, theta)
    except AmbiguousValueError:
        return
    d, _, _ = reference_step(ComplexSystem(ComplexBase(r, theta)).kernel, np.array([x, y]))
    assert max(abs(d[0]), abs(d[1])) <= N
