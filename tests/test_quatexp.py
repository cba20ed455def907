import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_kernel_digests import on_face

from beta_arena import quatexp
from beta_arena.numeric import DigitKernel, Quaternion, _power, _powers, metallic_mean
from beta_arena.presets import build_preset
from beta_arena.quatexp import (C_Omega, LatticeDomain, avoid_constant,
                                domain_constants,
                                hurwitz_box, isoclinic_matrix, lipschitz,
                                losing_parameters, q_expand,
                                rot_balanced_rho, rot_constants, stock_lattice,
                                symmetric_constants, symmetric_domain,
                                zeta_lattice)
from beta_arena.systems import QuatSystem

PHI = metallic_mean(1)
SQ13 = math.sqrt(13.0)


# -- independent oracles ------------------------------------------------------

def oracle_corner_extrema(lattice, xi):
    """Brute-force M = sup |x| and D = sup |x - xi| over the box corners."""
    corners = lattice.corners()
    M = max(abs(c) for c in corners)
    D = max(abs(c - xi) for c in corners)
    return M, D


def as_vec(q: Quaternion) -> np.ndarray:
    return np.array(q.components)


# -- isoclinic rotation -------------------------------------------------------

def test_isoclinic_identity_on_units():
    for unit in (Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0),
                 Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)):
        M = isoclinic_matrix(unit)
        for x in (Quaternion(1, 2, 3, 4), Quaternion(-1, 0, 0.5, 2)):
            assert np.allclose(M @ as_vec(x), as_vec(unit * x), atol=1e-14)


def test_isoclinic_identity_random():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        q = Quaternion(*rng.normal(size=4))
        x = Quaternion(*rng.normal(size=4))
        lhs = abs(q) * (isoclinic_matrix(q) @ as_vec(x))
        rhs = as_vec(q * x)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-10


def test_isoclinic_is_special_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        M = np.asarray(isoclinic_matrix(Quaternion(*rng.normal(size=4))))
        assert np.allclose(M @ M.T, np.eye(4), atol=1e-12)
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-10)


# -- lattice domains ----------------------------------------------------------

def test_lipschitz_box_membership():
    box = lipschitz()
    assert box.contains(Quaternion(0.0, 0.0, 0.0, 0.0))
    assert box.contains(Quaternion(0.99, 0.5, 0.0, 0.7))
    assert not box.contains(Quaternion(1.0, 0.0, 0.0, 0.0))
    assert not box.contains(Quaternion(-0.01, 0.0, 0.0, 0.0))
    cbox = lipschitz(centered=True)
    assert cbox.contains(Quaternion(-0.5, 0.0, 0.49, 0.0))
    assert not cbox.contains(Quaternion(0.5, 0.0, 0.0, 0.0))


def test_coords_point_roundtrip():
    rng = np.random.default_rng(3)
    for lattice in (lipschitz(), hurwitz_box(), symmetric_domain(0.25),
                    zeta_lattice(Quaternion(0, 6, 0, 0), Quaternion(0, 0, 1, 0), 0.25)):
        for _ in range(25):
            coords = tuple(rng.uniform(-3, 3, size=4))
            q = lattice.point(coords)
            back = lattice.to_coords(q)
            assert np.allclose(back, coords, atol=1e-9)


E = (Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0),
     Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1))


@pytest.mark.parametrize("basis", [
    (E[0], E[1], E[2], E[2]),  # two equal vectors
    (E[0], E[1], E[2], Quaternion(0, 0, 0, 0)),  # a zero vector
    (E[0], E[1], E[2], Quaternion(0, 0, 0, 1e-13)),  # det 1e-13
    (E[0], E[1], E[2], Quaternion(0, 0, 1, 1e-13)),  # det 1e-13, sheared
], ids=["repeated", "zero", "diagonal-1e-13", "sheared-1e-13"])
def test_singular_basis_is_refused(basis):
    with pytest.raises(ValueError, match="basis is singular"):
        LatticeDomain(basis, (0.0,) * 4)


def exact_inverse(M):
    """M^-1 in Fractions by Gauss-Jordan, or None when |det M| < 1e-12."""
    n = len(M)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(M)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        det *= p
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    if abs(det) < 1e-12:
        return None
    return [row[n:] for row in rows]


def fraction_inverse(M):
    """M^-1 rounded once per entry, or None when |det M| < 1e-12."""
    X = exact_inverse(M)
    return None if X is None else [[float(x) for x in row] for row in X]


def hexes_or_none(M):
    return None if M is None else [x.hex() for row in M for x in row]


STOCK = (lipschitz(), lipschitz(centered=True), hurwitz_box(), symmetric_domain(0.25),
         zeta_lattice(Quaternion(0.0, 6.0, 0.0, 0.0), Quaternion(0.0, 0.0, 1.0, 0.0), 0.25))


@pytest.mark.parametrize("lattice", STOCK, ids=lambda L: L.name)
def test_stock_inverse_is_the_fraction_inverse(lattice):
    assert hexes_or_none(lattice.Binv) == hexes_or_none(fraction_inverse(lattice.B))
    assert hexes_or_none(_power(lattice.B, -1)) == hexes_or_none(lattice.Binv)


@pytest.mark.parametrize("lattice", STOCK + (
    symmetric_domain(0.1), symmetric_domain(0.5), symmetric_domain(0.125),
    symmetric_domain(0.123456789),
    *(zeta_lattice(Quaternion(0.0, 6.0, 0.0, 0.0), Quaternion(0.0, 0.0, 1.0, 0.0), eps)
      for eps in (0.0, 0.1, 0.5, 0.75, 0.123456789)),
    zeta_lattice(Quaternion(0.0, 3.0, 4.0, 0.0), Quaternion(0.0, 0.0, 0.0, 1.0), 0.25)),
    ids=lambda L: L.name)
def test_stock_lattice_parses_its_own_name(lattice):
    # LatticeDomain.name is the spelling of `expand --lattice`, every digit of
    # EPS kept; a zeta lattice other than zeta = 6i, eta = j is custom, which
    # no spelling builds
    if lattice.name == "custom":
        with pytest.raises(ValueError, match="unknown lattice 'custom'"):
            stock_lattice(lattice.name)
        return
    parsed = stock_lattice(lattice.name)
    assert parsed.name == lattice.name
    assert hexes_or_none(parsed.B) == hexes_or_none(lattice.B)
    assert hexes_or_none(parsed.Binv) == hexes_or_none(lattice.Binv)
    assert [x.hex() for x in parsed.offsets] == [x.hex() for x in lattice.offsets]


@pytest.mark.parametrize("name, message", [
    ("zeta:x", "--lattice zeta:EPS needs a number EPS, got 'zeta:x'"),
    ("symmetric:", "--lattice symmetric:EPS needs a number EPS, got 'symmetric:'"),
    ("custom", "unknown lattice 'custom'"),
    ("hurwitz", "unknown lattice 'hurwitz'"),
])
def test_stock_lattice_refuses_other_names(name, message):
    with pytest.raises(ValueError) as exc:
        stock_lattice(name)
    assert str(exc.value) == message


# dyadic entries of every scale, small integers (singular matrices among
# them) and entries near 1e-3, whose determinants straddle 1e-12
DYADIC = (st.builds(lambda m, e: m * 2.0 ** e, st.integers(-9, 9), st.integers(-60, 60))
          | st.floats(-4.0, 4.0) | st.floats(-1e-3, 1e-3)
          | st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(DYADIC, min_size=4, max_size=4), min_size=4, max_size=4))
def test_integer_inverse_is_the_fraction_inverse(M):
    M = tuple(map(tuple, M))
    assert hexes_or_none(_power(M, -1)) == hexes_or_none(fraction_inverse(M))


def test_inverse_refuses_below_the_determinant_floor_exactly():
    # det = 1e-12 itself is kept; the next float below it is refused
    for det, kept in ((1e-12, True), (math.nextafter(1e-12, 0.0), False)):
        M = ((det, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
             (0.0, 0.0, 0.0, 1.0))
        assert (_power(M, -1) is not None) is kept


def fraction_power(M, j):
    """M^j rounded once per entry, or None for j < 0 when |det M| < 1e-12."""
    X = [[Fraction(x) for x in row] for row in M] if j >= 0 else exact_inverse(M)
    if X is None:
        return None
    P = [[Fraction(int(i == k)) for k in range(len(M))] for i in range(len(M))]
    for _ in range(abs(j)):
        P = [[sum(a * b for a, b in zip(row, col)) for col in zip(*X)] for row in P]
    return [[float(x) for x in row] for row in P]


SMALL = (st.builds(lambda m, e: m * 2.0 ** e, st.integers(-9, 9), st.integers(-8, 8))
         | st.floats(-4.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 4]).flatmap(
    lambda n: st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=n, max_size=n)),
    st.integers(-4, 4))
def test_power_is_the_fraction_power(M, j):
    # 1x1, 2x2 and 4x4 matrices, powers from the inverse's fourth to M^4
    M = tuple(map(tuple, M))
    assert hexes_or_none(_power(M, j)) == hexes_or_none(fraction_power(M, j))


@pytest.mark.parametrize("name", ["notwinning-lipschitz", "notwinning-hurwitz",
                                  "notwinning-symmetric", "notwinning-zeta"])
def test_grown_powers_are_power(name):
    # the avoidance play's powers to depth 130 (64-round games), asked for in
    # order and then out of it: each grown pair is _power's, bit for bit
    A = build_preset(name).system.kernel.A
    powers = _powers(A)
    for j in [*range(131), 7, 0, 130, 64, 129, 3]:
        up, down = powers(j)
        assert hexes_or_none(up) == hexes_or_none(_power(A, j)), (name, j)
        assert hexes_or_none(down) == hexes_or_none(_power(A, -j)), (name, -j)


@pytest.mark.parametrize("x", [math.inf, math.nan])
def test_non_finite_basis_is_refused(x):
    with pytest.raises(ValueError, match="basis must be finite"):
        LatticeDomain((E[0], E[1], E[2], Quaternion(0, 0, 0, x)), (0.0,) * 4)


def test_quat_step_remainder_in_box():
    rng = np.random.default_rng(5)
    q = Quaternion(0.0, PHI, 0.0, 0.0)
    box = lipschitz()
    system = QuatSystem(q, box)
    for _ in range(50):
        z = rng.uniform(0.0, 1.0, size=4)
        digit, rem, _ = system.step(z)
        assert box.contains(Quaternion(*map(float, rem)))
        assert all(float(c).is_integer() for c in digit)


def test_q_expand_reconstruction():
    q = Quaternion(2.0, 1.0, -1.0, 0.5)
    box = lipschitz()
    z = Quaternion(0.31, 0.62, 0.05, 0.44)
    digs = q_expand(q, box, z, 16, on_ambiguous="nudge")
    acc = Quaternion.real(0.0)
    for j, d in enumerate(digs):
        acc = acc + q.powi(-(j + 1)) * box.point(d)
    assert abs(z - acc) <= abs(q) ** -16 * 4.0


# the benchmark's two quaternion systems: lattice name -> base
Q_EXPAND_CASES = {"lipschitz": Quaternion(3.0, 3.0, 3.0, 3.0),
                  "zeta:0.25": Quaternion(0.0, 6.0, 0.0, 0.0)}


def _outcome(expand):
    """The digits, or the error's type and text."""
    try:
        return expand()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(Q_EXPAND_CASES))
def test_q_expand_builds_one_kernel_per_q(name, monkeypatch):
    # q_expand's digits and errors are a freshly built kernel's, in both
    # modes, and only its first call builds a kernel
    q = Q_EXPAND_CASES[name]
    lattice, fresh = stock_lattice(name), stock_lattice(name).digit_map(q)
    rng = random.Random(f"q-expand:{name}")
    zs = []
    while len(zs) < 16:
        u = [lo + rng.random() for lo in lattice.offsets]
        if len(zs) % 4 == 0:
            u = on_face(fresh, u, rng.randrange(4))
        if u is not None and lattice.contains(lattice.point(u)):
            zs.append(lattice.point(u))
    built = []

    def counted(*args):
        built.append(args)
        return DigitKernel(*args)
    monkeypatch.setattr(quatexp, "DigitKernel", counted)
    errors = 0
    for mode in ("error", "nudge"):
        for z in zs:
            got = _outcome(lambda: q_expand(q, lattice, z, 32, on_ambiguous=mode))
            want = _outcome(lambda: fresh.expand(lattice.to_coords(z), 32, mode == "nudge"))
            assert got == want, (mode, z)
            errors += isinstance(got, tuple)
    assert lattice.digit_map(q) is lattice.digit_map(q)
    assert errors > 0 and len(built) == 1


# the last q: an int q whose norm, squared exactly, rounds to another float
# than its float's, and whose kernel is another
KEY_CASES = (((3.0, 3.0, 3.0, 3.0), (3, 3, 3, 3)),
             ((0.0, 6.0, 0.0, 0.0), (-0.0, 6.0, -0.0, 0.0)),
             ((0.0, 6.0, 0.0, 0.0), (0, 6, 0, -0.0)),
             ((-624881550059.0, -378908703773.0, 529969995193.0, 962199697798.0),
              (-624881550059, -378908703773, 529969995193, 962199697798)))


@pytest.mark.parametrize("name", sorted(Q_EXPAND_CASES))
def test_digit_map_gives_an_equal_q_a_fresh_build(name):
    # a q with int or -0.0 components, asked after an equal q, maps to the
    # kernel a fresh lattice builds for it
    lattice = stock_lattice(name)
    for first, second in KEY_CASES:
        lattice.digit_map(Quaternion(*first))
        got, want = (L.digit_map(Quaternion(*second)) for L in (lattice, stock_lattice(name)))
        assert ((hexes_or_none(got.A), got.lo, got.hi)
                == (hexes_or_none(want.A), want.lo, want.hi)), second
    int_q, float_q = (Quaternion(*c) for c in KEY_CASES[-1][::-1])
    assert (hexes_or_none(stock_lattice(name).digit_map(int_q).A)
            != hexes_or_none(stock_lattice(name).digit_map(float_q).A))


def test_worked_example_digits_and_periodicity():
    q = Quaternion(0.0, PHI, 0.0, 0.0)
    x = Quaternion(0.5, 0.0, 0.5, 0.0)  # (1 + j) / 2
    digs = q_expand(q, lipschitz(), x, 12, on_ambiguous="nudge")
    assert digs[:6] == [(0, 0, 0, 0), (-2, 0, -2, 0), (0, 1, 0, 1),
                        (-1, 0, -1, 0), (0, 1, 0, 1), (-1, 0, -1, 0)]
    assert digs[6:12] == digs[:6]


def test_snapped_remainder_lands_on_the_face():
    # q p lies on a cell face; with the snapped remainder put exactly on
    # it, the orbit's later landings on faces are exact as well
    system = QuatSystem(Quaternion(3.0, 3.0, 3.0, 3.0), lipschitz())
    p = np.array([0.7148650973438129, 0.9256473678219083,
                  0.41020280313417234, 0.3840486016332271])
    on_face = []
    for j in range(1, 11):
        _, p, margin = system.step(p)
        if margin == 0.0:
            on_face.append(j)
    assert on_face == [4, 7, 10]


def test_zeta_lattice_digit_containment():
    zeta = Quaternion(0.0, 6.0, 0.0, 0.0)
    eta = Quaternion(0.0, 0.0, 1.0, 0.0)
    lattice = zeta_lattice(zeta, eta, 0.25)
    system = QuatSystem(zeta, lattice)
    rng = np.random.default_rng(9)
    for _ in range(60):
        coords = tuple(rng.uniform(-0.25, 0.75, size=4))
        z = lattice.point(coords)
        assert lattice.contains(z)
        _, rem, _ = system.step(lattice.to_coords(z))
        assert lattice.box_contains(rem)


def test_zeta_lattice_rejects_bad_eta():
    zeta = Quaternion(0.0, 6.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        zeta_lattice(zeta, Quaternion(1.0, 0.0, 0.0, 0.0), 0.25)  # real part
    with pytest.raises(ValueError):
        zeta_lattice(zeta, Quaternion(0.0, 1.0, 0.0, 0.0), 0.25)  # parallel
    with pytest.raises(ValueError):
        zeta_lattice(Quaternion.real(2.0), Quaternion(0, 0, 1, 0), 0.25)


# -- domain constants ---------------------------------------------------------

def test_lipschitz_constants_frozen():
    xi = Quaternion(0.5, 0.5, 0.5, 0.5)
    dc = domain_constants(lipschitz(), xi, 0.4)
    assert dc.M == pytest.approx(2.0, abs=1e-12)
    assert dc.D == pytest.approx(1.0, abs=1e-12)
    assert dc.C_X == pytest.approx(10.0, abs=1e-12)


def test_hurwitz_constants_frozen():
    xi = Quaternion(0.5, 0.5, 0.5, 0.25)
    dc = domain_constants(hurwitz_box(), xi, 0.25)
    assert dc.M == pytest.approx(SQ13 / 2.0, abs=1e-12)
    assert dc.D == pytest.approx(SQ13 / 4.0, abs=1e-12)
    assert dc.C_X == pytest.approx(1.0 + SQ13, abs=1e-12)


def test_constants_match_corner_oracle():
    cases = [
        (lipschitz(), Quaternion(0.5, 0.5, 0.5, 0.5), 0.4),
        (hurwitz_box(), Quaternion(0.5, 0.5, 0.5, 0.25), 0.25),
        (zeta_lattice(Quaternion(0, 6, 0, 0), Quaternion(0, 0, 1, 0), 0.25),
         None, 0.49),
    ]
    for lattice, xi, rho in cases:
        if xi is None:
            xi = lattice.point((0.25, 0.25, 0.25, 0.25))
        dc = domain_constants(lattice, xi, rho)
        M, D = oracle_corner_extrema(lattice, xi)
        assert dc.M == pytest.approx(M, abs=1e-12)
        assert dc.D == pytest.approx(D, abs=1e-12)
        want = max(1.0 + D / rho, M / (abs(xi) - 2 * rho), 1.0 / (abs(xi) - 2 * rho))
        assert dc.C_X == pytest.approx(want, abs=1e-12)


def test_domain_constants_requires_interior_ball():
    with pytest.raises(ValueError):
        domain_constants(lipschitz(), Quaternion(0.5, 0.5, 0.5, 0.5), 0.6)
    # |xi| must clear 2 rho
    with pytest.raises(ValueError):
        domain_constants(lipschitz(), Quaternion(0.2, 0.2, 0.2, 0.2), 0.2)


def test_avoid_constant_digit_dependence():
    xi = Quaternion(0.5, 0.5, 0.5, 0.25)
    dc = domain_constants(hurwitz_box(), xi, 0.25)
    c0 = avoid_constant(dc, Quaternion.real(0.0))
    assert c0 == pytest.approx(1.0 + SQ13, abs=1e-12)
    c1 = avoid_constant(dc, Quaternion(1.0, 1.0, 0.0, 0.0))
    want = (dc.M + math.sqrt(2.0)) / (abs(xi) - 0.5)
    assert c1 == pytest.approx(max(1.0 + SQ13, want), abs=1e-12)


def test_rot_constants_floor():
    # balanced radius makes both branches of the pair constant agree
    for d_abs in [0.0, 1.0, 2.0, 5.0, 17.0, 0.3]:
        rho = rot_balanced_rho(d_abs)
        dc, c_d = rot_constants(d_abs)
        assert c_d == pytest.approx(1.0 + 1.0 / rho, abs=1e-12)
        assert c_d == pytest.approx((dc.M + d_abs) / (abs(dc.xi) - 2 * rho), rel=1e-9)
        assert c_d >= 4.56


def test_symmetric_constants_frozen():
    xi, rho, c = symmetric_constants(0.25, 0.1, 0.0)
    assert abs(xi - Quaternion(0.1, 0.1, 0.1, 0.1)) <= 1e-15
    assert rho == pytest.approx(0.1, abs=1e-15)
    assert c == pytest.approx(8.0, abs=1e-12)
    with pytest.raises(ValueError):
        symmetric_constants(0.25, 0.2, 0.0)  # tau must stay below eps / 2


def test_C_Omega_zero_block_reduces_to_CX():
    q = Quaternion(3.0, 3.0, 3.0, 3.0)
    dc = domain_constants(lipschitz(), Quaternion(0.5, 0.5, 0.5, 0.5), 0.4)
    res = C_Omega(q, (Quaternion.real(0.0),), dc)
    assert res.value == pytest.approx(dc.C_X, abs=1e-12)
    # generic constant 10 exceeds |q| = 6: the one-digit hypothesis fails
    assert not res.applicable


def test_C_Omega_two_digit_window():
    q = Quaternion(0.0, 6.0, 0.0, 0.0)
    lattice = zeta_lattice(q, Quaternion(0, 0, 1, 0), 0.25)
    xi = lattice.point((0.25, 0.25, 0.25, 0.25))
    dc = domain_constants(lattice, xi, 0.49)
    res = C_Omega(q, (Quaternion.real(0.0), Quaternion.real(0.0)), dc)
    assert res.value == pytest.approx(dc.C_X, abs=1e-12)
    assert res.applicable  # C_X < 36
    # a nonzero leading digit inflates the constant by |q d_1|
    res2 = C_Omega(q, (Quaternion.real(1.0), Quaternion.real(0.0)), dc)
    assert res2.value == pytest.approx(dc.C_X * 7.0, rel=1e-12)


def test_losing_parameters():
    q = Quaternion(0.0, 6.0, 0.0, 0.0)
    lattice = zeta_lattice(q, Quaternion(0, 0, 1, 0), 0.25)
    xi = lattice.point((0.25, 0.25, 0.25, 0.25))
    dc = domain_constants(lattice, xi, 0.49)
    omega = (Quaternion.real(0.0), Quaternion.real(0.0))
    lp = losing_parameters(q, omega, dc)
    assert lp.alpha_lo == pytest.approx(dc.C_X / 36.0, rel=1e-12)
    for alpha in (0.3, 0.5, 0.9):
        assert lp.beta(alpha) * alpha * 36.0 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        lp.beta(lp.alpha_lo / 2.0)


def test_losing_parameters_infeasible():
    # one-digit window on the plain box: constant above |q| leaves no alpha
    q = Quaternion(3.0, 3.0, 3.0, 3.0)
    dc = domain_constants(lipschitz(), Quaternion(0.5, 0.5, 0.5, 0.5), 0.4)
    with pytest.raises(ValueError):
        losing_parameters(q, (Quaternion.real(0.0),), dc)


def test_hurwitz_ball_touches_face():
    # the reference ball B(xi, 1/4) is tangent to the short face; the
    # membership check must accept it rather than reject on roundoff
    lattice = hurwitz_box()
    assert lattice.ball_inside(Quaternion(0.5, 0.5, 0.5, 0.25), 0.25)
    assert not lattice.ball_inside(Quaternion(0.5, 0.5, 0.5, 0.25), 0.2501)
