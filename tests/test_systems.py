import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beta_arena.complexexp import ComplexBase
from beta_arena.numeric import Quaternion, metallic_mean
from beta_arena.quatexp import (LatticeDomain, hurwitz_box, lipschitz, q_expand,
                                symmetric_domain, zeta_lattice)
from beta_arena.realexp import RealBase
from beta_arena.systems import (ComplexSystem, QuatSystem, RealSystem,
                                expand_digits)

PHI = metallic_mean(1)


def test_real_system_agrees_with_base():
    base = RealBase(PHI)
    sysm = RealSystem(base)
    for x in (0.07, 0.33, 0.72, 0.91):
        want = base.digits(x, 6, on_ambiguous="nudge")
        got = expand_digits(sysm, np.array([x]), 6)
        assert got == list(want)


def test_complex_system_agrees_with_base():
    base = ComplexBase(4.5, 0.05)
    sysm = ComplexSystem(base)
    for (x, y) in ((0.1, -0.2), (-0.45, 0.37), (0.0, 0.0)):
        want = base.expand(Quaternion.complex2(x, y), 5, on_ambiguous="nudge")
        got = expand_digits(sysm, np.array([x, y]), 5)
        assert got == want


def test_quat_system_agrees_with_q_expand():
    q = Quaternion(0.0, PHI, 0.0, 0.0)
    box = lipschitz()
    sysm = QuatSystem(q, box)
    p = np.array([0.5, 0.0, 0.5, 0.0])
    want = q_expand(q, box, Quaternion(*map(float, p)), 8, on_ambiguous="nudge")
    assert expand_digits(sysm, p, 8) == want


def test_unknown_on_ambiguous_mode_is_refused():
    real = RealSystem(RealBase(PHI))
    cplx = ComplexSystem(ComplexBase(4.5, 0.05))
    quat = QuatSystem(Quaternion(3.0, 3.0, 3.0, 3.0), lipschitz())
    calls = [
        lambda mode: real.base.digits(0.3, 4, on_ambiguous=mode),
        lambda mode: cplx.base.expand(Quaternion.complex2(0.1, 0.2), 4, on_ambiguous=mode),
        lambda mode: q_expand(quat.q, quat.lattice, Quaternion(0.13, 0.27, 0.41, 0.66), 4,
                              on_ambiguous=mode),
    ]
    for sysm, p in ((real, [0.3]), (cplx, [0.1, 0.2]), (quat, [0.13, 0.27, 0.41, 0.66])):
        calls.append(lambda mode, sysm=sysm, p=p: expand_digits(sysm, np.array(p), 4, mode))
    for call in calls:
        call("error")
        call("nudge")
        with pytest.raises(ValueError, match="on_ambiguous must be 'error' or 'nudge'"):
            call("nudg")


def test_step_margin_is_boundary_distance():
    base = RealBase(3.0)
    sysm = RealSystem(base)
    # 3 * 0.4 = 1.2: distance 0.2 to the nearest digit boundary
    _, _, margin = sysm.step(np.array([0.4]))
    assert margin == pytest.approx(0.2, abs=1e-12)
    _, _, margin = sysm.step(np.array([0.3]))
    assert margin == pytest.approx(0.1, abs=1e-9)


def test_margins_bound_digit_stability():
    # points closer than the margin share the first digit
    base = ComplexBase(2.5, 0.3)
    sysm = ComplexSystem(base)
    p = np.array([0.21, -0.17])
    d, _, margin = sysm.step(p)
    r = margin / base.r * 0.9
    for shift in ([r, 0], [-r, 0], [0, r], [0, -r], [r / 2, r / 2]):
        d2, _, _ = sysm.step(p + np.array(shift))
        assert d == d2


def test_contains():
    assert RealSystem(RealBase(PHI)).contains(np.array([0.0]))
    assert not RealSystem(RealBase(PHI)).contains(np.array([1.0]))
    cs = ComplexSystem(ComplexBase(2.0, 0.1))
    assert cs.contains(np.array([-0.5, 0.49]))
    assert not cs.contains(np.array([0.5, 0.0]))
    qs = QuatSystem(Quaternion.real(3.0), lipschitz())
    assert qs.contains(np.array([0.0, 0.5, 0.99, 0.2]))
    assert not qs.contains(np.array([0.0, 0.5, 1.0, 0.2]))


# -- QuatSystem.contains tests coordinates directly --------------------------

STOCK_LATTICES = (
    lipschitz(), lipschitz(centered=True), hurwitz_box(), symmetric_domain(0.25),
    zeta_lattice(Quaternion(0.0, 6.0, 0.0, 0.0), Quaternion(0.0, 0.0, 1.0, 0.0), 0.25),
)


def _ambient(lattice, coords):
    return lattice.B @ np.array(coords, dtype=float)


def _agrees(lattice, p):
    got = QuatSystem(Quaternion.real(3.0), lattice).contains(p)
    assert got == lattice.contains(Quaternion(*map(float, p))), (lattice.name, p)
    return got


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(STOCK_LATTICES),
       st.lists(st.floats(-0.5, 1.5), min_size=4, max_size=4))
def test_quat_contains_matches_lattice_domain(lattice, u):
    _agrees(lattice, _ambient(lattice, [lo + x for lo, x in zip(lattice.offsets, u)]))


@pytest.mark.parametrize("lattice", STOCK_LATTICES, ids=lambda L: L.name)
def test_quat_contains_half_open_faces(lattice):
    for axis in range(4):
        coords = [lo + 0.5 for lo in lattice.offsets]
        coords[axis] = lattice.offsets[axis]
        assert _agrees(lattice, _ambient(lattice, coords))  # lower face: inside
        coords[axis] = lattice.offsets[axis] + 1.0
        assert not _agrees(lattice, _ambient(lattice, coords))  # upper face: outside


# -- box: contains read axis by axis -----------------------------------------

SHEARED = LatticeDomain((Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0),
                         Quaternion(0, 0, 1, 0), Quaternion(0, 0.5, 0.25, 1)), (0.0,) * 4)
BOX_ADAPTERS = (
    RealSystem(RealBase(PHI)),
    ComplexSystem(ComplexBase(4.5, 0.05)),
    ComplexSystem(ComplexBase(2.0, 0.1, lo=(0.0, -0.25))),
    *(QuatSystem(q, lattice) for lattice in STOCK_LATTICES
      for q in (Quaternion.real(3.0), Quaternion(3.0, 3.0, 3.0, 3.0))),
)


def _box_says(system, p):
    return all(lower <= scale * x < lower + 1.0 for x, (scale, lower) in zip(p, system.box))


def test_box_of_each_adapter():
    assert RealSystem(RealBase(PHI)).box == ((1.0, 0.0),)
    assert ComplexSystem(ComplexBase(4.5, 0.05)).box == ((1.0, -0.5), (1.0, -0.5))
    assert QuatSystem(Quaternion.real(3.0), hurwitz_box()).box == (
        (1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    assert QuatSystem(Quaternion.real(3.0), SHEARED).box is None
    for lattice in STOCK_LATTICES:
        assert QuatSystem(Quaternion.real(3.0), lattice).box is not None, lattice.name


def _face_values(system):
    """Per axis: the ambient values whose scaled coordinate sits on or next
    to a face of the box."""
    out = []
    for scale, lower in system.box:
        near = []
        for face in (lower, lower + 1.0):
            x = face / scale
            near += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
        out.append(near)
    return out


COORDINATE = st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from([0.0, -0.0]))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(BOX_ADAPTERS), st.lists(COORDINATE, min_size=4, max_size=4),
       st.lists(st.one_of(st.none(), st.integers(0, 5)), min_size=4, max_size=4))
def test_contains_is_the_box_formula(system, coords, faces):
    # each coordinate is random, or on or next to a face of its axis
    p = [x if k is None else near[k]
         for x, k, near in zip(coords, faces, _face_values(system))][:system.dim]
    assert system.contains(p) == _box_says(system, p)


def test_contains_is_the_box_formula_on_every_face():
    for system in BOX_ADAPTERS:
        inner = [(lower + 0.5) / scale for scale, lower in system.box]
        for axis, near in enumerate(_face_values(system)):
            for x in near:
                p = inner[:axis] + [x] + inner[axis + 1:]
                assert system.contains(p) == _box_says(system, p), (system, axis, x)


# -- basis changes: the column-order product ---------------------------------

def _column_order(M, v):
    """M v in doubles, each row added left to right from +0.0."""
    out = []
    for row in M:
        acc = 0.0
        for m, x in zip(row, v):
            acc += m * float(x)
        out.append(acc)
    return out


@pytest.mark.parametrize("lattice", (*STOCK_LATTICES, SHEARED), ids=lambda L: L.name)
def test_basis_changes_are_the_column_order_product(lattice):
    system = QuatSystem(Quaternion.real(3.0), lattice)
    for v in ((0.31, -0.62, 0.05, 0.44), (1.0 / 3.0, 0.7, -0.0, 2.5e-7),
              [1, -2, 3, 0], [0, 0, 0, 7], np.array([0.7, 0.1, -0.45, 2.5]),
              np.array([-1.1, 1.0 / 7.0, 0.0, 0.9])):
        for M, got in ((lattice.Binv, system.coords(v)),
                       (lattice.Binv, lattice.to_coords(Quaternion(*v))),
                       (lattice.B, system._point(v)),
                       (lattice.B, lattice.point(v).components)):
            assert all(type(x) is float for x in got), (lattice.name, v, got)
            assert [x.hex() for x in got] == [x.hex() for x in _column_order(M, v)], \
                (lattice.name, v)
