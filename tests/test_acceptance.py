"""Acceptance gate: frozen end-to-end checks, one pass/fail line each.

Every check prints a single line on the real stdout (bypassing capture) so
the gate stays readable inside a verbose pytest run, and enforces its own
wall-clock budget where one applies.  Unit-level coverage lives in the
sibling test modules; this file only pins the headline behaviour.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import subprocess
import sys
import time

import numpy as np

from beta_arena.complexexp import (ComplexBase, F_threshold, G_region, classify_digit_set,
                                   gamma_constants, v_threshold)
from beta_arena.game import audit_trace
from beta_arena.numeric import AmbiguousValueError, Quaternion
from beta_arena.presets import build_preset, real_winning_setup, run_setup
from beta_arena.quatexp import (domain_constants, hurwitz_box, isoclinic_matrix,
                                lipschitz, rot_constants)
from beta_arena.realexp import RealBase, find_nk_real
from beta_arena.systems import ComplexSystem, QuatSystem, expand_digits

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
SILVER = 1.0 + math.sqrt(2.0)

# one line per check; conftest replays these in the terminal summary since
# capture eats direct writes
GATE_LINES: list[str] = []


def _emit(line: str) -> None:
    GATE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextlib.contextmanager
def gate(num: int, label: str, budget: float | None = None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        dt = time.perf_counter() - t0
        if budget is not None and dt > budget:
            raise AssertionError(f"took {dt:.2f}s, budget is {budget:.0f}s")
        ok = True
    finally:
        dt = time.perf_counter() - t0
        _emit(f"{'PASS' if ok else 'FAIL'} {num:>2}  {label} [{dt:.2f}s]")


def _detect_period(digs):
    """Smallest (start, period) making the listed digits eventually periodic."""
    n = len(digs)
    for period in range(1, n):
        for start in range(n - period):
            if all(digs[i] == digs[i + period] for i in range(start, n - period)):
                return start, period
    return None


def test_01_golden_cylinder_structure():
    with gate(1, "golden-ratio digit-cylinder intervals and 3-block census", budget=1.0):
        base = RealBase(GOLDEN)
        ivs = base.cylinder_intervals(0, 4)
        assert len(ivs) == 5
        p = [GOLDEN ** -j for j in range(1, 5)]  # p[0] = b^-1 ... p[3] = b^-4
        expected = [0.0, p[3], p[2], p[1], p[1] + p[3],
                    p[0], p[0] + p[3], p[0] + p[2], 1.0]
        got = [x for iv in ivs for x in (iv.lo, iv.hi)]
        # the ten raw endpoints collapse onto nine values (b^-3 + b^-4 = b^-2)
        for e in expected:
            assert any(abs(e - g) <= 1e-10 for g in got), f"missing endpoint {e}"
        for g in got:
            assert any(abs(e - g) <= 1e-10 for e in expected), f"stray endpoint {g}"
        blocks = set(base.enumerate_admissible(3))
        assert blocks == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)}


def test_02_gap_lemma_and_run_bound():
    with gate(2, "block value gaps and non-full-run bound, four bases, n <= 6", budget=30.0):
        for b in (GOLDEN, SILVER, 2.5, 3.0):
            base = RealBase(b)
            cap = base.K_b + 2
            for n in range(1, 7):
                blocks = base.enumerate_admissible(n)
                vals = [base.value(blk) for blk in blocks]
                bound = b ** -n + 1e-9
                for lo, hi in zip(vals, vals[1:]):
                    assert hi - lo <= bound, (b, n, hi - lo)
                run = worst = 0
                for blk in blocks:
                    run = run + 1 if base.in_E(blk, 0) else 0
                    worst = max(worst, run)
                assert worst <= cap, (b, n, worst, cap)


def test_03_complex_worked_expansion():
    with gate(3, "purely imaginary golden base: expansion of (5-sqrt5)i/10", budget=1.0):
        base = ComplexBase(GOLDEN, math.pi / 2.0, lo=(0.0, 0.0))
        z = np.array([0.0, (5.0 - math.sqrt(5.0)) / 10.0])
        digs = expand_digits(ComplexSystem(base), z, 9, on_ambiguous="nudge")
        head = [(-1, 0), (0, 0), (-2, 0), (0, 0), (-2, 0),
                (0, 0), (-2, 0), (0, 0), (-2, 0)]
        assert digs == head
        assert _detect_period(digs) == (1, 2)
        assert (digs[1], digs[2]) == ((0, 0), (-2, 0))


def test_04_square_classification_vs_grid_oracle():
    with gate(4, "digit-set classification vs cell-overlap oracle on a 200x50 grid", budget=60.0):
        included = matches = 0
        for i, j in itertools.product(range(200), range(50)):
            r = 1.0 + 10.0 * (i + 1) / 200.0
            th = (math.pi / 4.0) * j / 49.0
            c, s = math.cos(th), math.sin(th)
            cps = c + s
            x = (r * cps + 1.0) / 2.0
            if abs(x - round(x)) < 1e-3:
                continue  # digit-set size about to jump
            if abs(r - (2 * (math.ceil(x) - 1) - 1) * cps) < 1e-3:
                continue  # square/non-square switchover
            try:
                cls = classify_digit_set(r, th)
            except AmbiguousValueError:
                continue
            # a digit occurs iff its unit cell strictly overlaps the rotated
            # square r*e^(i th)*X; test all four separating axes at once
            bound = int(math.ceil(0.5 * r * cps + 0.5)) + 1
            g = np.arange(-bound, bound + 1)
            A, B = np.meshgrid(g, g)
            e = 0.5 + 0.5 * r * cps
            f = 0.5 * r + 0.5 * cps
            occ = ((np.abs(A) < e) & (np.abs(B) < e)
                   & (np.abs(A * c + B * s) < f)
                   & (np.abs(B * c - A * s) < f))
            m = int(max(np.max(np.abs(A[occ])), np.max(np.abs(B[occ]))))
            square = bool(np.array_equal(occ, (np.abs(A) <= m) & (np.abs(B) <= m)))
            included += 1
            if cls.square == square and (not square or cls.N == m):
                matches += 1
        assert included >= 9000, f"boundary exclusion ate the grid: {included}"
        rate = matches / included
        assert rate >= 0.99, f"match rate {rate:.4f} on {included} cells"


def test_05_threshold_constants():
    with gate(5, "frozen thresholds: F(9/2), v at theta 0, gamma pair, G intervals"):
        want = (8495.0 - 180.0 * math.sqrt(2.0)) / 11901.0
        assert abs(F_threshold(4.5, 0.6) - want) <= 1e-12
        for N in range(1, 6):
            assert abs(v_threshold(N, 2, 0.0) - (N + math.sqrt(N * N + 1.0))) <= 1e-10
        g = gamma_constants()
        d = g.delta
        p = d ** 8 + 16.0 * d ** 7 + 30.0 * d ** 4 - 16.0 * d + 1.0
        assert abs(p) < 1e-10
        assert abs(g.gamma2 - 2.0 * math.atan(d)) <= 1e-12
        assert G_region(0.2) == []
        first = G_region(0.0)[0]
        assert first.N == 1
        assert abs(first.v_lo - (1.0 + math.sqrt(2.0))) <= 1e-10
        assert abs(first.u_hi - 3.0) <= 1e-10


def test_06_quaternion_worked_expansion_and_isoclinic():
    with gate(6, "quaternion expansion of (1+j)/2 and the isoclinic identity"):
        system = QuatSystem(Quaternion(0.0, GOLDEN, 0.0, 0.0), lipschitz())
        p = np.array([0.5, 0.0, 0.5, 0.0])
        digs = expand_digits(system, p, 12, on_ambiguous="nudge")
        head = [(0, 0, 0, 0), (-2, 0, -2, 0), (0, 1, 0, 1),
                (-1, 0, -1, 0), (0, 1, 0, 1), (-1, 0, -1, 0)]
        assert digs[:6] == head
        assert digs[6:12] == head  # period twelve as asserted

        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            comp = rng.uniform(-3.0, 3.0, size=4)
            if np.linalg.norm(comp) < 0.1:
                comp[0] += 1.0
            q = Quaternion(*comp)
            x = Quaternion(*rng.uniform(-2.0, 2.0, size=4))
            lhs = abs(q) * (isoclinic_matrix(q) @ np.array(x.components))
            rhs = np.array((q * x).components)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < 1e-10, worst


def test_07_lattice_domain_constants():
    with gate(7, "lattice constants: unit box, squashed box, rotation family"):
        dc = domain_constants(lipschitz(), Quaternion(0.5, 0.5, 0.5, 0.5), 0.4)
        assert abs(dc.C_X - 10.0) <= 1e-12
        dc = domain_constants(hurwitz_box(), Quaternion(0.5, 0.5, 0.5, 0.25), 0.25)
        assert abs(dc.M - math.sqrt(13.0) / 2.0) <= 1e-12
        assert abs(dc.D - math.sqrt(13.0) / 4.0) <= 1e-12
        for d_abs in (0.0, 0.3, 1.0, 2.0, 5.0, 17.0):
            _, c_d = rot_constants(d_abs)
            assert c_d >= 4.56, (d_abs, c_d)


def test_08_game_soundness():
    with gate(8, "50 forcing + 20 avoidance parameter sets, audited traces", budget=300.0):
        traces = []

        # digit-forcing side: every set passes the (n, k) window search, then
        # has to beat both the drifting and the random opponent
        grid = itertools.product((GOLDEN, SILVER, 3.0),
                                 (0.03, 0.05, 0.08, 0.12),
                                 (0.6, 0.7, 0.85),
                                 (0.3, 0.45))
        sets = [(b, a, be, rh) for b, a, be, rh in grid
                if find_nk_real(b, RealBase(b).K_b, a, be, rh) is not None][:50]
        assert len(sets) == 50
        for i, (b, a, be, rh) in enumerate(sets):
            for bob in ("optimal-drift", "random"):
                setup = real_winning_setup(b, alpha=a, beta=be, rho=rh,
                                           bob=bob, name=f"force-{i}")
                assert setup.notes == [], (i, setup.notes)
                trace, result = run_setup(setup, seed=1000 + i)
                assert result.verdict == "verified", (b, a, be, rh, bob,
                                                      result.reason)
                traces.append(trace)

        # digit-avoiding side: five hypothesis-satisfying alphas per lattice,
        # beta pinned by the builder, random legal opponent
        losing = {
            "notwinning-lipschitz": (0.84, 0.87, 0.90, 0.93, 0.96),
            "notwinning-hurwitz": (0.925, 0.94, 0.955, 0.97, 0.985),
            "notwinning-symmetric": (0.81, 0.85, 0.89, 0.93, 0.97),
            "notwinning-zeta": (0.28, 0.4, 0.55, 0.7, 0.85),
        }
        count = 0
        for name, alphas in losing.items():
            for j, a in enumerate(alphas):
                setup = build_preset(name, alpha=a)
                assert setup.notes == [], (name, a, setup.notes)
                trace, result = run_setup(setup, seed=3000 + count)
                assert result.verdict == "verified", (name, a, result.reason)
                traces.append(trace)
                count += 1
        assert count == 20

        assert len(traces) == 120
        for trace in traces:
            assert audit_trace(trace) == []


def test_09_cli_determinism():
    with gate(9, "byte-identical CLI output under repeated seeded runs"):
        cmds = [
            ["game", "--preset", "dwinning-golden", "--seed", "3"],
            ["game", "--preset", "cwinning-nine-halves", "--bob", "random",
             "--seed", "5"],
            ["game", "--preset", "notwinning-zeta", "--seed", "2"],
            ["scan", "--preset", "notwinning-lipschitz",
             "--alpha", "0.84:0.96:0.04", "--seeds", "2"],
            ["regions", "--curve", "A", "--b", "golden",
             "--alpha", "0.01:0.3:0.005"],
        ]
        for cmd in cmds:
            runs = [subprocess.run([sys.executable, "-m", "beta_arena.cli", *cmd],
                                   capture_output=True) for _ in range(2)]
            assert runs[0].returncode == 0, (cmd, runs[0].stderr)
            assert runs[0].returncode == runs[1].returncode
            assert runs[0].stdout == runs[1].stdout, cmd
            assert runs[0].stderr == runs[1].stderr, cmd
