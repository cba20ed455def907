"""v_threshold and Vk_squares against the loops they replace, bit for bit.

v_threshold calls its polynomial only at midpoints inside a certified window
around the root.  reference_v_threshold is the bisection that calls it at
every midpoint, for all 200 halvings (bisect_200).  The two must give the
same float.hex(), or the same ValueError text, on the pinned grid of
tests/test_region_digests.py (N = 1..12, k = 1..9, ten angles), on seeded
draws with N <= 20, k <= 60 and theta in [-4, 4], and at the degrees one
past the last that double precision holds (k = 122, 111, 99 for N = 1, 2,
5).  They must also agree when the Newton estimate of the root is wrong,
which the certificate catches and which sends v_threshold back to the
full bisection.

Vk_squares decides whether a tile corner escapes from the extreme
coordinates of the centers.  reference_vk_squares scans every (center,
corner) pair.  The two must give the same tiles, or the same refusal, on
test_region_digests's tile bases at k = 1, 2, 3.  They must also agree
where the corner test itself refuses (check_Ck made to hold on
ComplexBase(4.5, 0.05) at k = 3), and where the digit list keeps only the
digits with both parts <= 0, so that the centers are not symmetric about 0
(the stock centers are, which would hide a dropped abs on their side).

The module imports neither numpy nor pytest, so a bare interpreter runs it:

    PYTHONPATH=src python3 tests/test_region_reference.py
"""

from __future__ import annotations

import functools
import math
import random

from test_region_digests import ANGLES, tile_bases

from beta_arena import complexexp
from beta_arena.complexexp import CkResult, ComplexBase, fold_angle, refinement_poly
from beta_arena.numeric import EPS_FLOOR, Quaternion

DRAWS = 20_000
REFUSED = ((1, 122), (2, 111), (5, 99))  # one degree past each last held degree
REFUSAL_ANGLES = (0.1, -2.0, 0.7, 3.0)
# what _newton_root returns instead of its estimate: off by more than the
# window, off by less than it, and points outside the bracket
MISSES = {"x(1+2^-8)": lambda r, hi: r * (1.0 + 2.0 ** -8),
          "x(1-1e-6)": lambda r, hi: r * (1.0 - 1e-6),
          "x(1+2^-45)": lambda r, hi: r * (1.0 + 2.0 ** -45),
          "1": lambda r, hi: 1.0,
          "hi": lambda r, hi: hi,
          "nan": lambda r, hi: math.nan}
MISS_DRAWS = 300


def bisect_200(below, lo, hi):
    """Reference: the bisection run for all of its 200 halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_v_threshold(N, k, theta):
    """The root as the bisection that evaluates the polynomial at every
    midpoint (cached: after about 56 halvings the midpoint repeats)."""
    if N < 1:
        raise ValueError("N must be positive")
    t = fold_angle(theta)
    if k == 1:
        return math.cos(t) + math.sin(t)
    f = refinement_poly(N, k, t)
    hi = 2.0 * math.sqrt(2.0) * N * k + 2.0
    while f(hi) <= 0.0:
        hi *= 2.0
    return bisect_200(functools.cache(lambda r: f(r) <= 0.0), 1.0, hi)


def outcome(run, *args):
    """float.hex() of run's result, or its ValueError's text."""
    try:
        return run(*args).hex()
    except ValueError as exc:
        return f"ValueError: {exc}"


def v_cases():
    """(N, k, theta): the pinned grid, the seeded draws and the refusals."""
    out = [(N, k, t) for t in ANGLES for N in range(1, 13) for k in range(1, 10)]
    rng = random.Random("region-reference:v")
    out += [(rng.randint(1, 20), rng.randint(1, 60), rng.uniform(-4.0, 4.0))
            for _ in range(DRAWS)]
    out += [(N, k, t) for N, k in REFUSED for t in REFUSAL_ANGLES]
    return out


def v_problems(cases):
    return [f"{c}: {got} against {want}" for c in cases
            for got, want in [(outcome(complexexp.v_threshold, *c),
                               outcome(reference_v_threshold, *c))] if got != want]


def v_miss_problems():
    """v_threshold against the reference with each of MISSES in place of
    the Newton estimate."""
    estimate = complexexp._newton_root
    rng = random.Random("region-reference:miss")
    cases = [(N, k, t) for t in (0.0, 0.3) for N in (1, 7) for k in (2, 3, 9)]
    cases += [(rng.randint(1, 20), rng.randint(2, 60), rng.uniform(-4.0, 4.0))
              for _ in range(MISS_DRAWS)]
    want = [outcome(reference_v_threshold, *c) for c in cases]
    out = []
    try:
        for name, miss in MISSES.items():
            complexexp._newton_root = lambda coefs, hi, miss=miss: miss(estimate(coefs, hi), hi)
            out += [f"{name} {c}: {got} against {w}" for c, w in zip(cases, want)
                    for got in [outcome(complexexp.v_threshold, *c)] if got != w]
    finally:
        complexexp._newton_root = estimate
    return out


def reference_vk_squares(base, k):
    """Vk_squares with its corner test made pair by pair."""
    if not base.is_centered:
        raise ValueError("tile decompositions require the centered square")
    if k < 1:
        raise ValueError("k must be positive")
    if base.N is None:
        raise ValueError("digit set is not square; no tile structure")
    for n in range(2, k + 1):
        if not complexexp.check_Ck(base, n).holds:
            raise ValueError(f"refinement condition fails at level {n}")
    digits = [Quaternion.complex2(da, db) for da, db in complexexp.snake_order(base.N)]
    centers = [Quaternion().components]
    for j in range(1, k):
        inv = base.xi.powi(-j)
        steps = [(inv * dg).components for dg in digits]
        centers = [(a + sa, b + sb, c + sc, d + sd)
                   for a, b, c, d in centers for sa, sb, sc, sd in steps]
    shrink, lim = base.xi.powi(-k), 0.5 + EPS_FLOOR
    corners = [(shrink * Quaternion.complex2(sx, sy)).components[:2]
               for sx in (-0.5, 0.5) for sy in (-0.5, 0.5)]
    if any(abs(a + ca) > lim or abs(b + cb) > lim for a, b, _, _ in centers for ca, cb in corners):
        raise ValueError("tile corner escaped the domain; refinement not established")
    return [Quaternion(*ctr) for ctr in centers]


def tiles(run, base, k):
    """float.hex() of every component of run's centers, or its ValueError's text."""
    try:
        return [tuple(x.hex() for x in c.components) for c in run(base, k)]
    except ValueError as exc:
        return f"ValueError: {exc}"


def vk_compare(label, cases):
    out, refused = [], 0
    for r, t, k in cases:
        base = ComplexBase(r, t)
        got, want = tiles(complexexp.Vk_squares, base, k), tiles(reference_vk_squares, base, k)
        if got != want:
            out.append(f"{label} {(r, t, k)}: {str(got)[:80]} against {str(want)[:80]}")
        refused += isinstance(want, str) and "corner escaped" in want
    return out, refused


def vk_problems():
    """Vk_squares against the pair-by-pair scan: on the tile bases, and with
    check_Ck made to hold, with the stock and with a one-sided digit list; a
    note as well if the corner test refused nowhere."""
    out, _ = vk_compare("tile base", [(r, t, k) for r, t in tile_bases() for k in (1, 2, 3)])
    check, order = complexexp.check_Ck, complexexp.snake_order
    forced = [(4.5, 0.05, 3), (2.9, 0.0, 3), (4.95, 0.001, 3), (2.9, 0.0, 2)]
    refused = 0
    try:
        complexexp.check_Ck = lambda base, k: CkResult(True, False)
        found, count = vk_compare("forced", forced)
        out += found
        refused += count
        complexexp.snake_order = lambda N: [(a, b) for a, b in order(N) if a <= 0 and b <= 0]
        found, count = vk_compare("one-sided", forced)
        out += found
        refused += count
    finally:
        complexexp.check_Ck, complexexp.snake_order = check, order
    if not refused:
        out.append("the corner test refused no forced case")
    return out


CHECKS = {"v_threshold": lambda: v_problems(v_cases()),
          "v_threshold, Newton estimate missed": v_miss_problems,
          "Vk_squares": vk_problems}


def test_v_threshold_matches_the_reference_bisection():
    assert v_problems(v_cases()) == []


def test_v_threshold_matches_it_when_the_estimate_misses():
    assert v_miss_problems() == []


def test_Vk_squares_matches_the_pair_by_pair_corner_scan():
    assert vk_problems() == []


if __name__ == "__main__":
    import sys
    bad = False
    for name, check in CHECKS.items():
        found = check()
        bad = bad or bool(found)
        print(f"{'FAIL' if found else 'ok  '} {name}")
        for line in found[:5]:
            print(f"     {line}")
    sys.exit(1 if bad else 0)
