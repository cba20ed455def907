"""tables: block enumeration and region tables, with no digit stepping.

One pass builds the whole table set; each table is one checked operation
and the latency is that of the whole set.  Block enumerations and cylinder
decompositions run on the named bases (golden, silver, 2.5, 3) and on two
seed-drawn non-integer bases, each at the largest length whose block count
stays under a target, so the work is comparable across seeds.  The region
tables are a classify_digit_set r x theta grid, G_region over a theta grid,
a v_threshold family, and Vk_squares at k = 3 on three bases where it
certifies plus the cwinning-nine-halves base, where it refuses.
"""

from __future__ import annotations

import math
import random

import oracles

PHI = (1.0 + math.sqrt(5.0)) / 2.0
NAMED = (("golden", PHI), ("silver", 1.0 + math.sqrt(2.0)), ("2.5", 2.5), ("3", 3.0))
ENUM_TARGET = (1000, 300)       # blocks, named bases / seed bases
CYLINDER_TARGET = (400, 150)    # intervals, named bases / seed bases
PARRY_SAMPLE = 24
VK_K = 3
TILE_SAMPLE = 16


def length_for(b, target):
    """Largest n whose admissible block count is at most target."""
    n = 1
    while oracles.count_admissible(b, n + 1) <= target:
        n += 1
    return n


def strata(rng, lo, hi, count):
    return [lo + (i + rng.random()) * (hi - lo) / count for i in range(count)]


class Workload:
    name = "tables"
    latency = "pass"
    tail = 75

    def __init__(self, seed):
        rng = random.Random(f"tables:{seed}")
        bases = [(name, b, 0) for name, b in NAMED]
        bases += [(f"seed:{b:.6f}", b, 1) for b in (rng.uniform(1.55, 1.95),
                                                     rng.uniform(2.1, 2.9))]
        self.ops = []
        for name, b, seeded in bases:
            self.ops.append(("enum", name, b, length_for(b, ENUM_TARGET[seeded])))
        for name, b, seeded in bases:
            d = rng.randint(0, min(oracles.quasi_greedy(b, 256)))
            self.ops.append(("cyl", name, b, d, length_for(b, CYLINDER_TARGET[seeded]) + 1))
        grid = [(r, t) for r in strata(rng, 1.5, 9.5, 8) for t in strata(rng, 0.0, math.pi / 2, 8)]
        self.ops.append(("classify", tuple(grid)))
        self.ops.append(("G_region", tuple(strata(rng, 0.02, 0.16, 4))))
        thetas = strata(rng, 0.0, math.pi / 4, 2)
        self.ops.append(("v_threshold", tuple((N, k, t) for t in thetas
                                              for N in (1, 2, 3) for k in (1, 2, 3, 4))))
        self.ops += [("Vk", 2.9, 0.0), ("Vk", rng.uniform(2.86, 2.97), rng.uniform(0, 0.002)),
                     ("Vk", rng.uniform(4.89, 4.97), rng.uniform(0, 0.002)), ("Vk", 4.5, 0.05)]
        self.check_rng = random.Random(f"tables-check:{seed}")
        self.gamma2 = oracles.gamma2()

    def setup(self):
        from beta_arena import AmbiguousValueError, complexexp, realexp
        self.realexp, self.complexexp, self.ambiguous = realexp, complexexp, AmbiguousValueError
        self.run(("enum", "golden", PHI, 4))  # warm-up of the lazy paths

    def run(self, op):
        kind = op[0]
        cx = self.complexexp
        if kind == "enum":
            return self.realexp.RealBase(op[2]).enumerate_admissible(op[3])
        if kind == "cyl":
            return [(iv.block, iv.lo, iv.hi, iv.full_length)
                    for iv in self.realexp.RealBase(op[2]).cylinder_intervals(op[3], op[4])]
        if kind == "classify":
            out = []
            for r, t in op[1]:
                try:
                    out.append(tuple(cx.classify_digit_set(r, t)))
                except self.ambiguous:
                    out.append("ambiguous")
            return out
        if kind == "G_region":
            return [[(g.N, g.v_lo, g.u_hi) for g in cx.G_region(t)] for t in op[1]]
        if kind == "v_threshold":
            return [cx.v_threshold(N, k, t) for N, k, t in op[1]]
        try:
            tiles = cx.Vk_squares(cx.ComplexBase(op[1], op[2]), VK_K)
        except ValueError as exc:
            if "refinement condition fails" not in str(exc):
                raise
            return ("refused", str(exc))
        return [(c.a, c.b) for c in tiles]

    def work(self, op, out):
        return len(out) if op[0] in ("enum", "cyl") else 0

    def digest(self, out):
        return repr(out)

    def count(self, op, out, counters):
        kind = op[0]
        if kind == "enum":
            counters["blocks"] += len(out)
        elif kind == "cyl":
            counters["intervals"] += len(out)
            counters["intervals.full"] += sum(iv[3] for iv in out)
        elif kind == "classify":
            counters["classify.ambiguous"] += out.count("ambiguous")
        elif kind == "G_region":
            counters["regions"] += sum(map(len, out))
        elif out[0] == "refused":
            counters["Vk.refused"] += 1
        else:
            counters["tiles"] += len(out)

    def check(self, op, out):
        return getattr(self, "_check_" + op[0])(op, out)

    def _check_enum(self, op, out):
        _, name, b, n = op
        want = oracles.count_admissible(b, n)
        if name == "golden" and want != oracles.fibonacci(n + 2):
            yield "golden count is not Fibonacci", f"n={n}"
        if name == "silver" and want != oracles.pell_like(n):
            yield "silver count is not Pell-like", f"n={n}"
        if name == "3" and want != 3 ** n:
            yield "base-3 count is not 3^n", f"n={n}"
        if len(out) != want:
            yield "admissible block count", f"{name} n={n}: {len(out)} != {want}"
        if any(len(w) != n for w in out) or any(a >= b_ for a, b_ in zip(out, out[1:])):
            yield "blocks not in increasing order", f"{name} n={n}"
        c = oracles.quasi_greedy(b, n)
        for w in self.check_rng.sample(out, min(PARRY_SAMPLE, len(out))):
            if not oracles.parry_admissible(w, c):
                yield "emitted block fails the Parry suffix test", f"{name}: {w}"

    def _check_cyl(self, op, out):
        _, name, b, d, k = op
        want = oracles.count_admissible(b, k - 1)
        if len(out) != want:
            yield "cylinder count", f"{name} k={k}: {len(out)} != {want}"
        bk = b ** -k
        c = oracles.quasi_greedy(b, k)
        for i, (block, lo, hi, full) in enumerate(out):
            if len(block) != k or block[-1] != d:
                yield "cylinder block shape", f"{name}: {block}"
            elif not (0.0 < hi - lo <= bk + 1e-12):
                yield "cylinder length outside (0, b^-k]", f"{name}: {block} {hi - lo}"
            elif abs(lo - oracles.block_value(block, b)) > 1e-12:
                yield "cylinder left end is not the block value", f"{name}: {block}"
            elif full != (hi - lo >= bk - 1e-12):
                yield "full_length flag disagrees with the length", f"{name}: {block}"
            elif i + 1 < len(out) and not hi <= out[i + 1][1] + 1e-12:
                yield "cylinders overlap or are out of order", f"{name}: {block}"
            else:
                continue
            return
        for block, *_ in self.check_rng.sample(out, min(PARRY_SAMPLE, len(out))):
            if not oracles.parry_admissible(block[:-1], c):
                yield "cylinder prefix fails the Parry suffix test", f"{name}: {block}"

    def _check_classify(self, op, out):
        for (r, t), res in zip(op[1], out):
            if res == "ambiguous":
                continue
            square, N = res
            cps = math.cos(oracles.fold(t)) + math.sin(oracles.fold(t))
            if N != oracles.digit_box_radius(r, t) or square != ((2 * N - 1) * cps < r):
                yield "digit-set classification", f"r={r} theta={t}: {res}"

    def _check_G_region(self, op, out):
        for t, regions in zip(op[1], out):
            cps = math.cos(oracles.fold(t)) + math.sin(oracles.fold(t))
            if bool(regions) != (oracles.fold(t) < self.gamma2):
                yield "G_region emptiness disagrees with gamma2", f"theta={t}"
            for i, (N, v_lo, u_hi) in enumerate(regions, start=1):
                if N != i or not v_lo < u_hi:
                    yield "G_region intervals malformed", f"theta={t}: {regions}"
                elif abs(v_lo - oracles.v2_closed_form(N, t)) > 1e-9 * v_lo:
                    yield "G_region lower end is not v_2", f"theta={t} N={N}"
                elif abs(u_hi - (2 * N + 1) / cps) > 1e-12 * u_hi:
                    yield "G_region upper end is not u_N", f"theta={t} N={N}"

    def _check_v_threshold(self, op, out):
        for (N, k, t), v in zip(op[1], out):
            f = oracles.refinement_poly
            if k == 1:
                ok = abs(v - (math.cos(oracles.fold(t)) + math.sin(oracles.fold(t)))) < 1e-12
            else:
                ok = f(N, k, t, v * (1 - 1e-9)) <= 0.0 < f(N, k, t, v * (1 + 1e-9))
            if not ok:
                yield "v_threshold is not the root of the refinement polynomial", f"{(N, k, t)}: {v}"

    def _check_Vk(self, op, out):
        _, r, t = op
        N = oracles.digit_box_radius(r, t)
        fails = [n for n in range(2, VK_K + 1) if oracles.refinement_poly(N, n, t, r) <= 0.0]
        if out[0] == "refused":
            if not fails:
                yield "Vk_squares refused where the refinement condition holds", f"r={r} theta={t}"
            return
        if fails:
            yield "Vk_squares certified where the refinement condition fails", f"r={r} theta={t}"
        if len(out) != (2 * N + 1) ** (2 * (VK_K - 1)):
            yield "tile count", f"r={r} theta={t}: {len(out)}"
        xi = r * complex(math.cos(t), math.sin(t))
        shrink = xi ** -VK_K
        corners = [shrink * complex(sx, sy) for sx in (-0.5, 0.5) for sy in (-0.5, 0.5)]
        for a, b in out:
            if any(abs((complex(a, b) + c).real) > 0.5 + 1e-9 or
                   abs((complex(a, b) + c).imag) > 0.5 + 1e-9 for c in corners):
                yield "tile leaves the domain", f"r={r} theta={t}: {(a, b)}"
                return
        ref = oracles.RefSystem("complex", xi, [(1.0, 0.0), (0.0, 1.0)], (-0.5, -0.5))
        for center in self.check_rng.sample(out, min(TILE_SAMPLE, len(out))):
            if ref.digits(center, VK_K)[-1] != (0, 0):
                yield "tile center's k-th digit is not zero", f"r={r} theta={t}: {center}"
                return
