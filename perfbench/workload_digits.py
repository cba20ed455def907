"""digits: the digit step on its own.

One operation is the first M digits of one point under one entry point:
the adapters (systems.expand_digits, game.certified_digits) or the
base-level map (RealBase.digits, ComplexBase.expand, quatexp.q_expand), all
in nudge mode.  Points are drawn from the seed; one in eight is a boundary
point (a cylinder endpoint for the real bases, a point whose image lies on a
digit-cell face for the others), which drives the floor onto its snap path.
Cheaper systems get more points so that every system has a similar share
of the time.
"""

from __future__ import annotations

import math
import random

import oracles

M = 32
PHI = (1.0 + math.sqrt(5.0)) / 2.0
XI = 4.5 * complex(math.cos(0.05), math.sin(0.05))
E4 = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)]

# name, reference system, points per pass.  The zeta basis is 1, -conj(zeta),
# eta, -conj(zeta) eta for zeta = 6i, eta = j, which is 1, 6i, j, 6k.
SYSTEMS = (
    ("real-golden", oracles.RefSystem("real", PHI, [(1.0,)], (0.0,)), 128),
    ("real-3", oracles.RefSystem("real", 3.0, [(1.0,)], (0.0,)), 128),
    ("complex-4.5e^0.05i", oracles.RefSystem("complex", XI, [(1.0, 0.0), (0.0, 1.0)],
                                             (-0.5, -0.5)), 64),
    ("quat-3+3i+3j+3k-lipschitz", oracles.RefSystem("quat", (3.0, 3.0, 3.0, 3.0), E4,
                                                    (0.0,) * 4), 16),
    ("quat-6i-zeta", oracles.RefSystem("quat", (0.0, 6.0, 0.0, 0.0),
                                       [(1.0, 0.0, 0.0, 0.0), (0.0, 6.0, 0.0, 0.0),
                                        (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 6.0)],
                                       (-0.25,) * 4), 16),
)
ENTRIES = ("expand_digits", "certified_digits", "base")
BOUNDARY_EVERY = 8
BALL_SAMPLES = 3


def uniform_point(rng, ref):
    return ref.point([lo + rng.random() for lo in ref.offsets])


def boundary_point(rng, ref):
    """A point whose image under the radix lies on a digit-cell face."""
    if ref.kind == "real":
        b = ref.radix
        c = oracles.quasi_greedy(b, 16)
        top = oracles.alphabet_top(b)
        while True:
            block = [rng.randint(0, top) for _ in range(rng.randint(1, 8))]
            if block[-1] and oracles.parry_admissible(block, c):
                return (oracles.block_value(block, b),)
    while True:
        t = list(ref.coords(ref.mul(uniform_point(rng, ref))))
        axis = rng.randrange(ref.dim)
        t[axis] = ref.offsets[axis] + math.floor(t[axis] - ref.offsets[axis])
        z = ref.mul_inv(ref.point(t))
        if ref.contains(z):
            return z


class Workload:
    name = "digits"
    latency = "pass"  # a single ~1 ms step sequence mostly measures machine jitter
    tail = 75

    def __init__(self, seed):
        rng = random.Random(f"digits:{seed}")
        self.points = []   # per system: list of (point, is_boundary)
        self.ops = []
        for s, (_, ref, count) in enumerate(SYSTEMS):
            pts = []
            for i in range(count):
                edge = i % BOUNDARY_EVERY == 0
                pts.append(((boundary_point if edge else uniform_point)(rng, ref), edge))
            self.points.append(pts)
            for i in range(count):
                radius = 10.0 ** rng.uniform(-13.0, -5.0)
                self.ops += [(s, i, entry, radius) for entry in ENTRIES]
        rng.shuffle(self.ops)
        self.ball_rng = random.Random(f"digits-ball:{seed}")

    def setup(self):
        import numpy as np
        from beta_arena import (ComplexBase, ComplexSystem, Quaternion, QuatSystem,
                                RealBase, RealSystem, game, lipschitz, quatexp, systems,
                                zeta_lattice)
        self.game, self.quatexp, self.systems = game, quatexp, systems
        golden, three = RealBase(PHI), RealBase(3.0)
        cbase = ComplexBase(4.5, 0.05)
        q1, q2 = Quaternion(3.0, 3.0, 3.0, 3.0), Quaternion(0.0, 6.0, 0.0, 0.0)
        lip = lipschitz()
        zeta = zeta_lattice(q2, Quaternion(0.0, 0.0, 1.0, 0.0), 0.25)
        # per system: (adapter system, base-level map taking the packed point)
        self.maps = [
            (RealSystem(golden), lambda x: golden.digits(x[0], M, "nudge")),
            (RealSystem(three), lambda x: three.digits(x[0], M, "nudge")),
            (ComplexSystem(cbase), lambda z: cbase.expand(z, M, "nudge")),
            (QuatSystem(q1, lip), lambda z: self.quatexp.q_expand(q1, lip, z, M,
                                                                  on_ambiguous="nudge")),
            (QuatSystem(q2, zeta), lambda z: self.quatexp.q_expand(q2, zeta, z, M,
                                                                   on_ambiguous="nudge")),
        ]
        self.arrays = [[np.array(p, dtype=float) for p, _ in pts] for pts in self.points]
        packed = []
        for s, pts in enumerate(self.points):
            kind = SYSTEMS[s][1].kind
            if kind == "real":
                packed.append([p for p, _ in pts])
            elif kind == "complex":
                packed.append([Quaternion.complex2(*p) for p, _ in pts])
            else:
                packed.append([Quaternion(*p) for p, _ in pts])
        self.packed = packed
        seen = set()
        for op in self.ops:  # warm-up: each (system, entry point) once
            if op[::2] not in seen:
                seen.add(op[::2])
                self.run(op)

    def run(self, op):
        s, i, entry, radius = op
        system, base_map = self.maps[s]
        if entry == "expand_digits":
            return self.systems.expand_digits(system, self.arrays[s][i], M, "nudge"), M
        if entry == "certified_digits":
            return self.game.certified_digits(system, self.arrays[s][i], radius, M)
        return base_map(self.packed[s][i]), M

    def work(self, op, out):
        return M

    def digest(self, out):
        digits, certified = out
        return repr(([oracles.as_coords(d) for d in digits], certified))

    def count(self, op, out, counters):
        s, i, entry, _ = op
        counters["digit_steps"] += M
        counters[f"digit_steps.{SYSTEMS[s][0]}"] += M
        counters["boundary_ops"] += self.points[s][i][1]
        if entry == "certified_digits":
            counters["certified_digits"] += out[1]

    def check(self, op, out):
        s, i, entry, radius = op
        ref = SYSTEMS[s][1]
        point = self.points[s][i][0]
        digits = [oracles.as_coords(d) for d in out[0]]
        if len(digits) != M:
            yield "wrong number of digits", f"{op}: {len(digits)}"
            return
        approx = ref.reconstruct(digits)
        err = oracles.norm([a - b for a, b in zip(point, approx)])
        bound = ref.sup_norm * ref.radix_norm ** -M + 1e-8
        if not err <= bound:
            yield "reconstruction error above the domain bound", f"{op}: {err:.3e} > {bound:.3e}"
        if entry == "certified_digits":
            cert = out[1]
            for z in ref.ball_points(self.ball_rng, point, radius * 0.999, BALL_SAMPLES):
                if ref.digits(z, cert) != digits[:cert]:
                    yield "point in the certified ball has other digits", f"{op}: {z}"
                    break
