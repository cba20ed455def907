"""sweep: the scan/game path.

One operation is build_preset + run_setup + audit_trace + GameTrace.to_json
for one (preset, alpha, game seed).  Every preset gets alphas from windows
that straddle its hypothesis bound, one draw per stratum so that the mix of
costs and verdicts is the same for every benchmark seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import oracles

# Alpha windows per preset, each (lo, hi, draws), one draw per equal stratum.
# Winning presets: below the bound the strategy's (n, k) search succeeds;
# above it the preset falls back or the strategy gives up.  Losing presets:
# the bound is alpha_min = C / |q|^n (0.833 lipschitz, 0.921 hurwitz, 0.8
# symmetric, 0.272 zeta), and below it Bob's formula moves get clipped.
# Window edges follow the points where the cost or the outcome jumps, so
# every seed gets the same mix.  Just inside the bound of golden
# (0.6355-0.6400), silver (0.4705-0.4719) and componentwise (0.2116-0.2368)
# the target depth k grows without limit (k = 896 at golden 0.63991) or
# find_nk_real overflows, and the build enumerates every admissible block of
# length k - 1; those bands are left out because an operation there does
# not finish.  Componentwise also skips 0.2018-0.2116, where k is 8 to 12.
WINDOWS = {
    "dwinning-golden": ((0.45, 0.635, 4), (0.641, 0.80, 4)),
    "dwinning-silver": ((0.35, 0.470, 4), (0.473, 0.85, 4)),
    "cwinning-nine-halves": ((0.55, 0.68, 3), (0.70, 0.95, 5)),
    "qwinning-componentwise": ((0.10, 0.125, 1), (0.13, 0.20, 3), (0.24, 0.34, 4)),
    "notwinning-lipschitz": ((0.40, 0.83, 4), (0.84, 0.97, 4)),
    "notwinning-hurwitz": ((0.60, 0.92, 4), (0.925, 0.99, 4)),
    "notwinning-symmetric": ((0.50, 0.80, 4), (0.805, 0.95, 4)),
    "notwinning-zeta": ((0.12, 0.27, 4), (0.275, 0.45, 4)),
}
GAME_SEEDS = 2
REPLAY_EVERY = 8  # first pass: replay one operation in this many and compare bytes


def stratified(rng, windows):
    """Alphas: for each (lo, hi, draws) window, one draw per equal stratum."""
    return [lo + (i + rng.random()) * (hi - lo) / n
            for lo, hi, n in windows for i in range(n)]


class Workload:
    name = "sweep"
    latency = "op"
    tail = 99

    def __init__(self, seed):
        rng = random.Random(f"sweep:{seed}")
        self.ops = []
        for preset, windows in WINDOWS.items():
            for alpha in stratified(rng, windows):
                for _ in range(GAME_SEEDS):
                    self.ops.append((preset, round(alpha, 6), rng.randrange(1 << 16)))
        rng.shuffle(self.ops)
        self.replay = set(self.ops[::REPLAY_EVERY])

    def setup(self):
        from beta_arena import game, presets
        self.game, self.presets = game, presets
        # fixed objects: every preset once at its defaults; warm-up: one game,
        # which pays numpy's lazy numpy.random import
        for name in WINDOWS:
            presets.build_preset(name)
        presets.run_setup(presets.build_preset("dwinning-golden"), seed=0)

    def run(self, op):
        preset, alpha, seed = op
        game, presets = self.game, self.presets
        try:
            setup = presets.build_preset(preset, alpha=alpha)
            trace, result = presets.run_setup(setup, seed=seed)
        except game.StrategyError as exc:
            return {"outcome": "strategy_error", "reason": str(exc)}
        audit = game.audit_trace(trace)
        text = trace.to_json()
        return {"outcome": result.verdict, "text": text, "audit": audit,
                "rounds": trace.rounds_played, "clipped": bool(trace.notes),
                "setup": setup, "result": result}

    def work(self, op, out):
        return 1

    def digest(self, out):
        body = out.get("text") or out["reason"]
        return out["outcome"] + ":" + hashlib.blake2b(body.encode(), digest_size=16).hexdigest()

    def count(self, op, out, counters):
        counters[f"games.{out['outcome']}"] += 1
        counters["rounds"] += out.get("rounds", 0)
        counters["games.clipped"] += out.get("clipped", False)

    def check(self, op, out):
        problems = []
        if out["outcome"] == "strategy_error":
            return problems
        if out["audit"]:
            problems.append(("audit_trace reported violations", f"{op}: {out['audit'][:2]}"))
        problems += [(r, f"{op}: {d}") for r, d in self._check_trace(op, json.loads(out["text"]))]
        if out["outcome"] == "verified":
            problems += [(r, f"{op}: {d}") for r, d in self._check_claim(out)]
        if op in self.replay and self.digest(self.run(op)) != self.digest(out):
            problems.append(("replay gave different JSON", repr(op)))
        return problems

    def _check_trace(self, op, doc):
        """Nesting and radius schedule of the recorded moves, recomputed."""
        p = doc["params"]
        a, b, rho = p["alpha"], p["beta"], p["rho"]
        if a != op[1]:
            yield "trace alpha differs from the request", f"{a}"
        moves = doc["moves"]
        for prev, mv in zip(moves, moves[1:]):
            n = mv["round"]
            want = a * (a * b) ** (n - 1) * rho if mv["player"] == "alice" else (a * b) ** n * rho
            if abs(mv["radius"] - want) > 1e-9 * want:
                yield "radius off schedule", f"round {n} {mv['player']}"
            dist = oracles.norm([x - y for x, y in zip(mv["center"], prev["center"])])
            if dist + mv["radius"] - prev["radius"] > 2e-12:
                yield "ball escapes its predecessor", f"round {n} {mv['player']}"

    def _check_claim(self, out):
        """A verified claim must hold for the final center's own digits."""
        setup, result = out["setup"], out["result"]
        ref = reference_system(setup.system)
        trace_center = json.loads(out["text"])["moves"][-1]["center"]
        digits = ref.digits(tuple(trace_center), result.certified)
        want = [oracles.as_coords(d) for d in result.digits[:result.certified]]
        if digits != want:
            yield "certified digits disagree with the reference map", f"{digits[:4]} vs {want[:4]}"
            return
        claim = setup.claim
        block = [oracles.as_coords(d) for d in claim.block]
        if claim.kind == "contains":
            pos = claim.position - 1
            if digits[pos:pos + len(block)] != block:
                yield "verified claim not present in the digits", f"{claim}"
        else:
            L = len(block)
            for w in range(result.certified // L):
                if digits[w * L:(w + 1) * L] == block:
                    yield "verified avoidance has the block", f"window {w + 1}"


def reference_system(system):
    """The oracle description of a package system object (read, not run)."""
    if system.dim == 1:
        return oracles.RefSystem("real", system.base.b, [(1.0,)], (0.0,))
    if system.dim == 2:
        base = system.base
        xi = complex(base.r * math.cos(base.theta), base.r * math.sin(base.theta))
        return oracles.RefSystem("complex", xi, [(1.0, 0.0), (0.0, 1.0)], base.lo)
    lat = system.lattice
    return oracles.RefSystem("quat", tuple(system.q.components),
                             [tuple(v.components) for v in lat.basis], lat.offsets)
