"""cli: cold starts of the beta-arena command line.

One operation is one `python -m beta_arena.cli ...` subprocess, timed from
spawn to exit; at most one runs at a time.  A pass plays `game` once per
preset, one game whose claim is falsified, one whose strategy gives up, and
short `expand`, `admissible` and `regions` commands.  This path is
dominated by interpreter start-up and imports, not by arithmetic.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time

import harness
import oracles

PRESETS = ("dwinning-golden", "dwinning-silver", "cwinning-nine-halves",
           "qwinning-componentwise", "notwinning-lipschitz", "notwinning-hurwitz",
           "notwinning-symmetric", "notwinning-zeta")
GAME_EXIT = {"verified": 0, "falsified": 2, "indeterminate": 3}  # 4: audit violations
PHI = (1.0 + math.sqrt(5.0)) / 2.0
EXPAND_N = 24
QUAT_N = 12
ADMISSIBLE_N = 10


class Workload:
    name = "cli"
    latency = "op"
    tail = 75
    tracer = None
    reference = (harness.import_work, harness.IMPORT_S)

    def __init__(self, seed):
        rng = random.Random(f"cli:{seed}")

        def seed_arg():
            return str(rng.randrange(1 << 16))
        self.ops = [("game", "--preset", p, "--seed", seed_arg()) for p in PRESETS]
        self.ops += [
            ("game", "--preset", "cwinning-nine-halves",
             "--alpha", f"{rng.uniform(0.84, 0.92):.4f}", "--seed", seed_arg()),
            ("game", "--preset", "dwinning-golden",
             "--alpha", f"{rng.uniform(0.66, 0.80):.4f}", "--seed", seed_arg()),
            ("expand", "--real", "golden", "--x", f"{rng.random():.12f}",
             "--n", str(EXPAND_N), "--format", "json"),
            ("expand", "--quat", "3", "3", "3", "3", "--lattice", "lipschitz", "--z",
             *(f"{rng.random():.12f}" for _ in range(4)), "--n", str(QUAT_N),
             "--on-ambiguous", "nudge", "--format", "json"),
            ("admissible", "--real", "golden", "--n", str(ADMISSIBLE_N)),
            ("regions", "--curve", "G", "--theta", f"{rng.uniform(0.02, 0.1):.6f}"),
        ]

    def setup(self):
        import beta_arena.cli
        beta_arena.cli.build_parser()
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env.pop("BETA_ARENA_EPS", None)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env, self.root = env, root

    def run(self, op):
        if self.tracer is None:
            proc = subprocess.run([sys.executable, "-m", "beta_arena.cli", *op],
                                  capture_output=True, text=True, env=self.env,
                                  cwd=self.root, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "beta_arena.cli", *op],
                              capture_output=True, text=True, env=self.env, cwd=self.root,
                              timeout=120)
        wall = time.perf_counter() - t0
        err = self._record(proc.stderr, wall)
        self.tracer.counters[f"cli.exit.{proc.returncode}"] += 1
        return proc.returncode, proc.stdout, err

    def _record(self, err, wall):
        """Split -X importtime lines off stderr into import and run times."""
        cumulative, rest = {}, []
        for line in err.splitlines(keepends=True):
            if not line.startswith("import time:"):
                rest.append(line)
                continue
            fields = line.split("|")
            name = fields[-1].strip()
            if name in ("numpy", "beta_arena") and fields[1].strip().isdigit():
                cumulative.setdefault(name, int(fields[1]) * 1e-6)
        t = self.tracer
        t.self_s["cli.import_numpy"] += cumulative.get("numpy", 0.0)
        t.self_s["cli.import_beta_arena"] += (cumulative.get("beta_arena", 0.0)
                                              - cumulative.get("numpy", 0.0))
        t.self_s["cli.run"] += wall - cumulative.get("beta_arena", 0.0)
        t.calls["cli.run"] += 1
        return "".join(rest)

    def work(self, op, out):
        return 1

    def digest(self, out):
        return (out[0], out[1])

    def count(self, op, out, counters):
        counters[f"exit.{out[0]}"] += 1

    def check(self, op, out):
        code, stdout, stderr = out
        cmd = op[0]
        if cmd == "game":
            if stdout:
                doc = json.loads(stdout)
                want = 4 if doc["audit_violations"] else GAME_EXIT[doc["verdict"]]
                if doc["audit_violations"]:
                    yield "game trace failed its audit", f"{op}"
            else:
                want = 3 if stderr.startswith(("strategy gave up", "error:")) else None
            if code != want:
                yield "exit code is not the documented one", f"{op}: {code} (want {want})"
            return
        if code != 0:
            yield "command failed", f"{op}: exit {code}: {stderr.strip()[-200:]}"
            return
        if cmd == "expand":
            doc = json.loads(stdout)
            quat = "--quat" in op
            ref = (oracles.RefSystem("quat", (3.0, 3.0, 3.0, 3.0),
                                     [tuple(float(i == j) for j in range(4)) for i in range(4)],
                                     (0.0,) * 4) if quat
                   else oracles.RefSystem("real", PHI, [(1.0,)], (0.0,)))
            i = op.index("--z" if quat else "--x")
            point = tuple(float(v) for v in op[i + 1:i + 1 + ref.dim])
            digits = [oracles.as_coords(d) for d in doc["digits"]]
            err = oracles.norm([a - b for a, b in zip(point, ref.reconstruct(digits))])
            bound = ref.sup_norm * ref.radix_norm ** -len(digits) + 1e-8
            if not err <= bound:
                yield "expand digits do not reconstruct the point", f"{op}: {err:.3e}"
        elif cmd == "admissible":
            blocks = [tuple(int(d) for d in line.split()) for line in stdout.splitlines()]
            c = oracles.quasi_greedy(PHI, ADMISSIBLE_N)
            if len(blocks) != oracles.fibonacci(ADMISSIBLE_N + 2):
                yield "admissible listing is not Fibonacci-sized", f"{len(blocks)}"
            elif sorted(set(blocks)) != blocks or not all(
                    oracles.parry_admissible(b, c) for b in blocks):
                yield "admissible listing has a bad block", f"{op}"
        elif cmd == "regions":
            theta = float(op[-1])
            rows = stdout.splitlines()[1:]
            for N, row in enumerate(rows, start=1):
                n, lo, hi = row.split(",")
                if int(n) != N or abs(float(lo) - oracles.v2_closed_form(N, theta)) > 1e-9 * N:
                    yield "regions row disagrees with v_2", f"{op}: {row}"
                    return
