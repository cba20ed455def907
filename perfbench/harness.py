"""Closed-loop runner shared by every workload.

A workload is a deterministic list of operations (one pass) built from the
seed.  The runner repeats the pass until the time is up; the first pass runs
every output check, later passes must reproduce the first pass's outputs
exactly.  Only the calls into the package are timed: checks, digests and
counting happen between operations.
"""

from __future__ import annotations

import collections
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

WORKLOADS = ("sweep", "digits", "tables", "cli")
SETUP_PROBES = 7

# Times are reported at a fixed reference speed: each is multiplied by
# REFERENCE_S over the median of the latest reference_work() times, taken
# between operations at most every CALIBRATE_EVERY_S and right after any
# longer operation.  On a shared machine whose speed drifts by tens of
# percent within minutes this keeps the figures comparable; raw times are
# kept in the record.
REFERENCE_S = 0.003
CALIBRATE_EVERY_S = 0.05
CALIBRATE_WINDOW = 3


def load(name, seed):
    return importlib.import_module(f"workload_{name}").Workload(seed)


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_work():
    """A fixed computation in the package's idiom: guarded floors, tuple
    quaternion products, list-slice comparisons, dictionary counting, small
    object churn and small numpy products.  About 3 ms on an idle core."""
    import numpy as np
    acc = 0
    y = 0.1234567
    for _ in range(500):
        t = 1.6180339887498949 * y
        n = round(t)
        d = n if abs(t - n) <= 1e-9 else math.floor(t)
        y = t - d
        acc += d
    z = (0.1, 0.2, 0.3, 0.4)
    for _ in range(150):
        a, b, c, d = z
        w = (3 * a - 3 * b - 3 * c - 3 * d, 3 * b + 3 * a + 3 * d - 3 * c,
             3 * c - 3 * d + 3 * a + 3 * b, 3 * d + 3 * c - 3 * b + 3 * a)
        z = tuple(t - math.floor(t) for t in w)
    top = [1, 0] * 70
    word = [1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0]
    for _ in range(60):
        for j in range(len(word)):
            acc += list(word[j:]) > top[:len(word) - j]
    ways = {0: 1}
    for _ in range(60):
        nxt = {}
        for s, k in ways.items():
            for digit in (0, 1):
                if digit < top[s]:
                    nxt[0] = nxt.get(0, 0) + k
                elif digit == top[s]:
                    nxt[s + 1] = nxt.get(s + 1, 0) + k
        ways = nxt
    pts = [_Point(i * 0.5, -i * 0.25) for i in range(300)]
    acc += sum(p.a - p.b for p in pts)
    m = np.array([[0.5, -0.5, -0.5, -0.5], [0.5, 0.5, -0.5, 0.5],
                  [0.5, 0.5, 0.5, -0.5], [0.5, -0.5, 0.5, 0.5]])
    v = np.array([0.1, 0.2, 0.3, 0.4])
    for _ in range(200):
        v = m @ v * 1.9
        v = v - np.floor(v)
    return acc + sum(ways.values()) + float(v.sum()) + z[0]


# Cold starts spend their time importing, which reference_work() tracks
# poorly: for them the reference re-imports these pure-Python modules.
IMPORT_MODULES = ("ipaddress", "fractions", "calendar", "textwrap", "shlex", "pprint", "difflib")
IMPORT_S = 0.019


def import_work():
    """Read, unmarshal and execute the bytecode of IMPORT_MODULES again."""
    for name in IMPORT_MODULES:
        sys.modules.pop(name, None)
        importlib.import_module(name)
    gc.collect()  # the replaced modules are reference cycles; keep the harness small


class Speed:
    """Machine speed, sampled with a reference computation between operations."""

    def __init__(self, work=reference_work, nominal_s=REFERENCE_S):
        self.work = work
        self.nominal_s = nominal_s
        self.samples = []
        self.last = 0.0
        for _ in range(CALIBRATE_WINDOW):
            self.sample()

    def sample(self):
        t0 = time.perf_counter()
        self.work()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def scale(self):
        """Factor from raw seconds to seconds at the reference speed."""
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.sample()
        return self.nominal_s / statistics.median(self.samples[-CALIBRATE_WINDOW:])


def probe_scale():
    """Speed factor for a fresh interpreter: more samples, the first few
    (still warming up) dropped."""
    samples = []
    for _ in range(12):
        t0 = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - t0)
    return REFERENCE_S / statistics.median(samples[3:])


def quantile(values, p):
    """p-th percentile (0..100) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tally:
    """Everything one run observes: timings, work, checks and failures."""

    def __init__(self, wl):
        self.speed = Speed(*getattr(wl, "reference", ()))
        self.op_s = []            # seconds per operation at reference speed, every pass
        self.pass_s = []          # summed operation seconds per complete pass
        self.raw_s = 0.0          # the same, measured
        self.work = 0
        self.work_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = collections.Counter()   # named reason -> count
        self.examples = {}
        self.counters = collections.Counter()   # first complete pass only

    def fail(self, reason, detail):
        self.failed += 1
        self.failures[reason] += 1
        self.examples.setdefault(reason, detail)


def run_pass(wl, tally, pass_no, deadline=None, tracer=None, reference=None):
    """One pass over the workload's operations.

    Returns the list of output digests, or None when the deadline cut the
    pass short.  reference holds the first pass's digests.
    """
    digests = []
    total = 0.0
    counting = pass_no == 0
    for i, op in enumerate(wl.ops):
        if deadline is not None and time.perf_counter() >= deadline:
            return None
        if tracer is not None:
            tracer.op_id = i
        scale = tally.speed.scale()
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # a boundary that must keep running: record and go on
            raw = time.perf_counter() - t0
            tally.raw_s += raw
            dt = raw * scale
            tally.op_s.append(dt)
            total += dt
            tally.attempted += 1
            tally.fail(f"raised {type(exc).__name__}",
                       "".join(traceback.format_exception_only(type(exc), exc)).strip())
            digests.append(None)
            continue
        raw = time.perf_counter() - t0
        if raw >= CALIBRATE_EVERY_S:  # a long operation: weigh in the speed right after it
            tally.speed.sample()
            scale = tally.speed.scale()
        tally.raw_s += raw
        dt = raw * scale
        tally.op_s.append(dt)
        total += dt
        units = wl.work(op, out)
        if units:
            tally.work += units
            tally.work_s += dt
        tally.attempted += 1
        digest = wl.digest(out)
        digests.append(digest)
        if reference is None:
            for reason, detail in wl.check(op, out):
                tally.fail(reason, detail)
        elif digest != reference[i]:
            tally.fail("output differs from the first pass", repr(op)[:200])
        if counting:
            wl.count(op, out, tally.counters)
    tally.pass_s.append(total)
    return digests


def run_timed(wl, seconds):
    """Repeat passes for `seconds`; the first pass always completes."""
    tally = Tally(wl)
    start = time.perf_counter()
    reference = run_pass(wl, tally, 0)
    deadline = start + seconds
    n = 1
    while time.perf_counter() < deadline:
        if run_pass(wl, tally, n, deadline, reference=reference) is None:
            break
        n += 1
    return tally


def measure_setup(script, workload, seed):
    """Median set-up time over fresh interpreters, one at a time."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, script, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def environment():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "system": platform.system()}


def end_to_end(wl, tally, setup_samples, rss):
    """The bounded metrics, with the sample count behind each."""
    lat = [s * 1e3 for s in (tally.pass_s if wl.latency == "pass" else tally.op_s)]
    return {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "work_per_s": (tally.work / tally.work_s, "1/s", tally.work),
        "op_ms.p50": (quantile(lat, 50), "ms", len(lat)),
        "op_ms.tail": (quantile(lat, wl.tail), "ms", len(lat)),
        "peak_rss_mb": (rss, "MB", 1),
    }


def out_path(root, name):
    """A file under .perfbench-out/ in the checkout."""
    out = os.path.join(root, ".perfbench-out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)
