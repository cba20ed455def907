"""beta-arena benchmark.

    python3 perfbench/run.py --workload {sweep,digits,tables,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ./src, never
from an installed copy.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  A full record (environment, sample
counts, counters, failures) is written under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import harness  # noqa: E402  (sibling module; HERE is sys.path[0])

# what each bounded metric is called on each workload, printed alongside it
ALIASES = {
    "sweep": {"work_per_s": "games_per_s", "op_ms.p50": "game_ms.p50", "op_ms.tail": "game_ms.p99"},
    "digits": {"work_per_s": "digits_per_s", "op_ms.p50": "point_set_ms.p50",
               "op_ms.tail": "point_set_ms.p75"},
    "tables": {"work_per_s": "blocks_per_s", "op_ms.p50": "tables_ms.p50",
               "op_ms.tail": "tables_ms.p75"},
    "cli": {"work_per_s": "invocations_per_s", "op_ms.p50": "cli_ms.p50",
            "op_ms.tail": "cli_ms.p75"},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="beta-arena benchmark")
    p.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one set-up in this fresh interpreter")
    return p.parse_args(argv)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"perfbench: cannot read {path}: {exc}")
    return spec


def use_sources():
    if not os.path.isfile(os.path.join(SRC, "beta_arena", "__init__.py")):
        raise SystemExit(f"perfbench: no beta_arena sources under {SRC}")
    sys.path.insert(0, SRC)


def check_origin():
    import beta_arena
    if not os.path.abspath(beta_arena.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: beta_arena imported from {beta_arena.__file__}, not {SRC}")


def timed_run(wl, args):
    tally = harness.run_timed(wl, args.seconds)
    rss = harness.peak_rss_mb(children=wl.name == "cli")
    setup = harness.measure_setup(os.path.abspath(__file__), wl.name, args.seed)
    return tally, harness.end_to_end(wl, tally, setup, rss), {"setup_samples_s": setup}


def traced_run(wl, args):
    """Untraced passes for a baseline, then exactly one traced pass."""
    from tracer import Tracer, install, layer_metrics
    tally = harness.Tally(wl)
    start = time.perf_counter()
    reference = harness.run_pass(wl, tally, 0)
    n = 1
    while time.perf_counter() < start + args.seconds / 2 and n < 6:
        harness.run_pass(wl, tally, n, reference=reference)
        n += 1
    baseline = statistics.median(tally.pass_s)
    tracer = Tracer()
    install(tracer)
    wl.tracer = tracer
    raw_before = tally.raw_s
    try:
        harness.run_pass(wl, tally, n, tracer=tracer, reference=reference)
    finally:
        tracer.uninstall()
        wl.tracer = None
    # self times at the reference speed, like every other time
    scale = tally.pass_s[-1] / (tally.raw_s - raw_before)
    for name in tracer.self_s:
        tracer.self_s[name] *= scale
    values = layer_metrics(tracer)
    values["trace.overhead_ratio"] = tally.pass_s[-1] / baseline
    metrics = {k: (v, None, 1) for k, v in values.items()}
    spans = harness.out_path(ROOT, f"{wl.name}-seed{args.seed}-spans.jsonl.gz")
    tracer.write_spans(spans)
    return tally, metrics, {"untraced_pass_s": tally.pass_s[:-1],
                            "traced_pass_s": tally.pass_s[-1], "spans_file": spans}


def main(argv=None):
    args = parse_args(argv)
    spec = load_spec()
    use_sources()
    # one core for the harness, its reference timings and every child process
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = harness.load(args.workload, args.seed)
    if args.setup_probe:
        t0 = time.perf_counter()
        wl.setup()
        elapsed = time.perf_counter() - t0
        check_origin()
        print(json.dumps({"setup_s": elapsed * harness.probe_scale(), "raw_s": elapsed}))
        return 0
    wl.setup()
    check_origin()
    env = harness.environment()
    tally, metrics, extra = (traced_run if args.trace else timed_run)(wl, args)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        name = m["name"]
        value = metrics[name][0] if name in metrics else (0 if m["unit"] == "count" else 0.0)
        if name not in metrics and not args.trace:
            raise SystemExit(f"perfbench: end-to-end metric {name} was not measured")
        out[name] = {"value": value, "unit": m["unit"]}

    aliases = ALIASES[wl.name]
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(tally.pass_s)} ops/pass={len(wl.ops)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not args.trace:
        for name, (value, unit, n) in metrics.items():
            alias = f"  [{aliases[name]}]" if name in aliases else ""
            print(f"  {name:<12} {value:>14.6g} {unit:<4} n={n}{alias}")
        lat = len(tally.pass_s if wl.latency == "pass" else tally.op_s)
        print(f"  op_ms.tail is p{wl.tail}; {lat * (100 - wl.tail) / 100:.0f} samples lie beyond it")
    else:
        for name, v in out.items():
            print(f"  {name:<48} {v['value']:>14.6g} {v['unit']}")
    timed = sum(tally.op_s)
    print(f"  times are at the reference speed; measured op time was {tally.raw_s:.4g} s, "
          f"{tally.raw_s / timed:.3f} x the reported {timed:.4g} s")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  error_rate   {rate:.6g} ({tally.failed}/{tally.attempted})")
    for reason, count in tally.failures.most_common():
        print(f"    {count} x {reason}: {tally.examples[reason][:300]}")
    print("counters per pass (machine-independent): " + " ".join(
        f"{k}={v}" for k, v in sorted(tally.counters.items())))

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "passes": len(tally.pass_s),
              "ops_per_pass": len(wl.ops), "attempted": tally.attempted,
              "measured_op_s": tally.raw_s, "reference_op_s": sum(tally.op_s),
              "reference_samples_s": tally.speed.samples,
              "failed": tally.failed, "failures": dict(tally.failures),
              "failure_examples": tally.examples, "counters": dict(tally.counters),
              "metrics": {k: {"value": v[0], "unit": v[1], "samples": v[2]}
                          for k, v in metrics.items()}, **extra}
    path = harness.out_path(ROOT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
