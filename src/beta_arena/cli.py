"""Command line front end.

Subcommands:

  expand      digits of a point under a real, complex or quaternionic radix
  admissible  enumerate admissible digit blocks of a real base
  regions     threshold curves and digit-region data as CSV or JSON
  game        play one prepared game and verify its claim
  scan        sweep a game preset over a parameter grid

`expand` builds the adapter of one system (see systems.py) and runs the same
steps for all three: check the point, expand it, measure how well the digits
reconstruct it, print.  Only the commands that use them import the complex
and quaternion modules.

Errors are reported once, in `main`, and never as a traceback.  Exit codes:
0 success (for `game`, claim verified); 2 `game` claim falsified; 3 invalid
or ambiguous input, usage errors included, or an `--out` file that cannot
be written (`error: ...` or `ambiguous input: ...` on stderr), a strategy
that gave up (`strategy gave up: ...`), or an indeterminate verdict; 4 an
illegal move or a failed trace audit; 141 (128 + SIGPIPE, as a shell reports
for `yes | head`) when the reader of stdout closes before the output ends,
with nothing on stderr.
Everything that prints is deterministic for a fixed seed: no timestamps,
sorted JSON keys, fixed float formatting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .game import IllegalMoveError, StrategyError, audit_trace, game_json
from .numeric import AmbiguousValueError, Quaternion, metallic_mean
from .realexp import MAX_BLOCKS, A_threshold, RealBase, _zero_run_bound
from .presets import BOBS, PRESETS, build_preset, run_setup
from .systems import ComplexSystem, QuatSystem, RealSystem, expand_digits


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_base(text: str) -> float:
    """Accept a float literal or one of the named bases."""
    named = {"golden": metallic_mean(1), "silver": metallic_mean(2)}
    if text in named:
        return named[text]
    try:
        if text.startswith("metallic:"):
            return metallic_mean(int(text.split(":", 1)[1]))
        return float(text)
    except ValueError:
        raise ValueError("--real and --b take a number, golden, silver or metallic:J "
                         f"for an integer J >= 1, got {text!r}") from None


def parse_grid(text: str) -> list[float]:
    """start:stop:step inclusive of stop up to float slack, of at most
    MAX_BLOCKS points: the loop counts them too, as a step too small to move
    the start (1e300:1e300:1e-300) passes the size check and never ends."""
    try:
        start, stop, step = map(float, text.split(":"))
    except ValueError:
        raise ValueError(f"--alpha takes start:stop:step, three numbers, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("grid start, stop and step must be finite")
    if step <= 0:
        raise ValueError("grid step must be positive")
    if (stop + 1e-12 - start) / step >= MAX_BLOCKS:
        raise ValueError(f"grid has more than {MAX_BLOCKS} points")
    out = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        if k == MAX_BLOCKS:
            raise ValueError(f"grid has more than {MAX_BLOCKS} points")
        out.append(v)
        k += 1
    return out


def _format_digit(d) -> str:
    """A real digit, or a digit's coordinates as a sum of units: 2-i, -1+2i+j-k."""
    parts = []
    for c, unit in zip(d if isinstance(d, tuple) else (d,), ("", "i", "j", "k")):
        if c == 0:
            continue
        if unit and c == 1:
            term = unit
        elif unit and c == -1:
            term = f"-{unit}"
        else:
            term = f"{c}{unit}"
        if parts and not term.startswith("-"):
            term = "+" + term
        parts.append(term)
    return "".join(parts) if parts else "0"


def cmd_expand(args) -> int:
    if args.n > MAX_BLOCKS:
        raise ValueError(f"--n {args.n} asks for more than {MAX_BLOCKS} digits")
    if args.real is not None:
        system = RealSystem(RealBase(parse_base(args.real)))
        p = [] if args.x is None else [args.x]
    elif args.complex is not None:
        from .complexexp import ComplexBase
        lo = (-0.5, -0.5) if args.centered else (0.0, 0.0)
        system = ComplexSystem(ComplexBase(*args.complex, lo=lo))
        p = args.z or []
    else:
        from .quatexp import stock_lattice
        system = QuatSystem(Quaternion(*args.quat), stock_lattice(args.lattice))
        p = args.z or []
    if len(p) != system.dim:
        raise ValueError(f"the point needs {system.dim} coordinate(s) "
                         f"(--x for --real, --z otherwise), got {len(p)}")
    if not system.contains(p):
        raise ValueError("point outside the fundamental domain")
    digits = expand_digits(system, p, args.n, args.on_ambiguous)
    err = math.dist(p, system.point(system.kernel.reconstruct(digits)))

    if args.format == "json":
        print(json.dumps({"digits": digits, "reconstruction_error": err}, sort_keys=True))
    else:
        sep = " " if system.dim == 1 else ", "
        print("digits:", sep.join(map(_format_digit, digits)))
        print("reconstruction error:", _fmt(err))
    return 0


def cmd_admissible(args) -> int:
    base = RealBase(parse_base(args.real))
    blocks = base.enumerate_admissible(args.n)
    if args.format == "json":
        print(json.dumps({"blocks": [list(b) for b in blocks]}, sort_keys=True))
    else:
        for b in blocks:
            print(" ".join(str(d) for d in b))
    return 0


def cmd_regions(args) -> int:
    if args.curve == "classify":
        from .complexexp import classify_digit_set
        try:
            square, N = classify_digit_set(args.r, args.theta)
            payload = {"ambiguous": False, "square": square, "N": N}
        except AmbiguousValueError:
            payload = {"ambiguous": True, "square": None, "N": None}
        print(json.dumps(payload, sort_keys=True))
        return 0
    rows: list[tuple] = []
    if args.curve == "A":
        if args.b is None:
            raise ValueError("--curve A needs --b")
        b = parse_base(args.b)
        K = _zero_run_bound(RealBase(b))
        header = "alpha,beta_threshold"
        for alpha in parse_grid(args.alpha):
            rows.append((alpha, A_threshold(b, K, alpha)))
    elif args.curve == "F":
        from .complexexp import F_threshold
        header = "alpha,beta_threshold"
        for alpha in parse_grid(args.alpha):
            rows.append((alpha, F_threshold(args.r, alpha)))
    else:
        from .complexexp import G_region
        header = "N,interval_lo,interval_hi"
        for reg in G_region(args.theta):
            rows.append((reg.N, reg.v_lo, reg.u_hi))

    if args.format == "json":
        cols = header.split(",")
        print(json.dumps({"rows": [dict(zip(cols, r)) for r in rows]},
                         sort_keys=True))
    else:
        print(header)
        for r in rows:
            print(",".join(_fmt(v) if isinstance(v, float) else str(v)
                           for v in r))
    return 0


_EXIT = {"verified": 0, "falsified": 2, "indeterminate": 3}


def _write(text: str, out: str | None) -> None:
    """Print text, or write it to the --out file when one is given."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except BrokenPipeError as exc:
            # a FIFO whose reader closed is an --out that cannot be written
            # (exit 3), not stdout's reader closing early (141)
            raise OSError(f"[Errno {exc.errno}] {exc.strerror}: {out!r}") from None
    else:
        print(text)


def _run_game(preset: str, overrides: dict, seed: int, max_rounds: int | None):
    setup = build_preset(preset, **overrides, max_rounds=max_rounds)
    trace, result = run_setup(setup, seed=seed)
    return setup, trace, result


def _refuse_negative(args, *names: str) -> None:
    """Refuse a count below 0 by its option name, before any game is built."""
    for name in names:
        n = getattr(args, name)
        if n is not None and n < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be at least 0, got {n}")


def cmd_game(args) -> int:
    _refuse_negative(args, "seed", "max_rounds")
    overrides = {"alpha": args.alpha, "beta": args.beta, "rho": args.rho, "bob": args.bob}
    setup, trace, result = _run_game(args.preset, overrides, args.seed, args.max_rounds)
    violations = audit_trace(trace)
    _write(game_json(setup, trace, result, violations), args.out)
    print(f"verdict: {result.verdict} ({result.reason})", file=sys.stderr)
    if violations:
        return 4
    return _EXIT[result.verdict]


def cmd_scan(args) -> int:
    _refuse_negative(args, "seeds", "max_rounds")
    alphas = parse_grid(args.alpha)
    lines = ["alpha,beta,seed,rounds,status,verdict"]
    for alpha in alphas:
        for seed in range(args.seeds):
            try:
                setup, trace, result = _run_game(
                    args.preset, {"alpha": alpha}, seed, args.max_rounds)
                row = (alpha, trace.params.beta, seed, trace.rounds_played,
                       trace.status, result.verdict)
            except IllegalMoveError:
                row = (alpha, float("nan"), seed, 0, "illegal-move", "indeterminate")
            except (StrategyError, ValueError):
                row = (alpha, float("nan"), seed, 0, "strategy-error", "indeterminate")
            lines.append(",".join(
                _fmt(v) if isinstance(v, float) else str(v) for v in row))
    _write("\n".join(lines), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so they exit 3 like any other invalid
    input and exit code 2 keeps its one meaning, a falsified claim."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="beta-arena",
                description="expansions, digit regions and the radius-ratio game")
    sub = p.add_subparsers(dest="cmd", required=True)

    ex = sub.add_parser("expand", help="digit string of a point")
    system = ex.add_mutually_exclusive_group(required=True)
    system.add_argument("--real", help="real base (float or golden/silver/metallic:J)")
    system.add_argument("--complex", nargs=2, type=float, metavar=("R", "THETA"))
    system.add_argument("--quat", nargs=4, type=float, metavar=("A", "B", "C", "D"))
    ex.add_argument("--x", type=float, help="real point in [0, 1)")
    ex.add_argument("--z", nargs="+", type=float,
                    help="complex point RE IM, or quaternion A B C D")
    ex.add_argument("--n", type=int, default=10)
    ex.add_argument("--lattice", default="lipschitz")
    ex.add_argument("--centered", action="store_true",
                    help="complex digits from the centered unit square")
    ex.add_argument("--on-ambiguous", choices=("error", "nudge"), default="error")
    ex.add_argument("--format", choices=("text", "json"), default="text")
    ex.set_defaults(func=cmd_expand)

    ad = sub.add_parser("admissible", help="admissible digit blocks")
    ad.add_argument("--real", required=True)
    ad.add_argument("--n", type=int, required=True)
    ad.add_argument("--format", choices=("text", "json"), default="text")
    ad.set_defaults(func=cmd_admissible)

    rg = sub.add_parser("regions", help="threshold curves / digit-set data")
    rg.add_argument("--curve", required=True, choices=("A", "F", "G", "classify"))
    rg.add_argument("--b", help="real base for curve A")
    rg.add_argument("--r", type=float, default=4.5)
    rg.add_argument("--theta", type=float, default=0.0)
    rg.add_argument("--alpha", default="0.05:0.95:0.05",
                    help="grid start:stop:step")
    rg.add_argument("--format", choices=("csv", "json"), default="csv")
    rg.set_defaults(func=cmd_regions)

    gm = sub.add_parser("game", help="play a prepared game")
    gm.add_argument("--preset", required=True, choices=sorted(PRESETS))
    gm.add_argument("--alpha", type=float)
    gm.add_argument("--beta", type=float)
    gm.add_argument("--rho", type=float)
    gm.add_argument("--bob", choices=tuple(BOBS))
    gm.add_argument("--seed", type=int, default=0)
    gm.add_argument("--max-rounds", type=int)
    gm.add_argument("--out", help="write the trace JSON here instead of stdout")
    gm.set_defaults(func=cmd_game)

    sc = sub.add_parser("scan", help="sweep a preset over alpha")
    sc.add_argument("--preset", required=True, choices=sorted(PRESETS))
    sc.add_argument("--alpha", required=True, help="grid start:stop:step")
    sc.add_argument("--seeds", type=int, default=1)
    sc.add_argument("--max-rounds", type=int)
    sc.add_argument("--out")
    sc.set_defaults(func=cmd_scan)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout closed early: not an input error; the output
        # left in the buffer goes to os.devnull so that exit prints nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except AmbiguousValueError as exc:
        print(f"ambiguous input: {exc}", file=sys.stderr)
    except (ValueError, OSError) as exc:  # OSError: an --out file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
    except StrategyError as exc:
        print(f"strategy gave up: {exc}", file=sys.stderr)
    except IllegalMoveError as exc:
        print(exc, file=sys.stderr)
        return 4
    return 3


if __name__ == "__main__":
    sys.exit(main())
