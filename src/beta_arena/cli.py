"""Command line front end.

Subcommands:

  expand      digits of a point under a real, complex or quaternionic radix
  admissible  enumerate admissible digit blocks of a real base
  regions     threshold curves and digit-region data as CSV or JSON
  game        play one prepared game and verify its claim
  scan        sweep a game preset over a parameter grid

Exit codes for `game`: 0 claim verified, 2 falsified, 3 indeterminate,
4 illegal move.  Everything that prints is deterministic for a fixed seed:
no timestamps, sorted JSON keys, fixed float formatting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .complexexp import ComplexBase
from .game import IllegalMoveError, StrategyError, audit_trace, A_threshold, F_threshold
from .numeric import AmbiguousValueError, Quaternion, Tolerance, DEFAULT_TOL, metallic_mean
from .quatexp import hurwitz_box, lipschitz, symmetric_domain, zeta_lattice
from .realexp import RealBase
from .presets import PRESETS, build_preset, run_setup
from .systems import QuatSystem


def _tolerance() -> Tolerance:
    raw = os.environ.get("BETA_ARENA_EPS")
    if raw is None:
        return DEFAULT_TOL
    return Tolerance(eps_floor=float(raw))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_base(text: str) -> float:
    """Accept a float literal or one of the named bases."""
    named = {"golden": metallic_mean(1), "silver": metallic_mean(2)}
    if text in named:
        return named[text]
    if text.startswith("metallic:"):
        return metallic_mean(int(text.split(":", 1)[1]))
    return float(text)


def parse_lattice(text: str, tol: Tolerance):
    if text == "lipschitz":
        return lipschitz()
    if text == "lipschitz-centered":
        return lipschitz(centered=True)
    if text == "hurwitz-box":
        return hurwitz_box()
    if text.startswith("symmetric"):
        eps = float(text.split(":", 1)[1]) if ":" in text else 0.25
        return symmetric_domain(eps)
    if text.startswith("zeta"):
        eps = float(text.split(":", 1)[1]) if ":" in text else 0.25
        return zeta_lattice(Quaternion(0.0, 6.0, 0.0, 0.0),
                            Quaternion(0.0, 0.0, 1.0, 0.0), eps, tol=tol)
    raise ValueError(f"unknown lattice {text!r}")


def parse_grid(text: str) -> list[float]:
    """start:stop:step inclusive of stop up to float slack."""
    start, stop, step = (float(p) for p in text.split(":"))
    if step <= 0:
        raise ValueError("grid step must be positive")
    out = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        out.append(v)
        k += 1
    return out


def _format_complex_digit(d: tuple[int, int]) -> str:
    a, b = d
    if a == 0 and b == 0:
        return "0"
    parts = []
    if a != 0:
        parts.append(str(a))
    if b != 0:
        if b == 1:
            parts.append("+i" if parts else "i")
        elif b == -1:
            parts.append("-i")
        else:
            parts.append(f"{b:+d}i" if parts else f"{b}i")
    return "".join(parts)


def _format_quat_digit(d: tuple) -> str:
    units = ["", "i", "j", "k"]
    parts = []
    for coeff, unit in zip(d, units):
        c = int(coeff) if float(coeff).is_integer() else coeff
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


def cmd_expand(args, tol: Tolerance) -> int:
    on_ambiguous = args.on_ambiguous
    if args.real is not None:
        base = RealBase(parse_base(args.real), tol=tol)
        x = args.x
        if x is None:
            raise SystemExit("expand --real needs --x")
        digits = base.digits(x, args.n, on_ambiguous=on_ambiguous)
        approx = base.value(digits)
        err = abs(x - approx)
        rendered = [str(d) for d in digits]
        payload = {"digits": list(digits), "reconstruction_error": err}
    elif args.complex is not None:
        r, theta = args.complex
        lo = (-0.5, -0.5) if args.centered else (0.0, 0.0)
        base = ComplexBase(r, theta, tol=tol, lo=lo)
        if args.z is None:
            raise SystemExit("expand --complex needs --z RE IM")
        z = Quaternion.complex2(args.z[0], args.z[1])
        digits = base.expand(z, args.n, on_ambiguous=on_ambiguous)
        err = math.dist((z.a, z.b), base.kernel.reconstruct(digits))
        rendered = [_format_complex_digit(d) for d in digits]
        payload = {"digits": [list(d) for d in digits], "reconstruction_error": err}
    elif args.quat is not None:
        from .quatexp import q_expand
        q = Quaternion(*args.quat)
        lattice = parse_lattice(args.lattice, tol)
        if args.z is None or len(args.z) != 4:
            raise SystemExit("expand --quat needs --z A B C D")
        z = Quaternion(*args.z)
        digits = q_expand(q, lattice, z, args.n, tol=tol,
                          on_ambiguous=on_ambiguous)
        err = abs(z - lattice.point(lattice.digit_map(q, tol).reconstruct(digits)))
        rendered = [_format_quat_digit(d) for d in digits]
        payload = {"digits": [list(d) for d in digits], "reconstruction_error": err}
    else:
        raise SystemExit("expand needs one of --real, --complex, --quat")

    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        sep = " " if args.real is not None else ", "
        print("digits:", sep.join(rendered))
        print("reconstruction error:", _fmt(err))
    return 0


def cmd_admissible(args, tol: Tolerance) -> int:
    base = RealBase(parse_base(args.real), tol=tol)
    blocks = base.enumerate_admissible(args.n)
    if args.format == "json":
        print(json.dumps({"blocks": [list(b) for b in blocks]}, sort_keys=True))
    else:
        for b in blocks:
            print(" ".join(str(d) for d in b))
    return 0


def cmd_regions(args, tol: Tolerance) -> int:
    rows: list[tuple] = []
    if args.curve == "A":
        b = parse_base(args.b)
        base = RealBase(b, tol=tol)
        header = "alpha,beta_threshold"
        for alpha in parse_grid(args.alpha):
            rows.append((alpha, A_threshold(b, base.K_b, alpha, tol=tol)))
    elif args.curve == "F":
        header = "alpha,beta_threshold"
        for alpha in parse_grid(args.alpha):
            rows.append((alpha, F_threshold(args.r, alpha, tol=tol)))
    elif args.curve == "G":
        from .complexexp import G_region
        header = "N,interval_lo,interval_hi"
        for reg in G_region(args.theta, tol=tol):
            rows.append((reg.N, reg.v_lo, reg.u_hi))
    elif args.curve == "classify":
        from .complexexp import classify_digit_set
        try:
            square, N = classify_digit_set(args.r, args.theta, tol)
            payload = {"ambiguous": False, "square": square, "N": N}
        except AmbiguousValueError:
            payload = {"ambiguous": True, "square": None, "N": None}
        print(json.dumps(payload, sort_keys=True))
        return 0
    else:
        raise SystemExit(f"unknown curve {args.curve!r}")

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


def _run_game(preset: str, overrides: dict, seed: int, max_rounds: int | None):
    kwargs = dict(overrides)
    if max_rounds is not None:
        kwargs["max_rounds"] = max_rounds
    setup = build_preset(preset, **kwargs)
    trace, result = run_setup(setup, seed=seed)
    return setup, trace, result


def cmd_game(args, tol: Tolerance) -> int:
    overrides = {"alpha": args.alpha, "beta": args.beta, "rho": args.rho}
    if args.bob is not None:
        overrides["bob"] = args.bob
    try:
        setup, trace, result = _run_game(args.preset, overrides, args.seed,
                                         args.max_rounds)
    except IllegalMoveError as exc:
        print(str(exc), file=sys.stderr)
        return 4
    except StrategyError as exc:
        print(f"strategy gave up: {exc}", file=sys.stderr)
        return 3
    except TypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    violations = audit_trace(trace)
    doc = {
        "preset": setup.name,
        "claim": {"kind": setup.claim.kind,
                  "block": [list(d) if isinstance(d, tuple) else d
                            for d in setup.claim.block],
                  "position": setup.claim.position},
        "trace": trace.to_dict(),
        "audit_violations": violations,
        "verdict": result.verdict,
        "verdict_reason": result.reason,
        "certified_digits": result.certified,
        "setup_notes": setup.notes,
    }
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"verdict: {result.verdict} ({result.reason})", file=sys.stderr)
    if violations:
        return 4
    return _EXIT[result.verdict]


def cmd_scan(args, tol: Tolerance) -> int:
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
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="beta-arena",
                                description="expansions, digit regions and "
                                            "the radius-ratio game")
    sub = p.add_subparsers(dest="cmd", required=True)

    ex = sub.add_parser("expand", help="digit string of a point")
    ex.add_argument("--real", help="real base (float or golden/silver/metallic:J)")
    ex.add_argument("--complex", nargs=2, type=float, metavar=("R", "THETA"))
    ex.add_argument("--quat", nargs=4, type=float, metavar=("A", "B", "C", "D"))
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
    gm.add_argument("--bob", choices=("optimal-drift", "random", "center-hold"))
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _tolerance())
    except AmbiguousValueError as exc:
        print(f"ambiguous input: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
