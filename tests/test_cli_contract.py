"""The CLI error contract: whatever the arguments, `main` returns an exit
code from {0, 2, 3, 4} and never raises.

Arguments come from a small vocabulary of valid and invalid values: numbers
at and past the edges of every parameter range (0, 1, negatives, inf, nan,
1e308, a word), named and malformed bases, lattices and grids, missing and
conflicting options, output paths that cannot be written.  Every command
stays cheap: n <= 12, grids of at most three points, at most four game
rounds.  `admissible` refuses an alphabet of more than 10^6 digits before
it lists any of it, so the large bases 1e7, 1e12, 1e18 and 1e308 are in.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from beta_arena import cli
from beta_arena.presets import PRESETS

NUM = st.sampled_from(["0", "0.3", "0.5", "0.9", "1", "1.5", "-0.2", "4.5",
                       "inf", "-inf", "nan", "1e308", "x"])
BASE = st.sampled_from(["golden", "silver", "metallic:2", "metallic:0", "metallic:x",
                        "3", "2.5", "1", "0.5", "-2", "1e7", "1e12", "1e18", "1e308",
                        "inf", "nan", "x"])
LENGTH = st.sampled_from(["-1", "0", "1", "5", "12", "x"])
GRID = st.sampled_from(["0.1:0.5:0.2", "0.5:0.1:0.1", "0.9:0.9:0.1", "0:1:0",
                        "nan:1:0.1", "0:inf:1", "0:1:1e-300", "0.1:0.2", "a:b:c"])
PRESET = st.sampled_from([*sorted(PRESETS), "no-such-preset"])
LATTICE = st.sampled_from(["lipschitz", "lipschitz-centered", "hurwitz-box",
                           "symmetric", "symmetric:0.1", "symmetric:0", "zeta",
                           "zeta:0.1", "zeta:2", "no-such-lattice"])
ROUNDS = st.sampled_from(["-1", "0", "1", "4"])
OUT = st.sampled_from(["/nonexistent-dir/out.txt", "."])  # paths that cannot be written


def flag(name, values, nargs=1):
    """The flag followed by nargs values."""
    return st.lists(values, min_size=nargs, max_size=nargs).map(lambda vs: [name, *vs])


def maybe(option):
    return st.one_of(st.just([]), option)


def command(name, *options):
    return st.tuples(*options).map(lambda parts: [name, *sum(parts, [])])


REAL, COMPLEX, QUAT = flag("--real", BASE), flag("--complex", NUM, 2), flag("--quat", NUM, 4)
SYSTEM = st.one_of(REAL, COMPLEX, QUAT, st.just([]),
                   st.tuples(REAL, COMPLEX).map(lambda ab: ab[0] + ab[1]))
EXPAND = command(
    "expand", SYSTEM, maybe(flag("--x", NUM)),
    st.lists(NUM, max_size=5).map(lambda zs: ["--z", *zs] if zs else []),
    maybe(flag("--n", LENGTH)), maybe(flag("--lattice", LATTICE)),
    st.sampled_from([[], ["--centered"]]),
    maybe(flag("--on-ambiguous", st.sampled_from(["error", "nudge", "x"]))),
    maybe(flag("--format", st.sampled_from(["text", "json", "x"]))))
ADMISSIBLE = command("admissible", maybe(flag("--real", BASE)), maybe(flag("--n", LENGTH)),
                     maybe(flag("--format", st.sampled_from(["text", "json"]))))
REGIONS = command(
    "regions", maybe(flag("--curve", st.sampled_from(["A", "F", "G", "classify", "x"]))),
    maybe(flag("--b", BASE)), maybe(flag("--r", NUM)), maybe(flag("--theta", NUM)),
    maybe(flag("--alpha", GRID)), maybe(flag("--format", st.sampled_from(["csv", "json"]))))
GAME = command(
    "game", maybe(flag("--preset", PRESET)), maybe(flag("--alpha", NUM)),
    maybe(flag("--beta", NUM)), maybe(flag("--rho", NUM)),
    maybe(flag("--bob", st.sampled_from(["optimal-drift", "random", "center-hold", "x"]))),
    maybe(flag("--seed", st.sampled_from(["0", "3", "-1", "x"]))),
    flag("--max-rounds", ROUNDS), maybe(flag("--out", OUT)))
SCAN = command("scan", maybe(flag("--preset", PRESET)), maybe(flag("--alpha", GRID)),
               maybe(flag("--seeds", st.sampled_from(["0", "2", "-1"]))),
               flag("--max-rounds", ROUNDS), maybe(flag("--out", OUT)))
# thresholds whose products (K + 2) b and 2 sqrt(2) r overflow a double
OVERFLOW = [["regions", "--curve", "A", "--b", "1e308", "--alpha", "0.1:0.3:0.1"],
            ["regions", "--curve", "F", "--r", "1e308", "--alpha", "0.1:0.3:0.1"]]
ARGV = st.one_of(EXPAND, ADMISSIBLE, REGIONS, GAME, SCAN,
                 st.sampled_from([[], ["no-such-command"], ["game", "--no-such-flag"],
                                  *OVERFLOW]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ARGV)
def test_main_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    if code == 3 and not out.getvalue():
        assert err.getvalue().startswith(("error: ", "ambiguous input: ",
                                          "strategy gave up: ")), (argv, err.getvalue())


def test_overflowing_thresholds_print_their_finite_limit():
    # divided through by the overflowing product, both thresholds tend to
    # 1 / (2 - alpha)
    want = "alpha,beta_threshold\n0.1,0.526315789474\n0.2,0.555555555556\n0.3,0.588235294118\n"
    for argv in OVERFLOW:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert (code, out.getvalue(), err.getvalue()) == (0, want, ""), argv
