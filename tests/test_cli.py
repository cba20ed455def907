import hashlib
import json
import os
import subprocess
import sys
import threading

import pytest

from beta_arena import cli
from beta_arena.game import audit_trace
from beta_arena.presets import build_preset, run_setup


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_real(capsys):
    code, out, _ = run_cli(capsys, "expand", "--real", "golden",
                           "--x", "0.854102", "--n", "6")
    assert code == 0
    assert out.splitlines()[0] == "digits: 1 0 1 0 0 0"


def test_expand_real_json(capsys):
    code, out, _ = run_cli(capsys, "expand", "--real", "2.5", "--x", "0.5",
                           "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["digits"] == [1, 0, 1, 1]
    assert doc["reconstruction_error"] < 2.5 ** -4


def test_expand_complex_pretty_digits(capsys):
    code, out, _ = run_cli(capsys, "expand", "--complex", "1.618033988749895",
                           "1.5707963267948966", "--z", "0", "0.27639320225",
                           "--n", "5", "--on-ambiguous", "nudge")
    assert code == 0
    assert out.splitlines()[0] == "digits: -1, 0, -2, 0, -2"


def test_expand_quat(capsys):
    code, out, _ = run_cli(capsys, "expand", "--quat", "0", "1.618033988749895",
                           "0", "0", "--z", "0.5", "0", "0.5", "0",
                           "--n", "6", "--on-ambiguous", "nudge")
    assert code == 0
    assert out.splitlines()[0] == "digits: 0, -2-2j, i+k, -1-j, i+k, -1-j"


@pytest.mark.parametrize("q, norm", [(("0.5", "0", "0", "0"), "0.5"),
                                     (("0", "1", "0", "0"), "1.0")])
def test_expand_refuses_a_quaternion_of_norm_at_most_1(capsys, q, norm):
    # such a map does not expand, so its digits describe no point
    code, out, err = run_cli(capsys, "expand", "--quat", *q, "--z", "0.1", "0.1", "0.1", "0.1",
                             "--n", "3")
    assert (code, out) == (3, "")
    assert err == f"error: quaternion base must have norm above 1, got {norm}\n"


@pytest.mark.parametrize("on_ambiguous", ["error", "nudge"])
def test_expand_takes_a_quaternion_base_of_huge_norm_as_the_real_one(capsys, on_ambiguous):
    # the norm of 1e200 overflows a plain sum of squares; the base is
    # finite and expands, as the real base 1e200 does
    z = ("0.1",) * 4
    quat = run_cli(capsys, "expand", "--quat", "1e200", "0", "0", "0", "--z", *z, "--n", "2",
                   "--on-ambiguous", on_ambiguous)
    real = run_cli(capsys, "expand", "--real", "1e200", "--x", "0.1", "--n", "2",
                   "--on-ambiguous", on_ambiguous)
    if on_ambiguous == "error":
        assert quat == real == (3, "", "ambiguous input: 1e+199 is within 1e-09 of an integer\n")
    else:
        assert quat[0] == real[0] == 0 and quat[2] == real[2] == ""


def test_expand_refuses_a_quaternion_base_of_tiny_norm_by_its_norm(capsys):
    # the norm of 1e-200 underflows a plain sum of squares to 0
    code, out, err = run_cli(capsys, "expand", "--quat", "1e-200", "0", "0", "0",
                             "--z", "0.1", "0.1", "0.1", "0.1", "--n", "2")
    assert (code, out) == (3, "")
    assert err == "error: quaternion base must have norm above 1, got 1e-200\n"


@pytest.mark.parametrize("system", [("--quat", "1e308", "1e308", "0", "0"),
                                    ("--complex", "1.7e308", "0.7")])
def test_expand_refuses_a_radix_whose_digit_range_overflows(capsys, system):
    # the norm is finite, but a row of the digit map sums to inf
    z = ("0.1",) * (4 if system[0] == "--quat" else 2)
    code, out, err = run_cli(capsys, "expand", *system, "--z", *z, "--n", "2")
    assert (code, out) == (3, "")
    assert err == "error: radix too large: a digit range runs from 0.0 to inf\n"


def test_expand_ambiguous_input_exits_3(capsys):
    # orbit of this point hits a digit boundary under the default policy
    code, _, err = run_cli(capsys, "expand", "--quat", "0", "1.618033988749895",
                           "0", "0", "--z", "0.5", "0", "0.5", "0", "--n", "6")
    assert code == 3
    assert "ambiguous" in err


def test_admissible_listing(capsys):
    code, out, _ = run_cli(capsys, "admissible", "--real", "golden", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["0 0 0", "0 0 1", "0 1 0", "1 0 0", "1 0 1"]


def test_regions_curve_A_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "regions", "--curve", "A", "--b", "silver",
                           "--alpha", "0.1:0.5:0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,beta_threshold"
    assert len(lines) == 1 + 5  # header plus grid cardinality
    assert "nan" not in out.lower()


def test_regions_curve_F(capsys):
    code, out, _ = run_cli(capsys, "regions", "--curve", "F", "--r", "4.5",
                           "--alpha", "0.6:0.6:0.1")
    assert code == 0
    beta = float(out.strip().splitlines()[1].split(",")[1])
    assert beta == pytest.approx(0.6924158943595363, abs=1e-10)


def test_regions_curve_G_empty_above_gamma2(capsys):
    code, out, _ = run_cli(capsys, "regions", "--curve", "G", "--theta", "0.2")
    assert code == 0
    assert out.strip() == "N,interval_lo,interval_hi"


def test_regions_classify_ambiguous_flag(capsys):
    code, out, _ = run_cli(capsys, "regions", "--curve", "classify",
                           "--r", "3.0", "--theta", "0.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["ambiguous"] is True and doc["N"] is None


def test_game_winning_preset_exit_0(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    code, _, err = run_cli(capsys, "game", "--preset", "dwinning-golden",
                           "--out", str(out_path))
    assert code == 0
    assert "verdict: verified" in err
    doc = json.loads(out_path.read_text())
    assert doc["verdict"] == "verified"
    assert doc["audit_violations"] == []
    assert doc["trace"]["moves"][0]["radius"] == 0.4


def test_game_losing_preset_exit_0(capsys):
    code, out, err = run_cli(capsys, "game", "--preset", "notwinning-lipschitz")
    assert code == 0
    doc = json.loads(out)
    assert doc["claim"]["kind"] == "avoids"
    assert doc["verdict"] == "verified"


def test_game_silver_near_bound_falls_back(capsys):
    # the (n, k) search underflows here; the preset takes its (1, 3) fallback
    code, out, _ = run_cli(capsys, "game", "--preset", "dwinning-silver",
                           "--alpha", "0.4706")
    assert code == 0
    doc = json.loads(out)
    assert doc["setup_notes"] == [
        "no (n, k) satisfies the strategy window; using fallback (1, 3)"]
    assert doc["claim"]["position"] == 3


def test_game_broken_alpha_never_crashes(capsys):
    # beta = 1/(alpha |q|) leaves (0, 1): reported as an error, exit 3
    code, _, err = run_cli(capsys, "game", "--preset", "notwinning-lipschitz",
                           "--alpha", "0.1")
    assert code == 3
    assert "error" in err or "strategy" in err


def test_game_illegal_move_exit_4(capsys, monkeypatch):
    from beta_arena.game import IllegalMoveError

    def boom(preset, overrides, seed, max_rounds):
        raise IllegalMoveError("bob", 2, "test hook")

    monkeypatch.setattr(cli, "_run_game", boom)
    code, _, err = run_cli(capsys, "game", "--preset", "dwinning-golden")
    assert code == 4
    assert "bob" in err


def test_game_output_is_deterministic(capsys):
    args = ("game", "--preset", "cwinning-nine-halves", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)
    assert code1 == 0


# preset -> sha256 of `game --preset P --seed S` stdout at seeds 0-1; each exits 0
GAME_STDOUT_PINS = {
    "dwinning-golden": [
        "79ab5f45383d62726e01f2ffb5dd0eae5db8955b5e3acd5fe49b51751b157ce5",
        "c21b7a3d24eec6aa2afbd3b3234d95b56db3e0d591dbea61d8fb10cf58d71acd",
    ],
    "dwinning-silver": [
        "fb9431876189e2a3d866d07091e4b18c533ea5003d12eff1518b10467c1cd518",
        "96f0c646b809efd25aa020a8577292969e74ad015ab9b7e398b6544a845e9b26",
    ],
    "cwinning-nine-halves": [
        "8d37167eb356405ef6c5fc5c1b7acffabbd259a7f774d4f96f5a3a6b4a2bb71c",
        "eff57750016495d6a1cf944c93a33bfea0bff4ae634ca5deddd8379f4d801a0d",
    ],
    "qwinning-componentwise": [
        "1bdfdd089c2499471347584072eede6c312e73e68a0aab4fa6f8074b7c391f20",
        "214014aef347eee655324a100754ee1ba0692d5c82c44fe10c0a9d85fe0dd763",
    ],
    "notwinning-lipschitz": [
        "c598dcdfbf34af84960cadc51ad100a862284e432a311b99abe0550f85fa86aa",
        "2f1ee18dd29d9b2e5b96250449c844926b6bb70678b09a486d77e7128ee0716f",
    ],
    "notwinning-hurwitz": [
        "11c8f6db359439502429484ff00bb4c0c9f17a9aecf211c5bba79193cfcb3ab4",
        "6b51ed2aae84b545f04554bbc2eba60738025a00a90b630410d1c08afab8003c",
    ],
    "notwinning-symmetric": [
        "727a667fc4b052690aa0ba593a3b4845e1f65c2e02468d1f6eb38e7f86378a15",
        "a60f2aa3c41b4b3b94a489a610ea56cf8368f4768b86e4dcd99d257295c78101",
    ],
    "notwinning-zeta": [
        "5c1fc90806584aa1a3f1d1d25e53c3f0150b7b399f799f354f303e59d98263ec",
        "6429cd93a555c2fc38c0a035e297e3d6304ab1f044eeb3c4e57d7e87ae0decdc",
    ],
}


@pytest.mark.parametrize("preset", GAME_STDOUT_PINS)
@pytest.mark.parametrize("seed", [0, 1])
def test_game_stdout_is_pinned(capsys, preset, seed):
    code, out, _ = run_cli(capsys, "game", "--preset", preset, "--seed", str(seed))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GAME_STDOUT_PINS[preset][seed]


def game_doc(setup, trace, result):
    """The `game` document as the json module writes it, the specification
    of the command's writer."""
    from test_game import trace_dict
    doc = {
        "preset": setup.name,
        "claim": {"kind": setup.claim.kind,
                  "block": [list(d) if isinstance(d, tuple) else d for d in setup.claim.block],
                  "position": setup.claim.position},
        "trace": trace_dict(trace),
        "audit_violations": audit_trace(trace),
        "verdict": result.verdict,
        "verdict_reason": result.reason,
        "certified_digits": result.certified,
        "setup_notes": setup.notes,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# setup and trace notes, falsified and indeterminate verdicts, a random Bob
# and 1-, 2- and 4-coordinate claim blocks
GAME_ARGS = [
    ("dwinning-silver", {"alpha": 0.4706}, 0),
    ("dwinning-golden", {"alpha": 0.6, "bob": "random"}, 2),
    ("cwinning-nine-halves", {"alpha": 0.9}, 1),
    ("cwinning-nine-halves", {"bob": "center-hold"}, 3),
    ("qwinning-componentwise", {"alpha": 0.15, "bob": "random"}, 4),
    ("notwinning-lipschitz", {"alpha": 0.5}, 5),
    ("notwinning-zeta", {"rho": 0.4}, 6),
    ("cwinning-nine-halves", {"max_rounds": 2}, 7),
]


@pytest.mark.parametrize("preset, overrides, seed", GAME_ARGS)
def test_game_stdout_is_json_dumps_of_its_document(capsys, preset, overrides, seed):
    argv = ["game", "--preset", preset, "--seed", str(seed)]
    for key, value in overrides.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    code, out, err = run_cli(capsys, *argv)
    setup = build_preset(preset, **overrides)
    trace, result = run_setup(setup, seed=seed)
    assert out == game_doc(setup, trace, result)
    assert err == f"verdict: {result.verdict} ({result.reason})\n"


def test_scan_deterministic_and_complete(capsys):
    args = ("scan", "--preset", "dwinning-golden",
            "--alpha", "0.03:0.07:0.02", "--seeds", "2")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "alpha,beta,seed,rounds,status,verdict"
    assert len(lines) == 1 + 3 * 2
    assert all(line.split(",")[5] == "verified" for line in lines[1:])


@pytest.mark.parametrize("argv", [
    ("regions", "--curve", "F"),
    ("regions", "--curve", "G", "--theta", "0.05"),
    ("regions", "--curve", "classify"),
    ("regions", "--curve", "A", "--b", "golden"),
    ("expand", "--real", "golden", "--x", "0.854102", "--n", "6"),
    ("admissible", "--real", "golden", "--n", "5"),
    ("game", "--preset", "dwinning-golden", "--seed", "0"),
    ("scan", "--preset", "dwinning-golden", "--alpha", "0.03:0.05:0.02"),
])
def test_regions_ignore_the_floor_outside_curve_A(capsys, monkeypatch, argv):
    # the floors' ambiguity band is the constant EPS_FLOOR: no command reads
    # BETA_ARENA_EPS, whatever it holds
    want = run_cli(capsys, *argv)
    for env in ("0.2", "abc", "1e-13"):
        monkeypatch.setenv("BETA_ARENA_EPS", env)
        assert run_cli(capsys, *argv) == want, env
    assert want[0] == 0 and want[1]


@pytest.mark.parametrize("argv", [
    ("expand", "--real", "golden", "--x", "1.5"),
    ("expand", "--real", "1.0", "--x", "0.5"),
    ("admissible", "--real", "golden", "--n", "-1"),
    ("expand", "--real", "golden"),
    ("expand", "--complex", "4.5", "0.05", "--z", ".1", ".2", ".3", ".4"),
    ("expand", "--quat", "3", "3", "3", "3", "--z", ".1", ".2"),
    ("expand",),
    ("expand", "--real", "golden", "--complex", "4.5", "0"),
    ("expand", "--real", "golden", "--x", "0.3", "--n", "-1"),
    ("expand", "--complex", "4.5", "0.05", "--z", ".1", ".2", "--n", "-1"),
    ("expand", "--quat", "3", "3", "3", "3", "--z", ".1", ".2", ".3", ".4",
     "--n", "-1"),
    ("expand", "--real", "inf", "--x", ".5"),
    ("expand", "--complex", "inf", "0", "--centered", "--z", "0", "0"),
    ("regions", "--curve", "A"),
    ("regions", "--curve", "F", "--alpha", "nan:1:0.1"),
    ("regions", "--curve", "F", "--alpha", "0:1:1e-300"),
    ("game", "--preset", "notwinning-symmetric", "--rho", ".1"),
    ("game", "--preset", "notwinning-lipschitz", "--bob", "random"),
    ("game",),
    ("game", "--preset", "notwinning-lipschitz", "--alpha", "0"),
    ("game", "--preset", "dwinning-golden", "--out", "/nonexistent-dir/x.json"),
    ("scan", "--preset", "dwinning-golden", "--alpha", "0.05:0.05:0.1",
     "--out", "/nonexistent-dir/x.csv"),
    ("admissible", "--real", "1e308", "--n", "3"),
    ("admissible", "--real", "1e18", "--n", "3"),
    ("admissible", "--real", "1e7", "--n", "3"),
    ("admissible", "--real", "1e12", "--n", "3"),
    ("admissible", "--real", "2.5", "--n", "200"),
    ("game", "--preset", "dwinning-golden", "--max-rounds", "-3"),
    ("scan", "--preset", "dwinning-golden", "--alpha", "0.5:0.5:0.1", "--seeds", "-1"),
    ("regions", "--curve", "A", "--b", "2.5"),
    ("regions", "--curve", "A", "--b", "golden", "--alpha", "0.1:0.2"),
    ("expand", "--real", "metallic:x", "--x", "0.3"),
    ("expand", "--quat", "3", "3", "3", "3", "--lattice", "zeta:x", "--z", ".1", ".2", ".3", ".4"),
    ("expand", "--quat", "3", "3", "3", "3", "--lattice", "symmetric:x",
     "--z", ".1", ".2", ".3", ".4"),
    ("expand", "--real", "golden", "--x", "0.5", "--n", "100000000"),
], ids=["x-outside-domain", "base-not-above-1", "negative-length",
        "real-without-x", "complex-with-four-coordinates", "quat-with-two-coordinates",
        "no-system", "two-systems", "real-negative-n", "complex-negative-n",
        "quat-negative-n", "infinite-real-base", "infinite-modulus",
        "curve-A-without-b", "grid-not-finite", "grid-too-fine", "override-rho-on-symmetric",
        "override-bob-on-losing", "game-without-preset", "alpha-zero",
        "game-out-unwritable", "scan-out-unwritable", "alphabet-past-index-range",
        "alphabet-past-memory", "alphabet-past-cap", "alphabet-far-past-cap", "blocks-past-cap",
        "game-negative-max-rounds", "scan-negative-seeds", "curve-A-unresolved-base",
        "grid-of-two-values", "metallic-index-not-integer", "zeta-eps-not-number",
        "symmetric-eps-not-number", "digits-past-cap"])
def test_invalid_input_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, angle", [
    (("regions", "--curve", "G", "--theta", "inf"), "inf"),
    (("regions", "--curve", "classify", "--theta", "nan"), "nan"),
    (("expand", "--complex", "4.5", "nan", "--z", "0.1", "0.1"), "nan"),
], ids=["G-infinite-angle", "classify-nan-angle", "complex-nan-angle"])
def test_non_finite_angle_is_named(capsys, argv, angle):
    # every angle passes through complexexp.fold_angle, which refuses it by name
    assert run_cli(capsys, *argv) == (3, "", f"error: angle must be finite, got {angle}\n")


@pytest.mark.parametrize("argv, message", [
    (("game", "--preset", "dwinning-golden", "--max-rounds", "-3"),
     "--max-rounds must be at least 0, got -3"),
    (("scan", "--preset", "dwinning-golden", "--alpha", "0.5:0.5:0.1", "--seeds", "-1"),
     "--seeds must be at least 0, got -1"),
    (("scan", "--preset", "dwinning-golden", "--alpha", "0.5:0.5:0.1", "--max-rounds", "-1"),
     "--max-rounds must be at least 0, got -1"),
    # the CLI names its option before play's own refusal of a negative seed
    (("game", "--preset", "dwinning-golden", "--seed", "-1"), "--seed must be at least 0, got -1"),
    (("game", "--preset", "notwinning-lipschitz", "--seed", "-1"),
     "--seed must be at least 0, got -1"),
], ids=["game-max-rounds", "scan-seeds", "scan-max-rounds", "game-seed-golden",
        "game-seed-lipschitz"])
def test_negative_count_is_named(capsys, monkeypatch, argv, message):
    # refused before any game is built, not played as zero rounds or rows
    monkeypatch.setattr(cli, "build_preset", None)
    assert run_cli(capsys, *argv) == (3, "", f"error: {message}\n")


def test_expansion_past_max_blocks_is_refused_before_expanding(capsys, monkeypatch):
    monkeypatch.setattr(cli, "expand_digits", None)
    assert run_cli(capsys, "expand", "--real", "golden", "--x", "0.5", "--n", "1000001") == (
        3, "", "error: --n 1000001 asks for more than 1000000 digits\n")


@pytest.mark.parametrize("argv, message", [
    (("regions", "--curve", "A", "--b", "golden", "--alpha", "0.1:0.2"),
     "--alpha takes start:stop:step, three numbers, got '0.1:0.2'"),
    (("expand", "--real", "metallic:x", "--x", "0.3"),
     "--real and --b take a number, golden, silver or metallic:J for an integer J >= 1, "
     "got 'metallic:x'"),
    (("expand", "--quat", "3", "3", "3", "3", "--lattice", "zeta:x",
      "--z", ".1", ".2", ".3", ".4"),
     "--lattice zeta:EPS needs a number EPS, got 'zeta:x'"),
    (("expand", "--quat", "3", "3", "3", "3", "--lattice", "symmetric:x",
      "--z", ".1", ".2", ".3", ".4"),
     "--lattice symmetric:EPS needs a number EPS, got 'symmetric:x'"),
], ids=["grid", "metallic", "zeta", "symmetric"])
def test_malformed_value_is_named(capsys, argv, message):
    assert run_cli(capsys, *argv) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("b", ["2.5", "1.7234", "2.4567", "3.3"])
def test_curve_A_refuses_an_unresolved_base(capsys, b):
    # K would only be the longest zero run the 256-digit orbit showed; the
    # real presets refuse such a base too
    assert run_cli(capsys, "regions", "--curve", "A", "--b", b) == (
        3, "", f"error: base {b}: tail expansion not resolved at depth 256\n")


def test_usage_error_names_the_problem(capsys):
    # argparse's own message, once, with no usage block
    _, _, err = run_cli(capsys, "expand", "--real", "golden", "--complex", "4.5", "0")
    assert err.count("\n") == 1 and "--complex" in err and "--real" in err
    _, _, err = run_cli(capsys, "game")
    assert err.count("\n") == 1 and "--preset" in err


def test_strategy_error_exits_3(capsys):
    code, out, err = run_cli(capsys, "game", "--preset", "dwinning-golden",
                             "--alpha", "0.5005", "--beta", "0.6")
    assert (code, out) == (3, "")
    assert err.startswith("strategy gave up: ")


def test_reader_closing_early_exits_141_in_silence():
    # about 1.8 MB of blocks, so the write outlasts the pipe's buffer and
    # meets the closed reader while the command is still printing
    proc = subprocess.Popen([sys.executable, "-m", "beta_arena.cli", "admissible",
                             "--real", "2.5", "--n", "12"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_out_fifo_closing_early_exits_3(capsys, monkeypatch, tmp_path):
    # a broken pipe on an --out file is an output that cannot be written,
    # not stdout's reader closing early: exit 3 and an error on stderr; the
    # trace is made larger than a pipe's buffer, so the write meets the
    # closed reader whenever it closes
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    monkeypatch.setattr(cli, "game_json", lambda *args: "x" * 2 ** 20)
    reader = threading.Thread(target=lambda: os.close(os.open(fifo, os.O_RDONLY)), daemon=True)
    reader.start()
    code, out, err = run_cli(capsys, "game", "--preset", "dwinning-golden", "--out", str(fifo))
    reader.join(timeout=60)
    assert (code, out) == (3, "")
    assert err == f"error: [Errno 32] Broken pipe: {str(fifo)!r}\n"


def test_grid_parse():
    assert cli.parse_grid("0.1:0.3:0.1") == pytest.approx([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        cli.parse_grid("0.1:0.3:0")
    assert len(cli.parse_grid("1:1000000:1")) == 10 ** 6
    with pytest.raises(ValueError, match="more than 1000000 points"):
        cli.parse_grid("0:1000000:1")


def test_base_parse():
    import math
    assert cli.parse_base("golden") == pytest.approx((1 + math.sqrt(5)) / 2)
    assert cli.parse_base("metallic:3") == pytest.approx((3 + math.sqrt(13)) / 2)
    assert cli.parse_base("2.5") == 2.5
