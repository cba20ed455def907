import json

import pytest

from beta_arena import cli


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
], ids=["x-outside-domain", "base-not-above-1", "negative-length",
        "real-without-x", "complex-with-four-coordinates", "quat-with-two-coordinates",
        "no-system", "two-systems", "real-negative-n", "complex-negative-n",
        "quat-negative-n", "infinite-real-base", "infinite-modulus",
        "curve-A-without-b", "grid-not-finite", "grid-too-fine", "override-rho-on-symmetric",
        "override-bob-on-losing", "game-without-preset", "alpha-zero",
        "game-out-unwritable", "scan-out-unwritable", "alphabet-past-index-range",
        "alphabet-past-memory", "alphabet-past-cap", "alphabet-far-past-cap"])
def test_invalid_input_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


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
