import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gameprice.cli
import gameprice.lsq
import gameprice.portfolio
from gameprice.cli import main

ROOT = Path(__file__).resolve().parents[1]

INTRO = {
    "probabilities": [0.5, 0.5],
    "games": {"A": [19, 1], "B": [10, 10], "C": [1, 19]},
    "rate": {"value": 0.05, "convention": "continuous"},
}

REMARK35 = {
    "probabilities": [0.5, 0.5],
    "games": {"X": [50, 1], "Y": [30.6191, 14], "S": [12, 8]},
    "rate": {"value": 0.02, "convention": "simple"},
}


@pytest.fixture
def intro(tmp_path):
    path = tmp_path / "intro.json"
    path.write_text(json.dumps(INTRO))
    return str(path)


@pytest.fixture
def remark35(tmp_path):
    path = tmp_path / "remark35.json"
    path.write_text(json.dumps(REMARK35))
    return str(path)


# ceilings c = 6.7e-55 and 4.0e-83: their product c_j c_k underflows to 0
TINY_CEILINGS = {
    "probabilities": [0.26996350895349364, 0.7300364910465064],
    "games": {"A": [0.046895393982378526, 3.510412903439512e-09],
              "B": [2.782976814602153e-30, 0.0]},
    "rate": {"value": 120.36376549068146},
}


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _no_constant(name):
    raise ValueError(f"JSON constant {name} in the output")


class TestJsonNonFinite:
    def test_non_finite_floats_at_any_depth_become_strings(self):
        doc = {"a": math.inf, "b": [1.5, -math.inf, {"c": math.nan}], "d": (0.0, 2),
               "e": "text", "f": None, "g": True}
        assert gameprice.cli._json_safe(doc) == {
            "a": "inf", "b": [1.5, "-inf", {"c": "nan"}], "d": [0.0, 2],
            "e": "text", "f": None, "g": True}

    def test_a_finite_document_prints_as_before(self, capsys):
        doc = {"x": [0.1, 1e-300, -2.5e300, 7], "y": {"z": (1.0, False)}, "s": "inf"}
        args = type("Args", (), {"format": "json"})()
        gameprice.cli._show(args, doc, [], [])
        assert capsys.readouterr().out == json.dumps(doc) + "\n"


class TestPriceCommand:
    def test_game_a_table(self, capsys, intro):
        rc, out, _ = run(capsys, ["price", "--game", "A", intro])
        assert rc == 0
        assert out.strip() == "u=7.224 t=0.274 regime=interior"

    def test_game_b_table(self, capsys, intro):
        rc, out, _ = run(capsys, ["price", "--game", "B", intro])
        assert rc == 0
        assert out.strip() == "u=9.512 t=1.000 regime=full"

    def test_rate_override_simple(self, capsys, remark35):
        rc, out, _ = run(
            capsys,
            ["price", "--rate", "0.02", "--convention", "simple", "--game", "X",
             remark35],
        )
        assert rc == 0
        assert out.startswith("u=20.67 ")

    def test_json_round_trip(self, capsys, intro):
        rc, out, _ = run(capsys, ["price", "--game", "A", "--format", "json", intro])
        assert rc == 0
        doc = json.loads(out)
        assert doc["regime"] == "interior"
        assert doc["price"] == pytest.approx(7.223641028417384, rel=1e-12)

    def test_csv(self, capsys, intro):
        rc, out, _ = run(capsys, ["price", "--game", "A", "--format", "csv", intro])
        assert rc == 0
        header, row = out.splitlines()
        assert header == "game,price,proportion,regime,achieved_growth"
        cells = row.split(",")
        assert cells[0] == "A" and cells[3] == "interior"
        for i in (1, 2, 4):
            float(cells[i])

    def test_full_precision(self, capsys, intro):
        rc, out, _ = run(capsys, ["price", "--game", "A", "--full-precision", intro])
        assert rc == 0
        u = float(out.split()[0].split("=")[1])
        assert u == pytest.approx(7.223641028417384, rel=1e-15)

    def test_high_rate(self, capsys, intro):
        rc, out, err = run(capsys, ["price", "--game", "A", "--rate", "20", intro])
        assert rc == 0, err
        assert out.strip() == "u=8.984e-09 t=1.000 regime=full"
        rc, out, err = run(capsys, ["ls-price", "--rate", "20",
                                    str(ROOT / "sample_games" / "example12.json")])
        assert rc == 0, err
        assert "certificate mix" in out

    def test_a_rate_where_one_over_g_squared_underflows(self, capsys):
        # g = e^400: game A is in full investment, where kappa is never needed
        intro = str(ROOT / "sample_games" / "intro.json")
        rc, out, err = run(capsys, ["price", intro, "--game", "A", "--rate", "400"])
        assert rc == 0, err
        assert out.strip() == "u=8.348e-174 t=1.000 regime=full"
        rc, out, err = run(capsys, ["ls-price", intro, "--rate", "400"])
        assert rc == 0, err
        assert "certificate mix" in out

    def test_a_payoff_whose_square_overflows(self, capsys, tmp_path):
        # (1e200 - mean)^2 overflows: the price solve starts from its bracket
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"probabilities": [0.4, 0.6],
                                    "games": {"A": [1e200, 1]}, "rate": {"value": 0.05}}))
        rc, out, err = run(capsys, ["price", str(path), "--game", "A"])
        assert rc == 0, err
        assert out.strip() == "u=2.553e+199 t=0.194 regime=interior"


class TestExitCodes:
    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["price", "--game", "A", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, message", [
        (["ls-price", "--tol-ls", "0"], "tolerance must lie in (0, 1e-2]"),
        (["price", "--game", "A", "--rate", "-1"], "rate must be > 0"),
    ])
    def test_an_option_out_of_range_is_refused(self, capsys, intro, argv, message):
        with pytest.raises(SystemExit) as exc:
            main([*argv, intro])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_bad_json_reports_line_and_column(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"probabilities": [0.5, 0.5],\n "games": {"A": [1,}')
        rc, _, err = run(capsys, ["price", "--game", "A", str(path)])
        assert rc == 2
        assert "line 2" in err

    def test_unknown_game_is_parse_error(self, capsys, intro):
        rc, _, err = run(capsys, ["price", "--game", "Z", intro])
        assert rc == 2
        assert '"Z"' in err

    def test_invariant_violation_named(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({
            "probabilities": [0.5, 0.5],
            "games": {"A": [-1, 2]},
            "rate": {"value": 0.05},
        }))
        rc, _, err = run(capsys, ["price", "--game", "A", str(path)])
        assert rc == 3
        assert "nonnegative" in err

    @pytest.mark.parametrize("spec, message", [
        ({"probabilities": ["a", 0.5]}, '"probabilities" must be a list of numbers'),
        ({"probabilities": [None, 0.5]}, '"probabilities" must be a list of numbers'),
        ({"probabilities": [[0.5], 0.5]}, '"probabilities" must be a list of numbers'),
        ({"probabilities": [{"p": 0.5}, 0.5]}, '"probabilities" must be a list of numbers'),
        ({"probabilities": None}, '"probabilities" must be a list of numbers'),
        ({"probabilities": 0.5}, '"probabilities" must be a list of numbers'),
        ({"games": {"A": [19, "a"]}}, 'game "A" must be a list of numbers'),
        ({"games": {"A": [19, None]}}, 'game "A" must be a list of numbers'),
        ({"games": {"A": [19, [1]]}}, 'game "A" must be a list of numbers'),
        ({"games": {"A": [19, {"a": 1}]}}, 'game "A" must be a list of numbers'),
        ({"games": {"A": [19, True]}}, 'game "A" must be a list of numbers'),
        ({"rate": {"value": "a"}}, '"rate" "value" must be a number'),
        ({"rate": {"value": None}}, '"rate" "value" must be a number'),
        ({"rate": {"value": [0.05]}}, '"rate" "value" must be a number'),
        ({"rate": {"value": 0.05, "convention": 5}}, '"rate" "convention" must be a string'),
        ({"rate": {"value": 0.05, "convention": None}}, '"rate" "convention" must be a string'),
        ({"rate": {"value": 0.05, "convention": ["simple"]}},
         '"rate" "convention" must be a string'),
        ({"rate": {"value": 0.05, "convention": True}}, '"rate" "convention" must be a string'),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
    def test_non_numeric_value_is_a_parse_error(self, capsys, tmp_path, spec, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**INTRO, **spec}))
        rc, out, err = run(capsys, ["price", "--game", "A", str(path)])
        assert rc == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("spec, message", [
        ({"probabilities": [0.5, 0.6]}, "sum to 1"),
        ({"probabilities": [1.0, 0.0]}, "> 0"),
        ({"games": {"A": [19, float("nan")]}}, "finite"),
        ({"games": {"A": [19, float("inf")]}}, "finite"),
        ({"rate": {"value": -0.05}}, "rate must be > 0"),
        ({"rate": {"value": 0.05, "convention": "annual"}}, "unknown convention 'annual'"),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
    def test_numbers_breaking_an_invariant_stay_invariant_violations(
            self, capsys, tmp_path, spec, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**INTRO, **spec}))
        rc, out, err = run(capsys, ["price", "--game", "A", str(path)])
        assert rc == 3
        assert out == ""
        assert err.startswith("invariant violated:") and message in err

    def test_integer_beyond_float_range_is_not_finite(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"probabilities": [0.5, 0.5], "games": {"A": [19, 1%s]}, '
                        '"rate": {"value": 0.05}}' % ("0" * 400))
        rc, out, err = run(capsys, ["price", "--game", "A", str(path)])
        assert rc == 3
        assert "payoffs must be finite" in err

    def test_overflowing_rate_is_an_invariant_violation(self, capsys, intro):
        rc, out, err = run(capsys, ["price", intro, "--game", "A", "--rate", "710"])
        assert rc == 3
        assert out == ""
        assert err.count("\n") == 1 and "overflows" in err

    @pytest.mark.parametrize("rate", ["inf", "nan", "1e400"])
    def test_a_rate_that_is_not_finite_is_reported_as_such(self, capsys, intro, rate):
        rc, out, err = run(capsys, ["price", intro, "--game", "A", "--rate", rate])
        assert rc == 3
        assert out == ""
        assert "rate must be finite" in err and "> 0" not in err

    @pytest.mark.parametrize("u", ["inf", "nan", "0"])
    def test_simulate_at_a_price_that_is_not_finite_and_positive(self, capsys, intro, u):
        rc, out, err = run(capsys, ["simulate", intro, "--game", "A", "--u", u])
        assert rc == 3
        assert out == ""
        assert "price must be finite and > 0" in err

    def test_parity_at_an_infinite_strike(self, capsys):
        rc, out, err = run(capsys, ["parity", str(ROOT / "sample_games" / "stock3.json"),
                                    "--strike", "inf"])
        assert rc == 3
        assert out == ""
        assert "strike must be finite and > 0" in err

    def test_degenerate_basis_exit_code(self, capsys, tmp_path):
        path = tmp_path / "prop.json"
        path.write_text(json.dumps({
            "probabilities": [0.5, 0.5],
            "games": {"A": [2, 2], "B": [10, 10]},
            "rate": {"value": 0.05},
        }))
        path2 = tmp_path / "prop3.json"
        path2.write_text(json.dumps({
            "probabilities": [0.4, 0.3, 0.3],
            "games": {"A": [2, 2, 2], "B": [10, 10, 10]},
            "rate": {"value": 0.05},
        }))
        # a constant pair is a constant mix: both games are solved on, each at
        # its ceiling, on any outcome space
        for spec in (path, path2):
            rc, out, err = run(capsys, ["ls-price", str(spec)])
            assert rc == 0, err
            lines = out.splitlines()
            assert lines[0].startswith("A: standalone=1.902 ls=1.902")
            assert lines[1] == "B: standalone=9.512 ls=9.512 x=0"
        # a proportional pair with no constant mix reduces to its first game
        path.write_text(json.dumps({
            "probabilities": [0.5, 0.5],
            "games": {"A": [2, 4], "B": [10, 20]},
            "rate": {"value": 0.05},
        }))
        rc, out, err = run(capsys, ["ls-price", str(path)])
        assert rc == 0, err
        lines = out.splitlines()
        assert lines[0].startswith("A: standalone=2.692 ls=2.692")
        assert lines[1] == "B: ls=13.46 (priced by linearity)"

    def test_missing_rate_everywhere(self, capsys, tmp_path):
        path = tmp_path / "norate.json"
        path.write_text(json.dumps({
            "probabilities": [0.5, 0.5], "games": {"A": [19, 1]},
        }))
        rc, _, err = run(capsys, ["price", "--game", "A", str(path)])
        assert rc == 2
        assert "--rate" in err

    @pytest.mark.parametrize("spec, rate", [
        # the zero-payoff floor underflows; the price is about 2e-436
        ({"probabilities": [0.9, 0.1], "games": {"A": [0, 1]}}, "100"),
        # full investment at gm/g, about 3e-474
        ({"probabilities": [0.2, 0.3, 0.5], "games": {"A": [3e-300, 1e-300, 2e-300]}},
         "400"),
        # a fair coin whose sqrt(ab) underflows
        ({"probabilities": [0.5, 0.5], "games": {"A": [1e-300, 1e-300]}}, "400"),
    ])
    def test_a_price_that_is_not_representable_is_no_internal_error(
            self, capsys, tmp_path, spec, rate):
        # the price lies below the smallest normal float, in price and ls-price
        path = tmp_path / "game.json"
        path.write_text(json.dumps(spec))
        for argv in (["price", "--game", "A"], ["ls-price"]):
            rc, out, err = run(capsys, [*argv, "--rate", rate, str(path)])
            assert rc == 1 and out == ""
            assert err.startswith("error: ") and "not representable" in err
            assert "internal error" not in err

    def test_a_price_whose_payoff_over_it_overflows_is_priced(self, capsys, tmp_path):
        # t a / u overflows near the price, but the price is a normal float
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"probabilities": [0.4, 0.6],
                                    "games": {"A": [1e300, 1e-300]}}))
        rc, out, err = run(capsys, ["price", "--game", "A", "--rate", "400",
                                    "--format", "json", str(path)])
        assert rc == 0, err
        assert json.loads(out)["price"] == pytest.approx(9.43637005259688e-136, rel=1e-13)


def _out_of_tolerance(solver):
    """solver, with its result's max_violation pushed far past any tol_L."""

    def wrapped(*args, **kwargs):
        return solver(*args, **kwargs).replace(max_violation=1e-3)

    return wrapped


class TestOutOfTolerance:
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_ls_price_prints_then_fails(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(gameprice.lsq, "least_squares_prices",
                            _out_of_tolerance(gameprice.lsq.least_squares_prices))
        rc, out, err = run(capsys, [
            "ls-price", "--format", fmt, str(ROOT / "sample_games/example13.json"),
        ])
        assert rc == 1
        assert out.strip()
        assert err.splitlines() == [
            "not within tolerance: max_violation 1.000e-03 > tol_L 1.000e-09"
        ]

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_parity_prints_then_fails(self, capsys, monkeypatch, remark35, fmt):
        monkeypatch.setattr(gameprice.portfolio, "least_squares_prices",
                            _out_of_tolerance(gameprice.portfolio.least_squares_prices))
        rc, out, err = run(capsys, [
            "parity", "--strike", "10", "--tol-ls", "1e-6", "--format", fmt, remark35,
        ])
        assert rc == 1
        assert out.strip()
        assert err.splitlines() == [
            "not within tolerance: max_violation 1.000e-03 > tol_L 1.000e-06"
        ]


FIVE = {
    "probabilities": [0.1, 0.2, 0.3, 0.25, 0.15],
    "games": {"A": [3, 9, 14, 0, 7], "B": [5, 5, 8, 12, 1]},
    "rate": {"value": 0.04, "convention": "continuous"},
}


def _run_python(script: str) -> subprocess.CompletedProcess:
    """script in a fresh interpreter that imports gameprice from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_default_commands_never_load_scipy(tmp_path):
    spec5 = tmp_path / "five.json"
    spec5.write_text(json.dumps(FIVE))
    games = ROOT / "sample_games"
    commands = [
        ["price", str(games / "intro.json"), "--game", "A"],
        ["price", str(spec5), "--game", "A"],
        ["ls-price", str(games / "example11.json")],
        ["ls-price", str(games / "intro.json")],
        ["parity", str(games / "remark35.json"), "--strike", "10"],
        ["compare-mv", str(games / "remark35.json")],
        ["simulate", str(games / "remark35.json"), "--game", "X",
         "--attempts", "200", "--paths", "20"],
        ["sweep", str(games / "remark35.json"), "--game", "S", "--points", "3",
         "--attempts", "100", "--paths", "10"],
        ["paper-examples"],
    ]
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import gameprice
        import gameprice.cli
        for argv in {commands!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = gameprice.cli.main(argv)
            assert rc == 0, (argv, rc)
        print("scipy" in sys.modules)
    """)
    done = _run_python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_price_never_loads_numpy(tmp_path):
    spec5 = tmp_path / "five.json"
    spec5.write_text(json.dumps(FIVE))
    commands = [
        ["price", str(path), "--game", "A", "--format", fmt]
        for path in (ROOT / "sample_games" / "intro.json", spec5)  # closed form, numeric
        for fmt in ("table", "json", "csv")
    ]
    ls_price = ["ls-price", str(ROOT / "sample_games" / "intro.json")]
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import gameprice
        import gameprice.cli
        print("numpy" in sys.modules)
        for argv in {commands!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = gameprice.cli.main(argv)
            assert rc == 0, (argv, rc)
        print("numpy" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = gameprice.cli.main({ls_price!r})
        print(rc, "numpy" in sys.modules)
    """)
    done = _run_python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False", "False", "0 False"]


def test_least_squares_commands_never_load_numpy():
    games = ROOT / "sample_games"
    commands = [
        ["ls-price", str(path), "--format", fmt]
        for path in sorted(games.glob("*.json"))
        for fmt in ("table", "json", "csv")
    ]
    commands += [
        ["parity", str(games / "remark35.json"), "--strike", "10"],
        ["parity", str(games / "stock3.json"), "--strike", "9"],
        ["compare-mv", str(games / "remark35.json")],
        ["paper-examples"],
    ]
    # simulate and sweep draw numpy's seeded streams in plain Python
    commands += [
        ["simulate", str(games / "remark35.json"), "--game", game, "--format", fmt]
        for game in ("X", "S")
        for fmt in ("table", "json", "csv")
    ]
    commands += [
        ["sweep", str(games / "remark35.json"), "--game", "S", "--points", "5",
         "--attempts", "100", "--paths", "10", "--format", fmt]
        for fmt in ("table", "json", "csv")
    ]
    simulate = ["simulate", str(games / "remark35.json"), "--game", "X",
                "--attempts", "200", "--paths", "20"]
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import gameprice.cli
        for argv in {commands!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = gameprice.cli.main(argv)
            assert rc == 0, (argv, rc)
            assert "numpy" not in sys.modules, argv
        with contextlib.redirect_stdout(io.StringIO()):
            rc = gameprice.cli.main({simulate!r})
        print(rc, "numpy" in sys.modules)
    """)
    done = _run_python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0 False"]


class TestLsPriceCommand:
    def test_documented_json_schema(self, capsys, tmp_path):
        path = tmp_path / "ex13.json"
        path.write_text(json.dumps({
            "probabilities": [0.5, 0.5],
            "games": {"A": [12, 8], "B": [11, 9]},
            "rate": {"value": 0.05},
        }))
        rc, out, _ = run(capsys, ["ls-price", "--format", "json", str(path)])
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == {"x", "prices", "certificate", "iterations", "max_violation"}
        assert sorted(doc["prices"]) == pytest.approx([9.345373, 9.468533], abs=1e-5)

    def test_reduction_prints_linear_members(self, capsys, tmp_path):
        path = tmp_path / "three.json"
        path.write_text(json.dumps({
            "probabilities": [0.5, 0.5],
            "games": {"A": [19, 1], "B": [16, 4], "C": [13, 7]},
            "rate": {"value": 0.05},
        }))
        rc, out, _ = run(capsys, ["ls-price", str(path)])
        assert rc == 0
        assert "priced by linearity" in out
        assert "certificate mix" in out

    def test_a_game_whose_d_squared_underflows(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"probabilities": [0.3, 0.7],
                                    "games": {"A": [1e-10, 0]}, "rate": {"value": 120}}))
        rc, out, err = run(capsys, ["ls-price", str(path), "--format", "json"])
        assert rc == 0 and err == ""
        assert json.loads(out)["prices"] == [2.4997155209389922e-185]

    def test_a_mix_hessian_whose_scale_underflows(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_CEILINGS))
        rc, out, err = run(capsys, ["ls-price", str(path), "--format", "json"])
        assert rc == 0 and err == ""
        assert json.loads(out)["max_violation"] <= 1e-9

    def test_a_game_near_1e_300(self, capsys, tmp_path):
        # the dual's start scale divides by |p d|^2, which underflows to 0
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"probabilities": [0.2, 0.3, 0.5],
                                    "games": {"A": [3e-300, 1e-300, 2e-300], "B": [1, 2, 3]},
                                    "rate": {"value": 0.05}}))
        rc, _, err = run(capsys, ["ls-price", str(path)])
        assert rc == 0 or (rc == 1 and err.startswith("not within tolerance"))
        assert "Traceback" not in err

    def test_a_game_near_1e_200_beside_normal_ones(self, capsys, tmp_path):
        # the mix price's Hessian in the weights overflows near A's small
        # weights (inf - inf): the dual's Newton step is not finite, and the
        # solve reports where it stopped
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"probabilities": [0.2, 0.3, 0.5],
                                    "games": {"A": [1e200, 1, 5], "B": [2, 3, 1]},
                                    "rate": {"value": 0.05}}))
        rc, out, err = run(capsys, ["ls-price", str(path), "--format", "json"])
        if rc == 0:
            assert all(0.0 < price < math.inf for price in json.loads(out)["prices"])
        else:
            assert rc == 1 and len(err.splitlines()) == 1, err
            assert err.startswith(("not within tolerance", "error:")), err

    @pytest.mark.parametrize("games", [{"A": [1e200, 1]}, {"A": [1e200, 1], "B": [2, 3]}])
    def test_a_payoff_whose_square_overflows(self, capsys, tmp_path, games):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"probabilities": [0.4, 0.6], "games": games,
                                    "rate": {"value": 0.05}}))
        rc, out, err = run(capsys, ["ls-price", str(path), "--format", "json"])
        assert rc == 0, err
        doc = json.loads(out)
        assert doc["prices"][0] >= 2.55e199  # A's stand-alone price
        assert all(0.0 < price < math.inf for price in doc["prices"])

    def test_a_start_scale_whose_square_overflows(self, capsys, tmp_path):
        # |p d|^2 at the dual's start overflows: b / |p d|^2 is formed by
        # hypot and divided in steps
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"probabilities": [0.33, 0.26, 0.41],
                                    "games": {"A": [7.5e200, 1.4e201, 1.3e201],
                                              "B": [7.2, 20, 16.7]},
                                    "rate": {"value": 0.066}}))
        rc, out, err = run(capsys, ["ls-price", str(path), "--format", "json"])
        assert rc == 0 and err == ""
        doc = json.loads(out)
        assert doc["max_violation"] <= 1e-9
        assert doc["x"] == pytest.approx([0.0339, 0.0363], abs=1e-4)

    @pytest.mark.parametrize("games", [{"A": [1e200, 1, 5], "B": [2, 3, 1]},
                                       {"A": [3e-300, 1e-300, 2e-300], "B": [1, 2, 3]}])
    def test_games_1e200_or_more_apart_end_within_tolerance(self, capsys, tmp_path, games):
        path = tmp_path / "apart.json"
        path.write_text(json.dumps({"probabilities": [0.2, 0.3, 0.5], "games": games,
                                    "rate": {"value": 0.05}}))
        rc, out, err = run(capsys, ["ls-price", str(path), "--format", "json"])
        assert rc == 0 and err == ""
        assert json.loads(out)["max_violation"] <= 1e-9

    def test_a_proportional_pair_near_1e_300(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"probabilities": [0.5, 0.5],
                                    "games": {"A": [1e-300, 2e-300], "B": [2e-300, 4e-300]},
                                    "rate": {"value": 0.05}}))
        rc, out, err = run(capsys, ["ls-price", str(path)])
        assert rc == 0, err
        lines = out.splitlines()
        assert lines[0].startswith("A: standalone=")
        assert lines[1].startswith("B: ") and lines[1].endswith("(priced by linearity)")

    def test_redundant_game_on_three_outcomes(self, capsys):
        rc, out, err = run(capsys, ["ls-price", "--full-precision",
                                    str(ROOT / "sample_games" / "redundant3.json")])
        assert rc == 0, err
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines[:3]] == ["A", "C", "B"]
        assert lines[2].endswith(" (priced by linearity)")
        price_a = float(lines[0].split("ls=")[1].split()[0])
        price_b = float(lines[2].split("ls=")[1].split()[0])
        assert price_b == pytest.approx(2.0 * price_a, rel=1e-12)

    def test_json_and_csv_list_every_game(self, capsys):
        path = str(ROOT / "sample_games" / "redundant3.json")
        rc, out, err = run(capsys, ["ls-price", path, "--format", "json"])
        assert rc == 0, err
        doc = json.loads(out)
        assert len(doc["x"]) == len(doc["prices"]) == len(doc["certificate"]) == 3
        assert doc["prices"][1] == pytest.approx(2.0 * doc["prices"][0], rel=1e-12)
        rc, out, err = run(capsys, ["ls-price", path, "--format", "csv"])
        assert rc == 0, err
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["A", "B", "C"]
        assert [float(row[2]) for row in rows] == doc["prices"]

    def test_pair_far_apart_in_scale(self, capsys, tmp_path):
        path = tmp_path / "scales.json"
        path.write_text(json.dumps({
            "probabilities": [0.5, 0.5],
            "games": {"A": [1, 1], "B": [10000, 10000.00005]},
            "rate": {"value": 0.05},
        }))
        rc, out, err = run(capsys, ["ls-price", str(path), "--format", "csv"])
        assert rc == 0, err
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["A", "B"]

    @pytest.mark.parametrize(
        "path", sorted((ROOT / "sample_games").glob("*.json")), ids=lambda p: p.name)
    def test_standalone_prices_equal_the_price_command(self, capsys, path):
        rc, out, err = run(capsys, ["ls-price", str(path), "--format", "csv"])
        assert rc == 0, err
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert rows
        for name, standalone, _, _ in rows:
            rc, out, err = run(capsys, ["price", str(path), "--game", name,
                                        "--format", "json"])
            assert rc == 0, err
            price = json.loads(out)["price"]
            assert float(standalone) == pytest.approx(price, rel=1e-12), name

    def test_singleton(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "probabilities": [0.5, 0.5],
            "games": {"A": [19, 1]},
            "rate": {"value": 0.05},
        }))
        rc, out, _ = run(capsys, ["ls-price", str(path)])
        assert rc == 0
        assert "standalone=7.224 ls=7.224" in out

    def test_constant_mix_pins_both_prices(self, capsys, tmp_path):
        path = tmp_path / "ex11.json"
        path.write_text(json.dumps({
            "probabilities": [0.5, 0.5],
            "games": {"A": [19, 1], "B": [4, 16]},
            "rate": {"value": 0.05},
        }))
        rc, out, _ = run(capsys, ["ls-price", str(path)])
        assert rc == 0
        assert out.count("ls=9.512") == 2

    def test_a_tolerance_that_sends_the_oracle_at_zero_to_the_dual(self, capsys):
        # between example 13's uniform excess and L(0) - 1: the oracle at
        # x = 0 runs and hands its worst mix to the dual, which ends where
        # the default solve does
        path = str(ROOT / "sample_games" / "example13.json")
        rc, out, _ = run(capsys, ["ls-price", path, "--tol-ls", "0.0013109",
                                  "--format", "json"])
        assert rc == 0
        assert out == run(capsys, ["ls-price", path, "--format", "json"])[1]

    def test_csv_prints_plain_numbers(self, capsys):
        rc, out, _ = run(capsys, ["ls-price", str(ROOT / "sample_games" / "intro.json"),
                                  "--format", "csv"])
        assert rc == 0
        header, *rows = out.strip().splitlines()
        assert header == "game,standalone,ls_price,x"
        # every game in file order, B (priced by linearity) included
        assert [row.split(",")[0] for row in rows] == ["A", "B", "C"]
        for row in rows:
            for field in row.split(",")[1:]:
                float(field)


class TestSimulateAndSweep:
    def test_simulate_defaults_to_solved_price(self, capsys, intro):
        rc, out, _ = run(capsys, [
            "simulate", "--game", "B", "--attempts", "50", "--paths", "5",
            "--format", "json", intro,
        ])
        assert rc == 0
        doc = json.loads(out)
        assert doc["mean_growth"] == pytest.approx(math.exp(0.05), rel=1e-12)
        assert doc["failed_paths"] == 0

    def test_simulate_csv(self, capsys, intro):
        rc, out, _ = run(capsys, [
            "simulate", "--game", "B", "--attempts", "50", "--paths", "5",
            "--format", "csv", intro,
        ])
        assert rc == 0
        header, row = out.splitlines()
        assert header == "price,proportion,mean_growth,var_growth,ci,failed_paths"
        assert row.split(",")[-1] == "0"
        for cell in row.split(","):
            float(cell)

    def test_simulate_with_a_variance_past_the_float_range(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"probabilities": [0.5, 0.5],
                                    "games": {"A": [1e300, 1e290]},
                                    "rate": {"value": 0.05}}))
        argv = ["simulate", str(path), "--game", "A", "--u", "1e100", "--t", "1",
                "--attempts", "10", "--paths", "5"]
        rc, _, err = run(capsys, argv)
        assert rc == 0 and err == ""
        rc, out, err = run(capsys, argv + ["--format", "json"])
        assert rc == 0 and err == ""
        # strict JSON: no Infinity or NaN constant; a non-finite number is
        # the string float() reads back
        doc = json.loads(out, parse_constant=_no_constant)
        assert doc["var_growth"] == "inf" and float(doc["var_growth"]) == math.inf

    def test_simulate_table(self, capsys, intro):
        rc, out, _ = run(capsys, [
            "simulate", "--game", "B", "--attempts", "50", "--paths", "5", intro,
        ])
        assert rc == 0
        (line,) = out.splitlines()
        assert [cell.split("=")[0] for cell in line.split()] == [
            "u", "t", "mean_growth", "var_growth", "ci", "failed_paths"]
        assert line.endswith(" failed_paths=0")

    def test_sweep_json(self, capsys, intro):
        rc, out, _ = run(capsys, [
            "sweep", "--game", "A", "--points", "3", "--attempts", "50",
            "--paths", "5", "--format", "json", intro,
        ])
        assert rc == 0
        docs = json.loads(out)
        assert len(docs) == 3
        assert all(list(d) == ["t", "mean_growth", "var_growth", "ci"] for d in docs)
        assert [d["t"] for d in docs] == [0.0, 0.5, 1.0]

    def test_sweep_table(self, capsys, intro):
        rc, out, _ = run(capsys, [
            "sweep", "--game", "A", "--points", "3", "--attempts", "50",
            "--paths", "5", "--format", "table", intro,
        ])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "t        mean_growth"
        assert len(lines) == 4
        assert lines[1].split() == ["0.000", "1"]

    def test_sweep_at_a_given_price_solves_no_price(self, capsys, monkeypatch, intro):
        def refuse(*args, **kwargs):
            raise AssertionError("price_general called")

        monkeypatch.setattr(gameprice.cli, "price_general", refuse)
        rc, out, _ = run(capsys, [
            "sweep", "--game", "A", "--u", "7", "--points", "3", "--attempts", "50",
            "--paths", "5", intro,
        ])
        assert rc == 0
        assert len(out.splitlines()) == 4

    def test_sweep_default_csv(self, capsys, intro):
        rc, out, _ = run(capsys, [
            "sweep", "--game", "A", "--points", "3", "--attempts", "50",
            "--paths", "5", intro,
        ])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,mean_growth,var_growth,ci"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == 1.0  # t = 0 row


class TestCompareAndParity:
    def test_compare_json(self, capsys, remark35):
        rc, out, _ = run(capsys, ["compare-mv", "--format", "json", remark35])
        assert rc == 0
        doc = json.loads(out)
        assert doc["w_onefund"] == pytest.approx(0.2932, abs=1e-3)
        assert doc["price_star"] == pytest.approx(21.4134, abs=1e-3)
        assert len(doc["allocation"]) == 3
        # Remark 3.5: the certified best blend weight, priced at least as high
        # as the one-fund blend
        assert abs(doc["w_star"] - 0.3514) <= 1e-3
        assert doc["price_star"] >= doc["price_onefund"]

    def test_compare_csv_has_the_json_scalars(self, capsys, remark35):
        _, out, _ = run(capsys, ["compare-mv", "--format", "json", remark35])
        doc = json.loads(out)
        rc, out, _ = run(capsys, ["compare-mv", "--format", "csv", remark35])
        assert rc == 0
        header, row = out.splitlines()
        assert header.split(",") == [k for k in doc if not isinstance(doc[k], list)]
        assert len(row.split(",")) == len(header.split(","))

    def test_compare_table(self, capsys, remark35):
        rc, out, _ = run(capsys, ["compare-mv", remark35])
        assert rc == 0
        lines = out.splitlines()
        assert [line.split("=")[0].split(":")[0] for line in lines] == [
            "u_X", "r_X", "one-fund", "best mix", "t*"]
        assert lines[-1].split("allocation=")[1].count(",") == 2

    @pytest.mark.parametrize("x, message", [
        # no variance, one-fund test or oracle step overflows; the oracle
        # stalls on denominators 1e200 apart per unit of ceiling
        ([1e200, 1], "error: separation oracle stalled"),
        # the oracle's ray peak price / (p . adj)^2 underflows to 0, where
        # its Hessian would divide by it
        ([1e-200, 1e-201], "error: separation oracle: the ray's peak"),
    ], ids=["1e200", "1e-200"])
    def test_compare_on_a_game_near_1e200_is_an_error_not_a_traceback(
            self, capsys, tmp_path, x, message):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**REMARK35, "games": {"X": x, "Y": [30.6191, 14]}}))
        rc, _, err = run(capsys, ["compare-mv", str(path)])
        assert rc == 1 and len(err.splitlines()) == 1, err
        assert err.startswith(message), err

    def test_parity_table(self, capsys, remark35):
        rc, out, _ = run(capsys, [
            "parity", "--stock", "S", "--strike", "10",
            "--rate", "0.05", "--convention", "continuous", remark35,
        ])
        assert rc == 0
        assert "residual" in out

    def test_parity_degenerate(self, capsys, remark35):
        rc, out, _ = run(capsys, [
            "parity", "--stock", "S", "--strike", "100",
            "--rate", "0.05", "--convention", "continuous", remark35,
        ])
        assert rc == 0
        assert "degenerate" in out


class TestPaperExamples:
    def test_full_run_has_14_passing_rows(self, capsys):
        rc, out, _ = run(capsys, ["paper-examples", "--format", "json"])
        assert rc == 0
        docs = json.loads(out)
        assert len(docs) == 14
        assert all(d["passed"] for d in docs)

    def test_filter_single_row(self, capsys):
        rc, out, _ = run(capsys, ["paper-examples", "--only", "remark3.2"])
        assert rc == 0
        lines = [l for l in out.strip().splitlines() if l]
        assert len(lines) == 2  # the row and the summary
        assert "PASS" in lines[0]

    def test_json_format(self, capsys):
        rc, out, _ = run(capsys, [
            "paper-examples", "--only", "theorem1.1", "--format", "json",
        ])
        assert rc == 0
        docs = json.loads(out)
        assert all(d["passed"] for d in docs)
        assert len(docs) == 3

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, ["paper-examples", "--format", "csv"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "id,passed,expected,computed"
        assert len(lines) == 15
        assert all(line.split(",")[1] == "True" for line in lines[1:])

    def test_unmatched_filter(self, capsys):
        rc, _, err = run(capsys, ["paper-examples", "--only", "nonsense"])
        assert rc == 2
        assert "no checks match" in err
