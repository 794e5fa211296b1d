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


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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


class TestExitCodes:
    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["price", "--game", "A", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error" in err

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

    def test_degenerate_basis_exit_code(self, capsys, tmp_path):
        path = tmp_path / "prop.json"
        path.write_text(json.dumps({
            "probabilities": [0.5, 0.5],
            "games": {"A": [2, 2], "B": [10, 10]},
            "rate": {"value": 0.05},
        }))
        # a proportional pair reduces to its first game on any outcome space
        path2 = tmp_path / "prop3.json"
        path2.write_text(json.dumps({
            "probabilities": [0.4, 0.3, 0.3],
            "games": {"A": [2, 2, 2], "B": [10, 10, 10]},
            "rate": {"value": 0.05},
        }))
        for spec in (path, path2):
            rc, out, err = run(capsys, ["ls-price", str(spec)])
            assert rc == 0, err
            lines = out.splitlines()
            assert lines[0].startswith("A: standalone=1.902 ls=1.902")
            assert lines[1] == "B: ls=9.512 (priced by linearity)"

    def test_missing_rate_everywhere(self, capsys, tmp_path):
        path = tmp_path / "norate.json"
        path.write_text(json.dumps({
            "probabilities": [0.5, 0.5], "games": {"A": [19, 1]},
        }))
        rc, _, err = run(capsys, ["price", "--game", "A", str(path)])
        assert rc == 2
        assert "--rate" in err


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

    def test_unmatched_filter(self, capsys):
        rc, _, err = run(capsys, ["paper-examples", "--only", "nonsense"])
        assert rc == 2
        assert "no checks match" in err
