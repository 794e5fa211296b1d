"""Guards on removed mechanisms of the least-squares solver, and on the
least-squares answers of the command line.

Each of the first tests keeps a mechanism that was replaced from coming
back: a second scale for the climbs, a second feasible set, a second QR of
the games per solve, a constant-mix probe in the solve, a second
orthogonalization kernel and an oracle climb that the uniform mix makes
unnecessary. The ls-price tests run `gameprice ls-price` through cli.main on
inputs that once broke it; each passes only when the command exits 0 and,
where the input has one, its checked answer holds.
"""

import inspect
import json
import re
from pathlib import Path

import pytest

from gameprice import (
    ConeBasis,
    Game,
    Rate,
    cli,
    fair_coin,
    least_squares_prices,
    load_game_file,
    lsq,
)

ROOT = Path(__file__).resolve().parents[1]


def _solve(name):
    gf = load_game_file(str(ROOT / "sample_games" / f"{name}.json"))
    return least_squares_prices(ConeBasis(gf.space, gf.games.values()), gf.rate)


def _record_calls(monkeypatch, owner, name):
    """Record the positional arguments of each call of owner.<name>."""
    calls, function = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or function(*args))
    return calls


def test_value_grad_hess_keeps_one_scale():
    # value_grad_hess prices each mix per unit of ceiling as it is, with no
    # rescaling by its largest payoff
    source = inspect.getsource(lsq._LsqProblem._value_grad_hess)
    assert not re.findall(r"\btop\b|max\(a\)", source)


def test_projected_newton_has_one_feasible_set():
    # the oracle, like the dual, climbs on weights >= 0
    assert "simplex" not in inspect.signature(lsq._projected_newton).parameters


def test_one_qr_of_the_games_per_solve(monkeypatch):
    # the reduction and the constant-mix test share it when no game is dropped
    calls = _record_calls(monkeypatch, lsq, "_unit_qr")
    _solve("example13")
    assert len(calls) == 1


def test_the_solve_asks_only_whether_a_constant_mix_exists(monkeypatch):
    # on (19, 1), (10, 10) its NNLS leaves game 0 out, and no homogenized
    # probe (a column of -1s) follows
    calls = _record_calls(monkeypatch, lsq, "_nnls_cols")
    least_squares_prices(ConeBasis(fair_coin(), [Game([19, 1]), Game([10, 10])]),
                         Rate(0.05))
    assert calls and not any(min(map(min, args[0])) < 0.0 for args in calls)


def test_newton_split_projects_through_the_householder_qr(monkeypatch):
    # one orthogonalization kernel: the flat directions of a rank-one H are
    # projected out through the NNLS's Householder QR
    calls = _record_calls(monkeypatch, lsq, "_householder")
    lsq._newton_split([[-1.0, -1.0], [-1.0, -1.0]], [1.0, 0.0])
    assert len(calls) == 1


def test_the_oracle_climbs_only_where_the_uniform_mix_leaves_it_open(monkeypatch):
    # example 13 takes one climb, the certificate's, and example 12 still
    # ends linear; a constant mix (example 11, intro) is its own
    # certificate, with no climb
    calls = _record_calls(monkeypatch, lsq._LsqProblem, "maximize")
    assert [_solve(name).termination for name in ("example11", "intro")] == [
        "constant_mix"] * 2
    assert not calls
    _solve("example13")
    assert len(calls) <= 1
    assert _solve("example12").termination == "linear"


# inputs of `gameprice ls-price` that once broke it, by name
LS_INPUTS = {
    # one free coordinate, B, on which the tight mix puts only 7e-4: the
    # dual's maximizer still lands on the root of L(1, s, 1) = 1
    "light-mix": {
        "probabilities": [0.19260668218462157, 0.38268946492998346, 0.42470385288539486],
        "games": {"A": [16.519473978223758, 5.561914742826162, 5.18765198276563],
                  "B": [1.1989547071332123, 13.025124643794816, 0.630364597159615],
                  "C": [12.408997830948268, 14.045392493773656, 14.091032958410597]},
        "rate": {"value": 0.01, "convention": "continuous"}},
    # a square basis (draw 10 of the seed-7 stress): the ratio is affine
    # along the cash direction M^-1 1, so the oracle must step along it to a
    # bound
    "square": {
        "probabilities": [0.31340053218074154, 0.16541961558850002, 0.5211798522307585],
        "games": {"A": [0.9169022408044045, 0.0, 0.0],
                  "B": [622.5866468548728, 303.00151573962995, 1485.7088068736819],
                  "C": [1.0795367702147718, 0.2141339671471276, 1.278898516773987]},
        "rate": {"value": 0.07730162839028469, "convention": "continuous"}},
    # game scales 1e5 apart (a wide-scale stress draw): the dual measures
    # each game on the scale of its ceiling, and its answer is certified
    "wide": {
        "probabilities": [0.12157906938520102, 0.01921751446856402, 0.12298907495518294,
                          0.5976038708302068, 0.11228951094088162, 0.02632095941996365],
        "games": {"A": [0.0, 3740.0301049058453, 1591.3798017047532, 10797.595959447186,
                        1360.5793947250274, 6505.929450199975],
                  "B": [0.035218654483545685, 0.012423742164546907, 0.033199637403734585,
                        0.0, 0.020870435347919308, 0.0]},
        "rate": {"value": 0.00016960036427262663, "convention": "continuous"}},
    # a payoff whose square overflows: ((a - u) / D)^2 stays finite where
    # (a - u)^2 overflows
    "big-payoff": {"probabilities": [0.4, 0.6], "games": {"A": [1e200, 1]},
                   "rate": {"value": 0.05}},
    # games 1e200 or more apart: both climbs measure each game per unit of
    # its ceiling
    "apart-201": {"probabilities": [0.33, 0.26, 0.41],
                  "games": {"A": [7.5e200, 1.4e201, 1.3e201], "B": [7.2, 20, 16.7]},
                  "rate": {"value": 0.066}},
    "apart-200": {"probabilities": [0.2, 0.3, 0.5],
                  "games": {"A": [1e200, 1, 5], "B": [2, 3, 1]}, "rate": {"value": 0.05}},
    "apart-300": {"probabilities": [0.2, 0.3, 0.5],
                  "games": {"A": [3e-300, 1e-300, 2e-300], "B": [1, 2, 3]},
                  "rate": {"value": 0.05}},
    # games 1e517 apart, and ceilings 6.7e-55 and 4.0e-83 whose product
    # underflows: every mix is per unit of ceiling, so no mix underflows,
    # and both end certified
    "apart-517": {
        "probabilities": [0.1278721278721279, 0.27772227772227775, 0.15184815184815187,
                          0.23476523476523478, 0.2077922077922078],
        "games": {"A": [0, 7.1e+273, 4.5e+273, 2.3e+273, 5.2e+273],
                  "B": [2.5e+169, 7.7e+169, 4.1e+169, 1.3e+169, 5.6e+169],
                  "C": [1.1e-244, 2.2e-244, 1.1e-244, 2.6e-244, 0]},
        "rate": {"value": 0.025}},
    "tiny-ceilings": {"probabilities": [0.26996350895349364, 0.7300364910465064],
                      "games": {"A": [0.046895393982378526, 3.510412903439512e-09],
                                "B": [2.782976814602153e-30, 0.0]},
                      "rate": {"value": 120.36376549068146}},
    # a game twice another near 1e-300: the NNLS column norms must not
    # underflow, so the second is dropped and priced by linearity
    "tiny-pair": {"probabilities": [0.5, 0.5],
                  "games": {"A": [1e-300, 2e-300], "B": [2e-300, 4e-300]},
                  "rate": {"value": 0.05}},
}


def _ls_price(capsys, tmp_path, name, *options):
    """(exit code, stdout, stderr) of `gameprice ls-price` on an input: a
    file of sample_games, or one of LS_INPUTS written under tmp_path."""
    if name in LS_INPUTS:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(LS_INPUTS[name]))
    else:
        path = ROOT / "sample_games" / f"{name}.json"
    code = cli.main(["ls-price", str(path), *options])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", ["redundant3", "tiny-pair"])
def test_a_game_in_the_cone_of_others_is_priced_by_linearity(capsys, tmp_path, name):
    # a game that is a multiple of another is dropped from the basis on any
    # outcome space, also near 1e-300, and priced by linearity
    code, out, _ = _ls_price(capsys, tmp_path, name)
    assert code == 0
    assert "priced by linearity" in out


def test_the_json_lists_every_game_in_the_file(capsys, tmp_path):
    # B = 2 A priced by linearity
    code, out, _ = _ls_price(capsys, tmp_path, "redundant3", "--format", "json")
    assert code == 0
    p = json.loads(out)["prices"]
    assert len(p) == 3 and abs(p[1] - 2 * p[0]) <= 1e-12 * p[1]


@pytest.mark.parametrize("name, check", [
    ("light-mix",
     lambda doc: abs(doc["x"][1] - 0.99555884379) <= 1e-8 and doc["max_violation"] <= 1e-12),
    ("square", lambda doc: doc["max_violation"] <= 1e-9),
    ("wide",
     lambda doc: doc["max_violation"] <= 1e-12 and abs(doc["x"][0] - 0.86715098) <= 1e-6),
    ("apart-517", lambda doc: doc["max_violation"] <= 1e-9),
    ("tiny-ceilings", lambda doc: doc["max_violation"] <= 1e-9),
])
def test_hard_bases_end_certified(capsys, tmp_path, name, check):
    code, out, _ = _ls_price(capsys, tmp_path, name, "--format", "json")
    assert code == 0
    assert check(json.loads(out))


@pytest.mark.parametrize("name", ["big-payoff", "apart-201", "apart-200", "apart-300"])
def test_extreme_payoffs_are_priced_without_a_traceback(capsys, tmp_path, name):
    code, _, err = _ls_price(capsys, tmp_path, name)
    assert code == 0
    assert "Traceback" not in err
