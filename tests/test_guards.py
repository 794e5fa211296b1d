"""Guards on removed mechanisms of the library, and on the answers of the
command line.

Each of the first tests keeps a mechanism that was replaced from coming
back: in the least-squares solver a second scale for the climbs, a second
feasible set, a second QR of the games per solve, a constant-mix probe in
the solve, a second orthogonalization kernel, an oracle climb that the
uniform mix makes unnecessary, a climb policy outside _projected_newton and
a reader of a climb's state outside lsq.py; then removed names and rules
anywhere in the package, searched for in its sources, and the signatures,
records and price solve that replaced them. The command-line tests run
`gameprice` through cli.main on inputs that once broke it: ls-price, which
passes only when the command exits 0 and, where the input has one, its
checked answer holds; then price at extreme rates and payoffs, and simulate
at an infinite price, each with the exit code and answer it must give; then
put-call parity on three outcomes. The last test asks two cone questions in
a fresh interpreter where scipy cannot be imported: the largest support of
a constant mix, and the basis of a proportional pair.
"""

import ast
import inspect
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from gameprice import (
    ConeBasis,
    Game,
    Mix,
    OutcomeSpace,
    Rate,
    cli,
    core,
    fair_coin,
    geometric_mean,
    least_squares_prices,
    load_game_file,
    lsq,
    portfolio,
    pricer,
    reference,
    simulate,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LSQ = SRC / "gameprice" / "lsq.py"


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


def test_projected_newton_owns_the_stop_and_accept_rules():
    # both climbs hand it only their evaluation and their first state, whose
    # one layout carries what its stop rule and its accept rule read
    assert list(inspect.signature(lsq._projected_newton).parameters) == ["evaluate", "state"]
    defined = {node.name for node in ast.walk(ast.parse(LSQ.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"certified", "accept"}


def test_only_lsq_reads_a_climb():
    # maximize and _max_dual return the state their climb ends on, and
    # outside lsq.py the oracle, which reads it there, is its one reader
    assert [hit for hit in _grep(r"\.maximize\(|\braw_mix\b|\b_max_dual\b|_projected_newton")
            if not hit.startswith("src/gameprice/lsq.py:")] == []


def _grep(pattern, path=SRC):
    """grep -rn of a regular expression in the package's Python sources under
    path, a directory or one file: the matching lines, as file:line: text."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return [f"{f.relative_to(ROOT)}:{i}: {line}" for f in files
            for i, line in enumerate(f.read_text().splitlines(), 1)
            if re.search(pattern, line)]


def _words(*names):
    """A pattern matching any of the names as a whole word, as grep -w does."""
    return r"(?<!\w)(?:" + "|".join(map(re.escape, names)) + r")(?!\w)"


@pytest.mark.parametrize("pattern, path", [
    # the reduction alone judges a basis: no pair rule in ConeBasis, no
    # bypass of it
    pytest.param(r"_ray_residual|_unchecked", SRC, id="pair-rule"),
    # optimal_proportion runs on the price solve's kernel: no second stake
    # solver
    pytest.param(_words("_opt_t", "_dgrowth", "T_TOL", "_tmax_raw"), SRC, id="stake-solver"),
    # one growth kernel, one regime test and one cone tolerance
    pytest.param(_words("_elg"), SRC, id="growth-kernel"),
    pytest.param(r"1e-13", LSQ, id="cone-tolerance"),
    # one entry rule in the NNLS: no second entry test beside its loop
    pytest.param(r"_orthogonal_entry", LSQ, id="nnls-entry"),
    # squares are products: float ** raises OverflowError where * gives inf
    pytest.param(r"\*\* *(2|nu)\b", SRC, id="float-power"),
    # every record builds through _Record's one constructor
    pytest.param(r"cached_property", SRC, id="cached-property"),
    # one price solve for every game: no fair-coin closed form
    pytest.param(_words("_price_fair"), SRC, id="fair-coin"),
    # one fallback for the price solve, Newton at the optimal stake from lo:
    # no step cap before it
    pytest.param(_words("NEWTON_ITER"), SRC, id="newton-cap"),
    # the CLI reads its input through one helper, _inputs, and prints
    # through one, _show
    pytest.param(_words("_resolve_rate", "_resolve_u_t", "_pick_game"), SRC, id="cli-input"),
])
def test_removed_names_stay_removed(pattern, path):
    assert not _grep(pattern, path)


def test_cone_questions_take_no_tolerance():
    assert [f for f in ("check_constant_mix", "check_linear_pricing", "cone_coordinates",
                        "in_cone")
            if "tol" in inspect.signature(getattr(lsq, f)).parameters] == []


def test_every_record_builds_through_one_constructor():
    # no subclass of _Record has its own __init__; its arrays come from
    # core._array. cli, lsq, portfolio, reference and simulate are imported
    # above, so their subclasses are listed
    todo = core._Record.__subclasses__()
    for c in todo:
        todo.extend(c.__subclasses__())
    assert [c.__name__ for c in todo if "__init__" in vars(c)] == []


def test_records_replace_with_their_own_fields():
    s = OutcomeSpace([0.25, 0.75])
    records = (s, Game([19, 1]), Mix([0.5, 0.5]), ConeBasis(s, [Game([19, 1])]))
    assert all(r.replace() == r
               and r.replace(**{r._fields[-1]: getattr(r, r._fields[-1])}) == r
               for r in records)


def test_series_truncation_takes_no_tolerance_or_term_cap():
    # SERIES_TOL and SERIES_MAX_TERMS are module constants
    assert [f for f in ("truncate_series", "price_series")
            if any("tol" in p or "terms" in p
                   for p in inspect.signature(getattr(pricer, f)).parameters)] == []


def test_lsq_keeps_only_what_the_library_runs():
    # no array wrappers on _LsqProblem, no array NNLS, no seed mixes for a
    # solve
    prob = lsq._LsqProblem(ConeBasis(OutcomeSpace([0.5, 0.5]), [Game([1.0, 2.0])]),
                           Rate(0.05))
    assert (["seed_mixes"] * ("seed_mixes" in inspect.signature(
                lsq.least_squares_prices).parameters)
            + [a for a in ("u", "d", "adjusted", "big_L", "scale", "ratio")
               if hasattr(lsq._LsqProblem, a) or a in vars(prob)]
            + ["_nnls"] * hasattr(lsq, "_nnls")) == []


def test_one_price_solve_for_every_game():
    # pricer._price_numeric prices every game: no force_numeric switch, no
    # fair-coin closed form and no route rule
    assert "force_numeric" not in inspect.signature(pricer.price_general).parameters
    assert re.findall(r"\b(?:_price_fair|is_fair_coin)\b", LSQ.read_text()) == []


def test_the_pricer_has_no_second_price_route():
    assert not hasattr(pricer, "_price")


def test_the_newton_fallback_stays_in_its_bracket_on_a_near_constant_coin():
    pay, rate = (15.054335981344655, 15.054224284221291), Rate(6.865175095072118e-12, "simple")
    u, t = pricer._price_numeric(pay, (0.5, 0.5), rate)
    assert u >= geometric_mean(Game(pay), fair_coin()) / rate.growth_factor() and 0.0 < t < 1.0


# inputs of `gameprice` that once broke it, by name
INPUTS = {
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
    # a zero payoff at a high rate: the price, ~5e-89, lies far below E * 1e-9
    "zero-payoff": {"probabilities": [0.9, 0.1], "games": {"A": [0, 1]}},
    # a payoff over the price overflows, but the price, ~9.4364e-136, is a
    # normal float
    "overflow": {"probabilities": [0.4, 0.6], "games": {"A": [1e300, 1e-300]},
                 "rate": {"value": 400}},
    # a price below the smallest normal float, ~3.4e-474 in full
    # investment, is an error of the input, not an internal one
    "underflow": {"probabilities": [0.2, 0.3, 0.5],
                  "games": {"A": [3e-300, 1e-300, 2e-300]}, "rate": {"value": 400}},
}


def _gameprice(capsys, tmp_path, command, name, *options):
    """(exit code, stdout, stderr) of `gameprice <command>` on an input: a
    file of sample_games, or one of INPUTS written under tmp_path."""
    if name in INPUTS:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(INPUTS[name]))
    else:
        path = ROOT / "sample_games" / f"{name}.json"
    code = cli.main([command, str(path), *options])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", ["redundant3", "tiny-pair"])
def test_a_game_in_the_cone_of_others_is_priced_by_linearity(capsys, tmp_path, name):
    # a game that is a multiple of another is dropped from the basis on any
    # outcome space, also near 1e-300, and priced by linearity
    code, out, _ = _gameprice(capsys, tmp_path, "ls-price", name)
    assert code == 0
    assert "priced by linearity" in out


def test_the_json_lists_every_game_in_the_file(capsys, tmp_path):
    # B = 2 A priced by linearity
    code, out, _ = _gameprice(capsys, tmp_path, "ls-price", "redundant3", "--format", "json")
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
    code, out, _ = _gameprice(capsys, tmp_path, "ls-price", name, "--format", "json")
    assert code == 0
    assert check(json.loads(out))


@pytest.mark.parametrize("name", ["big-payoff", "apart-201", "apart-200", "apart-300"])
def test_extreme_payoffs_are_priced_without_a_traceback(capsys, tmp_path, name):
    code, _, err = _gameprice(capsys, tmp_path, "ls-price", name)
    assert code == 0
    assert "Traceback" not in err


@pytest.mark.parametrize("name, options, code, price", [
    # at r = 20, g exceeds 1e8 and 1 - 1/g^2 rounds to 1: game A is still
    # priced, in full investment
    pytest.param("intro", ["--rate", "20"], 0, None, id="rate-20"),
    # a zero payoff at a high rate (see INPUTS): the price, not the bracket's
    # lower end
    pytest.param("zero-payoff", ["--rate", "20", "--format", "json"], 0,
                 5.3614986911377856e-89, id="zero-payoff"),
    # a continuous rate whose growth factor overflows is an invariant violation
    pytest.param("intro", ["--rate", "710"], 3, None, id="rate-710"),
    # at r = 400, 1/g^2 underflows; game A is in full investment, priced at
    # sqrt(19)/g
    pytest.param("intro", ["--rate", "400"], 0, None, id="rate-400"),
    # a payoff whose square overflows: the price solve starts from its bracket
    pytest.param("big-payoff", [], 0, None, id="big-payoff"),
])
def test_price_at_extreme_rates_and_payoffs_exits_as_it_should(
        capsys, tmp_path, name, options, code, price):
    got, out, _ = _gameprice(capsys, tmp_path, "price", name, "--game", "A", *options)
    assert got == code
    if price is not None:
        assert abs(json.loads(out)["price"] - price) <= 1e-9 * price


def test_a_price_whose_payoff_over_it_overflows_is_a_normal_float(capsys, tmp_path):
    code, out, _ = _gameprice(capsys, tmp_path, "price", "overflow", "--game", "A",
                              "--format", "json")
    assert code == 0
    u = json.loads(out)["price"]
    assert abs(u - 9.4364e-136) <= 1e-4 * u


@pytest.mark.parametrize("command, options", [
    pytest.param("price", ["--game", "A"], id="price"),
    pytest.param("ls-price", [], id="ls-price"),
])
def test_a_price_below_the_float_range_is_an_input_error(capsys, tmp_path, command, options):
    code, _, err = _gameprice(capsys, tmp_path, command, "underflow", *options)
    assert code == 1
    assert "not representable" in err
    assert not re.search(r"internal error|Traceback", err)


def test_a_simulation_at_an_infinite_price_is_an_invariant_violation(capsys, tmp_path):
    code, _, _ = _gameprice(capsys, tmp_path, "simulate", "intro", "--game", "A", "--u", "inf")
    assert code == 3


def test_three_outcome_parity_holds_to_1e7_of_the_strike(capsys, tmp_path):
    # put + covered = strike is a constant mix on three outcomes too
    code, out, _ = _gameprice(capsys, tmp_path, "parity", "stock3", "--strike", "9",
                              "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["residual"]) < 1e-7 * doc["strike"]


def test_the_cone_questions_need_no_scipy():
    # in a fresh interpreter where scipy cannot be imported: the largest
    # support of a constant mix among dependent games, and a proportional
    # pair, whose solve keeps one game and prices the other by linearity
    script = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {str(SRC)!r})
        sys.modules["scipy"] = None
        from gameprice import (ConeBasis, Game, Rate, check_constant_mix, fair_coin,
                               least_squares_prices)
        dependent = [Game([19, 1]), Game([10, 10]), Game([5, 5])]
        support = check_constant_mix(ConeBasis(fair_coin(), dependent))[1]
        pair = ConeBasis(fair_coin(), [Game([2, 4]), Game([5, 10])])
        sol = least_squares_prices(pair, Rate(0.05))
        print(json.dumps([support, sol.basis, sol.price_tuple]))
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    support, basis, p = json.loads(done.stdout)
    assert support == [1, 2]
    assert basis == [0] and abs(p[1] - 2.5 * p[0]) <= 1e-14 * p[1]
