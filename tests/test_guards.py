"""Guards on removed mechanisms of the least-squares solver.

Each test keeps a mechanism that was replaced from coming back: a second
scale for the climbs, a second feasible set, a second QR of the games per
solve, a constant-mix probe in the solve, a second orthogonalization kernel
and an oracle climb that the uniform mix makes unnecessary.
"""

import inspect
import re
from pathlib import Path

from gameprice import (
    ConeBasis,
    Game,
    Rate,
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
