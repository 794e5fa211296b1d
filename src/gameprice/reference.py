"""Published worked-example values the library reproduces, as runnable checks.

Each check compares a computed quantity against the printed reference value
at the tolerance of the printed precision (3-4 decimals). The CLI's
paper-examples command renders these rows; ids are filterable by substring
(e.g. "remark3.2").
"""

from __future__ import annotations

import math
from functools import cache

from .core import ConeBasis, Game, Rate, _dot, _Record, fair_coin, mix_game, st_petersburg
from .lsq import least_squares_prices
from .portfolio import compare_mean_variance, put_call_parity
from .pricer import KappaContext, price_general, price_series

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Optional

R_CONT = Rate(0.05, "continuous")
R_SIMPLE = Rate(0.02, "simple")


class CheckResult(_Record):
    check_id: str
    description: str
    expected: str
    computed: str
    passed: bool


def _close(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


def _coin_basis(pairs) -> ConeBasis:
    return ConeBasis(fair_coin(), [Game(p) for p in pairs])


def _check_game_a_price():
    res = price_general(Game([19, 1]), fair_coin(), R_CONT)
    return _close(res.price, 7.224, 5e-4), "u = 7.224 +- 5e-4", f"u = {res.price:.6f}"


def _check_game_a_proportion():
    res = price_general(Game([19, 1]), fair_coin(), R_CONT)
    return (
        _close(res.proportion, 0.274, 5e-4),
        "t = 0.274 +- 5e-4",
        f"t = {res.proportion:.6f}",
    )


def _check_kappa():
    k = KappaContext.from_rate(R_CONT).kappa
    return _close(k, 0.3458, 5e-5), "kappa = 0.3458 +- 5e-5", f"kappa = {k:.7f}"


def _check_game_b():
    res = price_general(Game([10, 10]), fair_coin(), R_CONT)
    ok = _close(res.price, 9.512, 5e-4) and res.proportion == 1.0
    return ok, "u = 9.512 +- 5e-4, t = 1", f"u = {res.price:.6f}, t = {res.proportion}"


_EX11 = [(19, 1), (4, 16)]


@cache
def _example11():
    """Least-squares prices of example 1.1, shared by its two checks."""
    return least_squares_prices(_coin_basis(_EX11), R_CONT)


def _check_example11_prices():
    sol = _example11()
    target = 10.0 / math.exp(0.05)
    ok = all(_close(p, target, 1e-4) for p in sol.price_tuple)
    return (
        ok,
        f"both prices = {target:.4f} +- 1e-4",
        "prices = ({:.6f}, {:.6f})".format(*sol.price_tuple),
    )


def _check_example11_certificate():
    basis = _coin_basis(_EX11)
    sol = _example11()
    q = sol.certificate
    mix_price = price_general(mix_game(basis, q), fair_coin(), R_CONT).price
    linear = _dot(q.weight_tuple, sol.price_tuple)
    tight = abs(mix_price - linear) <= 1e-7 * linear
    near = max(abs(w - t) for w, t in zip(q.weight_tuple, (0.4, 0.6))) <= 1e-3
    return (
        tight and near,
        "tight mix = (0.4, 0.6) +- 1e-3",
        "q = ({:.6f}, {:.6f})".format(*q.weight_tuple),
    )


def _check_example12():
    sol = least_squares_prices(_coin_basis([(19, 1), (16, 4)]), R_CONT)
    prices = sol.price_tuple
    x_max = max(map(abs, sol.x_tuple))
    ok = (_close(prices[0], 7.224, 5e-4) and _close(prices[1], 8.149, 5e-4)
          and x_max <= 1e-6)
    return (
        ok,
        "prices = (7.224, 8.149), x = (0, 0)",
        f"prices = ({prices[0]:.6f}, {prices[1]:.6f}), |x| = {x_max:.2e}",
    )


def _check_example13():
    sol = least_squares_prices(_coin_basis([(12, 8), (11, 9)]), R_CONT)
    prices = sol.price_tuple
    sandwich = all(
        u < p < c for u, p, c in zip(sol.standalone_tuple, prices, sol.ceiling_tuple)
    )
    ok = _close(prices[0], 9.345, 1e-3) and _close(prices[1], 9.469, 1e-3) and sandwich
    return (
        ok,
        "prices = (9.345, 9.469) +- 1e-3, strict sandwich",
        f"prices = ({prices[0]:.6f}, {prices[1]:.6f})",
    )


def _check_st_petersburg():
    res = price_series(st_petersburg(), R_CONT)
    ok = _close(res.price, 4.816, 1e-3) and _close(res.proportion, 0.204, 1e-3)
    return (
        ok,
        "u = 4.816 +- 1e-3, t = 0.204 +- 1e-3",
        f"u = {res.price:.6f}, t = {res.proportion:.6f}",
    )


def _check_parity():
    rep = put_call_parity(Game([12, 8]), fair_coin(), 10.0, R_CONT)
    ok = not rep.degenerate and abs(rep.residual) < 1e-7 * rep.strike
    return (
        ok,
        "|residual| < 1e-7 * K",
        f"residual = {rep.residual:.3e}" if not rep.degenerate else "degenerate",
    )


_X = Game([50, 1])
_Y = Game([30.6191, 14])


@cache
def _remark35():
    """The Remark 3.5 fund comparison, shared by three checks."""
    return compare_mean_variance(_X, _Y, R_SIMPLE)


def _check_remark35_standalone():
    u_x = price_general(_X, fair_coin(), R_SIMPLE).price
    u_y = price_general(_Y, fair_coin(), R_SIMPLE).price
    ok = _close(u_x, 20.6721, 1e-3) and _close(u_y, 20.6721, 1e-3)
    return (
        ok,
        "u_X = u_Y = 20.6721 +- 1e-3",
        f"u_X = {u_x:.6f}, u_Y = {u_y:.6f}",
    )


def _check_remark35_onefund():
    comp = _remark35()
    ok = _close(comp.w_onefund, 0.2932, 1e-3) and _close(
        comp.price_onefund, 21.3995, 1e-3
    )
    return (
        ok,
        "w = 0.2932, price = 21.3995",
        f"w = {comp.w_onefund:.6f}, price = {comp.price_onefund:.6f}",
    )


def _check_remark35_best():
    comp = _remark35()
    ok = _close(comp.w_star, 0.3514, 1e-3) and _close(comp.price_star, 21.4134, 1e-3)
    return (
        ok,
        "w* = 0.3514, price = 21.4134",
        f"w* = {comp.w_star:.6f}, price = {comp.price_star:.6f}",
    )


def _check_remark35_allocation():
    comp = _remark35()
    target = (0.1484, 0.2738, 0.5778)
    ok = all(_close(a, b, 1e-3) for a, b in zip(comp.allocation, target))
    return (
        ok,
        "allocation = (0.1484, 0.2738, 0.5778) +- 1e-3",
        "allocation = ({:.6f}, {:.6f}, {:.6f})".format(*comp.allocation),
    )


CHECKS: list[tuple[str, str, Callable]] = [
    ("theorem1.1-gameA-price", "price of the (19, 1) coin game", _check_game_a_price),
    ("theorem1.1-gameA-proportion", "optimal stake for (19, 1)", _check_game_a_proportion),
    ("theorem1.1-kappa", "interior mixing coefficient at r = 0.05", _check_kappa),
    ("section1-gameB", "full-investment price of (10, 10)", _check_game_b),
    ("example1.1-prices", "both least-squares prices hit the ceiling", _check_example11_prices),
    ("example1.1-certificate", "tight mix recovers the constant game", _check_example11_certificate),
    ("example1.2-prices", "linear pricing keeps stand-alone prices", _check_example12),
    ("example1.3-prices", "strictly interior least-squares prices", _check_example13),
    ("remark3.2-stpetersburg", "price and stake of the doubling series game", _check_st_petersburg),
    ("remark3.4-parity", "put-call parity residual", _check_parity),
    ("remark3.5-standalone", "simple-rate prices of the two funds", _check_remark35_standalone),
    ("remark3.5-onefund", "one-fund weight and blend price", _check_remark35_onefund),
    ("remark3.5-best-mix", "price-maximizing blend", _check_remark35_best),
    ("remark3.5-allocation", "split across the two games and cash", _check_remark35_allocation),
]


def run_checks(only: Optional[str] = None) -> list[CheckResult]:
    results = []
    for check_id, description, fn in CHECKS:
        if only and only not in check_id:
            continue
        passed, expected, computed = fn()
        results.append(CheckResult(check_id, description, expected, computed, passed))
    return results
