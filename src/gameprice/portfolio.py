"""Two-asset portfolio comparisons and the put-call parity check.

The mean-variance one-fund weight is computed from payoff variances and
rates of mean return (E/u - 1 at the growth-rate price), then compared with
the weight that actually maximizes the growth-rate price of the blended
fund. That weight comes from the least-squares solver's separation oracle,
which certifies its maximum to 1e-10 relative. Put-call parity is verified
through least-squares prices of the basis {put, call, stock-minus-call}.
"""

from __future__ import annotations

import math

from .core import (
    ConeBasis,
    Game,
    InvariantViolation,
    OutcomeSpace,
    PricingError,
    Rate,
    _check_aligned,
    _Record,
    expectation,
    fair_coin,
    variance,
)
from .lsq import LsSolution, _LsqProblem, least_squares_prices
from .pricer import price_general

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional


class FundComparison(_Record):
    """One-fund weight vs the price-maximizing weight for two coin games."""

    w_onefund: float
    fund_onefund: Game
    price_onefund: float
    w_star: float
    fund_star: Game
    price_star: float
    t_star: float
    allocation: tuple[float, float, float]
    u_x: float
    u_y: float
    r_x: float
    r_y: float
    var_x: float
    var_y: float

    def __post_init__(self):
        if self.price_star < self.price_onefund - 1e-9 * self.price_onefund:
            raise InvariantViolation("maximized price below the one-fund price")
        if min(self.allocation) < -1e-15 or abs(sum(self.allocation) - 1.0) > 1e-12:
            raise InvariantViolation("allocation must be nonnegative and sum to 1")

    def to_json_dict(self) -> dict:
        return {
            "u_x": self.u_x,
            "u_y": self.u_y,
            "r_x": self.r_x,
            "r_y": self.r_y,
            "v_x": self.var_x,
            "v_y": self.var_y,
            "w_onefund": self.w_onefund,
            "price_onefund": self.price_onefund,
            "w_star": self.w_star,
            "price_star": self.price_star,
            "t_star": self.t_star,
            "fund_onefund": list(self.fund_onefund.payoff_tuple),
            "fund_star": list(self.fund_star.payoff_tuple),
            "allocation": list(self.allocation),
        }


def joint_space(x: Game, y: Game) -> tuple[OutcomeSpace, Game, Game]:
    """Product space of two independent fair-coin games, with lifted payoffs."""
    if x.size != 2 or y.size != 2:
        raise InvariantViolation("joint space needs two two-outcome games")
    space = OutcomeSpace([0.25, 0.25, 0.25, 0.25])
    (x0, x1), (y0, y1) = x.payoff_tuple, y.payoff_tuple
    x4 = Game([x0, x0, x1, x1])
    y4 = Game([y0, y1, y0, y1])
    return space, x4, y4


def _coin_stats(g: Game, rate: Rate) -> tuple[float, float, float, float]:
    """(price, expectation, variance, rate of mean return) on the fair coin."""
    coin = fair_coin()
    u = price_general(g, coin, rate).price
    mean = expectation(g, coin)
    var = variance(g, coin)
    return u, mean, var, mean / u - 1.0


def one_fund_weight(x: Game, y: Game, rate: Rate) -> float:
    """Mean-variance one-fund weight on x, from Sharpe-style ratios (r_i - r)/v_i."""
    return _one_fund(x, y, rate, _coin_stats(x, rate), _coin_stats(y, rate))


def _one_fund(
    x: Game, y: Game, rate: Rate, stats_x: tuple, stats_y: tuple
) -> float:
    """one_fund_weight from the games' _coin_stats.

    Each ratio (r_i - r) / v_i is formed on the game scaled by 2^-e_i to a
    largest payoff in [0.5, 1), so that no variance underflows or
    overflows. The scaling is exact, and it multiplies v_i by 2^(-2 e_i)
    and leaves r_i, so both ratios are brought to the common scale
    2^(2 min(e_x, e_y)), where neither can overflow; where every float
    stays normal the weight is bit for bit the unscaled formula's.
    """
    r_x, r_y, r = stats_x[3], stats_y[3], rate.value
    scaled = []
    for g in (x, y):
        e = math.frexp(max(g.payoff_tuple))[1]
        unit = Game([math.ldexp(a, -e) for a in g.payoff_tuple])
        v, top = variance(unit, fair_coin()), max(unit.payoff_tuple)
        # each game's variance against its own largest payoff: a coin game
        # next to a much larger one is still a coin game
        if v / top / top <= 1e-12:
            raise InvariantViolation("one-fund formula undefined for a constant game")
        scaled.append((v, e))
    (v_x, e_x), (v_y, e_y) = scaled
    if r_x <= r or r_y <= r:
        raise InvariantViolation("mean returns must exceed the risk-free rate")
    low = min(e_x, e_y)
    s_x = math.ldexp((r_x - r) / v_x, 2 * (low - e_x))
    s_y = math.ldexp((r_y - r) / v_y, 2 * (low - e_y))
    return s_x / (s_x + s_y)


def compare_mean_variance(x: Game, y: Game, rate: Rate) -> FundComparison:
    """Price the one-fund blend and the best blend of two independent coin games.

    The best weight w* comes from the separation oracle of the least-squares
    solver on the basis {x, y} over the joint space, with unit denominators:
    the ratio it maximizes is then the blend price itself, concave in the
    weight. The oracle stops only once its upper bound on the maximum is
    within ORACLE_GAP (1e-10) relative of its value, so no weight, the
    one-fund weight included, prices above price_star by more than that
    gap: a certificate, not a patch, backs FundComparison's check. A
    symmetric pair certifies at the uniform start and returns w* = 0.5
    exactly.
    """
    stats_x, stats_y = _coin_stats(x, rate), _coin_stats(y, rate)
    u_x, _, v_x, r_x = stats_x
    u_y, _, v_y, r_y = stats_y
    w_of = _one_fund(x, y, rate, stats_x, stats_y)
    space, x4, y4 = joint_space(x, y)

    def blend(w: float) -> Game:
        return Game([w * a + (1.0 - w) * b
                     for a, b in zip(x4.payoff_tuple, y4.payoff_tuple)])

    price_onefund = price_general(blend(w_of), space, rate).price
    problem = _LsqProblem(ConeBasis(space, [x4, y4]), rate)
    w_star = problem.oracle([1.0, 1.0])[1][0]
    star = price_general(blend(w_star), space, rate)
    t_star = star.proportion
    allocation = (t_star * w_star, t_star * (1.0 - w_star), 1.0 - t_star)
    return FundComparison(
        w_onefund=w_of,
        fund_onefund=blend(w_of),
        price_onefund=price_onefund,
        w_star=w_star,
        fund_star=blend(w_star),
        price_star=star.price,
        t_star=t_star,
        allocation=allocation,
        u_x=u_x,
        u_y=u_y,
        r_x=r_x,
        r_y=r_y,
        var_x=v_x,
        var_y=v_y,
    )


class ParityReport(_Record):
    """Least-squares prices of {put, call, stock-minus-call} and the parity gap."""

    strike: float
    degenerate: bool
    reason: Optional[str] = None
    put_price: Optional[float] = None
    call_price: Optional[float] = None
    covered_price: Optional[float] = None
    stock_price: Optional[float] = None
    residual: Optional[float] = None
    solution: Optional[LsSolution] = None

    def to_json_dict(self) -> dict:
        doc: dict = {"strike": self.strike, "degenerate": self.degenerate}
        if self.degenerate:
            doc["reason"] = self.reason
            return doc
        doc.update(
            put=self.put_price,
            call=self.call_price,
            covered=self.covered_price,
            stock=self.stock_price,
            residual=self.residual,
        )
        return doc


def put_call_parity(
    stock: Game,
    space: OutcomeSpace,
    strike: float,
    rate: Rate,
) -> ParityReport:
    """Check call - put + K/g = stock under least-squares prices.

    The basis is {put, call, stock-minus-call}; put + (stock-minus-call) = K
    is a constant mix, so least_squares_prices takes its constant-mix exit
    and drops no game: every price is its ceiling E/g, which is linear (the
    stand-alone price where d = c - u is not positive). The stock is call +
    (stock-minus-call), so its price is their sum, and the residual is
    K/g - put - covered: the same gap with the call's price cancelled
    exactly, so a call far above K adds no rounding of its own. That exit
    has max_violation 0 by Jensen's inequality, whatever the tolerance, so
    the check takes none.
    """
    if not 0.0 < strike < math.inf:
        raise InvariantViolation("strike must be finite and > 0")
    _check_aligned(stock, space)
    s = stock.payoff_tuple
    put = [max(strike - a, 0.0) for a in s]
    call = [max(a - strike, 0.0) for a in s]
    covered = [min(a, strike) for a in s]
    if max(put) <= 0.0:
        return ParityReport(
            strike=strike,
            degenerate=True,
            reason="put pays nothing: strike at or below every stock payoff",
        )
    if max(call) <= 0.0:
        return ParityReport(
            strike=strike,
            degenerate=True,
            reason="call pays nothing: strike at or above every stock payoff",
        )
    # put + covered = strike: the solve's constant-mix test finds that mix
    # on these three games, before any basis reduction
    sol = least_squares_prices(
        ConeBasis(space, [Game(put), Game(call), Game(covered)]), rate)
    if sol.termination != "constant_mix":
        raise PricingError(
            "internal error: put + covered = strike mix not detected"
        )
    put_price, call_price, covered_price = sol.price_tuple
    stock_price = call_price + covered_price
    residual = strike / rate.growth_factor() - put_price - covered_price
    return ParityReport(
        strike=strike,
        degenerate=False,
        put_price=put_price,
        call_price=call_price,
        covered_price=covered_price,
        stock_price=stock_price,
        residual=residual,
        solution=sol,
    )
