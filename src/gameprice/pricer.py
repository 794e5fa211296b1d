"""Single-game pricing by growth rate.

The price u of a game is the stake at which repeated proportional investment,
at the best proportion t, grows capital at exactly the risk-free growth
factor g (e^r continuous, 1+r simple). Fair two-outcome games have a closed
form; general finite games are solved from the simultaneous equations

    E[log(a_j * t/u - t + 1)] = log g        (growth at the optimum)
    E[(a_j - u) / (a_j t - u t + u)] = 0     (first-order condition in t)

by Newton's method on (u, t), with the exact Jacobian from the same pass
over the outcomes. The price bracket [gm/g, E/g] safeguards it: the growth
is concave in t, so each iterate narrows the bracket from whichever side
its growth certifies, and a step that leaves the bracket is replaced by a
bisection step, geometric while the bracket spans more than a factor 4.
With a zero payoff gm = 0, and the lower end is a certified floor from the
single-outcome sub-games (_zero_payoff_floor), which can lie tens of
orders of magnitude below E/g.
"""

from __future__ import annotations

import math
import sys
from .core import (
    Game,
    InvariantViolation,
    LogDomainViolation,
    OutcomeSpace,
    PricingError,
    Rate,
    SeriesGame,
    TruncationError,
    _check_aligned,
    _Record,
    is_fair_coin,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Literal, Sequence

    Regime = Literal["full_investment", "interior"]

REGIME_FULL = "full_investment"
REGIME_INTERIOR = "interior"

# bisection on the proportion t in optimal_proportion
T_TOL = 1e-12
# price solve, relative
U_REL_TOL = 1e-12
MAX_PRICE_ITER = 200
# iterations after which every step of the price solve is a bisection step
NEWTON_ITER = 40
# logs of the smallest normal and the largest float
_LOG_TINY = math.log(sys.float_info.min)
_LOG_HUGE = math.log(sys.float_info.max)


class PriceResult(_Record):
    """Price, optimal proportion, regime flag and the growth attained there.

    regime is full_investment exactly when proportion == 1; achieved_growth
    equals the risk-free growth factor up to solver tolerance.
    """

    price: float
    proportion: float
    regime: Regime
    achieved_growth: float


class KappaContext(_Record):
    """Interior-regime mixing coefficient kappa = (1 - sqrt(1 - 1/g^2)) / 2."""

    kappa: float

    def __post_init__(self):
        if not (0.0 < self.kappa < 0.5):
            raise InvariantViolation("kappa must lie strictly between 0 and 1/2")

    @classmethod
    def from_rate(cls, rate: Rate) -> "KappaContext":
        # the same value, without the cancellation that rounds kappa to 0
        # once g > ~9.5e7
        g = rate.growth_factor()
        q = 1.0 / (g * g)
        return cls(q / (2.0 * (1.0 + math.sqrt(1.0 - q))))


def max_proportion(game: Game, u: float) -> float:
    """Largest t keeping every log argument positive (may be +inf)."""
    if u <= 0:
        raise InvariantViolation("price must be > 0")
    return _tmax_raw(game.payoff_tuple, u)


# -- raw helpers on plain sequences (hot loops; numpy overhead dominates at m <= 8)


def _elg(pay: Sequence[float], pr: Sequence[float], u: float, t: float) -> float:
    total = 0.0
    for a, p in zip(pay, pr):
        x = t * (a - u) / u
        if x <= -1.0:
            raise LogDomainViolation(
                f"log domain violation: t={t!r} at or beyond t_max for u={u!r}"
            )
        total += p * math.log1p(x)
    return total


def _dgrowth(pay, pr, u, t):
    # d/dt E[log(...)] = sum p*(a-u)/(u + t*(a-u)); no cancellation near a ~ u
    total = 0.0
    for a, p in zip(pay, pr):
        d = a - u
        total += p * d / (u + t * d)
    return total


def _tmax_raw(pay, u):
    a_min = min(pay)
    if a_min >= u:
        return math.inf
    return u / (u - a_min)


def _opt_t(pay, pr, u, t_tol=T_TOL):
    """Maximize expected log growth over feasible t; returns (t*, value)."""
    if _dgrowth(pay, pr, u, 0.0) <= 0.0:
        return 0.0, 0.0
    tmax = _tmax_raw(pay, u)
    if tmax > 1.0:
        if _dgrowth(pay, pr, u, 1.0) >= 0.0:
            return 1.0, _elg(pay, pr, u, 1.0)
        hi = 1.0
    else:
        hi = tmax * (1.0 - 1e-12)
    lo = 0.0
    while hi - lo > t_tol:
        mid = 0.5 * (lo + hi)
        if _dgrowth(pay, pr, u, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return t, _elg(pay, pr, u, t)


def expected_log_growth(
    game: Game, space: OutcomeSpace, u: float, t: float
) -> float:
    """E[log(a_j * t/u - t + 1)] for stake proportion t at price u."""
    if u <= 0:
        raise InvariantViolation("price must be > 0")
    if t < 0:
        raise InvariantViolation("proportion must be >= 0")
    _check_aligned(game, space)
    return _elg(game.payoff_tuple, space.prob_tuple, u, t)


def optimal_proportion(
    game: Game, space: OutcomeSpace, u: float
) -> tuple[float, float]:
    """Maximizer t* of expected log growth over [0, min(1, t_max)) and its value.

    Returns (0.0, 0.0) when the game is worthless at price u (u >= expectation):
    the derivative at t = 0 is (E - u)/u <= 0 and the optimum sits at zero stake.
    """
    if u <= 0:
        raise InvariantViolation("price must be > 0")
    _check_aligned(game, space)
    return _opt_t(game.payoff_tuple, space.prob_tuple, u)


def _price_fair(a: float, b: float, g: float, kappa: float) -> tuple[float, float]:
    """(price, proportion) of a fair-coin game paying a or b (both > 0).

    Full-investment regime when E/sqrt(ab) <= g: u = sqrt(ab)/g and t = 1.
    Otherwise u = kappa*max(a,b) + (1-kappa)*min(a,b) and
    t = u(E-u)/((a-u)(u-b)).
    """
    mean = 0.5 * (a + b)
    gm = math.sqrt(a * b)
    if mean <= gm * g:
        return gm / g, 1.0
    u = kappa * max(a, b) + (1.0 - kappa) * min(a, b)
    return u, u * (mean - u) / ((a - u) * (u - b))


def price_two_outcome_fair(a: float, b: float, rate: Rate) -> PriceResult:
    """Closed-form price of a fair-coin game paying a or b (both > 0)."""
    if not (a > 0 and b > 0):
        raise InvariantViolation("closed form needs strictly positive payoffs")
    u, t = _price_fair(a, b, rate.growth_factor(), KappaContext.from_rate(rate).kappa)
    if t == 1.0:
        return PriceResult(u, 1.0, REGIME_FULL, math.sqrt(a * b) / u)
    achieved = math.exp(_elg([a, b], [0.5, 0.5], u, t))
    return PriceResult(u, t, REGIME_INTERIOR, achieved)


def _growth_system(pay, pr, u, t):
    """Growth, first-order condition and their Jacobian at (u, t), in one pass.

    With D_j = u + t (a_j - u) it returns E[log(D/u)], f = E[(a - u)/D],
    d growth/du = -(t/u) E[a/D], df/du = -E[a/D^2] and df/dt =
    -E[(a - u)^2/D^2]; d growth/dt is f itself.
    """
    growth = f = s_a = s_a2 = s_d2 = 0.0
    for a, p in zip(pay, pr):
        d = a - u
        inv = 1.0 / (u + t * d)
        q = p * inv
        growth += p * math.log1p(t * d / u)
        f += q * d
        s_a += q * a
        s_a2 += q * a * inv
        s_d2 += q * d * d * inv
    return growth, f, -t * s_a / u, -s_a2, -s_d2


def _inside(a_min, u, t):
    """Whether 0 < t and every log argument u + t (a_j - u) is positive."""
    return t > 0.0 and u * (1.0 - t) + t * a_min > 0.0


def _newton_start(pay, pr, mean, log_g, lo, hi):
    """Starting (u, t) for the price solve.

    To second order in t the best growth at price u is
    (E - u)^2 / (2 E[(a - u)^2]), reached at t = u (E - u) / E[(a - u)^2];
    setting it to log g < 1/2 gives u = E - sqrt(2 log g Var / (1 - 2 log g)).
    Otherwise, or when that u is not above lo (high rates, payoffs over many
    orders of magnitude), the start is (lo, 1/2).
    """
    var = sum(p * (a - mean) ** 2 for a, p in zip(pay, pr))
    if log_g < 0.5:
        u = mean - math.sqrt(2.0 * log_g * var / (1.0 - 2.0 * log_g))
        if u > lo:
            u = min(u, hi - 1e-6 * (hi - lo))
            return u, u * (mean - u) / (var + (mean - u) ** 2)
    return lo, 0.5


def _zero_payoff_floor(pay, pr, log_g):
    """A price at which the best growth still exceeds log g, for gm = 0.

    The game pays at least a_j on outcome j alone. At Kelly's stake that
    sub-game grows by p log(p a/u) + (1 - p) log((1 - p) a/(a - u)), which
    exceeds (1 - p) log(1 - p) + p log(p a/u) (p = p_j, a = a_j). Setting
    the latter to log g bounds the price from below by
    p a exp(((1 - p) log(1 - p) - log g) / p); the largest bound over j is
    returned. Raises PricingError when it underflows: below the smallest
    normal float, or so small that a payoff over it overflows.
    """
    log_lo = max(
        math.log(p * a) + ((1.0 - p) * math.log1p(-p) - log_g) / p
        for a, p in zip(pay, pr)
        if a > 0.0
    )
    if log_lo < _LOG_TINY or math.log(max(pay)) - log_lo > _LOG_HUGE:
        raise PricingError(
            f"price lower bound exp({log_lo:.6g}) underflows: the price of "
            f"this game with a zero payoff is not representable"
        )
    return math.exp(log_lo)


def _price_numeric(pay, pr, rate: Rate):
    g = rate.growth_factor()
    log_g = rate.log_growth_factor()
    mean = sum(p * a for a, p in zip(pay, pr))
    a_min = min(pay)
    if a_min > 0.0:
        gm = math.exp(sum(p * math.log(a) for a, p in zip(pay, pr)))
        hm = 1.0 / sum(p / a for a, p in zip(pay, pr))
    else:
        gm, hm = 0.0, 0.0  # zero payoff: harmonic condition cannot hold
    if gm > 0.0 and gm / g <= hm * (1.0 + 1e-14):
        u = gm / g
        return u, 1.0, REGIME_FULL, gm / u
    # The best growth over t is at least log g at lo and at most log g at hi
    # (Jensen). In between, the regime is interior, so the best growth is
    # attained at some t < 1.
    lo = gm / g if gm > 0.0 else _zero_payoff_floor(pay, pr, log_g)
    hi = mean / g
    u, t = _newton_start(pay, pr, mean, log_g, lo, hi)
    while not _inside(a_min, u, t):
        t *= 0.5
    for it in range(MAX_PRICE_ITER):
        growth, f, gu, fu, ft = _growth_system(pay, pr, u, t)
        gap = growth - log_g
        # growth is concave in t, so the best growth at u lies between growth
        # and growth + f (s - t) maximized over s in [0, 1]
        if gap >= 0.0:
            lo = u
        elif gap + (f * (1.0 - t) if f > 0.0 else -f * t) < 0.0:
            hi = u
        det = gu * ft - f * fu
        bisect = True
        if det != 0.0:
            du = (f * f - gap * ft) / det
            dt = (gap * fu - f * gu) / det
            # t moves with u as dt*/du = -fu/ft: its step is measured in the
            # units of a relative step in u
            if (abs(du) <= U_REL_TOL * u
                    and abs(dt) <= U_REL_TOL * max(1.0, u * fu / ft)):
                u += du
                t += dt
                return u, t, REGIME_INTERIOR, math.exp(_elg(pay, pr, u, t))
            bisect = it >= NEWTON_ITER or not (math.isfinite(du) and math.isfinite(dt))
        if not bisect:
            # damped step, multiplicative in u; the caps keep exp finite and
            # u_new > 0 unless u is near underflow, where the step bisects
            lam = 1.0
            for _ in range(60):
                u_new = u * math.exp(min(max(lam * du / u, -50.0), 50.0))
                t_new = t + lam * dt
                if _inside(a_min, u_new, t_new):
                    bisect = not lo < u_new < hi
                    break
                lam *= 0.5
            else:
                bisect = True
        if bisect:
            # bisect the bracket, with a Newton step in t alone: the best t
            # lies in (0, 1), where every log argument is positive
            # geometrically while the bracket spans orders of magnitude
            u_new = math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo else 0.5 * (lo + hi)
            t_new = t - f / ft
            if not t_new > 0.0:  # also a NaN from ft = 0
                t_new = 0.5 * min(t, 1.0)
            elif t_new >= 1.0:
                t_new = 0.5 * (min(t, 1.0) + 1.0)
            while not _inside(a_min, u_new, t_new):
                t_new *= 0.5
        u, t = u_new, t_new
    raise PricingError(
        f"internal error: price solve did not converge in {MAX_PRICE_ITER} "
        f"iterations (bracket [{lo!r}, {hi!r}], target growth {log_g!r})"
    )


def price_general(
    game: Game,
    space: OutcomeSpace,
    rate: Rate,
    *,
    force_numeric: bool = False,
) -> PriceResult:
    """Price a finite game with nonnegative payoffs and positive expectation.

    Dispatches to the closed form for fair-coin games with positive payoffs;
    otherwise solves numerically. force_numeric routes the solver path even
    when the closed form applies (used to cross-check the two).
    """
    _check_aligned(game, space)
    pay = game.payoff_tuple
    if not force_numeric and is_fair_coin(space) and min(pay) > 0.0:
        return price_two_outcome_fair(pay[0], pay[1], rate)
    u, t, regime, achieved = _price_numeric(pay, space.prob_tuple, rate)
    return PriceResult(u, t, regime, achieved)


def truncate_series(
    sgame: SeriesGame, *, tol: float = 1e-12, max_terms: int = 60
) -> tuple[OutcomeSpace, Game]:
    """Finite approximation of a countable-support game.

    Stops at the first index J where the remaining probability mass,
    multiplied by the declared-moment bound on the tail log payoff,
    drops below tol. Raises TruncationError when max_terms binds first.
    """
    nu = sgame.tail_exponent
    log_bound = math.log(sgame.moment_bound)
    pays: list[float] = []
    probs: list[float] = []
    cum_p = 0.0
    cum_moment = 0.0
    converged = False
    for j in range(1, max_terms + 1):
        a, p = sgame.term(j)
        if not (math.isfinite(a) and a >= 0.0 and math.isfinite(p) and p >= 0.0):
            raise InvariantViolation(f"series term {j} is invalid: ({a!r}, {p!r})")
        if p > 0.0:
            pays.append(float(a))
            probs.append(float(p))
            cum_p += p
            cum_moment += p * max(a, 1.0) ** nu
        if cum_p > 1.0 + 1e-12:
            raise InvariantViolation("series probabilities exceed 1")
        if cum_moment > sgame.moment_bound * (1.0 + 1e-9):
            raise InvariantViolation(
                "declared moment bound violated by the partial sums"
            )
        tail_p = 1.0 - cum_p
        if tail_p <= 0.0:
            converged = True
            break
        if p > 0.0:
            # p_j * a_j^nu <= bound, so log a_j <= (log bound - log p_j)/nu
            log_pay_est = max(0.0, (log_bound - math.log(p)) / nu)
            if tail_p * (log_pay_est + 60.0) < tol:
                converged = True
                break
    if not converged:
        raise TruncationError(
            f"tail bound insufficient after {max_terms} terms "
            f"(remaining probability {1.0 - cum_p:.3e})"
        )
    if not pays:
        raise InvariantViolation("series produced no positive-probability terms")
    return OutcomeSpace(probs), Game(pays)


def price_series(
    sgame: SeriesGame,
    rate: Rate,
    *,
    trunc_tol: float = 1e-12,
    max_terms: int = 60,
) -> PriceResult:
    """Price a countable-support game via adaptive truncation."""
    space, game = truncate_series(sgame, tol=trunc_tol, max_terms=max_terms)
    return price_general(game, space, rate, force_numeric=True)
