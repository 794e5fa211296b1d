"""Single-game pricing by growth rate.

The price u of a game is the stake at which repeated proportional investment,
at the best proportion t, grows capital at exactly the risk-free growth
factor g (e^r continuous, 1+r simple). Every entry point prices through one
solve, _price_numeric. It returns u = gm/g at t = 1 when that is at most
hm FULL_SLACK (full investment), and otherwise solves

    E[log(a_j * t/u - t + 1)] = log g        (growth at the optimum)
    E[(a_j - u) / (a_j t - u t + u)] = 0     (first-order condition in t)

by two routes. Newton's method on (u, t) takes the exact Jacobian from the
same pass over the outcomes; the growth is concave in t, so each iterate
narrows the price bracket [lo, hi] = [gm/g, E/g] from the side its growth
certifies. The first step, the converged one included, that is not finite,
leaves the bracket or the log domain, or sets t to 1 or above hands the
solve to Newton in log u from lo, at the optimal stake t*(u) that
_best_stake finds for optimal_proportion too. Each growth term is the log
of a positive combination of exponentials of log u, so the best growth is
convex and decreasing in log u, and that Newton rises from lo to the price
without passing it. With a zero payoff gm = 0, and lo is a certified floor
from the single-outcome sub-games (_zero_payoff_floor), which can lie tens
of orders of magnitude below E/g. One representability rule covers both
lower ends: below the smallest normal float, the solve starts at that float
if the best growth there reaches log g, and otherwise the price is not
representable and PricingError says so. Every growth figure comes from one
kernel, _growth_system. The paper's fair-coin closed form,
u = kappa max + (1 - kappa) min in the interior regime, is this solve on a
fair coin; KappaContext keeps kappa for the paper's check.
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
    _dot,
    _Record,
    fair_coin,
    harmonic_mean,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Literal

    Regime = Literal["full_investment", "interior"]

REGIME_FULL = "full_investment"
REGIME_INTERIOR = "interior"

# price solve, relative
U_REL_TOL = 1e-12
# iteration cap of each route of the price solve and of optimal_proportion
MAX_PRICE_ITER = 200
# full investment (t* = 1) when the price is at most the harmonic mean hm
# times this; every regime test reads it, so entry points agree on the regime
FULL_SLACK = 1.0 + 1e-14
# series truncation stops once the tail's probability times its log-payoff
# bound is below SERIES_TOL, and fails after SERIES_MAX_TERMS terms
SERIES_TOL = 1e-12
SERIES_MAX_TERMS = 60


class PriceResult(_Record):
    """Price, optimal proportion, regime flag and the growth attained there.

    Built by price_general alone. regime is full_investment exactly when
    proportion == 1; achieved_growth equals the risk-free growth factor up
    to solver tolerance.
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
        return cls(_kappa(rate.growth_factor()))


def _check_price(u: float) -> None:
    if not 0.0 < u < math.inf:
        raise InvariantViolation(f"price must be finite and > 0, got {u!r}")


def max_proportion(game: Game, u: float) -> float:
    """Largest t keeping every log argument positive (may be +inf)."""
    _check_price(u)
    a_min = min(game.payoff_tuple)
    return math.inf if a_min >= u else u / (u - a_min)


def expected_log_growth(
    game: Game, space: OutcomeSpace, u: float, t: float
) -> float:
    """E[log(a_j * t/u - t + 1)] for stake proportion t at price u, as
    _growth_system computes it. Its term t (a - u) / u is monotone in a, also
    after rounding, so one exact test at the smallest payoff decides
    LogDomainViolation: the term must exceed -1 there."""
    _check_price(u)
    if not 0.0 <= t < math.inf:
        raise InvariantViolation(f"proportion must be finite and >= 0, got {t!r}")
    _check_aligned(game, space)
    if t * (min(game.payoff_tuple) - u) / u <= -1.0:
        raise LogDomainViolation(f"log domain violation: t={t!r} at or beyond "
                                 f"t_max for u={u!r}")
    return _growth_system(game.payoff_tuple, space.prob_tuple, u, t)[0]


def optimal_proportion(
    game: Game, space: OutcomeSpace, u: float
) -> tuple[float, float]:
    """Maximizer t* of expected log growth over [0, min(1, t_max)) and its value.

    Returns (0.0, 0.0) when u >= E, where the derivative at t = 0 is <= 0, and
    (1.0, E[log a] - log u) when u <= hm * FULL_SLACK, the price solve's
    full-investment test (the derivative at 1 is 1 - u/hm; hm = 0 with a zero
    payoff). Otherwise t* is the root in (0, 1) of the price solve's
    first-order condition, by _best_stake from the Newton step from 0, never
    evaluating t = 1. Raises InvariantViolation unless u is finite and > 0.
    """
    _check_price(u)
    pay, pr = game.payoff_tuple, space.prob_tuple
    hm = harmonic_mean(game, space)
    _, f, _, _, ft = _growth_system(pay, pr, u, 0.0)
    if f <= 0.0:
        return 0.0, 0.0
    if u <= hm * FULL_SLACK:
        return 1.0, _dot(pr, map(math.log, pay)) - math.log(u)
    t, (growth, *_) = _best_stake(pay, pr, u, -f / ft)  # u (E - u) / E[(a - u)^2]
    return t, growth


def _kappa(g: float) -> float:
    # without the cancellation that rounds kappa to 0 once g > ~9.5e7
    q = 1.0 / (g * g)
    if q == 0.0:
        raise InvariantViolation(f"kappa underflows at growth factor {g!r}")
    return q / (2.0 * (1.0 + math.sqrt(1.0 - q)))


def price_two_outcome_fair(a: float, b: float, rate: Rate) -> PriceResult:
    """Price of a fair-coin game paying a or b (both > 0): price_general on
    the fair coin. In the interior regime this is the paper's closed form
    kappa max(a, b) + (1 - kappa) min(a, b), reached by the same solve as
    every other game."""
    if not (a > 0 and b > 0):
        raise InvariantViolation("closed form needs strictly positive payoffs")
    return price_general(Game([a, b]), fair_coin(), rate)


def _growth_system(pay, pr, u, t):
    """Growth, first-order condition and their Jacobian at (u, t), in one pass.

    With D_j = u + t (a_j - u) it returns E[log(D/u)], f = E[(a - u)/D],
    d growth/du = -(t/u) E[a/D], df/du = -E[a/D^2] and df/dt =
    -E[(a - u)^2/D^2]; d growth/dt is f itself. A growth term is
    log1p(t (a - u)/u), or log D - log u where that ratio overflows: a price
    can be a normal float though a payoff over it is not.
    """
    growth = f = s_a = s_a2 = s_d2 = 0.0
    for a, p in zip(pay, pr):
        d = a - u
        inv = 1.0 / (u + t * d)
        q = p * inv
        x = t * d / u
        growth += p * (math.log1p(x) if x < math.inf
                       else math.log(u + t * d) - math.log(u))
        f += q * d
        s_a += q * a
        s_a2 += q * a * inv
        s_d2 += q * d * d * inv
    return growth, f, -t * s_a / u, -s_a2, -s_d2


def _best_stake(pay, pr, u, t):
    """Root t* in (0, 1) of the first-order condition at u, by Newton from t.

    The condition decreases in t, so each iterate narrows the bracket, and a
    step leaving it is replaced by the midpoint. It stops when the step or
    the bracket is within 4 eps of t, or when the condition comes out as on
    the pass before: then it is flat to rounding, and Newton would repeat
    its step. Returns t* and the last _growth_system pass, which was made
    at (u, t*).
    """
    lo, hi, tol, f_prev = 0.0, 1.0, 4.0 * sys.float_info.epsilon, None
    for _ in range(MAX_PRICE_ITER):
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        _, f, _, _, ft = system = _growth_system(pay, pr, u, t)
        if f > 0.0:
            lo = t
        else:
            hi = t
        step = -f / ft
        # stop before the safeguard: a sub-ulp step can round onto the
        # bracket's end, and its midpoint would restart as bisection
        if abs(step) <= tol * t or hi - lo <= tol * hi or f == f_prev:
            return t, system
        t += step
        f_prev = f
    raise PricingError(
        f"internal error: optimal proportion did not converge in "
        f"{MAX_PRICE_ITER} iterations (bracket [{lo!r}, {hi!r}], price {u!r})"
    )


def _inside(a_min, u, t):
    """Whether 0 < t and every log argument u + t (a_j - u) is positive."""
    return t > 0.0 and u * (1.0 - t) + t * a_min > 0.0


def _newton_start(pay, pr, mean, log_g, lo, hi):
    """Starting (u, t) for the price solve.

    To second order in t the best growth at price u is
    (E - u)^2 / (2 E[(a - u)^2]), reached at t = u (E - u) / E[(a - u)^2];
    setting it to log g < 1/2 gives u = E - sqrt(2 log g Var / (1 - 2 log g)).
    Otherwise, or when that u is not above lo (high rates, payoffs over many
    orders of magnitude) or the variance or t underflows to 0 (payoffs below
    about 1e-154), the start is (lo, 1/2). Squares are products, which
    overflow to inf (and so to that start) where ** raises OverflowError.
    Near the regime boundary the second-order t can reach 1 or more; it is
    held below 1, where the Newton step on (u, t) can still be taken. Either
    start lies in the log domain: u >= lo > 0 and 0 < t < 1 keep every
    u + t (a - u) positive.
    """
    var = sum(p * ((a - mean) * (a - mean)) for a, p in zip(pay, pr))
    if log_g < 0.5 and var > 0.0:
        u = mean - math.sqrt(2.0 * log_g * var / (1.0 - 2.0 * log_g))
        u = min(u, hi - 1e-6 * (hi - lo))
        t = u * (mean - u) / (var + (mean - u) * (mean - u))
        if u > lo and t > 0.0:
            return u, min(t, 1.0 - 1e-12)
    return lo, 0.5


def _zero_payoff_floor(pay, pr, log_g):
    """A price at which the best growth still exceeds log g, for gm = 0.

    The game pays at least a_j on outcome j alone. At Kelly's stake that
    sub-game grows by p log(p a/u) + (1 - p) log((1 - p) a/(a - u)), which
    exceeds (1 - p) log(1 - p) + p log(p a/u) (p = p_j, a = a_j). Setting
    the latter to log g bounds the price from below by
    p a exp(((1 - p) log(1 - p) - log g) / p); the largest bound over j is
    returned. It may underflow: _price_numeric's representability rule reads
    it as it reads gm/g.
    """
    return math.exp(max(
        math.log(p * a) + ((1.0 - p) * math.log1p(-p) - log_g) / p
        for a, p in zip(pay, pr)
        if a > 0.0
    ))


def _price_numeric(pay, pr, rate: Rate) -> tuple[float, float]:
    """(price, proportion) of any finite game, by the two routes above.

    Raises PricingError when the price lies below the smallest normal float.
    """
    g = rate.growth_factor()
    a_min = min(pay)
    mean = 0.0
    if a_min > 0.0:
        s_log = s_inv = 0.0  # E[log a] and E[1 / a]
        for a, p in zip(pay, pr):
            mean += p * a
            s_log += p * math.log(a)
            s_inv += p / a
        lo = math.exp(s_log) / g  # gm / g
        hm = 1.0 / s_inv
        if sys.float_info.min <= lo <= hm * FULL_SLACK:
            return lo, 1.0
        log_g = rate.log_growth_factor()
    else:  # a zero payoff: hm = 0, and the harmonic condition cannot hold
        for a, p in zip(pay, pr):
            mean += p * a
        log_g = rate.log_growth_factor()
        lo = _zero_payoff_floor(pay, pr, log_g)
    # The price lies in [lo, hi] and the best growth decreases in u, so it is
    # a normal float exactly when the best growth at the smallest one reaches
    # log g. There t* is found from 1/2: a payoff far above u makes the first
    # order condition about p/t near 0, where Newton only doubles t
    hi = mean / g
    if lo < sys.float_info.min:
        lo = sys.float_info.min
        if hi < lo or _best_stake(pay, pr, lo, 0.5)[1][0] < log_g:
            raise PricingError(f"the price lies below the smallest normal float, "
                               f"{lo!r}: it underflows and is not representable")
    # The best growth over t is at least log g at lo and at most log g at hi
    # (Jensen); in between, the regime is interior, so it is attained at t < 1
    u, t = _newton_start(pay, pr, mean, log_g, lo, hi)
    system = _growth_system(pay, pr, u, t)
    for _ in range(MAX_PRICE_ITER):
        growth, f, gu, fu, ft = system
        gap = growth - log_g
        # growth is concave in t, so the best growth at u lies between growth
        # and growth + f (s - t) maximized over s in [0, 1]
        if gap >= 0.0:
            lo = u
        elif gap + (f * (1.0 - t) if f > 0.0 else -f * t) < 0.0:
            hi = u
        det = gu * ft - f * fu
        if det == 0.0:
            break
        du = (f * f - gap * ft) / det
        dt = (gap * fu - f * gu) / det
        # t moves with u as dt*/du = -fu/ft: its step is measured in the
        # units of a relative step in u
        done = (abs(du) <= U_REL_TOL * u
                and abs(dt) <= U_REL_TOL * max(1.0, u * fu / ft))
        # multiplicative in u; the caps keep exp finite
        u_new = u + du if done else u * math.exp(min(max(du / u, -50.0), 50.0))
        t_new = t + dt
        if not (math.isfinite(du) and math.isfinite(dt) and lo <= u_new <= hi
                and t_new < 1.0 and _inside(a_min, u_new, t_new)):
            break
        if done:
            return u_new, t_new
        u, t = u_new, t_new
        system = _growth_system(pay, pr, u, t)
    # Newton in log u at t*(u) from lo; the best growth's slope is u gu there
    u = lo
    for _ in range(MAX_PRICE_ITER):
        t, (growth, _, gu, fu, ft) = _best_stake(pay, pr, u, t)
        s = max((log_g - growth) / (u * gu), 0.0)  # < 0 only by rounding
        if not (math.isfinite(s) and math.isfinite(gu)):  # gu = -inf rounds s to 0
            raise PricingError(f"internal error: the growth step is not finite at "
                               f"price {u!r} (bracket [{lo!r}, {hi!r}])")
        u_new = u * math.exp(min(s, 50.0))  # as above, the cap keeps exp finite
        if s <= U_REL_TOL:
            return u_new, t
        t -= fu / ft * (u_new - u)  # t*(u_new) to first order
        u = u_new
    raise PricingError(
        f"internal error: price solve did not converge in {MAX_PRICE_ITER} "
        f"iterations (bracket [{lo!r}, {hi!r}], target growth {log_g!r})"
    )


def price_general(game: Game, space: OutcomeSpace, rate: Rate) -> PriceResult:
    """Price a finite game with nonnegative payoffs and positive expectation.

    The one constructor of PriceResult, from _price_numeric's (price,
    proportion).
    """
    _check_aligned(game, space)
    pay, pr = game.payoff_tuple, space.prob_tuple
    u, t = _price_numeric(pay, pr, rate)
    if t == 1.0:
        gm = math.exp(_dot(pr, map(math.log, pay)))
        return PriceResult(u, t, REGIME_FULL, gm / u)
    growth = _growth_system(pay, pr, u, t)[0]
    return PriceResult(u, t, REGIME_INTERIOR, math.exp(growth))


def _moment(a: float, p: float, nu: float) -> float:
    """p max(a, 1)^nu, inf only where it passes the float range: where the
    power alone does, the term is taken as (p^(1/nu) a)^nu."""
    try:
        return p * math.pow(max(a, 1.0), nu)
    except OverflowError:
        pass
    try:
        return math.pow(math.pow(p, 1.0 / nu) * a, nu)
    except OverflowError:
        return math.inf


def truncate_series(sgame: SeriesGame) -> tuple[OutcomeSpace, Game]:
    """Finite approximation of a countable-support game.

    Stops at the first index J where the remaining probability mass,
    multiplied by the declared-moment bound on the tail log payoff,
    drops below SERIES_TOL. Raises TruncationError when SERIES_MAX_TERMS
    binds first.
    """
    nu = sgame.tail_exponent
    log_bound = math.log(sgame.moment_bound)
    pays: list[float] = []
    probs: list[float] = []
    cum_p = 0.0
    cum_moment = 0.0
    converged = False
    for j in range(1, SERIES_MAX_TERMS + 1):
        a, p = sgame.term(j)
        if not (math.isfinite(a) and a >= 0.0 and math.isfinite(p) and p >= 0.0):
            raise InvariantViolation(f"series term {j} is invalid: ({a!r}, {p!r})")
        if p > 0.0:
            pays.append(float(a))
            probs.append(float(p))
            cum_p += p
            cum_moment += _moment(a, p, nu)
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
            if tail_p * (log_pay_est + 60.0) < SERIES_TOL:
                converged = True
                break
    if not converged:
        raise TruncationError(
            f"tail bound insufficient after {SERIES_MAX_TERMS} terms "
            f"(remaining probability {1.0 - cum_p:.3e})"
        )
    if not pays:
        raise InvariantViolation("series produced no positive-probability terms")
    return OutcomeSpace(probs), Game(pays)


def price_series(sgame: SeriesGame, rate: Rate) -> PriceResult:
    """Price a countable-support game: price_general on its truncation."""
    space, game = truncate_series(sgame)
    return price_general(game, space, rate)
