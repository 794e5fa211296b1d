"""A 50-digit reference for single-game prices, in the standard library's decimal.

decimal_price runs Newton in log u at the optimal stake t*(u), from a lower
end of the price, and then certifies the bracket u (1 -+ 1e-20): at the lower
end the best growth lies above log g, and at the upper end the concavity
bound growth + max(f (1 - t), -f t) lies below it. Decimal's exponent range
is wide enough that no price or growth term underflows or overflows.
"""

from decimal import Decimal, localcontext

BRACKET = Decimal("1e-20")


def _terms(pay, pr, u, t):
    """Growth E[log(D/u)], first-order condition E[(a - u)/D] and the log-u
    slope of the growth, -t E[a/D], at (u, t), with D = u (1 - t) + t a: a
    sum of nonnegative terms, which keeps a payoff far below u."""
    ds = [u * (1 - t) + t * a for a in pay]
    growth = sum(p * (d / u).ln() for p, d in zip(pr, ds))
    f = sum(p * (a - u) / d for a, p, d in zip(pay, pr, ds))
    return growth, f, -t * sum(p * a / d for a, p, d in zip(pay, pr, ds))


def _best_stake(pay, pr, u, t):
    """The stake t* in [0, 1] with the best growth at u, by Newton on the
    first-order condition from t, kept in its bracket by bisection."""
    if _terms(pay, pr, u, 0)[1] <= 0:
        return Decimal(0)
    if min(pay) > 0 and _terms(pay, pr, u, 1)[1] >= 0:
        return Decimal(1)
    lo, hi, eps = Decimal(0), Decimal(1), Decimal("1e-45")
    while hi - lo > eps:
        if not lo < t < hi:
            t = (lo + hi) / 2
        ds = [u * (1 - t) + t * a for a in pay]
        f = sum(p * (a - u) / d for a, p, d in zip(pay, pr, ds))
        ft = -sum(p * ((a - u) / d) ** 2 for a, p, d in zip(pay, pr, ds))
        lo, hi = (t, hi) if f > 0 else (lo, t)
        step = -f / ft
        if abs(step) <= eps:
            break
        t += step
    return t


def decimal_price(pay, pr, rate):
    """The price of payoffs pay on probabilities pr at rate, as a Decimal."""
    with localcontext() as ctx:
        ctx.prec = 50
        pay, pr = [Decimal(a) for a in pay], [Decimal(p) for p in pr]
        pr = [p / sum(pr) for p in pr]  # floats sum to 1 only within rounding
        r = Decimal(rate.value)
        log_g = r if rate.convention == "continuous" else (1 + r).ln()
        if min(pay) > 0:  # gm/g; the single-outcome sub-games' floor otherwise
            u = (sum(p * a.ln() for a, p in zip(pay, pr)) - log_g).exp()
        else:
            u = max(p * a * (((1 - p) * (1 - p).ln() - log_g) / p).exp()
                    for a, p in zip(pay, pr) if a > 0)
        t = Decimal("0.5")
        for _ in range(200):
            t = _best_stake(pay, pr, u, t)
            growth, _, slope = _terms(pay, pr, u, t)
            if t == 1 or growth <= log_g:  # full investment, or at the price
                break
            s = (log_g - growth) / slope
            u *= s.exp()
            if s < Decimal("1e-40"):
                break
        low, high = u * (1 - BRACKET), u * (1 + BRACKET)
        t = _best_stake(pay, pr, low, t)
        assert _terms(pay, pr, low, t)[0] > log_g, (pay, pr, rate)
        t = _best_stake(pay, pr, high, t)
        growth, f, _ = _terms(pay, pr, high, t)
        assert growth + max(f * (1 - t), -f * t) < log_g, (pay, pr, rate)
        return +u
