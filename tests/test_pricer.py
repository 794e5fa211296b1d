import contextlib
import math
import random
import signal
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gameprice import (
    ConeBasis,
    Game,
    InvariantViolation,
    KappaContext,
    LogDomainViolation,
    OutcomeSpace,
    Rate,
    SeriesGame,
    TruncationError,
    constant_series,
    expectation,
    expected_log_growth,
    fair_coin,
    geometric_mean,
    least_squares_prices,
    max_proportion,
    mix_game,
    optimal_proportion,
    price_general,
    price_series,
    price_two_outcome_fair,
    st_petersburg,
    truncate_series,
)
from gameprice import pricer
from gameprice.core import PricingError, _dot
from gameprice.pricer import REGIME_FULL, REGIME_INTERIOR, _price_numeric

from decimal_reference import decimal_price

R05 = Rate(0.05)
R02S = Rate(0.02, "simple")
COIN = fair_coin()
G = math.exp(0.05)

# frozen oracle values (independent brute-force / closed-form evaluation)
U_GAME_A = 7.223641028417384
T_GAME_A = 0.2736378712492314
U_GAME_B = 9.512294245007139
U_16_4 = 8.149094018944922
T_16_4 = 0.46304226591167114
KAPPA_05 = 0.3457578349120769
KAPPA_02S = 0.40147180763606977
U_X_SIMPLE = 20.672118574167417
U_Y_SIMPLE = 20.672100118284607
ELG_AT_PAPER_POINT = 0.04996367987949957
U_ZERO_PAYOFF = 0.6915156698241538  # (0, 2) fair coin: 2 * kappa
T_ZERO_PAYOFF = 0.23575698882775944
U_ST_PETE = 4.815577514683757
T_ST_PETE = 0.2044448923130561


class TestKappa:
    def test_value_at_5_percent(self):
        assert KappaContext.from_rate(R05).kappa == pytest.approx(KAPPA_05, rel=1e-14)

    def test_value_at_2_percent_simple(self):
        assert KappaContext.from_rate(R02S).kappa == pytest.approx(KAPPA_02S, rel=1e-14)

    def test_stays_below_half(self):
        for r in (1e-6, 0.05, 0.5, 3.0, 20.0, 100.0):
            k = KappaContext.from_rate(Rate(r)).kappa
            assert 0.0 < k < 0.5


class TestExpectedLogGrowth:
    def test_zero_stake_is_zero(self):
        assert expected_log_growth(Game([19, 1]), COIN, 5.0, 0.0) == 0.0

    def test_constant_game_at_own_price(self):
        assert expected_log_growth(Game([7, 7]), COIN, 7.0, 0.5) == 0.0

    def test_paper_point(self):
        v = expected_log_growth(Game([19, 1]), COIN, 7.2246, 0.2736)
        assert v == pytest.approx(ELG_AT_PAPER_POINT, rel=1e-12)
        assert v == pytest.approx(0.05, abs=1e-4)

    def test_log_domain_violation(self):
        # t_max = u/(u - min) = 5/4; anything at or past it must fail
        with pytest.raises(LogDomainViolation):
            expected_log_growth(Game([19, 1]), COIN, 5.0, 1.25)

    def test_max_proportion(self):
        assert max_proportion(Game([19, 1]), 5.0) == pytest.approx(1.25, rel=1e-15)
        assert math.isinf(max_proportion(Game([19, 10]), 5.0))


def _golden_argmax(f, lo, hi, iters=200):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class TestOptimalProportion:
    def test_full_investment_game_b(self):
        t, g = optimal_proportion(Game([10, 10]), COIN, 9.512)
        assert t == 1.0
        assert g == pytest.approx(math.log(10.0 / 9.512), rel=1e-12)

    def test_game_a_at_its_price(self):
        t, _ = optimal_proportion(Game([19, 1]), COIN, 7.224)
        assert t == pytest.approx(0.274, abs=5e-4)

    def test_worthless_at_expectation(self):
        t, g = optimal_proportion(Game([19, 1]), COIN, 10.0)
        assert (t, g) == (0.0, 0.0)

    def test_worthless_above_expectation(self):
        t, g = optimal_proportion(Game([19, 1]), COIN, 14.0)
        assert (t, g) == (0.0, 0.0)

    def test_matches_golden_section_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pay = rng.uniform(0.5, 40.0, 3)
            w = rng.uniform(0.1, 1.0, 3)
            space = OutcomeSpace(w / w.sum())
            game = Game(pay)
            u = 0.9 * expectation(game, space)
            t, _ = optimal_proportion(game, space, u)
            t_hi = min(1.0, max_proportion(game, u) * (1 - 1e-9))
            f = lambda s: expected_log_growth(game, space, u, s)
            t_oracle = _golden_argmax(f, 0.0, t_hi)
            if 1e-6 < t_oracle < t_hi - 1e-6:
                assert t == pytest.approx(t_oracle, abs=1e-7)



class TestOneStakeKernel:
    """optimal_proportion solves the price solve's first-order condition."""

    def test_the_proportion_at_the_price_is_the_price_solves(self):
        # (1, 2, 3): the bisection it replaced gave 0.7622366329310353
        game, space = Game([1, 2, 3]), OutcomeSpace([0.2, 0.3, 0.5])
        res = price_general(game, space, R05)
        t, growth = optimal_proportion(game, space, res.price)
        assert t == pytest.approx(res.proportion, rel=1e-14)
        assert t == pytest.approx(0.7622366329314658, rel=1e-14)
        assert growth == pytest.approx(0.05, rel=1e-12)

    def test_random_games_agree_with_the_price_solve(self):
        # m = 2-7, payoffs 10^(+-3), a zero payoff in one draw of ten,
        # continuous rates of 0.1-30%; interior draws only
        rng = random.Random(5)
        interior = 0
        for _ in range(1500):
            m = rng.randint(2, 7)
            pay = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(m)]
            if rng.random() < 0.1:
                pay[rng.randrange(m)] = 0.0
            w = [rng.uniform(0.05, 1.0) for _ in range(m)]
            game, space = Game(pay), OutcomeSpace([v / sum(w) for v in w])
            rate = Rate(rng.uniform(0.001, 0.3))
            res = price_general(game, space, rate)
            if res.regime != REGIME_INTERIOR:
                continue
            interior += 1
            t, growth = optimal_proportion(game, space, res.price)
            case = (pay, space.prob_tuple, rate)
            assert t == pytest.approx(res.proportion, rel=1e-14), case
            assert 0.0 < t < min(1.0, max_proportion(game, res.price)), case
            assert growth == pytest.approx(rate.log_growth_factor(), abs=1e-12), case
        assert interior >= 1400

    @pytest.mark.parametrize("p, u", [(0.5, U_ZERO_PAYOFF), (1e-6, 0.01)],
                             ids=["coin", "rare_zero"])
    def test_a_zero_payoff_never_evaluates_t_max(self, monkeypatch, p, u):
        # (0, 2) with probability p on 0: t* = 1 - 2p / (2 - u), a hair
        # below t_max = 1 when p is small
        game, space = Game([0, 2]), OutcomeSpace([p, 1.0 - p])
        assert max_proportion(game, u) == 1.0
        seen = []
        system = pricer._growth_system

        def recorded(pay, pr, u, t):
            seen.append(t)
            return system(pay, pr, u, t)

        monkeypatch.setattr(pricer, "_growth_system", recorded)
        t, growth = optimal_proportion(game, space, u)
        assert 0.0 < t < 1.0 and max(seen) < 1.0
        assert t == pytest.approx(1.0 - 2.0 * p / (2.0 - u), rel=1e-14)
        assert growth == expected_log_growth(game, space, u, t)

    def test_the_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(pricer, "MAX_PRICE_ITER", 1)
        with pytest.raises(PricingError, match="optimal proportion"):
            optimal_proportion(Game([1, 2, 3]), OutcomeSpace([0.2, 0.3, 0.5]), 2.1)


class TestNonFiniteArguments:
    GAME = Game([19, 1])

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_a_price_that_is_not_finite_and_positive_is_rejected(self, u):
        for call in (lambda: optimal_proportion(self.GAME, COIN, u),
                     lambda: expected_log_growth(self.GAME, COIN, u, 0.5),
                     lambda: max_proportion(self.GAME, u)):
            with pytest.raises(InvariantViolation):
                call()

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_a_proportion_that_is_not_finite_and_nonnegative_is_rejected(self, t):
        with pytest.raises(InvariantViolation):
            expected_log_growth(self.GAME, COIN, 5.0, t)
        # every payoff above the price: t = inf grew without bound before
        with pytest.raises(InvariantViolation):
            expected_log_growth(Game([19, 10]), COIN, 5.0, t)


class TestClosedForm:
    def test_game_a(self):
        res = price_two_outcome_fair(19, 1, R05)
        assert res.price == pytest.approx(U_GAME_A, rel=1e-14)
        assert res.proportion == pytest.approx(T_GAME_A, rel=1e-12)
        assert res.regime == REGIME_INTERIOR

    def test_game_b(self):
        res = price_two_outcome_fair(10, 10, R05)
        assert res.price == pytest.approx(U_GAME_B, rel=1e-14)
        assert res.proportion == 1.0
        assert res.regime == REGIME_FULL

    def test_16_4(self):
        res = price_two_outcome_fair(16, 4, R05)
        assert res.price == pytest.approx(U_16_4, rel=1e-14)
        assert res.proportion == pytest.approx(T_16_4, rel=1e-12)

    def test_simple_convention_x(self):
        res = price_two_outcome_fair(50, 1, R02S)
        assert res.price == pytest.approx(U_X_SIMPLE, rel=1e-12)
        assert res.price == pytest.approx(20.6721, abs=1e-3)

    def test_simple_convention_y(self):
        res = price_two_outcome_fair(30.6191, 14, R02S)
        assert res.price == pytest.approx(U_Y_SIMPLE, rel=1e-12)

    def test_order_invariance(self):
        assert price_two_outcome_fair(1, 19, R05).price == pytest.approx(
            U_GAME_A, rel=1e-14
        )

    def test_rejects_zero_payoff(self):
        with pytest.raises(InvariantViolation):
            price_two_outcome_fair(0.0, 2.0, R05)

    @pytest.mark.parametrize("r", [354.0, 355.0, 400.0, 700.0])
    def test_full_investment_where_one_over_g_squared_underflows(self, r):
        # from r = 355, g^2 overflows and 1/g^2 is 0; (19, 1) is in full
        # investment there, priced at sqrt(19)/g with no kappa
        rate = Rate(r)
        cf = price_two_outcome_fair(19.0, 1.0, rate)
        u, t = _price_numeric([19.0, 1.0], COIN.prob_tuple, rate)
        assert cf.regime == REGIME_FULL and t == 1.0
        assert cf.price == pytest.approx(u, rel=1e-12)
        assert cf.price == pytest.approx(math.sqrt(19.0) * math.exp(-r), rel=1e-12)

    def test_an_interior_game_where_kappa_underflows_is_an_invariant_violation(self):
        # payoffs more than 4 g^2 apart stay interior; kappa is not
        # representable, but the price, 9.17e-49, is, and the solve needs no
        # kappa. (1e-300, 1e-300) is priced at about 1.9e-474, below the
        # smallest normal float
        with pytest.raises(InvariantViolation, match="kappa"):
            KappaContext.from_rate(Rate(400.0))
        res = price_two_outcome_fair(1e300, 1e-300, Rate(400.0))
        assert res.regime == REGIME_INTERIOR
        assert res.price == pytest.approx(9.169686460444219e-49, rel=1e-13)
        with pytest.raises(PricingError, match="not representable"):
            price_two_outcome_fair(1e-300, 1e-300, Rate(400.0))


class TestPriceGeneral:
    def test_numeric_agrees_with_closed_form(self):
        # the paper's interior formulas: u = kappa max + (1 - kappa) min and
        # t = u (E - u) / ((max - u) (u - min))
        kappa = KappaContext.from_rate(R05).kappa
        for a, b in ((19.0, 1.0), (16.0, 4.0)):
            u_cf = kappa * a + (1.0 - kappa) * b
            t_cf = u_cf * (0.5 * (a + b) - u_cf) / ((a - u_cf) * (u_cf - b))
            u, t = _price_numeric([a, b], COIN.prob_tuple, R05)
            assert u == pytest.approx(u_cf, rel=1e-9)
            assert t == pytest.approx(t_cf, abs=1e-7)

    def test_one_fund_vector(self):
        space = OutcomeSpace([0.25] * 4)
        fund = Game([36.3016, 24.5552, 21.9348, 10.1884])
        res = price_general(fund, space, R02S)
        assert res.price == pytest.approx(21.3995, abs=1e-3)
        assert res.regime == REGIME_INTERIOR

    def test_best_mix_vector(self):
        space = OutcomeSpace([0.25] * 4)
        fund = Game([37.4295, 26.6504, 20.2109, 9.4318])
        res = price_general(fund, space, R02S)
        assert res.price == pytest.approx(21.4134, abs=1e-3)

    def test_zero_payoff_forces_interior(self):
        res = price_general(Game([0, 2]), COIN, R05)
        assert res.regime == REGIME_INTERIOR
        assert res.price == pytest.approx(U_ZERO_PAYOFF, rel=1e-9)
        assert res.proportion == pytest.approx(T_ZERO_PAYOFF, abs=1e-8)

    def test_constant_game_full_regime(self):
        res = price_general(Game([3, 3, 3]), OutcomeSpace([0.2, 0.3, 0.5]), R05)
        assert res.price == pytest.approx(3.0 / G, rel=1e-12)
        assert res.proportion == 1.0

    def test_achieved_growth_matches_rate(self):
        for game in (Game([19, 1]), Game([10, 10]), Game([0, 2])):
            u, t = _price_numeric(game.payoff_tuple, COIN.prob_tuple, R05)
            achieved = math.exp(expected_log_growth(game, COIN, u, t))
            assert achieved == pytest.approx(G, rel=1e-9)
            assert price_general(game, COIN, R05).achieved_growth == pytest.approx(G, rel=1e-9)


class TestPriceSeries:
    def test_st_petersburg(self):
        res = price_series(st_petersburg(), R05)
        assert res.price == pytest.approx(U_ST_PETE, rel=1e-8)
        assert res.proportion == pytest.approx(T_ST_PETE, abs=1e-7)
        assert res.price == pytest.approx(4.816, abs=1e-3)
        assert res.proportion == pytest.approx(0.204, abs=1e-3)
        assert res.regime == REGIME_INTERIOR

    def test_truncated_geometric_mean_is_four(self):
        space, game = truncate_series(st_petersburg())
        assert geometric_mean(game, space) == pytest.approx(4.0, rel=1e-12)
        # regime condition: 4/e^r > 3 = harmonic mean of the series
        assert 4.0 / G > 3.0

    def test_degenerate_constant_series(self):
        res = price_series(constant_series(5.0), R05)
        assert res.price == pytest.approx(5.0 / G, rel=1e-12)
        assert res.proportion == 1.0

    def test_cap_binding_raises(self, monkeypatch):
        monkeypatch.setattr(pricer, "SERIES_MAX_TERMS", 10)
        with pytest.raises(TruncationError):
            price_series(st_petersburg(), R05)

    def test_moment_bound_checked(self):
        bad = SeriesGame(
            term=lambda j: (2.0**j, 2.0**-j), tail_exponent=0.5, moment_bound=1.5
        )
        with pytest.raises(InvariantViolation):
            truncate_series(bad)

    @pytest.mark.parametrize("p, violated", [(0.5, True), (1e-300, False)])
    def test_a_moment_term_whose_power_overflows(self, p, violated):
        # (1e200)^2 passes the float range: p (1e200)^2 is 5e399 for p = 1/2,
        # far above the bound, and 1e100 for p = 1e-300, within it
        series = SeriesGame(term=lambda j: (1e200, p) if j == 1 else (1.0, 1.0 - p),
                            tail_exponent=2.0, moment_bound=1e300)
        if violated:
            with pytest.raises(InvariantViolation, match="declared moment bound violated"):
                price_series(series, R05)
        else:
            assert truncate_series(series)[1].payoff_tuple == (1e200, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=80.0),
    st.floats(min_value=0.2, max_value=80.0),
    st.floats(min_value=1e-3, max_value=100.0),
)
def test_price_homogeneity(a, b, k):
    base = price_two_outcome_fair(a, b, R05)
    scaled = price_two_outcome_fair(k * a, k * b, R05)
    assert scaled.price == pytest.approx(k * base.price, rel=1e-9)
    assert scaled.proportion == pytest.approx(base.proportion, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.2, max_value=80.0), st.floats(min_value=0.2, max_value=80.0))
def test_price_sandwich(a, b):
    res = price_two_outcome_fair(a, b, R05)
    mean = 0.5 * (a + b)
    assert 0.0 < res.price <= mean / G * (1.0 + 1e-12)
    if res.regime == REGIME_FULL:
        assert res.price == pytest.approx(math.sqrt(a * b) / G, rel=1e-12)


def test_regime_boundary_continuity():
    # family (a, 1) crosses the regime boundary at a* = (g + sqrt(g^2-1))^2;
    # there the two branch formulas must coincide
    a_star = (G + math.sqrt(G * G - 1.0)) ** 2
    u_full = math.sqrt(a_star) / G
    kappa = KappaContext.from_rate(R05).kappa
    u_interior = kappa * a_star + (1.0 - kappa) * 1.0
    assert abs(u_full - u_interior) <= 1e-9 * u_full
    res_at = price_two_outcome_fair(a_star, 1.0, R05)
    assert res_at.price == pytest.approx(u_full, rel=1e-12)
    below = price_two_outcome_fair(a_star * (1 - 1e-9), 1.0, R05)
    above = price_two_outcome_fair(a_star * (1 + 1e-9), 1.0, R05)
    assert below.regime == REGIME_FULL
    assert above.regime == REGIME_INTERIOR
    assert abs(above.price - below.price) <= 1e-8 * res_at.price


def test_first_order_condition_residual():
    rng = np.random.default_rng(11)
    for _ in range(25):
        pay = rng.uniform(0.2, 50.0, rng.integers(2, 5))
        w = rng.uniform(0.1, 1.0, pay.size)
        space = OutcomeSpace(w / w.sum())
        game = Game(pay)
        res = price_general(game, space, R05)
        if res.regime != REGIME_INTERIOR:
            continue
        u, t = res.price, res.proportion
        foc = float(
            np.sum(space.probs * (pay - u) / (pay * t - u * t + u))
        )
        assert abs(foc) < 1e-8


def test_concavity_in_mix():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rng.uniform(0.5, 30.0, 2)
        b = rng.uniform(0.5, 30.0, 2)
        cross = a[0] * b[1] - a[1] * b[0]
        if abs(cross) < 1e-6:
            continue
        basis = ConeBasis(COIN, [Game(a), Game(b)])
        p, q, alpha = rng.uniform(0.0, 1.0, 3)

        def u_of(w):
            return price_general(mix_game(basis, [w, 1.0 - w]), COIN, R05).price

        blend = alpha * p + (1.0 - alpha) * q
        assert u_of(blend) >= alpha * u_of(p) + (1.0 - alpha) * u_of(q) - 1e-9


# ---------------------------------------------------------------------------
# The numeric price against the nested bisection it replaced
# ---------------------------------------------------------------------------


# The bisection that optimal_proportion used before it shared the price
# solve's Newton kernel, and the growth kernel it evaluated; kept here,
# unchanged, as an independent reference.
T_TOL = 1e-12


def _elg(pay, pr, u, t):
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


def _bisection_price(pay, pr, rate, rel_tol=1e-14):
    """Reference solver: bisection on u, each step maximizing growth over t by
    bisection (_opt_t), in the bracket [gm/g, E/g]. About 40 x 40 sweeps."""
    g = rate.growth_factor()
    log_g = rate.log_growth_factor()
    mean = sum(p * a for a, p in zip(pay, pr))
    if min(pay) > 0.0:
        gm = math.exp(sum(p * math.log(a) for a, p in zip(pay, pr)))
        hm = 1.0 / sum(p / a for a, p in zip(pay, pr))
    else:
        gm, hm = 0.0, 0.0
    if gm > 0.0 and gm / g <= hm * (1.0 + 1e-14):
        return gm / g, 1.0, REGIME_FULL, g
    lo = gm / g if gm > 0.0 else mean * 1e-9
    hi = mean / g
    if not (_opt_t(pay, pr, lo)[1] >= log_g - 1e-12 and _opt_t(pay, pr, hi)[1] <= log_g + 1e-9):
        raise PricingError("price bracket invalid")
    for _ in range(200):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if _opt_t(pay, pr, mid)[1] > log_g:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    t, logv = _opt_t(pay, pr, u)
    return u, t, REGIME_INTERIOR, math.exp(logv)


def _agrees_with_bisection(pay, pr, rate):
    """Assert the Newton price matches the reference; return its regime."""
    pay = [float(a) for a in pay]
    pr = [float(p) for p in np.asarray(pr) / np.sum(pr)]
    u_ref, t_ref, regime_ref, _ = _bisection_price(pay, pr, rate)
    res = price_general(Game(pay), OutcomeSpace(pr), rate)
    case = (pay, pr, rate)
    assert res.regime == regime_ref, case
    assert res.price == pytest.approx(u_ref, rel=1e-11), case
    assert res.proportion == pytest.approx(t_ref, abs=1e-10), case
    assert abs(math.log(res.achieved_growth) - rate.log_growth_factor()) <= 1e-12, case
    return res.regime


def _record_passes(monkeypatch):
    """The u of every _growth_system pass from here on, in order."""
    passes = []
    system = pricer._growth_system

    def recorded(pay, pr, u, t):
        passes.append(u)
        return system(pay, pr, u, t)

    monkeypatch.setattr(pricer, "_growth_system", recorded)
    return passes


def _random_probs(rng, m):
    w = rng.uniform(0.1, 1.0, m)
    return w / w.sum()


class TestNewtonPrice:
    @pytest.mark.parametrize("m", [2, 3, 5, 50])
    def test_outcome_counts(self, m):
        rng = np.random.default_rng(100 + m)
        regimes = [
            _agrees_with_bisection(rng.uniform(0.2, 50.0, m), _random_probs(rng, m), Rate(r))
            for r in (0.005, 0.02, 0.05, 0.2) * 3
        ]
        assert regimes.count(REGIME_INTERIOR) >= 6

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_a_zero_payoff(self, m):
        rng = np.random.default_rng(200 + m)
        for r in (0.01, 0.05, 0.2) * 4:
            pay = rng.uniform(0.2, 50.0, m)
            pay[rng.integers(m)] = 0.0
            assert _agrees_with_bisection(pay, _random_probs(rng, m), Rate(r)) == REGIME_INTERIOR

    @pytest.mark.parametrize("r", [0.05, 20.0])
    def test_payoffs_from_1e_minus_6_to_1e6(self, r):
        # at r = 20, g = 4.9e8: interior only because gm/hm exceeds g, which
        # needs weight 0.03-0.15 on the payoff 1e-6 and most of the rest on 1e6
        rng = np.random.default_rng(300)
        regimes = []
        for m in (2, 3, 5) * 4:
            pay = 10.0 ** rng.uniform(-6.0, 6.0, m)
            pay[0], pay[-1] = 1e-6, 1e6
            pr = rng.uniform(0.01, 0.05, m)
            pr[0] = rng.uniform(0.03, 0.15)
            pr[-1] = 1.0 - pr[:-1].sum()
            regimes.append(_agrees_with_bisection(pay, pr, Rate(r)))
        assert regimes.count(REGIME_INTERIOR) >= 6

    def test_growth_factor_close_to_one(self):
        # payoffs at least a factor 2 apart: t is ill-conditioned in u when
        # the game is nearly constant, and no reference pins it to 1e-10
        rng = np.random.default_rng(400)
        for m in (2, 3, 5) * 4:
            pay = rng.uniform(1.0, 50.0, m)
            pay[0], pay[-1] = 1.0, 2.0 * max(pay)
            regime = _agrees_with_bisection(pay, _random_probs(rng, m), Rate(1e-8))
            assert regime == REGIME_INTERIOR

    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9])
    def test_a_hair_inside_the_regime_boundary(self, delta):
        # g = (1 - delta) gm/hm puts gm/g just above hm: u near gm/g, t near 1
        rng = np.random.default_rng(500)
        for m in (2, 3, 5) * 3:
            pay = rng.uniform(0.5, 50.0, m)
            pr = _random_probs(rng, m)
            gm = math.exp(float(pr @ np.log(pay)))
            hm = 1.0 / float(pr @ (1.0 / pay))
            rate = Rate(math.log(gm / hm) + math.log1p(-delta))
            assert _agrees_with_bisection(pay, pr, rate) == REGIME_INTERIOR

    def test_a_start_that_newton_overshoots_falls_back_to_lo(self, monkeypatch):
        pay, pr, rate = [19.0, 1.0], [0.5, 0.5], R05
        g = rate.growth_factor()
        lo = math.exp(0.5 * math.log(19.0)) / g
        hi = 10.0 / g
        start = (hi * (1.0 - 1e-9), 0.999)
        monkeypatch.setattr(pricer, "_newton_start", lambda *args: start)
        iterates = _record_passes(monkeypatch)
        u, t = _price_numeric(pay, pr, rate)
        # the Newton step from the start leaves the bracket; the fallback
        # starts at lo and rises to the price without passing it
        assert iterates[0] == start[0]
        assert iterates[1] == lo
        assert all(a <= b <= U_GAME_A for a, b in zip(iterates[1:], iterates[2:]))
        assert u == pytest.approx(U_GAME_A, rel=1e-13)
        assert t == pytest.approx(T_GAME_A, abs=1e-12)
        assert 0.0 < t < 1.0
        achieved = math.exp(expected_log_growth(Game(pay), OutcomeSpace(pr), u, t))
        assert achieved == pytest.approx(G, rel=1e-14)

    def test_the_fallback_alone_converges(self, monkeypatch):
        # from a start just below hi with t 1e-4 below 1 the first Newton step
        # lands below lo on both games, so every later pass is the fallback's
        g = R05.growth_factor()
        for pay, pr in (([19.0, 1.0], [0.5, 0.5]), ([0.0, 3.0, 7.0], [0.2, 0.5, 0.3])):
            hi = sum(p * a for a, p in zip(pay, pr)) / g
            monkeypatch.setattr(pricer, "_newton_start",
                                lambda *args, hi=hi: (hi * (1.0 - 1e-9), 0.9999))
            iterates = _record_passes(monkeypatch)
            u_ref, t_ref, _, _ = _bisection_price(pay, pr, R05)
            u, t = _price_numeric(pay, pr, R05)
            lo = (math.exp(sum(p * math.log(a) for a, p in zip(pay, pr))) / g if min(pay) > 0.0
                  else pricer._zero_payoff_floor(pay, pr, R05.log_growth_factor()))
            assert iterates[1] == lo
            assert all(a <= b <= u for a, b in zip(iterates[1:], iterates[2:]))
            assert 0.0 < t < 1.0
            assert u == pytest.approx(u_ref, rel=1e-13)
            assert t == pytest.approx(t_ref, abs=1e-12)
            monkeypatch.undo()

    def test_a_price_below_the_zero_payoff_bracket_raises(self):
        # the reference's bracket starts at E * 1e-9, and at r = 20 the price
        # of this game lies below it. _price_numeric starts from the certified
        # floor of _zero_payoff_floor; on two outcomes with one zero payoff
        # that floor is the price itself up to a relative (1 - p) u / a
        pay, pr, rate = [0.0, 1.0], [0.9, 0.1], Rate(20.0)
        with pytest.raises(PricingError):
            _bisection_price(pay, pr, rate)
        u, t = _price_numeric(pay, pr, rate)
        assert 0.0 < t < 1.0
        assert u == pytest.approx(0.1 * math.exp((0.9 * math.log(0.9) - 20.0) / 0.1), rel=1e-12)
        assert u == pytest.approx(5.3614986911377856e-89, rel=1e-12)
        assert t == pytest.approx(0.1, rel=1e-12)
        assert _growth_and_foc_residuals(pay, pr, rate, u, t) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_zero_payoff_games_converge_or_raise_in_bounded_time(self):
        # a price below the smallest normal float raises at once; every
        # other case converges, within the iteration cap, to a price where
        # growth and first-order condition hold
        rng = np.random.default_rng(7)
        solved = underflowed = 0
        with _time_limit(60.0):
            for i in range(800):
                rate = Rate((0.05, 1.0, 5.0, 20.0)[i % 4])
                m = int(rng.integers(2, 6))
                pay = rng.uniform(0.5, 20.0, m) * 10.0 ** rng.uniform(-3.0, 3.0, m)
                pay[rng.integers(m)] = 0.0
                pr = np.maximum(rng.dirichlet(np.full(m, rng.uniform(0.2, 2.0))), 1e-6)
                pay, pr = pay.tolist(), (pr / pr.sum()).tolist()
                try:
                    u, t = _price_numeric(pay, pr, rate)
                except PricingError as exc:
                    assert "underflows" in str(exc), (pay, pr, rate)
                    underflowed += 1
                    continue
                solved += 1
                assert 0.0 < t < 1.0, (pay, pr, rate)
                growth, foc = _growth_and_foc_residuals(pay, pr, rate, u, t)
                assert abs(growth) <= 1e-8 and abs(foc) <= 1e-7, (pay, pr, rate)
        assert solved >= 780 and underflowed >= 1


# ---------------------------------------------------------------------------
# Properties of the price solve over its edge cases
# ---------------------------------------------------------------------------


@st.composite
def _price_problems(draw):
    """(pay, pr, rate) with m = 2-8 outcomes, in one of four families: plain
    games; a zero payoff (rates up to 30%, where the reference's bracket
    still holds the price); payoffs from 1e-6 to 1e6; and g a relative 1e-9
    to 1e-3 below gm/hm, just inside the interior regime. Outside the last,
    continuous rates run from 1e-8 to 20. Every payoff list spans a factor
    2, so t is well conditioned in u."""
    m = draw(st.integers(2, 8))
    family = draw(st.sampled_from(("plain", "zero_payoff", "wide", "boundary")))
    unit = st.floats(0.0, 1.0)
    w = [0.05 + draw(unit) for _ in range(m)]
    pr = [v / sum(w) for v in w]
    if family == "wide":
        pay = [10.0 ** (12.0 * draw(unit) - 6.0) for _ in range(m)]
        pay[0], pay[-1] = 1e-6, 1e6
    else:
        pay = [0.5 + 49.5 * draw(unit) for _ in range(m)]
        pay[0], pay[-1] = 0.5, 2.0 * max(pay)
    if family == "zero_payoff":
        pay[draw(st.integers(0, m - 1))] = 0.0
    if family == "boundary":
        gm = math.exp(sum(p * math.log(a) for a, p in zip(pay, pr)))
        hm = 1.0 / sum(p / a for a, p in zip(pay, pr))
        r = math.log(gm / hm) + math.log1p(-(10.0 ** (6.0 * draw(unit) - 9.0)))
        assume(r > 0.0)
    else:
        r_max = 0.3 if family == "zero_payoff" else 20.0
        r = 1e-8 * (r_max / 1e-8) ** draw(unit)
    return pay, pr, Rate(r)


def _check_price_solve(pay, pr, rate):
    """The numeric solve converges to the reference price within 1e-13, in
    its bracket [lo, E/g] with 0 < t < 1 unless at lo = gm/g with t = 1, its
    growth at (u, t) is log g within 1e-12, and t is optimal_proportion's."""
    game, space = Game(pay), OutcomeSpace(pr)
    u, t = _price_numeric(pay, pr, rate)
    g = rate.growth_factor()
    lo = (geometric_mean(game, space) / g if min(pay) > 0.0
          else pricer._zero_payoff_floor(pay, pr, rate.log_growth_factor()))
    assert lo <= u <= expectation(game, space) / g and (0.0 < t < 1.0 or t == 1.0 and u == lo)
    assert u == pytest.approx(_bisection_price(pay, pr, rate)[0], rel=1e-13)
    assert abs(expected_log_growth(game, space, u, t) - rate.log_growth_factor()) <= 1e-12
    assert optimal_proportion(game, space, u)[0] == pytest.approx(t, abs=1e-12)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_price_problems())
def test_the_price_solve_meets_its_reference(problem):
    _check_price_solve(*problem)


def test_a_step_that_leaves_the_log_domain_falls_back_to_the_best_stake(monkeypatch):
    # (1, 100) on (0.9, 0.1) at 5%: the first Newton step leaves the log
    # domain, which a damped step once shortened by three halvings
    seen = []
    best_stake = pricer._best_stake

    def recorded(pay, pr, u, t):
        seen.append(u)
        return best_stake(pay, pr, u, t)

    monkeypatch.setattr(pricer, "_best_stake", recorded)
    _check_price_solve([1.0, 100.0], [0.9, 0.1], R05)
    assert seen


def test_a_step_below_lo_from_the_best_stake_goes_to_lo(monkeypatch):
    # (0.5, 1) just inside the interior regime, t* near 1: the start's
    # Newton step fails the bracket test, and from lo, a hair below the
    # price, Newton at the best stake reaches it
    pay, pr = [0.5, 1.0], [0.1380938292619644, 0.8619061707380357]
    rate = Rate(0.03363543392064187)
    passes = _record_passes(monkeypatch)
    u, t = _price_numeric(pay, pr, rate)
    assert 0.0 < t < 1.0
    assert len(passes) <= 20
    assert u == pytest.approx(_bisection_price(pay, pr, rate)[0], rel=1e-13)


def test_the_newton_start_holds_t_below_one(monkeypatch):
    # on the same game the second-order start puts t at 1.28; held below 1,
    # the solve takes 3 growth passes where it took 16
    pay, pr = [0.5, 1.0], [0.1380938292619644, 0.8619061707380357]
    rate = Rate(0.03363543392064187)
    g, log_g, mean = rate.growth_factor(), rate.log_growth_factor(), _dot(pay, pr)
    lo = math.exp(_dot(pr, map(math.log, pay))) / g
    assert 0.0 < pricer._newton_start(pay, pr, mean, log_g, lo, mean / g)[1] < 1.0
    passes = _record_passes(monkeypatch)
    u, t = _price_numeric(pay, pr, rate)
    assert len(passes) <= 7
    assert u == pytest.approx(_bisection_price(pay, pr, rate)[0], rel=1e-13)


# ---------------------------------------------------------------------------
# The 50-digit decimal reference: prices, and prices below float range
# ---------------------------------------------------------------------------


def _check_against_decimal(pay, pr, rate, rel=1e-13):
    """The solve's price is within rel of the decimal reference, or it is
    refused as not representable and the reference lies below the smallest
    normal float."""
    ref = decimal_price(pay, pr, rate)
    try:
        u = _price_numeric(pay, pr, rate)[0]
    except PricingError as exc:
        assert "not representable" in str(exc), (pay, pr, rate)
        assert ref < Decimal(sys.float_info.min), (pay, pr, rate, ref)
        return
    assert abs(Decimal(u) - ref) <= Decimal(rel) * ref, (pay, pr, rate, u, ref)


@st.composite
def _zero_payoffs_at_high_rates(draw):
    """(pay, pr, rate): m = 2-6 outcomes, about one payoff in three zero and
    at least one, the others over 10 orders of magnitude, with probability
    weights 1e-2 to 1 apart, at continuous rates from 0.01 to 100. Where
    little probability falls on positive payoffs, the price can lie below
    the smallest normal float."""
    m = draw(st.integers(2, 6))
    unit = st.floats(0.0, 1.0)
    pay = [0.0 if draw(st.integers(0, 2)) == 0 else 10.0 ** (10.0 * draw(unit) - 5.0)
           for _ in range(m)]
    pay[draw(st.integers(0, m - 1))] = 0.0
    assume(max(pay) > 0.0)
    w = [10.0 ** (-2.0 * draw(unit)) for _ in range(m)]
    return pay, [v / sum(w) for v in w], Rate(0.01 * 1e4 ** draw(unit))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_price_problems())
def test_the_price_solve_meets_the_decimal_reference(problem):
    _check_against_decimal(*problem)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_zero_payoffs_at_high_rates())
def test_zero_payoffs_at_high_rates_meet_the_decimal_reference(problem):
    _check_against_decimal(*problem)


@pytest.mark.parametrize("pay, pr, r", [
    ([1e300, 1e-300], [0.5, 0.5], 400.0),  # kappa underflows
    ([1e300, 1e-300], [0.4, 0.6], 400.0),  # t a / u overflows
    ([0.0, 1e300], [0.9, 0.1], 71.0),  # so does a payoff over the floor
    ([0.0, 1e300, 5.0], [0.5, 0.1, 0.4], 300.0),  # the floor underflows
    # the stake's first-order condition is flat to rounding near t*: every
    # pass returns the same value, and Newton repeats a step of 5e-15
    ([2.7940866507937104e99, 8.341995224241442e258, 7.500116741535786e-288],
     [0.14763599797775598, 0.8522080426140529, 0.00015595940819121762],
     2.3013717090871826e-10),
])
def test_a_price_that_is_a_normal_float_is_priced(pay, pr, r):
    assert decimal_price(pay, pr, Rate(r)) >= Decimal(sys.float_info.min)
    _check_against_decimal(pay, pr, Rate(r))


@pytest.mark.parametrize("pay, pr, r", [
    ([0.0, 1.0], [0.9, 0.1], 100.0),  # about 2e-436
    ([3e-300, 1e-300, 2e-300], [0.2, 0.3, 0.5], 400.0),  # full investment
    ([1e-300, 1e-300], [0.5, 0.5], 400.0),  # sqrt(ab) underflows
])
def test_a_price_below_the_smallest_normal_float_is_not_representable(pay, pr, r):
    # every entry point refuses it with one message, and none divides by a
    # price that underflowed to 0
    rate = Rate(r)
    game, space = Game(pay), OutcomeSpace(pr)
    assert decimal_price(pay, pr, rate) < Decimal(sys.float_info.min)
    for price in (lambda: _price_numeric(pay, pr, rate),
                  lambda: price_general(game, space, rate),
                  lambda: least_squares_prices(ConeBasis(space, [game]), rate)):
        with pytest.raises(PricingError, match="not representable"):
            price()
    if pr == [0.5, 0.5]:
        with pytest.raises(PricingError, match="not representable"):
            price_two_outcome_fair(*pay, rate)


@pytest.mark.parametrize("pay, pr, r", [
    # every square of a payoff underflows, and with it the start's variance
    ([8.000903486140594e-238, 4.513346996280324e-284],
     [0.8516742516363607, 0.14832574836363932], 3.060216943418307e-10),
    # the start's t = u (E - u) / E[(a - u)^2] underflows to 0
    ([2.939616502677342e-158, 6.760051906492675e-273],
     [0.9999998466369139, 1.5336308617233972e-07], 8.392091904039545e-12),
    # from lo = gm/g, about 1e-224, the fallback's first step in log u is
    # beyond 709, where exp overflows
    ([2.2364676222909383e+218, 6.316140289254288e-227],
     [0.004260316419513593, 0.9957396835804865], 1.1925417483179868e-07),
])
def test_payoffs_hundreds_of_orders_of_magnitude_apart(pay, pr, r):
    with _time_limit(10.0):
        _check_against_decimal(pay, pr, Rate(r))


class TestPayoffsWhoseSquareOverflows:
    # past a payoff of about 1.3e154, (a - mean)^2 overflows to inf in the
    # starting point, which is then (lo, 1/2)

    @pytest.mark.parametrize("pay, pr", [([1e200, 1.0], [0.4, 0.6]),
                                         ([1e160, 3.0, 1.0], [0.2, 0.3, 0.5])])
    def test_the_start_falls_back_to_the_bracket(self, pay, pr):
        u, t = _price_numeric(pay, pr, R05)
        assert 0.0 < t < 1.0
        achieved = math.exp(expected_log_growth(Game(pay), OutcomeSpace(pr), u, t))
        assert achieved == pytest.approx(G, rel=1e-12)
        growth, foc = _growth_and_foc_residuals(pay, pr, R05, u, t)
        assert abs(growth) <= 1e-12 and abs(foc) <= 1e-12

    def test_a_price_beyond_float_range_raises_no_overflow_error(self, monkeypatch):
        # near its price, about 1e-48 on the fair coin and 1e-135 on (0.4,
        # 0.6), t a / u overflows, and the growth term is log D - log u there.
        # With 1e300 at 1% and 0 otherwise the price is below float range
        for pr, price in ((COIN.prob_tuple, 9.169686460444219e-49),
                          ((0.4, 0.6), 9.436370052596880e-136)):
            u, t = _price_numeric([1e300, 1e-300], pr, Rate(400))
            assert u == pytest.approx(price, rel=1e-13)
            assert t == pytest.approx(pr[0], rel=1e-12)
        assert decimal_price([1e300, 0.0], (0.01, 0.99), Rate(400)) < Decimal(sys.float_info.min)
        passes = _record_passes(monkeypatch)
        with pytest.raises(PricingError, match="not representable"):
            _price_numeric([1e300, 0.0], (0.01, 0.99), Rate(400))
        assert len(passes) <= 5


class TestOneRegimeRule:
    """price_general, the price solve and optimal_proportion decide full
    investment by one rule, u <= hm FULL_SLACK."""

    def test_a_payoff_below_eps_times_the_price(self):
        # at the game's own price u + (1 - u) rounds to 0: a growth pass at
        # t = 1 divided by zero
        game, space = Game([1e200, 1]), OutcomeSpace([0.4, 0.6])
        res = price_general(game, space, R05)
        t, growth = optimal_proportion(game, space, res.price)
        assert t == pytest.approx(res.proportion, rel=1e-14)
        assert growth == pytest.approx(0.05, rel=1e-12)

    def test_entry_points_agree_near_the_boundary(self):
        # fair coins, g within 3e-14 of gm/hm = E/gm; edge is g's relative
        # distance beyond the rule's boundary E = gm g FULL_SLACK, in rationals
        rng = random.Random(0)
        slack = Fraction(pricer.FULL_SLACK)
        checked = 0
        for _ in range(2000):
            a, b = rng.uniform(0.5, 50.0), rng.uniform(0.5, 50.0)
            g = 0.5 * (a + b) / math.sqrt(a * b) * (1.0 + rng.uniform(-3e-14, 3e-14))
            rate = Rate(g - 1.0, "simple")
            mean = (Fraction(a) + Fraction(b)) / 2
            edge = float(Fraction(a) * b * (Fraction(rate.growth_factor()) * slack) ** 2
                         / mean**2 - 1) / 2
            if abs(edge) < 1e-15:
                continue
            checked += 1
            game = Game([a, b])
            u, t_numeric = _price_numeric([a, b], COIN.prob_tuple, rate)
            t = optimal_proportion(game, COIN, u)[0]
            regimes = (price_general(game, COIN, rate).regime,
                       *(REGIME_FULL if s == 1.0 else REGIME_INTERIOR
                         for s in (t_numeric, t)))
            expected = REGIME_FULL if edge > 0.0 else REGIME_INTERIOR
            assert regimes == (expected,) * 3, (a, b, rate, edge)
        assert checked >= 1900


@st.composite
def _games(draw):
    """(pay, pr, rate): half the time a fair coin with positive payoffs, else
    m = 2-6 outcomes with about one payoff in five zero; continuous rates
    from 0.1% to 100%."""
    unit = st.floats(0.0, 1.0)
    rate = Rate(10.0 ** (3.0 * draw(unit) - 3.0))
    if draw(st.booleans()):
        return [0.5 + 49.5 * draw(unit) for _ in range(2)], [0.5, 0.5], rate
    m = draw(st.integers(2, 6))
    pay = [0.0 if draw(st.integers(0, 4)) == 0 else 0.5 + 49.5 * draw(unit)
           for _ in range(m)]
    assume(max(pay) > 0.0)
    w = [0.05 + draw(unit) for _ in range(m)]
    return pay, [v / sum(w) for v in w], rate


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_games())
def test_one_price_per_game_whatever_the_entry_point(problem):
    # price_general, price_series on the same terms, the stand-alone price of
    # a least-squares solve and, on a fair coin, the closed form's entry
    # point all take one route, so they agree bit for bit
    pay, pr, rate = problem
    game, space = Game(pay), OutcomeSpace(pr)
    res = price_general(game, space, rate)
    series = SeriesGame(lambda j: (pay[j - 1], pr[j - 1]) if j <= len(pay) else (0.0, 0.0),
                        tail_exponent=1.0, moment_bound=max(pay) + 1.0)
    assert price_series(series, rate) == res
    sol = least_squares_prices(ConeBasis(space, [game]), rate)
    assert sol.standalone_tuple == (res.price,)
    if pr == [0.5, 0.5] and min(pay) > 0.0:
        assert price_two_outcome_fair(*pay, rate) == res


def test_a_near_constant_interior_price_stays_in_its_bracket():
    # payoffs 7e-6 apart at g - 1 = 7e-12, 6e-15 inside the interior regime:
    # the last Newton step lands 2.9e-14 below gm/g with t = 1.0009, so the
    # solve falls back to lo rather than return it
    game = Game([15.054335981344655, 15.054224284221291])
    rate = Rate(6.865175095072118e-12, "simple")
    u, t = _price_numeric(game.payoff_tuple, COIN.prob_tuple, rate)
    assert t != 1.0  # the interior regime, as price_general reads it
    assert u >= geometric_mean(game, COIN) / rate.growth_factor()
    assert optimal_proportion(game, COIN, u)[0] < 1.0


def _growth_and_foc_residuals(pay, pr, rate, u, t):
    """E log(1 + t(a - u)/u) - log g, and the first-order condition relative
    to E|a - u| / (u + t(a - u)), in plain floating point."""
    growth = foc = scale = 0.0
    for a, p in zip(pay, pr):
        den = u + t * (a - u)
        growth += p * math.log(den / u)
        foc += p * (a - u) / den
        scale += p * abs(a - u) / den
    return growth - rate.log_growth_factor(), foc / (1.0 + scale)


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block after `seconds` (a solve that loops)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
