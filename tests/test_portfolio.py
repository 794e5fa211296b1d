import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gameprice import (
    ConeBasis,
    Game,
    InvariantViolation,
    OutcomeSpace,
    PricingError,
    Rate,
    compare_mean_variance,
    fair_coin,
    joint_space,
    one_fund_weight,
    price_general,
    put_call_parity,
    variance,
)
from gameprice import portfolio

R02S = Rate(0.02, "simple")
R05 = Rate(0.05)
COIN = fair_coin()
X = Game([50, 1])
Y = Game([30.6191, 14])

W_ONEFUND = 0.29322211318455194


class TestJointSpace:
    def test_uniform_four_outcomes(self):
        space, x4, y4 = joint_space(X, Y)
        assert space.probs.tolist() == [0.25] * 4
        assert x4.payoffs.tolist() == [50.0, 50.0, 1.0, 1.0]
        assert y4.payoffs.tolist() == [30.6191, 14.0, 30.6191, 14.0]

    def test_published_blend_vectors(self):
        _, x4, y4 = joint_space(X, Y)
        fund = 0.2932 * x4.payoffs + (1 - 0.2932) * y4.payoffs
        assert fund.tolist() == pytest.approx(
            [36.3016, 24.5552, 21.9348, 10.1884], abs=2e-4
        )
        best = 0.3514 * x4.payoffs + (1 - 0.3514) * y4.payoffs
        assert best.tolist() == pytest.approx(
            [37.4295, 26.6504, 20.2109, 9.4318], abs=2e-4
        )

    def test_needs_two_outcome_games(self):
        with pytest.raises(InvariantViolation):
            joint_space(Game([1, 2, 3]), Y)


class TestOneFundWeight:
    def test_published_weight(self):
        w = one_fund_weight(X, Y, R02S)
        assert w == pytest.approx(W_ONEFUND, rel=1e-10)
        assert w == pytest.approx(0.2932, abs=1e-3)

    def test_payoff_variances(self):
        assert variance(X, COIN) == 600.25
        assert variance(Y, COIN) == pytest.approx(69.0486, abs=1e-4)

    def test_symmetric_inputs_split_evenly(self):
        assert one_fund_weight(X, X, R02S) == pytest.approx(0.5, rel=1e-12)

    def test_constant_game_is_undefined(self):
        with pytest.raises(InvariantViolation, match="undefined"):
            one_fund_weight(Game([10, 10]), Y, R02S)

    def test_small_coin_next_to_a_much_larger_game(self):
        # each game's variance is measured against its own largest payoff:
        # x's relative spread is 28%, though its variance is below 1e-12 of
        # y's largest payoff squared
        x, y = Game([7.7e-4, 1.36e-3]), Game([86.0, 768.0])
        comp = compare_mean_variance(x, y, R02S)
        assert 0.0 < comp.w_onefund < 1.0
        assert comp.price_star >= comp.price_onefund
        with pytest.raises(InvariantViolation, match="undefined"):
            one_fund_weight(Game([10, 10]), y, R02S)

    def test_a_game_whose_variance_overflows_gets_no_weight(self):
        # v / max^2 taken in steps: inf for (1e200, 1), whose square
        # overflows, and 0 for the constant (1e200, 1e200)
        assert one_fund_weight(Game([1e200, 1]), Y, R02S) == 0.0
        with pytest.raises(InvariantViolation, match="undefined"):
            one_fund_weight(Game([1e200, 1e200]), Y, R02S)

    @staticmethod
    def _exact_weight(x: Game, y: Game, rate: Rate) -> Fraction:
        """s_x / (s_x + s_y), s = (r_i - r) / v_i, in exact arithmetic on the
        _coin_stats rates of mean return and the payoffs' exact variances."""
        def ratio(g: Game) -> Fraction:
            a, b = map(Fraction, g.payoff_tuple)
            v = (a - b) * (a - b) / 4
            return (Fraction(portfolio._coin_stats(g, rate)[3]) - Fraction(rate.value)) / v
        s_x, s_y = ratio(x), ratio(y)
        return s_x / (s_x + s_y)

    @pytest.mark.parametrize("x", [Game([1e-160, 2e-160]), Game([1e-200, 2e-200])])
    def test_a_tiny_coin_game_keeps_its_weight(self, x):
        # the variance of (1e-160, 2e-160) is subnormal and of (1e-200,
        # 2e-200) is 0; on the game scaled by a power of two it is neither
        w = one_fund_weight(x, Y, R02S)
        assert w == float(self._exact_weight(x, Y, R02S))
        w = one_fund_weight(Y, x, R02S)
        assert w == pytest.approx(float(self._exact_weight(Y, x, R02S)), abs=1e-300)

    def test_normal_range_weights_match_the_exact_formula(self):
        for x in (X, Game([7.7e-4, 1.36e-3]), Game([10.0, 9.99])):
            w = one_fund_weight(x, Y, R02S)
            assert w == pytest.approx(float(self._exact_weight(x, Y, R02S)), rel=1e-14)

    def test_mean_return_exceeds_rate_even_near_constant(self):
        # u <= E/g with equality only for constants, so E/u - 1 > r always;
        # the weight stays well defined arbitrarily close to degeneracy
        w = one_fund_weight(Game([10.0, 9.99]), Y, R02S)
        assert 0.0 < w < 1.0


class TestCompareMeanVariance:
    def test_published_comparison(self):
        comp = compare_mean_variance(X, Y, R02S)
        assert comp.u_x == pytest.approx(20.6721, abs=1e-3)
        assert comp.u_y == pytest.approx(20.6721, abs=1e-3)
        assert comp.r_x == pytest.approx(0.233546, abs=1e-5)
        assert comp.r_y == pytest.approx(0.079211, abs=1e-5)
        assert comp.w_onefund == pytest.approx(0.2932, abs=1e-3)
        assert comp.price_onefund == pytest.approx(21.3995, abs=1e-3)
        assert comp.w_star == pytest.approx(0.3514, abs=1e-3)
        assert comp.price_star == pytest.approx(21.4134, abs=1e-3)
        assert comp.t_star == pytest.approx(0.4222, abs=1e-3)
        assert comp.allocation == pytest.approx((0.1484, 0.2738, 0.5778), abs=1e-3)

    def test_blend_beats_onefund(self):
        comp = compare_mean_variance(X, Y, R02S)
        assert comp.price_star >= comp.price_onefund
        assert comp.price_onefund < comp.price_star  # strictly, for these inputs

    def test_allocation_reconstructs_from_parts(self):
        comp = compare_mean_variance(X, Y, R02S)
        t, w = comp.t_star, comp.w_star
        assert comp.allocation == (t * w, t * (1 - w), 1 - t)
        assert sum(comp.allocation) == pytest.approx(1.0, abs=1e-12)

    def test_identical_inputs_flat_objective_midpoint(self):
        comp = compare_mean_variance(X, X, R02S)
        assert comp.w_star == 0.5

    def test_each_coin_game_is_priced_once(self, monkeypatch):
        priced = []
        solve = portfolio.price_general

        def recorded(game, space, rate, **kwargs):
            priced.append((game.payoff_tuple, space.size))
            return solve(game, space, rate, **kwargs)

        monkeypatch.setattr(portfolio, "price_general", recorded)
        comp = compare_mean_variance(X, Y, R02S)
        assert [g for g, m in priced if m == 2] == [X.payoff_tuple, Y.payoff_tuple]
        assert comp.w_onefund == one_fund_weight(X, Y, R02S)

    def test_json_payload_has_all_intermediates(self):
        doc = compare_mean_variance(X, Y, R02S).to_json_dict()
        for key in ("u_x", "u_y", "r_x", "r_y", "v_x", "v_y", "w_onefund",
                    "price_onefund", "w_star", "price_star", "t_star", "allocation"):
            assert key in doc


class TestCertifiedBestBlend:
    def test_a_hessian_scale_that_underflows_is_divided_in_steps(self):
        # unit denominators on coin games 1e200 apart: at the peak of a ray
        # total adj_j adj_k underflows to 0, and the climb goes on; it then
        # stalls, the denominators lying 1e200 apart per unit of ceiling
        space, x4, y4 = joint_space(Game([1e200, 1]), Y)
        problem = portfolio._LsqProblem(ConeBasis(space, [x4, y4]), R02S)
        with pytest.raises(PricingError, match="stalled"):
            problem.maximize([1.0, 1.0], [0.5, 0.5])
        with pytest.raises(PricingError, match="stalled"):
            compare_mean_variance(Game([1e200, 1]), Y, R02S)

    def test_no_grid_weight_prices_above_the_certified_maximum(self):
        # seeded coin pairs at scales 1e-3..1e3, both games of a pair at one
        # scale
        rng = np.random.default_rng(35)
        pairs = [(Game([3.0, 0.0]), Game([1.0, 2.5]))]
        for _ in range(24):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            a = rng.uniform(0.05, 1.0, size=4) * scale
            pairs.append((Game(a[:2]), Game(a[2:])))
        weights = np.linspace(0.0, 1.0, 101)
        for x, y in pairs:
            for convention in ("continuous", "simple"):
                rate = Rate(float(rng.uniform(0.001, 0.5)), convention)
                comp = compare_mean_variance(x, y, rate)
                space, x4, y4 = joint_space(x, y)
                grid = max(
                    price_general(Game(w * x4.payoffs + (1 - w) * y4.payoffs),
                                  space, rate).price
                    for w in weights
                )
                assert grid <= comp.price_star * (1 + 1e-10), (x, y, rate)
                assert comp.price_star >= comp.price_onefund, (x, y, rate)


class TestPutCallParity:
    def test_published_example(self):
        rep = put_call_parity(Game([12, 8]), COIN, 10.0, R05)
        assert not rep.degenerate
        g = math.exp(0.05)
        # put + covered = strike pins both prices to their ceilings
        assert rep.put_price == pytest.approx(1.0 / g, rel=1e-9)
        assert rep.covered_price == pytest.approx(9.0 / g, rel=1e-9)
        assert rep.stock_price == pytest.approx(10.0 / g, rel=1e-9)
        assert abs(rep.residual) < 1e-7 * rep.strike

    def test_three_outcome_stock(self):
        space = OutcomeSpace([0.5, 0.3, 0.2])
        rep = put_call_parity(Game([14, 10, 6]), space, 9.0, R05)
        assert not rep.degenerate
        assert abs(rep.residual) < 1e-7 * rep.strike

    def test_a_call_far_above_the_strike_adds_no_rounding_to_the_residual(self):
        # the call's price, about 5e21, cancels out of the residual exactly;
        # computed as call - put + K/g - (call + covered) it read 1048576.0
        rep = put_call_parity(Game([1e22, 1.0]), COIN, 1e6, R05)
        assert not rep.degenerate
        assert abs(rep.residual) <= 1e-9 * rep.strike

    @pytest.mark.parametrize("probs", [(0.5, 0.3, 0.2), (0.2, 0.5, 0.3), (0.3, 0.3, 0.4)])
    def test_three_outcome_strike_sweep_never_stalls(self, probs):
        # put + covered = strike is a constant mix at every strike, so the
        # solve ends on its constant-mix exit, x = 1, where Jensen's
        # inequality gives L <= 1 with no oracle: max_violation is 0 at any
        # tolerance
        space = OutcomeSpace(list(probs))
        stock = np.array([14.0, 10.0, 6.0])
        for strike in np.linspace(7.0, 13.0, 13):
            rep = put_call_parity(Game(stock), space, float(strike), R05)
            assert not rep.degenerate
            assert rep.solution.termination == "constant_mix", strike
            assert rep.solution.max_violation == 0.0, strike
            # put + covered = strike pins every price at its ceiling exactly
            assert np.all(rep.solution.x == 1.0), (strike, rep.solution.x)
            ceiling = space.probs @ np.maximum(stock - strike, 0.0) / R05.growth_factor()
            assert rep.call_price == pytest.approx(ceiling, rel=1e-12), strike

    def test_random_stocks_end_on_the_constant_mix_exit(self):
        # 2 to 8 outcomes, payoffs from 1e-50 to 1e50 with 15% zeros, rates
        # up to 0.5 in both conventions: every solve takes the constant-mix
        # exit, keeps all three games and prices each at its ceiling E/g
        # (its stand-alone price where d = c - u is not positive)
        rng = random.Random(53)
        solved, conventions = 0, set()
        for _ in range(400):
            m = rng.randint(2, 8)
            lo = rng.uniform(-50.0, 50.0)
            hi = rng.uniform(lo, 50.0)
            pays = [0.0 if rng.random() < 0.15 else 10.0 ** rng.uniform(lo, hi)
                    for _ in range(m)]
            pays[rng.randrange(m)] = 10.0 ** hi
            pos = [a for a in pays if a > 0.0]
            strike = 10.0 ** rng.uniform(math.log10(min(pos)), math.log10(max(pos)))
            weights = [rng.uniform(0.05, 1.0) for _ in range(m)]
            rate = Rate(rng.uniform(1e-3, 0.5), rng.choice(["continuous", "simple"]))
            rep = put_call_parity(Game(pays), OutcomeSpace([w / sum(weights)
                                                            for w in weights]),
                                  strike, rate)
            if rep.degenerate:
                continue
            sol = rep.solution
            assert (sol.termination, sol.max_violation, sol.basis) == (
                "constant_mix", 0.0, (0, 1, 2)), (pays, strike, rate)
            for x, u, c, price in zip(sol.x_tuple, sol.standalone_tuple,
                                      sol.ceiling_tuple, sol.price_tuple):
                assert x == (1.0 if c > u else 0.0)
                assert price == pytest.approx(c if c > u else u, rel=1e-15)
            solved += 1
            conventions.add(rate.convention)
        assert solved > 350 and conventions == {"continuous", "simple"}

    def test_strike_below_every_payoff_degenerates(self):
        rep = put_call_parity(Game([12, 8]), COIN, 5.0, R05)
        assert rep.degenerate
        assert "put pays nothing" in rep.reason

    def test_strike_above_every_payoff_degenerates(self):
        rep = put_call_parity(Game([12, 8]), COIN, 15.0, R05)
        assert rep.degenerate
        assert "call pays nothing" in rep.reason

    def test_nonpositive_strike_rejected(self):
        for strike in (0.0, -1.0):
            with pytest.raises(InvariantViolation, match="strike must be finite and > 0"):
                put_call_parity(Game([12, 8]), COIN, strike, R05)

    @pytest.mark.parametrize("strike", [math.inf, math.nan])
    def test_non_finite_strike_rejected(self, strike):
        # inf used to pass as a strike above every payoff, and nan to fail
        # later as a payoff that is not finite
        with pytest.raises(InvariantViolation, match="strike must be finite and > 0"):
            put_call_parity(Game([12, 8]), COIN, strike, R05)

    def test_stock_with_zero_payoff(self):
        rep = put_call_parity(Game([9, 0]), COIN, 4.0, R05)
        assert not rep.degenerate
        assert abs(rep.residual) < 1e-7 * rep.strike
