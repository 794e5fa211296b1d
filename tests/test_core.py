import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gameprice import (
    BasisError,
    ConeBasis,
    DimensionMismatch,
    Game,
    GameFileError,
    InvariantViolation,
    Mix,
    OutcomeSpace,
    Rate,
    SimConfig,
    combine,
    constant_series,
    expectation,
    expected_log_growth,
    fair_coin,
    geometric_mean,
    harmonic_mean,
    least_squares_prices,
    mix_game,
    optimal_proportion,
    parse_game_file,
    price_general,
    price_series,
    put_call_parity,
    reduce_to_basis,
    simulate_growth,
    st_petersburg,
    sweep_proportion,
    variance,
)

COIN = fair_coin()


class TestOutcomeSpace:
    def test_renormalizes_exactly(self):
        s = OutcomeSpace([0.3, 0.3, 0.4 - 1e-13])
        assert float(s.probs.sum()) == 1.0

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InvariantViolation):
            OutcomeSpace([0.5, 0.5, 0.0])

    def test_rejects_bad_total(self):
        with pytest.raises(InvariantViolation):
            OutcomeSpace([0.5, 0.6])

    def test_immutable(self):
        s = OutcomeSpace([0.5, 0.5])
        with pytest.raises(ValueError):
            s.probs[0] = 0.9


class TestGame:
    def test_rejects_negative_payoff(self):
        with pytest.raises(InvariantViolation):
            Game([1.0, -0.1])

    def test_rejects_all_zero(self):
        with pytest.raises(InvariantViolation):
            Game([0.0, 0.0])

    def test_zero_entries_allowed(self):
        assert Game([0.0, 2.0]).size == 2


class TestInputChecks:
    """Each input check raises its own error with its whole message."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Game([19, 1]).scaled(0), InvariantViolation, "scale factor must be > 0"),
        (lambda: constant_series(0), InvariantViolation, "constant payoff must be > 0"),
        (lambda: combine(ConeBasis(COIN, [Game([19, 1]), Game([4, 16])]), [1.0]),
         DimensionMismatch, "coefficients of length 1 over 2 games"),
        (lambda: combine(ConeBasis(COIN, [Game([19, 1]), Game([4, 16])]), [0.0, 0.0]),
         InvariantViolation, "cone coefficients must not all be zero"),
    ], ids=["scaled-by-0", "constant-series-of-0", "combine-wrong-length",
            "combine-all-zero"])
    def test_each_check_raises_its_message(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


class TestValueTypes:
    """Games and outcome spaces keep float tuples and build their arrays lazily."""

    @pytest.mark.parametrize("make, values", [
        (Game, []),
        (Game, [[1.0, 2.0], [3.0, 4.0]]),
        (Game, np.ones((2, 2))),
        (Game, 5.0),
        (Game, [1.0, math.nan]),
        (Game, [1.0, math.inf]),
        (Game, [1.0, -0.1]),
        (Game, [0.0, 0.0]),
        (OutcomeSpace, []),
        (OutcomeSpace, [[0.5, 0.5]]),
        (OutcomeSpace, [0.5, math.nan]),
        (OutcomeSpace, [math.inf, 0.5]),
        (OutcomeSpace, [1.0, 0.0]),
        (OutcomeSpace, [0.5, 0.5 + 1e-11]),
        (Game, [1, 10**400]),  # an int beyond float range
        (Rate, 10**400),
    ])
    def test_invalid_values_raise_invariant_violation(self, make, values):
        with pytest.raises(InvariantViolation):
            make(values)

    @pytest.mark.parametrize("values", [5, [[1, 2]], "12", b"12"])
    def test_payoffs_that_are_not_a_vector_are_named(self, values):
        # a scalar or a nested list fails float(); a string would read as
        # its characters' digits
        with pytest.raises(InvariantViolation, match="^payoffs must be a nonempty 1-d vector$"):
            Game(values)

    def test_arrays_are_read_only_float64_and_cached(self):
        g = Game([19, 1])
        s = OutcomeSpace(np.array([0.25, 0.75]))
        m = Mix([0.25, 0.75])
        sol = least_squares_prices(ConeBasis(COIN, [g, Game([10, 10])]), Rate(0.05))
        for arr, again, values in ((g.payoffs, g.payoffs, g.payoff_tuple),
                                   (s.probs, s.probs, s.prob_tuple),
                                   (m.weights, m.weights, m.weight_tuple),
                                   (sol.x, sol.x, sol.x_tuple),
                                   (sol.prices, sol.prices, sol.price_tuple),
                                   (sol.standalone, sol.standalone, sol.standalone_tuple),
                                   (sol.ceilings, sol.ceilings, sol.ceiling_tuple)):
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
            assert not arr.flags.writeable
            assert arr is again
            assert arr.tolist() == list(values)
        assert all(type(v) is float for v in g.payoff_tuple + s.prob_tuple)

    def test_renormalization_matches_numpy(self):
        # below 8 entries numpy sums left to right, as OutcomeSpace does; above,
        # numpy sums pairwise, and either order is within (m - 1) eps / 2 of
        # the exact sum, so each probability moves by at most m eps of itself
        rng = np.random.default_rng(15)
        eps = sys.float_info.epsilon
        for m in range(1, 70):
            for _ in range(50):
                raw = rng.random(m) ** 3 + 1e-9
                a = raw / raw.sum()
                ref = a / a.sum()
                got = np.array(OutcomeSpace(a).prob_tuple)
                if m <= 7:
                    assert got.tobytes() == ref.tobytes(), m
                else:
                    assert np.all(np.abs(got - ref) <= m * eps * ref), m

    def test_st_petersburg_price_unchanged(self):
        assert price_series(st_petersburg(), Rate(0.05)).price == 4.815577514678612


_SIM = SimConfig(attempts=10, paths=2, seed=0, price=1.0, proportion=0.5)


class TestDimensionMismatch:
    """Every entry point that pairs games with an outcome space checks their
    lengths the same way, with DimensionMismatch (an InvariantViolation)."""

    @pytest.mark.parametrize("call", [
        expectation,
        geometric_mean,
        harmonic_mean,
        variance,
        lambda g, s: ConeBasis(s, [g]),
        lambda g, s: reduce_to_basis([g], s),
        lambda g, s: price_general(g, s, Rate(0.05)),
        lambda g, s: expected_log_growth(g, s, 1.0, 0.5),
        lambda g, s: optimal_proportion(g, s, 1.0),
        lambda g, s: simulate_growth(g, s, _SIM),
        lambda g, s: sweep_proportion(g, s, 3, _SIM),
        lambda g, s: put_call_parity(g, s, 2.0, Rate(0.05)),
    ], ids=["expectation", "geometric_mean", "harmonic_mean", "variance", "ConeBasis",
            "reduce_to_basis", "price_general", "expected_log_growth",
            "optimal_proportion", "simulate_growth", "sweep_proportion",
            "put_call_parity"])
    def test_each_entry_point_raises_dimension_mismatch(self, call):
        with pytest.raises(DimensionMismatch, match="game of length 3 on a space of 2"):
            call(Game([3.0, 1.0, 2.0]), COIN)


class TestSimplexValidation:
    @pytest.mark.parametrize("make, name", [(OutcomeSpace, "probabilities"),
                                            (Mix, "mix weights")])
    def test_the_message_names_the_type(self, make, name):
        with pytest.raises(InvariantViolation, match=f"^{name} must sum to 1 within"):
            make([0.5, 0.6])

    @pytest.mark.parametrize("make, attr", [(OutcomeSpace, "prob_tuple"),
                                            (Mix, "weight_tuple")])
    def test_renormalized_by_the_left_to_right_sum(self, make, attr):
        values = [0.1, 0.2, 0.3, 0.4 + 3e-13]
        total = ((0.1 + 0.2) + 0.3) + (0.4 + 3e-13)
        assert getattr(make(values), attr) == tuple(v / total for v in values)


class TestRate:
    def test_growth_factor_continuous(self):
        assert Rate(0.05).growth_factor() == pytest.approx(math.exp(0.05), rel=1e-15)

    def test_growth_factor_simple(self):
        assert Rate(0.02, "simple").growth_factor() == 1.02

    def test_rejects_nonpositive(self):
        with pytest.raises(InvariantViolation):
            Rate(0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_rate_that_is_not_finite_is_reported_as_such(self, value):
        with pytest.raises(InvariantViolation, match="rate must be finite"):
            Rate(value)

    def test_rejects_unknown_convention(self):
        with pytest.raises(InvariantViolation):
            Rate(0.05, "weekly")

    def test_rejects_a_continuous_rate_whose_growth_factor_overflows(self):
        top = math.log(sys.float_info.max)
        assert math.isfinite(Rate(top).growth_factor())
        with pytest.raises(InvariantViolation, match="overflows"):
            Rate(710.0)
        with pytest.raises(InvariantViolation, match="overflows"):
            Rate(math.nextafter(top, math.inf))
        assert Rate(710.0, "simple").growth_factor() == 711.0


class TestMixAndBasis:
    def test_mix_validates_simplex(self):
        with pytest.raises(InvariantViolation):
            Mix([0.5, 0.4])
        with pytest.raises(InvariantViolation):
            Mix([1.5, -0.5])

    def test_proportional_pair_is_not_a_basis(self):
        # ConeBasis takes the pair; the reduction keeps one game, and the
        # solve, with no constant mix to pin the prices, prices the other by
        # linearity
        b = ConeBasis(COIN, [Game([2, 4]), Game([5, 10])])
        assert reduce_to_basis(b.games, COIN)[0].n == 1
        sol = least_squares_prices(b, Rate(0.05))
        assert sol.basis == (0,) and sol.termination == "linear"
        assert sol.price_tuple[1] == pytest.approx(2.5 * sol.price_tuple[0], rel=1e-14)
        # only an empty set is no ConeBasis, for the reduction too
        for make in (ConeBasis, lambda space, games: reduce_to_basis(games, space)):
            with pytest.raises(BasisError):
                make(COIN, [])

    def test_pair_far_apart_in_scale_is_a_basis(self):
        # B lies 3.5e-9 of its size off A's ray: reduce_to_basis keeps both
        assert reduce_to_basis([Game([1, 1]), Game([10000, 10000.00005])], COIN)[0].n == 2
        assert reduce_to_basis([Game([1, 1]), Game([10000, 10000.000005])], COIN)[0].n == 1

    def test_pair_verdict_is_scale_invariant(self):
        rng = np.random.default_rng(8)
        verdicts = []
        for trial in range(120):
            m = int(rng.integers(2, 6))
            a = rng.uniform(0.5, 20.0, m)
            # exact multiples, pairs 1e-11 and 1e-7 off proportional, unrelated
            off = (0.0, 1e-11, 1e-7, 1.0)[trial % 4]
            b = a * rng.uniform(0.01, 100.0) * (1.0 + off * rng.uniform(-1.0, 1.0, m))
            if off == 1.0:
                b = rng.uniform(0.5, 20.0, m)
            space = OutcomeSpace(np.full(m, 1.0 / m))
            verdict = {reduce_to_basis([Game(a * 10.0**k), Game(b * 10.0**k)], space)[0].n == 2
                       for k in range(-6, 7)}
            assert len(verdict) == 1, (a, b)
            verdicts.append(verdict.pop())
        assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantViolation):
            ConeBasis(COIN, [Game([1, 2, 3])])

    def test_payoff_matrix_columns(self):
        b = ConeBasis(COIN, [Game([19, 1]), Game([4, 16])])
        assert b.payoff_matrix().tolist() == [[19.0, 4.0], [1.0, 16.0]]


class TestStatistics:
    def test_expectation_game_a(self):
        assert expectation(Game([19, 1]), COIN) == 10.0

    def test_expectation_constant(self):
        s = OutcomeSpace([0.2, 0.3, 0.5])
        assert expectation(Game([7, 7, 7]), s) == pytest.approx(7.0, rel=1e-15)

    def test_expectation_x(self):
        assert expectation(Game([50, 1]), COIN) == 25.5

    def test_geometric_mean_constant(self):
        assert geometric_mean(Game([10, 10]), COIN) == pytest.approx(10.0, rel=1e-14)

    def test_geometric_mean_game_a(self):
        assert geometric_mean(Game([19, 1]), COIN) == pytest.approx(
            math.sqrt(19.0), rel=1e-14
        )

    def test_geometric_mean_4_16(self):
        assert geometric_mean(Game([4, 16]), COIN) == pytest.approx(8.0, rel=1e-14)

    def test_geometric_mean_zero_payoff_signals(self):
        with pytest.raises(InvariantViolation, match="interior"):
            geometric_mean(Game([0, 2]), COIN)

    def test_harmonic_mean_zero_payoff_is_zero(self):
        assert harmonic_mean(Game([0, 2]), COIN) == 0.0

    def test_variance_x(self):
        assert variance(Game([50, 1]), COIN) == 600.25

    def test_a_variance_past_the_float_range_is_inf(self):
        assert variance(Game([1e200, 1]), COIN) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantViolation):
            expectation(Game([1, 2, 3]), COIN)


class TestMixGame:
    def test_example_constant_mix(self):
        b = ConeBasis(COIN, [Game([19, 1]), Game([4, 16])])
        mixed = mix_game(b, [0.4, 0.6])
        assert mixed.payoffs.tolist() == pytest.approx([10.0, 10.0], rel=1e-14)

    def test_vertex_keeps_game(self):
        b = ConeBasis(COIN, [Game([19, 1]), Game([4, 16])])
        assert mix_game(b, [1.0, 0.0]).payoffs.tolist() == [19.0, 1.0]

    def test_a_plus_c_halved_is_b(self):
        b = ConeBasis(COIN, [Game([19, 1]), Game([1, 19])])
        mixed = mix_game(b, [0.5, 0.5])
        assert mixed.payoffs.tolist() == [10.0, 10.0]


positive_payoffs = st.lists(
    st.floats(min_value=0.1, max_value=100.0), min_size=2, max_size=6
)


@st.composite
def game_and_space(draw):
    pay = draw(positive_payoffs)
    raw = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=len(pay),
            max_size=len(pay),
        )
    )
    w = np.array(raw)
    return Game(pay), OutcomeSpace(w / w.sum())


@settings(max_examples=60, deadline=None)
@given(game_and_space(), st.floats(min_value=1e-3, max_value=50.0))
def test_means_positively_homogeneous(gs, k):
    game, space = gs
    scaled = game.scaled(k)
    assert expectation(scaled, space) == pytest.approx(
        k * expectation(game, space), rel=1e-12
    )
    assert geometric_mean(scaled, space) == pytest.approx(
        k * geometric_mean(game, space), rel=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(game_and_space())
def test_am_gm_bound(gs):
    game, space = gs
    gm = geometric_mean(game, space)
    mean = expectation(game, space)
    assert gm <= mean * (1.0 + 1e-12)
    spread = float(np.max(game.payoffs) - np.min(game.payoffs))
    if spread > 1e-6 * float(np.max(game.payoffs)):
        assert gm < mean


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_mix_linear_in_weights(p1, q1, alpha):
    b = ConeBasis(COIN, [Game([19, 1]), Game([4, 16])])
    p = np.array([p1, 1.0 - p1])
    q = np.array([q1, 1.0 - q1])
    blend = alpha * p + (1.0 - alpha) * q
    left = mix_game(b, blend).payoffs
    right = alpha * mix_game(b, p).payoffs + (1.0 - alpha) * mix_game(b, q).payoffs
    assert np.max(np.abs(left - right)) <= 1e-12 * np.max(right)


class TestGameFileSchema:
    GOOD = json.dumps(
        {
            "probabilities": [0.5, 0.5],
            "games": {"A": [19, 1], "B": [10, 10]},
            "rate": {"value": 0.05, "convention": "continuous"},
        }
    )

    def test_parses_documented_schema(self):
        gf = parse_game_file(self.GOOD)
        assert set(gf.games) == {"A", "B"}
        assert gf.rate.value == 0.05
        assert gf.space.size == 2

    def test_rate_optional(self):
        gf = parse_game_file('{"probabilities": [0.5, 0.5], "games": {"A": [1, 2]}}')
        assert gf.rate is None

    def test_bad_json_reports_position(self):
        with pytest.raises(GameFileError, match=r"line 1, column"):
            parse_game_file("{not json")

    def test_missing_games_key(self):
        with pytest.raises(GameFileError, match="games"):
            parse_game_file('{"probabilities": [0.5, 0.5]}')

    def test_game_length_mismatch(self):
        with pytest.raises(GameFileError, match="payoffs"):
            parse_game_file('{"probabilities": [0.5, 0.5], "games": {"A": [1, 2, 3]}}')


def test_st_petersburg_terms():
    sg = st_petersburg()
    pay, prob = sg.term(3)
    assert (pay, prob) == (8.0, 0.125)
    assert sg.tail_exponent == 0.5
