import math
import random

import numpy as np
import pytest

from gameprice import (
    Game,
    InvariantViolation,
    OutcomeSpace,
    Rate,
    SimConfig,
    SimReport,
    expected_log_growth,
    fair_coin,
    max_proportion,
    price_general,
    simulate_growth,
    sweep_proportion,
)
from gameprice import simulate

COIN = fair_coin()
G = math.exp(0.05)
GAME_A = Game([19, 1])
GAME_B = Game([10, 10])


class TestSimConfig:
    def test_validates_fields(self):
        with pytest.raises(InvariantViolation):
            SimConfig(attempts=0, paths=1, seed=0, price=1.0, proportion=0.5)
        with pytest.raises(InvariantViolation):
            SimConfig(attempts=1, paths=1, seed=0, price=0.0, proportion=0.5)
        with pytest.raises(InvariantViolation):
            SimConfig(attempts=1, paths=1, seed=0, price=1.0, proportion=1.5)

    @pytest.mark.parametrize("field, value", [
        ("attempts", 2.5), ("attempts", 3.0), ("attempts", True),
        ("paths", 3.0), ("paths", True),
        ("seed", 1.5), ("seed", True), ("seed", False), ("seed", "1"),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        fields = dict(attempts=5, paths=3, seed=1, price=5.0, proportion=0.3)
        fields[field] = value
        with pytest.raises(InvariantViolation, match=field):
            SimConfig(**fields)


class TestSimulateGrowth:
    def test_deterministic_for_fixed_seed(self):
        cfg = SimConfig(attempts=500, paths=64, seed=1234, price=7.224, proportion=0.274)
        a = simulate_growth(GAME_A, COIN, cfg)
        b = simulate_growth(GAME_A, COIN, cfg)
        assert a == b

    def test_seed_changes_draws(self):
        cfg = SimConfig(attempts=500, paths=64, seed=1, price=7.224, proportion=0.274)
        cfg2 = SimConfig(attempts=500, paths=64, seed=2, price=7.224, proportion=0.274)
        assert simulate_growth(GAME_A, COIN, cfg) != simulate_growth(GAME_A, COIN, cfg2)

    def test_game_b_growth_is_exactly_riskfree(self):
        u = price_general(GAME_B, COIN, Rate(0.05)).price
        cfg = SimConfig(attempts=100, paths=5, seed=0, price=u, proportion=1.0)
        rep = simulate_growth(GAME_B, COIN, cfg)
        assert rep.mean_growth == pytest.approx(G, rel=1e-12)
        assert rep.var_growth == 0.0

    def test_zero_stake_growth_is_one(self):
        cfg = SimConfig(attempts=100, paths=7, seed=0, price=5.0, proportion=0.0)
        rep = simulate_growth(GAME_A, COIN, cfg)
        assert rep.mean_growth == 1.0
        assert rep.var_growth == 0.0

    def test_game_a_converges_to_riskfree_growth(self):
        cfg = SimConfig(
            attempts=10_000, paths=1_000, seed=7, price=7.224, proportion=0.274
        )
        rep = simulate_growth(GAME_A, COIN, cfg)
        assert abs(rep.mean_growth - G) <= 3 * rep.ci_halfwidth
        assert rep.var_growth < 1e-4

    def test_ruin_at_the_stake_cap_counts_failures(self):
        # payoff 0 with t = 1 zeroes capital on the first tail
        cfg = SimConfig(attempts=10, paths=50, seed=3, price=0.5, proportion=1.0)
        rep = simulate_growth(Game([0, 2]), COIN, cfg)
        assert rep.failed_paths > 0

    @pytest.mark.parametrize("payoffs, u", [
        ((1e300, 1e290), 1e100),  # a squared deviation overflows
        ((1.5e157, 1.5e147), 1.0),  # each is finite, their sum is not
    ])
    def test_a_variance_past_the_float_range_is_inf(self, payoffs, u):
        cfg = SimConfig(attempts=10, paths=5, seed=0, price=u, proportion=1.0)
        rep = simulate_growth(Game(payoffs), COIN, cfg)
        assert math.isfinite(rep.mean_growth)
        assert rep.var_growth == rep.ci_halfwidth == math.inf

    def test_variance_decays_with_attempts(self):
        small = SimConfig(attempts=100, paths=400, seed=11, price=7.224, proportion=0.274)
        large = SimConfig(
            attempts=10_000, paths=400, seed=11, price=7.224, proportion=0.274
        )
        v_small = simulate_growth(GAME_A, COIN, small).var_growth
        v_large = simulate_growth(GAME_A, COIN, large).var_growth
        assert v_large <= 0.1 * v_small

    def test_mean_matches_analytic_limit(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pay = rng.uniform(0.5, 30.0, 2)
            game = Game(pay)
            res = price_general(game, COIN, Rate(0.05))
            cfg = SimConfig(
                attempts=4_000, paths=400, seed=int(rng.integers(1, 2**31)),
                price=res.price, proportion=min(res.proportion, 1.0),
            )
            rep = simulate_growth(game, COIN, cfg)
            limit = math.exp(
                expected_log_growth(game, COIN, cfg.price, cfg.proportion)
            )
            assert abs(rep.mean_growth - limit) <= 3 * rep.ci_halfwidth + 1e-12


def _numpy_counts(probs, attempts, seed, path):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(path,)))
    return rng.multinomial(attempts, probs).tolist()


def _numpy_report(game, space, cfg):
    """simulate_growth as numpy computes it: the reference for the plain-float
    version, with its counts from numpy's own generator."""
    factors = game.payoffs * (cfg.proportion / cfg.price) - cfg.proportion + 1.0
    alive = factors > 0.0
    log_f = np.where(alive, np.log(np.where(alive, factors, 1.0)), 0.0)
    growths = np.empty(cfg.paths)
    failures = 0
    inv_n = 1.0 / cfg.attempts
    for i in range(cfg.paths):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
        counts = rng.multinomial(cfg.attempts, space.probs)
        if np.any(counts[~alive] > 0):
            growths[i] = 0.0
            failures += 1
            continue
        growths[i] = math.exp(float(counts @ log_f) * inv_n)
    n = cfg.paths
    mean = math.fsum(growths) / n
    var = math.fsum((g - mean) ** 2 for g in growths) / n
    return SimReport(mean, var, 1.96 * math.sqrt(var / n), failures)


def _random_space(rng, m):
    weights = [rng.random() ** rng.choice((1, 4)) + 1e-3 for _ in range(m)]
    return OutcomeSpace([w / math.fsum(weights) for w in weights])


class TestStreamParity:
    """Each path's counts are numpy's default_rng(SeedSequence(seed,
    spawn_key=(i,))).multinomial draw, count for count."""

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.7, 0.02, 0.98, 0.45, 0.55])
    def test_two_outcome_counts_on_both_sides_of_inversion(self, p):
        # n min(p, q) <= 30 draws by inversion, above it by BTPE; p > 1/2
        # draws the complement
        rng = random.Random(p)
        space = OutcomeSpace([p, 1.0 - p])
        for n in (0, 1, 29, 30, 31, 59, 60, 61, 100, 1_499, 1_500, 1_501,
                  3_000, 20_000, 100_000):
            for _ in range(6):
                seed = rng.randrange(2**64)
                path = rng.randrange(2**40)
                assert simulate._path_counts(space, n, seed, path) == _numpy_counts(
                    space.prob_tuple, n, seed, path), (n, seed, path)

    def test_random_counts(self):
        rng = random.Random(18)
        for case in range(2_000):
            m = rng.randint(2, 8)
            space = _random_space(rng, m)
            n = rng.choice((0, 1, 7, 30, 31, 60, 200, 1_000,
                            rng.randint(0, 3_000), rng.randint(0, 100_000)))
            seed = rng.choice((0, rng.randrange(2**32), rng.randrange(2**32, 2**64),
                               rng.randrange(2**128, 2**160)))
            path = rng.choice((rng.randrange(64), rng.randrange(2**32, 2**34)))
            assert simulate._path_counts(space, n, seed, path) == _numpy_counts(
                space.prob_tuple, n, seed, path), (case, space.prob_tuple, n, seed, path)

    def test_reports_match_numpy_reference(self):
        rng = random.Random(7)
        for case in range(300):
            m = rng.randint(2, 5)
            space = _random_space(rng, m)
            payoffs = [rng.uniform(0.1, 30.0) for _ in range(m)]
            if rng.random() < 0.2:
                payoffs[rng.randrange(m)] = 0.0  # ruin when t = 1
            game = Game(payoffs)
            t = 1.0 if rng.random() < 0.1 else rng.uniform(0.05, 1.0)
            cfg = SimConfig(attempts=rng.randint(1, 3_000), paths=rng.randint(2, 20),
                            seed=rng.randrange(2**63), price=rng.uniform(1.0, 20.0),
                            proportion=t)
            got = simulate_growth(game, space, cfg)
            ref = _numpy_report(game, space, cfg)
            assert got.failed_paths == ref.failed_paths, case
            assert got.mean_growth == pytest.approx(ref.mean_growth, rel=1e-14), case
            assert got.var_growth == pytest.approx(ref.var_growth, rel=1e-10), case
            assert got.ci_halfwidth == pytest.approx(ref.ci_halfwidth, rel=1e-10), case


class TestSweep:
    @pytest.mark.parametrize("game, u, grid", [
        (GAME_A, 7.224, 5), (Game([0, 2]), 0.5, 7), (GAME_B, 9.0, 11),
    ])
    def test_rows_equal_simulate_growth(self, game, u, grid):
        cfg = SimConfig(attempts=300, paths=12, seed=2**40, price=u, proportion=0.0)
        rows = sweep_proportion(game, COIN, u, grid, cfg)
        t_cap = max_proportion(game, u)
        t_hi = 1.0 if math.isinf(t_cap) else min(1.0, t_cap * (1.0 - 1e-9))
        assert [r.proportion for r in rows] == np.linspace(0.0, t_hi, grid).tolist()
        for r in rows:
            rep = simulate_growth(game, COIN, cfg.replace(proportion=r.proportion))
            assert (r.mean_growth, r.var_growth, r.ci_halfwidth, r.failed_paths) == (
                rep.mean_growth, rep.var_growth, rep.ci_halfwidth, rep.failed_paths)

    def test_draws_each_path_once(self, monkeypatch):
        calls = []
        draw = simulate._path_counts

        def counted(*args):
            calls.append(args[-1])
            return draw(*args)

        monkeypatch.setattr(simulate, "_path_counts", counted)
        cfg = SimConfig(attempts=100, paths=10, seed=3, price=7.0, proportion=0.0)
        sweep_proportion(GAME_A, COIN, 7.0, 5, cfg)
        assert calls == list(range(10))

    def test_argmax_near_optimal_proportion(self):
        u = 7.224
        cfg = SimConfig(attempts=20_000, paths=200, seed=5, price=u, proportion=0.0)
        rows = sweep_proportion(GAME_A, COIN, u, 21, cfg)
        best = max(rows, key=lambda r: r.mean_growth)
        step = rows[1].proportion - rows[0].proportion
        assert abs(best.proportion - 0.2736) <= 2 * step

    def test_constant_game_below_fair_price_wants_full_stake(self):
        u = 9.0  # below 10/e^r
        cfg = SimConfig(attempts=500, paths=50, seed=5, price=u, proportion=0.0)
        rows = sweep_proportion(GAME_B, COIN, u, 11, cfg)
        best = max(rows, key=lambda r: r.mean_growth)
        assert best.proportion == 1.0
        growths = [r.mean_growth for r in rows]
        assert growths == sorted(growths)

    def test_at_expectation_zero_stake_is_best(self):
        u = 10.0
        cfg = SimConfig(attempts=20_000, paths=300, seed=9, price=u, proportion=0.0)
        rows = sweep_proportion(GAME_A, COIN, u, 11, cfg)
        best = max(rows, key=lambda r: r.mean_growth)
        step = rows[1].proportion - rows[0].proportion
        assert best.proportion <= 2 * step

    def test_grid_too_small_rejected(self):
        cfg = SimConfig(attempts=10, paths=2, seed=0, price=7.0, proportion=0.0)
        with pytest.raises(InvariantViolation):
            sweep_proportion(GAME_A, COIN, 7.0, 2, cfg)
