"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (visible with
pytest -s; always evaluated before the asserts), so the battery doubles as a
human-readable report.
"""

import math

import numpy as np

from gameprice import (
    ConeBasis,
    Game,
    KappaContext,
    Rate,
    SimConfig,
    combine,
    compare_mean_variance,
    expectation,
    fair_coin,
    geometric_mean,
    least_squares_prices,
    mix_game,
    price_general,
    price_series,
    price_two_outcome_fair,
    put_call_parity,
    simulate_growth,
    st_petersburg,
)
from gameprice.lsq import _LsqProblem, _max_dual
from gameprice.pricer import FULL_SLACK, _price_numeric

R05 = Rate(0.05)
R02S = Rate(0.02, "simple")
COIN = fair_coin()
G = math.exp(0.05)


def _report(criterion: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:2d}: {status} ({detail})")
    return ok


def test_criterion_01_game_a_closed_form():
    res = price_two_outcome_fair(19, 1, R05)
    kappa = KappaContext.from_rate(R05).kappa
    ok_u = abs(res.price - 7.224) <= 5e-4
    ok_t = abs(res.proportion - 0.274) <= 5e-4
    ok_k = abs(kappa - 0.3458) <= 5e-5
    ok = ok_u and ok_t and ok_k
    _report(1, ok, f"u={res.price:.6f} t={res.proportion:.6f} kappa={kappa:.7f}")
    assert ok


def test_criterion_02_game_b_full_investment():
    res = price_two_outcome_fair(10, 10, R05)
    ok = abs(res.price - 9.512) <= 5e-4 and res.proportion == 1.0
    _report(2, ok, f"u={res.price:.6f} t={res.proportion}")
    assert ok


def test_criterion_03_example_11():
    basis = ConeBasis(COIN, [Game([19, 1]), Game([4, 16])])
    sol = least_squares_prices(basis, R05)
    target = 10.0 / G
    ok_prices = all(abs(p - target) <= 1e-4 for p in sol.prices)
    q = sol.certificate
    mix_price = price_general(mix_game(basis, q), COIN, R05).price
    linear = float(q.weights @ sol.prices)
    tight = abs(mix_price - linear) <= 1e-7 * linear
    near = float(np.max(np.abs(q.weights - np.array([0.4, 0.6])))) <= 1e-3
    ok = ok_prices and (near or tight)
    _report(
        3, ok,
        f"prices=({sol.prices[0]:.6f}, {sol.prices[1]:.6f}) "
        f"q=({q.weights[0]:.4f}, {q.weights[1]:.4f}) tight={tight}",
    )
    assert ok


def test_criterion_04_example_12():
    sol = least_squares_prices(ConeBasis(COIN, [Game([19, 1]), Game([16, 4])]), R05)
    ok = (
        abs(sol.prices[0] - 7.224) <= 5e-4
        and abs(sol.prices[1] - 8.149) <= 5e-4
        and float(np.max(np.abs(sol.x))) <= 1e-6
    )
    _report(
        4, ok,
        f"prices=({sol.prices[0]:.6f}, {sol.prices[1]:.6f}) "
        f"|x|={float(np.max(np.abs(sol.x))):.2e}",
    )
    assert ok


def test_criterion_05_example_13():
    sol = least_squares_prices(ConeBasis(COIN, [Game([12, 8]), Game([11, 9])]), R05)
    sandwich = all(
        sol.standalone[i] < sol.prices[i] < sol.ceilings[i] for i in range(2)
    )
    ok = (
        abs(sol.prices[0] - 9.345) <= 1e-3
        and abs(sol.prices[1] - 9.469) <= 1e-3
        and sandwich
    )
    _report(
        5, ok,
        f"prices=({sol.prices[0]:.6f}, {sol.prices[1]:.6f}) sandwich={sandwich}",
    )
    assert ok


def test_criterion_06_st_petersburg():
    res = price_series(st_petersburg(), R05)
    ok = abs(res.price - 4.816) <= 1e-3 and abs(res.proportion - 0.204) <= 1e-3
    _report(6, ok, f"u={res.price:.6f} t={res.proportion:.6f}")
    assert ok


def test_criterion_07_one_fund_comparison():
    comp = compare_mean_variance(Game([50, 1]), Game([30.6191, 14]), R02S)
    checks = {
        "u_X": (comp.u_x, 20.6721),
        "u_Y": (comp.u_y, 20.6721),
        "w_onefund": (comp.w_onefund, 0.2932),
        "price_onefund": (comp.price_onefund, 21.3995),
        "w_star": (comp.w_star, 0.3514),
        "price_star": (comp.price_star, 21.4134),
        "alloc_x": (comp.allocation[0], 0.1484),
        "alloc_y": (comp.allocation[1], 0.2738),
        "alloc_cash": (comp.allocation[2], 0.5778),
    }
    bad = {k: v for k, (v, tgt) in checks.items() if abs(v - tgt) > 1e-3}
    ok = not bad
    _report(7, ok, "all nine within 1e-3" if ok else f"off: {bad}")
    assert ok


def test_criterion_08_parity_sweep():
    rng = np.random.default_rng(123)
    worst = 0.0
    n_checked = 0
    while n_checked < 50:
        lo, hi = np.sort(np.exp(rng.uniform(np.log(1.0), np.log(100.0), 2)))
        if hi - lo < 1e-3:
            continue
        strike = float(rng.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo)))
        rep = put_call_parity(Game([hi, lo]), COIN, strike, R05)
        assert not rep.degenerate
        worst = max(worst, abs(rep.residual) / strike)
        n_checked += 1
    ok = worst < 1e-7
    _report(8, ok, f"worst |residual|/K = {worst:.3e} over 50 instances")
    assert ok


def _check_homogeneity(rng) -> bool:
    for _ in range(200):
        a, b = np.exp(rng.uniform(np.log(0.3), np.log(60.0), 2))
        k = float(rng.uniform(1e-3, 100.0))
        base = price_two_outcome_fair(a, b, R05)
        scaled = price_two_outcome_fair(k * a, k * b, R05)
        if abs(scaled.price - k * base.price) > 1e-9 * abs(k * base.price):
            return False
        if abs(scaled.proportion - base.proportion) > 1e-9 * max(base.proportion, 1e-9):
            return False
    return True


def _random_game_space(rng):
    m = int(rng.integers(2, 6))
    pay = rng.uniform(0.2, 50.0, m)
    w = rng.uniform(0.1, 1.0, m)
    return Game(pay), __import__("gameprice").OutcomeSpace(w / w.sum())


def _check_bounds_amgm_foc(rng) -> bool:
    for _ in range(100):
        game, space = _random_game_space(rng)
        gm = geometric_mean(game, space)
        mean = expectation(game, space)
        if gm > mean * (1 + 1e-12):
            return False
        res = price_general(game, space, R05)
        if not (0.0 < res.price <= mean / G * (1 + 1e-9)):
            return False
        if res.regime == "interior":
            pay = game.payoffs
            u, t = res.price, res.proportion
            foc = float(np.sum(space.probs * (pay - u) / (pay * t - u * t + u)))
            if abs(foc) > 1e-8:
                return False
        if abs(res.achieved_growth - G) > 1e-9 * G:
            return False
    return True


def _check_closed_vs_numeric(rng) -> bool:
    # the paper's closed form, sqrt(ab)/g in full investment and
    # kappa max + (1 - kappa) min otherwise, against the price solve
    kappa = KappaContext.from_rate(R05).kappa
    worst = 0.0
    for _ in range(1000):
        a, b = np.exp(rng.uniform(np.log(0.5), np.log(100.0), 2))
        if 0.5 * (a + b) <= math.sqrt(a * b) * G * FULL_SLACK:
            cf = math.sqrt(a * b) / G
        else:
            cf = kappa * max(a, b) + (1.0 - kappa) * min(a, b)
        u = _price_numeric([a, b], COIN.prob_tuple, R05)[0]
        worst = max(worst, abs(cf - u) / cf)
    return worst <= 1e-8


def _check_concavity(rng) -> bool:
    for _ in range(25):
        a = rng.uniform(0.5, 30.0, 2)
        b = rng.uniform(0.5, 30.0, 2)
        if abs(a[0] * b[1] - a[1] * b[0]) < 1e-6:
            continue
        basis = ConeBasis(COIN, [Game(a), Game(b)])
        p, q, alpha = rng.uniform(0.0, 1.0, 3)

        def u_of(w):
            return price_general(mix_game(basis, [w, 1.0 - w]), COIN, R05).price

        blend = alpha * p + (1.0 - alpha) * q
        if u_of(blend) < alpha * u_of(p) + (1.0 - alpha) * u_of(q) - 1e-9:
            return False
    return True


def _check_arbitrage_free(rng) -> bool:
    for pairs in (((19, 1), (4, 16)), ((12, 8), (11, 9))):
        basis = ConeBasis(COIN, [Game(p) for p in pairs])
        sol = least_squares_prices(basis, R05)
        for _ in range(250):
            k = rng.uniform(0.0, 5.0, 2)
            if k.sum() <= 1e-9:
                continue
            u = price_general(combine(basis, k), COIN, R05).price
            linear = float(k @ sol.prices)
            if u > linear + 1e-7 * max(linear, 1.0):
                return False
    return True


def _check_minimality(rng) -> bool:
    basis = ConeBasis(COIN, [Game([12, 8]), Game([11, 9])])
    sol = least_squares_prices(basis, R05)
    prob = _LsqProblem(basis, R05)
    u, d = np.array(prob.u_tuple), np.array(prob.d_tuple)
    scale = max(prob.c_tuple)
    for _ in range(100):
        k = int(rng.integers(0, 2))
        delta = float(rng.uniform(1e-4, 1e-2)) * scale
        lowered = sol.prices.copy()
        lowered[k] -= delta
        if lowered[k] < u[k] - 1e-12:
            # buying game k below its stand-alone price beats the growth rate
            continue
        s = (lowered - u) / np.where(d > 0, d, 1.0)
        s = np.clip(s, 0.0, 1.0)
        val, p = prob.oracle(prob.adjusted_prices(s))
        if not (val > 1.0 and prob.price_mix(p) > float(np.dot(p, lowered))):
            return False
    return True


def _check_min_norm_uniqueness(rng) -> bool:
    # the dual's maximizer, and so x = min(w d, 1), does not depend on the
    # mixes it climbs from
    basis = ConeBasis(COIN, [Game([12, 8]), Game([11, 9])])
    base = least_squares_prices(basis, R05)
    prob = _LsqProblem(basis, R05)
    for _ in range(10):
        mixes = rng.dirichlet(np.ones(2), size=3)
        v = _max_dual(prob, mixes.tolist())[0][8]
        w = [vi / ci for vi, ci in zip(v, prob.c_tuple)]
        x = np.minimum(np.multiply(w, prob.d_tuple), 1.0)
        if float(np.max(np.abs(x - base.x))) > 1e-7:
            return False
    return True


def test_criterion_09_property_suite():
    rng = np.random.default_rng(2024)
    parts = {
        "homogeneity": _check_homogeneity(rng),
        "bounds/amgm/foc/growth": _check_bounds_amgm_foc(rng),
        "closed-vs-numeric(1000)": _check_closed_vs_numeric(rng),
        "concavity-in-mix": _check_concavity(rng),
        "arbitrage-free(500)": _check_arbitrage_free(rng),
        "minimality(100)": _check_minimality(rng),
        "min-norm-uniqueness(10)": _check_min_norm_uniqueness(rng),
    }
    bad = [name for name, ok in parts.items() if not ok]
    ok = not bad
    _report(9, ok, "all seven sub-checks" if ok else f"failing: {bad}")
    assert ok


def test_criterion_10_simulation():
    u_b = price_general(Game([10, 10]), COIN, R05).price
    cfg_b = SimConfig(attempts=200, paths=20, seed=1, price=u_b, proportion=1.0)
    rep_b = simulate_growth(Game([10, 10]), COIN, cfg_b)
    ok_b = abs(rep_b.mean_growth - G) <= 1e-12 * G and rep_b.var_growth == 0.0

    cfg_a = SimConfig(attempts=10_000, paths=1_000, seed=7, price=7.224,
                      proportion=0.274)
    rep_a = simulate_growth(Game([19, 1]), COIN, cfg_a)
    ok_a = abs(rep_a.mean_growth - G) <= 3 * rep_a.ci_halfwidth

    small = SimConfig(attempts=100, paths=400, seed=11, price=7.224, proportion=0.274)
    large = SimConfig(attempts=10_000, paths=400, seed=11, price=7.224,
                      proportion=0.274)
    v_small = simulate_growth(Game([19, 1]), COIN, small).var_growth
    v_large = simulate_growth(Game([19, 1]), COIN, large).var_growth
    ok_decay = v_large <= 0.1 * v_small

    ok = ok_b and ok_a and ok_decay
    _report(
        10, ok,
        f"gameB exact={ok_b}; gameA |mean-g|={abs(rep_a.mean_growth - G):.2e} "
        f"<= 3ci={3 * rep_a.ci_halfwidth:.2e}; decay={v_large / v_small:.4f}",
    )
    assert ok
