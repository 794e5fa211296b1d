import collections
import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gameprice import (
    BasisError,
    ConeBasis,
    DimensionMismatch,
    Game,
    InvariantViolation,
    OutcomeSpace,
    PricingError,
    Rate,
    big_L,
    check_constant_mix,
    check_linear_pricing,
    cone_coordinates,
    fair_coin,
    in_cone,
    least_squares_prices,
    load_game_file,
    ls_ratio,
    mix_game,
    price_general,
    price_in_cone,
    reduce_to_basis,
)
import gameprice.lsq
from gameprice.core import DEFAULT_L_TOL
from gameprice.lsq import (
    CONE_TOL,
    _FLAT,
    _LsqProblem,
    _max_dual,
    _newton_split,
    _projected_newton,
    _nnls_cols,
)
from kelley_reference import _min_norm_point, _nnls, _polish, raw_value_grad_hess

ROOT = Path(__file__).resolve().parents[1]
R05 = Rate(0.05)
COIN = fair_coin()
G = math.exp(0.05)

# frozen oracle values: grid brute force + independent KKT solve agree
EX13_X = (0.13146594, 0.08221645)
EX13_PRICES = (9.34537297, 9.46853343)
EX13_CERT = 0.2840325
U_19_1 = 7.223641028417384
U_4_16 = 8.149094018944922
CEILING = 9.512294245007139  # 10 / e^0.05
LS_RATIO_EX11_AT_ZERO = 1.2228308070515224


def basis(*pairs):
    return ConeBasis(COIN, [Game(p) for p in pairs])


B11 = basis((19, 1), (4, 16))
B12 = basis((19, 1), (16, 4))
B13 = basis((12, 8), (11, 9))


class TestReduceToBasis:
    def test_two_games_stay_a_basis(self):
        b, coords = reduce_to_basis([Game([19, 1]), Game([4, 16])], COIN)
        assert b.n == 2
        assert sorted(np.round(coords.ravel(), 12).tolist()) == [0.0, 0.0, 1.0, 1.0]

    def test_equal_ratios_collapse_to_singleton(self):
        b, coords = reduce_to_basis([Game([2, 2]), Game([5, 5])], COIN)
        assert b.n == 1
        assert coords.ravel().tolist() == pytest.approx([1.0, 2.5], rel=1e-14)

    def test_extreme_ratio_games_span_the_rest(self):
        games = [Game([19, 1]), Game([16, 4]), Game([13, 7])]
        b, coords = reduce_to_basis(games, COIN)
        spans = {tuple(g.payoffs.tolist()) for g in b.games}
        assert spans == {(19.0, 1.0), (13.0, 7.0)}
        # (16, 4) sits strictly inside: both coefficients 1/2
        assert sorted(coords[1].tolist()) == pytest.approx([0.5, 0.5], rel=1e-12)

    def test_a_coordinate_past_the_float_range(self):
        # C = 1e207 (1e186 A + B) lies in the cone of A and B, on A with a
        # coordinate of 1e393: C is still dropped, and priced by linearity
        # as the same games in normal range price it
        space = OutcomeSpace([0.2, 0.3, 0.5])
        games = [[1e-186, 2e-186, 3e-186], [3.0, 1.0, 0.0], [4e207, 3e207, 3e207]]
        b, coords = reduce_to_basis([Game(g) for g in games], space)
        assert b.n == 2 and math.isinf(coords[2][0])
        assert coords[2][1] == pytest.approx(1e207, rel=1e-14)
        scales = (1e186, 1.0, 1e-207)
        sol, ref = (least_squares_prices(_ls_basis(g, space.prob_tuple), R05) for g in (
            games, [[a * k for a in g] for g, k in zip(games, scales)]))
        assert (sol.termination, sol.basis) == ("newton", (0, 1))
        assert sol.max_violation <= 1e-12
        assert sol.x_tuple == pytest.approx(ref.x_tuple, rel=0.0, abs=1e-12)
        assert [p * k for p, k in zip(sol.price_tuple, scales)] == pytest.approx(
            ref.price_tuple, rel=1e-12)

    def test_cone_membership_is_genuinely_verified(self):
        # (13,7) = -1*(19,1) + 2*(16,4): outside the cone of those two
        with pytest.raises(BasisError):
            cone_coordinates(B12, Game([13, 7]))

    def test_exact_representation_when_inside(self):
        k = cone_coordinates(basis((13, 7), (19, 1)), Game([16, 4]))
        assert k.tolist() == pytest.approx([0.5, 0.5], rel=1e-12)

    def test_keeps_file_order_and_the_earlier_copy(self):
        games = [Game([1, 2, 3]), Game([2, 4, 6]), Game([5, 1, 1])]
        b, coords = reduce_to_basis(games, OutcomeSpace([0.2, 0.3, 0.5]))
        assert b.games == (games[0], games[2])
        assert coords.ravel().tolist() == pytest.approx([1, 0, 2, 0, 0, 1], abs=1e-12)

    @pytest.mark.parametrize("k", range(-6, 7))
    def test_scaling_all_payoffs_keeps_the_same_games(self, k):
        # the third game lies 3.3e-7 (relative) off the ray of the first
        games = [Game(np.array(g) * 10.0 ** k)
                 for g in ((1, 2, 3), (5, 1, 1), (1, 2, 3.000001))]
        b, _ = reduce_to_basis(games, OutcomeSpace([0.2, 0.3, 0.5]))
        assert b.n == 3

    def test_random_sets_with_planted_redundant_games(self):
        rng = np.random.default_rng(5)
        coin_sets = 0
        for trial in range(300):
            m = 2 if trial % 3 == 0 else int(rng.integers(2, 7))
            games, planted = _redundant_game_set(rng, m)
            space = COIN if trial % 3 == 0 else OutcomeSpace(
                rng.dirichlet(np.ones(m)).tolist())
            b, coords = reduce_to_basis(games, space)
            assert np.all(coords >= 0.0)
            B = b.payoff_matrix()
            for g, k in zip(games, coords):
                scale = max(float(g.payoffs.max()), 1.0)
                assert np.linalg.norm(B @ k - g.payoffs) <= 1e-9 * scale, (games, g)
            kept = {id(g) for g in b.games}
            assert not kept & {id(games[i]) for i in planted}, games
            for i, g in enumerate(b.games):
                others = [h for j, h in enumerate(b.games) if j != i]
                if others:
                    assert not in_cone(ConeBasis(space, others), g), games
            if space is COIN:
                coin_sets += 1
                assert _rays(b.games) == _rays(_extreme_ratio_games(games)), games
        assert coin_sets == 100


def _nnls_only(monkeypatch):
    """Make every span test defer to NNLS, as before the QR shortcut."""
    monkeypatch.setattr(gameprice.lsq, "_unit_qr", lambda cols: None)


def _redundant_sets(seed=5, sets=300):
    """(games, space) of the planted-redundant draws of
    test_random_sets_with_planted_redundant_games."""
    rng = np.random.default_rng(seed)
    for trial in range(sets):
        m = 2 if trial % 3 == 0 else int(rng.integers(2, 7))
        games, _ = _redundant_game_set(rng, m)
        yield games, COIN if trial % 3 == 0 else OutcomeSpace(
            rng.dirichlet(np.ones(m)).tolist())


class TestOneBasisRule:
    """least_squares_prices reduces the games it is given, as ls-price does."""

    def test_declared_prices_are_reduced_prices_by_linearity(self):
        solved = pinned = 0
        for games, space in _redundant_sets():
            sol = least_squares_prices(ConeBasis(space, games), R05)
            if sol.termination == "constant_mix":
                # every price is its ceiling, linear on the whole cone: no
                # game is dropped, and each sits at u + x d with x = 1 where
                # d > 0
                assert sol.basis == tuple(range(len(games)))
                u = sol.standalone_tuple
                d = [max(c - ui, 0.0) for ui, c in zip(u, sol.ceiling_tuple)]
                assert sol.x_tuple == tuple(1.0 if di > 0.0 else 0.0 for di in d)
                assert sol.price_tuple == tuple(ui + xi * di
                                                for ui, xi, di in zip(u, sol.x_tuple, d))
                assert sol.max_violation == 0.0
                pinned += 1
                continue
            b, coords = reduce_to_basis(games, space)
            ref = least_squares_prices(b, R05)
            assert [games[i] for i in sol.basis] == list(b.games)
            assert len(sol.prices) == len(games) == len(sol.certificate.weights)
            for j, k in enumerate(coords):
                assert sol.prices[j] == pytest.approx(price_in_cone(ref, k), rel=1e-10)
            kept = list(sol.basis)
            assert sol.x[kept].tolist() == list(ref.x_tuple)
            assert sol.certificate.weights[kept].tolist() == list(ref.certificate.weight_tuple)
            assert sol.max_violation == ref.max_violation
            solved += 1
        assert solved + pinned == 300 and pinned > 0 and solved > 0

    def test_a_constant_mix_exit_prices_no_game_below_its_standalone_price(self):
        # intro.json's B = (10, 10) lies in the cone of A and C; its price is
        # its stand-alone price, 1 ulp above its ceiling, where by linearity
        # it read 9.512294245007137, below both
        b, rate = _sample_basis("intro.json")
        sol = least_squares_prices(b, rate)
        alone = price_general(b.games[1], b.space, rate).price
        assert sol.price_tuple[1] == alone == 9.51229424500714
        assert sol.ceiling_tuple[1] == 9.512294245007139
        assert sol.termination == "constant_mix" and sol.basis == (0, 1, 2)
        # the solve decides the constant mix by check_constant_mix's test
        for games, space in _redundant_sets():
            basis = ConeBasis(space, games)
            sol = least_squares_prices(basis, R05)
            assert (sol.termination == "constant_mix") == (
                check_constant_mix(basis) is not None), games
            if sol.termination == "constant_mix":
                assert all(p >= u for p, u in zip(sol.price_tuple, sol.standalone_tuple))

    def test_library_and_ls_price_agree_bit_for_bit(self, capsys):
        from gameprice.cli import main

        path = ROOT / "sample_games" / "redundant3.json"
        gf = load_game_file(str(path))
        sol = least_squares_prices(ConeBasis(gf.space, list(gf.games.values())), gf.rate)
        assert main(["ls-price", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["prices"] == list(sol.price_tuple)
        assert doc["x"] == list(sol.x_tuple)
        assert doc["certificate"] == list(sol.certificate.weight_tuple)
        # A, C solved on; B = 2 A by linearity, with no certificate weight
        assert sol.basis == (0, 2) and doc["certificate"][1] == 0.0
        assert doc["prices"][1] == pytest.approx(2.0 * doc["prices"][0], rel=1e-12)
        assert doc["x"][1] == pytest.approx(doc["x"][0], abs=1e-12)

    @pytest.mark.parametrize("probs, a, k, end, basis", [
        # a constant game pins both prices at their ceilings, and both games
        # are solved on
        ([0.5, 0.5], [2, 2], 2.5, "constant_mix", (0, 1)),
        ([0.5, 0.5], [2, 4], 2.5, "linear", (0,)),
        ([0.2, 0.3, 0.5], [1, 2, 3], 2.0, "linear", (0,)),
    ], ids=["coin", "coin_not_constant", "three_outcomes"])
    def test_a_proportional_pair_is_priced_as_by_ls_price(self, capsys, tmp_path,
                                                          probs, a, k, end, basis):
        from gameprice.cli import main

        b = [a, [k * v for v in a]]
        sol = least_squares_prices(ConeBasis(OutcomeSpace(probs), [Game(g) for g in b]), R05)
        assert sol.basis == basis and sol.termination == end
        assert sol.max_violation <= 1e-12
        assert sol.price_tuple[1] == pytest.approx(k * sol.price_tuple[0], rel=1e-14)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"probabilities": probs, "games": {"A": b[0], "B": b[1]},
                                    "rate": {"value": 0.05}}))
        assert main(["ls-price", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["prices"] == list(sol.price_tuple)

    def test_a_dropped_game_sits_within_rounding_of_its_standalone_price(self):
        # B = 2 A is priced at 2 x A's price, 1 ulp below B's own stand-alone
        # price (4.081865934334524 against ...525), so (price - u) / d is
        # -3.0e-15, which x_B clamps to 0
        space, rate = OutcomeSpace([0.2, 0.3, 0.5]), R05
        games = [Game([1, 2, 3]), Game([2, 4, 6])]
        sol = least_squares_prices(ConeBasis(space, games), rate)
        alone = price_general(games[1], space, rate).price
        assert sol.basis == (0,)
        assert sol.price_tuple[1] >= alone * (1.0 - 4.0 * sys.float_info.epsilon)
        # the docstring's bound on a dropped game's x: tol_L u / d plus the cone
        # test's 1e-9, here 1e-9 x 4.0819 / 0.29379 + 1e-9 = 1.49e-8
        assert -1.49e-8 <= sol.x_tuple[1] <= 1.0 + 1.49e-8

    def test_a_game_the_reduction_drops_is_restored_when_it_leaves_the_cone(
            self, capsys, tmp_path):
        # C is dropped against cone(A, B), then B, 7e-10 from cone(A),
        # against cone(A); C lies 1.41e-9 of its largest payoff from cone(A),
        # so it returns to the basis
        from gameprice.cli import main

        games = [Game([1, 1]), Game([1, 1.000000001]), Game([1, 1.000000002])]
        kept, coords = reduce_to_basis(games, COIN)
        assert list(kept.games) == [games[0], games[2]]
        assert coords[1].tolist() == pytest.approx([0.5, 0.5], abs=1e-7)
        # A pays a constant there, so the solve drops nothing. These games
        # have no constant mix and take the same steps: C is dropped, 6.7e-10
        # from cone(A, B), then B, 6.7e-10 from cone(A), and C, 1.34e-9 from
        # cone(A), is restored; B, the midpoint of A and C, is priced by
        # linearity
        games = [Game([1, 2]), Game([1, 2 + 3e-9]), Game([1, 2 + 6e-9])]
        sol = least_squares_prices(ConeBasis(COIN, games), R05)
        assert sol.basis == (0, 2) and sol.termination == "linear"
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"probabilities": [0.5, 0.5],
                                    "games": {n: list(g.payoff_tuple)
                                              for n, g in zip("ABC", games)},
                                    "rate": {"value": 0.05}}))
        assert main(["ls-price", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["prices"] == list(sol.price_tuple)

    @pytest.mark.parametrize("games, probs, rate", [
        # draw 92 of scripts/fuzz_digest.py's wide part: (price - u) / d of
        # game 1 is -1.55e-15
        ([[2.710882854590863e-212, 0.0], [4.674945928015067e-283, 0.0],
          [5.94772935985278e+265, 3.1349403139707833e+264]],
         [0.5837937489350354, 0.41620625106496456], 0.010494435130397103),
        # draw 56 of its wide_n_ge_m part: that of game 2 is -1.63e-15
        ([[0.0, 3.358521715412193e-115], [2.8006601609386717e-75, 1.7714778981883755e-74],
          [6.1810664841289116e+249, 5.327609068978672e+250],
          [0.0, 4.083586067172317e-209]],
         [0.6411434862122225, 0.35885651378777755], 0.0632199427015634),
    ], ids=["wide-92", "wide_n_ge_m-56"])
    def test_a_dropped_game_has_x_in_the_unit_cube(self, games, probs, rate):
        # the solve's own x is a point that big_L and ls_ratio accept
        b, rate = _ls_basis(games, probs), Rate(rate)
        sol = least_squares_prices(b, rate)
        assert len(sol.basis) < b.n and sol.termination == "linear"
        assert all(0.0 <= xi <= 1.0 for xi in sol.x_tuple)
        assert big_L(b, rate, sol.x_tuple)[0] <= 1.0 + DEFAULT_L_TOL
        assert ls_ratio(b, rate, sol.x_tuple, sol.certificate) <= 1.0 + DEFAULT_L_TOL

    @staticmethod
    def _near_proportional_sets():
        space = OutcomeSpace([0.2, 0.3, 0.5])
        # the pair far from proportional (relative residual 3.3e-7)
        yield [Game([1, 2, 3]), Game([5, 1, 1]), Game([1, 2, 3.000001])], space
        rng = np.random.default_rng(29)
        for r in (1e-11, 1e-10, 5e-10, 9e-10, 1.1e-9, 2e-9, 1e-8, 1e-7):
            for _ in range(5):
                a = rng.uniform(0.5, 20.0, 3)
                v = rng.normal(size=3)
                v -= (v @ a) / (a @ a) * a
                # off a's ray by r of b's largest payoff
                b = a * rng.uniform(0.5, 2.0)
                b = b + r * b.max() * v / np.linalg.norm(v)
                third = [Game(rng.uniform(0.5, 20.0, 3))] if rng.random() < 0.5 else []
                yield [Game(a), Game(b)] + third, space

    def test_span_shortcut_keeps_what_nnls_alone_keeps(self, monkeypatch):
        sets = [*self._near_proportional_sets(), *_redundant_sets()]
        fits = []
        cone_fit = gameprice.lsq._cone_fit
        monkeypatch.setattr(gameprice.lsq, "_cone_fit",
                            lambda *a: fits.append(a) or cone_fit(*a))

        def reduce(games):
            qr = gameprice.lsq._unit_qr([g.payoff_tuple for g in games])
            return gameprice.lsq._reduce_to_basis(games, qr)

        fast = [reduce(g) for g, _ in sets]
        fast_fits = len(fits)
        _nnls_only(monkeypatch)
        for (games, _), (keep, coords) in zip(sets, fast):
            assert reduce(games) == (keep, coords), games
        # a fit is skipped for each game of a full-rank set that is farther
        # than 1e-9 from the others' span: the 3.3e-7 set and most pairs from
        # 1.1e-9 up; a set with a planted redundant game takes every fit
        assert (len(fits) - fast_fits) - fast_fits >= 50

    @pytest.mark.parametrize("case, dropped", [
        ("example13.json", 0), (5, 0), ("redundant3.json", 1), ("intro.json", 0)])
    def test_one_factorization_per_solve(self, monkeypatch, case, dropped):
        # the constant-mix test and the reduction share the games' QR, also
        # when a game is dropped (redundant3's B = 2 A); a constant-mix exit
        # (the 3 x 3 basis of LS_DEEP_LIKE, and intro.json, whose constant B
        # lies in the cone of A and C) runs no reduction. Without the QR
        # shortcut, the answer is the same to the bit
        if isinstance(case, str):
            b, rate = _sample_basis(case)
        else:
            probs, games, r = LS_DEEP_LIKE[case]
            b, rate = ConeBasis(OutcomeSpace(probs), [Game(g) for g in games]), Rate(r)
        calls, rays = [], []
        unit_qr, extreme_rays = gameprice.lsq._unit_qr, gameprice.lsq._extreme_rays
        monkeypatch.setattr(gameprice.lsq, "_unit_qr",
                            lambda cols: calls.append(cols) or unit_qr(cols))
        monkeypatch.setattr(gameprice.lsq, "_extreme_rays",
                            lambda *a: rays.append(a) or extreme_rays(*a))
        sol = least_squares_prices(b, rate)
        assert len(sol.basis) == b.n - dropped
        assert len(calls) == 1
        assert len(rays) == (0 if sol.termination == "constant_mix" else 1)
        assert (sol.termination == "constant_mix") == (case in (5, "intro.json"))
        _nnls_only(monkeypatch)
        assert least_squares_prices(b, rate) == sol

    def test_tiny_rate_basis_with_a_proportional_pair(self):
        # a fuzz draw whose declared form stalled the constant-mix exit's
        # oracle at L - 1 = 6.5e-5 (these rounded inputs do not)
        b = ConeBasis(OutcomeSpace([0.40246, 0.59754]),
                      [Game([0.79058, 0.0]), Game([0.0, 62.5219]), Game([0.0, 8.47028])])
        sol = least_squares_prices(b, Rate(1.4294e-9))
        assert sol.termination == "constant_mix"
        assert sol.max_violation <= 1e-12
        assert sol.basis == (0, 1, 2)  # a constant-mix exit drops no game
        assert sol.x.tolist() == [1.0, 1.0, 1.0]
        assert sol.prices[2] == pytest.approx(sol.prices[1] * 8.47028 / 62.5219, rel=1e-12)

    @staticmethod
    def _near_constant_bases(rng):
        """Bases with more outcomes than games on which a mix pays 1 to within
        delta of 1e-10 to 1e-8 at one outcome: constant at tol 1e-9 or not."""
        for delta in (1e-10, 3e-10, 9e-10, 3e-9, 1e-8):
            for _ in range(4):
                m, n = int(rng.integers(3, 6)), 2
                M = rng.uniform(0.5, 20.0, (m, n))
                k = rng.uniform(0.1, 1.0, n)
                M[:, 1] = (1.0 - M[:, 0] * k[0]) / k[1]
                if M[:, 1].min() <= 0.0:
                    M[:, 0] *= 0.5 / (M[:, 0] * k[0]).max()
                    M[:, 1] = (1.0 - M[:, 0] * k[0]) / k[1]
                M[rng.integers(m), 1] += delta / k[1]
                yield ConeBasis(OutcomeSpace(np.full(m, 1.0 / m)), [Game(c) for c in M.T])

    def test_constant_mix_shortcut_matches_nnls(self, monkeypatch):
        rng = np.random.default_rng(41)
        bases = [_random_full_rank_basis(rng, kind)[0]
                 for kind in ("constant", "plain", "zeros", "wide_scale") * 40]
        bases += self._near_constant_bases(rng)
        fast = [check_constant_mix(b) for b in bases]
        _nnls_only(monkeypatch)
        for b, got in zip(bases, fast):
            ref = check_constant_mix(b)
            assert (got is None) == (ref is None), b
            if got is not None:
                assert got[1] == ref[1], b
                assert np.max(np.abs(got[0].weights - ref[0].weights)) <= 1e-12, b
        assert sum(got is not None for got in fast) >= 30


def _redundant_game_set(rng, m):
    """Up to 8 games on m outcomes, some redundant, and the redundant indices.

    The independent draws come first, some with zero payoffs; scaled copies,
    duplicates and nonnegative combinations of earlier games are appended
    after them.
    """
    n_base = int(rng.integers(1, min(m, 4) + 1))
    base = rng.uniform(0.5, 20.0, (n_base, m))
    base[rng.random((n_base, m)) < 0.25] = 0.0
    base[np.arange(n_base), rng.integers(m, size=n_base)] = rng.uniform(0.5, 20.0, n_base)
    rows = list(base)
    planted = []
    for _ in range(int(rng.integers(1, 9 - n_base))):
        kind = rng.integers(3)
        if kind == 0:  # scaled copy
            row = rows[rng.integers(len(rows))] * rng.uniform(0.1, 10.0)
        elif kind == 1:  # duplicate
            row = rows[rng.integers(len(rows))].copy()
        else:  # nonnegative combination of two or more earlier games
            pick = rng.choice(len(rows), size=min(len(rows), int(rng.integers(2, 4))),
                              replace=False)
            row = sum(rng.uniform(0.1, 2.0) * rows[i] for i in pick)
        planted.append(len(rows))
        rows.append(row)
    return [Game(r) for r in rows], planted


def _rays(games):
    return {tuple(np.round(g.payoffs / np.linalg.norm(g.payoffs), 9)) for g in games}


def _extreme_ratio_games(games):
    """The fair-coin rule: the games of least and greatest payoff ratio."""

    def ratio(g):
        return g.payoffs[0] / g.payoffs[1] if g.payoffs[1] > 0.0 else math.inf

    return [min(games, key=ratio), max(games, key=ratio)]


class TestLsRatio:
    def test_singleton_at_zero_is_one(self):
        b = basis((19, 1))
        assert ls_ratio(b, R05, [0.0], [1.0]) == pytest.approx(1.0, rel=1e-14)

    def test_at_ones_never_exceeds_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.dirichlet([1.0, 1.0])
            assert ls_ratio(B11, R05, [1.0, 1.0], p) <= 1.0 + 1e-12

    def test_frozen_value_at_zero(self):
        v = ls_ratio(B11, R05, [0.0, 0.0], [0.4, 0.6])
        assert v == pytest.approx(LS_RATIO_EX11_AT_ZERO, rel=1e-12)
        assert v > 1.0  # t = 0 is infeasible for this basis

    @pytest.mark.parametrize("p", [[1.0], [0.25, 0.25, 0.5]], ids=["short", "long"])
    def test_a_mix_of_the_wrong_length_is_a_dimension_mismatch(self, p):
        # the rule mix_game applies
        for call in (lambda: ls_ratio(B11, R05, [0.0, 0.0], p), lambda: mix_game(B11, p)):
            with pytest.raises(DimensionMismatch, match="mix of length"):
                call()


class TestBigL:
    def test_singleton(self):
        val, p = big_L(basis((19, 1)), R05, [0.0])
        assert val == pytest.approx(1.0, rel=1e-14)
        assert p.weights.tolist() == [1.0]

    def test_linear_basis_at_zero(self):
        val, _ = big_L(B12, R05, [0.0, 0.0])
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_constant_mix_attains_at_ones(self):
        val, p = big_L(B11, R05, [1.0, 1.0])
        assert val == pytest.approx(1.0, abs=1e-10)
        assert p.weights.tolist() == pytest.approx([0.4, 0.6], abs=1e-6)

    def test_t_of_another_length_or_off_the_box_is_refused(self):
        with pytest.raises(InvariantViolation, match="length 2"):
            big_L(B11, R05, [0.5])
        for t in ([0.5, -1e-14], [1.0 + 1e-14, 0.5]):
            with pytest.raises(InvariantViolation, match=r"\[0, 1\]"):
                big_L(B11, R05, t)
        # within 1e-15 of the box, t is clipped onto it
        assert big_L(B11, R05, [-1e-16, 1.0 + 1e-16])[0] == big_L(B11, R05, [0.0, 1.0])[0]


def _simplex_grid(n: int):
    """Rational grid on the simplex (33-91 points), the oracle's reference."""
    k = {2: 32, 3: 12, 4: 6}[n]
    for cuts in itertools.combinations(range(k + n - 1), n - 1):
        parts = []
        prev = -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(k + n - 2 - prev)
        yield np.array(parts, dtype=float) / k


class TestOracle:
    def test_beats_grid_and_certifies_its_bound(self):
        rng = np.random.default_rng(11)
        for case in range(16):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 6))
            if m == 2 and case % 2 == 0:
                space = COIN
            else:
                space = OutcomeSpace(rng.dirichlet(np.ones(m)).tolist())
            payoffs = rng.uniform(0.5, 20.0, (n, m))
            payoffs[rng.random((n, m)) < 0.2] = 0.0
            payoffs[:, 0] += 1.0  # no game is all zero
            prob = _LsqProblem(ConeBasis(space, [Game(row) for row in payoffs]), R05)
            t = rng.uniform(0.0, 1.0, n)
            val, p = prob.oracle(prob.adjusted_prices(t))
            adj = np.array(prob.adjusted_prices(t))
            grid_best = max(prob.price_mix(q) / float(np.dot(q, adj))
                            for q in _simplex_grid(n))
            assert val >= grid_best * (1.0 - 1e-12)
            # max_i dh/dy_i bounds the ratio over the whole simplex
            price, grad, _ = raw_value_grad_hess(prob, np.array(p))
            ratio = price / float(np.dot(p, adj))
            assert float(np.max(grad / adj)) - ratio <= 1e-10 * ratio

    def test_any_start_mix_reaches_the_same_value(self):
        space = OutcomeSpace([0.214, 0.3943, 0.3917])
        games = [[3.287, 3.227, 11.874], [19.525, 12.468, 8.845], [10.384, 16.286, 10.685]]
        prob = _LsqProblem(ConeBasis(space, [Game(g) for g in games]), R05)
        t = np.array([0.3, 0.1, 0.2])
        val, _ = prob.oracle(prob.adjusted_prices(t))
        for start in (*np.eye(3), [0.5, 0.5, 0.0], [0.0, 0.9, 0.1]):
            got = prob.maximize(prob.adjusted_prices(t), np.array(start))[0][3]
            assert got == pytest.approx(val, rel=2e-10)

    def test_uncertified_stop_raises(self, monkeypatch):
        # B13's climb at x = 0 certifies on its first step: at cap 0 it
        # stops at its start, 2.0e-5 short
        monkeypatch.setattr(gameprice.lsq, "_ORACLE_MAX_ITER", 0)
        prob = _LsqProblem(B13, R05)
        with pytest.raises(PricingError, match="gap"):
            prob.oracle(prob.adjusted_prices(np.zeros(2)))

    def test_a_last_step_that_certifies_is_done(self, monkeypatch):
        # capped at 2 steps, the dual stops short, and an oracle climb whose
        # second step certifies is done, not an "iteration cap 2 hit with gap
        # 0.000e+00"
        monkeypatch.setattr(gameprice.lsq, "_ORACLE_MAX_ITER", 2)
        sol = least_squares_prices(basis((12, 8), (11, 9)), R05)
        assert (sol.termination, sol.iterations) == ("stalled", 2)


class TestMixHessian:
    def test_matches_central_differences_of_the_gradient(self):
        rng = np.random.default_rng(5)
        seen = {"full": 0, "interior": 0, "zero payoff": 0, "fair coin": 0}
        for case in range(200):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 5))
            if m == 2 and case % 2 == 0:
                space = COIN
            else:
                space = OutcomeSpace(rng.dirichlet(np.ones(m)).tolist())
            if case % 4 == 1:  # nearly constant payoffs: full investment
                M = 10.0 + rng.uniform(-0.3, 0.3, (m, n))
            else:
                M = rng.uniform(0.5, 20.0, (m, n)) * 10.0 ** rng.uniform(-1.0, 1.0, (1, n))
                if case % 3 == 0 and m > 2:
                    M[rng.integers(m)] = 0.0  # every mix has a zero payoff
            rate = Rate(float(rng.uniform(0.005, 0.10)))
            prob = _LsqProblem(ConeBasis(space, [Game(c) for c in M.T]), rate)
            p = rng.dirichlet(np.ones(n))
            value, grad, hess = raw_value_grad_hess(prob, p)
            scale = float(np.max(np.abs(grad)))
            assert value == pytest.approx(prob.price_mix(p), rel=1e-12)
            for j in range(n):
                # the curvature grows as p_j shrinks, so the step shrinks with it
                e = np.zeros(n)
                e[j] = 1e-4 * p[j]
                fd = (prob.price_mix(p + e) - prob.price_mix(p - e)) / (2.0 * e[j])
                assert abs(grad[j] - fd) <= 1e-7 * scale, (case, j)
                fd = (raw_value_grad_hess(prob, p + e)[1]
                      - raw_value_grad_hess(prob, p - e)[1]) / (2.0 * e[j])
                assert np.max(np.abs(hess[:, j] - fd)) <= 1e-7 * scale, (case, j)
            a = M @ p
            seen["full" if prob.price_full(a.tolist())[1] == 1.0 else "interior"] += 1
            seen["zero payoff"] += bool(np.any(a == 0.0))
            seen["fair coin"] += space is COIN and bool(np.all(a > 0.0))
        assert min(seen.values()) >= 15, seen

    def test_a_payoff_whose_square_overflows_keeps_the_hessian(self):
        # an outcome of probability 1e-170 on which game 0 pays 1e160: per
        # unit of ceiling the mix pays about 5e159 there, so (a - u)^2 and
        # D^2 overflow, while the outcome moves the price by about 1e-10 of
        # itself. The interior Hessian must stay that of the games without it
        games = [[0.0, 2.0, 1.0], [1.0, 3.0, 0.5]]
        tiny = _LsqProblem(ConeBasis(OutcomeSpace([1e-170, 0.3, 0.3, 0.4]),
                                     [Game([1e160, *games[0]]), Game([1.0, *games[1]])]), R05)
        plain = _LsqProblem(ConeBasis(OutcomeSpace([0.3, 0.3, 0.4]),
                                      [Game(g) for g in games]), R05)
        for p in ([0.5, 0.5], [0.8, 0.2]):
            a = [sum(x * y for x, y in zip(row, p)) for row in tiny._unit_rows]
            u, t = tiny.price_full(a)
            assert t < 1.0 and (a[0] - u) * (a[0] - u) == math.inf
            hess = tiny.value_grad_hess(p)[2]
            for row, expected in zip(hess, plain.value_grad_hess(p)[2]):
                assert row == pytest.approx(expected, rel=1e-9)


class TestLeastSquaresPrices:
    def test_example_11_prices_hit_ceiling(self):
        sol = least_squares_prices(B11, R05)
        assert sol.prices.tolist() == pytest.approx([CEILING, CEILING], rel=1e-12)
        assert sol.x.tolist() == pytest.approx([1.0, 1.0], abs=1e-12)
        assert sol.certificate.weights.tolist() == pytest.approx([0.4, 0.6], abs=1e-6)

    def test_example_12_prices_unchanged(self):
        sol = least_squares_prices(B12, R05)
        assert sol.prices.tolist() == pytest.approx([U_19_1, U_4_16], rel=1e-12)
        assert np.max(np.abs(sol.x)) <= 1e-9
        assert sol.norm <= 1e-18

    def test_example_13_strictly_interior(self):
        sol = least_squares_prices(B13, R05)
        assert sol.prices.tolist() == pytest.approx(list(EX13_PRICES), abs=1e-6)
        assert sol.x.tolist() == pytest.approx(list(EX13_X), abs=1e-6)
        assert sol.certificate.weights[0] == pytest.approx(EX13_CERT, abs=1e-5)
        for i in range(2):
            assert sol.standalone[i] < sol.prices[i] < sol.ceilings[i]

    def test_singleton_basis(self):
        sol = least_squares_prices(basis((19, 1)), R05)
        assert sol.prices.tolist() == pytest.approx([U_19_1], rel=1e-12)
        assert sol.x.tolist() == [0.0]

    def test_constant_singleton(self):
        sol = least_squares_prices(basis((10, 10)), R05)
        assert sol.prices.tolist() == pytest.approx([CEILING], rel=1e-12)
        assert sol.x.tolist() == [0.0]  # degenerate line pins the weight to 0

    def test_certificate_is_tight(self):
        for b in (B11, B12, B13):
            sol = least_squares_prices(b, R05)
            q = sol.certificate
            mix_price = price_general(mix_game(b, q), COIN, R05).price
            linear = float(q.weights @ sol.prices)
            assert abs(mix_price - linear) <= 1e-9 * linear

    def test_sandwich(self):
        for b in (B11, B12, B13):
            sol = least_squares_prices(b, R05)
            for i in range(b.n):
                assert sol.standalone[i] - 1e-9 <= sol.prices[i]
                assert sol.prices[i] <= sol.ceilings[i] + 1e-9

    def test_fast_path_consistency(self):
        # the dual started from the tight mix and the single-game mixes
        # takes another route to the same answer, on every exit
        for b in (B11, B13):
            cold = least_squares_prices(b, R05)
            prob = _LsqProblem(b, R05)
            x = _dual_x(prob, [cold.certificate.weights, *np.eye(b.n)])
            assert np.max(np.abs(cold.prices - prob.adjusted_prices(x))) <= 1e-7
            assert np.max(np.abs(cold.x - x)) <= 1e-7
        # B12's prices are linear: the solve ends at x = 0 before any dual,
        # and no start mix is priced above its stand-alone prices
        linear = least_squares_prices(B12, R05)
        assert linear.termination == "linear"
        assert linear.x_tuple == (0.0, 0.0)
        assert linear.price_tuple == linear.standalone_tuple

    def test_unique_across_cut_orderings(self):
        rng = np.random.default_rng(42)
        base = least_squares_prices(B13, R05)
        prob = _LsqProblem(B13, R05)
        for _ in range(10):
            mixes = rng.dirichlet(np.ones(2), size=3)
            assert np.max(np.abs(_dual_x(prob, mixes) - base.x)) <= 1e-7

    def test_basis_rescaling_rescales_prices(self):
        # x does not change when a game is rescaled, by up to 1e6 either way:
        # the dual measures each game on the scale of its ceiling
        rng = np.random.default_rng(9)
        sol = least_squares_prices(B13, R05)
        for _ in range(20):
            v = 10.0 ** rng.uniform(-6.0, 6.0, 2)
            scaled = ConeBasis(COIN, [g.scaled(k) for g, k in zip(B13.games, v)])
            sol_v = least_squares_prices(scaled, R05)
            assert sol_v.prices.tolist() == pytest.approx(
                (v * sol.prices).tolist(), rel=1e-9
            )
            assert np.max(np.abs(sol_v.x - sol.x)) <= 1e-12

    def test_constant_mix_pins_every_game_at_its_ceiling(self):
        # a constant mix plus a little of any game stays in the full-investment
        # regime, where that game's marginal price is its ceiling: x = 1 exactly
        rng = np.random.default_rng(11)
        outside = 0
        for _ in range(60):
            b, _ = _random_full_rank_basis(rng, "constant")
            support = check_constant_mix(b)[1]
            sol = least_squares_prices(b, R05)
            assert sol.iterations == 1
            assert np.all(sol.x[sol.ceilings > sol.standalone] == 1.0)
            assert sol.prices.tolist() == pytest.approx(sol.ceilings.tolist(), rel=1e-12)
            assert abs(sol.max_violation) <= 1e-12
            # minimality: lowering a game outside the support breaks L <= 1
            for i in set(range(b.n)) - set(support):
                outside += 1
                t = sol.x.copy()
                t[i] -= 1e-3
                assert big_L(b, R05, t)[0] > 1.0, (b, i)
        assert outside >= 10

    def test_constant_mix_is_the_certificate_without_a_climb(self, monkeypatch):
        # at x = 1 every adjusted price is at least its ceiling E/g, which no
        # mix price exceeds (Jensen): L <= 1 needs no oracle climb, the
        # constant mix attains it, and max_violation is 0 with no price solve
        rng = np.random.default_rng(13)
        for _ in range(120):
            b, _ = _random_full_rank_basis(rng, "constant")
            rate = Rate(float(rng.uniform(1e-3, 0.3)))
            climbs = _count_calls(monkeypatch, "maximize")
            sol = least_squares_prices(b, rate)
            assert sol.termination == "constant_mix" and not climbs
            # to the rounding of renormalizing the mix
            mix = check_constant_mix(b)[0]
            assert sol.certificate.weight_tuple == pytest.approx(mix.weight_tuple,
                                                                 rel=0.0, abs=1e-15)
            assert sol.max_violation == 0.0
            assert abs(ls_ratio(b, rate, sol.x, mix) - 1.0) <= 1e-15
            assert big_L(b, rate, sol.x)[0] <= 1.0 + 1e-12, b

    def test_the_solve_asks_only_whether_a_constant_mix_exists(self, monkeypatch):
        # k = (0, 0.1) leaves game 0 out: the solve takes k's mix as it is,
        # with no homogenized probe for game 0; only check_constant_mix looks
        # for the largest support
        calls = []
        nnls = gameprice.lsq._nnls_cols
        monkeypatch.setattr(gameprice.lsq, "_nnls_cols",
                            lambda cols, *a: calls.append(cols) or nnls(cols, *a))
        sol = least_squares_prices(basis((19, 1), (10, 10)), R05)
        assert len(calls) == 1 and min(map(min, calls[0])) >= 0.0
        assert sol.termination == "constant_mix"
        assert sol.certificate.weight_tuple == (0.0, 1.0)
        assert check_constant_mix(basis((19, 1), (10, 10), (5, 5)))[1] == (1, 2)

    def test_one_free_coordinate_with_a_light_tight_mix(self):
        # the tight mix puts 7e-4 on game 1, the only free coordinate. In
        # unknowns (mu, q) the polish's Newton stalls here: steps in mu and q_1
        # cancel in x_1 = mu q_1 d_1. In (s, q) x_1 = s, and Newton reaches the
        # root 0.99555884379 of L(1, s, 1) = 1, along which L - 1 falls by
        # only 4.2e-5 per unit s
        space = OutcomeSpace([0.19260668218462157, 0.38268946492998346,
                              0.42470385288539486])
        games = [
            Game([16.519473978223758, 5.561914742826162, 5.18765198276563]),
            Game([1.1989547071332123, 13.025124643794816, 0.630364597159615]),
            Game([12.408997830948268, 14.045392493773656, 14.091032958410597]),
        ]
        rate = Rate(0.01)
        sol = least_squares_prices(ConeBasis(space, games), rate)
        assert sol.x[0] == 1.0 and sol.x[2] == 1.0
        assert sol.x[1] == pytest.approx(0.99555884379, abs=1e-8)
        assert abs(sol.max_violation) <= 1e-12

    def test_json_schema_keys(self):
        doc = least_squares_prices(B13, R05).to_json_dict()
        assert set(doc) == {"x", "prices", "certificate", "iterations", "max_violation"}


def _normalized_space(probs):
    probs = np.asarray(probs, dtype=float)
    return OutcomeSpace((probs / probs.sum()).tolist())


def _dual_w(prob, mixes):
    """The dual's maximizer w = v / c, climbed from the mixes: v is the point
    of the state the climb ends on."""
    return [vi / ci for vi, ci in zip(_max_dual(prob, mixes)[0][8], prob.c_tuple)]


def _dual_x(prob, mixes):
    """x = min(w d, 1) at the dual's maximizer w, climbed from the mixes."""
    w = _dual_w(prob, [list(p) for p in mixes])
    return np.minimum(np.multiply(w, prob.d_tuple), 1.0)


def _cut_then_polish(b, rate, tol_L=1e-9):
    """Reference route: Kelley's cutting planes to tol_L, then one KKT polish,
    whose point replaces the last iterate when it is accepted. The solver
    maximizes the dual instead; both land on the min-norm point."""
    prob = _LsqProblem(b, rate)
    cuts = []
    for _ in range(200):
        x = _min_norm_point(cuts, b.n)
        val, p = prob.oracle(prob.adjusted_prices(x))
        p = np.array(p)
        if val - 1.0 <= tol_L:
            break
        a = p * np.array(prob.d_tuple)
        cuts.append((a, min(prob.price_mix(p) - float(np.dot(p, prob.u_tuple)),
                            float(a.sum()))))
    else:
        raise AssertionError("reference did not reach tol_L")
    refined = _polish(prob, x, p, tol_L)
    return x if refined is None else refined[0]


def _stress_basis(rng, wide=False):
    """n = 2-4 games on m = 2-6 outcomes (n <= m), each game's payoffs uniform
    on [0.5, 20] times its own 10^U(-2, 2), a fifth of the payoffs zero, and a
    continuous rate of 0.5-10%. wide draws the scale from 10^U(-3, 3) and a
    rate of 10^U(-4, -1), simple or continuous with equal odds."""
    m = int(rng.integers(2, 7))
    n = int(rng.integers(2, min(4, m) + 1))
    spread = 3.0 if wide else 2.0
    M = rng.uniform(0.5, 20.0, (m, n)) * 10.0 ** rng.uniform(-spread, spread, (1, n))
    M[rng.random((m, n)) < 0.2] = 0.0
    empty = M.max(axis=0) <= 0.0
    M[rng.integers(m, size=int(empty.sum())), np.flatnonzero(empty)] = rng.uniform(
        0.5, 20.0, int(empty.sum()))
    space = OutcomeSpace(rng.dirichlet(np.ones(m)).tolist())
    basis = ConeBasis(space, [Game(c) for c in M.T])
    conv = "simple" if wide and rng.random() < 0.5 else "continuous"
    if n == 2 and reduce_to_basis(basis.games, space)[0].n == 1:
        # a proportional pair draws no rate, so the draws after it stay as
        # they were when ConeBasis rejected such a pair
        return basis, Rate(0.05)
    if not wide:
        return basis, Rate(float(rng.uniform(0.005, 0.10)))
    return basis, Rate(float(10.0 ** rng.uniform(-4.0, -1.0)), conv)


def _stress_draw(seed, index, wide=False):
    """Draw number index of the stress sequence seeded with seed."""
    rng = np.random.default_rng(seed)
    for _ in range(index):
        _stress_basis(rng, wide)
    return _stress_basis(rng, wide)


def _bisection_coordinate(prob, x, i):
    """Reference for one free coordinate i: the smallest s in [0, 1] with
    L <= 1 + 1e-13 when x_i = s and the other coordinates stay as in x, by
    bisection on the oracle to 2^-40. L - 1 falls slowly along a light free
    game, so this stops up to a few 1e-9 below the root."""

    def feasible(s):
        t = x.copy()
        t[i] = s
        return prob.oracle(prob.adjusted_prices(t))[0] <= 1.0 + 1e-13

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestPolishHandOff:
    """Answers that the KKT polish gave, and hard draws, from the dual."""

    # from bench/workloads.py LS_DEEP_CATALOGUE
    CATALOGUE = (
        ([0.1853, 0.4231, 0.3916], [[13.56, 6.509, 12.316], [12.333, 11.833, 3.588]],
         0.0401),
        ([0.2337, 0.1482, 0.2648, 0.3533],
         [[14.929, 18.089, 15.235, 17.318], [14.254, 9.719, 4.898, 13.386]], 0.0321),
        ([0.1771, 0.2464, 0.2913, 0.2852],
         [[8.634, 15.915, 17.338, 11.67], [12.687, 7.956, 11.862, 12.373]], 0.0156),
        ([0.2141, 0.2057, 0.1481, 0.1524, 0.2797],
         [[5.239, 12.225, 7.748, 9.338, 19.203], [9.933, 11.704, 17.397, 4.065, 3.506]],
         0.0736),
        ([0.1044, 0.101, 0.2751, 0.2342, 0.2853],
         [[0.915, 12.906, 9.904, 14.745, 6.719], [19.987, 1.968, 11.149, 14.872, 18.054]],
         0.0616),
        ([0.214, 0.3943, 0.3917],
         [[3.287, 3.227, 11.874], [19.525, 12.468, 8.845], [10.384, 16.286, 10.685]],
         0.0476),
    )

    def test_a_coordinate_at_one_with_a_negative_multiplier(self):
        # the answer's second coordinate lies just below 1. Held at 1, the
        # KKT system gives (1, 1, 0.96754): feasible, but longer than the
        # min-norm point, with a negative bound multiplier
        b = ConeBasis(_normalized_space([0.32614, 0.279487, 0.177199, 0.217175]), [
            Game([22.011, 11.7269, 32.0345, 19.1696]),
            Game([42.0288, 6.33053, 36.6893, 53.7165]),
            Game([0.792, 0.85036, 0.692692, 0.789511]),
        ])
        sol = least_squares_prices(b, Rate(0.026103))
        assert sol.x.tolist() == pytest.approx([1.0, 0.9603988317, 0.9831404748], abs=1e-9)
        assert sol.norm == pytest.approx(2.8889311, abs=1e-7)
        assert sol.max_violation <= 1e-9

    def test_a_fourth_coordinate_just_below_one(self):
        # x_4 lies 3.4e-4 below 1, where holding it at 1 also gives a
        # feasible point, only a longer one
        b = ConeBasis(_normalized_space(
            [0.134728, 0.103083, 0.187604, 0.117473, 0.171545, 0.285567]), [
            Game([141.539, 125.397, 188.845, 77.9621, 304.354, 17.0021]),
            Game([0.276305, 0.359307, 0.577202, 0.0247088, 0.495573, 0.889834]),
            Game([0.752698, 1.02711, 2.01956, 0.335677, 1.60697, 1.24503]),
            Game([3.0252, 2.9356, 1.30537, 3.7825, 3.56638, 3.71558]),
        ])
        sol = least_squares_prices(b, Rate(0.094141))
        assert sol.x[3] == pytest.approx(0.9996591762, abs=1e-9)
        assert sol.max_violation <= 1e-9

    def test_random_bases_match_cutting_to_tol_then_polishing(self):
        rng = np.random.default_rng(2024)
        compared = 0
        for _ in range(120):
            b, rate = _stress_basis(rng)
            if check_constant_mix(b) is not None:
                continue
            try:  # on the games the solver keeps: draw 13 has one in the cone
                ref = _cut_then_polish(reduce_to_basis(b.games, b.space)[0], rate)
            except PricingError:  # the oracle's iteration cap
                continue
            sol = least_squares_prices(b, rate)
            x = sol.x[list(sol.basis)]
            assert np.max(np.abs(x - ref)) <= 1e-10, (b, rate, x, ref)
            compared += 1
        assert compared >= 90

    def test_one_free_coordinate_matches_bisection(self):
        rng = np.random.default_rng(7)
        compared = 0
        for _ in range(200):
            b, rate = _stress_basis(rng)
            sol = least_squares_prices(b, rate)
            # a dropped game's x comes from linearity, not from the solver
            free = [i for i in sol.basis if 0.0 < sol.x[i] < 1.0]
            if len(free) != 1:
                continue
            i = free[0]
            assert sol.termination == "newton", (b, rate)
            ref = _bisection_coordinate(_LsqProblem(b, rate), sol.x, i)
            assert abs(sol.x[i] - ref) <= 1e-8, (b, rate, sol.x, ref)
            compared += 1
        assert compared >= 15

    def test_hard_draws_and_a_redundant_basis_finish_by_polish(self):
        # stress draws (seed, index) that hold traps for the oracle: 2024/88
        # and 2024/247 a nearly singular Hessian block with a coordinate ~1e-8
        # from its bound (and in 88 two tight mixes on different faces);
        # 2/186 curvatures 1e12 apart, the smaller of which looks flat unless
        # the block is scaled to a unit diagonal; 1/112 two vertices of equal
        # ratio, between which steps that raise the value only by rounding
        # would cycle; 6/3 a flat direction whose step, unless it starts from
        # the Newton point, stops short of the bound it aims at. 1/8 holds one
        # for the dual: with x_1 and x_3 at 1, D is affine along a direction
        # that only the step on to the first bound follows (by Newton steps
        # alone the dual hits its cap). The redundant basis is solved on
        # (1, 2, 3) and (5, 1, 1); (2, 4, 6) is priced by linearity
        expected = {
            (2024, 88): [0.08595524675487888, 0.026868120348460187, 0.09032688483957825],
            (2024, 247): [0.3005878423214162, 0.641694935737485, 0.5119787064597746],
            (2, 186): [1.0, 0.7034213079700256, 0.720770910253722],
            (1, 112): [0.6288538091208453, 0.2765454669480799, 0.6261302170744923,
                       0.3696862904111953],
            (6, 3): [0.00437518358390894, 0.004910557521728674, 4.6523687254033e-06],
            (1, 8): [1.0, 0.5329596830549306, 1.0],
        }
        for (seed, index), x in expected.items():
            sol = least_squares_prices(*_stress_draw(seed, index))
            assert sol.termination == "newton", (seed, index)
            assert sol.x.tolist() == pytest.approx(x, abs=1e-10), (seed, index)
        b = ConeBasis(OutcomeSpace([0.2, 0.3, 0.5]),
                      [Game([1, 2, 3]), Game([2, 4, 6]), Game([5, 1, 1])])
        sol = least_squares_prices(b, R05)
        assert sol.termination == "newton"
        assert sol.x.tolist() == pytest.approx([0.8808872855, 0.8808872855, 0.9027610207],
                                               abs=1e-10)

    def test_more_games_than_outcomes(self):
        # four extreme rays on three outcomes (a seeded uniform draw): along
        # the null space of M the ratio is affine and the oracle's Hessian
        # flat, so it must step along that direction to a bound
        b = ConeBasis(OutcomeSpace([0.1107300072112312, 0.7982745802781561,
                                    0.09099541251061251]), [
            Game([23.514418213362386, 25.81031876414489, 4.163045570729718]),
            Game([6.519765604066548, 2.3115464317958203, 2.900907157592642]),
            Game([8.047274470476749, 2.3283595461971656, 8.172897136004835]),
            Game([10.609386089330775, 15.079815426856495, 9.27178671287309]),
        ])
        rate = Rate(0.028949566136009467)
        assert reduce_to_basis(b.games, b.space)[0].n == 4
        sol = least_squares_prices(b, rate)
        assert sol.termination == "newton"
        assert sol.max_violation <= 1e-9
        # the feasible set is closed upward, so the min-norm point turns
        # infeasible when any positive coordinate is lowered alone
        for i in np.flatnonzero(sol.x > 0.0):
            t = sol.x.copy()
            t[i] = max(t[i] - 1e-6, 0.0)
            assert big_L(b, rate, t)[0] > 1.0, i

    def test_catalogue_bases_finish_by_polish(self):
        for probs, games, r in self.CATALOGUE:
            b = ConeBasis(OutcomeSpace(probs), [Game(g) for g in games])
            sol = least_squares_prices(b, Rate(r))
            assert sol.termination in ("newton", "constant_mix"), (probs, games)
            assert sol.iterations <= 10, (probs, games)
            assert sol.max_violation <= 1e-9

    def test_termination_reasons(self):
        sol = least_squares_prices(B11, R05)
        assert (sol.termination, sol.iterations) == ("constant_mix", 1)
        sol = least_squares_prices(B12, R05)
        assert (sol.termination, sol.iterations) == ("linear", 1)
        assert sol.x.tolist() == [0.0, 0.0] and sol.max_violation <= 1e-9
        sol = least_squares_prices(B13, R05)
        assert sol.termination == "newton" and sol.max_violation <= 1e-12
        assert 1 <= sol.iterations <= 10
        # a tolerance no point can meet: Newton converges, and the oracle's
        # L - 1 is reported as it is
        stalled = least_squares_prices(B13, R05, tol_L=-1.0)
        assert stalled.termination == "stalled"
        assert stalled.x.tolist() == pytest.approx(sol.x.tolist(), abs=1e-12)
        assert -1.0 < stalled.max_violation <= 1e-12


class TestDualSolve:
    """Every stress draw ends certified: the dual is concave, so Newton needs
    no globalization, and it measures each game on the scale of its ceiling."""

    def test_no_start_mix_priced_above_its_standalone_prices_raises(self):
        # one game is priced linearly along its only mix: price(p) - p . u / c
        # rounds to 0, and D has no rise along it to start from
        prob = _LsqProblem(ConeBasis(COIN, [Game([1, 2])]), R05)
        assert prob.value_grad_hess([1.0])[0] - prob.u_tuple[0] / prob.c_tuple[0] <= 0.0
        with pytest.raises(PricingError, match="no start mix"):
            _max_dual(prob, [[1.0]])

    @pytest.mark.parametrize("seed, wide", [(7, False), (31337, True)])
    def test_stress_draws_end_certified(self, seed, wide):
        # the wide draws' game scales span up to 1e6 within one basis, so
        # the stop test and the active set must be measured per game
        rng = np.random.default_rng(seed)
        solved = 0
        for index in range(400):
            b, rate = _stress_basis(rng, wide)
            sol = least_squares_prices(b, rate)
            assert sol.termination in ("constant_mix", "linear", "newton"), index
            assert sol.max_violation <= 1e-12, (index, sol.max_violation)
            solved += 1
        assert solved >= 390

    def test_a_game_priced_near_zero(self):
        # game 0 pays only on an outcome of probability 6.9e-5, so u_0 is
        # 6.5e-96, and D along the worst mix at x = 0 peaks near 1e-180. The
        # answer must be certified, or the solver must say it cannot give one
        b, rate = _stress_draw(2, 260)
        assert _LsqProblem(b, rate).u_tuple[0] < 1e-90
        try:
            sol = least_squares_prices(b, rate)
        except PricingError:
            return
        assert sol.termination == "newton" and sol.max_violation <= 1e-12
        # from that mix alone Newton climbs the scale of w for 98 steps; the
        # uniform mix starts near the answer's scale
        assert sol.iterations <= 25

    def test_a_game_whose_d_squared_underflows(self):
        # at r = 120 the price is 2.5e-185, and D on the zero payoff is about
        # 1.7e-185: its square is 0, and the mix Hessian divided by it
        space, game, rate = OutcomeSpace([0.3, 0.7]), Game([1e-10, 0.0]), Rate(120.0)
        sol = least_squares_prices(ConeBasis(space, [game]), rate)
        assert sol.termination == "linear"
        assert sol.standalone_tuple == sol.price_tuple == (price_general(game, space, rate).price,)
        assert sol.price_tuple[0] == 2.4997155209389922e-185
        assert all(map(math.isfinite, (*sol.x_tuple, sol.norm, sol.max_violation)))

    def test_a_mix_hessian_whose_scale_underflows(self):
        # ceilings 6.7e-55 and 4.0e-83: total c_j c_k underflows to 0 in the
        # dual's Hessian. The solve may fail, but only in the ways it reports
        space = OutcomeSpace([0.26996350895349364, 0.7300364910465064])
        games = [Game([0.046895393982378526, 3.510412903439512e-09]),
                 Game([2.782976814602153e-30, 0.0])]
        try:
            sol = least_squares_prices(ConeBasis(space, games), Rate(120.36376549068146))
        except PricingError:
            return
        assert sol.termination == "newton" and sol.max_violation <= 1e-12 or (
            sol.termination == "stalled" and sol.max_violation > DEFAULT_L_TOL)

    def test_a_start_whose_scale_underflows(self):
        # game 0 pays near 1e-300, so |p d|^2 underflows to 0 at both start
        # mixes and their scale b / |p d|^2 divides by |p d| in steps. The
        # solve may fail, but only in the ways it reports
        games = [Game([3e-300, 1e-300, 2e-300]), Game([1.0, 2.0, 3.0])]
        try:
            sol = least_squares_prices(ConeBasis(OutcomeSpace([0.2, 0.3, 0.5]), games), R05)
        except PricingError:
            return
        assert all(map(math.isfinite, (*sol.x_tuple, *sol.price_tuple, sol.max_violation)))
        assert sol.termination == "newton" and sol.max_violation <= 1e-12 or (
            sol.termination == "stalled" and sol.max_violation > DEFAULT_L_TOL)

    def test_the_climb_stops_on_the_projected_gradient(self, monkeypatch):
        # at twice B13's maximizer no coordinate's gradient is positive, but
        # both weights are positive and their gradients strongly negative:
        # that state is not done, and a climb from it returns to the maximizer
        climbs, climb = [], gameprice.lsq._projected_newton
        monkeypatch.setattr(gameprice.lsq, "_projected_newton",
                            lambda evaluate, state: climbs.append(evaluate)
                            or climb(evaluate, state))
        prob = _LsqProblem(B13, R05)
        w = _dual_w(prob, [[0.5, 0.5]])
        state = climbs[0]([2.0 * wi * ci for wi, ci in zip(w, prob.c_tuple)])
        assert max(state[1]) < -1e-4
        state, steps, end = climb(climbs[0], state)
        assert end == "done" and steps >= 1
        assert [vi / ci for vi, ci in zip(state[-1], prob.c_tuple)] == pytest.approx(
            w, rel=1e-9)

    def test_iteration_cap_is_reported_as_a_stall(self, monkeypatch):
        # B13 takes 6 dual steps from the even mix. Capped at 3, the dual
        # returns its last point, and the oracle, which needs fewer steps
        # from the dual's last mix, certifies how far it is from feasible
        monkeypatch.setattr(gameprice.lsq, "_ORACLE_MAX_ITER", 3)
        assert _max_dual(_LsqProblem(B13, R05), [[0.5, 0.5]])[1] == 3
        sol = least_squares_prices(B13, R05)
        assert (sol.termination, sol.iterations) == ("stalled", 3)
        assert sol.max_violation > DEFAULT_L_TOL
        assert sol.x.tolist() == pytest.approx(EX13_X, abs=1e-3)


def _sample_basis(name):
    gf = load_game_file(str(ROOT / "sample_games" / name))
    return ConeBasis(gf.space, gf.games.values()), gf.rate


def _count_calls(monkeypatch, name):
    """Record each call of _LsqProblem.<name>, as its arguments."""
    calls = []
    method = getattr(_LsqProblem, name)
    monkeypatch.setattr(_LsqProblem, name,
                        lambda self, *args: calls.append(args) or method(self, *args))
    return calls


# instances like the ls_deep benchmark's: 2 or 3 games on 3 to 5 outcomes
LS_DEEP_LIKE = (
    ([0.1853, 0.4231, 0.3916], [[13.56, 6.509, 12.316], [12.333, 11.833, 3.588]], 0.0401),
    ([0.2337, 0.1482, 0.2648, 0.3533],
     [[14.929, 18.089, 15.235, 17.318], [14.254, 9.719, 4.898, 13.386]], 0.0321),
    ([0.1771, 0.2464, 0.2913, 0.2852],
     [[8.634, 15.915, 17.338, 11.67], [12.687, 7.956, 11.862, 12.373]], 0.0156),
    ([0.2141, 0.2057, 0.1481, 0.1524, 0.2797],
     [[5.239, 12.225, 7.748, 9.338, 19.203], [9.933, 11.704, 17.397, 4.065, 3.506]],
     0.0736),
    ([0.1044, 0.101, 0.2751, 0.2342, 0.2853],
     [[0.915, 12.906, 9.904, 14.745, 6.719], [19.987, 1.968, 11.149, 14.872, 18.054]],
     0.0616),
    ([0.214, 0.3943, 0.3917],
     [[3.287, 3.227, 11.874], [19.525, 12.468, 8.845], [10.384, 16.286, 10.685]], 0.0476),
)


class TestOracleAtZero:
    """The oracle climbs at x = 0 only when the uniform mix does not already
    prove prices nonlinear, and a solve prices each mix once."""

    @pytest.mark.parametrize("name, termination", [
        ("example13.json", "newton"), ("example12.json", "linear"),
        ("example11.json", "constant_mix"), ("intro.json", "constant_mix"),
    ])
    def test_one_oracle_climb_per_solve(self, monkeypatch, name, termination):
        # example 13: the uniform mix proves L(0) > 1, so the only climb is
        # the certificate's; a constant mix is its own certificate, with none
        b, rate = _sample_basis(name)
        climbs = _count_calls(monkeypatch, "maximize")
        assert least_squares_prices(b, rate).termination == termination
        assert len(climbs) == (termination != "constant_mix")

    @pytest.mark.parametrize("name, linear, climbs", [
        ("example13.json", False, 0), ("example12.json", True, 1)])
    def test_check_linear_pricing_shares_the_rule(self, monkeypatch, name, linear, climbs):
        b, rate = _sample_basis(name)
        calls = _count_calls(monkeypatch, "maximize")
        assert check_linear_pricing(b, rate) is linear
        assert len(calls) == climbs

    def test_no_payoff_vector_is_priced_twice(self, monkeypatch):
        priced, price = [], gameprice.lsq._price_numeric
        monkeypatch.setattr(gameprice.lsq, "_price_numeric",
                            lambda *args: priced.append(args) or price(*args))
        for probs, games, r in LS_DEEP_LIKE:
            b = ConeBasis(OutcomeSpace(probs), [Game(g) for g in games])
            least_squares_prices(b, Rate(r))
            payoffs = [tuple(args[0]) for args in priced]
            assert len(set(payoffs)) == len(payoffs), (probs, games, r)
            priced.clear()

    def test_the_oracle_at_zero_hands_its_worst_mix_to_the_dual(self, monkeypatch):
        # example 13's uniform mix has excess 1.3108573e-3 and L(0) - 1 is
        # 1.3109348e-3: a tol_L between them leaves the uniform mix no proof,
        # the oracle at x = 0 climbs, finds L(0) above tolerance and hands
        # its worst mix on to the dual, whose maximum is the default's
        b, rate = _sample_basis("example13.json")
        default = least_squares_prices(b, rate)
        climbs = _count_calls(monkeypatch, "maximize")
        sol = least_squares_prices(b, rate, tol_L=1.3109e-3)
        assert len(climbs) == 2 and sol.termination == "newton"
        assert sol.x_tuple == default.x_tuple


class TestCertificatePath:
    """maximize returns at its first state when that state is certified,
    before it forms an oracle Hessian or climbs; an uncertified start still
    climbs."""

    @staticmethod
    def _record(monkeypatch):
        """Counts of maximize calls, of their climbs (_projected_newton
        calls inside maximize) and of the mix-price Hessians read inside
        maximize, which is where the oracle forms its own."""
        seen, inside = collections.Counter(), []
        maximize, evaluation = _LsqProblem.maximize, _LsqProblem.value_grad_hess
        climb = gameprice.lsq._projected_newton

        class Hessian(list):
            def __iter__(self):
                seen["hessians"] += bool(inside)
                return super().__iter__()

        def recorded_maximize(self, *args):
            seen["maximize"] += 1
            inside.append(self)
            try:
                return maximize(self, *args)
            finally:
                inside.pop()

        def recorded_evaluation(self, p):
            price, grad, hess = evaluation(self, p)
            return price, grad, Hessian(hess)

        def recorded_climb(*args):
            seen["climbs"] += bool(inside)
            return climb(*args)

        monkeypatch.setattr(_LsqProblem, "maximize", recorded_maximize)
        monkeypatch.setattr(_LsqProblem, "value_grad_hess", recorded_evaluation)
        monkeypatch.setattr(gameprice.lsq, "_projected_newton", recorded_climb)
        return seen

    @pytest.mark.parametrize("probs, games, r", LS_DEEP_LIKE)
    def test_every_ls_deep_certificate_is_certified_at_its_first_state(
            self, monkeypatch, probs, games, r):
        seen = self._record(monkeypatch)
        sol = least_squares_prices(ConeBasis(OutcomeSpace(probs), [Game(g) for g in games]),
                                   Rate(r))
        # one certificate maximize per solve, none on the constant-mix basis
        assert seen["maximize"] == (sol.termination != "constant_mix")
        assert seen["climbs"] == 0 and seen["hessians"] == 0

    @pytest.mark.parametrize("probs, games, r",
                             [case for case in LS_DEEP_LIKE if len(case[1]) == 2])
    def test_an_uncertified_start_still_climbs(self, monkeypatch, probs, games, r):
        b, rate = ConeBasis(OutcomeSpace(probs), [Game(g) for g in games]), Rate(r)
        sol = least_squares_prices(b, rate)
        prob = _LsqProblem(b, rate)
        adj = prob.adjusted_prices(sol.x_tuple)
        seen = self._record(monkeypatch)
        # the uniform mix is not the worst one at the solution: it climbs,
        # forming the oracle's Hessians on the way
        state = prob.maximize(adj, [0.5, 0.5])[0]
        val, p = state[3], state[7]
        assert seen["climbs"] == 1 and seen["hessians"] >= 1
        # to a certified point: a start there returns at once, with the
        # same answer, and the value is the solve's certified L
        again, steps, end = prob.maximize(adj, p)
        assert (again[3], again[7]) == (val, p) and (steps, end) == (0, "done")
        assert seen["climbs"] == 1
        assert val == pytest.approx(1.0 + sol.max_violation, rel=2 * gameprice.lsq.ORACLE_GAP)


@pytest.mark.parametrize("probs, games, r",
                         [case for case in LS_DEEP_LIKE if len(case[1]) == 2]
                         + [(COIN.prob_tuple, [(12, 8), (11, 9)], 0.05)])
def test_the_dual_level_certifies_minimality(probs, games, r):
    # weak duality (Boyd and Vandenberghe 5.2): D(w) <= |x|^2 / 2 for every
    # w >= 0 and feasible x, so the level D of the state the dual climb ends
    # on, equal to |x|^2 / 2 at the certified x = min(w d, 1), w = v / c,
    # proves x the min-norm point. On the two-game ls_deep bases and B13 the
    # solve starts the dual from the uniform mix alone, so x is the solve's
    b, rate = ConeBasis(OutcomeSpace(probs), [Game(g) for g in games]), Rate(r)
    prob = _LsqProblem(b, rate)
    state, _, end = _max_dual(prob, [[0.5, 0.5]])
    x = [min(vi / ci * di, 1.0) for vi, ci, di in zip(state[8], prob.c_tuple, prob.d_tuple)]
    sol = least_squares_prices(b, rate)
    assert end == "done" and sol.termination == "newton"
    assert tuple(x) == sol.x_tuple
    assert state[3] == pytest.approx(sol.norm / 2.0, rel=1e-12)


def _climb(f, grad, hess, x):
    """_projected_newton on a closed-form concave f, from x.

    The stop value is the projected gradient's largest entry, with a bound
    of 1e-15, so the climb is done when it vanishes. The level is -inf,
    whose change is nan, so only Armijo's rule or a done trial passes a
    step.
    """
    def evaluate(x):
        g = grad(x)
        stop = max(abs(gj) if xj > 0.0 else gj for gj, xj in zip(g, x))
        return f(x), g, hess(x), -math.inf, 0.0, stop, 1e-15, x, x

    state, steps, end = _projected_newton(evaluate, evaluate(x))
    return state[-1], steps, end


class TestProjectedNewton:
    """The one projected-Newton routine on closed-form concave functions."""

    def test_quadratic_with_its_maximizer_on_a_bound(self):
        # max of -((x0 - 1)^2 + (x1 + 1)^2) / 2 on x >= 0 is (1, 0)
        x, steps, end = _climb(
            lambda x: -((x[0] - 1.0) ** 2 + (x[1] + 1.0) ** 2) / 2.0,
            lambda x: [1.0 - x[0], -1.0 - x[1]],
            lambda x: [[-1.0, 0.0], [0.0, -1.0]],
            [0.5, 0.5])
        assert (x, steps, end) == ([1.0, 0.0], 1, "done")

    def test_flat_step_stops_at_the_first_bound_on_the_orthant(self, monkeypatch):
        # -x0 - x1 - (x2 - 1/2)^2 / 2 is affine in (x0, x1): the first step
        # goes along (-1, -1) until x0 reaches 0, leaving x1 at 1/4
        args = (lambda x: -x[0] - x[1] - (x[2] - 0.5) ** 2 / 2.0,
                lambda x: [-1.0, -1.0, 0.5 - x[2]],
                lambda x: [[0.0] * 3, [0.0] * 3, [0.0, 0.0, -1.0]],
                [0.25, 0.5, 0.25])
        assert _climb(*args) == ([0.0, 0.0, 0.5], 2, "done")
        monkeypatch.setattr(gameprice.lsq, "_ORACLE_MAX_ITER", 1)
        assert _climb(*args) == ([0.0, 0.25, 0.5], 1, "cap")

    def test_a_step_that_is_not_finite_stalls_in_place(self):
        # gradient 1 over a subnormal curvature: the Newton step overflows
        assert _climb(lambda x: x[0] - 5e-321 * x[0] * x[0],
                      lambda x: [1.0 - 1e-320 * x[0]],
                      lambda x: [[-1e-320]],
                      [1.0]) == ([1.0], 0, "stalled")

    def test_a_gradient_whose_square_overflows_stalls_in_place(self):
        # the epsilon-active threshold squares the projected step, 1e308
        assert _climb(lambda x: 1e308 * x[0] - 5e-301 * x[0] * x[0],
                      lambda x: [1e308 - 1e-300 * x[0]],
                      lambda x: [[-1e-300]],
                      [1.0]) == ([1.0], 0, "stalled")

    def test_a_step_no_halving_makes_rise_stalls_in_place(self):
        # the gradient points up while f falls both ways, as rounding can
        # make it near a maximum: no halving rises, until x would not move
        assert _climb(lambda x: -abs(x[0] - 1.0),
                      lambda x: [1.0],
                      lambda x: [[-1.0]],
                      [1.0]) == ([1.0], 0, "stalled")


class TestConstantMixDetector:
    def test_example_11(self):
        found = check_constant_mix(B11)
        assert found is not None
        p, support = found
        assert p.weights.tolist() == pytest.approx([0.4, 0.6], abs=1e-9)
        assert support == (0, 1)

    def test_example_12_has_none(self):
        assert check_constant_mix(B12) is None

    def test_constant_singleton(self):
        found = check_constant_mix(basis((10, 10)))
        assert found is not None
        assert found[0].weights.tolist() == [1.0]

    def test_disjoint_supports(self):
        found = check_constant_mix(basis((0, 2), (2, 0)))
        assert found is not None
        assert found[0].weights.tolist() == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_a_mix_whose_payoffs_spread_is_refused(self):
        # k = 1 - 7.5e-10 passes M k = 1 to CONE_TOL in every row, but
        # |M k - 1| is 1.06e-9 in the 2-norm, the cone test's
        game = (1.0, 1.0 + 1.5e-9)
        k = _nnls_cols([game], [1.0, 1.0])
        assert max(abs(a * k[0] - 1.0) for a in game) <= CONE_TOL
        assert check_constant_mix(basis(game)) is None
        # the solve decides by the same test
        assert least_squares_prices(basis(game), R05).termination != "constant_mix"


class TestResidualBound:
    """The least-squares residual rho = |(Q^T 1)[n:]| of M k = 1 rules out a
    constant mix before any NNLS when rho > 2 CONE_TOL + sqrt(m) rounding."""

    @staticmethod
    def _nnls_calls(monkeypatch):
        calls, nnls = [], gameprice.lsq._nnls_cols
        monkeypatch.setattr(gameprice.lsq, "_nnls_cols",
                            lambda *args: calls.append(args) or nnls(*args))
        return calls

    @staticmethod
    def _alone(cols, qr):
        """The NNLS verdict alone: its k when M k = 1 to CONE_TOL, else None."""
        ones = [1.0] * len(cols[0])
        k = _nnls_cols(cols, ones, qr)
        return k if gameprice.lsq._residual(cols, k, ones) <= CONE_TOL else None

    @classmethod
    def _verdicts(cls, cols, calls):
        """(the verdict with the bound, the NNLS verdict alone, whether the
        bound decided), each verdict a k or None; calls records the NNLS
        calls (_nnls_calls)."""
        qr = gameprice.lsq._unit_qr(cols)
        calls.clear()
        with_bound = gameprice.lsq._constant_mix(cols, qr)
        return with_bound, cls._alone(cols, qr), not calls

    def test_no_nnls_where_the_residual_rules_a_constant_mix_out(self, monkeypatch):
        probs, games, rate = LS_DEEP_LIKE[0]
        b, rate = ConeBasis(OutcomeSpace(probs), [Game(g) for g in games]), Rate(rate)
        qr = gameprice.lsq._unit_qr(games)
        rho = math.hypot(*gameprice.lsq._apply_qt(qr[0], [1.0] * 3)[2:])
        assert rho > 0.1 > math.sqrt(3) * (2.0 * CONE_TOL + qr[4])
        with monkeypatch.context() as m:  # the answers of the NNLS alone
            m.setattr(gameprice.lsq, "_constant_mix", self._alone)
            expected = least_squares_prices(b, rate)
            assert check_constant_mix(b) is None
        calls = self._nnls_calls(monkeypatch)
        assert least_squares_prices(b, rate) == expected
        assert check_constant_mix(b) is None
        assert calls == []

    def test_a_pair_that_sums_to_a_constant_runs_the_nnls(self, monkeypatch):
        games = [(1, 2, 3), (3, 2, 1)]  # their sum pays 4
        b = ConeBasis(OutcomeSpace([0.2, 0.3, 0.5]), [Game(g) for g in games])
        qr = gameprice.lsq._unit_qr(games)
        rho = math.hypot(*gameprice.lsq._apply_qt(qr[0], [1.0] * 3)[2:])
        assert rho <= 1e-15
        calls = self._nnls_calls(monkeypatch)
        sol = least_squares_prices(b, R05)
        assert len(calls) == 1 and sol.termination == "constant_mix"
        assert check_constant_mix(b)[1] == (0, 1)

    def test_the_bound_agrees_with_the_nnls_alone_across_cone_tol(self, monkeypatch):
        # n < m games holding a mix k . M = c pushed off constant by a
        # relative delta from 1e-11 to 1e-7, on both sides of CONE_TOL
        rng, decided = random.Random(44), collections.Counter()
        calls = self._nnls_calls(monkeypatch)
        for _ in range(300):
            m = rng.randint(3, 6)
            n = rng.randint(2, m - 1)
            games = [[rng.uniform(0.5, 20.0) for _ in range(m)] for _ in range(n - 1)]
            k = [rng.uniform(0.2, 1.0) for _ in range(n - 1)]
            mixed = [sum(ki * g[j] for ki, g in zip(k, games)) for j in range(m)]
            c = max(mixed) + rng.uniform(0.5, 20.0)
            delta = 10.0 ** rng.uniform(-11.0, -7.0)
            games.append([(c - a) * (1.0 + delta * rng.choice((-1.0, 1.0))) for a in mixed])
            with_bound, alone, by_bound = self._verdicts(games, calls)
            assert with_bound == alone
            decided[by_bound, alone is not None] += 1
        # the bound decides most draws with delta far above CONE_TOL, the
        # NNLS the rest, and both verdicts occur
        assert decided[True, True] == 0
        assert decided[True, False] > 50 and decided[False, True] > 20
        assert decided[False, False] > 0


def _lp_constant_mix(M, tol=1e-9):
    """Reference: the linear-programming search, maximin weight then probes."""
    from scipy.optimize import linprog

    m, n = M.shape
    a_eq = np.zeros((m + 1, n + 2))
    a_eq[:m, :n] = M
    a_eq[:m, n] = -1.0
    a_eq[m, :n] = 1.0
    b_eq = np.zeros(m + 1)
    b_eq[m] = 1.0
    a_ub = np.zeros((n, n + 2))
    a_ub[:, :n] = -np.eye(n)
    a_ub[:, n + 1] = 1.0
    lp = dict(A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=b_eq,
              bounds=[(0.0, 1.0)] * n + [(0.0, None), (0.0, 1.0)], method="highs")

    def solve(var):
        cost = np.zeros(n + 2)
        cost[var] = -1.0
        return linprog(cost, **lp)

    res = solve(n + 1)
    if not res.success:
        return None
    if res.x[n + 1] > 1e-9:
        p = res.x[:n]
    else:
        probes = [(i, solve(i)) for i in range(n)]
        witnesses = [r.x[:n] for i, r in probes if r.success and r.x[i] > 1e-9]
        if not witnesses:
            return None
        p = np.mean(witnesses, axis=0)
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    if np.ptp(M @ p) > tol * max(float(M.max()), 1.0):
        return None
    return p, tuple(int(i) for i in np.nonzero(p > 1e-9)[0])


def _nnls_in_cone(M, target, tol=1e-9):
    from scipy.optimize import nnls

    return nnls(M, target)[1] <= tol * max(float(target.max()), 1.0)


def _random_full_rank_basis(rng, kind):
    """A basis of n <= m games with full column rank, and its payoff matrix."""
    while True:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(max(n, 2), 7))
        M = rng.uniform(0.5, 20.0, (m, n))
        if kind == "constant":
            # solve one column so that M k is constant for a chosen k >= 0,
            # with a zero weight (a face of the simplex) half of the time
            k = rng.uniform(0.1, 1.0, n)
            if n > 1 and rng.random() < 0.5:
                k[rng.integers(n)] = 0.0
            i = int(np.argmax(k))
            rest = M @ k - M[:, i] * k[i]
            M[:, i] = (rest.max() + rng.uniform(0.5, 5.0) - rest) / k[i]
        elif kind == "zeros":
            M[rng.random((m, n)) < 0.3] = 0.0
        elif kind == "near_proportional" and n >= 2:
            # about ten times the 1e-9 residual at which a pair is proportional
            M[:, 1] = M[:, 0] * rng.uniform(0.5, 2.0) * (1.0 + 1e-8 * rng.uniform(-1, 1, m))
        elif kind == "wide_scale":
            M *= 10.0 ** rng.uniform(-4.0, 4.0, (1, n) if rng.random() < 0.5 else (m, n))
        if np.any(M.max(axis=0) <= 0.0) or np.linalg.matrix_rank(M) < n:
            continue
        return ConeBasis(OutcomeSpace(np.full(m, 1.0 / m)), [Game(c) for c in M.T]), M


def _cone_targets(rng, M):
    """Games inside the cone of M's columns, on one of its faces, and outside."""
    m, n = M.shape
    for where in ("inside", "face", "outside"):
        k = rng.uniform(0.1, 2.0, n)
        if where == "face":
            if n == 1:
                continue
            k[rng.integers(n)] = 0.0
        target = M @ k
        if where == "outside":
            if m > n and rng.random() < 0.5:  # off the span
                target = target + rng.uniform(0.1, 1.0) * target.max() * np.abs(
                    rng.normal(size=m))
            else:  # in the span with a negative coefficient
                k[rng.integers(n)] = -rng.uniform(0.1, 1.0)
                target = M @ k
        if np.all(target >= 0.0) and np.any(target > 0.0):
            yield target


class TestIndependentGamesMatchLpAndNnls:
    """The NNLS detector on independent games against scipy references."""

    KINDS = ("constant", "zeros", "near_proportional", "wide_scale", "plain")

    def test_random_full_rank_bases(self):
        rng = np.random.default_rng(703079)
        found = targets = 0
        for trial in range(250):
            b, M = _random_full_rank_basis(rng, self.KINDS[trial % len(self.KINDS)])
            got, ref = check_constant_mix(b), _lp_constant_mix(M)
            assert (got is None) == (ref is None), M
            if got is not None:
                found += 1
                assert got[1] == ref[1], M
                assert np.max(np.abs(got[0].weights - ref[0])) <= 1e-9, M
            for target in _cone_targets(rng, M):
                targets += 1
                assert in_cone(b, Game(target)) == _nnls_in_cone(M, target), (M, target)
        assert found >= 50 and targets >= 600

    def test_nearly_equal_games_on_a_constant_mix(self):
        # two games equal to within 1e-9 on the support of a constant mix: at
        # tol 1e-9 any split of weight between them is a constant mix, so the
        # split is not determined, but the largest support is. The LP, at
        # condition numbers near 1e10, sometimes finds no mix at all; where
        # it finds one, its support is the detector's
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = int(rng.integers(3, 7))
            M = rng.uniform(0.5, 20.0, (m, 3))
            M[:, 1] = M[:, 0] * rng.uniform(0.5, 2.0) * (1.0 + 1e-9 * rng.uniform(-1, 1, m))
            k = rng.uniform(0.1, 1.0, 3)
            rest = M[:, :2] @ k[:2]
            M[:, 2] = (rest.max() + rng.uniform(0.5, 5.0) - rest) / k[2]
            b = ConeBasis(OutcomeSpace(np.full(m, 1.0 / m)), [Game(c) for c in M.T])
            got, ref = check_constant_mix(b), _lp_constant_mix(M)
            assert got is not None
            assert np.ptp(M @ got[0].weights) <= 1e-9 * M.max()
            assert 2 in got[1] and {0, 1} & set(got[1])
            if ref is not None:
                assert got[1] == ref[1], M


class TestDependentGames:
    """More games than independent directions: probes for the largest support."""

    S3 = OutcomeSpace([0.2, 0.3, 0.5])

    @pytest.mark.parametrize("games, support", [
        (((19, 1), (1, 19), (12, 8)), (0, 1, 2)),
        (((19, 1), (10, 10), (5, 5)), (1, 2)),
        (((19, 1), (1, 19), (12, 8), (4, 16)), (0, 1, 2, 3)),
        (((19, 1), (12, 8), (10, 10), (5, 5)), (2, 3)),
    ])
    def test_fair_coin_maximal_support(self, games, support):
        b = basis(*games)
        p, got = check_constant_mix(b)
        assert got == support
        payoff = b.payoff_matrix() @ p.weights
        assert np.ptp(payoff) <= 1e-9 * payoff.max()
        sol = least_squares_prices(b, R05)
        assert sol.max_violation <= 1e-9

    def test_dependent_triple(self):
        # (7, 6, 5) = (1, 2, 3) + 2 * (3, 2, 1); (1, 2, 3) + (3, 2, 1) is constant
        b = ConeBasis(self.S3, [Game([1, 2, 3]), Game([3, 2, 1]), Game([7, 6, 5])])
        assert check_constant_mix(b)[1] == (0, 1, 2)
        assert least_squares_prices(b, R05).max_violation <= 1e-9
        assert in_cone(b, Game([6, 8, 10]))
        assert not in_cone(b, Game([0.4, 1.6, 2.8]))  # (1,2,3) - 0.2 * (3,2,1)
        assert not in_cone(b, Game([1, 0, 0]))  # off the span

    def test_a_game_near_1e_300(self):
        # the residual's r . r underflows to 0 there; its norm must not
        b = ConeBasis(self.S3, [Game([1, 2, 3])])
        assert not in_cone(b, Game([3e-300, 1e-300, 2e-300]))
        with pytest.raises(BasisError, match="outside the cone"):
            cone_coordinates(b, Game([3e-300, 1e-300, 2e-300]))
        assert in_cone(b, Game([1e-300, 2e-300, 3e-300]))

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e200])
    def test_a_proportional_pair_at_any_scale(self, scale):
        # the squares of the NNLS column norms underflow at 1e-300 and
        # overflow at 1e200; the norms must not
        games = [Game([scale, 2 * scale]), Game([2 * scale, 4 * scale])]
        assert len(reduce_to_basis(games, fair_coin())[0].games) == 1
        sol = least_squares_prices(ConeBasis(fair_coin(), games), Rate(0.05))
        assert sol.basis == (0,)
        assert sol.price_tuple[1] == pytest.approx(2 * sol.price_tuple[0], rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    @pytest.mark.parametrize("games, support", [
        ([[19, 1], [10, 10], [5, 5]], (1, 2)),
        ([[1, 2, 3], [3, 2, 1], [2, 4, 6]], (0, 1, 2)),
        ([[1, 0, 1], [0, 1, 0], [5, 1, 1]], (0, 1)),
    ])
    def test_constant_mix_support_at_any_scale(self, games, support, scale):
        space = fair_coin() if len(games[0]) == 2 else self.S3
        b = ConeBasis(space, [Game([scale * v for v in g]) for g in games])
        found = check_constant_mix(b)
        assert found is not None and found[1] == support

    def test_dependent_triple_without_constant_mix(self):
        b = ConeBasis(self.S3, [Game([1, 2, 3]), Game([2, 4, 6]), Game([5, 1, 1])])
        assert check_constant_mix(b) is None

    def test_coordinates_of_a_dependent_triple_are_nonnegative(self):
        # least squares returns the min-norm coefficients (-2/3, 4/3, 2/3) here
        b = ConeBasis(self.S3, [Game([1, 2, 3]), Game([3, 2, 1]), Game([7, 6, 5])])
        target = np.array([6.0, 8.0, 10.0])
        k = cone_coordinates(b, Game(target))
        assert np.all(k >= 0.0)
        assert np.max(np.abs(b.payoff_matrix() @ k - target)) <= 1e-9

    def test_random_dependent_sets_match_lp(self):
        rng = np.random.default_rng(17)
        found = 0
        for trial in range(120):
            m = int(rng.integers(2, 5))
            n = m + int(rng.integers(1, 4))
            M = rng.uniform(0.5, 20.0, (m, n))
            M[rng.random((m, n)) < 0.2] = 0.0
            M[rng.integers(m, size=n), np.arange(n)] = rng.uniform(0.5, 20.0, n)
            if trial % 2 == 0:
                # solve one column so that M k is constant for a chosen k >= 0
                # with zero weights on some games
                k = rng.uniform(0.1, 1.0, n) * (rng.random(n) < 0.7)
                i = int(rng.integers(n))
                k[i] = rng.uniform(0.1, 1.0)
                rest = M @ k - M[:, i] * k[i]
                M[:, i] = (rest.max() + rng.uniform(0.5, 5.0) - rest) / k[i]
            b = ConeBasis(OutcomeSpace(np.full(m, 1.0 / m)), [Game(c) for c in M.T])
            got, ref = check_constant_mix(b), _lp_constant_mix(M)
            assert (got is None) == (ref is None), M
            if got is not None:
                found += 1
                assert got[1] == ref[1], M
        assert found >= 60

    def test_fair_coin_cone(self):
        b = basis((19, 1), (1, 19), (12, 8))
        assert in_cone(b, Game([10, 11]))
        assert not in_cone(b, Game([20, 0.5]))

    @pytest.mark.parametrize("games", [
        ((16.426, 11.207), (19.628, 4.488), (11.298, 9.931), (7.389, 12.036),
         (5.088, 16.143)),
        ((11.143, 13.399), (13.999, 15.731), (18.586, 3.42), (12.71, 3.301),
         (9.141, 15.833), (17.947, 15.305)),
    ])
    def test_fair_coin_constant_mix_solves_at_once(self, games):
        # a full-support constant mix makes x = 1 the exact min-norm point at
        # once; a point off by 1e-3 (from a fixed-tolerance projection method)
        # sent the oracle crawling along the null space to its iteration cap
        sol = least_squares_prices(basis(*games), R05)
        assert sol.iterations == 1
        assert np.max(np.abs(sol.x - 1.0)) <= 1e-13
        assert sol.max_violation <= 1e-9

    def test_cone_membership_never_loads_scipy(self):
        script = textwrap.dedent("""
            import sys
            from gameprice import (ConeBasis, Game, OutcomeSpace, Rate, check_constant_mix,
                                   check_linear_pricing, fair_coin, in_cone)
            space = OutcomeSpace([0.2, 0.3, 0.5])
            b = ConeBasis(space, [Game([1, 2, 3]), Game([2, 4, 6]), Game([5, 1, 1])])
            coin = ConeBasis(fair_coin(), [Game([19, 1]), Game([10, 10]), Game([5, 5])])
            b12 = ConeBasis(fair_coin(), [Game([19, 1]), Game([16, 4])])
            print(in_cone(b, Game([6, 3, 4])), in_cone(b, Game([4.9, 0.8, 0.7])),
                  check_constant_mix(b), "".join(map(str, check_constant_mix(coin)[1])),
                  check_linear_pricing(b12, Rate(0.05)), "scipy" in sys.modules)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True", "False", "None", "12", "True", "False"]


class TestLinearPricingDetector:
    def test_example_12_is_linear(self):
        assert check_linear_pricing(B12, R05) is True

    def test_example_13_is_not(self):
        assert check_linear_pricing(B13, R05) is False

    def test_singleton_trivially_linear(self):
        assert check_linear_pricing(basis((19, 1)), R05) is True

    @pytest.mark.parametrize("games", [
        ((1, 2, 3), (5, 1, 1)),
        ((1, 2, 3), (2, 4, 6.5)),
    ])
    def test_three_outcome_pairs_are_not(self, games):
        b = ConeBasis(OutcomeSpace([0.2, 0.3, 0.5]), [Game(g) for g in games])
        assert check_linear_pricing(b, R05) is False


class TestPriceInCone:
    def test_vertices_recover_prices(self):
        sol = least_squares_prices(B13, R05)
        assert price_in_cone(sol, [1.0, 0.0]) == sol.prices[0]
        assert price_in_cone(sol, [0.0, 1.0]) == sol.prices[1]

    def test_example_11_constant_point(self):
        sol = least_squares_prices(B11, R05)
        assert price_in_cone(sol, [0.4, 0.6]) == pytest.approx(CEILING, rel=1e-12)

    def test_linear_by_definition(self):
        sol = least_squares_prices(B12, R05)
        assert price_in_cone(sol, [2.0, 0.0]) == pytest.approx(2 * U_19_1, rel=1e-12)

    def test_rejects_negative_coefficients(self):
        sol = least_squares_prices(B12, R05)
        with pytest.raises(InvariantViolation):
            price_in_cone(sol, [-1.0, 2.0])


def _random_cuts(rng, n):
    """Up to 60 cuts a.t >= b with a >= 0 that t = 1 meets, as the solver's do.

    Half are near copies of an earlier cut, 1e-9 to 1e-3 apart; a fifth have
    t = 1 binding, some just past it by rounding.
    """
    cuts = []
    for _ in range(int(rng.integers(1, 61))):
        if cuts and rng.random() < 0.5:
            a0, b0 = cuts[int(rng.integers(len(cuts)))]
            eps = 10.0 ** rng.uniform(-9.0, -3.0)
            a = a0 * (1.0 + eps * rng.uniform(-1.0, 1.0, n))
            b = min(b0 + eps * abs(b0) * rng.uniform(-1.0, 1.0), float(a.sum()))
        else:
            a = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.8)
            b = rng.uniform(-0.3, 1.0) * float(a.sum())
        if rng.random() < 0.2:
            b = float(a.sum()) * (1.0 + 2.2e-16 * int(rng.integers(0, 4)))
        cuts.append((a, b))
    return cuts


def _scipy_ldp(cuts, n):
    """Min-norm point by least-distance programming on scipy's NNLS, with every
    row built: all cuts, t >= 0 and t <= 1."""
    from scipy.optimize import nnls

    G = np.vstack([np.array([a for a, _ in cuts]), np.eye(n), -np.eye(n)])
    h = np.concatenate([[b for _, b in cuts], np.zeros(n), -np.ones(n)])
    E = np.vstack([G.T, h])
    f = np.zeros(n + 1)
    f[n] = 1.0
    u, _ = nnls(E, f, maxiter=50 * E.shape[1])
    r = E @ u - f
    return -r[:n] / r[n]


class TestMinNormSubproblem:
    def test_no_cuts_is_origin(self):
        x = _min_norm_point([], 2)
        assert x.tolist() == [0.0, 0.0]

    def test_single_halfspace_projection(self):
        cuts = [(np.array([1.0, 1.0]), 1.0)]
        x = _min_norm_point(cuts, 2)
        assert x.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_box_binding(self):
        # projection onto the half-space alone would exceed the unit box
        cuts = [(np.array([1.0, 0.05]), 1.04)]
        x = _min_norm_point(cuts, 2)
        assert x[0] <= 1.0 + 1e-12
        assert float(np.array([1.0, 0.05]) @ x) >= 1.04 - 1e-10

    def test_random_cut_sets_match_scipy_ldp(self):
        rng = np.random.default_rng(41)
        compared = 0
        for _ in range(200):
            n = int(rng.integers(1, 7))
            cuts = _random_cuts(rng, n)
            x = _min_norm_point(cuts, n)
            assert np.all(x >= 0.0) and np.all(x <= 1.0)
            assert all(float(a @ x) >= b - 1e-12 for a, b in cuts), cuts
            # scipy's NNLS can stop at a non-optimal point on rank-deficient
            # systems (repeated cuts with t = 1 binding), and a set just past
            # t = 1 by rounding has no feasible point. A feasible reference is
            # never shorter than the min-norm point, and equals it when it is
            # as short
            with np.errstate(divide="ignore", invalid="ignore"):
                ref = _scipy_ldp(cuts, n)
            if np.all(np.isfinite(ref)) and np.all(ref >= -1e-9) and np.all(
                    ref <= 1.0 + 1e-9) and all(float(a @ ref) >= b - 1e-9 for a, b in cuts):
                assert float(x @ x) <= float(ref @ ref) + 1e-9, cuts
                if float(ref @ ref) <= float(x @ x) + 1e-12:
                    compared += 1
                    assert np.max(np.abs(x - ref)) <= 1e-10, cuts
        assert compared >= 190

    def test_nearly_parallel_columns_reach_the_cone(self):
        # two games 1e-9 to 1e-6 off proportional that still form a basis:
        # once one enters, the other's gradient a_j . r is below any
        # tolerance while the residual it removes is ~1e-9 of the target
        from scipy.optimize import nnls

        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(400):
            m = int(rng.integers(2, 7))
            M = rng.uniform(0.5, 20.0, (m, 2))
            off = 10.0 ** rng.uniform(-9.0, -6.0)
            M[:, 1] = M[:, 0] * rng.uniform(0.5, 2.0) * (1.0 + off * rng.uniform(-1, 1, m))
            b = ConeBasis(OutcomeSpace(np.full(m, 1.0 / m)), [Game(c) for c in M.T])
            for k in ([1.0, 0.0], [0.0, 1.0], rng.uniform(0.1, 2.0, 2)):
                target = M @ np.asarray(k)
                assert in_cone(b, Game(target)), (M, k)
                assert nnls(M, target)[1] <= 1e-9 * float(target.max())
                checked += 1
        assert checked >= 600

    def test_nnls_residual_matches_scipy(self):
        from scipy.optimize import nnls

        rng = np.random.default_rng(5)
        for trial in range(300):
            m, k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            if trial % 2:  # rank r, often below min(m, k)
                r = int(rng.integers(1, min(m, k) + 1))
                A = rng.normal(size=(m, r)) @ rng.normal(size=(r, k))
            else:
                A = rng.normal(size=(m, k))
            b = rng.normal(size=m)
            x = _nnls(A, b)
            assert np.all(x >= 0.0)
            ours = float(np.linalg.norm(A @ x - b))
            # scipy's own residual, recomputed: on rank-deficient A it can
            # report a residual its solution does not have, and stop short
            x_ref = nnls(A, b, maxiter=50 * k)[0]
            theirs = float(np.linalg.norm(A @ x_ref - b))
            assert ours <= theirs + 1e-12 * float(np.linalg.norm(b)), (A, b)



def _eigh_split(H, g):
    """Reference for _newton_split: the same unit-diagonal scaling, with the
    curved and flat directions taken from numpy's symmetric eigensolver.
    Scaled eigenvalues within _FLAT of the largest curvature count as flat."""
    H, g = np.asarray(H, dtype=float), np.asarray(g, dtype=float)
    if g.size == 1:
        return ([-g[0] / H[0, 0]], [0.0]) if H[0, 0] < 0.0 else ([0.0], [g[0]])
    d = np.sqrt(np.where(np.diag(H) < 0.0, -np.diag(H), 1.0))
    lam, vec = np.linalg.eigh(H / np.outer(d, d))
    gs = g / d
    curved = lam < -_FLAT * max(-lam[0], 0.0)
    c = vec.T @ gs
    step = vec[:, curved] @ (-c[curved] / lam[curved])
    flat = vec[:, ~curved] @ c[~curved]
    return (step / d).tolist(), (flat / d).tolist()


class TestPlainFloatKernels:
    """The plain-float kernels against numpy and scipy references."""

    def test_nnls_matches_scipy(self):
        from scipy.optimize import nnls

        rng = np.random.default_rng(2024)
        unique = 0
        for trial in range(600):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            A = rng.uniform(0.0, 20.0, (m, n))
            A[rng.random((m, n)) < 0.25] = 0.0  # zero payoffs
            proportional = trial % 3 == 1 and n >= 2
            if proportional:  # a pair of columns 1e-9 apart
                j = int(rng.integers(1, n))
                A[:, j] = A[:, 0] * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, m))
            A[0, A.max(axis=0) <= 0.0] = 1.0  # no game is all zero
            A *= 10.0 ** rng.uniform(-6.0, 6.0, n)
            if trial % 4 == 0:  # a point of the cone
                b = A @ (rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.6)) + A[:, 0]
            elif trial % 4 == 1:  # a point anywhere
                b = rng.uniform(-1.0, 1.0, m) * A.max()
            else:  # the constant-mix question
                b = np.ones(m)
            x = np.array(_nnls_cols(A.T.tolist(), b.tolist()))
            assert np.all(x >= 0.0)
            # NNLS is invariant under positive column scaling, which scipy
            # does not apply itself: the reference solves on unit columns
            norms = np.linalg.norm(A, axis=0)
            x_ref = nnls(A / norms, b, maxiter=50 * n)[0] / norms
            scale = float(np.linalg.norm(b))
            ours = float(np.linalg.norm(A @ x - b))
            theirs = float(np.linalg.norm(A @ x_ref - b))
            assert abs(ours - theirs) <= 1e-12 * scale, (A, b)
            # the minimizer is unique only with independent columns: with
            # n > m or a proportional pair, weight can move between columns
            if n <= m and not proportional:
                weighed = x * norms > 1e-9 * scale
                assert np.array_equal(weighed, x_ref * norms > 1e-9 * scale), (A, b)
                unique += 1
        assert unique >= 250

    def test_newton_split_matches_eigh(self):
        rng = np.random.default_rng(16)
        planted = 0
        for _ in range(500):
            k = int(rng.integers(1, 7))
            flats = int(rng.integers(0, min(2, k) + 1))
            q = np.linalg.qr(rng.normal(size=(k, k)))[0]
            lam = np.concatenate((10.0 ** rng.uniform(-1.0, 1.0, k - flats),
                                  np.zeros(flats)))
            H = -(q * lam) @ q.T
            H = (H + H.T) / 2.0
            g = rng.normal(size=k)
            step, flat = _newton_split(H.tolist(), g.tolist())
            ref_step, ref_flat = _eigh_split(H, g)
            # both solve the unit-diagonal problem: compare there, where a
            # coordinate of tiny curvature does not blow up its step
            d = np.sqrt(np.where(np.diag(H) < 0.0, -np.diag(H), 1.0))
            scale = float(np.linalg.norm(g / d))
            for ours, ref in ((step, ref_step), (flat, ref_flat)):
                gap = np.max(np.abs(d * np.subtract(ours, ref)))
                assert gap <= 1e-10 * scale, (H, g)
            planted += float(np.linalg.norm(d * ref_flat)) > 1e-3 * scale
        assert planted >= 200

    @pytest.mark.parametrize("H, g", [
        ([[-4.0]], [3.0]), ([[-2.5e-7]], [-1.0]), ([[-3e10]], [7.0]),
        ([[0.0]], [2.0]), ([[1e-3]], [-0.5])])
    def test_newton_split_of_one_coordinate_takes_the_general_path(self, H, g):
        step, flat = _newton_split(H, g)
        ref_step, ref_flat = _eigh_split(H, g)
        assert step == pytest.approx(ref_step, rel=1e-15, abs=0.0)
        assert flat == ref_flat

    def test_newton_split_of_no_coordinate(self):
        assert _newton_split([], []) == ([], [])


# ---------------------------------------------------------------------------
# Properties of the least-squares solve over its edge cases
# ---------------------------------------------------------------------------


@st.composite
def _ls_problems(draw):
    """(games, probs, rate) with m = 2-5 outcomes and 1 to m + 2 games, in one
    of six families: plain; a zero payoff in every game; game scales
    10^U(-4, 4); a pair 1e-12 to 1e-6 off proportional; continuous rates
    1e-9 to 1e-6; and rates 1 to 15. Payoffs are 0.5-20 before scaling, and
    the rate is 0.5-10% continuous outside the last two families."""
    unit = st.floats(0.0, 1.0)
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, m + 2))
    family = draw(st.sampled_from(
        ("plain", "zero_payoff", "scaled", "near_pair", "tiny_rate", "high_rate")))
    w = [0.05 + draw(unit) for _ in range(m)]
    probs = [v / sum(w) for v in w]
    games = [[0.5 + 19.5 * draw(unit) for _ in range(m)] for _ in range(n)]
    if family == "zero_payoff":
        for game in games:
            game[draw(st.integers(0, m - 1))] = 0.0
    if family == "scaled":
        games = [[a * 10.0 ** (8.0 * draw(unit) - 4.0) for a in g] for g in games]
    if family == "near_pair" and n >= 2:
        eps = 10.0 ** (6.0 * draw(unit) - 12.0)
        k = 10.0 ** (2.0 * draw(unit) - 1.0)
        games[1] = [k * a * (1.0 + eps * (2.0 * draw(unit) - 1.0)) for a in games[0]]
    if family == "tiny_rate":
        rate = Rate(10.0 ** (3.0 * draw(unit) - 9.0))
    elif family == "high_rate":
        rate = Rate(1.0 + 14.0 * draw(unit))
    else:
        rate = Rate(0.005 + 0.095 * draw(unit))
    return games, probs, rate


def _ls_basis(games, probs):
    return ConeBasis(OutcomeSpace(probs), [Game(g) for g in games])


def _scaled(games, j, log_scale):
    """games with game j % n scaled by 10^log_scale, that index and the factor."""
    j %= len(games)
    k = 10.0 ** log_scale
    return [[k * a for a in g] if i == j else g for i, g in enumerate(games)], j, k


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_ls_problems(), st.integers(0, 7), st.floats(-3.0, 3.0))
def test_the_least_squares_solve_keeps_its_claims(problem, j, log_scale):
    games, probs, rate = problem
    case = (games, probs, rate)
    basis = _ls_basis(games, probs)
    sol = least_squares_prices(basis, rate)
    # arbitrage-free, certified, and again from the oracle's own start
    assert sol.termination != "stalled", case
    assert sol.max_violation <= DEFAULT_L_TOL, case
    x = [min(max(xi, 0.0), 1.0) for xi in sol.x_tuple]
    assert big_L(basis, rate, x)[0] <= 1.0 + DEFAULT_L_TOL, case
    # x in [0, 1] up to the docstring's slack for games priced by linearity
    for xi, u, c in zip(sol.x_tuple, sol.standalone_tuple, sol.ceiling_tuple):
        slack = DEFAULT_L_TOL * u / (c - u) + 1e-9 if c > u else 0.0
        assert -slack <= xi <= 1.0 + slack, case
    # scaling one game scales its price
    scaled, j, k = _scaled(games, j, log_scale)
    other = least_squares_prices(_ls_basis(scaled, probs), rate)
    assert other.termination == sol.termination, case
    assert other.price_tuple[j] == pytest.approx(k * sol.price_tuple[j], rel=1e-11), case


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_ls_problems(), st.permutations(range(7)))
@example(([[1.0, 2.0, 3.0], [2.0, 4.0, 6.000000001], [5.0, 1.0, 1.0]], [0.2, 0.3, 0.5],
          Rate(0.05)), [1, 0, 2, 3, 4, 5, 6])
def test_permuting_the_games_permutes_the_answer(problem, shuffle):
    # the reduction may keep the other game of a near-proportional pair, as
    # in the example, which moves x; the prices of the cone stay in place
    games, probs, rate = problem
    case = (games, probs, rate)
    order = [i for i in shuffle if i < len(games)]  # _ls_problems has n <= 7
    sol = least_squares_prices(_ls_basis(games, probs), rate)
    other = least_squares_prices(_ls_basis([games[i] for i in order], probs), rate)
    assert other.termination == sol.termination, (case, order)
    x, prices = [0.0] * len(games), [0.0] * len(games)
    for i, xi, pi in zip(order, other.x_tuple, other.price_tuple):
        x[i], prices[i] = xi, pi
    if sorted(order[k] for k in other.basis) == list(sol.basis):
        assert x == pytest.approx(sol.x_tuple, rel=0.0, abs=1e-10), (case, order)
        assert prices == pytest.approx(sol.price_tuple, rel=1e-12, abs=0.0), (case, order)
    else:
        assert prices == pytest.approx(sol.price_tuple, rel=1e-8, abs=0.0), (case, order)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_the_solve_matches_the_route_through_the_oracle_at_zero(seed, wide):
    # the reference always climbs the oracle at x = 0 and starts the dual
    # from its worst mix as well; the solve skips both when the uniform mix
    # proves prices nonlinear
    basis, rate = _stress_basis(np.random.default_rng(seed), wide)
    sol = least_squares_prices(basis, rate)
    assert sol.max_violation <= DEFAULT_L_TOL
    prob = _LsqProblem(ConeBasis(basis.space, [basis.games[i] for i in sol.basis]), rate)
    x_sol = [sol.x_tuple[i] for i in sol.basis]
    n = prob.n
    if check_constant_mix(prob.basis) is not None:
        assert sol.termination == "constant_mix"
        return
    val, pstar = prob.oracle(prob.adjusted_prices([0.0] * n))
    if val <= 1.0 + DEFAULT_L_TOL:
        assert sol.termination == "linear" and x_sol == [0.0] * n
        return
    w = _dual_w(prob, [pstar, [1.0 / n] * n])
    x = [min(wi * di, 1.0) for wi, di in zip(w, prob.d_tuple)]
    assert x_sol == pytest.approx(x, abs=1e-10)
    end = "newton" if big_L(prob.basis, rate, x)[0] - 1.0 <= DEFAULT_L_TOL else "stalled"
    assert sol.termination == end


# Fails on two shrunk reproducers, kept as examples. Constant games: c - u is
# rounding, so the constant-mix exit sets x = 1 or 0 by its sign. A game
# priced by linearity at a rate of 1e-9: x = (price - u) / (c - u) carries
# the price's rounding over c - u = 3.9e-4, and moves by 1.0e-11.
@pytest.mark.xfail(strict=True, reason="x of a game with c - u near rounding moves")
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_ls_problems(), st.integers(0, 7), st.floats(-3.0, 3.0))
@example(([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
          [0.045454545454545456, 0.9545454545454545], Rate(0.005)), 0, 3.0)
@example(([[18.78125, 0.5, 0.5], [0.5, 0.5, 10.25], [15.125, 0.5, 0.5], [20.0, 0.5, 0.5]],
          [1.0 / 3.0] * 3, Rate(1e-9)), 0, 1.0)
def test_scaling_one_game_leaves_x_in_place(problem, j, log_scale):
    games, probs, rate = problem
    sol = least_squares_prices(_ls_basis(games, probs), rate)
    other = least_squares_prices(_ls_basis(_scaled(games, j, log_scale)[0], probs), rate)
    assert other.x_tuple == pytest.approx(sol.x_tuple, abs=1e-11), (games, probs, rate)


def _normal_range_bases():
    """120 bases of 2-4 games on 3-5 outcomes, payoffs uniform on [0.5, 20]
    and rates of 1-8%, each as (games, probs, rate, j) with a game j to
    rescale."""
    rng = random.Random(11)
    for _ in range(120):
        n, m = rng.randint(2, 4), rng.randint(3, 5)
        probs = [rng.uniform(0.05, 1.0) for _ in range(m)]
        probs = [p / sum(probs) for p in probs]
        games = [[rng.uniform(0.5, 20.0) for _ in range(m)] for _ in range(n)]
        yield games, probs, Rate(rng.uniform(0.01, 0.08)), rng.randrange(n)


def test_rescaling_one_game_far_out_of_range_leaves_x_in_place():
    # prices are positive linear, so scaling a game by k scales its price by
    # k and leaves x where it was: both climbs weigh each game per unit of
    # its ceiling
    for games, probs, rate, j in _normal_range_bases():
        sol = least_squares_prices(_ls_basis(games, probs), rate)
        for log_scale in (-290, -150, 150, 200):
            case = (games, probs, rate, j, log_scale)
            other = least_squares_prices(
                _ls_basis(_scaled(games, j, log_scale)[0], probs), rate)
            assert other.termination in ("newton", "linear", "constant_mix"), case
            assert other.max_violation <= 1e-9, case
            assert other.x_tuple == pytest.approx(sol.x_tuple, rel=0.0, abs=1e-10), case


def _wide_scale_bases(count=600):
    """Bases whose game scales lie up to 1e600 apart: 2-4 games on 2-6
    outcomes, probabilities uniform on [0.5, 1.5] then normalized, payoffs
    uniform on [0.5, 20] times a per-game 10^U(-300, 300), each zero with
    probability 1/5 (a game drawn all zero is drawn again), and continuous
    rates of 1-8%."""
    rng = random.Random(5)
    for _ in range(count):
        n, m = rng.randint(2, 4), rng.randint(2, 6)
        probs = [rng.uniform(0.5, 1.5) for _ in range(m)]
        probs = [p / sum(probs) for p in probs]
        games = []
        for _ in range(n):
            scale, pay = 10.0 ** rng.uniform(-300.0, 300.0), [0.0]
            while not any(pay):
                pay = [0.0 if rng.random() < 0.2 else rng.uniform(0.5, 20.0) * scale
                       for _ in range(m)]
            games.append(pay)
        yield games, probs, Rate(rng.uniform(0.01, 0.08))


def test_games_scaled_up_to_1e600_apart_end_certified():
    # every mix the climbs price is per unit of ceiling, and pays g on
    # average, so no mix of games far apart underflows
    ends = collections.Counter()
    for games, probs, rate in _wide_scale_bases():
        sol = least_squares_prices(_ls_basis(games, probs), rate)
        assert sol.max_violation <= DEFAULT_L_TOL, (games, probs, rate)
        assert all(map(math.isfinite, sol.price_tuple)), (games, probs, rate)
        ends[sol.termination] += 1
    assert ends["newton"] >= 400 and ends["linear"] and ends["constant_mix"], ends


def test_games_1e517_apart_solve_as_in_normal_range():
    probs = [p / 1.001 for p in (0.128, 0.278, 0.152, 0.235, 0.208)]
    games = [[0.0, 7.1e273, 4.5e273, 2.3e273, 5.2e273],
             [2.5e169, 7.7e169, 4.1e169, 1.3e169, 5.6e169],
             [1.1e-244, 2.2e-244, 1.1e-244, 2.6e-244, 0.0]]
    normal = [[a * 1e-273 for a in games[0]], [a * 1e-169 for a in games[1]],
              [a * 1e244 for a in games[2]]]
    sol, ref = (least_squares_prices(_ls_basis(g, probs), Rate(0.025))
                for g in (games, normal))
    assert (sol.termination, ref.termination) == ("newton", "newton")
    assert sol.max_violation <= 1e-12
    assert sol.x_tuple == pytest.approx(ref.x_tuple, rel=0.0, abs=1e-12)
    assert ref.x_tuple == pytest.approx(
        (0.27546525705265745, 0.4530365675932029, 0.5749021220698983), abs=1e-12)


def test_a_flat_pivot_is_flat_to_1e_9_of_the_largest_curvature():
    # draw 119 of scripts/fuzz_digest.py's wide_n_ge_m part: five games up
    # to 1e357 apart on five outcomes. The dual's Hessian block has a pivot
    # between 1e-9 and 1e-6 of its largest curvature, which _newton_split
    # must treat as curved: flat at 1e-6, the solve ends stalled at
    # L - 1 = 1.47e-9, with x_1 = 0.999257021918873
    probs = [0.1089886543795145, 0.22638796818888138, 0.22790831655296268,
             0.22386579138899, 0.21284926948965158]
    games = [[6.278363068512276e+24, 1.0443951609446553e+25, 1.6455134759303945e+25,
              9.448864261745551e+24, 6.306083282085919e+24],
             [1.8181202913307935e-129, 0.0, 1.810362930599e-129, 4.894671216387207e-130,
              1.0815360372486331e-129],
             [1.6998141464191283e-220, 2.1788457650754715e-221, 1.8445395068721516e-220,
              0.0, 1.113804583628183e-220],
             [0.0, 3.646417202426491e+120, 0.0, 5.611590137899908e+120,
              4.477349235551634e+120],
             [1.380035852204416e-237, 2.472089075129431e-237, 0.0, 1.868491088839807e-237,
              0.0]]
    sol = least_squares_prices(_ls_basis(games, probs), Rate(0.039304566115146974))
    assert sol.termination == "newton"
    assert sol.max_violation <= 1e-9
    assert sol.x_tuple[1] == pytest.approx(0.9992644753454161, rel=0.0, abs=1e-9)
