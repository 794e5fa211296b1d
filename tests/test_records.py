"""The value types are immutable records: equal by value, frozen, printable,
strict about constructor arguments, and rebuilt through validation by
replace()."""

import pytest

from gameprice import (
    ConeBasis,
    FundComparison,
    Game,
    GameFile,
    InvariantViolation,
    KappaContext,
    LsSolution,
    Mix,
    OutcomeSpace,
    ParityReport,
    PriceResult,
    Rate,
    SeriesGame,
    SimConfig,
    SimReport,
    SweepPoint,
    compare_mean_variance,
    fair_coin,
    least_squares_prices,
    price_general,
    put_call_parity,
)
from gameprice.reference import CheckResult

COIN = fair_coin()
R = Rate(0.05)


def _term(j):
    return 2.0**j, 2.0**-j


# (a function building a fresh instance, the record's fields in order, the
# name of its constructor's first parameter); every constructor takes the
# field values positionally
RECORDS = [
    (lambda: OutcomeSpace([0.25, 0.75]), ("prob_tuple",), "probs"),
    (lambda: Game([19.0, 1.0]), ("payoff_tuple",), "payoffs"),
    (lambda: Rate(0.02, "simple"), ("value", "convention"), "value"),
    (lambda: Mix([0.25, 0.75]), ("weight_tuple",), "weights"),
    (lambda: ConeBasis(COIN, [Game([19, 1]), Game([10, 10])]), ("space", "games"),
     "space"),
    (lambda: SeriesGame(_term, 0.5, 3.0), ("term", "tail_exponent", "moment_bound"),
     "term"),
    (lambda: GameFile(COIN, {"A": Game([19, 1])}, R), ("space", "games", "rate"),
     "space"),
    (lambda: price_general(Game([19, 1]), COIN, R),
     ("price", "proportion", "regime", "achieved_growth"), "price"),
    (lambda: KappaContext(0.25), ("kappa",), "kappa"),
    (lambda: least_squares_prices(ConeBasis(COIN, [Game([19, 1]), Game([10, 10])]), R),
     ("x_tuple", "price_tuple", "certificate", "norm", "iterations", "max_violation",
      "standalone_tuple", "ceiling_tuple", "termination", "basis"), "x_tuple"),
    (lambda: compare_mean_variance(Game([50, 1]), Game([30.6191, 14]), Rate(0.02, "simple")),
     ("w_onefund", "fund_onefund", "price_onefund", "w_star", "fund_star", "price_star",
      "t_star", "allocation", "u_x", "u_y", "r_x", "r_y", "var_x", "var_y"), "w_onefund"),
    (lambda: put_call_parity(Game([12, 8]), COIN, 10.0, R),
     ("strike", "degenerate", "reason", "put_price", "call_price", "covered_price",
      "stock_price", "residual", "solution"), "strike"),
    (lambda: CheckResult("id", "a check", "1", "1", True),
     ("check_id", "description", "expected", "computed", "passed"), "check_id"),
    (lambda: SimConfig(10, 2, 0, 1.0, 0.5),
     ("attempts", "paths", "seed", "price", "proportion"), "attempts"),
    (lambda: SimReport(1.01, 0.02, 0.03, 1),
     ("mean_growth", "var_growth", "ci_halfwidth", "failed_paths"), "mean_growth"),
    (lambda: SweepPoint(0.5, 1.01, 0.02, 0.03, 1),
     ("proportion", "mean_growth", "var_growth", "ci_halfwidth", "failed_paths"),
     "proportion"),
]
IDS = [fields[0] for _, fields, _ in RECORDS]


def _values(record, fields):
    return tuple(getattr(record, name) for name in fields)


def test_every_record_type_is_covered():
    covered = {type(make()) for make, _, _ in RECORDS}
    assert covered == {OutcomeSpace, Game, Rate, Mix, ConeBasis, SeriesGame, GameFile,
                       PriceResult, KappaContext, LsSolution, FundComparison,
                       ParityReport, CheckResult, SimConfig, SimReport, SweepPoint}


@pytest.mark.parametrize("make, fields, first", RECORDS, ids=IDS)
class TestRecordSemantics:
    def test_equal_values_compare_and_hash_equal(self, make, fields, first):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        if isinstance(a, GameFile):  # its dict of games is unhashable
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
        assert a != _values(a, fields)

    def test_fields_are_read_only(self, make, fields, first):
        record = make()
        for name in fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_repr_names_every_field_in_order(self, make, fields, first):
        record = make()
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{type(record).__name__}({shown})"

    def test_constructor_takes_the_field_values(self, make, fields, first):
        record = make()
        cls, values = type(record), _values(record, fields)
        assert cls(*values) == record
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(*values, **{first: values[0]})
        with pytest.raises(TypeError):
            cls(*values, not_a_field=1)


def test_records_of_another_type_differ():
    # one field each, holding the same tuple
    game, space, mix = Game([0.25, 0.75]), OutcomeSpace([0.25, 0.75]), Mix([0.25, 0.75])
    assert game.payoff_tuple == space.prob_tuple == mix.weight_tuple
    assert game != space and space != mix and mix != game
    assert KappaContext(0.25) != 0.25


def test_cached_arrays_stay_out_of_equality_hash_and_repr():
    a, b = Game([19, 1]), Game([19, 1])
    shown = repr(a)
    assert a.payoffs is a.payoffs
    assert a == b and hash(a) == hash(b) and repr(a) == shown


def test_defaults():
    assert Rate(0.05).convention == "continuous"
    assert Rate(0.05) == Rate(0.05, "continuous")
    rep = ParityReport(10.0, True)
    assert (rep.reason, rep.put_price, rep.call_price, rep.covered_price,
            rep.stock_price, rep.residual, rep.solution) == (None,) * 7
    assert ParityReport(10.0, True, reason="r").reason == "r"
    assert SimReport(1.0, 0.5, 0.1).failed_paths == 0
    assert SweepPoint(0.5, 1.0, 0.5, 0.1).failed_paths == 0


class TestReplace:
    def test_changes_the_named_fields_only(self):
        rate = Rate(0.05)
        simple = rate.replace(convention="simple")
        assert simple == Rate(0.05, "simple")
        assert rate == Rate(0.05)
        cfg = SimConfig(10, 2, 0, 1.0, 0.5)
        assert cfg.replace(proportion=0.25, seed=3) == SimConfig(10, 2, 3, 1.0, 0.25)
        assert cfg.replace() == cfg and cfg.replace() is not cfg

    def test_validates_again(self):
        with pytest.raises(InvariantViolation):
            Rate(0.05).replace(value=-1)
        with pytest.raises(InvariantViolation):
            SimConfig(10, 2, 0, 1.0, 0.5).replace(attempts=2.5)
        with pytest.raises(InvariantViolation):
            KappaContext(0.25).replace(kappa=0.5)

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError):
            Rate(0.05).replace(rate=0.1)
