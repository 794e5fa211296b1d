"""The value types are immutable records: equal by value, frozen, printable,
strict about constructor arguments, and rebuilt through validation by
replace()."""

import numpy as np
import pytest

from gameprice import (
    BasisError,
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


# (a function building a fresh instance, the record's fields in order); every
# constructor takes the field values positionally, or by the field names
RECORDS = [
    (lambda: OutcomeSpace([0.25, 0.75]), ("prob_tuple",)),
    (lambda: Game([19.0, 1.0]), ("payoff_tuple",)),
    (lambda: Rate(0.02, "simple"), ("value", "convention")),
    (lambda: Mix([0.25, 0.75]), ("weight_tuple",)),
    (lambda: ConeBasis(COIN, [Game([19, 1]), Game([10, 10])]), ("space", "games")),
    (lambda: SeriesGame(_term, 0.5, 3.0), ("term", "tail_exponent", "moment_bound")),
    (lambda: GameFile(COIN, {"A": Game([19, 1])}, R), ("space", "games", "rate")),
    (lambda: price_general(Game([19, 1]), COIN, R),
     ("price", "proportion", "regime", "achieved_growth")),
    (lambda: KappaContext(0.25), ("kappa",)),
    (lambda: least_squares_prices(ConeBasis(COIN, [Game([19, 1]), Game([10, 10])]), R),
     ("x_tuple", "price_tuple", "certificate", "norm", "iterations", "max_violation",
      "standalone_tuple", "ceiling_tuple", "termination", "basis")),
    (lambda: compare_mean_variance(Game([50, 1]), Game([30.6191, 14]), Rate(0.02, "simple")),
     ("w_onefund", "fund_onefund", "price_onefund", "w_star", "fund_star", "price_star",
      "t_star", "allocation", "u_x", "u_y", "r_x", "r_y", "var_x", "var_y")),
    (lambda: put_call_parity(Game([12, 8]), COIN, 10.0, R),
     ("strike", "degenerate", "reason", "put_price", "call_price", "covered_price",
      "stock_price", "residual", "solution")),
    (lambda: CheckResult("id", "a check", "1", "1", True),
     ("check_id", "description", "expected", "computed", "passed")),
    (lambda: SimConfig(10, 2, 0, 1.0, 0.5),
     ("attempts", "paths", "seed", "price", "proportion")),
    (lambda: SimReport(0.5, 1.01, 0.02, 0.03, 1),
     ("proportion", "mean_growth", "var_growth", "ci_halfwidth", "failed_paths")),
]
IDS = [fields[0] for _, fields in RECORDS]


def _values(record, fields):
    return tuple(getattr(record, name) for name in fields)


def test_every_record_type_is_covered():
    covered = {type(make()) for make, _ in RECORDS}
    assert covered == {OutcomeSpace, Game, Rate, Mix, ConeBasis, SeriesGame, GameFile,
                       PriceResult, KappaContext, LsSolution, FundComparison,
                       ParityReport, CheckResult, SimConfig, SimReport}


@pytest.mark.parametrize("make, fields", RECORDS, ids=IDS)
class TestRecordSemantics:
    def test_equal_values_compare_and_hash_equal(self, make, fields):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        if isinstance(a, GameFile):  # its dict of games is unhashable
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
        assert a != _values(a, fields)

    def test_fields_are_read_only(self, make, fields):
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

    def test_repr_names_every_field_in_order(self, make, fields):
        record = make()
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{type(record).__name__}({shown})"

    def test_constructor_takes_the_field_values(self, make, fields):
        record = make()
        cls, values = type(record), _values(record, fields)
        assert cls(*values) == record
        assert cls(**dict(zip(fields, values))) == record
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(*values, **{fields[0]: values[0]})
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
    assert SimReport(0.5, 1.0, 0.5, 0.1).failed_paths == 0


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

    @pytest.mark.parametrize("make, fields", RECORDS, ids=IDS)
    def test_every_record_round_trips_through_validation(self, make, fields, monkeypatch):
        record = make()
        cls, checked = type(record), []
        hook = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self: checked.append(self) or hook(self))
        copy = record.replace()
        assert copy == record and copy is not record and checked == [copy]
        assert record.replace(**{fields[0]: getattr(record, fields[0])}) == record

    @pytest.mark.parametrize("record, change, error", [
        (Game([19, 1]), {"payoff_tuple": (-1.0, 1.0)}, InvariantViolation),
        (OutcomeSpace([0.25, 0.75]), {"prob_tuple": (0.5, 0.6)}, InvariantViolation),
        (Mix([0.25, 0.75]), {"weight_tuple": (-0.25, 1.25)}, InvariantViolation),
        (ConeBasis(COIN, [Game([19, 1])]), {"games": ()}, BasisError),
        (ConeBasis(COIN, [Game([19, 1])]), {"games": [Game([1, 2, 3])]}, InvariantViolation),
    ], ids=["Game", "OutcomeSpace", "Mix", "ConeBasis_empty", "ConeBasis_misaligned"])
    def test_the_value_types_validate_again(self, record, change, error):
        with pytest.raises(error):
            record.replace(**change)

    def test_the_value_types_normalize_a_changed_field(self):
        assert Game([1, 2]).replace(payoff_tuple=(3, 4)) == Game([3, 4])
        assert Game(payoff_tuple=np.array([3, 4])).payoff_tuple == (3.0, 4.0)
        space = OutcomeSpace([0.5, 0.5]).replace(prob_tuple=np.array([0.25, 0.75]))
        assert space.prob_tuple == (0.25, 0.75) and space.probs.tolist() == [0.25, 0.75]
        mix = Mix(weight_tuple=[0.5, 0.5]).replace(weight_tuple=[0, 1])
        assert mix.weight_tuple == (0.0, 1.0)
        basis = ConeBasis(space=COIN, games=[Game([19, 1])])
        assert basis.games == (Game([19, 1]),)
        assert basis.replace(games=[Game([10, 10])]).games == (Game([10, 10]),)
