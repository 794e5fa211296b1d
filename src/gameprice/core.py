"""Domain types shared by every solver: outcome spaces, games, mixes, rates.

All types are immutable records (_Record, below), equal and hashed by value,
built and validated by one path, so every record's .replace gives a changed,
revalidated copy and its keywords are its field names. So they can be shared
freely across threads. Games, outcome spaces and mixes hold their values as
float tuples and validate them with math alone, so the solvers never import
numpy; their .payoffs, .probs and .weights are read-only float64 arrays
(_array) built on first access. Probability vectors are validated to 1e-12
and then renormalized exactly, so downstream sums are exact simplex elements.
"""

from __future__ import annotations

import json
import math
import sys
from operator import mul

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Literal, Sequence

    import numpy as np

    Convention = Literal["continuous", "simple"]

PROB_TOL = 1e-12
DEFAULT_L_TOL = 1e-9  # least-squares prices: L(t) <= 1 + tol_L by default


class PricingError(Exception):
    """Base error for this package."""


class InvariantViolation(PricingError, ValueError):
    """A domain-type invariant does not hold for the given inputs."""


class DimensionMismatch(InvariantViolation):
    """Game and outcome space have different lengths."""


class LogDomainViolation(PricingError, ValueError):
    """A proportion t at or beyond t_max makes a log argument nonpositive."""


class BasisError(PricingError, ValueError):
    """An empty game set, or a game outside the cone of a basis."""


class TruncationError(PricingError, RuntimeError):
    """Declared tail bound is insufficient to reach the requested tolerance."""


class GameFileError(PricingError, ValueError):
    """A game-spec file failed to parse or violates the documented schema."""


class _Record:
    """Base of the immutable value types.

    A record's fields are its class's annotations, in declaration order, and
    a class attribute of the same name is a field's default. The constructor,
    the only one, takes the fields by position or by name, then runs
    __post_init__, which validates them and may store a field's normalized
    value through self.__dict__. Equality goes by the class and the field
    values, hashing by the field values, as for a frozen dataclass; a field
    that cannot be hashed makes the record unhashable. Attributes cannot be
    assigned or deleted; _array caches its array in the instance __dict__.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} arguments, {len(args)} given")
        state = self.__dict__
        state.update(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif hasattr(cls, name):
                state[name] = getattr(cls, name)
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(
                f"{cls.__name__}() got multiple values for argument {name!r}"
                if name in fields else
                f"{cls.__name__}() got an unexpected argument {name!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; a record with invariants overrides this."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def replace(self, **changes):
        """A copy with the given fields changed, built (and validated) again
        by the constructor."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


def _float_tuple(values, name: str) -> tuple[float, ...]:
    """values as a nonempty tuple of finite floats.

    Accepts any 1-d sequence of numbers, an ndarray included; a string, a
    scalar or a nested sequence is not a 1-d vector.
    """
    if isinstance(values, (str, bytes)):
        raise InvariantViolation(f"{name} must be a nonempty 1-d vector")
    tolist = getattr(values, "tolist", None)
    if tolist is not None:  # an ndarray: its entries as Python numbers
        values = tolist()
    try:
        out = tuple(map(float, values))
    except TypeError:
        raise InvariantViolation(f"{name} must be a nonempty 1-d vector") from None
    except OverflowError:  # an int beyond float range
        raise InvariantViolation(f"{name} must be finite") from None
    if not out:
        raise InvariantViolation(f"{name} must be a nonempty 1-d vector")
    if not all(map(math.isfinite, out)):
        raise InvariantViolation(f"{name} must be finite")
    return out


def _frozen_array(values: Sequence) -> np.ndarray:
    """values (a vector, or a matrix as a sequence of rows) as a read-only
    float64 array."""
    import numpy as np

    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


class _array:
    """A read-only float64 array of the float-tuple field named, as a class
    attribute: built on first access, then cached in the instance __dict__."""

    def __init__(self, field: str):
        self.field = field

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        arr = obj.__dict__[self.name] = _frozen_array(getattr(obj, self.field))
        return arr


def _on_simplex(values: tuple[float, ...], name: str) -> tuple[float, ...]:
    """values, which must sum to 1 within PROB_TOL, renormalized. The sum runs
    left to right, not by sum() (compensated from Python 3.12), as numpy's
    does below 8 entries: there the result is a / a.sum() bit for bit."""
    total = 0.0
    for v in values:
        total += v
    if abs(total - 1.0) > PROB_TOL:
        raise InvariantViolation(
            f"{name} must sum to 1 within {PROB_TOL}, got {total!r}")
    return tuple(v / total for v in values)


class OutcomeSpace(_Record):
    """Finite probability vector over the joint outcomes shared by all games.

    prob_tuple holds the renormalized probabilities; probs is the same vector
    as a read-only float64 array.
    """

    prob_tuple: tuple[float, ...]
    probs = _array("prob_tuple")

    def __post_init__(self):
        values = _float_tuple(self.prob_tuple, "probs")
        if min(values) <= 0.0:
            raise InvariantViolation("every outcome probability must be > 0")
        self.__dict__["prob_tuple"] = _on_simplex(values, "probabilities")

    @property
    def size(self) -> int:
        return len(self.prob_tuple)


def fair_coin() -> OutcomeSpace:
    """The two-outcome space with probability 1/2 each."""
    return OutcomeSpace([0.5, 0.5])


class Game(_Record):
    """Nonnegative payoff vector aligned to an OutcomeSpace.

    Payoffs must be >= 0 with at least one strictly positive entry, which is
    equivalent to a positive expectation under any valid outcome space.
    payoff_tuple holds them; payoffs is the same vector as a read-only
    float64 array.
    """

    payoff_tuple: tuple[float, ...]
    payoffs = _array("payoff_tuple")

    def __post_init__(self):
        values = _float_tuple(self.payoff_tuple, "payoffs")
        if min(values) < 0.0:
            raise InvariantViolation("payoffs must be nonnegative")
        if max(values) <= 0.0:
            raise InvariantViolation("a game must pay something: expectation is 0")
        self.__dict__["payoff_tuple"] = values

    @property
    def size(self) -> int:
        return len(self.payoff_tuple)

    def scaled(self, k: float) -> "Game":
        if k <= 0:
            raise InvariantViolation("scale factor must be > 0")
        return Game([a * k for a in self.payoff_tuple])


# largest continuous rate whose growth factor e^r is a finite float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class Rate(_Record):
    """Per-period interest rate with its compounding convention.

    growth_factor() is e^r for the continuous convention and 1+r for the
    simple convention; r > 0 keeps it above 1.
    """

    value: float
    convention: Convention = "continuous"

    def __post_init__(self):
        try:
            finite = math.isfinite(self.value)
        except OverflowError:  # an int beyond float range
            finite = False
        if not finite:
            raise InvariantViolation("interest rate must be finite")
        if not self.value > 0.0:
            raise InvariantViolation("interest rate must be > 0")
        if self.convention not in ("continuous", "simple"):
            raise InvariantViolation(f"unknown convention {self.convention!r}")
        if self.convention == "continuous" and self.value > _LOG_FLOAT_MAX:
            raise InvariantViolation(
                f"continuous rate {self.value!r} overflows the growth factor e^r "
                f"(at most {_LOG_FLOAT_MAX:.6g})"
            )

    def growth_factor(self) -> float:
        if self.convention == "continuous":
            return math.exp(self.value)
        return 1.0 + self.value

    def log_growth_factor(self) -> float:
        if self.convention == "continuous":
            return self.value
        return math.log1p(self.value)


class Mix(_Record):
    """A point of the probability simplex: one weight per basis game.

    weight_tuple holds the renormalized weights; weights is the same vector
    as a read-only float64 array.
    """

    weight_tuple: tuple[float, ...]
    weights = _array("weight_tuple")

    def __post_init__(self):
        values = _float_tuple(self.weight_tuple, "weights")
        if min(values) < 0.0:
            raise InvariantViolation("mix weights must be nonnegative")
        self.__dict__["weight_tuple"] = _on_simplex(values, "mix weights")


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(map(mul, a, b))


def _payoff_rows(games: Sequence[Game]) -> list[tuple[float, ...]]:
    """The payoff matrix of the games as float tuples, one per outcome."""
    return list(zip(*(g.payoff_tuple for g in games)))


def _check_aligned(game: Game, space: OutcomeSpace) -> None:
    if game.size != space.size:
        raise DimensionMismatch(
            f"game of length {game.size} on a space of {space.size} outcomes"
        )


class ConeBasis(_Record):
    """Ordered games over one shared outcome space: a nonempty set, each game
    of the space's length.

    The games may span their cone redundantly, a proportional pair included:
    which of them are extreme rays is reduce_to_basis's verdict alone, and
    least_squares_prices solves on those.
    """

    space: OutcomeSpace
    games: tuple[Game, ...]

    def __post_init__(self):
        games = self.__dict__["games"] = tuple(self.games)
        if not games:
            raise BasisError("a basis needs at least one game")
        for g in games:
            _check_aligned(g, self.space)

    @property
    def n(self) -> int:
        return len(self.games)

    def payoff_matrix(self) -> np.ndarray:
        """m x n matrix, one column per basis game."""
        import numpy as np

        return np.column_stack([g.payoffs for g in self.games])


class SeriesGame(_Record):
    """Countable-support game given by a term rule j -> (payoff_j, prob_j).

    tail_exponent is the nu > 0 for which sum prob_j * max(payoff_j,1)^nu is
    finite; moment_bound is a user-declared upper bound on that sum. The
    declaration is what makes adaptive truncation of unbounded games sound,
    and it is re-checked against partial sums during truncation.
    """

    term: Callable[[int], tuple[float, float]]
    tail_exponent: float
    moment_bound: float

    def __post_init__(self):
        if not (self.tail_exponent > 0.0):
            raise InvariantViolation("tail exponent must be > 0")
        if not (self.moment_bound > 0.0 and math.isfinite(self.moment_bound)):
            raise InvariantViolation("moment bound must be positive and finite")


def st_petersburg() -> SeriesGame:
    """Payoff 2^j with probability 2^-j, j = 1, 2, ..."""
    return SeriesGame(
        term=lambda j: (2.0**j, 2.0**-j),
        tail_exponent=0.5,
        # sum 2^-j * 2^(j/2) = 1/(sqrt(2)-1)
        moment_bound=1.0 / (math.sqrt(2.0) - 1.0) + 1e-9,
    )


def constant_series(c: float) -> SeriesGame:
    """Degenerate series paying c with probability 1."""
    if c <= 0:
        raise InvariantViolation("constant payoff must be > 0")
    return SeriesGame(
        term=lambda j: (c, 1.0 if j == 1 else 0.0),
        tail_exponent=1.0,
        moment_bound=max(c, 1.0) + 1.0,
    )


def expectation(game: Game, space: OutcomeSpace) -> float:
    """Probability-weighted mean payoff."""
    _check_aligned(game, space)
    return _dot(space.prob_tuple, game.payoff_tuple)


def geometric_mean(game: Game, space: OutcomeSpace) -> float:
    """exp of the probability-weighted mean log payoff; needs payoffs > 0."""
    _check_aligned(game, space)
    if min(game.payoff_tuple) <= 0.0:
        raise InvariantViolation(
            "geometric mean is zero (a payoff is 0): price regime forced interior"
        )
    return math.exp(_dot(space.prob_tuple, map(math.log, game.payoff_tuple)))


def harmonic_mean(game: Game, space: OutcomeSpace) -> float:
    """1 / E[1/payoff]; defined as 0 when any payoff is 0."""
    _check_aligned(game, space)
    if min(game.payoff_tuple) <= 0.0:
        return 0.0
    return 1.0 / sum(p / a for p, a in zip(space.prob_tuple, game.payoff_tuple))


def variance(game: Game, space: OutcomeSpace) -> float:
    """Probability-weighted payoff variance."""
    mean = expectation(game, space)
    return sum(p * ((a - mean) * (a - mean))
               for p, a in zip(space.prob_tuple, game.payoff_tuple))


def _mix_weights(p: Mix | Sequence[float], n: int) -> tuple[float, ...]:
    """p as the weights of a mix over n games."""
    weights = (p if isinstance(p, Mix) else Mix(p)).weight_tuple
    if len(weights) != n:
        raise DimensionMismatch(f"mix of length {len(weights)} over a basis of {n} games")
    return weights


def mix_game(basis: ConeBasis, p: Mix | Sequence[float]) -> Game:
    """Componentwise convex combination of the basis games."""
    weights = _mix_weights(p, basis.n)
    return Game([_dot(row, weights) for row in _payoff_rows(basis.games)])


def _cone_coefficients(k: Sequence[float], n: int) -> tuple[float, ...]:
    """k as the coefficients of a point of the cone of n games."""
    coeffs = _float_tuple(k, "cone coefficients")
    if len(coeffs) != n:
        raise DimensionMismatch(f"coefficients of length {len(coeffs)} over {n} games")
    if min(coeffs) < 0.0:
        raise InvariantViolation("cone coefficients must be nonnegative")
    if max(coeffs) <= 0.0:
        raise InvariantViolation("cone coefficients must not all be zero")
    return coeffs


def combine(basis: ConeBasis, k: Sequence[float]) -> Game:
    """Nonnegative linear combination (a point of the cone, not of the simplex)."""
    coeffs = _cone_coefficients(k, basis.n)
    return Game([_dot(row, coeffs) for row in _payoff_rows(basis.games)])


# ---------------------------------------------------------------------------
# Game-spec JSON files
#
# {
#   "probabilities": [0.5, 0.5],
#   "games": { "A": [19, 1], "B": [10, 10] },
#   "rate": { "value": 0.05, "convention": "continuous" }
# }
# ---------------------------------------------------------------------------


class GameFile(_Record):
    space: OutcomeSpace
    games: dict[str, Game]
    rate: Rate | None


def _numbers(value, what: str) -> list[float]:
    """value, when it is a list of JSON numbers; GameFileError naming what if not."""
    if not (isinstance(value, list) and all(isinstance(v, float) for v in value)):
        raise GameFileError(f"{what} must be a list of numbers")
    return value


def parse_game_file(text: str) -> GameFile:
    """Parse the documented game-spec JSON schema from a string.

    A value of the wrong JSON type is a GameFileError; numbers that break a
    domain invariant (negative, non-finite, not summing to 1) raise the
    domain type's InvariantViolation.
    """
    try:
        # every JSON number as a float: an integer too large for one reads inf
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise GameFileError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise GameFileError("top level must be a JSON object")
    try:
        probs = doc["probabilities"]
        games_doc = doc["games"]
    except KeyError as exc:
        raise GameFileError(f"missing required key {exc.args[0]!r}") from exc
    if not isinstance(games_doc, dict) or not games_doc:
        raise GameFileError('"games" must be a nonempty object of name -> payoffs')
    space = OutcomeSpace(_numbers(probs, '"probabilities"'))
    games: dict[str, Game] = {}
    for name, payoffs in games_doc.items():
        game = Game(_numbers(payoffs, f'game "{name}"'))
        if game.size != space.size:
            raise GameFileError(
                f'game "{name}" has {game.size} payoffs for {space.size} outcomes'
            )
        games[name] = game
    rate = None
    if "rate" in doc and doc["rate"] is not None:
        rdoc = doc["rate"]
        if not isinstance(rdoc, dict) or "value" not in rdoc:
            raise GameFileError('"rate" must be an object with a "value"')
        if not isinstance(rdoc["value"], float):
            raise GameFileError('"rate" "value" must be a number')
        convention = rdoc.get("convention", "continuous")
        if not isinstance(convention, str):
            raise GameFileError('"rate" "convention" must be a string')
        rate = Rate(rdoc["value"], convention)
    return GameFile(space=space, games=games, rate=rate)


def load_game_file(path: str) -> GameFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from exc
    return parse_game_file(text)
