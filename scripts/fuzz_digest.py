#!/usr/bin/env python3
"""Digest of the library's answers over the whole float range.

Prints one JSON line per draw, floats at full precision (repr), and one line
of counts by outcome per part at the end, so that `diff` of the output of two
versions shows every answer that moved by as much as one bit and every error
that appeared or went:

- single-game prices (price_general): 2-6 outcomes, payoffs 10^U(-308, 308),
  each zero with probability 1/5, rates 10^U(-12, log10 709) in both
  conventions; price and proportion, or the error; every tenth draw also its
  relative error against the 50-digit tests/decimal_reference.py;
- least_squares_prices on the 600 wide-scale bases of tests/test_lsq.py
  (_wide_scale_bases, random.Random(5)): 2-4 games on 2-6 outcomes, each game
  at a scale 10^U(-300, 300), a fifth of the payoffs zero; termination, x,
  prices, certificate, iterations and max_violation, or the error;
- 300 bases drawn the same way with at least as many games as outcomes
  (3-6 games on 2-n outcomes): the same, plus the games the reduction keeps
  with every game's coordinates in them (per unit of its largest payoff) and
  the support check_constant_mix finds.

Every error is recorded by its class and message, internal ones included.
Standard library only, besides tests/decimal_reference.py, and seeded: two
runs print the same lines. Example:

    python scripts/fuzz_digest.py > fuzz.jsonl
"""

import collections
import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from decimal_reference import decimal_price  # noqa: E402

from gameprice import (  # noqa: E402
    ConeBasis,
    Game,
    OutcomeSpace,
    Rate,
    check_constant_mix,
    least_squares_prices,
    price_general,
)
from gameprice.lsq import _reduce_to_basis, _unit_qr  # noqa: E402

PRICE_DRAWS = 3000
LOG_RATE_MAX = math.log10(709.0)


def emit(doc: dict) -> None:
    print(json.dumps(doc))


def error_doc(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def prices(counts: collections.Counter) -> None:
    rng = random.Random(14)
    for index in range(PRICE_DRAWS):
        m = rng.randint(2, 6)
        pay = [0.0]
        while not any(pay):
            pay = [0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-308.0, 308.0)
                   for _ in range(m)]
        w = [rng.uniform(0.5, 1.5) for _ in range(m)]
        pr = [wi / sum(w) for wi in w]
        rate = Rate(10.0 ** rng.uniform(-12.0, LOG_RATE_MAX),
                    rng.choice(("continuous", "simple")))
        doc = {"index": index, "payoffs": pay, "probs": pr,
               "rate": [rate.value, rate.convention]}
        try:
            res = price_general(Game(pay), OutcomeSpace(pr), rate)
        except Exception as exc:
            emit({**doc, **error_doc(exc)})
            counts[type(exc).__name__] += 1
            continue
        doc.update(price=res.price, proportion=res.proportion)
        if index % 10 == 0:
            try:
                ref = decimal_price(pay, pr, rate)
                doc["reference_error"] = float(abs(ref - type(ref)(res.price)) / ref)
            except Exception as exc:
                doc["reference"] = error_doc(exc)
        emit(doc)
        counts["price"] += 1


def wide_bases(seed: int, count: int, sizes):
    """(games, probs, rate): n games on m outcomes, (n, m) = sizes(rng),
    probabilities uniform on [0.5, 1.5] then normalized, payoffs uniform on
    [0.5, 20] times a per-game 10^U(-300, 300), each zero with probability
    1/5 (a game drawn all zero is drawn again), continuous rates of 1-8%.
    With sizes (randint(2, 4), randint(2, 6)) and seed 5 these are
    tests/test_lsq.py's _wide_scale_bases."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m = sizes(rng)
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


def solves(part: str, bases, counts: collections.Counter, cone: bool) -> None:
    for index, (games, probs, rate) in enumerate(bases):
        doc = {"part": part, "index": index}
        basis = ConeBasis(OutcomeSpace(probs), [Game(g) for g in games])
        try:
            if cone:
                keep, coords = _reduce_to_basis(
                    basis.games, _unit_qr([g.payoff_tuple for g in basis.games]))
                found = check_constant_mix(basis)
                doc.update(kept=keep, coordinates=coords,
                           constant_mix=None if found is None else list(found[1]))
            sol = least_squares_prices(basis, rate)
        except Exception as exc:
            emit({**doc, **error_doc(exc)})
            counts[type(exc).__name__] += 1
            continue
        emit({**doc, "termination": sol.termination, "x": list(sol.x_tuple),
              "prices": list(sol.price_tuple),
              "certificate": list(sol.certificate.weight_tuple),
              "iterations": sol.iterations, "max_violation": sol.max_violation})
        counts[sol.termination] += 1


def main() -> int:
    parts = {name: collections.Counter() for name in ("prices", "wide", "wide_n_ge_m")}
    prices(parts["prices"])
    solves("wide", wide_bases(5, 600, lambda rng: (rng.randint(2, 4), rng.randint(2, 6))),
           parts["wide"], False)

    def n_ge_m(rng):
        n = rng.randint(3, 6)
        return n, rng.randint(2, n)

    solves("wide_n_ge_m", wide_bases(39, 300, n_ge_m), parts["wide_n_ge_m"], True)
    for name, counts in parts.items():
        emit({"counts": name, **dict(sorted(counts.items()))})
    return 0


if __name__ == "__main__":
    sys.exit(main())
