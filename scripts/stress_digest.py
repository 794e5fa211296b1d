#!/usr/bin/env python3
"""Digest of the least-squares solver's answers on a fixed set of problems.

Prints one JSON line per result, floats at full precision (repr), so that
`diff` of the output of two versions of the solver shows every answer that
moved by as much as one bit:

- least_squares_prices on the stress draws of seeds 7 and 2024 and the wide
  draws of seed 31337 (tests/test_lsq.py::_stress_basis): termination, x,
  certificate, iterations and max_violation, or the error;
- one separation-oracle call per draw, at a t drawn from the draw's own seed;
- the 39-case 3-outcome put-call parity sweep: stock (14, 10, 6), strikes
  7, 7.5, ..., 13, three outcome distributions, rate 5% continuous;
- compare-mv on sample_games/remark35.json.

Needs the test extra (numpy, pytest). Example:

    python scripts/stress_digest.py > digest.jsonl
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from gameprice import (
    Game,
    OutcomeSpace,
    PricingError,
    Rate,
    compare_mean_variance,
    least_squares_prices,
    load_game_file,
    put_call_parity,
)
from gameprice.lsq import _LsqProblem
from test_lsq import _stress_basis

# (seed, wide, draws)
STRESS = ((7, False, 400), (2024, False, 300), (31337, True, 400))
PARITY_PROBS = ((0.5, 0.3, 0.2), (0.2, 0.5, 0.3), (0.3, 0.3, 0.4))


def emit(doc: dict) -> None:
    print(json.dumps(doc))


def solution_doc(sol) -> dict:
    return {
        "termination": sol.termination,
        "x": list(sol.x_tuple),
        "certificate": list(sol.certificate.weight_tuple),
        "iterations": sol.iterations,
        "max_violation": sol.max_violation,
    }


def stress(seed: int, wide: bool, draws: int) -> None:
    rng = np.random.default_rng(seed)
    for index in range(draws):
        key = {"seed": seed, "wide": wide, "index": index}
        basis, rate = _stress_basis(rng, wide)
        try:
            emit({**key, "solve": solution_doc(least_squares_prices(basis, rate))})
        except PricingError as exc:
            emit({**key, "solve_error": str(exc)})
        t = np.random.default_rng([seed, index]).uniform(0.0, 1.0, basis.n).tolist()
        try:
            prob = _LsqProblem(basis, rate)
            val, p = prob.oracle(prob.adjusted_prices(t))
            emit({**key, "t": t, "oracle": val, "mix": p})
        except PricingError as exc:
            emit({**key, "t": t, "oracle_error": str(exc)})


def parity() -> None:
    stock = Game([14.0, 10.0, 6.0])
    rate = Rate(0.05)
    for probs in PARITY_PROBS:
        space = OutcomeSpace(list(probs))
        for strike in np.linspace(7.0, 13.0, 13).tolist():
            key = {"probs": list(probs), "strike": strike}
            try:
                rep = put_call_parity(stock, space, strike, rate)
            except PricingError as exc:
                emit({**key, "parity_error": str(exc)})
                continue
            doc = rep.to_json_dict()
            if rep.solution is not None:
                doc["solution"] = solution_doc(rep.solution)
            emit({**key, "parity": doc})


def compare_mv() -> None:
    gf = load_game_file(ROOT / "sample_games" / "remark35.json")
    comp = compare_mean_variance(gf.games["X"], gf.games["Y"], gf.rate)
    emit({"compare_mv": comp.to_json_dict()})


def main() -> int:
    for seed, wide, draws in STRESS:
        stress(seed, wide, draws)
    parity()
    compare_mv()
    return 0


if __name__ == "__main__":
    sys.exit(main())
