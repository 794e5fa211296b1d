"""Tests of the benchmark itself: inputs, answer checks and tracing.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import math
import os
import random
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import gameprice as gp  # noqa: E402
import gameprice.cli  # noqa: E402,F401
import gameprice.lsq  # noqa: E402
import gameprice.pricer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = workloads.digest(workloads.generate(workload, 7, 2))
    assert workloads.digest(workloads.generate(workload, 7, 2)) == first
    assert workloads.digest(workloads.generate(workload, 8, 2)) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_block_keeps_the_mix(workload):
    def kinds(seed):
        reqs = workloads.generate(workload, seed, 3)
        return sorted((r["kind"], len(r.get("payoffs", r.get("games", ()))),
                       r.get("argv", [""])[0]) for r in reqs)

    assert kinds(1) == kinds(2)
    one, three = workloads.generate(workload, 1, 1), workloads.generate(workload, 1, 3)
    assert len(three) == 3 * len(one) and three[:len(one)] == one


def test_jitter_stays_within_its_bound():
    rng = random.Random(5)
    for orig in workloads.LS_DEEP_CATALOGUE:
        req = workloads._jittered(rng, orig)
        assert math.isclose(sum(req["probs"]), 1.0, rel_tol=1e-12)
        pairs = [(req["rate"], orig["rate"])]
        pairs += [(a, b) for g, h in zip(req["games"], orig["games"]) for a, b in zip(g, h)]
        assert all(0.0 < abs(a / b - 1.0) <= workloads.JITTER for a, b in pairs)


def test_a_run_sends_at_least_one_block():
    for workload in workloads.WORKLOADS:
        assert workloads.run_blocks(workload, 1) == 1
        assert workloads.run_blocks(workload, 60) >= 3


def _price_args():
    game, space, rate = gp.Game([4.0, 9.0, 1.0]), gp.OutcomeSpace([0.2, 0.3, 0.5]), 0.05
    res = gp.price_general(game, space, gp.Rate(rate))
    return [4.0, 9.0, 1.0], [0.2, 0.3, 0.5], checks.log_growth(rate), res


def test_checker_accepts_a_solved_price_and_rejects_a_perturbed_one():
    pay, probs, log_g, res = _price_args()
    assert checks.check_price(pay, probs, log_g, res.price, res.proportion) is None
    assert checks.check_price(pay, probs, log_g, res.price * (1 + 1e-6),
                              res.proportion) is not None
    assert checks.check_price(pay, probs, log_g, res.price,
                              res.proportion * (1 - 1e-3)) is not None


def test_checker_rejects_an_out_of_tolerance_least_squares_result():
    basis = gp.ConeBasis(gp.fair_coin(), [gp.Game([19, 1]), gp.Game([4, 16])])
    sol = gp.least_squares_prices(basis, gp.Rate(0.05))
    ratio = gp.ls_ratio(basis, gp.Rate(0.05), checks.ls_point(sol.x), sol.certificate)
    assert checks.check_ls(sol, ratio) is None
    stalled = SimpleNamespace(max_violation=1e-6, x=sol.x)
    assert "max_violation" in checks.check_ls(stalled, ratio)
    assert "certificate" in checks.check_ls(sol, ratio + 1e-6)
    assert checks.ls_point([0.5, 1.0 + 1e-6]) is None


def test_cli_check_needs_exit_zero_and_every_paper_example():
    req = {"kind": "cli", "spec": None, "argv": ["paper-examples"]}
    assert checks.check_cli(req, 0, "...\n14/14 checks passed\n", "") is None
    assert checks.check_cli(req, 0, "...\n13/14 checks passed\n", "") is not None
    assert checks.check_cli(req, 1, "", "boom") is not None


def _targets():
    """Every (owner, attribute) the tracer wraps, with its original value."""
    found = []
    for _, module, path in spans.SPANS:
        found.append(spans._resolve(module, path))
    for _, module, path, _ in spans.COUNTS:
        found.append(spans._resolve(module, path))
    return found


def test_wrappers_leave_the_original_attributes_in_place():
    before = {(id(owner), attr): value for owner, attr, value in _targets()}
    numeric = gameprice.pricer._price_numeric
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert gameprice.pricer._price_numeric is not numeric
        assert gameprice.lsq._price_numeric is gameprice.pricer._price_numeric
        assert gp.price_general is gameprice.pricer.price_general
        assert tracer.absent == []
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    after = {(id(owner), attr): value for owner, attr, value in _targets()}
    assert after == before
    assert gameprice.pricer._price_numeric is numeric
    assert gameprice.lsq._price_numeric is numeric


def test_a_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(gameprice.lsq, "_min_norm_dykstra")
    tracer = spans.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.absent == ["lsq.dykstra"]
    assert not hasattr(gameprice.lsq, "_min_norm_dykstra")


def _traced_counts(requests):
    tracer = spans.Tracer()
    tracer.install()
    try:
        outputs, _, _ = worker.closed_loop(gp, requests, 1)
    finally:
        tracer.restore()
    assert worker.check_all(gp, outputs) == []
    summary = tracer.summary()
    return {
        "lsq.iterations": summary["counts"]["lsq.iterations"],
        "lsq.oracle.calls": summary["layers"]["lsq.oracle"]["calls"],
        "pricer.numeric.calls": summary["layers"]["pricer.numeric"]["calls"],
        "pricer.opt_t.calls": summary["counts"]["pricer.opt_t"],
    }


def test_layer_counts_repeat_exactly_for_one_seed():
    first = _traced_counts(workloads.generate("ls_deep", 3, 1))
    assert all(v > 0 for v in first.values()), first
    assert _traced_counts(workloads.generate("ls_deep", 3, 1)) == first


def test_closed_loop_keeps_every_send_and_the_fastest_per_request():
    requests = workloads.generate("ls_deep", 4, 1)[:2]
    outputs, best, elapsed = worker.closed_loop(gp, requests, 2)
    assert [req for req, _ in outputs] == 2 * requests
    assert len(best) == 2 and 0.0 < sum(best) <= elapsed
    assert os.sched_getaffinity(0) == set(worker.ALL_CPUS)


def test_a_raising_request_is_a_failure():
    bad = {"kind": "ls", "probs": [0.5, 0.5], "games": [[-1.0, 2.0]], "rate": 0.05}
    outputs, _, _ = worker.closed_loop(gp, [bad], 1)
    assert len(worker.check_all(gp, outputs)) == 1


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.install()
    try:
        gp.price_series(gp.st_petersburg(), gp.Rate(0.05))
    finally:
        tracer.restore()
    layers = tracer.summary()["layers"]
    series, general = layers["pricer.price_series"], layers["pricer.price_general"]
    assert series["calls"] == general["calls"] == 1
    assert math.isclose(series["self_ms"], series["ms"] - general["ms"],
                        rel_tol=1e-9, abs_tol=1e-9)


def test_parse_importtime_counts_each_package_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy.linalg",
        "import time:       400 |        450 |   scipy.optimize",
        "import time:        10 |        760 | gameprice",
    ])
    assert run.parse_importtime(text) == {"gameprice": 0.76, "scipy": 0.45,
                                          "numpy": 0.3}
