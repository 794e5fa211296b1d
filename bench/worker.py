"""Benchmark worker: one process, one client, a closed loop over requests.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE ROLE

The worker imports gameprice, makes one small warm-up call and prints
"ready"; the parent times that as set-up. With ROLE "setup" it exits there.
With ROLE "run" it sends the workloads.run_blocks(WORKLOAD, SECONDS) blocks
of requests REPEATS times over, checks every answer after the loop and prints
one JSON line of raw results. cli_cold runs its loop in run.py instead and
starts workers for set-up only.

With TRACE 1 it sends the same requests twice, untraced and then with the
tracer installed, so the per-layer totals repeat exactly for a seed and come
with their own overhead figure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _basis(gp, req: dict):
    return gp.ConeBasis(gp.OutcomeSpace(req["probs"]), [gp.Game(g) for g in req["games"]])


def execute(gp, req: dict):
    """Solve one least-squares request through the public API."""
    return gp.least_squares_prices(_basis(gp, req), gp.Rate(req["rate"]))


def verify(gp, req: dict, sol) -> str | None:
    """None when the solution is right, else the reason it is not."""
    import checks

    x = checks.ls_point(sol.x)
    ratio = None if x is None else gp.ls_ratio(_basis(gp, req), gp.Rate(req["rate"]), x,
                                               sol.certificate)
    return checks.check_ls(sol, ratio)


ALL_CPUS = sorted(os.sched_getaffinity(0))


def pin_for_pass(j: int) -> None:
    """Run pass j over the requests on the next CPU this process may use.

    On a shared host one CPU can run at half speed for seconds while another
    is free; the fastest of a request's sends then comes from the free one.
    """
    os.sched_setaffinity(0, {ALL_CPUS[j % len(ALL_CPUS)]})


def closed_loop(gp, requests, repeats: int):
    """Send the requests `repeats` times over, in passes, one send at a time.

    Returns (outputs, best_s, elapsed_s): every send's output, each request's
    fastest send and the loop's wall time. An exception is kept as the output
    and counts as a failure when checked.
    """
    outputs, best = [], [math.inf] * len(requests)
    begin = perf_counter()
    for j in range(repeats):
        pin_for_pass(j)
        for i, req in enumerate(requests):
            t0 = perf_counter()
            try:
                out = execute(gp, req)
            except Exception as exc:  # noqa: BLE001 -- a failed request is a result
                out = exc
            best[i] = min(best[i], perf_counter() - t0)
            outputs.append((req, out))
    os.sched_setaffinity(0, ALL_CPUS)
    return outputs, best, perf_counter() - begin


def check_all(gp, outputs) -> list[str]:
    """One line per failed send: it raised or its answer is wrong."""
    failures = []
    for i, (req, out) in enumerate(outputs):
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            try:
                reason = verify(gp, req, out)
            except Exception as exc:  # noqa: BLE001 -- an unverifiable answer fails
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"send {i} ({req['kind']}): {reason}")
    return failures


def warm_up(gp, workload: str) -> None:
    """One small call of the kind the workload sends, before "ready"."""
    if workload == "cli_cold":
        import gameprice.cli

        with contextlib.redirect_stdout(io.StringIO()):
            gameprice.cli.main(["price", os.path.join("sample_games", "intro.json"),
                                "--game", "A"])
    else:
        execute(gp, workloads.LS_DEEP_CATALOGUE[1])


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, role = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    requests = workloads.generate(workload, seed, workloads.run_blocks(workload, seconds))
    repeats = workloads.REPEATS[workload]
    import gameprice as gp

    warm_up(gp, workload)
    print("ready", flush=True)
    if role == "setup":
        return 0

    outputs, best, elapsed = closed_loop(gp, requests, repeats)
    result = {"best_s": best, "elapsed_s": elapsed}
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, traced_best, traced_elapsed = closed_loop(gp, requests, repeats)
        finally:
            tracer.restore()
        outputs += traced
        result.update(trace=tracer.summary(), traced_best_s=traced_best,
                      traced_elapsed_s=traced_elapsed)
    result.update(
        attempted=len(outputs),
        failures=check_all(gp, outputs),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
