"""gameprice benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload ls_deep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the library is imported from ./src.
Prints a run record and readable metric lines, then as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer totals
of a traced run. Exits 1 when any answer check failed, 2 when the checkout
has no gameprice sources and 3 when a worker failed or the run overran.
README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3  # fresh worker starts per run; setup_s is their median
IMPORT_REPS = 3  # `python -X importtime` runs per traced run
TIME_LIMIT_S = 170.0  # the whole run, set-up included
MODULES = ("import", "cli", "core", "pricer", "lsq", "portfolio", "simulate")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# -- run record ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def run_record(root: str, args, requests, blocks: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": workloads.digest(requests),
        "blocks": blocks,
        "requests": len(requests),
        "repeats": workloads.REPEATS[args.workload],
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


# -- worker processes ---------------------------------------------------------


class Runner:
    def __init__(self, root: str, args, deadline: float):
        self.root = root
        self.args = args
        self.deadline = deadline
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.tmp = os.path.join(root, ".bench_tmp", str(os.getpid()))

    def remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise TimeoutError("run exceeded its time limit")
        return left

    def worker(self, role: str) -> tuple[float, str]:
        """Start a worker; (seconds until it was ready, its remaining stdout)."""
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), a.workload,
               str(a.seed), str(a.seconds), str(a.trace), role]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE)
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - t0
            rest, _ = proc.communicate(timeout=self.remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"worker {role} exited {proc.returncode}")
        return setup, rest

    def child(self, argv: list[str], trace_out: str | None):
        """Run one CLI process; (exit code, stdout, stderr, wall s, max RSS MB)."""
        if trace_out is None:
            cmd = [sys.executable, "-m", "gameprice", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_launcher.py"), trace_out, *argv]
        err_path = os.path.join(self.tmp, "stderr.txt")
        with open(err_path, "w+", encoding="utf-8") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, text=True,
                                    stdout=subprocess.PIPE, stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            err_text = err.read()
        return proc.returncode, out, err_text, wall, usage.ru_maxrss / 1024.0

    def import_times(self) -> dict:
        rows = []
        for _ in range(IMPORT_REPS):
            out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                                  "import gameprice"], cwd=self.root, env=self.env,
                                 capture_output=True, text=True,
                                 timeout=self.remaining())
            if out.returncode != 0:
                raise RuntimeError("import gameprice failed")
            rows.append(parse_importtime(out.stderr))
        return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def parse_importtime(text: str) -> dict:
    """Cumulative ms of gameprice, scipy and numpy from -X importtime output.

    Lines come children first; a line's nesting is its name's indentation.
    A package counts once, at its outermost import.
    """
    stack: list[tuple[int, str, float, list]] = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        level, name, cum = len(m.group(3)), m.group(4), int(m.group(2)) / 1e3
        children = []
        while stack and stack[-1][0] > level:
            children.append(stack.pop())
        stack.append((level, name, cum, children))
    totals = {"gameprice": 0.0, "scipy": 0.0, "numpy": 0.0}

    def visit(nodes, inside):
        for _, name, cum, children in nodes:
            top = name.split(".")[0]
            if top in totals and top not in inside:
                totals[top] += cum
                visit(children, inside | {top})
            else:
                visit(children, inside)

    visit(stack, frozenset())
    return totals


# -- cli_cold -----------------------------------------------------------------


def _materialise(runner: Runner, req: dict, i: int) -> list[str]:
    if req["spec"] is None:
        return list(req["argv"])
    path = os.path.join(runner.tmp, f"spec{i}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(req["spec"], fh)
    return [path if arg == "{spec}" else arg for arg in req["argv"]]


def cli_loop(runner: Runner, requests, traced: bool = False) -> dict:
    """worker.closed_loop for CLI processes; answers are checked after it.

    A child process inherits the CPU this process is pinned to for its pass.
    """
    argvs = [_materialise(runner, req, i) for i, req in enumerate(requests)]
    best, answers, rss, traces = [math.inf] * len(requests), [], [], []
    begin = perf_counter()
    for j in range(workloads.REPEATS["cli_cold"]):
        worker.pin_for_pass(j)
        for i, (req, argv) in enumerate(zip(requests, argvs)):
            runner.remaining()
            trace_out = (os.path.join(runner.tmp, f"trace{len(traces)}.json")
                         if traced else None)
            code, out, err, wall, peak = runner.child(argv, trace_out)
            best[i] = min(best[i], wall)
            rss.append(peak)
            answers.append((req, code, out, err))
            if traced:
                traces.append(trace_out)
    os.sched_setaffinity(0, worker.ALL_CPUS)
    elapsed = perf_counter() - begin
    failures = []
    for i, answer in enumerate(answers):
        reason = checks.check_cli(*answer)
        if reason is not None:
            failures.append(f"send {i} ({answer[0]['argv'][0]}): {reason}")
    summaries = []
    for path in traces:
        with open(path, encoding="utf-8") as fh:
            summaries.append(json.load(fh))
    return {"best_s": best, "failures": failures, "attempted": len(answers),
            "elapsed_s": elapsed, "peak_rss_mb": max(rss), "summaries": summaries}


def run_cli_cold(runner: Runner, requests) -> dict:
    plain = cli_loop(runner, requests)
    if not runner.args.trace:
        return plain
    traced = cli_loop(runner, requests, traced=True)
    summary = spans.merge(traced["summaries"])
    main_ms = summary["layers"]["cli.main"]["ms"]
    summary["cli.outside_main.ms"] = 1e3 * traced["elapsed_s"] - main_ms
    plain.update(
        trace=summary,
        traced_best_s=traced["best_s"],
        traced_elapsed_s=traced["elapsed_s"],
        processes=len(traced["summaries"]),
        attempted=plain["attempted"] + traced["attempted"],
        failures=plain["failures"] + traced["failures"],
        peak_rss_mb=max(plain["peak_rss_mb"], traced["peak_rss_mb"]),
    )
    return plain


# -- metrics ------------------------------------------------------------------


def _m(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setups: list[float]) -> dict:
    best = result["best_s"]
    return {
        "throughput_rps": _m(len(best) / sum(best), "1/s"),
        "latency_p50_ms": _m(1e3 * statistics.median(best), "ms"),
        "setup_s": _m(statistics.median(setups), "s"),
        "peak_rss_mb": _m(result["peak_rss_mb"], "MB"),
    }


def tail_latencies(lat: list[float]) -> dict:
    """p90 / p99 where at least ten samples lie beyond the percentile."""
    out = {}
    if len(lat) >= 2:
        cuts = statistics.quantiles(lat, n=100, method="inclusive")
        for q in (90, 99):
            if len(lat) * (100 - q) / 100 >= 10:
                out[f"latency_p{q}_ms"] = _m(1e3 * cuts[q - 1], "ms")
    return out


def per_layer(result: dict, imports: dict) -> dict:
    summary = result["trace"]
    layers, counts = summary["layers"], summary["counts"]
    metrics = {
        "import.gameprice_ms": _m(imports["gameprice"], "ms"),
        "import.scipy_ms": _m(imports["scipy"], "ms"),
        "import.numpy_ms": _m(imports["numpy"], "ms"),
        "cli.main.ms": _m(layers["cli.main"]["ms"], "ms"),
        "cli.outside_main.ms": _m(summary.get("cli.outside_main.ms", 0.0), "ms"),
    }
    for layer in ("core.load_game_file", "pricer.price_general", "pricer.closed_form",
                  "pricer.numeric", "pricer.price_series", "lsq.oracle", "lsq.min_norm",
                  "lsq.solve", "lsq.polish", "lsq.constant_mix", "portfolio.parity",
                  "portfolio.compare_mv", "simulate.growth"):
        metrics[f"{layer}.calls"] = _m(layers[layer]["calls"], "count")
        metrics[f"{layer}.ms"] = _m(layers[layer]["ms"], "ms")
    polish_calls = layers["lsq.polish"]["calls"]
    metrics.update({
        "pricer.opt_t.calls": _m(counts.get("pricer.opt_t", 0), "count"),
        "lsq.oracle.self_ms": _m(layers["lsq.oracle"]["self_ms"], "ms"),
        "lsq.oracle.price_calls": _m(counts.get("lsq.oracle.price_calls", 0), "count"),
        "lsq.min_norm.dykstra_calls": _m(counts.get("lsq.dykstra", 0), "count"),
        "lsq.iterations": _m(counts.get("lsq.iterations", 0), "count"),
        "lsq.problem_init.ms": _m(layers["lsq.problem_init"]["ms"], "ms"),
        "lsq.polish.accepted_frac": _m(
            counts.get("lsq.polish.accepted", 0) / polish_calls if polish_calls else 0.0,
            "ratio"),
        "lsq.out_of_tol": _m(counts.get("lsq.out_of_tol", 0), "count"),
        "simulate.paths": _m(counts.get("simulate.paths", 0), "count"),
        "simulate.sweep.ms": _m(layers["simulate.sweep"]["ms"], "ms"),
        "trace.overhead_frac": _m(
            sum(result["traced_best_s"]) / sum(result["best_s"]) - 1.0, "ratio"),
    })
    return metrics


def shares(result: dict, imports: dict, cli: bool) -> dict:
    """Fractions of the traced wall time, to name each workload's dominant layer.

    A module's share is the self time of its spans; for cli_cold, import is
    the median `import gameprice` time once per CLI process.
    """
    layers = result["trace"]["layers"]
    wall_ms = 1e3 * result["traced_elapsed_s"]
    self_ms = dict.fromkeys(MODULES, 0.0)
    for layer, row in layers.items():
        self_ms[layer.split(".")[0]] += row["self_ms"]
    if cli:
        self_ms["import"] = imports["gameprice"] * result["processes"]
    out = {module: ms / wall_ms for module, ms in self_ms.items()}
    out["lsq.oracle"] = layers["lsq.oracle"]["ms"] / wall_ms
    out["lsq.min_norm"] = layers["lsq.min_norm"]["ms"] / wall_ms
    return out


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    root = os.getcwd()
    for need in ("src/gameprice/__init__.py", "sample_games/intro.json"):
        if not os.path.isfile(os.path.join(root, need)):
            return _fail(f"{need} not found: run from the root of a gameprice checkout", 2)
    if args.seconds <= 0:
        return _fail("--seconds must be > 0", 2)

    blocks = workloads.run_blocks(args.workload, args.seconds)
    requests = workloads.generate(args.workload, args.seed, blocks)
    print("record " + json.dumps(run_record(root, args, requests, blocks)), flush=True)
    runner = Runner(root, args, started + TIME_LIMIT_S)
    os.makedirs(runner.tmp, exist_ok=True)
    try:
        reps = 0 if args.trace else SETUP_REPS  # traced runs report no setup_s
        if args.workload == "cli_cold":
            setups = [runner.worker("setup")[0] for _ in range(reps)]
            result = run_cli_cold(runner, requests)
        else:
            setups = [runner.worker("setup")[0] for _ in range(reps - 1)]
            setup, out = runner.worker("run")
            setups.append(setup)
            result = json.loads(out.strip().splitlines()[-1])
        imports = runner.import_times() if args.trace else None
    except (RuntimeError, TimeoutError, OSError, ValueError) as exc:
        return _fail(str(exc), 3)
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(runner.tmp))
        except OSError:
            pass

    failed = len(result["failures"])
    attempted = result["attempted"]
    for line in result["failures"][:20]:
        print("FAILED " + line)
    if args.trace:
        metrics = per_layer(result, imports)
        absent = result["trace"]["absent"]
        print(f"absent layers: {', '.join(absent) if absent else 'none'}")
        for name, share in shares(result, imports, args.workload == "cli_cold").items():
            print(f"share of traced time: {name} = {share:.3f}")
    else:
        metrics = end_to_end(result, setups)
        print(f"latency samples = {len(result['best_s'])} requests, each the fastest "
              f"of {workloads.REPEATS[args.workload]} sends")
        for name, m in tail_latencies(result["best_s"]).items():
            print(f"{name} = {m['value']:.4f} {m['unit']}")
    print(f"sends = {attempted}, failed_frac = {failed / attempted:.6f}, "
          f"loop wall = {result['elapsed_s']:.2f} s, run wall = {perf_counter() - started:.2f} s")
    if not args.trace:
        print(f"setup samples = {', '.join(f'{s:.3f}' for s in setups)} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
