#!/usr/bin/env python3
"""In-process A/B timing of two source trees on the ls_deep request stream.

Loads each tree's src/gameprice under its own package name, so both live in
one process, and solves bench/workloads.generate("ls_deep", SEED, BLOCKS)
with each, alternating the two trees request by request and swapping which
goes first on every pass. Each request's time is its fastest send. Prints
one line per basis of workloads.LS_DEEP_CATALOGUE (each request is matched to
the basis it jitters): each tree's sum of those fastest sends over the
basis's requests, their ratio a / b, and whether the two trees' answers on
those requests are identical, so a change that moves one basis's answers
shows which. Then, per tree, the sum over all
requests, the throughput it implies, and a sha256 digest of every answer
(x, prices, certificate, max_violation, iterations and termination, or the
error raised), and last the second tree's throughput gain over the first.
Equal digests mean bit-identical answers.
Standard library only; it reads bench/ of this checkout and changes nothing.
Example:

    python scripts/ab_ls_deep.py ../parent . --seed 1 --sends 30
"""

import argparse
import gc
import hashlib
import importlib.util
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def load_tree(tree: str, name: str):
    """The gameprice package of a source tree, imported as `name`."""
    pkg = Path(tree).resolve() / "src" / "gameprice"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def solver(gp):
    """A function solving one ls_deep request with the package gp."""
    def solve(req: dict):
        basis = gp.ConeBasis(gp.OutcomeSpace(req["probs"]),
                             [gp.Game(g) for g in req["games"]])
        return gp.least_squares_prices(basis, gp.Rate(req["rate"]))
    return solve


def catalogue_basis(req: dict) -> int:
    """Index of the LS_DEEP_CATALOGUE basis whose payoffs the request jitters
    (by at most workloads.JITTER each, far less than any two bases differ)."""
    def distance(base: dict) -> float:
        if [len(g) for g in base["games"]] != [len(g) for g in req["games"]]:
            return float("inf")
        return max(abs(a / b - 1.0) for g, h in zip(req["games"], base["games"])
                   for a, b in zip(g, h) if b)

    return min(range(len(workloads.LS_DEEP_CATALOGUE)),
               key=lambda i: distance(workloads.LS_DEEP_CATALOGUE[i]))


def answer(solve, req: dict) -> str:
    """Every float of a solve's answer at full precision, or its error."""
    try:
        sol = solve(req)
    except Exception as exc:  # noqa: BLE001 -- an error is an answer too
        return f"{type(exc).__name__}: {exc}"
    return repr((sol.x_tuple, sol.price_tuple, sol.certificate.weight_tuple,
                 sol.max_violation, sol.iterations, sol.termination))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("tree_a", help="source tree of the baseline")
    ap.add_argument("tree_b", help="source tree of the change")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--blocks", type=int, default=10,
                    help="ls_deep blocks of 6 requests (default 10, as a 40 s run)")
    ap.add_argument("--sends", type=int, default=30,
                    help="sends of each request per tree (default 30)")
    args = ap.parse_args()

    requests = workloads.generate("ls_deep", args.seed, args.blocks)
    solves = [solver(load_tree(args.tree_a, "gameprice_a")),
              solver(load_tree(args.tree_b, "gameprice_b"))]
    answers = [[answer(s, req) for req in requests] for s in solves]
    digests = [hashlib.sha256("\n".join(a).encode()) for a in answers]

    best = [[float("inf")] * len(requests) for _ in solves]
    gc.collect()
    for j in range(args.sends):
        for i, req in enumerate(requests):
            for k in (0, 1) if (i + j) % 2 == 0 else (1, 0):
                t0 = perf_counter()
                try:
                    solves[k](req)
                except Exception:  # noqa: BLE001 -- timed like any answer
                    pass
                best[k][i] = min(best[k][i], perf_counter() - t0)

    totals = [sum(b) for b in best]
    print(f"ls_deep seed {args.seed}: {len(requests)} requests, "
          f"fastest of {args.sends} sends each")
    bases = [catalogue_basis(req) for req in requests]
    for i, base in enumerate(workloads.LS_DEEP_CATALOGUE):
        sums = [sum(t for t, j in zip(b, bases) if j == i) for b in best]
        shape = f"{len(base['games'])}x{len(base['probs'])}"
        same = all(x == y for x, y, j in zip(*answers, bases) if j == i)
        print(f"basis {i} ({shape}, {bases.count(i)} requests): a {sums[0] * 1e3:.3f} ms, "
              f"b {sums[1] * 1e3:.3f} ms, a / b {sums[0] / sums[1]:.3f}, "
              f"answers {'identical' if same else 'DIFFER'}")
    for label, tree, total, dig in zip("ab", (args.tree_a, args.tree_b), totals, digests):
        print(f"{label} {tree}: {total * 1e3:.3f} ms, {len(requests) / total:.0f} rps, "
              f"digest {dig.hexdigest()[:16]}")
    print(f"gain b over a: {totals[0] / totals[1] - 1.0:+.1%}; answers "
          f"{'identical' if digests[0].digest() == digests[1].digest() else 'DIFFER'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
