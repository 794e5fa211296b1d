#!/usr/bin/env python3
"""Solve time of least_squares_prices by basis size, for one source tree or two.

Draws, from a fixed seed, 6 bases for each size n x m (n games on m
outcomes) of ROADMAP's "Solve time by size" table: 4x3, 16x8, 32x16, 48x24,
64x32, 12x16 and 32x32. Each basis has random outcome probabilities and
payoffs U(0.5, 20), each payoff zero with chance 1/5 (a game is redrawn
while all its payoffs are zero), at a continuous rate of 5%. Each size has
its own seed, so a row does not depend on which other rows ran. Each basis
is solved 3 times per tree, the two trees alternating send by send, and
its time is its fastest send. One line per size and tree gives the
median over the bases, then the exits by kind, each with the range of its
bases' times; with two trees, a last line says whether the trees' exits, x
and prices are identical on every basis of that size. Loads each tree's
src/gameprice under its own package name (scripts/ab_ls_deep.py's loader),
so both live in one process. Standard library only; it changes nothing.
Examples:

    python scripts/size_table.py .
    python scripts/size_table.py ../parent . --seed 2
"""

import argparse
import gc
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ab_ls_deep import load_tree  # noqa: E402

SIZES = ("4x3", "16x8", "32x16", "48x24", "64x32", "12x16", "32x32")
BASES = 6
SENDS = 3


def draw(seed: int, size: str) -> list[tuple[list[float], list[list[float]]]]:
    """The (probs, games) of the size's bases, from its own seed."""
    n, m = map(int, size.split("x"))
    rng = random.Random(f"{seed}-{size}")
    bases = []
    for _ in range(BASES):
        weights = [rng.expovariate(1.0) for _ in range(m)]
        games = []
        while len(games) < n:
            game = [0.0 if rng.random() < 0.2 else rng.uniform(0.5, 20.0) for _ in range(m)]
            if any(game):
                games.append(game)
        bases.append(([w / sum(weights) for w in weights], games))
    return bases


def solver(gp):
    """A function solving one basis with the package gp: its exit (or the
    error raised) and its (x, prices)."""
    def solve(probs: list[float], games: list[list[float]]) -> tuple[str, tuple]:
        basis = gp.ConeBasis(gp.OutcomeSpace(probs), [gp.Game(g) for g in games])
        try:
            sol = gp.least_squares_prices(basis, gp.Rate(0.05))
        except Exception as exc:  # noqa: BLE001 -- an error is an exit too
            return type(exc).__name__, ()
        return sol.termination, (sol.x_tuple, sol.price_tuple)
    return solve


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="+", help="one source tree, or a baseline and a change")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if len(args.trees) > 2:
        ap.error("give one tree or two")

    labels = "ab"[:len(args.trees)]
    solves = [solver(load_tree(tree, f"gameprice_{label}"))
              for tree, label in zip(args.trees, labels)]
    print(f"size table seed {args.seed}: {BASES} bases per size, "
          f"fastest of {SENDS} sends each")
    for size in SIZES:
        bases = draw(args.seed, size)
        answers = [[solve(*basis) for basis in bases] for solve in solves]
        best = [[float("inf")] * len(bases) for _ in solves]
        trees = list(range(len(solves)))
        gc.collect()
        for j in range(SENDS):
            for i, basis in enumerate(bases):
                for k in trees if (i + j) % 2 == 0 else trees[::-1]:
                    t0 = perf_counter()
                    solves[k](*basis)
                    best[k][i] = min(best[k][i], perf_counter() - t0)
        for label, times, found in zip(labels, best, answers):
            exits = {}
            for t, (end, _) in zip(times, found):
                exits.setdefault(end, []).append(t * 1e3)
            kinds = "; ".join(f"{len(ts)} {end} ({min(ts):.3g}-{max(ts):.3g} ms)"
                              for end, ts in sorted(exits.items()))
            print(f"{size} {label}: median {statistics.median(times) * 1e3:.3g} ms; {kinds}")
        if len(solves) == 2:
            same = sum(x == y for x, y in zip(*answers))
            print(f"{size}: exits, x and prices identical on {same} of {len(bases)} bases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
