#!/usr/bin/env python3
"""A/B timing of two source trees on the cli_cold request stream.

Runs each request of bench/workloads.generate("cli_cold", SEED, BLOCKS) as a
`python -m gameprice` child of each tree (the tree as working directory, its
src/ first on PYTHONPATH), alternating the two trees send by send and
swapping which goes first on every send. A request's time is its fastest
send per tree, start to exit, as bench/run.py times a child. Prints, per
command, each tree's fastest sends in ms, sorted; then per tree the p50 and
the throughput as bench/run.py defines them (the median of those times, and
their count over their sum); the ratio of the two; and whether every send's
stdout and exit status match across the trees byte for byte. Whole
bench/run.py runs alternated one run at a time move with the host's slow
spells; send-by-send alternation puts both trees in the same spell.

Standard library only; it reads bench/ of this checkout, writes the price
commands' game-spec files to a temporary directory it removes, and changes
nothing. Example:

    python scripts/ab_cli_cold.py ../parent . --seed 1 --sends 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def send(tree: Path, argv: list[str]) -> tuple[float, int, bytes]:
    """One child of the tree: (seconds from start to exit, exit status, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "gameprice", *argv], cwd=tree, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return perf_counter() - t0, proc.returncode, proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("tree_a", help="source tree of the baseline")
    ap.add_argument("tree_b", help="source tree of the change")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--blocks", type=int, default=2,
                    help="cli_cold blocks of 9 requests (default 2, as a 40 s run)")
    ap.add_argument("--sends", type=int, default=10,
                    help="sends of each request per tree (default 10)")
    args = ap.parse_args()

    trees = [Path(args.tree_a).resolve(), Path(args.tree_b).resolve()]
    requests = workloads.generate("cli_cold", args.seed, args.blocks)
    best = [[float("inf")] * len(requests) for _ in trees]
    outputs = [[set() for _ in requests] for _ in trees]
    with tempfile.TemporaryDirectory() as tmp:
        argvs = []
        for i, req in enumerate(requests):
            path = os.path.join(tmp, f"spec{i}.json")
            if req["spec"] is not None:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(req["spec"], fh)
            argvs.append([path if arg == "{spec}" else arg for arg in req["argv"]])
        for j in range(args.sends):
            for i, argv in enumerate(argvs):
                for k in (0, 1) if (i + j) % 2 == 0 else (1, 0):
                    wall, code, out = send(trees[k], argv)
                    best[k][i] = min(best[k][i], wall)
                    outputs[k][i].add((code, out))

    print(f"cli_cold seed {args.seed}: {len(requests)} requests, "
          f"fastest of {args.sends} sends each (ms)")
    commands = [req["argv"][0] for req in requests]
    for command in dict.fromkeys(commands):
        shown = [" ".join(f"{1e3 * t:.1f}" for t, c in sorted(zip(b, commands))
                          if c == command) for b in best]
        print(f"{command}: a {shown[0]}; b {shown[1]}")
    p50s = [1e3 * statistics.median(b) for b in best]
    for label, tree, p50, b in zip("ab", trees, p50s, best):
        print(f"{label} {tree}: p50 {p50:.1f} ms, {len(b) / sum(b):.2f} rps")
    same = all(len(a) == 1 and a == b for a, b in zip(*outputs))
    print(f"p50 b / a {p50s[1] / p50s[0]:.3f}, throughput b / a "
          f"{sum(best[0]) / sum(best[1]):.3f}; stdout and exit status "
          f"{'identical' if same else 'DIFFER'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
