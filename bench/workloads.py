"""Seeded inputs for the two benchmark workloads.

Every request is plain JSON-able data (a dict with a "kind"), so the parent
process can digest the exact inputs a run used and a worker process can
rebuild the same list from (workload, seed, blocks) alone. Nothing here
imports gameprice, so generating inputs adds no gameprice work to set-up or
to the measured loop.

A run sends whole blocks. A block is one copy of the workload's base mix,
jittered and shuffled by the seed: ls_deep moves every payoff, probability
and rate by up to +-0.1%, cli_cold draws fresh game-spec files for its price
commands. The base mix is fixed, so every seed costs the same work and a
run's figures move with the code and the host, not with the draw. The whole
request list is sent REPEATS[workload] times over and each request's latency
is its fastest send (README.md, "Timing").
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("ls_deep", "cli_cold")

# Passes over the request list; a request's latency is its fastest send.
REPEATS = {"ls_deep": 8, "cli_cold": 2}

# One block of ls_deep. Instances come from a uniform draw (payoffs in
# [0.5, 20], probabilities from [0.5, 1.5] normalised, rate in [0.01, 0.08]),
# kept when one solve took under 0.1 s on a 2-core Intel Xeon host; README.md
# says why heavier instances are left out.
LS_DEEP_CATALOGUE = (
    {"kind": "ls", "probs": [0.1853, 0.4231, 0.3916],
     "games": [[13.56, 6.509, 12.316], [12.333, 11.833, 3.588]], "rate": 0.0401},
    {"kind": "ls", "probs": [0.2337, 0.1482, 0.2648, 0.3533],
     "games": [[14.929, 18.089, 15.235, 17.318], [14.254, 9.719, 4.898, 13.386]],
     "rate": 0.0321},
    {"kind": "ls", "probs": [0.1771, 0.2464, 0.2913, 0.2852],
     "games": [[8.634, 15.915, 17.338, 11.67], [12.687, 7.956, 11.862, 12.373]],
     "rate": 0.0156},
    {"kind": "ls", "probs": [0.2141, 0.2057, 0.1481, 0.1524, 0.2797],
     "games": [[5.239, 12.225, 7.748, 9.338, 19.203],
               [9.933, 11.704, 17.397, 4.065, 3.506]], "rate": 0.0736},
    {"kind": "ls", "probs": [0.1044, 0.101, 0.2751, 0.2342, 0.2853],
     "games": [[0.915, 12.906, 9.904, 14.745, 6.719],
               [19.987, 1.968, 11.149, 14.872, 18.054]], "rate": 0.0616},
    {"kind": "ls", "probs": [0.214, 0.3943, 0.3917],
     "games": [[3.287, 3.227, 11.874], [19.525, 12.468, 8.845],
               [10.384, 16.286, 10.685]], "rate": 0.0476},
)

JITTER = 0.001

# cli_cold: commands per block of child processes, weighted toward price.
CLI_BLOCK = (
    ("price", 3),
    ("ls-price", 1),
    ("parity", 1),
    ("compare-mv", 1),
    ("simulate", 1),
    ("sweep", 1),
    ("paper-examples", 1),
)
SAMPLE_FILES = ("example11.json", "example12.json", "example13.json", "intro.json")


def _jitter(rng: random.Random, x: float) -> float:
    return x * (1.0 + JITTER * (2.0 * rng.random() - 1.0))


def _jittered(rng: random.Random, req: dict) -> dict:
    """req with every payoff, probability and rate moved by up to JITTER."""
    probs = [_jitter(rng, p) for p in req["probs"]]
    total = sum(probs)
    return dict(req, probs=[p / total for p in probs], rate=_jitter(rng, req["rate"]),
                games=[[_jitter(rng, a) for a in g] for g in req["games"]])


def _spec_file(rng: random.Random) -> dict:
    m = rng.choice((2, 3, 5))
    if m == 2:
        probs = [0.5, 0.5]
    else:
        w = [rng.uniform(0.5, 1.5) for _ in range(m)]
        probs = [x / sum(w) for x in w]
    games = {name: [round(rng.uniform(0.5, 20.0), 4) for _ in range(m)]
             for name in ("A", "B")}
    return {"probabilities": probs, "games": games,
            "rate": {"value": round(rng.uniform(0.01, 0.08), 6),
                     "convention": "continuous"}}


def _cli_request(rng: random.Random, kind: str) -> dict:
    if kind == "price":
        return {"kind": "cli", "spec": _spec_file(rng),
                "argv": ["price", "{spec}", "--game", rng.choice("AB"),
                         "--format", "json"]}
    if kind == "ls-price":
        return {"kind": "cli", "spec": None,
                "argv": ["ls-price", "sample_games/" + rng.choice(SAMPLE_FILES)]}
    if kind == "parity":
        return {"kind": "cli", "spec": None,
                "argv": ["parity", "sample_games/remark35.json", "--strike",
                         repr(round(rng.uniform(8.5, 11.5), 4))]}
    if kind == "compare-mv":
        return {"kind": "cli", "spec": None,
                "argv": ["compare-mv", "sample_games/remark35.json"]}
    if kind == "simulate":
        return {"kind": "cli", "spec": None,
                "argv": ["simulate", "sample_games/remark35.json", "--game",
                         rng.choice("XYS"), "--attempts", "2000", "--paths", "200",
                         "--seed", str(rng.randrange(10_000))]}
    if kind == "sweep":
        return {"kind": "cli", "spec": None,
                "argv": ["sweep", "sample_games/remark35.json", "--game", "S",
                         "--points", "5", "--attempts", "1000", "--paths", "50",
                         "--seed", str(rng.randrange(10_000))]}
    if kind == "paper-examples":
        return {"kind": "cli", "spec": None, "argv": ["paper-examples"]}
    raise ValueError(f"unknown cli_cold kind {kind!r}")


def _base_block(workload: str) -> list[dict]:
    """The workload's input mix before the seed jitters and orders it."""
    if workload == "ls_deep":
        return list(LS_DEEP_CATALOGUE)
    rng = random.Random("cli_cold/base")
    return [_cli_request(rng, kind) for kind, count in CLI_BLOCK for _ in range(count)]


def _block(workload: str, base: list[dict], rng: random.Random) -> list[dict]:
    """One block: the base mix jittered and shuffled by the seed's generator.

    cli_cold writes a freshly drawn game-spec file for each price command
    instead; a CLI process costs the same whatever the numbers in its file.
    """
    if workload == "cli_cold":
        out = [dict(req, spec=_spec_file(rng)) if req["spec"] is not None else req
               for req in base]
    else:
        out = [_jittered(rng, req) for req in base]
    rng.shuffle(out)
    return out


# Seconds one block took, all passes included, at the commit that defined
# the benchmark on a 2-core Intel Xeon host. A run sends the whole blocks that
# filled about --seconds there: a fixed count, so both sides of a comparison
# send the same requests and where a run stops does not depend on its speed.
BLOCK_SECONDS = {"ls_deep": 4.2, "cli_cold": 20.0}


def run_blocks(workload: str, seconds: float) -> int:
    """Blocks one run sends: the whole blocks that filled about `seconds`."""
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


def generate(workload: str, seed: int, blocks: int) -> list[dict]:
    """The first `blocks` blocks of the workload's request stream for `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    base = _base_block(workload)
    rng = random.Random(f"{workload}/{seed}")
    requests = []
    for _ in range(blocks):
        requests.extend(_block(workload, base, rng))
    return requests


def digest(requests: list[dict]) -> str:
    """sha256 of the canonical JSON of a request list."""
    blob = json.dumps(requests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
