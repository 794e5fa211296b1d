"""Command-line front end.

Subcommands: price, ls-price, simulate, sweep, compare-mv, parity,
paper-examples. Input is the game-spec JSON documented in core; output goes
to stdout as a plain table (default), JSON, or CSV. Exit codes: 0 ok,
1 an ls-price result out of --tol-ls, a failed paper check or a solver
failure, 2 parse error, 3 invariant violation.

Each command reads its input through `_inputs` (the game file, its rate
with --rate and --convention applied, and the games it names) and prints
through `_show` (one JSON document, CSV rows or table lines); simulate and
sweep also work out their price, stake and SimConfig in `_simulation`.

The solver modules (lsq, portfolio, reference, simulate) are imported
inside the commands that use them, so `price` compiles only core and pricer.
No command loads numpy: simulate and sweep draw numpy's seeded random
streams from a plain-Python copy of them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .core import (
    DEFAULT_L_TOL,
    ConeBasis,
    Game,
    GameFile,
    GameFileError,
    InvariantViolation,
    PricingError,
    Rate,
    load_game_file,
)
from .pricer import REGIME_FULL, price_general

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3


def _tolerance(text: str) -> float:
    value = float(text)
    if not (0.0 < value <= 1e-2):
        raise argparse.ArgumentTypeError("tolerance must lie in (0, 1e-2]")
    return value


def _positive_rate(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError("rate must be > 0")
    return value


def _fmt_price(x: float, full: bool) -> str:
    return repr(float(x)) if full else f"{x:.4g}"


def _fmt_prop(x: float, full: bool) -> str:
    return repr(float(x)) if full else f"{x:.3f}"


def _inputs(args, *names: str) -> tuple[GameFile, Rate, list[Game]]:
    """The game file, its rate with --rate and --convention applied, and the
    games of the given names."""
    gf = load_game_file(args.input)
    value, convention = args.rate, args.convention
    if value is None:
        if gf.rate is None:
            raise GameFileError(
                "no rate in the game file; pass --rate (and --convention)"
            )
        value = gf.rate.value
    if convention is None:
        convention = gf.rate.convention if gf.rate is not None else "continuous"
    rate = Rate(value, convention)
    for name in names:
        if name not in gf.games:
            known = ", ".join(sorted(gf.games))
            raise GameFileError(f'game "{name}" not in file (has: {known})')
    return gf, rate, [gf.games[name] for name in names]


def _json_safe(doc):
    """doc with each non-finite float, in lists and objects at any depth, as
    the string repr gives it ("inf", "-inf" or "nan"), which float() reads
    back: JSON has no number for them."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else repr(doc)
    if isinstance(doc, dict):
        return {key: _json_safe(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_json_safe(value) for value in doc]
    return doc


def _show(args, doc, csv_lines, table_lines) -> None:
    """Print doc as JSON, csv_lines as CSV rows or table_lines as text lines,
    as --format asks. A CSV cell is text as is and a number by repr; a JSON
    number that is not finite is a string (_json_safe)."""
    if args.format == "json":
        print(json.dumps(_json_safe(doc), allow_nan=False))
    elif args.format == "csv":
        for row in csv_lines:
            print(",".join(c if isinstance(c, str) else repr(c) for c in row))
    else:
        for line in table_lines:
            print(line)


def cmd_price(args) -> int:
    gf, rate, (game,) = _inputs(args, args.game)
    res = price_general(game, gf.space, rate)
    fp = args.full_precision
    doc = {"game": args.game, "price": res.price, "proportion": res.proportion,
           "regime": res.regime, "achieved_growth": res.achieved_growth}
    _show(args, doc, [list(doc), list(doc.values())], [
        f"u={_fmt_price(res.price, fp)} t={_fmt_prop(res.proportion, fp)} "
        f"regime={'full' if res.regime == REGIME_FULL else 'interior'}"])
    return EXIT_OK


def cmd_ls_price(args) -> int:
    from . import lsq

    gf, rate, _ = _inputs(args)
    basis = ConeBasis(gf.space, gf.games.values())
    sol = lsq.least_squares_prices(basis, rate, tol_L=args.tol_ls)
    fp = args.full_precision
    rows = list(zip(gf.games, sol.standalone_tuple, sol.price_tuple, sol.x_tuple))
    # the table lists the basis games first, then the rest
    table = [f"{name}: standalone={_fmt_price(u, fp)} "
             f"ls={_fmt_price(price, fp)} x={_fmt_price(x, fp)}"
             for name, u, price, x in (rows[i] for i in sol.basis)]
    table += [f"{name}: ls={_fmt_price(price, fp)} (priced by linearity)"
              for j, (name, _, price, _) in enumerate(rows) if j not in sol.basis]
    cert = (_fmt_price(sol.certificate.weight_tuple[i], fp) for i in sol.basis)
    table.append(f"certificate mix: ({', '.join(cert)})")
    _show(args, sol.to_json_dict(), [("game", "standalone", "ls_price", "x"), *rows],
          table)
    if sol.max_violation <= args.tol_ls:
        return EXIT_OK
    # out of tolerance: the result is printed, then a note on stderr
    print(f"not within tolerance: max_violation {sol.max_violation:.3e} > "
          f"tol_L {args.tol_ls:.3e}", file=sys.stderr)
    return EXIT_FAIL


def _simulation(args) -> tuple:
    """The outcome space, the game and the SimConfig of simulate or sweep.

    A price or stake left out by --u or --t is solved; sweep has no --t and
    configures t = 0, so with --u it solves nothing. The price goes only into
    cfg.price, where simulate_growth and sweep_proportion read it.
    """
    from .simulate import SimConfig

    gf, rate, (game,) = _inputs(args, args.game)
    u, t = args.u, getattr(args, "t", 0.0)
    if u is None or t is None:
        res = price_general(game, gf.space, rate)
        u = res.price if u is None else u
        t = res.proportion if t is None else t
    cfg = SimConfig(attempts=args.attempts, paths=args.paths, seed=args.seed,
                    price=float(u), proportion=float(t))
    return gf.space, game, cfg


def cmd_simulate(args) -> int:
    from .simulate import simulate_growth

    space, game, cfg = _simulation(args)
    rep = simulate_growth(game, space, cfg)
    u, t, fp = cfg.price, cfg.proportion, args.full_precision
    _show(args, {**rep.to_json_dict(), "price": u, "proportion": t}, [
        ("price", "proportion", "mean_growth", "var_growth", "ci", "failed_paths"),
        (u, t, rep.mean_growth, rep.var_growth, rep.ci_halfwidth, rep.failed_paths),
    ], [f"u={_fmt_price(u, fp)} t={_fmt_prop(t, fp)} "
        f"mean_growth={_fmt_price(rep.mean_growth, fp)} "
        f"var_growth={rep.var_growth:.3e} ci={rep.ci_halfwidth:.3e} "
        f"failed_paths={rep.failed_paths}"])
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .simulate import sweep_proportion

    space, game, cfg = _simulation(args)
    rows = sweep_proportion(game, space, args.points, cfg)
    keys = ("t", "mean_growth", "var_growth", "ci")
    docs = [dict(zip(keys, (r.proportion, r.mean_growth, r.var_growth, r.ci_halfwidth)))
            for r in rows]
    fp = args.full_precision
    _show(args, docs, [keys, *(d.values() for d in docs)], [
        "t        mean_growth",
        *(f"{_fmt_prop(r.proportion, fp):8} {_fmt_price(r.mean_growth, fp)}"
          for r in rows)])
    return EXIT_OK


def cmd_compare_mv(args) -> int:
    from .portfolio import compare_mean_variance

    _, rate, (x, y) = _inputs(args, args.x, args.y)
    comp = compare_mean_variance(x, y, rate)
    doc = comp.to_json_dict()
    keys = [k for k in doc if not isinstance(doc[k], list)]
    fp = args.full_precision
    alloc = ", ".join(_fmt_price(a, fp) for a in comp.allocation)
    _show(args, doc, [keys, [doc[k] for k in keys]], [
        f"u_X={_fmt_price(comp.u_x, fp)} u_Y={_fmt_price(comp.u_y, fp)}",
        f"r_X={_fmt_price(comp.r_x, fp)} r_Y={_fmt_price(comp.r_y, fp)} "
        f"v_X={_fmt_price(comp.var_x, fp)} v_Y={_fmt_price(comp.var_y, fp)}",
        f"one-fund: w={_fmt_price(comp.w_onefund, fp)} "
        f"price={_fmt_price(comp.price_onefund, fp)}",
        f"best mix: w={_fmt_price(comp.w_star, fp)} "
        f"price={_fmt_price(comp.price_star, fp)}",
        f"t*={_fmt_price(comp.t_star, fp)} allocation=({alloc})"])
    return EXIT_OK


def cmd_parity(args) -> int:
    from .portfolio import put_call_parity

    gf, rate, (stock,) = _inputs(args, args.stock)
    rep = put_call_parity(stock, gf.space, args.strike, rate)
    fp = args.full_precision
    if rep.degenerate:  # no solve: the same one line in CSV and table
        table = [f"degenerate: {rep.reason}"]
        csv = [table]
    else:
        csv = [("put", "call", "covered", "stock", "residual"),
               (rep.put_price, rep.call_price, rep.covered_price, rep.stock_price,
                rep.residual)]
        table = [f"put={_fmt_price(rep.put_price, fp)} "
                 f"call={_fmt_price(rep.call_price, fp)} "
                 f"covered={_fmt_price(rep.covered_price, fp)} "
                 f"stock={_fmt_price(rep.stock_price, fp)}",
                 f"parity residual: {rep.residual:.3e}"]
    _show(args, rep.to_json_dict(), csv, table)
    return EXIT_OK


def cmd_paper_examples(args) -> int:
    from .reference import run_checks

    rows = run_checks(args.only)
    if not rows:
        print(f"no checks match {args.only!r}", file=sys.stderr)
        return EXIT_PARSE
    width = max(len(r.check_id) for r in rows)
    _show(args, [
        {"id": r.check_id, "description": r.description,
         "expected": r.expected, "computed": r.computed, "passed": r.passed}
        for r in rows
    ], [
        ("id", "passed", "expected", "computed"),
        *((r.check_id, r.passed, f'"{r.expected}"', f'"{r.computed}"') for r in rows),
    ], [
        *(f"{r.check_id:<{width}}  {'PASS' if r.passed else 'FAIL'}  "
          f"expected {r.expected}; got {r.computed}" for r in rows),
        f"{sum(r.passed for r in rows)}/{len(rows)} checks passed",
    ])
    return EXIT_OK if all(r.passed for r in rows) else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gameprice",
        description="Growth-rate prices of games and least-squares prices "
                    "over the cone they span.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_input=True):
        if with_input:
            sp.add_argument("input", help="game-spec JSON file")
            sp.add_argument("--rate", type=_positive_rate, default=None,
                            help="override the file's interest rate")
            sp.add_argument("--convention", choices=["continuous", "simple"],
                            default=None, help="rate compounding convention")
        sp.add_argument("--format", choices=["json", "csv", "table"],
                        default="table", help="output format")
        if with_input:  # paper-examples prints its checks' own text
            sp.add_argument("--full-precision", action="store_true",
                            help="print full float precision instead of 4 digits")

    sp = sub.add_parser("price", help="price one game")
    common(sp)
    sp.add_argument("--game", required=True, help="game name in the file")
    sp.set_defaults(func=cmd_price)

    sp = sub.add_parser("ls-price", help="least-squares prices of all games")
    common(sp)
    sp.add_argument("--tol-ls", type=_tolerance, default=DEFAULT_L_TOL,
                    help="tolerance on the worst-case ratio L, not a stop test: "
                         "prices are linear when L(0) <= 1 + tol, and a solution "
                         "with L - 1 above it is stalled and exits 1")
    sp.set_defaults(func=cmd_ls_price)

    sp = sub.add_parser("simulate", help="Monte Carlo growth at a price/stake")
    common(sp)
    sp.add_argument("--game", required=True)
    sp.add_argument("--u", type=float, default=None, help="price (default: solve)")
    sp.add_argument("--t", type=float, default=None,
                    help="stake proportion (default: optimal)")
    sp.add_argument("--attempts", type=int, default=10_000)
    sp.add_argument("--paths", type=int, default=1_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="empirical growth curve over proportions")
    common(sp)
    sp.add_argument("--game", required=True)
    sp.add_argument("--u", type=float, default=None, help="price (default: solve)")
    sp.add_argument("--points", type=int, default=21)
    sp.add_argument("--attempts", type=int, default=5_000)
    sp.add_argument("--paths", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_sweep, format="csv")

    sp = sub.add_parser("compare-mv", help="one-fund vs best blend of two games")
    common(sp)
    sp.add_argument("--x", default="X", help="name of the first game")
    sp.add_argument("--y", default="Y", help="name of the second game")
    sp.set_defaults(func=cmd_compare_mv)

    sp = sub.add_parser("parity", help="put-call parity via least-squares prices")
    common(sp)
    sp.add_argument("--stock", default="S", help="name of the stock game")
    sp.add_argument("--strike", type=float, required=True)
    sp.set_defaults(func=cmd_parity)

    sp = sub.add_parser("paper-examples",
                        help="reproduce the published worked examples")
    common(sp, with_input=False)
    sp.add_argument("--only", default=None,
                    help="run only checks whose id contains this substring")
    sp.set_defaults(func=cmd_paper_examples)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GameFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except PricingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
