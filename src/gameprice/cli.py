"""Command-line front end.

Subcommands: price, ls-price, simulate, sweep, compare-mv, parity,
paper-examples. Input is the game-spec JSON documented in core; output goes
to stdout as a plain table (default), JSON, or CSV. Exit codes: 0 ok,
1 a result out of tolerance, a failed paper check or a solver failure,
2 parse error, 3 invariant violation, 4 basis failure.

The solver modules (lsq, portfolio, reference, simulate) are imported
inside the commands that use them, so `price` compiles only core and pricer.
No command loads numpy: simulate and sweep draw numpy's seeded random
streams from a plain-Python copy of them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    BasisError,
    ConeBasis,
    Game,
    GameFile,
    GameFileError,
    InvariantViolation,
    LogDomainViolation,
    PricingError,
    Rate,
    TruncationError,
    load_game_file,
)
from .pricer import REGIME_FULL, price_general

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

    from .lsq import LsSolution

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_BASIS = 4


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


def _regime_short(regime: str) -> str:
    return "full" if regime == REGIME_FULL else "interior"


def _resolve_rate(gf: GameFile, args) -> Rate:
    value = args.rate
    convention = args.convention
    if value is None:
        if gf.rate is None:
            raise GameFileError(
                "no rate in the game file; pass --rate (and --convention)"
            )
        value = gf.rate.value
    if convention is None:
        convention = gf.rate.convention if gf.rate is not None else "continuous"
    return Rate(value, convention)


def _pick_game(gf: GameFile, name: str) -> Game:
    if name not in gf.games:
        known = ", ".join(sorted(gf.games))
        raise GameFileError(f'game "{name}" not in file (has: {known})')
    return gf.games[name]


def cmd_price(args) -> int:
    gf = load_game_file(args.input)
    rate = _resolve_rate(gf, args)
    game = _pick_game(gf, args.game)
    res = price_general(game, gf.space, rate)
    fp = args.full_precision
    if args.format == "json":
        print(json.dumps({
            "game": args.game,
            "price": res.price,
            "proportion": res.proportion,
            "regime": res.regime,
            "achieved_growth": res.achieved_growth,
        }))
    elif args.format == "csv":
        print("game,price,proportion,regime,achieved_growth")
        print(f"{args.game},{res.price!r},{res.proportion!r},"
              f"{res.regime},{res.achieved_growth!r}")
    else:
        print(f"u={_fmt_price(res.price, fp)} t={_fmt_prop(res.proportion, fp)} "
              f"regime={_regime_short(res.regime)}")
    return EXIT_OK


def _tolerance_exit(sol: Optional[LsSolution], tol_L: float) -> int:
    """EXIT_FAIL, after a note on stderr, when the solver stopped out of tolerance.

    Call it after the result is printed: the result is still shown.
    """
    if sol is None or sol.max_violation <= tol_L:
        return EXIT_OK
    print(f"not within tolerance: max_violation {sol.max_violation:.3e} > "
          f"tol_L {tol_L:.3e}", file=sys.stderr)
    return EXIT_FAIL


def cmd_ls_price(args) -> int:
    from . import lsq

    gf = load_game_file(args.input)
    rate = _resolve_rate(gf, args)
    # the solver reduces the games, a proportional pair included
    basis = ConeBasis._unchecked(gf.space, gf.games.values())
    sol = lsq.least_squares_prices(basis, rate, tol_L=args.tol_ls)
    fp = args.full_precision
    rows = list(zip(gf.games, sol.standalone_tuple, sol.price_tuple, sol.x_tuple))
    if args.format == "json":
        print(json.dumps(sol.to_json_dict()))
    elif args.format == "csv":
        print("game,standalone,ls_price,x")
        for name, u, price, x in rows:
            print(f"{name},{u!r},{price!r},{x!r}")
    else:  # the basis games first, then the rest
        for name, u, price, x in (rows[i] for i in sol.basis):
            print(f"{name}: standalone={_fmt_price(u, fp)} "
                  f"ls={_fmt_price(price, fp)} x={_fmt_price(x, fp)}")
        for j, (name, _, price, _) in enumerate(rows):
            if j not in sol.basis:
                print(f"{name}: ls={_fmt_price(price, fp)} (priced by linearity)")
        cert = (_fmt_price(sol.certificate.weight_tuple[i], fp) for i in sol.basis)
        print(f"certificate mix: ({', '.join(cert)})")
    return _tolerance_exit(sol, args.tol_ls)


def _resolve_u_t(args, gf: GameFile, game: Game, rate: Rate) -> tuple[float, float]:
    u = getattr(args, "u", None)
    t = getattr(args, "t", None)
    if u is None or t is None:
        res = price_general(game, gf.space, rate)
        if u is None:
            u = res.price
        if t is None:
            t = res.proportion
    return float(u), float(t)


def cmd_simulate(args) -> int:
    from .simulate import SimConfig, simulate_growth

    gf = load_game_file(args.input)
    rate = _resolve_rate(gf, args)
    game = _pick_game(gf, args.game)
    u, t = _resolve_u_t(args, gf, game, rate)
    cfg = SimConfig(attempts=args.attempts, paths=args.paths, seed=args.seed,
                    price=u, proportion=t)
    rep = simulate_growth(game, gf.space, cfg)
    if args.format == "json":
        doc = rep.to_json_dict()
        doc.update(price=u, proportion=t)
        print(json.dumps(doc))
    elif args.format == "csv":
        print("price,proportion,mean_growth,var_growth,ci,failed_paths")
        print(f"{u!r},{t!r},{rep.mean_growth!r},{rep.var_growth!r},"
              f"{rep.ci_halfwidth!r},{rep.failed_paths}")
    else:
        fp = args.full_precision
        print(f"u={_fmt_price(u, fp)} t={_fmt_prop(t, fp)} "
              f"mean_growth={_fmt_price(rep.mean_growth, fp)} "
              f"var_growth={rep.var_growth:.3e} ci={rep.ci_halfwidth:.3e} "
              f"failed_paths={rep.failed_paths}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .simulate import SimConfig, sweep_proportion, sweep_rows_csv

    gf = load_game_file(args.input)
    rate = _resolve_rate(gf, args)
    game = _pick_game(gf, args.game)
    if args.u is not None:
        u = float(args.u)
    else:
        u = price_general(game, gf.space, rate).price
    cfg = SimConfig(attempts=args.attempts, paths=args.paths, seed=args.seed,
                    price=u, proportion=0.0)
    rows = sweep_proportion(game, gf.space, u, args.points, cfg)
    if args.format == "json":
        print(json.dumps([
            {"t": r.proportion, "mean_growth": r.mean_growth,
             "var_growth": r.var_growth, "ci": r.ci_halfwidth}
            for r in rows
        ]))
    elif args.format == "table":
        fp = args.full_precision
        print("t        mean_growth")
        for r in rows:
            print(f"{_fmt_prop(r.proportion, fp):8} "
                  f"{_fmt_price(r.mean_growth, fp)}")
    else:
        sys.stdout.write(sweep_rows_csv(rows))
    return EXIT_OK


def cmd_compare_mv(args) -> int:
    from .portfolio import compare_mean_variance

    gf = load_game_file(args.input)
    rate = _resolve_rate(gf, args)
    x = _pick_game(gf, args.x)
    y = _pick_game(gf, args.y)
    comp = compare_mean_variance(x, y, rate)
    if args.format == "json":
        print(json.dumps(comp.to_json_dict()))
        return EXIT_OK
    doc = comp.to_json_dict()
    if args.format == "csv":
        keys = [k for k in doc if not isinstance(doc[k], list)]
        print(",".join(keys))
        print(",".join(repr(doc[k]) for k in keys))
        return EXIT_OK
    fp = args.full_precision
    print(f"u_X={_fmt_price(comp.u_x, fp)} u_Y={_fmt_price(comp.u_y, fp)}")
    print(f"r_X={_fmt_price(comp.r_x, fp)} r_Y={_fmt_price(comp.r_y, fp)} "
          f"v_X={_fmt_price(comp.var_x, fp)} v_Y={_fmt_price(comp.var_y, fp)}")
    print(f"one-fund: w={_fmt_price(comp.w_onefund, fp)} "
          f"price={_fmt_price(comp.price_onefund, fp)}")
    print(f"best mix: w={_fmt_price(comp.w_star, fp)} "
          f"price={_fmt_price(comp.price_star, fp)}")
    alloc = ", ".join(_fmt_price(a, fp) for a in comp.allocation)
    print(f"t*={_fmt_price(comp.t_star, fp)} allocation=({alloc})")
    return EXIT_OK


def cmd_parity(args) -> int:
    from .portfolio import put_call_parity

    gf = load_game_file(args.input)
    rate = _resolve_rate(gf, args)
    stock = _pick_game(gf, args.stock)
    rep = put_call_parity(stock, gf.space, args.strike, rate, tol_L=args.tol_ls)
    if args.format == "json":
        print(json.dumps(rep.to_json_dict()))
        return _tolerance_exit(rep.solution, args.tol_ls)
    if rep.degenerate:
        print(f"degenerate: {rep.reason}")
        return EXIT_OK
    fp = args.full_precision
    if args.format == "csv":
        print("put,call,covered,stock,residual")
        print(f"{rep.put_price!r},{rep.call_price!r},{rep.covered_price!r},"
              f"{rep.stock_price!r},{rep.residual!r}")
        return _tolerance_exit(rep.solution, args.tol_ls)
    print(f"put={_fmt_price(rep.put_price, fp)} "
          f"call={_fmt_price(rep.call_price, fp)} "
          f"covered={_fmt_price(rep.covered_price, fp)} "
          f"stock={_fmt_price(rep.stock_price, fp)}")
    print(f"parity residual: {rep.residual:.3e}")
    return _tolerance_exit(rep.solution, args.tol_ls)


def cmd_paper_examples(args) -> int:
    from .reference import run_checks

    rows = run_checks(args.only)
    if not rows:
        print(f"no checks match {args.only!r}", file=sys.stderr)
        return EXIT_PARSE
    if args.format == "json":
        print(json.dumps([
            {"id": r.check_id, "description": r.description,
             "expected": r.expected, "computed": r.computed, "passed": r.passed}
            for r in rows
        ]))
    elif args.format == "csv":
        print("id,passed,expected,computed")
        for r in rows:
            print(f'{r.check_id},{r.passed},"{r.expected}","{r.computed}"')
    else:
        width = max(len(r.check_id) for r in rows)
        for r in rows:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.check_id:<{width}}  {status}  "
                  f"expected {r.expected}; got {r.computed}")
        n_pass = sum(r.passed for r in rows)
        print(f"{n_pass}/{len(rows)} checks passed")
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
        sp.add_argument("--full-precision", action="store_true",
                        help="print full float precision instead of 4 digits")

    sp = sub.add_parser("price", help="price one game")
    common(sp)
    sp.add_argument("--game", required=True, help="game name in the file")
    sp.set_defaults(func=cmd_price)

    sp = sub.add_parser("ls-price", help="least-squares prices of all games")
    common(sp)
    sp.add_argument("--tol-ls", type=_tolerance, default=1e-9,
                    help="stopping tolerance on the worst-case ratio")
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
    sp.add_argument("--tol-ls", type=_tolerance, default=1e-9)
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
    except BasisError as exc:
        print(f"basis error: {exc}", file=sys.stderr)
        return EXIT_BASIS
    except (InvariantViolation, LogDomainViolation, TruncationError) as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except PricingError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
