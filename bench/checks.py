"""Answer checks, run after the timed loop on every send's output.

Least-squares solutions must be within tol_L and tight on their certificate.
A CLI process must exit 0; a printed price (u, t) is accepted when the growth
equation and the first-order condition hold there, recomputed here in plain
floating point rather than through the solver's own helpers, and
paper-examples must pass all 14 rows. Each check returns None when the answer
is right, else a one-line reason.
"""

from __future__ import annotations

import json
import math
import re

GROWTH_TOL = 1e-8  # |E log(1 + t(a - u)/u) - log g|
FOC_TOL = 1e-7  # relative to E|a - u| / (u + t(a - u))
LS_TOL = 1e-9  # least_squares_prices' default tol_L
CERT_TOL = 1e-7
BOX_TOL = 1e-9


def log_growth(rate: float, convention: str = "continuous") -> float:
    return rate if convention == "continuous" else math.log1p(rate)


def check_price(payoffs, probs, log_g: float, u: float, t: float) -> str | None:
    if not (u > 0.0 and math.isfinite(u) and 0.0 < t <= 1.0):
        return f"price {u!r} or proportion {t!r} out of range"
    growth = 0.0
    foc = 0.0
    foc_scale = 0.0
    for a, p in zip(payoffs, probs):
        den = u + t * (a - u)
        if den <= 0.0:
            return f"log argument {den!r} <= 0 at u={u!r}, t={t!r}"
        growth += p * math.log(den / u)
        foc += p * (a - u) / den
        foc_scale += p * abs(a - u) / den
    if abs(growth - log_g) > GROWTH_TOL:
        return f"growth residual {growth - log_g:.3e} at u={u!r}, t={t!r}"
    # interior optimum: derivative zero; full investment (t = 1): not negative
    if t < 1.0 and abs(foc) > FOC_TOL * (1.0 + foc_scale):
        return f"first-order condition {foc:.3e} at interior t={t!r}"
    if t == 1.0 and foc < -FOC_TOL * (1.0 + foc_scale):
        return f"derivative {foc:.3e} < 0 at full investment"
    return None


def ls_point(x):
    """The solution's coordinates clipped into [0, 1]^n, or None if too far out.

    Solutions on n >= 4 bases can leave the unit box by about 1e-12, which
    ls_ratio rejects; clipping that much does not change a ratio at 1e-7.
    """
    if min(x) < -BOX_TOL or max(x) > 1.0 + BOX_TOL:
        return None
    return [min(1.0, max(0.0, float(v))) for v in x]


def check_ls(sol, ratio_at_solution: float | None, tol_L: float = LS_TOL) -> str | None:
    if not (sol.max_violation <= tol_L):
        return f"max_violation {sol.max_violation:.3e} > tol_L {tol_L:.0e}"
    if ratio_at_solution is None:
        return f"coordinates {list(sol.x)} outside [0, 1] by more than {BOX_TOL}"
    if abs(ratio_at_solution - 1.0) > CERT_TOL:
        return f"certificate ratio {ratio_at_solution!r} is not 1"
    return None


def check_cli(req: dict, code: int, out: str, err: str) -> str | None:
    """A cli_cold request: exit code 0, and a correct answer where one is printed."""
    argv = req["argv"]
    if code != 0:
        return f"exit code {code}: {err.strip()[-200:]}"
    if argv[0] == "paper-examples":
        m = re.search(r"^(\d+)/(\d+) checks passed$", out, re.MULTILINE)
        if not m or m.group(1) != m.group(2) or m.group(2) != "14":
            return "paper-examples did not report 14/14 checks passed"
    if argv[0] == "price":
        spec, doc = req["spec"], json.loads(out)
        name = argv[argv.index("--game") + 1]
        log_g = log_growth(spec["rate"]["value"], spec["rate"]["convention"])
        return check_price(spec["games"][name], spec["probabilities"], log_g,
                           doc["price"], doc["proportion"])
    return None
