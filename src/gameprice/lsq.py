"""Least-squares prices of a basis of games over the cone it spans.

Each basis game has a stand-alone price u_i and a ceiling c_i = E_i/g. A
coordinate vector t in [0,1]^n interpolates adjusted prices
u_i + t_i (c_i - u_i). The worst-case ratio

    L(t) = max over mixes p of  price(mix(p)) / sum_i p_i * adjusted_i(t_i)

is <= 1 exactly when the adjusted prices admit no arbitrage. The solver finds
the minimum-norm feasible t. Every weight vector w >= 0 induces the linear
constraint price(mix(w)) <= w . adjusted(t), and the mix price is concave in
w, so the Lagrangian dual of this semi-infinite program is one smooth
concave maximization over w >= 0 (_max_dual). Projected Newton solves it
from any start, and t = min(w (c - u), 1) at its maximizer; the oracle then
certifies L(t) <= 1 + tol_L from the tight mix w / |w|. When some mix of the
games pays a constant, t = 1 is the only feasible point on the games with
c_i > u_i, so it is returned at once, with that mix as its certificate: no
mix is priced above its ceiling E/g (Jensen), so L(1) <= 1 needs no climb,
and its max_violation is 0 by that theorem, with no price solve. The
ceilings are linear on the whole cone, so that exit prices every game the
caller gave and reduces none; the other exits solve on the extreme rays of
the cone and price the rest by linearity.
Prices are linear exactly when L(0) <= 1, and every mix's ratio at t = 0
bounds L(0) from below: when the uniform mix is priced clearly above its
stand-alone prices, the dual starts from it at once, and only otherwise does
one oracle call at t = 0 decide. A solve evaluates each mix once, handing
each stage's last mix to the next.
LsSolution.termination says which way a solve ended. One projected-Newton
routine (_projected_newton) makes both climbs, each maximizing a concave
function of nonnegative game weights: the oracle's, of price-weighted mix
weights v = q adj whose maximum lies at L times the worst mix, and the
dual's, of v = w c. Both take the mix price's exact gradient and Hessian from
one price solve, on one scale: each game per unit of its ceiling, so that
every mix pays g on average and rescaling a game leaves every step as it was.
Their states share one layout, and the routine holds the one stop rule and
the one accept rule that read it; each climb fills the fields. The routine
splits each Newton step into its curved and flat parts by a pivoted LDL^T
factorization, projecting onto the flat ones through a Householder QR. The
oracle stops only when the upper bound
max_i (dprice/dq_i) / adj_i (Euler's identity plus concavity) is within 1e-10
relative of its value. Every question about the cone the games span is one
nonnegative least-squares (NNLS) problem, solved by Lawson and Hanson's
active-set method on a Householder QR of its passive columns: whether a game
lies in it and with which coefficients, which games are its extreme rays, and
whether some mix pays a constant, that is, whether the payoff vector 1 lies
in it. Each decides by one rule (_residual): the NNLS point's distance
|M k - target| (2-norm) over the target's largest payoff is within
CONE_TOL. A solve asks first whether a constant mix exists, one NNLS on the
caller's games, by the very call check_constant_mix makes; check_constant_mix
alone probes further for the largest support such a mix can have. One QR of
the games, with a bound on its rounding, settles the clear cases first, once
per solve for the constant-mix NNLS and the reduction alike: with fewer games
than outcomes, its least-squares residual of M k = 1 rules a constant mix out
before any NNLS wherever it can. Everything runs on
plain Python floats, so solving imports no numpy; the functions that return
arrays build them on the way out.
"""

from __future__ import annotations

import math
import sys
from operator import mul, sub, truediv

from .core import (
    DEFAULT_L_TOL,
    BasisError,
    ConeBasis,
    Game,
    InvariantViolation,
    Mix,
    OutcomeSpace,
    PricingError,
    Rate,
    _array,
    _cone_coefficients,
    _dot,
    _float_tuple,
    _frozen_array,
    _mix_weights,
    _payoff_rows,
    _Record,
)
from .pricer import _price_numeric

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Literal, Optional, Sequence

    import numpy as np

    Termination = Literal["constant_mix", "linear", "newton", "stalled"]

# a game within this of its largest payoff (2-norm) from a cone lies in it, and
# so does the payoff vector 1 of a constant mix (_residual, the one cone test)
CONE_TOL = 1e-9
# relative gap between the oracle's computed upper bound and its value
ORACLE_GAP = 1e-10
# pivots of a unit-diagonal Hessian block within this of the largest count
# as flat
_FLAT = 1e-9
# share of the predicted rise that a Newton step (oracle or dual) must achieve
_ARMIJO = 1e-4
# cap on the Newton steps of the oracle and of the dual
_ORACLE_MAX_ITER = 500

_EPS = sys.float_info.epsilon


class LsSolution(_Record):
    """Min-norm coordinates, the prices they induce, and a tightness witness.

    The vectors run over the declared games; basis holds the indices of the
    ones solved on, the rest priced by linearity, and norm is |x|^2 over
    them. On a "constant_mix" exit basis lists every game: each is priced at
    u + x d, its ceiling (its stand-alone price where d = 0), and none by
    linearity. certificate is a mix whose stand-alone price equals its linear
    price at the solution; max_violation is its ratio L - 1. termination
    says how the solve ended: "constant_mix" (x pinned by a constant mix,
    the certificate; max_violation is 0, as Jensen's inequality proves
    L <= 1 there), "linear" (the oracle certified L(0) <= 1 + tol_L, so
    x = 0), "newton" (the dual's projected Newton converged and the oracle
    certified its point) or "stalled" (the solver settled, but the oracle's
    L - 1 at its point exceeds tol_L; max_violation says by how much).
    iterations counts the Newton steps, and is 1 for the first two.
    x_tuple, price_tuple, standalone_tuple and ceiling_tuple hold the
    vectors; x, prices, standalone and ceilings are the same vectors as
    read-only float64 arrays, built on first access.
    """

    x_tuple: tuple[float, ...]
    price_tuple: tuple[float, ...]
    certificate: Mix
    norm: float
    iterations: int
    max_violation: float
    standalone_tuple: tuple[float, ...]
    ceiling_tuple: tuple[float, ...]
    termination: Termination
    basis: tuple[int, ...]
    x = _array("x_tuple")
    prices = _array("price_tuple")
    standalone = _array("standalone_tuple")
    ceilings = _array("ceiling_tuple")

    def to_json_dict(self) -> dict:
        return {
            "x": list(self.x_tuple),
            "prices": list(self.price_tuple),
            "certificate": list(self.certificate.weight_tuple),
            "iterations": self.iterations,
            "max_violation": self.max_violation,
        }


class _LsqProblem:
    """Precomputed pricing context for one basis and rate.

    u_tuple, c_tuple and d_tuple hold the stand-alone prices, the ceilings
    and d = max(c - u, 0), and every method runs on plain floats. Both
    climbs weigh each game per unit of its ceiling (value_grad_hess), which
    keeps each mix's evaluation for as long as the problem lives, keyed by
    the exact mix; raw_mix gives such a mix in the games' own weights.
    """

    def __init__(self, basis: ConeBasis, rate: Rate):
        self.basis = basis
        self.rate = rate
        self._probs_list = probs = list(basis.space.prob_tuple)
        # the hot loops run on plain floats (numpy overhead dominates at these
        # sizes): payoff rows for M p, and each game per unit of its ceiling,
        # by columns for M^T dprice and by rows for value_grad_hess's mixes
        self._rows = _payoff_rows(basis.games)
        self.g = g = rate.growth_factor()
        self.n = basis.n
        u, c = [], []
        for game in basis.games:  # (u, c) as standalone gives them
            u.append(_price_numeric(game.payoff_tuple, probs, rate)[0])
            c.append(_dot(probs, game.payoff_tuple) / g)
        self.u_tuple, self.c_tuple = tuple(u), tuple(c)
        self.d_tuple = tuple(map(max, map(sub, c, u), [0.0] * self.n))
        self._cols = [[a / ci for a in g.payoff_tuple] for g, ci in zip(basis.games, c)]
        self._unit_rows = list(zip(*self._cols))
        self._uc = list(map(truediv, self.u_tuple, self.c_tuple))
        self._dc = list(map(truediv, self.d_tuple, self.c_tuple))
        self._evaluations = {}  # value_grad_hess's, by tuple(p)

    def standalone(self, col: Sequence[float]) -> tuple[float, float]:
        """(u, c) of a game's payoffs: its stand-alone price and ceiling E/g."""
        return self.price_full(list(col))[0], _dot(self._probs_list, col) / self.g

    def price_full(self, payoffs: list[float]) -> tuple[float, float]:
        """(price, proportion) of an arbitrary payoff list on the space, by
        pricer._price_numeric: the solve and the answer price_general gives."""
        return _price_numeric(payoffs, self._probs_list, self.rate)

    def price_mix(self, p: Sequence[float]) -> float:
        return self.price_full([_dot(row, p) for row in self._rows])[0]

    def adjusted_prices(self, t: Sequence[float]) -> list[float]:
        """u + t d."""
        return [ui + ti * di for ui, ti, di in zip(self.u_tuple, t, self.d_tuple)]

    def raw_mix(self, p: Sequence[float]) -> list[float]:
        """The games' own weights of the mix p per unit of ceiling: p / c."""
        q = [pi / ci for pi, ci in zip(p, self.c_tuple)]
        total = sum(q)
        return [qi / total for qi in q]

    def value_grad_hess(
        self, p: Sequence[float]
    ) -> tuple[float, list[float], list[list[float]]]:
        """Mix price at p with its gradient and Hessian, from one price solve.

        p weighs each game per unit of its ceiling: the mix pays a = M p, M
        the games over their ceilings, whose mean is g on the simplex, so no
        game's scale enters the solve or the derivatives, which are in p. In
        the payoffs a the gradient is gamma = probs u / (D W), with
        D = u + t (a - u) and W = E[a / D], by the envelope theorem at the
        solved (u, t). Its Jacobian follows from differentiating gamma through
        u (du/da = gamma) and through t, whose derivative dt the implicit
        function theorem gives from the first-order condition
        E[(a - u) / D] = 0; dW is W's. With e = gamma / D, f = e (a - u) and
        G, E, F, T, V = M^T gamma, e, f, dt, dW the Hessian in p is
        G G^T / u - (1 - t) E G^T - F T^T - G V^T / W - t M^T diag(e) M. In
        the full-investment regime the price is gm/g, and the Hessian is
        G G^T / u - M^T diag(gamma / a) M. The evaluation is kept, keyed by
        tuple(p), and returned again for the same mix; callers must not
        change the lists.
        """
        key = tuple(p)
        found = self._evaluations.get(key)
        if found is None:
            found = self._evaluations[key] = self._value_grad_hess(key)
        return found

    def _value_grad_hess(self, p: tuple[float, ...]) -> tuple:
        cols = self._cols
        q = self._probs_list
        a = [sum(map(mul, row, p)) for row in self._unit_rows]
        u, t = _price_numeric(a, q, self.rate)
        if t == 1.0:
            gamma = [qi * u / x for qi, x in zip(q, a)]
            G = [sum(map(mul, col, gamma)) for col in cols]
            w = list(map(truediv, gamma, a))
            H = []
            for gj, cj in zip(G, cols):
                cw, Hj = list(map(mul, cj, w)), []
                for gk, ck in zip(G, cols):
                    Hj.append(gj * gk / u - sum(map(mul, cw, ck)))
                H.append(Hj)
            return u, G, H
        D = [u + t * (x - u) for x in a]
        W = sum(qi * x / di for qi, x, di in zip(q, a, D))
        gamma = [qi * u / (di * W) for qi, di in zip(q, D)]
        # the first-order condition's partials: u probs / D^2 in a,
        # -E[a / D^2] in u and -E[(a - u)^2 / D^2] in t; where D^2
        # underflows to 0, q / D / D stands in for q / D^2; the last squares
        # (a - u) / D, which stays finite where (a - u)^2 overflows
        pd2 = [qi / (di * di) if di * di else qi / di / di for qi, di in zip(q, D)]
        s_a = sum(map(mul, pd2, a))
        s_au = sum(w * x * (x - u) for w, x in zip(pd2, a))
        r = [(x - u) / di for x, di in zip(a, D)]
        s_uu = sum(qi * (ri * ri) for qi, ri in zip(q, r))
        dt = [(u * w - s_a * gi) / s_uu for w, gi in zip(pd2, gamma)]
        dW = [qi / di - (1.0 - t) * gi * s_a - t * w * x - dti * s_au
              for qi, di, gi, w, x, dti in zip(q, D, gamma, pd2, a, dt)]
        e = [gi / di for gi, di in zip(gamma, D)]
        f = [ei * (x - u) for ei, x in zip(e, a)]
        G, E, F, T, V = ([sum(map(mul, col, v)) for col in cols]
                         for v in (gamma, e, f, dt, dW))
        GV = [gk / u - vk / W for gk, vk in zip(G, V)]
        te = [t * ei for ei in e]
        return u, G, [
            [gj * gvk - sej * gk - fj * tk - sum(map(mul, ce, ck))
             for gk, tk, gvk, ck in zip(G, T, GV, cols)]
            for gj, sej, fj, ce in zip(G, [(1.0 - t) * ej for ej in E], F,
                                       [list(map(mul, col, te)) for col in cols])
        ]

    def oracle(self, adj: Sequence[float]) -> tuple[float, list[float]]:
        """max over the mix simplex of the ratio of a mix's price to its
        linear price at the denominators adj (adjusted_prices(t) for the
        ratio L(t)), and an attaining mix in the games' own weights: maximize
        from the uniform mix, read from the state it ends on. Outside the
        solve, the one reader of a climb."""
        state = self.maximize(adj, [1.0 / self.n] * self.n)[0]
        return state[3], self.raw_mix(state[7])

    def maximize(
        self, adj: Sequence[float], p0: Sequence[float]
    ) -> tuple[tuple, int, Literal["done"]]:
        """The climb from the mix p0 to the max over mixes p of price(mix(p)) / (p . adj).

        p0 and the mix returned are per unit of ceiling (value_grad_hess), as
        is adj / c. In v = q adj, q the games' own weights at any scale, the
        climb maximizes phi(v) = price(M q) - (sum v)^2 / 2 over v >= 0. phi
        is concave, as the mix price is, and on the ray through the mix p it
        is s R - s^2 / 2, s = sum(v) and R the ratio at p: it peaks at s = R
        with value R^2 / 2, so phi's maximum lies at L times the worst mix,
        and a local maximum is global. Each trial point moves to the peak of
        its ray, total p with total = price(p) / (p . adj)^2 (divided in
        steps: the square can underflow), and the climb goes on from there.
        Euler's identity and concavity bound the ratio by
        max_i (dprice/dq_i) / adj_i, which is R plus the largest entry of
        dphi/dv at a peak. In _projected_newton's state layout the level is
        R, the stop value that largest entry and its bound ORACLE_GAP R, so
        the climb runs until the bound on the ratio is within ORACLE_GAP of
        R, and raises PricingError otherwise; the slack is ORACLE_GAP R too,
        so a step is also taken when R falls by at most that while the bound
        comes closer. Along the flat directions of the mix price's Hessian
        the ratio is affine: the cash direction M^-1 1 of a square basis, the
        null space of M when there are more games than outcomes. A state
        carries the oracle Hessian only when it is not certified. The first
        evaluation is at p0 itself, so a mix the caller has already evaluated
        is not priced again. Returns _projected_newton's (state, steps, end):
        the state the climb ends on, whose level state[3] is the ratio and
        whose state[7] the mix that attains it, per unit of ceiling; end is
        always "done". When p0 is certified, that first state is returned as
        (state, 0, "done"): the closures are formed, but no oracle Hessian
        and no climb.
        """
        adj = [ai / ci for ai, ci in zip(adj, self.c_tuple)]

        def at(p: list[float]):
            """The climb state at the peak of the ray through the mix p:
            (phi, dphi/dv, its Hessian or None when certified, R,
            ORACLE_GAP R, max(dphi/dv), ORACLE_GAP R, p, v)."""
            price, grad, hess = self.value_grad_hess(p)
            padj = _dot(p, adj)
            ratio = price / padj
            total = ratio / padj
            g = [gj / aj - ratio for gj, aj in zip(grad, adj)]
            gap, stop, H = ORACLE_GAP * ratio, max(g), None
            if not stop <= gap:  # where the stop rule fails, nan included
                # the price's Hessian is (-1)-homogeneous: at total p it is
                # hess / total (divided in steps where sj ak underflows to 0),
                # which cannot be formed where some sj = total aj is 0
                if not total * min(adj):
                    raise PricingError("separation oracle: the ray's peak underflows to 0")
                H = [[(hk / (sj * ak) if sj * ak else hk / sj / ak) - 1.0
                      for hk, ak in zip(row, adj)]
                     for row, sj in zip(hess, [total * aj for aj in adj])]
            v = [total * pi * ai for pi, ai in zip(p, adj)]
            return 0.5 * ratio * ratio, g, H, ratio, gap, stop, gap, p, v

        def evaluate(v: list[float]):
            q = [vi / ai for vi, ai in zip(v, adj)]
            total = sum(q)
            return at([qi / total for qi in q])

        state = at(list(p0))
        if state[2] is None:  # p0 is certified: no climb
            return state, 0, "done"
        state, steps, end = _projected_newton(evaluate, state)
        if end != "done":
            why = end if end == "stalled" else f"iteration cap {_ORACLE_MAX_ITER} hit"
            raise PricingError(f"separation oracle {why} with gap {state[5] / state[3]:.3e}")
        return state, steps, end


def _projected_newton(
    evaluate: Callable[[list[float]], tuple], state: tuple
) -> tuple[tuple, int, Literal["done", "stalled", "cap"]]:
    """Projected Newton (Bertsekas 1982) for a smooth concave function on
    x >= 0, climbing from the point that state carries.

    Every state has one layout, (value, g, H, level, slack, stop, bound, p,
    x): the function's value, gradient and Hessian at x, a level with the
    slack it may lose in one step, a stop value with its bound, the
    caller's point p, and x. evaluate(x) gives the state at a trial point,
    which it may move to one of no lower value: the climb goes on from the
    x a state carries. Both rules read the states alone. The stop rule: a
    state is done when stop <= bound, tested at the top of each step, and
    H is read only at a state that is not done, so a caller may leave it
    None at one that is. The accept rule: a trial that Armijo's rule
    rejects still passes when it is done, or when its level falls by at
    most the old state's slack while its stop value falls below the old
    one. Coordinates within eps of 0 that the gradient pushes out go to 0
    (the epsilon-active set, eps the length of a projected gradient step
    and at most 1e-3). The others take the Newton step along the curved
    directions of their Hessian block (_newton_split), and along its flat
    ones a step on to the first bound: there the function is affine, so
    Newton would not move, and the bound is the maximum along them. The
    step is projected and halved until Armijo's rule or the accept rule
    passes it. Returns the last state, the steps taken, and how the climb
    ended: "done" (the last state is done, also when the step that reached
    it was the last one allowed), "stalled" (a halved step would no longer
    move x, or the step is not finite because the Hessian overflowed) or
    "cap" (_ORACLE_MAX_ITER steps).
    """
    def done(state) -> bool:
        return state[5] <= state[6]

    for steps in range(_ORACLE_MAX_ITER + 1):
        if done(state):
            return state, steps, "done"
        if steps == _ORACLE_MAX_ITER:
            return state, steps, "cap"
        value, g, H, level, slack, stop, _, _, x = state
        # the epsilon-active set; eps <= 1e-3 is formed only when some
        # coordinate that the gradient pushes out lies within 1e-3 of 0
        active = [j for j, (xj, gj) in enumerate(zip(x, g)) if gj < 0.0 and xj <= 1e-3]
        if active:
            pg = [xj - max(xj + gj, 0.0) for xj, gj in zip(x, g)]
            eps = min(1e-3, math.sqrt(_dot(pg, pg)))
            active = [j for j in active if x[j] <= eps]
        free = [j for j in range(len(x)) if j not in active] if active else range(len(x))
        step, flat = _newton_split([[H[j][k] for k in free] for j in free],
                                   [g[j] for j in free]) if active else _newton_split(H, g)
        if any(flat):
            # the function is affine along flat: go on from the Newton point
            # to the first bound, so that it is met exactly
            reach = [(x[j] + sj) / -fj
                     for j, sj, fj in zip(free, step, flat) if fj < 0.0]
            if reach:
                alpha = max(min(reach), 0.0)
                step = [sj + alpha * fj for sj, fj in zip(step, flat)]
        d = step  # -x on the epsilon-active set, the step elsewhere
        if active:
            d = [-xj for xj in x]
            for j, sj in zip(free, step):
                d[j] = sj
        if not math.isfinite(sum(d)):
            return state, steps, "stalled"
        tau = 1.0
        while True:
            x_new = [0.0 if (y := xj + tau * dj) < 0.0 else y  # max(y, 0.0)
                     for xj, dj in zip(x, d)]
            if any(x_new):
                new = evaluate(x_new)
                # Armijo's rule on the projection arc (the value rises by a
                # share of what the gradient predicts for the step taken),
                # then the accept rule
                rise = new[0] - value
                if (rise > 0.0 and rise >= _ARMIJO * sum(map(mul, g, map(sub, x_new, x)))
                        or done(new) or new[3] - level >= -slack and new[5] < stop):
                    break
            tau *= 0.5
            if tau * max(map(abs, d)) < 1e-16 * max(x):  # x would no longer move
                return state, steps, "stalled"
        state = new


def _newton_split(
    H: list[list[float]], g: list[float]
) -> tuple[list[float], list[float]]:
    """Newton step of a concave quadratic along its curved directions, and g's
    part along its flat ones.

    H is first scaled to a unit diagonal, D^-1/2 H D^-1/2 with D its
    diagonal, so that a coordinate near its bound, where the curvature can
    be 1e12 times that of the others, does not make them look flat. Its
    negative A is positive semidefinite, and is factored as V diag(s) V^T
    by LDL^T with diagonal pivoting: each step eliminates the largest
    diagonal entry left in the Schur complement, and the factorization
    stops at the first pivot within _FLAT of the largest curvature (the
    first pivot). The coordinates left over span the flat directions: g's
    flat part is its orthogonal projection onto the null space of V^T,
    taken through the Householder QR V = QR (_householder) as Q applied to
    Q^T g with its first len(pivots) entries zeroed. The Newton step -H^-1 g
    is the minimum-norm solution of V diag(s) V^T x = g - flat: any
    solution with its null-space part removed the same way.
    """
    k = len(g)
    d = [math.sqrt(-hjj) if (hjj := row[j]) < 0.0 else 1.0 for j, row in enumerate(H)]
    S = [[-hjk / (dj * dk) for hjk, dk in zip(row, d)] for row, dj in zip(H, d)]
    gs = list(map(truediv, g, d))
    rest = list(range(k))
    pivots = []  # (index, column of V, pivot), in elimination order
    limit = None
    while rest:
        p = rest[0]  # the first largest pivot, as max picks it
        s = S[p][p]
        for j in rest:
            if S[j][j] > s:
                p, s = j, S[j][j]
        if limit is None:  # the first pivot is the largest curvature
            limit = _FLAT * max(s, 0.0)
        if s <= limit:
            break
        rest.remove(p)
        v = [0.0] * k
        v[p] = 1.0
        for j in rest:
            v[j] = S[j][p] / s
        for j in rest:
            row, lj = S[j], v[j] * s
            for i in rest:
                row[i] -= lj * v[i]
        pivots.append((p, v, s))
    if rest:
        # through the Householder QR of V: Q^T y's entries from len(pivots)
        # on are y's coordinates in the null space of V^T, and Q y applies
        # the reflectors, each its own inverse, in reverse order
        reflectors, r = _householder([v for _, v, _ in pivots])[0], len(pivots)
        flat = _apply_qt(reflectors[::-1], [0.0] * r + _apply_qt(reflectors, gs)[r:])
        curved = list(map(sub, gs, flat))
    else:  # no flat pivot: g is all curved
        flat, curved = [0.0] * k, gs
    # curved = V a (forward substitution on the pivot rows); then V^T x = a / s
    # (back substitution) gives a solution on the pivot coordinates, and
    # removing its null-space part leaves the one of least norm
    a = []
    for p, _, _ in pivots:
        acc = 0.0
        for ai, (_, v, _) in zip(a, pivots):
            acc += ai * v[p]
        a.append(curved[p] - acc)
    x = [0.0] * k
    for (p, v, s), ai in zip(reversed(pivots), reversed(a)):
        x[p] = ai / s - sum(map(mul, v, x))
    if rest:  # x's part in the range of V
        x = _apply_qt(reflectors[::-1], _apply_qt(reflectors, x)[:r] + [0.0] * (k - r))
        flat = list(map(truediv, flat, d))
    return list(map(truediv, x, d)), flat


# ---------------------------------------------------------------------------
# the concave dual of the min-norm problem
# ---------------------------------------------------------------------------


def _max_dual(
    prob: _LsqProblem, mixes: Sequence[Sequence[float]]
) -> tuple[tuple, int, Literal["done", "stalled", "cap"]]:
    """_projected_newton's (state, steps, end) for the climb to the weights
    w >= 0 that maximize the dual: the state it ends on holds D (state[3]),
    the mix v / |v| per unit of ceiling that the last evaluation priced
    (state[7]) and v = w c (state[8]).

    The min-norm point of {x in [0,1]^n : price(M w) <= w . (u + d x) for
    all w >= 0} has the Lagrangian dual
    D(w) = price(M w) - w . u + sum_i psi(w_i d_i), psi(s) = -s^2 / 2 for
    s <= 1 and 1/2 - s above, whose inner minimizer is x(w) = min(w d, 1).
    D is concave. Its gradient is grad price(M w) - u - d x(w), and its
    Hessian the mix price's less diag(d^2) where w_i d_i < 1, so one
    value_grad_hess call gives both. At the maximizer the adjusted prices
    equal the mix price's gradient on the support of w, so w / |w| is a
    tight mix by Euler's identity, and D = |x|^2 / 2 certifies minimality.
    The climb runs on v alone, value_grad_hess's scale, where
    D = price(v) - v . u / c + sum_i psi(v_i d_i / c_i), and the caller
    forms w = v / c, so that rescaling a game leaves x unchanged. It starts
    from the mix p (per unit of ceiling, on the simplex) with the largest D at
    its best scale b / |a|^2, a = p d / c and b = price(p) - p . u / c (D's
    maximum along p while b a / |a|^2 <= 1), and runs _projected_newton on
    v >= 0. least_squares_prices passes the uniform mix, led by the oracle's
    worst mix at x = 0 when it ran that call. One value_grad_hess call at p
    gives a start's b and its first state, so a mix the caller has already
    evaluated is not priced again. In _projected_newton's state layout the
    level is D, with a slack of 1e-14 sum(v), and the stop value is the
    largest entry of the projected gradient, with a bound of 1e-15: the
    climb stops when that gradient vanishes to rounding, when no halving
    raises D, or at the iteration cap; whichever ended it, its last state
    is returned, and the oracle's certificate at its point says how far it
    is from feasible.
    """
    uc, dc = prob._uc, prob._dc  # u / c and d / c

    def at(v: list[float], p: list[float], total: float):
        """The climb state at v = total p: (D, dD/dv, its Hessian, D,
        1e-14 sum(v), the projected gradient's largest entry, 1e-15, p, v)."""
        # the mix price is 1-homogeneous and its Hessian (-1)-homogeneous:
        # both are solved on the simplex and scaled to v = total p
        price, grad, hess = prob.value_grad_hess(p)
        vu = psi = 0.0  # v . u / c and sum_i psi(s_i)
        g, H, pgs = [], [], []
        for j, (gj, ucj, dcj, vj, row) in enumerate(zip(grad, uc, dc, v, hess)):
            sj = vj * dcj  # w d
            vu += vj * ucj
            psi += -0.5 * sj * sj if sj <= 1.0 else 0.5 - sj
            gj -= ucj + dcj * (1.0 if sj > 1.0 else sj)  # min(s, 1)
            g.append(gj)
            pgs.append(abs(gj) if vj > 0.0 else gj)  # projected gradient entry
            Hj = []
            for hjk in row:
                Hj.append(hjk / total)
            if sj < 1.0:
                Hj[j] -= dcj * dcj
            H.append(Hj)
        value = price * total - vu + psi
        # D may fall by its rounding while the projected gradient shrinks:
        # D's terms are at most sum(v) and cancel
        return value, g, H, value, 1e-14 * total, max(pgs), 1e-15, p, v

    def evaluate(v: list[float]):
        total, p = sum(v), []
        for vi in v:
            p.append(vi / total)
        return at(v, p, total)

    state = None  # the start with the largest D, the first of equals as max picks it
    for p in mixes:
        b = prob.value_grad_hess(p)[0] - _dot(p, uc)
        if b > 0.0:
            norm = math.hypot(*map(mul, p, dc))  # |a|^2 can underflow where |a| does not
            scale = b / norm / norm
            start = at([scale * pi for pi in p], p, scale)
            if state is None or start[0] > state[0]:
                state = start
    if state is None:
        raise PricingError("no start mix is priced above its stand-alone prices")

    return _projected_newton(evaluate, state)


# ---------------------------------------------------------------------------
# nonnegative least squares and the cone the games span
# ---------------------------------------------------------------------------


def _householder(cols: list[list[float]]) -> tuple[list, list[list[float]]]:
    """Householder QR of the columns: (reflectors, R).

    Reflector i is (i, v, beta) with Q_i = I - v v^T / beta acting on the
    entries from i on, and Q^T = Q_r ... Q_1; R[i] holds column i of R, its
    first i + 1 entries. A column already zero from i on needs no reflector.
    """
    work = [list(col) for col in cols]
    m = len(work[0]) if work else 0
    reflectors, R = [], []
    for i, col in enumerate(work):
        if i < m:
            v = col[i:]
            alpha = -math.copysign(math.sqrt(_dot(v, v)), v[0])
            v[0] -= alpha
            beta = -alpha * v[0]  # v.v / 2
            if beta > 0.0:
                reflectors.append(reflector := (i, v, beta))
                for other in work[i + 1:]:
                    _reflect(reflector, other)
                col[i] = alpha  # R's diagonal; below it, R is zero and not stored
        R.append(col[:i + 1] if i < m else col + [0.0] * (i + 1 - m))
    return reflectors, R


def _reflect(reflector: tuple, y: list[float]) -> None:
    """Apply one Householder reflector to y in place."""
    i, v, beta = reflector
    c = _dot(v, y[i:]) / beta
    for j, vj in enumerate(v, i):
        y[j] -= c * vj


def _apply_qt(reflectors: list, y: Sequence[float]) -> list[float]:
    """Q^T y."""
    y = list(y)
    for reflector in reflectors:
        _reflect(reflector, y)
    return y


def _back_substitute(R: list[list[float]], c: Sequence[float]) -> list[float]:
    """x with R x = c[:len(R)], R by columns as from _householder; 0 where R_ii is."""
    x = [0.0] * len(R)
    for i in reversed(range(len(R))):
        if R[i][i] != 0.0:
            x[i] = (c[i] - sum(R[k][i] * x[k] for k in range(i + 1, len(R)))) / R[i][i]
    return x


def _nnls_cols(
    cols: Sequence[Sequence[float]], b: Sequence[float], qr: Optional[tuple] = None
) -> list[float]:
    """argmin |A x - b| over x >= 0, A given by its columns, by Lawson and
    Hanson's active-set method.

    The problem is invariant under positive column scaling, so the columns are
    scaled to unit norm first: the entering test and its tolerance then weigh
    games whose payoffs span many orders of magnitude alike. Each passive set
    is solved through a Householder QR of its columns, which stays stable on
    nearly proportional columns. One rule admits a column: the residual r
    is orthogonal to the passive columns, so only a_j's part p_j off their
    span can reduce it, by p_j . r / |p_j| per unit step, and a_j enters a
    trial when p_j . r exceeds max(tol |p_j|, rounding). The other columns
    are tried in decreasing a_j . r = p_j . r down to the first below -tol;
    the first whose trial gives it a positive coefficient enters, and the
    solve stops when none does. A column with a_j . r > tol passes without
    p_j, as |p_j| <= 1 and |r| <= |b|: the gradient test is the cheap case
    of the rule. It alone would miss a column nearly parallel to a passive
    one, whose a_j . r shrinks with |p_j| below tol while the residual it
    would remove is far above it. Below row k = len(passive), Q^T a_j holds
    p_j's coordinates and Q^T r those of r, both formed only when needed.
    The QR computes p_j's direction to about eps max(m, n) of the unit
    column, so rounding = 10 eps max(m, n) |r| bounds the error in p_j . r,
    with tol's factor 10. A step that reaches the boundary drops its blocking
    column explicitly: waiting for the stepped coefficient to round to zero
    can cycle forever on nearly parallel columns. A zero column keeps a zero
    coefficient. Given qr, _unit_qr of the columns, the solve starts with
    every column passive: that least-squares point, positive beyond qr's
    rounding bound, is the NNLS point, and is returned at once.
    """
    b = _float_tuple(b, "b")
    n, m = len(cols), len(b)
    norms = [math.hypot(*col) or 1.0 for col in cols]  # no square under- or overflows
    if qr is not None:
        z = _back_substitute(qr[1], _apply_qt(qr[0], b))
        if min(z) > qr[4] * math.sqrt(_dot(z, z)):
            return [zj / nj for zj, nj in zip(z, norms)]
    A = [[a / nj for a in col] for col, nj in zip(cols, norms)]
    tol = 10.0 * _EPS * max(m, n) * math.hypot(*b)
    x = [0.0] * n
    passive: list[int] = []
    reflectors: list = []  # of the Householder QR of the passive columns

    def solve(passive: list[int]) -> tuple[list[float], list]:
        """Least squares on the passive columns, zero elsewhere, and the
        reflectors of their QR."""
        reflectors, R = _householder([A[j] for j in passive])
        z = [0.0] * n
        for j, cj in zip(passive, _back_substitute(R, _apply_qt(reflectors, b))):
            z[j] = cj
        return z, reflectors

    for _ in range(3 * n):
        r = list(b)
        for j in passive:
            r = [ri - x[j] * aij for ri, aij in zip(r, A[j])]
        w = {j: _dot(A[j], r) for j in range(n) if j not in passive}
        r_perp = None
        for j in sorted(w, key=w.__getitem__, reverse=True):
            if w[j] <= tol:
                # with no passive column p_j = a_j, and past -tol no column enters
                if w[j] < -tol or not passive:
                    return [xj / nj for xj, nj in zip(x, norms)]
                if r_perp is None:
                    k = len(passive)
                    r_perp = _apply_qt(reflectors, r)[k:]
                    rounding = 10.0 * _EPS * max(m, n) * math.hypot(*r)
                p = _apply_qt(reflectors, A[j])[k:]
                if _dot(p, r_perp) <= max(tol * math.sqrt(_dot(p, p)), rounding):
                    continue
            trial = sorted([*passive, j])
            z, trial_reflectors = solve(trial)
            if z[j] > 0.0:
                passive, reflectors = trial, trial_reflectors
                break
        else:
            return [xj / nj for xj, nj in zip(x, norms)]
        while any(z[i] <= 0.0 for i in passive):
            blocked = [i for i in passive if z[i] <= 0.0]
            steps = [x[i] / (x[i] - z[i]) for i in blocked]
            k = steps.index(min(steps))
            x = [xi + steps[k] * (zi - xi) for xi, zi in zip(x, z)]
            passive = [i for i in passive if i != blocked[k] and x[i] > 0.0]
            z, reflectors = solve(passive)
        x = z
    raise PricingError(f"NNLS iteration cap {3 * n} hit")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def ls_ratio(
    basis: ConeBasis, rate: Rate, t: Sequence[float], p: Mix | Sequence[float]
) -> float:
    """Ratio of a mix's stand-alone price to its adjusted linear price."""
    prob = _LsqProblem(basis, rate)
    adj = prob.adjusted_prices(_check_t(t, basis.n))
    p = _mix_weights(p, basis.n)
    return prob.price_mix(p) / _dot(p, adj)


def big_L(
    basis: ConeBasis, rate: Rate, t: Sequence[float]
) -> tuple[float, Mix]:
    """Worst-case ratio over all mixes, with an attaining mix."""
    prob = _LsqProblem(basis, rate)
    val, p = prob.oracle(prob.adjusted_prices(_check_t(t, basis.n)))
    return val, Mix(p)


def _check_t(t, n: int) -> list[float]:
    values = _float_tuple(t, "t")
    if len(values) != n:
        raise InvariantViolation(f"t must have length {n}")
    if min(values) < -1e-15 or max(values) > 1.0 + 1e-15:
        raise InvariantViolation("t must lie in [0, 1]^n")
    return [min(max(v, 0.0), 1.0) for v in values]


def least_squares_prices(
    basis: ConeBasis,
    rate: Rate,
    *,
    tol_L: float = DEFAULT_L_TOL,
) -> LsSolution:
    """Min-norm feasible coordinates and the prices they induce, per game.

    The caller's games are factored once (_unit_qr), and the solve first
    asks whether some mix of them pays a constant, by the very call
    check_constant_mix makes (_constant_mix). One that does pins every
    price at its ceiling: x is 1 wherever d = c - u > 0 and 0 elsewhere,
    and every game, the basis of the solution, is priced at u + x d. No
    mix is priced above its ceiling E/g (Jensen), so L(x) <= 1 without a
    climb, and max_violation is 0 with no price solve; the NNLS k's mix
    k / sum(k), which attains L = 1, is the certificate. The ceilings are
    linear on the whole cone, so that exit needs no basis reduction.

    Otherwise the solve runs on the extreme rays of the cone the games span
    (reduce_to_basis, from the same QR), on the caller's basis itself when
    none is dropped, so one cone gets one price system. A dropped game j is
    priced by linearity at k_j . prices, k_j its coordinates (per unit of
    largest payoff, as no such k_j overflows), with x_j = (price_j - u_j) /
    d_j (0 when d_j = 0) clamped to [0, 1], which moves it by at most
    tol_L u_j / d_j and the cone test's 1e-9, so that big_L and ls_ratio
    take the solution's x as it is; its weight in the certificate is 0.
    The uniform mix is priced first. When it alone proves
    L(0) > 1 + max(tol_L, 0) (_proves_nonlinear), prices are not linear and
    the oracle at x = 0 is skipped; else one oracle call at x = 0 decides
    whether they are (L(0) <= 1 + tol_L, x = 0). When they are not,
    x = min(w d, 1) at the maximizer w >= 0 of the concave dual (_max_dual),
    certified by the oracle from the tight mix w / |w|. The dual starts from
    the better of the uniform mix and the oracle's worst mix at x = 0 when
    that call ran: any mix is a start, D being concave, and the uniform one
    matters where the worst sits on a game whose stand-alone price is near
    0. Each mix is priced once: the starts reuse the first pricing and the
    oracle's last evaluation, and the certificate's maximize starts from the
    dual's last mix. There the dual's maximizer makes that mix tight, so it
    is usually certified at once, and maximize returns it without a climb.
    Both climbs return the state they end on (_projected_newton's layout),
    and the solve reads each such state once: the ratio and the mix of a
    maximize, and the dual's point v = w c and last mix, with x = min(w d, 1)
    formed from w = v / c. The climbs' mixes are per unit of ceiling
    (_LsqProblem), and the certificate is the last one in the games' own
    weights: on a linear basis, where every mix is tight, the uniform mix
    per unit of ceiling. LsSolution.termination records which exit was
    taken.
    """
    games = basis.games
    cols = [g.payoff_tuple for g in games]
    qr = _unit_qr(cols)
    # whether some mix pays a constant, as check_constant_mix asks: then every
    # price is its ceiling, linear on the whole cone, and no game is dropped
    k = _constant_mix(cols, qr)
    keep, coords = _extreme_rays(games, qr) if k is None else (list(range(len(games))), {})
    if coords:  # a game is dropped
        basis = ConeBasis(basis.space, [games[i] for i in keep])
    prob = _LsqProblem(basis, rate)

    def solution(x, pstar, violation: float, iterations: int, termination: Termination):
        prices, u, c = prob.adjusted_prices(x), prob.u_tuple, prob.c_tuple
        norm = _dot(x, x)
        if coords:  # by linearity
            kept = dict(zip(keep, zip(u, c, prices, x, pstar)))
            unit = [pi / max(games[i].payoff_tuple) for pi, i in zip(prices, keep)]

            def linear(j):  # (u, c, price, x, weight) of dropped game j
                col = games[j].payoff_tuple
                uj, cj = prob.standalone(col)
                pj = max(col) * _dot(coords[j], unit)  # per unit of largest payoff
                return uj, cj, pj, 0.0 if cj - uj <= 0.0 else min(
                    max((pj - uj) / (cj - uj), 0.0), 1.0), 0.0
            u, c, prices, x, pstar = zip(*(linear(j) if j in coords else kept[j]
                                           for j in range(len(games))))
        return LsSolution(tuple(x), tuple(prices), Mix(pstar), norm, iterations,
                          violation, tuple(u), tuple(c), termination, tuple(keep))

    if k is not None:
        # every feasible point has x_i = 1 wherever d_i > 0 (check_constant_mix),
        # and L(x) <= 1 there by Jensen's inequality, attained at k's mix
        x = [1.0 if di > 0.0 else 0.0 for di in prob.d_tuple]
        total = sum(k)
        return solution(x, [ki / total for ki in k], 0.0, 1, "constant_mix")

    x = [0.0] * prob.n
    starts = [[1.0 / prob.n] * prob.n]
    if not _proves_nonlinear(prob, tol_L):
        state = prob.maximize(prob.adjusted_prices(x), starts[0])[0]
        if state[3] <= 1.0 + max(tol_L, 0.0):
            # L(0) <= 1 makes x = 0 exact, and the dual's maximum w = 0
            end = "linear" if state[3] - 1.0 <= tol_L else "stalled"
            return solution(x, prob.raw_mix(state[7]), state[3] - 1.0, 1, end)
        starts.insert(0, state[7])
    state, steps, _ = _max_dual(prob, starts)
    x = [min(vi / ci * di, 1.0) for vi, ci, di in zip(state[8], prob.c_tuple, prob.d_tuple)]
    state = prob.maximize(prob.adjusted_prices(x), state[7])[0]
    end = "newton" if state[3] - 1.0 <= tol_L else "stalled"
    return solution(x, prob.raw_mix(state[7]), state[3] - 1.0, steps, end)


def _proves_nonlinear(prob: _LsqProblem, tol_L: float) -> bool:
    """Whether the uniform mix alone shows L(0) > 1 + max(tol_L, 0), so that
    the oracle at x = 0 would not end at or below that threshold: the test
    least_squares_prices and check_linear_pricing make before that call.

    The ratio at any mix is a lower bound on L(0). The certified oracle may
    stop up to ORACLE_GAP below L(0), so the mix must clear the threshold by
    that much, and as much again for the rounding of the price solves.
    """
    p = [1.0 / prob.n] * prob.n  # per unit of ceiling, as the solve's start
    threshold = (1.0 + max(tol_L, 0.0)) * (1.0 + 2.0 * ORACLE_GAP)
    return prob.value_grad_hess(p)[0] > threshold * _dot(p, prob._uc)


def check_constant_mix(basis: ConeBasis) -> Optional[tuple[Mix, tuple[int, ...]]]:
    """A mix with outcome-independent payoff, if one exists, with its support.

    When found, every game's least-squares price is pinned to its ceiling
    E/g, not only the supported ones. The mix pays some K > 0 and is priced
    at K/g, its linear price at most, which pins the supported games. Adding
    a small weight eps of any game a_i keeps the payoff K + eps a_i in the
    full-investment regime, where the price's gradient in the payoffs is
    probs / g, so L(t) <= 1 needs adjusted_i >= E_i / g to first order in
    eps: t_i = 1. Payoffs are nonnegative and no game is all zero, so every
    constant mix is k / sum(k) for some k >= 0 with M k = 1, and one exists
    exactly when the payoff vector 1 lies in the games' cone. The cone test
    decides (_constant_mix): |M k - 1| (2-norm) within CONE_TOL for the NNLS
    k, started from the QR of the games (_unit_qr), so a least-squares k
    positive beyond its rounding needs no active-set step, unless that QR's
    least-squares residual already rules every k out. least_squares_prices
    makes this very call, _constant_mix on the QR of the caller's games,
    before any basis reduction, and takes k's mix, so the solve ends
    "constant_mix" exactly when this returns a mix. Here, to find the largest
    support, each game j with k_j = 0 is then probed, as k can leave out a
    game that some other constant mix uses (dependent games, or games equal
    to within CONE_TOL): the homogenized NNLS [M_-j, -1] (k', lam) = -M_j
    gives a witness w = (k', 1) / lam when lam > 0, kept when it passes the
    same test. The mean of k and the kept witnesses, each as a mix, has the
    largest support any constant mix has."""
    cols = [g.payoff_tuple for g in basis.games]
    k = _constant_mix(cols, _unit_qr(cols))
    if k is None:
        return None
    ones = [1.0] * len(cols[0])
    mixes = [k]
    for j in [j for j, kj in enumerate(k) if kj == 0.0]:
        z = _nnls_cols(cols[:j] + cols[j + 1:] + [[-1.0] * len(ones)], [-a for a in cols[j]])
        if z[-1] > 0.0:  # k' on the others, 1 on game j
            w = [wi / z[-1] for wi in z[:j] + [1.0] + z[j:-1]]
            if _residual(cols, w, ones) <= CONE_TOL:
                mixes.append(w)
    mixes = [[wi / total for wi in w] for w, total in zip(mixes, map(sum, mixes))]
    found = Mix([sum(col) / len(mixes) for col in zip(*mixes)])
    return found, tuple(i for i, pi in enumerate(found.weight_tuple) if pi > 1e-9)


def _constant_mix(cols: Sequence[Sequence[float]],
                  qr: Optional[tuple]) -> Optional[list[float]]:
    """k >= 0 with M k = 1 to CONE_TOL, M by its columns and qr their
    _unit_qr, or None: the cone test of _cone_fit for the payoff vector 1,
    which lies in the games' cone exactly when some mix k / sum(k) pays a
    constant. The NNLS k starts from qr, and passes when its residual
    |M k - 1| (2-norm, _residual) is within CONE_TOL. With fewer games than
    outcomes, the least-squares residual rho = |(Q^T 1)[n:]| first rules
    every k out where it can, with no NNLS; with n >= m rho is 0, and
    without qr it is not formed."""
    n, m = len(cols), len(cols[0])
    ones = [1.0] * m
    if qr is not None and n < m:
        # |M k - 1| >= rho for every k, signed or not. _residual forms
        # M k - 1 from nonnegative terms, to about n sqrt(m) eps where it
        # reads a k within CONE_TOL: such a k is within 2 CONE_TOL exactly,
        # and then rho <= 2 CONE_TOL. The computed rho is within
        # rounding |1| = sqrt(m) rounding of the exact one (_unit_qr), so a
        # computed rho above 2 CONE_TOL + sqrt(m) rounding leaves no k that
        # passes. Either margin alone would do, so dropping one moves no
        # answer: rounding's factor of 100 covers _residual's error, and
        # CONE_TOL covers the QR's own, since a passing k on the unit
        # columns has norm at most |M k| (the columns are nonnegative), so
        # the QR moves rho by a few eps m n sqrt(m) at most.
        r = _apply_qt(qr[0], ones)[n:]
        if math.hypot(*r) > 2.0 * CONE_TOL + math.sqrt(m) * qr[4]:
            return None
    k = _nnls_cols(cols, ones, qr)
    return k if _residual(cols, k, ones) <= CONE_TOL else None


def check_linear_pricing(basis: ConeBasis, rate: Rate) -> bool:
    """True when mix prices are linear along the whole simplex.

    Linearity means the least-squares prices equal the stand-alone ones
    (x = 0), that is L(0) = 1: the certified oracle's worst ratio at t = 0
    is within DEFAULT_L_TOL of 1. The uniform mix is priced first, and when
    it alone proves L(0) above that (_proves_nonlinear, the rule the solve
    uses), the answer is False without the oracle. Raises PricingError when
    the oracle cannot certify its bound.
    """
    prob = _LsqProblem(basis, rate)
    if _proves_nonlinear(prob, DEFAULT_L_TOL):
        return False
    return prob.oracle(prob.adjusted_prices([0.0] * prob.n))[0] <= 1.0 + DEFAULT_L_TOL


def _cone_fit(
    cols: Sequence[Sequence[float]], target: Sequence[float]
) -> tuple[list[float], float]:
    """Coefficients k >= 0 with M k closest to target, by NNLS, and how close.

    M is given by its columns. The distance is |M k - target| (2-norm) over
    the target's largest payoff, which is positive because no game is all
    zero; scaling all payoffs leaves the distance unchanged. The cone tests
    compare it with CONE_TOL.
    """
    k = _nnls_cols(cols, target)
    return k, _residual(cols, k, target)


def _residual(
    cols: Sequence[Sequence[float]], k: Sequence[float], target: Sequence[float]
) -> float:
    """|M k - target| (2-norm) over the target's largest payoff, M by its
    columns: the one distance every cone test compares with CONE_TOL."""
    r = list(target)
    for col, kj in zip(cols, k):
        r = [ri - kj * a for ri, a in zip(r, col)]
    return math.hypot(*r) / max(map(abs, target))  # r . r can underflow


def cone_coordinates(basis: ConeBasis, game: Game) -> np.ndarray:
    """Nonnegative coefficients representing a game in the basis, by NNLS.

    Raises BasisError when the game does not lie in the cone: the least
    nonnegative residual exceeds CONE_TOL of the game's largest payoff. The
    coefficients come as a read-only float64 array.
    """
    k, residual = _cone_fit([g.payoff_tuple for g in basis.games], game.payoff_tuple)
    if residual > CONE_TOL:
        raise BasisError(f"game lies outside the cone: relative residual {residual:.3g}")
    return _frozen_array(k)


def in_cone(basis: ConeBasis, game: Game) -> bool:
    """Whether a game is a nonnegative combination of the basis games.

    The same test as cone_coordinates: the least nonnegative residual
    (2-norm, by NNLS) is within CONE_TOL of the game's largest payoff.
    """
    cols = [g.payoff_tuple for g in basis.games]
    return _cone_fit(cols, game.payoff_tuple)[1] <= CONE_TOL


def _unit_qr(cols: Sequence[Sequence[float]]) -> Optional[tuple]:
    """(reflectors, R, norms, inv2, rounding) of the Householder QR A = QR of
    the columns scaled to unit norm; None with more columns than rows or a
    zero pivot. Row i of A^+ = R^-1 Q^T is e_i / |e_i|^2, e_i column i's part
    orthogonal to the others, so inv2[i] = |row i of R^-1|^2 is one over its
    squared distance from their span. Perturbing A by E moves that distance
    by at most 2 |E| |A^+| of itself, and a vector b's distance from the span
    by 2 |E| |A^+| |b|; the QR's |E| is a few eps m n and |A^+| <= |R^-1|_F,
    so rounding = 100 eps m n |R^-1|_F bounds both factors."""
    n, m = len(cols), len(cols[0])
    if n > m:
        return None
    norms = [math.hypot(*col) for col in cols]  # no square under- or overflows
    unit = [[a / nj for a in col] for col, nj in zip(cols, norms)]
    reflectors, R = _householder(unit)
    if 0.0 in [R[k][k] for k in range(n)]:
        return None
    inv2 = []  # by forward substitution in R^T y = e_k
    for k in range(n):
        y = [1.0 / R[k][k]]
        for j in range(k + 1, n):
            y.append(-_dot(R[j][k:j], y) / R[j][j])
        inv2.append(_dot(y, y))
    return reflectors, R, norms, inv2, 100.0 * _EPS * m * n * math.sqrt(sum(inv2))


def _reduce_to_basis(games: Sequence[Game], qr: Optional[tuple]) -> tuple[list, list]:
    """reduce_to_basis as lists, with the kept indices, on the games of a
    ConeBasis, given _unit_qr of their payoff columns, and on each game per
    unit of its largest payoff, so that no coordinate exceeds 1 by more than
    CONE_TOL (_extreme_rays)."""
    keep, coords = _extreme_rays(games, qr)
    return keep, [coords[i] if i in coords else [float(i == j) for j in keep]
                  for i in range(len(games))]


def _extreme_rays(games: Sequence[Game], qr: Optional[tuple]) -> tuple[list[int], dict]:
    """_reduce_to_basis's kept indices, with the coordinates of each game it
    drops, by index. A game farther than CONE_TOL of its largest payoff from
    the others' span, beyond _unit_qr's rounding, is kept without an NNLS,
    and when every game is, none is rescaled. Each drop can move the cone by
    up to CONE_TOL, so every dropped game is then fitted against the kept
    games, and those farther than CONE_TOL from their cone are restored,
    until none is."""
    cols = [g.payoff_tuple for g in games]
    far = [False] * len(cols) if qr is None else [
        (1.0 - qr[4]) * nj > CONE_TOL * max(col) * math.sqrt(r2)
        for col, nj, r2 in zip(cols, qr[2], qr[3])]
    keep = list(range(len(games)))
    if all(far):  # every game is kept without an NNLS, so none is rescaled
        return keep, {}
    cols = [[a / top for a in col] for col, top in zip(cols, map(max, cols))]
    for i in reversed(range(len(games))):
        others = [j for j in keep if j != i]
        if not far[i] and others and _cone_fit([cols[j] for j in others],
                                               cols[i])[1] <= CONE_TOL:
            keep = others
    while True:  # each drop can move the cone by CONE_TOL: restore what left it
        fits = {i: _cone_fit([cols[j] for j in keep], col)
                for i, col in enumerate(cols) if i not in keep}
        outside = [i for i, (_, residual) in fits.items() if residual > CONE_TOL]
        if not outside:
            return keep, {i: k for i, (k, _) in fits.items()}
        keep = sorted(keep + outside)


def reduce_to_basis(
    games: Sequence[Game], space: OutcomeSpace
) -> tuple[ConeBasis, np.ndarray]:
    """Extreme rays of the cone the games span, plus each game's coordinates.

    Valid on any outcome space. From the last game to the first, a game is
    dropped while it lies in the cone of the games still kept (the test of
    cone_coordinates). Each drop can move the cone by up to that test's
    CONE_TOL, so a dropped game that lies farther than CONE_TOL from the
    kept games' cone is restored to the basis, until none does: every game
    lies in the cone of the basis by the same test. The kept games form
    the basis in input order;
    row i of the coordinates, a read-only float64 array, represents
    games[i] in it: a unit vector for a kept game, inf where a coordinate
    passes the float range, and 0 where it falls below it, so that
    price_in_cone of such a row loses the term; least_squares_prices prices
    each dropped game per unit of its largest payoff and keeps it. The games
    must make a ConeBasis on the space: a nonempty set, each of the space's
    length.
    """
    games = ConeBasis(space, games).games
    keep, coords = _reduce_to_basis(games, _unit_qr([g.payoff_tuple for g in games]))
    tops = [max(g.payoff_tuple) for g in games]
    coords = [[kj * ti / tops[j] for kj, j in zip(k, keep)]
              for k, ti in zip(coords, tops)]
    return ConeBasis(space, [games[i] for i in keep]), _frozen_array(coords)


def price_in_cone(solution: LsSolution, k: Sequence[float]) -> float:
    """Linear price of the cone point with coefficients k at the solved prices."""
    return _dot(_cone_coefficients(k, len(solution.price_tuple)), solution.price_tuple)
