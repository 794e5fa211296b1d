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
c_i > u_i, so it is returned at once; prices are linear exactly when one
oracle call certifies L(0) <= 1. LsSolution.termination says which way a
solve ended. One projected-Newton routine (_projected_newton) makes both
climbs: the oracle's, on a concave reparametrization of the ratio over the
mix simplex, and the dual's, over w >= 0. Both take the mix price's exact
gradient and Hessian from one price solve, and the routine splits each
Newton step into its curved and flat parts by a pivoted LDL^T
factorization. The oracle stops only when the upper bound max_i dh/dy_i
(Euler's identity plus concavity) is within 1e-10 relative of its value.
Every question about the cone the games span is one nonnegative
least-squares (NNLS) problem, solved by Lawson and Hanson's active-set
method on a Householder QR of its passive columns: whether a game lies in
it and with which coefficients, which games are its extreme rays, and
whether some mix pays a constant, with the largest support such a mix can
have; one QR of the games, with a bound on its rounding, settles the clear
cases first. Everything runs on plain Python floats, so solving imports no
numpy; the functions that return arrays build them on the way out.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from operator import mul, sub

from .core import (
    BasisError,
    ConeBasis,
    Game,
    InvariantViolation,
    Mix,
    OutcomeSpace,
    PricingError,
    Rate,
    _check_aligned,
    _cone_coefficients,
    _dot,
    _float_tuple,
    _frozen_array,
    _payoff_rows,
    _Record,
    is_fair_coin,
)
from .pricer import KappaContext, _price_fair, _price_numeric

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Literal, Optional, Sequence

    import numpy as np

    Termination = Literal["constant_mix", "linear", "newton", "stalled"]

DEFAULT_L_TOL = 1e-9

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
    them. certificate is a mix whose stand-alone price equals its linear
    price at the solution; max_violation is the final L - 1 seen by the solver.
    termination says how the solve ended: "constant_mix" (x pinned by a
    constant mix), "linear" (the oracle certified L(0) <= 1 + tol_L, so
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

    @cached_property
    def x(self) -> np.ndarray:
        return _frozen_array(self.x_tuple)

    @cached_property
    def prices(self) -> np.ndarray:
        return _frozen_array(self.price_tuple)

    @cached_property
    def standalone(self) -> np.ndarray:
        return _frozen_array(self.standalone_tuple)

    @cached_property
    def ceilings(self) -> np.ndarray:
        return _frozen_array(self.ceiling_tuple)

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
    and d = max(c - u, 0). The solver works on them and on the plain-float
    methods; u and d, adjusted and big_L give arrays, built on request, for
    callers that hold arrays.
    """

    def __init__(self, basis: ConeBasis, rate: Rate):
        self.basis = basis
        self.rate = rate
        self.space = basis.space
        self._probs_list = list(self.space.prob_tuple)
        # the hot loops run on plain floats (numpy overhead dominates at these
        # sizes): payoff rows for M p, columns for M^T dprice
        self._cols = [g.payoff_tuple for g in basis.games]
        self._rows = _payoff_rows(basis.games)
        self.g = rate.growth_factor()
        self._fair = is_fair_coin(self.space)
        self._kappa = KappaContext.from_rate(rate).kappa
        self.n = basis.n
        self.u_tuple = tuple(self.price_full(list(col))[0] for col in self._cols)
        self.c_tuple = tuple(_dot(self._probs_list, col) / self.g for col in self._cols)
        self.d_tuple = tuple(max(ci - ui, 0.0)
                             for ci, ui in zip(self.c_tuple, self.u_tuple))
        self.scale = max(self.c_tuple)

    @cached_property
    def u(self) -> np.ndarray:
        return _frozen_array(self.u_tuple)

    @cached_property
    def d(self) -> np.ndarray:
        return _frozen_array(self.d_tuple)

    def price_full(self, payoffs: list[float]) -> tuple[float, float]:
        """(price, proportion) of an arbitrary payoff list on the space."""
        if self._fair and payoffs[0] > 0.0 and payoffs[1] > 0.0:
            return _price_fair(payoffs[0], payoffs[1], self.g, self._kappa)
        u, t, _, _ = _price_numeric(payoffs, self._probs_list, self.rate)
        return u, t

    def price_mix(self, p: Sequence[float]) -> float:
        return self.price_full([_dot(row, p) for row in self._rows])[0]

    def adjusted_prices(self, t: Sequence[float]) -> list[float]:
        """u + t d."""
        return [ui + ti * di for ui, ti, di in zip(self.u_tuple, t, self.d_tuple)]

    def adjusted(self, t: Sequence[float]) -> np.ndarray:
        """adjusted_prices(t) as an array."""
        import numpy as np

        return np.array(self.adjusted_prices(t))

    def ratio(self, t: Sequence[float], p: Sequence[float]) -> float:
        return self.price_mix(p) / _dot(p, self.adjusted_prices(t))

    def value_grad_hess(
        self, p: Sequence[float]
    ) -> tuple[float, list[float], list[list[float]]]:
        """Mix price at p with its gradient and Hessian in p, from one price solve.

        In the payoffs a the gradient is gamma = probs u / (D W), with
        D = u + t (a - u) and W = E[a / D], by the envelope theorem at the
        solved (u, t). Its Jacobian follows from differentiating gamma through
        u (du/da = gamma) and through t, whose derivative dt the implicit
        function theorem gives from the first-order condition
        E[(a - u) / D] = 0; dW is W's. With e = gamma / D, f = e (a - u) and
        G, E, F, T, V = M^T gamma, e, f, dt, dW the Hessian in the weights is
        G G^T / u - (1 - t) E G^T - F T^T - G V^T / W - t M^T diag(e) M. In
        the full-investment regime the price is gm/g, and the Hessian is
        G G^T / u - M^T diag(gamma / a) M. Runs on plain floats: numpy's
        overhead dominates at these sizes.
        """
        cols = self._cols
        q = self._probs_list
        a = [sum(map(mul, row, p)) for row in self._rows]
        u, t = self.price_full(a)
        if t >= 1.0 - 1e-13:
            gamma = [qi * u / x for qi, x in zip(q, a)]
            G = [sum(map(mul, col, gamma)) for col in cols]
            w = [gi / x for gi, x in zip(gamma, a)]
            return u, G, [
                [gj * gk / u - sum(map(mul, cw, ck)) for gk, ck in zip(G, cols)]
                for gj, cw in zip(G, [list(map(mul, col, w)) for col in cols])
            ]
        D = [u + t * (x - u) for x in a]
        W = sum(qi * x / di for qi, x, di in zip(q, a, D))
        gamma = [qi * u / (di * W) for qi, di in zip(q, D)]
        # the first-order condition's partials: u probs / D^2 in a,
        # -E[a / D^2] in u and -E[(a - u)^2 / D^2] in t
        pd2 = [qi / (di * di) for qi, di in zip(q, D)]
        s_a = sum(map(mul, pd2, a))
        s_au = sum(w * x * (x - u) for w, x in zip(pd2, a))
        s_uu = sum(w * (x - u) ** 2 for w, x in zip(pd2, a))
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

    def oracle(self, t: Sequence[float]) -> tuple[float, list[float]]:
        """max of the price ratio over the mix simplex and an attaining mix."""
        return self.maximize(self.adjusted_prices(t), [1.0 / self.n] * self.n)

    def big_L(self, t: Sequence[float]) -> tuple[float, np.ndarray]:
        """oracle(t), with the mix as an array."""
        import numpy as np

        val, p = self.oracle(t)
        return val, np.array(p)

    def maximize(
        self, adj: Sequence[float], p0: Sequence[float]
    ) -> tuple[float, list[float]]:
        """max over mixes p of price(mix(p)) / (p . adj), climbing from p0.

        In y = p * adj / (p . adj) the ratio is h(y) = price(mix(y / adj)),
        concave on the simplex because the mix price is concave and
        1-homogeneous, so a local maximum is global. Euler's identity
        grad h . y = h and concavity give max h <= max_i dh/dy_i; the climb
        (_projected_newton on the simplex) runs until that bound is within
        ORACLE_GAP of the value, and raises PricingError otherwise. Along
        the flat directions of the Hessian the ratio is affine: the cash
        direction M^-1 1 of a square basis, the null space of M when there
        are more games than outcomes. A step is also taken when the bound is
        met, or when the value falls by at most ORACLE_GAP while the bound
        comes closer.
        """
        adj = _float_tuple(adj, "adj")
        inv = [1.0 / ai for ai in adj]

        def evaluate(y: list[float]):
            """(h, dh/dy, its Hessian, certificate gap, p)."""
            p = list(map(mul, y, inv))
            total = sum(p)
            p = [pi / total for pi in p]
            price, grad, hess = self.value_grad_hess(p)
            # the price is 1-homogeneous: h(y) = price(M (y / adj)) on the
            # simplex, and y / adj = total * p
            val = price * total
            g = list(map(mul, grad, inv))
            # the price's Hessian is (-1)-homogeneous: at y / adj it is
            # hess / total, and y / adj puts inv on both of its sides
            scale = [bj / total for bj in inv]
            H = [[hk * sj * bk for hk, bk in zip(row, inv)]
                 for row, sj in zip(hess, scale)]
            return val, g, H, max(g) - val, p

        def certified(state) -> bool:
            return state[3] <= ORACLE_GAP * state[0]

        def accept(new, old) -> bool:
            return certified(new) or (
                new[0] - old[0] >= -ORACLE_GAP * old[0] and new[3] < old[3])

        y = list(map(mul, _float_tuple(p0, "p0"), adj))
        total = sum(y)
        y = [yi / total for yi in y]
        state, _, end = _projected_newton(evaluate, y, evaluate(y), certified, accept,
                                          simplex=True)
        val, gap, p = state[0], state[3], state[4]
        if end != "done":
            why = end if end == "stalled" else f"iteration cap {_ORACLE_MAX_ITER} hit"
            raise PricingError(f"separation oracle {why} with gap {gap / val:.3e}")
        return val, p


def _projected_newton(
    evaluate: Callable[[list[float]], tuple],
    x: list[float],
    state: tuple,
    done: Callable[[tuple], bool],
    accept: Callable[[tuple, tuple], bool],
    *,
    simplex: bool,
) -> tuple[tuple, int, Literal["done", "stalled", "cap"]]:
    """Projected Newton (Bertsekas 1982) for a smooth concave function,
    climbing from x on x >= 0, and on sum(x) = 1 as well when simplex is set.

    evaluate(x) gives a state (value, gradient, Hessian, ...), with state
    the one at x; done(state) is the caller's stop test, made at the top of
    each step, and accept(new, old) lets a step through that Armijo's rule
    rejects. On the simplex each step drops r = argmax x and works in z, x
    without x_r = 1 - sum(z), on the box z >= 0 with sum(z) <= 1; the
    gradient in z is g_j - g_r and the Hessian H_jk - H_rk - H_rj + H_rr.
    Coordinates within eps of 0 that the gradient pushes out go to 0 (the
    epsilon-active set, eps the length of a projected gradient step and at
    most 1e-3). The others take the Newton step along the curved directions
    of their Hessian block (_newton_split), and along its flat ones a step
    on to the first bound: there the function is affine, so Newton would
    not move, and the bound is the maximum along them. The step is
    projected and halved until the value rises by Armijo's rule or accept
    passes it. Returns the last state, the steps taken, and how the climb
    ended: "done", "stalled" (a halved step would no longer move x) or
    "cap" (_ORACLE_MAX_ITER steps).
    """
    for steps in range(_ORACLE_MAX_ITER):
        if done(state):
            return state, steps, "done"
        value, g, H = state[:3]
        r = -1
        if simplex:  # into z: drop x_r
            r = x.index(max(x))
            hr = H[r]
            g = [gj - g[r] for gj in g]
            H = [[hjk - hk - hr[j] + hr[r] for hjk, hk in zip(row, hr)]
                 for j, row in enumerate(H)]
        eps = min(1e-3, math.sqrt(sum((xj - max(xj + gj, 0.0)) ** 2
                                      for xj, gj in zip(x, g))))
        out = [xj <= eps and gj < 0.0 for xj, gj in zip(x, g)]
        free = [j for j in range(len(x)) if j != r and not out[j]]
        step, flat = _newton_split([[H[j][k] for k in free] for j in free],
                                   [g[j] for j in free])
        # the function is affine along flat: go on from the Newton point to
        # the first bound, so that it is met exactly
        reach = [(x[j] + sj) / -fj for j, sj, fj in zip(free, step, flat) if fj < 0.0]
        if simplex and sum(flat) > 0.0:
            reach.append((x[r] - sum(step)) / sum(flat))
        if reach:
            alpha = max(min(reach), 0.0)
            step = [sj + alpha * fj for sj, fj in zip(step, flat)]
        d = [-xj if o else 0.0 for xj, o in zip(x, out)]
        for j, sj in zip(free, step):
            d[j] = sj
        tau = 1.0
        while True:
            x_new = [max(xj + tau * dj, 0.0) for xj, dj in zip(x, d)]
            if simplex:
                x_new[r] = 0.0
                x_r = 1.0 - sum(x_new)
                if x_r >= 0.0:
                    x_new[r] = x_r
                else:  # x_r clipped at 0: back onto the simplex
                    norm = sum(x_new)
                    x_new = [xj / norm for xj in x_new]
            if any(x_new):
                new = evaluate(x_new)
                # Armijo's rule on the projection arc: the value rises by a
                # share of what the gradient predicts for the step taken
                rise = new[0] - value
                pred = sum(map(mul, g, map(sub, x_new, x)))
                if (rise > 0.0 and rise >= _ARMIJO * pred) or accept(new, state):
                    break
            tau *= 0.5
            if tau * max(map(abs, d)) < 1e-16 * max(x):  # x would no longer move
                return state, steps, "stalled"
        x, state = x_new, new
    return state, _ORACLE_MAX_ITER, "cap"


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
    flat part is its orthogonal projection onto the null space of V^T, and
    the Newton step -H^-1 g is the minimum-norm solution of
    V diag(s) V^T x = g - flat.
    """
    k = len(g)
    if k == 0:
        return [], []
    if k == 1:  # scaled, H is -1 or flat
        return ([-g[0] / H[0][0]], [0.0]) if H[0][0] < 0.0 else ([0.0], [g[0]])
    d = [math.sqrt(-H[j][j]) if H[j][j] < 0.0 else 1.0 for j in range(k)]
    S = [[-hjk / (dj * dk) for hjk, dk in zip(row, d)] for row, dj in zip(H, d)]
    gs = [gj / dj for gj, dj in zip(g, d)]
    rest = list(range(k))
    pivots = []  # (index, column of V, pivot), in elimination order
    limit = _FLAT * max(max(S[j][j] for j in rest), 0.0)
    while rest:
        p = max(rest, key=lambda j: S[j][j])
        s = S[p][p]
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
    # an orthonormal basis of the null space of V^T: e_q for each flat
    # coordinate q, with the pivot coordinates solved by back substitution
    # (V is unit triangular in them), then Gram-Schmidt
    null = []
    for q in rest:
        z = [0.0] * k
        z[q] = 1.0
        for p, v, _ in reversed(pivots):
            z[p] = -_dot(v, z)
        for e in null:
            c = _dot(e, z)
            z = [zi - c * ei for zi, ei in zip(z, e)]
        norm = math.sqrt(_dot(z, z))
        null.append([zi / norm for zi in z])

    def project(x: list[float]) -> list[float]:
        """x's orthogonal projection onto the null space of V^T."""
        out = [0.0] * k
        for e in null:
            c = _dot(e, x)
            out = [oi + c * ei for oi, ei in zip(out, e)]
        return out

    flat = project(gs)
    curved = list(map(sub, gs, flat))
    # curved = V a (forward substitution on the pivot rows); then V^T x = a / s
    # (back substitution) gives a solution on the pivot coordinates, and
    # removing its null-space part leaves the one of least norm
    a = []
    for p, _, _ in pivots:
        a.append(curved[p] - sum(ai * v[p] for ai, (_, v, _) in zip(a, pivots)))
    x = [0.0] * k
    for (p, v, s), ai in zip(reversed(pivots), reversed(a)):
        x[p] = ai / s - _dot(v, x)
    if null:
        x = list(map(sub, x, project(x)))
    return [xi / dj for xi, dj in zip(x, d)], [fi / dj for fi, dj in zip(flat, d)]


# ---------------------------------------------------------------------------
# the concave dual of the min-norm problem
# ---------------------------------------------------------------------------


def _max_dual(
    prob: _LsqProblem, mixes: Sequence[Sequence[float]]
) -> tuple[list[float], int]:
    """Weights w >= 0 that maximize the dual, and the Newton steps taken.

    The min-norm point of {x in [0,1]^n : price(M w) <= w . (u + d x) for
    all w >= 0} has the Lagrangian dual
    D(w) = price(M w) - w . u + sum_i psi(w_i d_i), psi(s) = -s^2 / 2 for
    s <= 1 and 1/2 - s above, whose inner minimizer is x(w) = min(w d, 1).
    D is concave. Its gradient is grad price(M w) - u - d x(w), and its
    Hessian the mix price's less diag(d^2) where w_i d_i < 1, so one
    value_grad_hess call gives both. At the maximizer the adjusted prices
    equal the mix price's gradient on the support of w, so w / |w| is a
    tight mix by Euler's identity, and D = |x|^2 / 2 certifies minimality.
    Each game is measured on the scale of its ceiling, v = w c, which
    leaves x unchanged when a game is rescaled. The climb starts from the
    mix with the largest D at its best scale b / |a|^2, a = p d and
    b = price(M p) - p . u (D's maximum along p while b p d / |a|^2 <= 1),
    and runs _projected_newton on v >= 0. It stops when the projected
    gradient vanishes to rounding or no halving raises D.
    """
    c, d, u = prob.c_tuple, prob.d_tuple, prob.u_tuple
    n = prob.n

    def evaluate(v: list[float]):
        """(D, dD/dv, its Hessian, w, the projected gradient, sum(v)) at v."""
        w = [vi / ci for vi, ci in zip(v, c)]
        # the mix price is 1-homogeneous: solve it on the simplex, where the
        # payoffs keep their scale however small w is
        total = sum(w)
        price, grad, hess = prob.value_grad_hess([wi / total for wi in w])
        price *= total
        s = [wi * di for wi, di in zip(w, d)]
        value = price - sum(map(mul, w, u)) + sum(
            -0.5 * si * si if si <= 1.0 else 0.5 - si for si in s)
        g = [(gi - ui - di * min(si, 1.0)) / ci
             for gi, ui, di, si, ci in zip(grad, u, d, s, c)]
        H = [[hjk / (total * cj * ck) for hjk, ck in zip(row, c)]
             for row, cj in zip(hess, c)]
        for j in range(n):
            if s[j] < 1.0:
                H[j][j] -= (d[j] / c[j]) ** 2
        # the projected gradient's largest entry, per game on the scale of c
        pg = max(abs(gj) if vj > 0.0 else gj for vj, gj in zip(v, g))
        return value, g, H, w, pg, sum(v)

    starts = []
    for p in mixes:
        a2 = sum((pi * di) ** 2 for pi, di in zip(p, d))
        b = prob.price_mix(p) - _dot(p, u)
        if b > 0.0:
            v = [b / a2 * pi * ci for pi, ci in zip(p, c)]
            starts.append((evaluate(v), v))
    if not starts:
        raise PricingError("no start mix is priced above its stand-alone prices")
    state, v = max(starts, key=lambda start: start[0][0])

    def accept(new, old) -> bool:
        # D level to rounding while the gradient shrinks: D's terms are at
        # most w . c = sum(v) and cancel
        return new[0] - old[0] >= -1e-14 * old[5] and new[4] < old[4]

    state, steps, end = _projected_newton(
        evaluate, v, state, lambda s: s[4] <= 1e-15, accept, simplex=False)
    if end == "cap":
        raise PricingError(f"least-squares dual iteration cap {_ORACLE_MAX_ITER} hit")
    return state[3], steps


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
            x = col[i:]
            alpha = -math.copysign(math.sqrt(_dot(x, x)), x[0])
            v = x
            v[0] -= alpha
            beta = -alpha * v[0]  # v.v / 2
            if beta > 0.0:
                reflector = (i, v, beta)
                reflectors.append(reflector)
                for other in work[i + 1:]:
                    _reflect(reflector, other)
                col[i:] = [alpha] + [0.0] * (m - i - 1)
        R.append((col + [0.0] * (i + 1 - m))[:i + 1])
    return reflectors, R


def _reflect(reflector: tuple, y: list[float]) -> None:
    """Apply one Householder reflector to y in place."""
    i, v, beta = reflector
    c = _dot(v, y[i:]) / beta
    y[i:] = [yj - c * vj for yj, vj in zip(y[i:], v)]


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


def _nnls_cols(cols: Sequence[Sequence[float]], b: Sequence[float]) -> list[float]:
    """argmin |A x - b| over x >= 0, A given by its columns, by Lawson and
    Hanson's active-set method.

    The problem is invariant under positive column scaling, so the columns are
    scaled to unit norm first: the entering test and its tolerance then weigh
    games whose payoffs span many orders of magnitude alike. Each passive set
    is solved through a Householder QR of its columns, which stays stable on
    nearly proportional columns. A column whose own coefficient comes out
    nonpositive on entry is rejected for this round, and a step that reaches
    the boundary drops its blocking column explicitly: waiting for the stepped
    coefficient to round to zero can cycle forever on nearly parallel
    columns. Before stopping, a column nearly parallel to the passive ones
    gets a second entry test, on the residual it would remove
    (_orthogonal_entry). A zero column keeps a zero coefficient.
    """
    b = _float_tuple(b, "b")
    n, m = len(cols), len(b)
    norms = [math.sqrt(_dot(col, col)) or 1.0 for col in cols]
    A = [[a / nj for a in col] for col, nj in zip(cols, norms)]
    tol = 10.0 * _EPS * max(m, n) * math.sqrt(_dot(b, b))
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
        w = [-math.inf if j in passive else _dot(A[j], r) for j in range(n)]
        while True:
            j = max(range(n), key=w.__getitem__)
            if w[j] <= tol:
                j = _orthogonal_entry(A, passive, reflectors, r, w, tol)
                if j is None:
                    return [xj / nj for xj, nj in zip(x, norms)]
            trial = sorted([*passive, j])
            z, trial_reflectors = solve(trial)
            if z[j] > 0.0:
                passive, reflectors = trial, trial_reflectors
                break
            w[j] = -math.inf
        while any(z[i] <= 0.0 for i in passive):
            blocked = [i for i in passive if z[i] <= 0.0]
            steps = [x[i] / (x[i] - z[i]) for i in blocked]
            k = steps.index(min(steps))
            x = [xi + steps[k] * (zi - xi) for xi, zi in zip(x, z)]
            passive = [i for i in passive if i != blocked[k] and x[i] > 0.0]
            z, reflectors = solve(passive)
        x = z
    raise PricingError(f"NNLS iteration cap {3 * n} hit")


def _nnls(A, b) -> np.ndarray:
    """_nnls_cols on an m x n array A, as an array."""
    import numpy as np

    return np.array(_nnls_cols(np.asarray(A, dtype=float).T.tolist(), b))


def _orthogonal_entry(A, passive, reflectors, r, w, tol):
    """A column the gradient test w_j > tol misses, or None.

    Only the part p_j of column a_j orthogonal to the passive columns can
    reduce the residual r, by p_j . r / |p_j| per unit step, while
    w_j = a_j . r shrinks with |p_j|. For a column nearly parallel to a
    passive one, w_j drops below tol while the residual it would remove is
    far above it. Returns the column with the largest such reduction above
    tol and above the rounding of p_j's direction, which the QR computes to
    about eps max(m, n) of the unit column, so the reduction to
    eps max(m, n) |r| / |p_j|; both bounds carry tol's factor 10. Below row
    k = len(passive), Q^T a_j holds p_j's coordinates in the orthogonal
    complement of the passive columns, and Q^T r those of r.
    """
    # w_j < -tol leaves no doubt, as in the gradient test: p_j . r has the
    # sign of w_j when r is orthogonal to the passive columns
    cand = [j for j, wj in enumerate(w) if wj >= -tol]
    if not cand or not passive:
        return None
    k = len(passive)
    r_perp = _apply_qt(reflectors, r)[k:]
    rounding = 10.0 * _EPS * max(len(r), len(A)) * math.sqrt(_dot(r, r))
    best, best_margin = None, 0.0
    for j in cand:
        p = _apply_qt(reflectors, A[j])[k:]
        p_norm = math.sqrt(_dot(p, p))
        if p_norm > 0.0:
            margin = _dot(p, r_perp) / p_norm - max(tol, rounding / p_norm)
            if margin > best_margin:
                best, best_margin = j, margin
    return best


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def ls_ratio(
    basis: ConeBasis, rate: Rate, t: Sequence[float], p: Mix | Sequence[float]
) -> float:
    """Ratio of a mix's stand-alone price to its adjusted linear price."""
    prob = _LsqProblem(basis, rate)
    t = _check_t(t, basis.n)
    weights = (p if isinstance(p, Mix) else Mix(p)).weight_tuple
    if len(weights) != basis.n:
        raise InvariantViolation("mix length does not match the basis")
    return prob.ratio(t, weights)


def big_L(
    basis: ConeBasis, rate: Rate, t: Sequence[float]
) -> tuple[float, Mix]:
    """Worst-case ratio over all mixes, with an attaining mix."""
    prob = _LsqProblem(basis, rate)
    val, p = prob.oracle(_check_t(t, basis.n))
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
    seed_mixes: Optional[Sequence[Sequence[float]]] = None,
) -> LsSolution:
    """Min-norm feasible coordinates and the prices they induce, per game.

    The solve runs on the extreme rays of the cone the games span
    (reduce_to_basis), on the caller's basis itself when none is dropped,
    so one cone gets one price system. A dropped game j is priced by
    linearity at k_j . prices, k_j its coordinates, with x_j =
    (price_j - u_j) / d_j (0 when d_j = 0, 1 on the constant-mix exit), in
    [0, 1] up to tol_L u_j / d_j and the cone test's 1e-9, and weight 0 in
    the certificate. seed_mixes over the declared games map onto the kept
    ones through the coordinates, exactly: the mix price is 1-homogeneous.

    A constant mix (check_constant_mix) pins every price at its ceiling:
    x is 1 wherever d = c - u > 0 and 0 elsewhere, and one oracle call
    gives max_violation and the certificate. Otherwise one oracle call at
    x = 0 decides whether prices are linear (L(0) <= 1 + tol_L, x = 0).
    When they are not, x = min(w d, 1) at the maximizer w >= 0 of the
    concave dual (_max_dual), certified by the oracle from the tight mix
    w / |w|. The dual starts from the best of the oracle's worst mix at
    x = 0, the uniform mix and seed_mixes (any mix is a start), which
    changes the route but not the answer: D is concave. The uniform mix
    matters where the worst mix at x = 0 sits on a game whose stand-alone
    price is near 0, and D along it is near 0 too.
    LsSolution.termination records which exit was taken.
    """
    games = basis.games
    keep, coords = _reduce_to_basis(games, basis.space)
    dropped = len(keep) < len(games)
    seeds = []
    for p in (seed_mixes if seed_mixes is not None else ()):
        weights = _float_tuple(p, "seed mixes")
        if len(weights) != len(games) or min(weights) < 0.0:
            raise InvariantViolation("seed mixes must be nonnegative length-n vectors")
        if dropped:  # the same mix payoff, on the kept games
            weights = [_dot(weights, col) for col in zip(*coords)]
        total = sum(weights)
        if total <= 0.0:
            raise InvariantViolation("seed mixes must not be all zero")
        seeds.append([wi / total for wi in weights])
    prob = _LsqProblem(
        ConeBasis(basis.space, [games[i] for i in keep]) if dropped else basis, rate)
    n = prob.n

    def solution(x, pstar, violation: float, iterations: int, termination: Termination):
        prices, u, c = prob.adjusted_prices(x), prob.u_tuple, prob.c_tuple
        norm = _dot(x, x)
        if dropped:  # by linearity; a constant mix pins every game at its ceiling
            full = _LsqProblem(basis, rate)
            u, c, prices = full.u_tuple, full.c_tuple, [_dot(k, prices) for k in coords]
            x_all = [0.0 if dj <= 0.0 else 1.0 if termination == "constant_mix"
                     else (pj - uj) / dj for pj, uj, dj in zip(prices, u, full.d_tuple)]
            p_all = [0.0] * len(games)
            for r, i in enumerate(keep):
                x_all[i], p_all[i] = x[r], pstar[r]
            x, pstar = x_all, p_all
        return LsSolution(
            x_tuple=tuple(x),
            price_tuple=tuple(prices),
            certificate=Mix(pstar),
            norm=norm,
            iterations=iterations,
            max_violation=violation,
            standalone_tuple=tuple(u),
            ceiling_tuple=tuple(c),
            termination=termination,
            basis=tuple(keep),
        )

    if check_constant_mix(prob.basis) is not None:
        # every feasible point has x_i = 1 wherever d_i > 0 (check_constant_mix)
        x = [1.0 if di > 0.0 else 0.0 for di in prob.d_tuple]
        val, pstar = prob.oracle(x)
        return solution(x, pstar, val - 1.0, 1, "constant_mix")

    x = [0.0] * n
    val, pstar = prob.oracle(x)
    if val <= 1.0 + max(tol_L, 0.0):
        # L(0) <= 1 makes x = 0 exact, and the dual's maximum w = 0
        end = "linear" if val - 1.0 <= tol_L else "stalled"
        return solution(x, pstar, val - 1.0, 1, end)
    w, steps = _max_dual(prob, [pstar, [1.0 / n] * n, *seeds])
    x = [min(wi * di, 1.0) for wi, di in zip(w, prob.d_tuple)]
    total = sum(w)
    val, pstar = prob.maximize(prob.adjusted_prices(x), [wi / total for wi in w])
    end = "newton" if val - 1.0 <= tol_L else "stalled"
    return solution(x, pstar, val - 1.0, steps, end)


def check_constant_mix(
    basis: ConeBasis, *, tol: float = 1e-9
) -> Optional[tuple[Mix, tuple[int, ...]]]:
    """A mix with outcome-independent payoff, if one exists, with its support.

    When found, every game's least-squares price is pinned to its ceiling
    E/g, not only the supported ones. The mix pays some K > 0 and is priced
    at K/g, its linear price at most, which pins the supported games. Adding
    a small weight eps of any game a_i keeps the payoff K + eps a_i in the
    full-investment regime, where the price's gradient in the payoffs is
    probs / g, so L(t) <= 1 needs adjusted_i >= E_i / g to first order in
    eps: t_i = 1. Payoffs are nonnegative and no game is all zero, so every
    constant mix is k / sum(k) for some k >= 0 with M k = 1: NNLS decides
    whether one exists. Its k can leave out a game that some other constant
    mix uses (dependent games, or games equal to within tol), so each game j
    with k_j = 0 is probed with the homogenized NNLS
    [M_-j, -1] (k', lam) = -M_j: j can carry weight when lam > 0 and
    w = (k', 1) / lam has M w = 1 to tol. The mean of k and the successful
    witnesses, each as a mix, has the largest support any constant mix has.
    Every mix must keep its payoff spread within tol of the largest payoff.
    First, where it is sure, one QR of the games (_unit_qr) decides without
    NNLS: every mix pays |M k - 1| >= the distance of 1 from their span over
    sqrt(m), so none is constant when that exceeds tol beyond rounding; on a
    square basis, k = M^-1 1 positive beyond rounding is the NNLS answer."""
    cols = [g.payoff_tuple for g in basis.games]
    rows = _payoff_rows(basis.games)
    n, m = basis.n, len(rows)
    scale = max(map(max, cols))
    minus_ones = [-1.0] * m

    def _validated(p: list[float]) -> Optional[tuple[Mix, tuple[int, ...]]]:
        p = [max(pi, 0.0) for pi in p]
        total = sum(p)
        if total <= 0.0:
            return None
        p = [pi / total for pi in p]
        payoff = [_dot(row, p) for row in rows]
        if max(payoff) - min(payoff) > tol * max(scale, 1.0):
            return None
        support = tuple(i for i, pi in enumerate(p) if pi > 1e-9)
        return Mix(p), support

    # M k = 1 must hold to tol itself: the spread check is scaled by the
    # largest payoff, which lets mixes of much smaller games through
    def constant(k: list[float]) -> bool:
        return max(abs(_dot(row, k) - 1.0) for row in rows) <= tol

    def mix(k: list[float]) -> list[float]:
        total = sum(k)
        return [ki / total for ki in k]

    qr = _unit_qr(cols)
    if qr is not None and qr[4] <= tol:
        reflectors, R, norms, _, rounding = qr
        c = _apply_qt(reflectors, [1.0] * m)
        if n < m and _dot(c[n:], c[n:]) > m * (tol + rounding) ** 2:
            return None
        k = _back_substitute(R, c)
        if n == m and min(k) > rounding * math.sqrt(_dot(k, k)):
            k = [ki / nj for ki, nj in zip(k, norms)]
            if constant(k):
                return _validated(mix(k))
    k = _nnls_cols(cols, [1.0] * m)
    if not constant(k):
        return None
    witnesses = [mix(k)]
    for j in [j for j, kj in enumerate(k) if kj == 0.0]:
        others = [i for i in range(n) if i != j]
        z = _nnls_cols([cols[i] for i in others] + [minus_ones], [-a for a in cols[j]])
        if z[-1] <= 0.0:
            continue
        w = [1.0] * n
        for i, zi in zip(others, z):
            w[i] = zi
        w = [wi / z[-1] for wi in w]
        if constant(w):
            witnesses.append(mix(w))
    return _validated([sum(col) / len(witnesses) for col in zip(*witnesses)])


def check_linear_pricing(basis: ConeBasis, rate: Rate, *, tol: float = 1e-9) -> bool:
    """True when mix prices are linear along the whole simplex.

    Linearity means the least-squares prices equal the stand-alone ones
    (x = 0), that is L(0) = 1: the certified oracle's worst ratio at t = 0
    is within tol of 1. Raises PricingError when the oracle cannot certify
    its bound.
    """
    return _LsqProblem(basis, rate).oracle([0.0] * basis.n)[0] <= 1.0 + tol


def _cone_fit(
    cols: Sequence[Sequence[float]], target: Sequence[float], tol: float = math.inf
) -> tuple[list[float], float]:
    """Coefficients k >= 0 with M k closest to target, by NNLS, and how close.

    M is given by its columns. The distance is |M k - target| (2-norm) over
    the target's largest payoff, which is positive because no game is all
    zero; scaling all payoffs leaves the distance unchanged. Every cone test
    compares it with its tol; BasisError when it exceeds tol.
    """
    k = _nnls_cols(cols, target)
    r = list(target)
    for col, kj in zip(cols, k):
        r = [ri - kj * a for ri, a in zip(r, col)]
    residual = math.sqrt(_dot(r, r)) / max(map(abs, target))
    if residual > tol:
        raise BasisError(
            f"game lies outside the cone: relative residual {residual:.3g}")
    return k, residual


def cone_coordinates(basis: ConeBasis, game: Game, *, tol: float = 1e-9) -> np.ndarray:
    """Nonnegative coefficients representing a game in the basis, by NNLS.

    Raises BasisError when the game does not lie in the cone: the least
    nonnegative residual exceeds tol of the game's largest payoff. The
    coefficients come as a read-only float64 array.
    """
    cols = [g.payoff_tuple for g in basis.games]
    return _frozen_array(_cone_fit(cols, game.payoff_tuple, tol)[0])


def in_cone(basis: ConeBasis, game: Game, *, tol: float = 1e-9) -> bool:
    """Whether a game is a nonnegative combination of the basis games.

    The same test as cone_coordinates: the least nonnegative residual
    (2-norm, by NNLS) is within tol of the game's largest payoff.
    """
    return _cone_fit([g.payoff_tuple for g in basis.games], game.payoff_tuple)[1] <= tol


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
    norms = [math.sqrt(_dot(col, col)) for col in cols]
    unit = [[a / nj for a in col] for col, nj in zip(cols, norms)]
    reflectors, R = _householder(unit)
    if not all(R[k][k] for k in range(n)):
        return None
    inv2 = []  # by forward substitution in R^T y = e_k
    for k in range(n):
        y = [1.0 / R[k][k]]
        for j in range(k + 1, n):
            y.append(-_dot(R[j][k:j], y) / R[j][j])
        inv2.append(_dot(y, y))
    return reflectors, R, norms, inv2, 100.0 * _EPS * m * n * math.sqrt(sum(inv2))


def _reduce_to_basis(
    games: Sequence[Game], space: OutcomeSpace
) -> tuple[list[int], list[list[float]]]:
    """reduce_to_basis as lists, with the kept indices. A game farther than
    1e-9 of its largest payoff from the others' span, beyond _unit_qr's
    rounding, is kept without the cone test's NNLS."""
    if not games:
        raise BasisError("need at least one game")
    for g in games:
        _check_aligned(g, space)
    cols = [g.payoff_tuple for g in games]
    qr = _unit_qr(cols)
    far = [False] * len(cols) if qr is None else [
        (1.0 - qr[4]) * nj > 1e-9 * max(col) * math.sqrt(r2)
        for col, nj, r2 in zip(cols, qr[2], qr[3])]
    keep = list(range(len(games)))
    for i in reversed(range(len(games))):
        others = [j for j in keep if j != i]
        if not far[i] and others and _cone_fit([cols[j] for j in others],
                                               cols[i])[1] <= 1e-9:
            keep = others
    kept = [cols[j] for j in keep]
    return keep, [[float(i == j) for j in keep] if i in keep
                  else _cone_fit(kept, col, 1e-9)[0] for i, col in enumerate(cols)]


def reduce_to_basis(
    games: Sequence[Game], space: OutcomeSpace
) -> tuple[ConeBasis, np.ndarray]:
    """Extreme rays of the cone the games span, plus each game's coordinates.

    Valid on any outcome space. From the last game to the first, a game is
    dropped while it lies in the cone of the games still kept (the test of
    cone_coordinates), so the cone never changes and no kept game lies in
    the cone of the others. The kept games form the basis in input order;
    row i of the coordinates, a read-only float64 array, represents
    games[i] in it: a unit vector for a kept game.
    """
    keep, coords = _reduce_to_basis(games, space)
    return ConeBasis(space, [games[i] for i in keep]), _frozen_array(coords)


def price_in_cone(solution: LsSolution, k: Sequence[float]) -> float:
    """Linear price of the cone point with coefficients k at the solved prices."""
    return _dot(_cone_coefficients(k, len(solution.price_tuple)), solution.price_tuple)
