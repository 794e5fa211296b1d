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
solve ended. The oracle is projected Newton on a concave reparametrization
of the ratio; it and the dual take the mix price's exact gradient and
Hessian from one price solve, on plain Python floats. The oracle stops only
when the upper bound max_i dh/dy_i (Euler's identity plus concavity) is
within 1e-10 relative of its value. Every question about the cone the games
span is one nonnegative least-squares (NNLS) problem, solved by a numpy
Lawson-Hanson active-set method: whether a game lies in it and with which
coefficients, which games are its extreme rays, and whether some mix pays a
constant, with the largest support such a mix can have. The module needs
numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, sub
from typing import Literal, Optional, Sequence

import numpy as np

from .core import (
    BasisError,
    ConeBasis,
    DimensionMismatch,
    Game,
    InvariantViolation,
    Mix,
    OutcomeSpace,
    PricingError,
    Rate,
    is_fair_coin,
)
from .pricer import KappaContext, _price_fair, _price_numeric

DEFAULT_L_TOL = 1e-9

# relative gap between the oracle's computed upper bound and its value
ORACLE_GAP = 1e-10
# eigenvalues of a unit-diagonal Hessian block within this of the largest
# count as flat
_FLAT = 1e-9
# share of the predicted rise that a Newton step (oracle or dual) must achieve
_ARMIJO = 1e-4
# cap on the Newton steps of the oracle and of the dual
_ORACLE_MAX_ITER = 500


Termination = Literal["constant_mix", "linear", "newton", "stalled"]


@dataclass(frozen=True)
class LsSolution:
    """Min-norm coordinates, the prices they induce, and a tightness witness.

    certificate is a mix whose stand-alone price equals its linear price at
    the solution; max_violation is the final L - 1 seen by the solver.
    termination says how the solve ended: "constant_mix" (x pinned by a
    constant mix), "linear" (the oracle certified L(0) <= 1 + tol_L, so
    x = 0), "newton" (the dual's projected Newton converged and the oracle
    certified its point) or "stalled" (the solver settled, but the oracle's
    L - 1 at its point exceeds tol_L; max_violation says by how much).
    iterations counts the Newton steps, and is 1 for the first two.
    """

    x: np.ndarray
    prices: np.ndarray
    certificate: Mix
    norm: float
    iterations: int
    max_violation: float
    standalone: np.ndarray
    ceilings: np.ndarray
    termination: Termination

    def to_json_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "prices": [float(v) for v in self.prices],
            "certificate": [float(v) for v in self.certificate.weights],
            "iterations": int(self.iterations),
            "max_violation": float(self.max_violation),
        }


class _LsqProblem:
    """Precomputed pricing context for one basis and rate."""

    def __init__(self, basis: ConeBasis, rate: Rate):
        self.basis = basis
        self.rate = rate
        self.space = basis.space
        self.M = basis.payoff_matrix()
        self.probs = self.space.probs
        self._probs_list = self.probs.tolist()
        # the oracle's hot loop runs on plain floats (numpy overhead dominates
        # at these sizes): payoff rows for M p, columns for M^T dprice
        self._rows = self.M.tolist()
        self._cols = self.M.T.tolist()
        self.g = rate.growth_factor()
        self._fair = is_fair_coin(self.space)
        self._kappa = KappaContext.from_rate(rate).kappa
        self.n = basis.n
        self.u = np.array([self.price_full(g.payoffs.tolist())[0] for g in basis.games])
        self.c = (self.probs @ self.M) / self.g
        self.d = np.maximum(self.c - self.u, 0.0)
        self.scale = float(np.max(self.c))

    def price_full(self, payoffs: list[float]) -> tuple[float, float]:
        """(price, proportion) of an arbitrary payoff list on the space."""
        if self._fair and payoffs[0] > 0.0 and payoffs[1] > 0.0:
            return _price_fair(payoffs[0], payoffs[1], self.g, self._kappa)
        u, t, _, _ = _price_numeric(payoffs, self._probs_list, self.rate)
        return u, t

    def price_mix(self, p: np.ndarray) -> float:
        return self.price_full((self.M @ p).tolist())[0]

    def adjusted(self, t: np.ndarray) -> np.ndarray:
        return self.u + t * self.d

    def ratio(self, t: np.ndarray, p: np.ndarray) -> float:
        return self.price_mix(p) / float(p @ self.adjusted(t))

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

    def big_L(self, t: np.ndarray) -> tuple[float, np.ndarray]:
        """max of the price ratio over the mix simplex and an attaining mix."""
        return self.maximize(self.adjusted(t), np.full(self.n, 1.0 / self.n))

    def maximize(self, adj: np.ndarray, p0: np.ndarray) -> tuple[float, np.ndarray]:
        """max over mixes p of price(mix(p)) / (p . adj), climbing from p0.

        In y = p * adj / (p . adj) the ratio is h(y) = price(mix(y / adj)),
        concave on the simplex because the mix price is concave and
        1-homogeneous, so a local maximum is global. Euler's identity
        grad h . y = h and concavity give max h <= max_i dh/dy_i; the climb
        runs until that bound is within ORACLE_GAP of the value, and raises
        PricingError otherwise. Each step is projected Newton (Bertsekas
        1982) in z, y without its largest coordinate y_r = 1 - sum(z), on
        the box z >= 0. Coordinates near 0 that the gradient pushes out go
        to 0 (the epsilon-active set). The others take the Newton step along
        the curved directions of their Hessian block (_newton_split), and
        along its flat ones a step on to the first bound: there the ratio is
        affine (the cash direction M^-1 1 of a square basis, the null space
        of M when there are more games than outcomes), so Newton would not
        move, and the bound is the maximum along them. The step is halved
        until the value rises by Armijo's rule, the bound is met, or the
        value falls by at most ORACLE_GAP while the bound comes closer.
        """
        adj = adj.tolist()
        inv = [1.0 / ai for ai in adj]
        n = len(adj)

        def evaluate(y: list[float]):
            """(h, dh/dy, certificate gap, p, the mix price's Hessian, 1 / p . adj)."""
            p = list(map(mul, y, inv))
            total = sum(p)
            p = [pi / total for pi in p]
            price, grad, hess = self.value_grad_hess(p)
            # the price is 1-homogeneous: h(y) = price(M (y / adj)) on the
            # simplex, and y / adj = total * p
            val = price * total
            g = list(map(mul, grad, inv))
            return val, g, max(g) - val, p, hess, total

        y = list(map(mul, p0.tolist(), adj))
        total = sum(y)
        y = [yi / total for yi in y]
        val, g, gap, p, hess, total = evaluate(y)
        for _ in range(_ORACLE_MAX_ITER):
            if gap <= ORACLE_GAP * val:
                return val, np.array(p)
            r = y.index(max(y))
            gz = [gj - g[r] for gj in g]
            # the Hessian of h in z (y_j = z_j, y_r = 1 - sum(z)), from the
            # mix price's by the chain rule
            scale = [bj / total for bj in inv]
            hr = [hk * scale[r] * bk for hk, bk in zip(hess[r], inv)]

            def hz(j: int, k: int) -> float:
                return hess[j][k] * scale[j] * inv[k] - hr[k] - hr[j] + hr[r]

            # epsilon-active set: the coordinates within eps of 0 that the
            # gradient pushes out go to 0. eps is the length of a projected
            # gradient step, and at most 1e-3
            eps = 0.0
            if min(y) <= 1e-3:
                eps = min(1e-3, math.sqrt(sum((yj - max(yj + dj, 0.0)) ** 2
                                              for yj, dj in zip(y, gz))))
            out = [yj <= eps and dj < 0.0 for yj, dj in zip(y, gz)]
            free = [j for j in range(n) if j != r and not out[j]]
            step, flat = _newton_split([[hz(j, k) for k in free] for j in free],
                                       [gz[j] for j in free])
            if any(flat):
                # the ratio is affine along flat: go on from the Newton point
                # to the first bound, so that it is met exactly
                reach = [(y[j] + sj) / -fj for j, sj, fj in zip(free, step, flat)
                         if fj < 0.0]
                if sum(flat) > 0.0:
                    reach.append((y[r] - sum(step)) / sum(flat))
                alpha = max(min(reach), 0.0)
                step = [sj + alpha * fj for sj, fj in zip(step, flat)]
            d = [-yj if o else 0.0 for yj, o in zip(y, out)]
            for j, sj in zip(free, step):
                d[j] = sj
            tau = 1.0
            while True:
                y_new = [max(yi + tau * di, 0.0) for yi, di in zip(y, d)]
                y_new[r] = 0.0
                y_r = 1.0 - sum(y_new)
                if y_r >= 0.0:
                    y_new[r] = y_r
                else:  # y_r clipped at 0: back onto the simplex
                    norm = sum(y_new)
                    y_new = [yi / norm for yi in y_new]
                state = evaluate(y_new)
                val_new, gap_new = state[0], state[2]
                # Armijo's rule on the projection arc: the value rises by a
                # share of what the gradient predicts for the step taken
                rise = val_new - val
                if ((rise > 0.0 and rise >= _ARMIJO * sum(
                        map(mul, gz, map(sub, y_new, y))))
                        or gap_new <= ORACLE_GAP * val_new
                        or (rise >= -ORACLE_GAP * val and gap_new < gap)):
                    break
                tau *= 0.5
                if tau * max(map(abs, d)) < 1e-16:  # y would no longer move
                    raise PricingError(
                        f"separation oracle stalled with gap {gap / val:.3e}"
                    )
            y = y_new
            val, g, gap, p, hess, total = state
        raise PricingError(
            f"separation oracle iteration cap {_ORACLE_MAX_ITER} hit "
            f"with gap {gap / val:.3e}"
        )


def _newton_split(
    H: list[list[float]], g: list[float]
) -> tuple[list[float], list[float]]:
    """Newton step of a concave quadratic along its curved directions, and g's
    part along its flat ones.

    H is first scaled to a unit diagonal, D^-1/2 H D^-1/2 with D its
    diagonal, so that a coordinate near its bound, where the curvature can
    be 1e12 times that of the others, does not make them look flat. Scaled
    eigenvalues within _FLAT of the largest curvature count as flat; the
    Newton step -H^-1 g is taken along the others.
    """
    k = len(g)
    if k == 0:
        return [], []
    if k == 1:  # scaled, H is -1 or flat; eigh's call overhead would dominate
        return ([-g[0] / H[0][0]], [0.0]) if H[0][0] < 0.0 else ([0.0], [g[0]])
    d = [math.sqrt(-H[j][j]) if H[j][j] < 0.0 else 1.0 for j in range(k)]
    lam, vec = np.linalg.eigh([[hjk / (dj * dk) for hjk, dk in zip(row, d)]
                               for row, dj in zip(H, d)])
    gs = [gj / dj for gj, dj in zip(g, d)]
    curv = _FLAT * max(float(-lam[0]), 0.0)  # eigh sorts lam upward
    step = [0.0] * k
    flat = [0.0] * k
    for lk, v in zip(lam.tolist(), vec.T.tolist()):
        ck = sum(map(mul, v, gs))
        if lk < -curv:
            step = [si - ck / lk * vi for si, vi in zip(step, v)]
        else:
            flat = [fi + ck * vi for fi, vi in zip(flat, v)]
    return [si / dj for si, dj in zip(step, d)], [fi / dj for fi, dj in zip(flat, d)]


# ---------------------------------------------------------------------------
# the concave dual of the min-norm problem
# ---------------------------------------------------------------------------


def _max_dual(prob: _LsqProblem, mixes: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
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
    and runs projected Newton on v >= 0 as the oracle does (Bertsekas
    1982): coordinates near 0 that the gradient pushes out go to 0, the
    others take the Newton step along the curved directions of their block
    (_newton_split) and along the flat ones a step on to the first bound,
    and the step is halved until D rises by Armijo's rule. It stops when
    the gradient vanishes to rounding or no halving raises D.
    """
    c = prob.c.tolist()
    d = prob.d.tolist()
    u = prob.u.tolist()
    n = prob.n

    def evaluate(v: list[float]):
        """(D, dD/dv, its Hessian, w) at v."""
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
        return value, g, H, w

    starts = []
    for p in mixes:
        a2 = float(np.sum((p * prob.d) ** 2))
        b = prob.price_mix(p) - float(p @ prob.u)
        if b > 0.0:
            v = (b / a2 * p * prob.c).tolist()
            starts.append((evaluate(v), v))
    if not starts:
        raise PricingError("no start mix is priced above its stand-alone prices")
    (value, g, H, w), v = max(starts, key=lambda start: start[0][0])

    def projected(v, g):
        """The projected gradient's largest entry, per game on the scale of c."""
        return max(abs(gj) if vj > 0.0 else gj for vj, gj in zip(v, g))

    pg = projected(v, g)
    for steps in range(_ORACLE_MAX_ITER):
        if pg <= 1e-15:
            return np.array(w), steps
        # epsilon-active set, as in maximize
        eps = min(1e-3, math.sqrt(sum((vj - max(vj + gj, 0.0)) ** 2
                                      for vj, gj in zip(v, g))))
        out = [vj <= eps and gj < 0.0 for vj, gj in zip(v, g)]
        free = [j for j in range(n) if not out[j]]
        step, flat = _newton_split([[H[j][k] for k in free] for j in free],
                                   [g[j] for j in free])
        if any(fj < 0.0 for fj in flat):
            # D is affine along flat: go on from the Newton point to the
            # first bound
            alpha = max(min((v[j] + sj) / -fj for j, sj, fj in zip(free, step, flat)
                            if fj < 0.0), 0.0)
            step = [sj + alpha * fj for sj, fj in zip(step, flat)]
        dv = [-vj if o else 0.0 for vj, o in zip(v, out)]
        for j, sj in zip(free, step):
            dv[j] = sj
        tau = 1.0
        while True:
            v_new = [max(vj + tau * dj, 0.0) for vj, dj in zip(v, dv)]
            if any(v_new):
                state = evaluate(v_new)
                rise = state[0] - value
                pg_new = projected(v_new, state[1])
                # Armijo's rule, or D level to rounding while the gradient
                # shrinks: D's terms are at most w . c = sum(v) and cancel
                pred = sum(map(mul, g, map(sub, v_new, v)))
                if ((rise > 0.0 and rise >= _ARMIJO * pred)
                        or (rise >= -1e-14 * sum(v) and pg_new < pg)):
                    break
            tau *= 0.5
            if tau * max(map(abs, dv)) < 1e-16 * max(v):  # v would no longer move
                return np.array(w), steps
        v, pg = v_new, pg_new
        value, g, H, w = state
    raise PricingError(f"least-squares dual iteration cap {_ORACLE_MAX_ITER} hit")


# ---------------------------------------------------------------------------
# nonnegative least squares and the cone the games span
# ---------------------------------------------------------------------------


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |A x - b| over x >= 0, by Lawson and Hanson's active-set method.

    The problem is invariant under positive column scaling, so the columns are
    scaled to unit norm first: the entering test and its tolerance then weigh
    games whose payoffs span many orders of magnitude alike. Each passive set
    is solved by lstsq, which stays stable on nearly proportional columns. A
    column whose own coefficient comes out nonpositive on entry is rejected
    for this round, and a step that reaches the boundary drops its blocking
    column explicitly: waiting for the stepped coefficient to round to zero
    can cycle forever on nearly parallel columns. Before stopping, a column
    nearly parallel to the passive ones gets a second entry test, on the
    residual it would remove (_orthogonal_entry).
    """
    norms = np.linalg.norm(A, axis=0)
    A = A / norms
    n = A.shape[1]
    tol = 10.0 * np.finfo(float).eps * max(A.shape) * float(np.linalg.norm(b))
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)

    def solve() -> np.ndarray:
        z = np.zeros(n)
        z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
        return z

    for _ in range(3 * n):
        r = b - A @ x
        w = A.T @ r
        w[passive] = -np.inf
        while True:
            j = int(np.argmax(w))
            if w[j] <= tol:
                j = _orthogonal_entry(A, passive, r, w, tol)
                if j is None:
                    return x / norms
            passive[j] = True
            z = solve()
            if z[j] > 0.0:
                break
            passive[j] = False
            w[j] = -np.inf
        while np.any(z[passive] <= 0.0):
            blocked = np.flatnonzero(passive & (z <= 0.0))
            steps = x[blocked] / (x[blocked] - z[blocked])
            k = int(np.argmin(steps))
            x = x + steps[k] * (z - x)
            passive[blocked[k]] = False
            passive &= x > 0.0
            z = solve()
        x = z
    raise PricingError(f"NNLS iteration cap {3 * n} hit")


def _orthogonal_entry(A, passive, r, w, tol):
    """A column the gradient test w_j > tol misses, or None.

    Only the part p_j of column a_j orthogonal to the passive columns can
    reduce the residual r, by p_j . r / |p_j| per unit step, while
    w_j = a_j . r shrinks with |p_j|. For a column nearly parallel to a
    passive one, w_j drops below tol while the residual it would remove is
    far above it. Returns the column with the largest such reduction above
    tol and above the rounding of p_j's direction, eps |r| / |p_j|.
    """
    # w_j < -tol leaves no doubt, as in the gradient test: p_j . r has the
    # sign of w_j when r is orthogonal to the passive columns
    cand = np.flatnonzero(w >= -tol)
    if cand.size == 0 or not passive.any():
        return None
    q = np.linalg.qr(A[:, passive])[0]
    p = A[:, cand] - q @ (q.T @ A[:, cand])
    p_norm = np.linalg.norm(p, axis=0)
    keep = p_norm > 0.0
    cand, p_norm = cand[keep], p_norm[keep]
    gain = (p[:, keep].T @ r) / p_norm
    floor = np.maximum(tol, 10.0 * np.finfo(float).eps * np.linalg.norm(r) / p_norm)
    if not np.any(gain > floor):
        return None
    return int(cand[np.argmax(gain - floor)])


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def ls_ratio(
    basis: ConeBasis, rate: Rate, t: Sequence[float], p: Mix | Sequence[float]
) -> float:
    """Ratio of a mix's stand-alone price to its adjusted linear price."""
    prob = _LsqProblem(basis, rate)
    t_arr = _check_t(t, basis.n)
    weights = p.weights if isinstance(p, Mix) else Mix(p).weights
    if weights.size != basis.n:
        raise InvariantViolation("mix length does not match the basis")
    return prob.ratio(t_arr, weights)


def big_L(
    basis: ConeBasis, rate: Rate, t: Sequence[float]
) -> tuple[float, Mix]:
    """Worst-case ratio over all mixes, with an attaining mix."""
    prob = _LsqProblem(basis, rate)
    t_arr = _check_t(t, basis.n)
    val, p = prob.big_L(t_arr)
    return val, Mix(p)


def _check_t(t, n: int) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if arr.shape != (n,):
        raise InvariantViolation(f"t must have length {n}")
    if np.any(arr < -1e-15) or np.any(arr > 1.0 + 1e-15):
        raise InvariantViolation("t must lie in [0, 1]^n")
    return np.clip(arr, 0.0, 1.0)


def least_squares_prices(
    basis: ConeBasis,
    rate: Rate,
    *,
    tol_L: float = DEFAULT_L_TOL,
    seed_mixes: Optional[Sequence[Sequence[float]]] = None,
) -> LsSolution:
    """Min-norm feasible coordinates and the prices they induce.

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
    prob = _LsqProblem(basis, rate)
    n = prob.n
    seeds = []
    for p in (seed_mixes if seed_mixes is not None else ()):
        weights = np.asarray(p, dtype=float)
        if weights.shape != (n,) or np.any(weights < 0.0):
            raise InvariantViolation("seed mixes must be nonnegative length-n vectors")
        total = weights.sum()
        if total <= 0.0:
            raise InvariantViolation("seed mixes must not be all zero")
        seeds.append(weights / total)

    def solution(
        x: np.ndarray,
        pstar: np.ndarray,
        violation: float,
        iterations: int,
        termination: Termination,
    ):
        return LsSolution(
            x=x,
            prices=prob.adjusted(x),
            certificate=Mix(pstar),
            norm=float(x @ x),
            iterations=iterations,
            max_violation=float(violation),
            standalone=prob.u.copy(),
            ceilings=prob.c.copy(),
            termination=termination,
        )

    if check_constant_mix(basis) is not None:
        # every feasible point has x_i = 1 wherever d_i > 0 (check_constant_mix)
        x = np.where(prob.d > 0.0, 1.0, 0.0)
        val, pstar = prob.big_L(x)
        return solution(x, pstar, val - 1.0, 1, "constant_mix")

    x = np.zeros(n)
    val, pstar = prob.big_L(x)
    if val <= 1.0 + max(tol_L, 0.0):
        # L(0) <= 1 makes x = 0 exact, and the dual's maximum w = 0
        end = "linear" if val - 1.0 <= tol_L else "stalled"
        return solution(x, pstar, val - 1.0, 1, end)
    w, steps = _max_dual(prob, [pstar, np.full(n, 1.0 / n), *seeds])
    x = np.minimum(w * prob.d, 1.0)
    val, pstar = prob.maximize(prob.adjusted(x), w / w.sum())
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
    """
    M = basis.payoff_matrix()
    m, n = M.shape
    scale = float(np.max(M))
    ones = np.ones(m)

    def _validated(p: np.ndarray) -> Optional[tuple[Mix, tuple[int, ...]]]:
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if total <= 0.0:
            return None
        p = p / total
        payoff = M @ p
        if float(np.max(payoff) - np.min(payoff)) > tol * max(scale, 1.0):
            return None
        support = tuple(int(i) for i in np.nonzero(p > 1e-9)[0])
        return Mix(p), support

    # M k = 1 must hold to tol itself: the spread check is scaled by the
    # largest payoff, which lets mixes of much smaller games through
    def constant(k: np.ndarray) -> bool:
        return float(np.max(np.abs(M @ k - 1.0))) <= tol

    k = _nnls(M, ones)
    if not constant(k):
        return None
    witnesses = [k / k.sum()]
    for j in np.flatnonzero(k == 0.0):
        others = np.arange(n) != j
        z = _nnls(np.column_stack([M[:, others], -ones]), -M[:, j])
        if z[-1] <= 0.0:
            continue
        w = np.ones(n)
        w[others] = z[:-1]
        w /= z[-1]
        if constant(w):
            witnesses.append(w / w.sum())
    return _validated(np.mean(witnesses, axis=0))


def check_linear_pricing(basis: ConeBasis, rate: Rate, *, tol: float = 1e-9) -> bool:
    """True when mix prices are linear along the whole simplex.

    Linearity means the least-squares prices equal the stand-alone ones
    (x = 0), that is L(0) = 1: the certified oracle's worst ratio at t = 0
    is within tol of 1. Raises PricingError when the oracle cannot certify
    its bound.
    """
    return _LsqProblem(basis, rate).big_L(np.zeros(basis.n))[0] <= 1.0 + tol


def _cone_fit(M: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Coefficients k >= 0 with M k closest to target, by NNLS, and how close.

    The distance is |M k - target| (2-norm) over the target's largest payoff,
    which is positive because no game is all zero; scaling all payoffs
    leaves the distance unchanged. Every cone test compares it with its tol.
    """
    k = _nnls(M, target)
    return k, float(np.linalg.norm(M @ k - target) / np.max(np.abs(target)))


def cone_coordinates(basis: ConeBasis, game: Game, *, tol: float = 1e-9) -> np.ndarray:
    """Nonnegative coefficients representing a game in the basis, by NNLS.

    Raises BasisError when the game does not lie in the cone: the least
    nonnegative residual exceeds tol of the game's largest payoff.
    """
    k, residual = _cone_fit(basis.payoff_matrix(), game.payoffs)
    if residual > tol:
        raise BasisError(
            f"game lies outside the cone: relative residual {residual:.3g}"
        )
    return k


def in_cone(basis: ConeBasis, game: Game, *, tol: float = 1e-9) -> bool:
    """Whether a game is a nonnegative combination of the basis games.

    The same test as cone_coordinates: the least nonnegative residual
    (2-norm, by NNLS) is within tol of the game's largest payoff.
    """
    return _cone_fit(basis.payoff_matrix(), game.payoffs)[1] <= tol


def reduce_to_basis(
    games: Sequence[Game], space: OutcomeSpace
) -> tuple[ConeBasis, np.ndarray]:
    """Extreme rays of the cone the games span, plus each game's coordinates.

    Valid on any outcome space. From the last game to the first, a game is
    dropped while it lies in the cone of the games still kept (the test of
    cone_coordinates), so the cone never changes and no kept game lies in
    the cone of the others. The kept games form the basis in input order;
    row i of the coordinates represents games[i] in it.
    """
    if not games:
        raise BasisError("need at least one game")
    for g in games:
        if g.size != space.size:
            raise DimensionMismatch(
                f"game of length {g.size} on a space of {space.size} outcomes"
            )
    M = np.column_stack([g.payoffs for g in games])
    keep = list(range(len(games)))
    for i in reversed(range(len(games))):
        others = [j for j in keep if j != i]
        if others and _cone_fit(M[:, others], M[:, i])[1] <= 1e-9:
            keep = others
    basis = ConeBasis(space, [games[i] for i in keep])
    coords = np.vstack([cone_coordinates(basis, g) for g in games])
    return basis, coords


def price_in_cone(solution: LsSolution, k: Sequence[float]) -> float:
    """Linear price of the cone point with coefficients k at the solved prices."""
    arr = np.asarray(k, dtype=float)
    if arr.shape != solution.prices.shape:
        raise InvariantViolation("coefficient vector length does not match the basis")
    if np.any(arr < 0.0):
        raise InvariantViolation("cone coefficients must be nonnegative")
    if not np.any(arr > 0.0):
        raise InvariantViolation("cone coefficients must not all be zero")
    return float(arr @ solution.prices)
