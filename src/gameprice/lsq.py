"""Least-squares prices of a basis of games over the cone it spans.

Each basis game has a stand-alone price u_i and a ceiling c_i = E_i/g. A
coordinate vector t in [0,1]^n interpolates adjusted prices
u_i + t_i (c_i - u_i). The worst-case ratio

    L(t) = max over mixes p of  price(mix(p)) / sum_i p_i * adjusted_i(t_i)

is <= 1 exactly when the adjusted prices admit no arbitrage. The solver finds
the minimum-norm feasible t by cutting planes: every mix p induces the linear
constraint sum_i p_i (c_i - u_i) t_i >= price(mix(p)) - sum_i p_i u_i, and
L itself is the separation oracle. Cutting planes converge only linearly on
the curved boundary of {L <= 1}, so at the first iterate with L - 1 <= 1e-4
the solver hands over to a KKT polish: Newton on the stationarity system,
with the exact Jacobian from the mix price's Hessian. Its point is returned
when it is certified: L <= 1 + tol_L by the oracle, and every coordinate
held at 1 has a nonnegative bound multiplier. Else the cutting planes go on
to tol_L and the polish runs once more. When some mix of the games pays a
constant, t = 1 is the only feasible point on the games with c_i > u_i, so
it is returned at once. LsSolution.termination says which way a solve
ended. The oracle is projected Newton on a concave reparametrization of the
ratio, with the mix price's exact Hessian, run on plain Python floats; the
polish uses the same derivatives. The oracle stops only when the upper
bound max_i dh/dy_i (Euler's identity plus concavity) is within 1e-10
relative of its value. The min-norm subproblem is a
least-distance program, solved exactly as one nonnegative least-squares
(NNLS) problem by a numpy Lawson-Hanson active-set method. Every question
about the cone the games span is the same NNLS: whether a game lies in it
and with which coefficients, which games are its extreme rays, and whether
some mix pays a constant, with the largest support such a mix can have.
Prices are linear exactly when one oracle call certifies L(0) <= 1. The
module needs numpy only.
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
# eigenvalues of the oracle's unit-diagonal Hessian block within this of
# the largest count as flat
_FLAT = 1e-9
# share of the predicted rise that an oracle step must achieve
_ARMIJO = 1e-4
# the cutting planes hand over to the KKT polish at the first L - 1 below this
_HANDOFF_L = 1e-4
# a bound multiplier mu q_i d_i - 1 above -_MULTIPLIER_TOL counts as >= 0
_MULTIPLIER_TOL = 1e-9
_ORACLE_MAX_ITER = 500
# the cutting planes stall after 5 iterates in a row move x by less than this
_X_TOL = 1e-8
# cap on the cutting-plane iterations
_MAX_CUTS = 10_000


Termination = Literal["constant_mix", "polished", "tol", "stalled"]


@dataclass(frozen=True)
class LsSolution:
    """Min-norm coordinates, the prices they induce, and a tightness witness.

    certificate is a mix whose stand-alone price equals its linear price at
    the solution; max_violation is the final L - 1 seen by the solver.
    termination says how the solve ended: "constant_mix" (x pinned by a
    constant mix), "polished" (the KKT polish was accepted), "tol" (the
    cutting planes reached tol_L and the polish was rejected) or "stalled"
    (x stopped moving before L - 1 reached tol_L; max_violation says by how
    much it missed).
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
# min-norm point under linear cuts and the unit box
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


def _min_norm_point(cuts, n: int) -> np.ndarray:
    """Exact min-norm point of {t in [0,1]^n : a.t >= b for (a,b) in cuts}.

    Least-distance programming (Lawson and Hanson, ch. 23): min |t| subject
    to G t >= h is the NNLS problem min |E u - f| over u >= 0 with
    E = [G^T; h^T] and f = (0, ..., 0, 1). Its residual r gives
    t = -r[:n] / r[n], and r[n] = -1 / (1 + |t|^2) when the constraints are
    feasible (r = 0 when not). Cut coefficients are >= 0, so the minimizer
    under the cuts and t <= 1 is a nonnegative combination of cut normals,
    less multipliers only on coordinates at 1: it is >= 0 without the rows
    t >= 0, and cuts with b <= 0 hold at every such t. Only the live cuts and
    t <= 1 are built.
    """
    live = [(a, b) for (a, b) in cuts if b > 0.0]
    if not live:
        return np.zeros(n)
    k = len(live)
    E = np.empty((n + 1, k + n))
    for j, (a, b) in enumerate(live):
        E[:n, j] = a
        E[n, j] = b
    E[:n, k:] = -np.eye(n)
    E[n, k:] = -1.0
    f = np.zeros(n + 1)
    f[n] = 1.0
    u = _nnls(E, f)
    r = E @ u - f
    # |t| <= sqrt(n) in the box, so a feasible set has r[n] <= -1 / (1 + n)
    if r[n] > -0.5 / (1.0 + n):
        raise PricingError(f"min-norm subproblem infeasible (residual {r[n]:.3e})")
    t = np.clip(r[:n] / -r[n], 0.0, 1.0)
    t[u[k:] > 0.0] = 1.0  # a bound with a positive multiplier holds exactly
    return t


# ---------------------------------------------------------------------------
# KKT polish
#
# Cutting planes certify L(x) <= 1 + tol but pin x itself only to about
# sqrt(tol) tangentially. At the optimum, x_i = mu * q_i * (c_i - u_i) on
# free coordinates for the tight mix q, q maximizes the ratio at x, and the
# ratio equals 1; refining on that square system recovers x to near machine
# precision, which the uniqueness and certificate tolerances rely on. A
# coordinate held at 1 needs a nonnegative bound multiplier,
# mu * q_i * (c_i - u_i) >= 1. With L(x) <= 1 + tol_L, checked by the oracle,
# those are the KKT conditions of the min-norm point of the convex set
# {L <= 1}, so an accepted polish is certified from any starting point.
# ---------------------------------------------------------------------------


def _polish(prob: _LsqProblem, x_hat: np.ndarray, q_hat: np.ndarray, tol_L: float):
    if float(np.max(np.abs(x_hat))) <= 1e-12:
        return None
    tiny = 1e-12 * max(prob.scale, 1.0)
    pinned0 = prob.d <= tiny
    pinned1 = (~pinned0) & (x_hat >= 1.0 - 1e-9)
    free = ~pinned0 & ~pinned1
    if not free.any():
        return None
    try:
        result = _polish_newton(prob, pinned1, free, q_hat, x_hat)
    except (PricingError, np.linalg.LinAlgError, ValueError):
        return None
    if result is None:
        return None
    x, q, mu = result
    if np.any(mu * q[pinned1] * prob.d[pinned1] < 1.0 - _MULTIPLIER_TOL):
        return None  # lowering that coordinate would shorten x within L <= 1
    # the oracle's certificate does not depend on where it starts; from the
    # tight mix q it takes a step or two
    adj = prob.adjusted(x)
    val, p_best = prob.maximize(adj, q)
    if val - 1.0 > max(tol_L, 1e-9) or val < 1.0 - 1e-6:
        return None
    # prefer the tighter witness
    if abs(prob.price_mix(q) / float(q @ adj) - 1.0) > abs(val - 1.0):
        q = p_best
    return x, q, val - 1.0


def _polish_newton(prob, pinned1, free, q_hat, x_hat):
    """Newton on (s, tight-mix weights) for the stationarity system.

    The free coordinates are x_F = min(1, s q_F d_F / (q_F . d_F)), so that
    mu = s / (q_F . d_F) and s is the scale of x_F. In (mu, q) a light weight
    q_i on a free game makes the system near singular: steps in mu and q_i
    cancel in x_i = mu q_i d_i. The residual is the ratio less 1 and the
    differences of its gradient over the support of q; its Jacobian is exact,
    by the chain rule through value_grad_hess. Newton stops after a step
    within 1e-12 of z, or when the line search no longer lowers the residual.
    """
    n = prob.n
    d = prob.d
    # the games q_hat weighs, and those whose ratio gradient ties with the
    # ratio at q_hat: where the tight mixes form a segment, q_hat can lie at
    # one end of it and leave out a game that the optimum weighs
    adj_hat = prob.adjusted(x_hat)
    value, grad, _ = prob.value_grad_hess(q_hat.tolist())
    ratio = value / float(q_hat @ adj_hat)
    support = np.flatnonzero((q_hat > 1e-7 * float(np.max(q_hat)))
                             | (np.array(grad) >= ratio * (1.0 - 1e-8) * adj_hat))
    if support.size < 2:
        return None
    first, rest = support[0], support[1:]
    d_free = np.where(free, d, 0.0)
    # dq/dz: z[1:] are the weights on rest, and first takes what is left
    Jq = np.zeros((n, support.size))
    Jq[rest, np.arange(1, support.size)] = 1.0
    Jq[first, 1:] = -1.0

    def evaluate(z: np.ndarray):
        """(residual, Jacobian, x, q, mu) at z, or None outside the domain."""
        s = z[0]
        q = np.zeros(n)
        q[rest] = z[1:]
        q[first] = 1.0 - float(np.sum(z[1:]))
        qd = float(q @ d_free)
        if s < 0.0 or np.any(q[support] < -1e-9) or qd <= 0.0:
            return None
        mu = s / qd
        raw = mu * q * d_free
        x = np.where(pinned1, 1.0, np.clip(raw, 0.0, 1.0))
        # dx/dz, zero off the free coordinates and on those clipped at 1
        Jx = mu * d_free[:, None] * Jq - np.outer(raw, d_free @ Jq) / qd
        Jx[:, 0] = q * d_free / qd
        Jx[raw >= 1.0] = 0.0
        value, grad, hess = prob.value_grad_hess(q.tolist())
        grad, hess = np.array(grad), np.array(hess)
        adj = prob.adjusted(x)
        dadj = d[:, None] * Jx
        den = float(q @ adj)
        ratio = value / den
        ratio_grad = (grad - ratio * adj) / den
        dden = adj @ Jq + q @ dadj
        dratio = (grad @ Jq - ratio * dden) / den
        dratio_grad = (hess @ Jq - np.outer(adj, dratio) - ratio * dadj
                       - np.outer(ratio_grad, dden)) / den
        r = np.concatenate(([ratio - 1.0], ratio_grad[rest] - ratio_grad[first]))
        jac = np.vstack((dratio, dratio_grad[rest] - dratio_grad[first]))
        return r, jac, x, q, mu

    # start at x_hat: x_F = mu q_F d_F, so q_F takes the shape of
    # x_hat_F / d_F, at the weight q_hat puts on the free games. Where the
    # tight mixes form a segment, q_hat can lie at an end of it that x_hat
    # does not fit
    q0 = q_hat.copy()
    fs = free & np.isin(np.arange(n), support)
    shape = x_hat[fs] / d[fs]
    if shape.sum() > 0.0:
        q0[fs] = shape * (q_hat[fs].sum() / shape.sum())
    z = np.concatenate(([float(np.sum(x_hat[free]))], q0[rest]))
    state = evaluate(z)
    if state is None:
        return None
    for _ in range(40):
        r, jac = state[:2]
        step = np.linalg.solve(jac, -r)
        if float(np.max(np.abs(step))) <= 1e-12 * float(np.max(np.abs(z))):
            state = evaluate(z + step)
            break
        err = float(np.max(np.abs(r)))
        lam = 1.0
        while lam > 1e-8:
            new = evaluate(z + lam * step)
            if new is not None and float(np.max(np.abs(new[0]))) < err:
                z, state = z + lam * step, new
                break
            lam *= 0.5
        else:
            break
    if state is None or float(np.max(np.abs(state[0]))) > 1e-9:
        return None
    _, _, x, q, mu = state
    q = np.clip(q, 0.0, None)
    return x, q / q.sum(), mu


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
    gives max_violation and the certificate. Otherwise the solver iterates:
    solve the min-norm subproblem over the cuts collected so far, ask the
    separation oracle (big_L) for the worst mix at the solution, and add the
    violated cut. Kelley's cutting planes converge only linearly on the
    curved boundary of {L <= 1}, so at the first iterate with
    L - 1 <= 1e-4 the solver hands over to the KKT polish (Newton on the
    stationarity system), and returns its point when the polish certifies
    it: L <= 1 + tol_L by the oracle and a nonnegative multiplier on every
    coordinate held at 1. When it does not, cutting goes on until
    L - 1 <= tol_L (or x stalls) and the polish runs once more, its last
    run. LsSolution.termination records which exit was taken. seed_mixes
    inject extra valid cuts up front (any mix yields one), which changes the
    route but not the answer.
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

    cuts: list[tuple[np.ndarray, float]] = []

    def add_cut(p: np.ndarray) -> None:
        a = p * prob.d
        if float(np.max(a)) <= 0.0:
            return  # degenerate direction: constraint is vacuous (b <= 0)
        # price(mix(p)) <= p . c, so t = 1 meets every cut; the price solve's
        # 1e-12 noise must not push b past it and empty the feasible set
        cuts.append((a, min(prob.price_mix(p) - float(p @ prob.u), float(a.sum()))))

    for p in seeds:
        add_cut(p)

    x = np.zeros(n)
    violation = math.inf
    pstar = np.full(n, 1.0 / n)
    stalled = 0
    iterations = 0
    termination: Optional[Termination] = None
    handed_off = False
    for iterations in range(1, _MAX_CUTS + 1):
        x_new = _min_norm_point(cuts, n)
        # big_L starts from the uniform mix: from the previous tight mix the
        # ascent stays on that mix's face, and the polish would then leave
        # out a game that the optimum weighs
        val, pstar = prob.big_L(x_new)
        violation = val - 1.0
        moved = float(np.max(np.abs(x_new - x))) if iterations > 1 else math.inf
        x = x_new
        if violation <= tol_L:
            termination = "tol"
            break
        if not handed_off and violation <= _HANDOFF_L:
            handed_off = True
            refined = _polish(prob, x, pstar, tol_L)
            if refined is not None:
                return solution(*refined, iterations, "polished")
        if moved < _X_TOL:
            stalled += 1
            if stalled >= 5:
                termination = "stalled"  # x has settled; report the residual
                break
        else:
            stalled = 0
        add_cut(pstar)
        if len(cuts) > 120:
            keep_recent = set(range(len(cuts) - 60, len(cuts)))
            cuts = [
                c
                for i, c in enumerate(cuts)
                if i in keep_recent
                or float(c[0] @ x) - c[1] <= 1e-7 * prob.scale
            ]
    if termination is None:
        raise PricingError(
            f"cutting-plane iteration cap {_MAX_CUTS} exceeded "
            f"(violation {violation:.3e})"
        )
    refined = _polish(prob, x, pstar, tol_L)
    if refined is not None:
        return solution(*refined, iterations, "polished")
    return solution(x, pstar, violation, iterations, termination)


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
