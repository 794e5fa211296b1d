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
ended. The oracle is projected gradient ascent on a concave
reparametrization of the ratio, run on plain Python floats; it stops only
when the upper bound max_i dh/dy_i (Euler's identity plus concavity) is
within 1e-10 relative of its value. The min-norm subproblem is a
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
# relative value changes below this are noise of the 1e-12 price solve
_PRICE_NOISE = 1e-12
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

    def _mix_value_grad(self, p: list[float]) -> tuple[float, list[float]]:
        """Mix price at p and its gradient in p, from one price solve.

        The gradient is d price / d payoff_j by the envelope theorem at the
        solved (u, t), mapped back to the mix weights through M.
        """
        payoffs = [sum(a * w for a, w in zip(row, p)) for row in self._rows]
        u, t = self.price_full(payoffs)
        if t >= 1.0 - 1e-13:
            dprice = [q * u / a for q, a in zip(self._probs_list, payoffs)]
        else:
            den = [a * t - u * t + u for a in payoffs]
            w = sum(q * a / v for q, a, v in zip(self._probs_list, payoffs, den))
            dprice = [q * u / (v * w) for q, v in zip(self._probs_list, den)]
        return u, [sum(a * dp for a, dp in zip(col, dprice)) for col in self._cols]

    def value_grad_hess(self, p: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Mix price at p with its gradient and Hessian in p, from one price solve.

        In the payoffs a the gradient is gamma = probs u / (D W), with
        D = u + t (a - u) and W = E[a / D] (as in _mix_value_grad). Its
        Jacobian follows from differentiating gamma through u (du/da = gamma)
        and through t, whose derivative the implicit function theorem gives
        from the first-order condition E[(a - u) / D] = 0. In the
        full-investment regime the price is gm/g, whose Hessian is
        gamma gamma^T / u - diag(gamma / a). M maps both back to the weights.
        """
        a = self.M @ p
        u, t = self.price_full(a.tolist())
        if t >= 1.0 - 1e-13:
            gamma = self.probs * u / a
            hess = np.outer(gamma, gamma) / u - np.diag(gamma / a)
        else:
            D = u + t * (a - u)
            W = float(self.probs @ (a / D))
            gamma = self.probs * u / (D * W)
            # the first-order condition's partials: u probs / D^2 in a,
            # -E[a / D^2] in u and -E[(a - u)^2 / D^2] in t
            pd2 = self.probs / (D * D)
            dt = (u * pd2 - float(pd2 @ a) * gamma) / float(pd2 @ (a - u) ** 2)
            dD = (1.0 - t) * gamma + t * np.eye(a.size) + np.outer(a - u, dt)
            dW = self.probs / D - (pd2 * a) @ dD
            hess = gamma[:, None] * (gamma / u - dD / D[:, None] - dW / W)
        return u, self.M.T @ gamma, self.M.T @ hess @ self.M

    def big_L(self, t: np.ndarray) -> tuple[float, np.ndarray]:
        """max of the price ratio over the mix simplex and an attaining mix."""
        return self.maximize(self.adjusted(t), np.full(self.n, 1.0 / self.n))

    def maximize(self, adj: np.ndarray, p0: np.ndarray) -> tuple[float, np.ndarray]:
        """max over mixes p of price(mix(p)) / (p . adj), ascending from p0.

        In y = p * adj / (p . adj) the ratio is h(y) = price(mix(y / adj)),
        concave on the simplex because the mix price is concave and
        1-homogeneous, so a local maximum is global. Euler's identity
        grad h . y = h and concavity give max h <= max_i dh/dy_i; projected
        gradient ascent with Barzilai-Borwein steps runs until that bound is
        within ORACLE_GAP of the value, and raises PricingError otherwise.
        The ascent runs on plain floats.
        """
        adj = adj.tolist()

        def evaluate(y: list[float]) -> tuple[float, list[float], list[float]]:
            p = [yi / ai for yi, ai in zip(y, adj)]
            total = sum(p)
            p = [pi / total for pi in p]
            price, grad = self._mix_value_grad(p)
            linear = sum(pi * ai for pi, ai in zip(p, adj))
            return price / linear, [gi / ai for gi, ai in zip(grad, adj)], p

        y = [pi * ai for pi, ai in zip(p0.tolist(), adj)]
        total = sum(y)
        y = [yi / total for yi in y]
        val, g, p = evaluate(y)
        bound = max(g)
        step = 1.0 / bound
        for _ in range(_ORACLE_MAX_ITER):
            if bound - val <= ORACLE_GAP * val:
                return val, np.array(p)
            # g - val projects like g (the simplex absorbs constant shifts)
            # but keeps y + step * d exact when g is nearly flat; moves past
            # 1e6 land on the same face and only lose that precision
            d = [gi - val for gi in g]
            d_max = max(abs(di) for di in d)
            step = min(step, 1e6 / d_max)
            while True:
                y_new = _project_simplex([yi + step * di for yi, di in zip(y, d)])
                val_new, g_new, p_new = evaluate(y_new)
                bound_new = max(g_new)
                # near the optimum value changes drown in price noise; a
                # falling bound, or a slope still rising at y_new (the maximum
                # along the step lies beyond it), still shows progress there.
                # The slope is taken of g_new - val_new: y_new - y sums to 0
                # only to rounding, which times g_new ~ val would swamp it
                if val_new > val or (
                    val_new >= val * (1.0 - _PRICE_NOISE)
                    and (
                        bound_new < bound
                        or sum((gn - val_new) * (yn - yo)
                               for gn, yn, yo in zip(g_new, y_new, y)) > 0.0
                    )
                ):
                    break
                step *= 0.5
                if step * d_max < 1e-15:  # y would no longer move
                    raise PricingError(
                        f"separation oracle stalled with gap {(bound - val) / val:.3e}"
                    )
            s = [yn - yo for yn, yo in zip(y_new, y)]
            curv = -sum(si * (gn - go) for si, gn, go in zip(s, g_new, g))
            step = sum(si * si for si in s) / curv if curv > 0.0 else 2.0 * step
            y, val, g, p, bound = y_new, val_new, g_new, p_new, bound_new
        raise PricingError(
            f"separation oracle iteration cap {_ORACLE_MAX_ITER} hit "
            f"with gap {(bound - val) / val:.3e}"
        )


def _project_simplex(v: Sequence[float]) -> list[float]:
    """Euclidean projection onto the probability simplex, on plain floats."""
    theta = 0.0
    css = 0.0
    for k, s in enumerate(sorted(v, reverse=True), 1):
        css += s
        if s * k > css - 1.0:
            theta = (css - 1.0) / k
    return [max(x - theta, 0.0) for x in v]


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
    val, p_best = prob.big_L(x)
    if val - 1.0 > max(tol_L, 1e-9) or val < 1.0 - 1e-6:
        return None
    # prefer the tighter witness
    adj = prob.adjusted(x)
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
    support = np.flatnonzero(q_hat > 1e-7 * float(np.max(q_hat)))
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
        value, grad, hess = prob.value_grad_hess(q)
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

    z = np.concatenate(([float(np.sum(x_hat[free]))], q_hat[rest]))
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
