"""Kelley's cutting planes and the KKT polish: the route least_squares_prices
took before its concave dual solve, kept as a reference for the tests.

_min_norm_point is the exact min-norm point under a set of cuts, by
least-distance programming on the library's NNLS. _polish is Newton on the
KKT stationarity system from a cutting-plane iterate, accepted when every
coordinate held at 1 has a nonnegative bound multiplier and the oracle
certifies L <= 1 + tol_L. The tests compare the dual's answers with a run of
cutting planes to tol_L followed by one polish.
"""

import numpy as np

from gameprice.core import PricingError
from gameprice.lsq import _LsqProblem, _nnls_cols

# a bound multiplier mu q_i d_i - 1 above -_MULTIPLIER_TOL counts as >= 0
_MULTIPLIER_TOL = 1e-9


def raw_value_grad_hess(prob: _LsqProblem, q: np.ndarray):
    """value_grad_hess at q, weights of the games themselves at any scale,
    with its derivatives in q.

    value_grad_hess weighs each game per unit of its ceiling: q is the mix
    p = q c / s there, s = q . c. The price is 1-homogeneous, its gradient
    0-homogeneous and its Hessian (-1)-homogeneous, so in q they are the
    price times s, the gradient times c and the Hessian times c c^T / s.
    """
    c = np.array(prob.c_tuple)
    s = float(q @ c)
    value, grad, hess = prob.value_grad_hess((q * c / s).tolist())
    return value * s, np.array(grad) * c, np.array(hess) * np.outer(c, c) / s


def _nnls(A, b) -> np.ndarray:
    """The library's NNLS (_nnls_cols) on an m x n array A, as an array."""
    return np.array(_nnls_cols(np.asarray(A, dtype=float).T.tolist(), b))


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
    d = np.array(prob.d_tuple)
    tiny = 1e-12 * max(max(prob.c_tuple), 1.0)
    pinned0 = d <= tiny
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
    if np.any(mu * q[pinned1] * d[pinned1] < 1.0 - _MULTIPLIER_TOL):
        return None  # lowering that coordinate would shorten x within L <= 1
    # the oracle's certificate does not depend on where it starts; from the
    # tight mix q it takes a step or two
    adj = np.array(prob.adjusted_prices(x))
    c = np.array(prob.c_tuple)
    state = prob.maximize(adj, (q * c / float(q @ c)).tolist())[0]
    val, p_best = state[3], np.array(prob.raw_mix(state[7]))
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
    by the chain rule through raw_value_grad_hess. Newton stops after a step
    within 1e-12 of z, or when the line search no longer lowers the residual.
    """
    n = prob.n
    d = np.array(prob.d_tuple)
    # the games q_hat weighs, and those whose ratio gradient ties with the
    # ratio at q_hat: where the tight mixes form a segment, q_hat can lie at
    # one end of it and leave out a game that the optimum weighs
    adj_hat = np.array(prob.adjusted_prices(x_hat))
    value, grad, _ = raw_value_grad_hess(prob, q_hat)
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
        value, grad, hess = raw_value_grad_hess(prob, q)
        adj = np.array(prob.adjusted_prices(x))
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
