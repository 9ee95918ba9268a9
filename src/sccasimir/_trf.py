"""Bounded nonlinear least squares by the trust-region reflective method
(Branch, Coleman & Li, SIAM J. Sci. Comput. 21, 1 (1999)) for ``dynes_fit``.

scipy 1.17's ``least_squares(method='trf')`` cut to the case the fit runs:
every variable bounded, the exact (SVD) trust-region solver, unit scaling,
the linear loss, a forward-difference Jacobian kept inside the bounds, and
``ftol = xtol = gtol``.  It makes the same floating-point operations in the
same order, so it returns scipy's ``x``, ``nfev`` and status bit for bit.
``fun`` must raise rather than return a non-finite residual: scipy's retry
on one is not carried.
"""

from math import copysign
from typing import NamedTuple

import numpy as np
from numpy.linalg import norm, svd

EPS = np.finfo(float).eps


class Solution(NamedTuple):
    x: np.ndarray
    nfev: int    # residual evaluations; those of the Jacobians are not counted
    status: int  # 0: max_nfev reached; 1, 2, 3, 4: gtol, ftol, xtol, both converged

    @property
    def success(self) -> bool:
        return self.status > 0

    @property
    def message(self) -> str:  # scipy's words for the one failure
        return "" if self.success else "The maximum number of function evaluations is exceeded."


def least_squares(fun, x0, lb, ub, tol: float, max_nfev: int) -> Solution:
    """Minimise ``0.5 |fun(x)|^2`` over ``lb <= x <= ub`` from ``x0``."""
    lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
    x = _strictly_feasible(np.asarray(x0, dtype=float), lb, ub, rstep=1e-10)
    f = fun(x)
    J = _jacobian(fun, x, f, lb, ub)
    nfev, (m, n) = 1, J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    v, dv = _scaling(x, g, lb, ub)
    Delta = norm(x / v**0.5)  # the trust-region radius
    if Delta == 0:
        Delta = 1.0
    f_augmented, J_augmented = np.zeros(m + n), np.empty((m + n, n))
    alpha = 0.0  # the Levenberg-Marquardt parameter
    status = None
    while True:
        v, dv = _scaling(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < tol:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        # the Coleman-Li "hat" variables, scaled by d = v^(1/2)
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        U, s, VT = svd(J_augmented, full_matrices=False)
        # scipy's SVD returns Fortran-ordered factors, and the products round by layout
        U, V = np.asfortranarray(U), np.asfortranarray(VT).T
        uf = U.T.dot(f_augmented)
        theta = max(0.995, 1 - g_norm)  # how far a step stops short of a bound

        reduction = -1
        while reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _trust_region_step(n, m, uf, s, V, Delta, alpha)
            step, step_h, predicted = _select_step(x, J_h, diag_h, g_h, d * p_h, p_h, d,
                                                   Delta, lb, ub, theta)
            x_new = _strictly_feasible(x + step, lb, ub, rstep=0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            Delta_new, ratio = _update_radius(Delta, reduction, predicted, step_h_norm,
                                              step_h_norm > 0.95 * Delta)
            status = _termination(reduction, cost, norm(step), norm(x), ratio, tol)
            if status is not None:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = _jacobian(fun, x, f, lb, ub)
            g = J.T.dot(f)
    return Solution(x, nfev, 0 if status is None else status)


def _jacobian(fun, x, f, lb, ub) -> np.ndarray:
    """Forward differences with steps sqrt(eps) sign(x) max(1, |x|); a step
    that leaves the bounds is flipped, or where it fits neither way, shrunk
    to the far bound."""
    h = EPS**0.5 * ((x >= 0).astype(float) * 2 - 1) * np.maximum(1.0, np.abs(x))
    lower_dist, upper_dist = x - lb, ub - x
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h[((x + h < lb) | (x + h > ub)) & fitting] *= -1
    forward = (upper_dist >= lower_dist) & ~fitting
    h[forward] = upper_dist[forward]
    backward = (upper_dist < lower_dist) & ~fitting
    h[backward] = -lower_dist[backward]
    J_transposed = np.empty((x.size, f.size))
    for i in range(x.size):
        x1 = x.copy()
        x1[i] = x[i] + h[i]
        J_transposed[i] = (fun(x1) - f) / ((x[i] + h[i]) - x[i])
    return J_transposed.T


def _scaling(x, g, lb, ub):
    """The Coleman-Li vector v, the distance to the bound the antigradient
    points at (1 without one), and its derivative dv/dx."""
    up = (g < 0) & np.isfinite(ub)
    down = (g > 0) & np.isfinite(lb)
    return np.where(down, x - lb, np.where(up, ub - x, 1.0)), down.astype(float) - up


def _strictly_feasible(x, lb, ub, rstep: float) -> np.ndarray:
    """``x`` moved off a bound it is within ``rstep`` (relative) of, or with
    ``rstep`` 0 off a bound it touches, to the next float inside."""
    x_new = x.copy()
    if rstep == 0:
        upper = x >= ub
        lower = (x <= lb) & ~upper
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
    else:
        lower_dist, upper_dist = x - lb, ub - x
        upper = np.isfinite(ub) & (upper_dist <= np.minimum(
            lower_dist, rstep * np.maximum(1, np.abs(ub))))
        lower = np.isfinite(lb) & (lower_dist <= np.minimum(
            upper_dist, rstep * np.maximum(1, np.abs(lb)))) & ~upper
        x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
        x_new[upper] = ub[upper] - rstep * np.maximum(1, np.abs(ub[upper]))
    tight = (x_new < lb) | (x_new > ub)
    x_new[tight] = 0.5 * (lb[tight] + ub[tight])
    return x_new


def _trust_region_step(n, m, uf, s, V, Delta, alpha):
    """The step of norm at most Delta minimising |J p + f| (More, LNM 630
    (1978)), from the SVD of J: the Gauss-Newton step if it fits, else
    the regularised one whose norm Newton's method sets to Delta."""
    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf ** 2 / denom**3) / p_norm

    suf = s * uf
    full_rank = m >= n and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
    alpha_upper = norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    p *= Delta / norm(p)  # on the trust region's edge, not just outside it
    return p, alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The best of the trust-region step, its reflection at the first bound
    it crosses and the step along the antigradient, each kept strictly
    inside; returns the step, in x and in hat variables, and its predicted
    reduction."""
    if np.all((x + p >= lb) & (x + p <= ub)):
        return p, p_h, -sum(_quadratic_1d(J_h, g_h, p_h, diag_h))
    p_stride, hits = _step_to_bound(x, p, lb, ub)
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p
    # the reflected direction leaves the feasible region or the trust region first
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_to_bound(x_on_bound, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0, -1
    if r_stride_l <= r_stride_u:
        a, b, c = _quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf
    p *= theta
    p_h *= theta
    p_value = sum(_quadratic_1d(J_h, g_h, p_h, diag_h))

    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _intersect_trust_region(x, s, Delta):
    """The roots t, in ascending order, of |x + t s| = Delta."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b*b - a*c)
    q = -(b + copysign(d, b))  # without cancellation
    t1, t2 = q / a, c / q
    return (t1, t2) if t1 < t2 else (t2, t1)


def _step_to_bound(x, s, lb, ub):
    """The least t >= 0 that puts ``x + t s`` on a bound, and per variable
    -1, 1 or 0 for the lower bound, the upper one or neither reached at it."""
    non_zero = np.nonzero(s)
    steps = np.full_like(x, np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s[non_zero],
                                     (ub - x)[non_zero] / s[non_zero])
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _quadratic_1d(J, g, s, diag, s0=None):
    """The coefficients a, b (and with ``s0``, c) of ``0.5 s (J^T J + diag) s
    + g s`` on the line ``s0 + t s``, as ``a t^2 + b t + c``; without ``s0``,
    ``a + b`` is its value at ``s``."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_1d(a, b, lb, ub, c=0):
    """The minimum point and value of ``a t^2 + b t + c`` on [lb, ub]."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    return t[np.argmin(y)], y[np.argmin(y)]


def _update_radius(Delta, actual, predicted, step_norm, bound_hit):
    """The next trust-region radius, and the ratio of actual to predicted
    reduction that sets it."""
    ratio = actual / predicted if predicted > 0 else 1 if predicted == actual == 0 else 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _termination(dF, F, dx_norm, x_norm, ratio, tol):
    """2 when the cost, 3 when x, 4 when both have converged, else None."""
    ftol, xtol = dF < tol * F and ratio > 0.25, dx_norm < tol * (tol + x_norm)
    return 4 if ftol and xtol else 2 if ftol else 3 if xtol else None
