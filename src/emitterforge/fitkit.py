"""Small weighted nonlinear least-squares engine.

All model fits in this package go through :func:`least_squares`, a
Levenberg-Marquardt loop with box-bound projection. Every problem supplies
its analytic Jacobian; :func:`finite_difference_jacobian` is kept as a
reference to check one against. Residual functions are expected to return
*weighted* residuals (already divided by the per-point sigma), so the
covariance and reduced chi-square come out in natural units. Every fit
stops on the constants ``MAX_ITERATIONS`` (200), ``COST_TOL`` (1e-10) and
``GRADIENT_TOL`` (1e-10).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

MAX_ITERATIONS = 200
COST_TOL = 1e-10
GRADIENT_TOL = 1e-10
DAMPING_INIT = 1e-3
DAMPING_UP = 10.0
DAMPING_DOWN = 0.1
_MAX_INNER_RETRIES = 25


@dataclass
class FitProblem:
    """A weighted least-squares problem; its iteration cap and convergence
    thresholds are the constants ``MAX_ITERATIONS`` and ``COST_TOL``.

    Parameters
    ----------
    residual : callable
        Maps a parameter vector to the weighted residual vector.
    x0 : array_like
        Initial parameter values.
    lower, upper : array_like or None
        Box bounds; steps are projected back onto the box.
    jacobian : callable, keyword only
        Maps a parameter vector to the m x n Jacobian of the *weighted*
        residual.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    jacobian: Callable[[np.ndarray], np.ndarray] = field(kw_only=True)


@dataclass
class FitOutcome:
    """Result of :func:`least_squares`.

    ``covariance`` is scaled by the residual variance (reduced chi-square);
    it is None when there are no spare degrees of freedom. ``flags`` may
    contain 'covariance_singular' (pseudo-inverse was used, or the
    covariance is None because the normal matrix left float range) and
    'jacobian_flagged_columns' (parameters whose Jacobian column held a
    non-finite entry in the final iteration; the column is zeroed).
    """

    params: np.ndarray
    covariance: np.ndarray | None
    reduced_chi2: float
    converged: bool
    iterations: int
    cost: float
    message: str = ""
    flags: dict = field(default_factory=dict)

    def param_sigma(self) -> np.ndarray:
        if self.covariance is None:
            return np.full(self.params.shape, np.nan)
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


def finite_difference_jacobian(
    residual: Callable[[np.ndarray], np.ndarray],
    params: np.ndarray,
    rel_step: float = 1e-6,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
) -> np.ndarray:
    """Finite-difference Jacobian of a residual function, the reference
    that analytic Jacobians are checked against.

    The step for parameter ``p`` is ``max(rel_step * |p|, rel_step)``, so a
    parameter sitting at zero still gets a finite probe. Central differences
    are used (exact to roundoff for residuals quadratic in the parameter),
    falling back to a one-sided difference when a probe would leave the
    bounds. A column whose probes give non-finite residuals is zeroed.
    """
    params = np.asarray(params, dtype=float)
    r0 = np.atleast_1d(np.asarray(residual(params), dtype=float))
    jac = np.zeros((r0.size, params.size))
    for i in range(params.size):
        h = max(rel_step * abs(params[i]), rel_step)
        hi_ok = upper is None or params[i] + h <= upper[i]
        lo_ok = lower is None or params[i] - h >= lower[i]
        probe = params.copy()
        if hi_ok and lo_ok:
            probe[i] = params[i] + h
            r_plus = np.asarray(residual(probe), dtype=float)
            probe[i] = params[i] - h
            r_minus = np.asarray(residual(probe), dtype=float)
            denom = 2.0 * h
        elif hi_ok:
            probe[i] = params[i] + h
            r_plus = np.asarray(residual(probe), dtype=float)
            r_minus = r0
            denom = h
        elif lo_ok:
            r_plus = r0
            probe[i] = params[i] - h
            r_minus = np.asarray(residual(probe), dtype=float)
            denom = h
        else:  # box thinner than the probe step: secant across the box
            probe[i] = upper[i]
            r_plus = np.asarray(residual(probe), dtype=float)
            probe[i] = lower[i]
            r_minus = np.asarray(residual(probe), dtype=float)
            denom = upper[i] - lower[i] if upper[i] > lower[i] else 1.0
        if np.all(np.isfinite(r_plus)) and np.all(np.isfinite(r_minus)):
            jac[:, i] = (r_plus - r_minus) / denom
    return jac


def _problem_jacobian(problem, x, r):
    """The problem's Jacobian at ``x``; non-finite columns are zeroed and
    flagged."""
    jac = np.array(problem.jacobian(x), dtype=float, ndmin=2)
    if jac.shape != (r.size, x.size):
        raise DomainError(
            f"jacobian has shape {jac.shape}, expected {(r.size, x.size)}"
        )
    bad = ~np.all(np.isfinite(jac), axis=0)
    jac[:, bad] = 0.0
    return jac, np.flatnonzero(bad).tolist()


def least_squares(problem: FitProblem) -> FitOutcome:
    """Minimize the sum of squared residuals with damped Gauss-Newton steps.

    The Jacobian comes from ``problem.jacobian``. Damping starts at 1e-3
    and moves by factors of 10 (up on a rejected step, down on an accepted
    one). Convergence: relative cost decrease below ``COST_TOL`` (1e-10) or
    infinity-norm of the gradient below ``GRADIENT_TOL`` (1e-10), within
    ``MAX_ITERATIONS`` (200) accepted steps. Singular normal equations
    get damped retries and, if they persist, a non-converged outcome
    carrying the best point seen.
    """
    x = np.asarray(problem.x0, dtype=float).copy()
    lower = None if problem.lower is None else np.asarray(problem.lower, dtype=float)
    upper = None if problem.upper is None else np.asarray(problem.upper, dtype=float)

    def project(p: np.ndarray) -> np.ndarray:
        if lower is not None:
            p = np.maximum(p, lower)
        if upper is not None:
            p = np.minimum(p, upper)
        return p

    def cost_of(r: np.ndarray) -> float:
        return float(np.dot(r, r))

    x = project(x)
    r = np.atleast_1d(np.asarray(problem.residual(x), dtype=float))
    if not np.all(np.isfinite(r)):
        raise DomainError("residual is non-finite at the initial point")
    cost = cost_of(r)

    def blocked(grad: np.ndarray) -> np.ndarray:
        mask = np.zeros(x.size, dtype=bool)
        if lower is not None:
            mask |= (x <= lower) & (grad > 0)
        if upper is not None:
            mask |= (x >= upper) & (grad < 0)
        return mask

    lam = DAMPING_INIT
    iterations = 0
    converged = False
    message = "max iterations reached"
    jac, flagged = _problem_jacobian(problem, x, r)

    while iterations < MAX_ITERATIONS:
        grad = jac.T @ r
        # parameters pinned at a bound with the gradient pushing outward
        # are frozen for this step; convergence is judged on the rest
        free = ~blocked(grad)
        proj_grad = np.where(free, grad, 0.0)
        if np.max(np.abs(proj_grad), initial=0.0) < GRADIENT_TOL:
            converged = True
            message = "gradient norm below threshold"
            break

        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0.0] = 1.0  # keep damping effective on flat columns
        idx = np.flatnonzero(free)
        jtj_f = jtj[np.ix_(idx, idx)]
        grad_f = grad[idx]
        diag_f = diag[idx]
        accepted = False
        for _ in range(_MAX_INNER_RETRIES):
            try:
                step_f = np.linalg.solve(jtj_f + lam * np.diag(diag_f), -grad_f)
            except np.linalg.LinAlgError:
                lam *= DAMPING_UP
                continue
            if not np.all(np.isfinite(step_f)):
                lam *= DAMPING_UP
                continue
            step = np.zeros(x.size)
            step[idx] = step_f
            x_new = project(x + step)
            r_new = np.asarray(problem.residual(x_new), dtype=float)
            if not np.all(np.isfinite(r_new)):
                lam *= DAMPING_UP
                continue
            cost_new = cost_of(r_new)
            if cost_new < cost:
                accepted = True
                break
            # no movement after projection means damping cannot help further
            if np.array_equal(x_new, x):
                break
            lam *= DAMPING_UP
        if not accepted:
            # stuck: singular normal equations, a plateau, or a bound.
            gmax = float(np.max(np.abs(proj_grad), initial=0.0))
            converged = gmax < 1e-6 * (1.0 + cost)
            message = (
                "stalled with negligible projected gradient"
                if converged
                else "no descending step found (singular or stalled normal equations)"
            )
            break

        rel_decrease = (cost - cost_new) / cost if cost > 0 else 0.0
        x, r, cost = x_new, r_new, cost_new
        lam = max(lam * DAMPING_DOWN, 1e-32)
        # a near-total cost drop means the model is locally exact, so the
        # next step can be (almost) pure Gauss-Newton
        if rel_decrease > 0.9999:
            lam = min(lam, 1e-12)
        iterations += 1
        jac, flagged = _problem_jacobian(problem, x, r)
        if rel_decrease < COST_TOL:
            converged = True
            message = "relative cost decrease below tolerance"
            break

    covariance, cov_singular = _covariance(jac, cost, r.size, x.size)
    reduced_chi2 = cost / (r.size - x.size) if r.size > x.size else float("nan")
    flags: dict = {}
    if flagged:
        flags["jacobian_flagged_columns"] = flagged
    if cov_singular:
        flags["covariance_singular"] = True
    return FitOutcome(
        params=x,
        covariance=covariance,
        reduced_chi2=reduced_chi2,
        converged=converged,
        iterations=iterations,
        cost=cost,
        message=message,
        flags=flags,
    )


def _covariance(jac, cost, m, n):
    if m <= n:
        return None, False
    scale = cost / (m - n)
    jtj = jac.T @ jac
    if not np.all(np.isfinite(jtj)):
        return None, True  # past float range; an SVD of it may never return
    try:
        inv = np.linalg.inv(jtj)
        if not np.all(np.isfinite(inv)):
            raise np.linalg.LinAlgError
        return inv * scale, False
    except np.linalg.LinAlgError:
        return np.linalg.pinv(jtj) * scale, True
