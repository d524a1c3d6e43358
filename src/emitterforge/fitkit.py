"""Small weighted nonlinear least-squares engine.

All model fits in this package go through :func:`least_squares`, a
Levenberg-Marquardt loop with box-bound projection. A :class:`FitProblem`
holds one model callback and the data it is fitted to: ``model(p)``
returns the model at every data point together with its analytic
Jacobian, and fitkit weights both by ``sigma`` itself, so the covariance
and reduced chi-square come out in natural units. Each trial point costs
one model call, and the Jacobian of the accepted point is the one kept. A
non-finite model value marks a point outside the model's domain; its
Jacobian is not read. :func:`finite_difference_jacobian` is kept as a
reference to check an analytic Jacobian against. Every fit stops on the
constants ``MAX_ITERATIONS`` (200), ``COST_TOL`` (1e-10) and
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
    """A weighted least-squares fit of ``model`` to ``y``; its iteration cap
    and convergence thresholds are the constants ``MAX_ITERATIONS`` and
    ``COST_TOL``.

    Parameters
    ----------
    model : callable
        Maps a parameter vector to ``(value, jacobian)``: the model at the m
        data points and its m x n Jacobian. A value with a non-finite entry
        marks a point outside the model's domain; its Jacobian may be None.
    y : array_like
        The m data points.
    sigma : array_like or float
        Their standard deviations, per point or one for all.
    x0 : array_like
        Initial parameter values.
    lower, upper : array_like or None
        Box bounds; steps are projected back onto the box.

    A non-finite data value, a sigma that is not positive or whose square
    overflows (its weight ``1 / sigma**2`` would read 0), or a value with
    ``|y| >= 2**500 * sigma`` (the normal equations of its weighted
    residual would overflow) raises :class:`DomainError` here, once per fit.
    """

    model: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]]
    y: np.ndarray
    sigma: np.ndarray | float
    x0: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.sigma = np.broadcast_to(np.asarray(self.sigma, dtype=float), self.y.shape)
        # comparisons only, so the check cannot overflow: sigma**2 is finite
        # exactly below 2**512, and 1 / sigma**2 is then above 0; the |y|
        # test runs last, where 2**500 * sigma is below 2**1012
        weighted = np.all((self.sigma > 0.0) & (self.sigma < 2.0**512))
        if not (np.all(np.isfinite(self.y)) and weighted
                and np.all(np.abs(self.y) < 2.0**500 * self.sigma)):
            raise DomainError("values to fit or their weights are out of float range")


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


def standard_errors(covariance: np.ndarray | None, n: int) -> np.ndarray:
    """Square roots of the covariance diagonal, negative round-off read as
    0; ``n`` NaNs when there is no covariance."""
    if covariance is None:
        return np.full(n, np.nan)
    return np.sqrt(np.clip(np.diag(covariance), 0.0, None))


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


def _weighted_jacobian(jac, sigma, x):
    """A model Jacobian at ``x`` divided by ``sigma``; non-finite columns
    are zeroed and flagged."""
    jac = np.array(jac, dtype=float, ndmin=2)
    if jac.shape != (sigma.size, x.size):
        raise DomainError(
            f"jacobian has shape {jac.shape}, expected {(sigma.size, x.size)}"
        )
    jac /= sigma[:, None]
    bad = ~np.all(np.isfinite(jac), axis=0)
    jac[:, bad] = 0.0
    return jac, np.flatnonzero(bad).tolist()


def least_squares(problem: FitProblem) -> FitOutcome:
    """Minimize the weighted sum of squares ``sum(((model - y) / sigma)**2)``
    with damped Gauss-Newton steps.

    Each trial point costs one ``problem.model`` call, whose Jacobian is
    kept when the point is accepted. Damping starts at 1e-3 and moves by
    factors of 10 (up on a rejected step, down on an accepted one).
    Convergence: relative cost decrease below ``COST_TOL`` (1e-10) or
    infinity-norm of the gradient below ``GRADIENT_TOL`` (1e-10), within
    ``MAX_ITERATIONS`` (200) accepted steps. Singular normal equations
    get damped retries and, if they persist, a non-converged outcome
    carrying the best point seen.
    """
    y, sigma = problem.y, problem.sigma
    lower = None if problem.lower is None else np.asarray(problem.lower, dtype=float)
    upper = None if problem.upper is None else np.asarray(problem.upper, dtype=float)

    def project(p: np.ndarray) -> np.ndarray:
        if lower is not None:
            p = np.maximum(p, lower)
        if upper is not None:
            p = np.minimum(p, upper)
        return p

    def evaluate(p: np.ndarray):
        """Weighted residual at ``p`` and the model's Jacobian there."""
        value, jac = problem.model(p)
        return (np.asarray(value, dtype=float) - y) / sigma, jac

    x = project(np.asarray(problem.x0, dtype=float).copy())
    r, model_jac = evaluate(x)
    if not np.all(np.isfinite(r)):
        raise DomainError("residual is non-finite at the initial point")
    cost = float(np.dot(r, r))

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
    jac, flagged = _weighted_jacobian(model_jac, sigma, x)

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
            r_new, model_jac = evaluate(x_new)
            if not np.all(np.isfinite(r_new)):
                lam *= DAMPING_UP
                continue
            cost_new = float(np.dot(r_new, r_new))
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
        jac, flagged = _weighted_jacobian(model_jac, sigma, x)
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
