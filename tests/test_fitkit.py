import numpy as np
import pytest

from emitterforge.errors import DomainError
from emitterforge.fitkit import (
    FitProblem,
    finite_difference_jacobian,
    least_squares,
)


def test_linear_problem_solved_in_one_step():
    # residual linear in params: LM should land on the normal-equation
    # solution almost immediately
    rng = np.random.default_rng(0)
    A = rng.normal(size=(30, 3))
    truth = np.array([2.0, -1.0, 0.5])
    y = A @ truth

    out = least_squares(FitProblem(lambda p: A @ p - y, x0=np.zeros(3), jacobian=lambda p: A))
    assert out.converged
    assert out.iterations <= 3
    assert out.params == pytest.approx(truth, abs=1e-8)
    assert out.cost == pytest.approx(0.0, abs=1e-16)


def test_exponential_round_trip_with_covariance():
    t = np.linspace(0.0, 5.0, 80)
    truth = (3.0, 1.5, 0.4)
    rng = np.random.default_rng(7)
    sigma = 0.02

    def model(p):
        return p[0] * np.exp(-t / p[1]) + p[2]

    def jacobian(p):
        e = np.exp(-t / p[1])
        return np.stack([e, p[0] * t * e / p[1] ** 2, np.ones_like(t)], axis=1) / sigma

    y = truth[0] * np.exp(-t / truth[1]) + truth[2] + rng.normal(0.0, sigma, t.size)
    out = least_squares(
        FitProblem(
            lambda p: (model(p) - y) / sigma,
            x0=np.array([1.0, 1.0, 0.0]),
            lower=np.array([0.0, 1e-6, -10.0]),
            upper=np.array([100.0, 100.0, 10.0]),
            jacobian=jacobian,
        )
    )
    assert out.converged
    assert out.reduced_chi2 == pytest.approx(1.0, abs=0.5)
    err = out.param_sigma()
    for fitted, true, e in zip(out.params, truth, err):
        assert abs(fitted - true) < 4.0 * e


def test_bounds_are_respected():
    # unconstrained optimum at p = -2; box forces p >= 0
    out = least_squares(
        FitProblem(
            lambda p: np.array([p[0] + 2.0, 0.1 * p[0]]),
            x0=np.array([5.0]),
            lower=np.array([0.0]),
            upper=np.array([10.0]),
            jacobian=lambda p: np.array([[1.0], [0.1]]),
        )
    )
    assert out.converged
    assert out.params[0] == pytest.approx(0.0, abs=1e-10)


def test_fd_jacobian_central_accuracy():
    def residual(p):
        return np.array([p[0] ** 2, np.sin(p[1]), p[0] * p[1]])

    p = np.array([1.3, 0.7])
    jac = finite_difference_jacobian(residual, p)
    expected = np.array(
        [[2 * p[0], 0.0], [0.0, np.cos(p[1])], [p[1], p[0]]]
    )
    assert jac == pytest.approx(expected, abs=1e-7)


def test_fd_jacobian_one_sided_at_bound():
    # parameter pinned at its lower bound: probe must not cross it
    calls = []

    def residual(p):
        calls.append(p[0])
        assert p[0] >= 0.0, "probe crossed the bound"
        return np.array([np.sqrt(p[0] + 1.0)])

    jac = finite_difference_jacobian(
        residual, np.array([0.0]), lower=np.array([0.0]), upper=np.array([10.0])
    )
    assert jac[0, 0] == pytest.approx(0.5, abs=1e-5)


def test_fd_jacobian_zero_param_uses_floor_step():
    jac = finite_difference_jacobian(lambda p: np.array([3.0 * p[0]]), np.array([0.0]))
    assert jac[0, 0] == pytest.approx(3.0, rel=1e-9)


def test_fd_jacobian_secant_across_thin_box():
    lower = np.array([1.0])
    upper = np.array([1.0 + 1e-9])

    def residual(p):
        assert lower[0] <= p[0] <= upper[0]
        return np.array([2.0 * p[0]])

    jac = finite_difference_jacobian(residual, np.array([1.0]), lower=lower, upper=upper)
    assert jac[0, 0] == pytest.approx(2.0, rel=1e-6)


def test_nonfinite_column_flagged_not_fatal():
    # the second residual is a step at p[1] = 1: its slope there is infinite
    def residual(p):
        bad = np.inf if p[1] != 1.0 else 0.0
        return np.array([p[0] - 2.0, bad])

    out = least_squares(
        FitProblem(
            residual, x0=np.array([0.0, 1.0]),
            jacobian=lambda p: np.array([[1.0, 0.0], [0.0, np.inf]]),
        )
    )
    assert out.params[0] == pytest.approx(2.0)
    assert "jacobian_flagged_columns" in out.flags
    assert 1 in out.flags["jacobian_flagged_columns"]


def test_optimum_on_bound_still_converges_with_covariance():
    # the data pull the first parameter below its bound; the reduced
    # system must still converge and produce a finite covariance for the
    # free parameter
    t = np.linspace(0.0, 1.0, 40)
    y = -0.3 + 2.0 * t

    def residual(p):
        return (p[0] + p[1] * t) - y

    out = least_squares(
        FitProblem(
            residual,
            x0=np.array([1.0, 1.0]),
            lower=np.array([0.0, -np.inf]),
            upper=np.array([np.inf, np.inf]),
            jacobian=lambda p: np.column_stack([np.ones_like(t), t]),
        )
    )
    assert out.converged
    assert out.params[0] == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(out.params).all()


def test_no_degrees_of_freedom_gives_none_covariance():
    out = least_squares(
        FitProblem(
            lambda p: np.array([p[0] - 1.0]), x0=np.array([0.0]),
            jacobian=lambda p: np.array([[1.0]]),
        )
    )
    assert out.converged
    assert out.covariance is None
    assert np.isnan(out.param_sigma()).all()


def _exp_problem():
    t = np.linspace(0.0, 5.0, 60)
    y = 3.0 * np.exp(-t / 1.5) + 0.4 + np.random.default_rng(3).normal(0.0, 0.02, t.size)

    def residual(p):
        return (p[0] * np.exp(-t / p[1]) + p[2] - y) / 0.02

    def jacobian(p):
        e = np.exp(-t / p[1])
        return np.stack([e, p[0] * t * e / p[1] ** 2, np.ones_like(t)], axis=1) / 0.02

    return FitProblem(
        residual,
        x0=np.array([1.0, 1.0, 0.0]),
        lower=np.array([0.0, 1e-6, -10.0]),
        upper=np.array([100.0, 100.0, 10.0]),
        jacobian=jacobian,
    ), jacobian


def test_analytic_jacobian_matches_finite_difference_fit():
    problem, jacobian = _exp_problem()
    calls = []

    def counted(p):
        calls.append(1)
        return problem.residual(p)

    def fd_jacobian(p):
        return finite_difference_jacobian(counted, p, lower=problem.lower, upper=problem.upper)

    fd = least_squares(
        FitProblem(counted, problem.x0, problem.lower, problem.upper, jacobian=fd_jacobian)
    )
    fd_calls = len(calls)
    calls.clear()
    an = least_squares(
        FitProblem(counted, problem.x0, problem.lower, problem.upper, jacobian=jacobian)
    )
    assert an.converged and fd.converged
    assert an.params == pytest.approx(fd.params, rel=1e-6)
    assert np.sqrt(np.diag(an.covariance)) == pytest.approx(
        np.sqrt(np.diag(fd.covariance)), rel=1e-4
    )
    # no finite-difference probes: one residual per trial point only
    assert len(calls) < fd_calls / 4


def test_analytic_jacobian_nonfinite_column_flagged():
    problem, jacobian = _exp_problem()

    def bad_jacobian(p):
        jac = jacobian(p)
        jac[0, 2] = np.nan
        return jac

    problem.jacobian = bad_jacobian
    out = least_squares(problem)
    assert out.flags["jacobian_flagged_columns"] == [2]


def test_analytic_jacobian_wrong_shape_is_domain_error():
    problem, jacobian = _exp_problem()
    problem.jacobian = lambda p: jacobian(p).T
    with pytest.raises(DomainError, match="shape"):
        least_squares(problem)
