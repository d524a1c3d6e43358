import numpy as np
import pytest

from emitterforge import analysis, correlator, fitkit
from emitterforge.errors import DomainError
from emitterforge.fitkit import (
    FitProblem,
    finite_difference_jacobian,
    least_squares,
)
from emitterforge.photonsim import (
    DecayHistogram,
    DetectorModel,
    EmitterModel,
    run_detection,
    simulate_emitter_tags,
)


def test_linear_problem_solved_in_one_step():
    # residual linear in params: LM should land on the normal-equation
    # solution almost immediately
    rng = np.random.default_rng(0)
    A = rng.normal(size=(30, 3))
    truth = np.array([2.0, -1.0, 0.5])
    y = A @ truth

    out = least_squares(FitProblem(lambda p: (A @ p, A), y, 1.0, x0=np.zeros(3),
                                   lower=np.full(3, -np.inf), upper=np.full(3, np.inf)))
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
        e = np.exp(-t / p[1])
        return p[0] * e + p[2], np.stack([e, p[0] * t * e / p[1] ** 2, np.ones_like(t)], axis=1)

    y = truth[0] * np.exp(-t / truth[1]) + truth[2] + rng.normal(0.0, sigma, t.size)
    out = least_squares(
        FitProblem(
            model, y, sigma,
            x0=np.array([1.0, 1.0, 0.0]),
            lower=np.array([0.0, 1e-6, -10.0]),
            upper=np.array([100.0, 100.0, 10.0]),
        )
    )
    assert out.converged
    assert out.reduced_chi2 == pytest.approx(1.0, abs=0.5)
    err = fitkit.standard_errors(out.covariance, out.params.size)
    for fitted, true, e in zip(out.params, truth, err):
        assert abs(fitted - true) < 4.0 * e


def test_bounds_are_respected():
    # unconstrained optimum at p = -2; box forces p >= 0
    out = least_squares(
        FitProblem(
            lambda p: (np.array([p[0], 0.1 * p[0]]), np.array([[1.0], [0.1]])),
            np.array([-2.0, 0.0]), 1.0,
            x0=np.array([5.0]),
            lower=np.array([0.0]),
            upper=np.array([10.0]),
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
    # the second value is a step at p[1] = 1: its slope there is infinite
    def model(p):
        bad = np.inf if p[1] != 1.0 else 0.0
        return np.array([p[0], bad]), np.array([[1.0, 0.0], [0.0, np.inf]])

    out = least_squares(FitProblem(model, np.array([2.0, 0.0]), 1.0, x0=np.array([0.0, 1.0]),
                                   lower=np.full(2, -np.inf), upper=np.full(2, np.inf)))
    assert out.params[0] == pytest.approx(2.0)
    assert "jacobian_flagged_columns" in out.flags
    assert 1 in out.flags["jacobian_flagged_columns"]


def test_optimum_on_bound_still_converges_with_covariance():
    # the data pull the first parameter below its bound; the reduced
    # system must still converge and produce a finite covariance for the
    # free parameter
    t = np.linspace(0.0, 1.0, 40)
    y = -0.3 + 2.0 * t

    def model(p):
        return p[0] + p[1] * t, np.column_stack([np.ones_like(t), t])

    out = least_squares(
        FitProblem(
            model, y, 1.0,
            x0=np.array([1.0, 1.0]),
            lower=np.array([0.0, -np.inf]),
            upper=np.array([np.inf, np.inf]),
        )
    )
    assert out.converged
    assert out.params[0] == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(out.params).all()


def test_no_degrees_of_freedom_gives_none_covariance():
    out = least_squares(
        FitProblem(lambda p: (p.copy(), np.array([[1.0]])), np.array([1.0]), 1.0, x0=np.array([0.0]),
                   lower=np.full(1, -np.inf), upper=np.full(1, np.inf))
    )
    assert out.converged
    assert out.covariance is None
    assert np.isnan(fitkit.standard_errors(out.covariance, out.params.size)).all()


def _exp_model(t):
    def model(p):
        e = np.exp(-t / p[1])
        return p[0] * e + p[2], np.stack([e, p[0] * t * e / p[1] ** 2, np.ones_like(t)], axis=1)

    return model


def _exp_problem():
    t = np.linspace(0.0, 5.0, 60)
    y = 3.0 * np.exp(-t / 1.5) + 0.4 + np.random.default_rng(3).normal(0.0, 0.02, t.size)
    model = _exp_model(t)
    return FitProblem(
        model, y, 0.02,
        x0=np.array([1.0, 1.0, 0.0]),
        lower=np.array([0.0, 1e-6, -10.0]),
        upper=np.array([100.0, 100.0, 10.0]),
    ), model


def test_analytic_jacobian_matches_finite_difference_fit():
    problem, model = _exp_problem()
    calls = []

    def value(p):
        calls.append(1)
        return model(p)[0]

    def fd_model(p):
        return value(p), finite_difference_jacobian(
            value, p, lower=problem.lower, upper=problem.upper
        )

    def analytic_model(p):
        calls.append(1)
        return model(p)

    data = problem.y, problem.sigma, problem.x0, problem.lower, problem.upper
    fd = least_squares(FitProblem(fd_model, *data))
    fd_calls = len(calls)
    calls.clear()
    an = least_squares(FitProblem(analytic_model, *data))
    assert an.converged and fd.converged
    assert an.params == pytest.approx(fd.params, rel=1e-6)
    assert np.sqrt(np.diag(an.covariance)) == pytest.approx(
        np.sqrt(np.diag(fd.covariance)), rel=1e-4
    )
    # no finite-difference probes: one model call per trial point only
    assert len(calls) < fd_calls / 4


def test_analytic_jacobian_nonfinite_column_flagged():
    problem, model = _exp_problem()

    def bad_model(p):
        value, jac = model(p)
        jac[0, 2] = np.nan
        return value, jac

    problem.model = bad_model
    out = least_squares(problem)
    assert out.flags["jacobian_flagged_columns"] == [2]


def test_analytic_jacobian_wrong_shape_is_domain_error():
    problem, model = _exp_problem()
    problem.model = lambda p: (model(p)[0], model(p)[1].T)
    with pytest.raises(DomainError, match="shape"):
        least_squares(problem)


def test_per_point_sigma_weights_value_and_jacobian():
    # a straight line through data of unequal sigma: the weighted normal
    # equations give the parameters and the unscaled covariance exactly
    t = np.linspace(0.0, 1.0, 25)
    sigma = 0.05 + 0.2 * t
    y = 1.0 + 2.0 * t + sigma * np.random.default_rng(5).standard_normal(t.size)
    design = np.column_stack([np.ones_like(t), t])
    out = least_squares(FitProblem(lambda p: (design @ p, design), y, sigma, x0=np.zeros(2),
                                   lower=np.full(2, -np.inf), upper=np.full(2, np.inf)))
    weighted = design / sigma[:, None]
    expected = np.linalg.lstsq(weighted, y / sigma, rcond=None)[0]
    assert out.params == pytest.approx(expected, rel=1e-9)
    cov = np.linalg.inv(weighted.T @ weighted) * out.reduced_chi2
    assert out.covariance == pytest.approx(cov, rel=1e-6)


def test_jacobian_outside_the_domain_is_not_read():
    # log(p) is defined for p > 0 only; the first full step lands at p < 0,
    # where the model returns no Jacobian, and the fit still converges
    def model(p):
        if p[0] <= 0.0:
            return np.full(3, np.nan), None
        return np.full(3, np.log(p[0])), np.full((3, 1), 1.0 / p[0])

    out = least_squares(FitProblem(model, np.full(3, np.log(0.01)), 1.0, x0=np.array([1.0]),
                                   lower=np.full(1, -np.inf), upper=np.full(1, np.inf)))
    assert out.converged
    assert out.params[0] == pytest.approx(0.01, rel=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("y,sigma", [
    ([1.0, np.inf], 1.0), ([np.nan, 1.0], 1.0), ([1.0, 2.0], 2.0**512),
    ([1.0, 2.0], [1.0, 1e300]), ([1.0, 2.0], [1.0, 0.0]), ([1.0, 2.0], -1.0),
    ([1.0, 2.0], [np.nan, 1.0]), ([1.0, 2.0], np.inf),
    # |y| / sigma near 2**508: the normal matrix of the weighted fit overflows
    ([1e4, 1e4], 8e-150),
])
def test_data_out_of_float_range_refused_without_overflow(y, sigma):
    with np.errstate(all="raise"), pytest.raises(DomainError, match="out of float range"):
        FitProblem(lambda p: (np.full(2, p[0]), np.ones((2, 1))), y, sigma, x0=np.zeros(1),
                   lower=np.full(1, -np.inf), upper=np.full(1, np.inf))


def test_covariance_past_float_range_is_none_and_singular():
    # a normal matrix that overflowed is not inverted: an SVD of it may
    # never return
    with np.errstate(over="ignore"):
        assert fitkit._covariance(np.full((3, 1), 1e200), 1.0, 3, 1) == (None, True)


def test_largest_sigma_with_a_weight_is_accepted():
    sigma = np.nextafter(2.0**512, 0.0)
    problem = FitProblem(lambda p: (np.full(2, p[0]), np.ones((2, 1))), [1.0, 2.0], sigma,
                         x0=np.zeros(1), lower=np.full(1, -np.inf), upper=np.full(1, np.inf))
    with np.errstate(over="raise"):
        assert np.all(1.0 / problem.sigma**2 > 0.0)


def _g2_histogram():
    em = EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)
    stream = simulate_emitter_tags(em, 150e-6, 0.3, seed=21)
    a, b = run_detection(stream, 0.5, DetectorModel(efficiency=1.0),
                         DetectorModel(efficiency=1.0), seed=22)
    return correlator.correlate(a, b, 1e-9, 250e-9)


def _decay_histogram():
    t = np.arange(0.0, 400e-9, 1e-9)
    y = np.zeros(t.size)
    y[8:] = 5e3 * np.exp(-(t[8:] - t[8]) / 20e-9) + 8e2 * np.exp(-(t[8:] - t[8]) / 150e-9)
    return DecayHistogram(t, np.random.default_rng(6).poisson(y + 6.0), 1e-9, 10_000)


def _line_scan():
    x = np.linspace(0.0, 20e-6, 300)
    y = 50.0 + np.random.default_rng(7).normal(0.0, 5.0, x.size)
    for center, amp in ((4e-6, 900.0), (9e-6, 600.0), (15e-6, 400.0)):
        y += amp * np.exp(-0.5 * ((x - center) / 0.4e-6) ** 2)
    return x, y


def _spectrum():
    wl = np.linspace(1.255e-6, 1.40e-6, 300)
    y = (
        np.exp(-0.5 * ((wl - 1278e-9) / 2e-9) ** 2)
        + 0.25 * np.exp(-0.5 * ((wl - 1310e-9) / 16e-9) ** 2)
        + np.random.default_rng(8).normal(0.0, 0.01, wl.size)
    )
    return analysis.Spectrum(wl, np.clip(y, 0.0, None))


def _saturation():
    p = np.geomspace(5e-6, 2e-3, 14)
    y = analysis.saturation_model(p, 1.3e4, 110e-6, 2e6)
    return p, y + np.sqrt(y) * np.random.default_rng(9).standard_normal(p.size)


# (fit, module and name of the function that evaluates its model, model
# evaluations per call of that function)
FITS = {
    "saturation": (lambda: analysis.fit_saturation(*_saturation()),
                   analysis, "saturation_model", 1),
    "decay": (lambda: analysis.fit_decay(_decay_histogram()), analysis, "_exponentials", 1),
    "line_scan": (lambda: analysis.fit_line_scan(*_line_scan()), analysis, "_peaks", 1),
    "dw": (lambda: analysis.debye_waller(_spectrum(), 6e-9, n_psb=3), analysis, "_peaks", 1),
    # one call per time constant
    "g2": (lambda: correlator.fit_g2(_g2_histogram()),
           correlator._BinnedDip, "_exp_means", 0.5),
}


@pytest.mark.parametrize("name", sorted(FITS))
def test_one_model_evaluation_per_trial_point(name, monkeypatch):
    # a trial point is the initial point of a fit or a finite damped step;
    # each costs one model evaluation, value and Jacobian together
    fit, owner, attribute, per_call = FITS[name]
    evaluations = []
    trials = []
    inside = []
    kernel = getattr(owner, attribute)
    monkeypatch.setattr(
        owner, attribute,
        lambda *args: (inside and evaluations.append(per_call)) or kernel(*args),
    )
    solve = np.linalg.solve

    def counting_solve(a, b):
        step = solve(a, b)
        trials.append(int(np.all(np.isfinite(step))))
        return step

    least_squares = fitkit.least_squares

    def counting_least_squares(problem):
        trials.append(1)
        inside.append(1)
        try:
            return least_squares(problem)
        finally:
            inside.clear()

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(fitkit, "least_squares", counting_least_squares)
    fit()
    assert sum(trials) > 2
    assert sum(evaluations) == sum(trials)
