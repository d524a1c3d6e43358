import math
import warnings

import numpy as np
import pytest

from emitterforge import correlator, fitkit
from emitterforge.correlator import (
    G2Histogram,
    _bin_span,
    _bin_subsamples,
    _BinnedDip,
    background_correct,
    correlate,
    fit_g2,
    g2_model,
    max_emitters_from_g2,
    rho_from_rates,
    write_histogram_csv,
)
from emitterforge.errors import CorrectionWarning, DomainError
from emitterforge.photonsim import (
    DetectorModel,
    EmitterModel,
    run_detection,
    simulate_background_tags,
    simulate_emitter_tags,
)
from emitterforge.timetags import TimeTagStream
from written import read_written


def _poisson_pair(rate, duration, seed):
    a = simulate_background_tags(rate, duration, seed=seed)
    b = simulate_background_tags(rate, duration, seed=seed + 1000)
    return a, b


def _hbt(models, power, duration, seed, efficiency=1.0):
    stream = simulate_emitter_tags(models, power, duration, seed=seed)
    det = DetectorModel(efficiency=efficiency)
    return run_detection(stream, 0.5, det, det, seed=seed + 1)


def three_level_g2_theory(lifetime, shelving, deshelving, power_rel):
    """(tau1, tau2, a) from the eigenvalues of the rate-equation matrix."""
    emit = 1.0 / lifetime
    pump = power_rel * emit
    m = np.array(
        [
            [-pump, emit, deshelving],
            [pump, -(emit + shelving), 0.0],
            [0.0, shelving, -deshelving],
        ]
    )
    w, v = np.linalg.eig(m)
    iz = int(np.argmin(np.abs(w)))
    ifast = int(np.argmin(w))
    islow = next(i for i in range(3) if i not in (iz, ifast))
    occ = np.real(v[:, iz])
    occ = occ / occ.sum()
    c0 = np.linalg.solve(v, np.array([1.0, 0.0, 0.0]))
    coefs = np.real(v[1, :] * c0)
    return -1.0 / w[ifast], -1.0 / w[islow], coefs[islow] / occ[1]


# ---------------------------------------------------------------- model


def test_g2_model_exact_levels_at_zero():
    for n in (1.0, 2.0, 3.0, 10.0):
        assert g2_model(0.0, n, 0.5, 10e-9, 100e-9) == (n - 1.0) / n
    assert g2_model(0.0, 1.0, 0.3, 10e-9, 100e-9) == 0.0


def test_g2_model_long_delay_is_one():
    assert g2_model(1.0, 2.0, 0.5, 10e-9, 100e-9) == pytest.approx(1.0, abs=1e-12)


def test_g2_model_bunching_shoulder():
    # between the dip and the tail the shelving term pushes g2 above 1
    g = g2_model(150e-9, 1.0, 0.5, 30e-9, 700e-9)
    assert g > 1.0


def test_g2_model_symmetric():
    g_plus = g2_model(25e-9, 1.5, 0.4, 30e-9, 500e-9)
    g_minus = g2_model(-25e-9, 1.5, 0.4, 30e-9, 500e-9)
    assert g_plus == g_minus


def test_g2_model_invalid_params_nonfinite():
    assert not np.isfinite(g2_model(1e-9, 0.5, 0.0, 10e-9, 100e-9)).all()
    assert not np.isfinite(g2_model(1e-9, 1.0, 0.0, -1e-9, 100e-9)).all()


# ---------------------------------------------------------- correlate


def test_poisson_streams_flat_at_one():
    a, b = _poisson_pair(2e4, 20.0, seed=100)
    hist = correlate(a, b, bin_width=20e-9, window=1e-6)
    assert np.all(np.abs(hist.g2 - 1.0) < 5.0 * hist.sigma)
    assert hist.g2.mean() == pytest.approx(1.0, abs=0.01)
    # sigma should describe the scatter: reduced chi2 around 1
    chi2 = np.mean(((hist.g2 - 1.0) / hist.sigma) ** 2)
    assert 0.6 < chi2 < 1.5


def test_histogram_geometry():
    a, b = _poisson_pair(5e3, 5.0, seed=7)
    hist = correlate(a, b, bin_width=10e-9, window=200e-9)
    assert hist.tau.size == hist.g2.size == hist.raw.size
    assert hist.tau.size % 2 == 1  # symmetric window with a center bin
    center = hist.tau.size // 2
    assert hist.tau[center] == 0.0
    assert np.allclose(hist.tau, -hist.tau[::-1])
    assert hist.bin_width == pytest.approx(10e-9)


def test_mirror_symmetry_exact():
    # correlating a stream against itself must give exactly mirrored raw
    # counts: the tie-breaking rounding cannot favor one side
    rng = np.random.default_rng(8)
    ticks = np.sort(rng.integers(0, 10**9, size=20_000)).astype(np.int64)
    s = TimeTagStream(1e-12, np.zeros(ticks.size, np.uint8), ticks, 1e-3)
    hist = correlate(s, s, bin_width=1e-9, window=50e-9)
    assert np.array_equal(hist.raw, hist.raw[::-1])


def test_delta_spike_lands_in_correct_bin():
    # B = A shifted by exactly 3 bins: all mass in bin +3, none elsewhere
    ticks = np.arange(0, 10**8, 1000, dtype=np.int64)
    shift = 30  # ticks; bin width will be 10 ticks
    a = TimeTagStream(1e-12, np.zeros(ticks.size, np.uint8), ticks, 1.0)
    b = TimeTagStream(1e-12, np.zeros(ticks.size, np.uint8), ticks + shift, 1.0)
    hist = correlate(a, b, bin_width=10e-12, window=100e-12)
    center = hist.tau.size // 2
    k = int(np.argmax(hist.raw)) - center
    assert k == 3
    assert hist.raw[center + 3] == ticks.size
    assert hist.raw.sum() == ticks.size


def test_edge_tick_tie_rounds_away_from_zero():
    # delay exactly half a bin width from the bin boundary: the
    # round-half-away rule must put +5 ticks (bin width 10) into bin +1
    a = TimeTagStream(1e-12, np.zeros(1, np.uint8), np.array([0], np.int64), 1.0)
    b = TimeTagStream(1e-12, np.zeros(1, np.uint8), np.array([5], np.int64), 1.0)
    hist = correlate(a, b, bin_width=10e-12, window=100e-12)
    center = hist.tau.size // 2
    assert hist.raw[center + 1] == 1
    assert hist.raw[center] == 0
    # and the mirrored delay lands in bin -1
    hist_m = correlate(b, a, bin_width=10e-12, window=100e-12)
    assert hist_m.raw[center - 1] == 1


def test_even_bin_center_coverage():
    # with an even tick count per bin the center bin covers one tick less;
    # the normalizer absorbs it, so Poisson data stays flat at the center
    a, b = _poisson_pair(5e4, 20.0, seed=200)
    hist = correlate(a, b, bin_width=10e-9, window=300e-9)
    center = hist.tau.size // 2
    z = (hist.g2[center] - 1.0) / hist.sigma[center]
    assert abs(z) < 4.0


def test_chunked_equals_monolithic(monkeypatch):
    a, b = _poisson_pair(2e4, 10.0, seed=300)
    ref = correlate(a, b, bin_width=5e-9, window=400e-9)
    for n_chunks in (1, 2, 7, 64):
        # parts of at most _A_CHUNK starts: A splits into n_chunks parts
        monkeypatch.setattr(correlator, "_A_CHUNK", -(-a.n_tags // n_chunks))
        assert -(-a.n_tags // correlator._A_CHUNK) == n_chunks
        ch = correlate(a, b, bin_width=5e-9, window=400e-9)
        assert np.array_equal(ch.raw, ref.raw)
        assert ch.g2 == pytest.approx(ref.g2, rel=1e-15)


def test_huge_bins_keep_their_layout():
    # 1e18-tick bins, 10 each side: the outer delays pass 2**63 ticks, where
    # an int64 layout wraps; tags 2e18 ticks apart stay in the int64 range
    a = TimeTagStream(1e-12, np.zeros(1, np.uint8), np.array([0], np.int64), 4e6)
    b = TimeTagStream(1e-12, np.ones(1, np.uint8), np.array([2 * 10**18], np.int64), 4e6)
    hist = correlate(a, b, bin_width=1e6, window=1e7)
    assert hist.tau.size == 21
    assert np.all(np.diff(hist.tau) > 0)
    assert np.array_equal(hist.tau, -hist.tau[::-1])
    assert hist.tau[0] == -1e7
    lo, hi = _bin_span(hist)
    assert np.all(lo >= 0) and np.all(hi >= lo)
    assert hist.raw[10 + 2] == hist.raw.sum() == 1


def test_correlate_validation():
    a, _ = _poisson_pair(1e3, 1.0, seed=1)
    with pytest.raises(DomainError):
        correlate(a, a, bin_width=0.0, window=1e-6)
    with pytest.raises(DomainError):
        correlate(a, a, bin_width=1e-6, window=1e-9)  # window smaller than bin
    mismatched = TimeTagStream(2e-12, np.zeros(1, np.uint8), np.array([0], np.int64), 1.0)
    with pytest.raises(DomainError):
        correlate(a, mismatched, bin_width=1e-9, window=1e-6)


@pytest.mark.parametrize(
    "bin_width,window,match",
    [
        (1e-9, 1e10, r"2\*\*58 bins"),  # more bins than any address space holds
        (1e-9, 1e300, r"2\*\*58 bins"),
        (1e296, 1e300, r"2\*\*62 ticks"),  # bin / resolution overflows to inf
        (-1e296, 1e-6, "below the tick resolution"),
        (float("nan"), 1e-6, "below the tick resolution"),
        (1e-9, -1e300, "smaller than the bin width"),
    ],
)
def test_correlate_refuses_bins_and_windows_out_of_range(bin_width, window, match):
    a, b = _poisson_pair(1e3, 1.0, seed=1)
    with pytest.raises(DomainError, match=match):
        correlate(a, b, bin_width=bin_width, window=window)


def test_correlate_reach_beyond_the_last_tag_keeps_every_pair():
    # ten bins of 1e18 ticks put the window's reach past int64; the reach
    # is clamped to the last tag, which no delay exceeds
    a = TimeTagStream(1e-12, np.zeros(2, np.uint8), np.array([0, 10], np.int64), 1e-11)
    b = TimeTagStream(1e-12, np.ones(2, np.uint8), np.array([3, 4], np.int64), 1e-11)
    hist = correlate(a, b, bin_width=1e6, window=1e7)
    assert hist.raw.tolist() == [0] * 10 + [4] + [0] * 10


# ----------------------------------------------------------------- fit


def test_fit_recovers_three_level_theory():
    lifetime, shelving, deshelving = 50e-9, 2e6, 1e6
    power_rel = 0.3
    em = EmitterModel(
        lifetime=lifetime, sat_power=150e-6, sat_rate=2e6,
        shelving_rate=shelving, deshelving_rate=deshelving,
    )
    a, b = _hbt([em], power_rel * 150e-6, duration=60.0, seed=400)
    hist = correlate(a, b, bin_width=4e-9, window=3e-6)
    fit = fit_g2(hist)
    tau1_t, tau2_t, a_t = three_level_g2_theory(lifetime, shelving, deshelving, power_rel)
    assert fit.converged
    assert fit.n_emitters == pytest.approx(1.0, abs=0.05)
    assert fit.tau1 == pytest.approx(tau1_t, rel=0.10)
    assert fit.tau2 == pytest.approx(tau2_t, rel=0.15)
    assert fit.a == pytest.approx(a_t, rel=0.15)
    assert fit.g2_zero == pytest.approx(0.0, abs=0.05)
    assert 0.5 < fit.reduced_chi2 < 1.5


def test_fit_synthetic_histogram_within_3_sigma():
    # histogram generated exactly from the model plus 1% noise
    rng = np.random.default_rng(17)
    bin_width, window = 2e-9, 500e-9
    n = int(round(window / bin_width))
    tau = np.arange(-n, n + 1) * bin_width
    truth = (1.0, 0.2, 10e-9, 100e-9)
    clean = g2_model(tau, *truth)
    noisy = clean + rng.normal(0.0, 0.01, tau.size)
    hist = G2Histogram(
        bin_width=bin_width, window=window, tau=tau, g2=noisy,
        sigma=np.full(tau.size, 0.01),
        raw=np.full(tau.size, 10_000, np.int64),
        normalizer=np.full(tau.size, 10_000.0),
        rate_a=1e4, rate_b=1e4, total_time=100.0, resolution=1e-12,
    )
    fit = fit_g2(hist)
    assert fit.converged
    sig = fit.param_sigma
    for got, want, s in zip(
        (fit.n_emitters, fit.a, fit.tau1, fit.tau2), truth, sig
    ):
        assert abs(got - want) < 3.0 * max(s, 1e-12), (got, want, s)


def test_fit_two_emitters_level():
    em = EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)
    a, b = _hbt([em, em], 50e-6, duration=40.0, seed=500)
    hist = correlate(a, b, bin_width=2e-9, window=400e-9)
    fit = fit_g2(hist)
    assert fit.converged
    assert fit.g2_zero == pytest.approx(0.5, abs=0.05)
    assert fit.n_emitters == pytest.approx(2.0, abs=0.15)


def test_fit_flat_histogram_flags_no_dip():
    a, b = _poisson_pair(2e4, 10.0, seed=600)
    hist = correlate(a, b, bin_width=10e-9, window=500e-9)
    fit = fit_g2(hist)
    assert fit.no_dip


def _noise_histogram(bin_ticks, m_bins=150, resolution=1e-12):
    bin_width = bin_ticks * resolution
    tau = np.arange(-m_bins, m_bins + 1) * bin_width
    g2 = np.random.default_rng(bin_ticks).normal(1.0, 0.05, tau.size)
    return G2Histogram(
        bin_width=bin_width, window=m_bins * bin_width, tau=tau, g2=g2,
        sigma=np.full(tau.size, 0.05), raw=np.full(tau.size, 400, np.int64),
        normalizer=np.full(tau.size, 400.0), rate_a=1e4, rate_b=1e4,
        total_time=1.0, resolution=resolution,
    )


@pytest.mark.parametrize("bin_ticks", [1, 2, 2999, 3000])
def test_binned_dip_closed_form_matches_node_mean(bin_ticks):
    hist = _noise_histogram(bin_ticks)
    bw = hist.bin_width
    for params in [(1.0, 0.3, 10 * bw, 60 * bw), (2.3, 0.0, 3 * bw, 30 * bw),
                   (1.0, 5.0, 0.5 * bw, 100 * bw), (1.4, 0.8, 40 * bw, 45 * bw)]:
        dip = _BinnedDip(hist, scale=1.0)
        nodes = np.mean(g2_model(_bin_subsamples(hist), *params), axis=1)
        np.testing.assert_allclose(dip(np.array(params))[0], nodes, rtol=1e-12, atol=0.0)


def test_binned_dip_jacobian_matches_fd():
    lower, upper = np.array([1.0, 0.0, 1e-6, 1e-6]), np.array([1e9, 1e6, 1e9, 1e9])
    for bin_ticks in (2999, 3000):
        hist = _noise_histogram(bin_ticks)
        scale = 10 * hist.bin_width
        dip = _BinnedDip(hist, scale)
        sigma = np.sqrt(np.maximum(hist.raw, 1)) / hist.normalizer  # as fit_g2 weighs

        def residual(u):  # weighted as fitkit weighs it
            return (dip(u)[0] - hist.g2) / sigma

        # interior points, then a = 0 and N = 1 on their bounds
        for u in [(1.3, 0.4, 1.0, 6.0), (2.5, 2.0, 0.3, 12.0), (1.1, 0.05, 3.0, 3.5),
                  (1.7, 0.0, 1.0, 6.0), (1.0, 0.0, 0.8, 20.0)]:
            u = np.array(u)
            jac_fd = fitkit.finite_difference_jacobian(residual, u, lower=lower, upper=upper)
            assert np.allclose(dip(u)[1] / sigma[:, None], jac_fd, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fit_g2_analytic_matches_finite_difference_path(n, monkeypatch):
    em = EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)
    stream = simulate_emitter_tags([em] * n, 50e-6, 2.0, seed=700 + n)
    det = DetectorModel(efficiency=1.0)
    a, b = run_detection(stream, 0.5, det, det, seed=800 + n)
    hist = correlate(a, b, bin_width=2e-9, window=400e-9)
    analytic = fit_g2(hist)

    least_squares = fitkit.least_squares
    outcomes = []

    def finite_difference_path(problem):
        model = problem.model

        def value(u):
            return model(u)[0]

        problem.model = lambda u: (value(u), fitkit.finite_difference_jacobian(
            value, u, lower=problem.lower, upper=problem.upper
        ))
        outcomes.append(least_squares(problem))
        return outcomes[-1]

    monkeypatch.setattr(fitkit, "least_squares", finite_difference_path)
    fd = fit_g2(hist)
    # the fit's diagnostics are carried over from the fitkit outcome
    assert fd.iterations == outcomes[0].iterations > 0
    assert fd.flags == outcomes[0].flags
    assert analytic.converged and fd.converged
    assert analytic.g2_zero == pytest.approx(fd.g2_zero, abs=1e-3)
    assert analytic.g2_zero == pytest.approx((n - 1) / n, abs=0.05)


# ---------------------------------------------------- background terms


def test_rho_from_rates():
    assert rho_from_rates(100.0, 0.0) == 1.0
    assert rho_from_rates(100.0, 36.0) == pytest.approx(0.64)
    with pytest.raises(DomainError):
        rho_from_rates(0.0, 10.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert rho_from_rates(10.0, 20.0) == 0.0
    assert any(issubclass(w.category, CorrectionWarning) for w in caught)


def _histogram_of(g2):
    """A histogram with the given g2 values, for the background algebra."""
    g2 = np.asarray(g2, dtype=float)
    raw = np.full(g2.size, 400, np.int64)
    return G2Histogram(
        bin_width=1e-9, window=(g2.size // 2) * 1e-9,
        tau=(np.arange(g2.size) - g2.size // 2) * 1e-9, g2=g2,
        sigma=np.full(g2.size, 0.05), raw=raw, normalizer=raw / g2, rate_a=1e4,
        rate_b=1e4, total_time=1.0, resolution=1e-12,
    )


def test_background_correct_algebra():
    # g(0) = 0.36 at rho = 0.8 corrects to exactly zero
    out = background_correct(_histogram_of([0.36, 1.0, 1.0]), 0.8)
    assert out.g2[0] == pytest.approx(0.0, abs=1e-15)
    assert out.g2[1] == pytest.approx(1.0, rel=1e-15)


def test_background_correct_identity_at_rho_one():
    g = np.array([0.3, 0.9, 1.1])
    out = background_correct(_histogram_of(g), 1.0)
    assert np.array_equal(out.g2, g)


def test_background_correct_histogram_scales_sigma():
    a, b = _poisson_pair(1e4, 5.0, seed=700)
    hist = correlate(a, b, bin_width=10e-9, window=200e-9)
    rho = 0.8
    out = background_correct(hist, rho)
    assert out.sigma == pytest.approx(hist.sigma / rho**2)
    assert out.g2 == pytest.approx((hist.g2 - (1 - rho**2)) / rho**2)
    # raw counts untouched
    assert np.array_equal(out.raw, hist.raw)


def test_background_correct_validation():
    hist = _histogram_of([1.0])
    with pytest.raises(DomainError):
        background_correct(hist, 0.0)
    with pytest.raises(DomainError):
        background_correct(hist, 1.2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        background_correct(hist, 0.05)  # rho below the trust floor
    assert any(issubclass(w.category, CorrectionWarning) for w in caught)


def test_max_emitters_from_g2():
    assert max_emitters_from_g2(0.0) == 1
    assert max_emitters_from_g2(0.49) == 1
    assert max_emitters_from_g2(0.5) == 2
    assert max_emitters_from_g2(0.666) == 2
    assert max_emitters_from_g2(0.667) == 3
    assert max_emitters_from_g2(-0.2) == 1
    assert max_emitters_from_g2(1.0) is None


# ------------------------------------------------------------------ io


def test_histogram_csv_round_trip(tmp_path):
    a, b = _poisson_pair(1e4, 5.0, seed=800)
    hist = correlate(a, b, bin_width=5e-9, window=100e-9)
    p = tmp_path / "g2.csv"
    write_histogram_csv(hist, p)
    meta, rows = read_written(p)
    assert {key: float(value) for key, value in meta.items()} == {
        "bin_width_ps": hist.bin_width * 1e12,
        "window_ps": hist.window * 1e12,
        "rate_a_cps": hist.rate_a,
        "rate_b_cps": hist.rate_b,
        "total_time_s": hist.total_time,
        "resolution_ps": hist.resolution * 1e12,
    }
    # 17 significant digits: every float column reads back exactly
    for name, column in [("tau_ns", hist.tau * 1e9), ("g2", hist.g2), ("sigma", hist.sigma)]:
        assert np.array_equal([float(row[name]) for row in rows], column)
    assert np.array_equal([int(row["raw"]) for row in rows], hist.raw)
