import math
import warnings

import numpy as np
import pytest

from emitterforge import analysis, fitkit
from emitterforge.analysis import (
    G_CENTER_ZPL,
    W_CENTER_ZPL,
    Spectrum,
    SpotMeasurement,
    calibrate_single_rate,
    count_emitters,
    debye_waller,
    fit_decay,
    fit_line_scan,
    fit_saturation,
    read_saturation_csv,
    read_spectrum_csv,
    saturation_model,
    write_saturation_csv,
    write_spectrum_csv,
    write_spot_table,
)
from emitterforge.errors import DomainError, ZeroSignalWarning
from emitterforge.fitkit import finite_difference_jacobian
from emitterforge.photonsim import DecayHistogram
from written import read_written


def _gauss(x, center, amp, sigma):
    return amp * np.exp(-0.5 * ((x - center) / sigma) ** 2)


# ------------------------------------------------------------ calibration


def test_calibrate_single_rate_exact():
    spots = [
        SpotMeasurement("a", rate=110.0, background=0.0, n_emitters_g2=1),
        SpotMeasurement("b", rate=210.0, background=0.0, n_emitters_g2=2),
    ]
    assert calibrate_single_rate(spots, background=10.0) == pytest.approx(100.0)


def test_calibrate_zero_emitters_is_error():
    spots = [SpotMeasurement("a", rate=100.0, background=0.0, n_emitters_g2=0)]
    with pytest.raises(DomainError):
        calibrate_single_rate(spots, background=0.0)


def test_calibrate_zero_signal_warns():
    spots = [SpotMeasurement("a", rate=50.0, background=0.0, n_emitters_g2=1)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = calibrate_single_rate(spots, background=50.0)
    assert value == 0.0
    assert any(issubclass(w.category, ZeroSignalWarning) for w in caught)


def test_count_emitters_rules():
    assert count_emitters(100.0, 100.0, 50.0) == 0  # I = B
    assert count_emitters(100.0 + 1.49 * 50.0, 100.0, 50.0) == 1
    assert count_emitters(100.0 + 1.5 * 50.0, 100.0, 50.0) == 2  # tie: away from 0
    assert count_emitters(10.0, 100.0, 50.0) == 0  # never negative
    with pytest.raises(DomainError):
        count_emitters(100.0, 0.0, 0.0)


def test_count_emitters_factor_of_two_spots():
    # two spots whose corrected rates differ by exactly 2x get N = 1 and 2
    i_single = 3600.0
    b = 400.0
    assert count_emitters(b + i_single, b, i_single) == 1
    assert count_emitters(b + 2 * i_single, b, i_single) == 2


def test_count_emitters_monotone_in_rate():
    rates = np.linspace(0.0, 2000.0, 300)
    counts = [count_emitters(r, 100.0, 150.0) for r in rates]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


# ------------------------------------------------------------- saturation


def saturation_points(sat_rate, sat_power, slope, n=12, p_max=1e-3):
    p = np.linspace(p_max / n, p_max, n)
    return p, saturation_model(p, sat_rate, sat_power, slope)


@pytest.mark.parametrize("sat_rate,sat_power", [(13000.0, 110e-6), (3600.0, 810e-6)])
def test_saturation_noiseless_round_trip(sat_rate, sat_power):
    p, r = saturation_points(sat_rate, sat_power, 0.0, p_max=8 * sat_power)
    fit = fit_saturation(p, r, sigma=np.full(p.size, 1.0))
    assert fit.converged
    assert fit.sat_rate == pytest.approx(sat_rate, rel=1e-6)
    assert fit.sat_power == pytest.approx(sat_power, rel=1e-6)
    assert abs(fit.bg_slope) < 1e-6 * sat_rate / sat_power


def test_saturation_with_background_slope():
    p, r = saturation_points(13000.0, 110e-6, 5e6, p_max=1e-3)
    fit = fit_saturation(p, r, sigma=np.full(p.size, 1.0))
    assert fit.sat_rate == pytest.approx(13000.0, rel=1e-6)
    assert fit.sat_power == pytest.approx(110e-6, rel=1e-6)
    assert fit.bg_slope == pytest.approx(5e6, rel=1e-6)


def test_saturation_noisy_within_3_sigma():
    rng = np.random.default_rng(31)
    p, r = saturation_points(13000.0, 110e-6, 2e6, n=16, p_max=1e-3)
    noisy = r * (1.0 + rng.normal(0.0, 0.05, r.size))
    fit = fit_saturation(p, noisy, sigma=0.05 * r)
    assert fit.converged
    err = fit.param_sigma()
    assert abs(fit.sat_rate - 13000.0) < 3.0 * err[0]
    assert abs(fit.sat_power - 110e-6) < 3.0 * err[1]
    assert abs(fit.bg_slope - 2e6) < 3.0 * err[2]


def test_saturation_pure_linear_flagged():
    p = np.linspace(1e-5, 1e-3, 10)
    r = 3e6 * p
    fit = fit_saturation(p, r, sigma=np.full(p.size, 1.0))
    assert "unidentifiable" in fit.flags
    assert fit.bg_slope == pytest.approx(3e6, rel=0.05)


def test_saturation_preconditions():
    with pytest.raises(DomainError):
        fit_saturation(np.array([1e-5, 2e-5, 3e-5]), np.array([1.0, 2.0, 3.0]))
    # insufficient span (less than 10x)
    p = np.linspace(1e-4, 3e-4, 6)
    with pytest.raises(DomainError):
        fit_saturation(p, saturation_model(p, 1e4, 1e-4, 0.0))


def test_saturation_gradient_matches_fd():
    # compare at O(1)-scaled parameters so the FD absolute floor is benign
    rng = np.random.default_rng(5)
    p_uw = np.linspace(10.0, 900.0, 9)  # microwatts
    for _ in range(10):
        sat, p0, slope = rng.uniform(0.5, 20.0, 3)

        def residual(theta):
            return saturation_model(p_uw, theta[0], theta[1], theta[2])

        jac_fd = finite_difference_jacobian(residual, np.array([sat, p0, slope]))
        jac_an = analysis._saturation_gradient(p_uw, sat, p0, slope)
        assert np.allclose(jac_an, jac_fd, rtol=1e-5, atol=1e-6)


# ------------------------------------------------------------------ decay


def test_exponentials_jacobian_matches_fd():
    t = np.linspace(0.0, 5.0, 80)
    for tau0 in (1.0, 2.5):
        # one and two terms; then amplitudes and the constant on their
        # lower bound of 0
        for v in [(2.0, 0.8, 0.1), (0.0, 1.3, 0.0), (1.5, 0.4, 0.5, 2.0, 0.2),
                  (0.0, 0.4, 0.7, 2.0, 0.0)]:
            v = np.array(v)
            lower = np.where(np.arange(v.size) % 2, 1e-3, 0.0)

            def residual(w):
                return analysis._exponentials(t, tau0, w)[0]

            jac_fd = finite_difference_jacobian(residual, v, lower=lower, upper=np.full(v.size, 1e6))
            assert np.allclose(analysis._exponentials(t, tau0, v)[1], jac_fd, rtol=1e-5, atol=1e-6)


def _decay_hist(amps, taus, baseline, t_max=600e-9, bin_width=1e-9, peak_bin=5):
    t = np.arange(0.0, t_max, bin_width) + bin_width / 2
    y = np.full(t.size, float(baseline))
    rise = t >= t[peak_bin]
    for a, tau in zip(amps, taus):
        y[rise] += a * np.exp(-(t[rise] - t[peak_bin]) / tau)
    counts = np.random.default_rng(9).poisson(np.clip(y, 0.0, None))
    return DecayHistogram(t, counts, bin_width, n_pulses=10**6)


def test_decay_biexponential_round_trip():
    h = _decay_hist([8000.0, 2000.0], [10e-9, 70e-9], baseline=20.0)
    fit = fit_decay(h)
    assert fit.converged
    assert "single_exponential" not in fit.flags
    assert fit.tau_fast == pytest.approx(10e-9, rel=0.10)
    assert fit.tau_slow == pytest.approx(70e-9, rel=0.10)
    assert fit.tau_fast < fit.tau_slow


def test_decay_single_exponential_fallback():
    h = _decay_hist([9000.0], [25e-9], baseline=15.0)
    fit = fit_decay(h)
    assert "single_exponential" in fit.flags
    assert fit.tau_fast == pytest.approx(25e-9, rel=0.05)
    assert fit.amp_slow == 0.0
    assert fit.tau_fast == fit.tau_slow


def test_decay_zero_signal_no_fit():
    t = np.arange(0.0, 200e-9, 1e-9)
    counts = np.random.default_rng(3).poisson(5.0, t.size)  # flat noise
    fit = fit_decay(DecayHistogram(t, counts, 1e-9, 1000))
    assert "no_fit" in fit.flags
    assert not fit.converged


def test_decay_too_few_post_peak_bins():
    t = np.arange(0.0, 30e-9, 1e-9)
    y = np.zeros(t.size)
    y[25] = 1000.0  # peak too close to the end
    fit = fit_decay(DecayHistogram(t, y.astype(int), 1e-9, 1000))
    assert "no_fit" in fit.flags


# -------------------------------------------------------------- line scan


def test_line_scan_single_gaussian():
    x = np.linspace(0.0, 50e-6, 400)
    y = 40.0 + _gauss(x, 22e-6, 900.0, 1.8e-6)
    res = fit_line_scan(x, y)
    assert res.converged
    assert len(res.peaks) == 1
    pk = res.peaks[0]
    assert pk.center == pytest.approx(22e-6, rel=0.02)
    assert pk.amplitude == pytest.approx(900.0, rel=0.02)
    assert pk.fwhm == pytest.approx(1.8e-6 * 2.3548200450309493, rel=0.02)
    assert res.baseline == pytest.approx(40.0, rel=0.02)


def test_line_scan_flat_profile_empty():
    x = np.linspace(0.0, 50e-6, 300)
    y = np.full(x.size, 25.0) + np.random.default_rng(1).normal(0.0, 0.5, x.size)
    res = fit_line_scan(x, y)
    assert res.peaks == []
    assert res.flags.get("no_peaks")


def test_line_scan_fifteen_spot_column():
    # emulates a confocal line scan along a 15-row grid column
    rng = np.random.default_rng(12)
    x = np.linspace(-5e-6, 145e-6, 1500)
    y = np.full(x.size, 30.0)
    for i in range(15):
        y += _gauss(x, i * 10e-6, 500.0 + 40.0 * i, 1.2e-6)
    y = rng.poisson(np.clip(y, 0.0, None) * 5.0) / 5.0
    res = fit_line_scan(x, y)
    assert len(res.peaks) == 15
    centers = np.array([p.center for p in res.peaks])
    spacing = np.diff(centers)
    assert np.all(np.abs(spacing - 10e-6) < 0.2e-6)


# ----------------------------------------------------------- debye-waller


@pytest.mark.parametrize("n_base", [1, 2])
def test_peaks_jacobian_matches_fd(n_base):
    u = np.linspace(0.0, 1.0, 150)
    base = [0.1, -0.3][:n_base]
    lower = np.concatenate([[0.0, -10.0][:n_base], np.zeros(2), np.full(2, -0.1), np.full(2, 0.02)])
    upper = np.concatenate([[10.0, 10.0][:n_base], np.full(2, 10.0), np.full(2, 1.0), np.ones(2)])
    # interior points, then an amplitude of 0, a centre on either bound and
    # a sigma on its lower bound; blocks are amplitudes, centres, sigmas.
    # A bound makes the difference one-sided, first-order in its step, so
    # the step is small
    for peaks in [(1.0, 0.5, 0.3, 0.7, 0.05, 0.1), (2.0, 0.8, 0.45, 0.5, 0.2, 0.04),
                  (0.0, 0.5, 0.3, 1.0, 0.05, 0.1), (1.0, 0.5, -0.1, 0.6, 0.02, 0.3)]:
        v = np.array(base + list(peaks))

        def residual(w):
            return analysis._peaks(u, n_base, w)[0]

        jac_fd = finite_difference_jacobian(residual, v, 1e-8, lower, upper)
        assert np.allclose(analysis._peaks(u, n_base, v)[1], jac_fd, rtol=1e-5, atol=1e-6)


def _spectrum(zpl_amp, zpl_sigma, psb_amp, psb_sigma, baseline=0.0):
    wl = np.linspace(1.255e-6, 1.40e-6, 800)
    y = (
        baseline
        + _gauss(wl, G_CENTER_ZPL, zpl_amp, zpl_sigma)
        + _gauss(wl, 1.310e-6, psb_amp, psb_sigma)
    )
    return Spectrum(wavelength=wl, intensity=y)


def test_dw_areas_one_to_four():
    # ZPL area 1, PSB area 4 -> DW = 0.20 (G-center value)
    # areas ~ amp * sigma, so amp_psb = 4 * amp_zpl * (s_zpl / s_psb)
    s = _spectrum(zpl_amp=1.0, zpl_sigma=2e-9, psb_amp=0.5, psb_sigma=16e-9)
    res = debye_waller(s, zpl_halfwidth=6e-9)
    assert res.converged
    assert res.dw == pytest.approx(0.20, abs=0.01)


def test_dw_components_lie_on_the_spectrum():
    # a component centred past the red end has an amplitude the data do
    # not constrain, yet its area would count in the side band
    s = _spectrum(zpl_amp=1.0, zpl_sigma=2e-9, psb_amp=0.5, psb_sigma=16e-9)
    res = debye_waller(s, zpl_halfwidth=6e-9)
    centers = [c for c, _, _, _ in res.components]
    assert all(s.wavelength[0] <= c <= s.wavelength[-1] for c in centers)


def test_dw_model_evaluations_per_iteration_do_not_grow_with_n_psb(monkeypatch):
    # each model call of the fit, value and Jacobian together, costs one
    # evaluation, however many side-band components there are
    peaks = analysis._peaks
    calls = []
    monkeypatch.setattr(analysis, "_peaks", lambda *args: calls.append(1) or peaks(*args))
    least_squares = fitkit.least_squares
    costs = set()

    def counted(kind, fn):
        def evaluate(v):
            before = len(calls)
            out = fn(v)
            costs.add((kind, len(calls) - before))
            return out
        return evaluate

    def counting_least_squares(problem):
        problem.model = counted("model", problem.model)
        return least_squares(problem)

    monkeypatch.setattr(fitkit, "least_squares", counting_least_squares)
    s = _spectrum(1.0, 2e-9, 0.5, 16e-9)
    per_n_psb = []
    for n_psb in (2, 20):
        costs.clear()
        debye_waller(s, zpl_halfwidth=6e-9, n_psb=n_psb)
        per_n_psb.append(sorted(costs))
    assert per_n_psb[0] == per_n_psb[1] == [("model", 1)]


def test_dw_thirty_two_percent():
    # ZPL area = 0.32 of total (W-center value): psb area ratio 0.68/0.32
    zpl_as = 1.0 * 2e-9
    psb_sigma = 16e-9
    psb_amp = (0.68 / 0.32) * zpl_as / psb_sigma
    s = _spectrum(1.0, 2e-9, psb_amp, psb_sigma)
    res = debye_waller(s, zpl_halfwidth=6e-9)
    assert res.dw == pytest.approx(0.32, abs=0.01)


def test_dw_zpl_only_is_one():
    s = _spectrum(zpl_amp=1.0, zpl_sigma=2e-9, psb_amp=0.0, psb_sigma=16e-9)
    res = debye_waller(s, zpl_halfwidth=6e-9)
    assert res.dw == pytest.approx(1.0, abs=1e-6)


def test_dw_exact_scale_invariance():
    s1 = _spectrum(1.0, 2e-9, 0.5, 16e-9, baseline=0.02)
    r1 = debye_waller(s1, zpl_halfwidth=6e-9)
    # power-of-two scaling is lossless in floats: bitwise identical result
    s2 = Spectrum(wavelength=s1.wavelength, intensity=s1.intensity * 2.0**13)
    assert debye_waller(s2, zpl_halfwidth=6e-9).dw == r1.dw
    # arbitrary scaling rounds the input samples themselves; the result
    # must still agree far beyond any physical precision
    s3 = Spectrum(wavelength=s1.wavelength, intensity=s1.intensity * 7.3e4)
    assert debye_waller(s3, zpl_halfwidth=6e-9).dw == pytest.approx(r1.dw, rel=1e-9)


def test_dw_window_method_cross_check():
    s = _spectrum(1.0, 2e-9, 0.5, 16e-9)
    fit = debye_waller(s, zpl_halfwidth=6e-9)
    window = debye_waller(s, zpl_halfwidth=6e-9, method="window")
    # window integration cannot separate overlap; agree only loosely
    assert window.dw == pytest.approx(fit.dw, abs=0.05)


def test_dw_weak_zpl_flagged():
    rng = np.random.default_rng(8)
    wl = np.linspace(1.255e-6, 1.40e-6, 800)
    y = _gauss(wl, 1.310e-6, 1.0, 16e-9) + rng.normal(0.0, 0.01, wl.size) + 0.05
    res = debye_waller(Spectrum(wavelength=wl, intensity=np.clip(y, 0.0, None)),
                       zpl_halfwidth=6e-9)
    assert "weak_zpl" in res.flags


def test_spectrum_validation():
    with pytest.raises(DomainError):
        Spectrum(wavelength=np.array([2e-6, 1e-6]), intensity=np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        Spectrum(wavelength=np.array([1e-6, 2e-6]), intensity=np.array([1.0, -1.0]))


def test_w_center_default():
    assert W_CENTER_ZPL == pytest.approx(1218e-9)
    assert G_CENTER_ZPL == pytest.approx(1278e-9)


# --------------------------------------------------------------------- io


def test_spot_table_round_trip(tmp_path):
    spots = [
        SpotMeasurement("A1", 110.0, 10.0, n_emitters_g2=1),
        SpotMeasurement("B2", 210.0, 10.0, n_emitters_g2=None),
    ]
    p = tmp_path / "spots.csv"
    write_spot_table(spots, [1, 2], p)
    meta, rows = read_written(p)
    assert meta == {}
    assert [(r["label"], float(r["rate_cps"]), float(r["background_cps"])) for r in rows] == [
        (s.label, s.rate, s.background) for s in spots
    ]
    # None renders as an empty field
    assert [(r["n_g2"], r["n_estimated"]) for r in rows] == [("1", "1"), ("", "2")]


def test_spectrum_csv_round_trip(tmp_path):
    s = _spectrum(1.0, 2e-9, 0.5, 16e-9)
    p = tmp_path / "spec.csv"
    write_spectrum_csv(s, p)
    back = read_spectrum_csv(p)
    assert back.zpl_wavelength == pytest.approx(s.zpl_wavelength)
    assert back.wavelength == pytest.approx(s.wavelength)
    assert back.intensity == pytest.approx(s.intensity, rel=1e-9)
    # explicit argument beats the stored value
    w = read_spectrum_csv(p, zpl_wavelength=W_CENTER_ZPL)
    assert w.zpl_wavelength == pytest.approx(W_CENTER_ZPL)


def test_saturation_csv_round_trip(tmp_path):
    p_arr, r = saturation_points(13000.0, 110e-6, 1e6)
    path = tmp_path / "sat.csv"
    write_saturation_csv(p_arr, r, path, sigma=np.sqrt(r))
    power, rate, sigma = read_saturation_csv(path)
    assert power == pytest.approx(p_arr, rel=1e-9)
    assert rate == pytest.approx(r, rel=1e-9)
    assert sigma == pytest.approx(np.sqrt(r), rel=1e-9)
    # sigma column optional
    write_saturation_csv(p_arr, r, path)
    _, _, none_sigma = read_saturation_csv(path)
    assert none_sigma is None


@pytest.mark.parametrize(
    "rate, sigma",
    [([1, 2, 3], [1]), ([1, 2], None), ([1, 2], [1, 2]), ([1, 2, 3, 4], [1, 2, 3])],
)
def test_saturation_csv_unequal_columns_rejected(tmp_path, rate, sigma):
    path = tmp_path / "sat.csv"
    with pytest.raises(DomainError):
        write_saturation_csv([1e-6, 2e-6, 3e-6], rate, path, sigma=sigma)
    assert not path.exists()
