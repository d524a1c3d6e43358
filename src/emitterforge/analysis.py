"""Count-rate calibration, saturation/decay/line-scan fits and spectra.

Everything here is pure computation on measured (or simulated) values;
batch use over many spots needs no coordination. Every fit is a
:class:`.fitkit.FitProblem`: a model that returns its value with its
analytic Jacobian, on internally rescaled parameters so the normal
equations stay well conditioned regardless of the input units. The
line scan and the Debye-Waller decomposition share one model, a polynomial
baseline plus Gaussians (:func:`_peaks`); both decay fits share a sum of
exponentials plus a constant (:func:`_exponentials`).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fitkit
from .errors import DomainError, ZeroSignalWarning
from .tables import read_table, write_table
from .units import FWHM_PER_SIGMA

G_CENTER_ZPL = 1278e-9  # zero-phonon line of the carbon G center
W_CENTER_ZPL = 1218e-9  # zero-phonon line of the W center
_MIN_POST_PEAK = 20  # post-peak bins fit_decay needs


@dataclass
class SpotMeasurement:
    """One implanted spot: peak count rate, local background, and the
    emitter number from a g2 measurement where one was taken."""

    label: str
    rate: float
    background: float
    n_emitters_g2: int | None = None

    def __post_init__(self):
        if self.rate < 0:
            raise DomainError(f"rate must be nonnegative, got {self.rate}")
        if self.background < 0:
            raise DomainError(f"background must be nonnegative, got {self.background}")
        if self.n_emitters_g2 is not None and self.n_emitters_g2 < 0:
            raise DomainError("n_emitters_g2 must be nonnegative when given")


@dataclass
class SaturationFitResult:
    """Fit of rate(P) = sat_rate / (1 + sat_power/P) + bg_slope * P."""

    sat_rate: float
    sat_power: float
    bg_slope: float
    covariance: np.ndarray | None
    reduced_chi2: float
    converged: bool
    flags: dict = field(default_factory=dict)

    def param_sigma(self) -> np.ndarray:
        return fitkit.standard_errors(self.covariance, 3)


@dataclass
class Spectrum:
    """Emission spectrum with a nominal zero-phonon-line wavelength."""

    wavelength: np.ndarray  # meters, strictly increasing
    intensity: np.ndarray  # arbitrary units, nonnegative
    zpl_wavelength: float = G_CENTER_ZPL

    def __post_init__(self):
        self.wavelength = np.asarray(self.wavelength, dtype=float)
        self.intensity = np.asarray(self.intensity, dtype=float)
        if self.wavelength.shape != self.intensity.shape or self.wavelength.ndim != 1:
            raise DomainError("wavelength and intensity must be 1-d and equal length")
        if self.wavelength.size < 2:
            raise DomainError("spectrum needs at least two samples")
        if not np.all(np.diff(self.wavelength) > 0):
            raise DomainError("wavelengths must be strictly increasing")
        if np.any(self.intensity < 0):
            raise DomainError("intensity must be nonnegative")


def calibrate_single_rate(spots: list[SpotMeasurement], background: float) -> float:
    """Average single-emitter rate from g2-calibrated spots.

    Returns sum(rate_i - background) / sum(n_i) over the spots whose
    emitter number is known. A nonpositive result (all signal at or below
    background) is returned as-is with a zero-signal warning.
    """
    if background < 0:
        raise DomainError(f"background must be nonnegative, got {background}")
    tagged = [s for s in spots if s.n_emitters_g2 is not None]
    total_n = sum(s.n_emitters_g2 for s in tagged)
    if total_n <= 0:
        raise DomainError("no spots with a known emitter number")
    excess = sum(s.rate - background for s in tagged)
    i_single = excess / total_n
    if i_single <= 0:
        warnings.warn(
            "calibrated single-emitter rate is not positive", ZeroSignalWarning
        )
    return i_single


def count_emitters(rate: float, background: float, i_single: float) -> int:
    """Emitter number round[(rate - background) / i_single], floored at 0.

    The tie rule is round-half-away-from-zero: a ratio of exactly 1.5
    counts as 2. Monotone non-decreasing in ``rate``.
    """
    if i_single <= 0:
        raise DomainError(f"i_single must be positive, got {i_single}")
    ratio = (rate - background) / i_single
    return max(0, math.floor(ratio + 0.5))


def _peaks(u, n_base: int, v):
    """Polynomial baseline plus Gaussians at ``u``, with its Jacobian.

    ``v`` holds ``n_base`` baseline coefficients (constant first), then the
    amplitudes, the centers and the sigmas of the Gaussians, one block each.
    """
    amps, cents, sigs = v[n_base:].reshape(3, -1)
    powers = u[:, None] ** np.arange(n_base)
    z = (u[:, None] - cents) / sigs
    g = np.exp(-0.5 * z * z)
    d_cent = amps * g * z / sigs
    return powers @ v[:n_base] + g @ amps, np.hstack([powers, g, d_cent, d_cent * z])


def _exponentials(t, tau0: float, v):
    """Sum of exponentials ``a_i e^(-t / (w_i tau0))`` plus a constant, with
    its Jacobian; ``v`` is (a_1, w_1, ..., a_k, w_k, constant)."""
    amps, w = v[:-1:2], v[1:-1:2]
    e = np.exp(-t[:, None] / (w * tau0))
    jac = np.ones((t.size, v.size))
    jac[:, :-1:2] = e
    jac[:, 1:-1:2] = amps * e * t[:, None] / (w * w * tau0)
    return e @ amps + v[-1], jac


def saturation_model(power, sat_rate: float, sat_power: float, bg_slope: float):
    """rate(P) = sat_rate / (1 + sat_power/P) + bg_slope * P (0 at P = 0)."""
    p = np.asarray(power, dtype=float)
    with np.errstate(divide="ignore"):
        curve = np.where(p > 0, sat_rate * p / (p + sat_power), 0.0)
    return curve + bg_slope * p


def _saturation_gradient(power, sat_rate: float, sat_power: float, bg_slope: float):
    """Analytic gradient of :func:`saturation_model` w.r.t. its parameters,
    shape (npoints, 3). Matches central finite differences to 1e-5."""
    p = np.asarray(power, dtype=float)
    denom = p + sat_power
    d_sat = np.where(p > 0, p / denom, 0.0)
    d_p0 = np.where(p > 0, -sat_rate * p / denom**2, 0.0)
    return np.stack([d_sat, d_p0, p], axis=-1)


def fit_saturation(
    power, rate, sigma=None, dwell_time: float = 1.0
) -> SaturationFitResult:
    """Weighted fit of the saturation curve to rate-vs-power data.

    Needs at least 4 points spanning a factor of 10 in power. When sigma
    is omitted, Poisson counting errors sqrt(rate/dwell_time) are assumed.
    Seeds: bg_slope from the secant of the two highest-power points, the
    saturated rate from the plateau of rate - bg_slope*P, and sat_power
    from the half-rate crossing. Purely linear data comes back with the
    saturation parameters flagged 'unidentifiable'.
    """
    p = np.asarray(power, dtype=float)
    y = np.asarray(rate, dtype=float)
    if p.shape != y.shape or p.ndim != 1:
        raise DomainError("power and rate must be 1-d and equal length")
    if p.size < 4:
        raise DomainError(f"need at least 4 points, got {p.size}")
    if np.any(p <= 0):
        raise DomainError("powers must be positive")
    if np.max(p) / np.min(p) < 10.0:
        raise DomainError("powers must span at least a factor of 10")
    if not 0.0 < dwell_time < math.inf:
        raise DomainError(f"dwell time must be finite and positive, got {dwell_time}")
    order = np.argsort(p)
    p, y = p[order], y[order]
    if sigma is None:
        sig = np.sqrt(np.maximum(y, 1.0 / dwell_time) / dwell_time)
    else:
        sig = np.asarray(sigma, dtype=float)[order]
        if np.any(sig <= 0):
            raise DomainError("sigmas must be positive")

    slope0 = max((y[-1] - y[-2]) / (p[-1] - p[-2]), 0.0)
    plateau = y - slope0 * p
    sat0 = max(float(np.max(plateau)), 1e-12)
    half = sat0 / 2.0
    crossing = np.flatnonzero(plateau >= half)
    p0_0 = float(p[crossing[0]]) if crossing.size else float(np.median(p))

    p_scale = float(np.max(p))
    y_scale = max(float(np.max(y)), 1e-12)

    unit = np.array([y_scale, p_scale, y_scale / p_scale])

    def model(u):
        # chain rule through the scaled parameters: d/du_i = unit_i * d/dtheta_i
        theta = u * unit
        return saturation_model(p, *theta), _saturation_gradient(p, *theta) * unit

    outcome = fitkit.least_squares(fitkit.FitProblem(
        model, y, sig,
        x0=np.array([sat0 / y_scale, p0_0 / p_scale, slope0 * p_scale / y_scale]),
        lower=np.array([0.0, 1e-9, 0.0]),
        upper=np.array([1e9, 1e9, 1e9]),
    ))
    cov = None if outcome.covariance is None else outcome.covariance * np.outer(unit, unit)
    result = SaturationFitResult(
        sat_rate=float(outcome.params[0]) * y_scale,
        sat_power=float(outcome.params[1]) * p_scale,
        bg_slope=float(outcome.params[2]) * y_scale / p_scale,
        covariance=cov,
        reduced_chi2=outcome.reduced_chi2,
        converged=outcome.converged,
        flags=dict(outcome.flags),
    )
    sigmas = result.param_sigma()
    tiny_sat = result.sat_rate <= 1e-6 * y_scale
    noisy_sat = np.isfinite(sigmas[0]) and result.sat_rate < 2.0 * sigmas[0]
    at_bounds = not 1e-8 < result.sat_power / p_scale < 1e8
    if tiny_sat or noisy_sat or at_bounds or "covariance_singular" in result.flags:
        result.flags["unidentifiable"] = True
    return result


@dataclass
class DecayFitResult:
    """Bi-exponential decay fit A_f e^(-t/tau_f) + A_s e^(-t/tau_s) + c.

    Amplitudes are referenced to ``fit_start`` (the first bin after the
    peak). ``flags`` may contain 'no_fit' (no usable peak / too few bins)
    and 'single_exponential' (degenerate time constants; then
    tau_fast == tau_slow and amp_slow == 0).
    """

    amp_fast: float
    tau_fast: float
    amp_slow: float
    tau_slow: float
    baseline: float
    fit_start: float
    covariance: np.ndarray | None
    reduced_chi2: float
    converged: bool
    flags: dict = field(default_factory=dict)


def _no_fit(reason: str) -> DecayFitResult:
    nan = float("nan")
    return DecayFitResult(
        amp_fast=nan, tau_fast=nan, amp_slow=nan, tau_slow=nan, baseline=nan,
        fit_start=nan, covariance=None, reduced_chi2=nan, converged=False,
        flags={"no_fit": reason},
    )


def fit_decay(histogram) -> DecayFitResult:
    """Fit the post-peak part of a pulsed-decay histogram.

    Works on any object with ``bin_centers`` and ``counts`` arrays. The fit
    starts one bin after the maximum. Time constants closer than a factor
    1.5, or a component amplitude consistent with zero, trigger a
    single-exponential refit (flagged); a histogram without a significant
    peak or with fewer than ``_MIN_POST_PEAK`` (20) post-peak bins is flagged
    'no_fit' instead of raising.
    """
    t = np.asarray(histogram.bin_centers, dtype=float)
    c = np.asarray(histogram.counts, dtype=float)
    if t.size != c.size or t.size < 3:
        raise DomainError("histogram needs matching bin_centers/counts, >= 3 bins")
    level = float(np.median(c))
    spread = 1.4826 * float(np.median(np.abs(c - level)))
    noise = max(spread, math.sqrt(max(level, 1.0)))
    peak = int(np.argmax(c))
    if c[peak] - level < 5.0 * noise:
        return _no_fit("no significant peak")
    start = peak + 1
    if t.size - start < _MIN_POST_PEAK:
        return _no_fit("too few post-peak bins")

    ts = t[start:] - t[start]
    ys = c[start:]
    sig = np.sqrt(np.maximum(ys, 1.0))
    tail = max(3, ys.size // 10)
    c0 = float(np.mean(ys[-tail:]))
    a0 = max(float(ys[0]) - c0, 1.0)
    below = np.flatnonzero(ys - c0 < a0 / math.e)
    tau0 = float(ts[below[0]]) if below.size and below[0] > 0 else float(ts[-1]) / 3.0
    tau0 = max(tau0, float(ts[1]))
    y_scale = a0 + c0

    def fit(x0):
        """The outcome, its parameters and covariance in physical units."""
        odd = np.arange(x0.size) % 2 == 1  # the time constants, in units of tau0
        unit = np.where(odd, tau0, y_scale)
        outcome = fitkit.least_squares(fitkit.FitProblem(
            lambda v: _exponentials(ts, tau0, v), ys / y_scale, sig / y_scale, x0,
            lower=np.where(odd, 1e-3, 0.0), upper=np.full(x0.size, 1e6),
        ))
        cov = None if outcome.covariance is None else outcome.covariance * np.outer(unit, unit)
        return outcome, outcome.params * unit, cov

    bi_x0 = np.array([0.8 * a0 / y_scale, 1.0, 0.2 * a0 / y_scale, 5.0, c0 / y_scale])
    outcome, p, cov = fit(bi_x0)
    amps, taus = p[0:4:2], p[1:4:2]
    ratio = float(np.max(taus) / max(np.min(taus), 1e-300))
    amp_sigma = fitkit.standard_errors(cov, 5)[0:4:2]
    weak = int(np.argmin(amps))
    one_component = amps[weak] < 0.01 * max(np.max(amps), 1e-300) or (
        np.isfinite(amp_sigma[weak]) and amps[weak] < 2.0 * amp_sigma[weak]
    )
    if ratio < 1.5 or one_component:
        single, (amp, tau, baseline), cov = fit(np.array([a0 / y_scale, 1.0, c0 / y_scale]))
        return DecayFitResult(
            amp_fast=float(amp), tau_fast=float(tau), amp_slow=0.0, tau_slow=float(tau),
            baseline=float(baseline), fit_start=float(t[start]),
            covariance=cov, reduced_chi2=single.reduced_chi2,
            converged=single.converged,
            flags={**single.flags, "single_exponential": True},
        )
    fast, slow = (0, 1) if taus[0] <= taus[1] else (1, 0)
    if cov is not None and fast == 1:  # keep covariance order (Af, tf, As, ts, c)
        perm = [2, 3, 0, 1, 4]
        cov = cov[np.ix_(perm, perm)]
    return DecayFitResult(
        amp_fast=float(amps[fast]), tau_fast=float(taus[fast]),
        amp_slow=float(amps[slow]), tau_slow=float(taus[slow]),
        baseline=float(p[4]), fit_start=float(t[start]),
        covariance=cov, reduced_chi2=outcome.reduced_chi2,
        converged=outcome.converged, flags=dict(outcome.flags),
    )


@dataclass
class GaussianPeak:
    """One fitted peak of a line scan."""

    center: float
    amplitude: float
    fwhm: float


@dataclass
class LineScanResult:
    """Multi-Gaussian decomposition of a scan profile."""

    peaks: list[GaussianPeak]
    baseline: float
    reduced_chi2: float
    converged: bool
    flags: dict = field(default_factory=dict)


def _local_maxima_above(y: np.ndarray, threshold: float) -> list[int]:
    idx = []
    for i in range(1, y.size - 1):
        if y[i] > threshold and y[i] >= y[i - 1] and y[i] > y[i + 1]:
            idx.append(i)
    return idx


def _half_width(x: np.ndarray, y: np.ndarray, i: int, base: float) -> float:
    """Half width of the feature at sample ``i``: walk out to half height."""
    half = base + 0.5 * (y[i] - base)
    left = i
    while left > 0 and y[left] > half:
        left -= 1
    right = i
    while right < y.size - 1 and y[right] > half:
        right += 1
    return max(0.5 * (x[right] - x[left]), float(np.min(np.diff(x))))


def fit_line_scan(position, rate) -> LineScanResult:
    """Joint multi-Gaussian fit of a confocal line scan.

    Peaks are seeded at local maxima more than 3 robust standard
    deviations above the median baseline; noise maxima riding on the same
    feature are merged into the tallest one within a half-width. A flat
    profile legitimately returns no peaks. Fitted components that collapse
    (zero amplitude or center outside the scan) are dropped; peaks come
    back sorted by position.
    """
    x = np.asarray(position, dtype=float)
    y = np.asarray(rate, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 5:
        raise DomainError("need matching 1-d position/rate arrays, >= 5 samples")
    if not np.all(np.diff(x) > 0):
        raise DomainError("positions must be strictly increasing")
    base0 = float(np.median(y))
    noise = 1.4826 * float(np.median(np.abs(y - base0)))
    noise = max(noise, 1e-12 * max(abs(base0), 1.0))
    candidates = _local_maxima_above(y, base0 + 3.0 * noise)
    span = float(x[-1] - x[0])
    dx = float(np.min(np.diff(x)))
    widths = {i: _half_width(x, y, i, base0) for i in candidates}
    seeds: list[int] = []
    for i in sorted(candidates, key=lambda j: y[j], reverse=True):
        sep = max(widths[i], 3.0 * dx)
        if all(abs(x[i] - x[j]) > max(sep, widths[j]) for j in seeds):
            seeds.append(i)
    if not seeds:
        return LineScanResult([], base0, float("nan"), True, {"no_peaks": True})

    y_scale = max(float(np.max(y)), 1e-12)
    x0s = [x[i] for i in seeds]
    a0s = [y[i] - base0 for i in seeds]
    s0s = [widths[i] / math.sqrt(2.0 * math.log(2.0)) / math.sqrt(2.0) for i in seeds]

    n_peaks = len(seeds)
    # intensities in units of y_scale, positions in scan spans from x[0]
    xs = (x - x[0]) / span
    x0 = np.concatenate(
        [
            [base0 / y_scale],
            np.asarray(a0s) / y_scale,
            (np.asarray(x0s) - x[0]) / span,
            np.asarray(s0s) / span,
        ]
    )
    lower = np.concatenate(
        [[0.0], np.zeros(n_peaks), np.full(n_peaks, -0.1), np.full(n_peaks, dx / (4 * span))]
    )
    upper = np.concatenate(
        [[1e6], np.full(n_peaks, 1e6), np.full(n_peaks, 1.1), np.full(n_peaks, 1.0)]
    )
    # a sigma of 1 / y_scale keeps the residuals in the units of y
    problem = fitkit.FitProblem(lambda u: _peaks(xs, 1, u), y / y_scale, 1.0 / y_scale, x0, lower, upper)
    outcome = fitkit.least_squares(problem)
    b = outcome.params[0] * y_scale
    amps, cents, sigs = outcome.params[1:].reshape(3, n_peaks) * [[y_scale], [span], [span]]
    cents = cents + x[0]
    # components that end up below the seeding threshold, narrower than the
    # sampling step (a spike through one noisy point), or outside the scan
    # are noise, not peaks
    peaks = [
        GaussianPeak(center=float(c), amplitude=float(a), fwhm=float(FWHM_PER_SIGMA * s))
        for a, c, s in zip(amps, cents, sigs)
        if a > 3.0 * noise
        and FWHM_PER_SIGMA * s >= 1.5 * dx
        and x[0] - dx <= c <= x[-1] + dx
    ]
    peaks.sort(key=lambda pk: pk.center)
    flags = dict(outcome.flags)
    if not peaks:
        flags["no_peaks"] = True
    return LineScanResult(
        peaks=peaks,
        baseline=float(b),
        reduced_chi2=outcome.reduced_chi2,
        converged=outcome.converged,
        flags=flags,
    )


@dataclass
class DebyeWallerResult:
    """ZPL fraction of total emission with the fitted components.

    ``components`` holds (center, amplitude, sigma, area) tuples, ZPL
    first. 'weak_zpl' is flagged when the ZPL amplitude is within twice
    the residual noise.
    """

    dw: float
    zpl_area: float
    psb_area: float
    components: list[tuple[float, float, float, float]]
    baseline: tuple[float, float]
    reduced_chi2: float
    converged: bool
    flags: dict = field(default_factory=dict)


def debye_waller(
    spectrum: Spectrum,
    zpl_halfwidth: float,
    n_psb: int = 3,
    method: str = "fit",
) -> DebyeWallerResult:
    """Debye-Waller factor: ZPL area over total (ZPL + phonon side band).

    ``method='fit'`` (default) decomposes the spectrum into a linear
    baseline, one ZPL Gaussian (center constrained to the nominal ZPL
    wavelength +- ``zpl_halfwidth``) and ``n_psb`` side-band Gaussians
    centered between the ZPL and the red end of the spectrum; the PSB
    overlaps the ZPL tail, which is why areas come from the fit.
    ``method='window'`` is the integration cross-check: baseline from the
    spectrum edges, ZPL = everything within the window.
    The result is exactly invariant under uniform intensity rescaling.
    """
    wl = spectrum.wavelength
    y = spectrum.intensity
    zpl = spectrum.zpl_wavelength
    if not wl[0] <= zpl <= wl[-1]:
        raise DomainError("ZPL wavelength is outside the spectrum range")
    if zpl_halfwidth <= 0:
        raise DomainError(f"zpl_halfwidth must be positive, got {zpl_halfwidth}")
    if method not in ("fit", "window"):
        raise DomainError(f"method must be 'fit' or 'window', got {method!r}")
    y_scale = float(np.max(y))
    if y_scale <= 0:
        raise DomainError("spectrum has no intensity")
    yn = y / y_scale  # makes the DW ratio exactly scale-invariant

    if method == "window":
        edge = max(3, wl.size // 20)
        xe = np.concatenate([wl[:edge], wl[-edge:]])
        ye = np.concatenate([yn[:edge], yn[-edge:]])
        b1, b0 = np.polyfit(xe, ye, 1)
        excess = np.clip(yn - (b0 + b1 * wl), 0.0, None)
        in_zpl = np.abs(wl - zpl) <= zpl_halfwidth
        total = float(np.trapezoid(excess, wl))
        if total <= 0:
            raise DomainError("no emission above the baseline")
        zpl_area = float(np.trapezoid(np.where(in_zpl, excess, 0.0), wl))
        return DebyeWallerResult(
            dw=zpl_area / total,
            zpl_area=zpl_area * y_scale,
            psb_area=(total - zpl_area) * y_scale,
            components=[],
            baseline=(b0 * y_scale, b1 * y_scale),
            reduced_chi2=float("nan"),
            converged=True,
            flags={"method": "window"},
        )

    if n_psb < 1:
        raise DomainError(f"n_psb must be at least 1, got {n_psb}")
    if 5 + 3 * n_psb > wl.size:
        raise DomainError(
            f"n_psb = {n_psb} needs {5 + 3 * n_psb} parameters, more than the"
            f" {wl.size} spectrum points"
        )
    span = float(wl[-1] - wl[0])
    dwl = float(np.min(np.diff(wl)))
    u_wl = (wl - wl[0]) / span
    u_zpl = (zpl - wl[0]) / span
    u_hw = zpl_halfwidth / span

    # side-band seeds between the ZPL red edge and the spectrum end
    psb_lo = min(u_zpl + 2.0 * u_hw, 1.0 - 1e-3)
    centers0 = psb_lo + (np.arange(n_psb) + 0.5) * (1.0 - psb_lo) / n_psb
    width0 = (1.0 - psb_lo) / (2.0 * n_psb)
    i_zpl = int(np.argmin(np.abs(u_wl - u_zpl)))
    amp_z0 = max(float(yn[i_zpl]), 1e-3)
    amps0 = [
        max(float(np.interp(cz, u_wl, yn)) * 0.8, 1e-3) for cz in centers0
    ]

    # baseline (b0, b1), then amplitudes, centers and sigmas, the ZPL first
    # in each; side-band centers stay on the measured spectrum, where the
    # data constrain their amplitudes
    x0 = np.concatenate(
        [[float(np.min(yn)), 0.0, amp_z0], amps0, [u_zpl], centers0,
         [max(u_hw / 2.0, dwl / span)], np.full(n_psb, width0)]
    )
    lower = np.concatenate(
        [[0.0, -10.0], np.zeros(n_psb + 1), [u_zpl - u_hw], np.full(n_psb, u_zpl),
         [dwl / (4.0 * span)], np.full(n_psb, u_hw / 2.0)]
    )
    upper = np.concatenate(
        [[10.0, 10.0], np.full(n_psb + 1, 10.0), [u_zpl + u_hw], np.ones(n_psb),
         [u_hw], np.ones(n_psb)]
    )
    problem = fitkit.FitProblem(lambda v: _peaks(u_wl, 2, v), yn, 1.0, x0, lower, upper)
    outcome = fitkit.least_squares(problem)
    (b0, b1), (amps, cents, sigs) = outcome.params[:2], outcome.params[2:].reshape(3, -1)
    areas = amps * sigs * math.sqrt(2.0 * math.pi)
    zpl_area_u = areas[0]
    psb_area_u = float(np.sum(areas[1:]))
    total = zpl_area_u + psb_area_u
    flags = dict(outcome.flags)
    resid_noise = float(np.std(_peaks(u_wl, 2, outcome.params)[0] - yn))
    if amps[0] < 2.0 * resid_noise:
        flags["weak_zpl"] = True
    if total <= 0:
        raise DomainError("fit found no emission components")
    components = [
        (float(wl[0] + c * span), float(a * y_scale), float(s * span),
         float(area * span * y_scale))
        for a, c, s, area in zip(amps, cents, sigs, areas)
    ]
    return DebyeWallerResult(
        dw=zpl_area_u / total,
        zpl_area=zpl_area_u * span * y_scale,
        psb_area=psb_area_u * span * y_scale,
        components=components,
        baseline=(b0 * y_scale, b1 * y_scale / span),
        reduced_chi2=outcome.reduced_chi2,
        converged=outcome.converged,
        flags=flags,
    )


def write_spot_table(spots: list[SpotMeasurement], estimates, path) -> None:
    """Spot table CSV: label,rate_cps,background_cps,n_g2,n_estimated.

    ``estimates`` aligns with ``spots``; None entries (either column)
    render as empty fields.
    """
    if len(estimates) != len(spots):
        raise DomainError("estimates must align with spots")
    columns = (
        [s.label for s in spots],
        [s.rate for s in spots],
        [s.background for s in spots],
        ["" if s.n_emitters_g2 is None else s.n_emitters_g2 for s in spots],
        ["" if est is None else est for est in estimates],
    )
    header = "label,rate_cps,background_cps,n_g2,n_estimated"
    write_table(path, header, columns, "%s,%.17g,%.17g,%s,%s")


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """Spectrum CSV: wavelength_nm,intensity with the ZPL in a comment."""
    columns = (spectrum.wavelength * 1e9, spectrum.intensity)
    meta = {"zpl_nm": spectrum.zpl_wavelength * 1e9}
    write_table(path, "wavelength_nm,intensity", columns, "%.17g,%.17g", meta)


def read_spectrum_csv(path, zpl_wavelength: float | None = None) -> Spectrum:
    """Read a spectrum CSV; the ZPL comes from the argument if given, else
    the file's comment, else the G-center default."""
    table = read_table(path, {"wavelength_nm,intensity": (float, float)}, {"zpl_nm": float})
    wl, inten = table.columns
    zpl_file = table.meta["zpl_nm"] * 1e-9 if "zpl_nm" in table.meta else None
    zpl = zpl_wavelength if zpl_wavelength is not None else (zpl_file or G_CENTER_ZPL)
    return Spectrum(np.asarray(wl) * 1e-9, np.asarray(inten), zpl)


def write_saturation_csv(power, rate, path, sigma=None) -> None:
    """Saturation CSV: power_uw,rate_cps[,sigma_cps]."""
    columns = [np.asarray(power, dtype=float) * 1e6, np.asarray(rate, dtype=float)]
    header, fmt = "power_uw,rate_cps", "%.17g,%.17g"
    if sigma is not None:
        columns.append(np.asarray(sigma, dtype=float))
        header, fmt = header + ",sigma_cps", fmt + ",%.17g"
    if any(c.shape != columns[0].shape for c in columns):
        raise DomainError("power, rate and sigma must have equal length")
    write_table(path, header, columns, fmt)


def read_saturation_csv(path):
    """Read a saturation CSV; returns (power, rate, sigma_or_None)."""
    headers = {"power_uw,rate_cps": (float,) * 2, "power_uw,rate_cps,sigma_cps": (float,) * 3}
    power, rate, *sigma = (np.asarray(c) for c in read_table(path, headers).columns)
    return power * 1e-6, rate, sigma[0] if sigma else None
