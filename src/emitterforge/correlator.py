"""Intensity correlation (HBT) histograms, fits and background correction.

``correlate`` is a full multi-stop correlator: every tag on channel A is
paired with every tag on channel B within the window, not just the nearest.
Bins are centered on tau = 0 and symmetric in count. The tie rule for
delays landing exactly on a bin edge is round-half-away-from-zero, which
keeps the histogram exactly mirror-symmetric under exchange of the inputs;
each bin is normalized by the exact number of integer tick delays it
covers, so a Poisson pair of streams averages to 1 in every bin including
the central one.

The dip model is

    g2(tau) = (N-1)/N + (1/N) * (1 - (1+a) e^(-|tau|/tau1) + a e^(-|tau|/tau2))

with N the number of identical emitters, ``a`` the amplitude of the
metastable-state bunching shoulder and tau1/tau2 the antibunching and
bunching time scales. At tau = 0 the model equals (N-1)/N identically.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import fitkit
from .errors import CorrectionWarning, DomainError
from .tables import write_table
from .timetags import TimeTagStream

DEFAULT_BIN_WIDTH = 1e-9
DEFAULT_WINDOW = 250e-9
RHO_FLOOR = 0.1  # background_correct warns below this signal fraction
_N_SUB = 8  # quadrature nodes per bin of the bin-averaged dip model
_A_CHUNK = 200_000  # bound the pair-array memory


@dataclass
class G2Histogram:
    """Normalized coincidence histogram.

    ``g2 = raw / normalizer`` per bin until :func:`background_correct`;
    ``sigma = sqrt(raw) / normalizer`` on whatever :func:`correlate` and
    :func:`background_correct` return. ``normalizer`` already accounts for
    the exact tick coverage of each bin, so an uncorrelated pair of streams
    has expectation 1 everywhere.
    """

    bin_width: float
    window: float
    tau: np.ndarray
    g2: np.ndarray
    sigma: np.ndarray
    raw: np.ndarray
    normalizer: np.ndarray
    rate_a: float
    rate_b: float
    total_time: float
    resolution: float
    flags: dict = field(default_factory=dict)


@dataclass
class G2Fit:
    """Fitted dip model parameters.

    ``iterations``, ``message`` and ``flags`` are carried over from the
    :class:`fitkit.FitOutcome` (e.g. 'covariance_singular').
    """

    n_emitters: float
    a: float
    tau1: float
    tau2: float
    g2_zero: float
    g2_zero_sigma: float
    param_sigma: np.ndarray
    covariance: np.ndarray | None
    reduced_chi2: float
    converged: bool
    no_dip: bool
    message: str = ""
    iterations: int = 0
    flags: dict = field(default_factory=dict)


def _dip(n, a, e1, e2):
    """The dip model from e1 = e^(-|tau|/tau1) and e2 = e^(-|tau|/tau2);
    written so g2(0) == (N-1)/N holds exactly in floats."""
    return (n - 1.0) / n + ((1.0 - e1) - a * (e1 - e2)) / n


def g2_model(tau, n_emitters: float, a: float, tau1: float, tau2: float):
    """Dip model; g2(0) == (N-1)/N exactly."""
    if tau1 <= 0.0 or tau2 <= 0.0 or n_emitters < 1.0:
        return np.full(np.shape(tau), np.inf)
    t = np.abs(np.asarray(tau, dtype=float))
    return _dip(n_emitters, a, np.exp(-t / tau1), np.exp(-t / tau2))


def _bins(bin_ticks: int, m_bins: int):
    """Bins -m_bins..m_bins: each one's delay, first and last |delay| and
    number of delays, in ticks as floats (exact below 2**53, never wrapping)."""
    ticks = np.arange(-m_bins, m_bins + 1, dtype=float) * bin_ticks
    lo = np.maximum(np.abs(ticks) - bin_ticks // 2, 0.0)
    hi = np.abs(ticks) + ((bin_ticks + 1) // 2 - 1)
    coverage = np.full(ticks.size, float(bin_ticks))
    coverage[m_bins] = 2.0 * hi[m_bins] + 1.0
    return ticks, lo, hi, coverage


def correlate(
    a: TimeTagStream,
    b: TimeTagStream,
    bin_width: float = DEFAULT_BIN_WIDTH,
    window: float = DEFAULT_WINDOW,
) -> G2Histogram:
    """Multi-stop cross-correlation of two channels.

    The normalizer ``rate_a * rate_b * bin_coverage * total_time`` makes an
    uncorrelated (Poisson) pair average to g2 = 1. A window longer than the
    acquisition is allowed but flagged ('window_exceeds_duration').

    Channel A is correlated in parts of at most ``_A_CHUNK`` (200,000)
    starts, each against the slice of B within its reach; the parts bound
    the pair arrays' memory and change no count. A histogram, or a set of
    pairs, too large for the available memory raises :class:`DomainError`
    naming the bin count, and so do delays whose span, plus about 1.5 bins,
    passes the int64 tick range.
    """
    if a.n_tags == 0 or b.n_tags == 0:
        raise DomainError("both channels must contain tags")
    if a.resolution != b.resolution:
        raise DomainError("streams have mismatched resolutions")
    res = a.resolution
    # the checks are written so that nan fails them; round(0.5) is 0
    ticks = bin_width / res
    if not ticks > 0.5:
        raise DomainError(f"bin width {bin_width!r} s is below the tick resolution")
    if not ticks < 2**62:
        raise DomainError(f"bin width {bin_width!r} s is more than 2**62 ticks")
    bin_ticks = int(round(ticks))
    snapped = bin_ticks * res
    half_bins = window / snapped
    if not half_bins > 0.5:
        raise DomainError(
            f"window {window!r} s is smaller than the bin width {snapped!r} s"
        )
    if not half_bins < 2**58:  # past any address space
        raise DomainError(f"window {window!r} s holds over 2**58 bins of {snapped!r} s")
    m_bins = int(round(half_bins))
    total_time = max(a.duration, b.duration)
    if total_time <= 0:
        raise DomainError("streams have zero duration")

    n_bins = 2 * m_bins + 1
    # pairs reach out to the window's outer bin edge, but no delay is
    # longer than the tags allow, so clamping each side's reach to that
    # drops no pair; a stop is searched at min(a, last_b - ahead) + ahead,
    # which finds the same B tags as a + ahead without passing 2**63
    last_b = int(b.timestamps[-1])
    outer = m_bins * bin_ticks + bin_ticks // 2
    ahead = min(outer, max(last_b - int(a.timestamps[0]), 0))
    behind = min(outer, max(int(a.timestamps[-1]) - int(b.timestamps[0]), 0))
    # d + shift > 0 for every delay d >= -behind; floor((d + shift) / b)
    # is then round-half-up of d / b, offset by c bins
    c = behind // bin_ticks + 1
    shift = c * bin_ticks + bin_ticks // 2
    if ahead + shift >= 2**63:
        raise DomainError(
            f"delays from -{behind} to {ahead} ticks in bins of {bin_ticks} ticks"
            " pass the correlator's int64 limit of 2**63 ticks"
        )
    try:
        raw = np.zeros(n_bins, dtype=np.int64)
        for a_part in np.array_split(a.timestamps, -(-a.n_tags // _A_CHUNK)):
            if a_part.size == 0:
                continue
            stop = np.minimum(a_part, last_b - ahead) + ahead
            b_part = b.timestamps[
                np.searchsorted(b.timestamps, a_part[0] - behind, side="left") :
                np.searchsorted(b.timestamps, stop[-1], side="right")
            ]
            lo = np.searchsorted(b_part, a_part - behind, side="left")
            counts = np.searchsorted(b_part, stop, side="right") - lo
            total = int(counts.sum())
            if total == 0:
                continue
            # every (start, stop) pair in reach: the stops of start i are
            # b_part[lo[i] : lo[i] + counts[i]]
            stops = np.arange(total) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
            num = b_part[stops] - np.repeat(a_part - shift, counts)
            if bin_ticks % 2 == 0:
                num -= num < shift  # a tie below zero rounds away from it
            # bins c - m_bins .. c + m_bins are -m_bins .. m_bins; the ones
            # past them hold ties on the outer edges
            held = np.bincount(num // bin_ticks)[max(c - m_bins, 0) : c + m_bins + 1]
            start = max(m_bins - c, 0)
            raw[start : start + held.size] += held

        ticks, _, _, coverage = _bins(bin_ticks, m_bins)
        rate_a = a.n_tags / total_time
        rate_b = b.n_tags / total_time
        normalizer = rate_a * rate_b * (coverage * res) * total_time
        return G2Histogram(
            bin_width=snapped,
            window=window,
            tau=ticks * res,
            g2=raw / normalizer,
            sigma=np.sqrt(raw) / normalizer,
            raw=raw,
            normalizer=normalizer,
            rate_a=rate_a,
            rate_b=rate_b,
            total_time=total_time,
            resolution=res,
            flags={"window_exceeds_duration": True} if window > total_time else {},
        )
    except MemoryError:
        raise DomainError(
            f"{n_bins} bins of {snapped!r} s and their pairs do not fit in memory;"
            " widen the bin or narrow the window"
        ) from None


def _dip_half_width(tau: np.ndarray, g2: np.ndarray) -> float:
    """Crude tau1 seed: |tau| where the dip has recovered halfway to 1."""
    center = g2[np.argmin(np.abs(tau))]
    target = center + 0.5 * (1.0 - center)
    above = np.abs(tau)[g2 >= target]
    if above.size == 0 or center >= 1.0:
        return max(np.max(np.abs(tau)) / 10.0, np.min(np.abs(tau)[np.abs(tau) > 0], initial=1e-9))
    half = float(np.min(above[above > 0], initial=np.max(np.abs(tau)) / 10.0))
    return max(half / math.log(2.0), 1e-12)


def _bin_span(hist: G2Histogram):
    """First and last |tau| tick each bin covers (floats, in ticks)."""
    _, lo, hi, _ = _bins(int(round(hist.bin_width / hist.resolution)), hist.tau.size // 2)
    return lo, hi


def _bin_subsamples(hist: G2Histogram):
    """|tau| quadrature nodes (``_N_SUB`` = 8) spanning each bin's actual
    tick coverage.

    The data in a bin is the pair count averaged over the delays the bin
    covers, so the model must be averaged the same way or a steep dip
    biases the fit at coarse bin widths.
    """
    lo, hi = _bin_span(hist)
    frac = (np.arange(_N_SUB) + 0.5) / _N_SUB
    return (lo[:, None] + (hi - lo)[:, None] * frac[None, :]) * hist.resolution


class _BinnedDip:
    """The dip model averaged over the :func:`_bin_subsamples` nodes of each
    bin, with its Jacobian, in closed form.

    The nodes of a bin are equally spaced, t0 + j h for j < _N_SUB, so the
    bin mean of e^(-t/tau) is e^(-t0/tau) * mean_j q^j with q = e^(-h/tau).
    The geometric factor depends on h alone, which takes one value in the
    central bin and one in all others, so an evaluation costs one
    exponential per bin per time constant; the tau-derivatives come from the
    same exponentials. Parameters are (N, a, tau1/scale, tau2/scale).
    """

    def __init__(self, hist: G2Histogram, scale: float):
        lo, hi = _bin_span(hist)
        spans, self._which = np.unique(hi - lo, return_inverse=True)
        self._h = spans * hist.resolution / _N_SUB
        self._t0 = (lo + (hi - lo) * (0.5 / _N_SUB)) * hist.resolution
        self._h_bin = self._h[self._which]
        self._j = np.arange(_N_SUB, dtype=float)
        self._scale = scale

    def _exp_means(self, tau: float):
        """Bin means of e^(-t/tau) and of their tau-derivative t e^(-t/tau) / tau^2."""
        q = np.exp(-np.outer(self._h, self._j) / tau)
        geo = q.mean(axis=1)[self._which]
        geo_j = (q @ self._j / self._j.size)[self._which]
        e0 = np.exp(-self._t0 / tau)
        return e0 * geo, e0 * (self._t0 * geo + self._h_bin * geo_j) / (tau * tau)

    def __call__(self, p: np.ndarray):
        """Bin-averaged :func:`g2_model` and its Jacobian; the value is
        non-finite outside the model's domain."""
        n, a = p[0], p[1]
        if p[2] <= 0.0 or p[3] <= 0.0 or n < 1.0:
            return np.full(self._t0.shape, np.inf), None
        e1, d1 = self._exp_means(p[2] * self._scale)
        e2, d2 = self._exp_means(p[3] * self._scale)
        cols = (
            ((1.0 + a) * e1 - a * e2) / (n * n),
            (e2 - e1) / n,
            -(1.0 + a) * self._scale / n * d1,
            a * self._scale / n * d2,
        )
        return _dip(n, a, e1, e2), np.stack(cols, axis=1)


def fit_g2(hist: G2Histogram) -> G2Fit:
    """Weighted fit of the dip model to a correlation histogram.

    The model is averaged over each bin's delay coverage (not sampled at
    the bin center), so wide bins do not bias g2(0) upward. Seeds: N from
    the central bins, ``a`` from the highest bin, tau1 from the dip
    half-width, tau2 = 10 tau1. Bounds keep N >= 1, a >= 0 and both time
    constants positive. ``no_dip`` is flagged when the weighted mean of
    the central bins is not significantly (3 sigma) below the weighted
    mean of the outer half of the window. A histogram whose g2 values or
    weights are out of float range raises :class:`DomainError`.
    """
    tau, y = hist.tau, hist.g2
    tau1_0 = _dip_half_width(tau, y)
    scale = max(float(tau1_0), 1e-12)
    # empty bins are weighted as one count; the problem refuses g2 values
    # or weights out of float range (a background correction by a tiny rho
    # gives them) before the weighted means below seed N and a
    problem = fitkit.FitProblem(
        _BinnedDip(hist, scale), y, np.sqrt(np.maximum(hist.raw, 1)) / hist.normalizer,
        x0=np.array([1.0, 0.0, tau1_0 / scale, 10.0 * tau1_0 / scale]),
        lower=np.array([1.0, 0.0, 1e-6, 1e-6]),
        upper=np.array([1e9, 1e6, 1e9, 1e9]),
    )

    # dip significance: central 5 bins against the outer half-window
    def _weighted(mask):
        w = 1.0 / problem.sigma[mask] ** 2
        return float(np.sum(w * y[mask]) / w.sum()), 1.0 / float(w.sum())

    center_mask = np.abs(tau) <= 2.5 * hist.bin_width
    tail_mask = np.abs(tau) >= hist.window / 2.0
    g_center, var_center = _weighted(center_mask)
    g_tail, var_tail = _weighted(tail_mask)
    depth = g_tail - g_center
    no_dip = depth < 3.0 * math.sqrt(var_center + var_tail)

    # depth -> N through g2(0) = (N-1)/N; a shallow or absent dip seeds a
    # modest N and lets the optimizer drift up if needed
    n0 = min(max(1.0 / max(depth, 1e-2), 1.0), 100.0)
    problem.x0[:2] = n0, max(float(np.max(y)) - 1.0, 0.0)
    outcome = fitkit.least_squares(problem)
    n_fit, a_fit = float(outcome.params[0]), float(outcome.params[1])
    tau1_fit = float(outcome.params[2]) * scale
    tau2_fit = float(outcome.params[3]) * scale

    unit = np.array([1.0, 1.0, scale, scale])
    cov = None if outcome.covariance is None else outcome.covariance * np.outer(unit, unit)
    sigmas = fitkit.standard_errors(cov, 4)
    g2_zero = (n_fit - 1.0) / n_fit
    g2_zero_sigma = float(sigmas[0]) / n_fit**2 if np.isfinite(sigmas[0]) else float("nan")
    return G2Fit(
        n_emitters=n_fit,
        a=a_fit,
        tau1=tau1_fit,
        tau2=tau2_fit,
        g2_zero=g2_zero,
        g2_zero_sigma=g2_zero_sigma,
        param_sigma=sigmas,
        covariance=cov,
        reduced_chi2=outcome.reduced_chi2,
        converged=outcome.converged,
        no_dip=no_dip,
        message=outcome.message,
        iterations=outcome.iterations,
        flags=dict(outcome.flags),
    )


def rho_from_rates(spot_rate: float, background_rate: float) -> float:
    """Signal fraction rho = (I - B) / I, clamped at 0 when B exceeds I."""
    if spot_rate <= 0:
        raise DomainError(f"spot_rate must be positive, got {spot_rate}")
    if background_rate < 0:
        raise DomainError(f"background_rate must be nonnegative, got {background_rate}")
    if background_rate > spot_rate:
        warnings.warn(
            "background exceeds spot rate; rho clamped to 0", CorrectionWarning
        )
        return 0.0
    return (spot_rate - background_rate) / spot_rate


def background_correct(hist: G2Histogram, rho: float) -> G2Histogram:
    """Remove uncorrelated background: g_corr = (g - (1 - rho^2)) / rho^2.

    Returns a new histogram with sigma scaled by 1/rho^2. Values below zero
    after correction are possible with noisy data and set the 'below_zero'
    flag; rho below ``RHO_FLOOR`` (0.1) triggers a reliability warning.
    """
    if not 0.0 < rho <= 1.0:
        raise DomainError(f"rho must be in (0, 1], got {rho}")
    if rho < RHO_FLOOR:
        warnings.warn(
            f"rho = {rho:.3g} below {RHO_FLOOR:g}; corrected g2 is unreliable",
            CorrectionWarning,
        )
    rho2 = rho * rho
    corrected = (hist.g2 - (1.0 - rho2)) / rho2
    out = replace(
        hist,
        tau=hist.tau.copy(),
        g2=corrected,
        sigma=hist.sigma / rho2,
        raw=hist.raw.copy(),
        normalizer=hist.normalizer * rho2,
        flags=dict(hist.flags),
    )
    out.flags["background_corrected"] = rho
    if np.any(corrected < 0):
        out.flags["below_zero"] = True
    return out


def max_emitters_from_g2(g2_zero: float) -> int | None:
    """Largest emitter number consistent with g2(0) >= (N-1)/N.

    Returns None when g2_zero >= 1 (no bound). Negative g2_zero (possible
    after background correction of noisy data) still bounds N at 1.
    """
    if g2_zero >= 1.0:
        return None
    if g2_zero < 0.0:
        return 1
    bound = 1.0 / (1.0 - g2_zero)
    # exact integers allowed; otherwise floor (absorb float fuzz first)
    nearest = round(bound)
    if abs(bound - nearest) < 1e-9 and nearest >= 1:
        return int(nearest)
    return max(1, math.floor(bound))


def write_histogram_csv(hist: G2Histogram, path) -> None:
    """CSV rendering ``tau_ns,g2,sigma,raw`` with a metadata comment line."""
    meta = {
        "bin_width_ps": hist.bin_width * 1e12,
        "window_ps": hist.window * 1e12,
        "rate_a_cps": hist.rate_a,
        "rate_b_cps": hist.rate_b,
        "total_time_s": hist.total_time,
        "resolution_ps": hist.resolution * 1e12,
    }
    columns = (hist.tau * 1e9, hist.g2, hist.sigma, hist.raw)
    write_table(path, "tau_ns,g2,sigma,raw", columns, "%.17g,%.17g,%.17g,%d", meta)

