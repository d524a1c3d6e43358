"""Statistics of defect creation where one center consumes several ions.

When a color center requires ``k`` successfully implanted atoms, the number
of centers at a site is ``N = floor(m / k)`` with ``m`` the number of
successful implantations. For Poisson-distributed ``m`` this block-sums the
Poisson law and the resulting center-number distribution is sub-Poissonian
for k >= 2.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError

_LOG_SPACE_THRESHOLD = 20  # direct factorial evaluation is fine below this
_PMF_TAIL = 1e-12  # largest tail mass composite_moments may truncate


@dataclass
class CreationModel:
    """Per-ion success probability and ions consumed per center."""

    p_success: float
    atoms_per_center: int = 1

    def __post_init__(self):
        if not 0.0 <= self.p_success <= 1.0:
            raise DomainError(f"p_success must be in [0, 1], got {self.p_success}")
        if int(self.atoms_per_center) != self.atoms_per_center or self.atoms_per_center < 1:
            raise DomainError(
                f"atoms_per_center must be a positive integer, got {self.atoms_per_center}"
            )
        self.atoms_per_center = int(self.atoms_per_center)


@dataclass
class DefectDistribution:
    """Empirical occurrence histogram of center numbers.

    ``counts[N]`` is the number of observed sites with N centers and
    ``sample_count`` their sum; ``lo68``/``hi68`` bound each empirical
    probability with a Wilson score interval at 68% confidence.
    """

    counts: np.ndarray
    sample_count: int = field(init=False)
    probabilities: np.ndarray = field(init=False)
    lo68: np.ndarray = field(init=False)
    hi68: np.ndarray = field(init=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if np.any(self.counts < 0):
            raise DomainError("counts must be nonnegative")
        total = self.sample_count = int(self.counts.sum())
        if total == 0:
            raise DomainError("distribution needs at least one sample")
        self.probabilities = self.counts / total
        self.lo68, self.hi68 = wilson_interval(self.counts, total, confidence=0.68)


class MuFitResult(NamedTuple):
    mu: float
    log_likelihood: float
    degenerate: bool = False


def poisson_pmf(mu: float, m: int) -> float:
    """P(m) = mu^m e^-mu / m!, evaluated in log space for large m."""
    if mu < 0:
        raise DomainError(f"mu must be nonnegative, got {mu}")
    if m < 0 or int(m) != m:
        raise DomainError(f"m must be a nonnegative integer, got {m}")
    m = int(m)
    if mu == 0.0:
        return 1.0 if m == 0 else 0.0
    if m <= _LOG_SPACE_THRESHOLD:
        return mu**m * math.exp(-mu) / math.factorial(m)
    return math.exp(m * math.log(mu) - mu - math.lgamma(m + 1))


def composite_defect_pmf(mu: float, k: int, n_centers: int) -> float:
    """Probability of exactly ``n_centers`` centers when each needs k atoms.

    Block sum of the Poisson law: P(N) = sum_{m = N k}^{N k + k - 1} P(m).
    Reduces to the plain Poisson pmf for k = 1.
    """
    if k < 1 or int(k) != k:
        raise DomainError(f"k must be a positive integer, got {k}")
    if n_centers < 0 or int(n_centers) != n_centers:
        raise DomainError(f"n_centers must be a nonnegative integer, got {n_centers}")
    k, n_centers = int(k), int(n_centers)
    start = n_centers * k
    # every term from max(e^2 mu, 746) on is below e^-746, so exactly 0.0
    stop = min(start + k, max(start + 1, math.ceil(math.e**2 * mu), 746))
    return sum(poisson_pmf(mu, m) for m in range(start, stop))


def composite_pmf_array(mu: float, k: int, n_max: int) -> np.ndarray:
    """Vector of composite_defect_pmf values for N = 0 .. n_max."""
    return np.array([composite_defect_pmf(mu, k, n) for n in range(n_max + 1)])


def composite_moments(mu: float, k: int) -> tuple[float, float]:
    """Mean and variance of the center-number distribution.

    The support is truncated once the remaining tail mass drops below
    ``_PMF_TAIL`` (1e-12); for any practical mu this takes a few dozen terms.
    """
    n_max = int(math.ceil((mu + 12.0 * math.sqrt(mu + 1.0)) / k)) + 5
    pmf = composite_pmf_array(mu, k, n_max)
    if 1.0 - pmf.sum() > _PMF_TAIL:
        raise DomainError("pmf support truncated too early")
    n = np.arange(n_max + 1)
    mean = float(np.sum(n * pmf))
    var = float(np.sum((n - mean) ** 2 * pmf))
    return mean, var


def sample_defect_count(n_ions: int | np.ndarray, model: CreationModel, seed):
    """Draw center numbers: m ~ Binomial(n_ions, p_success), N = m // k.

    ``seed`` may be an int, a SeedSequence, or an existing Generator. An
    array-valued ``n_ions`` returns an int64 array of the same shape, a
    scalar one a single int.
    """
    n_arr = np.asarray(n_ions)
    if np.any(n_arr < 0):
        raise DomainError("n_ions must be nonnegative")
    rng = np.random.default_rng(seed)
    m = rng.binomial(n_arr, model.p_success)
    counts = m // model.atoms_per_center
    if n_arr.ndim == 0:
        return int(counts)
    return counts.astype(np.int64)


def wilson_interval(
    counts: np.ndarray, total: int, confidence: float = 0.68
) -> tuple[np.ndarray, np.ndarray]:
    """Wilson score interval for binomial proportions count/total."""
    if total <= 0:
        raise DomainError("total must be positive")
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"confidence must be in (0, 1), got {confidence}")
    z = statistics.NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p_hat = np.asarray(counts, dtype=float) / total
    denom = 1.0 + z * z / total
    center = (p_hat + z * z / (2.0 * total)) / denom
    half = z * np.sqrt(p_hat * (1.0 - p_hat) / total + z * z / (4.0 * total * total)) / denom
    return np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0)


def occurrence_histogram(samples: np.ndarray) -> DefectDistribution:
    """Empirical center-number distribution with 68% Wilson intervals."""
    samples = np.asarray(samples, dtype=np.int64)
    if samples.size == 0:
        raise DomainError("need at least one sample")
    if np.any(samples < 0):
        raise DomainError("center numbers must be nonnegative")
    counts = np.bincount(samples)
    return DefectDistribution(counts)


def fit_mu(observed: DefectDistribution, k: int) -> MuFitResult:
    """Maximum-likelihood mean success number from an occurrence histogram.

    Maximizes sum_N count_N log P(N | mu, k) by golden-section search on
    mu in [1e-6, 100] to an absolute tolerance of 1e-4. A histogram with
    all mass at N = 0 pins mu at zero and is flagged degenerate.
    """
    counts = observed.counts
    if counts.sum() == 0:
        raise DomainError("empty histogram")
    if np.all(counts[1:] == 0):
        return MuFitResult(mu=0.0, log_likelihood=0.0, degenerate=True)

    occupied = np.flatnonzero(counts)

    def neg_log_like(mu: float) -> float:
        ll = 0.0
        for n in occupied:
            p = composite_defect_pmf(mu, k, int(n))
            ll += counts[n] * math.log(max(p, 1e-300))
        return -ll

    mu = _golden_section(neg_log_like, 1e-6, 100.0, tol=1e-4)
    return MuFitResult(mu=mu, log_likelihood=-neg_log_like(mu), degenerate=False)


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Minimize a unimodal function on [lo, hi] to absolute tolerance tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
