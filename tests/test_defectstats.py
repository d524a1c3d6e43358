import math

import numpy as np
import pytest

from emitterforge.defectstats import (
    CreationModel,
    DefectDistribution,
    composite_defect_pmf,
    composite_moments,
    composite_pmf_array,
    fit_mu,
    occurrence_histogram,
    poisson_pmf,
    sample_defect_count,
    wilson_interval,
)
from emitterforge.errors import DomainError

# Brute-force oracle values, frozen from direct Poisson summation
# P(N) = sum_{m=kN}^{kN+k-1} e^-mu mu^m / m!
PMF_MU4_K3 = {
    0: 0.2381033055535443,
    1: 0.5470270814768607,
    2: 0.1935061784816106,
    3: 0.0204482053407141,
    4: 0.0008952974197874,
}
PMF_MU48_K3_N1 = 0.5084672183804646


def brute_force_pmf(mu, k, n):
    return sum(
        math.exp(-mu) * mu**m / math.factorial(m) for m in range(k * n, k * n + k)
    )


def test_poisson_pmf_basics():
    assert poisson_pmf(0.0, 0) == 1.0
    assert poisson_pmf(1.0, 0) == pytest.approx(0.36787944117144233, rel=1e-14)
    assert poisson_pmf(1.0, 1) == pytest.approx(0.36787944117144233, rel=1e-14)
    assert poisson_pmf(4.0, 4) == pytest.approx(0.1953668148131646, rel=1e-12)


def test_poisson_pmf_large_m_stable():
    # naive mu^m / m! overflows long before this
    assert poisson_pmf(300.0, 300) == pytest.approx(
        math.exp(300 * math.log(300) - 300 - math.lgamma(301)), rel=1e-10
    )


def test_composite_pmf_frozen_oracle():
    for n, expected in PMF_MU4_K3.items():
        assert composite_defect_pmf(4.0, 3, n) == pytest.approx(expected, rel=1e-12)


def test_composite_pmf_matches_brute_force_summation():
    for mu in (0.5, 2.0, 4.0, 4.8, 9.0):
        for k in (1, 2, 3, 5):
            for n in range(7):
                assert composite_defect_pmf(mu, k, n) == pytest.approx(
                    brute_force_pmf(mu, k, n), rel=1e-12
                )


def test_composite_pmf_large_k_skips_only_underflowed_terms():
    # past max(e^2 mu, 746) every Poisson term is exactly 0.0, so the block
    # sum stops there with the same float; a k of 10**9 then costs what 746 do
    for mu in (0.0, 4.8, 99.9, 300.0):
        for k in (700, 3000):
            for n in range(3):
                full = sum(poisson_pmf(mu, m) for m in range(n * k, n * k + k))
                assert composite_defect_pmf(mu, k, n) == full
    assert composite_defect_pmf(4.8, 10**9, 0) == composite_defect_pmf(4.8, 3000, 0)
    assert composite_defect_pmf(4.8, 10**9, 1) == 0.0


def test_composite_pmf_mu48():
    assert composite_defect_pmf(4.8, 3, 1) == pytest.approx(PMF_MU48_K3_N1, rel=1e-12)


def test_composite_pmf_k1_reduces_to_poisson():
    for n in range(6):
        assert composite_defect_pmf(2.5, 1, n) == pytest.approx(
            poisson_pmf(2.5, n), rel=1e-13
        )


def test_composite_pmf_normalized():
    total = composite_pmf_array(4.0, 3, 60).sum()
    assert total == pytest.approx(1.0, abs=1e-12)


def test_composite_moments_sub_poisson():
    # consuming k successes per center narrows the distribution: the
    # Fano factor var/mean must drop below 1
    mean, var = composite_moments(4.0, 3)
    assert var / mean < 1.0
    # k = 1 is plain Poisson: Fano factor 1
    mean1, var1 = composite_moments(4.0, 1)
    assert var1 / mean1 == pytest.approx(1.0, abs=1e-9)


def test_sample_defect_count_zero_ions():
    model = CreationModel(p_success=0.16, atoms_per_center=3)
    assert sample_defect_count(0, model, seed=1) == 0
    out = sample_defect_count(np.zeros(100, int), model, seed=1)
    assert np.all(out == 0)


def test_sample_defect_count_matches_pmf():
    # doses are Poisson around the mean as in the delivery model; thinned
    # Poisson ions give exactly Poisson(25 * 0.16 = 4) successes, so the
    # sampled histogram must land on the composite pmf
    model = CreationModel(p_success=0.16, atoms_per_center=3)
    rng = np.random.default_rng(42)
    n_ions = rng.poisson(25.0, size=200_000)
    samples = sample_defect_count(n_ions, model, rng)
    pmf = np.bincount(samples) / samples.size
    for n in range(3):
        assert abs(pmf[n] - PMF_MU4_K3[n]) < 0.01


def test_sample_defect_count_fixed_dose_is_binomial_not_poisson():
    # at a sharp n_ions = 25 the success law is Binomial(25, 0.16), which
    # is visibly narrower than Poisson(4): P(N=1) comes out ~0.04 higher
    from scipy.stats import binom

    model = CreationModel(p_success=0.16, atoms_per_center=3)
    rng = np.random.default_rng(42)
    samples = sample_defect_count(np.full(200_000, 25), model, rng)
    pmf = np.bincount(samples) / samples.size
    exact_p1 = sum(binom.pmf(m, 25, 0.16) for m in range(3, 6))
    assert pmf[1] == pytest.approx(exact_p1, abs=0.005)
    assert pmf[1] - PMF_MU4_K3[1] > 0.02


def test_creation_model_validation():
    with pytest.raises(DomainError):
        CreationModel(p_success=1.5)
    with pytest.raises(DomainError):
        CreationModel(p_success=0.5, atoms_per_center=0)


def test_wilson_interval_frozen():
    lo, hi = wilson_interval(np.array([8]), 16, confidence=0.68)
    assert lo[0] == pytest.approx(0.37936504263937765, rel=1e-12)
    assert hi[0] == pytest.approx(0.62063495736062235, rel=1e-12)


def test_wilson_interval_edge_cases():
    lo, hi = wilson_interval(np.array([0, 10]), 10)
    assert lo[0] == 0.0 and hi[1] == 1.0
    assert hi[0] > 0.0  # zero successes still have upside uncertainty
    assert lo[1] < 1.0


@pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_wilson_interval_confidence_outside_unit_interval(confidence):
    with pytest.raises(DomainError, match="confidence"):
        wilson_interval(np.array([8]), 16, confidence=confidence)


def test_occurrence_histogram_all_ones():
    dist = occurrence_histogram(np.array([1, 1, 1, 1]))
    assert dist.probabilities.tolist() == [0.0, 1.0]
    assert dist.sample_count == 4


def test_occurrence_histogram_intervals_bracket():
    rng = np.random.default_rng(3)
    samples = rng.poisson(1.3, size=500)
    dist = occurrence_histogram(samples)
    assert np.all(dist.lo68 <= dist.probabilities)
    assert np.all(dist.probabilities <= dist.hi68)
    assert dist.probabilities.sum() == pytest.approx(1.0)


def test_distribution_rejects_empty():
    with pytest.raises(DomainError):
        occurrence_histogram(np.array([], dtype=int))
    with pytest.raises(DomainError):
        DefectDistribution(np.array([0, 0]))


def test_fit_mu_round_trip_large_counts():
    # analytic histogram at mu = 4, k = 3 with large effective counts
    pmf = composite_pmf_array(4.0, 3, 10)
    counts = np.round(pmf * 10_000_000).astype(np.int64)
    dist = DefectDistribution(counts)
    assert dist.sample_count == counts.sum()
    fit = fit_mu(dist, k=3)
    assert not fit.degenerate
    assert fit.mu == pytest.approx(4.0, abs=0.05)


def test_fit_mu_round_trip_mu48():
    pmf = composite_pmf_array(4.8, 3, 12)
    counts = np.round(pmf * 10_000_000).astype(np.int64)
    dist = DefectDistribution(counts)
    assert dist.sample_count == counts.sum()
    fit = fit_mu(dist, k=3)
    assert fit.mu == pytest.approx(4.8, abs=0.1)


def test_fit_mu_degenerate_all_zero():
    dist = occurrence_histogram(np.zeros(50, dtype=int))
    fit = fit_mu(dist, k=3)
    assert fit.degenerate
    assert fit.mu == 0.0
