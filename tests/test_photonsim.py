import math
import types

import numpy as np
import pytest
from scipy.linalg import expm, null_space
from test_correlator import three_level_g2_theory

from emitterforge.cli import _simulate_site
from emitterforge.correlator import _bin_subsamples, correlate, g2_model, rho_from_rates
from emitterforge.defectstats import CreationModel
from emitterforge.errors import DomainError
from emitterforge.photonsim import (
    BackgroundModel,
    DetectorModel,
    EmitterModel,
    read_decay_csv,
    run_detection,
    simulate_background_tags,
    simulate_emitter_tags,
    simulate_pulsed_decay,
    steady_state_rate,
    write_decay_csv,
)
from emitterforge.timetags import merge_streams

TWO_LEVEL = dict(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)
THREE_LEVEL = dict(
    lifetime=50e-9, sat_power=150e-6, sat_rate=2e6,
    shelving_rate=2e6, deshelving_rate=1e6,
)


def three_level_occupation(model: EmitterModel, power: float) -> float:
    """Steady-state excited population from the rate-equation matrix."""
    pump = (power / model.sat_power) / model.lifetime
    emit = 1.0 / model.lifetime
    m = np.array(
        [
            [-pump, emit, model.deshelving_rate],
            [pump, -(emit + model.shelving_rate), 0.0],
            [0.0, model.shelving_rate, -model.deshelving_rate],
        ]
    )
    occ = null_space(m)[:, 0]
    occ = occ / occ.sum()
    return float(occ[1])


def test_emitter_model_validation():
    with pytest.raises(DomainError):
        EmitterModel(lifetime=0.0, sat_power=1e-4, sat_rate=1e6)
    with pytest.raises(DomainError):
        # more than one detected photon per lifetime is unphysical
        EmitterModel(lifetime=1e-6, sat_power=1e-4, sat_rate=2e6)
    with pytest.raises(DomainError):
        EmitterModel(lifetime=50e-9, sat_power=1e-4, sat_rate=1e6,
                     shelving_rate=1e6, deshelving_rate=0.0)
    m = EmitterModel(**TWO_LEVEL)
    assert m.collection_efficiency == pytest.approx(0.1)


def test_steady_state_rate_formula():
    m = EmitterModel(**TWO_LEVEL)
    assert steady_state_rate(m, 0.0) == 0.0
    assert steady_state_rate(m, 150e-6) == pytest.approx(1e6)  # P = P0: half
    assert steady_state_rate(m, 1.0) == pytest.approx(2e6, rel=2e-4)  # P >> P0


def test_zero_emitters_empty_stream():
    s = simulate_emitter_tags([], power=1e-4, duration=1.0, seed=0)
    assert s.n_tags == 0


def test_emitter_tags_accept_a_generator_seed():
    # like every other sampler: a fresh Generator spawns the same children
    # as the int it was made from
    models = [EmitterModel(**TWO_LEVEL), EmitterModel(**THREE_LEVEL), EmitterModel(**TWO_LEVEL)]
    by_int = simulate_emitter_tags(models, 50e-6, 0.01, 9)
    by_rng = simulate_emitter_tags(models, 50e-6, 0.01, np.random.default_rng(9))
    assert by_int.n_tags > 1000
    assert np.array_equal(by_rng.timestamps, by_int.timestamps)


def test_two_level_rate_matches_steady_state():
    m = EmitterModel(**TWO_LEVEL)
    power = 50e-6
    duration = 20.0
    s = simulate_emitter_tags(m, power, duration, seed=12)
    expected = steady_state_rate(m, power)
    assert s.n_tags / s.duration == pytest.approx(expected, rel=0.03)


def test_three_level_rate_matches_rate_equations():
    # shelving diverts population; the observed rate must follow the
    # occupation from the full rate-equation matrix, not the 2-level value
    m = EmitterModel(**THREE_LEVEL)
    power = 45e-6  # 0.3 P0
    occ = three_level_occupation(m, power)
    expected = occ / m.lifetime * m.collection_efficiency
    s = simulate_emitter_tags(m, power, duration=20.0, seed=13)
    assert expected == pytest.approx(3e5, rel=1e-12)  # frozen for these params
    assert s.n_tags / s.duration == pytest.approx(expected, rel=0.03)
    # and it is well below the 2-level prediction
    assert expected < 0.8 * steady_state_rate(m, power)


def test_excited_state_occupation_matches_expm_oracle():
    # matrix-exponential cross-check of the rate-equation matrix used above
    m = EmitterModel(**THREE_LEVEL)
    pump = (45e-6 / m.sat_power) / m.lifetime
    emit = 1.0 / m.lifetime
    mat = np.array(
        [
            [-pump, emit, m.deshelving_rate],
            [pump, -(emit + m.shelving_rate), 0.0],
            [0.0, m.shelving_rate, -m.deshelving_rate],
        ]
    )
    p_long = expm(mat * 1e-3) @ np.array([1.0, 0.0, 0.0])
    assert p_long[1] == pytest.approx(three_level_occupation(m, 45e-6), rel=1e-9)


def test_background_zero_rate_empty():
    assert simulate_background_tags(0.0, 10.0, seed=1).n_tags == 0


def test_background_poisson_count():
    s = simulate_background_tags(1e4, 10.0, seed=22)
    expected = 1e5
    assert abs(s.n_tags - expected) < 3.0 * math.sqrt(expected)
    # inter-arrival times must be exponential: mean = 1/rate
    dt = np.diff(s.timestamps * s.resolution)
    assert dt.mean() == pytest.approx(1e-4, rel=0.02)


def test_detection_split_ratio_one_sends_all_to_a():
    stream = simulate_background_tags(1e4, 5.0, seed=3)
    det = DetectorModel(efficiency=1.0)
    dark = DetectorModel(efficiency=1.0, dark_rate=100.0)
    a, b = run_detection(stream, 1.0, det, dark, seed=4)
    assert a.n_tags == stream.n_tags
    # channel B sees only its dark counts
    assert abs(b.n_tags - 500) < 3.0 * math.sqrt(500)


def test_detection_efficiency_thins():
    stream = simulate_background_tags(2e4, 10.0, seed=5)
    det = DetectorModel(efficiency=0.25)
    a, b = run_detection(stream, 0.5, det, det, seed=6)
    expected = stream.n_tags * 0.5 * 0.25
    assert abs(a.n_tags - expected) < 4.0 * math.sqrt(expected)
    assert abs(b.n_tags - expected) < 4.0 * math.sqrt(expected)


def test_dead_time_rate_formula():
    # non-paralyzable detector: out = r / (1 + r tau_d)
    r, tau_d = 1e7, 100e-9
    stream = simulate_background_tags(r, 2.0, seed=7)
    det = DetectorModel(efficiency=1.0, dead_time=tau_d)
    a, _ = run_detection(stream, 1.0, det, DetectorModel(), seed=8)
    expected = r / (1.0 + r * tau_d)
    assert a.n_tags / a.duration == pytest.approx(expected, rel=0.02)
    # dead time enforced tag by tag
    gaps = np.diff(a.timestamps * a.resolution)
    assert gaps.min() >= tau_d - a.resolution


def test_jitter_preserves_order_and_count():
    stream = simulate_background_tags(1e5, 1.0, seed=9)
    det = DetectorModel(efficiency=1.0, jitter_sigma=300e-12)
    a, _ = run_detection(stream, 1.0, det, DetectorModel(), seed=10)
    assert a.n_tags == stream.n_tags
    assert np.all(np.diff(a.timestamps) >= 0)
    # timestamps actually moved
    assert np.any(a.timestamps != stream.timestamps)


def test_pulsed_decay_zero_pulses_empty():
    m = EmitterModel(**TWO_LEVEL)
    bg = BackgroundModel(rate=100.0)
    h = simulate_pulsed_decay(m, bg, 0.0, 1e-6, 10e-9, 0, seed=1)
    assert h.counts.sum() == 0


def test_pulsed_decay_recovers_lifetime():
    from emitterforge.analysis import fit_decay

    m = EmitterModel(**TWO_LEVEL)
    bg = BackgroundModel(rate=100.0)
    h = simulate_pulsed_decay(
        m, bg, bg_fraction=0.0, pulse_period=1e-6, pulse_width=5e-9,
        n_pulses=400_000, seed=2,
    )
    fit = fit_decay(h)
    assert "no_fit" not in fit.flags
    assert "single_exponential" in fit.flags
    assert fit.tau_fast == pytest.approx(50e-9, rel=0.05)


def test_pulsed_decay_two_component_mixture():
    from emitterforge.analysis import fit_decay

    fast = EmitterModel(lifetime=10e-9, sat_power=150e-6, sat_rate=2e6)
    bg = BackgroundModel(rate=100.0, decay_time=70e-9)
    h = simulate_pulsed_decay(
        fast, bg, bg_fraction=0.5, pulse_period=2e-6, pulse_width=2e-9,
        n_pulses=2_000_000, seed=3,
    )
    fit = fit_decay(h)
    assert fit.converged
    assert "single_exponential" not in fit.flags
    assert fit.tau_fast == pytest.approx(10e-9, rel=0.10)
    assert fit.tau_slow == pytest.approx(70e-9, rel=0.10)


def test_decay_csv_round_trip(tmp_path):
    m = EmitterModel(**TWO_LEVEL)
    bg = BackgroundModel(rate=100.0)
    h = simulate_pulsed_decay(m, bg, 0.1, 1e-6, 10e-9, 50_000, seed=4)
    p = tmp_path / "decay.csv"
    write_decay_csv(h, p)
    back = read_decay_csv(p)
    assert np.array_equal(back.counts, h.counts)
    assert back.bin_centers == pytest.approx(h.bin_centers)
    assert back.bin_width == pytest.approx(h.bin_width)
    assert back.n_pulses == h.n_pulses


# ------------------------------------------- efficiency folded into sources
#
# ``simulate`` draws only detected photons: it scales the emitter's
# saturated rate and the background rate by the detector efficiency and
# runs the detectors with efficiency 1. The tests below run that chain and
# the photon-by-photon chain (every photon drawn, then thinned by the
# detectors) on one shelving emitter with background, jitter, dead time
# and dark counts, and check that the two agree in law. The emitter's
# collection efficiency is high (0.8), so the two chains' detection
# probabilities per cycle differ widely and a wrong shelving conditional
# in the thinned process would show.

FOLD_EMITTER = EmitterModel(
    lifetime=50e-9, sat_power=150e-6, sat_rate=1.6e7,
    shelving_rate=2e6, deshelving_rate=1e6,
)
FOLD_DETECTOR = DetectorModel(
    efficiency=0.6, jitter_sigma=50e-12, dead_time=20e-9, dark_rate=200.0
)
FOLD_BACKGROUND = BackgroundModel(rate=2e5)
FOLD_POWER_REL = 0.3
FOLD_POWER = FOLD_POWER_REL * FOLD_EMITTER.sat_power
FOLD_DURATION = 0.04
FOLD_SEEDS = range(8)


def _folded_arms(seed):
    """Both arms of one site through ``simulate``'s own chain. A dose of
    1000 ions at 600 ions per centre makes one centre at any plausible
    Poisson ion count."""
    site = types.SimpleNamespace(expected_ions=1000.0)
    creation = CreationModel(p_success=1.0, atoms_per_center=600)
    _, n_centers, arm_a, arm_b = _simulate_site(
        site, 0, seed, creation, FOLD_EMITTER, FOLD_BACKGROUND,
        FOLD_DETECTOR, 0.5, FOLD_DURATION, FOLD_POWER, 1e-12,
    )
    assert n_centers == 1
    return arm_a, arm_b


def _unfolded_arms(seed):
    """The same site with every photon drawn and thinned by the detectors."""
    k_emit, k_bg, k_det = np.random.SeedSequence([seed, 1]).spawn(3)
    stream = merge_streams(
        simulate_emitter_tags(FOLD_EMITTER, FOLD_POWER, FOLD_DURATION, k_emit),
        simulate_background_tags(FOLD_BACKGROUND.rate, FOLD_DURATION, k_bg),
    )
    return run_detection(stream, 0.5, FOLD_DETECTOR, FOLD_DETECTOR, k_det)


@pytest.fixture(scope="module")
def fold_runs():
    return {
        "folded": [_folded_arms(seed) for seed in FOLD_SEEDS],
        "unfolded": [_unfolded_arms(seed) for seed in FOLD_SEEDS],
    }


def test_fold_keeps_arm_rates(fold_runs):
    for arm in (0, 1):
        folded = np.array([arms[arm].n_tags for arms in fold_runs["folded"]])
        unfolded = np.array([arms[arm].n_tags for arms in fold_runs["unfolded"]])
        # the seed-to-seed spread, since shelving bunches the counts
        sigma = math.sqrt(len(FOLD_SEEDS) * (folded.var(ddof=1) + unfolded.var(ddof=1)))
        assert abs(int(folded.sum()) - int(unfolded.sum())) < 4.0 * sigma


def _g2_reduced_chi2(runs):
    """Pearson chi2 per bin of the summed cross-correlation against the
    bin-averaged three-level g2, diluted by the arms' uncorrelated light."""
    hists = [correlate(a, b, bin_width=10e-9, window=2e-6) for a, b in runs]
    raw = sum(h.raw for h in hists)
    normalizer = sum(h.normalizer for h in hists)
    tau1, tau2, a = three_level_g2_theory(
        FOLD_EMITTER.lifetime, FOLD_EMITTER.shelving_rate, FOLD_EMITTER.deshelving_rate,
        FOLD_POWER_REL,
    )
    g2 = g2_model(_bin_subsamples(hists[0]), 1.0, a, tau1, tau2).mean(axis=1)
    eta = FOLD_DETECTOR.efficiency
    uncorrelated = 0.5 * eta * FOLD_BACKGROUND.rate + FOLD_DETECTOR.dark_rate
    total = len(runs) * FOLD_DURATION
    rho_a, rho_b = (
        rho_from_rates(sum(arms[arm].n_tags for arms in runs) / total, uncorrelated)
        for arm in (0, 1)
    )
    expected = normalizer * (1.0 + rho_a * rho_b * (g2 - 1.0))
    return float(np.sum((raw - expected) ** 2 / expected)) / raw.size, raw.size


@pytest.mark.parametrize("chain", ["folded", "unfolded"])
def test_fold_keeps_three_level_g2(fold_runs, chain):
    chi2, n_bins = _g2_reduced_chi2(fold_runs[chain])
    assert abs(chi2 - 1.0) < 4.0 * math.sqrt(2.0 / n_bins)
