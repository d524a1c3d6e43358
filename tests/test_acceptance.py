"""Release acceptance suite.

One test per shipped guarantee, each asserting its stated tolerance and
runtime budget. Run ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per criterion; each test also prints the measured numbers
for the record.
"""

import math
import time

import numpy as np
import pytest

from emitterforge import correlator
from emitterforge.analysis import (
    SpotMeasurement,
    calibrate_single_rate,
    count_emitters,
    fit_decay,
    fit_saturation,
    saturation_model,
)
from emitterforge.cli import main
from emitterforge.correlator import (
    background_correct,
    correlate,
    fit_g2,
    rho_from_rates,
)
from emitterforge.defectstats import (
    CreationModel,
    composite_defect_pmf,
    poisson_pmf,
    sample_defect_count,
)
from emitterforge.implantation import sample_ion_counts
from emitterforge.photonsim import (
    BackgroundModel,
    DetectorModel,
    EmitterModel,
    run_detection,
    simulate_background_tags,
    simulate_emitter_tags,
    simulate_pulsed_decay,
)
from emitterforge.timetags import merge_streams, read_timetags, write_timetags


def _brute_force_pmf(mu: float, k: int, n: int, m_max: int = 400) -> float:
    """Independent oracle: sum Poisson(mu) weight over m with m // k == n."""
    return sum(
        math.exp(-mu) * mu**m / math.factorial(m)
        for m in range(n * k, (n + 1) * k)
        if m <= m_max
    )


# Headline creation-statistics table for mu = 4, k = 3, in per mille as
# printed (0.238, 0.547, 0.195, 0.020). Rows N = 0, 1, 3 are the exact
# probabilities rounded to three decimals. Row N = 2 is the remainder that
# makes the printed rows sum to 1, so it also carries the P(N >= 4) tail;
# the exact P(N = 2) is 0.193506.
CREATION_TABLE_PER_MILLE = {0: 238, 1: 547, 2: 195, 3: 20}
REMAINDER_ROW = 2


def test_criterion_01_sub_poisson_distribution():
    start = time.monotonic()
    exact = {}
    for n in CREATION_TABLE_PER_MILLE:
        exact[n] = composite_defect_pmf(4.0, 3, n)
        assert exact[n] == pytest.approx(_brute_force_pmf(4.0, 3, n), abs=1e-12)
    # integer per mille: exact comparisons, no float tolerance
    model = {n: round(1000 * p) for n, p in exact.items() if n != REMAINDER_ROW}
    model[REMAINDER_ROW] = 1000 - sum(model.values())
    tail = 1.0 - sum(exact.values())
    bad = []
    for n, printed in CREATION_TABLE_PER_MILLE.items():
        rule = "remainder" if n == REMAINDER_ROW else "rounded"
        line = (f"P(N={n}) = {exact[n]:.6f}  {rule} {model[n]}/1000  "
                f"table {printed}/1000")
        if n == REMAINDER_ROW:
            line += f"  (P(N={n}) + P(N>=4) = {exact[n] + tail:.6f})"
        print(f"criterion 1: {line}")
        if model[n] != printed:
            bad.append(line)
    assert time.monotonic() - start < 1.0
    assert not bad, "table row mismatch: " + "; ".join(bad)


def test_criterion_02_poisson_maximum():
    p0 = poisson_pmf(1.0, 0)
    p1 = poisson_pmf(1.0, 1)
    print(f"criterion 2: P(0|mu=1) = {p0:.6f}, P(1|mu=1) = {p1:.6f}")
    assert p0 == pytest.approx(p1, abs=1e-15)
    assert p0 == pytest.approx(0.3679, abs=1e-4)
    assert p1 == pytest.approx(0.3679, abs=1e-4)


def test_criterion_03_monte_carlo_consistency():
    start = time.monotonic()
    doses = sample_ion_counts(np.full(1_000_000, 25.0), seed=603)
    counts = sample_defect_count(
        doses, CreationModel(p_success=0.16, atoms_per_center=3), seed=604
    )
    empirical = np.bincount(counts, minlength=5) / counts.size
    # criterion 1's printed table; its N = 2 row is the remainder row
    target = np.array([0.238, 0.547, 0.195, 0.020])
    tv = 0.5 * (np.abs(empirical[:4] - target).sum() + empirical[4:].sum())
    elapsed = time.monotonic() - start
    print(f"criterion 3: empirical P(0..3) = {np.round(empirical[:4], 4)}, "
          f"TV distance = {tv:.4f}, {elapsed:.1f} s")
    assert tv < 0.02
    assert elapsed < 30.0


def test_criterion_04_antibunching_levels():
    start = time.monotonic()
    det = DetectorModel(efficiency=1.0)
    for n, seed in [(1, 401), (2, 402), (3, 403)]:
        # slow emitters keep the dip wide; sat_rate chosen so the merged
        # stream detects ~1e4 cps at P = P0/10
        emitter = EmitterModel(lifetime=2e-6, sat_power=100e-6, sat_rate=11e4 / n)
        stream = simulate_emitter_tags([emitter] * n, 10e-6, 60.0, seed=seed)
        a, b = run_detection(stream, 0.5, det, det, seed=seed + 1000)
        fit = fit_g2(correlate(a, b, bin_width=100e-9, window=12e-6))
        level = (n - 1) / n
        print(f"criterion 4: N={n} fitted g2(0) = {fit.g2_zero:.4f} "
              f"(analytic {level:.4f}), rate = {stream.n_tags / 60.0:.0f} cps")
        assert fit.converged and not fit.no_dip
        assert fit.g2_zero == pytest.approx(level, abs=0.05)
    elapsed = time.monotonic() - start
    print(f"criterion 4: {elapsed:.1f} s")
    assert elapsed < 120.0


def test_criterion_05_background_correction():
    start = time.monotonic()
    emitter = EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=1.6e5)
    signal = simulate_emitter_tags(emitter, 50e-6, 50.0, seed=501)  # ~4e4 cps
    bg = simulate_background_tags(1e4, 50.0, seed=502)
    det = DetectorModel(efficiency=1.0)
    a, b = run_detection(merge_streams(signal, bg), 0.5, det, det, seed=503)
    rho = rho_from_rates((signal.n_tags + bg.n_tags) / 50.0, bg.n_tags / 50.0)
    hist = correlate(a, b, bin_width=4e-9, window=600e-9)
    raw = fit_g2(hist)
    corrected = fit_g2(background_correct(hist, rho))
    elapsed = time.monotonic() - start
    print(f"criterion 5: rho = {rho:.4f}, raw g2(0) = {raw.g2_zero:.4f}, "
          f"corrected g2(0) = {corrected.g2_zero:.4f}, {elapsed:.1f} s")
    assert raw.converged and corrected.converged
    assert raw.g2_zero == pytest.approx(0.36, abs=0.05)
    assert corrected.g2_zero == pytest.approx(0.0, abs=0.06)
    assert elapsed < 60.0


def test_criterion_06_poisson_normalization():
    start = time.monotonic()
    a = simulate_background_tags(1e4, 100.0, seed=601)
    b = simulate_background_tags(1e4, 100.0, seed=602)
    b = type(b)(b.resolution, np.ones(b.n_tags, np.uint8), b.timestamps, b.duration)
    hist = correlate(a, b, bin_width=500e-9, window=20e-6)
    worst = float(np.abs(hist.g2 - 1.0).max())
    mean = float(hist.g2.mean())
    elapsed = time.monotonic() - start
    print(f"criterion 6: {hist.g2.size} bins, max |g2 - 1| = {worst:.4f}, "
          f"mean = {mean:.5f}, {elapsed:.1f} s")
    assert worst < 0.06
    assert mean == pytest.approx(1.0, abs=0.005)
    assert elapsed < 30.0


def test_criterion_07_saturation_round_trips():
    for sat_rate, sat_power in [(13000.0, 110e-6), (3600.0, 810e-6)]:
        p = np.linspace(sat_power / 20, 8 * sat_power, 16)
        fit = fit_saturation(p, saturation_model(p, sat_rate, sat_power, 0.0),
                             sigma=np.ones(p.size))
        print(f"criterion 7: noiseless ({sat_rate:.0f} cps, {sat_power * 1e6:.0f} uW) "
              f"-> ({fit.sat_rate:.4f}, {fit.sat_power * 1e6:.6f} uW)")
        assert fit.converged
        assert fit.sat_rate == pytest.approx(sat_rate, rel=1e-6)
        assert fit.sat_power == pytest.approx(sat_power, rel=1e-6)

    rng = np.random.default_rng(31)
    p = np.linspace(5e-6, 880e-6, 16)
    clean = saturation_model(p, 13000.0, 110e-6, 0.0)
    noisy = clean * (1.0 + 0.05 * rng.standard_normal(p.size))
    fit = fit_saturation(p, noisy, sigma=0.05 * clean)
    sig = fit.param_sigma()
    pulls = [(fit.sat_rate - 13000.0) / sig[0], (fit.sat_power - 110e-6) / sig[1]]
    print(f"criterion 7: 5% noise pulls = {pulls[0]:+.2f}, {pulls[1]:+.2f} sigma")
    assert fit.converged
    assert abs(pulls[0]) < 3.0 and abs(pulls[1]) < 3.0


def test_criterion_08_decay_round_trip():
    fast = EmitterModel(lifetime=10e-9, sat_power=150e-6, sat_rate=2e6)
    slow_bg = BackgroundModel(rate=100.0, decay_time=70e-9)
    hist = simulate_pulsed_decay(
        fast, slow_bg, bg_fraction=0.5, pulse_period=2e-6, pulse_width=2e-9,
        n_pulses=2_000_000, seed=3,
    )
    fit = fit_decay(hist)
    print(f"criterion 8: tau_fast = {fit.tau_fast * 1e9:.2f} ns (want 10), "
          f"tau_slow = {fit.tau_slow * 1e9:.2f} ns (want 70)")
    assert fit.converged and "single_exponential" not in fit.flags
    assert fit.tau_fast == pytest.approx(10e-9, rel=0.10)
    assert fit.tau_slow == pytest.approx(70e-9, rel=0.10)


def test_criterion_09_calibration_pipeline():
    start = time.monotonic()
    rows, cols, dwell, power = 15, 16, 2.0, 150e-6 / 9
    emitter = EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)
    det = DetectorModel(efficiency=0.5)
    creation = CreationModel(p_success=0.16, atoms_per_center=3)
    bg_rate = 4e3  # at the splitter; 2e3 cps detected

    # dose ladder 0, 3, 6, ... 42 expected ions down the rows; row 0 is
    # left blank to measure the background level
    expected = np.repeat(3.0 * np.arange(rows), cols)
    doses = sample_ion_counts(expected, seed=901)
    truth = sample_defect_count(doses, creation, seed=902)

    intensity = np.empty(truth.size)
    arms = {}
    for i, n in enumerate(truth):
        k_emit, k_bg, k_det = np.random.SeedSequence(entropy=(903, i)).spawn(3)
        stream = simulate_background_tags(bg_rate, dwell, seed=k_bg)
        if n:
            sig = simulate_emitter_tags([emitter] * int(n), power, dwell, seed=k_emit)
            stream = merge_streams(sig, stream)
        a, b = run_detection(stream, 0.5, det, det, seed=np.random.default_rng(k_det))
        intensity[i] = (a.n_tags + b.n_tags) / dwell
        arms[i] = (a, b)

    background = intensity[:cols].mean()
    snr = (intensity - background) / np.sqrt(intensity / dwell)
    keep = np.flatnonzero(snr >= 10.0)

    singles = []
    for i in keep:
        fit = fit_g2(correlate(*arms[i], bin_width=3e-9, window=600e-9))
        if fit.converged and not fit.no_dip and fit.g2_zero + 3 * fit.g2_zero_sigma < 0.5:
            singles.append(SpotMeasurement(f"s{i}", intensity[i], background, 1))
    i_single = calibrate_single_rate(singles, background)

    assigned = np.array(
        [count_emitters(intensity[i], background, i_single) for i in keep]
    )
    correct = float(np.mean(assigned == truth[keep]))
    elapsed = time.monotonic() - start
    print(f"criterion 9: {keep.size} spots at SNR >= 10, {len(singles)} certified "
          f"singles, i_single = {i_single:.0f} cps, correct = {correct:.4f}, "
          f"{elapsed:.0f} s")
    assert keep.size >= 50
    assert len(singles) >= 5
    assert correct >= 0.95
    assert elapsed < 600.0


def test_criterion_10_determinism_and_formats(tmp_path, monkeypatch):
    ini = tmp_path / "grid.ini"
    ini.write_text(
        "[pattern]\nkind = fib_grid\npitch = 10 um\nrows = 1\n\n"
        "[creation]\np_success = 0.16\natoms_per_center = 3\n\n"
        "[emitter]\nlifetime = 50 ns\nsat_power = 150 uW\nsat_rate = 2 Mcps\n\n"
        "[background]\nrate = 200 cps\n\n"
        "[detectors]\nefficiency = 0.2\ndark_rate = 20 cps\n\n"
        "[run]\nseed = 11\nduration = 0.02 s\npower = 50 uW\n"
    )
    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", str(ini), str(run1)]) == 0
    assert main(["simulate", str(ini), str(run2)]) == 0
    names = sorted(p.name for p in run1.iterdir())
    assert names == sorted(p.name for p in run2.iterdir())
    for name in names:
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes()
    print(f"criterion 10: {len(names)} files byte-identical across reruns")

    stream = simulate_background_tags(5e4, 2.0, seed=700)
    path = tmp_path / "tags.ttg"
    write_timetags(stream, path)
    back = read_timetags(path)
    # the format stores resolution, channels and timestamps; duration is
    # recovered from the last tag
    assert back.resolution == stream.resolution
    assert np.array_equal(back.timestamps, stream.timestamps)
    assert np.array_equal(back.channels, stream.channels)
    rewritten = tmp_path / "tags2.ttg"
    write_timetags(back, rewritten)
    assert path.read_bytes() == rewritten.read_bytes()
    print(f"criterion 10: tag file round trip lossless ({back.n_tags} tags)")

    a = simulate_background_tags(2e4, 10.0, seed=701)
    b = simulate_background_tags(2e4, 10.0, seed=702)
    whole = correlate(a, b, bin_width=20e-9, window=2e-6)
    for n_chunks in (2, 7, 64):
        # parts of at most _A_CHUNK starts: A splits into n_chunks parts
        monkeypatch.setattr(correlator, "_A_CHUNK", -(-a.n_tags // n_chunks))
        assert -(-a.n_tags // correlator._A_CHUNK) == n_chunks
        split = correlate(a, b, bin_width=20e-9, window=2e-6)
        assert np.array_equal(split.raw, whole.raw)
        assert split.g2 == pytest.approx(whole.g2, rel=1e-12)
    print("criterion 10: chunked correlation equals monolithic bin-for-bin")
