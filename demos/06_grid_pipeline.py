"""
From implantation grid to emitter census
========================================

The whole chain on a small grid: sample how many centers each spot
received, simulate the photon streams, certify single emitters by
their g2 dip, calibrate the per-emitter brightness, and count
emitters everywhere by intensity.
"""

import numpy as np

from emitterforge.analysis import (
    SpotMeasurement,
    calibrate_single_rate,
    count_emitters,
)
from emitterforge.correlator import correlate, fit_g2
from emitterforge.defectstats import CreationModel, sample_defect_count
from emitterforge.implantation import sample_ion_counts
from emitterforge.photonsim import (
    BackgroundModel,
    DetectorModel,
    EmitterModel,
    simulate_spot,
)

ROWS, COLS = 6, 8
DWELL = 1.0            # seconds per spot
POWER = 150e-6 / 9     # well below saturation keeps the dip wide

emitter = EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)
detector = DetectorModel(efficiency=0.5)
light = BackgroundModel(rate=4e3)  # at the splitter
creation = CreationModel(p_success=0.16, atoms_per_center=3)

# Row r gets an expected dose of 6r ions; row 0 stays blank so the
# grid measures its own background.
expected = np.repeat(6.0 * np.arange(ROWS), COLS)
doses = sample_ion_counts(expected, seed=60)
truth = sample_defect_count(doses, creation, seed=61)
print(f"ground truth centers per spot:\n{truth.reshape(ROWS, COLS)}")

# Collect both detector arms for every spot.
intensity = np.empty(truth.size)
arms = {}
for i, n in enumerate(truth):
    seeds = np.random.SeedSequence(entropy=(62, i)).spawn(3)
    a, b = simulate_spot(n, emitter, light, detector, 0.5, POWER, DWELL, seeds)
    intensity[i] = (a.n_tags + b.n_tags) / DWELL
    arms[i] = (a, b)

background = intensity[:COLS].mean()
snr = (intensity - background) / np.sqrt(intensity / DWELL)
bright = np.flatnonzero(snr >= 10.0)
print(f"\nbackground {background:.0f} cps; {bright.size} bright spots")

# g2 on every bright spot; a dip below 0.5 with margin certifies a
# single emitter, and those spots calibrate the single-emitter rate.
singles = []
for i in bright:
    fit = fit_g2(correlate(*arms[i], bin_width=3e-9, window=600e-9))
    if fit.converged and not fit.no_dip and fit.g2_zero + 3 * fit.g2_zero_sigma < 0.5:
        singles.append(SpotMeasurement(f"spot{i}", intensity[i], background, 1))
i_single = calibrate_single_rate(singles, background)
print(f"{len(singles)} certified singles -> "
      f"single-emitter rate {i_single:.0f} cps")

# Final census: intensity ratio, rounded.
assigned = np.zeros(truth.size, dtype=int)
assigned[bright] = [count_emitters(intensity[i], background, i_single)
                    for i in bright]
print(f"\nassigned centers per spot:\n{assigned.reshape(ROWS, COLS)}")

agree = (assigned == truth).mean()
print(f"\nagreement with ground truth: {agree * 100:.0f}% of spots")
