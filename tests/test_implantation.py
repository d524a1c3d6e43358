import math

import numpy as np
import pytest

from emitterforge.errors import ConfigError, DomainError
from emitterforge.implantation import (
    FIB_ROW_DOSES,
    BeamConfig,
    ImplantSite,
    StraggleParams,
    build_pattern,
    dwell_time_for_ions,
    expected_ions_through_hole,
    ions_per_spot,
    sample_ion_counts,
    sample_ion_positions,
    write_pattern_csv,
)
from written import read_written


def test_ions_per_spot_hand_arithmetic():
    # n = I t / (q e); 1.602 pA of 2+ ions for 5 us
    beam = BeamConfig(current=1.602e-12, charge_state=2)
    n = ions_per_spot(beam, 5e-6)
    assert n == pytest.approx(24.997243843215362, rel=1e-14)
    assert n == pytest.approx(25.0, abs=0.005)


def test_ions_per_spot_unit_charge_exact():
    beam = BeamConfig(current=1e-12, charge_state=1)
    assert ions_per_spot(beam, 1.602176634e-7) == pytest.approx(1.0, rel=1e-15)


def test_dwell_time_inverts_ions_per_spot():
    beam = BeamConfig(current=2.5e-12, charge_state=2)
    t = dwell_time_for_ions(beam, 100.0)
    assert ions_per_spot(beam, t) == pytest.approx(100.0, rel=1e-12)


def test_expected_ions_through_hole():
    assert expected_ions_through_hole(1e12, 40e-9) == pytest.approx(
        4.0 * math.pi, rel=1e-12
    )  # ~12.57
    assert expected_ions_through_hole(1e11, 400e-9) == pytest.approx(
        40.0 * math.pi, rel=1e-12
    )  # ~125.7


def test_beam_validation():
    with pytest.raises(DomainError):
        BeamConfig(current=-1e-12)
    with pytest.raises(DomainError):
        BeamConfig(current=1e-12, charge_state=0)


def test_sample_ion_counts_poisson():
    rng = np.random.default_rng(5)
    counts = sample_ion_counts(np.full(100_000, 25.0), rng)
    assert counts.dtype == np.int64
    assert counts.mean() == pytest.approx(25.0, abs=0.1)
    assert counts.var() == pytest.approx(25.0, rel=0.03)
    assert int(sample_ion_counts(0.0, rng)) == 0


def test_sample_ion_positions_zero_ions():
    site = ImplantSite("A1", 0.0, 0.0, 10.0)
    out = sample_ion_positions(site, 0, 50e-9, StraggleParams(), seed=1)
    assert out.shape == (0, 3)


def test_sample_ion_positions_statistics():
    # 1e5 ions: depth mean within 60 +- 0.5 nm, lateral std within 5% of
    # the quadrature sum of beam and straggle sigmas
    site = ImplantSite("A1", 1e-6, -2e-6, 10.0)
    straggle = StraggleParams()  # 60 nm depth, 25 nm lateral, 20 nm depth sigma
    beam_fwhm = 50e-9
    out = sample_ion_positions(site, 100_000, beam_fwhm, straggle, seed=11)
    assert out.shape == (100_000, 3)
    assert out[:, 2].mean() == pytest.approx(60e-9, abs=0.5e-9)
    sigma_beam = beam_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    expected_lateral = math.sqrt(sigma_beam**2 + straggle.sigma_lateral**2)
    assert (out[:, 0] - 1e-6).std() == pytest.approx(expected_lateral, rel=0.05)
    assert (out[:, 1] + 2e-6).std() == pytest.approx(expected_lateral, rel=0.05)
    assert (out[:, 0] - 1e-6).mean() == pytest.approx(0.0, abs=5e-10)


def test_fib_grid_shape_and_labels():
    pattern = build_pattern("fib_grid", pitch=10e-6)
    assert len(pattern.sites) == 240  # 15 dose rows x 16 columns
    labels = [s.label for s in pattern.sites]
    assert labels[0] == "A1"
    assert labels[15] == "P1"
    assert "I3" in labels  # chess-style coordinates
    # one dose per row
    site_i3 = next(s for s in pattern.sites if s.label == "I3")
    assert site_i3.expected_ions == FIB_ROW_DOSES[2]
    assert site_i3.x == pytest.approx(8 * 10e-6)
    assert site_i3.y == pytest.approx(2 * 10e-6)


def test_fib_grid_rows_truncation():
    pattern = build_pattern("fib_grid", rows=2)
    assert len(pattern.sites) == 32
    assert {s.expected_ions for s in pattern.sites} == {6.0, 9.0}


def test_mask_holes_shape_and_row3_dose():
    pattern = build_pattern("mask_holes", pitch=5e-6, fluence_per_cm2=1e12)
    assert len(pattern.sites) == 400  # 20 diameters x 20 columns
    row3 = [s for s in pattern.sites if s.label.endswith("3") and len(s.label) == 2]
    assert len(row3) == 20
    # row 3 has 40 nm holes
    assert row3[0].expected_ions == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_mask_requires_fluence():
    with pytest.raises(ConfigError, match="fluence_per_cm2"):
        build_pattern("mask_holes")


def test_frame_pattern_is_border_only():
    pattern = build_pattern(
        "frame", fluence_per_cm2=1e10, frame_size=20e-6, frame_width=2e-6
    )
    per_side = 10
    assert len(pattern.sites) == per_side**2 - (per_side - 2) ** 2
    assert all(s.label.startswith("F") for s in pattern.sites)
    # 2 um cells at 1e10 cm^-2: 4e-8 cm^2 * 1e10 = 400 ions per cell
    assert pattern.sites[0].expected_ions == pytest.approx(400.0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        build_pattern("hexagonal")


def test_pattern_csv_round_trip(tmp_path):
    pattern = build_pattern("fib_grid", pitch=7.5e-6, rows=3)
    p = tmp_path / "pattern.csv"
    write_pattern_csv(pattern, p)
    meta, rows = read_written(p)
    assert meta.keys() == {"kind", "pitch_um"} and meta["kind"] == "fib_grid"
    assert float(meta["pitch_um"]) == pattern.pitch * 1e6
    columns = ("x_um", "y_um", "expected_ions")
    written = [(r["label"], *(float(r[c]) for c in columns)) for r in rows]
    assert written == [(s.label, s.x * 1e6, s.y * 1e6, s.expected_ions) for s in pattern.sites]
