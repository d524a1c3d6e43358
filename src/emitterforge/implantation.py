"""Ion-dose planning and implantation geometry.

Covers the arithmetic between beam current, dwell time and ion number for a
focused beam, expected ion numbers through mask holes for broad-beam
implantation, stopping-position straggle sampling, and builders for the
standard site patterns (dose-ladder grid, mask-hole grid, alignment frame).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .tables import write_table
from .units import ELEMENTARY_CHARGE, FWHM_PER_SIGMA


#: Per-row mean ion doses of the standard 15-row dose ladder (ions/spot).
FIB_ROW_DOSES = (6, 9, 13, 16, 25, 33, 45, 61, 83, 113, 153, 208, 283, 384, 500)

#: Mask hole diameter ladder in nm. The first 20 entries form the rows of
#: the standard 20x20 hole grid; the 2000 nm entry is the large reference
#: aperture and is not part of the grid.
MASK_HOLE_DIAMETERS_NM = (
    30, 35, 40, 45, 50, 55, 60, 65, 70, 75,
    80, 85, 90, 95, 100, 125, 150, 200, 300, 400, 2000,
)

#: Site pitch in m of a pattern that names none.
DEFAULT_PITCH = 10e-6

#: Pattern kind -> the optional :func:`build_pattern` keys it reads; every
#: kind reads ``pitch``, which the pattern CSV records.
PATTERN_KINDS = {
    "fib_grid": ("rows",),
    "mask_holes": ("rows", "fluence_per_cm2"),
    "frame": ("fluence_per_cm2", "frame_size", "frame_width"),
}


@dataclass
class BeamConfig:
    """Focused ion beam settings.

    current in ampere, charge_state in units of e (2 for doubly charged
    ions), fwhm the lateral beam profile full width at half maximum in m.
    """

    current: float
    charge_state: int = 1
    fwhm: float = 50e-9

    def __post_init__(self):
        if not (math.isfinite(self.current) and self.current > 0):
            raise DomainError(f"beam current must be positive, got {self.current}")
        if self.charge_state < 1 or int(self.charge_state) != self.charge_state:
            raise DomainError(f"charge_state must be a positive integer, got {self.charge_state}")
        if not (math.isfinite(self.fwhm) and self.fwhm > 0):
            raise DomainError(f"beam fwhm must be positive, got {self.fwhm}")
        self.charge_state = int(self.charge_state)

    @property
    def sigma(self) -> float:
        """Gaussian sigma of the beam profile."""
        return self.fwhm / FWHM_PER_SIGMA


@dataclass
class StraggleParams:
    """Stopping-position statistics of implanted ions (meters, 1 sigma)."""

    mean_depth: float = 60e-9
    sigma_lateral: float = 25e-9
    sigma_depth: float = 20e-9

    def __post_init__(self):
        if self.sigma_lateral < 0 or self.sigma_depth < 0:
            raise DomainError("straggle sigmas must be nonnegative")


@dataclass
class ImplantSite:
    """One implantation target: label, center position (m), mean ion number."""

    label: str
    x: float
    y: float
    expected_ions: float

    def __post_init__(self):
        if self.expected_ions < 0:
            raise DomainError(f"expected_ions must be nonnegative, got {self.expected_ions}")


@dataclass
class ImplantPattern:
    """A collection of implantation sites of one pattern kind."""

    kind: str
    sites: list[ImplantSite]
    pitch: float = DEFAULT_PITCH

    def __post_init__(self):
        labels = [s.label for s in self.sites]
        if len(set(labels)) != len(labels):
            raise DomainError("site labels must be unique")

    def expected_ions(self) -> np.ndarray:
        return np.array([s.expected_ions for s in self.sites])


def ions_per_spot(beam: BeamConfig, dwell_time: float) -> float:
    """Mean number of ions delivered in one dwell: I * t / (q * e)."""
    if not math.isfinite(dwell_time) or dwell_time < 0:
        raise DomainError(f"dwell_time must be nonnegative, got {dwell_time}")
    return beam.current * dwell_time / (beam.charge_state * ELEMENTARY_CHARGE)


def dwell_time_for_ions(beam: BeamConfig, n_ions: float) -> float:
    """Dwell time that delivers ``n_ions`` on average (inverse of ions_per_spot)."""
    if not math.isfinite(n_ions) or n_ions < 0:
        raise DomainError(f"n_ions must be nonnegative, got {n_ions}")
    return n_ions * beam.charge_state * ELEMENTARY_CHARGE / beam.current


def expected_ions_through_hole(fluence_per_cm2: float, diameter: float) -> float:
    """Mean ion number through a circular mask hole.

    ``fluence_per_cm2`` is the areal dose in ions/cm^2 (the unit doses are
    universally quoted in); ``diameter`` is in meters.
    """
    if fluence_per_cm2 < 0:
        raise DomainError(f"fluence must be nonnegative, got {fluence_per_cm2}")
    if diameter < 0:
        raise DomainError(f"diameter must be nonnegative, got {diameter}")
    area_cm2 = math.pi * (diameter / 2.0) ** 2 * 1e4
    return fluence_per_cm2 * area_cm2


def sample_ion_counts(expected_ions, seed) -> np.ndarray:
    """Actual delivered ion numbers: Poisson around each site's mean dose."""
    expected = np.asarray(expected_ions, dtype=float)
    if np.any(expected < 0):
        raise DomainError("expected_ions must be nonnegative")
    rng = np.random.default_rng(seed)
    # poisson() returns a bare int for scalar input; keep the array contract
    return np.asarray(rng.poisson(expected), dtype=np.int64)


def sample_ion_positions(
    site: ImplantSite,
    n_ions: int,
    beam_fwhm: float,
    straggle: StraggleParams,
    seed,
) -> np.ndarray:
    """Stopping positions of ``n_ions`` ions aimed at a site.

    Each lateral coordinate is the site center plus a Gaussian beam-pointing
    term (sigma = fwhm / 2.3548) plus a Gaussian straggle term; depth is
    Gaussian around the mean stopping depth. Returns an (n, 3) array of
    (x, y, depth) in meters.
    """
    if n_ions < 0:
        raise DomainError(f"n_ions must be nonnegative, got {n_ions}")
    rng = np.random.default_rng(seed)
    sigma_beam = beam_fwhm / FWHM_PER_SIGMA
    beam_xy = rng.normal(0.0, sigma_beam, size=(n_ions, 2)) if sigma_beam > 0 else 0.0
    straggle_xy = (
        rng.normal(0.0, straggle.sigma_lateral, size=(n_ions, 2))
        if straggle.sigma_lateral > 0
        else 0.0
    )
    depth = rng.normal(straggle.mean_depth, straggle.sigma_depth, size=n_ions)
    out = np.empty((n_ions, 3))
    out[:, 0] = site.x
    out[:, 1] = site.y
    out[:, :2] += beam_xy + straggle_xy
    out[:, 2] = depth
    return out


def _column_label(index: int) -> str:
    # chess-style file letters: A..Z then AA.. for very wide grids
    letters = ""
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


def _first_rows(ladder: tuple, rows: int | None) -> tuple:
    """The first ``rows`` entries of a grid's row ladder (all when None)."""
    if rows is None:
        return ladder
    if not 1 <= rows <= len(ladder):
        raise DomainError(f"rows must be in 1..{len(ladder)}, got {rows}")
    return ladder[:rows]


def build_pattern(
    kind: str,
    pitch: float = DEFAULT_PITCH,
    fluence_per_cm2: float | None = None,
    rows: int | None = None,
    frame_size: float | None = None,
    frame_width: float | None = None,
) -> ImplantPattern:
    """Construct one of the standard site patterns.

    kind 'fib_grid': dose-ladder grid, one dose per row (FIB_ROW_DOSES),
    16 spots per row at the given pitch. Labels are chess-style
    (column letter + row number), e.g. 'I3'.

    kind 'mask_holes': 20x20 grid of mask holes, one diameter per row
    (first 20 entries of MASK_HOLE_DIAMETERS_NM); expected ions follow
    from the fluence and the hole area. ``fluence_per_cm2`` is required.

    kind 'frame': square outline of side ``frame_size`` (200 um) made of
    ``frame_width`` (2 um) cells, each receiving fluence * cell area ions.

    ``rows`` truncates a grid to its first 1..15 (fib_grid) or 1..20
    (mask_holes) rows. A key that the kind does not read (PATTERN_KINDS)
    raises ConfigError.
    """
    if kind not in PATTERN_KINDS:
        raise ConfigError(f"unknown pattern kind {kind!r}", key="kind")
    given = {"fluence_per_cm2": fluence_per_cm2, "rows": rows,
             "frame_size": frame_size, "frame_width": frame_width}
    for key, value in given.items():
        if value is not None and key not in PATTERN_KINDS[kind]:
            raise ConfigError(f"pattern kind {kind!r} does not read {key!r}", key=key)
    if pitch <= 0:
        raise DomainError(f"pitch must be positive, got {pitch}")
    sites: list[ImplantSite] = []
    if kind == "fib_grid":
        for r, dose in enumerate(_first_rows(FIB_ROW_DOSES, rows)):
            for c in range(16):
                sites.append(
                    ImplantSite(f"{_column_label(c)}{r + 1}", c * pitch, r * pitch, float(dose))
                )
    elif kind == "mask_holes":
        if fluence_per_cm2 is None:
            raise ConfigError("mask_holes pattern requires fluence_per_cm2", key="fluence_per_cm2")
        for r, d_nm in enumerate(_first_rows(MASK_HOLE_DIAMETERS_NM[:20], rows)):
            expected = expected_ions_through_hole(fluence_per_cm2, d_nm * 1e-9)
            for c in range(20):
                sites.append(
                    ImplantSite(f"{_column_label(c)}{r + 1}", c * pitch, r * pitch, expected)
                )
    else:
        if fluence_per_cm2 is None:
            raise ConfigError("frame pattern requires fluence_per_cm2", key="fluence_per_cm2")
        frame_size = 200e-6 if frame_size is None else frame_size
        frame_width = 2e-6 if frame_width is None else frame_width
        if not all(math.isfinite(v) and v > 0 for v in (frame_size, frame_width)):
            raise DomainError(
                f"frame_size and frame_width must be positive, got {frame_size}, {frame_width}"
            )
        per_side = max(int(round(frame_size / frame_width)), 2)
        cell_ions = fluence_per_cm2 * (frame_width**2) * 1e4
        idx = 0
        for i in range(per_side):
            for j in range(per_side):
                on_border = i in (0, per_side - 1) or j in (0, per_side - 1)
                if not on_border:
                    continue
                idx += 1
                sites.append(
                    ImplantSite(f"F{idx:04d}", j * frame_width, i * frame_width, cell_ions)
                )
    return ImplantPattern(kind=kind, sites=sites, pitch=pitch)


def write_pattern_csv(pattern: ImplantPattern, path) -> None:
    """Write sites as ``label,x_um,y_um,expected_ions`` (numbers at 17 digits)."""
    rows = [(s.label, s.x * 1e6, s.y * 1e6, s.expected_ions) for s in pattern.sites]
    meta = {"kind": pattern.kind, "pitch_um": pattern.pitch * 1e6}
    write_table(path, "label,x_um,y_um,expected_ions", zip(*rows), "%s,%.17g,%.17g,%.17g", meta)
