"""The public API surface: every name in ``emitterforge.__all__`` and the
parameter names of each public callable, dataclass constructor and public
method. A new option or entry point, or a removed one, shows up as a diff
of the table below; edit it together with the API. Every public name has a
caller outside the tests.
"""
import ast
import inspect
import re
from pathlib import Path

import emitterforge

ROOT = Path(__file__).resolve().parents[1]

# None: a class whose constructor is the built-in one of its base (an
# exception or warning without its own __init__)
API = {
    "BackgroundModel": ("rate", "decay_time"),
    "BeamConfig": ("current", "charge_state", "fwhm"),
    "ConfigError": ("message", "key"),
    "CorrectionWarning": None,
    "CreationModel": ("p_success", "atoms_per_center"),
    "DebyeWallerResult": (
        "dw", "zpl_area", "psb_area", "components", "baseline", "reduced_chi2", "converged",
        "flags",
    ),
    "DecayFitResult": (
        "amp_fast", "tau_fast", "amp_slow", "tau_slow", "baseline", "fit_start", "covariance",
        "reduced_chi2", "converged", "flags",
    ),
    "DecayHistogram": ("bin_centers", "counts", "bin_width", "n_pulses"),
    "DefectDistribution": ("counts",),
    "DetectorModel": ("efficiency", "jitter_sigma", "dead_time", "dark_rate"),
    "DomainError": None,
    "EmitterModel": ("lifetime", "sat_power", "sat_rate", "shelving_rate", "deshelving_rate"),
    "FormatError": ("message", "offset"),
    "G2Fit": (
        "n_emitters", "a", "tau1", "tau2", "g2_zero", "g2_zero_sigma", "param_sigma",
        "covariance", "reduced_chi2", "converged", "no_dip", "message", "iterations", "flags",
    ),
    "G2Histogram": (
        "bin_width", "window", "tau", "g2", "sigma", "raw", "normalizer", "rate_a", "rate_b",
        "total_time", "resolution",
    ),
    "GaussianPeak": ("center", "amplitude", "fwhm"),
    "ImplantPattern": ("kind", "sites", "pitch"),
    "ImplantPattern.expected_ions": ("self",),
    "ImplantSite": ("label", "x", "y", "expected_ions"),
    "LineScanResult": ("peaks", "baseline", "reduced_chi2", "converged", "flags"),
    "SaturationFitResult": (
        "sat_rate", "sat_power", "bg_slope", "covariance", "reduced_chi2", "converged", "flags",
    ),
    "SaturationFitResult.param_sigma": ("self",),
    "Spectrum": ("wavelength", "intensity", "zpl_wavelength"),
    "SpotMeasurement": ("label", "rate", "background", "n_emitters_g2"),
    "StraggleParams": ("mean_depth", "sigma_lateral", "sigma_depth"),
    "TimeTagStream": ("resolution", "channels", "timestamps", "duration"),
    "TimeTagStream.channel_list": ("self",),
    "TimeTagStream.from_times": ("cls", "times_s", "channel", "resolution", "duration"),
    "TimeTagStream.select": ("self", "channel"),
    "ZeroSignalWarning": None,
    "background_correct": ("hist", "rho"),
    "build_pattern": ("kind", "pitch", "fluence_per_cm2", "rows", "frame_size", "frame_width"),
    "calibrate_single_rate": ("spots", "background"),
    "composite_defect_pmf": ("mu", "k", "n_centers"),
    "composite_moments": ("mu", "k"),
    "composite_pmf_array": ("mu", "k", "n_max"),
    "correlate": ("a", "b", "bin_width", "window"),
    "count_emitters": ("rate", "background", "i_single"),
    "debye_waller": ("spectrum", "zpl_halfwidth", "n_psb", "method"),
    "dwell_time_for_ions": ("beam", "n_ions"),
    "expected_ions_through_hole": ("fluence_per_cm2", "diameter"),
    "fit_decay": ("histogram",),
    "fit_g2": ("hist",),
    "fit_line_scan": ("position", "rate"),
    "fit_mu": ("observed", "k"),
    "fit_saturation": ("power", "rate", "sigma", "dwell_time"),
    "g2_model": ("tau", "n_emitters", "a", "tau1", "tau2"),
    "ions_per_spot": ("beam", "dwell_time"),
    "max_emitters_from_g2": ("g2_zero",),
    "merge_streams": ("streams",),
    "occurrence_histogram": ("samples",),
    "parse_quantity": ("text", "kind", "key"),
    "poisson_pmf": ("mu", "m"),
    "read_decay_csv": ("path",),
    "read_saturation_csv": ("path",),
    "read_spectrum_csv": ("path", "zpl_wavelength"),
    "read_timetags": ("path",),
    "rho_from_rates": ("spot_rate", "background_rate"),
    "run_detection": ("stream", "split_ratio", "det_a", "det_b", "seed"),
    "sample_defect_count": ("n_ions", "model", "seed"),
    "sample_ion_counts": ("expected_ions", "seed"),
    "sample_ion_positions": ("site", "n_ions", "beam_fwhm", "straggle", "seed"),
    "saturation_model": ("power", "sat_rate", "sat_power", "bg_slope"),
    "simulate_background_tags": ("rate", "duration", "seed", "resolution"),
    "simulate_emitter_tags": ("models", "power", "duration", "seed", "resolution"),
    "simulate_pulsed_decay": (
        "models", "background", "bg_fraction", "pulse_period", "pulse_width", "n_pulses", "seed",
    ),
    "steady_state_rate": ("model", "power"),
    "wilson_interval": ("counts", "total", "confidence"),
    "write_decay_csv": ("hist", "path"),
    "write_histogram_csv": ("hist", "path"),
    "write_pattern_csv": ("pattern", "path"),
    "write_saturation_csv": ("power", "rate", "path", "sigma"),
    "write_spectrum_csv": ("spectrum", "path"),
    "write_spot_table": ("spots", "estimates", "path"),
    "write_timetags": ("stream", "path"),
}


def _parameters(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:
        return None


def _surface():
    """(name, parameter names) of every public name and public method."""
    for name in emitterforge.__all__:
        obj = getattr(emitterforge, name)
        yield name, _parameters(obj)
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if isinstance(value, (classmethod, staticmethod)):
                    value = value.__func__
                if not attr.startswith("_") and inspect.isfunction(value):
                    yield f"{name}.{attr}", _parameters(value)


def test_all_is_pinned():
    names = sorted(emitterforge.__all__)
    assert names == sorted(name for name in API if "." not in name)
    assert len(names) == len(set(names))


def test_parameters_are_pinned():
    assert dict(_surface()) == API


def _used_names():
    """Every ``Name`` id and ``Attribute`` attr in the package (except its
    ``__init__.py``), the bench and the demos, and every word of the CI
    workflows."""
    package = ROOT / "src" / "emitterforge"
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for workflow in (ROOT / ".github" / "workflows").glob("*.yml"):
        used.update(re.findall(r"\w+", workflow.read_text(encoding="utf-8")))
    return used


def test_every_public_name_has_a_caller():
    used = _used_names()
    assert [name for name in emitterforge.__all__ if name not in used] == []
