import hashlib
import re

import pytest

from emitterforge.cli import main
from emitterforge.config import _SCHEMA, load_config
from emitterforge.defectstats import CreationModel
from emitterforge.errors import ConfigError, DomainError
from emitterforge.implantation import build_pattern
from emitterforge.photonsim import BackgroundModel, DetectorModel, EmitterModel

FULL = """\
[pattern]
kind = fib_grid
pitch = 10 um
rows = 3

[creation]
p_success = 0.16
atoms_per_center = 3

[emitter]
lifetime = 50 ns
sat_power = 150 uW
sat_rate = 2 Mcps
shelving_rate = 2 MHz
deshelving_rate = 1 MHz

[background]
rate = 300 cps

[detectors]
efficiency = 0.35
split_ratio = 0.5
jitter = 100 ps
dead_time = 50 ns
dark_rate = 50 cps

[run]
seed = 7
duration = 60 s
power = 45 uW
resolution = 1 ps
"""


def _write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_full_config_parses_to_si(tmp_path):
    cfg = load_config(_write(tmp_path, FULL))
    assert cfg.get("pattern", "pitch") == pytest.approx(10e-6)
    assert cfg.get("emitter", "lifetime") == pytest.approx(50e-9)
    assert cfg.get("emitter", "sat_rate") == pytest.approx(2e6)
    assert cfg.get("detectors", "jitter") == pytest.approx(100e-12)
    assert cfg.get("run", "seed") == 7
    assert cfg.get("run", "duration") == pytest.approx(60.0)
    assert cfg.get("creation", "atoms_per_center") == 3


def test_model_builders(tmp_path):
    cfg = load_config(_write(tmp_path, FULL))
    em = cfg.emitter_model()
    assert em.lifetime == pytest.approx(50e-9)
    assert em.shelving_rate == pytest.approx(2e6)
    cr = cfg.creation_model()
    assert cr.p_success == pytest.approx(0.16)
    assert cr.atoms_per_center == 3
    bg = cfg.background_model()
    assert bg.rate == pytest.approx(300.0)
    det = cfg.detector_model()
    assert det.efficiency == pytest.approx(0.35)
    assert det.dead_time == pytest.approx(50e-9)
    assert cfg.split_ratio() == pytest.approx(0.5)
    args = cfg.pattern_args()
    assert args["kind"] == "fib_grid"
    assert args["rows"] == 3


REQUIRED_ONLY = """\
[pattern]
kind = fib_grid
[creation]
p_success = 0.16
[emitter]
lifetime = 50 ns
sat_power = 150 uW
sat_rate = 2 Mcps
"""


def test_defaults_when_sections_missing(tmp_path):
    for text in ("[pattern]\nkind = fib_grid\n", REQUIRED_ONLY):
        cfg = load_config(_write(tmp_path, text))
        assert cfg.split_ratio() == 0.5
        bg = cfg.background_model()
        assert bg.rate == 0.0
        det = cfg.detector_model()
        assert det.efficiency == 1.0
        assert det.dark_rate == 0.0
        # every other value is the one the model or build_pattern declares
        assert det == DetectorModel()
        assert bg == BackgroundModel(rate=0.0)
        assert build_pattern(**cfg.pattern_args()) == build_pattern("fib_grid")
    # the last config sets the required keys of every model
    required = [cfg.require("emitter", k) for k in ("lifetime", "sat_power", "sat_rate")]
    assert cfg.emitter_model() == EmitterModel(*required)
    assert cfg.creation_model() == CreationModel(cfg.require("creation", "p_success"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="lasers"):
        load_config(_write(tmp_path, "[lasers]\npower = 1 W\n"))


def test_unknown_key_rejected_by_name(tmp_path):
    with pytest.raises(ConfigError, match="wibble"):
        load_config(_write(tmp_path, "[pattern]\nkind = fib_grid\nwibble = 3\n"))


def test_bad_unit_rejected(tmp_path):
    with pytest.raises(ConfigError, match="lifetime"):
        load_config(_write(tmp_path, "[emitter]\nlifetime = 50 kg\n"))


def test_require_names_missing_key(tmp_path):
    cfg = load_config(_write(tmp_path, "[run]\nseed = 1\n"))
    with pytest.raises(ConfigError, match="duration"):
        cfg.require("run", "duration")
    assert cfg.require("run", "seed") == 1


def test_config_hash_is_sha256_of_bytes(tmp_path):
    p = _write(tmp_path, FULL)
    cfg = load_config(p)
    assert cfg.config_hash == hashlib.sha256(p.read_bytes()).hexdigest()
    # any byte change (even a comment) changes the hash
    cfg2 = load_config(_write(tmp_path, FULL + "# note\n", name="run2.ini"))
    assert cfg2.config_hash != cfg.config_hash


def test_micro_sign_in_config(tmp_path):
    cfg = load_config(_write(tmp_path, "[run]\npower = 45 µW\nseed = 1\n"))
    assert cfg.get("run", "power") == pytest.approx(45e-6)


# a tiny fib_grid run (16 sites, 2 ms) with every schema key set
TINY = {
    "pattern": {"kind": "fib_grid", "pitch": "10 um", "rows": "1"},
    "creation": {"p_success": "0.5", "atoms_per_center": "1"},
    "emitter": {
        "lifetime": "50 ns",
        "sat_power": "150 uW",
        "sat_rate": "2 Mcps",
        "shelving_rate": "2 MHz",
        "deshelving_rate": "1 MHz",
    },
    "background": {"rate": "5 kcps"},
    "detectors": {
        "efficiency": "0.6",
        "jitter": "80 ps",
        "dead_time": "300 ns",
        "dark_rate": "2 kcps",
        "split_ratio": "0.5",
    },
    "run": {"seed": "23", "duration": "2 ms", "power": "300 uW", "resolution": "1 ps"},
}
# the frame keys act only on a frame: 16 cells of about 4 ions each
FRAME_KEYS = ("fluence_per_cm2", "frame_size", "frame_width")
TINY_FRAME = {
    **TINY,
    "pattern": {
        "kind": "frame",
        "fluence_per_cm2": "1e8",
        "frame_size": "10 um",
        "frame_width": "2 um",
    },
}
# kind is changed from mask_holes to frame, the two kinds that read every key
# of this base
TINY_MASK = {**TINY, "pattern": {"kind": "mask_holes", "pitch": "10 um", "fluence_per_cm2": "1e8"}}
# (section, key) -> the other value it is set to
CHANGED = {
    ("pattern", "kind"): "frame",
    ("pattern", "pitch"): "12 um",
    ("pattern", "fluence_per_cm2"): "2e8",
    ("pattern", "rows"): "2",
    ("pattern", "frame_size"): "12 um",
    ("pattern", "frame_width"): "2.5 um",
    ("creation", "p_success"): "0.3",
    ("creation", "atoms_per_center"): "2",
    ("emitter", "lifetime"): "40 ns",
    ("emitter", "sat_power"): "100 uW",
    ("emitter", "sat_rate"): "1 Mcps",
    ("emitter", "shelving_rate"): "1 MHz",
    ("emitter", "deshelving_rate"): "2 MHz",
    ("background", "rate"): "10 kcps",
    ("detectors", "efficiency"): "0.5",
    ("detectors", "jitter"): "200 ps",
    ("detectors", "dead_time"): "100 ns",
    ("detectors", "dark_rate"): "1 kcps",
    ("detectors", "split_ratio"): "0.4",
    ("run", "seed"): "24",
    ("run", "duration"): "3 ms",
    ("run", "power"): "200 uW",
    ("run", "resolution"): "2 ps",
}
REMOVED = [
    ("pattern", "beam_fwhm", "50 nm"),
    ("pattern", "mean_depth", "60 nm"),
    ("pattern", "straggle_lateral", "25 nm"),
    ("pattern", "straggle_depth", "20 nm"),
    ("background", "decay_time", "70 ns"),
    ("correlator", "bin_width", "1 ns"),
    ("correlator", "window", "250 ns"),
]


def _ini(sections) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        for name, keys in sections.items()
    )


def _outputs(tmp_path, sections, tag):
    """Exit codes and output bytes of ``pattern`` and ``simulate``, with the
    config hash (which any byte of the file changes) left out."""
    ini = _write(tmp_path, _ini(sections), name=f"{tag}.ini")
    csv, out = tmp_path / f"{tag}.csv", tmp_path / tag
    codes = (main(["pattern", str(ini), str(csv)]), main(["simulate", str(ini), str(out)]))
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    files["pattern"] = csv.read_bytes()
    files["manifest.csv"] = re.sub(rb"config_hash=\w+", b"", files["manifest.csv"])
    return codes, files


def test_every_schema_key_changes_an_output(tmp_path):
    assert set(CHANGED) == {(s, k) for s, keys in _SCHEMA.items() for k in keys}
    bases = {"fib": TINY, "frame": TINY_FRAME, "mask": TINY_MASK}
    base_outputs = {name: _outputs(tmp_path, base, name) for name, base in bases.items()}
    for codes, _ in base_outputs.values():
        assert codes == (0, 0)
    inert = []
    for (section, key), value in CHANGED.items():
        name = "mask" if key == "kind" else "frame" if key in FRAME_KEYS else "fib"
        changed = {**bases[name], section: {**bases[name][section], key: value}}
        codes, files = _outputs(tmp_path, changed, f"{section}_{key}")
        assert codes == (0, 0), (section, key)
        if files == base_outputs[name][1]:
            inert.append(f"[{section}] {key}")
    assert inert == []


@pytest.mark.parametrize("section,key,value", REMOVED, ids=[k for _, k, _ in REMOVED])
def test_removed_keys_are_rejected(tmp_path, section, key, value):
    sections = {**TINY, section: {**TINY.get(section, {}), key: value}}
    ini = _write(tmp_path, _ini(sections))
    with pytest.raises(ConfigError, match=key):
        load_config(ini)
    assert main(["simulate", str(ini), str(tmp_path / "out")]) == 2


# [pattern] sections that pattern and simulate refuse: a key the kind does
# not read names the key and the kind; out-of-range geometry is a DomainError
FRAME = TINY_FRAME["pattern"]
REFUSED = {
    "frame+rows": ({**FRAME, "rows": "1"}, ConfigError, "frame.*rows"),
    "fib_grid+fluence_per_cm2": (
        {"kind": "fib_grid", "fluence_per_cm2": "5e12"}, ConfigError, "fib_grid.*fluence"
    ),
    "fib_grid+frame_size": (
        {"kind": "fib_grid", "frame_size": "50 um"}, ConfigError, "fib_grid.*frame_size"
    ),
    "fib_grid+frame_width": (
        {"kind": "fib_grid", "frame_width": "2 um"}, ConfigError, "fib_grid.*frame_width"
    ),
    "mask_holes+frame_size": (
        {**TINY_MASK["pattern"], "frame_size": "50 um"}, ConfigError, "mask_holes.*frame_size"
    ),
    "mask_holes+frame_width": (
        {**TINY_MASK["pattern"], "frame_width": "2 um"}, ConfigError, "mask_holes.*frame_width"
    ),
    "rows=-2": ({"kind": "fib_grid", "rows": "-2"}, DomainError, "rows"),
    "rows=0": ({"kind": "fib_grid", "rows": "0"}, DomainError, "rows"),
    "rows=40": ({"kind": "fib_grid", "rows": "40"}, DomainError, "1..15"),
    "mask rows=21": ({**TINY_MASK["pattern"], "rows": "21"}, DomainError, "1..20"),
    "frame_width=0": ({**FRAME, "frame_width": "0 um"}, DomainError, "frame_width"),
    "frame_size<0": ({**FRAME, "frame_size": "-10 um"}, DomainError, "frame_size"),
}


@pytest.mark.parametrize("pattern,error,match", REFUSED.values(), ids=REFUSED)
def test_pattern_keys_and_geometry_checked(tmp_path, pattern, error, match):
    ini = _write(tmp_path, _ini({**TINY, "pattern": pattern}))
    with pytest.raises(error, match=match):
        build_pattern(**load_config(ini).pattern_args())
    assert main(["pattern", str(ini), str(tmp_path / "p.csv")]) == 2
    assert main(["simulate", str(ini), str(tmp_path / "out")]) == 2


NON_FINITE = [
    (section, key, number + unit)
    for section, key, unit in [
        ("pattern", "rows", ""), ("run", "seed", ""),
        ("pattern", "pitch", " um"), ("run", "duration", " s"),
    ]
    for number in ("inf", "nan")
]


@pytest.mark.parametrize("section,key,value", NON_FINITE)
def test_non_finite_values_rejected_by_key(tmp_path, capsys, section, key, value):
    sections = {**TINY, section: {**TINY[section], key: value}}
    ini = _write(tmp_path, _ini(sections))
    with pytest.raises(ConfigError, match=key) as info:
        load_config(ini)
    assert info.value.key == key
    assert main(["pattern", str(ini), str(tmp_path / "p.csv")]) == 2
    assert main(["simulate", str(ini), str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
