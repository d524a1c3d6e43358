"""INI run configuration with unit-suffixed values.

One config file describes a whole simulated run: the implant pattern, the
defect-creation model, the emitter photophysics, background, detectors and
the run itself. Values carry explicit unit suffixes ("110 uW",
"10 ns", "2 um") and are stored in SI; unknown sections or keys are
rejected so typos cannot silently change a run.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import configparser

from .defectstats import CreationModel
from .errors import ConfigError
from .photonsim import BackgroundModel, DetectorModel, EmitterModel
from .units import parse_int, parse_quantity

# section -> key -> quantity kind ('int' and 'str' are parsed specially)
_SCHEMA: dict[str, dict[str, str]] = {
    "pattern": {
        "kind": "str",
        "pitch": "length",
        "fluence_per_cm2": "dimensionless",
        "rows": "int",
        "frame_size": "length",
        "frame_width": "length",
    },
    "creation": {
        "p_success": "dimensionless",
        "atoms_per_center": "int",
    },
    "emitter": {
        "lifetime": "time",
        "sat_power": "power",
        "sat_rate": "rate",
        "shelving_rate": "rate",
        "deshelving_rate": "rate",
    },
    "background": {
        "rate": "rate",
    },
    "detectors": {
        "efficiency": "dimensionless",
        "jitter": "time",
        "dead_time": "time",
        "dark_rate": "rate",
        "split_ratio": "dimensionless",
    },
    "run": {
        "seed": "int",
        "duration": "time",
        "power": "power",
        "resolution": "time",
    },
}


@dataclass
class RunConfig:
    """Parsed and validated run configuration.

    ``values[section][key]`` holds SI floats (or ints/strings where the
    schema says so); ``config_hash`` is the SHA-256 of the raw file bytes,
    embedded in manifests so outputs are traceable to their exact config.
    """

    values: dict = field(default_factory=dict)
    config_hash: str = ""

    def has(self, section: str, key: str) -> bool:
        return section in self.values and key in self.values[section]

    def get(self, section: str, key: str, default=None):
        if self.has(section, key):
            return self.values[section][key]
        return default

    def require(self, section: str, key: str):
        if not self.has(section, key):
            raise ConfigError(
                f"missing required config key [{section}] {key}", key=key
            )
        return self.values[section][key]

    # -- model builders ------------------------------------------------
    # Each passes on only the keys the file sets, so every other value is
    # the default that the model or build_pattern declares.
    def _section(self, section: str, *required: str) -> dict:
        for key in required:
            self.require(section, key)
        return dict(self.values.get(section, {}))

    def pattern_args(self) -> dict:
        return self._section("pattern", "kind")

    def creation_model(self) -> CreationModel:
        return CreationModel(**self._section("creation", "p_success"))

    def emitter_model(self) -> EmitterModel:
        return EmitterModel(**self._section("emitter", "lifetime", "sat_power", "sat_rate"))

    def background_model(self) -> BackgroundModel:
        return BackgroundModel(**{"rate": 0.0, **self._section("background")})

    def detector_model(self) -> DetectorModel:
        keys = self._section("detectors")
        keys.pop("split_ratio", None)
        if "jitter" in keys:
            keys["jitter_sigma"] = keys.pop("jitter")
        return DetectorModel(**keys)

    def split_ratio(self) -> float:
        return self.get("detectors", "split_ratio", 0.5)


def load_config(path) -> RunConfig:
    """Read and validate an INI config file.

    Unknown sections or keys raise :class:`ConfigError` naming the
    offender; values are parsed per the schema (unit suffixes allowed).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    parser = configparser.ConfigParser()
    try:
        parser.read_string(raw.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config file: {exc}") from None

    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown config section [{section}] with keys {parser.options(section)}",
                key=section,
            )
        schema = _SCHEMA[section]
        values[section] = {}
        for key, text in parser.items(section):
            if key not in schema:
                raise ConfigError(
                    f"unknown config key {key!r} in section [{section}]", key=key
                )
            kind = schema[key]
            if kind == "str":
                values[section][key] = text.strip()
            elif kind == "int":
                values[section][key] = parse_int(text, key=key)
            else:
                values[section][key] = parse_quantity(text, kind, key=key)
    return RunConfig(values=values, config_hash=hashlib.sha256(raw).hexdigest())
