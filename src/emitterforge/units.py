"""Physical constants and unit-suffix parsing for config values.

Quantities in config files and CLI options are written as ``<number> <suffix>``
("110 uW", "10 ns", "1.5 um"). Everything is stored in SI units internally;
count rates are stored in counts/second.
"""
from __future__ import annotations

import math

from .errors import ConfigError

#: Elementary charge in coulomb (2019 SI exact value).
ELEMENTARY_CHARGE = 1.602176634e-19

#: Conversion between a Gaussian FWHM and its standard deviation.
FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))  # 2.3548...

# One registry per dimension. Keys are the accepted suffixes; values are the
# multiplier to the SI base unit. The micro sign (U+00B5) is accepted
# everywhere 'u' is.
_UNIT_TABLES: dict[str, dict[str, float]] = {
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12},
    "length": {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9, "pm": 1e-12},
    "power": {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "nW": 1e-9},
    "current": {"A": 1.0, "mA": 1e-3, "uA": 1e-6, "nA": 1e-9, "pA": 1e-12},
    # Count rates and transition rates share the per-second dimension.
    "rate": {
        "cps": 1.0,
        "kcps": 1e3,
        "Mcps": 1e6,
        "Hz": 1.0,
        "kHz": 1e3,
        "MHz": 1e6,
        "GHz": 1e9,
    },
    "dimensionless": {},
}


def parse_quantity(text: str, kind: str, key: str | None = None) -> float:
    """Parse ``"<number> [suffix]"`` into an SI float.

    Parameters
    ----------
    text : str
        Raw config value, e.g. ``"110 uW"`` or ``"0.5"``.
    kind : str
        Dimension name: one of 'time', 'length', 'power', 'current', 'rate',
        'dimensionless'. A bare number is taken to already be in the SI base
        unit for that dimension.
    key : str, optional
        Config key name, used only to make error messages actionable.

    Returns
    -------
    float
    """
    if kind not in _UNIT_TABLES:
        raise ValueError(f"unknown quantity kind {kind!r}")
    table = _UNIT_TABLES[kind]
    parts = text.replace("µ", "u").split()
    if len(parts) == 1:
        # accept the no-space form "110uW": peel the alphabetic tail off
        token = parts[0]
        i = len(token)
        while i > 0 and token[i - 1].isalpha():
            i -= 1
        if 0 < i < len(token):
            parts = [token[:i], token[i:]]
    where = f" for key {key!r}" if key else ""
    if len(parts) == 0 or len(parts) > 2:
        raise ConfigError(f"cannot parse quantity {text!r}{where}", key=key)
    try:
        value = float(parts[0])
    except ValueError:
        raise ConfigError(f"cannot parse number in {text!r}{where}", key=key) from None
    if len(parts) == 2:
        suffix = parts[1]
        if suffix not in table:
            raise ConfigError(
                f"unknown {kind} unit {suffix!r} in {text!r}{where}", key=key
            )
        value *= table[suffix]
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite quantity, got {text!r}{where}", key=key)
    return value


def parse_int(text: str, key: str | None = None) -> int:
    """Parse an integer exactly: integer digits of any size, or another
    number form ("1e3", "42.0") only when it is integral and below 2**53 in
    magnitude, where a float holds every integer exactly."""
    where = f" for key {key!r}" if key else ""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        number = float(text)
    except ValueError:
        raise ConfigError(f"cannot parse integer {text!r}{where}", key=key) from None
    if not (number.is_integer() and abs(number) < 2**53):
        raise ConfigError(f"expected an exact integer, got {text!r}{where}", key=key)
    return int(number)
