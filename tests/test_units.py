import math

import pytest

from emitterforge.errors import ConfigError
from emitterforge.units import (
    ELEMENTARY_CHARGE,
    FWHM_PER_SIGMA,
    parse_int,
    parse_quantity,
)


def test_constants():
    assert ELEMENTARY_CHARGE == 1.602176634e-19
    assert FWHM_PER_SIGMA == pytest.approx(2.0 * math.sqrt(2.0 * math.log(2.0)))


@pytest.mark.parametrize(
    "text,kind,expected",
    [
        ("110 uW", "power", 110e-6),
        ("110uW", "power", 110e-6),
        ("50 ns", "time", 50e-9),
        ("1.5 um", "length", 1.5e-6),
        ("1.602 pA", "current", 1.602e-12),
        ("2 Mcps", "rate", 2e6),
        ("2 MHz", "rate", 2e6),
        ("300 cps", "rate", 300.0),
        ("0.16", "dimensionless", 0.16),
        ("3", "time", 3.0),  # bare number = SI base unit
        ("-4 nm", "length", -4e-9),
    ],
)
def test_parse_quantity(text, kind, expected):
    assert parse_quantity(text, kind) == pytest.approx(expected, rel=1e-12)


def test_micro_sign_accepted():
    assert parse_quantity("110 µW", "power") == pytest.approx(110e-6)
    assert parse_quantity("5 µs", "time") == pytest.approx(5e-6)


def test_wrong_dimension_rejected():
    with pytest.raises(ConfigError):
        parse_quantity("10 ns", "power")


def test_garbage_rejected():
    for bad in ("", "fast", "10 parsec", "1..2 ns"):
        with pytest.raises(ConfigError):
            parse_quantity(bad, "time")


def test_error_names_key():
    with pytest.raises(ConfigError, match="dwell"):
        parse_quantity("1 kg", "time", key="dwell")


def test_unknown_kind_is_a_bug_not_config():
    with pytest.raises(ValueError):
        parse_quantity("1 s", "frequency-squared")


def test_parse_int():
    assert parse_int("42") == 42
    assert parse_int("-3") == -3
    with pytest.raises(ConfigError):
        parse_int("2.5")
    with pytest.raises(ConfigError):
        parse_int("seven")
    # integer digits are read exactly at any size; another number form only
    # where a float holds every integer, below 2**53
    assert parse_int("9007199254740993") == 2**53 + 1
    assert parse_int("1e3") == 1000
    assert parse_int("-42.0") == -42
    for text in ("9007199254740993.0", "9007199254740992.0", "1e16", "nan", "inf", "1.5e2.0"):
        with pytest.raises(ConfigError):
            parse_int(text)
