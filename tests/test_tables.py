"""The text tables: writer bytes, the shared dialect, reader errors and a
reader fuzz.

The writer digests below were taken before the readers and writers moved
onto the shared CSV layer (``emitterforge.tables``), so they show that every
table is written byte for byte as before. The simulate manifest is pinned
by ``test_golden.py``.
"""
import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emitterforge
from emitterforge.analysis import (
    Spectrum,
    SpotMeasurement,
    read_saturation_csv,
    read_spectrum_csv,
    read_spot_table,
    write_saturation_csv,
    write_spectrum_csv,
    write_spot_table,
)
from emitterforge.cli import _read_counts, main
from emitterforge.correlator import G2Histogram, read_histogram_csv, write_histogram_csv
from emitterforge.errors import ConfigError, DomainError, FormatError
from emitterforge.implantation import build_pattern, read_pattern_csv, write_pattern_csv
from emitterforge.photonsim import DecayHistogram, read_decay_csv, write_decay_csv

# ------------------------------------------------------------ writer bytes

_POWER = np.array([5e-6, 10e-6, 20e-6, 40e-6, 80e-6, 160e-6, 320e-6]) / 3.0
_RATE = 13000.0 * _POWER / (_POWER + 110e-6) + 0.1


def _write_pattern(path):
    write_pattern_csv(build_pattern("fib_grid", pitch=7.5e-6, rows=3), path)


def _write_spectrum(path):
    wl = np.linspace(1270e-9, 1300e-9, 31)
    y = np.exp(-0.5 * ((wl - 1278e-9) / 0.7e-9) ** 2) + 0.01 * np.arange(31) / 7.0
    write_spectrum_csv(Spectrum(wl, y, zpl_wavelength=1278.3e-9), path)


def _write_saturation(path):
    write_saturation_csv(_POWER, _RATE, path)


def _write_saturation_sigma(path):
    write_saturation_csv(_POWER, _RATE, path, sigma=np.sqrt(_RATE))


def _write_decay(path):
    t = (np.arange(40) + 0.5) * 2.5e-9
    counts = (1000 * np.exp(-t / 33e-9)).astype(np.int64) + 3
    write_decay_csv(DecayHistogram(t, counts, 2.5e-9, 123_457), path)


def _write_histogram(path):
    m = 6
    raw = np.array([9, 11, 10, 8, 12, 5, 1, 4, 13, 9, 10, 11, 2**40], dtype=np.int64)
    cov = np.full(2 * m + 1, 3000.0)
    cov[m] = 2999.0
    normalizer = 1.0 / 3.0 * cov
    write_histogram_csv(
        G2Histogram(
            bin_width=3e-9,
            window=18e-9,
            tau=np.arange(-m, m + 1) * 3e-9,
            g2=raw / normalizer,
            sigma=np.sqrt(raw) / normalizer,
            raw=raw,
            normalizer=normalizer,
            rate_a=1234.5678,
            rate_b=987.654321,
            total_time=0.1 + 0.2,
            resolution=1e-12,
        ),
        path,
    )


def _write_spot_table(path):
    spots = [
        SpotMeasurement("A1", 110.0, 10.0, n_emitters_g2=1),
        SpotMeasurement("B2", 210.0 / 3.0, 0.1, n_emitters_g2=None),
        SpotMeasurement("C3", 1e-300, 0.0, n_emitters_g2=0),
    ]
    write_spot_table(spots, [1, None, 0], path)


WRITER_SHA256 = {
    "pattern": (
        _write_pattern,
        "1a3f2bf46456d2609cbc5d41212e39d01cd525f7ab44b003ed3b07e89f3c5884",
    ),
    "spectrum": (
        _write_spectrum,
        "359f782284f3b3094f097232a07626af164143af8ab23e7fd2a71626dc9afdc8",
    ),
    "saturation": (
        _write_saturation,
        "0e09284259774654e4d38b8017e0d0a4e00255a9cdeb84bf24a104307f338137",
    ),
    "saturation_sigma": (
        _write_saturation_sigma,
        "1cd5fddc2dff4c7dbd3b0448d079128283bd9502933fe321f3516099525fe074",
    ),
    "decay": (
        _write_decay,
        "ffad7638bb57318a1df05bf0300732a956e94263c294c787b588ec20b0e57904",
    ),
    "histogram": (
        _write_histogram,
        "b217f65fc0b318d285fe1e4944c0833cb5c029942b9e38a5000f28a9de23ef12",
    ),
    "spot_table": (
        _write_spot_table,
        "dcc621b698fc533769f83be2cafd3d6c3e8e6563410afec77db44670974069c1",
    ),
}


@pytest.mark.parametrize("name", sorted(WRITER_SHA256))
def test_writer_bytes_unchanged(tmp_path, name):
    write, digest = WRITER_SHA256[name]
    path = tmp_path / f"{name}.csv"
    write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_tables_are_utf8_whatever_the_locale(tmp_path):
    # an ASCII locale with UTF-8 mode off: a writer that took the locale's
    # encoding would raise UnicodeEncodeError on the label
    table = tmp_path / "spots.csv"
    counts = tmp_path / "counts.txt"
    counts.write_text("0\n1\n1\n2\n")
    script = (
        "import sys\n"
        "from emitterforge.analysis import SpotMeasurement, read_spot_table, write_spot_table\n"
        "from emitterforge.cli import main\n"
        f"write_spot_table([SpotMeasurement('\\u00b5spot', 2.0, 1.0)], [1], {str(table)!r})\n"
        f"spots, estimates = read_spot_table({str(table)!r})\n"
        "assert spots[0].label == '\\u00b5spot' and estimates == [1], spots\n"
        f"sys.exit(main(['stats', {str(counts)!r}, '--out', {str(tmp_path / 'dist.csv')!r}]))\n"
    )
    src = str(Path(emitterforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONUTF8": "0"}
    env.pop("PYTHONIOENCODING", None)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert table.read_bytes().splitlines()[1] == b"\xc2\xb5spot,2,1,,1"
    assert (tmp_path / "dist.csv").read_text().startswith("# samples=4\n")


# ------------------------------------------------------- the shared dialect

DECAY_META = "# n_pulses=10 bin_width_ns=1\n"
DECAY_ROWS = "time_ns,counts\n0.5,1\n1.5,2\n"
SPECTRUM_ROWS = "wavelength_nm,intensity\n1270,1\n1271,2\n1272,1\n"
HIST_META = (
    "# bin_width_ps=3000 window_ps=3000 rate_a_cps=10 rate_b_cps=10 "
    "total_time_s=1 resolution_ps=1\n"
)
HIST_ROWS = "-3,1,1,9\n0,0.5,0.5,4\n3,1,1,9\n"


def _hist(**meta):
    """Histogram metadata and header, with the given metadata values."""
    text = HIST_META
    for key, value in meta.items():
        text = re.sub(rf"{key}=\S+", f"{key}={value}", text)
    return text + "tau_ns,g2,sigma,raw\n"


@pytest.mark.parametrize("text", ["1.7", "-2", "1e400", "nan", "x"])
def test_decay_count_must_be_a_count(tmp_path, text):
    p = tmp_path / "decay.csv"
    p.write_text(DECAY_META + f"time_ns,counts\n0.5,1\n1.5,{text}\n")
    with pytest.raises(FormatError, match="line 4") as err:
        read_decay_csv(p)
    assert err.value.offset == 4


def test_decay_count_may_be_an_integral_float(tmp_path):
    p = tmp_path / "decay.csv"
    p.write_text(DECAY_META + "time_ns,counts\n0.5,12.0\n1.5,1e3\n")
    assert read_decay_csv(p).counts.tolist() == [12, 1000]


def test_histogram_raw_may_be_an_integral_float(tmp_path):
    p = tmp_path / "g2.csv"
    p.write_text(_hist() + "-3,1,1,9\n0,0.5,0.5,4.0\n3,1,1,9\n")
    assert read_histogram_csv(p).raw.tolist() == [9, 4, 9]


@pytest.mark.parametrize(
    "read, text",
    [
        (read_spectrum_csv, "# zpl_nm=1278\n1270,1\n1271,2\n"),
        (read_pattern_csv, "# kind=custom\nA1,0,0,1\n"),
        (read_histogram_csv, HIST_META + HIST_ROWS),
    ],
)
def test_header_is_required(tmp_path, read, text):
    p = tmp_path / "table.csv"
    p.write_text(text)
    with pytest.raises(FormatError, match="line 2") as err:
        read(p)
    assert err.value.offset == 2


def test_comments_and_blank_lines_anywhere(tmp_path):
    p = tmp_path / "spots.csv"
    p.write_text("# census\nlabel,rate_cps,background_cps,n_g2,n_estimated\n# x\nA1,5,1,,2\n")
    spots, estimates = read_spot_table(p)
    assert [s.label for s in spots] == ["A1"] and estimates == [2]


# --------------------------------------------- malformed input ends in exit 4

# reader, CLI subcommand or None, file contents, line of the violation
MALFORMED = {
    "decay_n_pulses": (read_decay_csv, "decay", "# n_pulses=abc\n" + DECAY_ROWS, 1),
    "decay_count_1e400": (read_decay_csv, "decay", DECAY_META + DECAY_ROWS + "2.5,1e400\n", 5),
    "dw_zpl_nm": (read_spectrum_csv, "dw", "# zpl_nm=abc\n" + SPECTRUM_ROWS, 1),
    "pattern_pitch_um": (
        read_pattern_csv, None, "# pitch_um=abc\nlabel,x_um,y_um,expected_ions\nA1,0,0,1\n", 1
    ),
    "stats_1e400": (_read_counts, "stats", "0\n1\n1e400\n", 3),
    "decay_not_utf8": (read_decay_csv, "decay", b"\xff" + DECAY_ROWS.encode(), 1),
    "dw_not_utf8": (read_spectrum_csv, "dw", b"\xff" + SPECTRUM_ROWS.encode(), 1),
    "saturation_not_utf8": (read_saturation_csv, "saturation", b"\xffpower_uw,rate_cps\n", 1),
    "stats_not_utf8": (_read_counts, "stats", b"\xff0\n1\n", 1),
    "histogram_resolution_zero": (read_histogram_csv, None, _hist(resolution_ps=0) + HIST_ROWS, 1),
    "histogram_no_rows": (read_histogram_csv, None, _hist(), 3),
    "histogram_even_rows": (read_histogram_csv, None, _hist() + HIST_ROWS + "6,1,1,9\n", 6),
    "histogram_bin_past_2**62_ticks": (
        read_histogram_csv, None, _hist(bin_width_ps="1e300", resolution_ps="1e-300") + HIST_ROWS, 1
    ),
    "histogram_bin_below_a_tick": (
        read_histogram_csv, None, _hist(bin_width_ps=0.4) + HIST_ROWS, 1
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_format_error_and_exit_4(tmp_path, capsys, case):
    read, command, data, line = MALFORMED[case]
    p = tmp_path / "bad.csv"
    p.write_bytes(data.encode() if isinstance(data, str) else data)
    with pytest.raises(FormatError) as err:
        read(p)
    assert err.value.offset == line
    if command is not None:
        assert main([command, str(p)]) == 4
        assert f"line {line}" in capsys.readouterr().err


# ------------------------------------------------------------- reader fuzz

# reader and one valid file for it; the fuzz edits these files token by
# token, so it reaches the checks made after a table has been read
READERS = {
    "pattern": (
        read_pattern_csv,
        "# kind=custom pitch_um=10\nlabel,x_um,y_um,expected_ions\nA1,0,0,1\nB1,10,0,2\n",
    ),
    "spectrum": (read_spectrum_csv, "# zpl_nm=1278\n" + SPECTRUM_ROWS),
    "saturation": (read_saturation_csv, "power_uw,rate_cps,sigma_cps\n1,10,1\n2,20,1\n"),
    "decay": (read_decay_csv, DECAY_META + DECAY_ROWS),
    "histogram": (read_histogram_csv, _hist() + HIST_ROWS),
    "spot_table": (
        read_spot_table,
        "label,rate_cps,background_cps,n_g2,n_estimated\nA1,5,1,,2\nB1,6,1,1,\n",
    ),
    "stats": (
        _read_counts,
        "# config_hash=x seed=1\nlabel,n_ions,n_centers,rate_a_cps,rate_b_cps\nA1,3,1,10,10\n",
    ),
}
HEADERS = [
    "label,x_um,y_um,expected_ions",
    "wavelength_nm,intensity",
    "power_uw,rate_cps",
    "power_uw,rate_cps,sigma_cps",
    "time_ns,counts",
    "tau_ns,g2,sigma,raw",
    "label,rate_cps,background_cps,n_g2,n_estimated",
    "label,n_ions,n_centers,rate_a_cps,rate_b_cps",
]
META_KEYS = [
    "kind", "pitch_um", "zpl_nm", "n_pulses", "bin_width_ns", "bin_width_ps", "window_ps",
    "rate_a_cps", "rate_b_cps", "total_time_s", "resolution_ps",
]
VALUES = [
    "", "0", "1", "2", "-2", "3", "7", "1.7", "12.0", "1e3", "1e400", "-1e400", "1e-300",
    "1e300", "nan", "inf", "-0", "255", "256", str(2**63), str(2**63 - 1), "abc", " 4 ", "A1",
    "\u00b5", "1_0", ",", "\n", "#",
]
values = st.sampled_from(VALUES)
lines = st.one_of(
    st.sampled_from(HEADERS),
    st.builds(
        lambda pairs: "# " + " ".join(f"{k}={v}" for k, v in pairs),
        st.lists(st.tuples(st.sampled_from(META_KEYS), values), max_size=4),
    ),
    st.lists(st.one_of(values, st.text(max_size=4)), min_size=1, max_size=6).map(",".join),
    st.text(max_size=8),
).map(str.encode)
random_files = st.lists(st.one_of(lines, st.binary(max_size=4)), max_size=12).map(b"\n".join)


def edited(valid: str):
    """``valid`` with a few of its tokens (the text between commas, spaces,
    equals signs and line ends) replaced by awkward values."""
    tokens = re.split(r"([,= \n])", valid)

    def apply(edits):
        out = list(tokens)
        for index, value in edits:
            out[index] = value
        return "".join(out).encode()

    edit = st.tuples(st.integers(0, len(tokens) - 1), st.one_of(values, st.text(max_size=3)))
    return st.lists(edit, min_size=1, max_size=4).map(apply)


def _write(path, data: bytes):
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_fuzz_raises_only_package_errors(tmp_path_factory, name):
    path = tmp_path_factory.mktemp("fuzz") / "table.csv"
    read, valid = READERS[name]
    read(_write(path, valid.encode()))  # the unedited file is valid

    @settings(max_examples=200, deadline=None)
    @given(data=st.one_of(random_files, edited(valid)))
    def check(data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                read(_write(path, data))
            except (FormatError, DomainError, ConfigError):
                pass

    check()
