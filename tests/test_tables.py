"""The text tables: writer bytes, the shared dialect, reader errors and a
reader fuzz. Patterns, g2 histograms and spot tables are written only; the
round-trip tests of their writers parse the bytes with the ``csv`` module.

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
    write_saturation_csv,
    write_spectrum_csv,
    write_spot_table,
)
from emitterforge.cli import _read_counts, main
from emitterforge.correlator import G2Histogram, write_histogram_csv
from emitterforge.errors import ConfigError, DomainError, FormatError
from emitterforge.implantation import build_pattern, write_pattern_csv
from emitterforge.photonsim import DecayHistogram, read_decay_csv, write_decay_csv
from emitterforge.tables import write_table

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


def _rendered(header, columns, fmt) -> bytes:
    """The table as one ``fmt % row`` per row renders it: the reference for
    ``write_table``, which formats each distinct value of a numpy column once."""
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    return (header + "\n" + "".join(fmt % row + "\n" for row in rows)).encode()


# NaN with three payloads, the sign bit set on the last
_NANS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000], np.uint64).view(float)

WRITER_TABLES = {
    "repeated": (
        np.tile([0.1, 1 / 3], 50),
        np.repeat([2.5, 1e-300, 2.5, 7.0], 25),
        np.repeat(np.arange(4, dtype=np.int64), 25),
    ),
    "distinct": (
        np.linspace(-1.0, 1.0, 101) * np.pi,
        np.arange(101, dtype=np.int64) * (2**62 // 101),
        np.geomspace(1e-300, 1e300, 101),
    ),
    "signed_zeros": (
        np.array([0.0, -0.0, 0.0, -0.0, 1.0]),
        np.array([-0.0, -0.0, 0.0, 5e-324, -5e-324]),
        np.array([0, 0, 1, 0, 1], np.int64),
    ),
    "nan_and_inf": (
        np.concatenate([_NANS, [np.inf, -np.inf, 1.0, np.nan]]),
        np.concatenate([[np.inf], _NANS[::-1], [-np.inf, np.inf, -0.0]]),
        np.array([3, 2, 1, 0, -1, -2, -3], np.int64),
    ),
    "int64_extremes": (
        np.array([-(2**63), 2**63 - 1, 0, -1, 2**63 - 1], np.int64).astype(float),
        np.array([2**53 + 1, 2**53, -(2**53) - 1, 1, 2**53 + 1], np.int64).astype(float),
        np.array([-(2**63), 2**63 - 1, 0, -1, 2**63 - 1], np.int64),
    ),
    "lists_and_tuples": (
        [0.1, -0.0, 0.1, float("nan"), 0.0],
        (1.5, 1.5, float("-inf"), 2**63 - 1, -0.0),
        [1, 2, 1, 2**62, 1],
    ),
}


@pytest.mark.parametrize("name", sorted(WRITER_TABLES))
def test_write_table_renders_fmt_row_by_row(tmp_path, name):
    columns = WRITER_TABLES[name]
    path = tmp_path / f"{name}.csv"
    for fmt in ("%.17g,%.17g,%d", "%s,%r,%.3e"):
        write_table(path, "x,y,n", columns, fmt)
        assert path.read_bytes() == _rendered("x,y,n", columns, fmt)


def test_write_table_renders_other_dtypes_and_no_rows(tmp_path):
    columns = (
        np.array([0.1, -0.0, 0.1, np.nan], np.float32),
        np.array([True, False, True, True]),
        np.array([255, 0, 255, 7], np.uint8),
        np.array(["a", "b", "a", "µ"]),
    )
    path = tmp_path / "dtypes.csv"
    write_table(path, "x,b,u,s", columns, "%.9g,%s,%d,%s")
    assert path.read_bytes() == _rendered("x,b,u,s", columns, "%.9g,%s,%d,%s")
    assert path.read_bytes().splitlines()[1:3] == [b"0.100000001,True,255,a", b"-0,False,0,b"]
    # no rows: the header alone, as from the rows of an empty pattern
    write_table(path, "label,x", zip(*[]), "%s,%.17g")
    assert path.read_bytes() == b"label,x\n"


@settings(deadline=None, max_examples=100)
@given(
    values=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, 0.1]), st.floats()),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_table_renders_drawn_columns(tmp_path_factory, values, seed):
    rng = np.random.default_rng(seed)
    column = np.array(values)
    columns = (column, rng.permutation(column), rng.integers(-3, 3, column.size), list(column))
    path = tmp_path_factory.mktemp("drawn") / "t.csv"
    write_table(path, "a,b,n,l", columns, "%.17g,%r,%d,%.17g")
    assert path.read_bytes() == _rendered("a,b,n,l", columns, "%.17g,%r,%d,%.17g")


def test_tables_are_utf8_whatever_the_locale(tmp_path):
    # an ASCII locale with UTF-8 mode off: a writer that took the locale's
    # encoding would raise UnicodeEncodeError on the label
    table = tmp_path / "spots.csv"
    counts = tmp_path / "counts.txt"
    counts.write_text("0\n1\n1\n2\n")
    script = (
        "import sys\n"
        "from emitterforge.analysis import SpotMeasurement, write_spot_table\n"
        "from emitterforge.cli import main\n"
        f"write_spot_table([SpotMeasurement('\\u00b5spot', 2.0, 1.0)], [1], {str(table)!r})\n"
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


@pytest.mark.parametrize("text", ["1.7", "-2", "1e400", "nan", "x", str(2**63)])
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


@pytest.mark.parametrize(
    "read, text",
    [
        (read_spectrum_csv, "# zpl_nm=1278\n1270,1\n1271,2\n"),
        (read_saturation_csv, "# x\n1,10\n2,20\n"),
        (read_decay_csv, DECAY_META + "0.5,1\n1.5,2\n"),
    ],
)
def test_header_is_required(tmp_path, read, text):
    p = tmp_path / "table.csv"
    p.write_text(text)
    with pytest.raises(FormatError, match="line 2") as err:
        read(p)
    assert err.value.offset == 2


def test_comments_and_blank_lines_anywhere(tmp_path):
    p = tmp_path / "decay.csv"
    p.write_text("# n_pulses=10\n\ntime_ns,counts\n# bin_width_ns=2\n0.5,1\n\n# x\n1.5,2\n")
    hist = read_decay_csv(p)
    assert hist.counts.tolist() == [1, 2] and (hist.n_pulses, hist.bin_width) == (10, 2e-9)


# --------------------------------------------- malformed input ends in exit 4

# reader, CLI subcommand or None, file contents, line of the violation
MALFORMED = {
    "decay_n_pulses": (read_decay_csv, "decay", "# n_pulses=abc\n" + DECAY_ROWS, 1),
    "decay_count_1e400": (read_decay_csv, "decay", DECAY_META + DECAY_ROWS + "2.5,1e400\n", 5),
    "decay_one_row": (read_decay_csv, None, DECAY_META + "time_ns,counts\n0.5,1\n", 4),
    "dw_zpl_nm": (read_spectrum_csv, "dw", "# zpl_nm=abc\n" + SPECTRUM_ROWS, 1),
    "saturation_rate_abc": (
        read_saturation_csv, "saturation", "power_uw,rate_cps\n1,10\n2,abc\n", 3
    ),
    "stats_1e400": (_read_counts, "stats", "0\n1\n1e400\n", 3),
    "decay_not_utf8": (read_decay_csv, "decay", b"\xff" + DECAY_ROWS.encode(), 1),
    "dw_not_utf8": (read_spectrum_csv, "dw", b"\xff" + SPECTRUM_ROWS.encode(), 1),
    "saturation_not_utf8": (read_saturation_csv, "saturation", b"\xffpower_uw,rate_cps\n", 1),
    "stats_not_utf8": (_read_counts, "stats", b"\xff0\n1\n", 1),
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
    "spectrum": (read_spectrum_csv, "# zpl_nm=1278\n" + SPECTRUM_ROWS),
    "saturation": (read_saturation_csv, "power_uw,rate_cps,sigma_cps\n1,10,1\n2,20,1\n"),
    "decay": (read_decay_csv, DECAY_META + DECAY_ROWS),
    "stats": (
        _read_counts,
        "# config_hash=x seed=1\nlabel,n_ions,n_centers,rate_a_cps,rate_b_cps\nA1,3,1,10,10\n",
    ),
}
# the headers and metadata keys of every table the package writes, so a
# reader also meets the tables it does not read
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
