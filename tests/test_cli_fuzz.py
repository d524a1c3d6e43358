"""Fuzzed option values and TTG1 bytes through ``emitterforge.cli.main``.

Whatever the values, a run ends in an exit code of the CLI's contract
(0 success, 2 configuration error or invalid value, 3 I/O error, 4 data
format error, 5 fit failure), never in an exception. Each call runs under
an address-space cap a little above the process's current size, so a
value that asks for a huge allocation fails at once instead of taking the
machine's memory.
"""
import contextlib
import io
import resource
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitterforge.analysis import (
    Spectrum,
    saturation_model,
    write_saturation_csv,
    write_spectrum_csv,
)
from emitterforge.cli import main
from emitterforge.photonsim import (
    DetectorModel,
    EmitterModel,
    run_detection,
    simulate_emitter_tags,
)
from emitterforge.timetags import merge_streams, write_timetags

EXIT_CODES = {0, 2, 3, 4, 5}
HEADROOM = 256 << 20  # bytes of address space a fuzzed call may add
TTG_HEADER = struct.Struct("<4sHQQ")
# derandomized, so every run draws the same examples and takes the same time
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


@contextlib.contextmanager
def capped_address_space():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/status") as fh:
        size = next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmSize:"))
    cap = size + HEADROOM
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with capped_address_space():
            code = main(argv)
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


numbers = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.text(alphabet="0123456789.-+eE", max_size=8),
)
integers = st.one_of(st.integers(-(10**12), 10**12).map(str), numbers)


def quantities(*units: str):
    """``<number>[ ]<unit>`` with the option's own units, a unit of another
    dimension, no unit or a malformed one, or any short text."""
    unit = st.sampled_from((*units, "", "uW", "kcps", "µs", "x"))
    return st.one_of(
        st.builds("{}{}{}".format, numbers, st.sampled_from(("", " ")), unit),
        st.text(max_size=10),
    )


times = quantities("s", "ms", "us", "ns", "ps")
lengths = quantities("m", "mm", "um", "nm", "pm")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    em = EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)
    det = DetectorModel(efficiency=0.3)
    a, b = run_detection(simulate_emitter_tags(em, 150e-6, 0.02, seed=5), 0.5, det, det, seed=6)
    write_timetags(merge_streams(a, b), root / "tags.ttg")
    p = np.linspace(10e-6, 880e-6, 12)
    write_saturation_csv(p, saturation_model(p, 13000.0, 110e-6, 0.0), root / "sat.csv")
    wl = np.linspace(1.255e-6, 1.40e-6, 300)
    y = np.exp(-0.5 * ((wl - 1.278e-6) / 2e-9) ** 2) + 0.25 * np.exp(
        -0.5 * ((wl - 1.310e-6) / 16e-9) ** 2
    )
    write_spectrum_csv(Spectrum(wavelength=wl, intensity=y), root / "spec.csv")
    (root / "counts.txt").write_text("0\n1\n1\n2\n0\n3\n1\n")
    return root


def options(**strategies):
    """``--name=value`` for a subset of the named value strategies."""
    return st.fixed_dictionaries({}, optional=strategies).map(
        lambda chosen: [f"--{name}={value}" for name, value in chosen.items()]
    )


@FUZZ
@given(args=options(bin=times, window=times, rho=numbers))
def test_g2_options(files, args):
    run(["g2", str(files / "tags.ttg"), "--out", str(files / "g2.csv"), *args])


@FUZZ
@given(args=options(dwell=times))
def test_saturation_options(files, args):
    run(["saturation", str(files / "sat.csv"), *args])


@FUZZ
@given(args=options(zpl=lengths, halfwidth=lengths, psb=integers))
def test_dw_options(files, args):
    run(["dw", str(files / "spec.csv"), *args])


@FUZZ
@given(k=integers)
def test_stats_k(files, k):
    run(["stats", str(files / "counts.txt"), "--fit-mu", f"--k={k}"])


records = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**64 - 1)), max_size=40)
ttg_files = st.one_of(
    st.binary(max_size=80),
    st.builds(
        lambda magic, version, res_ps, recs, sort: TTG_HEADER.pack(
            magic, version, res_ps, len(recs)
        ) + b"".join(
            struct.pack("<BQ", ch, ts)
            for ch, ts in (sorted(recs, key=lambda r: r[1]) if sort else recs)
        ),
        st.sampled_from((b"TTG1", b"TTG2", b"\0\0\0\0")),
        st.sampled_from((1, 0, 2)),
        st.one_of(st.integers(0, 2**64 - 1), st.sampled_from((1, 1000, 10**12))),
        records,
        st.booleans(),
    ),
)


@FUZZ
@given(data=ttg_files)
def test_g2_tag_bytes(files, data):
    path = files / "fuzzed.ttg"
    path.write_bytes(data)
    run(["g2", str(path), "--out", str(files / "fuzzed_g2.csv")])
