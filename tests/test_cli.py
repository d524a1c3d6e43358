import inspect
import os
import subprocess
import sys
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import emitterforge
from emitterforge import cli, fitkit
from emitterforge.analysis import debye_waller, fit_saturation
from emitterforge.cli import main
from emitterforge.errors import ConfigError, DomainError, FormatError
from emitterforge.photonsim import (
    DetectorModel,
    EmitterModel,
    run_detection,
    simulate_emitter_tags,
)
from emitterforge.timetags import TimeTagStream, merge_streams, read_timetags, write_timetags
from written import read_written

BASE_INI = """\
[pattern]
kind = fib_grid
pitch = 10 um
{rows}
[creation]
p_success = 0.16
atoms_per_center = 3

[emitter]
lifetime = 50 ns
sat_power = 150 uW
sat_rate = 2 Mcps

[background]
rate = 200 cps

[detectors]
efficiency = 0.2
dark_rate = 20 cps

[run]
{seed}duration = 0.02 s
power = 50 uW
"""


@pytest.fixture
def fib_ini(tmp_path):
    p = tmp_path / "fib.ini"
    p.write_text(BASE_INI.format(rows="", seed="seed = 11\n"))
    return p


@pytest.fixture
def small_ini(tmp_path):
    p = tmp_path / "small.ini"
    p.write_text(BASE_INI.format(rows="rows = 1\n", seed="seed = 11\n"))
    return p


def test_pattern_fib_grid_240_rows(fib_ini, tmp_path):
    out = tmp_path / "pat.csv"
    assert main(["pattern", str(fib_ini), str(out)]) == 0
    lines = out.read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#") and not l.startswith("label")]
    assert len(data) == 240


def test_pattern_mask_400_rows(tmp_path):
    ini = tmp_path / "mask.ini"
    ini.write_text("[pattern]\nkind = mask_holes\npitch = 5 um\nfluence_per_cm2 = 1e12\n")
    out = tmp_path / "mask.csv"
    assert main(["pattern", str(ini), str(out)]) == 0
    data = [
        l for l in out.read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("label")
    ]
    assert len(data) == 400


def test_pattern_missing_fluence_exit_2(tmp_path, capsys):
    ini = tmp_path / "mask.ini"
    ini.write_text("[pattern]\nkind = mask_holes\n")
    assert main(["pattern", str(ini), str(tmp_path / "x.csv")]) == 2
    assert "fluence_per_cm2" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[pattern]\nkind = fib_grid\nwibble = 1\n")
    assert main(["pattern", str(ini), str(tmp_path / "x.csv")]) == 2
    assert "wibble" in capsys.readouterr().err


def test_simulate_deterministic_byte_identical(small_ini, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", str(small_ini), str(d1)]) == 0
    assert main(["simulate", str(small_ini), str(d2)]) == 0
    files1 = sorted(p.name for p in d1.iterdir())
    files2 = sorted(p.name for p in d2.iterdir())
    assert files1 == files2
    assert "manifest.csv" in files1
    assert len(files1) == 17  # 16 sites + manifest
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_simulate_seed_flag_overrides_config(small_ini, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(small_ini), str(d1), "--seed", "99"]) == 0
    assert main(["simulate", str(small_ini), str(d2)]) == 0  # config seed 11
    assert (d1 / "manifest.csv").read_text() != (d2 / "manifest.csv").read_text()
    assert "seed=99" in (d1 / "manifest.csv").read_text().splitlines()[0]


def test_simulate_env_seed_fallback(tmp_path, monkeypatch):
    ini = tmp_path / "noseed.ini"
    ini.write_text(BASE_INI.format(rows="rows = 1\n", seed=""))
    out = tmp_path / "env"
    monkeypatch.setenv("EMITTERFORGE_SEED", "42")
    assert main(["simulate", str(ini), str(out)]) == 0
    assert "seed=42" in (out / "manifest.csv").read_text().splitlines()[0]


def test_simulate_no_seed_anywhere_exit_2(tmp_path, monkeypatch, capsys):
    ini = tmp_path / "noseed.ini"
    ini.write_text(BASE_INI.format(rows="rows = 1\n", seed=""))
    monkeypatch.delenv("EMITTERFORGE_SEED", raising=False)
    assert main(["simulate", str(ini), str(tmp_path / "x")]) == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_zero_duration_valid_outputs(tmp_path):
    ini = tmp_path / "zero.ini"
    ini.write_text(
        BASE_INI.format(rows="rows = 1\n", seed="seed = 5\n").replace(
            "duration = 0.02 s", "duration = 0 s"
        )
    )
    out = tmp_path / "z"
    assert main(["simulate", str(ini), str(out)]) == 0
    manifest = (out / "manifest.csv").read_text().splitlines()
    rows = [l for l in manifest if l and not l.startswith("#") and not l.startswith("label")]
    assert len(rows) == 16
    for row in rows:
        assert row.endswith(",0,0")  # zero rates on both arms
    tags = read_timetags(out / "A1.ttg")
    assert tags.n_tags == 0


def test_simulate_manifest_has_config_hash(small_ini, tmp_path):
    out = tmp_path / "m"
    main(["simulate", str(small_ini), str(out)])
    head = (out / "manifest.csv").read_text().splitlines()[0]
    assert head.startswith("# config_hash=")
    assert len(head.split("config_hash=")[1].split()[0]) == 64


def test_simulate_bad_resolution_exit_2_before_any_site(tmp_path, capsys):
    ini = tmp_path / "res.ini"
    ini.write_text(
        BASE_INI.format(rows="rows = 1\n", seed="seed = 5\nresolution = 1.5 ps\n")
    )
    out = tmp_path / "out"
    assert main(["simulate", str(ini), str(out)]) == 2
    assert "picoseconds" in capsys.readouterr().err
    assert not out.exists()  # refused before the first site, not at its write


def test_simulate_worker_io_error_exit_3(small_ini, tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(cli, "_worker_count", lambda n_sites: 2)
    out = tmp_path / "out"
    (out / "C1.ttg").mkdir(parents=True)  # the worker cannot write C1
    assert main(["simulate", str(small_ini), str(out)]) == 3
    err = capfd.readouterr().err
    assert err.startswith("i/o error:") and "C1.ttg" in err
    assert "Traceback" not in err
    assert not (out / "manifest.csv").exists()


@pytest.mark.parametrize("error,code", [(ConfigError, 2), (DomainError, 2), (FormatError, 4)])
def test_simulate_worker_error_keeps_exit_code(small_ini, tmp_path, monkeypatch, capfd, error, code):
    simulate_site = cli._simulate_site

    def failing(site, index, *rest):
        if index == 5:
            raise error(f"site {site.label} refused")
        return simulate_site(site, index, *rest)

    # the forked workers inherit the patched module
    monkeypatch.setattr(cli, "_simulate_site", failing)
    monkeypatch.setattr(cli, "_worker_count", lambda n_sites: 2)
    assert main(["simulate", str(small_ini), str(tmp_path / "out")]) == code
    err = capfd.readouterr().err
    assert "site F1 refused" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "case", ["one worker", "no fork", "daemonic caller", "another thread", "traced function"]
)
def test_simulate_maps_in_process_where_fork_is_unsafe(small_ini, tmp_path, monkeypatch, case):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli, "_worker_count", lambda n_sites: 1 if case == "one worker" else 2)
    if case == "no fork":
        monkeypatch.setattr(cli.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    if case == "daemonic caller":
        daemonic = types.SimpleNamespace(daemon=True)
        monkeypatch.setattr(cli.multiprocessing, "current_process", lambda: daemonic)
    calls = []
    if case == "traced function":
        run_detection = cli.run_detection

        def traced(*args, **kwargs):
            calls.append(args[0].n_tags)
            return run_detection(*args, **kwargs)

        monkeypatch.setattr(cli, "run_detection", traced)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30,))
    if case == "another thread":
        other.start()
    try:
        assert main(["simulate", str(small_ini), str(tmp_path / "out")]) == 0
    finally:
        stop.set()
        if other.is_alive():
            other.join(timeout=30)
    assert not other.is_alive()
    assert len(list((tmp_path / "out").iterdir())) == 17
    assert len(calls) == (16 if case == "traced function" else 0)


@pytest.fixture(scope="module")
def single_emitter_file(tmp_path_factory):
    # one bright two-level emitter through an HBT pair, both channels in
    # one file
    path = tmp_path_factory.mktemp("tags") / "single.ttg"
    em = EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)
    stream = simulate_emitter_tags(em, 150e-6, 8.0, seed=77)
    det = DetectorModel(efficiency=0.3)
    a, b = run_detection(stream, 0.5, det, det, seed=78)
    write_timetags(merge_streams(a, b), path)
    return path


def test_g2_reports_antibunching(single_emitter_file, capsys):
    assert main(["g2", str(single_emitter_file), "--bin", "2 ns", "--window", "300 ns"]) == 0
    out = capsys.readouterr().out
    report = {l.split()[0]: l.split()[1:] for l in out.splitlines() if l}
    assert float(report["g2_zero"][0]) < 0.5
    assert float(report["n_emitters"][0]) == pytest.approx(1.0, abs=0.2)


def test_g2_prints_fit_flags_after_existing_lines(single_emitter_file, monkeypatch, capsys):
    args = ["g2", str(single_emitter_file), "--bin", "2 ns", "--window", "300 ns"]
    fit_g2 = cli.fit_g2

    def with_flags(flags):
        def fit_with_flags(hist):
            fit = fit_g2(hist)
            fit.flags = flags
            return fit

        monkeypatch.setattr(cli, "fit_g2", fit_with_flags)
        assert main(args) == 0
        return capsys.readouterr().out.splitlines()

    plain = with_flags({})
    assert not any(line.startswith("flag") for line in plain)
    flagged = with_flags({"covariance_singular": True, "jacobian_flagged_columns": [3]})
    assert flagged == plain + ["flag covariance_singular", "flag jacobian_flagged_columns"]


def test_g2_rho_one_equals_raw(single_emitter_file, tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    cor = tmp_path / "cor.csv"
    assert main(["g2", str(single_emitter_file), "--bin", "2 ns", "--out", str(raw)]) == 0
    assert main(
        ["g2", str(single_emitter_file), "--bin", "2 ns", "--rho", "1.0", "--out", str(cor)]
    ) == 0
    assert raw.read_bytes() == cor.read_bytes()


def test_g2_histogram_past_memory_exit_2(single_emitter_file):
    # 2,000,000,001 bins of 1 ns need 16 GB per array; the address space is
    # capped at 2 GiB so the allocation fails at once on any machine
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "from emitterforge.cli import main\n"
        f"sys.exit(main(['g2', {str(single_emitter_file)!r}, '--window', '1 s']))\n"
    )
    src = str(Path(emitterforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("invalid value: 2000000001 bins")
    assert "Traceback" not in done.stderr


def test_g2_fit_past_memory_exit_2(single_emitter_file, monkeypatch, capsys):
    def fit_out_of_memory(hist):
        raise MemoryError("Unable to allocate 15.3 MiB")

    monkeypatch.setattr(cli, "fit_g2", fit_out_of_memory)
    assert main(["g2", str(single_emitter_file)]) == 2
    assert capsys.readouterr().err == "invalid value: out of memory: Unable to allocate 15.3 MiB\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_g2_rho_past_float_range_exit_2(single_emitter_file, tmp_path, capsys):
    # rho^2 = 1.6e-308 makes every fit weight 0.0; the refusal overflows
    # nothing, and the histogram is written before the fit
    out = tmp_path / "rho.csv"
    assert main(["g2", str(single_emitter_file), "--rho=1.26e-154", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "warning: rho = 1.26e-154 below 0.1; corrected g2 is unreliable",
        "invalid value: values to fit or their weights are out of float range",
    ]
    _, rows = read_written(out)
    assert sum(int(row["raw"]) for row in rows) > 0
    assert np.all(np.isfinite([float(row["g2"]) for row in rows]))


def test_g2_warning_is_one_stderr_line(single_emitter_file, tmp_path):
    # run as a program, where Python's own display would add the file, the
    # line number and the source line of the warning
    src = str(Path(emitterforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["g2", str(single_emitter_file), "--rho", "0.05", "--out", str(tmp_path / "h.csv")]
    done = subprocess.run(
        [sys.executable, "-m", "emitterforge.cli", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == "warning: rho = 0.05 below 0.1; corrected g2 is unreliable\n"


def test_main_restores_the_warning_display(single_emitter_file, tmp_path, capsys):
    before = warnings.showwarning
    argv = ["g2", str(single_emitter_file), "--rho", "0.05", "--out", str(tmp_path / "h.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().err.startswith("warning: rho = 0.05 below 0.1")
    assert warnings.showwarning is before


def test_g2_truncated_file_exit_4(single_emitter_file, tmp_path, capsys):
    clipped = tmp_path / "clipped.ttg"
    clipped.write_bytes(single_emitter_file.read_bytes()[:100])
    assert main(["g2", str(clipped)]) == 4
    assert "bytes" in capsys.readouterr().err


def test_g2_missing_file_exit_3(tmp_path, capsys):
    assert main(["g2", str(tmp_path / "absent.ttg")]) == 3


def test_g2_single_channel_exit_2(tmp_path, capsys):
    p = tmp_path / "one.ttg"
    em = EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)
    write_timetags(simulate_emitter_tags(em, 150e-6, 0.05, seed=1), p)
    assert main(["g2", str(p)]) == 2


def test_g2_delays_past_int64_exit_2(tmp_path, capsys):
    # tags 2**62 ticks either side of a stop: the binned delays of 1e18-tick
    # bins do not fit in int64, and the refusal names that limit
    p = tmp_path / "far.ttg"
    ticks = np.array([0, 2**62, 2**63 - 2], np.int64)
    write_timetags(TimeTagStream(1e-12, np.array([0, 1, 0], np.uint8), ticks, 1.0), p)
    assert main(["g2", str(p), "--bin", "1e6 s", "--window", "1e7 s"]) == 2
    assert "int64 limit of 2**63 ticks" in capsys.readouterr().err


def test_g2_huge_bins_write_an_unwrapped_histogram(tmp_path, capsys):
    # 1e18-tick bins: the outer bins lie past 2**63 ticks, and their tau
    # once wrapped to +-8446744073709551 ns
    p = tmp_path / "far.ttg"
    ticks = np.array([0, 2 * 10**18, 4 * 10**18], np.int64)
    write_timetags(TimeTagStream(1e-12, np.array([0, 1, 0], np.uint8), ticks, 5e6), p)
    out = tmp_path / "far_g2.csv"
    # the fit of one pair may end either way; the histogram is what is checked
    assert main(["g2", str(p), "--bin", "1000000 s", "--window", "10000000 s"]) in (0, 5)
    tau_ns = [float(line.split(",")[0]) for line in out.read_text().splitlines()[2:]]
    assert tau_ns[0] == -1e16 and tau_ns[-1] == 1e16
    assert tau_ns == sorted(tau_ns)


def test_stats_from_counts_file(tmp_path, capsys):
    counts = tmp_path / "counts.txt"
    counts.write_text("\n".join(["0"] * 60 + ["1"] * 30 + ["2"] * 10) + "\n")
    assert main(["stats", str(counts), "--k", "3", "--fit-mu"]) == 0
    out = capsys.readouterr().out
    assert "N,probability,lo68,hi68" in out
    assert "fitted_mu=" in out
    line1 = [l for l in out.splitlines() if l.startswith("0,")][0]
    assert float(line1.split(",")[1]) == pytest.approx(0.6)
    # the block sum of a huge k stops where the Poisson terms underflow
    assert main(["stats", str(counts), "--k", "1000000000", "--fit-mu"]) == 0


def test_stats_k_without_fit_mu_exit_2(tmp_path, capsys):
    counts = tmp_path / "counts.txt"
    counts.write_text("0\n1\n1\n2\n")
    assert main(["stats", str(counts), "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--fit-mu" in captured.err
    # --fit-mu alone fits at k = 1
    assert main(["stats", str(counts), "--fit-mu"]) == 0
    alone = capsys.readouterr().out
    assert main(["stats", str(counts), "--fit-mu", "--k", "1"]) == 0
    assert capsys.readouterr().out == alone


def test_stats_from_manifest(small_ini, tmp_path, capsys):
    out_dir = tmp_path / "sim"
    main(["simulate", str(small_ini), str(out_dir)])
    assert main(["stats", str(out_dir / "manifest.csv")]) == 0
    out = capsys.readouterr().out
    assert "samples=16" in out


def test_stats_all_zero_degenerate(tmp_path, capsys):
    counts = tmp_path / "zeros.txt"
    counts.write_text("0\n0\n0\n0\n")
    assert main(["stats", str(counts)]) == 0
    assert "degenerate=true" in capsys.readouterr().out


def test_stats_empty_input_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["stats", str(empty)]) == 2


def test_stats_bad_line_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0\n1\ntwo\n")
    assert main(["stats", str(bad)]) == 4
    assert "line 3" in capsys.readouterr().err


def test_stats_out_writes_what_stats_prints(tmp_path, capsys):
    counts = tmp_path / "counts.txt"
    counts.write_text("0\n0\n1\n3\n")
    assert main(["stats", str(counts), "--fit-mu"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "dist.csv"
    assert main(["stats", str(counts), "--fit-mu", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


@pytest.fixture
def saturation_csv(tmp_path):
    from emitterforge.analysis import saturation_model, write_saturation_csv

    p = np.linspace(10e-6, 880e-6, 12)
    path = tmp_path / "sat.csv"
    write_saturation_csv(p, saturation_model(p, 13000.0, 110e-6, 0.0), path)
    return path


def test_saturation_subcommand(saturation_csv, capsys):
    assert main(["saturation", str(saturation_csv)]) == 0
    report = capsys.readouterr().out
    sat_line = [l for l in report.splitlines() if l.startswith("sat_rate")][0]
    assert float(sat_line.split()[1]) == pytest.approx(13000.0, rel=1e-4)


@pytest.mark.parametrize("dwell", ["0", "-1s"])
def test_saturation_bad_dwell_exit_2(saturation_csv, capsys, dwell):
    assert main(["saturation", str(saturation_csv), f"--dwell={dwell}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid value: dwell time")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_saturation_dwell_past_float_range_exit_2(saturation_csv, capsys):
    # sigma near 8e-150 puts |rate| / sigma near 2**508, where the normal
    # matrix of the fit would overflow: refused before the fit starts
    assert main(["saturation", str(saturation_csv), "--dwell=1.5e303s"]) == 2
    assert capsys.readouterr().err == (
        "invalid value: values to fit or their weights are out of float range\n"
    )


def _decay_csv(path):
    from emitterforge.photonsim import DecayHistogram, write_decay_csv

    t = np.arange(0.0, 500e-9, 1e-9)
    y = np.zeros(t.size)
    y[10:] = 6000.0 * np.exp(-(t[10:] - t[10]) / 25e-9)
    counts = np.random.default_rng(2).poisson(y + 10.0)
    write_decay_csv(DecayHistogram(t, counts, 1e-9, 100_000), path)


def _spectrum_csv(path):
    from emitterforge.analysis import Spectrum, write_spectrum_csv

    wl = np.linspace(1.255e-6, 1.40e-6, 600)
    y = (
        np.exp(-0.5 * ((wl - 1.278e-6) / 2e-9) ** 2)
        + 0.25 * np.exp(-0.5 * ((wl - 1.310e-6) / 16e-9) ** 2)
    )
    write_spectrum_csv(Spectrum(wavelength=wl, intensity=y), path)


def test_decay_subcommand(tmp_path, capsys):
    path = tmp_path / "decay.csv"
    _decay_csv(path)
    assert main(["decay", str(path)]) == 0
    out = capsys.readouterr().out
    tau_line = [l for l in out.splitlines() if l.startswith("tau_fast")][0]
    assert float(tau_line.split()[1]) == pytest.approx(25e-9, rel=0.05)


def test_decay_flat_histogram_exit_5(tmp_path, capsys):
    from emitterforge.photonsim import DecayHistogram, write_decay_csv

    t = np.arange(0.0, 200e-9, 1e-9)
    counts = np.random.default_rng(3).poisson(5.0, t.size)
    path = tmp_path / "flat.csv"
    write_decay_csv(DecayHistogram(t, counts, 1e-9, 1000), path)
    assert main(["decay", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("no fit: ") and len(captured.err.splitlines()) == 1


def test_dw_subcommand(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    _spectrum_csv(path)
    assert main(["dw", str(path), "--psb", "1"]) == 0
    out = capsys.readouterr().out
    dw_line = [l for l in out.splitlines() if l.startswith("dw ")][0]
    # areas: 1*2 vs 0.25*16 -> DW = 1/3
    assert float(dw_line.split()[1]) == pytest.approx(1.0 / 3.0, abs=0.01)
    # 5 + 3 * 200 parameters for 600 points: refused before any fit
    assert main(["dw", str(path), "--psb", "200"]) == 2
    assert "more than the 600 spectrum points" in capsys.readouterr().err


@pytest.mark.parametrize("command,first,write", [
    ("g2", "histogram", None), ("saturation", "sat_rate", None),
    ("decay", "amp_fast", _decay_csv), ("dw", "dw", _spectrum_csv),
])
def test_unconverged_fit_exit_5(command, first, write, single_emitter_file, saturation_csv,
                                tmp_path, monkeypatch, capsys):
    # no iteration allowed: every fit ends unconverged, still reports its
    # result lines and names the failure in one stderr line
    path = {"g2": single_emitter_file, "saturation": saturation_csv}.get(command, tmp_path / "in.csv")
    if write:
        write(path)
    monkeypatch.setattr(fitkit, "MAX_ITERATIONS", 0)
    assert main([command, str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].split()[0] == first
    assert len(captured.err.splitlines()) == 1
    assert "did not converge" in captured.err


@pytest.mark.parametrize(
    "argv,dest,function,param",
    [
        (["saturation", "sweep.csv"], "dwell", fit_saturation, "dwell_time"),
        (["dw", "spectrum.csv"], "psb", debye_waller, "n_psb"),
        (["dw", "spectrum.csv"], "method", debye_waller, "method"),
    ],
)
def test_parser_defaults_are_the_functions_defaults(argv, dest, function, param):
    args = cli._build_parser().parse_args(argv)
    assert getattr(args, dest) == inspect.signature(function).parameters[param].default


def test_cli_runs_without_scipy(small_ini, tmp_path):
    # numpy is the only runtime dependency: scipy is for the tests alone
    counts = tmp_path / "counts.txt"
    counts.write_text("0\n1\n1\n2\n")
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import emitterforge\n"
        "from emitterforge.cli import main\n"
        f"assert main(['stats', {str(counts)!r}]) == 0\n"
        f"assert main(['simulate', {str(small_ini)!r}, {str(tmp_path / 'sim')!r}]) == 0\n"
    )
    src = str(Path(emitterforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sim" / "manifest.csv").is_file()


@pytest.mark.parametrize(
    "argv",
    [["stats", "counts.txt", "--fit-mu", "--k=--"], ["g2", "tags.ttg", "--bin=--"],
     ["dw", "spectrum.csv", "--psb=--"]],
)
def test_double_dash_option_value_exit_2(argv, capsys):
    # "--" as a value once reached the subcommand as an empty list
    assert main(argv) == 2
    assert "expected one argument" in capsys.readouterr().err


def test_bad_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2
