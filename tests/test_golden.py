"""Golden byte-identity of ``emitterforge simulate``, ``emitterforge g2``,
the fit subcommands (``saturation``, ``decay``, ``dw``) and
``run_detection``.

A small dose-ladder run with every detector imperfection switched on
(background, efficiency, jitter, dead time, dark counts) and sites holding
0 to 3 centres, so the emitter merge, the background merge, the dead-time
filter and the arm merge all act on the written bytes. The digests pin the
output of the exact sampler and detection chain under a fixed seed: a
rewrite of the detection or merge layers must leave every byte unchanged.

A deliberate change of the random draw order (for example an exact
two-level sampler that replaces the geometric/gamma draws) changes these
bytes by design. Such a change must regenerate the digests below and
record the change of outputs in CHANGES.md. The efficiency = 0.6 digests
were last regenerated when ``simulate`` began to fold the detector
efficiency into the source rates.

The same run is pinned a second time with detector efficiency 1. There
``simulate`` folds nothing into the source rates and the detector draws
no efficiency thinning, so those digests keep the sampler and the rest of
the detection chain pinned across a change that only moves the
efficiency step (the efficiency 0.6 digests change with it).

The digests were taken with numpy 2.4.6. numpy does not promise that its
``Generator`` draws (gamma, exponential, normal, binomial) stay the same
across versions, so under another numpy a mismatch may come from numpy
rather than from this package; the failure message names both versions.
"""
import hashlib

import numpy as np
import pytest

from emitterforge import cli
from emitterforge.analysis import (
    Spectrum,
    saturation_model,
    write_saturation_csv,
    write_spectrum_csv,
)
from emitterforge.cli import main
from emitterforge.photonsim import (
    DecayHistogram,
    DetectorModel,
    EmitterModel,
    run_detection,
    simulate_emitter_tags,
    write_decay_csv,
)

# the numpy version the digests below were taken with
GOLDEN_NUMPY = "2.4.6"

GOLDEN_INI = """\
[pattern]
kind = fib_grid
pitch = 10 um
rows = 1

[creation]
p_success = 0.5
atoms_per_center = 2

[emitter]
lifetime = 50 ns
sat_power = 150 uW
sat_rate = 2 Mcps

[background]
rate = 5 kcps

[detectors]
efficiency = 0.6
jitter = 80 ps
dead_time = 300 ns
dark_rate = 2 kcps

[run]
seed = 23
duration = 0.004 s
power = 300 uW
"""

GOLDEN_SHA256 = {
    "A1.ttg": "e47b915e1b257d2b2cd5153c951d34ed66f84f75e7f9fd4bc83eef8e96680881",
    "B1.ttg": "4d1d0be171b016125b5d4dea0f8176a182e3fe95c534900b81117531cd051917",
    "C1.ttg": "ec791434a5fe4561587d8185c9f9d95325a9d5e6d127afa1c2cb425a17694b7c",
    "D1.ttg": "de68b5504bf0a83668e1bad8bf2b531369893378dc2a59a9f686d4fc937fffbb",
    "E1.ttg": "a01ba632c6dcf4b8cf4845ad4febc2a8f4babccec4bfd21da4fc9f14e7405d05",
    "F1.ttg": "f78d07eeb973960d57b454f4af59ad04293f5aff3b93f91550d0693cdcb261ca",
    "G1.ttg": "a10aae62571e0ae0dc90c351a67f17919bf071c7ddfb7e0a2a3410bfaa02778d",
    "H1.ttg": "c798b5a808ae29f79a8a4b06270b69658d6d50f4e216ef19c172aa2608d26d3f",
    "I1.ttg": "df82a1ecea63bc6368b14b45b94bd723b04ac0be98ad1ef29555baafdc73cc67",
    "J1.ttg": "fcae9d5c089f751dd037c801a84d7336ae9aba8d6d1f13c497702122e95309b9",
    "K1.ttg": "8ab681869e91f7f10caf26f1b760e88248411a23a2e5aa3d4df5ee5ae31fb044",
    "L1.ttg": "76f1edb14afece0ae44780a53456adf4e3c4f2b3c52db5d643305d441152cd0d",
    "M1.ttg": "4321ca060571af0db5f508462f8eaa4dfe7790aa663e6decf1f600cc5c847e3c",
    "N1.ttg": "632fde99f630c544f0da8ce23e3fb31492584373ce25a1b3a7ec2c0388a04e80",
    "O1.ttg": "0f91652ae965d76c65501ca2f33be34fca251b17451bc3bebafe6bb26c256960",
    "P1.ttg": "8cbbafa570f5717dc8b5df9630784686fa7355c699d4f29ea74d0486d7a91464",
    "manifest.csv": "3d20113da8e2e1554dd0944b1e800f99971bbdb5608400d33acf3282aa5733a1",
}


# the same run with a perfect detector
UNIT_EFFICIENCY_INI = GOLDEN_INI.replace("efficiency = 0.6", "efficiency = 1")

UNIT_EFFICIENCY_SHA256 = {
    "A1.ttg": "ce6de7c37df25a81858798445d26efa01227498db35361fd116ffce367ee67d5",
    "B1.ttg": "b492bf65dee72c29cab7c029ed2c06a309aebd429ade25de25194b7e45ffc060",
    "C1.ttg": "757be93ce68575c88b161d312899489d40cfcdca848598ce8a418d225e2c7932",
    "D1.ttg": "d188359e00eedcc452acc60d658a8793c10dd01e8027fee69693fdaca5cbcef6",
    "E1.ttg": "86e028a3bde1c78a50ec9e2eecbb28afd8fd0d1e516ec7fc0f13a0b346735a40",
    "F1.ttg": "518abeb9672f8b361ff3cdf785adbfc94806702cdb144729a94162182a8e3863",
    "G1.ttg": "1c2bcb1757ab0867c05de3b1deea1111da187b46a3909875ab095b694de30384",
    "H1.ttg": "52a3259fcc2c0f72d0d331f6f44fdb87e581c2526ba578e4ac5338547015cc3f",
    "I1.ttg": "521885b465b49421dec08cbd73612186aab0b9c67ee771f270a360b894b34f23",
    "J1.ttg": "27151b4b69a98bcf2550a0a51bd77b2ccd191979375478aa4533e1b4af51ecf0",
    "K1.ttg": "664003574487ff2bbdc0fc4c0993824b430e3d1af096904d30e3c904d071a0af",
    "L1.ttg": "13f8c0c46936e21f4b01c0cabc1d70b935fd704c5f48a0798078bf14d9c1c013",
    "M1.ttg": "f8226dda5254c3d1c642db6c468b5c6b44f41b7c8a326dc13d11f111e30b9ec7",
    "N1.ttg": "ee759b8c0df9b840c8c94076625c746939a887ad1a5aaf29de63b07a0a5f3181",
    "O1.ttg": "52d6d7b586a7dbcec7ddde6b43743614446359058745f2975eb7ece3e35e0073",
    "P1.ttg": "8049663c7cfa092257788d91d68516b78c93b1bccc634db4ba042cb6b26b071b",
    "manifest.csv": "e297c251708d15de0a90adef1a66b0bb0dab06ef37f7a06b1d007152b3dda2b7",
}


def _digests(tmp_path, ini_text, name):
    """SHA-256 of every file a ``simulate`` run of ``ini_text`` writes."""
    ini = tmp_path / f"{name}.ini"
    ini.write_text(ini_text)
    out = tmp_path / name
    assert main(["simulate", str(ini), str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def _check_digests(tmp_path, monkeypatch, ini_text, expected):
    """The digests hold with the sites run in this process and on two
    worker processes."""
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_worker_count", lambda n_sites: workers)
        digests = _digests(tmp_path, ini_text, name=f"workers{workers}")
        assert sorted(digests) == sorted(expected)
        changed = sorted(name for name in digests if digests[name] != expected[name])
        assert not changed, (
            f"output bytes changed in {changed} at {workers} worker(s) (digests "
            f"taken with numpy {GOLDEN_NUMPY}, running numpy {np.__version__})"
        )


def test_simulate_output_matches_golden_digests(tmp_path, monkeypatch):
    _check_digests(tmp_path, monkeypatch, GOLDEN_INI, GOLDEN_SHA256)


def test_simulate_unit_efficiency_matches_golden_digests(tmp_path, monkeypatch):
    _check_digests(tmp_path, monkeypatch, UNIT_EFFICIENCY_INI, UNIT_EFFICIENCY_SHA256)


def test_serial_and_parallel_runs_write_identical_bytes(tmp_path, monkeypatch):
    """A three-row grid (48 sites) run in this process and on three worker
    processes: every file, the manifest included, is the same byte for
    byte."""
    ini_text = GOLDEN_INI.replace("rows = 1", "rows = 3").replace("0.004 s", "0.002 s")
    runs = {}
    for workers in (1, 3):
        monkeypatch.setattr(cli, "_worker_count", lambda n_sites: workers)
        runs[workers] = _digests(tmp_path, ini_text, name=f"workers{workers}")
    assert len(runs[1]) == 49
    assert runs[1] == runs[3]


# ``emitterforge g2`` on the single-emitter site F1 of the golden run made
# ten times longer, so the site shows its dip: the histogram CSV and the
# printed fit
G2_INI = GOLDEN_INI.replace("0.004 s", "0.04 s")
G2_SITE = "F1.ttg"
G2_ARGS = ["--bin", "2 ns", "--window", "300 ns", "--out", "g2.csv"]
G2_SHA256 = {
    "histogram": "e8562ccbc8e8766130bcedab6517e1958c6b90f1fb949530505ab18cf764592b",
    "stdout": "7ddb6420ba89bd73b5812ef6ebf26f57ea2e303eb36f8ed01870c441227d59ec",
}


def test_g2_on_a_golden_tag_file_matches_golden_digests(tmp_path, monkeypatch, capsys):
    ini = tmp_path / "golden.ini"
    ini.write_text(G2_INI)
    assert main(["simulate", str(ini), str(tmp_path / "run")]) == 0
    monkeypatch.chdir(tmp_path)  # the printed histogram path is relative
    capsys.readouterr()
    assert main(["g2", str(tmp_path / "run" / G2_SITE), *G2_ARGS]) == 0
    digests = {
        "histogram": hashlib.sha256((tmp_path / "g2.csv").read_bytes()).hexdigest(),
        "stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
    }
    assert digests == G2_SHA256, (
        f"g2 output changed (digests taken with numpy {GOLDEN_NUMPY},"
        f" running numpy {np.__version__})"
    )


# ``run_detection`` through the API with efficiency below 1 on both arms:
# ``simulate`` folds the efficiency into the source rates, so only this
# digest pins the efficiency thinning
DETECTION_SHA256 = "1882076fcac3b594f08e5f852fef5d700d252cd1ba1f3289d871220b8b56598f"


def test_run_detection_with_efficiency_thinning_matches_golden_digest():
    model = EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)
    stream = simulate_emitter_tags([model, model], 300e-6, 0.01, seed=31)
    det_a = DetectorModel(efficiency=0.6, jitter_sigma=80e-12, dead_time=300e-9, dark_rate=2e3)
    det_b = DetectorModel(efficiency=0.35)
    arms = run_detection(stream, 0.45, det_a, det_b, seed=32)
    digest = hashlib.sha256()
    for arm in arms:
        digest.update(arm.channels.tobytes())
        digest.update(arm.timestamps.tobytes())
    assert digest.hexdigest() == DETECTION_SHA256, (
        f"detected tags changed (digest taken with numpy {GOLDEN_NUMPY},"
        f" running numpy {np.__version__})"
    )


# the printed fits of ``saturation``, ``decay`` and ``dw``, each on an input
# written from a fixed formula with seeded noise
def _saturation_input(path):
    power = np.geomspace(5e-6, 2e-3, 14)
    rate = saturation_model(power, 1.3e4, 110e-6, 2e6)
    sigma = np.sqrt(rate)
    noisy = rate + sigma * np.random.default_rng(41).standard_normal(power.size)
    write_saturation_csv(power, noisy, path, sigma)


def _decay_input(path):
    t = np.arange(0.0, 400e-9, 1e-9)
    y = np.zeros(t.size)
    y[8:] = 5e3 * np.exp(-(t[8:] - t[8]) / 20e-9) + 8e2 * np.exp(-(t[8:] - t[8]) / 150e-9)
    counts = np.random.default_rng(42).poisson(y + 6.0)
    write_decay_csv(DecayHistogram(t, counts, 1e-9, 10_000), path)


def _dw_input(path):
    wl = np.linspace(1.255e-6, 1.40e-6, 300)
    y = (
        np.exp(-0.5 * ((wl - 1278e-9) / 2e-9) ** 2)
        + 0.25 * np.exp(-0.5 * ((wl - 1310e-9) / 16e-9) ** 2)
        + np.random.default_rng(43).normal(0.0, 0.01, wl.size)
    )
    write_spectrum_csv(Spectrum(wl, np.clip(y, 0.0, None)), path)


FIT_SHA256 = {
    "saturation": "18c1335c740df27b93cf1f1fd25bab967682c66c56b697810ae7175906641595",
    "decay": "050f73fe0baed707547bd8d11f91a601cc7a3d19dacc1780754b16459487b858",
    "dw": "4fe9c4631d4378b7d9dafd946a5a1ebdb2fad9ae71233cb2aee7c1ff592086d4",
}


@pytest.mark.parametrize("command,write,args", [
    ("saturation", _saturation_input, []),
    ("decay", _decay_input, []),
    ("dw", _dw_input, ["--psb", "1"]),
])
def test_fit_subcommand_matches_golden_digest(command, write, args, tmp_path, capsys):
    path = tmp_path / f"{command}.csv"
    write(path)
    capsys.readouterr()
    assert main([command, str(path), *args]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == FIT_SHA256[command], (
        f"{command} output changed (digest taken with numpy {GOLDEN_NUMPY},"
        f" running numpy {np.__version__})"
    )
