"""The three benchmark workloads: inputs, one timed pass, output checks.

``grid_simulate``  ``emitterforge simulate`` (in process) on the full
                   240-site fib_grid dose ladder with every detector
                   imperfection on. The production batch path: sampler,
                   detection, merge and TTG1 write; no correlator or fit.
``census``         the acceptance criterion-9 calibration pipeline through
                   the public API: 240 spots, g2 (3 ns / 600 ns, about 0.1
                   pairs per start tag) and a dip fit on every bright spot,
                   calibration and counting. Low power, no jitter or dead
                   time, no tag files.
``g2_long``        ``emitterforge g2`` (in process) at 2 ns / 12 us on one
                   long two-channel TTG1 file made in setup: TTG1 read,
                   ``select`` and the correlator at about 3 pairs per start
                   tag. No simulation.

Inputs come from the run seed only. The output checks do not depend on the
order of random draws and compare against no stored hash or count: the
grid's total rate is checked against the analytic expectation, the census
against the criterion-9 gates, g2 against an independent pair count.

Every call into the package goes through a module attribute looked up at
call time, so the traced run's wrappers see it.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import struct
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Size:
    grid_rows: int | None  # None: all 15 dose rows, 240 sites
    grid_duration: float  # acquisition per grid site, s
    census_dwell: float  # dwell per census spot, s
    g2_duration: float  # acquisition of the g2_long file, s


FULL = Size(grid_rows=None, grid_duration=0.01, census_dwell=1.0, g2_duration=5.0)

# -- grid_simulate ------------------------------------------------------
GRID_P_SUCCESS, GRID_K = 0.16, 3
GRID_POWER = 50e-6
GRID_EFFICIENCY, GRID_DEAD_TIME, GRID_DARK, GRID_BACKGROUND = 0.2, 20e-9, 20.0, 200.0
RATE_TOLERANCE = 0.01  # relative, on the grid's total detected rate
GRID_INI = """\
[pattern]
kind = fib_grid
pitch = 10 um
{rows}
[creation]
p_success = {p_success}
atoms_per_center = {k}

[emitter]
lifetime = 50 ns
sat_power = 150 uW
sat_rate = 2 Mcps

[background]
rate = {background} cps

[detectors]
efficiency = {efficiency}
jitter = 50 ps
dead_time = {dead_ns} ns
dark_rate = {dark} cps

[run]
duration = {duration} s
power = {power_uw} uW
"""

# -- census (criterion 9) -------------------------------------------------
CENSUS_ROWS, CENSUS_COLS = 15, 16
CENSUS_BACKGROUND = 4e3  # at the splitter
CENSUS_SNR, CENSUS_BIN, CENSUS_WINDOW = 10.0, 3e-9, 600e-9
CENSUS_MIN_KEEP, CENSUS_MIN_SINGLES, CENSUS_MIN_CORRECT = 50, 5, 0.95

# -- g2_long ----------------------------------------------------------------
G2_BIN, G2_WINDOW = "2 ns", "12 us"
G2_BIN_TICKS, G2_M_BINS = 2000, 6000  # at the 1 ps tick of the file
G2_MAX_ZERO = 0.1

# TTG1 layout, parsed here independently of emitterforge.timetags
TTG_HEADER = struct.Struct("<4sHQQ")
TTG_RECORD = np.dtype([("channel", "u1"), ("timestamp", "<u8")])


def _ef(module: str):
    import importlib

    return importlib.import_module(f"emitterforge.{module}")


def read_ttg(path: Path) -> np.ndarray:
    """Records of a TTG1 file; raises ValueError on a malformed file."""
    data = path.read_bytes()
    if len(data) < TTG_HEADER.size:
        raise ValueError(f"{path.name}: short header")
    magic, _version, _res_ps, count = TTG_HEADER.unpack_from(data)
    if magic != b"TTG1" or len(data) != TTG_HEADER.size + count * TTG_RECORD.itemsize:
        raise ValueError(f"{path.name}: bad magic or length")
    records = np.frombuffer(data, TTG_RECORD, offset=TTG_HEADER.size)
    if np.any(np.diff(records["timestamp"].astype(np.int64)) < 0):
        raise ValueError(f"{path.name}: timestamps not sorted")
    return records


@dataclass
class PassResult:
    wall: float  # s, the timed body
    tags: int  # tags written / detected / read
    out_bytes: int
    op_ms: list  # latency of each operation in the pass
    rc: int = 0
    detail: object = None


class GridSimulate:
    name = "grid_simulate"

    def __init__(self, work: Path, seed: int, size: Size):
        self.work, self.seed, self.size = work, seed, size
        self.ini = work / "grid.ini"
        self.out = work / "out"

    @staticmethod
    def make_inputs(work: Path, seed: int, size: Size) -> None:
        rows = "" if size.grid_rows is None else f"rows = {size.grid_rows}\n"
        (work / "grid.ini").write_text(GRID_INI.format(
            rows=rows, p_success=GRID_P_SUCCESS, k=GRID_K, background=GRID_BACKGROUND,
            efficiency=GRID_EFFICIENCY, dead_ns=GRID_DEAD_TIME * 1e9, dark=GRID_DARK,
            duration=size.grid_duration, power_uw=GRID_POWER * 1e6,
        ))

    def run_pass(self, out: Path | None = None) -> PassResult:
        out = out or self.out
        shutil.rmtree(out, ignore_errors=True)
        argv = ["simulate", str(self.ini), str(out), "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = _ef("cli").main(argv)
            wall = time.perf_counter() - start
        files = sorted(out.glob("*.ttg"))
        tags = sum((f.stat().st_size - TTG_HEADER.size) // TTG_RECORD.itemsize for f in files)
        out_bytes = sum(f.stat().st_size for f in out.iterdir())
        return PassResult(wall, tags, out_bytes, [wall * 1e3], rc, out)

    @staticmethod
    def expected_centers(pattern) -> tuple[float, float]:
        """Mean and variance of the pattern's total center count."""
        defectstats = _ef("defectstats")
        moments = [defectstats.composite_moments(site.expected_ions * GRID_P_SUCCESS, GRID_K)
                   for site in pattern.sites]
        return sum(m for m, _ in moments), sum(v for _, v in moments)

    @staticmethod
    def expected_rate(n_centers: int) -> float:
        """Detected rate of a site with ``n_centers`` emitters, both arms:
        two-level steady-state rate plus background, split, thinned,
        Poisson non-paralyzable dead-time loss, plus dark counts."""
        photonsim = _ef("photonsim")
        emitter = photonsim.EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)
        signal = n_centers * photonsim.steady_state_rate(emitter, GRID_POWER)
        arm = 0.5 * GRID_EFFICIENCY * (signal + GRID_BACKGROUND)
        return 2.0 * (arm / (1.0 + arm * GRID_DEAD_TIME) + GRID_DARK)

    def check(self, result: PassResult) -> list[str]:
        if result.rc != 0:
            return [f"simulate exited {result.rc}"]
        out, duration = result.detail, self.size.grid_duration
        timetags = _ef("timetags")
        errors = []
        with open(out / "manifest.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        pattern = _ef("implantation").build_pattern("fib_grid", rows=self.size.grid_rows)
        n_sites = len(pattern.sites)
        if len(rows) != n_sites or len(list(out.glob("*.ttg"))) != n_sites:
            errors.append(f"expected {n_sites} sites and files, got {len(rows)} rows")
        total_rate = 0.0
        for row in rows:
            path = out / f"{row['label']}.ttg"
            try:
                records = read_ttg(path)
                timetags.read_timetags(path)
            except (ValueError, OSError, _ef("errors").FormatError) as exc:
                errors.append(f"unreadable {path.name}: {exc}")
                continue
            counts = np.bincount(records["channel"], minlength=2)
            if counts.size > 2:
                errors.append(f"{path.name}: channels beyond 0 and 1")
            for ch, key in ((0, "rate_a_cps"), (1, "rate_b_cps")):
                if round(float(row[key]) * duration) != counts[ch]:
                    errors.append(f"{path.name}: manifest {key} does not match the tags")
            if int(row["n_centers"]) > 0 and min(counts[:2]) == 0:
                errors.append(f"{path.name}: a site with centers has an empty channel")
            total_rate += records.size / duration
        n_mean, n_var = self.expected_centers(pattern)
        n_total = sum(int(r["n_centers"]) for r in rows)
        if abs(n_total - n_mean) > 5.0 * math.sqrt(n_var):
            errors.append(f"{n_total} centers, expected {n_mean:.1f} +- {math.sqrt(n_var):.1f}")
        # antibunching makes dead-time losses slightly smaller than the
        # Poisson formula says, about 0.2 % of the total; on top of that
        # allow 5 sigma of Poisson counting noise
        expected = sum(self.expected_rate(int(r["n_centers"])) for r in rows)
        tolerance = RATE_TOLERANCE + 5.0 / math.sqrt(expected * duration)
        if abs(total_rate / expected - 1.0) > tolerance:
            errors.append(f"detected {total_rate:.6g} cps, expected {expected:.6g}")
        return errors


class Census:
    name = "census"

    def __init__(self, work: Path, seed: int, size: Size):
        self.work = work
        self.inputs = json.loads((work / "census.json").read_text())

    @staticmethod
    def make_inputs(work: Path, seed: int, size: Size) -> None:
        (work / "census.json").write_text(json.dumps({
            "seed": seed, "cols": CENSUS_COLS,
            "dwell": size.census_dwell, "power": 150e-6 / 9, "efficiency": 0.5,
            "background": CENSUS_BACKGROUND, "p_success": 0.16, "atoms_per_center": 3,
            # row r gets an expected dose of 3r ions; row 0 measures the background
            "expected_ions": [3.0 * r for r in range(CENSUS_ROWS) for _ in range(CENSUS_COLS)],
        }))

    def run_pass(self) -> PassResult:
        p = self.inputs
        seed, dwell, cols = p["seed"], p["dwell"], p["cols"]
        implantation, defectstats = _ef("implantation"), _ef("defectstats")
        photonsim, timetags = _ef("photonsim"), _ef("timetags")
        correlator, analysis = _ef("correlator"), _ef("analysis")
        table = self.work / "spots.csv"
        op_ms = []
        start = time.perf_counter()
        emitter = photonsim.EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)
        det = photonsim.DetectorModel(efficiency=p["efficiency"])
        creation = defectstats.CreationModel(p["p_success"], p["atoms_per_center"])
        doses = implantation.sample_ion_counts(p["expected_ions"], seed=[seed, 901])
        truth = defectstats.sample_defect_count(doses, creation, seed=[seed, 902])
        intensity = np.empty(truth.size)
        arms = []
        for i, n in enumerate(truth):
            k_emit, k_bg, k_det = np.random.SeedSequence([seed, 903, i]).spawn(3)
            stream = photonsim.simulate_background_tags(p["background"], dwell, seed=k_bg)
            if n:
                sig = photonsim.simulate_emitter_tags([emitter] * int(n), p["power"], dwell, seed=k_emit)
                stream = timetags.merge_streams(sig, stream)
            a, b = photonsim.run_detection(stream, 0.5, det, det, np.random.default_rng(k_det))
            intensity[i] = (a.n_tags + b.n_tags) / dwell
            arms.append((a, b))
        background = float(intensity[:cols].mean())
        snr = (intensity - background) / np.sqrt(intensity / dwell)
        keep = np.flatnonzero(snr >= CENSUS_SNR)
        spots = [analysis.SpotMeasurement(f"s{i}", float(rate), background)
                 for i, rate in enumerate(intensity)]
        for i in keep:
            t0 = time.perf_counter()
            fit = correlator.fit_g2(
                correlator.correlate(*arms[i], bin_width=CENSUS_BIN, window=CENSUS_WINDOW)
            )
            op_ms.append((time.perf_counter() - t0) * 1e3)
            if fit.converged and not fit.no_dip and fit.g2_zero + 3 * fit.g2_zero_sigma < 0.5:
                spots[i].n_emitters_g2 = 1
        singles = [s for s in spots if s.n_emitters_g2 == 1]
        i_single = analysis.calibrate_single_rate(singles, background)
        assigned = np.zeros(truth.size, dtype=np.int64)
        assigned[keep] = [analysis.count_emitters(spots[i].rate, background, i_single) for i in keep]
        analysis.write_spot_table(spots, assigned.tolist(), table)
        wall = time.perf_counter() - start
        tags = sum(a.n_tags + b.n_tags for a, b in arms)
        correct = float(np.mean(assigned[keep] == truth[keep])) if keep.size else 0.0
        detail = {"keep": int(keep.size), "singles": len(singles), "correct": correct, "table": table}
        return PassResult(wall, tags, table.stat().st_size, op_ms, 0, detail)

    def check(self, result: PassResult) -> list[str]:
        d = result.detail
        errors = []
        if d["keep"] < CENSUS_MIN_KEEP:
            errors.append(f"{d['keep']} spots at SNR >= {CENSUS_SNR}, need {CENSUS_MIN_KEEP}")
        if d["singles"] < CENSUS_MIN_SINGLES:
            errors.append(f"{d['singles']} certified singles, need {CENSUS_MIN_SINGLES}")
        if d["correct"] < CENSUS_MIN_CORRECT:
            errors.append(f"correct = {d['correct']:.4f}, need {CENSUS_MIN_CORRECT}")
        with open(d["table"]) as fh:
            if sum(1 for _ in csv.DictReader(fh)) != CENSUS_ROWS * CENSUS_COLS:
                errors.append("the spot table does not have one row per spot")
        return errors


class G2Long:
    name = "g2_long"

    def __init__(self, work: Path, seed: int, size: Size):
        self.tagfile = work / "long.ttg"
        self.hist = work / "long_g2.csv"
        self.n_tags = (self.tagfile.stat().st_size - TTG_HEADER.size) // TTG_RECORD.itemsize
        self._pairs = None

    @staticmethod
    def make_inputs(work: Path, seed: int, size: Size) -> None:
        """The shelving emitter of demo 03 on a beamsplitter, jitter and
        dead time on, merged into one two-channel TTG1 file."""
        photonsim, timetags = _ef("photonsim"), _ef("timetags")
        emitter = photonsim.EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6,
                                         shelving_rate=2e6, deshelving_rate=1e6)
        det = photonsim.DetectorModel(efficiency=0.8, jitter_sigma=50e-12, dead_time=20e-9)
        k_emit, k_det = np.random.SeedSequence([seed, 3]).spawn(2)
        stream = photonsim.simulate_emitter_tags(emitter, 45e-6, size.g2_duration, seed=k_emit)
        a, b = photonsim.run_detection(stream, 0.5, det, det, np.random.default_rng(k_det))
        timetags.write_timetags(timetags.merge_streams(a, b), work / "long.ttg")

    def run_pass(self) -> PassResult:
        argv = ["g2", str(self.tagfile), "--bin", G2_BIN, "--window", G2_WINDOW,
                "--out", str(self.hist)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            start = time.perf_counter()
            rc = _ef("cli").main(argv)
            wall = time.perf_counter() - start
        return PassResult(wall, self.n_tags, self.hist.stat().st_size, [wall * 1e3], rc,
                          stdout.getvalue())

    def independent_pairs(self) -> int:
        """Pairs with |b - a| inside the histogram's outer bin edges, counted
        by sorted search on the raw file (bin k holds round-half-away-from-
        zero of d / bin, so |k| <= m means |d| < (m + 1/2) bin)."""
        if self._pairs is None:
            records = read_ttg(self.tagfile)
            ts = records["timestamp"].astype(np.int64)
            a, b = ts[records["channel"] == 0], ts[records["channel"] == 1]
            reach = G2_M_BINS * G2_BIN_TICKS + (G2_BIN_TICKS + 1) // 2 - 1
            hi = np.searchsorted(b, a + reach, side="right")
            lo = np.searchsorted(b, a - reach, side="left")
            self._pairs = int((hi - lo).sum())
        return self._pairs

    def check(self, result: PassResult) -> list[str]:
        if result.rc != 0:
            return [f"g2 exited {result.rc}"]
        lines = dict(line.split(" ", 1) for line in result.detail.splitlines() if " " in line)
        g2_zero = float(lines["g2_zero"].split()[0])
        errors = []
        if not g2_zero < G2_MAX_ZERO:
            errors.append(f"g2(0) = {g2_zero:.4g}, need < {G2_MAX_ZERO}")
        with open(self.hist) as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        if len(rows) != 2 * G2_M_BINS + 1:
            errors.append(f"{len(rows)} histogram bins, expected {2 * G2_M_BINS + 1}")
        raw_total = sum(int(r["raw"]) for r in rows)
        if raw_total != self.independent_pairs():
            errors.append(f"histogram holds {raw_total} pairs, sorted search counts "
                          f"{self.independent_pairs()}")
        return errors


WORKLOADS = {w.name: w for w in (GridSimulate, Census, G2Long)}


def size_to_json(size: Size) -> str:
    return json.dumps(asdict(size))


def size_from_json(text: str) -> Size:
    return Size(**json.loads(text))
