"""Command-line front end for reproducible batch runs.

Subcommands: pattern, simulate, g2, stats, saturation, decay, dw. Each
run is deterministic given its config file and seed; the seed resolves as
``--seed`` flag, then ``[run] seed`` in the config, then the
EMITTERFORGE_SEED environment variable.

Exit codes: 0 success, 2 configuration error or invalid value (out of
memory included), 3 I/O error, 4 data format error, 5 fit failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import correlator, defectstats
from .analysis import (
    debye_waller,
    fit_decay,
    fit_saturation,
    read_saturation_csv,
    read_spectrum_csv,
)
from .config import RunConfig, load_config
from .correlator import background_correct, correlate, fit_g2, write_histogram_csv
from .errors import ConfigError, DomainError, FormatError
from .implantation import build_pattern, sample_ion_counts, write_pattern_csv
from .photonsim import (
    DEFAULT_RESOLUTION,
    read_decay_csv,
    run_detection,
    simulate_background_tags,
    simulate_emitter_tags,
)
from .tables import count, read_table, write_table
from .timetags import _resolution_ps, merge_streams, read_timetags, write_timetags
from .units import parse_quantity

SEED_ENV_VAR = "EMITTERFORGE_SEED"
MANIFEST_HEADER = "label,n_ions,n_centers,rate_a_cps,rate_b_cps"


def _quantity(kind: str):
    def parse(text: str) -> float:
        return parse_quantity(text, kind)

    return parse


def _default(function, name: str):
    """The default that ``function`` itself gives parameter ``name``."""
    return inspect.signature(function).parameters[name].default


def _resolve_seed(flag_seed: int | None, cfg: RunConfig | None) -> int:
    if flag_seed is not None:
        return flag_seed
    if cfg is not None and cfg.has("run", "seed"):
        return cfg.get("run", "seed")
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}", key="seed"
            ) from None
    raise ConfigError(
        f"no seed: pass --seed, set [run] seed, or export {SEED_ENV_VAR}", key="seed"
    )


def _report(lines, flags, converged: bool, failure: str) -> int:
    """Print a fit's result lines and one ``flag`` line per flag; a fit that
    did not converge prints ``failure`` to stderr and exits 5."""
    for line in lines:
        print(line)
    for flag in flags:
        print(f"flag {flag}")
    if not converged:
        print(failure, file=sys.stderr)
        return 5
    return 0


def _cmd_pattern(args) -> int:
    cfg = load_config(args.config)
    pattern = build_pattern(**cfg.pattern_args())
    write_pattern_csv(pattern, args.out)
    print(f"wrote {len(pattern.sites)} sites to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(args.seed, cfg)
    pattern = build_pattern(**cfg.pattern_args())
    resolution = cfg.get("run", "resolution", DEFAULT_RESOLUTION)
    _resolution_ps(resolution)  # refuse a bad tick before any site runs
    out_dir = Path(args.out_dir)
    job = functools.partial(
        _write_site, out_dir, seed, cfg.creation_model(),
        cfg.emitter_model(), cfg.background_model(), cfg.detector_model(),
        cfg.split_ratio(), cfg.require("run", "duration"),
        cfg.require("run", "power"), resolution,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    # label order fixes both file layout and manifest rows; each site is
    # seeded by its index in it, so the worker count cannot change a byte
    sites = sorted(pattern.sites, key=lambda s: s.label)
    rows = _map_sites(job, sites)

    meta = {"config_hash": cfg.config_hash, "seed": seed}
    write_table(
        out_dir / "manifest.csv", MANIFEST_HEADER, zip(*rows), "%s,%d,%d,%.17g,%.17g", meta
    )
    print(f"simulated {len(rows)} sites into {out_dir}")
    return 0


def _worker_count(n_sites: int) -> int:
    """The CPUs this process may run on (``taskset`` limits them), capped
    at the number of sites."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_sites))


def _site_chain() -> tuple:
    """The package functions a site's job calls, where it looks them up."""
    return (
        sample_ion_counts, defectstats.sample_defect_count, simulate_emitter_tags,
        simulate_background_tags, run_detection, merge_streams, write_timetags,
    )


_SITE_CHAIN = _site_chain()


def _map_sites(job, sites) -> list:
    """``job(index, site)`` for every site, in site order.

    The sites run in forked worker processes: on the 240-site grid with 2
    workers ``fork`` was the fastest start method, since ``forkserver`` and
    ``spawn`` import the package again in every worker. Where forking is
    unsafe or cannot help, the same job is mapped in this process: one
    worker, no ``fork``, a daemonic caller (which may not have children),
    another thread (which may hold a lock at the fork) or a caller that has
    replaced a function of the site chain (a tracer or a test double keeps
    its record of the calls in this process, where a worker's calls never
    arrive).
    """
    workers = _worker_count(len(sites))
    if (
        workers == 1
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
        or _site_chain() != _SITE_CHAIN
    ):
        return list(map(job, range(len(sites)), sites))
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        # labels sort column by column, so every stretch of a grid holds its
        # whole dose ladder and four chunks per worker share the load
        # evenly; on the 240-site grid any chunk from 3 to 120 sites ran
        # equally fast, one site per chunk slower
        chunksize = max(1, len(sites) // (4 * workers))
        return list(pool.map(job, range(len(sites)), sites, chunksize=chunksize))
    finally:
        # an error leaves no queued site to go on writing files
        pool.shutdown(cancel_futures=True)


def _write_site(
    out_dir, seed, creation, emitter, background, detector,
    split, duration, power, resolution, index, site,
):
    """Simulate one site, write ``<label>.ttg`` and return its manifest row.

    In a worker process only the row goes back to the parent, never tags.
    """
    n_ions, n_centers, arm_a, arm_b = _simulate_site(
        site, index, seed, creation, emitter, background, detector,
        split, duration, power, resolution,
    )
    write_timetags(merge_streams(arm_a, arm_b), out_dir / f"{site.label}.ttg")
    rate_a = arm_a.n_tags / duration if duration > 0 else 0.0
    rate_b = arm_b.n_tags / duration if duration > 0 else 0.0
    return site.label, n_ions, n_centers, rate_a, rate_b


def _simulate_site(
    site, index, seed, creation, emitter, background, detector,
    split, duration, power, resolution,
):
    """One site's full chain: ions -> centers -> photons -> two detectors.

    Seeding is per (run seed, site index), so any site can be reproduced
    alone and processing order cannot matter.

    Only detected photons are drawn: both arms share one efficiency, and
    thinning by it commutes with the split and the jitter, so it is folded
    into the sources. Thinning the emitter's renewal process scales its
    detection probability per cycle; thinning a Poisson background scales
    its rate. The detectors then thin nothing.
    """
    k_ion, k_defect, k_emit, k_bg, k_det = np.random.SeedSequence(
        [seed, index]
    ).spawn(5)
    n_ions = int(sample_ion_counts(site.expected_ions, k_ion))
    n_centers = int(defectstats.sample_defect_count(n_ions, creation, k_defect))
    eta = detector.efficiency
    detected = dataclasses.replace(emitter, sat_rate=emitter.sat_rate * eta)
    stream = simulate_emitter_tags([detected] * n_centers, power, duration, k_emit, resolution)
    if background.rate * eta > 0:
        stream = merge_streams(
            stream, simulate_background_tags(background.rate * eta, duration, k_bg, resolution)
        )
    detector = dataclasses.replace(detector, efficiency=1.0)
    arm_a, arm_b = run_detection(stream, split, detector, detector, k_det)
    return n_ions, n_centers, arm_a, arm_b


def _cmd_g2(args) -> int:
    stream = read_timetags(args.tagfile)
    channels = stream.channel_list()
    if len(channels) < 2:
        raise DomainError(
            f"correlation needs two channels, file has {channels or 'none'}"
        )
    hist = correlate(
        stream.select(channels[0]),
        stream.select(channels[1]),
        bin_width=args.bin,
        window=args.window,
    )
    if args.rho is not None:
        hist = background_correct(hist, args.rho)
    out = args.out or str(Path(args.tagfile).with_suffix("")) + "_g2.csv"
    write_histogram_csv(hist, out)  # kept when the fit raises
    fit = fit_g2(hist)

    named = zip(("n_emitters", "a", "tau1", "tau2"), fit.param_sigma)
    lines = [f"histogram {out}", f"g2_zero {fit.g2_zero:.6g} {fit.g2_zero_sigma:.3g}"]
    lines += [f"{name} {getattr(fit, name):.6g} {err:.3g}" for name, err in named]
    lines.append(f"reduced_chi2 {fit.reduced_chi2:.6g}")
    if args.rho is not None:
        lines.append(f"rho {args.rho:.6g}")
    flags = (["no_dip"] if fit.no_dip else []) + list(fit.flags)
    return _report(lines, flags, fit.converged, f"fit did not converge: {fit.message}")


def _read_counts(path) -> np.ndarray:
    """Counts from a simulate manifest (n_centers column) or one-per-line."""
    manifest = (str, count, count, float, float)
    table = read_table(path, {MANIFEST_HEADER: manifest, None: (count,)})
    return np.asarray(table.columns[2 if table.header else 0], dtype=np.int64)


def _cmd_stats(args) -> int:
    counts = _read_counts(args.input)
    if counts.size == 0:
        raise ConfigError("input contains no counts")
    dist = defectstats.occurrence_histogram(counts)
    lines = [f"# samples={dist.sample_count}"]
    if dist.probabilities.size == 1:
        lines.append("# degenerate=true")
    if args.fit_mu:
        fit = defectstats.fit_mu(dist, args.k)
        lines.append(
            f"# fitted_mu={fit.mu:.17g} log_likelihood={fit.log_likelihood:.17g}"
            f" degenerate={'true' if fit.degenerate else 'false'}"
        )
    lines.append("N,probability,lo68,hi68")
    for n in range(dist.probabilities.size):
        lines.append(
            f"{n},{dist.probabilities[n]:.17g},{dist.lo68[n]:.17g},{dist.hi68[n]:.17g}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        # not a write_table: the comment lines repeat the key "degenerate"
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_saturation(args) -> int:
    power, rate, sigma = read_saturation_csv(args.csvfile)
    fit = fit_saturation(power, rate, sigma, dwell_time=args.dwell)
    named = zip(("sat_rate", "sat_power", "bg_slope"), fit.param_sigma())
    lines = [f"{name} {getattr(fit, name):.6g} {err:.3g}" for name, err in named]
    lines.append(f"reduced_chi2 {fit.reduced_chi2:.6g}")
    return _report(lines, fit.flags, fit.converged, "saturation fit did not converge")


def _cmd_decay(args) -> int:
    hist = read_decay_csv(args.csvfile)
    fit = fit_decay(hist)
    if "no_fit" in fit.flags:
        return _report([], [], False, f"no fit: {fit.flags['no_fit']}")
    names = ("amp_fast", "tau_fast", "amp_slow", "tau_slow", "baseline", "reduced_chi2")
    lines = [f"{name} {getattr(fit, name):.6g}" for name in names]
    return _report(lines, fit.flags, fit.converged, "decay fit did not converge")


def _cmd_dw(args) -> int:
    spectrum = read_spectrum_csv(args.csvfile, zpl_wavelength=args.zpl)
    result = debye_waller(
        spectrum, zpl_halfwidth=args.halfwidth, n_psb=args.psb, method=args.method
    )
    lines = [f"{name} {getattr(result, name):.6g}" for name in ("dw", "zpl_area", "psb_area")]
    lines += [
        f"component {center * 1e9:.4f}nm amp {amplitude:.6g} area {area:.6g}"
        for center, amplitude, sigma, area in result.components
    ]
    lines.append(f"method {result.flags.get('method', 'fit')}")
    flags = [flag for flag in result.flags if flag != "method"]
    return _report(lines, flags, result.converged, "spectrum fit did not converge")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emitterforge",
        description="Simulate and analyze single-photon-emitter fabrication runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="build an implant pattern CSV from a config")
    p.add_argument("config")
    p.add_argument("out")
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("simulate", help="simulate per-site photon streams + manifest")
    p.add_argument("config")
    p.add_argument("out_dir")
    p.add_argument("--seed", type=int, default=None, help="overrides config/env seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("g2", help="correlate a two-channel tag file and fit the dip")
    p.add_argument("tagfile")
    p.add_argument("--bin", type=_quantity("time"), default=correlator.DEFAULT_BIN_WIDTH, help="bin width (e.g. '1 ns')")
    p.add_argument("--window", type=_quantity("time"), default=correlator.DEFAULT_WINDOW, help="max |tau| (e.g. '250 ns')")
    p.add_argument("--rho", type=float, default=None, help="signal fraction for background correction")
    p.add_argument("--out", default=None, help="histogram CSV path")
    p.set_defaults(func=_cmd_g2)

    p = sub.add_parser("stats", help="defect-count distribution from manifest or counts")
    p.add_argument("input", help="simulate manifest CSV or one count per line")
    p.add_argument("--k", type=int, default=1, help="successes consumed per center")
    p.add_argument("--fit-mu", action="store_true", help="fit the composite-Poisson mu")
    p.add_argument("--out", default=None, help="distribution CSV path (default stdout)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("saturation", help="fit the saturation curve in a CSV")
    p.add_argument("csvfile", help="power_uw,rate_cps[,sigma_cps]")
    p.add_argument("--dwell", type=_quantity("time"), default=_default(fit_saturation, "dwell_time"), help="dwell per point for Poisson sigmas")
    p.set_defaults(func=_cmd_saturation)

    p = sub.add_parser("decay", help="fit a bi-exponential decay histogram CSV")
    p.add_argument("csvfile", help="time_ns,counts")
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("dw", help="Debye-Waller factor from a spectrum CSV")
    p.add_argument("csvfile", help="wavelength_nm,intensity")
    p.add_argument("--zpl", type=_quantity("length"), default=None, help="ZPL wavelength (e.g. '1278 nm')")
    p.add_argument("--halfwidth", type=_quantity("length"), default=6e-9, help="ZPL window halfwidth")
    p.add_argument("--psb", type=int, default=_default(debye_waller, "n_psb"), help="number of side-band components")
    p.add_argument("--method", choices=("fit", "window"), default=_default(debye_waller, "method"))
    p.set_defaults(func=_cmd_dw)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse of some Python versions reads "--opt=--" as an empty list
        for name, value in vars(args).items():
            if value == []:
                parser.error(f"argument --{name}: expected one argument")
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # values that ask for more than the machine has
        print(f"invalid value: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
