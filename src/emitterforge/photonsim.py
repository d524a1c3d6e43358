"""Kinetic Monte Carlo simulation of emitter photon streams and detection.

The emitter is a three-level system: ground -> excited at the pump rate,
excited -> ground with a photon at 1/lifetime, excited -> shelf at the
shelving rate, shelf -> ground at the deshelving rate. The pump rate is
(power / sat_power) / lifetime, which makes ``sat_power`` the power at
which the two-level emission rate reaches half its saturated value.

Detected photons are a renewal process (every detection leaves the emitter
in the ground state), so instead of stepping through every pump cycle the
simulator draws the waiting time between *detected* photons in closed form:
the number of cycles until a detected emission is geometric, the shelving
excursions among the failed cycles are binomial, and the total elapsed time
is a sum of gamma variates. This is an exact sampling of the kinetic model,
not an approximation, and it is fast even at collection efficiencies of
1e-4.

A call that expects more than ``_THREADED_TAGS`` tags draws its emitters
on up to one thread per CPU the process may run on (``taskset`` limits
them). Each emitter has its own generator, so the tags are the same on any
number of threads.

``simulate_spot`` is the one chain from a spot's center count to its two
detector arms, and the one place that folds the detector efficiency into
the sources, so that only detected photons are drawn.
"""
from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .tables import count, read_table, write_table
from .timetags import TimeTagStream, merge_streams

DEFAULT_RESOLUTION = 1e-12  # 1 ps ticks
_PHOTONS_PER_PULSE = 1.0  # mean recorded photons per pulse in simulate_pulsed_decay
_DECAY_BIN_WIDTH = 1e-9  # histogram bin of simulate_pulsed_decay
# expected tags above which a call's emitters are drawn on threads; a grid
# site (about 1e3 tags per emitter) stays on the calling thread
_THREADED_TAGS = 200_000


@dataclass
class EmitterModel:
    """A single photostable emitter.

    ``sat_rate`` is the detected count rate at full saturation (shelving
    ignored), which ties the collection efficiency to the lifetime:
    eta = sat_rate * lifetime.
    """

    lifetime: float
    sat_power: float
    sat_rate: float
    shelving_rate: float = 0.0
    deshelving_rate: float = 0.0

    def __post_init__(self):
        if self.lifetime <= 0:
            raise DomainError(f"lifetime must be positive, got {self.lifetime}")
        if self.sat_power <= 0:
            raise DomainError(f"sat_power must be positive, got {self.sat_power}")
        if self.sat_rate < 0:
            raise DomainError(f"sat_rate must be nonnegative, got {self.sat_rate}")
        if self.shelving_rate < 0 or self.deshelving_rate < 0:
            raise DomainError("shelving and deshelving rates must be nonnegative")
        if self.shelving_rate > 0 and self.deshelving_rate == 0:
            raise DomainError("shelving without deshelving would trap the emitter")
        if self.collection_efficiency > 1.0:
            raise DomainError(
                f"sat_rate * lifetime = {self.collection_efficiency:.3g}"
                " exceeds 1 photon per lifetime"
            )

    @property
    def collection_efficiency(self) -> float:
        """Detected photons per emitted photon: sat_rate * lifetime."""
        return self.sat_rate * self.lifetime


@dataclass
class BackgroundModel:
    """Uncorrelated background light: Poisson rate and its decay time."""

    rate: float
    decay_time: float = 70e-9

    def __post_init__(self):
        if self.rate < 0:
            raise DomainError(f"background rate must be nonnegative, got {self.rate}")
        if self.decay_time <= 0:
            raise DomainError(f"decay_time must be positive, got {self.decay_time}")


@dataclass
class DetectorModel:
    """Detection imperfections applied to one detector arm."""

    efficiency: float = 1.0
    jitter_sigma: float = 0.0
    dead_time: float = 0.0
    dark_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise DomainError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if self.jitter_sigma < 0 or self.dead_time < 0 or self.dark_rate < 0:
            raise DomainError("jitter, dead time and dark rate must be nonnegative")


@dataclass
class DecayHistogram:
    """Histogram of photon delays after the excitation pulse edge."""

    bin_centers: np.ndarray
    counts: np.ndarray
    bin_width: float
    n_pulses: int

    def __post_init__(self):
        self.bin_centers = np.asarray(self.bin_centers, dtype=float)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.bin_centers.shape != self.counts.shape:
            raise DomainError("bin_centers and counts must have equal length")


def _usable_cpus() -> int:
    """The CPUs this process may run on (``taskset`` limits them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def steady_state_rate(model: EmitterModel, power: float) -> float:
    """Detected steady-state rate of the two-level cycle: sat_rate / (1 + P0/P)."""
    if power < 0:
        raise DomainError(f"power must be nonnegative, got {power}")
    if power == 0.0:
        return 0.0
    return model.sat_rate / (1.0 + model.sat_power / power)


def _arrival_times(draw_waits, duration: float) -> np.ndarray:
    """Arrival times in [0, duration) of a renewal process started at 0.

    ``draw_waits(left)`` returns a batch of waiting times sized to the time
    ``left`` to fill; batches are drawn until one runs past ``duration``.
    """
    chunks: list[np.ndarray] = []
    t = 0.0
    while t < duration:
        times = draw_waits(duration - t)
        np.cumsum(times, out=times)
        times += t
        t = float(times[-1])
        # waits are nonnegative, so the times below duration are a prefix
        chunks.append(times[: np.searchsorted(times, duration)])
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks) if chunks else np.empty(0)


def _emitter_times(model: EmitterModel, power: float, duration: float, rng) -> np.ndarray:
    pump_rate = (power / model.sat_power) / model.lifetime
    if pump_rate == 0.0 or model.collection_efficiency == 0.0 or duration <= 0.0:
        return np.empty(0)
    emit_rate = 1.0 / model.lifetime
    exit_rate = emit_rate + model.shelving_rate
    q_emit = emit_rate / exit_rate
    p_detect = q_emit * model.collection_efficiency
    p_shelve_fail = (
        (1.0 - q_emit) / (1.0 - p_detect) if model.shelving_rate > 0.0 else 0.0
    )
    mean_wait = (1.0 / pump_rate + 1.0 / exit_rate) / p_detect
    if model.shelving_rate > 0.0:
        mean_wait += (1.0 - q_emit) / (p_detect * model.deshelving_rate)

    def detection_waits(left):
        cycles = rng.geometric(p_detect, size=int(left / mean_wait * 1.1) + 64)
        # gamma(k, s) is s * standard_gamma(k), so scaling in place keeps
        # every bit and saves an array pass per draw
        shape = cycles.astype(np.float64)
        waits = rng.standard_gamma(shape)
        waits *= 1.0 / pump_rate
        exits = rng.standard_gamma(shape, out=shape)
        exits *= 1.0 / exit_rate
        waits += exits
        if p_shelve_fail > 0.0:
            cycles -= 1
            waits += rng.gamma(rng.binomial(cycles, p_shelve_fail), 1.0 / model.deshelving_rate)
        return waits

    return _arrival_times(detection_waits, duration)


def simulate_emitter_tags(
    models: EmitterModel | list[EmitterModel],
    power: float,
    duration: float,
    seed,
    resolution: float = DEFAULT_RESOLUTION,
) -> TimeTagStream:
    """Merged detected-photon stream of one or more emitters on channel 0.

    Each emitter gets an independent child generator spawned from
    ``seed`` (an int, a SeedSequence or a Generator), so results are
    reproducible and independent of evaluation order. A call that expects
    more than ``_THREADED_TAGS`` tags draws its emitters on up to one
    thread per CPU; the threads are joined before it returns.
    """
    if power < 0:
        raise DomainError(f"power must be nonnegative, got {power}")
    if duration < 0:
        raise DomainError(f"duration must be nonnegative, got {duration}")
    if isinstance(models, EmitterModel):
        models = [models]
    children = np.random.default_rng(seed).spawn(len(models))

    def emitter_ticks(model, rng):
        # numpy releases the GIL in the draws and array passes
        times = _emitter_times(model, power, duration, rng)
        times /= resolution
        return np.floor(times, out=times).astype(np.int64)

    expected = duration * sum(steady_state_rate(m, power) for m in models)
    threads = min(len(models), _usable_cpus()) if expected > _THREADED_TAGS else 1
    if threads > 1:
        # imported only here, where it is used: it adds 7 ms to the import
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            ticks = list(pool.map(emitter_ticks, models, children))
    else:
        ticks = list(map(emitter_ticks, models, children))
    # quantizing is monotone, so sorting the emitters' ticks gives the
    # ticks of their sorted times; the stable sort merges the sorted runs
    collected = np.concatenate(ticks) if ticks else np.empty(0, np.int64)
    collected.sort(kind="stable")
    channels = np.zeros(collected.size, np.uint8)
    return TimeTagStream._trusted(resolution, channels, collected, duration)


def simulate_background_tags(
    rate: float,
    duration: float,
    seed,
    resolution: float = DEFAULT_RESOLUTION,
) -> TimeTagStream:
    """Homogeneous Poisson stream on channel 0 (exponential inter-arrivals)."""
    if rate < 0:
        raise DomainError(f"rate must be nonnegative, got {rate}")
    if duration < 0:
        raise DomainError(f"duration must be nonnegative, got {duration}")
    rng = np.random.default_rng(seed)

    def gaps(left):
        return rng.exponential(1.0 / rate, size=int(left * rate * 1.1) + 64)

    times = _arrival_times(gaps, duration) if rate > 0.0 else np.empty(0)
    return TimeTagStream.from_times(times, 0, resolution, duration)


# below this many unfinished bursts the walk goes on one burst at a time
_SCALAR_BURSTS = 32


def _dead_time_filter(ticks: np.ndarray, dead_ticks: int) -> np.ndarray:
    """Non-paralyzable dead time: keep a tag only if at least ``dead_ticks``
    after the last *kept* tag (ties with the last kept tag are dropped).

    ``ticks`` are sorted and nonnegative. A tag at least ``dead_ticks``
    after its predecessor starts a burst and is always kept, since the last
    kept tag is no later than that predecessor. Inside a burst, the tag
    kept after tag ``i`` is ``nxt[i]``, the first tag at least ``dead_ticks``
    after it (``searchsorted(..., "left")``); that chain stays inside the
    burst until it reaches the next burst's start. The chains of all bursts
    are followed at once, one kept tag per burst per step; the last few
    long bursts are walked one by one so a single long burst costs one
    scalar step per kept tag.
    """
    if dead_ticks <= 0 or ticks.size == 0:
        return ticks
    nxt = np.searchsorted(ticks, ticks + dead_ticks, side="left")
    keep = np.zeros(ticks.size, dtype=bool)
    starts = np.flatnonzero(np.diff(ticks, prepend=ticks[0] - dead_ticks) >= dead_ticks)
    keep[starts] = True
    ends = np.append(starts[1:], ticks.size)
    cur = nxt[starts]
    while cur.size > _SCALAR_BURSTS:
        inside = cur < ends
        cur, ends = cur[inside], ends[inside]
        keep[cur] = True
        cur = nxt[cur]
    tail = []
    for i, end in zip(cur.tolist(), ends.tolist()):
        while i < end:
            tail.append(i)
            i = nxt.item(i)
    keep[tail] = True
    return ticks[keep]


def _apply_detector(ticks, det: DetectorModel, duration, resolution, rng):
    if det.efficiency < 1.0:
        ticks = ticks.compress(rng.random(ticks.size) < det.efficiency)
    if det.jitter_sigma > 0.0 and ticks.size:
        times = ticks * resolution + rng.normal(0.0, det.jitter_sigma, size=ticks.size)
        times = times[(times >= 0.0) & (times < duration)]
        ticks = np.sort(np.floor(times / resolution).astype(np.int64))
    ticks = _dead_time_filter(ticks, int(round(det.dead_time / resolution)))
    if det.dark_rate > 0.0:
        darks = simulate_background_tags(det.dark_rate, duration, rng, resolution)
        merged = np.concatenate([ticks, darks.timestamps])
        merged.sort(kind="stable")
        ticks = merged
    return ticks


def run_detection(
    stream: TimeTagStream,
    split_ratio: float,
    det_a: DetectorModel,
    det_b: DetectorModel,
    seed,
) -> tuple[TimeTagStream, TimeTagStream]:
    """Send a photon stream through a beamsplitter onto two detectors.

    Each tag goes to detector A with probability ``split_ratio``, else to B.
    Per arm: efficiency thinning, then timing jitter, then non-paralyzable
    dead time, then dark counts. Outputs are channel 0 (A) and channel 1 (B).
    """
    if not 0.0 <= split_ratio <= 1.0:
        raise DomainError(f"split_ratio must be in [0, 1], got {split_ratio}")
    rng = np.random.default_rng(seed)
    to_a = rng.random(stream.n_tags) < split_ratio
    arms = []
    for channel, (routed, det) in enumerate(((to_a, det_a), (~to_a, det_b))):
        ticks = _apply_detector(
            stream.timestamps.compress(routed), det, stream.duration, stream.resolution, rng
        )
        arms.append(TimeTagStream._trusted(
            stream.resolution, np.full(ticks.size, channel, np.uint8), ticks, stream.duration
        ))
    return tuple(arms)


def simulate_spot(
    n_centers: int,
    emitter: EmitterModel,
    background: BackgroundModel,
    detector: DetectorModel,
    split: float,
    power: float,
    duration: float,
    seeds,
    resolution: float = DEFAULT_RESOLUTION,
) -> tuple[TimeTagStream, TimeTagStream]:
    """Both detector arms of a spot with ``n_centers`` emitters and background.

    ``seeds`` is the (emitter, background, detectors) seed triple. The light
    goes through a beamsplitter (``split`` to arm A) onto two detectors of
    model ``detector``.

    Only detected photons are drawn: both arms share one efficiency, and
    thinning by it commutes with the split and the jitter, so it is folded
    into the sources. Thinning the emitter's renewal process scales its
    detection probability per cycle; thinning a Poisson background scales
    its rate. The detectors then thin nothing.
    """
    if not isinstance(n_centers, numbers.Integral) or n_centers < 0:
        raise DomainError(f"n_centers must be a nonnegative integer, got {n_centers!r}")
    k_emit, k_bg, k_det = seeds
    eta = detector.efficiency
    detected = replace(emitter, sat_rate=emitter.sat_rate * eta)
    stream = simulate_emitter_tags([detected] * n_centers, power, duration, k_emit, resolution)
    if background.rate * eta > 0:
        stream = merge_streams(
            stream, simulate_background_tags(background.rate * eta, duration, k_bg, resolution)
        )
    detector = replace(detector, efficiency=1.0)
    return run_detection(stream, split, detector, detector, k_det)


def simulate_pulsed_decay(
    models: EmitterModel | list[EmitterModel],
    background: BackgroundModel,
    bg_fraction: float,
    pulse_period: float,
    pulse_width: float,
    n_pulses: int,
    seed,
) -> DecayHistogram:
    """Time-correlated photon histogram under rectangular pulsed excitation.

    Each recorded photon was excited at a uniform time within the pulse and
    decays exponentially: with probability ``bg_fraction`` at the background
    decay time, otherwise at the lifetime of one of the emitters (chosen
    uniformly). Delays are measured from the pulse leading edge; the rare
    delay beyond one period is dropped rather than folded. Pulses record
    ``_PHOTONS_PER_PULSE`` (1) photon on average, binned at
    ``_DECAY_BIN_WIDTH`` (1 ns).
    """
    if isinstance(models, EmitterModel):
        models = [models]
    if not 0.0 <= bg_fraction <= 1.0:
        raise DomainError(f"bg_fraction must be in [0, 1], got {bg_fraction}")
    if pulse_period <= 0 or pulse_width <= 0 or pulse_width >= pulse_period:
        raise DomainError("need 0 < pulse_width < pulse_period")
    if n_pulses < 0:
        raise DomainError(f"n_pulses must be nonnegative, got {n_pulses}")
    if bg_fraction < 1.0 and not models:
        raise DomainError("need at least one emitter when bg_fraction < 1")

    n_bins = int(round(pulse_period / _DECAY_BIN_WIDTH))
    edges = np.arange(n_bins + 1) * _DECAY_BIN_WIDTH
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = np.zeros(n_bins, dtype=np.int64)
    if n_pulses > 0:
        rng = np.random.default_rng(seed)
        n_events = rng.poisson(_PHOTONS_PER_PULSE * n_pulses)
        excitation = rng.uniform(0.0, pulse_width, size=n_events)
        taus = np.empty(n_events)
        slow = rng.random(n_events) < bg_fraction
        taus[slow] = background.decay_time
        if models:
            which = rng.integers(0, len(models), size=n_events)
            lifetimes = np.array([m.lifetime for m in models])
            taus[~slow] = lifetimes[which[~slow]]
        delays = excitation + rng.exponential(1.0, size=n_events) * taus
        counts += np.histogram(delays, bins=edges)[0]
    return DecayHistogram(centers, counts, _DECAY_BIN_WIDTH, n_pulses)


def write_decay_csv(hist: DecayHistogram, path) -> None:
    """Write a decay histogram as ``time_ns,counts`` with a metadata comment."""
    meta = {"n_pulses": hist.n_pulses, "bin_width_ns": hist.bin_width * 1e9}
    write_table(path, "time_ns,counts", (hist.bin_centers * 1e9, hist.counts), "%.17g,%d", meta)


def read_decay_csv(path) -> DecayHistogram:
    """Read a ``time_ns,counts`` histogram written by :func:`write_decay_csv`."""
    meta = {"n_pulses": count, "bin_width_ns": float}
    table = read_table(path, {"time_ns,counts": (float, count)}, meta, min_rows=2)
    times = np.asarray(table.columns[0]) * 1e-9
    width = table.meta.get("bin_width_ns")
    width = width * 1e-9 if width is not None else float(np.median(np.diff(times)))
    counts = np.asarray(table.columns[1], np.int64)
    return DecayHistogram(times, counts, width, n_pulses=table.meta.get("n_pulses", 0))
