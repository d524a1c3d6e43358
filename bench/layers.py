"""Per-layer metrics of the traced run.

The layers are the package modules. ``TracedPackage`` wraps each public
function listed in ``FUNCTIONS`` through a ``spans.Recorder`` and turns one
pass's spans into ``<module>.<function>.<quantity>`` numbers.
``detection_steps`` times ``run_detection`` with one detector imperfection
switched on at a time, which gives the per-step figures without tracing
inside ``photonsim``.
"""
from __future__ import annotations

import importlib
import os
import statistics
import time

from spans import Recorder, self_times, untraced_time

MODULES = (
    "cli", "config", "implantation", "defectstats", "photonsim",
    "timetags", "correlator", "fitkit", "analysis",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tags(args, kwargs, result):
    return {"tags": result.n_tags}


def _file_bytes(index, name):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}

    return count


def _correlate(args, kwargs, result):
    return {"pairs": int(result.raw.sum()), "starts": _arg(args, kwargs, 0, "a").n_tags}


def _fit_g2(args, kwargs, result):
    return {"converged": int(result.converged)}


def _least_squares(args, kwargs, result):
    return {"iterations": result.iterations, "unconverged": int(not result.converged)}


# (layer name, module, attribute, counter); a dotted attribute is a method
FUNCTIONS = (
    ("cli.main", "cli", "main", None),
    ("config.load_config", "config", "load_config", None),
    ("implantation.build_pattern", "implantation", "build_pattern", None),
    ("implantation.sample_ion_counts", "implantation", "sample_ion_counts", None),
    ("defectstats.sample_defect_count", "defectstats", "sample_defect_count", None),
    ("photonsim.simulate_emitter_tags", "photonsim", "simulate_emitter_tags", _tags),
    ("photonsim.simulate_background_tags", "photonsim", "simulate_background_tags", _tags),
    ("photonsim.run_detection", "photonsim", "run_detection", None),
    ("timetags.merge_streams", "timetags", "merge_streams", _tags),
    ("timetags.write_timetags", "timetags", "write_timetags", _file_bytes(1, "path")),
    ("timetags.read_timetags", "timetags", "read_timetags", _file_bytes(0, "path")),
    ("timetags.select", "timetags", "TimeTagStream.select", None),
    ("timetags.TimeTagStream.__post_init__", "timetags", "TimeTagStream.__post_init__", None),
    ("correlator.correlate", "correlator", "correlate", _correlate),
    ("correlator.fit_g2", "correlator", "fit_g2", _fit_g2),
    ("correlator.write_histogram_csv", "correlator", "write_histogram_csv", None),
    ("fitkit.least_squares", "fitkit", "least_squares", _least_squares),
    ("analysis.calibrate_single_rate", "analysis", "calibrate_single_rate", None),
    ("analysis.count_emitters", "analysis", "count_emitters", None),
    ("analysis.write_spot_table", "analysis", "write_spot_table", None),
)

STEPS = ("efficiency", "jitter", "dead_time", "dark")

# name -> (unit, better), in report order
PER_LAYER: dict[str, tuple[str, str]] = {}
for _layer, *_ in FUNCTIONS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "photonsim.simulate_emitter_tags.tags": ("count", "higher"),
    "photonsim.simulate_emitter_tags.tags_per_s": ("1/s", "higher"),
    "photonsim.simulate_background_tags.tags": ("count", "higher"),
    "photonsim.run_detection.tags_in": ("count", "higher"),
    "photonsim.run_detection.tags_out": ("count", "higher"),
    "photonsim.run_detection.kept_ratio": ("ratio", "higher"),
    "photonsim.step.split_s": ("s", "lower"),
    **{f"photonsim.step.{step}_s": ("s", "lower") for step in STEPS},
    "photonsim.step.dead_time.lost": ("count", "lower"),
    "timetags.merge_streams.tags": ("count", "higher"),
    "timetags.write_timetags.bytes": ("B", "lower"),
    "timetags.read_timetags.bytes": ("B", "lower"),
    "correlator.correlate.pairs": ("count", "higher"),
    "correlator.correlate.pairs_per_start": ("pairs/tag", "higher"),
    "correlator.fit_g2.converged_ratio": ("ratio", "higher"),
    "fitkit.least_squares.iterations": ("count", "lower"),
    "fitkit.least_squares.unconverged": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
})


class TracedPackage:
    """Installs span wrappers on the package and reads one pass's spans."""

    def __init__(self):
        self.recorder = Recorder()
        self.modules = {m: importlib.import_module(f"emitterforge.{m}") for m in MODULES}
        self.owners = [importlib.import_module("emitterforge"), *self.modules.values()]
        # heaviest run_detection input of the pass: (stream, split, det_a)
        self.heaviest = None

    def _detection_count(self, args, kwargs, result):
        stream = _arg(args, kwargs, 0, "stream")
        if self.heaviest is None or stream.n_tags > self.heaviest[0].n_tags:
            self.heaviest = (stream, _arg(args, kwargs, 1, "split_ratio"),
                             _arg(args, kwargs, 2, "det_a"))
        return {"tags_in": stream.n_tags, "tags_out": result[0].n_tags + result[1].n_tags}

    def __enter__(self):
        self.recorder.reset()
        self.heaviest = None
        for layer, module, attr, count in FUNCTIONS:
            if layer == "photonsim.run_detection":
                count = self._detection_count
            owner = self.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                fn, owners = vars(cls)[attr], [cls]
            else:
                fn, owners = getattr(owner, attr), self.owners
            self.recorder.install(layer, fn, owners, count)
        return self

    def __exit__(self, *exc):
        self.recorder.uninstall()
        return False

    def pass_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer numbers of the spans recorded since ``__enter__``."""
        spans = self.recorder.spans
        own = self_times(spans)
        sums: dict[str, dict[str, float]] = {layer: {} for layer, *_ in FUNCTIONS}
        for span, own_s in zip(spans, own):
            acc = sums[span.name]
            acc["calls"] = acc.get("calls", 0) + 1
            acc["self_s"] = acc.get("self_s", 0.0) + own_s
            acc["total_s"] = acc.get("total_s", 0.0) + span.duration
            for key, value in span.counts.items():
                acc[key] = acc.get(key, 0) + value
        out: dict[str, float] = {}
        for layer, acc in sums.items():
            out[f"{layer}.calls"] = acc.get("calls", 0)
            out[f"{layer}.self_s"] = acc.get("self_s", 0.0)
        emit = sums["photonsim.simulate_emitter_tags"]
        det = sums["photonsim.run_detection"]
        corr = sums["correlator.correlate"]
        fit = sums["correlator.fit_g2"]
        lsq = sums["fitkit.least_squares"]
        out.update({
            "photonsim.simulate_emitter_tags.tags": emit.get("tags", 0),
            "photonsim.simulate_emitter_tags.tags_per_s": _ratio(emit.get("tags", 0), emit.get("total_s", 0.0)),
            "photonsim.simulate_background_tags.tags": sums["photonsim.simulate_background_tags"].get("tags", 0),
            "photonsim.run_detection.tags_in": det.get("tags_in", 0),
            "photonsim.run_detection.tags_out": det.get("tags_out", 0),
            "photonsim.run_detection.kept_ratio": _ratio(det.get("tags_out", 0), det.get("tags_in", 0)),
            "timetags.merge_streams.tags": sums["timetags.merge_streams"].get("tags", 0),
            "timetags.write_timetags.bytes": sums["timetags.write_timetags"].get("bytes", 0),
            "timetags.read_timetags.bytes": sums["timetags.read_timetags"].get("bytes", 0),
            "correlator.correlate.pairs": corr.get("pairs", 0),
            "correlator.correlate.pairs_per_start": _ratio(corr.get("pairs", 0), corr.get("starts", 0)),
            "correlator.fit_g2.converged_ratio": _ratio(fit.get("converged", 0), fit.get("calls", 0)),
            "fitkit.least_squares.iterations": lsq.get("iterations", 0),
            "fitkit.least_squares.unconverged": lsq.get("unconverged", 0),
            "trace.untraced_s": untraced_time(spans, wall),
        })
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def detection_steps(stream, split: float, det, repeats: int, seed: int = 0) -> dict[str, float]:
    """Cost of each detection step on ``stream``, against the split-only call.

    ``run_detection`` runs with a perfect detector (split only) and with
    each of ``det``'s imperfections alone; a step's figure is its median
    time minus the split-only median. Steps ``det`` does not have read 0.
    """
    from emitterforge.photonsim import DetectorModel, run_detection

    variants = {"split": DetectorModel()}
    settings = {
        "efficiency": {"efficiency": det.efficiency},
        "jitter": {"jitter_sigma": det.jitter_sigma},
        "dead_time": {"dead_time": det.dead_time},
        "dark": {"dark_rate": det.dark_rate},
    }
    for step, kwargs in settings.items():
        if DetectorModel(**kwargs) != variants["split"]:
            variants[step] = DetectorModel(**kwargs)
    times: dict[str, list[float]] = {step: [] for step in variants}
    tags_out: dict[str, int] = {}
    for _ in range(repeats):
        for step, model in variants.items():
            start = time.perf_counter()
            a, b = run_detection(stream, split, model, model, seed)
            times[step].append(time.perf_counter() - start)
            tags_out[step] = a.n_tags + b.n_tags
    base = statistics.median(times["split"])
    out = {"photonsim.step.split_s": base}
    for step in STEPS:
        out[f"photonsim.step.{step}_s"] = (
            statistics.median(times[step]) - base if step in times else 0.0
        )
    out["photonsim.step.dead_time.lost"] = (
        tags_out["split"] - tags_out["dead_time"] if "dead_time" in times else 0
    )
    return out


def no_detection_steps() -> dict[str, float]:
    """Step figures of a workload that never calls ``run_detection``."""
    out = {f"photonsim.step.{step}_s": 0.0 for step in ("split", *STEPS)}
    out["photonsim.step.dead_time.lost"] = 0
    return out
