"""Span tracing for the benchmark, kept outside the program.

``traced(tracer)`` replaces voxcrf's public functions at the names their
callers look up (for example ``voxcrf.pipeline.runner.mean_field_infer`` and
``voxcrf.crf.plan_filter``) with wrappers that record one span per call, and
puts the originals back when the block ends.  Untraced calls therefore run
the program unmodified.  A span holds its name, start, end, parent span and
the run id shared by every span of one traced call; some spans also carry
counts read from the call's arguments or result.  Spans stay in memory until
the benchmark writes them out.

Span names are ``<layer>.<what>``, where the layer is the voxcrf module that
does the work: pipeline (formats, resample, runner, cli), crf, filtering,
lattice, projection, fusion, metrics.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("pipeline", "crf", "filtering", "lattice", "projection", "fusion", "metrics")

# Counters that must repeat exactly between two traced calls on one input.
COUNTERS = (
    "filtering.plan_builds",
    "crf.infer_calls",
    "lattice.vertices",
    "projection.points",
    "fusion.voxels",
    "fusion.extracted",
    "metrics.eval_pixels",
)


class Tracer:
    """In-memory span recorder for one traced call (single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording a span named ``name``; ``attrs(args, kwargs, result)``
        may add counts to the span."""

        def traced_call(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced_call


def _kernel(args, kwargs, result):
    features = args[0] if args else kwargs["features"]
    return {"kernel": "bilateral" if features.shape[1] > 2 else "spatial"}


def _patch_table():
    """(owner, attribute, span name, attrs) for every wrapped call site."""
    from voxcrf import crf, filtering, lattice, metrics
    from voxcrf.pipeline import cli, runner

    load, resample = "pipeline.load", "pipeline.resample"
    return [
        (runner, "load_manifest", load, None),
        (runner, "run_frame", "pipeline.run_frame", None),
        (runner, "read_ppm", load, None),
        (runner, "read_pgm16", load, None),
        (runner, "load_unary", load, None),
        (runner, "read_label_image", load, None),
        (runner, "resample_probabilities", resample, None),
        (runner, "resample_rgb", resample, None),
        (runner, "unary_from_probabilities", "crf.unary", None),
        (runner, "build_features", "crf.build_features", None),
        (runner, "mean_field_infer", "crf.mean_field_infer", None),
        (runner, "back_project", "projection.back_project", None),
        (
            runner,
            "make_semantic_cloud",
            "projection.make_cloud",
            lambda a, k, r: {"points": len(r)},
        ),
        (runner, "transform_cloud", "projection.transform", None),
        (
            runner,
            "integrate_cloud",
            "fusion.integrate",
            lambda a, k, r: {"points": len(a[1]), "voxels": len(r)},
        ),
        (
            runner,
            "evaluate_fused_map",
            "metrics.evaluate",
            lambda a, k, r: {"pixels": r.hits + r.missing},
        ),
        (runner, "compute_metrics", "metrics.report", None),
        (runner, "format_report", "metrics.report", None),
        (runner, "per_class_rows", "metrics.report", None),
        (runner, "extract_map", "fusion.extract", lambda a, k, r: {"rows": len(r)}),
        (
            runner,
            "write_ply",
            "pipeline.export",
            lambda a, k, r: {"bytes": os.path.getsize(a[0])},
        ),
        (metrics, "back_project", "projection.back_project", None),
        (cli, "load_manifest", load, None),
        (cli, "read_ppm", load, None),
        (cli, "load_unary", load, None),
        (cli, "read_label_image", load, None),
        (cli, "train_crf_params", "crf.train", None),
        (crf, "unary_from_probabilities", "crf.unary", None),
        (crf, "build_features", "crf.build_features", None),
        (crf, "mean_field_infer", "crf.mean_field_infer", None),
        (crf, "mean_field_backward", "crf.mean_field_backward", None),
        (crf, "plan_filter", "filtering.plan", _kernel),
        (filtering.FilterPlan, "apply", "filtering.apply", None),
        (filtering.FilterPlan, "apply_transpose", "filtering.apply_transpose", None),
        (
            filtering,
            "PermutohedralLattice",
            "lattice.build",
            lambda a, k, r: {"vertices": r.num_vertices},
        ),
        (lattice.PermutohedralLattice, "filter", "lattice.filter", None),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, attrs in _patch_table():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    by_id = {s["id"]: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            lo = max(s["start"], parent["start"])
            hi = min(s["end"], parent["end"])
            covered[parent["id"]] += max(0.0, hi - lo)
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times (s) and counts of one traced call."""
    own = self_times(spans)

    def named(name, kernel=None):
        return [
            s for s in spans if s["name"] == name and (kernel is None or s["kernel"] == kernel)
        ]

    def incl(name, kernel=None):
        return sum(s["end"] - s["start"] for s in named(name, kernel))

    def self_of(name):
        return sum(own[s["id"]] for s in named(name))

    def total(name, key):
        return sum(s[key] for s in named(name))

    integrates = named("fusion.integrate")
    voxels = integrates[-1]["voxels"] if integrates else 0
    points_fused = total("fusion.integrate", "points")
    m = {
        "pipeline.load_s": incl("pipeline.load"),
        "pipeline.resample_s": incl("pipeline.resample"),
        "pipeline.export_s": incl("pipeline.export"),
        "pipeline.ply_bytes": total("pipeline.export", "bytes"),
        "crf.features_s": incl("crf.build_features"),
        "crf.infer_self_s": self_of("crf.mean_field_infer"),
        "crf.backward_self_s": self_of("crf.mean_field_backward"),
        "crf.infer_calls": len(named("crf.mean_field_infer")),
        "filtering.plan_bilateral_s": incl("filtering.plan", "bilateral"),
        "filtering.plan_spatial_s": incl("filtering.plan", "spatial"),
        "filtering.plan_builds": len(named("filtering.plan")),
        "filtering.apply_s": incl("filtering.apply"),
        "filtering.apply_transpose_s": incl("filtering.apply_transpose"),
        "lattice.build_s": incl("lattice.build"),
        "lattice.vertices": total("lattice.build", "vertices"),
        "lattice.filter_s": incl("lattice.filter"),
        "projection.backproject_s": incl("projection.back_project"),
        "projection.points": total("projection.make_cloud", "points"),
        "fusion.integrate_s": incl("fusion.integrate"),
        "fusion.voxels": voxels,
        "fusion.points_per_voxel": points_fused / voxels if voxels else 0.0,
        "fusion.extract_s": incl("fusion.extract"),
        "fusion.extracted": total("fusion.extract", "rows"),
        "metrics.evaluate_s": incl("metrics.evaluate"),
        "metrics.eval_pixels": total("metrics.evaluate", "pixels"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            own[s["id"]] for s in spans if s["name"].split(".", 1)[0] == layer
        )
    return m
