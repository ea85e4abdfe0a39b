"""The benchmark's span tracer (``perfbench/tracing.py``) wraps voxcrf call
sites by name.  These tests run it, without changing it, on a tiny pipeline
run and a tiny ``train-crf`` run, so a refactor that renames or drops a
wrapped call site fails here instead of in a traced benchmark run."""

import importlib.util
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from voxcrf.pipeline.cli import main as cli_main
from voxcrf.pipeline.runner import run_pipeline
from voxcrf.pipeline.synthetic import default_scene_spec, generate_synthetic

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # read-only
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def traced_metrics(tracing, tmp_path_factory):
    """Layer metrics of one traced lattice pipeline run plus one traced
    ``train-crf`` run."""
    root = tmp_path_factory.mktemp("trace")
    spec = default_scene_spec(seed=0, frame_count=2, width=32, height=24, noise=0.25)
    manifest = generate_synthetic(spec, root / "scene")
    tracer = tracing.Tracer("contract")
    argv = ["train-crf", "--manifest", str(manifest), "--epochs", "1"]
    argv += ["--out", str(root / "crf_params.json")]
    with tracing.traced(tracer):
        run_pipeline(manifest, overrides={"backend": "lattice"}, out_dir=root / "out")
        with redirect_stdout(StringIO()):
            assert cli_main(argv) == 0
    return tracing.layer_metrics(tracer.spans)


@pytest.mark.parametrize(
    "name",
    [
        "filtering.apply_s",
        "filtering.apply_transpose_s",
        "filtering.plan_builds",
        "lattice.vertices",
        "crf.backward_self_s",
    ],
)
def test_traced_run_reports_layer_metric(traced_metrics, name):
    assert traced_metrics[name] > 0
