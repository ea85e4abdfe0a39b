import os

# One BLAS thread, as in the benchmark, set before numpy loads its BLAS:
# test_complexity_scaling times process CPU time, which would otherwise
# also count idle BLAS worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_flat_rgb(rng, height, width, num_materials=5, jitter=10.0):
    """Piecewise-flat color image: random rectangles over a background,
    distinct base colors, bounded per-pixel jitter."""
    palette = np.array(
        [
            [200, 60, 60],
            [60, 200, 60],
            [60, 60, 200],
            [200, 200, 60],
            [160, 40, 160],
            [230, 120, 30],
            [40, 150, 150],
            [240, 240, 240],
        ]
    )[:num_materials]
    labels = np.zeros((height, width), dtype=int)
    for _ in range(4):
        y0 = int(rng.integers(0, max(1, height - 4)))
        x0 = int(rng.integers(0, max(1, width - 4)))
        y1 = int(rng.integers(y0 + 2, height + 1))
        x1 = int(rng.integers(x0 + 2, width + 1))
        labels[y0:y1, x0:x1] = int(rng.integers(0, num_materials))
    rgb = palette[labels].astype(np.float64) + rng.uniform(
        -jitter, jitter, size=(height, width, 3)
    )
    return np.clip(rgb, 0, 255), labels


@pytest.fixture
def plan_builds(monkeypatch):
    """Feature shapes of every plan built through ``voxcrf.crf.plan_filter``,
    the one place inference and training build plans."""
    import voxcrf.crf as crf

    built = []
    original = crf.plan_filter

    def counting(features, *args, **kwargs):
        built.append(np.shape(features))
        return original(features, *args, **kwargs)

    monkeypatch.setattr(crf, "plan_filter", counting)
    return built


def build_fresh_plan(features, backend, plans, dtype=np.float64):
    """Stand-in for ``reuse_plan`` that ignores the held plans."""
    import voxcrf.crf as crf

    return crf.plan_filter(features, backend, dtype)
