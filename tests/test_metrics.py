import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxcrf.crf import IGNORE_LABEL, LabelImage
from voxcrf.errors import InputError
from voxcrf.fusion import VoxelMap, integrate_cloud
from voxcrf.metrics import (
    ConfusionMatrix,
    EvalFrame,
    accumulate,
    compute_metrics,
    evaluate_fused_map,
    format_report,
    per_class_rows,
)
from voxcrf.projection import (
    CameraIntrinsics,
    Pose,
    back_project,
    make_semantic_cloud,
    transform_cloud,
)
from voxcrf.crf import LabelDistributionImage


def limg(data, height=None, width=None):
    data = np.asarray(data)
    if height is None:
        height, width = 1, data.size
    return LabelImage(height, width, data.reshape(-1))


def test_accumulate_all_ignore_unchanged():
    cm = ConfusionMatrix(2)
    accumulate(cm, limg([0, 1]), limg([IGNORE_LABEL, IGNORE_LABEL]))
    assert cm.counts.sum() == 0


def test_accumulate_perfect_class():
    cm = ConfusionMatrix(4)
    accumulate(cm, limg([3] * 10), limg([3] * 10))
    assert cm.counts[3, 3] == 10
    assert cm.counts.sum() == 10


def test_accumulate_pair_counts():
    cm = ConfusionMatrix(2)
    accumulate(cm, limg([0, 1, 1, 0]), limg([0, 0, 1, 1]))
    assert cm.counts.tolist() == [[1, 1], [1, 1]]


def test_accumulate_out_of_range():
    cm = ConfusionMatrix(2)
    with pytest.raises(InputError):
        accumulate(cm, limg([5]), limg([0]))
    with pytest.raises(InputError):
        accumulate(cm, limg([0]), limg([3]))


@pytest.mark.parametrize(
    "pred, truth, message",
    [
        ([0, 1, 2, 255], [0, 1, 2, 1], "predicted label 255 at pixel (row 1, col 1)"),
        ([0, 1, 2, 0], [0, 255, 7, 1], "truth label 7 at pixel (row 1, col 0)"),
        ([0, -1, 2, 0], [0, 1, 2, 1], "predicted label -1 at pixel (row 0, col 1)"),
    ],
    ids=["predicted-ignore", "truth-past-the-labels", "predicted-negative"],
)
def test_accumulate_names_the_first_bad_pixel_and_its_value(pred, truth, message):
    cm = ConfusionMatrix(3)
    with pytest.raises(InputError) as err:
        accumulate(cm, limg(pred, 2, 2), limg(truth, 2, 2))
    assert str(err.value) == f"{message} is outside [0, 3)"
    assert cm.counts.sum() == 0


def test_accumulate_dimension_mismatch():
    cm = ConfusionMatrix(2)
    with pytest.raises(InputError):
        accumulate(cm, limg([0, 1]), limg([0]))


def test_metrics_perfect_prediction():
    cm = ConfusionMatrix(3, np.diag([5, 2, 9]))
    assert compute_metrics(cm) == pytest.approx((1.0, 1.0, 1.0, 1.0))


def test_metrics_hand_derived_case():
    cm = ConfusionMatrix(2, np.array([[3, 1], [1, 3]]))
    pixel, mean, miu, fwiu = compute_metrics(cm)
    assert (pixel, mean, miu, fwiu) == pytest.approx((0.75, 0.75, 0.6, 0.6))


def test_metrics_absent_class_excluded():
    # class 2 absent from truth but absorbs one false positive
    counts = np.array([[4, 0, 1], [0, 3, 0], [0, 0, 0]])
    cm = ConfusionMatrix(3, counts)
    pixel, mean, miu, fwiu = compute_metrics(cm)
    assert pixel == pytest.approx(7 / 8)
    assert mean == pytest.approx((4 / 5 + 3 / 3) / 2)
    assert miu == pytest.approx((4 / 5 + 1.0) / 2)
    assert fwiu == pytest.approx((5 * 4 / 5 + 3 * 1.0) / 8)


def test_metrics_unpredicted_present_class_drags_mean():
    # class 1 present but never predicted correctly: its accuracy 0 drags mean
    counts = np.array([[10, 0], [4, 0]])
    cm = ConfusionMatrix(2, counts)
    pixel, mean, _, _ = compute_metrics(cm)
    assert pixel == pytest.approx(10 / 14)
    assert mean == pytest.approx(0.5)


def test_metrics_empty_matrix_errors():
    with pytest.raises(InputError):
        compute_metrics(ConfusionMatrix(2))


def test_metrics_range_and_empty_class_invariance(rng):
    counts = rng.integers(0, 50, (4, 4))
    cm = ConfusionMatrix(4, counts)
    vals = compute_metrics(cm)
    assert all(0.0 <= v <= 1.0 for v in vals)
    # adding an empty class (no truth, no predictions) changes nothing
    bigger = np.zeros((5, 5), dtype=np.int64)
    bigger[:4, :4] = counts
    assert compute_metrics(ConfusionMatrix(5, bigger)) == pytest.approx(vals)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_metrics_label_permutation_invariance(seed):
    r = np.random.default_rng(seed)
    counts = r.integers(0, 30, (4, 4))
    vals = compute_metrics(ConfusionMatrix(4, counts))
    perm = r.permutation(4)
    permuted = counts[np.ix_(perm, perm)]
    assert compute_metrics(ConfusionMatrix(4, permuted)) == pytest.approx(vals)


# ---------------------------------------------------------------------------
# fused-map evaluation
# ---------------------------------------------------------------------------

INTR = CameraIntrinsics(fx=40.0, fy=40.0, cx=15.5, cy=11.5, depth_scale=0.001)


def build_frames(rng, num_labels=3, frames=3):
    out = []
    for k in range(frames):
        depth = rng.integers(500, 3000, size=(24, 32)).astype(np.uint16)
        depth[0, 0] = 0  # one invalid pixel
        truth = rng.integers(0, num_labels, size=(24, 32))
        pose = Pose(np.eye(4)) if k == 0 else Pose(np.eye(4) + 0.0)
        out.append((depth, truth, pose))
    return out


def one_hot(labels_flat, num_labels):
    eye = np.eye(num_labels)
    return eye[labels_flat]


def test_evaluate_self_consistency(rng):
    num_labels = 3
    frames = build_frames(rng, num_labels)
    vmap = VoxelMap(0.01, num_labels)
    eval_frames = []
    for depth, truth, pose in frames:
        q = LabelDistributionImage(24, 32, num_labels, one_hot(truth.reshape(-1), num_labels))
        points, valid = back_project(depth, INTR)
        cloud = make_semantic_cloud(points, valid, q, np.zeros((24, 32, 3)))
        integrate_cloud(vmap, transform_cloud(cloud, pose))
        eval_frames.append(EvalFrame(limg(truth, 24, 32), depth, INTR, pose))
    result = evaluate_fused_map(vmap, eval_frames)
    assert result.coverage == 1.0
    off_diag = result.cm.counts.sum() - np.trace(result.cm.counts)
    # voxels straddled by different-truth points may disagree; but with random
    # depth the clouds are sparse in 3D, so the matrix is essentially diagonal
    assert off_diag <= 0.01 * result.cm.counts.sum()
    assert compute_metrics(result.cm)[0] > 0.99


def test_evaluate_empty_map_gives_zero_coverage(rng):
    frames = build_frames(rng)
    vmap = VoxelMap(0.01, 3)
    eval_frames = [EvalFrame(limg(t, 24, 32), d, INTR, p) for d, t, p in frames]
    result = evaluate_fused_map(vmap, eval_frames)
    assert result.coverage == 0.0
    assert result.cm.counts.sum() == 0
    with pytest.raises(InputError):
        compute_metrics(result.cm)


@pytest.mark.parametrize("shape", [(12, 16), (32, 24)])
def test_evaluate_rejects_truth_off_the_depth_grid(rng, shape):
    # (32, 24) has the depth grid's pixel count, so a reshape would not catch it
    depth, _, pose = build_frames(rng, frames=1)[0]
    truth = limg(rng.integers(0, 3, size=shape), *shape)
    message = re.escape(f"truth is {shape}, depth grid is (24, 32)")
    with pytest.raises(InputError, match=message):
        evaluate_fused_map(VoxelMap(0.01, 3), [EvalFrame(truth, depth, INTR, pose)])


def test_evaluate_skips_ignore_and_invalid(rng):
    depth = np.full((4, 4), 1000, dtype=np.uint16)
    depth[0, :] = 0  # invalid row
    truth = np.zeros((4, 4), dtype=np.int64)
    truth[1, :] = IGNORE_LABEL
    q = LabelDistributionImage(4, 4, 2, one_hot(np.zeros(16, dtype=int), 2))
    points, valid = back_project(depth, INTR)
    cloud = make_semantic_cloud(points, valid, q, np.zeros((4, 4, 3)))
    vmap = VoxelMap(0.01, 2)
    integrate_cloud(vmap, cloud)
    result = evaluate_fused_map(vmap, [EvalFrame(limg(truth, 4, 4), depth, INTR, Pose(np.eye(4)))])
    assert result.hits + result.missing == 8  # 16 - 4 invalid - 4 ignore


def test_report_formatting():
    text = format_report(0.5, 0.25, 0.125, 0.0625, coverage=1.0)
    assert "pixel_accuracy=0.500000" in text
    assert "coverage=1.000000" in text
    rows = per_class_rows(ConfusionMatrix(2, np.array([[3, 1], [1, 3]])), ["wood", "glass"])
    assert rows.splitlines()[0] == "class,truth_pixels,accuracy,iu"
    assert rows.splitlines()[1].startswith("wood,4,0.75")
