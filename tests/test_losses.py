"""Tests for the per-tile and embedding losses and their analytic gradients."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from bevlanes.codec import (
    AngleBinSpec,
    TilePredictionGrid,
    angle_to_soft_labels,
    encode_scene,
    logit,
    saturated_prediction,
)
from bevlanes.geometry import GridSpec, Lane3D
from bevlanes.losses import (
    ClusterSummary,
    EmbeddingParams,
    angle_loss,
    embedding_loss,
    finite_diff_check,
    offsets_loss,
    pull_loss,
    push_loss,
    score_loss,
    total_tile_loss,
)

BINS = AngleBinSpec(n_bins=8)
PARAMS = EmbeddingParams(pull_margin=0.1, push_margin=3.0, dim=2)
LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# offsets


def test_offsets_loss_perfect():
    assert offsets_loss((0.3, 0.1), (0.3, 0.1)).value == 0.0


def test_offsets_loss_hand_value_and_grad():
    out = offsets_loss((0.5, 0.2), (0.3, 0.1))
    npt.assert_allclose(out.value, 0.3, atol=1e-12)
    npt.assert_allclose(out.grad["lateral_offset"], 1.0)
    npt.assert_allclose(out.grad["height_offset"], 1.0)
    out = offsets_loss((0.1, 0.0), (0.3, 0.1))
    npt.assert_allclose(out.grad["lateral_offset"], -1.0)


def test_offsets_loss_kink_subgradient_zero():
    out = offsets_loss((0.3, 0.1), (0.3, 0.1))
    npt.assert_allclose(out.grad["lateral_offset"], 0.0)
    npt.assert_allclose(out.grad["height_offset"], 0.0)


def test_offsets_loss_finite_diff():
    fn = lambda d: offsets_loss((d["lateral_offset"], d["height_offset"]), (0.3, 0.1))
    report = finite_diff_check(fn, {"lateral_offset": 0.5, "height_offset": 0.2})
    assert report.passed, report
    assert report.max_rel_error <= 1e-6


# ---------------------------------------------------------------------------
# angle


def _angle_target(phi):
    p, d, m = angle_to_soft_labels(phi, BINS)
    return p, d, m


def test_angle_loss_perfect_one_hot():
    p, d, m = _angle_target(math.pi / 4)
    out = angle_loss((logit(p), d.copy()), (p, d, m))
    assert out.value <= 1e-6


def test_angle_loss_soft_label_entropy_floor():
    # perfectly predicted half-half labels still pay the label entropy 2 ln 2
    p, d, m = _angle_target(3 * math.pi / 8)
    out = angle_loss((logit(p), d.copy()), (p, d, m))
    npt.assert_allclose(out.value, 2 * LN2, atol=1e-9)


def test_angle_loss_residuals_only_on_masked_bins():
    p, d, m = _angle_target(math.pi / 4)
    pred_res = d + 0.25  # off by 0.25 everywhere, only one bin is masked
    out = angle_loss((logit(p), pred_res), (p, d, m))
    npt.assert_allclose(out.value, 0.25, atol=1e-6)
    npt.assert_allclose(out.grad["bin_residuals"], m)  # +1 on the active bin


def test_angle_loss_finite_diff():
    rng = np.random.default_rng(17)
    p, d, m = _angle_target(1.3)
    for _ in range(5):
        z = rng.uniform(-3, 3, 8)
        res = d + rng.choice([-1, 1], 8) * rng.uniform(0.01, 0.3, 8)  # off kinks
        fn = lambda q: angle_loss((q["bin_logits"], q["bin_residuals"]), (p, d, m))
        report = finite_diff_check(fn, {"bin_logits": z, "bin_residuals": res})
        assert report.passed, report


# ---------------------------------------------------------------------------
# score


def test_score_loss_perfect():
    assert score_loss(50.0, 1.0).value < 1e-6
    assert score_loss(-50.0, 0.0).value < 1e-6


def test_score_loss_hand_value():
    npt.assert_allclose(score_loss(0.0, 1.0).value, LN2, atol=1e-12)
    npt.assert_allclose(score_loss(0.0, 0.0).value, LN2, atol=1e-12)


def test_score_loss_symmetry():
    for z in (-2.0, -0.3, 0.7, 4.0):
        npt.assert_allclose(score_loss(z, 1.0).value, score_loss(-z, 0.0).value, atol=1e-12)


def test_score_loss_target_validated():
    with pytest.raises(ValueError):
        score_loss(0.0, 0.5)


def test_score_loss_finite_diff():
    for z in (-2.0, 0.4, 3.0):
        for c in (0.0, 1.0):
            fn = lambda d: score_loss(d["score_logit"], c)
            report = finite_diff_check(fn, {"score_logit": z})
            assert report.passed, report


# ---------------------------------------------------------------------------
# total grid loss

SMALL_GRID = GridSpec(n_cols=2, n_rows=3)


def _small_scene():
    # vertical lane through column 0 of the 2x3 grid; phi = pi/2 is exactly a
    # bin center so the target soft labels are one-hot (zero-entropy floor)
    ys = np.linspace(0.0, 9.0, 10)
    pts = np.column_stack([np.full_like(ys, -0.5), ys, 0.02 * ys])
    return encode_scene([Lane3D(points=pts)], SMALL_GRID, BINS)


def test_total_loss_zero_at_saturated_perfect_copy():
    targets = _small_scene()
    preds = saturated_prediction(targets)
    out = total_tile_loss(preds, targets)
    n_tiles = SMALL_GRID.n_rows * SMALL_GRID.n_cols
    assert out.value <= 1e-5 * n_tiles
    assert set(out.components) == {"score", "angle", "offsets"}


def test_total_loss_additivity_single_tile():
    grid = GridSpec(n_cols=1, n_rows=1)
    targets = encode_scene([Lane3D(points=np.array([[0.2, 0.0, 0.1], [0.2, 3.0, 0.1]]))],
                           grid, BINS)
    assert targets.occupancy[0, 0] == 1.0
    preds = saturated_prediction(targets)
    preds.score_logit[0, 0] = 0.0
    preds.lateral_offset[0, 0] = targets.lateral_offset[0, 0] + 0.2
    preds.height_offset[0, 0] = targets.height_offset[0, 0] + 0.1
    preds.bin_residuals[0, 0] = targets.bin_residuals[0, 0] + 0.05

    s = score_loss(preds.score_logit[0, 0], 1.0)
    a = angle_loss((preds.bin_logits[0, 0], preds.bin_residuals[0, 0]),
                   (targets.bin_probs[0, 0], targets.bin_residuals[0, 0],
                    targets.bin_mask[0, 0]))
    o = offsets_loss((preds.lateral_offset[0, 0], preds.height_offset[0, 0]),
                     (targets.lateral_offset[0, 0], targets.height_offset[0, 0]))
    out = total_tile_loss(preds, targets)
    npt.assert_allclose(out.value, s.value + a.value + o.value, atol=1e-12)
    npt.assert_allclose(out.components["score"], s.value, atol=1e-12)
    npt.assert_allclose(out.components["angle"], a.value, atol=1e-12)
    npt.assert_allclose(out.components["offsets"], o.value, atol=1e-12)
    # hand values: ln2 (score) + 8 * 0.05 residual L1 only on the masked bin
    npt.assert_allclose(s.value, LN2, atol=1e-12)
    npt.assert_allclose(o.value, 0.3, atol=1e-9)


def test_total_loss_unoccupied_tiles_masked_exactly():
    targets = _small_scene()
    preds = saturated_prediction(targets)
    rng = np.random.default_rng(0)
    preds.lateral_offset += rng.normal(0, 0.1, preds.lateral_offset.shape)
    preds.bin_residuals += rng.normal(0, 0.1, preds.bin_residuals.shape)
    base = total_tile_loss(preds, targets)

    empty = np.argwhere(targets.occupancy == 0)
    assert len(empty) > 0
    i, j = empty[0]
    preds.lateral_offset[i, j] += 123.4
    preds.height_offset[i, j] -= 55.0
    preds.bin_residuals[i, j, :] += 7.0
    out = total_tile_loss(preds, targets)
    assert out.value == base.value  # bit-identical, not just close

    occ3 = targets.occupancy[:, :, None]
    assert np.all(out.grad["lateral_offset"][targets.occupancy == 0] == 0.0)
    assert np.all(out.grad["height_offset"][targets.occupancy == 0] == 0.0)
    assert np.all(out.grad["bin_residuals"][np.broadcast_to(occ3 == 0, out.grad["bin_residuals"].shape)] == 0.0)
    assert np.all(out.grad["bin_logits"][np.broadcast_to(occ3 == 0, out.grad["bin_logits"].shape)] == 0.0)


def test_total_loss_shape_mismatch_rejected():
    targets = _small_scene()
    preds = TilePredictionGrid.zeros(GridSpec(n_cols=3, n_rows=3), BINS, 2)
    with pytest.raises(ValueError):
        total_tile_loss(preds, targets)


def test_total_loss_finite_diff():
    targets = _small_scene()
    rng = np.random.default_rng(9)
    h, w, n = SMALL_GRID.n_rows, SMALL_GRID.n_cols, BINS.n_bins

    def fn(d):
        preds = TilePredictionGrid(
            grid=SMALL_GRID, bins=BINS,
            score_logit=d["score_logit"], lateral_offset=d["lateral_offset"],
            height_offset=d["height_offset"], bin_logits=d["bin_logits"],
            bin_residuals=d["bin_residuals"], embedding=np.zeros((h, w, 2)),
        )
        return total_tile_loss(preds, targets)

    inputs = {
        "score_logit": rng.uniform(-3, 3, (h, w)),
        "lateral_offset": targets.lateral_offset + rng.choice([-1, 1], (h, w)) * rng.uniform(0.01, 0.4, (h, w)),
        "height_offset": targets.height_offset + rng.choice([-1, 1], (h, w)) * rng.uniform(0.01, 0.4, (h, w)),
        "bin_logits": rng.uniform(-3, 3, (h, w, n)),
        "bin_residuals": targets.bin_residuals + rng.choice([-1, 1], (h, w, n)) * rng.uniform(0.01, 0.2, (h, w, n)),
    }
    report = finite_diff_check(fn, inputs)
    assert report.passed, report


# ---------------------------------------------------------------------------
# embedding pull/push


def test_pull_loss_identical_embeddings():
    f = np.tile([[1.0, 2.0]], (4, 1))
    out, summary = pull_loss(f, np.zeros(4, dtype=int), PARAMS)
    assert out.value == 0.0
    assert summary.n_lanes == 1
    npt.assert_allclose(summary.means[0], [1.0, 2.0])


def test_pull_loss_hinge_boundary():
    v = np.array([0.1, 0.0])
    f = np.stack([v, -v])  # mean 0, both at exactly the pull margin
    out, _ = pull_loss(f, np.zeros(2, dtype=int), PARAMS)
    assert out.value == 0.0


def test_pull_loss_hand_value():
    v = np.array([0.6, 0.0])
    f = np.stack([v, -v])  # mean 0, distances 0.6
    out, summary = pull_loss(f, np.zeros(2, dtype=int), PARAMS)
    npt.assert_allclose(out.value, 0.25, atol=1e-12)
    npt.assert_allclose(summary.means, [[0.0, 0.0]])


def test_pull_loss_no_lanes():
    out, summary = pull_loss(np.ones((3, 2)), -np.ones(3, dtype=int), PARAMS)
    assert out.value == 0.0
    assert summary.n_lanes == 0
    npt.assert_allclose(out.grad["embedding"], 0.0)


def test_pull_loss_mean_recomputed():
    rng = np.random.default_rng(2)
    f = rng.normal(size=(10, 3))
    ids = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2, 2])
    _, summary = pull_loss(f, ids, EmbeddingParams(dim=3))
    for k, lane in enumerate(summary.ids):
        npt.assert_allclose(summary.means[k], f[ids == lane].mean(axis=0), atol=1e-12)


def test_pull_loss_finite_diff_through_mean():
    rng = np.random.default_rng(21)
    f = rng.normal(0, 1.0, size=(6, 2))
    ids = np.array([0, 0, 0, 1, 1, 1])
    fn = lambda d: pull_loss(d["embedding"], ids, PARAMS)[0]
    report = finite_diff_check(fn, {"embedding": f})
    assert report.passed, report


def test_push_loss_at_margin():
    summary = ClusterSummary(ids=np.array([0, 1]), means=np.array([[0.0, 0.0], [3.0, 0.0]]))
    assert push_loss(summary, PARAMS).value == 0.0


def test_push_loss_hand_value():
    summary = ClusterSummary(ids=np.array([0, 1]), means=np.array([[0.0, 0.0], [1.0, 0.0]]))
    npt.assert_allclose(push_loss(summary, PARAMS).value, 4.0, atol=1e-12)


def test_push_loss_degenerate_counts():
    empty = ClusterSummary(ids=np.array([], dtype=int), means=np.zeros((0, 2)))
    assert push_loss(empty, PARAMS).value == 0.0
    single = ClusterSummary(ids=np.array([5]), means=np.array([[1.0, 1.0]]))
    assert push_loss(single, PARAMS).value == 0.0


def test_push_loss_finite_diff():
    rng = np.random.default_rng(33)
    means = rng.normal(0, 1.0, size=(3, 2))

    def fn(d):
        summary = ClusterSummary(ids=np.arange(3), means=d["means"])
        return push_loss(summary, PARAMS)

    report = finite_diff_check(fn, {"means": means})
    assert report.passed, report


def test_embedding_loss_zero_at_separated_tight_clusters():
    f = np.array([[0.0, 0.0], [0.0, 0.0], [4.0, 0.0], [4.0, 0.0]])
    ids = np.array([0, 0, 1, 1])
    out = embedding_loss(f, ids, PARAMS)
    assert out.value == 0.0


def test_embedding_loss_additivity():
    v = np.array([0.6, 0.0])
    f = np.array([v, -v, [1.0, 0.0], [1.0, 0.0]])
    ids = np.array([0, 0, 1, 1])
    pull, summary = pull_loss(f, ids, PARAMS)
    push = push_loss(summary, PARAMS)
    out = embedding_loss(f, ids, PARAMS)
    npt.assert_allclose(out.value, pull.value + push.value, atol=1e-12)
    npt.assert_allclose(out.components["pull"], pull.value, atol=1e-12)
    npt.assert_allclose(out.components["push"], push.value, atol=1e-12)
    # hand values: pull = 0.25 / 2 lanes, push over means 1 apart
    npt.assert_allclose(pull.value, 0.125, atol=1e-12)
    npt.assert_allclose(push.value, (3.0 - math.hypot(1.0, 0.0) + 0.0) ** 2 * 2 / 2, atol=1e-9)


def test_embedding_loss_label_permutation_invariance():
    rng = np.random.default_rng(8)
    f = rng.normal(size=(12, 4))
    ids = rng.integers(0, 3, 12)
    params = EmbeddingParams()
    a = embedding_loss(f, ids, params)
    relabel = {0: 7, 1: 2, 2: 11}
    b = embedding_loss(f, np.vectorize(relabel.get)(ids), params)
    npt.assert_allclose(a.value, b.value, atol=1e-12)


def test_embedding_loss_translation_invariance():
    rng = np.random.default_rng(14)
    f = rng.normal(size=(10, 4))
    ids = rng.integers(0, 3, 10)
    params = EmbeddingParams()
    a = embedding_loss(f, ids, params)
    b = embedding_loss(f + np.array([5.0, -2.0, 0.5, 100.0]), ids, params)
    npt.assert_allclose(a.value, b.value, atol=1e-9)
    npt.assert_allclose(a.grad["embedding"], b.grad["embedding"], atol=1e-9)


def test_embedding_loss_finite_diff():
    rng = np.random.default_rng(42)
    for _ in range(3):
        f = rng.normal(0, 1.0, size=(8, 2))
        ids = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        fn = lambda d: embedding_loss(d["embedding"], ids, PARAMS)
        report = finite_diff_check(fn, {"embedding": f})
        assert report.passed, report


def test_embedding_params_validated():
    with pytest.raises(ValueError):
        EmbeddingParams(pull_margin=3.0, push_margin=0.1)
    with pytest.raises(ValueError):
        EmbeddingParams(pull_margin=0.0)
    with pytest.raises(ValueError):
        EmbeddingParams(dim=0)


# ---------------------------------------------------------------------------
# finite-difference harness


def test_finite_diff_known_quadratic():
    def fn(d):
        x = d["x"]
        from bevlanes.losses import LossValueAndGrad
        return LossValueAndGrad(value=float(np.sum(x ** 2)), grad={"x": 2 * x})

    report = finite_diff_check(fn, {"x": np.array([1.0, 2.0])})
    assert report.max_rel_error < 1e-8
    assert report.n_coords == 2
    assert report.passed


def test_finite_diff_detects_corrupted_gradient():
    def fn(d):
        x = d["x"]
        from bevlanes.losses import LossValueAndGrad
        return LossValueAndGrad(value=float(np.sum(x ** 2)), grad={"x": 2 * x * 1.01})

    report = finite_diff_check(fn, {"x": np.array([1.0, 2.0])})
    assert report.max_rel_error > 1e-6
    assert not report.passed
    assert report.worst_field == "x"


def test_finite_diff_reports_non_finite_probe():
    def fn(d):
        x = d["x"]
        from bevlanes.losses import LossValueAndGrad
        value = float(np.sum(np.where(x < 0, np.inf, x ** 2)))
        return LossValueAndGrad(value=value, grad={"x": 2 * x})

    report = finite_diff_check(fn, {"x": np.array([1e-9])})
    assert report.non_finite_at is not None
    assert not report.passed


def test_finite_diff_sample_subsets_coordinates():
    def fn(d):
        x = d["x"]
        from bevlanes.losses import LossValueAndGrad
        return LossValueAndGrad(value=float(np.sum(x ** 2)), grad={"x": 2 * x})

    report = finite_diff_check(fn, {"x": np.arange(100, dtype=float)}, sample=5)
    assert report.n_coords == 5
    assert report.passed
