"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Each test measures its criterion at the stated tolerance, records a
"criterion N: PASS/FAIL" line (echoed in the terminal summary) and then
asserts. The criteria cover closed-loop fidelity, gradient correctness,
loss floors and hand values, clustering recovery, the evaluation oracle,
noise monotonicity, the clustering ablation direction, topology coverage,
and bit-level determinism.
"""

import math
import time
from dataclasses import replace

import numpy as np

from bevlanes.clustering import ClusterParams, cluster_segments
from bevlanes.codec import (
    AngleBinSpec,
    LaneSegment,
    TilePredictionGrid,
    angle_to_soft_labels,
    encode_scene,
    logit,
    saturated_prediction,
)
from bevlanes.config import PipelineConfig
from bevlanes.evaluation import EvalConfig, curve_iou, evaluate
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
from bevlanes.pipeline import (
    cluster_one,
    cmd_pipeline,
    decode_one,
    encode_one,
    make_scene,
    predict_one,
    process_scene,
    run_pipeline,
    scene_curves,
    evaluate_results,
)
from bevlanes.synth import SceneConfig, simplex_anchors
from bevlanes import io

RESULTS = []

BINS = AngleBinSpec()


def _check(n: int, ok: bool, detail: str):
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _weights(**kw):
    w = {"parallel": 0.0, "split": 0.0, "merge": 0.0, "short": 0.0, "perpendicular": 0.0}
    w.update(kw)
    return w


def _closed_loop_config(weights, n_scenes, seed, **scene_kw):
    # curvature and surface amplitude at the bounds criterion 1 states;
    # split/merge topologies are excluded from the MAP = 1.0 loops because a
    # shared stem is unrepresentable with one segment per tile (see the
    # clustering ablation criterion, which exercises them instead)
    scene = SceneConfig(topology_weights=weights, curvature_max=0.01,
                        surface_amplitude=0.5, **scene_kw)
    return PipelineConfig(scene=scene, n_scenes=n_scenes, master_seed=seed)


def _run_batch(config):
    results = [process_scene(config, i) for i in range(config.n_scenes)]
    return evaluate_results(results, config)


# ---------------------------------------------------------------------------


def test_criterion_01_closed_loop_fidelity():
    config = _closed_loop_config(
        _weights(parallel=0.8, short=0.1, perpendicular=0.1), n_scenes=100, seed=7)
    t0 = time.perf_counter()
    report = _run_batch(config)
    elapsed = time.perf_counter() - t0
    lat_near = report.lateral_error.get((0.0, 30.0), float("inf"))
    ok = report.map_score == 1.0 and lat_near <= 0.015 and elapsed <= 60.0
    _check(1, ok, f"100 zero-noise scenes: MAP={report.map_score!r}, "
                  f"near lateral={lat_near:.4f} m (<= 0.015), {elapsed:.1f} s (<= 60)")


def test_criterion_02_gradient_correctness():
    rng = np.random.default_rng(1234)
    grid = GridSpec(n_cols=2, n_rows=3)
    ys = np.linspace(0.0, 9.0, 10)
    target_grids = [
        encode_scene([Lane3D(points=np.column_stack(
            [np.full_like(ys, x), ys, 0.02 * ys]))], grid, BINS)
        for x in (-0.5, 0.4)
    ]
    params = EmbeddingParams(pull_margin=0.1, push_margin=3.0, dim=2)
    h, w, n = grid.n_rows, grid.n_cols, BINS.n_bins

    def probe_score(k):
        fn = lambda d: score_loss(d["score_logit"], float(k % 2))
        return finite_diff_check(fn, {"score_logit": rng.uniform(-4, 4)})

    def probe_offsets(k):
        target = rng.uniform(-0.5, 0.5, 2)
        pred = target + rng.choice([-1, 1], 2) * rng.uniform(0.01, 0.5, 2)
        fn = lambda d: offsets_loss((d["lateral_offset"], d["height_offset"]),
                                    (target[0], target[1]))
        return finite_diff_check(fn, {"lateral_offset": pred[0], "height_offset": pred[1]})

    def probe_angle(k):
        p, d, m = angle_to_soft_labels(rng.uniform(0, 2 * math.pi), BINS)
        z = rng.uniform(-4, 4, BINS.n_bins)
        res = d + rng.choice([-1, 1], BINS.n_bins) * rng.uniform(0.01, 0.3, BINS.n_bins)
        fn = lambda q: angle_loss((q["bin_logits"], q["bin_residuals"]), (p, d, m))
        return finite_diff_check(fn, {"bin_logits": z, "bin_residuals": res})

    def probe_total(k):
        targets = target_grids[k % 2]

        def fn(d):
            preds = TilePredictionGrid(
                grid=grid, bins=BINS, embedding=np.zeros((h, w, 2)),
                score_logit=d["score_logit"], lateral_offset=d["lateral_offset"],
                height_offset=d["height_offset"], bin_logits=d["bin_logits"],
                bin_residuals=d["bin_residuals"])
            return total_tile_loss(preds, targets)

        inputs = {
            "score_logit": rng.uniform(-4, 4, (h, w)),
            "lateral_offset": targets.lateral_offset
                + rng.choice([-1, 1], (h, w)) * rng.uniform(0.01, 0.4, (h, w)),
            "height_offset": targets.height_offset
                + rng.choice([-1, 1], (h, w)) * rng.uniform(0.01, 0.4, (h, w)),
            "bin_logits": rng.uniform(-4, 4, (h, w, n)),
            "bin_residuals": targets.bin_residuals
                + rng.choice([-1, 1], (h, w, n)) * rng.uniform(0.01, 0.2, (h, w, n)),
        }
        return finite_diff_check(fn, inputs, sample=24)

    def random_embeddings():
        # cluster spread ~1 around anchors ~2.5 apart keeps every distance
        # well away from the pull (0.1) and push (3.0) hinge corners
        while True:
            ids = np.sort(rng.integers(0, 3, 8))
            f = 2.5 * rng.normal(size=3)[ids, None] * np.array([[1.0, 0.0]]) \
                + rng.normal(0, 0.6, (8, 2))
            _, summary = pull_loss(f, ids, params)
            dists = [np.linalg.norm(f[k] - summary.means[list(summary.ids).index(i)])
                     for k, i in enumerate(ids)]
            gaps = [np.linalg.norm(a - b) for j, a in enumerate(summary.means)
                    for b in summary.means[j + 1:]]
            if all(abs(v - params.pull_margin) > 2e-3 for v in dists) and \
                    all(v > 2e-3 and abs(v - params.push_margin) > 2e-3 for v in gaps):
                return f, ids, summary

    def probe_pull(k):
        f, ids, _ = random_embeddings()
        fn = lambda d: pull_loss(d["embedding"], ids, params)[0]
        return finite_diff_check(fn, {"embedding": f})

    def probe_push(k):
        _, _, summary = random_embeddings()

        def fn(d):
            s = ClusterSummary(ids=summary.ids, counts=summary.counts, means=d["means"])
            return push_loss(s, params)

        return finite_diff_check(fn, {"means": summary.means.copy()})

    worst = {}
    for name, probe in [("score", probe_score), ("angle", probe_angle),
                        ("offsets", probe_offsets), ("total_tile", probe_total),
                        ("pull", probe_pull), ("push", probe_push)]:
        errs = []
        for k in range(100):
            report = probe(k)
            errs.append(report.max_rel_error)
        worst[name] = max(errs)
    ok = all(v <= 1e-6 for v in worst.values())
    top = max(worst.values())
    _check(2, ok, f"6 losses x 100 finite-difference probes: "
                  f"max rel error {top:.2e} (<= 1e-6)")


def test_criterion_03_loss_minimum_and_masking():
    grid = GridSpec(n_cols=2, n_rows=3)
    # straight vertical lane: phi = pi/2 is a bin center, so targets are
    # one-hot and the cross-entropy floor is zero
    ys = np.linspace(0.0, 9.0, 10)
    targets = encode_scene(
        [Lane3D(points=np.column_stack([np.full_like(ys, -0.5), ys, 0.01 * ys]))],
        grid, BINS)
    preds = saturated_prediction(targets, embedding_dim=2)
    base = total_tile_loss(preds, targets)
    n_tiles = grid.n_rows * grid.n_cols
    per_tile = base.value / n_tiles

    # perturbing regression fields at unoccupied tiles must change nothing
    empty = np.argwhere(targets.occupancy == 0.0)
    exact = True
    for i, j in empty[:3]:
        for field, bump in [("lateral_offset", 0.37), ("height_offset", -0.8),
                            ("bin_residuals", 0.5)]:
            arr = getattr(preds, field).copy()
            arr[i, j] += bump
            probe = replace(preds, **{field: arr})
            out = total_tile_loss(probe, targets)
            exact = exact and out.value == base.value \
                and np.all(out.grad[field][i, j] == 0.0)
    ok = per_tile <= 1e-5 and exact
    _check(3, ok, f"saturated perfect loss {per_tile:.2e}/tile (<= 1e-5); "
                  f"empty-tile masking exact: {exact}")


def test_criterion_04_hand_values():
    params = EmbeddingParams(pull_margin=0.1, push_margin=3.0, dim=2)
    push = push_loss(ClusterSummary(ids=np.array([0, 1]), counts=np.array([1, 1]),
                                    means=np.array([[0.0, 0.0], [1.0, 0.0]])),
                     params).value
    v = np.array([0.6, 0.0])
    pull = pull_loss(np.array([v, -v]), np.array([0, 0]), params)[0].value
    score = score_loss(0.0, 1.0).value
    p, d, m = angle_to_soft_labels(3 * math.pi / 8, BINS)  # midpoint: 0.5/0.5 labels
    floor = angle_loss((logit(p), d.copy()), (p, d, m)).value
    ln2 = math.log(2.0)
    ok = (abs(push - 4.0) < 1e-9 and abs(pull - 0.25) < 1e-9
          and abs(score - ln2) <= 1e-9 and abs(floor - 2 * ln2) <= 1e-9)
    _check(4, ok, f"push={push!r} (4), pull={pull!r} (0.25), "
                  f"score(0 logit)={score:.9f} (ln 2), entropy floor={floor:.9f} (2 ln 2)")


def test_criterion_05_clustering_recovery():
    params = ClusterParams()
    failures = 0
    trials = 0
    for t in range(200):
        k_lanes = 1 + t % 6
        rng = np.random.default_rng(10_000 + t)
        anchors = simplex_anchors(k_lanes, dim=5, separation=3.0)
        segments, owner = [], []
        for lane in range(k_lanes):
            for r in range(6):
                mid = np.array([(lane - k_lanes / 2) * 1.28, 1.5 + 3.0 * r, 0.0])
                step = np.array([0.0, 1.5, 0.0])
                segments.append(LaneSegment(
                    midpoint=mid, direction=np.array([0.0, 1.0]),
                    endpoints=np.stack([mid - step, mid + step]), score=0.9,
                    tile=(r, lane),
                    embedding=anchors[lane] + rng.normal(0.0, 0.1, 5)))
                owner.append(lane)
        instances = cluster_segments(segments, params)
        trials += 1
        if len(instances) != k_lanes:
            failures += 1
            continue
        got = sorted(frozenset(id(s) for s in inst.segments) for inst in instances)
        want = sorted(frozenset(id(s) for s, o in zip(segments, owner) if o == lane)
                      for lane in range(k_lanes))
        if got != want:
            failures += 1
    _check(5, failures == 0,
           f"K in 1..6, embedding noise 0.1: {failures} failures in {trials} trials")


def test_criterion_06_evaluation_oracle():
    from bevlanes.clustering import Curve
    tilt = 0.07
    u = np.array([math.sin(tilt), math.cos(tilt), 0.0])
    nrm = np.array([math.cos(tilt), -math.sin(tilt), 0.0])
    p0 = np.array([-2.0, 5.0, 0.0])

    def line(offset):
        start = p0 + offset * nrm
        return Curve(points=np.vstack([start, start + 60.0 * u]))

    coarse = EvalConfig()
    fine = EvalConfig(raster_resolution=0.05)
    max_err = 0.0
    max_delta = 0.0
    for d in (0.1, 0.25, 0.5, 0.75):
        got = curve_iou(line(0.0), line(d), coarse)
        halved = curve_iou(line(0.0), line(d), fine)
        max_err = max(max_err, abs(got - (1.0 - d) / (1.0 + d)))
        max_delta = max(max_delta, abs(got - halved))
    ok = max_err <= 0.03 and max_delta < 0.02
    _check(6, ok, f"parallel-line IOU vs (w-d)/(w+d): max err {max_err:.4f} (<= 0.03); "
                  f"resolution halving moves it {max_delta:.4f} (< 0.02)")


def test_criterion_07_noise_monotonicity():
    base = PipelineConfig(n_scenes=50, master_seed=7)
    levels = (0.0, 0.1, 0.3, 0.5)
    per_scene = {}
    for sigma in levels:
        config = replace(base, noise=replace(base.noise, sigma_r=sigma))
        maps = []
        for i in range(config.n_scenes):
            r = process_scene(config, i)
            maps.append(evaluate([(r.lanes, scene_curves(r.scene))], config.eval).map_score)
        per_scene[sigma] = np.array(maps)
    means = {s: float(per_scene[s].mean()) for s in levels}
    rng = np.random.default_rng(0)
    lower_bounds = []
    for a, b in zip(levels[:-1], levels[1:]):
        diff = per_scene[a] - per_scene[b]
        boot = np.array([diff[rng.integers(0, len(diff), len(diff))].mean()
                         for _ in range(2000)])
        lower_bounds.append(float(np.percentile(boot, 5.0)))
    ok = all(means[a] >= means[b] for a, b in zip(levels[:-1], levels[1:])) \
        and all(lb >= 0.0 for lb in lower_bounds)
    _check(7, ok, "mean MAP by sigma_r "
           + " >= ".join(f"{means[s]:.3f}" for s in levels)
           + f"; bootstrap 5% gap bounds {[round(v, 3) for v in lower_bounds]} (all >= 0)")


def test_criterion_08_ablation_direction():
    pooled = {"embedding": [], "greedy": []}
    undersegmented = 0
    for topology, seed in (("split", 41), ("merge", 59)):
        config = replace(
            _closed_loop_config(_weights(**{topology: 1.0}), n_scenes=25, seed=seed),
            noise=replace(PipelineConfig().noise, sigma_f=0.1))
        for i in range(config.n_scenes):
            scene = make_scene(config, i)
            segments = decode_one(predict_one(encode_one(scene, config), config, i))
            curves = scene_curves(scene)
            for method in pooled:
                lanes = cluster_one(segments, config, method)
                pooled[method].append((lanes, curves))
                if method == "greedy" and topology == "split" \
                        and len(curves) >= 2 and len(lanes) < len(curves):
                    undersegmented += 1
    eval_cfg = PipelineConfig().eval
    maps = {m: evaluate(scenes, eval_cfg).map_score for m, scenes in pooled.items()}
    ok = maps["embedding"] >= maps["greedy"] and undersegmented >= 1
    _check(8, ok, f"50 split/merge scenes, sigma_f=0.1: embedding MAP "
                  f"{maps['embedding']:.3f} >= greedy {maps['greedy']:.3f}; greedy "
                  f"under-segmented {undersegmented} Y-split scenes (>= 1)")


def test_criterion_09_topology_coverage():
    short = _run_batch(_closed_loop_config(
        _weights(short=1.0), n_scenes=20, seed=21, short_y_range=(40.0, 50.0)))
    perp = _run_batch(_closed_loop_config(
        _weights(perpendicular=1.0), n_scenes=20, seed=33))
    ok = short.map_score == 1.0 and perp.map_score == 1.0
    _check(9, ok, f"zero-noise MAP: short lanes from y >= 40 m {short.map_score!r}, "
                  f"perpendicular crossings {perp.map_score!r} (both 1.0)")


def test_criterion_10_determinism(tmp_path):
    base = {
        "n_scenes": 8, "master_seed": 99,
        "noise": {"sigma_r": 0.1, "fp_rate": 0.02, "sigma_f": 0.05},
    }
    runs = []
    for name in ("a", "b"):
        config = PipelineConfig.from_dict({**base, "output_dir": str(tmp_path / name)})
        cmd_pipeline(config)
        runs.append(tmp_path / name)
    files_a = sorted(p.relative_to(runs[0]) for p in runs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(runs[1]) for p in runs[1].rglob("*") if p.is_file())
    same_tree = files_a == files_b and all(
        (runs[0] / f).read_bytes() == (runs[1] / f).read_bytes() for f in files_a)

    config = PipelineConfig.from_dict(base)
    report_serial, results_serial = run_pipeline(config, jobs=1)
    report_jobs, results_jobs = run_pipeline(config, jobs=8)
    same_parallel = report_serial.to_dict() == report_jobs.to_dict() and all(
        io.canonical_json(io.preds_to_dict(a.preds))
        == io.canonical_json(io.preds_to_dict(b.preds))
        and io.canonical_json(io.lanes_to_dict(a.lanes))
        == io.canonical_json(io.lanes_to_dict(b.lanes))
        for a, b in zip(results_serial, results_jobs))
    ok = same_tree and same_parallel
    _check(10, ok, f"same seed twice: {len(files_a)} files byte-identical: {same_tree}; "
                   f"--jobs 8 equals serial: {same_parallel}")
