"""Tests for file formats, pipeline configuration and the command-line tool."""

import csv
import io as std_io
import json

import numpy as np
import numpy.testing as npt
import pytest

from bevlanes import io
from bevlanes.cli import main
from bevlanes.clustering import Curve
from bevlanes.codec import decode_grid, encode_scene, AngleBinSpec
from bevlanes.config import ConfigError, PipelineConfig
from bevlanes.evaluation import DEFAULT_EXTENT, EvalConfig, evaluate
from bevlanes.geometry import GridSpec
from bevlanes.losses import EmbeddingParams
from bevlanes.pipeline import evaluate_results, run_pipeline
from bevlanes.synth import NoiseConfig, SceneConfig, generate_scene, oracle_predict

GRID = GridSpec()
BINS = AngleBinSpec()


def small_scene(seed=42):
    cfg = SceneConfig(seed=seed, topology_weights={
        "parallel": 1.0, "split": 0.0, "merge": 0.0, "short": 0.0, "perpendicular": 0.0})
    return generate_scene(cfg)


def tiny_config_dict(tmp_path, **overrides):
    d = {
        "n_scenes": 2,
        "master_seed": 11,
        "output_dir": str(tmp_path / "out"),
        "scene": {"n_lanes": 2, "curvature_max": 0.01,
                  "topology_weights": {"parallel": 1.0, "split": 0.0, "merge": 0.0,
                                       "short": 0.0, "perpendicular": 0.0}},
    }
    d.update(overrides)
    return d


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config_dict(tmp_path, **overrides)))
    return str(path)


# ---------------------------------------------------------------------------
# canonical JSON


def test_canonical_json_sorted_minimal_newline():
    text = io.canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}\n'


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_canonical_json_rejects_non_finite(value):
    with pytest.raises(ValueError):
        io.canonical_json({"a": [1.0, value]})


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "x.json"
    io.save_json(path, {"k": [1.5, 2.0]})
    assert io.load_json(path) == {"k": [1.5, 2.0]}


def test_load_json_missing_file_raises_schema_error(tmp_path):
    with pytest.raises(io.SchemaError) as exc:
        io.load_json(tmp_path / "absent.json")
    assert exc.value.field == "<file>"
    assert "absent.json" in str(exc.value)


def test_load_json_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(io.SchemaError) as exc:
        io.load_json(path)
    assert exc.value.path == str(path)


# ---------------------------------------------------------------------------
# scene format


def test_scene_round_trip_byte_identical():
    scene = small_scene()
    first = io.canonical_json(io.scene_to_dict(scene))
    back = io.scene_from_dict(json.loads(first))
    second = io.canonical_json(io.scene_to_dict(back))
    assert second == first
    assert len(back.lanes) == len(scene.lanes)
    for a, b in zip(back.lanes, scene.lanes):
        assert a.lane_id == b.lane_id
        npt.assert_array_equal(a.points, b.points)
    assert back.rig == scene.rig


def test_scene_wrong_kind_rejected():
    d = io.scene_to_dict(small_scene())
    d["kind"] = "shrubbery"
    with pytest.raises(io.SchemaError) as exc:
        io.scene_from_dict(d, path="scene_00000.json")
    assert exc.value.path == "scene_00000.json"
    assert exc.value.field == "kind"


def test_scene_missing_field_names_it():
    d = io.scene_to_dict(small_scene())
    del d["rig"]
    with pytest.raises(io.SchemaError) as exc:
        io.scene_from_dict(d)
    assert exc.value.field == "rig"


def test_scene_bad_points_shape():
    d = io.scene_to_dict(small_scene())
    d["lanes"][0]["points"] = [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(io.SchemaError) as exc:
        io.scene_from_dict(d)
    assert "lanes[0].points" in exc.value.field


# ---------------------------------------------------------------------------
# grid formats


def _targets():
    return encode_scene(small_scene().lanes, GRID, BINS)


def test_targets_round_trip_byte_identical():
    targets = _targets()
    first = io.canonical_json(io.targets_to_dict(targets))
    back = io.targets_from_dict(json.loads(first))
    assert io.canonical_json(io.targets_to_dict(back)) == first
    npt.assert_array_equal(back.occupancy, targets.occupancy)
    npt.assert_array_equal(back.lateral_offset, targets.lateral_offset)
    npt.assert_array_equal(back.bin_probs, targets.bin_probs)
    assert back.grid == targets.grid
    assert back.bins == targets.bins


def test_targets_non_binary_occupancy_rejected():
    d = io.targets_to_dict(_targets())
    d["fields"]["occupancy"]["data"][0] = 0.5
    with pytest.raises(io.SchemaError) as exc:
        io.targets_from_dict(d, path="t.json")
    assert exc.value.field == "fields.occupancy.data"


def test_targets_payload_length_mismatch_rejected():
    d = io.targets_to_dict(_targets())
    d["fields"]["lateral_offset"]["data"].append(0.0)
    with pytest.raises(io.SchemaError) as exc:
        io.targets_from_dict(d)
    assert "lateral_offset" in exc.value.field


def test_preds_round_trip_byte_identical():
    preds = oracle_predict(_targets(), NoiseConfig(sigma_r=0.05, fp_rate=0.02, seed=3),
                           EmbeddingParams())
    first = io.canonical_json(io.preds_to_dict(preds))
    back = io.preds_from_dict(json.loads(first))
    assert io.canonical_json(io.preds_to_dict(back)) == first
    npt.assert_array_equal(back.score_logit, preds.score_logit)
    npt.assert_array_equal(back.embedding, preds.embedding)
    segs_a = decode_grid(preds)
    segs_b = decode_grid(back)
    assert len(segs_a) == len(segs_b)
    for a, b in zip(segs_a, segs_b):
        npt.assert_array_equal(a.midpoint, b.midpoint)
        assert a.tile == b.tile


def test_preds_embedding_dim_mismatch_rejected():
    d = io.preds_to_dict(oracle_predict(_targets(), NoiseConfig(seed=3), EmbeddingParams()))
    d["embedding_dim"] = 7
    with pytest.raises(io.SchemaError) as exc:
        io.preds_from_dict(d)
    assert exc.value.field == "embedding_dim"


# ---------------------------------------------------------------------------
# segment and lane formats


def test_segments_round_trip_byte_identical():
    preds = oracle_predict(_targets(), NoiseConfig(seed=5), EmbeddingParams())
    segments = decode_grid(preds)
    assert segments
    first = io.canonical_json(io.segments_to_dict(segments))
    back = io.segments_from_dict(json.loads(first))
    assert io.canonical_json(io.segments_to_dict(back)) == first
    for a, b in zip(back, segments):
        npt.assert_array_equal(a.endpoints, b.endpoints)
        npt.assert_array_equal(a.embedding, b.embedding)
        assert a.tile == b.tile and a.score == b.score and a.degenerate == b.degenerate


def test_segments_missing_key_rejected():
    d = io.segments_to_dict(decode_grid(oracle_predict(_targets(), NoiseConfig(seed=5), EmbeddingParams())))
    del d["segments"][1]["score"]
    with pytest.raises(io.SchemaError) as exc:
        io.segments_from_dict(d)
    assert "segments[1]" in exc.value.field


def test_lanes_round_trip_byte_identical():
    lanes = [(Curve(points=[[0.0, 0.0, 0.0], [0.5, 30.0, 0.1], [0.5, 60.0, 0.0]]), 0.75),
             (Curve(points=[[3.0, 5.0, 0.0], [3.0, 70.0, 0.2]]), 1.0)]
    first = io.canonical_json(io.lanes_to_dict(lanes))
    back = io.lanes_from_dict(json.loads(first))
    assert io.canonical_json(io.lanes_to_dict(back)) == first
    assert [c for _, c in back] == [0.75, 1.0]


def test_lanes_bad_confidence_rejected():
    d = io.lanes_to_dict([(Curve(points=[[0.0, 0.0, 0.0], [0.0, 9.0, 0.0]]), 0.5)])
    d["lanes"][0]["confidence"] = 1.5
    with pytest.raises(io.SchemaError) as exc:
        io.lanes_from_dict(d, path="lanes_00000.json")
    assert exc.value.field == "lanes[0].confidence"


def test_lanes_degenerate_curve_rejected():
    d = {"kind": "lanes", "lanes": [{"points": [[0.0, 0.0, 0.0]], "confidence": 0.5}]}
    with pytest.raises(io.SchemaError) as exc:
        io.lanes_from_dict(d)
    assert "points" in exc.value.field


# ---------------------------------------------------------------------------
# report CSV


def _perfect_report():
    gts = [Curve(points=[[-2.03, 5.0, 0.0], [-2.03, 65.0, 0.0]]),
           Curve(points=[[2.03, 5.0, 0.0], [2.03, 65.0, 0.0]])]
    preds = [(gts[0], 0.9), (gts[1], 0.8)]
    return evaluate([(preds, gts)], EvalConfig())


def test_report_csv_structure():
    text = io.report_to_csv(_perfect_report())
    rows = list(csv.reader(std_io.StringIO(text)))
    assert rows[0] == ["metric", "key", "value"]
    ap_rows = [r for r in rows if r[0] == "ap"]
    assert [r[1] for r in ap_rows] == [f"{0.1 * k:g}" for k in range(1, 10)]
    assert all(float(r[2]) == 1.0 for r in ap_rows)
    by_metric = {(r[0], r[1]): r[2] for r in rows[1:]}
    assert float(by_metric[("map", "")]) == 1.0
    assert float(by_metric[("recall_at_iou", "0.5")]) == 1.0
    assert ("lateral_error", "0-30") in by_metric
    assert by_metric[("count", "n_gt")] == "2"
    assert by_metric[("count", "n_matched")] == "2"
    assert ("recall75_confidence", "") in by_metric


def test_report_csv_deterministic():
    assert io.report_to_csv(_perfect_report()) == io.report_to_csv(_perfect_report())


def test_report_csv_values_round_trip_exactly():
    # repr-formatted floats parse back bit-identically
    report = _perfect_report()
    rows = list(csv.reader(std_io.StringIO(io.report_to_csv(report))))
    by_metric = {(r[0], r[1]): r[2] for r in rows[1:]}
    assert float(by_metric[("map", "")]) == report.map_score


# ---------------------------------------------------------------------------
# PipelineConfig


def test_config_defaults_from_empty_dict():
    cfg = PipelineConfig.from_dict({})
    assert cfg == PipelineConfig()
    assert cfg.eval.extent == DEFAULT_EXTENT


def test_config_unknown_top_level_key():
    with pytest.raises(ConfigError, match="typo_key"):
        PipelineConfig.from_dict({"typo_key": 1})


def test_config_unknown_section_key():
    with pytest.raises(ConfigError, match="grid"):
        PipelineConfig.from_dict({"grid": {"n_colums": 8}})


def test_config_partial_section_keeps_defaults():
    cfg = PipelineConfig.from_dict({"scene": {"n_lanes": 2}})
    assert cfg.scene.n_lanes == 2
    assert cfg.scene.lane_spacing == SceneConfig().lane_spacing


def test_config_invalid_section_value():
    with pytest.raises(ConfigError, match="grid"):
        PipelineConfig.from_dict({"grid": {"n_cols": 0}})


def test_config_eval_extent_follows_custom_grid():
    cfg = PipelineConfig.from_dict({"grid": {"n_rows": 13}})
    (x_lo, x_hi), (y_lo, y_hi) = cfg.eval.extent
    assert (y_lo, y_hi) == (-0.5, 39.5)
    assert (x_lo, x_hi) == (GRID.x_min - 0.5, GRID.x_max + 0.5)


def test_config_explicit_eval_extent_must_cover_grid():
    with pytest.raises(ConfigError, match="extent"):
        PipelineConfig.from_dict({"eval": {"extent": [[-5.0, 5.0], [0.0, 78.5]]}})


def test_config_scalar_validation():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"n_scenes": 0})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"master_seed": "not a number"})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(["not", "an", "object"])


def test_config_dict_round_trip():
    cfg = PipelineConfig.from_dict({"n_scenes": 3, "scene": {"n_lanes": 4}})
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


def test_config_values_take_the_type_of_the_field_default():
    cfg = PipelineConfig.from_dict({"grid": {"tile_width": 1, "n_cols": 8.0},
                                    "scene": {"y_range": [0, 78]}})
    d = cfg.to_dict()
    assert io.canonical_json(d["grid"]) == \
        '{"n_cols":8,"n_rows":26,"tile_length":3.0,"tile_width":1.0,"y_min":0.0}\n'
    assert d["scene"]["y_range"] == [0.0, 78.0]
    assert d["eval"]["range_buckets"] == [[0.0, 30.0], [30.0, 80.0]]
    assert cfg.eval.range_buckets == ((0.0, 30.0), (30.0, 80.0))


# ---------------------------------------------------------------------------
# CLI


def test_cli_stage_chain(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for command in ("generate", "encode", "predict", "decode", "cluster", "eval"):
        assert main([command, "--config", cfg]) == 0, command
    out_dir = tmp_path / "out"
    for stage, stem in [("scenes", "scene"), ("targets", "target"), ("preds", "pred"),
                        ("segments", "segments"), ("lanes", "lanes")]:
        files = sorted((out_dir / stage).glob("*.json"))
        assert [f.name for f in files] == [f"{stem}_00000.json", f"{stem}_00001.json"]
    assert (out_dir / "report.csv").is_file()
    assert (out_dir / "report.json").is_file()
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert "map=1.0" in last
    # the stage chain and `pipeline` write the same bytes for every file
    piped = tmp_path / "piped"
    assert main(["pipeline", "--config", cfg, "--out", str(piped)]) == 0
    chain_files = sorted(p.relative_to(out_dir) for p in out_dir.rglob("*") if p.is_file())
    assert len(chain_files) == 12
    for name in chain_files:
        assert (out_dir / name).read_bytes() == (piped / name).read_bytes(), name


def test_cli_pipeline_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["pipeline", "--config", cfg]) == 0
    out_dir = tmp_path / "out"
    assert "map=1.0" in capsys.readouterr().out
    svgs = sorted((out_dir / "plots").glob("*.svg"))
    assert [p.name for p in svgs] == ["scene_00000.svg", "scene_00001.svg",
                                      "scores_00000.svg", "scores_00001.svg"]
    scene_svg_text = svgs[0].read_text()
    assert "#cc2222" in scene_svg_text    # ground truth in red
    assert "#2244cc" in scene_svg_text    # predictions in blue
    report = json.loads((out_dir / "report.json").read_text())
    assert report["map_score"] == 1.0


def test_cli_pipeline_deterministic_reports(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", cfg, "--out", str(a)]) == 0
    assert main(["pipeline", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert ((a / "scenes" / "scene_00000.json").read_bytes()
            == (b / "scenes" / "scene_00000.json").read_bytes())


def test_cli_seed_flag_changes_scenes(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", cfg, "--out", str(a), "--seed", "1"]) == 0
    assert main(["generate", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
    assert ((a / "scenes" / "scene_00000.json").read_bytes()
            != (b / "scenes" / "scene_00000.json").read_bytes())


def test_cli_env_output_dir_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("BEVLANES_OUTPUT_DIR", str(env_dir))
    assert main(["generate", "--config", cfg]) == 0
    assert (env_dir / "scenes" / "scene_00000.json").is_file()

    flag_dir = tmp_path / "from_flag"
    assert main(["generate", "--config", cfg, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "scenes" / "scene_00000.json").is_file()


def test_cli_missing_stage_inputs_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["eval", "--config", cfg]) == 3
    assert "data error" in capsys.readouterr().err


def test_cli_corrupt_stage_file_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    scene_path = tmp_path / "out" / "scenes" / "scene_00000.json"
    scene_path.write_text("{broken")
    assert main(["encode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "scene_00000.json" in err


def test_cli_wrong_kind_stage_file_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    scene_path = tmp_path / "out" / "scenes" / "scene_00001.json"
    d = json.loads(scene_path.read_text())
    d["kind"] = "lanes"
    scene_path.write_text(json.dumps(d))
    assert main(["encode", "--config", cfg]) == 3
    assert "kind" in capsys.readouterr().err


def test_cli_bad_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"definitely_not_a_key": 1}))
    assert main(["generate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_file_is_data_error(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 3
    assert "data error" in capsys.readouterr().err


def test_cli_nan_prediction_field_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for command in ("generate", "encode", "predict"):
        assert main([command, "--config", cfg]) == 0
    pred_path = tmp_path / "out" / "preds" / "pred_00000.json"
    d = json.loads(pred_path.read_text())
    d["fields"]["bin_logits"]["data"] = [float("nan")] * len(d["fields"]["bin_logits"]["data"])
    pred_path.write_text(json.dumps(d))
    assert main(["decode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "pred_00000.json" in err and "fields.bin_logits.data" in err


def test_cli_nan_lane_point_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    scene_path = tmp_path / "out" / "scenes" / "scene_00001.json"
    d = json.loads(scene_path.read_text())
    d["lanes"][0]["points"][3][2] = float("nan")
    scene_path.write_text(json.dumps(d))
    assert main(["encode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "scene_00001.json" in err and "lanes[0].points" in err


def test_cli_nan_config_value_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, noise={"sigma_r": float("nan")})   # JSON token NaN
    assert main(["pipeline", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "noise" in err and "sigma_r" in err
    assert not (tmp_path / "out").exists()


def test_cli_nan_scene_surface_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    scene_path = tmp_path / "out" / "scenes" / "scene_00000.json"
    d = json.loads(scene_path.read_text())
    d["surface"]["amplitude"] = float("nan")
    scene_path.write_text(json.dumps(d))
    assert main(["encode", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "scene_00000.json" in err and "surface" in err and "amplitude" in err


def test_cli_grid_mismatch_between_stages(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for command in ("generate", "encode", "predict"):
        assert main([command, "--config", cfg]) == 0
    other = write_config(tmp_path, grid={"n_rows": 13})
    assert main(["decode", "--config", other]) == 3
    assert "grid" in capsys.readouterr().err


def test_cli_cluster_greedy_method(tmp_path):
    cfg = write_config(tmp_path)
    for command in ("generate", "encode", "predict", "decode"):
        assert main([command, "--config", cfg]) == 0
    assert main(["cluster", "--config", cfg, "--method", "greedy"]) == 0
    lanes = json.loads((tmp_path / "out" / "lanes" / "lanes_00000.json").read_text())
    assert lanes["kind"] == "lanes" and len(lanes["lanes"]) == 2


def test_cli_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--config", write_config(tmp_path), "--method", "psychic"])
    assert exc.value.code == 2


def test_cli_loss_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for command in ("generate", "encode", "predict"):
        assert main([command, "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["loss", "--config", cfg]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(std_io.StringIO(out)))
    assert rows[0] == ["scene", "score", "angle", "offsets", "pull", "push", "total"]
    assert [r[0] for r in rows[1:]] == ["0", "1"]
    # zero-noise predictions sit at the loss floor: every term vanishes except
    # the per-bin cross entropy, whose minimum is the binary entropy of the
    # soft labels summed over bins of occupied tiles
    for r in rows[1:]:
        target_path = tmp_path / "out" / "targets" / f"target_{int(r[0]):05d}.json"
        t = io.targets_from_dict(io.load_json(target_path))
        p = t.bin_probs[t.occupancy > 0.5]
        floor = float(np.sum(
            np.where(p > 0, -p * np.log(p, where=p > 0, out=np.zeros_like(p)), 0.0)
            + np.where(p < 1, -(1 - p) * np.log1p(-p, where=p < 1, out=np.zeros_like(p)), 0.0)))
        score, angle, offsets, pull, push, total = (float(v) for v in r[1:])
        assert abs(score) < 1e-12 and offsets == 0.0 and pull == 0.0 and push == 0.0
        npt.assert_allclose(angle, floor, rtol=1e-9)
        npt.assert_allclose(total, score + angle + offsets + pull + push, rtol=1e-12)
    assert (tmp_path / "out" / "loss.csv").read_text() == out


def test_cli_loss_gradient_check(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for command in ("generate", "encode", "predict"):
        assert main([command, "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["loss", "--config", cfg, "--check-grads"]) == 0
    out = capsys.readouterr().out
    grad_rows = [line for line in out.splitlines() if line.startswith("grad_check")]
    assert len(grad_rows) == 2
    for line in grad_rows:
        assert float(line.split(",")[-1]) <= 1e-6


def test_run_pipeline_parallel_equals_serial(tmp_path):
    cfg = PipelineConfig.from_dict(tiny_config_dict(tmp_path))
    report_serial, results_serial = run_pipeline(cfg, jobs=1)
    report_parallel, results_parallel = run_pipeline(cfg, jobs=2)
    assert report_parallel.to_dict() == report_serial.to_dict()
    for a, b in zip(results_serial, results_parallel):
        assert io.canonical_json(io.lanes_to_dict(a.lanes)) == \
            io.canonical_json(io.lanes_to_dict(b.lanes))
        assert io.canonical_json(io.preds_to_dict(a.preds)) == \
            io.canonical_json(io.preds_to_dict(b.preds))


def test_evaluate_results_follows_scene_index_not_list_order():
    # zero noise: every lane has confidence 1.0, so ties across scenes rank
    # by scene order and a reordered list must not reorder them
    cfg = PipelineConfig(n_scenes=10)
    report, results = run_pipeline(cfg)
    assert evaluate_results(results[::-1], cfg).to_dict() == report.to_dict()
