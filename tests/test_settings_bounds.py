"""Every bound a settings field declares, tested at its edge.

The cases are read from the field metadata that `check_settings` enforces,
so a bound declared on a field is tested here without a case of its own:
the bound's edge value is accepted, the nearest value beyond it is rejected
with a message naming the field, and in a stage file's `surface`, `grid` or
`bins` section it is a data error (exit 3) naming the file and the section.
"""

import json
import math
import shutil
from dataclasses import fields

import pytest

from bevlanes.cli import main
from bevlanes.clustering import ClusterParams
from bevlanes.codec import AngleBinSpec
from bevlanes.evaluation import EvalConfig
from bevlanes.geometry import GridSpec, check_settings
from bevlanes.losses import EmbeddingParams
from bevlanes.synth import NoiseConfig, SceneConfig, SurfaceParams

RECORDS = (GridSpec, AngleBinSpec, EmbeddingParams, ClusterParams, SceneConfig, NoiseConfig,
           SurfaceParams, EvalConfig)
BOUNDS = [(record, f.name, op, bound) for record in RECORDS for f in fields(record)
          for op, bound in f.metadata.items()]


def _id(case) -> str:
    record, name, op, bound = case
    return f"{record.__name__}.{name}{op}{bound}"


def _next(value, up: bool):
    """The nearest int or float above (up) or below the value."""
    if isinstance(value, int):
        return value + (1 if up else -1)
    return math.nextafter(value, math.inf if up else -math.inf)


def inside(op: str, bound):
    """The value nearest the bound that the bound accepts."""
    return _next(bound, up=True) if op == ">" else bound


def beyond(op: str, bound):
    """The value nearest the bound that the bound rejects."""
    return {">": bound, ">=": _next(bound, up=False), "<=": _next(bound, up=True)}[op]


def test_every_bounded_field_declares_its_bounds():
    # 27 fields, drop_rate and fp_rate bounded on both sides
    assert len(BOUNDS) == 29
    assert len({(record, name) for record, name, _, _ in BOUNDS}) == 27


@pytest.mark.parametrize("record, name, op, bound", BOUNDS, ids=map(_id, BOUNDS))
def test_a_bound_accepts_its_edge(record, name, op, bound):
    value = inside(op, bound)
    if (record, name) == (EvalConfig, "lane_width"):
        # raster_resolution <= lane_width / 4 holds for no positive raster
        # resolution at the smallest positive lane width (its quarter rounds
        # to 0), so this bound is checked on its own
        cfg = EvalConfig()
        object.__setattr__(cfg, name, value)
        check_settings(cfg)
    else:
        assert getattr(record(**{name: value}), name) == value


@pytest.mark.parametrize("record, name, op, bound", BOUNDS, ids=map(_id, BOUNDS))
def test_a_bound_rejects_the_nearest_value_beyond(record, name, op, bound):
    value = beyond(op, bound)
    with pytest.raises(ValueError) as exc:
        record(**{name: value})
    assert str(exc.value) == f"{name} must be {op} {bound}, got {value}"


# Each settings record a stage file carries: its section, and the files that
# carry it with the command that reads them.
_FILES = {
    "surface": (SurfaceParams, [("scenes/scene_00000.json", "encode")]),
    "grid": (GridSpec, [("targets/target_00000.json", "predict"),
                        ("preds/pred_00000.json", "decode")]),
    "bins": (AngleBinSpec, [("targets/target_00000.json", "predict"),
                            ("preds/pred_00000.json", "decode")]),
}
FILE_CASES = [(path, command, section, name, op, bound)
              for section, (record, files) in _FILES.items() for path, command in files
              for rec, name, op, bound in BOUNDS if rec is record]


@pytest.fixture(scope="module")
def predicted_tree(tmp_path_factory):
    """The output tree of generate, encode and predict on one scene."""
    out = tmp_path_factory.mktemp("tree") / "out"
    cfg = out.parent / "config.json"
    cfg.write_text(json.dumps({"n_scenes": 1, "master_seed": 3, "output_dir": str(out)}))
    for command in ("generate", "encode", "predict"):
        assert main([command, "--config", str(cfg)]) == 0
    return out


@pytest.mark.parametrize("path, command, section, name, op, bound", FILE_CASES,
                         ids=[f"{p.split('/')[0]}-{s}.{n}{o}{b}"
                              for p, _, s, n, o, b in FILE_CASES])
def test_a_stage_file_value_beyond_a_bound_is_data_error(tmp_path, capsys, predicted_tree, path,
                                                          command, section, name, op, bound):
    out = tmp_path / "out"
    shutil.copytree(predicted_tree, out)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_scenes": 1, "master_seed": 3, "output_dir": str(out)}))
    d = json.loads((out / path).read_text())
    d[section][name] = beyond(op, bound)
    (out / path).write_text(json.dumps(d))
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and path.split("/")[1] in err
    assert f"field '{section}': {name} must be {op} {bound}" in err
