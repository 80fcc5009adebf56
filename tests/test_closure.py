"""The stage chain stays closed under one mutation of any stage file.

A stage file with one key deleted, or one value replaced by a JSON value of
another type or an edge number, is read by the stage that consumes it. That
stage must exit 0 or 3, never 2 and never with a traceback; an exit 3 names
the file. When it exits 0, every later stage and `loss` must exit 0 too, so
a value that no rule rejects cannot fail a later stage in another file. Half
of the grid-file cases change a value of an occupied or kept tile, which a
random leaf rarely reaches. The commands run in process, so that an overflow
warning fails the test (`filterwarnings = error`).
"""

import contextlib
import io as std_io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlanes.cli import main

CHAIN = ("encode", "predict", "decode", "cluster", "eval", "loss")
# Each stage file kind: its file in a one-scene tree, and the command that consumes it.
FILES = {"scene": ("scenes/scene_00000.json", "encode"),
         "target": ("targets/target_00000.json", "predict"),
         "prediction": ("preds/pred_00000.json", "decode"),
         "segments": ("segments/segments_00000.json", "cluster"),
         "lanes": ("lanes/lanes_00000.json", "eval")}
DELETE = object()
NUMBERS = (0, 1, -1, 0.5, -0.5, 1e5, -1e5, 1e7, -1e7, 1e308, -1e308, 2 ** 70, 1e-320, 7)
VALUES = (DELETE, None, True, False, "x", [], {}) + NUMBERS


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """The config path of one default scene run from generate to cluster, and
    a function that restores its files and returns its output dir (a short
    repr, for hypothesis to print)."""
    root = tmp_path_factory.mktemp("closure")
    cfg = root / "config.json"
    cfg.write_text(json.dumps({"n_scenes": 1, "master_seed": 3, "output_dir": str(root / "out")}))
    for command in ("generate",) + CHAIN[:4]:
        assert _run(command, cfg)[0] == 0
    clean = {p: p.read_bytes() for p in (root / "out").rglob("*.json")}

    def restore():
        for path, content in clean.items():
            path.write_bytes(content)
        return root / "out"
    return cfg, restore


def _run(command: str, cfg) -> tuple[int, str]:
    """The exit code and stderr of one command."""
    err = std_io.StringIO()
    with contextlib.redirect_stdout(std_io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg)])
    return code, err.getvalue()


def _paths(node, at=()):
    """The path of every key and list element under node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in items:
        yield at + (key,)
        yield from _paths(child, at + (key,))


def _lit_paths(d: dict) -> dict:
    """By field, the paths of a grid file's values at its occupied or kept tiles."""
    fields = d["fields"]
    lit = ([v == 1.0 for v in fields["occupancy"]["data"]] if "occupancy" in fields else
           [v > 0 for v in fields["score_logit"]["data"]])
    per = {name: len(entry["data"]) // len(lit) for name, entry in fields.items()}
    return {name: [("fields", name, "data", k * n + j) for k in range(len(lit)) if lit[k]
                   for j in range(n)] for name, n in per.items()}


@pytest.mark.parametrize("kind", FILES)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(aimed=st.booleans(), field=st.integers(0, 23), leaf=st.integers(0, 2 ** 20),
       value=st.integers(0, 41))
def test_one_mutation_of_a_stage_file_keeps_the_chain_closed(tree, kind, aimed, field, leaf,
                                                             value):
    cfg, restore = tree
    out = restore()
    name, command = FILES[kind]
    d = json.loads((out / name).read_text())
    # each choice is uniform over its list: a grid file has 6 or 8 fields, and
    # 42 values are 3 rounds of NUMBERS and 2 of VALUES
    if aimed and "fields" in d:     # a number at an occupied or kept tile
        lit = _lit_paths(d)
        paths = lit[sorted(lit)[field % len(lit)]]
        value = NUMBERS[value % len(NUMBERS)]
    else:
        paths = list(_paths(d))
        value = VALUES[value % len(VALUES)]
    path = paths[leaf % len(paths)]
    node = d
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    (out / name).write_text(json.dumps(d))
    code, err = _run(command, cfg)
    assert code in (0, 3), err
    if code == 3:
        assert name.split("/")[1] in err, err
        return
    for later in CHAIN[CHAIN.index(command) + 1:]:
        assert _run(later, cfg) == (0, ""), later
