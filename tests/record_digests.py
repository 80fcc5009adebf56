"""Record `tests/digests.json`: the sha256 of every artifact of a matrix of runs.

    PYTHONPATH=src python3 tests/record_digests.py

Each cell runs a list of `bevlanes` commands on a few scenes into a fresh
directory, and hashes every file of the tree together with the stdout of each
command (the output directory replaced by `<out>`). The cells are:

- `<config>-<method>`: `bevlanes pipeline` (which calls `cmd_pipeline`) and
  then `bevlanes eval`, for {default, criterion-10 noisy, 64x104 dense} x
  {embedding, greedy}, serially;
- `<config>-embedding-jobs2`: the same with `--jobs 2`, which must give the
  digests of its serial cell;
- `<config>-<method>-stages`: the stage chain `generate`, `encode`,
  `predict`, `decode`, `cluster`, `eval` for the default and noisy configs;
- `noisy-loss`: `generate`, `encode`, `predict` and `loss --check-grads`.

This script is the only writer of the record. It refuses to write when a
`--jobs 2` run differs from the serial one, or when a stage-chain or loss
cell has a file (or an `eval` stdout) that differs from the same file of its
config's pipeline cell. Re-record only for a change that is meant to change
outputs, and say which digests changed. `tests/test_digests.py` regenerates
every cell and names each file whose digest differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from bevlanes.cli import main

RECORD = Path(__file__).resolve().parent / "digests.json"
SEED = 3
CONFIGS = {
    "default": ({}, 4),
    "noisy": ({"noise": {"sigma_r": 0.1, "fp_rate": 0.02, "sigma_f": 0.05}}, 4),
    "dense": ({"grid": {"n_cols": 64, "n_rows": 104, "tile_width": 0.32, "tile_length": 0.75},
               "noise": {"sigma_r": 0.1, "sigma_phi": 0.05, "sigma_z": 0.05,
                         "drop_rate": 0.05, "fp_rate": 0.05, "sigma_f": 0.2}}, 2),
}
METHODS = ("embedding", "greedy")


# cell name -> (config name, the commands it runs in order)
CELLS = {}
# a jobs-2 cell -> the serial cell whose digests it must have
SAME = {}
# a stage-chain or loss cell -> the pipeline cell whose files it shares
SHARES = {}
for name in CONFIGS:
    for method in METHODS:
        CELLS[f"{name}-{method}"] = (name, (("pipeline", "--method", method, "--jobs", "1"),
                                            ("eval",)))
        if name != "dense":
            CELLS[f"{name}-{method}-stages"] = (name, (
                ("generate",), ("encode",), ("predict",), ("decode",),
                ("cluster", "--method", method), ("eval",)))
            SHARES[f"{name}-{method}-stages"] = f"{name}-{method}"
    CELLS[f"{name}-embedding-jobs2"] = (name, (("pipeline", "--method", "embedding", "--jobs", "2"),
                                               ("eval",)))
    SAME[f"{name}-embedding-jobs2"] = f"{name}-embedding"
CELLS["noisy-loss"] = ("noisy", (("generate",), ("encode",), ("predict",),
                                 ("loss", "--check-grads")))
SHARES["noisy-loss"] = "noisy-embedding"


def recorded_as(cell: str) -> str:
    """The record entry a cell is compared with."""
    return SAME.get(cell, cell)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cell(cell: str, work: Path) -> dict:
    """Run one cell in the empty directory `work`; relative path -> sha256 of
    every file written, and `<command>.stdout` -> sha256 of what it printed."""
    name, commands = CELLS[cell]
    sections, n_scenes = CONFIGS[name]
    config, out = work / "config.json", work / "out"
    config.write_text(json.dumps({**sections, "n_scenes": n_scenes, "master_seed": SEED}))
    digests = {}
    for command in commands:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main([command[0], "--config", str(config), "--out", str(out), *command[1:]])
        if code != 0:
            raise RuntimeError(f"{cell}: bevlanes {command[0]} exited with {code}")
        digests[f"{command[0]}.stdout"] = _sha256(
            printed.getvalue().replace(str(out), "<out>").encode())
    digests.update((p.relative_to(out).as_posix(), _sha256(p.read_bytes()))
                   for p in sorted(out.rglob("*")) if p.is_file())
    return digests


def shared_differences(digests: dict, pipeline_digests: dict) -> list[str]:
    """The entries (files, `eval.stdout`) that a stage-chain or loss cell has
    in common with its pipeline cell but with other bytes."""
    return sorted(name for name in set(digests) & set(pipeline_digests)
                  if digests[name] != pipeline_digests[name])


def record() -> dict:
    """Every cell's digests but the jobs-2 ones, after checking each jobs-2
    cell against its serial cell and each stage-chain or loss cell against the
    files of its pipeline cell."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cell in CELLS:
            (Path(tmp) / cell).mkdir()
            got[cell] = run_cell(cell, Path(tmp) / cell)
    for cell, serial in SAME.items():
        if got[cell] != got[serial]:
            raise SystemExit(f"refusing to write {RECORD.name}: {cell} differs from {serial}")
    for cell, pipeline in SHARES.items():
        differ = shared_differences(got[cell], got[pipeline])
        if differ:
            raise SystemExit(f"refusing to write {RECORD.name}: {cell} differs from "
                             f"{pipeline} in {differ}")
    return {cell: got[cell] for cell in CELLS if cell not in SAME}


if __name__ == "__main__":
    RECORD.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}", file=sys.stderr)
