"""Record `tests/digests.json`: the sha256 of every artifact of a matrix of runs.

    PYTHONPATH=src python3 tests/record_digests.py

Each cell runs `bevlanes pipeline` (which calls `cmd_pipeline`) and then
`bevlanes eval` on a few scenes into a fresh directory, and hashes every file
of the tree together with the stdout of both commands (the output directory
replaced by `<out>`). The cells are {default, criterion-10 noisy, 64x104
dense} x {embedding, greedy}, serially, plus one `--jobs 2` run per config
that must give the same digests as its serial embedding cell. This script is
the only writer of the record, and it refuses to write when a `--jobs 2` run
differs from the serial one. Re-record only for a change that is meant to
change outputs, and say which digests changed. `tests/test_digests.py`
regenerates every cell and names each file whose digest differs.
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
# cell name -> (config name, method, jobs); a jobs-2 cell has the digests of
# the serial cell of its config and method
CELLS = {f"{name}-{method}": (name, method, 1) for name in CONFIGS for method in METHODS}
CELLS.update({f"{name}-embedding-jobs2": (name, "embedding", 2) for name in CONFIGS})


def recorded_as(cell: str) -> str:
    """The record entry a cell is compared with."""
    name, method, _ = CELLS[cell]
    return f"{name}-{method}"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cell(cell: str, work: Path) -> dict:
    """Run one cell in the empty directory `work`; relative path -> sha256 of
    every file written, and `<command>.stdout` -> sha256 of what it printed."""
    name, method, jobs = CELLS[cell]
    sections, n_scenes = CONFIGS[name]
    config, out = work / "config.json", work / "out"
    config.write_text(json.dumps({**sections, "n_scenes": n_scenes, "master_seed": SEED}))
    digests = {}
    for command in (["pipeline", "--method", method, "--jobs", str(jobs)], ["eval"]):
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


def record() -> dict:
    """Every serial cell's digests, after checking each jobs-2 cell against them."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cell in CELLS:
            (Path(tmp) / cell).mkdir()
            got[cell] = run_cell(cell, Path(tmp) / cell)
    for cell in CELLS:
        if got[cell] != got[recorded_as(cell)]:
            raise SystemExit(f"refusing to write {RECORD.name}: {cell} differs from "
                             f"{recorded_as(cell)}")
    return {cell: got[cell] for cell in CELLS if recorded_as(cell) == cell}


if __name__ == "__main__":
    RECORD.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}", file=sys.stderr)
