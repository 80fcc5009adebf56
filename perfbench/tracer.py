"""Run-time span tracing of the bevlanes layers, from outside the package.

`Tracer.install` replaces chosen package functions with timing wrappers.
Every module of the package that binds one of those function objects gets
the wrapper, so calls reach it wherever the program looks the name up at
call time (`bevlanes.pipeline.encode_scene`, `bevlanes.evaluation.
rasterize_curve`, `bevlanes.io.save_json`, ...). `Tracer.uninstall` puts the
originals back.

A span is (id, parent id, name, scene, start, end, pid, counts). Spans are
held in memory. Pool workers forked while spans are open inherit the
wrappers and the open stack, so their spans name the parent's span as
their parent; a worker appends each finished top-level span tree to a
spool file that the parent reads back with `collect`. Times come from
`time.perf_counter`, which is CLOCK_MONOTONIC on Linux and so comparable
across processes.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

# Layer boundaries: (defining module, function name). The layer of a span is
# the defining module's last name component.
TRACED = [
    ("bevlanes.pipeline", name) for name in (
        "cmd_pipeline", "cmd_loss", "run_pipeline", "process_scene", "evaluate_results")
] + [
    ("bevlanes.synth", "generate_scene"), ("bevlanes.synth", "oracle_predict"),
    ("bevlanes.codec", "encode_scene"), ("bevlanes.codec", "decode_grid"),
    ("bevlanes.clustering", "cluster_segments"), ("bevlanes.clustering", "mean_shift"),
    ("bevlanes.clustering", "assemble_curve"),
    ("bevlanes.evaluation", "evaluate"), ("bevlanes.evaluation", "rasterize_curve"),
    ("bevlanes.evaluation", "lateral_error"),
    ("bevlanes.plots", "scene_svg"), ("bevlanes.plots", "heatmap_svg"),
    ("bevlanes.losses", "total_tile_loss"), ("bevlanes.losses", "embedding_loss"),
]
IO_WRITES = ("canonical_json", "save_json", "report_to_csv", "scene_to_dict", "targets_to_dict",
             "preds_to_dict", "segments_to_dict", "lanes_to_dict")
IO_READS = ("load_json", "scene_from_dict", "targets_from_dict", "preds_from_dict",
            "segments_from_dict", "lanes_from_dict")
TRACED += [("bevlanes.io", name) for name in IO_WRITES + IO_READS]
# The only function wrapped in an untraced run: it gives per-scene latency.
SCENE_FN = ("bevlanes.pipeline", "process_scene")


def _occupied(args, kwargs, ret):
    return {"occupied_tiles": int((ret.occupancy > 0).sum())}


def _clustered(args, kwargs, ret):
    return {"instances": len(ret), "assigned": sum(len(i.segments) for i in ret),
            "candidates": len(args[0])}


def _saved(args, kwargs, ret):
    return {"bytes": os.path.getsize(args[0]), "files": 1}


def _results(args, kwargs, ret):
    _, results = ret
    return {"result_pickle_bytes": len(pickle.dumps(results[0], pickle.HIGHEST_PROTOCOL))}


# Counts taken from a call's arguments and result, after its span has ended.
COUNTERS = {
    "codec.encode_scene": _occupied,
    "codec.decode_grid": lambda a, k, r: {"segments": len(r)},
    "clustering.mean_shift": lambda a, k, r: {"modes": len(r)},
    "clustering.cluster_segments": _clustered,
    "io.save_json": _saved,
    "pipeline.run_pipeline": _results,
}

# Span fields, by position.
SID, PARENT, NAME, SCENE, START, END, PID, COUNTS = range(8)


class Tracer:
    """Records spans around the wrapped package functions of one run."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spans: list[tuple] = []
        self.main_pid = os.getpid()
        self._owner = self.main_pid
        self._stack: list[tuple] = []   # open spans: (sid, scene, pid)
        self._next = 0
        self._patched: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each (module, name) in every bevlanes module that binds it."""
        self.uninstall()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "bevlanes" or n.startswith("bevlanes."))]
        for mod_name, fn_name in targets:
            original = getattr(sys.modules[mod_name], fn_name)   # missing name: fail loudly
            wrapper = self._wrap(original, f"{mod_name.rsplit('.', 1)[1]}.{fn_name}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        scene_fn = name == "pipeline.process_scene"

        def traced(*args, **kwargs):
            opened = self._begin(f"{args[0].master_seed}/{args[1]}" if scene_fn else None)
            try:
                ret = fn(*args, **kwargs)
            except BaseException:
                self._stack.pop()
                raise
            self._end(opened, name, lambda: counter(args, kwargs, ret) if counter else None)
            return ret

        return traced

    # -- spans ----------------------------------------------------------------

    def _begin(self, scene=None):
        pid = os.getpid()
        if pid != self._owner:              # first span in a forked worker
            self._owner, self.spans = pid, []
        parent = self._stack[-1] if self._stack else None
        if scene is None and parent:
            scene = parent[1]
        sid = pid * 1_000_000_000 + self._next
        self._next += 1
        self._stack.append((sid, scene, pid))
        return sid, parent, scene, pid, time.perf_counter()

    def _end(self, opened, name: str, counts=lambda: None) -> float:
        end = time.perf_counter()
        self._stack.pop()
        sid, parent, scene, pid, start = opened
        self.spans.append((sid, parent[0] if parent else None, name, scene, start, end, pid,
                           counts()))
        if pid != self.main_pid and (parent is None or parent[2] != pid):
            self._spool(pid)
        return end - start

    @contextmanager
    def root(self, name: str):
        """A span of the benchmark itself (layer `bench`); yields an object whose
        `wall` is set to the span's duration on exit."""
        span = SimpleNamespace(wall=None)
        opened = self._begin()
        try:
            yield span
        finally:
            span.wall = self._end(opened, f"bench.{name}")

    # -- worker spool -------------------------------------------------------

    def _spool(self, pid: int) -> None:
        with open(self.spool_dir / f"{pid}.spans", "ab") as f:
            pickle.dump(self.spans, f, pickle.HIGHEST_PROTOCOL)
        self.spans = []

    def collect(self) -> None:
        """Move the spans that workers spooled into this process's list."""
        for path in sorted(self.spool_dir.glob("*.spans")):
            with open(path, "rb") as f:
                while True:
                    try:
                        self.spans.extend(pickle.load(f))
                    except EOFError:
                        break
            path.unlink()


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[tuple]) -> dict:
    """Span id -> duration minus the time its same-process children cover."""
    own = {s[SID]: s[END] - s[START] for s in spans}
    pid_of = {s[SID]: s[PID] for s in spans}
    for s in spans:
        p = s[PARENT]
        if p is not None and p in own and pid_of[p] == s[PID]:
            own[p] -= s[END] - s[START]
    return own


def nesting_errors(spans: list[tuple]) -> list[str]:
    """Children whose parent is missing or whose interval leaves the parent's."""
    by_id = {s[SID]: s for s in spans}
    errors = []
    for s in spans:
        if s[PARENT] is None:
            continue
        p = by_id.get(s[PARENT])
        if p is None:
            errors.append(f"{s[NAME]}: parent span missing")
        elif s[START] < p[START] or s[END] > p[END]:
            errors.append(f"{s[NAME]} [{s[START]:.6f}, {s[END]:.6f}] outside "
                          f"{p[NAME]} [{p[START]:.6f}, {p[END]:.6f}]")
    return errors
