"""Closed-loop benchmark of the bevlanes pipeline.

    python3 perfbench/run.py --workload loop_default --seed 1 --seconds 20 --trace 0

One caller runs batches of scenes back to back, each batch waiting for the
previous one, for --seconds. Batch k of a run uses a master seed derived
from (--seed, k); the program receives only the generated config. A fixed
calibration kernel runs before and after every batch, and the end-to-end
times are scaled by it to a reference host speed. After the timed section
the recorded fixture of the workload (seed 0, see fingerprints.json) runs
once and its artifacts are compared by sha256.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced batches on the same seeds and prints the per-layer metrics (see
README.md). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

`--record` rewrites fingerprints.json after checking that jobs=2 gives the
same artifacts as jobs=1. `--tiny` shrinks batches for the self-tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Pin BLAS / OpenMP pools before numpy is imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tr  # noqa: E402

FINGERPRINTS = BENCH_DIR / "fingerprints.json"
FIXTURE_SEED = 0
SCENE_FILE = re.compile(r"_(\d+)\.\w+$")   # scenes/scene_00003.json -> 00003
DENSE_NOISE = {"sigma_r": 0.1, "sigma_phi": 0.05, "sigma_z": 0.05,
               "drop_rate": 0.05, "fp_rate": 0.05, "sigma_f": 0.2}


@dataclass(frozen=True)
class Workload:
    config: dict            # PipelineConfig sections
    jobs: int
    artifacts: bool         # cmd_pipeline + cmd_loss into a fresh dir, else run_pipeline
    batch: int              # scenes per timed batch
    fixture: int            # scenes in the recorded fixture


WORKLOADS = {
    "loop_default": Workload(
        config={}, jobs=1, artifacts=False, batch=16, fixture=10),
    "loop_dense": Workload(
        config={"grid": {"n_cols": 64, "n_rows": 104, "tile_width": 0.32,
                         "tile_length": 0.75},
                "noise": DENSE_NOISE},
        jobs=1, artifacts=False, batch=2, fixture=4),
    "artifacts_jobs2": Workload(
        config={"noise": {"sigma_r": 0.1, "fp_rate": 0.02, "sigma_f": 0.05}},
        jobs=2, artifacts=True, batch=16, fixture=10),
}

END_TO_END_UNITS = {"scenes_per_s": "1/s", "scene_ms_p50": "ms", "scene_ms_p95": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "map": "ratio"}
LAYERS = ("synth", "codec", "clustering", "evaluation", "io", "plots", "losses", "pipeline")

# Wall time of `calibration_s` at the reference host speed. End-to-end times
# are reported at this speed (see README.md, "Host speed").
REFERENCE_S = 0.004
_CAL_ARRAY = np.linspace(0.0, 1.0, 48).reshape(16, 3)


class BenchError(Exception):
    """The benchmark cannot run against this checkout."""


def import_program():
    """Import bevlanes from this checkout's src/ and nowhere else."""
    try:
        import bevlanes
        import bevlanes.pipeline  # noqa: F401
    except ImportError as e:
        raise BenchError(f"cannot import bevlanes from {ROOT / 'src'}: {e}")
    if not Path(bevlanes.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"bevlanes imported from {bevlanes.__file__}, not {ROOT / 'src'}")


def derive_batch_seed(seed: int, k: int) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}:{k}".encode()).digest()[:8], "little")


def make_config(wl: Workload, master_seed: int, n_scenes: int, out: Path):
    from bevlanes.config import PipelineConfig
    return PipelineConfig.from_dict({**wl.config, "n_scenes": n_scenes,
                                     "master_seed": master_seed, "output_dir": str(out)})


# ---------------------------------------------------------------------------
# One batch and its checks


def run_batch(wl: Workload, cfg):
    """Run one batch through the workload's entry point; returns its report."""
    from bevlanes import pipeline
    if wl.artifacts:
        report = pipeline.cmd_pipeline(cfg, jobs=wl.jobs)
        pipeline.cmd_loss(cfg)
        return report, None
    return pipeline.run_pipeline(cfg, jobs=wl.jobs)


def _finite_unit(v) -> bool:
    return math.isfinite(v) and 0.0 <= v <= 1.0


def batch_failures(wl: Workload, cfg, report, results) -> list[str]:
    """Scenes whose outputs break the pipeline's output contract."""
    n = cfg.n_scenes
    if not _finite_unit(report.map_score):
        return [f"report map {report.map_score!r} outside [0, 1]"] * n
    if wl.artifacts:
        return _tree_failures(Path(cfg.output_dir), report, n)
    bad = []
    for i, r in enumerate(results):
        if r.index != i or any(not _finite_unit(c) or not np.isfinite(curve.points).all()
                               for curve, c in r.lanes):
            bad.append(f"scene {i}: bad index or lane output")
    counts = report.counts
    if (counts["n_gt"] != sum(len(r.scene.lanes) for r in results)
            or counts["n_pred"] != sum(len(r.lanes) for r in results)):
        bad = [f"report counts {counts} disagree with the scene results"] * n
    return bad


def _tree_failures(out: Path, report, n: int) -> list[str]:
    stems = {"scenes": "scene", "targets": "target", "preds": "pred",
             "segments": "segments", "lanes": "lanes"}
    bad = []
    for i in range(n):
        files = [out / d / f"{s}_{i:05d}.json" for d, s in stems.items()]
        files += [out / "plots" / f"scene_{i:05d}.svg", out / "plots" / f"scores_{i:05d}.svg"]
        missing = [str(f.relative_to(out)) for f in files if not f.is_file() or not f.stat().st_size]
        if missing:
            bad.append(f"scene {i}: missing {missing}")
    on_disk = json.loads((out / "report.json").read_text())
    if on_disk != json.loads(json.dumps(report.to_dict())):
        bad = ["report.json differs from the returned report"] * n
    rows = (out / "loss.csv").read_text().splitlines()
    if len(rows) != n + 1 or not all(
            all(math.isfinite(float(v)) for v in row.split(",")[1:]) for row in rows[1:]):
        bad = ["loss.csv rows missing or not finite"] * n
    return bad


# ---------------------------------------------------------------------------
# Fingerprints of the recorded fixture


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digests(out: Path) -> dict:
    files = {p.relative_to(out).as_posix(): _sha(p.read_bytes())
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"report_sha256": files.get("report.json"), "loss_csv_sha256": files.get("loss.csv"),
            "tree_sha256": _sha("".join(f"{k} {v}\n" for k, v in files.items()).encode()),
            "files": files}


def fixture_failures(record: dict, got: dict) -> list[str]:
    """One message per failed fixture scene.

    A differing per-scene file (`lanes/lanes_00003.json`, `plots/scene_00003.svg`,
    ...) fails its scene; a differing report, loss.csv or file list fails all.
    """
    n = record["n_scenes"]
    if got["tree_sha256"] == record["tree_sha256"]:
        return []
    differ = sorted(name for name in record["files"]
                    if got["files"].get(name) != record["files"][name])
    per_scene = [SCENE_FILE.search(name) for name in differ]
    if set(got["files"]) != set(record["files"]) or not all(per_scene):
        return [f"fixture differs from the record in {differ[:3] or 'its file list'}"] * n
    return [f"fixture scene {i}: artifacts differ from the record"
            for i in sorted({int(m.group(1)) for m in per_scene})]


def run_fixture(wl: Workload, out: Path, jobs: int):
    """Run the recorded fixture through cmd_pipeline + cmd_loss; returns (report, digests)."""
    from bevlanes import pipeline
    cfg = make_config(wl, FIXTURE_SEED, wl.fixture, out)
    report = pipeline.cmd_pipeline(cfg, jobs=jobs)
    pipeline.cmd_loss(cfg)
    return report, tree_digests(out)


def record_fingerprints(work: Path) -> None:
    records = {}
    for name, wl in WORKLOADS.items():
        by_jobs = {}
        for jobs in (1, 2):
            out = work / f"{name}-jobs{jobs}"
            report, by_jobs[jobs] = run_fixture(wl, out, jobs)
            shutil.rmtree(out)
        if by_jobs[1] != by_jobs[2]:
            raise BenchError(f"{name}: jobs=2 artifacts differ from jobs=1")
        records[name] = {"seed": FIXTURE_SEED, "n_scenes": wl.fixture,
                         "config": wl.config, "map": report.map_score, **by_jobs[1]}
        print(f"{name}: map={report.map_score!r} report={by_jobs[1]['report_sha256'][:12]} "
              f"tree={by_jobs[1]['tree_sha256'][:12]} (jobs 1 == jobs 2)")
    FINGERPRINTS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Set-up


def prepare(wl: Workload, seed: int, work: Path) -> list[str]:
    """Everything before the first timed scene: imports, config, one warm-up scene.

    Returns the warm-up scene's failure, if it raised.
    """
    import_program()
    out = work / "warmup"
    try:
        run_batch(wl, make_config(wl, derive_batch_seed(seed, -1), 1, out))
    except Exception:
        traceback.print_exc()
        return ["warm-up scene raised"]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return []


def _calibration_kernel() -> None:
    s, d = 0, {}
    for i in range(20000):
        s += i * i
        d[i & 255] = s
    a = _CAL_ARRAY
    for _ in range(300):
        a = np.sqrt(a * a + 1.0) - 0.5
        a.sum()
        np.argmax(a)


def calibration_s() -> float:
    """Fastest of three wall times of a fixed kernel that never touches the program.

    The kernel is a pure-Python loop plus a chain of small numpy calls, the
    two kinds of work the pipeline is made of, so it slows with the host as
    they do. The fastest of three drops a run slowed by caches that a batch
    or a child process has just evicted.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def host_speed(before: float, after: float) -> float:
    """Factor that scales a wall time measured between two calibrations to the
    reference host speed."""
    return REFERENCE_S / (0.5 * (before + after))


def probe_setup(args) -> tuple[float, float]:
    """(wall time, host speed) from spawning a fresh interpreter until it has run `prepare`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    cal = calibration_s()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe failed with exit code {code}")
    return t1 - t0, host_speed(cal, calibration_s())


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# The run


@dataclass
class Batch:
    scenes: int
    wall: float
    speed: float            # host_speed around the batch
    spans: list
    failures: list[str]


class Runner:
    def __init__(self, args, wl: Workload, work: Path):
        self.args, self.wl, self.work = args, wl, work
        spool = work / "spool"
        spool.mkdir(parents=True, exist_ok=True)
        self.tracer = tr.Tracer(spool)
        self.batch_scenes = 2 if args.tiny else wl.batch

    def batch(self, k: int, traced: bool) -> Batch:
        """Run timed batch k; spans of an untraced batch hold only process_scene."""
        seed = derive_batch_seed(self.args.seed, k)
        out = self.work / f"batch{k}-{int(traced)}"
        cfg = make_config(self.wl, seed, self.batch_scenes, out)
        t = self.tracer
        mark = len(t.spans)
        t.install(tr.TRACED if traced else [tr.SCENE_FN])
        failures = None
        cal = calibration_s()
        try:
            with t.root("batch") as root:
                report, results = run_batch(self.wl, cfg)
            failures = batch_failures(self.wl, cfg, report, results)
        except Exception:
            traceback.print_exc()
        finally:
            t.uninstall()
        speed = host_speed(cal, calibration_s())
        t.collect()
        spans = t.spans[mark:]
        if not traced:
            del t.spans[mark:]
        scenes = sum(1 for s in spans if s[tr.NAME] == "pipeline.process_scene")
        if failures is None:
            failures = [f"batch {k} raised"] * cfg.n_scenes
        elif scenes != cfg.n_scenes:
            failures = [f"batch {k}: {scenes} process_scene spans"] * cfg.n_scenes
        shutil.rmtree(out, ignore_errors=True)
        return Batch(cfg.n_scenes, root.wall, speed, spans, failures)

    def timed(self, seconds: float, traced_pairs: bool, probes: int):
        """The closed loop over batches k = 0, 1, ..., run until the batches
        have taken `seconds`; traced, batch k runs untraced and then traced.

        `probes` set-up probes run between batches, spread evenly over the
        loop so that they sample the host at different moments. Returns the
        batches and the probes.
        """
        runs, setup, k = [], [], 0
        start = time.perf_counter()
        while k < 2 or time.perf_counter() < start + seconds:
            if len(setup) < probes and time.perf_counter() - start >= len(setup) * seconds / probes:
                t = time.perf_counter()
                setup.append(probe_setup(self.args))
                start += time.perf_counter() - t
            runs.append((self.batch(k, False), self.batch(k, True)) if traced_pairs
                        else (self.batch(k, False),))
            k += 1
        while len(setup) < probes:
            setup.append(probe_setup(self.args))
        return runs, setup

    def verify(self, traced: bool):
        """Run the recorded fixture with the workload's jobs; returns (scenes, failures, map)."""
        record = json.loads(FINGERPRINTS.read_text())[self.args.workload]
        out = self.work / "fixture"
        t = self.tracer
        if traced:
            t.install(tr.TRACED)
        try:
            with t.root("verify"):
                report, got = run_fixture(self.wl, out, self.wl.jobs)
        except Exception:
            traceback.print_exc()
            return self.wl.fixture, ["fixture raised"] * self.wl.fixture, None
        finally:
            t.uninstall()
            t.collect()
            shutil.rmtree(out, ignore_errors=True)
        return self.wl.fixture, fixture_failures(record, got), report.map_score


def end_to_end(batches: list[Batch], setup: list[tuple[float, float]], fixture_map) -> dict:
    """Every time is scaled by the host speed measured around it."""
    lat = sorted(1000.0 * (s[tr.END] - s[tr.START]) * b.speed
                 for b in batches for s in b.spans if s[tr.NAME] == "pipeline.process_scene")
    lat = lat or [0.0]      # no scene completed: the run has failed
    p = statistics.quantiles(lat * 2 if len(lat) < 2 else lat, n=100, method="inclusive")
    scenes = sum(b.scenes for b in batches)
    values = {
        "scenes_per_s": scenes / sum(b.wall * b.speed for b in batches),
        "scene_ms_p50": statistics.median(lat),
        "scene_ms_p95": p[94],
        "setup_s": statistics.median(t * v for t, v in setup),
        "peak_rss_mb": peak_rss_mb(),
        "map": fixture_map if fixture_map is not None else 0.0,   # the fixture raised
    }
    speeds = sorted(b.speed for b in batches)
    print(f"samples: {len(batches)} batches, {len(lat)} scenes (p95 has "
          f"{sum(v > p[94] for v in lat)} beyond it), {len(setup)} set-up probes")
    print(f"host speed: median {statistics.median(speeds):.3f}, range {speeds[0]:.3f}"
          f"-{speeds[-1]:.3f}, set-up probes {statistics.median(v for _, v in setup):.3f}; "
          f"unscaled scenes_per_s "
          f"{scenes / sum(b.wall for b in batches):.4g}, setup_s "
          f"{statistics.median(t for t, _ in setup):.4g}")
    return values


def per_layer(pairs: list, verify_spans: list) -> dict:
    """Per-layer metrics from the traced batches plus the traced fixture run."""
    traced = [t for _, t in pairs]
    spans = [s for b in traced for s in b.spans] + verify_spans
    own = tr.self_times(spans)
    scenes = max(1, sum(1 for s in spans if s[tr.NAME] == "pipeline.process_scene"))

    def dur(names, group=spans):
        return sum(s[tr.END] - s[tr.START] for s in group if s[tr.NAME] in names)

    def ms(names):      # inclusive time per scene
        return 1000.0 * dur(names) / scenes

    def self_ms(names):
        return 1000.0 * sum(own[s[tr.SID]] for s in spans if s[tr.NAME] in names) / scenes

    def count(name, key):
        return sum(s[tr.COUNTS][key] for s in spans if s[tr.NAME] == name)

    fanout = [dur({"pipeline.run_pipeline"}, b.spans) - dur({"pipeline.evaluate_results"}, b.spans)
              for b in traced]
    wall = dur({"bench.batch", "bench.verify"})
    accounted = sum(own[s[tr.SID]] for s in spans
                    if s[tr.PID] == os.getpid() and tr.layer(s[tr.NAME]) != "bench")
    candidates = count("clustering.cluster_segments", "candidates")
    out = {
        "synth.generate_ms": ms({"synth.generate_scene"}),
        "synth.predict_ms": ms({"synth.oracle_predict"}),
        "codec.encode_ms": ms({"codec.encode_scene"}),
        "codec.decode_ms": ms({"codec.decode_grid"}),
        "codec.occupied_tiles": count("codec.encode_scene", "occupied_tiles") / scenes,
        "codec.segments": count("codec.decode_grid", "segments") / scenes,
        "clustering.cluster_ms": ms({"clustering.cluster_segments", "clustering.assemble_curve"}),
        "clustering.mean_shift_ms": ms({"clustering.mean_shift"}),
        "clustering.assemble_ms": ms({"clustering.assemble_curve"}),
        "clustering.modes": count("clustering.mean_shift", "modes") / scenes,
        "clustering.instances": count("clustering.cluster_segments", "instances") / scenes,
        "clustering.assigned_frac": (count("clustering.cluster_segments", "assigned")
                                     / max(candidates, 1)),
        "evaluation.evaluate_s": statistics.median(dur({"evaluation.evaluate"}, b.spans)
                                                   for b in traced),
        "evaluation.rasterize_ms": self_ms({"evaluation.rasterize_curve"}),
        "evaluation.lateral_ms": self_ms({"evaluation.lateral_error"}),
        "evaluation.other_ms": self_ms({"evaluation.evaluate"}),
        "io.write_ms": self_ms({f"io.{n}" for n in tr.IO_WRITES}),
        "io.read_ms": self_ms({f"io.{n}" for n in tr.IO_READS}),
        "io.bytes_written": count("io.save_json", "bytes") / scenes,
        "io.files_written": count("io.save_json", "files") / scenes,
        "plots.svg_ms": self_ms({"plots.scene_svg", "plots.heatmap_svg"}),
        "losses.tile_loss_ms": ms({"losses.total_tile_loss"}),
        "losses.embedding_loss_ms": ms({"losses.embedding_loss"}),
        "pipeline.fanout_s": statistics.median(fanout),
        "pipeline.parent_serial_s": statistics.median(b.wall - f for b, f in zip(traced, fanout)),
        "pipeline.result_pickle_bytes": statistics.mean(
            [s[tr.COUNTS]["result_pickle_bytes"] for s in spans
             if s[tr.NAME] == "pipeline.run_pipeline"] or [0]),
    }
    names = {s[tr.NAME] for s in spans}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ms({n for n in names if tr.layer(n) == layer})
    diffs = [(t.wall - u.wall, (t.wall - u.wall) / u.wall) for u, t in pairs]
    out.update({
        "trace.wall_ms": 1000.0 * wall / scenes,
        "trace.accounted_frac": accounted / wall,
        "trace.overhead_ms": 1000.0 * statistics.median(d for d, _ in diffs),
        "trace.overhead_frac": statistics.median(f for _, f in diffs),
    })
    return out


PER_LAYER_UNITS = {
    **{n: "ms" for n in (
        "synth.generate_ms", "synth.predict_ms", "codec.encode_ms", "codec.decode_ms",
        "clustering.cluster_ms", "clustering.mean_shift_ms", "clustering.assemble_ms",
        "evaluation.rasterize_ms", "evaluation.lateral_ms", "evaluation.other_ms",
        "io.write_ms", "io.read_ms", "plots.svg_ms", "losses.tile_loss_ms",
        "losses.embedding_loss_ms", "trace.wall_ms", "trace.overhead_ms",
        *(f"{name}.self_ms" for name in LAYERS))},
    **{n: "count" for n in ("codec.occupied_tiles", "codec.segments", "clustering.modes",
                            "clustering.instances", "io.files_written")},
    **{n: "s" for n in ("evaluation.evaluate_s", "pipeline.fanout_s",
                        "pipeline.parent_serial_s")},
    **{n: "bytes" for n in ("io.bytes_written", "pipeline.result_pickle_bytes")},
    **{n: "ratio" for n in ("clustering.assigned_frac", "trace.accounted_frac",
                            "trace.overhead_frac")},
}


def write_spans(spans: list, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("id", "parent", "name", "scene", "start", "end", "pid", "counts")
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(dict(zip(keys, s))) + "\n")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="2-scene batches, one set-up probe")
    ap.add_argument("--record", action="store_true", help="rewrite fingerprints.json")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    return args


def run(args, work: Path) -> dict:
    wl = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    warmup_bad = prepare(wl, args.seed, work)
    runner = Runner(args, wl, work)
    probes = 0 if args.trace else 1 if args.tiny else 9
    runs, setup = runner.timed(args.seconds, traced_pairs=bool(args.trace), probes=probes)
    mark = len(runner.tracer.spans)
    fixture_scenes, fixture_bad, fixture_map = runner.verify(traced=bool(args.trace))
    batches = [b for r in runs for b in r]
    failures = warmup_bad + [f for b in batches for f in b.failures] + fixture_bad
    for msg in failures[:20]:
        print(f"FAILED: {msg}", file=sys.stderr)
    if args.trace:
        verify_spans = runner.tracer.spans[mark:]
        spans = [s for _, t in runs for s in t.spans] + verify_spans
        errors = tr.nesting_errors(spans)
        if errors:
            failures += errors
            print("span nesting: " + "; ".join(errors[:5]), file=sys.stderr)
        write_spans(spans, BENCH_DIR / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
        values, units = per_layer(runs, verify_spans), PER_LAYER_UNITS
    else:
        values, units = end_to_end(batches, setup, fixture_map), END_TO_END_UNITS
    for name, v in values.items():
        print(f"{name:32s} {v:14.6g} {units[name]}")
    return {"correct": not failures,
            "attempted": 1 + sum(b.scenes for b in batches) + fixture_scenes,
            "failed": len(failures),
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    tmp = ROOT / ".bench_tmp"
    work = tmp / f"{args.workload or 'record'}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe_setup:
            prepare(WORKLOADS[args.workload], args.seed, work)
            print("ready", flush=True)
            return 0
        import_program()
        if args.record:
            record_fingerprints(work)
            return 0
        result = run(args, work)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tmp.is_dir() and not any(tmp.iterdir()):
            tmp.rmdir()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
