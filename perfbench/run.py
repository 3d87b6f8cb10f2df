#!/usr/bin/env python3
"""visemefit benchmark: end-to-end CLI runs on seeded workloads, plus a
separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload clip_full --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py                             # every workload, both modes
    python3 perfbench/run.py --smoke                     # tiny sizes, checks every metric

Run from the root of a source checkout; the program is imported from
``src/``. Each run generates its inputs from ``--seed`` under
``.perfbench_tmp/`` in the checkout (deleted at exit), times the set-up
several times, then repeats the workload's CLI invocations, each in a fresh
process, for ``--seconds`` seconds and reports medians.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones (see ``spans.py``); the difference between the two is the
tracing overhead. Every round's outputs are checked. Each workload and mode
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``. Metric names and units come from ``BENCHMARK.json``; a metric
computed here but missing there, or the reverse, is an error. Without
``src/visemefit`` the benchmark exits 2 and prints no result.

Each child's CPU time and peak RSS come from ``os.wait4``, not from
``RUSAGE_CHILDREN`` (a running maximum over every child ever waited for).
This driver imports neither numpy nor visemefit, so it stays small: a
child's peak RSS on Linux starts from the parent's at fork.

The times of the end-to-end metrics are in reference seconds. On a shared
host the speed available to one guest drifts by tens of percent over
minutes, and the guest cannot see it: wall and CPU time stretch alike. So
the driver times a fixed piece of pure-Python work (``calibrate``) between
children, and each set-up and round is scaled by the reference time of that
work (``calibration_ref_s`` in ``spec.json``) over the mean of the
calibrations just before and just after it. The program under test never
runs the calibration, so a change to it moves the scaled times as it moves
the raw ones. The raw medians and the calibration time are printed with
each result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

# set-ups per untraced run (setup_s is their median): at least 3, and up to 9
# while they fit in SETUP_SECONDS
SETUPS = (3, 9)
SETUP_SECONDS = 6.0
SCENE_BYTES_PER_FRAME = 20_000_000  # one 3.1 MB PPM plus one 16.8 MB FLO
FREE_SPACE_MARGIN = 2.0
MAE_LIMIT = 0.05  # acceptance criterion 2 of the test suite
RUN_LIMIT_S = 170.0  # a child still running this long after a run began is killed


def calibrate() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work: an
    integer loop and float formatting, the interpreter work that dominates
    every workload. It allocates nothing that lives past one iteration: a
    child's peak RSS includes this process's (see above)."""
    begin = perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    for i in range(200_000):
        total += len(f"{i * 0.5:.6f}")
    return perf_counter() - begin


class Incorrect(Exception):
    """A round ran but its output failed a check."""


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    t0: float
    trace: str | None


class Runner:
    """Starts children one at a time and always reaps them."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC
        # matrices have at most 64 rows: keep BLAS from starting thread pools
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.proc: subprocess.Popen | None = None
        self.deadline = perf_counter() + RUN_LIMIT_S
        self._n = 0

    def run(self, kind: str, args: list, trace: bool = False) -> Proc:
        self._n += 1
        log = os.path.join(self.tmp, f"child{self._n}.log")
        trace_path = os.path.join(self.tmp, f"trace{self._n}.json") if trace else None
        t0 = perf_counter()
        argv = [sys.executable, CHILD]
        if trace:
            argv += ["--trace", trace_path, "--t0", repr(t0)]
        argv += [kind] + [str(a) for a in args]
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
        timer = threading.Timer(max(1.0, self.deadline - perf_counter()), self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        self.proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.proc = None
        if code != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"child exited {code}: {' '.join(argv[2:])}\n{tail}", file=sys.stderr)
        return Proc(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, t0, trace_path)

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


# ---------------------------------------------------------------- outputs


def read_rows(path: str) -> list[list[float]]:
    """Numeric rows of a curve CSV, frame column dropped."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith(("#", "frame")):
                rows.append([float(x) for x in line.split(",")[1:]])
    return rows


def tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def fit_errors(curve_path: str, gt_path: str) -> list[float]:
    """Per-frame mean absolute weight error; raises Incorrect on a bad fit."""
    fitted, gt = read_rows(curve_path), read_rows(gt_path)
    if len(fitted) != len(gt) or not fitted:
        raise Incorrect(f"{curve_path}: {len(fitted)} frames, ground truth has {len(gt)}")
    errors = []
    for w, g in zip(fitted, gt):
        if min(w) < 0.0 or max(w) > 1.0:
            raise Incorrect(f"{curve_path}: weight outside [0, 1]")
        errors.append(sum(abs(a - b) for a, b in zip(w, g)) / len(w))
    if max(errors) >= MAE_LIMIT:
        raise Incorrect(f"{curve_path}: worst per-frame MAE {max(errors):.4f} >= {MAE_LIMIT}")
    return errors


# -------------------------------------------------------------- workloads


class ClipFull:
    """One synth clip with landmarks, PPM frames and FLO flow; single-clip fit."""

    name = "clip_full"

    def __init__(self, size: int):
        self.frames = size

    def disk_bytes(self) -> int:
        return self.frames * SCENE_BYTES_PER_FRAME

    def setup(self, seed: int, out: str):
        return [("cli", ["synth", "--seed", seed, "--frames", self.frames, "--out", out])]

    def rounds(self, d: str, out: str):
        return [["fit", "--rig", f"{d}/rig/rig.txt", "--align", f"{d}/align.tsv", "--map", f"{d}/map.txt",
                 "--obs", f"{d}/obs", "--config", f"{d}/config.txt", "--out", out]]

    def check(self, d: str, out: str):
        errors = fit_errors(f"{out}/curve.csv", f"{d}/gt.csv")
        return tree_digest(out), len(errors), errors


class ClipsBatch:
    """Two landmark-only clips fitted through directory mode with two threads."""

    name = "clips_batch"
    clips = ("a", "b")

    def __init__(self, size: int):
        self.frames = size

    def disk_bytes(self) -> int:
        return 1_000_000

    def setup(self, seed: int, out: str):
        return [("gen", [self.name, seed, out, self.frames])]

    def rounds(self, d: str, out: str):
        return [["fit", "--rig", f"{d}/rig/rig.txt", "--map", f"{d}/map.txt", "--obs", f"{d}/clips",
                 "--config", f"{d}/config.txt", "--workers", 2, "--out", out]]

    def check(self, d: str, out: str):
        errors = []
        for clip in self.clips:
            errors += fit_errors(f"{out}/{clip}/curve.csv", f"{d}/gt/{clip}.csv")
        return tree_digest(out), len(errors), errors


class Assets:
    """Output chain on a long alignment: curve, resample, OBJs, bones, metrics."""

    name = "assets"

    def __init__(self, size: int):
        self.seconds = size

    def disk_bytes(self) -> int:
        return self.seconds * 60 * 10_000  # one OBJ of about 9 kB per output frame

    def setup(self, seed: int, out: str):
        return [("gen", [self.name, seed, out, self.seconds])]

    def rounds(self, d: str, out: str):
        curve, curve60 = f"{out}/proc.csv", f"{out}/proc60.csv"
        return [
            ["gen-proc", "--align", f"{d}/long_align.tsv", "--map", f"{d}/map.txt", "--rig", f"{d}/rig/rig.txt",
             "--out", curve],
            ["resample", "--curve", curve, "--fps", 60, "--out", curve60],
            ["bake", "--rig", f"{d}/rig/rig.txt", "--curve", curve60, "--out", f"{out}/meshes"],
            ["bones", "--bones", f"{d}/bones.csv", "--curve", curve60, "--out", f"{out}/bone_track.csv"],
            ["eval", "--metric", "lip", "--curve", curve60, "--rig", f"{d}/rig/rig.txt", "--out", f"{out}/metrics"],
            ["eval", "--metric", "tv", "--curve", curve60, "--out", f"{out}/metrics"],
        ]

    def check(self, d: str, out: str):
        frames = len(read_rows(f"{out}/proc60.csv"))
        objs = sum(name.endswith(".obj") for name in os.listdir(f"{out}/meshes"))
        if frames < self.seconds * 60 or objs != frames:
            raise Incorrect(f"{objs} OBJ files for {frames} resampled frames")
        return tree_digest(out), frames, []


WORKLOADS = {w.name: w for w in (ClipFull, ClipsBatch, Assets)}


# ------------------------------------------------------------------ spans


def union_length(intervals, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def load_spans(proc: Proc) -> tuple[list, float]:
    """Spans of one traced process with self time appended, and the part of
    the process's wall time that no top-level span covers."""
    with open(proc.trace, encoding="utf-8") as fh:
        records = json.load(fh)
    kids = defaultdict(list)
    for r in records:
        kids[r[4]].append((r[2], r[3]))
    for r in records:
        r.append(r[3] - r[2] - union_length(kids.get(r[0], ()), r[2], r[3]))
    covered = union_length(kids[None], proc.t0, proc.t0 + proc.wall)
    return records, proc.wall - covered


def layer_metrics(records: list, unspanned: float, wall: float, overhead: float) -> dict:
    by = defaultdict(list)
    for r in records:
        by[r[1]].append(r)

    def count(name):
        return len(by[name])

    def total(*names):
        return sum((r[3] - r[2] for n in names for r in by[n]), 0.0)

    def self_time(*names):
        return sum((r[8] for n in names for r in by[n]), 0.0)

    def value_sum(name, index=None):
        return sum(r[7] if index is None else r[7][index] for r in by[name])

    def median_us(rows):
        return statistics.median(r[3] - r[2] for r in rows) * 1e6 if rows else 0.0

    evaluate = by["losses.evaluate"]
    candidates = value_sum("flow.screen", 0)
    sweeps = count("fitting.frame")
    fit_wall = sum(r[3] - r[2] for r in by["cli.main"] if any(c[4] == r[0] for c in by["cli.clip"]))
    return {
        "observations.frame_loads": count("observations.load"),
        "observations.load_s": total("observations.load"),
        "images.read_ppm_calls": count("images.read_ppm"),
        "images.read_ppm_s": total("images.read_ppm"),
        "images.read_mb": value_sum("images.read_ppm") / 1e6,
        "flow.read_calls": count("flow.read"),
        "flow.read_s": total("flow.read"),
        "flow.read_mb": value_sum("flow.read") / 1e6,
        "flow.screen_calls": count("flow.screen"),
        "flow.screen_s": total("flow.screen"),
        "flow.survivor_ratio": value_sum("flow.screen", 1) / candidates if candidates else 0.0,
        "losses.evaluate_calls": len(evaluate),
        "losses.evaluate_full_us": median_us([r for r in evaluate if r[7]]),
        "losses.evaluate_landmark_us": median_us([r for r in evaluate if not r[7]]),
        "images.bilinear_calls": count("images.bilinear"),
        "images.bilinear_s": total("images.bilinear"),
        "fitting.iters_per_frame": len(evaluate) / sweeps if sweeps else 0.0,
        "fitting.fit_clip_s": total("fitting.fit_clip"),
        "fitting.self_s": self_time("fitting.fit_clip", "fitting.frame"),
        "adam.steps": count("adam.step"),
        "adam.step_s": total("adam.step"),
        "guidance.sets_s": total("guidance.sets"),
        "procedural.generate_s": total("procedural.generate"),
        "cli.clip_s": total("cli.clip"),
        "cli.clips_overlap": total("cli.clip") / fit_wall if fit_wall else 0.0,
        "cli.self_s": self_time("cli.main", "cli.clip"),
        "rig.load_s": total("rig.load"),
        "rig.bake_s": total("rig.bake"),
        "mesh.write_obj_calls": count("mesh.write_obj"),
        "mesh.write_obj_s": total("mesh.write_obj"),
        "bones.blend_s": total("bones.blend"),
        "curves.resample_s": total("curves.resample"),
        "evaluation.metric_s": total("evaluation.metric"),
        "atomicio.writes": count("atomicio.write"),
        "atomicio.write_mb": value_sum("atomicio.write") / 1e6,
        "process.start_s": total("process.start"),
        "process.import_s": total("process.import"),
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(r[8] for r in records),
        "trace.unspanned_s": unspanned,
        "trace.overhead_s": overhead,
    }


def setup_metrics(records: list) -> dict:
    by = defaultdict(float)
    for r in records:
        by[r[1]] += r[3] - r[2]
    return {
        "synthetic.build_s": by["synthetic.build"],
        "synthetic.write_s": by["synthetic.write"],
        "synthetic.write_mb": sum(r[7] for r in records if r[1] == "synthetic.write") / 1e6,
    }


def self_table(records: list) -> list[str]:
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for r in records:
        row = rows[r[1]]
        row[0] += 1
        row[1] += r[3] - r[2]
        row[2] += r[8]
    lines = [f"  {'span':22} {'count':>8} {'total_s':>9} {'self_s':>9}"]
    for name, (n, tot, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {name:22} {n:8d} {tot:9.4f} {own:9.4f}")
    return lines


# ---------------------------------------------------------------- running


def timing(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median of n={n}"
    if n >= 20:
        pct = max(p for p in range(50, 100) if n * (100 - p) / 100 >= 10)
        text += f", p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    else:
        text += " (n<20: no percentile above the median has 10 samples beyond it)"
    return text


class Bench:
    def __init__(self, runner: Runner, spec: dict, sizes: dict, seconds: float):
        self.runner = runner
        self.spec = spec
        self.sizes = sizes
        self.seconds = seconds
        self.calibrations: list[float] = []

    def _scaled(self, step):
        """``step()`` and the factor that turns its times into reference
        seconds, from the calibrations just before and just after it."""
        if not self.calibrations:
            self.calibrations.append(calibrate())
        before = self.calibrations[-1]
        result = step()
        self.calibrations.append(calibrate())
        return result, self.spec["calibration_ref_s"] * 2 / (before + self.calibrations[-1])

    def _setup(self, workload, seed: int, out: str, trace: bool) -> list[Proc]:
        if os.path.exists(out):
            shutil.rmtree(out)
        need = workload.disk_bytes() * FREE_SPACE_MARGIN
        free = shutil.disk_usage(self.runner.tmp).free
        if free < need:
            raise RuntimeError(f"{workload.name} needs {need / 1e6:.0f} MB free, {free / 1e6:.0f} MB left")
        procs = [self.runner.run(kind, args, trace) for kind, args in workload.setup(seed, out)]
        if any(p.code for p in procs):
            raise RuntimeError(f"{workload.name} set-up failed")
        return procs

    def _round(self, workload, inputs: str, index: int, trace: bool):
        out = os.path.join(self.runner.tmp, f"out{index}")
        os.makedirs(out)
        procs = []
        for args in workload.rounds(inputs, out):
            procs.append(self.runner.run("cli", args, trace))
            if procs[-1].code:
                raise Incorrect(f"exit {procs[-1].code} from {args[0]}")
        result = workload.check(inputs, out)
        shutil.rmtree(out)
        return procs, result

    def run(self, name: str, seed: int, trace: bool) -> dict:
        workload = WORKLOADS[name](self.sizes[name])
        inputs = os.path.join(self.runner.tmp, "inputs")
        self.runner.deadline = perf_counter() + RUN_LIMIT_S
        self.calibrations = []
        report = []
        if trace:
            setup_procs = self._setup(workload, seed, inputs, True)
            setup_records = []
            for p in setup_procs:
                setup_records += load_spans(p)[0]
            setups = []
        else:
            setups = []  # (raw seconds, scale)
            begin = perf_counter()
            while len(setups) < SETUPS[0] or (len(setups) < SETUPS[1] and perf_counter() - begin < SETUP_SECONDS):
                procs, scale = self._scaled(lambda: self._setup(workload, seed, inputs, False))
                setups.append((sum(p.wall for p in procs), scale))

        attempted = failed = 0
        digests = set()
        untraced, traced, errors = [], [], []
        start = perf_counter()
        longest = 0.0
        # a traced run alternates untraced and traced rounds, at least one
        # each; no round starts that the longest so far says would end late
        while attempted < 1 + trace or perf_counter() - start + longest < self.seconds:
            use_trace = trace and attempted % 2 == 1
            attempted += 1
            began = perf_counter()
            try:
                (procs, (digest, frames, frame_errors)), scale = self._scaled(
                    lambda: self._round(workload, inputs, attempted, use_trace))
            except Incorrect as exc:
                failed += 1
                print(f"round {attempted}: {exc}", file=sys.stderr)
                continue
            finally:
                longest = max(longest, perf_counter() - began)
            digests.add(digest)
            errors = frame_errors
            (traced if use_trace else untraced).append((procs, frames, scale))
        problems = []
        if len(digests) > 1:
            problems.append(f"outputs differ between rounds: {len(digests)} distinct digests")
        if not untraced or (trace and not traced):
            raise RuntimeError(f"{name}: no round completed")

        walls = [sum(p.wall for p in procs) for procs, _, _ in untraced]
        if not trace:
            scaled_setups = [s * k for s, k in setups]
            scaled_walls = [w * k for w, (_, _, k) in zip(walls, untraced)]
            metrics = {
                "setup_s": statistics.median(scaled_setups),
                "wall_s": statistics.median(scaled_walls),
                "frames_per_s": statistics.median(f / w for w, (_, f, _) in zip(scaled_walls, untraced)),
                "cpu_s": statistics.median(sum(p.cpu for p in procs) * k for procs, _, k in untraced),
                "peak_rss_mb": statistics.median(max(p.rss_mb for p in procs) for procs, _, _ in untraced),
                "ok_ratio": (attempted - failed) / attempted,
            }
            report.append(f"setup_s: {timing(scaled_setups)}; wall_s: {timing(scaled_walls)}")
            report.append(
                f"before scaling: setup_s median {statistics.median(s for s, _ in setups):.4f} s,"
                f" wall_s median {statistics.median(walls):.4f} s; calibration median"
                f" {statistics.median(self.calibrations):.4f} s of n={len(self.calibrations)}"
                f" (reference {self.spec['calibration_ref_s']} s)"
            )
        else:
            metrics = self._layers(name, traced, walls, setup_records, errors, report, problems)
        report += problems
        return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
                "metrics": metrics, "report": report}

    def _layers(self, name, traced, walls, setup_records, errors, report, problems) -> dict:
        traced_walls = [sum(p.wall for p in procs) for procs, _, _ in traced]
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        per_round = []
        seen = {r[1] for r in setup_records}
        for procs, _, _ in traced:
            records, unspanned = [], 0.0
            for p in procs:
                spans, gap = load_spans(p)
                records += spans
                unspanned += gap
            seen |= {r[1] for r in records}
            per_round.append(layer_metrics(records, unspanned, sum(p.wall for p in procs), overhead))
        # low median: an observed value, so exact counts stay integers
        metrics = {key: statistics.median_low(m[key] for m in per_round) for key in per_round[0]}
        metrics.update(setup_metrics(setup_records))
        metrics["mae_worst"] = max(errors) if errors else 0.0
        metrics["mae_mean"] = statistics.fmean(errors) if errors else 0.0
        metrics["host.calibration_s"] = statistics.median(self.calibrations)
        expected = set(self.spec["workloads"][name]["spans"])
        if seen != expected:
            problems.append(f"span set differs: missing {sorted(expected - seen)}, unexpected {sorted(seen - expected)}")
        report += ["self time by span, last traced round:"] + self_table(records)
        report.append(
            f"medians: traced wall {metrics['trace.wall_s']:.4f} s = self {metrics['trace.self_sum_s']:.4f} s"
            f" + unspanned {metrics['trace.unspanned_s']:.4f} s; untraced wall"
            f" {statistics.median(walls):.4f} s; overhead {overhead:.4f} s"
        )
        return metrics


def machine() -> str:
    """Machine and versions; the reference machine's CPU model is in spec.json."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return f"nproc={os.cpu_count()} {platform.machine()} python={platform.python_version()} numpy={numpy}"


def emit(result: dict, units: dict, name: str) -> dict:
    """Attach units from BENCHMARK.json; names must match exactly."""
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(
            f"{name}: metrics not in BENCHMARK.json {sorted(set(metrics) - set(units))},"
            f" missing {sorted(set(units) - set(metrics))}"
        )
    for line in result["report"]:
        print(line)
    for key in units:
        print(f"{name} {key} = {metrics[key]!r} {units[key]}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every workload, both modes")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "visemefit", "cli.py")):
        print(f"no visemefit sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench_json = json.load(fh)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {
        False: {m["name"]: m["unit"] for m in bench_json["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench_json["per_layer"]},
    }
    if set(spec["targets"]) != set(units[True]):
        print("spec.json targets and BENCHMARK.json per_layer name different metrics", file=sys.stderr)
        return 2
    seed = spec["seeds"]["default"] if args.seed is None else args.seed
    seconds = bench_json["run_seconds"] if args.seconds is None else args.seconds
    names = sorted(WORKLOADS) if args.workload == "all" or args.smoke else [args.workload]
    modes = [False, True] if args.trace is None or args.smoke else [bool(args.trace)]
    sizes = {name: w["smoke_size" if args.smoke else "size"] for name, w in spec["workloads"].items()}
    if args.smoke:
        seconds = min(seconds, 1.0)

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = os.path.join(tmp_root, str(os.getpid()))
    os.makedirs(tmp)
    runner = Runner(tmp)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    status = 0
    print(f"machine: {machine()}; seed {seed}; {seconds:g} s per run; page cache warm (not dropped)")
    try:
        bench = Bench(runner, spec, sizes, seconds)
        for name in names:
            for trace in modes:
                line = emit(bench.run(name, seed, trace), units[trace], name)
                if not line["correct"] and args.trace is None:
                    status = 1  # with --trace the JSON line carries the verdict
                print(json.dumps(line), flush=True)
    except (RuntimeError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        status = 2
    finally:
        runner.stop()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    return status


if __name__ == "__main__":
    sys.exit(main())
