#!/usr/bin/env python3
"""Time the north-star number: ``synth`` plus ``fit`` on the seed-7,
100-frame scene.

    python3 tools/north_star.py [--tmp DIR] [--rounds N]

Run it from the root of a source checkout (it runs the CLI from that
checkout's ``src``). Each round writes the scene with ``synth --seed 7
--frames 100`` and fits it with ``fit --config``, each in a fresh
``python -m visemefit.cli`` process, with the argv of ``clip_full`` in
``perfbench/run.py``. It then checks the fitted curve against ``gt.csv``
(per-frame MAE, as the benchmark does) and deletes the scene. The scene
goes to a temporary directory, under ``--tmp`` when given, and needs about
2.2 GB; with less free space there the tool exits 2 before it writes
anything.

Per round it reports each command's wall time and peak RSS (``os.wait4``),
the worst and mean per-frame MAE, and the host calibration of
``perfbench/run.py`` (``calibrate``) just before and just after the round.
A round's scaled times are its raw times times ``calibration_ref_s`` (in
``perfbench/spec.json``) over the mean of those two calibrations, so they
compare with the benchmark's reference seconds. The output is one JSON
object with every round and the raw and scaled medians. Only the standard
library is imported here, so a child's peak RSS does not start from numpy's.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
# matrices have at most 64 rows: keep BLAS from starting thread pools, as the benchmark does
ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
       **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")}
SEED = 7
FRAMES = 100
NEED_BYTES = 2_200_000_000  # 100 frames of one 3.1 MB PPM and one 16.8 MB FLO, and the fit
TIMES = ("synth_s", "fit_s", "total_s")


def load_bench():
    """perfbench/run.py as a module: its calibration, workloads and MAE check."""
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(PERFBENCH, "run.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def timed(argv: list) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one CLI command in a fresh process;
    a non-zero exit ends the tool."""
    begin = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "visemefit.cli", *map(str, argv)], env=ENV, cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - begin
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
    return wall, usage.ru_maxrss / 1024.0


def run_round(bench, work: str, frames: int = FRAMES) -> dict:
    """One calibrated synth + fit round on a scene written under work, which
    is removed afterwards."""
    workload = bench.WORKLOADS["clip_full"](frames)
    scene, out = os.path.join(work, "scene"), os.path.join(work, "fit")
    before = bench.calibrate()
    try:
        ((_, synth),) = workload.setup(SEED, scene)
        synth_s, synth_mb = timed(synth)
        (fit,) = workload.rounds(scene, out)
        fit_s, fit_mb = timed(fit)
        errors = bench.fit_errors(os.path.join(out, "curve.csv"), os.path.join(scene, "gt.csv"))
    finally:
        shutil.rmtree(scene, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
    return {
        "synth_s": synth_s,
        "fit_s": fit_s,
        "total_s": synth_s + fit_s,
        "synth_peak_rss_mb": synth_mb,
        "fit_peak_rss_mb": fit_mb,
        "mae_worst": max(errors),
        "mae_mean": sum(errors) / len(errors),
        "calibration_s": [before, bench.calibrate()],
    }


def summary(rounds: list, ref_s: float) -> dict:
    """Raw and calibration-scaled medians over the rounds."""
    scales = [2.0 * ref_s / sum(r["calibration_s"]) for r in rounds]
    return {
        "raw_median": {key: statistics.median(r[key] for r in rounds)
                       for key in (*TIMES, "synth_peak_rss_mb", "fit_peak_rss_mb")},
        "scaled_median": {key: statistics.median(r[key] * k for r, k in zip(rounds, scales)) for key in TIMES},
        # the fit is deterministic, so every round should read the same MAE
        "mae_worst": max(r["mae_worst"] for r in rounds),
        "mae_mean": max(r["mae_mean"] for r in rounds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tmp", help="parent of the temporary scene directory")
    parser.add_argument("--rounds", type=int, default=3, help="synth + fit rounds (default 3)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    free = shutil.disk_usage(args.tmp or tempfile.gettempdir()).free
    if free < NEED_BYTES:
        print(f"north_star needs {NEED_BYTES / 1e6:.0f} MB free, {free / 1e6:.0f} MB left", file=sys.stderr)
        return 2
    bench = load_bench()
    with open(os.path.join(PERFBENCH, "spec.json"), encoding="utf-8") as fh:
        ref_s = json.load(fh)["calibration_ref_s"]
    with tempfile.TemporaryDirectory(prefix="north_star_", dir=args.tmp) as work:
        try:
            rounds = [run_round(bench, work) for _ in range(args.rounds)]
        except bench.Incorrect as exc:
            print(f"north_star: {exc}", file=sys.stderr)
            return 1
    result = {"seed": SEED, "frames": FRAMES, "machine": bench.machine(), "calibration_ref_s": ref_s,
              **summary(rounds, ref_s), "rounds": rounds}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
