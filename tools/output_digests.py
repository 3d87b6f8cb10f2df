#!/usr/bin/env python3
"""Print one SHA-256 per output tree of a fixed set of CLI runs.

    python3 tools/output_digests.py

Run it from the root of a source checkout (it runs the CLI from that
checkout's ``src``) at two commits and diff the printed lines: equal lines
mean byte-identical outputs. The set-up and round argv of each run come from
the workload classes of ``perfbench/run.py``, so they are the benchmark's own:

- ``synth`` seeds 7 and 11 at 12 frames (``clip_full``'s set-up), and
  ``synth --seed 7 --ambiguous``;
- ``clip_full``'s ``fit`` of both 12-frame scenes, and ``eval --metric
  keypoint`` of each fit against its scene, with and without
  ``--mouth-only``;
- ``clips_batch`` at seed 7 and 12 frames: its inputs fitted in directory
  mode with ``--workers 2``;
- the stderr of each of those fits, with the scratch directory replaced by
  ``<work>``;
- ``assets`` at seed 7 and 15 s: ``gen-proc``, ``resample``, ``bake``,
  ``bones``, ``eval --metric lip`` and ``eval --metric tv``, one line per
  output of the chain (``proc.csv``, ``proc60.csv``, ``meshes/``,
  ``bone_track.csv``, ``metrics/``), so a change to one step shows which
  outputs it moved.

A tree's digest is the SHA-256 of its ``<file sha256>  <relative path>``
lines sorted by path, each ending in a newline, so the synth digests
compare with ``BENCH_synth.json``; a single output file's digest is the
SHA-256 of its bytes. Only the standard library is imported
here; the CLI runs in child processes through ``perfbench/child.py``.
Scratch trees go to a temporary directory removed at exit. The two 12-frame
scenes take about 240 MB while they exist; each is removed once it has been
fitted.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
CHILD = os.path.join(ROOT, "perfbench", "child.py")


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def tree_digest(path: str) -> str:
    files = {}
    for root, _, names in os.walk(path):
        for name in names:
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                files[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    lines = "".join(f"{files[rel]}  {rel}\n" for rel in sorted(files))
    return hashlib.sha256(lines.encode()).hexdigest()


def output_digests(out: str):
    """Yield (name, sha256) for each entry of directory out, sorted by name:
    a file's digest is the SHA-256 of its bytes, and a directory, whose name
    gets a trailing ``/``, has its tree_digest."""
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if os.path.isdir(path):
            yield f"{name}/", tree_digest(path)
        else:
            with open(path, "rb") as fh:
                yield name, hashlib.sha256(fh.read()).hexdigest()


def run(kind: str, args: list, work: str) -> str:
    """Run one child.py step (``cli`` or ``gen``), fail on a non-zero exit,
    and return its stderr with the scratch directory replaced by <work>."""
    argv = [sys.executable, CHILD, kind, *map(str, args)]
    proc = subprocess.run(argv, env=ENV, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stderr.replace(work, "<work>")


def run_workload(workload, seed: int, work: str, label: str) -> tuple[str, str, str]:
    """Run a workload's set-up and rounds; return its input and output
    directories and the joined stderr of its rounds."""
    d, out = os.path.join(work, label), os.path.join(work, f"{label}_out")
    for kind, args in workload.setup(seed, d):
        run(kind, args, work)
    os.makedirs(out)
    err = "".join(run("cli", argv, work) for argv in workload.rounds(d, out))
    return d, out, err


def digests(work: str):
    """Yield (name, sha256) for every fixture, in a fixed order."""
    workloads = load_workloads()
    for seed in (7, 11):
        scene, out, err = run_workload(workloads["clip_full"](12), seed, work, f"synth{seed}")
        yield f"synth --seed {seed} --frames 12", tree_digest(scene)
        yield f"fit seed {seed}", tree_digest(out)
        yield f"fit seed {seed} stderr", hashlib.sha256(err.encode()).hexdigest()
        for flags in ([], ["--mouth-only"]):
            metrics = os.path.join(work, f"keypoint{seed}{len(flags)}")
            run("cli", ["eval", "--metric", "keypoint", "--curve", f"{out}/curve.csv",
                        "--rig", f"{scene}/rig/rig.txt", "--obs", f"{scene}/obs",
                        "--poses", f"{out}/poses.csv", *flags, "--out", metrics], work)
            yield " ".join(["eval --metric keypoint", *flags, f"seed {seed}"]), tree_digest(metrics)
        shutil.rmtree(scene)

    scene = os.path.join(work, "ambiguous")
    run("cli", ["synth", "--seed", 7, "--ambiguous", "--out", scene], work)
    yield "synth --seed 7 --ambiguous", tree_digest(scene)

    _, out, err = run_workload(workloads["clips_batch"](12), 7, work, "clips_batch")
    yield "fit clips_batch", tree_digest(out)
    yield "fit clips_batch stderr", hashlib.sha256(err.encode()).hexdigest()

    _, out, _ = run_workload(workloads["assets"](15), 7, work, "assets")
    for name, digest in output_digests(out):
        yield f"assets {name}", digest


def main() -> int:
    work = tempfile.mkdtemp(prefix="output_digests_")
    try:
        for name, digest in digests(work):
            print(f"{digest}  {name}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
