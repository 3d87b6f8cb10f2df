#!/usr/bin/env python3
"""Time the layers of one frame solve, in process, on a seeded synth scene.

    python3 tools/solve_timing.py [--tmp DIR]

Run it from the root of a source checkout (it imports ``src/visemefit``).
It writes a two-frame seed-7 ``synth`` scene to a temporary directory
(under ``--tmp`` when given, removed at exit) and builds frame 1's
objective as ``fit_clip`` does: landmarks, the PPM frame, flow targets
screened from frame 0's ground-truth projection, guidance sets and the
temporal term. It then times, interleaved over ROUNDS rounds, three
things:

- ``evaluate_full_us``: one ``FrameProblem.evaluate`` call on that problem;
- ``evaluate_landmark_us``: one call on the same frame without its image
  and flow, the path of a landmark-only clip;
- ``iteration_us``: one iteration of ``fitting._optimize_frame`` (evaluate,
  Adam step and loop) on the full problem.

Each round times CALLS calls (iterations) of each, and a line reports
the minimum per call over the rounds in microseconds, so a moment of
contention on a shared host does not count. These are the ROADMAP's "one
evaluate call, full and landmark-only" and "one Adam step" layer numbers.
Only the standard library, numpy and the program are imported.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import platform
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from visemefit import fitting  # noqa: E402
from visemefit.camera import project  # noqa: E402
from visemefit.flow import screen_flow  # noqa: E402
from visemefit.guidance import guidance_sets  # noqa: E402
from visemefit.losses import FrameProblem  # noqa: E402
from visemefit.observations import ObservationDir  # noqa: E402
from visemefit.rig import blend_vertices, load_rig_manifest  # noqa: E402
from visemefit.synthetic import build_scene, write_scene  # noqa: E402

SEED = 7
FRAME = 1  # the first frame with a flow pair
ROUNDS = 80
CALLS = 50  # calls, or iterations, of each measure per round


def frame_problems(scene, paths):
    """Frame 1's full and landmark-only problems, the fit's starting point
    for that frame as a packed (w, q, t) row, and the fit config."""
    rig = load_rig_manifest(paths["rig"])
    cfg = fitting.read_fit_config(paths["config"])
    obs_dir = ObservationDir(paths["obs"], scene.frame_count)
    obs = obs_dir[FRAME]
    weights = scene.gt_curve.weights
    prev_pose = scene.poses[FRAME - 1]
    prev_proj = project(blend_vertices(rig, weights[FRAME - 1]), prev_pose)
    flow_targets = screen_flow(*obs_dir.flow(FRAME), prev_proj, cfg.tau_flow)
    sets = guidance_sets(weights, FRAME, cfg.m, cfg.n, cfg.radius, cfg.eps_act)
    args = (rig, cfg.loss_weights, sets, cfg.intrinsics)
    full = FrameProblem(*args, obs, flow_targets=flow_targets, neighbor_weights=weights[FRAME - 1])
    landmark = FrameProblem(
        *args, dataclasses.replace(obs, image=None), neighbor_weights=weights[FRAME - 1]
    )
    p0 = np.concatenate([weights[FRAME], prev_pose.rotation, prev_pose.translation])
    return full, landmark, p0, cfg


def time_layers(full, landmark, p0, cfg) -> dict[str, float]:
    nv = len(p0) - 7
    w, q, t = p0[:nv], p0[nv : nv + 4], p0[nv + 4 :]
    solve_cfg = dataclasses.replace(cfg, iters=CALLS)

    def evaluate(problem):
        for _ in range(CALLS):
            problem.evaluate(w, q, t)

    measures = {
        "evaluate_full_us": lambda: evaluate(full),
        "evaluate_landmark_us": lambda: evaluate(landmark),
        "iteration_us": lambda: fitting._optimize_frame(full, p0, solve_cfg, FRAME),
    }
    best = dict.fromkeys(measures, float("inf"))
    for _ in range(ROUNDS):
        for name, run in measures.items():
            begin = perf_counter()
            run()
            best[name] = min(best[name], (perf_counter() - begin) / CALLS * 1e6)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tmp", help="parent of the temporary scene directory")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="solve_timing_", dir=args.tmp) as work:
        scene = build_scene(seed=SEED, n_frames=FRAME + 1)
        full, landmark, p0, cfg = frame_problems(scene, write_scene(scene, work))
        best = time_layers(full, landmark, p0, cfg)
    print(
        f"# seed {SEED}, frame {FRAME}, {ROUNDS} rounds x {CALLS} calls;"
        f" python {platform.python_version()}, numpy {np.__version__}"
    )
    for name, value in best.items():
        print(f"{name} {value:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
