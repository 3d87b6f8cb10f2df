"""Command-line pipeline driver.

Subcommands: gen-proc (alignment to procedural curve), fit (optimize a clip
or a directory of clips), bake (curve to OBJ sequence), bones (curve to
blended bone poses), resample (curve fps change), eval (metrics), synth
(seeded benchmark scene). Every output file is written atomically and no
data file embeds a timestamp, so identical invocations produce identical
bytes. Exit codes: 0 ok, 1 usage, 2 bad data or IO, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

from .atomicio import atomic_text, make_dirs, write_text
from .bones import read_bone_assets, serialize_blended_poses
from .curves import read_curve, resample_curve, write_curve
from .errors import DataError, NumericError, UsageError, file_access
from .evaluation import (
    keypoint_error,
    lip_distance_curves,
    serialize_metric,
    serialize_total_variation,
    total_variation,
)
from .fitting import FitConfig, fit_clip, read_fit_config, read_poses, write_poses
from .mesh import write_obj
from .observations import ObservationDir, is_observation_dir, landmarks_path, read_landmarks
from .procedural import generate_procedural, read_rules
from .rig import bake_mesh_sequence, load_rig_manifest
from .timeline import frame_count, read_alignment, read_viseme_map

log = logging.getLogger(__name__)


def _cmd_gen_proc(args) -> int:
    labels = None
    if args.rig:
        labels = load_rig_manifest(args.rig).viseme_labels
    vmap = read_viseme_map(args.map, labels)
    timeline = read_alignment(args.align)
    rules = read_rules(args.rules) if args.rules else None
    curve = generate_procedural(timeline, args.fps, vmap, rules)
    write_curve(curve, args.out)
    return curve.frame_count


def _fit_one(rig, align_path, obs_path, cfg, vmap, rules, fps, out_dir):
    if not is_observation_dir(obs_path):
        raise DataError(f"{obs_path} holds no observations (no landmarks.csv, frame or flow file)")
    timeline = read_alignment(align_path)
    observations = ObservationDir(obs_path, frame_count(timeline.duration, fps))
    result = fit_clip(rig, timeline, observations, cfg, vmap, rules=rules, fps=fps, clip=obs_path,
                      flows=observations.flow)
    make_dirs(out_dir)
    write_curve(result.curve, os.path.join(out_dir, "curve.csv"))
    write_poses(result.poses, os.path.join(out_dir, "poses.csv"))
    return result.curve.frame_count


def _cmd_fit(args) -> int:
    rig = load_rig_manifest(args.rig)
    vmap = read_viseme_map(args.map, rig.viseme_labels)
    cfg = read_fit_config(args.config) if args.config else FitConfig()
    rules = read_rules(args.rules) if args.rules else None

    if is_observation_dir(args.obs):
        if not args.align:
            raise UsageError("single-clip fit needs --align")
        jobs = [(args.align, args.obs, args.out)]
    else:
        # directory of clips: each subdirectory holds observations plus align.tsv
        with file_access("read observation directory", args.obs):
            names = os.listdir(args.obs)
        clips = sorted(name for name in names if os.path.isdir(os.path.join(args.obs, name)))
        if not clips:
            raise DataError(f"{args.obs} holds neither observations nor clip directories")
        jobs = [
            (
                os.path.join(args.obs, name, "align.tsv"),
                os.path.join(args.obs, name),
                os.path.join(args.out, name),
            )
            for name in clips
        ]

    # Every clip is fitted. The first failure decides the exit code; each
    # later one is a warning line, which names its clip like every fit error.
    total, first_failure = 0, None
    for align, clip_dir, out_dir in jobs:
        try:
            total += _fit_one(rig, align, clip_dir, cfg, vmap, rules, args.fps, out_dir)
        except (DataError, NumericError) as exc:
            if first_failure is None:
                first_failure = exc
            else:
                log.warning("%s", exc)
    if first_failure is not None:
        raise first_failure
    return total


def _cmd_bake(args) -> int:
    rig = load_rig_manifest(args.rig)
    curve = read_curve(args.curve)
    blocks = curve.blocks(rig.viseme_labels)
    make_dirs(args.out)
    # a block's meshes are written before the next block is blended, so
    # memory does not grow with the take
    for start, block in blocks:
        for j, mesh in enumerate(bake_mesh_sequence(rig, block), start):
            write_obj(mesh, os.path.join(args.out, f"{j:06d}.obj"))
    return curve.frame_count


def _cmd_bones(args) -> int:
    assets = read_bone_assets(args.bones)
    curve = read_curve(args.curve)
    with atomic_text(args.out) as out:
        serialize_blended_poses(assets, curve, out)
    return curve.frame_count


def _cmd_resample(args) -> int:
    curve = read_curve(args.curve)
    out = resample_curve(curve, args.fps)
    write_curve(out, args.out)
    return out.frame_count


def _cmd_eval(args) -> int:
    # the flags are checked before any file is read, and every output is
    # computed before --out is made, so a failing eval leaves no directory behind
    if args.metric != "tv" and not args.rig:
        raise UsageError(f"eval --metric {args.metric} needs --rig")
    if args.metric == "keypoint" and not (args.obs and args.poses):
        raise UsageError("eval --metric keypoint needs --obs and --poses")
    curve = read_curve(args.curve)
    if args.metric == "tv":
        outputs = {"total_variation.csv": serialize_total_variation(total_variation(curve))}
    elif args.metric == "lip":
        horiz, vert = lip_distance_curves(load_rig_manifest(args.rig), curve)
        outputs = {"lip_horizontal.csv": serialize_metric(horiz),
                   "lip_vertical.csv": serialize_metric(vert)}
    else:  # keypoint metric
        rig = load_rig_manifest(args.rig)
        observations = read_landmarks(landmarks_path(args.obs))
        poses = read_poses(args.poses)
        subset = rig.mouth_landmark_ids if args.mouth_only else None
        series = keypoint_error(rig, curve, poses, observations, subset=subset,
                                poses_source=args.poses)
        outputs = {"keypoint_error.csv": serialize_metric(series)}
    make_dirs(args.out)
    for name, text in outputs.items():
        write_text(os.path.join(args.out, name), text)
    return curve.frame_count


def _cmd_synth(args) -> int:
    from .synthetic import build_scene, write_scene

    scene = build_scene(
        seed=args.seed,
        n_frames=args.frames,
        fps=args.fps,
        landmark_noise=args.noise,
        ambiguous=args.ambiguous,
    )
    write_scene(scene, args.out)
    return scene.frame_count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visemefit",
        description="Viseme curve generation, fitting, baking, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-proc", help="procedural curve from a phoneme alignment")
    p.add_argument("--align", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--rig", help="rig manifest fixing the viseme label order")
    p.add_argument("--rules", help="envelope timing overrides")
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(func=_cmd_gen_proc)

    p = sub.add_parser("fit", help="fit weights and pose to observations")
    p.add_argument("--rig", required=True)
    p.add_argument("--align", help="alignment TSV (single-clip mode)")
    p.add_argument("--map", required=True)
    p.add_argument("--obs", required=True, help="observation dir, or dir of clip dirs")
    p.add_argument("--config", help="fit config file (defaults when omitted)")
    p.add_argument("--rules", help="envelope timing overrides for the guide curve")
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted but has no effect: clips are fitted one after another")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("bake", help="apply a curve to the rig, one OBJ per frame")
    p.add_argument("--rig", required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_bake)

    p = sub.add_parser("bones", help="blend bone-pose assets along a curve")
    p.add_argument("--bones", required=True, help="bone pose asset CSV")
    p.add_argument("--curve", required=True)
    p.add_argument("--out", required=True, help="blended pose CSV path")
    p.set_defaults(func=_cmd_bones)

    p = sub.add_parser("resample", help="resample a curve to a new frame rate")
    p.add_argument("--curve", required=True)
    p.add_argument("--fps", type=float, required=True)
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(func=_cmd_resample)

    p = sub.add_parser("eval", help="curve metrics")
    p.add_argument("--metric", choices=("keypoint", "lip", "tv"), required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--rig", help="needed for keypoint and lip metrics")
    p.add_argument("--obs", help="observation dir with landmarks (keypoint)")
    p.add_argument("--poses", help="poses CSV from fit (keypoint)")
    p.add_argument("--mouth-only", action="store_true",
                   help="restrict keypoint error to the rig's mouth landmark ids")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a seeded synthetic benchmark scene")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--noise", type=float, default=0.0, help="landmark noise sigma in px")
    p.add_argument("--ambiguous", action="store_true",
                   help="MBP/SSS shapes identical; landmarks only")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code == 0 else 1
    start = time.perf_counter()
    try:
        frames = args.func(args)
    except (UsageError, DataError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {UsageError: 1, DataError: 2, NumericError: 3}[type(exc)]
    ms = int(round((time.perf_counter() - start) * 1000.0))
    print(f"OK {args.command} frames={frames} ms={ms}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
