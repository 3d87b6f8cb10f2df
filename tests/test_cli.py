import contextlib
import dataclasses
import logging
import os
import random
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import visemefit
from visemefit.atomicio import atomic_path
from visemefit.camera import project
from visemefit.cli import main
from visemefit.curves import Curve, parse_curve, read_curve, serialize_curve, write_curve
from visemefit.flow import write_flow_pair
from visemefit.fitting import parse_fit_config, serialize_fit_config
from visemefit import observations
from visemefit.observations import frame_flow_name, frame_image_name, read_landmarks
from visemefit.procedural import generate_procedural
from visemefit.mesh import serialize_obj
from visemefit.rig import blend_mesh, blend_vertices, load_rig_manifest
from visemefit.synthetic import build_scene, write_scene
from visemefit.timeline import read_alignment, read_viseme_map

BONES_CSV = """bone,pose_label,qx,qy,qz,qw,tx,ty,tz,sx,sy,sz
jaw,rest,0,0,0,1,0,0,0,1,1,1
jaw,MBP,0,0,0.2588,0.9659,0,-0.2,0,1,1,1
"""


POSES_CSV = """# focal=1200.0
# cx=512.0
# cy=512.0
frame,qx,qy,qz,qw,tx,ty,tz
0,0,0,0,1,0,0,2
"""

LANDMARKS_HEADER = "frame,landmark_id,x,y,beta\n"


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """Small landmark-only scene plus a fast fit config, built once via CLI."""
    root = tmp_path_factory.mktemp("cli_scene")
    out = root / "scene"
    assert main(["synth", "--seed", "3", "--ambiguous", "--out", str(out)]) == 0
    cfg = parse_fit_config((out / "config.txt").read_text(encoding="utf-8"))
    fast = dataclasses.replace(cfg, iters=30)
    (root / "fast.cfg").write_text(serialize_fit_config(fast), encoding="utf-8")
    return root


def _fit(scene_dir, out_name, extra=()):
    scene = scene_dir / "scene"
    return main(
        [
            "fit",
            "--rig", str(scene / "rig" / "rig.txt"),
            "--align", str(scene / "align.tsv"),
            "--map", str(scene / "map.txt"),
            "--obs", str(scene / "obs"),
            "--config", str(scene_dir / "fast.cfg"),
            "--out", str(scene_dir / out_name),
            *extra,
        ]
    )


def test_usage_errors_exit_1(scene_dir, capsys):
    assert main(["gen-proc", "--align", "x"]) == 1  # missing required args
    assert main(["no-such-command"]) == 1
    # single-clip fit without --align is a usage error
    scene = scene_dir / "scene"
    code = main(
        [
            "fit",
            "--rig", str(scene / "rig" / "rig.txt"),
            "--map", str(scene / "map.txt"),
            "--obs", str(scene / "obs"),
            "--out", str(scene_dir / "nope"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0():
    assert main(["--help"]) == 0
    assert main(["fit", "--help"]) == 0


def test_missing_data_exits_2(scene_dir, tmp_path, capsys):
    scene = scene_dir / "scene"
    code = main(
        [
            "gen-proc",
            "--align", str(tmp_path / "missing.tsv"),
            "--map", str(scene / "map.txt"),
            "--out", str(tmp_path / "c.csv"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_numeric_failure_exits_3(scene_dir, tmp_path, capsys):
    scene = scene_dir / "scene"
    curve = read_curve(scene / "gt.csv")
    # poses that put the whole mesh behind the camera
    lines = ["# focal=1200.0", "# cx=512.0", "# cy=512.0", "frame,qx,qy,qz,qw,tx,ty,tz"]
    for j in range(curve.frame_count):
        lines.append(f"{j},0.0,0.0,0.0,1.0,0.0,0.0,-5.0")
    poses_path = tmp_path / "behind.csv"
    poses_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(
        [
            "eval",
            "--metric", "keypoint",
            "--curve", str(scene / "gt.csv"),
            "--rig", str(scene / "rig" / "rig.txt"),
            "--obs", str(scene / "obs"),
            "--poses", str(poses_path),
            "--out", str(tmp_path / "metrics"),
        ]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_gen_proc_matches_api_output(scene_dir, tmp_path, capsys):
    scene = scene_dir / "scene"
    out = tmp_path / "proc.csv"
    code = main(
        [
            "gen-proc",
            "--align", str(scene / "align.tsv"),
            "--map", str(scene / "map.txt"),
            "--rig", str(scene / "rig" / "rig.txt"),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("OK gen-proc frames=")
    rig = load_rig_manifest(scene / "rig" / "rig.txt")
    vmap = read_viseme_map(scene / "map.txt", rig.viseme_labels)
    timeline = read_alignment(scene / "align.tsv")
    expect = serialize_curve(generate_procedural(timeline, 30.0, vmap))
    assert out.read_text(encoding="utf-8") == expect
    # no temp droppings from the atomic write
    assert [p for p in tmp_path.iterdir() if ".tmp" in p.name] == []


def test_fit_bake_eval_resample_bones_pipeline(scene_dir, tmp_path):
    scene = scene_dir / "scene"
    assert _fit(scene_dir, "fit_out") == 0
    curve_path = scene_dir / "fit_out" / "curve.csv"
    poses_path = scene_dir / "fit_out" / "poses.csv"
    assert curve_path.exists() and poses_path.exists()
    curve = read_curve(curve_path)
    assert curve.frame_count == 18  # 0.6 s at 30 fps
    assert curve.weights.min() >= 0.0 and curve.weights.max() <= 1.0

    bake_dir = tmp_path / "baked"
    assert main(["bake", "--rig", str(scene / "rig" / "rig.txt"),
                 "--curve", str(curve_path), "--out", str(bake_dir)]) == 0
    objs = sorted(bake_dir.iterdir())
    assert len(objs) == 18 and objs[0].name == "000000.obj"

    metrics = tmp_path / "metrics"
    assert main(["eval", "--metric", "tv", "--curve", str(curve_path),
                 "--out", str(metrics)]) == 0
    assert (metrics / "total_variation.csv").exists()

    assert main(["eval", "--metric", "lip", "--curve", str(curve_path),
                 "--rig", str(scene / "rig" / "rig.txt"), "--out", str(metrics)]) == 0
    assert (metrics / "lip_horizontal.csv").exists()
    assert (metrics / "lip_vertical.csv").exists()

    assert main(["eval", "--metric", "keypoint", "--curve", str(curve_path),
                 "--rig", str(scene / "rig" / "rig.txt"),
                 "--obs", str(scene / "obs"), "--poses", str(poses_path),
                 "--out", str(metrics)]) == 0
    text = (metrics / "keypoint_error.csv").read_text(encoding="utf-8")
    assert text.splitlines()[2] == "frame,value"

    assert main(["eval", "--metric", "keypoint", "--curve", str(curve_path),
                 "--rig", str(scene / "rig" / "rig.txt"),
                 "--obs", str(scene / "obs"), "--poses", str(poses_path),
                 "--mouth-only", "--out", str(tmp_path / "mouth")]) == 0

    assert main(["eval", "--metric", "keypoint", "--curve", str(curve_path),
                 "--rig", str(scene / "rig" / "rig.txt"),
                 "--out", str(metrics)]) == 1  # missing --obs/--poses

    resampled = tmp_path / "r60.csv"
    assert main(["resample", "--curve", str(curve_path), "--fps", "60",
                 "--out", str(resampled)]) == 0
    r = read_curve(resampled)
    assert r.fps == 60.0 and r.frame_count == 36

    bones_csv = tmp_path / "bones.csv"
    bones_csv.write_text(BONES_CSV, encoding="utf-8")
    blended = tmp_path / "blended.csv"
    assert main(["bones", "--bones", str(bones_csv), "--curve", str(curve_path),
                 "--out", str(blended)]) == 0
    lines = blended.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("frame,bone,") and len(lines) == 1 + 18


def test_fit_outputs_byte_identical_across_runs(scene_dir):
    assert _fit(scene_dir, "rerun_a") == 0
    assert _fit(scene_dir, "rerun_b") == 0
    for name in ("curve.csv", "poses.csv"):
        a = (scene_dir / "rerun_a" / name).read_bytes()
        b = (scene_dir / "rerun_b" / name).read_bytes()
        assert a == b, name


def _two_clips(scene_dir, tmp_path):
    """A directory of two clips, a and b, both holding the scene's landmarks."""
    scene = scene_dir / "scene"
    clips = tmp_path / "clips"
    for name in ("a", "b"):
        clip = clips / name
        clip.mkdir(parents=True)
        shutil.copy(scene / "obs" / "landmarks.csv", clip / "landmarks.csv")
        shutil.copy(scene / "align.tsv", clip / "align.tsv")
    return clips


def _fit_clips(scene_dir, clips, out, config=None, extra=()):
    scene = scene_dir / "scene"
    return main(
        [
            "fit",
            "--rig", str(scene / "rig" / "rig.txt"),
            "--map", str(scene / "map.txt"),
            "--obs", str(clips),
            "--config", str(config or scene_dir / "fast.cfg"),
            "--out", str(out),
            *extra,
        ]
    )


def _tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def clean_batch(scene_dir, tmp_path_factory):
    """The two-clip directory and its batch fit, run with no --workers."""
    root = tmp_path_factory.mktemp("clean_batch")
    clips = _two_clips(scene_dir, root)
    assert _fit_clips(scene_dir, clips, root / "out") == 0
    return clips, root / "out"


def test_fit_directory_of_clips(scene_dir, clean_batch, tmp_path):
    clips, out = clean_batch
    for name in ("a", "b"):
        assert (out / name / "curve.csv").exists()
        assert (out / name / "poses.csv").exists()
    # identical inputs give identical outputs regardless of clip name
    assert (out / "a" / "curve.csv").read_bytes() == (out / "b" / "curve.csv").read_bytes()
    # --workers is accepted and changes nothing
    threaded = tmp_path / "threaded"
    assert _fit_clips(scene_dir, clips, threaded, extra=("--workers", "2")) == 0
    assert _tree(threaded) == _tree(out)
    # a single-clip fit of one clip directory agrees with the batch result
    single = tmp_path / "single"
    align = str(clips / "a" / "align.tsv")
    assert _fit_clips(scene_dir, clips / "a", single, extra=("--align", align)) == 0
    for name in ("curve.csv", "poses.csv"):
        assert (single / name).read_bytes() == (out / "a" / name).read_bytes(), name


def _nan_landmark(clip):
    lm = clip / "landmarks.csv"
    lines = lm.read_text(encoding="utf-8").splitlines()
    row = lines[1].split(",")
    row[2] = "nan"  # the x column
    lines[1] = ",".join(row)
    lm.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return lm


def _no_align(clip):
    align = clip / "align.tsv"
    align.unlink()
    return align


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("breakage", [_nan_landmark, _no_align], ids=["nan-landmark", "no-align"])
def test_fit_failing_clip_does_not_stop_the_others(
    scene_dir, clean_batch, tmp_path, capsys, breakage, workers
):
    clips = _two_clips(scene_dir, tmp_path)
    broken = breakage(clips / "a")
    out = tmp_path / "out"
    capsys.readouterr()
    code = _fit_clips(scene_dir, clips, out, extra=("--workers", workers))
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 2, err
    assert len(errors) == 1, err
    assert str(broken) in errors[0], err
    assert errors[0].count(str(broken)) == 1, err
    assert "Traceback" not in err
    assert not (out / "a").exists()
    for name in ("curve.csv", "poses.csv"):
        assert (out / "b" / name).read_bytes() == (clean_batch[1] / "b" / name).read_bytes(), name


def test_fit_warnings_name_clip_and_frame(scene_dir, tmp_path, caplog):
    clips = _two_clips(scene_dir, tmp_path)
    # clip b has flow for its first pair, so its first missing pair ends at frame 2
    write_flow_pair(np.zeros((8, 8, 2)), np.zeros((8, 8, 2)), clips / "b" / frame_flow_name(1))
    with caplog.at_level(logging.WARNING, logger="visemefit.fitting"):
        assert _fit_clips(scene_dir, clips, tmp_path / "out") == 0
    pairs = len(read_landmarks(clips / "a" / "landmarks.csv")) - 1
    assert sorted(r.getMessage() for r in caplog.records) == [
        f"{clips / 'a'}: flow missing for {pairs} of {pairs} frame pairs, first at frame 1;"
        " flow term skipped there",
        f"{clips / 'b'}: flow missing for {pairs - 1} of {pairs} frame pairs, first at frame 2;"
        " flow term skipped there",
    ]


def test_fit_warns_once_about_frames_with_no_data(scene_dir, clean_batch, tmp_path, caplog):
    """Clip a loses the landmark rows of frames 10-14 and has no frames or
    flow, so nothing observes those frames: one warning names the clip, the
    count and the first of them. Clip b is untouched and fits as before."""
    clips = _two_clips(scene_dir, tmp_path)
    lm = clips / "a" / "landmarks.csv"
    rows = lm.read_text(encoding="utf-8").splitlines(keepends=True)
    lm.write_text(
        "".join(r for r in rows if r.split(",")[0] not in {"10", "11", "12", "13", "14"}),
        encoding="utf-8",
    )
    with caplog.at_level(logging.WARNING, logger="visemefit.fitting"):
        assert _fit_clips(scene_dir, clips, tmp_path / "out") == 0
    frames = len(read_landmarks(clips / "b" / "landmarks.csv"))
    pairs = frames - 1
    assert sorted(r.getMessage() for r in caplog.records) == [
        f"{clips / 'a'}: flow missing for {pairs} of {pairs} frame pairs, first at frame 1;"
        " flow term skipped there",
        f"{clips / 'a'}: no landmark, image or flow data on 5 of {frames} frames,"
        " first at frame 10; only the guidance and temporal terms fit them",
        f"{clips / 'b'}: flow missing for {pairs} of {pairs} frame pairs, first at frame 1;"
        " flow term skipped there",
    ]
    for name in ("curve.csv", "poses.csv"):
        assert (tmp_path / "out" / "b" / name).read_bytes() == (
            clean_batch[1] / "b" / name
        ).read_bytes(), name


def test_fit_warns_when_the_guide_is_shorter_than_the_clip(scene_dir, caplog):
    """At 1e-300 fps the alignment is one guide frame: fit still fits every
    observed frame, and one warning names the clip, both frame counts and
    the rate."""
    obs = scene_dir / "scene" / "obs"
    frames = len(read_landmarks(obs / "landmarks.csv"))
    with caplog.at_level(logging.WARNING, logger="visemefit.fitting"):
        assert _fit(scene_dir, "fit_tiny_fps", ["--fps", "1e-300"]) == 0
    guide = [r.getMessage() for r in caplog.records if "guide" in r.getMessage()]
    assert guide == [f"{obs}: guide curve has 1 frames at 1e-300 fps, clip has {frames};"
                     " the rest get a zero guide"]
    assert read_curve(scene_dir / "fit_tiny_fps" / "curve.csv").frame_count == frames


@pytest.mark.parametrize("workers", ["1", "2"])
def test_fit_numeric_error_names_clip_and_frame(scene_dir, tmp_path, workers):
    clips = _two_clips(scene_dir, tmp_path)
    # frame 0 starts at its exact solution (its landmarks are projections of
    # the starting pose), so its gradient is zero; a learning rate this large
    # throws the head behind the camera on frame 1, the first with a gradient
    cfg = parse_fit_config((scene_dir / "fast.cfg").read_text(encoding="utf-8"))
    (tmp_path / "wild.cfg").write_text(
        serialize_fit_config(dataclasses.replace(cfg, lr0=50.0)), encoding="utf-8"
    )
    # in a child process, so stderr carries the log lines as a user sees them
    scene = scene_dir / "scene"
    proc = subprocess.run(
        [
            sys.executable, "-m", "visemefit.cli", "fit",
            "--rig", str(scene / "rig" / "rig.txt"),
            "--map", str(scene / "map.txt"),
            "--obs", str(clips),
            "--config", str(tmp_path / "wild.cfg"),
            "--out", str(tmp_path / "out"),
            "--workers", workers,
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(visemefit.__file__).parents[1])},
    )
    code, err = proc.returncode, proc.stderr
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 3, err
    assert len(errors) == 1, err
    assert errors[0].startswith(f"error: {clips / 'a'}: frame 1: "), err
    assert "Traceback" not in err
    # b is still fitted, and its own failure is one warning line
    later = [line for line in err.splitlines() if line.startswith(f"{clips / 'b'}: frame 1: ")]
    assert len(later) == 1, err


def test_fit_empty_clip_directory_exits_2(scene_dir, tmp_path, capsys):
    scene = scene_dir / "scene"
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(
        [
            "fit",
            "--rig", str(scene / "rig" / "rig.txt"),
            "--map", str(scene / "map.txt"),
            "--obs", str(empty),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("align", [False, True], ids=["no-align", "align"])
def test_fit_directory_with_a_stray_frame_file_fits_every_clip(
    scene_dir, clean_batch, tmp_path, align
):
    """A preview.ppm or a 7.ppm (not the six-digit name a frame is loaded
    from) beside the clip directories does not make the directory one clip:
    both clips are fitted in directory mode, with or without --align."""
    clips = _two_clips(scene_dir, tmp_path)
    for name in ("preview.ppm", "7.ppm", "0000007.flo"):
        (clips / name).write_bytes(b"P6\n1 1\n255\n\0\0\0")
    extra = ("--align", str(clips / "a" / "align.tsv")) if align else ()
    assert _fit_clips(scene_dir, clips, tmp_path / "out", extra=extra) == 0
    assert _tree(tmp_path / "out") == _tree(clean_batch[1])


def test_fit_directory_subdirectory_without_observations_fails_as_its_clip(
    scene_dir, clean_batch, tmp_path, capsys
):
    """A subdirectory with an align.tsv but no landmarks, frame or flow file
    is not a clip: it fails with one line naming it, and the real clips are
    still fitted and written."""
    clips = _two_clips(scene_dir, tmp_path)
    notes = clips / "notes"
    notes.mkdir()
    shutil.copy(clips / "a" / "align.tsv", notes / "align.tsv")
    out = tmp_path / "out"
    capsys.readouterr()
    assert _fit_clips(scene_dir, clips, out) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {notes} holds no observations (no landmarks.csv, frame or flow file)"
    ]
    assert _tree(out) == _tree(clean_batch[1])


def test_fit_directory_of_non_frame_files_exits_2(scene_dir, tmp_path, capsys):
    """Frame files are digit-named: a directory holding only other .ppm and
    .flo names is neither a clip nor a directory of clips."""
    obs = tmp_path / "obs"
    obs.mkdir()
    for name in ("preview.ppm", "frame_a.flo", "\u00b2.ppm"):
        (obs / name).write_bytes(b"")
    scene = scene_dir / "scene"
    capsys.readouterr()
    code = main(["fit", "--rig", str(scene / "rig" / "rig.txt"), "--map", str(scene / "map.txt"),
                 "--align", str(scene / "align.tsv"), "--obs", str(obs),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {obs} holds neither observations nor clip directories"
    ]


def test_atomic_write_cleans_up_on_failure(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with atomic_path(target) as tmp:
            Path(tmp).write_text("partial", encoding="utf-8")
            raise RuntimeError("boom")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


# (command, --out path, the path the error names): file outputs into a
# missing or non-directory parent, and output directories under a file
WRITE_FAILURES = [
    *(pytest.param(command, out, out, id=f"{kind}-{command}")
      for kind, out in (("no-dir", "missing/x.csv"), ("not-a-dir", "gt.csv/x.csv"))
      for command in ("bones", "gen-proc", "resample")),
    *(pytest.param(command, "gt.csv/x", "gt.csv/x", id=f"not-a-dir-{command}")
      for command in ("bake", "eval", "fit")),
    # synth makes its obs directory first
    pytest.param("synth", "gt.csv/x", "gt.csv/x/obs", id="not-a-dir-synth"),
]


@pytest.mark.parametrize("command, missing, named", WRITE_FAILURES)
def test_write_into_a_missing_directory_names_the_file(scene_dir, tmp_path, capsys,
                                                       command, missing, named):
    """A failed write, of a file or of an output directory, exits 2 with one
    line naming the path asked for, not a temporary sibling, and leaves
    nothing behind. Every input is valid, so eval computes its metric and
    reaches the write."""
    s = _scene_with_poses(scene_dir, tmp_path)
    argv = _probe_argv(command, s, "30")
    argv[argv.index("--out") + 1] = str(s / missing)
    before = sorted(s.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 2
    reason = "No such file or directory" if missing.startswith("missing") else "Not a directory"
    assert capsys.readouterr().err.splitlines() == [f"error: cannot write {s / named}: {reason}"]
    assert sorted(s.rglob("*")) == before


def _probe_argv(command, s, fps):
    rig, curve = s / "rig" / "rig.txt", s / "gt.csv"
    argv = {
        "gen-proc": ["gen-proc", "--align", s / "align.tsv", "--map", s / "map.txt",
                     "--rig", rig, "--rules", s / "rules.txt", "--fps", fps,
                     "--out", s / "proc.csv"],
        "fit": ["fit", "--rig", rig, "--align", s / "align.tsv", "--map", s / "map.txt",
                "--obs", s / "obs", "--config", s / "config.txt", "--fps", fps,
                "--out", s / "fit"],
        "bake": ["bake", "--rig", rig, "--curve", curve, "--out", s / "baked"],
        "bones": ["bones", "--bones", s / "bones.csv", "--curve", curve,
                  "--out", s / "blended.csv"],
        "resample": ["resample", "--curve", curve, "--fps", fps, "--out", s / "r.csv"],
        "eval": ["eval", "--metric", "keypoint", "--curve", curve, "--rig", rig,
                 "--obs", s / "obs", "--poses", s / "poses.csv", "--out", s / "metrics"],
        "eval-lip": ["eval", "--metric", "lip", "--curve", curve, "--rig", rig,
                     "--out", s / "metrics"],
        "eval-tv": ["eval", "--metric", "tv", "--curve", curve, "--out", s / "metrics"],
        "synth": ["synth", "--seed", "1", "--frames", "3", "--ambiguous", "--fps", fps,
                  "--out", s / "synth"],
    }[command]
    return [str(a) for a in argv]


# (command, file written into a copy of the scene, its content, text the error
# must name). The error names the file written, or the second path of a
# (written, named) pair. One non-finite field and one malformed line per text
# format.
BAD_INPUTS = [
    pytest.param("fit", "config.txt", "lr0=nan\n", "lr0", id="config-lr0-nan"),
    pytest.param("fit", "config.txt", "w1=nan\n", "w1", id="config-w1-nan"),
    pytest.param("fit", "config.txt", "focal=inf\n", "focal", id="config-focal-inf"),
    pytest.param("fit", "config.txt", "cx=nan\n", "cx", id="config-cx-nan"),
    pytest.param("fit", "config.txt", "w1=1e308\n", "w1", id="config-w1-huge"),
    pytest.param("fit", "config.txt", "w1 0.5\n", "key=value", id="config-no-equals"),
    pytest.param("fit", "config.txt", "focal=-1\n", "focal", id="config-focal-negative"),
    pytest.param("fit", "config.txt", "iters=250\niters=80\n", ":2: duplicate config key 'iters'",
                 id="config-duplicate-key"),
    pytest.param("gen-proc", "rules.txt", "min_onset_ms=inf\n", "min_onset_ms",
                 id="rules-min-onset-inf"),
    pytest.param("gen-proc", "rules.txt", "onset_frac\n", "key=value", id="rules-no-equals"),
    pytest.param("gen-proc", "rules.txt", "onset_frac=0.9\n", "onset_frac",
                 id="rules-onset-out-of-range"),
    pytest.param("gen-proc", "rules.txt", "onset_frac=0.3\nonset_frac=0.2\n",
                 ":2: duplicate rules key 'onset_frac'", id="rules-duplicate-key"),
    pytest.param("bake", "rig/rig.txt", "neutral=neutral.obj\nL0=inf\n", "L0",
                 id="manifest-binding-inf"),
    pytest.param("bake", "rig/rig.txt", "neutral=neutral.obj\njusttext\n", "key=value",
                 id="manifest-no-equals"),
    pytest.param("bake", "rig/rig.txt", "neutral=neutral.obj\nL0=1\nL0=2\n",
                 ":3: duplicate binding for landmark 0", id="manifest-duplicate-binding"),
    pytest.param("bake", "rig/rig.txt", "neutral=neutral.obj\nneutral=neutral.obj\n",
                 ":2: duplicate manifest key 'neutral'", id="manifest-duplicate-neutral"),
    pytest.param("bake", "rig/rig.txt",
                 "neutral=neutral.obj\nviseme.MBP=MBP.obj\nviseme.MBP=MBP.obj\n",
                 ":3: duplicate manifest key 'viseme.MBP'", id="manifest-duplicate-viseme"),
    pytest.param("bake", "rig/rig.txt", "neutral=neutral.obj\nviseme.MBP=MBP.obj\nL0=999\n",
                 "landmark L0 bound to out-of-range vertex 999", id="manifest-binding-out-of-range"),
    pytest.param("bake", "rig/rig.txt",
                 "neutral=neutral.obj\nviseme.MBP=MBP.obj\nlip_horizontal=0,999\nlip_vertical=0,1\n",
                 "lip pair vertex 999 out of range", id="manifest-lip-pair-out-of-range"),
    # the manifest binds the label to the mesh, so the rig's check names it
    pytest.param("bake", ("rig/MBP.obj", "rig/rig.txt"), "v 0 0 0\n",
                 "viseme 'MBP' has 1 vertices, neutral has", id="obj-viseme-vertex-count"),
    pytest.param("bake", "rig/neutral.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99\n",
                 "triangle refers to a vertex index out of range", id="obj-face-out-of-range"),
    pytest.param("bake", "rig/neutral.obj", "v 0 0 nan\n", "z", id="obj-vertex-nan"),
    pytest.param("bake", "rig/neutral.obj", "v 0 0\n", "vertex", id="obj-short-vertex"),
    pytest.param("bake", "rig/neutral.obj", "# caf\u00e9\nv 0 0 0\n", "ascii",
                 id="obj-not-ascii"),
    pytest.param("gen-proc", "map.txt", "m=MBP\n=SSS\n", "empty phoneme", id="map-empty-token"),
    pytest.param("gen-proc", "map.txt", "m=MBP\njusttext\n", "key=value", id="map-no-equals"),
    pytest.param("gen-proc", "map.txt", "m=MBP\nm=SSS\n", ":2: duplicate map key 'm'",
                 id="map-duplicate-phoneme"),
    pytest.param("gen-proc", "map.txt", "m=MBP\nsilence=m\n", "token 'm' is both mapped and silence",
                 id="map-mapped-and-silence"),
    pytest.param("gen-proc", "align.tsv", "# duration=nan\nm\t0.0\t0.5\n", "duration",
                 id="alignment-duration-nan"),
    pytest.param("gen-proc", "align.tsv", "# duration=inf\nm\t0.0\t0.5\n", "duration",
                 id="alignment-duration-inf"),
    pytest.param("gen-proc", "align.tsv", "m\t0.0\tinf\n", "end", id="alignment-end-inf"),
    pytest.param("gen-proc", "align.tsv", "m\t0.0\n", "fields", id="alignment-short-row"),
    pytest.param("gen-proc", "align.tsv", "m\t-0.5\t0.5\n", ":1: segment 'm' starts before 0",
                 id="alignment-negative-start"),
    pytest.param("gen-proc", "align.tsv", "# duration=0.1\nm\t0.0\t0.5\n", "duration",
                 id="alignment-duration-too-short"),
    pytest.param("gen-proc", "align.tsv", "m\t0.0\t0.5\nm\t0.3\t0.8\n", "overlap",
                 id="alignment-overlap"),
    pytest.param("resample", "gt.csv", "# fps=inf\nframe,MBP\n0,0.5\n", "fps",
                 id="curve-fps-inf"),
    pytest.param("resample", "gt.csv", "# fps=-1\nframe,MBP\n0,0.5\n", ":1: fps must be positive",
                 id="curve-fps-negative"),
    pytest.param("bake", "gt.csv", "frame,MBP\n0,0.5\n# fps=0\n", ":3: fps must be positive",
                 id="curve-fps-zero"),
    pytest.param("resample", "gt.csv", "# fps=30\nframe,MBP\n0,nan\n", "MBP",
                 id="curve-weight-nan"),
    pytest.param("resample", "gt.csv", "# fps=30\nframe,MBP\n0,0.5,0.5\n", "columns",
                 id="curve-extra-column"),
    pytest.param("resample", "gt.csv", b"# fps=30\nframe,MBP\n0,\xff\n", "utf-8",
                 id="curve-not-utf8"),
    pytest.param("bake", "gt.csv", "# fps=30\nframe,MBP\n0,0.5\n2,0.5\n",
                 ":4: frame 2 out of order, expected 1", id="curve-skipped-frame"),
    pytest.param("bake", "gt.csv", "# fps=30\nframe,MBP,MBP\n0,0.5,0.5\n",
                 ":2: repeated viseme label 'MBP'", id="curve-repeated-label-bake"),
    pytest.param("bones", "gt.csv", "# fps=30\nframe,MBP,MBP\n0,0.5,0.5\n",
                 ":2: repeated viseme label 'MBP'", id="curve-repeated-label-bones"),
    pytest.param("resample", "gt.csv", "# fps=30\nframe,MBP,MBP\n0,0.5,0.5\n",
                 ":2: repeated viseme label 'MBP'", id="curve-repeated-label-resample"),
    pytest.param("eval-tv", "gt.csv", "# fps=30\nframe,MBP,MBP\n0,0.5,0.5\n",
                 ":2: repeated viseme label 'MBP'", id="curve-repeated-label-eval-tv"),
    pytest.param("eval", "poses.csv", POSES_CSV.replace("# cx=512.0", "# cx=nan"), "cx",
                 id="poses-cx-nan"),
    pytest.param("eval", "poses.csv", POSES_CSV.replace("# cy=512.0\n", ""), "# cy=",
                 id="poses-missing-cy"),
    pytest.param("eval", "poses.csv", POSES_CSV + "1,0,0\n", "columns", id="poses-short-row"),
    pytest.param("eval", "poses.csv", POSES_CSV + "2,0,0,0,1,0,0,2\n",
                 ":6: frame 2 out of order, expected 1", id="poses-skipped-frame"),
    pytest.param("eval", "poses.csv", POSES_CSV.replace("# focal=1200.0", "# focal=-1"),
                 ":1: focal length must be positive", id="poses-focal-negative"),
    pytest.param("eval", "poses.csv", POSES_CSV.replace("0,0,0,0,1,", "0,0,0,1e300,1,"),
                 ":5: quaternion norm", id="poses-quaternion-huge"),
    # the pose count is checked against the curve, so both files are named
    pytest.param("eval", ("poses.csv", "gt.csv"), POSES_CSV + "1,0,0,0,1,0,0,2\n",
                 "poses.csv: curve has 18 frames but only 2 poses", id="poses-fewer-than-frames"),
    pytest.param("eval-lip", "rig/rig.txt", "neutral=neutral.obj\nviseme.MBP=MBP.obj\n",
                 "rig manifest declares no lip pairs", id="manifest-no-lip-pairs"),
    pytest.param("fit", "obs/landmarks.csv", LANDMARKS_HEADER + "0,0,nan,1.0,1.0\n", "x",
                 id="landmarks-x-nan"),
    pytest.param("eval", "obs/landmarks.csv", LANDMARKS_HEADER + "0,0,1.0,1.0,inf\n", "beta",
                 id="landmarks-beta-inf"),
    pytest.param("eval", "obs/landmarks.csv", LANDMARKS_HEADER + "0,0,1.0\n", "columns",
                 id="landmarks-short-row"),
    pytest.param("fit", "obs/landmarks.csv", LANDMARKS_HEADER + "0,3,1.0,1.0,1.0\n" * 2,
                 ":3: duplicate row for frame 0, landmark_id 3", id="landmarks-duplicate-row"),
    pytest.param("bones", "bones.csv", BONES_CSV.replace("0,-0.2,0,1,1,1", "0,-0.2,0,1,1,inf"),
                 "sz", id="bones-scale-inf"),
    pytest.param("bones", "bones.csv", BONES_CSV + "jaw,SSS,0,0\n", "columns",
                 id="bones-short-row"),
    pytest.param("bones", "bones.csv", BONES_CSV.replace("0,0,0.2588,", "0,0,1e300,"),
                 ":3: quaternion norm", id="bones-quaternion-huge"),
]


def _probe_scene(scene_dir, tmp_path):
    """A copy of the scene with the side files every probe command reads."""
    s = tmp_path / "s"
    shutil.copytree(scene_dir / "scene", s)
    (s / "rules.txt").write_text("onset_frac=0.3\n", encoding="utf-8")
    (s / "bones.csv").write_text(BONES_CSV, encoding="utf-8")
    (s / "poses.csv").write_text(POSES_CSV, encoding="utf-8")
    return s


def _run_probe(scene_dir, tmp_path, capsys, command, fps="30", name=None, content=None):
    s = _probe_scene(scene_dir, tmp_path)
    if isinstance(content, bytes):
        (s / name).write_bytes(content)
    elif name is not None:
        (s / name).write_text(content, encoding="utf-8")
    capsys.readouterr()
    code = main(_probe_argv(command, s, fps))
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 2, err
    assert len(errors) == 1, err
    assert "Traceback" not in err
    return errors[0], s


@pytest.mark.parametrize("command, name, content, names", BAD_INPUTS)
def test_bad_text_input_exits_2_with_one_line(scene_dir, tmp_path, capsys,
                                              command, name, content, names):
    name, named = name if isinstance(name, tuple) else (name, name)
    error, s = _run_probe(scene_dir, tmp_path, capsys, command, name=name, content=content)
    assert str(s / named) in error
    assert names in error


def _scene_with_poses(scene_dir, tmp_path):
    """A copy of the scene with the probe's side files and a pose for every
    curve frame, so that eval --metric keypoint gets as far as the metric."""
    s = tmp_path / "s"
    shutil.copytree(scene_dir / "scene", s)
    (s / "rules.txt").write_text("onset_frac=0.3\napex.MBP=0.9\n", encoding="utf-8")
    (s / "bones.csv").write_text(BONES_CSV, encoding="utf-8")
    frames = read_curve(s / "gt.csv").frame_count
    rows = "".join(f"{j},0,0,0,1,0,0,2\n" for j in range(1, frames))
    (s / "poses.csv").write_text(POSES_CSV + rows, encoding="utf-8")
    return s


def _set_field(path, frame, col, value):
    """Replace column col of the first CSV row of frame in path."""
    lines = path.read_text(encoding="utf-8").splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith(f"{frame},"))
    cols = lines[k].split(",")
    cols[col] = value
    lines[k] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_keypoint_overflow_exits_2_naming_the_frame(scene_dir, tmp_path, capsys):
    """A finite but huge landmark x overflows the keypoint error. eval names
    the frame in one error line and numpy prints no warning."""
    s = _scene_with_poses(scene_dir, tmp_path)
    _set_field(s / "obs" / "landmarks.csv", 5, 2, "1e300")
    capsys.readouterr()
    assert main(_probe_argv("eval", s, "30")) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: frame 5: keypoint error overflows (landmark or pose out of range)"
    ]


def test_total_variation_overflow_exits_2_naming_the_viseme(scene_dir, tmp_path, capsys):
    """A finite but huge weight overflows the MBP total variation. eval names
    the viseme in one error line and numpy prints no warning."""
    s = _scene_with_poses(scene_dir, tmp_path)
    _set_field(s / "gt.csv", 3, 1, "1e308")
    capsys.readouterr()
    assert main(_probe_argv("eval-tv", s, "30")) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: viseme MBP: total variation overflows (weights out of range)"
    ]


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_reversed_curve_columns_bake_and_eval_like_rig_order(scene_dir, tmp_path):
    """Curve columns bind to the rig's visemes by label: a curve with its
    columns and labels reversed bakes the same OBJs and gives the same lip
    and keypoint metrics, byte for byte, as the rig-ordered curve."""
    s = _scene_with_poses(scene_dir, tmp_path)
    gt = read_curve(s / "gt.csv")
    write_curve(Curve(fps=gt.fps, labels=gt.labels[::-1], weights=gt.weights[:, ::-1]),
                s / "reversed.csv")
    rig = s / "rig" / "rig.txt"
    for name in ("gt", "reversed"):
        curve, out = s / f"{name}.csv", tmp_path / name
        for argv in (
            ["bake", "--rig", rig, "--curve", curve, "--out", out / "baked"],
            ["eval", "--metric", "lip", "--rig", rig, "--curve", curve, "--out", out / "metrics"],
            ["eval", "--metric", "keypoint", "--rig", rig, "--curve", curve,
             "--obs", s / "obs", "--poses", s / "poses.csv", "--out", out / "metrics"],
        ):
            assert main([str(a) for a in argv]) == 0, argv
    baked = _tree_bytes(tmp_path / "gt")
    assert len(baked) == gt.frame_count + 3
    assert _tree_bytes(tmp_path / "reversed") == baked


def test_gen_proc_without_rig_from_reversed_map_bakes_like_rig_order(scene_dir, tmp_path):
    """gen-proc without --rig orders columns as the map first names them; bake
    binds them by label, so a reversed map bakes what gen-proc --rig does."""
    scene = scene_dir / "scene"
    lines = (scene / "map.txt").read_text(encoding="utf-8").splitlines()
    (tmp_path / "map.txt").write_text("\n".join(lines[::-1]) + "\n", encoding="utf-8")
    rig = scene / "rig" / "rig.txt"
    gen = ["gen-proc", "--align", str(scene / "align.tsv")]
    assert main(gen + ["--map", str(tmp_path / "map.txt"), "--out", str(tmp_path / "rev.csv")]) == 0
    assert main(gen + ["--map", str(scene / "map.txt"), "--rig", str(rig),
                       "--out", str(tmp_path / "rig.csv")]) == 0
    assert read_curve(tmp_path / "rev.csv").labels == read_curve(tmp_path / "rig.csv").labels[::-1]
    for name in ("rev", "rig"):
        assert main(["bake", "--rig", str(rig), "--curve", str(tmp_path / f"{name}.csv"),
                     "--out", str(tmp_path / f"{name}_baked")]) == 0
    assert _tree_bytes(tmp_path / "rev_baked") == _tree_bytes(tmp_path / "rig_baked")


@pytest.mark.parametrize("command", ["bake", "eval-lip", "bones", "eval-keypoint"])
def test_curve_missing_a_rig_label_exits_2_naming_it(scene_dir, tmp_path, capsys, command):
    # the rig and the bone assets both need MBP, the curve's first column
    s = _scene_with_poses(scene_dir, tmp_path)
    gt = read_curve(s / "gt.csv")
    curve = tmp_path / "curve.csv"
    write_curve(Curve(fps=gt.fps, labels=gt.labels[1:], weights=gt.weights[:, 1:]), curve)
    rig, out = s / "rig" / "rig.txt", tmp_path / "out"
    argv = {
        "bake": ["bake", "--rig", rig],
        "eval-lip": ["eval", "--metric", "lip", "--rig", rig],
        "bones": ["bones", "--bones", s / "bones.csv"],
        "eval-keypoint": ["eval", "--metric", "keypoint", "--rig", rig, "--obs", s / "obs",
                          "--poses", s / "poses.csv"],
    }[command]
    capsys.readouterr()
    assert main([str(a) for a in argv + ["--curve", curve, "--out", out]]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {curve}: curve is missing viseme columns ['MBP']"
    ]
    # every command binds the curve's columns before it makes --out
    assert not out.exists()


@pytest.mark.parametrize("metric, code", [("tv", 2), ("keypoint", 1)])
def test_failing_eval_leaves_no_out_directory(scene_dir, tmp_path, capsys, metric, code):
    """eval computes its metric before it makes --out: the total variation of
    a 0-frame curve (exit 2) and a keypoint metric without --poses (exit 1)
    both fail with one line and leave no directory behind."""
    s = _scene_with_poses(scene_dir, tmp_path)
    gt = read_curve(s / "gt.csv")
    curve = tmp_path / "curve.csv"
    frames = 0 if metric == "tv" else gt.frame_count
    write_curve(Curve(fps=gt.fps, labels=gt.labels, weights=gt.weights[:frames]), curve)
    out = tmp_path / "out"
    extra = ["--rig", s / "rig" / "rig.txt", "--obs", s / "obs"] if metric == "keypoint" else []
    capsys.readouterr()
    argv = ["eval", "--metric", metric, "--curve", curve, "--out", out, *extra]
    assert main([str(a) for a in argv]) == code
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


def test_bake_writes_every_block_and_an_empty_curve(scene_dir, tmp_path, capsys):
    """bake blends and writes 64 frames at a time: 130 frames (blocks of 64,
    64 and 2) give 130 OBJs, each the one mesh blended from its frame, and a
    0-frame curve writes nothing and reports frames=0."""
    rig_path = scene_dir / "scene" / "rig" / "rig.txt"
    rig = load_rig_manifest(rig_path)
    labels = rig.viseme_labels
    weights = np.random.default_rng(5).uniform(0.0, 1.0, (130, len(labels)))
    write_curve(Curve(fps=30.0, labels=labels, weights=weights), tmp_path / "c130.csv")
    write_curve(Curve(fps=30.0, labels=labels, weights=np.zeros((0, len(labels)))),
                tmp_path / "c0.csv")
    for name, frames in (("c130", 130), ("c0", 0)):
        capsys.readouterr()
        assert main(["bake", "--rig", str(rig_path), "--curve", str(tmp_path / f"{name}.csv"),
                     "--out", str(tmp_path / name)]) == 0
        assert capsys.readouterr().out.startswith(f"OK bake frames={frames} ")
    assert list((tmp_path / "c0").iterdir()) == []
    baked = sorted((tmp_path / "c130").iterdir())
    assert [p.name for p in baked] == [f"{j:06d}.obj" for j in range(130)]
    read = read_curve(tmp_path / "c130.csv").weights_for(labels)
    for path, w in zip(baked, read):
        assert path.read_text(encoding="ascii") == serialize_obj(blend_mesh(rig, w))


def test_bones_overflow_in_a_later_block_leaves_no_file(scene_dir, tmp_path, capsys):
    """bones writes each 64-frame block into its temporary file as it goes;
    an overflow at frame 100, in the second block, exits 2 naming the frame
    and leaves no --out file and no temporary file, or an existing --out
    file as it was."""
    s = _probe_scene(scene_dir, tmp_path)
    weights = np.full((130, 1), 0.5)
    weights[100, 0] = 1e160
    write_curve(Curve(fps=30.0, labels=("MBP",), weights=weights), s / "huge.csv")
    out = tmp_path / "out"
    out.mkdir()
    argv = ["bones", "--bones", str(s / "bones.csv"), "--curve", str(s / "huge.csv"),
            "--out", str(out / "track.csv")]
    for before in (None, b"an earlier track\n"):
        if before is not None:
            (out / "track.csv").write_bytes(before)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: frame 100: blended rotation overflows: weights out of range"
        ]
        if before is None:
            assert list(out.iterdir()) == []
        else:
            assert [p.name for p in out.iterdir()] == ["track.csv"]
            assert (out / "track.csv").read_bytes() == before


def test_fit_landmark_overflow_exits_3_naming_clip_and_frame(scene_dir, tmp_path, capsys):
    """A finite but huge landmark x overflows the objective on frame 5. fit
    names the clip and the frame in one error line and numpy prints no
    warning."""
    s = _scene_with_poses(scene_dir, tmp_path)
    _set_field(s / "obs" / "landmarks.csv", 5, 2, "1e300")
    capsys.readouterr()
    assert main(_probe_argv("fit", s, "30")) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {s / 'obs'}: frame 5: "), err


# (subcommand, input file it reads) pairs the mutation fuzz draws from
FUZZ_TARGETS = [
    ("gen-proc", "align.tsv"), ("gen-proc", "map.txt"), ("gen-proc", "rules.txt"),
    ("gen-proc", "rig/rig.txt"), ("bake", "rig/rig.txt"), ("bake", "rig/neutral.obj"),
    ("bake", "rig/MBP.obj"), ("bake", "gt.csv"), ("bones", "bones.csv"), ("bones", "gt.csv"),
    ("resample", "gt.csv"), ("eval", "gt.csv"), ("eval-tv", "gt.csv"), ("eval", "rig/rig.txt"),
    ("eval", "obs/landmarks.csv"), ("eval", "poses.csv"), ("fit", "align.tsv"), ("fit", "map.txt"),
    ("fit", "rig/rig.txt"), ("fit", "config.txt"), ("fit", "obs/landmarks.csv"),
    ("fit", "rig/neutral.obj"), ("fit", "rig/MBP.obj"),
]
FUZZ_TOKENS = [b"nan", b"inf", b"1e309", b"1e300", b"-1e300", b"1e-300", b""]
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _mutate(data: bytes, rnd: random.Random) -> tuple[bytes, str]:
    """One random mutation of data and a description of it."""
    kind = rnd.choice(["truncate", "flip", "drop", "duplicate", "number"])
    if kind == "truncate":
        cut = rnd.randrange(len(data))
        return data[:cut], f"truncate at byte {cut}"
    if kind == "flip":
        at, bit = rnd.randrange(len(data)), 1 << rnd.randrange(8)
        return data[:at] + bytes([data[at] ^ bit]) + data[at + 1:], f"flip {bit:#x} at byte {at}"
    lines = data.splitlines(keepends=True)
    if kind in ("drop", "duplicate"):
        k = rnd.randrange(len(lines))
        lines[k:k + 1] = [] if kind == "drop" else [lines[k], lines[k]]
        return b"".join(lines), f"{kind} line {k + 1}"
    match = rnd.choice(list(_NUMBER.finditer(data)))
    token = rnd.choice(FUZZ_TOKENS)
    mutated = data[:match.start()] + token + data[match.end():]
    return mutated, f"number {match.group()!r} at byte {match.start()} -> {token!r}"


def test_mutated_inputs_exit_cleanly(scene_dir, tmp_path, capsys, caplog):
    """Seeded single mutations of every input of gen-proc, bake, bones,
    resample, eval and fit: each run exits 0, 2 or 3, no exception or numpy
    warning escapes main, and a failing run prints exactly one error line,
    which names a path the command was given or read, or a frame. A failing
    fit may print warnings before it, each naming the clip: this scene has
    no flow, so every fit warns. Under pytest the warnings reach caplog
    rather than stderr, so both are checked."""
    s = _scene_with_poses(scene_dir, tmp_path)
    cfg = parse_fit_config((s / "config.txt").read_text(encoding="utf-8"))
    (s / "config.txt").write_text(serialize_fit_config(dataclasses.replace(cfg, iters=2)),
                                  encoding="utf-8")
    clip_warning = f"{s / 'obs'}: "
    originals = {name: (s / name).read_bytes() for _, name in FUZZ_TARGETS}
    for command in sorted({command for command, _ in FUZZ_TARGETS}):
        assert main(_probe_argv(command, s, "30")) == 0, command
    rnd = random.Random(8)
    for _ in range(240):
        command, name = rnd.choice(FUZZ_TARGETS)
        data, what = _mutate(originals[name], rnd)
        (s / name).write_bytes(data)
        capsys.readouterr()
        caplog.clear()
        try:
            code = main(_probe_argv(command, s, "30"))
        except Exception as exc:  # a warning turned error by the pytest config lands here too
            pytest.fail(f"{command} with {name} ({what}) raised {exc!r}")
        err = capsys.readouterr().err
        logged = [record.getMessage() for record in caplog.records]
        (s / name).write_bytes(originals[name])
        context = f"{command} with {name} ({what}): exit {code}, stderr {err!r}"
        assert code in (0, 2, 3), context
        if code:
            *warnings, last = err.splitlines() or [""]
            assert last.startswith("error: "), context
            # every file a command is given or reads (a mesh the manifest
            # lists too) lies in the scene copy s
            assert str(s) in last or re.match(r"error: frame \d+: ", last), context
            warnings += logged
            if command == "fit":
                assert all(line.startswith(clip_warning) for line in warnings), context
            else:
                assert not warnings, context


@pytest.mark.parametrize(
    "command, fps, name, content",
    [
        ("gen-proc", "inf", None, None),
        ("fit", "inf", None, None),
        ("synth", "inf", None, None),
        ("resample", "inf", None, None),
        ("resample", "nan", None, None),
        # a finite alignment end whose frame count overflows at 30 fps
        ("gen-proc", "30", "align.tsv", "m\t0.0\t1e308\n"),
        # finite rates whose frame counts overflow or pass the frame ceiling
        ("resample", "1e308", None, None),
        ("gen-proc", "1e7", None, None),
    ],
)
def test_non_finite_frame_count_exits_2(scene_dir, tmp_path, capsys, command, fps, name, content):
    error, _ = _run_probe(scene_dir, tmp_path, capsys, command, fps, name, content)
    assert "fps" in error


@pytest.mark.parametrize(
    "flag, value, names",
    [
        ("--fps", "0", "fps must be positive"),
        ("--fps", "-1", "fps must be positive"),
        ("--fps", "nan", "fps must be positive"),
        ("--seed", "-1", "seed must be non-negative"),
        ("--noise", "nan", "landmark noise"),
        ("--noise", "-1", "landmark noise"),
        ("--noise", "inf", "landmark noise"),
        # finite, but over the ceiling of the image size in pixels
        ("--noise", "1025", "landmark noise must be in [0, 1024] px"),
        ("--noise", "1e300", "landmark noise must be in [0, 1024] px"),
        # 1801 frames at 0.5 fps: 3602 s of random timeline, just over the ceiling
        ("--fps", "0.5", "over the limit of 3600 s"),
    ],
)
def test_synth_checks_numeric_flags_before_any_work(tmp_path, capsys, flag, value, names):
    out = tmp_path / "synth"
    frames = "1801" if value == "0.5" else "2"
    capsys.readouterr()
    assert main(["synth", "--seed", "3", "--frames", frames, flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and names in err[0], err
    assert not out.exists()


def _bounded_main(argv, timeout=60):
    """main(argv) in a child process whose address space is capped at 2 GB
    and whose run time is capped at timeout seconds, so a regression that
    loops or allocates without bound fails the test instead of exhausting
    the machine."""
    cap = "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))"
    code = f"import resource, sys; {cap}; from visemefit.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(Path(visemefit.__file__).parents[1])},
    )


def test_synth_tiny_fps_exits_2_in_a_bounded_child(tmp_path):
    # 2 frames at 1e-300 fps once asked for 2e300 s of random timeline
    out = tmp_path / "synth"
    proc = _bounded_main(["synth", "--seed", "3", "--frames", "2", "--fps", "1e-300",
                          "--out", out])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [
        "error: 2 frames at 1e-300 fps last 2e+300 s, over the limit of 3600 s"
    ]
    assert not out.exists()


EDGE_VALUES = ("0", "-1", "nan", "inf", "1e-300", "1e300")

# (command, flag): the exit code for each of EDGE_VALUES, in order. 1 is
# argparse rejecting a non-integer; fit --fps 1e-300 fits with a zero guide
# past the guide curve's one frame, and warns of that and of the missing flow
# (the scene has no flow files).
FLAG_OUTCOMES = {
    ("gen-proc", "--fps"): "222202",
    ("fit", "--fps"): "222202",
    ("resample", "--fps"): "222202",
    ("synth", "--fps"): "222202",
    ("synth", "--seed"): "021111",
    ("synth", "--frames"): "021111",
    ("synth", "--noise"): "022202",
}


@pytest.mark.parametrize("index, value", list(enumerate(EDGE_VALUES)), ids=EDGE_VALUES)
@pytest.mark.parametrize("command, flag", list(FLAG_OUTCOMES), ids=[c + f for c, f in FLAG_OUTCOMES])
def test_numeric_flag_edge_values_end_cleanly(scene_dir, tmp_path, command, flag, index, value):
    """Every numeric flag of every subcommand, at each edge value, on the
    seed-3 ambiguous scene: exit 0; exit 2 with one error line; or exit 1
    from argparse, with its usage and one error line. Never a traceback."""
    if command == "synth":
        # a second --seed overrides the first
        argv = ["synth", "--seed", "3", "--ambiguous", flag, value, "--out", tmp_path / "synth"]
    else:
        argv = _probe_argv(command, _probe_scene(scene_dir, tmp_path), value)
    proc = _bounded_main(argv)
    lines = proc.stderr.splitlines()
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == int(FLAG_OUTCOMES[command, flag][index]), proc.stderr
    if proc.returncode == 0:
        assert not any("error:" in line for line in lines), proc.stderr
    elif proc.returncode == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    else:
        assert lines[0].startswith("usage: "), proc.stderr
        assert [line for line in lines if ": error: " in line] == lines[-1:], proc.stderr
        assert lines[-1].startswith(f"visemefit {command}: error: argument {flag}:"), proc.stderr


@pytest.fixture(scope="module")
def raster_scene(tmp_path_factory):
    """A 3-frame scene with PPM frames and FLO flow and a 2-step fit config,
    plus each frame's ground-truth vertex projections."""
    root = tmp_path_factory.mktemp("raster_scene")
    scene = build_scene(seed=5, n_frames=3)
    write_scene(scene, root)
    cfg = dataclasses.replace(scene.config, iters=2)
    (root / "config.txt").write_text(serialize_fit_config(cfg), encoding="utf-8")
    proj = [
        project(blend_vertices(scene.rig, scene.gt_curve.weights[j]), scene.poses[j])
        for j in range(scene.frame_count)
    ]
    return root, proj


@contextlib.contextmanager
def _replaced(path, data):
    """path holds data inside the block and its own bytes again after it.
    Each write makes a new file, so no memory map of the old bytes sees it."""
    original = path.read_bytes()
    path.unlink()
    path.write_bytes(data)
    try:
        yield
    finally:
        path.unlink()
        path.write_bytes(original)


def test_fit_non_finite_flow_cell_exits_2_naming_clip_and_frame(raster_scene, capsys):
    s, _ = raster_scene
    flo = s / "obs" / frame_flow_name(2)
    data = flo.read_bytes()
    nan_cells = np.full((len(data) - 12) // 4, np.nan, dtype="<f4").tobytes()
    with _replaced(flo, data[:12] + nan_cells):
        capsys.readouterr()
        assert main(_probe_argv("fit", s, "30")) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {s / 'obs'}: frame 2: forward flow holds a non-finite value at a sampled cell"
    ]


@pytest.mark.parametrize("name", [frame_image_name(2), frame_flow_name(2)])
def test_fit_frame_of_another_size_exits_2_naming_the_frame(raster_scene, capsys, name):
    """A frame re-headed to half the width and twice the height keeps its byte
    count, so it reads; the clip's size check names it."""
    s, _ = raster_scene
    path = s / "obs" / name
    data = path.read_bytes()
    if name.endswith(".flo"):
        what, (w, h) = "flow", struct.unpack("<II", data[4:12])
        resized = b"FLO1" + struct.pack("<II", w // 2, 2 * h) + data[12:]
    else:
        header = data.index(b"255\n") + 4
        what, (w, h) = "image", map(int, data[:header].split()[1:3])
        resized = b"P6\n%d %d\n255\n" % (w // 2, 2 * h) + data[header:]
    with _replaced(path, resized):
        capsys.readouterr()
        assert main(_probe_argv("fit", s, "30")) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {s / 'obs'}: frame 2: {what} is {w // 2}x{2 * h},"
        f" but the clip's first raster is {w}x{h}"
    ]


def test_fit_reads_each_flow_pair_once(raster_scene, capsys, monkeypatch):
    """Only the forward sweep uses flow: a fit of n frames reads the n - 1
    pairs once each, not again in the backward sweep."""
    s, proj = raster_scene
    read = observations.read_flow_pair
    calls = []

    def counting(path):
        calls.append(os.path.basename(path))
        return read(path)

    monkeypatch.setattr(observations, "read_flow_pair", counting)
    assert main(_probe_argv("fit", s, "30")) == 0
    capsys.readouterr()
    assert calls == [frame_flow_name(j) for j in range(1, len(proj))]


def _mutate_frame_file(data: bytes, name: str, proj, rnd: random.Random):
    """One random mutation of a PPM frame or a FLO flow pair, a description
    of it, and whether the fit must exit 2 because it samples a non-finite
    cell. proj holds each frame's vertex projections."""
    flow = name.endswith(".flo")
    kinds = ["truncate", "flip", "resize", "empty"] + ["non-finite"] * flow
    kind = rnd.choice(kinds)
    header = 12 if flow else data.index(b"255\n") + 4
    if kind == "truncate":
        cut = rnd.randrange(len(data))
        return data[:cut], f"truncate at byte {cut}", False
    if kind == "flip":
        at, bit = rnd.randrange(header), 1 << rnd.randrange(8)
        flipped = data[:at] + bytes([data[at] ^ bit]) + data[at + 1:]
        return flipped, f"flip {bit:#x} at byte {at}", False
    if kind == "empty":
        return b"", "empty", False
    w, h = struct.unpack("<II", data[4:12]) if flow else map(int, data[:header].split()[1:3])
    if kind == "resize":
        w, h = rnd.choice([(w + 1, h), (w, h - 1), (0, h), (w // 2, 2 * h), (2**31, 2**31)])
        head = b"FLO1" + struct.pack("<II", w, h) if flow else b"P6\n%d %d\n255\n" % (w, h)
        return head + data[header:], f"size {w}x{h}", False
    # a cell window around every vertex of the pair's two frames, in one grid
    frame = int(name[:6])
    grids = np.frombuffer(data, dtype="<f4", offset=12).reshape(2, h, w, 2).copy()
    g, value = rnd.randrange(2), rnd.choice([np.nan, np.inf, -np.inf])
    for x, y in np.rint(np.concatenate([proj[frame - 1], proj[frame]])).astype(int):
        grids[g, max(y - 12, 0):y + 13, max(x - 12, 0):x + 13] = value
    return data[:12] + grids.tobytes(), f"{value} around the vertices in grid {g}", True


def test_mutated_frame_files_exit_cleanly(raster_scene, capsys, caplog):
    """Seeded mutations of the PPM frames and FLO flow pairs of a small scene:
    truncation, a flipped header bit, changed width or height, an empty
    file, and for flow nan or inf in the cells around the projected
    vertices. Each fit exits 0, 2 or 3, no exception or numpy warning
    escapes main, and a failing fit prints exactly one error line. A
    non-finite sampled flow cell exits 2."""
    s, proj = raster_scene
    names = [frame_image_name(0), frame_image_name(2), frame_flow_name(1), frame_flow_name(2)]
    assert main(_probe_argv("fit", s, "30")) == 0
    rnd = random.Random(14)
    for _ in range(60):
        name = rnd.choice(names)
        path = s / "obs" / name
        data, what, must_fail = _mutate_frame_file(path.read_bytes(), name, proj, rnd)
        capsys.readouterr()
        caplog.clear()
        with _replaced(path, data):
            try:
                code = main(_probe_argv("fit", s, "30"))
            except Exception as exc:  # a warning turned error by the pytest config lands here too
                pytest.fail(f"fit with {name} ({what}) raised {exc!r}")
        err = capsys.readouterr().err
        context = f"fit with {name} ({what}): exit {code}, stderr {err!r}"
        assert code == 2 if must_fail else code in (0, 2, 3), context
        if code:
            *warnings, last = err.splitlines() or [""]
            assert last.startswith("error: "), context
            # every file a command is given or reads (a mesh the manifest
            # lists too) lies in the scene copy s
            assert str(s) in last or re.match(r"error: frame \d+: ", last), context
            warnings += [record.getMessage() for record in caplog.records]
            assert all(line.startswith(f"{s / 'obs'}: ") for line in warnings), context
