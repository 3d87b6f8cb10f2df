import dataclasses
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import visemefit
from visemefit.atomicio import atomic_path
from visemefit.cli import main
from visemefit.curves import parse_curve, read_curve, serialize_curve
from visemefit.flow import write_flow_pair
from visemefit.fitting import parse_fit_config, serialize_fit_config
from visemefit.observations import frame_flow_name, read_landmarks
from visemefit.procedural import generate_procedural
from visemefit.rig import load_rig_manifest
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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_fit_numeric_error_names_clip_and_frame(scene_dir, tmp_path, workers):
    clips = _two_clips(scene_dir, tmp_path)
    # a learning rate this large throws the head behind the camera at once
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
    assert errors[0].startswith(f"error: {clips / 'a'}: frame 0: "), err
    assert "Traceback" not in err
    # b is still fitted, and its own failure is one warning line
    later = [line for line in err.splitlines() if line.startswith(f"{clips / 'b'}: frame 0: ")]
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


def test_atomic_write_cleans_up_on_failure(tmp_path):
    target = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with atomic_path(target) as tmp:
            Path(tmp).write_text("partial", encoding="utf-8")
            raise RuntimeError("boom")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


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
        "synth": ["synth", "--seed", "1", "--frames", "3", "--ambiguous", "--fps", fps,
                  "--out", s / "synth"],
    }[command]
    return [str(a) for a in argv]


# (command, file written into a copy of the scene, its content, text the error
# must name). One non-finite field and one malformed line per text format.
BAD_INPUTS = [
    pytest.param("fit", "config.txt", "lr0=nan\n", "lr0", id="config-lr0-nan"),
    pytest.param("fit", "config.txt", "w1=nan\n", "w1", id="config-w1-nan"),
    pytest.param("fit", "config.txt", "focal=inf\n", "focal", id="config-focal-inf"),
    pytest.param("fit", "config.txt", "cx=nan\n", "cx", id="config-cx-nan"),
    pytest.param("fit", "config.txt", "w1 0.5\n", "key=value", id="config-no-equals"),
    pytest.param("fit", "config.txt", "focal=-1\n", "focal", id="config-focal-negative"),
    pytest.param("gen-proc", "rules.txt", "min_onset_ms=inf\n", "min_onset_ms",
                 id="rules-min-onset-inf"),
    pytest.param("gen-proc", "rules.txt", "onset_frac\n", "key=value", id="rules-no-equals"),
    pytest.param("gen-proc", "rules.txt", "onset_frac=0.9\n", "onset_frac",
                 id="rules-onset-out-of-range"),
    pytest.param("bake", "rig/rig.txt", "neutral=neutral.obj\nL0=inf\n", "L0",
                 id="manifest-binding-inf"),
    pytest.param("bake", "rig/rig.txt", "neutral=neutral.obj\njusttext\n", "key=value",
                 id="manifest-no-equals"),
    pytest.param("bake", "rig/neutral.obj", "v 0 0 nan\n", "z", id="obj-vertex-nan"),
    pytest.param("bake", "rig/neutral.obj", "v 0 0\n", "vertex", id="obj-short-vertex"),
    pytest.param("bake", "rig/neutral.obj", "# caf\u00e9\nv 0 0 0\n", "ascii",
                 id="obj-not-ascii"),
    pytest.param("gen-proc", "map.txt", "m=MBP\n=SSS\n", "empty phoneme", id="map-empty-token"),
    pytest.param("gen-proc", "map.txt", "m=MBP\njusttext\n", "key=value", id="map-no-equals"),
    pytest.param("gen-proc", "align.tsv", "# duration=nan\nm\t0.0\t0.5\n", "duration",
                 id="alignment-duration-nan"),
    pytest.param("gen-proc", "align.tsv", "# duration=inf\nm\t0.0\t0.5\n", "duration",
                 id="alignment-duration-inf"),
    pytest.param("gen-proc", "align.tsv", "m\t0.0\tinf\n", "end", id="alignment-end-inf"),
    pytest.param("gen-proc", "align.tsv", "m\t0.0\n", "fields", id="alignment-short-row"),
    pytest.param("gen-proc", "align.tsv", "m\t-0.5\t0.5\n", "starts before 0",
                 id="alignment-negative-start"),
    pytest.param("gen-proc", "align.tsv", "# duration=0.1\nm\t0.0\t0.5\n", "duration",
                 id="alignment-duration-too-short"),
    pytest.param("gen-proc", "align.tsv", "m\t0.0\t0.5\nm\t0.3\t0.8\n", "overlap",
                 id="alignment-overlap"),
    pytest.param("resample", "gt.csv", "# fps=inf\nframe,MBP\n0,0.5\n", "fps",
                 id="curve-fps-inf"),
    pytest.param("resample", "gt.csv", "# fps=30\nframe,MBP\n0,nan\n", "MBP",
                 id="curve-weight-nan"),
    pytest.param("resample", "gt.csv", "# fps=30\nframe,MBP\n0,0.5,0.5\n", "columns",
                 id="curve-extra-column"),
    pytest.param("resample", "gt.csv", b"# fps=30\nframe,MBP\n0,\xff\n", "utf-8",
                 id="curve-not-utf8"),
    pytest.param("eval", "poses.csv", POSES_CSV.replace("# cx=512.0", "# cx=nan"), "cx",
                 id="poses-cx-nan"),
    pytest.param("eval", "poses.csv", POSES_CSV.replace("# cy=512.0\n", ""), "# cy=",
                 id="poses-missing-cy"),
    pytest.param("eval", "poses.csv", POSES_CSV + "1,0,0\n", "columns", id="poses-short-row"),
    pytest.param("fit", "obs/landmarks.csv", LANDMARKS_HEADER + "0,0,nan,1.0,1.0\n", "x",
                 id="landmarks-x-nan"),
    pytest.param("eval", "obs/landmarks.csv", LANDMARKS_HEADER + "0,0,1.0,1.0,inf\n", "beta",
                 id="landmarks-beta-inf"),
    pytest.param("eval", "obs/landmarks.csv", LANDMARKS_HEADER + "0,0,1.0\n", "columns",
                 id="landmarks-short-row"),
    pytest.param("bones", "bones.csv", BONES_CSV.replace("0,-0.2,0,1,1,1", "0,-0.2,0,1,1,inf"),
                 "sz", id="bones-scale-inf"),
    pytest.param("bones", "bones.csv", BONES_CSV + "jaw,SSS,0,0\n", "columns",
                 id="bones-short-row"),
]


def _run_probe(scene_dir, tmp_path, capsys, command, fps="30", name=None, content=None):
    s = tmp_path / "s"
    shutil.copytree(scene_dir / "scene", s)
    (s / "rules.txt").write_text("onset_frac=0.3\n", encoding="utf-8")
    (s / "bones.csv").write_text(BONES_CSV, encoding="utf-8")
    (s / "poses.csv").write_text(POSES_CSV, encoding="utf-8")
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
    error, s = _run_probe(scene_dir, tmp_path, capsys, command, name=name, content=content)
    assert str(s / name) in error
    assert names in error


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
