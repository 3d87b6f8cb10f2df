import dataclasses

import numpy as np
import pytest

from visemefit import fitting
from visemefit.camera import Pose, project
from visemefit.curves import serialize_curve
from visemefit.errors import DataError
from visemefit.fitting import (
    FitConfig,
    fit_clip,
    parse_fit_config,
    parse_poses,
    read_fit_config,
    serialize_fit_config,
    serialize_poses,
)
from visemefit.observations import RawObservation
from visemefit.procedural import generate_procedural
from visemefit.rig import blend_vertices
from visemefit.timeline import parse_alignment, parse_viseme_map

from conftest import INTR, make_rig


def test_fit_config_defaults():
    cfg = FitConfig()
    assert cfg.loss_weights == (0.8, 1.0, 800.0, 150.0, 1.0, 300.0, 100.0)
    assert (cfg.m, cfg.n, cfg.radius) == (3, 2, 2)
    assert (cfg.iters, cfg.lr0, cfg.decay_every, cfg.decay_factor) == (80, 0.1, 10, 0.9)
    assert cfg.intrinsics == (1200.0, 192.0, 192.0)


@pytest.mark.parametrize(
    "kw",
    [
        {"w3": -1.0},
        {"n": 4},  # n > m
        {"m": -1},
        {"radius": -2},
        {"iters": 0},
        {"lr0": 0.0},
        {"decay_factor": 0.0},
        {"decay_factor": 1.5},
        {"decay_every": 0},
        {"tau_flow": 0.0},
        {"eps_act": -0.1},
        {"pose_step_scale": 0.0},
        {"pose_step_scale": -1.0},
        {"focal": -10.0},
    ],
)
def test_fit_config_rejects(kw):
    with pytest.raises(DataError):
        FitConfig(**kw)


def test_fit_config_is_frozen():
    # an assignment would skip the range checks, so there is none
    cfg = FitConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.iters = 0


def test_fit_config_roundtrip(tmp_path):
    cfg = FitConfig(w3=512.0, n=1, iters=33, lr0=0.05, cx=100.25, pose_step_scale=0.125)
    text = serialize_fit_config(cfg)
    back = parse_fit_config(text)
    assert back == cfg
    # every field parses to its declared type, so == compares cleanly
    for f in dataclasses.fields(FitConfig):
        assert type(getattr(back, f.name)) is type(getattr(cfg, f.name)), f.name
    p = tmp_path / "fit.cfg"
    p.write_text(text, encoding="utf-8")
    assert read_fit_config(p) == cfg


def test_fit_config_parse_errors():
    assert parse_fit_config("# comment\n\nw1=0.5\n").w1 == 0.5
    with pytest.raises(DataError):
        parse_fit_config("nope=1\n")
    with pytest.raises(DataError):
        parse_fit_config("w1=abc\n")
    with pytest.raises(DataError):
        parse_fit_config("w1 0.5\n")
    with pytest.raises(DataError):
        read_fit_config("/nonexistent/fit.cfg")


def _some_poses(rng, n=3):
    out = []
    for _ in range(n):
        q = rng.normal(size=4)
        out.append(
            Pose(rotation=q / np.linalg.norm(q), translation=rng.normal(0, 0.1, 3), intrinsics=INTR)
        )
    return out


def test_poses_roundtrip_exact(rng):
    poses = _some_poses(rng)
    text = serialize_poses(poses)
    back = parse_poses(text)
    assert len(back) == 3
    for a, b in zip(poses, back):
        np.testing.assert_array_equal(a.rotation, b.rotation)
        np.testing.assert_array_equal(a.translation, b.translation)
        assert a.intrinsics == b.intrinsics
    assert serialize_poses(back) == text
    assert serialize_poses([]) == "frame,qx,qy,qz,qw,tx,ty,tz\n"


def test_poses_serialize_requires_shared_intrinsics(rng):
    poses = _some_poses(rng, 2)
    odd = Pose(rotation=poses[0].rotation, translation=poses[0].translation, intrinsics=(50.0, 1.0, 2.0))
    with pytest.raises(DataError):
        serialize_poses([poses[0], odd])


def test_poses_parse_errors():
    header = "frame,qx,qy,qz,qw,tx,ty,tz\n"
    with pytest.raises(DataError):
        parse_poses(header + "1,0,0,0,1,0,0,0\n")  # starts at 1
    with pytest.raises(DataError):
        parse_poses(header + "0,0,0,0,1,0,0\n")  # 7 columns
    with pytest.raises(DataError):
        parse_poses(header + "0,0,0,x,1,0,0,0\n")
    with pytest.raises(DataError):
        parse_poses("# focal=abc\n" + header)
    # out-of-order frames after a valid row
    with pytest.raises(DataError):
        parse_poses(header + "0,0,0,0,1,0,0,0\n2,0,0,0,1,0,0,0\n")
    # rows without all three intrinsics comments; an empty file needs none
    with pytest.raises(DataError):
        parse_poses("# focal=1200.0\n# cx=512.0\n" + header + "0,0,0,0,1,0,0,0\n")
    assert parse_poses(serialize_poses([])) == []
    # the column header is only the first body line; a repeat is a bad row
    with pytest.raises(DataError, match=":5: frame is not an integer"):
        parse_poses("# focal=1\n# cx=0\n# cy=0\n" + header + header + "0,0,0,0,1,0,0,0\n")


def test_poses_header_first_cell_is_stripped(rng):
    # the header's first cell is stripped as every other text cell is, so a
    # spaced header is still the optional column header, not a bad row
    text = serialize_poses(_some_poses(rng, 2))
    spaced = text.replace("frame,qx", "frame ,qx")
    assert spaced != text
    assert serialize_poses(parse_poses(spaced)) == text


def _clip_inputs(rng):
    rig = make_rig(rng, n_verts=8, n_visemes=3)
    vmap = parse_viseme_map("m=MBP\ns=SSS\nw=WWW\nsilence=sil\n", labels=rig.viseme_labels)
    timeline = parse_alignment("m\t0.00\t0.10\ns\t0.10\t0.20\n")
    cfg = FitConfig(iters=30, focal=INTR[0], cx=INTR[1], cy=INTR[2])
    proc = generate_procedural(timeline, 30.0, vmap)
    obs = []
    for j in range(6):
        w = proc.weights[j] if j < proc.frame_count else np.zeros(3)
        proj = project(blend_vertices(rig, w), cfg_pose(cfg))
        obs.append(
            RawObservation(
                landmark_ids=np.arange(8),
                landmark_points=proj,
                landmark_betas=np.ones(8),
            )
        )
    return rig, timeline, obs, cfg, vmap


def cfg_pose(cfg):
    return Pose(
        rotation=np.array([0.0, 0.0, 0.0, 1.0]),
        translation=np.zeros(3),
        intrinsics=cfg.intrinsics,
    )


def test_fit_clip_shape_and_bounds(rng):
    rig, timeline, obs, cfg, vmap = _clip_inputs(rng)
    result = fit_clip(rig, timeline, obs, cfg, vmap)
    assert result.curve.frame_count == len(obs)
    assert result.curve.labels == rig.viseme_labels
    assert len(result.poses) == len(obs)
    w = result.curve.weights
    assert w.min() >= 0.0 and w.max() <= 1.0
    for p in result.poses:
        assert p.intrinsics == cfg.intrinsics
        assert abs(np.linalg.norm(p.rotation) - 1.0) < 1e-9


def test_fit_clip_is_deterministic(rng):
    rig, timeline, obs, cfg, vmap = _clip_inputs(rng)
    a = fit_clip(rig, timeline, obs, cfg, vmap)
    b = fit_clip(rig, timeline, obs, cfg, vmap)
    assert serialize_curve(a.curve) == serialize_curve(b.curve)
    assert serialize_poses(a.poses) == serialize_poses(b.poses)


def test_fit_clip_empty_observations(rng):
    # an empty alignment is a clip of no frames
    rig, _, _, cfg, vmap = _clip_inputs(rng)
    result = fit_clip(rig, parse_alignment(""), [], cfg, vmap)
    assert result.curve.frame_count == 0
    assert result.poses == []


def test_fit_clip_rejects_label_mismatch(rng):
    rig, timeline, obs, cfg, _ = _clip_inputs(rng)
    other = parse_viseme_map("m=AAA\nsilence=sil\n")
    with pytest.raises(DataError):
        fit_clip(rig, timeline, obs, cfg, other)


def test_fit_clip_warnings_name_the_clip(rng, caplog):
    rig, timeline, obs, cfg, vmap = _clip_inputs(rng)
    bare = dataclasses.replace(rig, neutral=dataclasses.replace(rig.neutral, colors=None))
    obs[3] = dataclasses.replace(obs[3], image=np.zeros((64, 64, 3), dtype=np.uint8))
    with caplog.at_level("WARNING", logger="visemefit.fitting"):
        fit_clip(bare, timeline, obs, cfg, vmap, clip="talk01")
    assert [r.getMessage() for r in caplog.records] == [
        "talk01: flow missing for 5 of 5 frame pairs, first at frame 1; flow term skipped there",
        "talk01: rig has no vertex colors; photometric term skipped (1 frames have images)",
    ]


def test_fit_clip_tolerates_missing_observations(rng, caplog):
    rig, timeline, obs, cfg, vmap = _clip_inputs(rng)
    # frames with no landmarks at all still get fitted (guidance + range only)
    sparse = [obs[0], RawObservation(), obs[2], RawObservation(), RawObservation(), obs[5]]
    with caplog.at_level("WARNING", logger="visemefit.fitting"):
        result = fit_clip(rig, timeline, sparse, cfg, vmap)
    assert result.curve.frame_count == 6
    assert np.isfinite(result.curve.weights).all()
    assert [r.getMessage() for r in caplog.records] == [
        "<clip>: no landmark, image or flow data on 3 of 6 frames, first at frame 1;"
        " only the guidance and temporal terms fit them",
    ]


def test_fit_clip_sweep_order(rng, monkeypatch):
    """Frames are solved forward, then backward. Flow targets exist only on
    forward frames after the first that have flow, and the temporal neighbor
    is the frame solved just before in the same order."""
    rig, timeline, obs, cfg, vmap = _clip_inputs(rng)
    nv, n = rig.viseme_count, len(obs)
    shift = np.zeros((64, 64, 2), dtype=np.float32)
    shift[..., 0] = 1.0
    with_flow = {0, 2, 4}
    asked = []

    def flows(j):
        asked.append(j)
        return (shift, -shift) if j in with_flow else None

    class Recording(fitting.FrameProblem):
        def __init__(self, *args, flow_targets=None, neighbor_weights=None, **kw):
            super().__init__(*args, flow_targets=flow_targets,
                             neighbor_weights=neighbor_weights, **kw)
            self.flow_arg = flow_targets
            self.neighbor_arg = None if neighbor_weights is None else np.array(neighbor_weights)

    solves = []
    optimize = fitting._optimize_frame

    def recording_optimize(problem, *args):
        out = optimize(problem, *args)
        # the frame is the last argument; hstack gives the packed (w, q, t)
        solves.append((args[-1], problem, np.hstack(out)[:nv]))
        return out

    monkeypatch.setattr(fitting, "FrameProblem", Recording)
    monkeypatch.setattr(fitting, "_optimize_frame", recording_optimize)
    fit_clip(rig, timeline, obs, cfg, vmap, flows=flows)

    # each pair is asked for once, in the forward sweep, never at frame 0
    assert asked == list(range(1, n))
    order = [frame for frame, _, _ in solves]
    assert order == list(range(n)) + list(range(n - 1, -1, -1))
    for k, (frame, problem, _) in enumerate(solves):
        forward = k < n
        if forward and frame > 0 and frame in with_flow:
            vidx, targets = problem.flow_arg
            assert vidx.size > 0 and targets.shape == (vidx.size, 2)
        else:
            assert problem.flow_arg is None
        if k in (0, n):
            assert problem.neighbor_arg is None
        else:
            np.testing.assert_array_equal(problem.neighbor_arg, solves[k - 1][2])
