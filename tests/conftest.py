import numpy as np
import pytest

from visemefit.camera import Pose, project
from visemefit.mesh import Mesh
from visemefit.rig import Rig, blend_vertices, default_viseme_labels

INTR = (100.0, 32.0, 32.0)


def make_rig(rng: np.random.Generator, n_verts: int = 8, n_visemes: int = 3) -> Rig:
    """Small random rig for loss and fitting tests.

    Vertices sit around depth 2 in front of the camera; deltas are a few
    percent of the layout scale so projections stay inside a 64x64 image.
    """
    verts = np.empty((n_verts, 3))
    verts[:, 0] = rng.uniform(-0.45, 0.45, n_verts)
    verts[:, 1] = rng.uniform(-0.45, 0.45, n_verts)
    verts[:, 2] = rng.uniform(1.8, 2.2, n_verts)
    tris = np.array([[i, (i + 1) % n_verts, (i + 2) % n_verts] for i in range(n_verts - 2)])
    colors = rng.uniform(0.1, 0.9, (n_verts, 3))
    neutral = Mesh(vertices=verts, triangles=tris, colors=colors)
    visemes = tuple(
        Mesh(vertices=verts + rng.normal(0.0, 0.03, verts.shape), triangles=tris)
        for _ in range(n_visemes)
    )
    return Rig(
        neutral=neutral,
        visemes=visemes,
        viseme_labels=default_viseme_labels(16)[:n_visemes],
        landmark_bindings={i: i for i in range(n_verts)},
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def tiny_rig(rng):
    return make_rig(rng)


@pytest.fixture
def cam_pose():
    return Pose(rotation=[0.0, 0.0, 0.0, 1.0], translation=np.zeros(3), intrinsics=INTR)


def random_pose(rng: np.random.Generator, scale: float = 0.05) -> Pose:
    q = np.array([0.0, 0.0, 0.0, 1.0]) + rng.normal(0.0, scale, 4)
    return Pose(rotation=q / np.linalg.norm(q), translation=rng.normal(0.0, scale, 3), intrinsics=INTR)


def flow_targets(rig: Rig, vidx, disp, prev_weights, prev_pose: Pose):
    """FrameProblem flow targets built as screen_flow builds them: the previous
    frame's projections of vertices vidx, advected by displacements disp."""
    return vidx, project(blend_vertices(rig, prev_weights), prev_pose)[vidx] + disp
