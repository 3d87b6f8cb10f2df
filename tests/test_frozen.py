import dataclasses

import numpy as np
import pytest

from visemefit.bones import BonePose
from visemefit.camera import Pose
from visemefit.curves import Curve
from visemefit.evaluation import MetricSeries
from visemefit.frozen import frozen_array
from visemefit.mesh import Mesh
from visemefit.observations import RawObservation
from visemefit.procedural import EnvelopeRules
from visemefit.rig import Rig
from visemefit.timeline import PhonemeVisemeMap

from conftest import INTR, make_rig

_VERTS = np.zeros((3, 3))

# value type and field -> (build a value from the array a, the field it holds
# a in, a fresh writeable input)
ARRAY_FIELDS = {
    "curve": (lambda a: Curve(fps=30.0, labels=("A", "B"), weights=a), "weights", np.zeros((3, 2))),
    "mesh-vertices": (lambda a: Mesh(vertices=a, triangles=[[0, 1, 2]]), "vertices", np.zeros((3, 3))),
    "mesh-triangles": (lambda a: Mesh(vertices=_VERTS, triangles=a), "triangles", np.array([[0, 1, 2]])),
    "mesh-colors": (lambda a: Mesh(vertices=_VERTS, triangles=[], colors=a), "colors", np.zeros((3, 3))),
    "pose-rotation": (
        lambda a: Pose(rotation=a, translation=np.zeros(3), intrinsics=INTR), "rotation",
        np.array([0.0, 0.0, 0.0, 1.0]),
    ),
    "pose-translation": (
        lambda a: Pose(rotation=[0, 0, 0, 1], translation=a, intrinsics=INTR), "translation",
        np.zeros(3),
    ),
    "bone-rotations": (
        lambda a: BonePose(rotations=a, translations=np.zeros((1, 3)), scales=np.ones((1, 3))),
        "rotations", np.array([[0.0, 0.0, 0.0, 1.0]]),
    ),
    "bone-translations": (
        lambda a: BonePose(rotations=[[0, 0, 0, 1]], translations=a, scales=np.ones((1, 3))),
        "translations", np.zeros((1, 3)),
    ),
    "bone-scales": (
        lambda a: BonePose(rotations=[[0, 0, 0, 1]], translations=np.zeros((1, 3)), scales=a),
        "scales", np.ones((1, 3)),
    ),
    "metric": (lambda a: MetricSeries(name="m", fps=30.0, values=a), "values", np.zeros(4)),
    "landmark-ids": (
        lambda a: RawObservation(landmark_ids=a, landmark_points=np.zeros((2, 2)), landmark_betas=np.ones(2)),
        "landmark_ids", np.array([0, 1]),
    ),
    "landmark-points": (
        lambda a: RawObservation(landmark_ids=[0, 1], landmark_points=a, landmark_betas=np.ones(2)),
        "landmark_points", np.zeros((2, 2)),
    ),
    "landmark-betas": (
        lambda a: RawObservation(landmark_ids=[0, 1], landmark_points=np.zeros((2, 2)), landmark_betas=a),
        "landmark_betas", np.ones(2),
    ),
}


@pytest.mark.parametrize("build, name, a", ARRAY_FIELDS.values(), ids=list(ARRAY_FIELDS))
def test_value_never_holds_the_callers_array(build, name, a):
    """The caller's array stays writeable, and writing to it changes no value."""
    value = build(a)
    held = getattr(value, name)
    before = held.copy()
    assert a.flags.writeable
    a[...] = 2
    np.testing.assert_array_equal(getattr(value, name), before)
    assert not held.flags.writeable and not np.shares_memory(held, a)


def test_frozen_array_keeps_a_frozen_array_and_copies_the_rest():
    a = np.arange(6.0).reshape(2, 3)
    frozen = frozen_array(a, np.float64)
    assert frozen is not a and a.flags.writeable and not frozen.flags.writeable
    assert frozen_array(frozen, np.float64) is frozen
    # a view of a frozen array, a non-contiguous one or another dtype is copied
    for other, dtype in ((frozen[1:], np.float64), (frozen.T, np.float64), (frozen, np.float32)):
        out = frozen_array(other, dtype)
        assert out.flags.owndata and out.flags.c_contiguous and not out.flags.writeable
        assert out.dtype == dtype and not np.shares_memory(out, frozen)
    # a value built from another value's array shares it
    curve = Curve(fps=30.0, labels=("A", "B", "C"), weights=a)
    assert Curve(fps=60.0, labels=curve.labels, weights=curve.weights).weights is curve.weights
    # a shape is met by keeping a frozen array that has it, else by a copy
    assert frozen_array(frozen, np.float64, (-1, 3)) is frozen
    for shape in (6, (3, -1)):
        out = frozen_array(frozen, np.float64, shape)
        assert out.flags.owndata and not out.flags.writeable and not np.shares_memory(out, frozen)
    out = frozen_array(a, np.float64, (2, 3))
    assert out.shape == (2, 3) and a.flags.writeable and not np.shares_memory(out, a)


# value type -> (a value, the same value rebuilt from the first one's fields,
# the array fields the two must share)
REBUILT = {
    "pose": (
        lambda: Pose(rotation=[0.0, 0.0, 0.0, 1.0], translation=np.ones(3), intrinsics=INTR),
        lambda p: Pose(rotation=p.rotation, translation=p.translation, intrinsics=p.intrinsics),
        ("rotation", "translation"),
    ),
    "observation": (
        lambda: RawObservation(landmark_ids=[0, 1], landmark_points=np.ones((2, 2)), landmark_betas=np.ones(2)),
        lambda o: dataclasses.replace(o, image=np.zeros((2, 2, 3), dtype=np.uint8)),
        ("landmark_ids", "landmark_points", "landmark_betas"),
    ),
    "bone-pose": (
        lambda: BonePose(rotations=[[0, 0, 0, 1]], translations=np.ones((1, 3)), scales=np.ones((1, 3))),
        lambda b: BonePose(rotations=b.rotations, translations=b.translations, scales=b.scales),
        ("rotations", "translations", "scales"),
    ),
    "metric": (
        lambda: MetricSeries(name="m", fps=30.0, values=np.ones(4)),
        lambda m: MetricSeries(name=m.name, fps=m.fps, values=m.values),
        ("values",),
    ),
}


@pytest.mark.parametrize("build, rebuild, names", REBUILT.values(), ids=list(REBUILT))
def test_value_rebuilt_from_a_value_shares_its_arrays(build, rebuild, names):
    """A field frozen in its final shape is kept as it is when it is passed
    to a new value, not copied again."""
    value = build()
    again = rebuild(value)
    for name in names:
        assert getattr(again, name) is getattr(value, name), name


def test_value_copies_the_callers_mapping(rng):
    """Rig bindings and lip pairs, map entries and apex overrides hold what
    they validated: writing to what the caller passed afterwards changes none
    of them."""
    bindings = {0: 1}
    pairs = [[0, 1], [2, 3]]
    base = make_rig(rng)
    rig = Rig(neutral=base.neutral, visemes=base.visemes, viseme_labels=base.viseme_labels,
              landmark_bindings=bindings, lip_pairs=pairs)
    entries = {"m": 0}
    vmap = PhonemeVisemeMap(labels=("MBP",), entries=entries)
    overrides = {"MBP": 0.5}
    rules = EnvelopeRules(apex_overrides=overrides)
    bindings[0] = 10**6
    pairs[0][0] = 10**6
    entries["m"] = 7
    overrides["MBP"] = 5.0
    assert rig.landmark_bindings == {0: 1}
    assert rig.lip_pairs == ((0, 1), (2, 3))
    assert vmap.entries == {"m": 0}
    assert rules.apex_overrides == {"MBP": 0.5}
