import numpy as np
import pytest

from visemefit.curves import Curve
from visemefit.errors import DataError
from visemefit.mesh import Mesh, write_obj
from visemefit.rig import (
    Rig,
    bake_mesh_sequence,
    blend_mesh,
    blend_vertices,
    check_weights,
    default_viseme_labels,
    load_rig_manifest,
    write_rig,
)
from visemefit.synthetic import build_scene

from conftest import make_rig


def test_default_viseme_labels():
    labels = default_viseme_labels(16)
    assert labels[:3] == ("MBP", "SSS", "WWW")
    assert labels[3] == "V04" and labels[-1] == "V16"
    assert len(set(labels)) == 16
    assert default_viseme_labels(2) == ("MBP", "SSS")


def test_zero_weights_is_neutral(tiny_rig):
    out = blend_vertices(tiny_rig, np.zeros(tiny_rig.viseme_count))
    np.testing.assert_array_equal(out, tiny_rig.neutral.vertices)


def test_one_hot_reproduces_each_viseme(tiny_rig):
    for i, target in enumerate(tiny_rig.visemes):
        w = np.zeros(tiny_rig.viseme_count)
        w[i] = 1.0
        np.testing.assert_allclose(blend_vertices(tiny_rig, w), target.vertices, atol=1e-12)


def test_blend_is_linear_in_deltas(rng, tiny_rig):
    w1 = rng.uniform(0, 1, tiny_rig.viseme_count)
    w2 = rng.uniform(0, 1, tiny_rig.viseme_count)
    neutral = tiny_rig.neutral.vertices
    lhs = blend_vertices(tiny_rig, 2.0 * w1 - 0.5 * w2) - neutral
    rhs = 2.0 * (blend_vertices(tiny_rig, w1) - neutral) - 0.5 * (
        blend_vertices(tiny_rig, w2) - neutral
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_blend_mesh_keeps_topology_and_colors(tiny_rig):
    m = blend_mesh(tiny_rig, np.full(tiny_rig.viseme_count, 0.3))
    # shared, not copied: every baked mesh of a clip carries the same arrays
    assert m.triangles is tiny_rig.neutral.triangles
    assert m.colors is tiny_rig.neutral.colors


def test_check_weights_rejects_wrong_length(tiny_rig):
    with pytest.raises(DataError):
        check_weights(tiny_rig, np.zeros(tiny_rig.viseme_count + 1))


def test_deltas_match_mesh_differences_and_are_readonly(tiny_rig):
    for i, m in enumerate(tiny_rig.visemes):
        np.testing.assert_array_equal(
            tiny_rig.deltas[i], m.vertices - tiny_rig.neutral.vertices
        )
    with pytest.raises(ValueError):
        tiny_rig.deltas[0, 0, 0] = 1.0


def test_label_index(tiny_rig):
    assert tiny_rig.label_index("SSS") == 1
    with pytest.raises(DataError):
        tiny_rig.label_index("nope")


def test_rig_validation(rng):
    rig = make_rig(rng)
    neutral, visemes = rig.neutral, rig.visemes
    with pytest.raises(DataError):
        Rig(neutral=neutral, visemes=visemes, viseme_labels=("A", "B"))
    with pytest.raises(DataError):
        Rig(neutral=neutral, visemes=visemes, viseme_labels=("A", "A", "B"))
    with pytest.raises(DataError):
        Rig(neutral=neutral, visemes=(), viseme_labels=())
    short = Mesh(vertices=neutral.vertices[:-1], triangles=np.array([[0, 1, 2]]))
    with pytest.raises(DataError):
        Rig(neutral=neutral, visemes=(short,), viseme_labels=("A",))
    retri = Mesh(vertices=visemes[0].vertices, triangles=neutral.triangles[::-1])
    with pytest.raises(DataError):
        Rig(neutral=neutral, visemes=(retri,), viseme_labels=("A",))
    with pytest.raises(DataError):
        Rig(
            neutral=neutral,
            visemes=visemes[:1],
            viseme_labels=("A",),
            landmark_bindings={0: 99},
        )
    with pytest.raises(DataError):
        Rig(
            neutral=neutral,
            visemes=visemes[:1],
            viseme_labels=("A",),
            lip_pairs=((0, 99), (1, 2)),
        )
    # lip_pairs is exactly two pairs of vertex indices
    for bad in (((0, 1),), ((0, 1), (2, 3), (4, 5)), ((0, 1), (2, 3, 4)), ((0, 1), (2, 3.0)), (0, 1)):
        with pytest.raises(DataError, match="two \\(vertex, vertex\\) index pairs"):
            Rig(neutral=neutral, visemes=visemes[:1], viseme_labels=("A",), lip_pairs=bad)


def test_rig_names_its_repeated_label(rng):
    """The label rule curves apply: the error names the first label repeated."""
    rig = make_rig(rng)
    with pytest.raises(DataError, match="^repeated viseme label 'MBP'$"):
        Rig(neutral=rig.neutral, visemes=rig.visemes, viseme_labels=("SSS", "MBP", "MBP"))


def test_bake_mesh_sequence(tiny_rig, rng):
    curve = Curve(
        fps=30.0,
        labels=tiny_rig.viseme_labels,
        weights=rng.uniform(0, 1, (4, tiny_rig.viseme_count)),
    )
    seq = bake_mesh_sequence(tiny_rig, curve)
    assert len(seq) == 4
    np.testing.assert_allclose(
        seq[2].vertices, blend_vertices(tiny_rig, curve.weights[2]), atol=1e-12
    )
    bad = Curve(fps=30.0, labels=("A", "B"), weights=np.zeros((2, 2)))
    with pytest.raises(DataError):
        bake_mesh_sequence(tiny_rig, bad)


def _write_rig_files(rig, dirpath):
    write_obj(rig.neutral, dirpath / "neutral.obj")
    lines = ["neutral=neutral.obj"]
    for label, mesh in zip(rig.viseme_labels, rig.visemes):
        write_obj(mesh, dirpath / f"{label}.obj")
        lines.append(f"viseme.{label}={label}.obj")
    for lid, vi in sorted(rig.landmark_bindings.items()):
        lines.append(f"L{lid}={vi}")
    lines += ["lip_horizontal=0,1", "lip_vertical=2,3", "mouth=1,3"]
    (dirpath / "rig.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return dirpath / "rig.txt"


def test_manifest_roundtrip(rng, tmp_path):
    rig = make_rig(rng)
    path = _write_rig_files(rig, tmp_path)
    loaded = load_rig_manifest(path)
    assert loaded.viseme_labels == rig.viseme_labels
    assert loaded.landmark_bindings == rig.landmark_bindings
    assert loaded.lip_pairs == ((0, 1), (2, 3))
    assert loaded.mouth_landmark_ids == frozenset({1, 3})
    # OBJ text is fixed-point; reload once more to confirm a stable fixpoint
    np.testing.assert_allclose(loaded.neutral.vertices, rig.neutral.vertices, atol=5e-7)
    again = load_rig_manifest(path)
    np.testing.assert_array_equal(again.neutral.vertices, loaded.neutral.vertices)
    np.testing.assert_array_equal(again.deltas, loaded.deltas)


def test_manifest_errors(rng, tmp_path):
    rig = make_rig(rng)
    path = _write_rig_files(rig, tmp_path)
    text = path.read_text(encoding="utf-8")

    def variant(name, mutate):
        p = tmp_path / name
        p.write_text(mutate(text), encoding="utf-8")
        return p

    with pytest.raises(DataError):
        load_rig_manifest(tmp_path / "missing.txt")
    with pytest.raises(DataError):
        load_rig_manifest(variant("no_neutral.txt", lambda t: t.replace("neutral=neutral.obj\n", "")))
    with pytest.raises(DataError):
        load_rig_manifest(variant("no_visemes.txt", lambda t: "neutral=neutral.obj\n"))
    with pytest.raises(DataError):
        load_rig_manifest(variant("bad_key.txt", lambda t: t + "wat=1\n"))
    with pytest.raises(DataError):
        load_rig_manifest(variant("bare_line.txt", lambda t: t + "justtext\n"))
    with pytest.raises(DataError):
        load_rig_manifest(variant("half_lips.txt", lambda t: t.replace("lip_vertical=2,3\n", "")))
    with pytest.raises(DataError):
        load_rig_manifest(variant("bad_pair.txt", lambda t: t.replace("lip_horizontal=0,1", "lip_horizontal=0")))
    with pytest.raises(DataError):
        load_rig_manifest(variant("bad_binding.txt", lambda t: t.replace("L0=0", "L0=zero")))
    with pytest.raises(DataError):
        load_rig_manifest(variant("empty_label.txt", lambda t: t + "viseme.=x.obj\n"))


def test_manifest_comments_and_blanks_ignored(rng, tmp_path):
    rig = make_rig(rng)
    path = _write_rig_files(rig, tmp_path)
    text = "# rig manifest\n\n" + path.read_text(encoding="utf-8")
    path.write_text(text, encoding="utf-8")
    loaded = load_rig_manifest(path)
    assert loaded.viseme_labels == rig.viseme_labels


def _assert_same_rig(a, b):
    assert a.viseme_labels == b.viseme_labels
    assert a.landmark_bindings == b.landmark_bindings
    assert a.lip_pairs == b.lip_pairs
    assert a.mouth_landmark_ids == b.mouth_landmark_ids
    for x, y in zip((a.neutral, *a.visemes), (b.neutral, *b.visemes)):
        np.testing.assert_array_equal(x.vertices, y.vertices)
        np.testing.assert_array_equal(x.triangles, y.triangles)
    np.testing.assert_array_equal(a.neutral.colors, b.neutral.colors)


def test_write_rig_output_rebuilds_the_rig(rng, tmp_path):
    """load_rig_manifest of write_rig's files gives back the synth rig, and a
    rig without lip pairs, exactly."""
    scene_rig = build_scene(seed=7, n_frames=2).rig
    _assert_same_rig(load_rig_manifest(write_rig(scene_rig, tmp_path / "synth")), scene_rig)
    plain = make_rig(rng)
    assert plain.lip_pairs is None
    _assert_same_rig(load_rig_manifest(write_rig(plain, tmp_path / "plain")), plain)
