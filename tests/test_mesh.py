import numpy as np
import pytest

from visemefit.errors import DataError
from visemefit.mesh import Mesh, parse_obj, read_obj, serialize_obj, write_obj

OBJ_SNIPPET = """\
# comment line
v 0.0 0.0 1.0
v 1.0 0.0 1.0
v 0.5 1.0 1.5
f 1 2 3
"""


def test_parse_basic_obj():
    m = parse_obj(OBJ_SNIPPET)
    assert m.vertex_count == 3
    np.testing.assert_allclose(m.vertices[2], [0.5, 1.0, 1.5])
    np.testing.assert_array_equal(m.triangles, [[0, 1, 2]])
    assert m.colors is None


def test_parse_vertex_colors():
    text = "v 0 0 1 0.2 0.4 0.6\nv 1 0 1 0.1 0.1 0.1\nv 0 1 1 0.9 0.8 0.7\nf 1 2 3\n"
    m = parse_obj(text)
    np.testing.assert_allclose(m.colors[0], [0.2, 0.4, 0.6])


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("v 0 0 1 0.2 0.4 0.6\nv 1 0 1\nv 0 1 1 0.9 0.8 0.7\nf 1 2 3\n", 2),
        ("v 0 0 1\nv 1 0 1\nv 0 1 1 0.9 0.8 0.7\nf 1 2 3\n", 3),
    ],
    ids=["uncolored-after-colored", "colored-after-uncolored"],
)
def test_parse_rejects_mixed_vertex_colors_at_their_line(text, lineno):
    with pytest.raises(DataError) as err:
        parse_obj(text, source="m.obj")
    assert str(err.value) == (
        f"m.obj:{lineno}: every vertex or none must have colors; the first vertex decides"
    )


def test_parse_rejects_slash_faces():
    # only the plain-integer face form is part of the accepted subset
    text = "v 0 0 1\nv 1 0 1\nv 0 1 1\nf 1/1 2/2 3/3\n"
    with pytest.raises(DataError):
        parse_obj(text)


@pytest.mark.parametrize(
    "bad",
    [
        "v 0 0\n",  # short vertex
        "v a b c\n",  # non-numeric
        "v 0 0 1\nf 1 2 5\n",  # face index out of range
        "v 0 0 1\nv 1 0 1\nv 0 1 1\nf 1 2\n",  # short face
        "v 0 0 1\nv 1 0 1\nv 0 1 1\nf 0 1 2\n",  # obj is 1-based
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(DataError):
        parse_obj(bad)


def test_roundtrip_preserves_values(rng, tmp_path):
    verts = rng.normal(0.0, 1.0, (10, 3))
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    colors = rng.uniform(0.0, 1.0, (10, 3))
    m = Mesh(vertices=verts, triangles=tris, colors=colors)
    path = tmp_path / "m.obj"
    write_obj(m, path)
    back = read_obj(path)
    # serializer keeps full float precision via repr
    np.testing.assert_array_equal(back.vertices, m.vertices)
    np.testing.assert_array_equal(back.triangles, m.triangles)
    np.testing.assert_array_equal(back.colors, m.colors)


def test_serialize_parse_identity_twice(rng):
    m = Mesh(
        vertices=rng.normal(0.0, 2.0, (6, 3)),
        triangles=np.array([[0, 1, 2]]),
    )
    once = serialize_obj(parse_obj(serialize_obj(m)))
    assert once == serialize_obj(m)


def test_quad_faces_are_rejected():
    text = "v 0 0 1\nv 1 0 1\nv 1 1 1\nv 0 1 1\nf 1 2 3 4\n"
    with pytest.raises(DataError):
        parse_obj(text)


def test_mesh_validation():
    with pytest.raises(DataError):
        Mesh(vertices=np.zeros((3, 2)), triangles=np.array([[0, 1, 2]]))
    with pytest.raises(DataError):
        Mesh(vertices=np.zeros((3, 3)), triangles=np.array([[0, 1, 9]]))
    with pytest.raises(DataError):
        Mesh(
            vertices=np.zeros((3, 3)),
            triangles=np.array([[0, 1, 2]]),
            colors=np.zeros((2, 3)),
        )


def _reference_obj(mesh: Mesh) -> str:
    """serialize_obj written out float by float, as the reference."""
    lines = []
    for i, (x, y, z) in enumerate(mesh.vertices):
        nums = [x, y, z] if mesh.colors is None else [x, y, z, *mesh.colors[i]]
        lines.append("v " + " ".join(repr(float(v)) for v in nums))
    for i, j, k in mesh.triangles:
        lines.append(f"f {i + 1} {j + 1} {k + 1}")
    return "\n".join(lines) + "\n"


EDGE_VALUES = np.array([-0.0, 0.0, 1e-05, 1e16, 5e-324, -1.5, 0.1])


@pytest.mark.parametrize("colored", [False, True])
@pytest.mark.parametrize("tris", [np.array([[0, 1, 2], [6, 5, 4]]), np.zeros((0, 3), dtype=int)])
def test_serialize_obj_matches_reference(colored, tris):
    verts = np.stack([EDGE_VALUES, np.roll(EDGE_VALUES, 1), np.roll(EDGE_VALUES, 2)], axis=1)
    colors = np.roll(verts, 3, axis=0) if colored else None
    m = Mesh(vertices=verts, triangles=tris, colors=colors)
    assert serialize_obj(m) == _reference_obj(m)


def test_serialize_obj_alternating_meshes_match_reference(rng):
    # same shapes and values up to the sign of a zero, so a face or color
    # text keyed by anything but the exact array bytes gets served stale
    verts = rng.normal(0.0, 1.0, (4, 3))
    colors_a = np.zeros((4, 3))
    colors_b = colors_a.copy()
    colors_b[2, 1] = -0.0
    meshes = [
        Mesh(vertices=verts, triangles=np.array([[0, 1, 2]]), colors=colors_a),
        Mesh(vertices=verts, triangles=np.array([[1, 2, 3]]), colors=colors_b),
        Mesh(vertices=verts, triangles=np.array([[0, 1, 2]])),
    ]
    for _ in range(3):
        for m in meshes:
            assert serialize_obj(m) == _reference_obj(m)
    # meshes built and dropped one after another: a freed array's id is
    # often reused by the next one, which has other faces and colors
    for i in range(12):
        m = Mesh(
            vertices=verts,
            triangles=np.array([[i % 4, (i + 1) % 4, (i + 2) % 4]]),
            colors=np.full((4, 3), i / 10.0),
        )
        assert serialize_obj(m) == _reference_obj(m)
        del m
