"""Triangle meshes and the OBJ subset used for rig assets.

The only directives accepted are ``v x y z`` (optionally ``v x y z r g b``),
``f i j k`` with 1-based vertex indices, and ``#`` comments. Anything else is
a parse error: rig assets are generated files, so unknown content means the
wrong file was passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .records import read_text, split_records


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh with optional per-vertex colors in [0, 1]."""

    vertices: np.ndarray
    triangles: np.ndarray
    colors: np.ndarray | None = None

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise DataError(f"vertices must have shape (N, 3), got {v.shape}")
        t = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        if t.size == 0:
            t = t.reshape(0, 3)
        if t.ndim != 2 or t.shape[1] != 3:
            raise DataError(f"triangles must have shape (M, 3), got {t.shape}")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise DataError("triangle refers to a vertex index out of range")
        c = self.colors
        if c is not None:
            c = np.ascontiguousarray(np.asarray(c, dtype=np.float64))
            if c.shape != v.shape:
                raise DataError(
                    f"colors shape {c.shape} does not match vertices {v.shape}"
                )
        for arr in (v, t, c):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "colors", c)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


_VERTEX_FIELDS = ("x", "y", "z", "r", "g", "b")


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest string that round-trips exactly
    return repr(float(x))


def parse_obj(text: str, source: str = "<obj>") -> Mesh:
    vertices = []
    colors = []
    triangles = []
    for line in split_records(text, source).body:
        tok = line.text.split()
        if tok[0] == "v":
            if len(tok) not in (4, 7):
                raise line.error(f"vertex needs 3 or 6 numbers, got {len(tok) - 1}")
            nums = line.numbers(tok[1:], _VERTEX_FIELDS[: len(tok) - 1])
            vertices.append(nums[:3])
            if len(nums) == 6:
                colors.append(nums[3:])
            elif colors:
                raise line.error("some vertices have colors, this one does not")
        elif tok[0] == "f":
            if len(tok) != 4:
                raise line.error("faces must be triangles")
            idx = [line.integer(s, "face index") for s in tok[1:]]
            if min(idx) < 1:
                raise line.error("face indices are 1-based")
            triangles.append([i - 1 for i in idx])
        else:
            raise line.error(f"unsupported directive {tok[0]!r}")
    if colors and len(colors) != len(vertices):
        raise DataError(f"{source}: {len(colors)} colored of {len(vertices)} vertices")
    if not vertices:
        raise DataError(f"{source}: no vertices")
    return Mesh(
        vertices=np.array(vertices, dtype=np.float64),
        triangles=np.array(triangles, dtype=np.int64).reshape(-1, 3),
        colors=np.array(colors, dtype=np.float64) if colors else None,
    )


def read_obj(path) -> Mesh:
    return parse_obj(read_text(path, "mesh", encoding="ascii"), source=str(path))


def serialize_obj(mesh: Mesh) -> str:
    lines = []
    if mesh.colors is None:
        for x, y, z in mesh.vertices:
            lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}")
    else:
        for (x, y, z), (r, g, b) in zip(mesh.vertices, mesh.colors):
            lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)} {_fmt(r)} {_fmt(g)} {_fmt(b)}")
    for i, j, k in mesh.triangles:
        lines.append(f"f {i + 1} {j + 1} {k + 1}")
    return "\n".join(lines) + "\n"


def write_obj(mesh: Mesh, path) -> None:
    from .atomicio import atomic_path

    with atomic_path(path) as tmp:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(serialize_obj(mesh))
