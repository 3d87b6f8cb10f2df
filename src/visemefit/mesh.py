"""Triangle meshes and the OBJ subset used for rig assets.

The only directives accepted are ``v x y z`` (optionally ``v x y z r g b``),
``f i j k`` with 1-based vertex indices, and ``#`` comments. Anything else is
a parse error: rig assets are generated files, so unknown content means the
wrong file was passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .atomicio import write_text
from .errors import DataError, located
from .frozen import frozen_array
from .records import read_text, split_records


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh with optional per-vertex colors in [0, 1].

    Each array is owned as frozen_array says, so a mesh built from another
    mesh's triangles or colors shares them.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    colors: np.ndarray | None = None

    def __post_init__(self):
        v = frozen_array(self.vertices, np.float64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise DataError(f"vertices must have shape (N, 3), got {v.shape}")
        t = frozen_array(self.triangles, np.int64)
        if t.size == 0:
            t = t.reshape(0, 3)
        if t.ndim != 2 or t.shape[1] != 3:
            raise DataError(f"triangles must have shape (M, 3), got {t.shape}")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise DataError("triangle refers to a vertex index out of range")
        c = self.colors
        if c is not None:
            c = frozen_array(c, np.float64)
            if c.shape != v.shape:
                raise DataError(
                    f"colors shape {c.shape} does not match vertices {v.shape}"
                )
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "colors", c)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)


_VERTEX_FIELDS = ("x", "y", "z", "r", "g", "b")


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
            if vertices and (len(nums) == 6) != bool(colors):
                raise line.error("every vertex or none must have colors; the first vertex decides")
            vertices.append(nums[:3])
            if len(nums) == 6:
                colors.append(nums[3:])
        elif tok[0] == "f":
            if len(tok) != 4:
                raise line.error("faces must be triangles")
            idx = [line.integer(s, "face index") for s in tok[1:]]
            if min(idx) < 1:
                raise line.error("face indices are 1-based")
            triangles.append([i - 1 for i in idx])
        else:
            raise line.error(f"unsupported directive {tok[0]!r}")
    with located(source):
        if not vertices:
            raise DataError("no vertices")
        return Mesh(
            vertices=np.array(vertices, dtype=np.float64),
            triangles=np.array(triangles, dtype=np.int64),
            colors=np.array(colors, dtype=np.float64) if colors else None,
        )


def read_obj(path) -> Mesh:
    return parse_obj(read_text(path, "mesh", encoding="ascii"), source=str(path))


# A baked sequence shares its faces and colors with the neutral mesh, so
# their text is formatted once per distinct array. The key is the array's
# exact bytes: -0.0 and 0.0 stay apart, and a changed array is a new key.
@lru_cache(maxsize=8)
def _face_lines(tri_bytes: bytes) -> tuple[str, ...]:
    tris = np.frombuffer(tri_bytes, dtype=np.int64).reshape(-1, 3) + 1
    return tuple(f"f {i} {j} {k}" for i, j, k in tris.tolist())


@lru_cache(maxsize=8)
def _color_suffixes(color_bytes: bytes) -> tuple[str, ...]:
    colors = np.frombuffer(color_bytes, dtype=np.float64).tolist()
    it = iter(map(repr, colors))
    return tuple(f" {r} {g} {b}" for r, g, b in zip(it, it, it))


def serialize_obj(mesh: Mesh) -> str:
    # repr of a Python float is the shortest string that round-trips exactly
    it = iter(map(repr, mesh.vertices.ravel().tolist()))
    if mesh.colors is None:
        lines = [f"v {x} {y} {z}" for x, y, z in zip(it, it, it)]
    else:
        suffixes = _color_suffixes(mesh.colors.tobytes())
        lines = [f"v {x} {y} {z}{c}" for x, y, z, c in zip(it, it, it, suffixes)]
    lines.extend(_face_lines(mesh.triangles.tobytes()))
    return "\n".join(lines) + "\n"


def write_obj(mesh: Mesh, path) -> None:
    # the OBJ text is ASCII, so write_text's UTF-8 gives the same bytes
    write_text(path, serialize_obj(mesh))
