"""Blendshape rigs: a neutral mesh plus one target mesh per viseme.

Blending is linear in the per-viseme vertex deltas. Weight vectors are plain
float arrays of length V ordered like ``viseme_labels``; ``Curve.blocks``,
the one binder, binds a curve's columns to that order by label.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .atomicio import make_dirs, write_text
from .curves import check_unique_labels
from .errors import DataError, located
from .frozen import frozen_array
from .mesh import Mesh, read_obj, write_obj
from .records import read_text, split_records


def default_viseme_labels(count: int = 16) -> tuple[str, ...]:
    """Placeholder label set: three conventional names, numbered slots after."""
    base = ["MBP", "SSS", "WWW"]
    if count < len(base):
        return tuple(base[:count])
    return tuple(base + [f"V{i:02d}" for i in range(len(base) + 1, count + 1)])


@dataclass(frozen=True)
class Rig:
    """Neutral mesh, viseme target meshes, landmark bindings, lip pairs.

    landmark_bindings maps landmark id -> vertex index. lip_pairs holds two
    vertex-index pairs (horizontal, vertical) used by the lip-distance
    metrics. mouth_landmark_ids lists the landmark ids around the mouth; only
    ``eval --mouth-only`` reads it (the fit weights each landmark by its
    observed beta). The visemes, labels, bindings, lip pairs and mouth ids
    are copied and the cached deltas are owned as frozen_array says, so later
    writes to what the caller passed change no rig. source names the
    manifest a rig was loaded from, for errors found later, such as missing
    lip pairs.
    """

    neutral: Mesh
    visemes: tuple[Mesh, ...]
    viseme_labels: tuple[str, ...]
    landmark_bindings: dict[int, int] = field(default_factory=dict)
    lip_pairs: tuple[tuple[int, int], tuple[int, int]] | None = None
    mouth_landmark_ids: frozenset[int] = frozenset()
    source: str | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "visemes", tuple(self.visemes))
        object.__setattr__(self, "viseme_labels", tuple(str(s) for s in self.viseme_labels))
        object.__setattr__(self, "landmark_bindings", dict(self.landmark_bindings))
        object.__setattr__(self, "mouth_landmark_ids", frozenset(self.mouth_landmark_ids))
        n = self.neutral.vertex_count
        if len(self.visemes) != len(self.viseme_labels):
            raise DataError("one label per viseme mesh required")
        check_unique_labels(self.viseme_labels)
        if not self.visemes:
            raise DataError("rig needs at least one viseme")
        for label, m in zip(self.viseme_labels, self.visemes):
            if m.vertex_count != n:
                raise DataError(
                    f"viseme {label!r} has {m.vertex_count} vertices, neutral has {n}"
                )
            if m.triangles.shape != self.neutral.triangles.shape or not np.array_equal(
                m.triangles, self.neutral.triangles
            ):
                raise DataError(f"viseme {label!r} triangle list differs from neutral")
        for lid, vi in self.landmark_bindings.items():
            if not 0 <= vi < n:
                raise DataError(f"landmark L{lid} bound to out-of-range vertex {vi}")
        if self.lip_pairs is not None:
            try:
                pairs = tuple((operator.index(a), operator.index(b)) for a, b in self.lip_pairs)
            except (TypeError, ValueError):
                pairs = ()
            if len(pairs) != 2:
                raise DataError("lip_pairs must be two (vertex, vertex) index pairs")
            for vi in pairs[0] + pairs[1]:
                if not 0 <= vi < n:
                    raise DataError(f"lip pair vertex {vi} out of range")
            object.__setattr__(self, "lip_pairs", pairs)
        # deltas cached eagerly; every fit iteration reads them
        deltas = np.stack([m.vertices - self.neutral.vertices for m in self.visemes])
        object.__setattr__(self, "_deltas", frozen_array(deltas, np.float64))

    @property
    def viseme_count(self) -> int:
        return len(self.visemes)

    @property
    def deltas(self) -> np.ndarray:
        """(V, N, 3) per-viseme vertex offsets from neutral."""
        return self._deltas

    def landmark_rows(self, landmark_ids, subset=None) -> tuple[np.ndarray, np.ndarray]:
        """Which observed landmarks count: the rows of landmark_ids whose id the
        rig binds (and subset holds, when given), in observation order, and
        the vertex index each of those ids is bound to."""
        bound = self.landmark_bindings
        ids = np.asarray(landmark_ids).tolist()
        rows = [i for i, lid in enumerate(ids) if lid in bound and (subset is None or lid in subset)]
        return np.array(rows, dtype=np.int64), np.array([bound[ids[i]] for i in rows], dtype=np.int64)

    def label_index(self, label: str) -> int:
        try:
            return self.viseme_labels.index(label)
        except ValueError:
            raise DataError(f"rig has no viseme labeled {label!r}")


def blend_vertices(rig: Rig, weights) -> np.ndarray:
    """Neutral vertices plus the weighted sum of viseme deltas, shape (N, 3);
    weights is one float64 row ordered like the rig's visemes."""
    flat = rig.deltas.reshape(rig.viseme_count, -1)
    return rig.neutral.vertices + (weights @ flat).reshape(-1, 3)


def blend_mesh(rig: Rig, weights) -> Mesh:
    """blend_vertices wrapped in a Mesh carrying the neutral's topology and colors."""
    return Mesh(
        vertices=blend_vertices(rig, weights),
        triangles=rig.neutral.triangles,
        colors=rig.neutral.colors,
    )


def bake_mesh_sequence(rig: Rig, weights) -> list[Mesh]:
    """One blended mesh per row of weights (frames, V), as Curve.blocks binds
    a curve to the rig's visemes."""
    return [blend_mesh(rig, w) for w in weights]


def _parse_pair(line, key: str, value: str) -> tuple[int, int]:
    parts = value.split(",")
    if len(parts) != 2:
        raise line.error(f"{key} needs two comma-separated vertex indices")
    return line.integer(parts[0], key), line.integer(parts[1], key)


def load_rig_manifest(path) -> Rig:
    """Parse a rig manifest.

    Key-value lines: ``neutral=<obj>``, one ``viseme.<LABEL>=<obj>`` per
    viseme (file order defines the weight order), ``L<id>=<vertex>`` landmark
    bindings, optional ``lip_horizontal``/``lip_vertical`` vertex pairs and a
    ``mouth=<id,id,...>`` list of landmark ids. Mesh paths are relative to the
    manifest's directory.
    """
    records = split_records(read_text(path, "rig manifest"), str(path))
    base = os.path.dirname(os.path.abspath(path))

    neutral_path = None
    viseme_paths: list[str] = []
    labels: list[str] = []
    bindings: dict[int, int] = {}
    lip_h = lip_v = None
    mouth_ids: list[int] = []
    for line, key, value in records.key_values("manifest"):
        if key == "neutral":
            neutral_path = os.path.join(base, value)
        elif key.startswith("viseme."):
            label = key[len("viseme."):]
            if not label:
                raise line.error("empty viseme label")
            labels.append(label)
            viseme_paths.append(os.path.join(base, value))
        elif key == "lip_horizontal":
            lip_h = _parse_pair(line, key, value)
        elif key == "lip_vertical":
            lip_v = _parse_pair(line, key, value)
        elif key == "mouth":
            if value:
                mouth_ids = [line.integer(s, key) for s in value.split(",")]
        elif key.startswith("L"):
            lid = line.integer(key[1:], "landmark id")
            if lid in bindings:
                raise line.error(f"duplicate binding for landmark {lid}")
            bindings[lid] = line.integer(value, key)
        else:
            raise line.error(f"unknown manifest key {key!r}")
    if neutral_path is None:
        raise records.error("manifest has no neutral entry")
    if not viseme_paths:
        raise records.error("manifest lists no visemes")
    if (lip_h is None) != (lip_v is None):
        raise records.error("lip_horizontal and lip_vertical must both be given")
    # read outside located(path): a mesh error names the mesh's own file
    neutral, *visemes = [read_obj(p) for p in [neutral_path, *viseme_paths]]
    with located(path):
        return Rig(neutral, visemes, labels, bindings,
                   None if lip_h is None else (lip_h, lip_v), mouth_ids, str(path))


def write_rig(rig: Rig, rig_dir) -> str:
    """Write rig into rig_dir in the layout load_rig_manifest reads: its
    meshes as neutral.obj and <LABEL>.obj, and the manifest rig.txt, whose
    path is returned."""
    make_dirs(rig_dir)
    write_obj(rig.neutral, os.path.join(rig_dir, "neutral.obj"))
    lines = ["neutral=neutral.obj"]
    for label, mesh in zip(rig.viseme_labels, rig.visemes):
        write_obj(mesh, os.path.join(rig_dir, f"{label}.obj"))
        lines.append(f"viseme.{label}={label}.obj")
    lines += [f"L{lid}={vi}" for lid, vi in sorted(rig.landmark_bindings.items())]
    for key, (a, b) in zip(("lip_horizontal", "lip_vertical"), rig.lip_pairs or ()):
        lines.append(f"{key}={a},{b}")
    lines.append("mouth=" + ",".join(str(i) for i in sorted(rig.mouth_landmark_ids)))
    manifest = os.path.join(rig_dir, "rig.txt")
    write_text(manifest, "\n".join(lines) + "\n")
    return manifest
