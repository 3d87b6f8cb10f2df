"""Blendshape rigs: a neutral mesh plus one target mesh per viseme.

Blending is linear in the per-viseme vertex deltas. Weight vectors are plain
float arrays of length V ordered like ``viseme_labels``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .mesh import Mesh, read_obj
from .records import read_text, split_records

# Only the bilabial-closure shape gets a full-amplitude default apex; see
# procedural.default_rules.
DEFAULT_CLOSURE_LABELS = frozenset({"MBP"})


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
    metrics. mouth_landmark_ids marks the landmark ids that get the heavier
    default fitting weight.
    """

    neutral: Mesh
    visemes: tuple[Mesh, ...]
    viseme_labels: tuple[str, ...]
    landmark_bindings: dict[int, int] = field(default_factory=dict)
    lip_pairs: tuple[tuple[int, int], tuple[int, int]] | None = None
    mouth_landmark_ids: frozenset[int] = frozenset()

    def __post_init__(self):
        n = self.neutral.vertex_count
        if len(self.visemes) != len(self.viseme_labels):
            raise DataError("one label per viseme mesh required")
        if len(set(self.viseme_labels)) != len(self.viseme_labels):
            raise DataError("viseme labels must be unique")
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
            for pair in self.lip_pairs:
                for vi in pair:
                    if not 0 <= vi < n:
                        raise DataError(f"lip pair vertex {vi} out of range")
        object.__setattr__(self, "visemes", tuple(self.visemes))
        object.__setattr__(self, "viseme_labels", tuple(str(s) for s in self.viseme_labels))
        object.__setattr__(self, "mouth_landmark_ids", frozenset(self.mouth_landmark_ids))
        # deltas cached eagerly; every fit iteration reads them
        deltas = np.stack([m.vertices - self.neutral.vertices for m in self.visemes])
        deltas.setflags(write=False)
        object.__setattr__(self, "_deltas", deltas)

    @property
    def viseme_count(self) -> int:
        return len(self.visemes)

    @property
    def deltas(self) -> np.ndarray:
        """(V, N, 3) per-viseme vertex offsets from neutral."""
        return self._deltas

    def label_index(self, label: str) -> int:
        try:
            return self.viseme_labels.index(label)
        except ValueError:
            raise DataError(f"rig has no viseme labeled {label!r}")


def check_weights(rig: Rig, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape[0] != rig.viseme_count:
        raise DataError(f"weight vector has {w.shape[0]} entries, rig has {rig.viseme_count} visemes")
    return w


def blend_vertices(rig: Rig, weights) -> np.ndarray:
    """Neutral vertices plus the weighted sum of viseme deltas, shape (N, 3)."""
    w = check_weights(rig, weights)
    flat = rig.deltas.reshape(rig.viseme_count, -1)
    return rig.neutral.vertices + (w @ flat).reshape(-1, 3)


def blend_mesh(rig: Rig, weights) -> Mesh:
    """blend_vertices wrapped in a Mesh carrying the neutral's topology and colors."""
    return Mesh(
        vertices=blend_vertices(rig, weights),
        triangles=rig.neutral.triangles,
        colors=rig.neutral.colors,
    )


def bake_mesh_sequence(rig: Rig, curve) -> list[Mesh]:
    """One blended mesh per curve frame."""
    if curve.weights.shape[1] != rig.viseme_count:
        raise DataError(
            f"curve has {curve.weights.shape[1]} visemes, rig has {rig.viseme_count}"
        )
    return [blend_mesh(rig, curve.weights[j]) for j in range(curve.weights.shape[0])]


def load_rig(
    neutral_path,
    viseme_paths,
    labels,
    bindings=None,
    lip_pairs=None,
    mouth_ids=(),
) -> Rig:
    return Rig(
        neutral=read_obj(neutral_path),
        visemes=tuple(read_obj(p) for p in viseme_paths),
        viseme_labels=tuple(labels),
        landmark_bindings=dict(bindings or {}),
        lip_pairs=lip_pairs,
        mouth_landmark_ids=frozenset(mouth_ids),
    )


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
    for line in records.body:
        key, value = line.key_value()
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
            bindings[line.integer(key[1:], "landmark id")] = line.integer(value, key)
        else:
            raise line.error(f"unknown manifest key {key!r}")
    if neutral_path is None:
        raise DataError(f"{path}: manifest has no neutral entry")
    if not viseme_paths:
        raise DataError(f"{path}: manifest lists no visemes")
    lip_pairs = None
    if lip_h is not None or lip_v is not None:
        if lip_h is None or lip_v is None:
            raise DataError(f"{path}: lip_horizontal and lip_vertical must both be given")
        lip_pairs = (lip_h, lip_v)
    return load_rig(neutral_path, viseme_paths, labels, bindings, lip_pairs, mouth_ids)
