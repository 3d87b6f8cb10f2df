"""Per-frame observations: 2D landmarks, an RGB frame, optical flow.

On disk an observation directory holds ``landmarks.csv``
(``frame,landmark_id,x,y,beta`` rows), frames as ``NNNNNN.ppm`` and flow pairs
as ``NNNNNN.flo`` (the pair frame N-1 -> N). Any piece may be absent; fitting
degrades gracefully.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .flow import read_flow_pair
from .images import read_ppm
from .records import read_text, split_records


@dataclass
class RawObservation:
    """Observation for one frame before flow screening.

    landmark arrays are parallel: ids (L,), points (L, 2), betas (L,).
    flow holds the (forward, backward) grids for the pair ending at this
    frame, or None.
    """

    landmark_ids: np.ndarray
    landmark_points: np.ndarray
    landmark_betas: np.ndarray
    image: np.ndarray | None = None
    flow: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        self.landmark_ids = np.asarray(self.landmark_ids, dtype=np.int64).reshape(-1)
        self.landmark_points = np.asarray(self.landmark_points, dtype=np.float64).reshape(-1, 2)
        self.landmark_betas = np.asarray(self.landmark_betas, dtype=np.float64).reshape(-1)
        nl = len(self.landmark_ids)
        if self.landmark_points.shape[0] != nl or self.landmark_betas.shape[0] != nl:
            raise DataError("landmark id/point/beta arrays must be the same length")
        if nl and self.landmark_betas.min() <= 0:
            raise DataError("landmark betas must be positive")


@dataclass
class FrameObservation:
    """RawObservation after flow screening: displacements tied to rig vertices."""

    landmark_ids: np.ndarray
    landmark_points: np.ndarray
    landmark_betas: np.ndarray
    image: np.ndarray | None = None
    flow_vertices: np.ndarray | None = None
    flow_displacements: np.ndarray | None = None


def empty_raw() -> RawObservation:
    return RawObservation(
        landmark_ids=np.zeros(0, dtype=np.int64),
        landmark_points=np.zeros((0, 2)),
        landmark_betas=np.zeros(0),
    )


def parse_landmarks(text: str, source: str = "<landmarks>") -> dict[int, RawObservation]:
    """Landmark CSV to {frame: RawObservation} (images and flow left unset)."""
    per_frame: dict[int, list[tuple[int, float, float, float]]] = {}
    saw_header = False
    for line in split_records(text, source).body:
        cols = line.text.split(",")
        if not saw_header and cols[0] == "frame":
            saw_header = True
            continue
        if len(cols) != 5:
            raise line.error(f"expected 5 columns, got {len(cols)}")
        frame = line.integer(cols[0], "frame")
        lid = line.integer(cols[1], "landmark_id")
        x, y, beta = line.numbers(cols[2:], ("x", "y", "beta"))
        if frame < 0:
            raise line.error("negative frame index")
        if beta <= 0:
            raise line.error("beta must be positive")
        per_frame.setdefault(frame, []).append((lid, x, y, beta))
    out: dict[int, RawObservation] = {}
    for frame, rows in per_frame.items():
        out[frame] = RawObservation(
            landmark_ids=np.array([r[0] for r in rows], dtype=np.int64),
            landmark_points=np.array([[r[1], r[2]] for r in rows]),
            landmark_betas=np.array([r[3] for r in rows]),
        )
    return out


def read_landmarks(path) -> dict[int, RawObservation]:
    return parse_landmarks(read_text(path, "landmarks"), source=str(path))


def serialize_landmarks(frames: dict[int, RawObservation]) -> str:
    lines = ["frame,landmark_id,x,y,beta"]
    for frame in sorted(frames):
        obs = frames[frame]
        for lid, (x, y), b in zip(obs.landmark_ids, obs.landmark_points, obs.landmark_betas):
            lines.append(f"{frame},{int(lid)},{float(x)!r},{float(y)!r},{float(b)!r}")
    return "\n".join(lines) + "\n"


def frame_image_name(frame: int) -> str:
    return f"{frame:06d}.ppm"


def frame_flow_name(frame: int) -> str:
    return f"{frame:06d}.flo"


class ObservationDir:
    """Lazy per-frame loader over an observation directory.

    Landmark rows are read once; images and flow pairs are loaded on access so
    long clips do not need the whole sequence in memory.
    """

    def __init__(self, path):
        self.path = str(path)
        if not os.path.isdir(self.path):
            raise DataError(f"observation directory {self.path} does not exist")
        lm_path = os.path.join(self.path, "landmarks.csv")
        self._landmarks: dict[int, RawObservation] = {}
        if os.path.exists(lm_path):
            self._landmarks = read_landmarks(lm_path)
        n = max(self._landmarks, default=-1) + 1
        for name in os.listdir(self.path):
            stem, ext = os.path.splitext(name)
            if ext in (".ppm", ".flo") and stem.isdigit():
                n = max(n, int(stem) + 1)
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, frame: int) -> RawObservation:
        if not 0 <= frame < self._n:
            raise IndexError(frame)
        base = self._landmarks.get(frame)
        obs = RawObservation(
            landmark_ids=base.landmark_ids if base else np.zeros(0, dtype=np.int64),
            landmark_points=base.landmark_points if base else np.zeros((0, 2)),
            landmark_betas=base.landmark_betas if base else np.zeros(0),
        )
        img_path = os.path.join(self.path, frame_image_name(frame))
        if os.path.exists(img_path):
            obs.image = read_ppm(img_path)
        flow_path = os.path.join(self.path, frame_flow_name(frame))
        if frame > 0 and os.path.exists(flow_path):
            obs.flow = read_flow_pair(flow_path)
        return obs

    def get(self, frame: int) -> RawObservation | None:
        if not 0 <= frame < self._n:
            return None
        return self[frame]
