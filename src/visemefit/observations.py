"""Per-frame observations: 2D landmarks, an RGB frame, optical flow.

On disk an observation directory holds ``landmarks.csv``
(``frame,landmark_id,x,y,beta`` rows), frames as ``NNNNNN.ppm`` and flow pairs
as ``NNNNNN.flo`` (the pair frame N-1 -> N). Any piece may be absent; fitting
degrades gracefully. Every frame and flow grid of one clip has one size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .flow import read_flow_pair
from .frozen import frozen_array
from .images import read_ppm
from .records import read_text, split_records


@dataclass(frozen=True, eq=False)
class RawObservation:
    """Observation for one frame, the input of a FrameProblem.

    landmark arrays are parallel: ids (L,), points (L, 2), betas (L,); they
    default to empty and are owned as frozen_array says. Flow belongs to a
    frame pair, not to one frame: ObservationDir.flow reads it.
    """

    landmark_ids: np.ndarray = ()
    landmark_points: np.ndarray = ()
    landmark_betas: np.ndarray = ()
    image: np.ndarray | None = None

    def __post_init__(self):
        ids = frozen_array(self.landmark_ids, np.int64, -1)
        points = frozen_array(self.landmark_points, np.float64, (-1, 2))
        betas = frozen_array(self.landmark_betas, np.float64, -1)
        if len(points) != len(ids) or len(betas) != len(ids):
            raise DataError("landmark id/point/beta arrays must be the same length")
        if len(ids) and betas.min() <= 0:
            raise DataError("landmark betas must be positive")
        object.__setattr__(self, "landmark_ids", ids)
        object.__setattr__(self, "landmark_points", points)
        object.__setattr__(self, "landmark_betas", betas)


def parse_landmarks(text: str, source: str = "<landmarks>") -> dict[int, RawObservation]:
    """Landmark CSV to {frame: RawObservation} (images left unset)."""
    per_frame: dict[int, dict[int, tuple[float, float, float]]] = {}
    for line in split_records(text, source).rows("frame"):
        cols = line.text.split(",")
        if len(cols) != 5:
            raise line.error(f"expected 5 columns, got {len(cols)}")
        frame = line.integer(cols[0], "frame")
        lid = line.integer(cols[1], "landmark_id")
        x, y, beta = line.numbers(cols[2:], ("x", "y", "beta"))
        if frame < 0:
            raise line.error("negative frame index")
        if beta <= 0:
            raise line.error("beta must be positive")
        rows = per_frame.setdefault(frame, {})
        if lid in rows:
            raise line.error(f"duplicate row for frame {frame}, landmark_id {lid}")
        rows[lid] = (x, y, beta)
    out: dict[int, RawObservation] = {}
    for frame, rows in per_frame.items():
        out[frame] = RawObservation(
            landmark_ids=np.array(list(rows), dtype=np.int64),
            landmark_points=np.array([[x, y] for x, y, _ in rows.values()]),
            landmark_betas=np.array([beta for _, _, beta in rows.values()]),
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


def landmarks_path(obs_dir) -> str:
    """Where an observation directory keeps its landmark rows."""
    return os.path.join(str(obs_dir), "landmarks.csv")


def _frame_numbers(obs_dir) -> list[int]:
    """Frame numbers of the frame and flow files in obs_dir: the names
    frame_image_name and frame_flow_name give, which are the ones loaded."""
    if not os.path.isdir(obs_dir):
        raise DataError(f"observation directory {obs_dir} does not exist")
    return [int(stem) for name in os.listdir(obs_dir)
            if (stem := os.path.splitext(name)[0]).isascii() and stem.isdigit()
            and name in (frame_image_name(int(stem)), frame_flow_name(int(stem)))]


def is_observation_dir(path) -> bool:
    """Whether path is one clip's observation directory: it holds landmarks
    or a frame or flow file (a stray preview.ppm or 7.ppm does not count)."""
    return os.path.exists(landmarks_path(path)) or bool(_frame_numbers(path))


class ObservationDir:
    """Lazy per-frame loader over an observation directory.

    Landmark rows are read once; images (by index) and flow pairs (by flow)
    are loaded on access, so long clips need not sit in memory. Each image and
    flow grid must have the size of the first raster loaded, as _sized checks:
    a mismatch is a DataError naming the directory, the frame and both sizes.
    """

    def __init__(self, path):
        self.path = str(path)
        lm_path = landmarks_path(self.path)
        self._landmarks = read_landmarks(lm_path) if os.path.exists(lm_path) else {}
        self._n = max((*self._landmarks, *_frame_numbers(self.path)), default=-1) + 1
        self._size: tuple[int, int] | None = None  # (H, W) of the first raster loaded

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, frame: int) -> RawObservation:
        if not 0 <= frame < self._n:
            raise IndexError(frame)
        path = os.path.join(self.path, frame_image_name(frame))
        image = self._sized(frame, "image", read_ppm(path)) if os.path.exists(path) else None
        return replace(self._landmarks.get(frame) or RawObservation(), image=image)

    def flow(self, frame: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The (forward, backward) pair ending at frame, or None (always at 0)."""
        path = os.path.join(self.path, frame_flow_name(frame))
        if frame == 0 or not os.path.exists(path):
            return None
        pair = read_flow_pair(path)
        self._sized(frame, "flow", pair[0])
        return pair

    def _sized(self, frame: int, what: str, raster: np.ndarray) -> np.ndarray:
        h, w = raster.shape[:2]
        if self._size is None:
            self._size = (h, w)
        elif self._size != (h, w):
            raise DataError(
                f"{self.path}: frame {frame}: {what} is {w}x{h}, but the clip's"
                f" first raster is {self._size[1]}x{self._size[0]}"
            )
        return raster
