"""Self-contained synthetic benchmark scenes.

A scene is a small face-like rig (an 8x8 vertex sheet whose two middle rows
act as lips), a seeded phoneme timeline, a ground-truth weight curve, and
exact observations rendered from it: projected landmarks, splatted color
frames, and forward/backward flow grids. Everything is derived from one seed
so runs are reproducible byte for byte.

Scale choices matter here: at focal 1200 and depth 2.5 one model unit spans
about 480 px, and every viseme displaces the lip rows by at least 0.14 units.
That keeps the landmark term's curvature on each weight two orders of
magnitude above the activation pull, so recovered weights sit close to the
ground truth instead of saturating toward the activation bias.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .atomicio import make_dirs, write_text
from .camera import Pose, project
from .curves import Curve, write_curve
from .errors import DataError
from .fitting import FitConfig, serialize_fit_config
from .flow import flow_cells, write_flow_pair
from .images import quantize, write_ppm
from .mesh import Mesh
from .observations import (
    RawObservation,
    frame_flow_name,
    frame_image_name,
    landmarks_path,
    serialize_landmarks,
)
from .procedural import generate_procedural
from .rig import Rig, blend_vertices, default_viseme_labels, write_rig
from .timeline import PhonemeSegment, PhonemeVisemeMap, Timeline, check_fps, frame_count, frame_times
from .timeline import serialize_timeline, serialize_viseme_map

GRID = 8
IMAGE_SIZE = 1024
FOCAL = 1200.0
DEPTH = 2.5
BACKGROUND = np.array([0.2, 0.25, 0.3])
# Gaussian splats of the color frames and of the flow grids: _splat computes
# the covered pixels, and write_scene paints them onto three reused _Canvas grids
FRAME_SPLAT = {"sigma": 2.5, "window": 10, "bg_value": BACKGROUND, "bg_weight": 3e-4}
FLOW_SPLAT = {"sigma": 3.0, "window": 12, "bg_value": (0.0, 0.0), "bg_weight": 1e-6}

# phoneme inventory; one viseme may own several phonemes
PHONE_TABLE = (
    ("m", "MBP"), ("b", "MBP"), ("p", "MBP"),
    ("s", "SSS"), ("z", "SSS"),
    ("w", "WWW"), ("u", "WWW"),
    ("a", "V04"), ("e", "V05"), ("i", "V06"), ("o", "V07"),
    ("f", "V08"), ("v", "V08"),
    ("l", "V09"),
    ("t", "V10"), ("d", "V10"),
    ("k", "V11"), ("g", "V11"),
    ("n", "V12"), ("r", "V13"), ("sh", "V14"), ("ch", "V15"), ("y", "V16"),
)
SILENCE_TOKENS = ("sil", "sp")

# The longest random timeline a scene may have. Its segments are drawn one
# by one, so the duration, not the frame count, bounds the work: 2 frames at
# 1e-300 fps would otherwise ask for 2e300 s of segments. An hour is far
# past any synthetic clip, whose frames are 20 MB each on disk.
MAX_SCENE_SECONDS = 3600.0
# The largest landmark noise sigma, in pixels: the image's size. A larger
# one only throws landmarks off the frame, and a huge one overflows the
# objective of a later fit.
MAX_LANDMARK_NOISE = float(IMAGE_SIZE)

_UPPER_LIP = np.arange(24, 32)  # row 3
_LOWER_LIP = np.arange(32, 40)  # row 4
MOUTH_LANDMARK_IDS = (26, 27, 28, 29, 34, 35, 36, 37)
LIP_HORIZONTAL = (24, 31)
LIP_VERTICAL = (27, 35)


@dataclass
class SynthScene:
    rig: Rig
    vmap: PhonemeVisemeMap
    timeline: Timeline
    gt_curve: Curve
    poses: list[Pose]
    # (frames, vertices, 2): the ground truth projected, for landmarks and rasters
    projections: np.ndarray
    landmarks: dict[int, RawObservation]
    config: FitConfig
    fps: float
    write_rasters: bool = True

    @property
    def frame_count(self) -> int:
        return self.gt_curve.frame_count


def _grid_mesh(colors: np.ndarray) -> Mesh:
    xs = 0.9 * np.linspace(-1.0, 1.0, GRID)
    ys = 0.9 * np.array([1.0, 0.7, 0.45, 0.25, -0.25, -0.45, -0.7, -1.0])
    X, Y = np.meshgrid(xs, ys)
    # pronounced relief: parallax separates rotation from translation, which
    # keeps the head-pose solve well conditioned
    Z = DEPTH + 0.22 * np.sin(1.7 * X) * np.cos(1.3 * Y)
    verts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    tris = []
    for r in range(GRID - 1):
        for c in range(GRID - 1):
            i = r * GRID + c
            tris.append((i, i + 1, i + GRID))
            tris.append((i + 1, i + GRID + 1, i + GRID))
    return Mesh(vertices=verts, triangles=np.array(tris), colors=colors)


def _lip_mode(k: int, opposed: bool) -> np.ndarray:
    """Vertical lip displacement pattern: cosine profile across the 8 lip
    columns, either in-phase for both lips or opposed (open/close)."""
    cols = np.arange(GRID)
    profile = np.cos(math.pi * k * (cols + 0.5) / GRID)
    pattern = np.zeros((2, GRID))
    pattern[0] = -profile if opposed else profile
    pattern[1] = profile
    return pattern


def _viseme_deltas(rng: np.random.Generator, neutral: np.ndarray, ambiguous: bool) -> np.ndarray:
    # Each viseme owns a distinct vertical lip pattern from an orthogonal
    # 16-mode family (8 column frequencies x in-phase/opposed lips), so no
    # combination of other visemes or head-pose moves can reproduce it.
    # Cross-talk during fitting then stays bounded by the guidance weights
    # instead of blowing up along a null direction.  Pattern amplitudes keep
    # the image evidence per unit weight strong enough that the phoneme
    # activation reward cannot drag an active weight far from the data.
    n = len(neutral)
    x = neutral[:, 0]
    deltas = np.zeros((16, n, 3))

    def set_lip_y(v: int, pattern: np.ndarray, scale: float = 1.0) -> None:
        deltas[v, _UPPER_LIP, 1] += scale * pattern[0]
        deltas[v, _LOWER_LIP, 1] += scale * pattern[1]

    # MBP: uniform lip closure, upper and lower rows meet halfway
    set_lip_y(0, _lip_mode(0, opposed=True), 0.225)

    # SSS: corrugated narrowing with spread corners
    set_lip_y(1, _lip_mode(2, opposed=True), 0.22)
    set_lip_y(1, _lip_mode(0, opposed=True), 0.05)
    for rows in (_UPPER_LIP, _LOWER_LIP):
        deltas[1, rows, 0] = 0.08 * x[rows]

    # WWW: pucker, lips pull inward and slightly forward, mouth opens a touch
    set_lip_y(2, _lip_mode(7, opposed=False), 0.22)
    set_lip_y(2, _lip_mode(0, opposed=True), -0.06)
    for rows in (_UPPER_LIP, _LOWER_LIP):
        deltas[2, rows, 0] = -0.22 * x[rows]
        deltas[2, rows, 2] = -0.05

    # remaining modes for the generic visemes; the uniform-shift and common
    # shear patterns are partly absorbable by head translation/roll, so they
    # get a larger amplitude to keep their image evidence comparable
    modes = [
        (0, False), (1, True), (1, False), (2, False), (3, True), (3, False),
        (4, True), (4, False), (5, True), (5, False), (6, True), (6, False),
        (7, True),
    ]
    for v, (k, opposed) in zip(range(3, 16), modes):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        pose_absorbable = (k, opposed) in ((0, False), (1, False))
        amp = rng.uniform(0.28, 0.33) if pose_absorbable else rng.uniform(0.22, 0.30)
        set_lip_y(v, _lip_mode(k, opposed), sign * amp)
        ax = rng.uniform(0.05, 0.11)
        kx = rng.uniform(0.8, 2.2)
        phx = rng.uniform(0.0, 2.0 * math.pi)
        for rows in (_UPPER_LIP, _LOWER_LIP):
            deltas[v, rows, 0] += ax * np.sin(kx * x[rows] + phx)
        for coord, cap in ((0, 0.035), (1, 0.035), (2, 0.02)):
            amp = rng.uniform(0.3, 1.0) * cap
            a, c = rng.uniform(0.8, 2.5, 2)
            b, d = rng.uniform(0.0, 2.0 * math.pi, 2)
            deltas[v, :, coord] += amp * np.sin(a * neutral[:, 0] + b) * np.cos(
                c * neutral[:, 1] + d
            )

    if ambiguous:
        # SSS becomes an exact copy of MBP: indistinguishable from data alone
        deltas[1] = deltas[0]
    return deltas


def _build_rig(rng: np.random.Generator, ambiguous: bool) -> Rig:
    colors = rng.uniform(0.15, 0.9, (GRID, GRID, 3))
    lip_colors = rng.uniform(0.15, 0.9, (GRID, 3))
    colors[3] = lip_colors  # closing lips overlay same-colored rows,
    colors[4] = lip_colors  # keeping the photometric target consistent
    neutral = _grid_mesh(colors.reshape(-1, 3))
    deltas = _viseme_deltas(rng, neutral.vertices, ambiguous)
    labels = default_viseme_labels(16)
    visemes = tuple(
        Mesh(vertices=neutral.vertices + deltas[v], triangles=neutral.triangles)
        for v in range(16)
    )
    # every vertex doubles as a tracked landmark; plentiful off-mouth anchors
    # stop the head pose from absorbing lip-shape error
    return Rig(
        neutral=neutral,
        visemes=visemes,
        viseme_labels=labels,
        landmark_bindings={v: v for v in range(len(neutral.vertices))},
        lip_pairs=(LIP_HORIZONTAL, LIP_VERTICAL),
        mouth_landmark_ids=MOUTH_LANDMARK_IDS,
    )


def _random_timeline(rng: np.random.Generator, n_frames: int, fps: float) -> Timeline:
    duration = n_frames / fps
    phones = [tok for tok, _ in PHONE_TABLE]
    segs: list[PhonemeSegment] = []
    t = 0.0
    while t < duration - 0.05:
        if rng.random() < 0.3:
            t += rng.uniform(0.08, 0.25)
        d = rng.uniform(0.12, 0.30)
        end = min(t + d, duration)
        tok = phones[rng.integers(0, len(phones))]
        if end - t >= 0.05:
            segs.append(PhonemeSegment(phoneme=tok, start=t, end=end))
        t = end
    return Timeline(segments=tuple(segs), duration=duration)


def _ambiguous_timeline() -> Timeline:
    return Timeline(
        segments=(PhonemeSegment(phoneme="m", start=0.2, end=0.45),),
        duration=0.6,
    )


def _wobble_pose(j: int, fps: float, intrinsics) -> Pose:
    t = j / fps
    axis = np.array([0.25, 1.0, 0.15])
    axis = axis / np.linalg.norm(axis)
    ang = 0.004 * math.sin(2.0 * math.pi * 0.3 * t)
    q = np.concatenate([axis * math.sin(ang / 2.0), [math.cos(ang / 2.0)]])
    trans = np.array(
        [
            0.003 * math.sin(2.0 * math.pi * 0.27 * t),
            0.0025 * math.sin(2.0 * math.pi * 0.21 * t),
            0.004 * math.sin(2.0 * math.pi * 0.17 * t),
        ]
    )
    return Pose(rotation=q, translation=trans, intrinsics=intrinsics)


def build_scene(
    seed: int,
    n_frames: int = 100,
    fps: float = 30.0,
    landmark_noise: float = 0.0,
    ambiguous: bool = False,
) -> SynthScene:
    """Construct a seeded scene; heavy rasters are produced later by write_scene.

    The ambiguous variant copies the MBP shape onto SSS and uses a fixed
    single-phoneme timeline, so nothing in the observations can separate the
    two visemes; it also skips rasters since landmarks alone carry the test.
    """
    if n_frames < 0:
        raise DataError(f"frame count cannot be negative, got {n_frames}")
    check_fps(fps)
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    if not 0.0 <= landmark_noise <= MAX_LANDMARK_NOISE:
        raise DataError(
            f"landmark noise must be in [0, {MAX_LANDMARK_NOISE:g}] px, got {landmark_noise}"
        )
    if not ambiguous and n_frames / fps > MAX_SCENE_SECONDS:
        raise DataError(
            f"{n_frames} frames at {fps} fps last {n_frames / fps:.6g} s,"
            f" over the limit of {MAX_SCENE_SECONDS:g} s"
        )
    rng = np.random.default_rng(seed)
    rig = _build_rig(rng, ambiguous)

    if ambiguous:
        timeline = _ambiguous_timeline()
        n_frames = frame_count(timeline.duration, fps)
    else:
        timeline = _random_timeline(rng, n_frames, fps)

    vmap = PhonemeVisemeMap(
        labels=rig.viseme_labels,
        entries={tok: rig.label_index(lab) for tok, lab in PHONE_TABLE},
        silence=SILENCE_TOKENS,
    )

    proc = generate_procedural(timeline, fps, vmap)

    # ground truth = procedural support with slow per-viseme amplitude drift
    t_centers = frame_times(n_frames, fps)
    mod = np.empty((n_frames, 16))
    for v in range(16):
        f1 = rng.uniform(0.6, 1.4)
        ph1 = rng.uniform(0.0, 2.0 * math.pi)
        f2 = rng.uniform(2.0, 3.5)
        ph2 = rng.uniform(0.0, 2.0 * math.pi)
        mod[:, v] = (
            0.65
            + 0.30 * np.sin(2.0 * math.pi * f1 * t_centers + ph1)
            + 0.05 * np.sin(2.0 * math.pi * f2 * t_centers + ph2)
        )
    gt = Curve(fps=fps, labels=rig.viseme_labels, weights=np.clip(proc.weights * mod, 0.0, 1.0))

    config = FitConfig(focal=FOCAL, cx=IMAGE_SIZE / 2.0, cy=IMAGE_SIZE / 2.0)
    intrinsics = config.intrinsics
    poses = [_wobble_pose(j, fps, intrinsics) for j in range(n_frames)]

    landmark_verts = np.arange(len(rig.neutral.vertices), dtype=np.int64)
    betas = np.where(np.isin(landmark_verts, MOUTH_LANDMARK_IDS), 5.0, 1.0)
    projections = np.empty((n_frames, len(landmark_verts), 2))
    landmarks: dict[int, RawObservation] = {}
    for j in range(n_frames):
        projections[j] = project(blend_vertices(rig, gt.weights[j]), poses[j])
        pts = projections[j, landmark_verts]
        if landmark_noise > 0.0:
            pts = pts + landmark_noise * rng.standard_normal(pts.shape)
        landmarks[j] = RawObservation(
            landmark_ids=landmark_verts,
            landmark_points=pts,
            landmark_betas=betas,
        )

    return SynthScene(
        rig=rig,
        vmap=vmap,
        timeline=timeline,
        gt_curve=gt,
        poses=poses,
        projections=projections,
        landmarks=landmarks,
        config=config,
        fps=fps,
        write_rasters=not ambiguous,
    )


def _splat(points, values, size, sigma, window, bg_value, bg_weight):
    """Normalized Gaussian splat of per-point values onto a square grid, on the
    covered pixels only: the ascending flat indices of the pixels inside some
    point's window, and their (pixels, C) float64 values.

    Each value is summed in float64 and in a dense accumulation's order: the
    pixel's background term (bg_value * bg_weight, weight bg_weight) first,
    then its windows in point order. A _Canvas paints them over the
    background."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    # first covered pixel and pixel count of each window along x and y
    lo = np.maximum(0.0, np.ceil(p - window))
    count = np.minimum(size - 1.0, np.floor(p + window)) - lo + 1.0
    inside = (count > 0).all(axis=1)
    p, lo, count = p[inside], lo[inside].astype(np.int64), count[inside].astype(np.int64)
    steps = np.arange(2 * window + 1)
    cells = lo[:, None, :] + steps[None, :, None]  # (point, step, axis)
    d2 = (cells - p[:, None, :]) ** 2
    w = np.exp(-(d2[:, None, :, 0] + d2[:, :, None, 1]) * (1.0 / (2.0 * sigma * sigma)))
    mask = (steps < count[:, 1:])[:, :, None] & (steps < count[:, :1])[:, None, :]  # point, y, x
    flat = (cells[:, :, None, 1] * size + cells[:, None, :, 0])[mask]
    # np.unique(flat, return_inverse=True), cheaper: a stable sort merges the windows' ascending rows
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    new = np.diff(flat, prepend=-1) > 0  # a pixel's first cell; pixel indices are never negative
    pixels = flat[new]
    slot = np.empty_like(order)
    slot[order] = np.cumsum(new) - 1
    w = w[mask]
    vals = np.asarray(values, dtype=np.float64)[inside]
    terms = np.repeat(vals.T, mask.sum(axis=(1, 2)), axis=1) * w  # (channel, covered cell)
    # each pixel's background term first, then its windows in point order, as the dense sum adds them;
    # np.add.at adds unbuffered, in index order
    sums = np.empty((1 + len(terms), len(pixels)))
    sums[:] = np.r_[bg_weight, np.asarray(bg_value, dtype=np.float64) * bg_weight][:, None]
    for row, term in zip(sums, [w, *terms]):
        np.add.at(row, slot, term)
    return pixels, (sums[1:] / sums[0]).T


class _Canvas:
    """A square (size, size, C) grid of encode(values) cells, allocated once as
    the encoded background and painted with one splat at a time."""

    def __init__(self, size, bg_value, encode):
        self.encode = encode
        fill = encode(np.asarray(bg_value, dtype=np.float64)[None])
        self.grid = np.frombuffer(bytearray(fill.tobytes()) * size**2, dtype=fill.dtype).reshape(size, size, -1)
        # one void item per cell, so a row of C channels moves as one value
        cell = np.dtype((np.void, fill.nbytes))
        self.cells = self.grid.reshape(-1).view(cell)
        self.background = fill.view(cell)[0, 0]
        self.painted = np.zeros(0, dtype=np.int64)

    def paint(self, pixels, values) -> np.ndarray:
        """The grid with the background back on the last splat's pixels and
        these pixels' values encoded; the next paint reuses it."""
        self.cells[self.painted] = self.background
        self.cells[pixels] = np.ascontiguousarray(self.encode(values)).view(self.cells.dtype).reshape(-1)
        self.painted = pixels
        return self.grid


def write_scene(scene: SynthScene, out_dir) -> dict[str, str]:
    """Write the scene to disk in the layouts the fitting pipeline reads."""
    out = str(out_dir)
    obs_dir = os.path.join(out, "obs")
    make_dirs(obs_dir)

    rig = scene.rig
    manifest = write_rig(rig, os.path.join(out, "rig"))

    align = os.path.join(out, "align.tsv")
    write_text(align, serialize_timeline(scene.timeline))
    map_path = os.path.join(out, "map.txt")
    write_text(map_path, serialize_viseme_map(scene.vmap))
    config_path = os.path.join(out, "config.txt")
    write_text(config_path, serialize_fit_config(scene.config))
    gt_path = os.path.join(out, "gt.csv")
    write_curve(scene.gt_curve, gt_path)

    write_text(landmarks_path(obs_dir), serialize_landmarks(scene.landmarks))

    if scene.write_rasters:
        colors = rig.neutral.colors
        frame = _Canvas(IMAGE_SIZE, FRAME_SPLAT["bg_value"], quantize)
        fwd, bwd = (_Canvas(IMAGE_SIZE, FLOW_SPLAT["bg_value"], flow_cells) for _ in range(2))
        prev_proj = None
        for j, proj in enumerate(scene.projections):
            img = frame.paint(*_splat(proj, colors, IMAGE_SIZE, **FRAME_SPLAT))
            write_ppm(img, os.path.join(obs_dir, frame_image_name(j)))
            if j > 0:
                disp = proj - prev_proj
                write_flow_pair(
                    fwd.paint(*_splat(prev_proj, disp, IMAGE_SIZE, **FLOW_SPLAT)),
                    bwd.paint(*_splat(proj, -disp, IMAGE_SIZE, **FLOW_SPLAT)),
                    os.path.join(obs_dir, frame_flow_name(j)),
                )
            prev_proj = proj

    return {
        "rig": manifest,
        "align": align,
        "map": map_path,
        "config": config_path,
        "obs": obs_dir,
        "gt": gt_path,
    }
