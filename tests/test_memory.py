"""The asset commands' memory does not grow with the take, and synth's is
its three canvases.

bake and bones work in blocks of frames, so under tracemalloc each command's
Python-heap peak may exceed read_curve's own peak on the same curve by no
more than a block's worth plus the rig or bone assets, whatever the curve's
length. read_curve fills one array in place, without a list per row.
write_scene paints every frame and flow grid onto three canvases allocated
once per scene, so its peak is those plus one splat's temporaries.
"""

import gc
import math
import tracemalloc

import numpy as np

from visemefit.cli import main
from visemefit.curves import read_curve, resample_curve, write_curve
from visemefit.rig import write_rig
from visemefit.synthetic import IMAGE_SIZE, build_scene, write_scene

# a 3,600-frame take: the scene's 15 s ground-truth curve at 240 fps
SECONDS, FPS_OUT = 15, 240.0
EXCESS_KB = 512
READ_CURVE_KB = 3500
# write_scene's canvases: a frame of 3 bytes a pixel and two flow grids of 8
CANVASES_MB = IMAGE_SIZE**2 * (3 + 8 + 8) / 1e6
WRITE_SCENE_EXCESS_MB = 8


def _peak_kb(fn) -> float:
    """Peak of the Python heap allocated while fn runs, in KB."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def _bone_assets_csv(rng, labels, bones=6) -> str:
    """A rest pose plus one random pose per viseme for each bone."""
    lines = ["bone,pose_label,qx,qy,qz,qw,tx,ty,tz,sx,sy,sz"]
    for b in range(bones):
        lines.append(f"b{b},rest,0,0,0,1,0,0,0,1,1,1")
        for label in labels:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            half = 0.5 * float(rng.uniform(0.0, 0.6))
            nums = [*(axis * math.sin(half)), math.cos(half),
                    *rng.uniform(-0.02, 0.02, 3), *(1.0 + rng.uniform(-0.1, 0.1, 3))]
            lines.append(f"b{b},{label}," + ",".join(repr(float(v)) for v in nums))
    return "\n".join(lines) + "\n"


def test_bake_and_bones_peak_memory_does_not_grow_with_the_take(tmp_path):
    scene = build_scene(seed=7, n_frames=SECONDS * 30)
    rig = write_rig(scene.rig, tmp_path / "rig")
    curve = tmp_path / "curve.csv"
    write_curve(resample_curve(scene.gt_curve, FPS_OUT), curve)
    bones = tmp_path / "bones.csv"
    bones.write_text(_bone_assets_csv(np.random.default_rng(7), scene.rig.viseme_labels),
                     encoding="utf-8")
    assert read_curve(curve).frame_count == SECONDS * FPS_OUT

    read_kb = _peak_kb(lambda: read_curve(curve))
    codes = []
    bake_kb = _peak_kb(lambda: codes.append(
        main(["bake", "--rig", rig, "--curve", str(curve), "--out", str(tmp_path / "baked")])))
    bones_kb = _peak_kb(lambda: codes.append(
        main(["bones", "--bones", str(bones), "--curve", str(curve),
              "--out", str(tmp_path / "track.csv")])))
    assert codes == [0, 0]
    assert read_kb < READ_CURVE_KB, f"read_curve peaked at {read_kb:.0f} KB"
    assert bake_kb - read_kb < EXCESS_KB, f"bake {bake_kb:.0f} KB, read_curve {read_kb:.0f} KB"
    assert bones_kb - read_kb < EXCESS_KB, f"bones {bones_kb:.0f} KB, read_curve {read_kb:.0f} KB"


def test_write_scene_peak_memory_is_its_three_canvases(tmp_path):
    scene = build_scene(seed=7, n_frames=3)
    peak_mb = _peak_kb(lambda: write_scene(scene, tmp_path)) * 1024 / 1e6
    assert peak_mb <= CANVASES_MB + WRITE_SCENE_EXCESS_MB, (
        f"write_scene peaked at {peak_mb:.1f} MB, canvases {CANVASES_MB:.1f} MB"
    )
