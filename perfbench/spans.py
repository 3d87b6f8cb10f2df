"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: ``[id, name, start, end, parent, clip,
frame, value]``. Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on
Linux, so the driver can line them up with its own clock). ``parent`` is the
span open on the same thread when the call began; a worker thread with no
open span hangs its spans under the process root. ``clip`` and ``frame`` are
inherited from the parent unless the call names them. ``value`` carries a
per-call quantity: bytes read or written, flow candidates and survivors, or
whether an objective evaluation used the image.

Spans are recorded around the calls into each layer from outside the
program: ``install`` replaces each function at the place it is looked up
when called (the importing module's binding, or the class attribute), so
the program's own code is unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
from time import perf_counter


class Tracer:
    def __init__(self):
        self.records: list[list] = []
        self.root: list | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, clip=None, frame=None) -> list:
        stack = self._stack()
        top = stack[-1] if stack else self.root
        rec = [next(self._ids), name, 0.0, 0.0, None, clip, frame, None]
        if top is not None:
            rec[4] = top[0]
            if clip is None:
                rec[5] = top[5]
            if frame is None:
                rec[6] = top[6]
        stack.append(rec)
        self.records.append(rec)
        rec[2] = perf_counter()
        return rec

    def close(self, rec) -> None:
        rec[3] = perf_counter()
        self._stack().pop()

    def wrap(self, name, fn, context=None, value=None):
        """``fn`` inside a span; ``context(args)`` gives (clip, frame) before
        the call, ``value(args, result)`` the span's value after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            clip, frame = context(args) if context else (None, None)
            rec = self.open(name, clip, frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if value:
                rec[7] = value(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records, fh, separators=(",", ":"))


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _tree_bytes(args, result):
    total = 0
    for root, _, files in os.walk(args[1]):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def _screen_counts(args, result):
    return [len(args[2]), len(result[0])]


def _uses_image(args, result):
    return args[0].image is not None


def _clip_of(args):
    return os.path.basename(os.path.normpath(args[2])), None


def _frame_last_arg(args):
    return None, int(args[-1])


def _frame_first_arg(args):
    return None, int(args[1])


# (module, attribute, span name, context, value). A dotted attribute names a
# method, replaced on its class.
TARGETS = (
    ("visemefit.cli", "_fit_one", "cli.clip", _clip_of, None),
    ("visemefit.cli", "load_rig_manifest", "rig.load", None, None),
    ("visemefit.cli", "generate_procedural", "procedural.generate", None, None),
    ("visemefit.cli", "fit_clip", "fitting.fit_clip", None, None),
    ("visemefit.cli", "bake_mesh_sequence", "rig.bake", None, None),
    ("visemefit.cli", "write_obj", "mesh.write_obj", None, None),
    # write_obj formats the OBJ inside its atomic write; this keeps the
    # formatting out of atomicio.write's self time
    ("visemefit.mesh", "serialize_obj", "mesh.serialize_obj", None, None),
    ("visemefit.cli", "serialize_blended_poses", "bones.blend", None, None),
    ("visemefit.cli", "resample_curve", "curves.resample", None, None),
    ("visemefit.cli", "lip_distance_curves", "evaluation.metric", None, None),
    ("visemefit.cli", "total_variation", "evaluation.metric", None, None),
    ("visemefit.fitting", "generate_procedural", "procedural.generate", None, None),
    ("visemefit.fitting", "guidance_sets", "guidance.sets", None, None),
    ("visemefit.fitting", "_optimize_frame", "fitting.frame", _frame_last_arg, None),
    ("visemefit.fitting", "screen_flow", "flow.screen", None, _screen_counts),
    ("visemefit.fitting", "adam_step", "adam.step", None, None),
    ("visemefit.observations", "ObservationDir.__getitem__", "observations.load", _frame_first_arg, None),
    ("visemefit.observations", "read_ppm", "images.read_ppm", None, _file_bytes),
    ("visemefit.observations", "read_flow_pair", "flow.read", None, _file_bytes),
    ("visemefit.flow", "bilinear_sample", "images.bilinear", None, None),
    # FrameProblem.evaluate imports bilinear_sample from images on each call
    ("visemefit.images", "bilinear_sample", "images.bilinear", None, None),
    ("visemefit.losses", "FrameProblem.evaluate", "losses.evaluate", None, _uses_image),
    ("visemefit.synthetic", "build_scene", "synthetic.build", None, None),
    ("visemefit.synthetic", "write_scene", "synthetic.write", None, _tree_bytes),
)


def install(tracer: Tracer) -> None:
    """Replace every target with a traced wrapper; a missing target raises,
    so a renamed or moved function cannot silently drop a layer."""
    import importlib

    for module_name, attr, name, context, value in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        setattr(owner, leaf, tracer.wrap(name, original, context, value))

    from visemefit import atomicio

    atomic_path = atomicio.atomic_path

    # writes go through atomic_path, looked up on the atomicio module at call
    # time by write_text and by the OBJ, PPM and FLO writers
    @contextlib.contextmanager
    def traced_atomic_path(path):
        rec = tracer.open("atomicio.write")
        try:
            with atomic_path(path) as tmp:
                yield tmp
        finally:
            tracer.close(rec)
        rec[7] = os.path.getsize(path)

    atomicio.atomic_path = traced_atomic_path
