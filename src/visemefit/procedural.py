"""Procedural viseme curves from a phoneme alignment.

Each non-silence segment contributes an attack-sustain-release envelope to its
mapped viseme; overlapping contributions combine by pointwise max, which is
what produces co-articulation between neighboring phonemes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve
from .errors import DataError
from .records import read_text, split_records
from .rig import DEFAULT_CLOSURE_LABELS
from .timeline import PhonemeVisemeMap, Timeline, frame_count, viseme_of

# Onset/offset windows never grow past this, whatever the segment length.
MAX_TRANSITION_S = 0.12


@dataclass(frozen=True)
class EnvelopeRule:
    """Envelope timing for one viseme.

    onset_frac/offset_frac scale with segment duration; the resulting window
    lengths are clamped to [min_onset, 0.12 s] ([min_offset, ...] for the
    release). apex_amplitude is the plateau height.
    """

    onset_frac: float = 0.25
    offset_frac: float = 0.25
    apex_amplitude: float = 0.8
    min_onset: float = 0.04
    min_offset: float = 0.04

    def __post_init__(self):
        if not 0 < self.onset_frac <= 0.5 or not 0 < self.offset_frac <= 0.5:
            raise DataError("onset_frac and offset_frac must be in (0, 0.5]")
        if not 0 < self.apex_amplitude <= 1.0:
            raise DataError(f"apex_amplitude must be in (0, 1], got {self.apex_amplitude}")
        if self.min_onset < 0 or self.min_offset < 0:
            raise DataError("minimum transition times cannot be negative")


@dataclass(frozen=True)
class EnvelopeRules:
    """Shared timing plus per-viseme apex amplitudes."""

    base: EnvelopeRule = EnvelopeRule()
    apex_overrides: dict[str, float] | None = None

    def for_viseme(self, label: str) -> EnvelopeRule:
        overrides = self.apex_overrides or {}
        if label in overrides:
            apex = overrides[label]
        elif label in DEFAULT_CLOSURE_LABELS:
            apex = 1.0
        else:
            apex = self.base.apex_amplitude
        return EnvelopeRule(
            onset_frac=self.base.onset_frac,
            offset_frac=self.base.offset_frac,
            apex_amplitude=apex,
            min_onset=self.base.min_onset,
            min_offset=self.base.min_offset,
        )


def smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _window(frac: float, minimum: float, duration: float) -> float:
    return min(max(frac * duration, minimum), MAX_TRANSITION_S)


def envelope(t_rel: float, seg_duration: float, rule: EnvelopeRule) -> float:
    """Envelope value at time t_rel measured from segment start.

    Rises from zero at start - onset to the apex by start + min(onset, d/4),
    holds, then falls symmetrically around the segment end, reaching zero at
    end + offset. The in-segment portion of each transition is capped at a
    quarter of the segment so the central half is always a flat apex.
    """
    if seg_duration <= 0:
        raise DataError(f"segment duration must be positive, got {seg_duration}")
    d = seg_duration
    onset = _window(rule.onset_frac, rule.min_onset, d)
    offset = _window(rule.offset_frac, rule.min_offset, d)
    rise_end = min(onset, d / 4.0)
    fall_start = d - min(offset, d / 4.0)
    if t_rel < rise_end:
        u = (t_rel + onset) / (onset + rise_end)
        return float(rule.apex_amplitude * smoothstep(u))
    if t_rel <= fall_start:
        return float(rule.apex_amplitude)
    u = (t_rel - fall_start) / (d + offset - fall_start)
    return float(rule.apex_amplitude * (1.0 - smoothstep(u)))


def generate_procedural(
    timeline: Timeline, fps: float, vmap: PhonemeVisemeMap, rules: EnvelopeRules | None = None
) -> Curve:
    """Procedural curve sampled at frame centers, co-articulated by max."""
    rules = rules or EnvelopeRules()
    n = frame_count(timeline.duration, fps)
    v = len(vmap.labels)
    weights = np.zeros((n, v))
    for seg in timeline.segments:
        vi = viseme_of(seg.phoneme, vmap)
        if vi is None:
            continue
        rule = rules.for_viseme(vmap.labels[vi])
        d = seg.duration
        onset = _window(rule.onset_frac, rule.min_onset, d)
        offset = _window(rule.offset_frac, rule.min_offset, d)
        # frames whose center falls inside the envelope's support
        j0 = max(0, int(np.floor((seg.start - onset) * fps - 0.5)))
        j1 = min(n - 1, int(np.ceil((seg.end + offset) * fps - 0.5)) + 1)
        for j in range(j0, j1 + 1):
            if j >= n:
                break
            t = (j + 0.5) / fps - seg.start
            val = envelope(t, d, rule)
            if val > weights[j, vi]:
                weights[j, vi] = val
    return Curve(fps=fps, labels=vmap.labels, weights=weights)


def parse_rules(text: str, source: str = "<rules>") -> EnvelopeRules:
    """Rules file: onset_frac, offset_frac, min_onset_ms, min_offset_ms and
    any number of apex.<LABEL>=<float> overrides."""
    base = {}
    overrides: dict[str, float] = {}
    for line in split_records(text, source).body:
        key, value = line.key_value()
        num = line.number(value, key)
        if key in ("onset_frac", "offset_frac"):
            base[key] = num
        elif key == "min_onset_ms":
            base["min_onset"] = num / 1000.0
        elif key == "min_offset_ms":
            base["min_offset"] = num / 1000.0
        elif key.startswith("apex."):
            label = key[len("apex."):]
            if not label:
                raise line.error("empty apex label")
            if not 0 < num <= 1.0:
                raise line.error("apex must be in (0, 1]")
            overrides[label] = num
        else:
            raise line.error(f"unknown rules key {key!r}")
    return EnvelopeRules(base=EnvelopeRule(**base), apex_overrides=overrides or None)


def read_rules(path) -> EnvelopeRules:
    return parse_rules(read_text(path, "rules"), source=str(path))
