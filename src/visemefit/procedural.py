"""Procedural viseme curves from a phoneme alignment.

Each non-silence segment contributes an attack-sustain-release envelope to its
mapped viseme; overlapping contributions combine by pointwise max, which is
what produces co-articulation between neighboring phonemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .curves import Curve
from .errors import DataError, located
from .records import read_text, split_records
from .timeline import PhonemeVisemeMap, Timeline, frame_count, frame_times, viseme_of

# Onset/offset windows never grow past this, whatever the segment length.
MAX_TRANSITION_S = 0.12

# Only the bilabial-closure shape gets a full-amplitude default apex.
DEFAULT_CLOSURE_LABELS = frozenset({"MBP"})


def check_apex(name: str, apex: float) -> None:
    """The one rule for a plateau height, the base rule's or a viseme's
    override: DataError naming it unless apex is in (0, 1]."""
    if not 0 < apex <= 1.0:
        raise DataError(f"{name} must be in (0, 1], got {apex}")


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
        check_apex("apex_amplitude", self.apex_amplitude)
        if self.min_onset < 0 or self.min_offset < 0:
            raise DataError("minimum transition times cannot be negative")


@dataclass(frozen=True)
class EnvelopeRules:
    """Shared timing plus per-viseme apex amplitudes.

    apex_overrides is copied, so later writes to the caller's dict change no
    rules.
    """

    base: EnvelopeRule = EnvelopeRule()
    apex_overrides: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "apex_overrides", dict(self.apex_overrides))
        for label, apex in self.apex_overrides.items():
            check_apex(f"apex.{label}", apex)

    def for_viseme(self, label: str) -> EnvelopeRule:
        if label in self.apex_overrides:
            apex = self.apex_overrides[label]
        elif label in DEFAULT_CLOSURE_LABELS:
            apex = 1.0
        else:
            apex = self.base.apex_amplitude
        return replace(self.base, apex_amplitude=apex)


def smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def envelope(t_rel, seg_duration: float, rule: EnvelopeRule):
    """Envelope value at t_rel, a time or an array of times measured from
    segment start; seg_duration is positive, as PhonemeSegment makes it.

    Rises from zero at start - onset to the apex by start + min(onset, d/4),
    holds, then falls symmetrically around the segment end, reaching zero at
    end + offset. The in-segment portion of each transition is capped at a
    quarter of the segment so the central half is always a flat apex. Both
    windows are at most MAX_TRANSITION_S, and the envelope is zero beyond.
    """
    d = seg_duration
    onset = min(max(rule.onset_frac * d, rule.min_onset), MAX_TRANSITION_S)
    offset = min(max(rule.offset_frac * d, rule.min_offset), MAX_TRANSITION_S)
    rise_end = min(onset, d / 4.0)
    fall_start = d - min(offset, d / 4.0)
    t = np.asarray(t_rel, dtype=np.float64)
    shape = np.ones(t.shape)
    rise, fall = t < rise_end, t > fall_start
    # a window that underflows to zero length divides by zero: a step to 0
    with np.errstate(divide="ignore"):
        shape[rise] = smoothstep((t[rise] + onset) / (onset + rise_end))
        shape[fall] = 1.0 - smoothstep((t[fall] - fall_start) / (d + offset - fall_start))
    return rule.apex_amplitude * shape


def generate_procedural(
    timeline: Timeline, fps: float, vmap: PhonemeVisemeMap, rules: EnvelopeRules | None = None
) -> Curve:
    """Procedural curve sampled at frame centers, co-articulated by max."""
    rules = rules or EnvelopeRules()
    times = frame_times(frame_count(timeline.duration, fps), fps)
    weights = np.zeros((len(times), len(vmap.labels)))
    for seg in timeline.segments:
        with located(timeline.source):
            vi = viseme_of(seg.phoneme, vmap)
        if vi is None:
            continue
        # every frame whose center falls inside the envelope's support
        j0, j1 = np.searchsorted(times, (seg.start - MAX_TRANSITION_S, seg.end + MAX_TRANSITION_S))
        val = envelope(times[j0:j1] - seg.start, seg.duration, rules.for_viseme(vmap.labels[vi]))
        weights[j0:j1, vi] = np.maximum(weights[j0:j1, vi], val)
    return Curve(fps=fps, labels=vmap.labels, weights=weights)


def parse_rules(text: str, source: str = "<rules>") -> EnvelopeRules:
    """Rules file: onset_frac, offset_frac, min_onset_ms, min_offset_ms and
    any number of apex.<LABEL>=<float> overrides."""
    base = {}
    overrides: dict[str, float] = {}
    for line, key, value in split_records(text, source).key_values("rules"):
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
            with located(line.where):
                check_apex(key, num)
            overrides[label] = num
        else:
            raise line.error(f"unknown rules key {key!r}")
    with located(source):
        base_rule = EnvelopeRule(**base)
    return EnvelopeRules(base=base_rule, apex_overrides=overrides)


def read_rules(path) -> EnvelopeRules:
    return parse_rules(read_text(path, "rules"), source=str(path))
