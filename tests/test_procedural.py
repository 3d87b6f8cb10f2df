import numpy as np
import pytest

from visemefit.errors import DataError
from visemefit.procedural import (
    EnvelopeRule,
    EnvelopeRules,
    envelope,
    generate_procedural,
    parse_rules,
    smoothstep,
)
from visemefit.timeline import (
    PhonemeSegment,
    Timeline,
    frame_count,
    parse_viseme_map,
    viseme_of,
)

VMAP = parse_viseme_map("m=MBP\ns=SSS\na=V04\nsilence=sil\n", labels=("MBP", "SSS", "V04"))

# d=0.4 with the default fractions gives onset=offset=0.1, so the ramp spans
# [-0.1, 0.1] around the start and [0.3, 0.5] around the end
RULE = EnvelopeRule(apex_amplitude=0.8)


def test_envelope_hand_values():
    assert envelope(0.0, 0.4, RULE) == pytest.approx(0.8 * 0.5)  # halfway up
    assert envelope(0.2, 0.4, RULE) == pytest.approx(0.8)  # plateau
    assert envelope(-0.05, 0.4, RULE) == pytest.approx(0.8 * smoothstep(0.25))
    assert envelope(0.35, 0.4, RULE) == pytest.approx(0.8 * (1 - smoothstep(0.25)))
    assert envelope(-0.1, 0.4, RULE) == 0.0
    assert envelope(0.5, 0.4, RULE) == 0.0


def test_envelope_transition_caps():
    # long segment: windows clamp to 0.12 s, plateau covers the middle
    assert envelope(1.0, 2.0, RULE) == pytest.approx(0.8)
    assert envelope(0.12, 2.0, RULE) == pytest.approx(0.8)
    # short segment: in-segment ramp is at most a quarter of the duration
    d = 0.08
    assert envelope(d / 2, d, RULE) == pytest.approx(0.8)


def test_envelope_monotone_rise(rng):
    ts = np.linspace(-0.1, 0.1, 40)
    vals = [envelope(t, 0.4, RULE) for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_envelope_on_arrays_equals_per_frame_scalars(rng):
    """Seeded timelines whose first segment starts at 0 and whose last ends
    at the clip's end, so both ends clip a support. envelope on a segment's
    frame times equals its per-frame scalar values bit for bit, and so does
    generate_procedural against a max over scalar values at every frame."""
    for _ in range(20):
        fps = float(rng.choice([24.0, 30.0, 60.0, 100.0]))
        rules = EnvelopeRules(
            base=EnvelopeRule(
                onset_frac=rng.uniform(0.05, 0.5),
                offset_frac=rng.uniform(0.05, 0.5),
                apex_amplitude=rng.uniform(0.3, 1.0),
                min_onset=rng.uniform(0.0, 0.08),
                min_offset=rng.uniform(0.0, 0.08),
            ),
            apex_overrides={"SSS": 0.6},
        )
        segs, t = [], 0.0
        for k in range(int(rng.integers(1, 8))):
            t += 0.0 if k == 0 else rng.uniform(0.0, 0.1)
            d = rng.uniform(0.03, 0.4)
            segs.append(PhonemeSegment(str(rng.choice(["m", "s", "a", "sil"])), t, t + d))
            t += d
        tl = Timeline(segments=tuple(segs), duration=t)
        n = frame_count(tl.duration, fps)
        expected = np.zeros((n, 3))
        for seg in segs:
            vi = viseme_of(seg.phoneme, VMAP)
            if vi is None:
                continue
            rule = rules.for_viseme(VMAP.labels[vi])
            times = (np.arange(n) + 0.5) / fps - seg.start
            scalars = [envelope(float(x), seg.duration, rule) for x in times]
            np.testing.assert_array_equal(envelope(times, seg.duration, rule), scalars)
            expected[:, vi] = np.maximum(expected[:, vi], scalars)
        np.testing.assert_array_equal(generate_procedural(tl, fps, VMAP, rules).weights, expected)


def test_envelope_with_vanishing_windows_steps():
    """With zero minimum windows, a segment so short that its windows
    underflow to zero length steps between 0 and the apex, with no
    division by zero."""
    rule = EnvelopeRule(min_onset=0.0, min_offset=0.0)
    d = 5e-324
    steps = envelope(np.array([-1e-300, 0.0, 1e-300]), d, rule)
    np.testing.assert_array_equal(steps, [0.0, 0.8, 0.0])
    tl = Timeline(segments=(PhonemeSegment("a", 0.0, d),), duration=0.5)
    curve = generate_procedural(tl, 30.0, VMAP, EnvelopeRules(base=rule))
    assert curve.weights.sum() == 0.0


def test_generate_curve_shape_and_apex():
    tl = Timeline(segments=(PhonemeSegment("a", 0.2, 0.6),), duration=1.0)
    curve = generate_procedural(tl, 30.0, VMAP)
    assert curve.frame_count == 30
    assert curve.labels == ("MBP", "SSS", "V04")
    apex = curve.weights[:, 2].max()
    assert apex == pytest.approx(0.8)  # default apex amplitude
    assert curve.weights[:, [0, 1]].max() == 0.0
    # frame centered at 0.4166 s sits on the plateau
    assert curve.weights[12, 2] == pytest.approx(0.8)


def test_closure_viseme_reaches_full_weight():
    tl = Timeline(segments=(PhonemeSegment("m", 0.2, 0.6),), duration=1.0)
    curve = generate_procedural(tl, 30.0, VMAP)
    assert curve.weights[:, 0].max() == pytest.approx(1.0)


def test_silence_and_gap_produce_zero():
    tl = Timeline(segments=(PhonemeSegment("sil", 0.0, 1.0),), duration=1.0)
    curve = generate_procedural(tl, 30.0, VMAP)
    assert curve.weights.sum() == 0.0


def test_coarticulation_takes_max_not_sum():
    # a short segment's fast release crosses a long segment's slow onset, so
    # the envelope sum tops the apex inside the overlap while max-blend cannot
    tl = Timeline(
        segments=(PhonemeSegment("a", 0.1, 0.3), PhonemeSegment("a", 0.3, 0.9)),
        duration=1.0,
    )
    curve = generate_procedural(tl, 100.0, VMAP)
    a = curve.weights[:, 2]
    assert a.max() <= 0.8 + 1e-12
    tl1 = Timeline(segments=tl.segments[:1], duration=1.0)
    tl2 = Timeline(segments=tl.segments[1:], duration=1.0)
    e1 = generate_procedural(tl1, 100.0, VMAP).weights[:, 2]
    e2 = generate_procedural(tl2, 100.0, VMAP).weights[:, 2]
    assert (e1 + e2).max() > 0.8
    np.testing.assert_allclose(a, np.maximum(e1, e2), atol=1e-12)


def test_weights_stay_in_unit_interval(rng):
    phones = ["m", "s", "a", "sil"]
    for _ in range(25):
        segs = []
        t = 0.0
        for _ in range(rng.integers(1, 8)):
            t += rng.uniform(0.0, 0.1)
            d = rng.uniform(0.05, 0.4)
            segs.append(PhonemeSegment(str(rng.choice(phones)), t, t + d))
            t += d
        tl = Timeline(segments=tuple(segs), duration=t + 0.1)
        curve = generate_procedural(tl, float(rng.uniform(10, 60)), VMAP)
        assert curve.weights.min() >= 0.0
        assert curve.weights.max() <= 1.0


def test_parse_rules_overrides():
    rules = parse_rules("onset_frac=0.3\nmin_onset_ms=50\napex.SSS=0.6\n")
    assert rules.base.onset_frac == 0.3
    assert rules.base.min_onset == pytest.approx(0.05)
    assert rules.for_viseme("SSS").apex_amplitude == 0.6
    assert rules.for_viseme("MBP").apex_amplitude == 1.0  # closure default


def test_parse_rules_rejects_garbage():
    with pytest.raises(DataError):
        parse_rules("volume=11\n")
    with pytest.raises(DataError):
        parse_rules("apex.SSS=1.5\n")
    with pytest.raises(DataError):
        parse_rules("onset_frac=high\n")
