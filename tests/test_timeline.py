import math

import numpy as np
import pytest

from visemefit.errors import DataError
from visemefit.timeline import (
    PhonemeSegment,
    PhonemeVisemeMap,
    Timeline,
    frame_count,
    parse_alignment,
    parse_viseme_map,
    read_alignment,
    serialize_timeline,
    serialize_viseme_map,
    viseme_of,
)

ALIGN = "# duration=1.5\nm\t0.1\t0.3\nsil\t0.3\t0.6\na\t0.6\t1.1\n"


def test_parse_alignment_fields():
    t = parse_alignment(ALIGN)
    assert t.duration == 1.5
    assert [s.phoneme for s in t.segments] == ["m", "sil", "a"]
    assert t.segments[0].start == 0.1
    assert t.segments[2].end == 1.1


def test_duration_defaults_to_last_end():
    t = parse_alignment("m\t0.0\t0.25\n")
    assert t.duration == 0.25


def test_segments_sorted_by_start():
    t = parse_alignment("a\t0.5\t0.9\nm\t0.0\t0.4\n")
    assert [s.phoneme for s in t.segments] == ["m", "a"]


@pytest.mark.parametrize(
    "bad",
    [
        "m\t0.3\t0.1\n",  # end before start
        "m\t0.1\n",  # missing field
        "m\t0.1\tx\n",  # non-numeric
        "\t0.1\t0.2\n",  # empty token
        "m\t0.0\t0.5\na\t0.4\t0.8\n",  # overlap
    ],
)
def test_parse_alignment_rejects(bad):
    with pytest.raises(DataError):
        parse_alignment(bad)


@pytest.mark.parametrize(
    "start, end, message",
    [
        (0.3, 0.1, "segment 'm' has end 0.1 <= start 0.3"),
        (0.2, 0.2, "segment 'm' has end 0.2 <= start 0.2"),
        (-0.5, 0.5, "segment 'm' starts before 0"),
    ],
)
def test_segment_checks_itself_and_the_parse_names_the_line(start, end, message):
    with pytest.raises(DataError) as exc:
        PhonemeSegment("m", start, end)
    assert str(exc.value) == message
    with pytest.raises(DataError) as exc:
        parse_alignment(f"a\t0.0\t0.05\nm\t{start}\t{end}\n", source="align.tsv")
    assert str(exc.value) == f"align.tsv:2: {message}"


def test_serialize_roundtrip_exact():
    t = parse_alignment(ALIGN)
    back = parse_alignment(serialize_timeline(t))
    assert back == t
    # repr-formatted floats survive a second pass byte for byte
    assert serialize_timeline(back) == serialize_timeline(t)


def test_roundtrip_awkward_floats(tmp_path):
    t = Timeline(
        segments=(PhonemeSegment("sh", 0.1 + 0.2, 1.0 / 3.0 + 0.5),),
        duration=2.0 / 3.0 + 0.5,
    )
    p = tmp_path / "a.tsv"
    p.write_text(serialize_timeline(t))
    back = read_alignment(p)
    assert back.segments[0].start == t.segments[0].start
    assert back.segments[0].end == t.segments[0].end
    assert back.duration == t.duration


def test_frame_count_ceil_semantics():
    assert frame_count(1.0, 30.0) == 30
    assert frame_count(0.999, 30.0) == 30  # ceil(29.97)
    assert frame_count(1.001, 30.0) == 31
    assert frame_count(0.0333, 30.0) == 1
    # the count is literal ceil(duration*fps), including float artifacts
    d = 1.1
    assert frame_count(d, 30.0) == math.ceil(d * 30.0)


def test_frame_count_clamps_and_validates():
    assert frame_count(-0.1, 30.0) == 0
    with pytest.raises(DataError):
        frame_count(1.0, 0.0)


MAP = "m=MBP\nb=MBP\ns=SSS\nsilence=sil,sp\n"


def test_viseme_map_parse_and_lookup():
    vmap = parse_viseme_map(MAP, labels=("MBP", "SSS"))
    assert viseme_of("m", vmap) == 0
    assert viseme_of("b", vmap) == 0
    assert viseme_of("s", vmap) == 1
    assert viseme_of("sil", vmap) is None  # silence maps to no viseme
    with pytest.raises(DataError):
        viseme_of("zz", vmap)  # unknown phoneme is a data problem


def test_viseme_map_rejects_unknown_label():
    with pytest.raises(DataError):
        parse_viseme_map("m=NOPE\n", labels=("MBP",))


def test_viseme_map_rejects_token_both_mapped_and_silence():
    with pytest.raises(DataError):
        parse_viseme_map("m=MBP\nsilence=m\n", labels=("MBP",))


def test_viseme_map_collects_labels_in_first_appearance_order():
    vmap = parse_viseme_map(MAP)
    assert vmap.labels == ("MBP", "SSS")


def test_serialize_viseme_map_roundtrip():
    """Entries keep their order, silence tokens are sorted, and a label no
    entry uses survives through the labels argument."""
    m = PhonemeVisemeMap(
        labels=("WWW", "MBP", "SSS"),
        entries={"s": 2, "m": 1, "b": 1},
        silence={"sp", "sil"},
    )
    text = serialize_viseme_map(m)
    assert text == "s=SSS\nm=MBP\nb=MBP\nsilence=sil,sp\n"
    assert parse_viseme_map(text, labels=m.labels) == m
    assert serialize_viseme_map(parse_viseme_map(MAP)) == MAP
