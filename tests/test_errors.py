import pytest

from visemefit.errors import DataError, NumericError, UsageError, located


@pytest.mark.parametrize("cls", [DataError, NumericError])
def test_located_prefixes_the_message_and_keeps_the_class(cls):
    with pytest.raises(cls) as info:
        with located("align.tsv"):
            raise cls("phoneme '-' is not in the viseme map")
    assert type(info.value) is cls
    assert str(info.value) == "align.tsv: phoneme '-' is not in the viseme map"


def test_located_nests_outermost_first():
    with pytest.raises(NumericError, match="^obs: frame 2: behind-camera vertex 3$"):
        with located("obs"), located("frame 2"):
            raise NumericError("behind-camera vertex 3")


def test_located_none_adds_nothing():
    exc = DataError("curve is missing viseme columns ['MBP']")
    with pytest.raises(DataError) as info:
        with located(None):
            raise exc
    assert info.value is exc


@pytest.mark.parametrize(
    "exc", [UsageError("usage"), OSError(2, "No such file or directory"), ValueError("v"),
            KeyboardInterrupt()],
)
def test_located_does_not_touch_other_exceptions(exc):
    with pytest.raises(type(exc)) as info:
        with located("where"):
            raise exc
    assert info.value is exc

