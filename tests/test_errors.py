import ast
from pathlib import Path

import pytest

import visemefit
from visemefit.errors import DataError, NumericError, UsageError, file_access, located


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



@pytest.mark.parametrize(
    "exc, reason",
    [(FileNotFoundError(2, "No such file or directory", "gt.csv"), "No such file or directory"),
     (IsADirectoryError(21, "Is a directory", "gt.csv"), "Is a directory"),
     (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
      "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")],
)
def test_file_access_names_the_action_and_the_path_once(exc, reason):
    with pytest.raises(DataError) as info:
        with file_access("read curve", "gt.csv"):
            raise exc
    assert str(info.value) == f"cannot read curve gt.csv: {reason}"


def test_file_access_passes_package_errors_through():
    exc = DataError("gt.csv: missing header row")
    with pytest.raises(DataError) as info:
        with file_access("read curve", "gt.csv"):
            raise exc
    assert info.value is exc


# the classes an except clause catches an OSError with; a bare except too
_OS_ERROR_CATCHERS = {"OSError", "IOError", "EnvironmentError", "Exception", "BaseException",
                      "FileNotFoundError", "IsADirectoryError", "NotADirectoryError",
                      "PermissionError"}


def _caught(handler: ast.ExceptHandler) -> set[str]:
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {getattr(t, "id", None) or getattr(t, "attr", None) for t in types}


def _callee(call: ast.Call) -> str:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", "")


def _owner_violations(tree: ast.AST) -> set[tuple[int, str]]:
    """Lines that write a '<where>: ' prefix into an error message, or turn a
    caught OSError into a new error, instead of going through errors."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) or (
            isinstance(node, ast.Call) and _callee(node).endswith(("Error", "error"))
        ):
            for sub in ast.walk(node):
                if (isinstance(sub, ast.JoinedStr) and len(sub.values) > 1
                        and isinstance(sub.values[0], ast.FormattedValue)
                        and isinstance(sub.values[1], ast.Constant)
                        and sub.values[1].value.startswith(": ")):
                    found.add((sub.lineno, "writes its own '<where>: ' prefix"))
        if isinstance(node, ast.ExceptHandler) and _caught(node) & _OS_ERROR_CATCHERS:
            # a bare raise re-raises what was caught; a suppressed cleanup raises nothing
            if any(isinstance(sub, ast.Raise) and sub.exc is not None for sub in ast.walk(node)):
                found.add((node.lineno, "turns a caught OSError into a new error"))
    return found


def test_errors_owns_every_location_prefix_and_every_failed_os_call():
    package = Path(visemefit.__file__).parent
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for line, what in sorted(_owner_violations(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert found == []


@pytest.mark.parametrize("source", [
    'raise DataError(f"{path}: empty flow file")',
    'err = DataError(f"{self.path}: frame {frame}: bad")',
    'raise line.error(f"{where}: x")',
    'try:\n    open(p)\nexcept OSError as exc:\n    raise DataError(str(exc))',
    'try:\n    open(p)\nexcept (ValueError, OSError):\n    raise DataError("x") from None',
    'try:\n    open(p)\nexcept BaseException as exc:\n    if isinstance(exc, OSError):\n'
    '        raise DataError("x")\n    raise',
])
def test_owner_guard_catches_each_form(source):
    assert _owner_violations(ast.parse(source))


@pytest.mark.parametrize("source", [
    'raise DataError(prefixed(path, "empty flow file"))',
    'raise DataError(f"cannot read {what} {path}")',
    'log.warning(f"{clip}: frame {j}: no data")',
    'try:\n    os.unlink(tmp)\nexcept OSError:\n    pass',
    'try:\n    yield\nexcept BaseException:\n    cleanup()\n    raise',
])
def test_owner_guard_allows_what_errors_does_not_own(source):
    assert not _owner_violations(ast.parse(source))
