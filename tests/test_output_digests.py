"""tools/output_digests.py, the byte-identity check: the workloads it runs and
its tree digest."""

import hashlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_load_workloads_finds_the_benchmark_workloads():
    assert {"clip_full", "clips_batch", "assets"} <= set(_tool().load_workloads())


def test_tree_digest_hashes_sorted_file_lines(tmp_path):
    files = {"b.txt": b"beta\n", "a/c.bin": b"\x00\x01", "a/z/empty": b""}
    for rel, data in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(data)
    lines = "".join(
        f"{hashlib.sha256(files[rel]).hexdigest()}  {rel}\n" for rel in sorted(files)
    )
    assert _tool().tree_digest(str(tmp_path)) == hashlib.sha256(lines.encode()).hexdigest()
