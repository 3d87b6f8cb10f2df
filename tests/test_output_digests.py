"""tools/output_digests.py, the byte-identity check: the workloads it runs, its
tree digest and its one digest per assets output."""

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


def test_assets_chain_gets_one_digest_per_output(tmp_path):
    tool = _tool()
    _, out, _ = tool.run_workload(tool.load_workloads()["assets"](1), 7, str(tmp_path), "assets")
    digests = dict(tool.output_digests(out))
    assert list(digests) == ["bone_track.csv", "meshes/", "metrics/", "proc.csv", "proc60.csv"]
    for name in ("meshes", "metrics"):
        assert digests[f"{name}/"] == tool.tree_digest(f"{out}/{name}")
    for name in ("bone_track.csv", "proc.csv", "proc60.csv"):
        assert digests[name] == hashlib.sha256(Path(out, name).read_bytes()).hexdigest()
