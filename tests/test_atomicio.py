import contextlib
import os

import numpy as np
import pytest

from visemefit import atomicio
from visemefit.flow import write_flow_pair
from visemefit.images import write_ppm
from visemefit.mesh import Mesh, write_obj


def _stream(path):
    with atomicio.atomic_text(path) as fh:
        fh.write("streamed\n")


GRID = np.zeros((2, 3, 2))
TRIANGLE = Mesh(vertices=np.eye(3), triangles=np.array([[0, 1, 2]]))

# each writer, writing one file into a directory
WRITERS = {
    "write_text": lambda d: atomicio.write_text(d / "a.txt", "text\n"),
    "write_bytes": lambda d: atomicio.write_bytes(d / "a.bin", b"ab", np.arange(3)),
    "write_ppm": lambda d: write_ppm(np.zeros((2, 3, 3)), d / "a.ppm"),
    "write_flow_pair": lambda d: write_flow_pair(GRID, GRID, d / "a.flo"),
    "write_obj": lambda d: write_obj(TRIANGLE, d / "a.obj"),
    "atomic_text": lambda d: _stream(d / "a.txt"),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_every_writer_goes_through_atomic_path_once(tmp_path, monkeypatch, writer):
    """atomic_path is looked up on atomicio at call time, so replacing it
    there sees every file write once; the benchmark's atomicio.write span
    relies on this."""
    seen = []
    original = atomicio.atomic_path

    @contextlib.contextmanager
    def recording(path):
        seen.append(str(path))
        with original(path) as tmp:
            yield tmp

    monkeypatch.setattr(atomicio, "atomic_path", recording)
    WRITERS[writer](tmp_path)
    assert len(seen) == 1
    assert os.listdir(tmp_path) == [os.path.basename(seen[0])]


def test_write_bytes_joins_its_chunks(tmp_path):
    path = tmp_path / "a.bin"
    atomicio.write_bytes(path, b"head", np.array([1, 2], dtype="<u2"), b"")
    assert path.read_bytes() == b"head\x01\x00\x02\x00"
