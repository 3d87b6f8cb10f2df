"""tools/solve_timing.py, the in-process layer timing: its output format only
(the numbers depend on the host)."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "solve_timing.py"


def test_solve_timing_prints_one_line_per_layer(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--tmp", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.startswith("# seed 7, frame 1, 80 rounds x 50 calls; python ")
    assert [line.split()[0] for line in lines] == ["evaluate_full_us", "evaluate_landmark_us", "iteration_us"]
    for line in lines:
        assert re.fullmatch(r"\S+ \d+\.\d", line), line
    # the scene's temporary directory is gone
    assert list(tmp_path.iterdir()) == []

