"""tools/north_star.py, the north-star bench: one round on a small scene, and
its disk-space check (the numbers depend on the host)."""

import importlib.util
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "north_star.py"


def _tool():
    spec = importlib.util.spec_from_file_location("north_star", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_round_times_both_commands_and_checks_the_fit(tmp_path):
    tool = _tool()
    result = tool.run_round(tool.load_bench(), str(tmp_path), frames=4)
    assert set(result) == {"synth_s", "fit_s", "total_s", "synth_peak_rss_mb", "fit_peak_rss_mb",
                           "mae_worst", "mae_mean", "calibration_s"}
    assert result["total_s"] == result["synth_s"] + result["fit_s"]
    assert 0.0 <= result["mae_mean"] <= result["mae_worst"] < 0.05
    assert len(result["calibration_s"]) == 2 and min(result["calibration_s"]) > 0.0
    assert min(result["synth_peak_rss_mb"], result["fit_peak_rss_mb"]) > 0.0
    # the scene and the fit are gone
    assert list(tmp_path.iterdir()) == []


def test_summary_scales_each_round_by_its_calibrations():
    rounds = [
        {"synth_s": 2.0, "fit_s": 1.0, "total_s": 3.0, "synth_peak_rss_mb": 60.0, "fit_peak_rss_mb": 40.0,
         "mae_worst": 0.008, "mae_mean": 0.003, "calibration_s": [0.5, 0.7]},
        {"synth_s": 4.0, "fit_s": 2.0, "total_s": 6.0, "synth_peak_rss_mb": 62.0, "fit_peak_rss_mb": 42.0,
         "mae_worst": 0.008, "mae_mean": 0.003, "calibration_s": [0.3, 0.3]},
    ]
    out = _tool().summary(rounds, 0.3)
    assert out["raw_median"] == {"synth_s": 3.0, "fit_s": 1.5, "total_s": 4.5,
                                 "synth_peak_rss_mb": 61.0, "fit_peak_rss_mb": 41.0}
    # the first round ran on a host at half the reference speed
    assert out["scaled_median"] == pytest.approx({"synth_s": 2.5, "fit_s": 1.25, "total_s": 3.75})
    assert (out["mae_worst"], out["mae_mean"]) == (0.008, 0.003)


def test_too_little_free_space_exits_2_before_writing(tmp_path, monkeypatch, capsys):
    tool = _tool()
    monkeypatch.setattr(shutil, "disk_usage", lambda path: SimpleNamespace(free=10**6))
    assert tool.main(["--tmp", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "needs 2200 MB free" in err
    assert list(tmp_path.iterdir()) == []
