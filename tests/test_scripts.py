"""Smoke tests for the experiment scripts under ``scripts/``."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_ablation_table_prints_four_rows():
    args = [sys.executable, str(SCRIPTS / "ablation_table.py"), "--steps", "1", "--n", "4"]
    result = subprocess.run(
        args + ["--size", "16"], capture_output=True, text=True, timeout=300, check=False
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.strip().splitlines()
    assert header.split()[:3] == ["row", "params", "macs@16"]
    assert [row.split()[0] for row in rows] == ["baseline", "+ppa", "+ppa+dasi", "full"]
    # parameter and MAC columns of the plain and full networks at 16x16
    assert rows[0].split()[1:3] == ["1944245", "11806976"]
    assert rows[3].split()[1:3] == ["3763070", "20543890"]


def test_run_overfit_fails_short_run():
    args = [sys.executable, str(SCRIPTS / "run_overfit.py"), "--epochs", "1", "--n", "4"]
    result = subprocess.run(
        args + ["--size", "16"], capture_output=True, text=True, timeout=300, check=False
    )
    assert result.returncode == 1, result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[0].startswith("epoch=1 loss=")
    assert lines[-1] == "FAIL: needs ratio < 0.10 and iou > 0.8"
