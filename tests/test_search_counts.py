"""tools/search_counts.py prints the exact search's counts on fixed designs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "search_counts.py"


def _run(src, **env):
    return subprocess.run([sys.executable, str(TOOL), str(src)],
                          capture_output=True, text=True,
                          env={**os.environ, **env})


def test_prints_one_row_per_design():
    proc = _run(ROOT / "src")
    assert proc.returncode == 0 and proc.stderr == ""
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows[0] == ["nodes", "best_s", "exact", "design"]
    assert len(rows) == 8
    assert ["72584", "13", "True", "build_sts(25,1)"] in rows
    assert ["132", "6", "True", "bose(15)"] in rows


def test_refuses_a_package_found_elsewhere(tmp_path):
    # tmp_path holds no package, so the import finds the one on
    # PYTHONPATH, as it would find an installed copy: the table would
    # then be that copy's, so the tool prints none.
    proc = _run(tmp_path, PYTHONPATH=str(ROOT / "src"))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "was not imported from" in proc.stderr
