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
    assert rows[0] == ["nodes", "best_s", "exact", "digest", "design"]
    assert len(rows) == 10
    assert ["72584", "13", "True", "3a8e81e0e6b6", "build_sts(25,1)"] in rows
    assert ["132", "6", "True", "fa69563e1f98", "bose(15)"] in rows
    assert ["34215", "18", "True", "5dc9f56083d8",
            "doubling(build_sts(15,1))"] in rows
    assert ["0", "26", "True", "b3c7d1132c11",
            "embed_subsystem(13,39,0)"] in rows
    assert ["0", "70", "True", "bec7d2d3a2b5",
            "embed_subsystem(21,91,0)"] in rows


def test_refuses_a_package_found_elsewhere(tmp_path):
    # tmp_path holds no package, so the import finds the one on
    # PYTHONPATH, as it would find an installed copy: the table would
    # then be that copy's, so the tool prints none.
    proc = _run(tmp_path, PYTHONPATH=str(ROOT / "src"))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "was not imported from" in proc.stderr
