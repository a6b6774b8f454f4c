"""The shipped examples run as a user would start them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_paper_reproduction_creates_a_nested_output_directory(tmp_path):
    out = tmp_path / "a" / "b" / "c"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    env["REPRO_JOBS"] = "1"
    env.pop("REPRO_CACHE", None)
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "paper_reproduction.py"),
         "--jobs", "30", "--output", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    reports = sorted(path.name for path in out.glob("*.txt"))
    expected = sorted(path.name for path in (REPO_ROOT / "reproduction_output").glob("*.txt"))
    assert reports == expected
