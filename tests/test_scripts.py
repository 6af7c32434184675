"""The experiment scripts under scripts/ run with their default arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["cli_digest.py", "cross_family_gram.py", "figure_traces.py",
                                    "pair_splitting_report.py"])
def test_script_runs_with_defaults(tmp_path, script):
    # run from an empty directory: figure_traces.py writes its CSV files there
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
