"""The narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_autograd_and_gradients.py", "02_synthetic_dataset.py",
                                  "03_few_shot_pipeline.py", "04_zero_shot_transfer.py"])
def test_demo_runs(tmp_path, name):
    env = dict(os.environ, TMPDIR=str(tmp_path), OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
