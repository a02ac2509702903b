import os
import subprocess
import sys
from pathlib import Path

import pytest

from cellstage.frames import Calibration

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
REFERENCE_CONFIG = REPO_ROOT / "configs" / "reference.cfg"
DATA_DIR = Path(__file__).resolve().parent / "data"


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(
    *args: str, cwd: Path | None = None, **kwargs
) -> subprocess.CompletedProcess:
    """Run `python -m cellstage ...` with the package on the path.

    Extra keyword arguments, such as timeout or preexec_fn, go to subprocess.run.
    """
    return subprocess.run(
        [sys.executable, "-m", "cellstage", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env=_cli_env(),
        **kwargs,
    )


def start_cli(*args: str) -> subprocess.Popen:
    """Start `python -m cellstage ...` as run_cli does, without waiting for it."""
    return subprocess.Popen(
        [sys.executable, "-m", "cellstage", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
        env=_cli_env(),
    )


def degenerate_calibration() -> Calibration:
    """The Calibration alpha = 0, dx = dy = 1, fx = 0, fy = 1, built around
    the check that rejects fx = 0, for the singular guards' tests."""
    c = object.__new__(Calibration)
    for name, value in dict(alpha=0.0, dx=1.0, dy=1.0, fx=0.0, fy=1.0).items():
        object.__setattr__(c, name, value)
    return c


@pytest.fixture
def reference_config_text() -> str:
    return REFERENCE_CONFIG.read_text()
