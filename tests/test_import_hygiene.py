"""Which scipy modules a command loads: none, except the yield model's.

``scipy.stats`` alone takes most of a second to import and ``scipy.special``
about a third of one, and every fresh interpreter (a process-pool or socket
worker, a benchmark run) would pay it again.  The package therefore evaluates
the normal tail and quantile with its own Cephes port
(:mod:`repro.utils.normal`), and imports ``scipy.stats`` only inside the
yield model, whose ``binom`` is the one runtime use of scipy left.

Each case runs the command in a fresh interpreter with ``PYTHONPATH=src``,
exactly as ``python -m repro`` would, from a temporary working directory so
that no result-cache hit skips the code under test.  When the interpreter
exits it writes the names of the scipy modules it loaded; nothing is timed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs ``python -m repro ARGS`` and, at exit, records the scipy modules.
PROBE = """
import atexit, json, runpy, sys

report, command = sys.argv[1], sys.argv[2:]

def record():
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    with open(report, "w", encoding="utf-8") as handle:
        json.dump(loaded, handle)

atexit.register(record)
if command:
    sys.argv = ["repro", *command]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
else:
    import repro.runner.cli
"""


def scipy_modules(tmp_path: Path, *command: str) -> List[str]:
    """scipy modules loaded by ``python -m repro COMMAND`` (import only if empty)."""
    report = tmp_path / "scipy-modules.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, str(report), *command],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(report.read_text(encoding="utf-8"))


def test_importing_the_command_line_loads_no_scipy(tmp_path):
    assert scipy_modules(tmp_path) == []


def test_fig6_run_loads_no_scipy(tmp_path):
    assert scipy_modules(tmp_path, "run", "fig6", "--scale", "smoke", "--no-cache") == []


@pytest.mark.parametrize(
    "command",
    [
        ("bler", "--snr", "6", "--scale", "smoke"),
        ("run", "scenario", "ecc-low-voltage", "--scale", "smoke", "--no-cache"),
        ("run", "fig3", "--scale", "smoke", "--no-cache"),
    ],
    ids=["bler", "scenario-ecc-low-voltage", "fig3"],
)
def test_normal_tail_and_quantile_load_no_scipy(tmp_path, command):
    assert scipy_modules(tmp_path, *command) == []


def test_yield_model_loads_scipy_stats(tmp_path):
    loaded = scipy_modules(tmp_path, "run", "fig5", "--scale", "smoke", "--no-cache")
    assert "scipy.stats" in loaded
