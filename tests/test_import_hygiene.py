"""Which modules a command loads: only the code it runs.

``scipy.stats`` alone takes most of a second to import and ``scipy.special``
about a third of one, and every fresh interpreter (a process-pool or socket
worker, a benchmark run) would pay it again.  The package therefore evaluates
the normal tail and quantile with its own Cephes port
(:mod:`repro.utils.normal`), and imports ``scipy.stats`` only inside the
yield model, whose ``binom`` is the one runtime use of scipy left.

The same holds at a smaller scale for the execution backends and the figure
drivers: a serial run loads neither the process pool (``multiprocessing``,
``concurrent.futures``, ``logging``) nor the socket backend (``socket``),
the native kernel's loader imports ``subprocess`` only to compile, the turbo
interleaver's permutation check does not pull in ``numpy.ma``, and a run
imports only its own experiment driver.

Each case runs the command in a fresh interpreter with ``PYTHONPATH=src``,
exactly as ``python -m repro`` would, from a temporary working directory so
that no result-cache hit skips the code under test.  When the interpreter
exits it writes the names of every module it loaded; nothing is timed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs ``python -m repro ARGS`` and, at exit, records every loaded module.
PROBE = """
import atexit, json, runpy, sys

report, command = sys.argv[1], sys.argv[2:]

def record():
    with open(report, "w", encoding="utf-8") as handle:
        json.dump(sorted(sys.modules), handle)

atexit.register(record)
if command:
    sys.argv = ["repro", *command]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
else:
    import repro.runner.cli
"""


#: Modules a serial run needs none of: the process pool's and the socket
#: backend's, the compiler call's ``subprocess``, and ``numpy.ma``.
SERIAL_RUNS_NEVER_LOAD = (
    "multiprocessing",
    "concurrent.futures",
    "logging",
    "socket",
    "subprocess",
    "numpy.ma",
    "repro.runner.backends.process_pool",
    "repro.runner.backends.socket_backend",
    "repro.runner.backends.wire",
)

#: The command-line runs of a serial figure, BLER estimate and scenario.
FIG6 = ("run", "fig6", "--scale", "smoke", "--no-cache")
BLER = ("bler", "--snr", "6", "--scale", "smoke")
ECC_SCENARIO = ("run", "scenario", "ecc-low-voltage", "--scale", "smoke", "--no-cache")


def probe(tmp_path: Path, *command: str) -> Tuple[Set[str], str]:
    """``python -m repro COMMAND``'s loaded modules and standard output.

    With no command the probe only imports the command line.
    """
    report = tmp_path / "modules.json"
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
    return set(json.loads(report.read_text(encoding="utf-8"))), completed.stdout


def loaded_modules(tmp_path: Path, *command: str) -> Set[str]:
    """Every module loaded by ``python -m repro COMMAND``."""
    return probe(tmp_path, *command)[0]


def scipy_modules(tmp_path: Path, *command: str) -> List[str]:
    """scipy modules loaded by ``python -m repro COMMAND`` (import only if empty)."""
    loaded = loaded_modules(tmp_path, *command)
    return sorted(name for name in loaded if name.split(".")[0] == "scipy")


def drivers(loaded: Set[str]) -> Set[str]:
    """The experiment driver modules among *loaded* (``scales`` is not one)."""
    return {
        name
        for name in loaded
        if name.startswith("repro.experiments.") and name != "repro.experiments.scales"
    }


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


@pytest.mark.parametrize(
    "command", [FIG6, BLER, ECC_SCENARIO], ids=["fig6", "bler", "scenario-ecc-low-voltage"]
)
def test_serial_runs_load_only_what_they_run(tmp_path, command):
    loaded = loaded_modules(tmp_path, *command)
    assert [name for name in SERIAL_RUNS_NEVER_LOAD if name in loaded] == []


def test_fig6_run_loads_only_its_own_driver(tmp_path):
    loaded = loaded_modules(tmp_path, *FIG6)
    assert drivers(loaded) == {"repro.experiments.fig6_throughput_vs_defects"}


def test_bler_loads_no_driver(tmp_path):
    assert drivers(loaded_modules(tmp_path, *BLER)) == set()


def test_list_prints_every_experiment_and_loads_no_driver(tmp_path):
    loaded, stdout = probe(tmp_path, "list")
    experiments = stdout.split("scales:")[0].splitlines()[1:]
    assert [line.split()[0] for line in experiments] == [
        "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "power_savings"
    ]
    assert drivers(loaded) == set()
