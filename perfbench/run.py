"""The repository benchmark: whole figure runs of ``python -m repro``.

    python3 perfbench/run.py --workload fig6-default --seed 2012 --seconds 40 --trace 0

Run from the root of a source checkout.  Each invocation

1. runs a smoke-scale ``fig6`` and compares its bytes with
   ``tests/golden/fig6.json`` (this run also warms the bytecode and file
   caches, and reports the provenance of the interpreter and decoders);
2. runs the workload again and again, one process at a time, for about
   ``--seconds`` seconds (at least three runs; with ``--trace 1``, untraced
   and traced runs alternate, at least one of each);
3. checks every run: exit status, a set-up mark, and canonical output
   byte-identical to the first run of the invocation;
4. prints a readable summary, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
   ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every run is a fresh interpreter started through ``perfbench/launch.py``,
which runs ``python -m repro ...`` in a fresh temporary directory under
``perfbench/.runs/`` with the repo's default decoder, serial execution and
single-threaded numeric libraries.  So each run pays the import and link
set-up cost a user pays, and no run reads or writes the repo's
``.repro-cache/``, ``BENCH_decoder.json`` or ``tests/golden/``.  ``--out``
writes the full record (provenance, every run, digests) to a file; apart
from bytecode caches, nothing else is written outside ``perfbench/.runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import perfstats as stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LAUNCHER = BENCH_DIR / "launch.py"
RUNS_DIR = BENCH_DIR / ".runs"
GOLDEN_FIG6 = ROOT / "tests" / "golden" / "fig6.json"
REPRO_MAIN = ROOT / "src" / "repro" / "__main__.py"

DEFAULT_SEED = 2012
#: One invocation must end well inside the three minutes it is allowed.
DEADLINE_S = 170.0
#: Fewest timed runs, whatever ``--seconds`` says: three for an untraced
#: median, one untraced and one traced for a trace.
MIN_RUNS = {0: 3, 1: 2}
#: Output file the file-writing workloads are told to write.
OUTPUT_NAME = "output.json"


@dataclass(frozen=True)
class Workload:
    """One command of ``python -m repro`` (``BENCHMARK.json`` says why)."""

    name: str
    command: Sequence[str]
    scale: str

    def argv(self, seed: int, scale: Optional[str] = None) -> List[str]:
        """The command line at *seed* (and at *scale*, for dry runs)."""
        scale = scale or self.scale
        return [part.format(scale=scale, seed=seed, out=OUTPUT_NAME) for part in self.command]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "fig6-default",
            ("run", "fig6", "--scale", "{scale}", "--seed", "{seed}", "--out", "{out}"),
            "default",
        ),
        Workload(
            "ecc-vdd-paper",
            (
                "run", "scenario", "ecc-low-voltage", "--scale", "{scale}",
                "--seed", "{seed}", "--out", "{out}",
            ),
            "paper",
        ),
        Workload(
            "bler-adaptive",
            ("bler", "--snr", "6", "--scale", "{scale}", "--seed", "{seed}"),
            "default",
        ),
    )
}

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "packets_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Layers whose self time the trace reports (besides set-up and runner).
LAYERS = (
    "link.transmitter",
    "channel",
    "link.receiver.front_end",
    "link.receiver.derate",
    "harq",
    "memory",
    "memory.ecc",
    "phy.turbo",
)

#: Per-layer metrics (traced runs): name -> unit.  Every layer in LAYERS
#: has ``<layer>.self_s`` (busy time after set-up, children excluded) and
#: ``<layer>.share_pct`` (that time over the traced wall time).
PER_LAYER = {
    "setup.import_s": "s",
    "setup.link_build_s": "s",
    "setup.share_pct": "%",
    "link.transmitter.self_s": "s",
    "link.transmitter.share_pct": "%",
    "link.transmitter.rows": "count",
    "channel.self_s": "s",
    "channel.share_pct": "%",
    "channel.rows": "count",
    "link.receiver.front_end.self_s": "s",
    "link.receiver.front_end.share_pct": "%",
    "link.receiver.front_end.rows": "count",
    "link.receiver.derate.self_s": "s",
    "link.receiver.derate.share_pct": "%",
    "link.receiver.derate.rows": "count",
    "harq.self_s": "s",
    "harq.share_pct": "%",
    "harq.store.calls": "count",
    "harq.load.calls": "count",
    "harq.buffer_build.calls": "count",
    "memory.self_s": "s",
    "memory.share_pct": "%",
    "memory.words_read": "count",
    "memory.words_written": "count",
    "memory.fault_map.calls": "count",
    "memory.ecc.self_s": "s",
    "memory.ecc.share_pct": "%",
    "memory.ecc.calls": "count",
    "phy.turbo.self_s": "s",
    "phy.turbo.share_pct": "%",
    "phy.turbo.calls": "count",
    "phy.turbo.rows": "count",
    "phy.turbo.rows_per_call": "rows",
    "phy.turbo.iterations_mean": "iterations",
    "phy.turbo.crc_pass_ratio": "ratio",
    "phy.turbo.info_bits_per_s": "bit/s",
    "runner.self_s": "s",
    "runner.share_pct": "%",
    "runner.store_writes": "count",
    "runner.journal_appends": "count",
    "runner.chunks": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Run:
    """One child process: its timings, output and the checks it failed."""

    label: str
    traced: bool
    wall_s: float = 0.0
    setup_s: Optional[float] = None
    import_s: Optional[float] = None
    peak_rss_mb: float = 0.0
    returncode: Optional[int] = None
    output: bytes = b""
    packets: int = 0
    report: Dict = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Outcome:
    """Every run of one invocation, with what they share."""

    runs: List[Run]
    provenance: Dict[str, object]
    digest: Optional[str]
    layer_samples: List[Dict[str, float]]


def child_env(workdir: Path) -> Dict[str, str]:
    """The environment of one run: this checkout's sources, one thread each."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        TMPDIR=str(workdir),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def launch(argv: Sequence[str], *, label: str, traced: bool, deadline: float,
           provenance: bool = False) -> Run:
    """Run ``python -m repro ARGV`` once in a fresh directory and time it."""
    run = Run(label=label, traced=traced)
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR))
    try:
        report_path = workdir / "report.json"
        flags = ["--report", str(report_path)]
        flags += ["--trace"] if traced else []
        flags += ["--provenance"] if provenance else []
        command = [sys.executable, str(LAUNCHER), *flags, "--", *argv]
        stdout_path = workdir / "stdout.txt"
        with open(stdout_path, "wb") as stdout, open(workdir / "stderr.txt", "wb") as stderr:
            start = time.monotonic()
            process = subprocess.Popen(
                command, cwd=workdir, env=child_env(workdir),
                stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
            )
            timer = threading.Timer(max(1.0, deadline - start), process.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(process.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic()
        process.returncode = os.waitstatus_to_exitcode(status)
        run.returncode = process.returncode
        run.wall_s = end - start
        run.peak_rss_mb = usage.ru_maxrss / 1024.0
        if run.returncode != 0:
            tail = (workdir / "stderr.txt").read_text(errors="replace").strip()[-400:]
            run.problems.append(f"exit status {run.returncode}: {tail}")
            return run
        run.report = json.loads(report_path.read_text())
        run.import_s = run.report["imported"] - start
        if run.report.get("first_packet") is None:
            run.problems.append("no simulated packet was seen")
        else:
            run.setup_s = run.report["first_packet"] - start
        stdout_text = stdout_path.read_bytes()
        output_path = workdir / OUTPUT_NAME
        run.output = output_path.read_bytes() if output_path.exists() else stdout_text
        run.packets = count_packets(run.output)
        if run.packets <= 0:
            run.problems.append("no packet count in the output")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run


def count_packets(output: bytes) -> int:
    """Packets the run simulated, as its own output states them."""
    text = output.decode("utf-8", errors="replace")
    match = re.search(r"\bpackets=(\d+)", text)
    if match:
        return int(match.group(1))
    try:
        payload = json.loads(text)
        per_point = payload["identity"]["scale_params"]["num_packets"]
        points = sum(len(table["rows"]) for table in payload["tables"].values())
    except (ValueError, KeyError, TypeError):
        return 0
    return int(per_point) * points


def layer_metrics(run: Run) -> Dict[str, float]:
    """Per-layer numbers of one traced run (self times, counts, shares)."""
    spans = run.report["spans"]
    counters = run.report["counters"]
    since = run.report["first_packet"]
    self_times = stats.layer_self_times(spans, since)
    wall, setup = run.wall_s, run.setup_s

    def count(name):
        return float(counters.get(name, 0))

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "setup.import_s": run.import_s,
        "setup.link_build_s": stats.layer_self_times(spans).get("setup.link_build", 0.0),
        "setup.share_pct": 100.0 * setup / wall,
        "trace.wall_s": wall,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0)
        metrics[f"{layer}.share_pct"] = 100.0 * metrics[f"{layer}.self_s"] / wall
    runner_s = wall - setup - sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    metrics["runner.self_s"] = runner_s
    metrics["runner.share_pct"] = 100.0 * runner_s / wall
    for name in (
        "harq.store.calls", "harq.load.calls", "harq.buffer_build.calls",
        "memory.words_read", "memory.words_written", "memory.fault_map.calls",
        "memory.ecc.calls", "link.transmitter.rows", "channel.rows",
        "link.receiver.front_end.rows", "link.receiver.derate.rows",
        "runner.store_writes", "runner.journal_appends", "runner.chunks",
        "phy.turbo.calls", "phy.turbo.rows",
    ):
        metrics[name] = count(name)
    calls, rows = count("phy.turbo.calls"), count("phy.turbo.rows")
    metrics["phy.turbo.rows_per_call"] = ratio(rows, calls)
    metrics["phy.turbo.iterations_mean"] = ratio(count("phy.turbo.iterations"), calls)
    metrics["phy.turbo.crc_pass_ratio"] = ratio(count("phy.turbo.crc_passes"), rows)
    metrics["phy.turbo.info_bits_per_s"] = ratio(
        count("phy.turbo.info_bits"), metrics["phy.turbo.self_s"]
    )
    return metrics


def check_traced(run: Run, metrics: Dict[str, float]) -> None:
    """No time may be counted twice, and the trace must see every packet.

    ``runner.self_s`` is what remains of the wall time after set-up and the
    layer self times, so the parts add up by construction; a negative
    remainder would mean overlapping spans were counted twice.
    """
    if metrics["runner.self_s"] < 0.0:
        run.problems.append(
            f"layer self times exceed the wall time after set-up by "
            f"{-metrics['runner.self_s']:.6f} s"
        )
    traced_packets = run.report["counters"].get("packets", 0)
    if traced_packets != run.packets:
        run.problems.append(
            f"trace saw {traced_packets} packets, the output states {run.packets}"
        )


def source_provenance() -> Dict[str, object]:
    """Commit (when the checkout is a git work tree), source digest, CPUs."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c", ".h"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: int,
            dry_run: bool, deadline: float) -> Outcome:
    """Pre-check, timed iterations and per-run checks of one invocation."""
    runs: List[Run] = []
    provenance = source_provenance()
    if not dry_run:
        golden = launch(
            ["run", "fig6", "--scale", "smoke", "--seed", str(DEFAULT_SEED), "--out", OUTPUT_NAME],
            label="golden-precheck", traced=False, deadline=deadline, provenance=True,
        )
        if golden.ok and golden.output != GOLDEN_FIG6.read_bytes():
            golden.problems.append("smoke fig6 differs from tests/golden/fig6.json")
        provenance.update(golden.report.get("provenance", {}))
        runs.append(golden)

    argv = workload.argv(seed, "smoke" if dry_run else None)
    minimum = 1 + trace if dry_run else MIN_RUNS[trace]
    durations: List[float] = []
    measure_start = time.monotonic()
    while True:
        index = len(durations)
        # Untraced and traced runs alternate as U T T U U T ..., so a drift
        # in machine speed falls on both sides alike.
        traced = bool(trace) and index % 4 in (1, 2)
        began = time.monotonic()
        runs.append(
            launch(argv, label=f"{'traced' if traced else 'timed'}-{index}",
                   traced=traced, deadline=deadline)
        )
        durations.append(time.monotonic() - began)
        if len(durations) >= minimum and (
            dry_run or time.monotonic() - measure_start + stats.median(durations) > seconds
        ):
            break
        if time.monotonic() + stats.median(durations) > deadline - 5.0:
            break

    timed = [run for run in runs if run.label != "golden-precheck"]
    reference = next((run.output for run in timed if run.ok), None)
    layer_samples: List[Dict[str, float]] = []
    for run in timed:
        if run.ok and run.output != reference:
            run.problems.append("output differs from the first run of this invocation")
        if run.ok and run.traced:
            metrics = layer_metrics(run)
            check_traced(run, metrics)
            if run.ok:
                layer_samples.append(metrics)
    digest = hashlib.sha256(reference).hexdigest() if reference is not None else None
    return Outcome(runs, provenance, digest, layer_samples)


def summarise(workload: Workload, seed: int, trace: int, outcome: Outcome):
    """Print the readable report; return the result object of the last line."""
    runs = outcome.runs
    failed = [run for run in runs if not run.ok]
    good = [run for run in runs if run.ok and not run.traced and run.label != "golden-precheck"]
    samples = {
        "wall_s": [run.wall_s for run in good],
        "setup_s": [run.setup_s for run in good],
        "packets_per_s": [run.packets / (run.wall_s - run.setup_s) for run in good],
        "peak_rss_mb": [run.peak_rss_mb for run in good],
    }
    print(f"workload {workload.name} (seed {seed}, trace {trace})")
    print(f"  command: python -m repro {' '.join(workload.argv(seed))}")
    for name, values in samples.items():
        if values:
            print(f"  {name:<14} {END_TO_END[name]:<4} {stats.describe_timing(values)}")
    print(f"  failed_frac    {len(failed)}/{len(runs)} = {len(failed) / len(runs):.3f}")
    for run in failed:
        print(f"  FAILED {run.label}: {'; '.join(run.problems)}")
    print(f"  output sha256  {outcome.digest}")
    print(f"  provenance     {json.dumps(outcome.provenance, sort_keys=True)}")
    metrics: Dict[str, Dict[str, object]] = {}
    if trace:
        layer_samples = outcome.layer_samples
        if layer_samples and good:
            for name, unit in PER_LAYER.items():
                if name != "trace.overhead_s":
                    value = stats.median([sample[name] for sample in layer_samples])
                    metrics[name] = {"value": value, "unit": unit}
            overhead = metrics["trace.wall_s"]["value"] - stats.median(samples["wall_s"])
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        missing = sorted({target for run in runs for target in run.report.get("missing", ())})
        if missing:
            print(f"  trace hooks this program lacks: {', '.join(missing)}")
        if metrics:
            parts = ["setup.share_pct", "runner.share_pct"]
            parts += [f"{layer}.share_pct" for layer in LAYERS]
            total = sum(metrics[name]["value"] for name in parts)
            print(f"  set-up + layers + runner = {total:.2f}% of the traced wall time")
        for name in sorted(metrics):
            print(f"  {name:<36} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    elif good:
        for name, values in samples.items():
            metrics[name] = {"value": stats.median(values), "unit": END_TO_END[name]}
    return {
        "correct": not failed and bool(metrics),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }


def record(path: Path, workload: Workload, seed: int, trace: int,
           outcome: Outcome, result: Dict[str, object]) -> None:
    """Write the full record of the invocation to *path* (``--out``)."""
    runs = [
        {
            "label": run.label, "traced": run.traced, "wall_s": run.wall_s,
            "setup_s": run.setup_s, "import_s": run.import_s,
            "peak_rss_mb": run.peak_rss_mb, "packets": run.packets,
            "returncode": run.returncode, "problems": run.problems,
        }
        for run in outcome.runs
    ]
    document = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "provenance": outcome.provenance, "output_sha256": outcome.digest,
        "runs": runs, "layer_samples": outcome.layer_samples, "result": result,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="write the full record here")
    parser.add_argument(
        "--dry-run", action="store_true",
        help="smoke scale, one run (one of each with --trace 1), no golden "
        "pre-check: a quick test of the harness itself",
    )
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    missing = [str(path) for path in (REPRO_MAIN, GOLDEN_FIG6) if not path.is_file()]
    if missing:
        print(f"perfbench: not a source checkout of repro: missing {missing}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    outcome = measure(workload, args.seed, args.seconds, args.trace, args.dry_run, deadline)
    result = summarise(workload, args.seed, args.trace, outcome)
    if args.out is not None:
        record(args.out, workload, args.seed, args.trace, outcome, result)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
