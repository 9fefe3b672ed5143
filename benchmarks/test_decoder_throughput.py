"""Benchmarks: pipeline throughput per stage, backend and batch size.

``BENCH_decoder.json`` (the name is historical — it now covers the whole
pipeline) collects four sections: the turbo-decoder kernel comparison
below, the decoder backend-family sweep, the end-to-end llr-dtype link
benchmark, and the link front-end section (seed-serial vs batched
transmit/channel/equalize/demap) produced by :mod:`repro.runner.bench`.

These tests write their sections to ``BENCH_decoder.json`` in pytest's
temporary directory (``<basetemp>/BENCH_decoder.json``; pass ``--basetemp
DIR`` to keep it) and assert against that file, so running the suite never
touches the committed snapshot at the repository root.  Only the explicit
``repro bench front-end`` / ``repro bench decoder`` commands write the
committed copy; the non-gating ``decoder-bench`` CI job copies this run's
file over it, runs those commands and uploads the result per commit.

Decoder section:

Measures information bits decoded per second on a realistic mixed-noise
workload (rows from clean to garbage, like a Monte-Carlo sweep's decode
calls) for

* the **seed** kernel — a faithful copy of the pre-engine decoder, kept
  here as the fixed baseline,
* every available backend of the new engine (numpy, numpy-f32, plus numba /
  native / cupy when importable),

at the batch sizes that occur at smoke scale: 8 (one work-item chunk /
fault-map die) and 32 (the cross-work-item aggregated batch,
``DEFAULT_AGGREGATE_PACKETS``), plus 128 for headroom.

Set ``REPRO_BENCH_STRICT=1`` to also assert the engine's speedup targets —
numpy backend >= 3x the seed kernel at the aggregated batch sizes (>= 32)
and for the aggregated pipeline, >= 2.5x at batch 8 (measured ~3.1x; the
looser bound absorbs shared-machine jitter).  Kept opt-in because
wall-clock ratios are flaky on shared CI machines.
"""

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.experiments.scales import SCALES
from repro.phy.turbo import TurboCode, TurboDecoder
from repro.phy.turbo.backends import available_backends
from repro.phy.turbo.interleaver import TurboInterleaver, make_turbo_interleaver
from repro.phy.turbo.trellis import RscTrellis, UMTS_TRELLIS
from repro.runner.tasks import DEFAULT_AGGREGATE_PACKETS

BATCH_SIZES = (8, DEFAULT_AGGREGATE_PACKETS, 128)
REPEATS = 12
#: Per-row noise levels cycled through the batch: solid, moderate, hard,
#: hopeless — the convergence mix a sweep's decode calls actually see.
NOISE_SIGMAS = (0.8, 1.5, 2.2, 3.0)

_NEG_INF = -1e30


@pytest.fixture(scope="module")
def bench_path(tmp_path_factory):
    """This run's ``BENCH_decoder.json``, shared by the benchmarks below."""
    return tmp_path_factory.getbasetemp() / "BENCH_decoder.json"


def _read_section(path, key):
    return json.loads(path.read_text())[key]


# --------------------------------------------------------------------------- #
# The seed decoder (pre-engine), preserved verbatim as the benchmark baseline.
# --------------------------------------------------------------------------- #
class _SeedSisoDecoder:
    def __init__(self, trellis: RscTrellis, block_size: int) -> None:
        self.trellis = trellis
        self.block_size = block_size
        self._parity_sign = 1.0 - 2.0 * trellis.parity.astype(np.float64)
        self._input_sign = np.array([1.0, -1.0])
        self._next_state = trellis.next_state
        self._prev_state = trellis.prev_state
        self._prev_input = trellis.prev_input

    def decode(self, sys_llrs, par_llrs, apriori_llrs, *, terminated_start=True):
        batch, k = sys_llrs.shape
        num_states = self.trellis.num_states
        combined = 0.5 * (sys_llrs + apriori_llrs)
        half_par = 0.5 * par_llrs

        alphas = np.empty((k + 1, batch, num_states), dtype=np.float64)
        alpha = np.full((batch, num_states), _NEG_INF)
        if terminated_start:
            alpha[:, 0] = 0.0
        else:
            alpha[:, :] = 0.0
        alphas[0] = alpha

        prev_state = self._prev_state
        prev_input = self._prev_input
        next_state = self._next_state
        parity_sign = self._parity_sign
        input_sign = self._input_sign
        in_sign_for_target = input_sign[prev_input]
        par_sign_for_target = parity_sign[prev_state, prev_input]

        for t in range(k):
            c = combined[:, t][:, None, None]
            p = half_par[:, t][:, None, None]
            branch = c * in_sign_for_target[None, :, :] + p * par_sign_for_target[None, :, :]
            candidates = alpha[:, prev_state] + branch
            alpha = candidates.max(axis=2)
            alpha -= alpha.max(axis=1, keepdims=True)
            alphas[t + 1] = alpha

        beta = np.zeros((batch, num_states), dtype=np.float64)
        app = np.empty((batch, k), dtype=np.float64)
        in_sign_from_state = input_sign[None, :]
        par_sign_from_state = parity_sign

        for t in range(k - 1, -1, -1):
            c = combined[:, t][:, None, None]
            p = half_par[:, t][:, None, None]
            branch = c * in_sign_from_state[None, :, :] + p * par_sign_from_state[None, :, :]
            beta_next = beta[:, next_state]
            metric = alphas[t][:, :, None] + branch + beta_next
            app[:, t] = metric[:, :, 0].max(axis=1) - metric[:, :, 1].max(axis=1)
            beta = (branch + beta_next).max(axis=2)
            beta -= beta.max(axis=1, keepdims=True)

        return app


class _SeedTurboDecoder:
    """The pre-engine iterative decoder (whole-batch early stopping)."""

    def __init__(self, block_size, num_iterations, interleaver: TurboInterleaver) -> None:
        self.block_size = block_size
        self.num_iterations = num_iterations
        self.extrinsic_scale = 0.75
        self.interleaver = interleaver
        self._siso = _SeedSisoDecoder(UMTS_TRELLIS, block_size)

    def decode(self, sys_llrs, par1, par2):
        batch, k = sys_llrs.shape
        perm = self.interleaver.permutation
        sys_interleaved = sys_llrs[:, perm]
        extrinsic12 = np.zeros((batch, k), dtype=np.float64)
        previous_hard = None
        app_llrs = sys_llrs.copy()
        for _iteration in range(self.num_iterations):
            apriori1 = np.zeros((batch, k), dtype=np.float64)
            apriori1[:, perm] = extrinsic12
            app1 = self._siso.decode(sys_llrs, par1, apriori1)
            extrinsic1 = self.extrinsic_scale * (app1 - sys_llrs - apriori1)
            apriori2 = extrinsic1[:, perm]
            app2 = self._siso.decode(sys_interleaved, par2, apriori2)
            extrinsic12 = self.extrinsic_scale * (app2 - sys_interleaved - apriori2)
            app_llrs = np.empty((batch, k), dtype=np.float64)
            app_llrs[:, perm] = app2
            hard = (app_llrs < 0).astype(np.int8)
            if previous_hard is not None and np.all(hard == previous_hard):
                break
            previous_hard = hard
        return (app_llrs < 0).astype(np.int8)


# --------------------------------------------------------------------------- #
@dataclass
class _Workload:
    block_size: int
    num_iterations: int
    interleaver: TurboInterleaver
    batches: dict = field(default_factory=dict)


def _build_workload() -> _Workload:
    scale = SCALES[os.environ.get("REPRO_BENCH_SCALE", "smoke")]
    config = scale.link_config()
    k = config.block_size
    code = TurboCode(k, num_iterations=scale.turbo_iterations)
    rng = np.random.default_rng(2012)
    workload = _Workload(
        block_size=k,
        num_iterations=scale.turbo_iterations,
        interleaver=code.encoder.interleaver,
    )
    for batch in BATCH_SIZES:
        rows = []
        for i in range(batch):
            bits = rng.integers(0, 2, k, dtype=np.int8)
            coded = code.encode(bits)
            noise = rng.normal(0.0, NOISE_SIGMAS[i % len(NOISE_SIGMAS)], coded.size)
            rows.append((1.0 - 2.0 * coded.astype(np.float64)) * 2.0 + noise)
        llrs = np.stack(rows)
        workload.batches[batch] = (
            llrs[:, :k],
            np.ascontiguousarray(llrs[:, k::2]),
            np.ascontiguousarray(llrs[:, k + 1 :: 2]),
        )
    return workload


def _throughput(decode, batch_inputs, block_size: int, batch: int) -> float:
    """Best-of-groups throughput: the minimum elapsed time over several
    timed groups is the least-noise estimate on a shared machine."""
    decode(*batch_inputs)  # warm-up (JIT compilation, workspace growth)
    best = float("inf")
    for _group in range(3):
        start = time.perf_counter()
        for _ in range(REPEATS):
            decode(*batch_inputs)
        best = min(best, (time.perf_counter() - start) / REPEATS)
    return batch * block_size / best


def test_decoder_throughput_benchmark(bench_path):
    workload = _build_workload()
    k, iterations = workload.block_size, workload.num_iterations

    backends = ["numpy", "numpy-f32"]
    for optional in ("numba", "native", "native-f32", "cupy-f32"):
        if optional in available_backends():
            backends.append(optional)

    results = {"seed": {}}
    for name in backends:
        results[name] = {}

    for batch, inputs in workload.batches.items():
        seed_decoder = _SeedTurboDecoder(k, iterations, workload.interleaver)
        results["seed"][batch] = _throughput(seed_decoder.decode, inputs, k, batch)
        for name in backends:
            decoder = TurboDecoder(
                k, iterations, interleaver=workload.interleaver, backend=name
            )
            results[name][batch] = _throughput(decoder.decode, inputs, k, batch)

    speedup_vs_seed = {
        name: {
            str(batch): results[name][batch] / results["seed"][batch]
            for batch in workload.batches
        }
        for name in backends
    }
    # What the pipeline change actually did to smoke-scale decode calls: the
    # seed pipeline decoded per-chunk batches of 8; the aggregation layer
    # pools work items into batches of DEFAULT_AGGREGATE_PACKETS.
    aggregated_speedup = (
        results["numpy"][DEFAULT_AGGREGATE_PACKETS] / results["seed"][BATCH_SIZES[0]]
    )

    # Read-modify-write: other benchmarks (the link llr_dtype one below)
    # own their own sections of the same file — never clobber them.
    payload = json.loads(bench_path.read_text()) if bench_path.exists() else {}
    payload.update({
        "block_size": k,
        "num_iterations": iterations,
        "batch_sizes": list(workload.batches),
        "info_bits_per_second": {
            name: {str(batch): value for batch, value in per_batch.items()}
            for name, per_batch in results.items()
        },
        "kernel_speedup_vs_seed": speedup_vs_seed,
        "aggregated_pipeline_speedup": aggregated_speedup,
        "aggregate_packets": DEFAULT_AGGREGATE_PACKETS,
        "available_backends": list(available_backends()),
    })
    bench_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print()
    for name, per_batch in results.items():
        for batch, value in per_batch.items():
            ratio = value / results["seed"][batch]
            print(f"{name:10s} batch={batch:4d}: {value:10.0f} info bits/s ({ratio:4.2f}x seed)")
    print(f"aggregated pipeline (numpy@{DEFAULT_AGGREGATE_PACKETS} vs seed@8): {aggregated_speedup:.2f}x")

    recorded = _read_section(bench_path, "info_bits_per_second")
    assert set(recorded) == set(results)
    assert all(v > 0 for per in recorded.values() for v in per.values())
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert aggregated_speedup >= 3.0, payload
        for batch in workload.batches:
            floor = 3.0 if batch >= DEFAULT_AGGREGATE_PACKETS else 2.5
            assert speedup_vs_seed["numpy"][str(batch)] >= floor, payload


# --------------------------------------------------------------------------- #
# decoder backend-family sweep (families x batch x threads + BLER parity)
# --------------------------------------------------------------------------- #
def test_decoder_backend_sweep(bench_path):
    """Sweep every available decoder family across batch sizes and threads.

    Delegates to :mod:`repro.runner.bench` (also exposed as ``repro bench
    decoder``): throughput per backend token at each batch size, the
    speedup of every token against the ``numpy-f32`` baseline, an ``@t<N>``
    thread-scaling series for threaded families (recorded with the
    machine's ``cpu_count`` so single-core containers are reported
    honestly), and a paired seeded BLER sweep holding the fastest
    non-exact family within ``DECODER_BLER_TOLERANCE`` of the numpy
    reference.  Results land in the ``decoder_backends`` section of
    ``BENCH_decoder.json``.  The >= 3x native-vs-numpy-f32 target at the
    widest batch gates only under ``REPRO_BENCH_STRICT=1`` (and only when
    the extension is built); the always-on assertions are positive
    throughput and BLER parity within tolerance.
    """
    from repro.runner.bench import run_and_record_decoder_backends

    scale = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    run_and_record_decoder_backends(scale, path=bench_path)
    section = _read_section(bench_path, "decoder_backends")
    assert all(
        value > 0
        for per_token in section["info_bits_per_second"].values()
        for value in per_token.values()
    )
    parity = section.get("bler_parity")
    if parity is not None:
        assert parity["within_tolerance"], parity
    if (
        os.environ.get("REPRO_BENCH_STRICT") == "1"
        and "native-f32" in section["info_bits_per_second"]
    ):
        widest = str(max(section["batch_sizes"]))
        speedup = section["speedup_vs_numpy_f32"]["native-f32"][widest]
        assert speedup >= 3.0, section


# --------------------------------------------------------------------------- #
# end-to-end link-LLR dtype benchmark (the opt-in LinkConfig.llr_dtype mode)
# --------------------------------------------------------------------------- #
LINK_BENCH_PACKETS = 16
LINK_BENCH_SNR_DB = 14.0
LINK_BENCH_SEED = 2012


def test_link_llr_dtype_benchmark(bench_path):
    """Measure the float32 end-to-end link-LLR mode against the default.

    Times full packet lifetimes (transmit -> channel -> equalize -> demap ->
    HARQ buffer -> decode) at one mid-range SNR for the float64 default and
    the opt-in ``llr_dtype="float32"`` + ``numpy-f32`` decoder pairing, and
    records packets-per-second (and the speedup ratio) under the
    ``link_llr_dtype`` key of ``BENCH_decoder.json``.  Non-gating on speed:
    the mode trades precision for memory traffic, and wall-clock ratios are
    flaky on shared machines — the assertion is only that both modes run.
    """
    from repro.experiments.scales import SCALES as ALL_SCALES
    from repro.link.system import HspaLikeLink

    scale = ALL_SCALES[os.environ.get("REPRO_BENCH_SCALE", "smoke")]
    modes = {
        "float64": scale.link_config(),
        "float32": scale.link_config(llr_dtype="float32", decoder_backend="numpy-f32"),
    }
    throughput = {}
    for mode, config in modes.items():
        link = HspaLikeLink(config)
        link.simulate_packets(LINK_BENCH_PACKETS, LINK_BENCH_SNR_DB, rng=LINK_BENCH_SEED)
        best = float("inf")
        for _group in range(3):
            start = time.perf_counter()
            link.simulate_packets(
                LINK_BENCH_PACKETS, LINK_BENCH_SNR_DB, rng=LINK_BENCH_SEED
            )
            best = min(best, time.perf_counter() - start)
        throughput[mode] = LINK_BENCH_PACKETS / best

    section = {
        "packets_per_second": throughput,
        "speedup_f32_vs_f64": throughput["float32"] / throughput["float64"],
        "num_packets": LINK_BENCH_PACKETS,
        "snr_db": LINK_BENCH_SNR_DB,
    }
    payload = json.loads(bench_path.read_text()) if bench_path.exists() else {}
    payload["link_llr_dtype"] = section
    bench_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print()
    for mode, value in throughput.items():
        print(f"link llr_dtype={mode}: {value:8.1f} packets/s")
    print(f"float32 vs float64: {section['speedup_f32_vs_f64']:.2f}x")
    recorded = _read_section(bench_path, "link_llr_dtype")["packets_per_second"]
    assert set(recorded) == {"float64", "float32"}
    assert all(v > 0 for v in recorded.values())


# --------------------------------------------------------------------------- #
# link front-end benchmark (batched vs the preserved pre-batching serial path)
# --------------------------------------------------------------------------- #
def test_front_end_benchmark(bench_path):
    """Measure the batched link front end against the seed serial copy.

    Delegates to :mod:`repro.runner.bench` (also exposed as ``repro bench
    front-end``), which times one HARQ transmission's front end — encode,
    transmit, channel, equalize, demap, HARQ store + combined read — for
    both implementations and asserts they produce byte-identical LLR
    matrices before timing.  Results land in the ``front_end`` section of
    ``BENCH_decoder.json``.  The >= 4x speedup target at batch 32 is gated
    only under ``REPRO_BENCH_STRICT=1`` (wall-clock ratios are flaky on
    shared CI machines); the always-on assertion is byte-identity plus
    positive throughput.
    """
    from repro.runner.bench import (
        FRONT_END_TARGET_SPEEDUP,
        run_and_record_front_end,
    )

    scale = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    run_and_record_front_end(scale, path=bench_path)
    section = _read_section(bench_path, "front_end")
    assert all(
        value > 0
        for per_path in section["packets_per_second"].values()
        for value in per_path.values()
    )
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert section["speedup_vs_seed"]["32"] >= FRONT_END_TARGET_SPEEDUP, section
