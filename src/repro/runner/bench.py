"""Link/decoder benchmarks and the float32-LLR BLER characterisation.

``BENCH_decoder.json`` at the repository root records the performance
snapshot of the *whole* pipeline: the turbo-decoder kernels and the
end-to-end llr-dtype link benchmark (from
``benchmarks/test_decoder_throughput.py``), and — from this module — the
``front_end`` section comparing the batched transmit/channel/equalize/demap
path against a verbatim copy of the pre-batching serial front end, plus the
``decoder_backends`` section sweeping every available decoder family ×
batch size with a BLER-parity check for the max-log family.  Only ``repro bench front-end`` / ``repro bench decoder`` write
the committed file; the test suite passes its own temporary path.

The seed implementations below are faithful copies of the serial code as it
stood before the front end grew its ``(num_packets, ...)`` batch axis: a
per-packet MMSE design with no filter cache, a per-packet channel pass and a
per-packet demap.  They are kept here (like ``_SeedTurboDecoder`` in the
benchmark suite) as the fixed baseline so the reported speedup keeps meaning
the same thing as the live code evolves.

The batched path is byte-identical to the seed path by construction — the
benchmark asserts ``np.array_equal`` between the two before timing anything.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.channel.awgn import awgn_noise
from repro.experiments.scales import get_scale
from repro.link.system import HspaLikeLink, PacketGroup
from repro.utils.rng import as_rng, child_rngs

#: Repository-root benchmark snapshot shared with the decoder benchmarks.
BENCH_PATH = Path(__file__).resolve().parents[3] / "BENCH_decoder.json"

#: Batch sizes reported by the front-end benchmark; 32 is the aggregated
#: decode batch (``DEFAULT_AGGREGATE_PACKETS``) the speedup target is set at.
FRONT_END_BATCH_SIZES = (1, 8, 32)

#: Timed front-end passes per batch size (best-of groups, like the decoder
#: benchmark; each pass uses a fresh seed so the MMSE design cache cannot
#: serve repeats of the same channel realisations).
FRONT_END_REPEATS = 5

#: The gate the CI perf assertion uses: batched packets/s over seed
#: packets/s at batch 32.
FRONT_END_TARGET_SPEEDUP = 4.0


# --------------------------------------------------------------------------- #
# Seed (pre-batching) serial front end, preserved as the fixed baseline.
# --------------------------------------------------------------------------- #
class _SeedMmseEqualizer:
    """The pre-batching per-call MMSE design + equalize (no filter cache)."""

    def __init__(self, num_taps: int, decision_delay: Optional[int] = None) -> None:
        self.num_taps = num_taps
        self.decision_delay = decision_delay

    def design(self, impulse_response, noise_variance, signal_power=1.0):
        h = np.asarray(impulse_response, dtype=np.complex128).reshape(-1)
        channel_length = h.size
        nf = self.num_taps
        num_symbols = nf + channel_length - 1
        conv_matrix = np.zeros((nf, num_symbols), dtype=np.complex128)
        for i in range(nf):
            conv_matrix[i, i : i + channel_length] = h[::-1]
        delay = (
            self.decision_delay
            if self.decision_delay is not None
            else (num_symbols - 1) // 2
        )
        es = float(signal_power)
        covariance = es * (conv_matrix @ conv_matrix.conj().T) + noise_variance * np.eye(nf)
        desired = es * conv_matrix[:, delay]
        taps = np.linalg.solve(covariance, desired)
        response = taps.conj() @ conv_matrix
        bias = response[delay]
        interference = es * (np.sum(np.abs(response) ** 2) - np.abs(bias) ** 2)
        noise_out = noise_variance * float(np.sum(np.abs(taps) ** 2))
        return taps, delay, complex(bias), float(interference + noise_out)

    def equalize(self, received, impulse_response, noise_variance, num_symbols):
        r = np.asarray(received, dtype=np.complex128).reshape(-1)
        h = np.asarray(impulse_response, dtype=np.complex128).reshape(-1)
        taps, delay, bias, residual_variance = self.design(
            impulse_response, noise_variance
        )
        filtered = np.convolve(r, np.conj(taps)[::-1])
        offset = self.num_taps + h.size - 2 - delay
        indices = np.arange(num_symbols) + offset
        raw = filtered[indices]
        bias_abs2 = np.abs(bias) ** 2
        if bias_abs2 < 1e-30:
            return np.zeros(num_symbols, dtype=np.complex128), 1e30
        return raw / bias, residual_variance / bias_abs2


def _seed_channel_apply(channel, signal, snr_db, generator):
    """The pre-batching serial ``MultipathChannel.apply`` body."""
    impulse_response = channel.realize(generator)
    convolved = np.convolve(signal, impulse_response)
    signal_power = float(np.mean(np.abs(signal) ** 2)) * float(
        np.sum(np.abs(impulse_response) ** 2)
    )
    noise_variance = signal_power / (10.0 ** (snr_db / 10.0))
    received = convolved + awgn_noise(convolved.shape, noise_variance, generator)
    return received, impulse_response, noise_variance


def _prepare_inputs(link: HspaLikeLink, num_packets: int, snr_db: float, rng_seed):
    """Payloads, buffers and post-payload generators shared by both passes.

    Same stream derivation as :meth:`HspaLikeLink._start_group` (child rngs,
    then payloads, then buffers), so each pass consumes every packet's
    generator from exactly the state the live link would.  Buffer
    construction (pure allocation, identical in both implementations) stays
    outside the timed region; encoding is part of the front end and is
    timed.
    """
    packet_rngs = child_rngs(rng_seed, num_packets)
    payloads = [link.transmitter.random_payload(r) for r in packet_rngs]
    buffers = [link.make_buffer() for _ in range(num_packets)]
    return packet_rngs, payloads, buffers


def _seed_front_end_pass(link: HspaLikeLink, inputs, snr_db: float):
    """One HARQ transmission through the seed serial front end, per packet.

    Mirrors the pre-batching serial chain (block-fading mode) for the first
    transmission of every packet: encode, transmit, channel, MMSE equalize,
    demap, store into the HARQ buffer and read back the combined
    mother-domain LLRs.
    """
    packet_rngs, payloads, buffers = inputs
    config = link.config
    seed_equalizer = _SeedMmseEqualizer(num_taps=config.equalizer_taps)
    receiver = link.receiver
    spreader = receiver.spreader
    num_samples = config.symbols_per_transmission
    if spreader is not None:
        num_samples *= spreader.spreading_factor
    redundancy_version = config.combining.redundancy_version(0)
    rows = []
    for packet_rng, payload, soft_buffer in zip(packet_rngs, payloads, buffers):
        packet = link.transmitter.encode(payload)
        samples = link.transmitter.transmit(packet, redundancy_version)
        received, impulse_response, noise_variance = _seed_channel_apply(
            link.channel, samples, snr_db, as_rng(packet_rng)
        )
        symbols, effective_noise = seed_equalizer.equalize(
            received, impulse_response, noise_variance, num_samples
        )
        if spreader is not None:
            symbols = spreader.despread(symbols)
            effective_noise = effective_noise / spreader.spreading_factor
        channel_llrs = receiver.demap(symbols, effective_noise)
        if config.buffer_architecture == "per-transmission":
            soft_buffer.store_transmission(0, channel_llrs, redundancy_version)
            combined = soft_buffer.combined_mother_llrs(receiver.to_mother_domain_batch)
        else:
            mother = receiver.to_mother_domain(channel_llrs, redundancy_version)
            combined = soft_buffer.combine_and_store(mother)
        dtype = config.llr_numpy_dtype
        if combined.dtype != dtype:
            combined = combined.astype(dtype)
        rows.append(combined)
    return np.stack(rows)


def _batched_front_end_pass(link: HspaLikeLink, inputs, snr_db: float):
    """One HARQ transmission through the live batched front end."""
    from repro.link.system import _PacketState

    packet_rngs, payloads, buffers = inputs
    packets = link.transmitter.encode_batch(payloads)
    states = [
        _PacketState(
            rng=packet_rng, packet=packet, buffer=soft_buffer, snr_db=float(snr_db)
        )
        for packet_rng, packet, soft_buffer in zip(packet_rngs, packets, buffers)
    ]
    redundancy_version = link.config.combining.redundancy_version(0)
    return link._front_end_round(states, 0, redundancy_version)


# --------------------------------------------------------------------------- #
def run_front_end_benchmark(
    scale: str = "smoke",
    snr_db: float = 14.0,
    batch_sizes=FRONT_END_BATCH_SIZES,
    repeats: int = FRONT_END_REPEATS,
    base_seed: int = 2012,
) -> Dict:
    """Measure seed-serial vs batched front-end packets/s per batch size.

    Each timed pass runs one HARQ transmission's front end (transmit,
    channel, equalize, demap, HARQ store + combined read) for a prepared
    packet set; packet encoding and buffer construction happen outside the
    timer since both paths share them unchanged.  Seeds vary per repeat so
    the MMSE design cache sees new channel realisations every pass, like a
    real Monte-Carlo run.  The first pass of every batch size also asserts
    the two paths produce byte-identical LLR matrices.
    """
    link_scale = get_scale(scale)
    config = link_scale.link_config()
    section: Dict = {
        "scale": link_scale.name,
        "snr_db": float(snr_db),
        "batch_sizes": [int(b) for b in batch_sizes],
        "packets_per_second": {"seed": {}, "batched": {}},
        "speedup_vs_seed": {},
    }
    for batch in batch_sizes:
        link = HspaLikeLink(config)
        reference = _seed_front_end_pass(
            link, _prepare_inputs(link, batch, snr_db, base_seed), snr_db
        )
        candidate = _batched_front_end_pass(
            link, _prepare_inputs(link, batch, snr_db, base_seed), snr_db
        )
        if not np.array_equal(reference, candidate):
            raise AssertionError(
                f"batched front end diverged from the seed path at batch {batch}"
            )
        timings = {}
        for name, pass_fn in (
            ("seed", _seed_front_end_pass),
            ("batched", _batched_front_end_pass),
        ):
            best = float("inf")
            for group in range(3):
                fresh = HspaLikeLink(config)
                prepared = [
                    _prepare_inputs(
                        fresh, batch, snr_db, base_seed + 1 + group * repeats + repeat
                    )
                    for repeat in range(repeats)
                ]
                start = time.perf_counter()
                for inputs in prepared:
                    pass_fn(fresh, inputs, snr_db)
                best = min(best, (time.perf_counter() - start) / repeats)
            timings[name] = batch / best
        section["packets_per_second"]["seed"][str(batch)] = timings["seed"]
        section["packets_per_second"]["batched"][str(batch)] = timings["batched"]
        section["speedup_vs_seed"][str(batch)] = timings["batched"] / timings["seed"]
    section["target_speedup_at_32"] = FRONT_END_TARGET_SPEEDUP
    return section


# --------------------------------------------------------------------------- #
# Decoder-backend sweep: families × batch sizes.
# --------------------------------------------------------------------------- #
#: Batch sizes of the decoder-backend sweep (mirrors the decoder benchmark).
DECODER_SWEEP_BATCH_SIZES = (8, 32, 128)

#: Timed decode calls per (family, batch) point.
DECODER_SWEEP_REPEATS = 8

#: Max-log families must keep ``max |ΔBLER|`` within this bound on the
#: paired seeded sweep (the same gate style as the float32-LLR study).
DECODER_BLER_TOLERANCE = 0.05

#: Packets per SNR point of the BLER-parity sweep (64 gives a BLER
#: granularity of 1/64, fine enough to detect a systematic divergence).
DECODER_BLER_PACKETS = 64


def _decoder_workload(scale_name: str, batch_sizes, base_seed: int):
    """Seeded mixed-noise decode batches, like a sweep's decode calls."""
    from repro.phy.turbo import TurboCode

    scale = get_scale(scale_name)
    config = scale.link_config()
    k = config.block_size
    code = TurboCode(k, num_iterations=scale.turbo_iterations)
    rng = np.random.default_rng(base_seed)
    sigmas = (0.8, 1.5, 2.2, 3.0)
    batches = {}
    for batch in batch_sizes:
        rows = []
        for i in range(batch):
            bits = rng.integers(0, 2, k, dtype=np.int8)
            coded = code.encode(bits)
            noise = rng.normal(0.0, sigmas[i % len(sigmas)], coded.size)
            rows.append((1.0 - 2.0 * coded.astype(np.float64)) * 2.0 + noise)
        llrs = np.stack(rows)
        batches[batch] = (
            llrs[:, :k],
            np.ascontiguousarray(llrs[:, k::2]),
            np.ascontiguousarray(llrs[:, k + 1 :: 2]),
        )
    return scale, code, batches


def _decode_throughput(decoder, inputs, block_size: int, batch: int, repeats: int) -> float:
    """Best-of-groups info-bits/s of one decoder on one prepared batch."""
    decoder.decode(*inputs)  # warm-up (workspace growth)
    best = float("inf")
    for _group in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            decoder.decode(*inputs)
        best = min(best, (time.perf_counter() - start) / repeats)
    return batch * block_size / best


def run_decoder_backend_sweep(
    scale: str = "smoke",
    batch_sizes=DECODER_SWEEP_BATCH_SIZES,
    repeats: int = DECODER_SWEEP_REPEATS,
    base_seed: int = 2012,
    with_bler_parity: bool = True,
) -> Dict:
    """Sweep every available decoder family × batch size.

    Measures information bits decoded per second for both dtypes of every
    *available* family on the same seeded mixed-noise workload (recorded
    with the machine's CPU count), and, for the fastest non-exact family, a
    paired seeded BLER sweep against the numpy reference with a tolerance
    verdict.
    """
    import os

    from repro.phy.turbo import TurboDecoder
    from repro.phy.turbo.backends import available_backends, backend_is_exact

    link_scale, code, batches = _decoder_workload(scale, batch_sizes, base_seed)
    k = code.block_size
    iterations = link_scale.turbo_iterations
    tokens = list(available_backends())
    section: Dict = {
        "scale": link_scale.name,
        "block_size": k,
        "num_iterations": iterations,
        "cpu_count": os.cpu_count(),
        "batch_sizes": [int(b) for b in batch_sizes],
        "available_backends": tokens,
        "info_bits_per_second": {},
        "speedup_vs_numpy_f32": {},
    }
    for token in tokens:
        per_batch = {}
        for batch, inputs in batches.items():
            decoder = TurboDecoder(
                k, iterations, interleaver=code.encoder.interleaver, backend=token
            )
            per_batch[str(batch)] = _decode_throughput(decoder, inputs, k, batch, repeats)
        section["info_bits_per_second"][token] = per_batch
    reference = section["info_bits_per_second"].get("numpy-f32", {})
    for token in tokens:
        if token == "numpy-f32":
            continue
        section["speedup_vs_numpy_f32"][token] = {
            batch: value / reference[batch]
            for batch, value in section["info_bits_per_second"][token].items()
            if reference.get(batch)
        }

    # BLER parity of the fastest available max-log family vs the reference.
    candidates = [t for t in tokens if not backend_is_exact(t) and t.endswith("-f32")]
    if with_bler_parity and candidates:
        candidate = candidates[0]
        section["bler_parity"] = run_decoder_bler_parity(
            candidate, scale=scale, base_seed=base_seed
        )
    return section


def run_decoder_bler_parity(
    candidate: str,
    scale: str = "smoke",
    base_seed: int = 2012,
    num_packets: int = DECODER_BLER_PACKETS,
    tolerance: float = DECODER_BLER_TOLERANCE,
) -> Dict:
    """Paired seeded SNR sweep: *candidate* backend vs the numpy reference.

    Both sweeps consume identical seed streams, so every packet sees the
    same payload, channel and noise; the only difference is the decoder
    kernel.  Exact families would produce ``ΔBLER == 0``; max-log families
    are held to ``max |ΔBLER| <= tolerance`` — the same contract the
    float32-LLR mode was characterised under.
    """
    link_scale = get_scale(scale)
    blers = {}
    for backend in ("numpy", candidate):
        link = HspaLikeLink(link_scale.link_config(decoder_backend=backend))
        results = link.snr_sweep(
            link_scale.snr_points_db, num_packets, rng=base_seed
        )
        blers[backend] = [r.statistics.block_error_rate for r in results]
    deltas = [abs(a - b) for a, b in zip(blers["numpy"], blers[candidate])]
    return {
        "reference": "numpy",
        "candidate": candidate,
        "snr_points_db": [float(s) for s in link_scale.snr_points_db],
        "num_packets": int(num_packets),
        "seed": int(base_seed),
        "bler_reference": blers["numpy"],
        "bler_candidate": blers[candidate],
        "max_abs_delta_bler": max(deltas),
        "tolerance": float(tolerance),
        "within_tolerance": max(deltas) <= tolerance,
    }


def run_and_record_decoder_backends(
    scale: str = "smoke",
    *,
    path: Path = BENCH_PATH,
    log=print,
) -> Dict:
    """Run the decoder-backend sweep and merge it into the bench snapshot."""
    section = run_decoder_backend_sweep(scale=scale)
    merge_bench_section("decoder_backends", section, path=path)
    for token, per_batch in section["info_bits_per_second"].items():
        for batch, value in sorted(per_batch.items(), key=lambda kv: int(kv[0])):
            ratio = section["speedup_vs_numpy_f32"].get(token, {}).get(batch)
            suffix = f" ({ratio:.2f}x numpy-f32)" if ratio is not None else ""
            log(f"{token:12s} batch={int(batch):4d}: {value:12.0f} info bits/s{suffix}")
    parity = section.get("bler_parity")
    if parity is not None:
        verdict = "within" if parity["within_tolerance"] else "EXCEEDS"
        log(
            f"BLER parity {parity['candidate']} vs {parity['reference']}: "
            f"max |dBLER| = {parity['max_abs_delta_bler']:.4f} "
            f"({verdict} tolerance {parity['tolerance']})"
        )
    return section


# --------------------------------------------------------------------------- #
def run_bler_characterisation(base_seed: int = 2012) -> Dict:
    """Paired float64-vs-float32 LLR sweeps; reports ``max |ΔBLER|`` per scale.

    Runs the standard SNR sweep of the smoke and default scales twice with
    identical seeds — once with ``llr_dtype="float64"`` and once with
    ``"float32"`` — and records the largest absolute BLER difference across
    the SNR grid.  This is the evidence behind the scale-dependent
    ``llr_dtype`` default (float32 everywhere except the byte-pinned smoke
    scale).
    """
    characterisation: Dict = {"seed": int(base_seed), "scales": {}}
    for scale_name in ("smoke", "default"):
        scale = get_scale(scale_name)
        blers = {}
        for dtype in ("float64", "float32"):
            link = HspaLikeLink(scale.link_config(llr_dtype=dtype))
            results = link.snr_sweep(
                scale.snr_points_db, scale.num_packets, rng=base_seed
            )
            blers[dtype] = [r.statistics.block_error_rate for r in results]
        deltas = [abs(a - b) for a, b in zip(blers["float64"], blers["float32"])]
        characterisation["scales"][scale_name] = {
            "snr_points_db": [float(s) for s in scale.snr_points_db],
            "num_packets": scale.num_packets,
            "bler_float64": blers["float64"],
            "bler_float32": blers["float32"],
            "max_abs_delta_bler": max(deltas),
        }
    return characterisation


# --------------------------------------------------------------------------- #
def merge_bench_section(key: str, section: Dict, path: Path = BENCH_PATH) -> Dict:
    """Read-modify-write one section of ``BENCH_decoder.json``.

    The file is shared with the decoder benchmarks; each producer owns its
    own top-level key and never clobbers the others.
    """
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload[key] = section
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def run_and_record_front_end(
    scale: str = "smoke",
    *,
    with_bler: bool = False,
    path: Path = BENCH_PATH,
    log=print,
) -> Dict:
    """Run the front-end benchmark (optionally + BLER study) and merge results."""
    section = run_front_end_benchmark(scale=scale)
    if with_bler:
        section["float32_bler_characterisation"] = run_bler_characterisation()
    merge_bench_section("front_end", section, path=path)
    for batch in section["batch_sizes"]:
        seed_pps = section["packets_per_second"]["seed"][str(batch)]
        batched_pps = section["packets_per_second"]["batched"][str(batch)]
        speedup = section["speedup_vs_seed"][str(batch)]
        log(
            f"front end batch={batch:3d}: seed {seed_pps:8.1f} pkt/s, "
            f"batched {batched_pps:8.1f} pkt/s ({speedup:.2f}x)"
        )
    if with_bler:
        for name, entry in section["float32_bler_characterisation"]["scales"].items():
            log(
                f"float32 LLR max |dBLER| at {name} scale: "
                f"{entry['max_abs_delta_bler']:.4f}"
            )
    return section
