"""Decoder-backend engine: registry, equivalence, early stopping, batching.

The contracts pinned here are the ones the rest of the system builds on:

* the registry resolves names, auto-detects the native kernel, falls back
  cleanly when it cannot be built and rejects every other token;
* every backend decodes rows independently (batch composition never changes
  a row's output) — the invariant behind cross-work-item batch aggregation;
* the native kernel is bit-identical (``array_equal``, signed zeros
  included) to the numpy kernel at each dtype, and float32 agrees with
  float64 within tolerance;
* ``converged`` is meaningful for ``num_iterations == 1`` (measured against
  the pre-iteration hard decisions);
* the result cache keys on the backend that actually ran (name + dtype).
"""

from pathlib import Path

import numpy as np
import pytest

from repro.experiments.scales import get_scale
from repro.link import LinkConfig
from repro.link.system import HspaLikeLink
from repro.phy.turbo import TurboCode, TurboDecoder
from repro.phy.turbo.backends import (
    AUTO_PREFERENCE,
    BackendSpec,
    NumpySisoBackend,
    backend_names,
    create_backend,
    family_listing,
    identity_spec,
    parse_backend_name,
    resolve_backend,
)
from repro.phy.turbo.trellis import UMTS_TRELLIS
from repro.runner.cache import ResultCache, config_digest, decoder_backend_identity
from repro.runner.cli import main, run_identity
from repro.runner.point_store import bler_cell_identity, link_identity
from repro.utils.rng import child_rngs

GOLDEN_FIG6 = Path(__file__).resolve().parent / "golden" / "fig6.json"

#: Every backend token but ``auto``; a case on an unavailable family skips.
EVERY_BACKEND = ["numpy", "numpy-f32", "native", "native-f32"]


def _available_families() -> set:
    return {entry["family"] for entry in family_listing() if entry["available"]}


def _native_available() -> bool:
    return "native" in _available_families()


def _noisy_batch(code: TurboCode, batch: int, rng, amp: float = 2.0, sigmas=(0.6, 1.4, 2.4, 3.2)):
    """Encode random payloads and add per-row noise of varying strength."""
    k = code.block_size
    rows = []
    for i in range(batch):
        bits = rng.integers(0, 2, k, dtype=np.int8)
        coded = code.encode_batch(bits[None])[0]
        noise = rng.normal(0.0, sigmas[i % len(sigmas)], coded.size)
        rows.append((1.0 - 2.0 * coded.astype(np.float64)) * amp + noise)
    llrs = np.stack(rows)
    sys_llrs = llrs[:, :k]
    par1 = np.ascontiguousarray(llrs[:, k::2])
    par2 = np.ascontiguousarray(llrs[:, k + 1 :: 2])
    return sys_llrs, par1, par2


class TestRegistry:
    def test_backend_names_include_families_and_auto(self):
        names = backend_names()
        assert set(names) == {"auto", "numpy", "numpy-f32", "native", "native-f32"}

    def test_parse_tokens(self):
        assert parse_backend_name("numpy") == BackendSpec("numpy", "float64")
        assert parse_backend_name("numpy-f32") == BackendSpec("numpy", "float32")
        assert parse_backend_name("NUMPY-F64") == BackendSpec("numpy", "float64")
        assert parse_backend_name("auto").family == "auto"

    def test_unknown_backend_rejected(self):
        # Includes tokens of the removed numba/cupy families and thread
        # suffixes: they fail at parse time instead of falling back.
        for token in ("cuda", "numba", "cupy-f32", "native-f32@t2"):
            with pytest.raises(ValueError, match="unknown decoder backend"):
                parse_backend_name(token)

    def test_auto_resolves_to_an_available_family(self):
        spec = resolve_backend("auto")
        expected = next(
            f for f in AUTO_PREFERENCE if f in _available_families()
        )
        assert spec.family == expected
        if not _native_available():
            assert spec.family == "numpy"

    def test_native_falls_back_to_numpy_when_missing(self, monkeypatch, tmp_path):
        # An empty kernel cache and a compiler that always fails.
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("CC", "false")
        assert "native" not in _available_families()
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            spec = resolve_backend("native-f32")
        assert spec.family == "numpy" and spec.dtype_name == "float32"
        assert resolve_backend("auto") == BackendSpec("numpy", "float64")
        decoder = TurboDecoder(40, 2)
        assert decoder.backend.spec == BackendSpec("numpy", "float64")

    def test_exactness_classification(self):
        for token in ("numpy", "numpy-f32", "native", "native-f32", "auto"):
            assert identity_spec(token).family == "numpy", token
        # The registry record itself, whether or not native built here.
        assert {e["family"]: e["exact"] for e in family_listing()} == {
            "numpy": True,
            "native": True,
        }

    @pytest.mark.parametrize("backend", EVERY_BACKEND)
    def test_siso_takes_only_step_major_arrays(self, backend):
        """Every kernel checks the ``(block_size, batch)`` contract itself."""
        spec = resolve_backend(backend, warn=False)
        if spec.name != backend:
            pytest.skip(f"{backend} is not available here")
        kernel = create_backend(backend, UMTS_TRELLIS, 40)
        good = np.ones((40, 3), dtype=spec.dtype)
        assert kernel.siso(good, good, good, np.empty_like(good)).shape == (40, 3)
        other = np.float32 if spec.dtype == np.float64 else np.float64
        bad_inputs = {
            "batch-major": np.ones((3, 40), dtype=spec.dtype),
            "one-dimensional": np.ones(40, dtype=spec.dtype),
            "wrong block size": np.ones((41, 3), dtype=spec.dtype),
            "other batch": np.ones((40, 4), dtype=spec.dtype),
            "other dtype": good.astype(other),
            "not contiguous": np.ones((3, 40), dtype=spec.dtype).T,
        }
        for bad in bad_inputs.values():
            for position in range(4):
                arrays = [good, good, good, np.empty_like(good)]
                arrays[position] = bad
                with pytest.raises(ValueError, match=r"\(40, batch\)"):
                    kernel.siso(*arrays)

    def test_create_backend_passes_instances_through(self):
        backend = NumpySisoBackend(UMTS_TRELLIS, 40)
        assert create_backend(backend, UMTS_TRELLIS, 40) is backend

    def test_spec_names(self):
        assert BackendSpec("numpy", "float64").name == "numpy"
        assert BackendSpec("native", "float32").name == "native-f32"


class TestBackendEquivalence:
    def test_float32_matches_float64_decisions(self, rng):
        code = TurboCode(120, num_iterations=4)
        sys_llrs, par1, par2 = _noisy_batch(code, 12, rng)
        d64 = TurboDecoder(120, 4, interleaver=code.encoder.interleaver)
        d32 = TurboDecoder(120, 4, interleaver=code.encoder.interleaver, backend="numpy-f32")
        r64 = d64.decode(sys_llrs, par1, par2)
        r32 = d32.decode(sys_llrs, par1, par2)
        assert r32.app_llrs.dtype == np.float64  # API dtype is stable
        # Decisions agree on every confidently-decoded bit; APP magnitudes
        # agree to float32 resolution.
        confident = np.abs(r64.app_llrs) > 0.05
        assert np.array_equal(
            r64.decoded_bits[confident], r32.decoded_bits[confident]
        )
        scale = np.maximum(np.abs(r64.app_llrs), 1.0)
        assert np.max(np.abs(r64.app_llrs - r32.app_llrs) / scale) < 1e-2

    def test_workspace_reuse_is_stateless(self, rng):
        """Repeated calls through one backend instance give identical output."""
        code = TurboCode(64, num_iterations=3)
        decoder = TurboDecoder(64, 3, interleaver=code.encoder.interleaver)
        sys_llrs, par1, par2 = _noisy_batch(code, 6, rng)
        first = decoder.decode(sys_llrs, par1, par2)
        second = decoder.decode(sys_llrs, par1, par2)
        assert np.array_equal(first.app_llrs, second.app_llrs)
        # Interleaving a different-shaped call must not corrupt the next one.
        decoder.decode(sys_llrs[:2], par1[:2], par2[:2])
        third = decoder.decode(sys_llrs, par1, par2)
        assert np.array_equal(first.app_llrs, third.app_llrs)


class TestFamilyConformance:
    """One sweep, every available family, the exactness contract applied.

    Every family is exact: it must reproduce the numpy reference of its
    dtype bit-for-bit through whole turbo decodes.
    """

    @pytest.fixture(scope="class")
    def conformance_workload(self):
        code = TurboCode(104, num_iterations=4)
        rng = np.random.default_rng(2012)
        inputs = _noisy_batch(code, 12, rng)
        reference = TurboDecoder(
            104, 4, interleaver=code.encoder.interleaver, backend="numpy"
        ).decode(*inputs)
        return code, inputs, reference

    @pytest.mark.parametrize("family", ["numpy", "native"])
    def test_family_agrees_with_reference(self, conformance_workload, family):
        if family not in _available_families():
            pytest.skip(f"{family} family unavailable on this machine")
        code, inputs, reference = conformance_workload
        result = TurboDecoder(
            104, 4, interleaver=code.encoder.interleaver, backend=family
        ).decode(*inputs)
        assert identity_spec(family).family == "numpy"
        assert np.array_equal(reference.app_llrs, result.app_llrs)
        assert np.array_equal(np.signbit(reference.app_llrs), np.signbit(result.app_llrs))
        assert np.array_equal(reference.decoded_bits, result.decoded_bits)
        assert np.array_equal(reference.converged, result.converged)

    @pytest.mark.parametrize("family", ["numpy", "native"])
    def test_family_f32_decisions_agree(self, conformance_workload, family):
        if family not in _available_families():
            pytest.skip(f"{family} family unavailable on this machine")
        code, inputs, reference = conformance_workload
        result = TurboDecoder(
            104, 4, interleaver=code.encoder.interleaver, backend=f"{family}-f32"
        ).decode(*inputs)
        assert result.app_llrs.dtype == np.float64  # API dtype is stable
        confident = np.abs(reference.app_llrs) > 0.05
        assert np.array_equal(
            reference.decoded_bits[confident], result.decoded_bits[confident]
        )
        reference_f32 = TurboDecoder(
            104, 4, interleaver=code.encoder.interleaver, backend="numpy-f32"
        ).decode(*inputs)
        assert np.array_equal(reference_f32.app_llrs, result.app_llrs)
        assert np.array_equal(np.signbit(reference_f32.app_llrs), np.signbit(result.app_llrs))


@pytest.mark.skipif(not _native_available(), reason="native kernel cannot be built here")
class TestNativeBackend:
    def test_batch_one_and_uneven_batches(self, rng):
        """Row independence holds for the native kernel too."""
        code = TurboCode(72, num_iterations=4)
        inputs = _noisy_batch(code, 7, rng)
        decoder = TurboDecoder(
            72, 4, interleaver=code.encoder.interleaver, backend="native"
        )
        batched = decoder.decode(*inputs)
        for row in range(7):
            solo = decoder.decode(
                inputs[0][row : row + 1], inputs[1][row : row + 1], inputs[2][row : row + 1]
            )
            assert np.array_equal(solo.app_llrs[0], batched.app_llrs[row]), row

    def test_kernel_refuses_other_trellises_and_bad_tables(self):
        """The kernel is compiled for 8 states and follows its tables
        unchecked, so both the wrapper and the entry point check them."""
        from repro.phy.turbo.backends.native_backend import NativeSisoBackend
        from repro.phy.turbo.trellis import RscTrellis

        four_state = RscTrellis(feedback=7, feedforward=5, constraint_length=3)
        with pytest.raises(ValueError, match="8-state"):
            NativeSisoBackend(four_state, 40, BackendSpec("native", "float64"))
        backend = NativeSisoBackend(UMTS_TRELLIS, 40, BackendSpec("native", "float64"))
        llrs = np.zeros((40, 2))
        tables = [
            backend._prev_flat,
            backend._in_sign_fwd,
            backend._par_sign_fwd,
            backend._next_flat,
            backend._par_sign_bwd,
        ]

        def call(num_states):
            # (k, batch, num_states, terminated_start, is_double)
            backend._kernel.siso(
                llrs, llrs, llrs, np.empty_like(llrs), *tables, 40, 2, num_states, True, True
            )

        with pytest.raises(ValueError, match="8 trellis states, got 4"):
            call(4)
        tables[3] = backend._next_flat.copy()
        tables[3][5] = 8
        with pytest.raises(ValueError, match="out of range"):
            call(8)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_siso_bit_identical_to_numpy(self, dtype):
        """One SISO half-iteration on step-major ``(k, batch)`` arrays,
        swept over block sizes, batch sizes and both start states:
        ``array_equal`` to numpy, signed zeros included."""
        from repro.phy.turbo.backends.native_backend import NativeSisoBackend

        rng = np.random.default_rng(2012)
        for k in (40, 104, 336, 512, 5114):
            native = NativeSisoBackend(UMTS_TRELLIS, k, BackendSpec("native", dtype))
            numpy_ref = NumpySisoBackend(UMTS_TRELLIS, k, BackendSpec("numpy", dtype))
            for batch in (1, 3, 17, 64):
                drawn = rng.normal(0.0, 3.0, (3, batch, k)).astype(dtype)
                sys_llrs, par_llrs, apriori = np.ascontiguousarray(drawn.transpose(0, 2, 1))
                # Exact zeros of both signs reach the branch metrics.
                apriori[::7] = 0.0
                sys_llrs[::11] = -0.0
                for terminated in (True, False):
                    got = native.siso(
                        sys_llrs, par_llrs, apriori, np.empty_like(sys_llrs),
                        terminated_start=terminated,
                    )
                    want = numpy_ref.siso(
                        sys_llrs, par_llrs, apriori, np.empty_like(sys_llrs),
                        terminated_start=terminated,
                    )
                    case = (k, batch, terminated)
                    assert np.array_equal(got, want), case
                    assert np.array_equal(np.signbit(got), np.signbit(want)), case

    def test_link_sweep_identical_to_numpy(self):
        """Paired-seed SNR sweep through the whole link: every packet sees
        the same payload, channel and noise, so the statistics must match."""
        scale = get_scale("smoke")
        statistics = {}
        for backend in ("numpy", "native"):
            link = HspaLikeLink(scale.link_config(decoder_backend=backend))
            point_rngs = child_rngs(2012, len(scale.snr_points_db))
            results = [
                link.simulate_packets(16, snr_db, point_rng)
                for snr_db, point_rng in zip(scale.snr_points_db, point_rngs)
            ]
            statistics[backend] = [
                (
                    r.statistics.num_successful,
                    r.statistics.total_transmissions,
                    r.statistics.failures_per_transmission.tolist(),
                )
                for r in results
            ]
        assert statistics["native"] == statistics["numpy"]


#: (batch width, per-row noise levels).  The widths leave remainders against
#: 2-, 4- and 8-lane vectors; mixed noise makes rows freeze at different
#: iterations, and the low-noise batch freezes every row before the last
#: iteration (the decoder's early exit).
ROW_CASES = {
    "1-mixed": (1, (0.6, 1.4, 2.4, 3.2)),
    "3-mixed": (3, (0.6, 1.4, 2.4, 3.2)),
    "5-mixed": (5, (0.6, 1.4, 2.4, 3.2)),
    "33-mixed": (33, (0.6, 1.4, 2.4, 3.2)),
    "5-all-freeze": (5, (0.3,)),
}


class TestBatchCompositionIndependence:
    """The invariant behind cross-work-item decode aggregation."""

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    @pytest.mark.parametrize("backend", EVERY_BACKEND)
    def test_rows_decode_identically_alone_and_batched(self, backend, case):
        if resolve_backend(backend, warn=False).name != backend:
            pytest.skip(f"{backend} is not available here")
        batch, sigmas = ROW_CASES[case]
        code = TurboCode(88, num_iterations=5)
        rng = np.random.default_rng(2012 + batch)
        sys_llrs, par1, par2 = _noisy_batch(code, batch, rng, sigmas=sigmas)
        decoder = TurboDecoder(88, 5, interleaver=code.encoder.interleaver, backend=backend)
        batched = decoder.decode(sys_llrs, par1, par2)
        solo_iterations = []
        for row in range(batch):
            rows = slice(row, row + 1)
            solo = decoder.decode(sys_llrs[rows], par1[rows], par2[rows])
            assert np.array_equal(solo.app_llrs[0], batched.app_llrs[row]), row
            assert np.array_equal(
                np.signbit(solo.app_llrs[0]), np.signbit(batched.app_llrs[row])
            ), row
            assert np.array_equal(solo.decoded_bits[0], batched.decoded_bits[row]), row
            assert solo.converged[0] == batched.converged[row], row
            solo_iterations.append(solo.iterations_run)
        assert batched.iterations_run == max(solo_iterations)
        if case == "33-mixed":
            assert len(set(solo_iterations)) > 1, solo_iterations
        if case == "5-all-freeze":
            assert batched.iterations_run < decoder.num_iterations
            assert batched.converged.all()

    def test_early_stopping_shrinks_but_preserves_results(self, rng):
        code = TurboCode(88, num_iterations=6)
        sys_llrs, par1, par2 = _noisy_batch(code, 8, rng, sigmas=(0.4, 4.0))
        eager = TurboDecoder(88, 6, interleaver=code.encoder.interleaver)
        full = TurboDecoder(88, 6, interleaver=code.encoder.interleaver, early_stopping=False)
        r_eager = eager.decode(sys_llrs, par1, par2)
        r_full = full.decode(sys_llrs, par1, par2)
        # Frozen packets keep the decisions they stabilised on.
        assert np.array_equal(
            r_eager.decoded_bits[r_eager.converged], r_full.decoded_bits[r_eager.converged]
        )


class TestConvergedFlag:
    def test_single_iteration_reports_convergence(self, rng):
        """Regression: with num_iterations == 1, stable decisions used to
        report ``converged`` all-False."""
        code = TurboCode(60, num_iterations=1)
        # Essentially noise-free LLRs: one iteration decodes perfectly and
        # the decisions match the channel hard decisions.
        sys_llrs, par1, par2 = _noisy_batch(code, 4, rng, amp=8.0, sigmas=(0.05,))
        result = TurboDecoder(60, 1, interleaver=code.encoder.interleaver).decode(
            sys_llrs, par1, par2
        )
        assert result.iterations_run == 1
        assert result.converged.all()

    def test_single_iteration_garbage_not_converged(self, rng):
        decoder = TurboDecoder(60, 1)
        garbage = rng.normal(0.0, 1.0, (6, 60))
        result = decoder.decode(garbage, rng.normal(size=(6, 60)), rng.normal(size=(6, 60)))
        assert not result.converged.all()


class TestCacheIdentity:
    def test_backend_identity_records_name_and_dtype(self):
        identity = decoder_backend_identity("numpy-f32")
        assert identity == {"name": "numpy-f32", "dtype": "float32"}

    def test_exact_families_share_the_numpy_identity(self):
        for token in ("auto", "numpy", "native", "native-f64"):
            assert decoder_backend_identity(token) == {"name": "numpy", "dtype": "float64"}
        assert decoder_backend_identity("native-f32") == decoder_backend_identity("numpy-f32")
        base = run_identity("fig6", "smoke", 2012, {})
        native = run_identity("fig6", "smoke", 2012, {"decoder_backend": "native"})
        assert config_digest(native) == config_digest(base)
        assert LinkConfig(decoder_backend="native").describe() == LinkConfig().describe()
        assert "decoder numpy-f32" in LinkConfig(decoder_backend="native-f32").describe()

    def test_default_digests_unchanged(self):
        """The digests a default run had while numpy was the default, so
        existing result caches keep hitting, and the point-record digest of
        format 2, shared by every exact decoder request."""
        assert config_digest(run_identity("fig6", "smoke", 2012, {})) == "5372a48cc0d0da9188ac"
        for backend in ("auto", "numpy", "native"):
            identity = bler_cell_identity(
                link_identity(LinkConfig(decoder_backend=backend)),
                snr_db=6.0,
                chunk_sizes=[8, 8],
                entropy=2012,
                key=(0, 1),
                use_rake=False,
            )
            assert config_digest(identity) == "8b938590124f3d68f32d", backend

    def test_native_run_is_golden_and_shares_the_default_entry(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache_dir = tmp_path / "cache"
        common = ["run", "fig6", "--scale", "smoke", "--cache-dir", str(cache_dir)]
        assert main([*common, "--decoder-backend", "native", "--out", "native.json"]) == 0
        assert (tmp_path / "native.json").read_bytes() == GOLDEN_FIG6.read_bytes()
        assert ResultCache(cache_dir).entries() == {"fig6": 1}
        # The default run is served from the entry the native run wrote.
        assert main([*common, "--out", "default.json"]) == 0
        assert ResultCache(cache_dir).entries() == {"fig6": 1}
        assert (tmp_path / "default.json").read_bytes() == GOLDEN_FIG6.read_bytes()

    def test_run_identity_distinguishes_backends(self):
        base = run_identity("fig6", "smoke", 2012, {})
        f32 = run_identity("fig6", "smoke", 2012, {"decoder_backend": "numpy-f32"})
        assert config_digest(base) != config_digest(f32)
        assert f32["kwargs"]["decoder_backend"] == {
            "name": "numpy-f32",
            "dtype": "float32",
        }

    def test_run_identity_default_is_unchanged_by_backend_plumbing(self):
        """The no-kwargs identity must keep matching the golden snapshots."""
        identity = run_identity("fig6", "smoke", 2012, {})
        assert identity["kwargs"] == {}
        assert "decoder" not in identity["link_config"]

    def test_explicit_default_backend_shares_the_default_cache_entry(self):
        """Requesting numpy explicitly computes byte-identical results, so
        it must hash to the same digest as omitting the flag."""
        base = run_identity("fig6", "smoke", 2012, {})
        explicit = run_identity("fig6", "smoke", 2012, {"decoder_backend": "numpy"})
        assert config_digest(base) == config_digest(explicit)

    def test_adaptive_identity_hashes_resolved_parameters(self):
        """Changing AdaptiveStopping defaults must invalidate cache entries."""
        from repro.runner.tasks import AdaptiveStopping

        flag = run_identity("fig6", "smoke", 2012, {"adaptive": True})
        default = run_identity("fig6", "smoke", 2012, {"adaptive": AdaptiveStopping()})
        tighter = run_identity(
            "fig6", "smoke", 2012, {"adaptive": AdaptiveStopping(relative_error=0.1)}
        )
        assert config_digest(flag) == config_digest(default)
        assert config_digest(flag) != config_digest(tighter)
        off = run_identity("fig6", "smoke", 2012, {"adaptive": False})
        assert config_digest(off) == config_digest(run_identity("fig6", "smoke", 2012, {}))
