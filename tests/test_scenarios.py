"""Tests for the declarative scenario layer.

Covers the spec/axis resolution, the third (scenario) registry, grid
expansion and spawn-key layout, golden byte-parity of the figure scenarios,
cache-identity separation of overridden runs, the CLI surface — and, via
the new scenario specs, the previously under-exercised end-to-end channel /
equalizer paths (flat Rayleigh fading, ITU-PedB/VehA multipath, the RAKE
baseline next to the MMSE default).  All Monte-Carlo assertions are
deterministic: fixed seeds, structural checks and run-to-run equality, no
statistical tolerances.
"""

import json

import pytest

from repro.experiments.scales import SCALES
from repro.link.config import LinkConfig
from repro.link.system import HspaLikeLink
from repro.memory.faults import FaultModel
from repro.runner.cache import config_digest
from repro.runner.cli import (
    experiment_payload,
    main,
    parse_overrides,
    scenario_payload,
    scenario_run_identity,
)
from repro.scenarios import (
    ScenarioSpec,
    SweepAxis,
    default_tables,
    expand_grid,
    get_scenario,
    register_scenario,
    resolved_scenario_fields,
    run_scenario,
    run_scenario_grid,
    scenario_names,
    voltage_defect_rate,
)
from repro.scenarios.spec import (
    parse_combining,
    resolve_link_config,
    resolve_protection,
    scenario_listing,
)
from repro.utils.rng import child_rngs

#: The paper's figures, all of which must be registered as scenarios.
FIGURE_SCENARIOS = ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "power_savings")
#: Compositions the paper never ran (the layer's raison d'etre).
NEW_SCENARIOS = (
    "rayleigh-harq",
    "pedb-rake-defects",
    "veha-qpsk-defects",
    "stuckat-vs-bitflip",
    "ecc-low-voltage",
    "float32-llr",
    "chase-vs-ir",
    "jakes-doppler-sweep",
    "jakes-harq-gain",
    "clustered-vs-uniform",
    "soft-vs-hard-faults",
    "clustered-interleaver-depth",
)


@pytest.fixture(scope="module")
def micro_scale():
    """A sub-smoke scale so end-to-end scenario runs stay fast."""
    return SCALES["smoke"].with_updates(
        payload_bits=56,
        num_packets=4,
        num_fault_maps=2,
        turbo_iterations=3,
        snr_points_db=(16.0, 26.0),
        defect_rates=(0.0, 0.10),
    )


# --------------------------------------------------------------------------- #
class TestSpecAndTokens:
    def test_axis_rejects_unsweepable_field(self):
        with pytest.raises(ValueError, match="not sweepable"):
            SweepAxis("equalizer", ("mmse", "rake"))

    def test_axis_rejects_empty_values(self):
        with pytest.raises(ValueError, match="at least one value"):
            SweepAxis("snr_db", ())

    def test_scale_default_axis_resolution(self, micro_scale):
        assert SweepAxis("snr_db").resolve_values(micro_scale) == (16.0, 26.0)
        assert SweepAxis("defect_rate").resolve_values(micro_scale) == (0.0, 0.10)
        with pytest.raises(ValueError, match="explicit values"):
            SweepAxis("llr_bits").resolve_values(micro_scale)

    @pytest.mark.parametrize(
        "token, name",
        [
            ("none", "unprotected-6T"),
            ("msb:4", "msb-4-of-10"),
            ("msb:0", "unprotected-6T"),
            ("all-8T", "all-8T"),
            ("ecc", "full-ECC"),
            ("ecc-ded", "full-ECC-DED"),
        ],
    )
    def test_protection_tokens(self, token, name):
        assert resolve_protection(token, 10).name == name

    def test_bad_protection_token(self):
        with pytest.raises(ValueError, match="protection token"):
            resolve_protection("msb:x", 10)
        with pytest.raises(ValueError, match="protection token"):
            resolve_protection("bronze", 10)

    def test_combining_tokens(self):
        assert parse_combining("chase").value == "chase"
        assert parse_combining("ir").value == "ir"
        with pytest.raises(ValueError, match="combining"):
            parse_combining("majority-vote")

    def test_voltage_defect_rate_monotonic(self):
        rates = [voltage_defect_rate(v) for v in (0.6, 0.7, 0.8, 0.9, 1.0)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert 0.0 < rates[-1] < rates[0] < 1.0

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioSpec(name="x", title="", summary="", kind="quantum")
        with pytest.raises(ValueError, match="equalizer"):
            ScenarioSpec(name="x", title="", summary="", equalizer="zf")
        with pytest.raises(ValueError, match="duplicate sweep axis"):
            ScenarioSpec(
                name="x", title="", summary="",
                axes=(SweepAxis("snr_db", (1.0,)), SweepAxis("snr_db", (2.0,))),
            )
        with pytest.raises(ValueError, match="exactly one sweep axis"):
            ScenarioSpec(name="x", title="", summary="", reference_point=True)
        with pytest.raises(ValueError, match="analytic"):
            ScenarioSpec(name="x", title="", summary="", kind="analytical")

    def test_apply_override_axis_and_scalar(self):
        spec = ScenarioSpec(
            name="x", title="", summary="",
            axes=(SweepAxis("snr_db", (10.0, 20.0)),),
        )
        overridden = spec.apply_override("snr_db", (12.0, 14.0))
        assert overridden.axes[0].values == (12.0, 14.0)
        assert spec.apply_override("defect_rate", 0.05).defect_rate == 0.05
        assert spec.apply_override("protected_bits", 3).protection == "msb:3"
        with pytest.raises(ValueError, match="unknown scenario field"):
            spec.apply_override("flux_capacitor", 1)
        with pytest.raises(ValueError, match="single value"):
            spec.apply_override("defect_rate", (0.1, 0.2))

    def test_with_axis_values_rejects_unknown_axis(self):
        spec = get_scenario("fig6")
        with pytest.raises(ValueError, match="no axes"):
            spec.with_axis_values(vdd=(0.7,))

    def test_resolved_fields_track_non_defaults(self, micro_scale):
        spec = get_scenario("pedb-rake-defects")
        fields = resolved_scenario_fields(spec, micro_scale)
        assert fields["channel_profile"] == "ITU-PedB"
        assert fields["equalizer"] == "rake"
        assert fields["axes"]["snr_db"] == [16.0, 26.0]
        default_fields = resolved_scenario_fields(get_scenario("fig6"), micro_scale)
        assert set(default_fields) == {"axes"}

    def test_parse_overrides(self):
        parsed = parse_overrides(["snr_db=10,20.5", "protection=msb:3", "llr_bits=12"])
        assert parsed == {"snr_db": (10, 20.5), "protection": "msb:3", "llr_bits": 12}
        with pytest.raises(ValueError, match="FIELD=VALUE"):
            parse_overrides(["snr_db"])
        with pytest.raises(ValueError, match="FIELD=VALUE"):
            parse_overrides(["snr_db=,"])  # commas only: no usable value
        with pytest.raises(ValueError, match="duplicate"):
            parse_overrides(["a=1", "a=2"])


# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_all_figures_and_new_scenarios_registered(self):
        names = scenario_names()
        assert list(FIGURE_SCENARIOS) == names[: len(FIGURE_SCENARIOS)]
        for name in NEW_SCENARIOS:
            assert name in names
        assert len(NEW_SCENARIOS) >= 6

    def test_duplicate_scenario_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_scenario(get_scenario("fig6"))

    def test_unknown_scenario_is_helpful(self):
        with pytest.raises(ValueError, match="fig6"):
            get_scenario("fig666")

    def test_figure_scenarios_alias_their_experiments(self):
        for name in FIGURE_SCENARIOS:
            assert get_scenario(name).experiment == name
        for name in NEW_SCENARIOS:
            assert get_scenario(name).experiment is None

    def test_listing_is_jsonable(self):
        for name in scenario_names():
            json.dumps(scenario_listing(get_scenario(name)))  # must not raise


# --------------------------------------------------------------------------- #
class TestExpansion:
    def test_two_axis_grid_is_point_major(self, micro_scale):
        cells = expand_grid(get_scenario("fig6"), micro_scale)
        assert [cell.key for cell in cells] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert cells[0].values == {"defect_rate": 0.0, "snr_db": 16.0}
        assert cells[3].values == {"defect_rate": 0.10, "snr_db": 26.0}

    def test_reference_point_offsets_keys(self, micro_scale):
        cells = expand_grid(get_scenario("fig8"), micro_scale)
        assert cells[0].is_reference and cells[0].key == (0,)
        assert cells[0].spec.defect_rate == 0.0
        assert cells[0].spec.protection == "none"
        assert [cell.key for cell in cells[1:]] == [(i,) for i in range(1, 8)]
        assert cells[1].spec.protection == "msb:1"

    def test_protected_bits_axis_is_protection_sugar(self, micro_scale):
        cells = expand_grid(get_scenario("fig7"), micro_scale)
        assert cells[0].spec.protection == "msb:0"
        assert cells[-1].spec.protection == "msb:10"

    def test_fault_model_axis(self, micro_scale):
        cells = expand_grid(get_scenario("stuckat-vs-bitflip"), micro_scale)
        models = {cell.spec.fault_model for cell in cells}
        assert models == {"bit-flip", "stuck-at-0", "stuck-at-1", "stuck-at-random"}
        for cell in cells:
            FaultModel(cell.spec.fault_model)  # every token resolves

    def test_analytical_has_no_grid(self, micro_scale):
        with pytest.raises(ValueError, match="analytical"):
            expand_grid(get_scenario("fig3"), micro_scale)


# --------------------------------------------------------------------------- #
class TestGoldenParity:
    """Default figure scenarios must resolve to the figures' own bytes."""

    def test_fig2_scenario_payload_matches_golden_bytes(self):
        payload = scenario_payload("fig2", "smoke", 2012)
        golden = (
            __import__("pathlib").Path(__file__).parent / "golden" / "fig2.json"
        ).read_text()
        assert payload == golden

    def test_fig3_scenario_payload_matches_golden_bytes(self):
        payload = scenario_payload("fig3", "smoke", 2012)
        golden = (
            __import__("pathlib").Path(__file__).parent / "golden" / "fig3.json"
        ).read_text()
        assert payload == golden

    def test_fig6_scenario_equals_driver_at_micro_scale(self, micro_scale):
        from repro.experiments import fig6_throughput_vs_defects

        driver_table = fig6_throughput_vs_defects.run(micro_scale, seed=7)
        scenario_table = run_scenario(get_scenario("fig6"), micro_scale, seed=7)
        assert scenario_table.to_json() == driver_table.to_json()

    def test_fig8_scenario_equals_driver_at_micro_scale(self, micro_scale):
        from repro.experiments import fig8_efficiency

        driver = fig8_efficiency.run(micro_scale, seed=7, protected_bit_counts=(2, 4))
        spec = get_scenario("fig8").with_axis_values(protected_bits=(2, 4))
        scenario = run_scenario(spec, micro_scale, seed=7)
        assert scenario["table"].to_json() == driver["table"].to_json()
        assert scenario["optimum_bits"] == driver["optimum_bits"]


# --------------------------------------------------------------------------- #
class TestIdentity:
    def test_override_keys_distinct_identity(self, tmp_path):
        spec = get_scenario("fig6")
        base = scenario_run_identity(spec, "smoke", 2012, {})
        overridden = scenario_run_identity(
            spec.apply_override("snr_db", (10.0, 20.0)), "smoke", 2012, {}
        )
        assert config_digest(base) != config_digest(overridden)
        other_scenario = scenario_run_identity(
            get_scenario("pedb-rake-defects"), "smoke", 2012, {}
        )
        assert config_digest(base) != config_digest(other_scenario)

    def test_default_figure_scenario_shares_figure_cache(self, tmp_path):
        from repro.runner.cache import ResultCache

        cache = ResultCache(tmp_path)
        via_experiment = experiment_payload("fig3", "smoke", 0, cache=cache)
        via_scenario = scenario_payload("fig3", "smoke", 0, cache=cache)
        assert via_experiment == via_scenario
        assert cache.entries() == {"fig3": 1}  # one shared entry, no duplicate

    def test_overridden_run_caches_under_scenario_name(self, tmp_path, micro_scale):
        from repro.runner.cache import ResultCache

        cache = ResultCache(tmp_path)
        payload = scenario_payload(
            "fig6", micro_scale, 7, cache=cache, overrides={"snr_db": (18.0,)}
        )
        assert cache.entries() == {"scenario-fig6": 1}
        decoded = json.loads(payload)
        assert decoded["experiment"] == "scenario-fig6"
        assert decoded["identity"]["fields"]["axes"]["snr_db"] == [18.0]
        again = scenario_payload(
            "fig6", micro_scale, 7, cache=cache, overrides={"snr_db": (18.0,)}
        )
        assert again == payload  # cache hit is byte-identical

    def test_analytical_scenario_rejects_overrides(self):
        with pytest.raises(ValueError, match="analytical"):
            scenario_payload("fig3", "smoke", 0, overrides={"snr_db": (1.0,)})


# --------------------------------------------------------------------------- #
class TestChannelEqualizerScenarios:
    """End-to-end coverage of fading/multipath/rake/mmse via scenario specs."""

    def _run(self, name, micro_scale, seed=11, **kwargs):
        return run_scenario(get_scenario(name), micro_scale, seed, **kwargs)

    def test_rayleigh_harq_runs_and_is_deterministic(self, micro_scale):
        first = self._run("rayleigh-harq", micro_scale)
        second = self._run("rayleigh-harq", micro_scale)
        assert first.to_json() == second.to_json()
        # One row per attempted HARQ transmission per SNR cell (cells where
        # every packet decodes early stop emitting rows), all probabilities
        # valid.
        assert set(first.column("snr_db")) == {16.0, 26.0}
        assert 2 <= len(first.rows) <= 2 * 4
        assert all(0.0 <= row["failure_probability"] <= 1.0 for row in first.rows)
        assert "SinglePath" in first.metadata["config"]

    def test_pedb_rake_defects_exercises_rake_on_multipath(self, micro_scale):
        table = self._run("pedb-rake-defects", micro_scale)
        assert table.metadata["equalizer"] == "rake"
        assert "ITU-PedB" in table.metadata["config"]
        assert len(table.rows) == 4  # 2 defect rates x 2 SNR points
        assert all(0.0 <= row["throughput"] <= 1.0 for row in table.rows)
        # The MMSE default is a genuinely different receive path: overriding
        # the equalizer must change the numbers (same seeds everywhere else).
        spec = get_scenario("pedb-rake-defects").apply_override("equalizer", "mmse")
        mmse_table = run_scenario(spec, micro_scale, 11)
        assert mmse_table.to_json() != table.to_json()

    def test_veha_qpsk_defects_runs(self, micro_scale):
        table = self._run("veha-qpsk-defects", micro_scale)
        assert "QPSK" in table.metadata["config"]
        assert "ITU-VehA" in table.metadata["config"]
        assert len(table.rows) == 4
        assert all(row["bler"] <= 1.0 for row in table.rows)

    def test_stuckat_vs_bitflip_covers_all_fault_models(self, micro_scale):
        table = self._run("stuckat-vs-bitflip", micro_scale)
        assert len(table.rows) == 4 * 2  # 4 fault models x 2 SNR points
        assert set(table.column("fault_model")) == {
            "bit-flip", "stuck-at-0", "stuck-at-1", "stuck-at-random",
        }

    def test_ecc_low_voltage_derives_defects_from_vdd(self, micro_scale):
        table = self._run("ecc-low-voltage", micro_scale)
        rates = table.column("defect_rate")
        vdds = table.column("vdd")
        assert vdds == sorted(vdds)
        # Higher supply voltage -> fewer parametric failures, strictly.
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert table.metadata["protection"] == "ecc"

    def test_float32_llr_scenario_runs_in_single_precision(self, micro_scale):
        table = self._run("float32-llr", micro_scale)
        assert "llr dtype float32" in table.metadata["config"]
        assert len(table.rows) == 2
        second = self._run("float32-llr", micro_scale)
        assert second.to_json() == table.to_json()

    def test_chase_vs_ir_covers_both_combining_schemes(self, micro_scale):
        table = self._run("chase-vs-ir", micro_scale)
        assert set(table.column("combining")) == {"chase", "ir"}
        # At most schemes x SNR x transmissions rows (attempted ones only).
        assert 4 <= len(table.rows) <= 2 * 2 * 4


# --------------------------------------------------------------------------- #
class TestFloat32LinkMode:
    def test_llr_dtype_validation(self):
        with pytest.raises(ValueError, match="llr_dtype"):
            LinkConfig(llr_dtype="float16")

    def test_default_describe_omits_dtype(self):
        assert "llr dtype" not in LinkConfig().describe()
        assert "llr dtype float32" in LinkConfig(llr_dtype="float32").describe()

    def test_float32_link_runs_end_to_end(self):
        import numpy as np

        config = LinkConfig(
            payload_bits=56, crc_bits=16, turbo_iterations=3, llr_dtype="float32"
        )
        link = HspaLikeLink(config)
        result = link.simulate_single_packet(26.0, rng=3)
        assert result.num_transmissions >= 1
        assert result.decoded_bits is not None
        # The decoder consumed single-precision rows: demap output is f32.
        assert config.llr_numpy_dtype == np.float32

    def test_float32_bler_matches_float64_at_mid_range_snr(self):
        """Paired seed-2012 sweeps: float32 LLRs move no BLER by over 0.05.

        The SNRs span the waterfall, so the comparison is not between two
        all-zero (or all-one) BLER curves.
        """
        scale = SCALES["smoke"]
        blers = {}
        for dtype in ("float64", "float32"):
            link = HspaLikeLink(scale.link_config(llr_dtype=dtype))
            snrs = [0.0, 4.0, 6.0]
            results = [
                link.simulate_packets(64, snr_db, point_rng)
                for snr_db, point_rng in zip(snrs, child_rngs(2012, len(snrs)))
            ]
            blers[dtype] = [r.statistics.block_error_rate for r in results]
        assert any(0.0 < bler < 1.0 for bler in blers["float64"]), blers
        deltas = [abs(a - b) for a, b in zip(blers["float64"], blers["float32"])]
        assert max(deltas) <= 0.05, blers


# --------------------------------------------------------------------------- #
class TestScenarioCli:
    def test_scenarios_ls(self, capsys):
        assert main(["scenarios", "ls"]) == 0
        output = capsys.readouterr().out
        assert "fig6" in output and "rayleigh-harq" in output

    def test_scenarios_ls_json(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        listings = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in listings} >= set(FIGURE_SCENARIOS)
        by_name = {entry["name"]: entry for entry in listings}
        assert by_name["fig6"]["experiment"] == "fig6"
        assert by_name["ecc-low-voltage"]["fields"]["protection"] == "ecc"

    def test_run_scenario_requires_name(self, capsys):
        assert main(["run", "scenario", "--no-cache"]) == 2
        assert "scenario name" in capsys.readouterr().err

    def test_run_rejects_name_for_experiments(self, capsys):
        assert main(["run", "fig3", "fig5", "--no-cache"]) == 2
        assert "run scenario" in capsys.readouterr().err

    def test_run_rejects_set_without_scenario(self, capsys):
        assert main(["run", "fig3", "--set", "snr_db=1", "--no-cache"]) == 2
        assert "--set" in capsys.readouterr().err

    def test_run_scenario_analytical(self, tmp_path, capsys):
        out = tmp_path / "fig3.json"
        assert main(
            ["run", "scenario", "fig3", "--no-cache", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "fig3"

    def test_run_scenario_adaptive_requires_fault_kind(self, capsys):
        assert main(["run", "scenario", "rayleigh-harq", "--adaptive", "--no-cache"]) == 2
        assert "fault-map scenarios" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
class TestDefaultTables:
    def test_generic_fault_table_includes_axis_columns(self, micro_scale):
        outcome = run_scenario_grid(
            get_scenario("stuckat-vs-bitflip"), micro_scale, seed=5
        )
        table = default_tables(outcome)
        assert table.columns[:2] == ["fault_model", "snr_db"]
        assert {"throughput", "avg_transmissions", "bler"} <= set(table.columns)

    def test_reference_point_needs_custom_presenter(self, micro_scale):
        spec = get_scenario("fig8").with_updates(presenter=None)
        outcome = run_scenario_grid(spec, micro_scale, seed=5)
        with pytest.raises(ValueError, match="presenter"):
            default_tables(outcome)

    def test_bler_scenario_rejects_adaptive(self, micro_scale):
        with pytest.raises(ValueError, match="fault-map"):
            run_scenario_grid(
                get_scenario("rayleigh-harq"), micro_scale, seed=5, adaptive=True
            )


# --------------------------------------------------------------------------- #
class TestNewPhysicsScenarios:
    """The PR-5 physics: intra-packet fading, clustered faults, soft errors."""

    def _run(self, name, micro_scale, seed=11, **kwargs):
        return run_scenario(get_scenario(name), micro_scale, seed, **kwargs)

    def test_jakes_doppler_sweep_covers_fading_axis(self, micro_scale):
        table = self._run("jakes-doppler-sweep", micro_scale)
        assert set(table.column("fading")) == {
            "block", "jakes:4000", "jakes:40000", "jakes:120000",
        }
        assert all(0.0 <= row["failure_probability"] <= 1.0 for row in table.rows)
        assert table.to_json() == self._run("jakes-doppler-sweep", micro_scale).to_json()

    def test_jakes_harq_gain_reports_fading_config(self, micro_scale):
        table = self._run("jakes-harq-gain", micro_scale)
        assert "fading jakes:40000" in table.metadata["config"]
        assert len(table.rows) == 4  # 2 defect rates x 2 SNR points
        assert all(0.0 <= row["throughput"] <= 1.0 for row in table.rows)

    def test_clustered_vs_uniform_covers_placements(self, micro_scale):
        table = self._run("clustered-vs-uniform", micro_scale)
        assert set(table.column("fault_model")) == {
            "bit-flip", "clustered:2", "clustered:6",
        }
        # Same exact fault budget per die on every placement.
        counts = {}
        for row in table.rows:
            counts.setdefault(row["snr_db"], set()).add(row["num_faults"])
        for faults in counts.values():
            assert len(faults) == 1

    def test_soft_vs_hard_faults_grid(self, micro_scale):
        table = self._run("soft-vs-hard-faults", micro_scale)
        assert set(table.column("soft_error_rate")) == {0.0, 1e-3, 1e-2}
        assert len(table.rows) == 3 * 2  # 3 upset rates x 2 defect rates
        # The zero-rate rows must be bit-identical when the soft axis is
        # sliced down to just 0.0 (same spawn keys, no sibling cells): cell
        # results depend only on (cell spec, keys), never on grid
        # composition.  (That rate 0.0 equals the mechanism-absent code
        # path is pinned separately by the pre-PR golden files, which would
        # move if the soft-error plumbing consumed any randomness when
        # disabled.)
        sliced_spec = get_scenario("soft-vs-hard-faults").with_axis_values(
            soft_error_rate=(0.0,)
        )
        sliced = run_scenario(sliced_spec, micro_scale, 11)
        zero_rows = [row for row in table.rows if row["soft_error_rate"] == 0.0]
        assert zero_rows == sliced.rows

    def test_clustered_interleaver_depth_sweeps_columns(self, micro_scale):
        table = self._run("clustered-interleaver-depth", micro_scale)
        assert set(table.column("interleaver_columns")) == {6, 30, 90}
        assert all(0.0 <= row["throughput"] <= 1.0 for row in table.rows)

    def test_soft_error_rate_rejected_on_bler_kind(self):
        with pytest.raises(ValueError, match="fault-kind"):
            ScenarioSpec(
                name="x", title="x", summary="x", kind="bler", soft_error_rate=0.01
            )

    def test_fading_token_validated_on_spec(self):
        with pytest.raises(ValueError, match="fading"):
            ScenarioSpec(name="x", title="x", summary="x", fading="warp:9")

    def test_new_fields_stay_out_of_default_identity(self, micro_scale):
        fields = resolved_scenario_fields(
            ScenarioSpec(name="x", title="x", summary="x", snr_db=20.0), micro_scale
        )
        assert set(fields) == {"snr_db", "axes"}
        loaded = resolved_scenario_fields(
            ScenarioSpec(
                name="x",
                title="x",
                summary="x",
                snr_db=20.0,
                fading="jakes:4000",
                soft_error_rate=0.01,
                fault_model="clustered:2",
                interleaver_columns=60,
            ),
            micro_scale,
        )
        assert {"fading", "soft_error_rate", "fault_model", "interleaver_columns"} <= set(
            loaded
        )

    def test_overrides_accept_new_fields(self, micro_scale):
        spec = get_scenario("fig6").apply_override("fading", "jakes:4000")
        spec = spec.apply_override("soft_error_rate", 0.001)
        spec = spec.apply_override("fault_model", "clustered:2")
        assert spec.fading == "jakes:4000"
        assert spec.soft_error_rate == 0.001
        assert spec.fault_model == "clustered:2"


# --------------------------------------------------------------------------- #
class TestScenarioBackendConformance:
    """Every registered scenario runs end to end on every execution backend.

    Extends the conformance contract of ``tests/test_execution_backends.py``
    to the full catalog: a grid scenario's serialized output must be
    byte-identical between serial and process-pool execution (work items are
    seeded by sweep coordinates, never by topology), and analytical
    scenarios must at least run.  Uses a sub-micro scale so the whole
    catalog stays fast.
    """

    @pytest.fixture(scope="class")
    def tiny_scale(self):
        return SCALES["smoke"].with_updates(
            payload_bits=56,
            num_packets=4,
            num_fault_maps=2,
            turbo_iterations=2,
            snr_points_db=(20.0,),
            defect_rates=(0.0, 0.10),
        )

    @pytest.fixture(scope="class")
    def process_runner(self):
        from repro.runner.parallel import ParallelRunner

        with ParallelRunner(2) as runner:
            yield runner

    @staticmethod
    def _canonical(result):
        from repro.runner.cache import serialize_payload
        from repro.runner.registry import _normalise

        tables, extras = _normalise(result)
        return serialize_payload("conformance", identity={}, tables=tables, extras=extras)

    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_scenario_is_backend_invariant(self, name, tiny_scale, process_runner):
        spec = get_scenario(name)
        if spec.kind == "analytical":
            # Closed form: no work items to distribute; just run it.
            run_scenario(spec, tiny_scale, 2012)
            return
        serial = self._canonical(run_scenario(spec, tiny_scale, 2012, runner="serial"))
        pooled = self._canonical(run_scenario(spec, tiny_scale, 2012, runner=process_runner))
        assert serial == pooled, f"{name}: serial != process-pool bytes"

    def test_new_physics_scenario_survives_the_socket_backend(self, tiny_scale):
        # One distributed run of a clustered+soft-error scenario: the
        # FaultModelSpec-carrying tasks must pickle across the wire and
        # reproduce the serial bytes (serial == socket, like fig6 in CI).
        from repro.runner.backends import create_execution_backend
        from repro.runner.parallel import ParallelRunner

        spec = get_scenario("clustered-vs-uniform").with_updates(
            soft_error_rate=0.001
        )
        serial = self._canonical(run_scenario(spec, tiny_scale, 2012, runner="serial"))
        backend = create_execution_backend("socket", workers=2)
        with ParallelRunner(2, backend=backend) as runner:
            distributed = self._canonical(
                run_scenario(spec, tiny_scale, 2012, runner=runner)
            )
        assert serial == distributed
