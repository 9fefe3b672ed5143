"""Tests for the core fault-simulation framework and its analyses."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    EccProtection,
    FullCellProtection,
    MsbProtection,
    NoProtection,
    SweepTable,
)
from repro.core import protection as protection_module
from repro.core.montecarlo import proportion_confidence_interval, required_packets_for_bler
from repro.core.voltage import VoltageScalingAnalysis
from repro.experiments.fig8_efficiency import (
    ProtectionEfficiencyPoint,
    ecc_comparison,
    optimum_protection_depth,
)
from repro.experiments.fig9_bitwidth import BitWidthPoint, best_width_per_snr
from repro.link import LinkConfig
from repro.memory.ecc import HammingCode
from repro.memory.power import AreaModel
from repro.memory.yield_model import acceptance_yield
from repro.runner.cli import main
from repro.runner.tasks import GridPoint
from repro.scenarios import SweepAxis, default_tables


class TestProtectionSchemes:
    def test_no_protection_properties(self):
        scheme = NoProtection(bits_per_word=10)
        assert scheme.area_overhead() == 0.0
        assert not scheme.protected_columns().any()
        assert scheme.unprotected_cells(100) == 1000

    def test_msb_protection_properties(self):
        scheme = MsbProtection(bits_per_word=10, protected_msbs=4)
        assert scheme.protected_columns()[:4].all()
        assert not scheme.protected_columns()[4:].any()
        assert scheme.unprotected_cells(100) == 600
        assert 0.10 <= scheme.area_overhead() <= 0.14

    def test_full_protection_properties(self):
        scheme = FullCellProtection(bits_per_word=10)
        assert scheme.protected_columns().all()
        assert scheme.unprotected_cells(100) == 0
        assert scheme.area_overhead() == pytest.approx(0.30, abs=0.01)

    def test_ecc_protection_properties(self):
        scheme = EccProtection(bits_per_word=10)
        assert scheme.stored_bits_per_word == 14
        assert scheme.area_overhead() >= 0.35
        assert scheme.ecc is not None

    def test_ecc_code_is_built_once(self):
        scheme = EccProtection(bits_per_word=10)
        assert scheme.ecc is scheme.ecc
        assert EccProtection(bits_per_word=10).ecc is scheme.ecc
        assert EccProtection(bits_per_word=10, extended=True).ecc is not scheme.ecc
        # The cached code stays out of the run identity.
        assert "ecc" not in dataclasses.asdict(scheme)

    def test_ecc_smoke_run_builds_one_code_per_distinct_code(self, monkeypatch, tmp_path):
        built = []
        build = HammingCode.__post_init__

        def counting(code):
            built.append((code.data_bits, code.extended))
            build(code)

        monkeypatch.setattr(HammingCode, "__post_init__", counting)
        protection_module._hamming_code.cache_clear()
        out = tmp_path / "ecc.json"
        args = ["run", "scenario", "ecc-low-voltage", "--scale", "smoke", "--no-cache"]
        assert main([*args, "--out", str(out)]) == 0
        assert built and len(built) == len(set(built)), built
        golden = Path(__file__).parent / "golden" / "scenario-ecc-low-voltage.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_fault_map_respects_protection(self, rng):
        scheme = MsbProtection(bits_per_word=10, protected_msbs=3)
        fault_map = scheme.make_fault_map(200, 150, rng)
        assert fault_map.num_faults == 150
        assert fault_map.fault_mask[:, :3].sum() == 0

    def test_relative_power_orderings(self):
        unprotected = NoProtection(bits_per_word=10)
        protected = MsbProtection(bits_per_word=10, protected_msbs=4)
        assert protected.relative_power(1.0) > unprotected.relative_power(1.0)
        assert unprotected.relative_power(0.7) < unprotected.relative_power(1.0)

    def test_protected_msbs_bounds(self):
        with pytest.raises(ValueError):
            MsbProtection(bits_per_word=10, protected_msbs=11)


class TestSweepTable:
    def test_add_and_column(self):
        table = SweepTable("t", ["a", "b"])
        table.add_row(a=1, b=2.0)
        assert table.column("a") == [1]
        assert len(table) == 1

    def test_unknown_column_rejected(self):
        table = SweepTable("t", ["a"])
        with pytest.raises(KeyError):
            table.add_row(c=1)
        with pytest.raises(KeyError):
            table.column("z")

    def test_markdown(self):
        table = SweepTable("title", ["x", "y"])
        table.add_row(x=1, y=0.5)
        markdown = table.to_markdown()
        assert "title" in markdown and "| x | y |" in markdown


class TestMonteCarlo:
    def test_proportion_interval(self):
        estimate = proportion_confidence_interval(5, 100)
        assert 0.0 < estimate.lower < 0.05 < estimate.upper < 0.2

    def test_required_packets(self):
        assert required_packets_for_bler(0.1) > required_packets_for_bler(0.5)
        with pytest.raises(ValueError):
            required_packets_for_bler(0.0)


class TestFaultPointGrid:
    """The fault-map grid behind every figure, on one small operating point."""

    def test_cell_accounting(self, run_fault_grid):
        outcome = run_fault_grid(
            num_packets=2, num_fault_maps=2, seed=0, snr_db=28.0, defect_rate=0.1
        )
        (point,) = outcome.points
        cells = outcome.base_config.llr_storage_cells
        # Unprotected: every storage cell is fallible.
        assert point.num_faults == pytest.approx(0.1 * cells, abs=1)
        assert point.defect_rate == point.num_faults / cells

    def test_word_width_mismatch_rejected(self, tiny_64qam_config):
        with pytest.raises(ValueError):
            GridPoint(
                key_prefix=(),
                config=tiny_64qam_config,
                protection=NoProtection(bits_per_word=12),
                snr_db=20.0,
                defect_rate=0.0,
            )

    def test_defect_free_point(self, run_fault_grid):
        (point,) = run_fault_grid(
            num_packets=6, num_fault_maps=2, seed=0, snr_db=28.0, defect_rate=0.0
        ).points
        assert point.num_faults == 0
        assert point.normalized_throughput > 0.5
        assert point.block_error_rate == 0.0

    def test_heavy_defects_degrade(self, run_fault_grid):
        (clean,) = run_fault_grid(
            num_packets=8, num_fault_maps=2, seed=1, snr_db=18.0, defect_rate=0.0
        ).points
        (dirty,) = run_fault_grid(
            num_packets=8, num_fault_maps=2, seed=1, snr_db=18.0, defect_rate=0.10
        ).points
        assert dirty.average_transmissions >= clean.average_transmissions - 1e-9

    def test_msb_protection_recovers_throughput(self, run_fault_grid):
        (dirty,) = run_fault_grid(
            num_packets=8, num_fault_maps=2, seed=2, snr_db=24.0, defect_rate=0.10
        ).points
        (fixed,) = run_fault_grid(
            num_packets=8,
            num_fault_maps=2,
            seed=2,
            snr_db=24.0,
            defect_rate=0.10,
            protection="msb:4",
        ).points
        assert fixed.normalized_throughput >= dirty.normalized_throughput

    def test_yield_for_acceptance(self, run_fault_grid):
        outcome = run_fault_grid(
            num_packets=2, num_fault_maps=2, seed=0, snr_db=28.0, defect_rate=0.01
        )
        cells = outcome.base_config.llr_storage_cells
        strict = acceptance_yield(1e-4, cells, 0)
        relaxed = acceptance_yield(1e-4, cells, outcome.points[0].num_faults)
        assert relaxed > strict

    def test_sweeps_and_table(self, run_fault_grid):
        outcome = run_fault_grid(
            num_packets=4,
            num_fault_maps=2,
            seed=3,
            axes=(SweepAxis("defect_rate", (0.0, 0.10)), SweepAxis("snr_db", (24.0,))),
        )
        table = default_tables(outcome)
        assert len(table) == 2
        assert set(table.columns) >= {"defect_rate", "snr_db", "throughput"}

    def test_reproducible(self, run_fault_grid):
        a = run_fault_grid(num_packets=4, num_fault_maps=2, seed=11, snr_db=20.0, defect_rate=0.05)
        b = run_fault_grid(num_packets=4, num_fault_maps=2, seed=11, snr_db=20.0, defect_rate=0.05)
        assert a.points[0].normalized_throughput == b.points[0].normalized_throughput


class TestAnalyses:
    def test_efficiency_analysis(self):
        area_model = AreaModel()
        points = [
            ProtectionEfficiencyPoint(
                protected_bits=bits,
                throughput=gain,
                throughput_gain=gain,
                area_overhead=area_model.hybrid_overhead(10, bits),
                efficiency=gain / area_model.hybrid_overhead(10, bits),
            )
            for bits, gain in ((2, 0.6), (4, 0.9), (6, 0.92))
        ]
        assert points[1].area_overhead > points[0].area_overhead
        # The smallest depth within the gain tolerance of the best wins.
        assert optimum_protection_depth(points) == 4
        assert optimum_protection_depth(points, gain_tolerance=0.5) == 2
        with pytest.raises(ValueError):
            optimum_protection_depth([])
        comparison = ecc_comparison(10, area_model)
        assert comparison["msb4_overhead"] < comparison["ecc_overhead"]
        assert comparison["ecc_parity_bits"] == 4

    def test_bitwidth_analysis(self):
        assert LinkConfig(llr_bits=12).llr_storage_cells > LinkConfig(llr_bits=10).llr_storage_cells
        points = [
            BitWidthPoint(
                llr_bits=bits,
                snr_db=snr,
                defect_rate=0.10,
                storage_cells=100 * bits,
                num_faults=10 * bits,
                throughput=throughput,
                average_transmissions=1.0 / throughput,
            )
            for bits, snr, throughput in (
                (10, 20.0, 0.5),
                (12, 20.0, 0.4),
                (10, 26.0, 0.7),
                (12, 26.0, 0.8),
            )
        ]
        assert best_width_per_snr(points) == {20.0: 10, 26.0: 12}


class TestVoltageScaling:
    def test_operating_point_fields(self):
        analysis = VoltageScalingAnalysis(1000, NoProtection(bits_per_word=10))
        point = analysis.operating_point(0.8)
        assert point.vdd == 0.8
        assert point.cell_failure_probability > 0
        assert point.defects_for_yield >= 0
        assert 0 < point.relative_power < 1.0

    def test_lower_voltage_needs_more_accepted_defects(self):
        analysis = VoltageScalingAnalysis(5000, NoProtection(bits_per_word=10))
        high = analysis.operating_point(0.9)
        low = analysis.operating_point(0.7)
        assert low.defects_for_yield >= high.defects_for_yield
        assert low.relative_power < high.relative_power

    def test_min_voltage_for_budget_monotone(self):
        analysis = VoltageScalingAnalysis(5000, NoProtection(bits_per_word=10))
        generous = analysis.min_voltage_for_defect_budget(0.10)
        strict = analysis.min_voltage_for_defect_budget(0.0001)
        assert generous.vdd <= strict.vdd

    def test_power_saving_positive_below_nominal(self):
        analysis = VoltageScalingAnalysis(1000, NoProtection(bits_per_word=10))
        assert analysis.power_saving_versus_nominal(0.8) > 0.0
