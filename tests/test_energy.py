"""Tests for the energy model."""

import pytest

from repro.config import GPUConfig
from repro.energy.model import EnergyModel, EnergyParams
from repro.stats.collector import ENERGY_COMPONENTS, ordered_energy


def test_components_present():
    model = EnergyModel(GPUConfig.small())
    energy = model.compute({}, cycles=1000)
    assert set(energy) == {"l1", "l2", "noc", "dram", "core", "static"}


def test_stored_energy_order_is_the_compute_order():
    energy = EnergyModel(GPUConfig.small()).compute({}, cycles=1000)
    assert tuple(energy) == ENERGY_COMPONENTS
    shuffled = dict(sorted(energy.items()))
    shuffled["zz_extra"] = 1.0
    shuffled["aa_extra"] = 2.0
    assert list(ordered_energy(shuffled)) == \
        list(ENERGY_COMPONENTS) + ["aa_extra", "zz_extra"]


def test_event_energies_scale_linearly():
    model = EnergyModel(GPUConfig.small())
    one = model.compute({"l1_access": 1}, cycles=0)
    ten = model.compute({"l1_access": 10}, cycles=0)
    assert ten["l1"] == pytest.approx(10 * one["l1"])


def test_static_energy_scales_with_cycles_and_sms():
    small = EnergyModel(GPUConfig.small())     # 4 SMs
    paper = EnergyModel(GPUConfig.paper())     # 16 SMs
    e_small = small.compute({}, cycles=1000)["static"]
    e_paper = paper.compute({}, cycles=1000)["static"]
    assert e_paper > e_small
    assert small.compute({}, cycles=2000)["static"] == \
        pytest.approx(2 * e_small)


def test_dram_reads_and_writes_both_count():
    model = EnergyModel(GPUConfig.small())
    energy = model.compute({"dram_reads": 3, "dram_writes": 2}, cycles=0)
    per = model.params.dram_access_j
    assert energy["dram"] == pytest.approx(5 * per)


def test_noc_energy_per_byte():
    model = EnergyModel(GPUConfig.small())
    energy = model.compute({"noc_bytes": 1000}, cycles=0)
    assert energy["noc"] == pytest.approx(1000 * model.params.noc_byte_j)


def test_custom_params():
    params = EnergyParams(l1_access_j=1.0)
    model = EnergyModel(GPUConfig.small(), params)
    assert model.compute({"l1_access": 2}, cycles=0)["l1"] == 2.0


def test_magnitudes_are_physically_plausible():
    """A millisecond-scale kernel should land in the millijoule-to-
    joule range for a small GPU — sanity against unit slips."""
    model = EnergyModel(GPUConfig.paper())
    counters = {
        "l1_access": 1_000_000,
        "l2_access": 300_000,
        "noc_bytes": 50_000_000,
        "dram_reads": 100_000,
        "instructions": 2_000_000,
    }
    total = sum(model.compute(counters, cycles=1_000_000).values())
    assert 1e-4 < total < 10.0
