"""Tests for the strategy enum and execution config."""

import pytest

from repro.core.fission import FissionConfig
from repro.runtime.strategies import (ROUNDTRIP_MEMORY, STAGING_MEMORY,
                                      ExecutionConfig, Strategy)
from repro.simgpu import HostMemory


class TestStrategyFlags:
    def test_fusion_flags(self):
        assert Strategy.FUSED.uses_fusion
        assert Strategy.FUSED_FISSION.uses_fusion
        assert not Strategy.SERIAL.uses_fusion
        assert not Strategy.FISSION.uses_fusion
        assert not Strategy.WITH_ROUND_TRIP.uses_fusion

    def test_fission_flags(self):
        assert Strategy.FISSION.uses_fission
        assert Strategy.FUSED_FISSION.uses_fission
        assert not Strategy.FUSED.uses_fission
        assert not Strategy.SERIAL.uses_fission

    def test_values_roundtrip(self):
        for s in Strategy:
            assert Strategy(s.value) is s


class TestExecutionConfig:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.strategy is Strategy.SERIAL
        assert STAGING_MEMORY is HostMemory.PINNED
        assert ROUNDTRIP_MEMORY is HostMemory.PAGED
        assert cfg.include_transfers
        assert isinstance(cfg.fission, FissionConfig)

    def test_frozen(self):
        cfg = ExecutionConfig()
        with pytest.raises(Exception):
            cfg.strategy = Strategy.FUSED  # type: ignore[misc]

    def test_custom_fission_config(self):
        cfg = ExecutionConfig(fission=FissionConfig(num_streams=5))
        assert cfg.fission.num_streams == 5
