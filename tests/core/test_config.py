"""Tests for RuntimeConfig validation and ablation flags."""

import pytest

from repro.core.config import RuntimeConfig
from repro.errors import InvalidArgument
from repro.units import KiB, MiB


def test_defaults_match_paper():
    config = RuntimeConfig()
    assert config.hugeblock_bytes == KiB(32)  # §IV-B
    assert config.effective_block_bytes == KiB(32)
    assert config.userspace_direct
    assert config.private_namespace
    assert config.metadata_provenance
    assert config.hugeblocks
    assert config.log_coalescing


def test_hugeblocks_flag_switches_block_size():
    config = RuntimeConfig(hugeblocks=False)
    assert config.effective_block_bytes == 4096


def test_invalid_hugeblock_sizes():
    with pytest.raises(InvalidArgument):
        RuntimeConfig(hugeblock_bytes=1000)
    with pytest.raises(InvalidArgument):
        RuntimeConfig(hugeblock_bytes=KiB(32) + 1)
    with pytest.raises(InvalidArgument):
        RuntimeConfig(hugeblock_bytes=0)


def test_invalid_threshold():
    with pytest.raises(InvalidArgument):
        RuntimeConfig(log_free_threshold=0.0)
    with pytest.raises(InvalidArgument):
        RuntimeConfig(log_free_threshold=1.5)


def test_batch_must_cover_block():
    with pytest.raises(InvalidArgument):
        RuntimeConfig(hugeblock_bytes=MiB(16), max_batch_bytes=MiB(8))


def test_with_produces_validated_copy():
    config = RuntimeConfig()
    changed = config.with_(hugeblock_bytes=KiB(64))
    assert changed.hugeblock_bytes == KiB(64)
    assert config.hugeblock_bytes == KiB(32)  # original untouched
    with pytest.raises(InvalidArgument):
        config.with_(hugeblock_bytes=5)


def test_drilldown_base_is_everything_off():
    base = RuntimeConfig.drilldown_base()
    assert not base.userspace_direct
    assert not base.private_namespace
    assert not base.metadata_provenance
    assert not base.hugeblocks
    assert not base.log_coalescing
    assert base.effective_block_bytes == 4096
