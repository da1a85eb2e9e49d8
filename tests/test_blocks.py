"""Cache blocks: state, pinning, bookkeeping."""

import pytest

from repro.core.blocks import BlockId, BlockState, CacheBlock
from repro.errors import CacheError


def test_new_block_is_free():
    block = CacheBlock(slot=0, size=4096, with_data=True)
    assert block.is_free
    assert not block.is_dirty
    assert block.data is not None and len(block.data) == 4096


def test_block_without_data():
    block = CacheBlock(slot=1, size=4096, with_data=False)
    assert block.data is None
    assert not block.has_data


def test_block_id_str():
    assert str(BlockId(5, 7)) == "5:7"


def test_pin_unpin():
    block = CacheBlock(0, 4096, True)
    block.pin()
    block.pin()
    assert block.pinned and block.pin_count == 2
    block.unpin()
    block.unpin()
    assert not block.pinned
    with pytest.raises(CacheError):
        block.unpin()


def test_record_access_stamps_the_time():
    block = CacheBlock(0, 4096, False)
    for t in range(10):
        block.record_access(float(t))
    assert block.last_access == 9.0


def test_reset_clears_state_and_data():
    block = CacheBlock(0, 16, True)
    block.block_id = BlockId(1, 2)
    block.state = BlockState.DIRTY
    block.data[:4] = b"abcd"
    block.dirty_since = 5.0
    block.reset()
    assert block.is_free
    assert block.block_id is None
    assert block.dirty_since is None
    assert bytes(block.data) == bytes(16)


def test_reset_pinned_block_rejected():
    block = CacheBlock(0, 4096, False)
    block.pin()
    with pytest.raises(CacheError):
        block.reset()
