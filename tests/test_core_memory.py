"""Block allocator tests (Θ(1) fixed-size pool, §2.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory import BLOCK_SIZE, AllocationError, BlockAllocator
from repro.vm.interpreter import HEAP_BASE, PluginMemory


def make(size=1024):
    return BlockAllocator(PluginMemory(size))


def test_single_block_allocation():
    alloc = make()
    addr = alloc.malloc(10)
    assert addr >= HEAP_BASE
    assert (addr - HEAP_BASE) % BLOCK_SIZE == 0
    assert alloc.allocated_blocks == 1


def test_addresses_distinct():
    alloc = make()
    addrs = {alloc.malloc(8) for _ in range(16)}
    assert len(addrs) == 16


def test_free_and_reuse():
    alloc = make(256)  # 4 blocks
    addrs = [alloc.malloc(8) for _ in range(4)]
    with pytest.raises(AllocationError):
        alloc.malloc(8)
    alloc.free(addrs[1])
    again = alloc.malloc(8)
    assert again == addrs[1]


def test_multi_block_run_contiguous():
    alloc = make(1024)
    addr = alloc.malloc(200)  # 4 blocks
    assert alloc.allocated_blocks == 4
    assert alloc.allocation_size(addr) == 4 * BLOCK_SIZE
    alloc.free(addr)
    assert alloc.allocated_blocks == 0


def test_fragmented_run_fails_until_freed():
    alloc = make(4 * BLOCK_SIZE)
    a = alloc.malloc(8)
    b = alloc.malloc(8)
    c = alloc.malloc(8)
    d = alloc.malloc(8)
    alloc.free(a)
    alloc.free(c)
    # Two free blocks but not contiguous.
    with pytest.raises(AllocationError):
        alloc.malloc(2 * BLOCK_SIZE)
    alloc.free(b)
    addr = alloc.malloc(2 * BLOCK_SIZE)
    assert addr == a


def test_free_zeroes_memory():
    mem = PluginMemory(256)
    alloc = BlockAllocator(mem)
    addr = alloc.malloc(16)
    off = addr - HEAP_BASE
    mem.data[off:off + 4] = b"\xde\xad\xbe\xef"
    alloc.free(addr)
    assert mem.data[off:off + 4] == bytes(4)


def test_invalid_free_rejected():
    alloc = make()
    with pytest.raises(AllocationError):
        alloc.free(HEAP_BASE + 8)  # not block-aligned
    with pytest.raises(AllocationError):
        alloc.free(HEAP_BASE)  # never allocated


def test_invalid_size_rejected():
    alloc = make()
    with pytest.raises(AllocationError):
        alloc.malloc(0)
    with pytest.raises(AllocationError):
        alloc.malloc(-5)


def test_size_must_be_multiple_of_block():
    with pytest.raises(ValueError):
        BlockAllocator(PluginMemory(100))


@given(st.lists(st.integers(1, 200), min_size=1, max_size=40), st.randoms())
@settings(max_examples=100)
def test_alloc_free_never_overlaps(sizes, rng):
    alloc = make(64 * BLOCK_SIZE)
    live = {}
    for size in sizes:
        try:
            addr = alloc.malloc(size)
        except AllocationError:
            continue
        span = alloc.allocation_size(addr)
        for other, other_span in live.items():
            assert addr + span <= other or other + other_span <= addr
        live[addr] = span
        if live and rng.random() < 0.3:
            victim = rng.choice(sorted(live))
            alloc.free(victim)
            del live[victim]
    # Everything still live is accounted for.
    assert alloc.allocated_blocks == sum(live.values()) // BLOCK_SIZE
