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


class ReferenceAllocator:
    """The allocator as first written — a free list of every block,
    rebuilt by each run allocation — kept as the specification of which
    address each request gets."""

    def __init__(self, memory, block_size=BLOCK_SIZE):
        self.memory = memory
        self.block_size = block_size
        self.num_blocks = memory.size // block_size
        self._free = list(range(self.num_blocks - 1, -1, -1))
        self._is_free = bytearray(b"\x01") * self.num_blocks
        self._allocated = {}

    def malloc(self, size):
        if size <= 0:
            raise AllocationError(f"invalid allocation size {size}")
        count = -(-size // self.block_size)
        if count == 1:
            if not self._free:
                raise AllocationError("plugin memory exhausted")
            block = self._free.pop()
            self._is_free[block] = 0
            self._allocated[block] = 1
            return HEAP_BASE + block * self.block_size
        run_start, run_len = None, 0
        for block in range(self.num_blocks):
            if self._is_free[block]:
                if run_start is None:
                    run_start, run_len = block, 1
                else:
                    run_len += 1
                if run_len == count:
                    self._is_free[run_start:run_start + count] = bytes(count)
                    self._free = [b for b in self._free if self._is_free[b]]
                    self._allocated[run_start] = count
                    return HEAP_BASE + run_start * self.block_size
            else:
                run_start, run_len = None, 0
        raise AllocationError(f"no contiguous run of {count} blocks")

    def free(self, address):
        block, rem = divmod(address - HEAP_BASE, self.block_size)
        if rem or block not in self._allocated:
            raise AllocationError(f"free of unallocated address 0x{address:x}")
        count = self._allocated.pop(block)
        start = block * self.block_size
        self.memory.data[start:start + count * self.block_size] = bytes(
            count * self.block_size)
        self._free.extend(range(block, block + count))
        self._is_free[block:block + count] = b"\x01" * count


def outcome(call):
    try:
        return call()
    except AllocationError:
        return "AllocationError"


#: A program: (malloc, size) or (free, index into the live allocations,
#: or past them for an address never handed out).
STEPS = st.lists(st.one_of(
    st.tuples(st.just("malloc"), st.one_of(st.integers(1, 64),
                                           st.integers(-1, 5 * BLOCK_SIZE))),
    st.tuples(st.just("free"), st.integers(0, 40))), max_size=120)


@given(STEPS, st.sampled_from([4, 16, 64]))
@settings(max_examples=300, deadline=None)
def test_same_addresses_and_errors_as_the_reference(steps, blocks):
    """Random malloc / free programs: every request gets the address the
    reference allocator gives it, or the same AllocationError, freed
    blocks read zero, and the counts agree."""
    memory, reference_memory = (PluginMemory(blocks * BLOCK_SIZE)
                                for _ in range(2))
    alloc, reference = BlockAllocator(memory), ReferenceAllocator(
        reference_memory)
    live = []
    for kind, value in steps:
        if kind == "malloc":
            got = outcome(lambda: alloc.malloc(value))
            assert got == outcome(lambda: reference.malloc(value))
            if got != "AllocationError":
                span = alloc.allocation_size(got)
                off = got - HEAP_BASE
                assert memory.data[off:off + span] == bytes(span)
                memory.data[off:off + span] = b"\xa5" * span  # dirty it
                live.append(got)
        else:
            address = live.pop(value) if value < len(live) else HEAP_BASE + 8
            assert outcome(lambda: alloc.free(address)) == outcome(
                lambda: reference.free(address))
        assert alloc.allocated_blocks == blocks - sum(reference._is_free)
        assert len(alloc._released) <= 2 * alloc.num_blocks


def test_a_fresh_allocator_builds_no_list_of_blocks():
    alloc = make(64 * 1024)
    assert not any(isinstance(value, (list, dict)) and value
                   for value in vars(alloc).values())


def test_run_allocations_keep_the_released_stack_bounded():
    """A pluglet that allocates and frees a run on every invocation
    leaves at most twice as many released entries as blocks, however
    long the connection lives, and gets the reference's addresses."""
    alloc = make(16 * BLOCK_SIZE)
    reference = ReferenceAllocator(PluginMemory(16 * BLOCK_SIZE))
    singles = [alloc.malloc(1) for _ in range(16)]
    assert singles == [reference.malloc(1) for _ in range(16)]
    for block in (5, 9, 6, 12):  # the run below reuses blocks 5 and 6
        alloc.free(singles[block])
        reference.free(singles[block])
    for _ in range(5000):
        run, single = alloc.malloc(2 * BLOCK_SIZE), alloc.malloc(1)
        assert (reference.malloc(2 * BLOCK_SIZE), reference.malloc(1)) == (
            run, single)
        for address in (run, single):
            alloc.free(address)
            reference.free(address)
        assert len(alloc._released) <= 2 * alloc.num_blocks
        # The order singles come off in: each free block's topmost entry.
        order, seen = [], set()
        for block in reversed(alloc._released):
            if alloc._is_free[block] and block not in seen:
                seen.add(block)
                order.append(block)
        assert order[::-1] == reference._free
    for _ in range(5):
        assert outcome(lambda: alloc.malloc(1)) == outcome(
            lambda: reference.malloc(1))
