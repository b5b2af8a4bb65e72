"""Θ(1) fixed-size block allocator for the plugin memory area (§2.3).

"Our framework dedicates a fixed-size memory area split into constant size
blocks [56].  Such approach provides algorithmic Θ(1) time memory
allocation while limiting fragmentation."

The allocator manages the plugin's :class:`~repro.vm.interpreter.PluginMemory`
byte area.  Addresses handed to pluglets are VM virtual addresses (offset
from ``HEAP_BASE``), so allocated blocks are directly loadable/storable by
bytecode under the memory monitor.
"""

from __future__ import annotations

from typing import Optional

from repro.vm.interpreter import HEAP_BASE, PluginMemory

BLOCK_SIZE = 64


class AllocationError(Exception):
    """The plugin memory pool is exhausted or an address is invalid."""


class BlockAllocator:
    """Kenwright-style fixed-block pool: free list threaded through blocks.

    Allocations larger than one block take a contiguous run of blocks (the
    run length is recorded host-side), found in O(runs) worst case but O(1)
    for the dominant single-block case.
    """

    def __init__(self, memory: PluginMemory, block_size: int = BLOCK_SIZE):
        if block_size <= 0 or memory.size % block_size:
            raise ValueError("memory size must be a multiple of block size")
        self.memory = memory
        self.block_size = block_size
        self.num_blocks = memory.size // block_size
        self._free: list[int] = list(range(self.num_blocks - 1, -1, -1))
        #: 1 for a free block, by block number.
        self._is_free = bytearray(b"\x01") * self.num_blocks
        self._allocated: dict[int, int] = {}  # first block -> run length

    # ------------------------------------------------------------------

    @property
    def allocated_blocks(self) -> int:
        return self.num_blocks - len(self._free)

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns a VM virtual address.

        Single-block allocations pop the free list in Θ(1).
        """
        if size <= 0:
            raise AllocationError(f"invalid allocation size {size}")
        blocks_needed = -(-size // self.block_size)
        if blocks_needed == 1:
            if not self._free:
                raise AllocationError("plugin memory exhausted")
            block = self._free.pop()
            self._is_free[block] = 0
            self._allocated[block] = 1
            return HEAP_BASE + block * self.block_size
        return self._malloc_run(blocks_needed)

    def _malloc_run(self, count: int) -> int:
        """Find a contiguous run of ``count`` free blocks."""
        run_start, run_len = None, 0
        is_free = self._is_free
        for block in range(self.num_blocks):
            if is_free[block]:
                if run_start is None:
                    run_start, run_len = block, 1
                else:
                    run_len += 1
                if run_len == count:
                    is_free[run_start:run_start + count] = bytes(count)
                    self._free = [b for b in self._free if is_free[b]]
                    self._allocated[run_start] = count
                    return HEAP_BASE + run_start * self.block_size
            else:
                run_start, run_len = None, 0
        raise AllocationError(
            f"no contiguous run of {count} blocks in plugin memory"
        )

    def free(self, address: int) -> None:
        block, rem = divmod(address - HEAP_BASE, self.block_size)
        if rem or block not in self._allocated:
            raise AllocationError(f"free of unallocated address 0x{address:x}")
        count = self._allocated.pop(block)
        start = block * self.block_size
        self.memory.data[start:start + count * self.block_size] = bytes(
            count * self.block_size
        )
        self._free.extend(range(block, block + count))
        self._is_free[block:block + count] = b"\x01" * count

    def allocation_size(self, address: int) -> Optional[int]:
        """Bytes usable at ``address``, or None if not an allocation."""
        block = (address - HEAP_BASE) // self.block_size
        count = self._allocated.get(block)
        return count * self.block_size if count else None

