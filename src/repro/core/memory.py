"""Θ(1) fixed-size block allocator for the plugin memory area (§2.3).

"Our framework dedicates a fixed-size memory area split into constant size
blocks [56].  Such approach provides algorithmic Θ(1) time memory
allocation while limiting fragmentation."

The allocator manages the plugin's :class:`~repro.vm.interpreter.PluginMemory`
byte area.  Addresses handed to pluglets are VM virtual addresses (offset
from ``HEAP_BASE``), so allocated blocks are directly loadable/storable by
bytecode under the memory monitor.

Nothing is built per block: a fresh allocator holds one bump index over
the blocks never handed out and an empty stack of released ones, so a
plugin instance costs the same whatever its heap size.  A single block
comes off the top of that stack, else off the bump index — amortised
Θ(1), each block passed over at most once by each.  A run of blocks is
the lowest fitting one, found by one byte-string search over the free
map; it rebuilds no list (a released block a run took is dropped from
the stack when it comes up).  Such stale entries are compacted away
once the stack holds twice as many entries as there are blocks, so the
stack stays bounded and each entry is compacted at most once.
"""

from __future__ import annotations

from typing import Optional

from repro.vm.interpreter import HEAP_BASE, PluginMemory

BLOCK_SIZE = 64


class AllocationError(Exception):
    """The plugin memory pool is exhausted or an address is invalid."""


class BlockAllocator:
    """Kenwright-style fixed-block pool.

    Single-block allocations take the block released last, else the
    lowest block never handed out; allocations larger than one block take
    the lowest contiguous run of free blocks (the run length is recorded
    host-side).  Freed blocks are zeroed.
    """

    def __init__(self, memory: PluginMemory, block_size: int = BLOCK_SIZE):
        if block_size <= 0 or memory.size % block_size:
            raise ValueError("memory size must be a multiple of block size")
        self.memory = memory
        self.block_size = block_size
        self.num_blocks = memory.size // block_size
        #: Released blocks, the last released on top; one a run took
        #: since is skipped when it comes up.  At most twice
        #: ``num_blocks`` entries (see :meth:`_compact`).
        self._released: list[int] = []
        #: Every block from here up that is not ``_handed`` was never
        #: handed out.
        self._fresh = 0
        #: 1 for a free block, and 1 for a block ever handed out, by
        #: block number.
        self._is_free = bytearray(b"\x01") * self.num_blocks
        self._handed = bytearray(self.num_blocks)
        self._allocated: dict[int, int] = {}  # first block -> run length
        self._in_use = 0

    # ------------------------------------------------------------------

    @property
    def allocated_blocks(self) -> int:
        return self._in_use

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns a VM virtual address."""
        if size <= 0:
            raise AllocationError(f"invalid allocation size {size}")
        blocks_needed = -(-size // self.block_size)
        if blocks_needed > 1:
            return self._malloc_run(blocks_needed)
        is_free = self._is_free
        released = self._released
        while released:
            block = released.pop()
            if is_free[block]:
                break
        else:
            block, handed = self._fresh, self._handed
            while block < self.num_blocks and handed[block]:
                block += 1
            if block == self.num_blocks:
                self._fresh = block
                raise AllocationError("plugin memory exhausted")
            self._fresh = block + 1
            handed[block] = 1
        is_free[block] = 0
        self._allocated[block] = 1
        self._in_use += 1
        return HEAP_BASE + block * self.block_size

    def _malloc_run(self, count: int) -> int:
        """Take the lowest contiguous run of ``count`` free blocks."""
        start = self._is_free.find(b"\x01" * count)
        if start < 0:
            raise AllocationError(
                f"no contiguous run of {count} blocks in plugin memory"
            )
        self._is_free[start:start + count] = bytes(count)
        self._handed[start:start + count] = b"\x01" * count
        self._allocated[start] = count
        self._in_use += count
        return HEAP_BASE + start * self.block_size

    def free(self, address: int) -> None:
        block, rem = divmod(address - HEAP_BASE, self.block_size)
        if rem or block not in self._allocated:
            raise AllocationError(f"free of unallocated address 0x{address:x}")
        count = self._allocated.pop(block)
        start = block * self.block_size
        self.memory.data[start:start + count * self.block_size] = bytes(
            count * self.block_size
        )
        self._is_free[block:block + count] = b"\x01" * count
        self._in_use -= count
        released = self._released
        released.extend(range(block, block + count))
        if len(released) > 2 * self.num_blocks:
            self._compact()

    def _compact(self) -> None:
        """Keep only the topmost entry of each free block, in stack
        order.  A free block's topmost entry is the one its latest
        release pushed, so the blocks handed out next do not change;
        the entries dropped are those of blocks a run took since, or
        pushed again by a later release."""
        is_free, seen = self._is_free, bytearray(self.num_blocks)
        kept = []
        for block in reversed(self._released):
            if is_free[block] and not seen[block]:
                seen[block] = 1
                kept.append(block)
        kept.reverse()
        self._released = kept

    def allocation_size(self, address: int) -> Optional[int]:
        """Bytes usable at ``address``, or None if not an allocation."""
        block = (address - HEAP_BASE) // self.block_size
        count = self._allocated.get(block)
        return count * self.block_size if count else None
