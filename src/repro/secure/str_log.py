"""Append-only log of Signed Tree Roots (Appendix B.1).

"STRs from different epochs should be stored in an append-only log
structure, preventing any tampering from the PR and PVs. CONIKS suggests
using a hashchain" — this module implements that hashchain: every entry
commits to the hash of its predecessor, so rewriting history changes every
subsequent link and is detected by :meth:`HashChainLog.verify`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional


def _h(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class ChainEntry:
    """One link; its hash, over all three fields, is computed once, when
    it is first read."""

    index: int
    payload: bytes
    prev_hash: bytes

    @cached_property
    def entry_hash(self) -> bytes:
        return _h(self.index.to_bytes(8, "big") + self.prev_hash + self.payload)


GENESIS = b"\x00" * 32


class HashChainLog:
    """A tamper-evident append-only log."""

    def __init__(self) -> None:
        self._entries: list[ChainEntry] = []

    def append(self, payload: bytes) -> ChainEntry:
        prev = self._entries[-1].entry_hash if self._entries else GENESIS
        entry = ChainEntry(len(self._entries), payload, prev)
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ChainEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> ChainEntry:
        return self._entries[index]

    @property
    def head(self) -> Optional[bytes]:
        return self._entries[-1].entry_hash if self._entries else None

    def verify(self) -> bool:
        """Linear re-check of the whole chain (CONIKS-style audit)."""
        prev = GENESIS
        for i, entry in enumerate(self._entries):
            if entry.index != i or entry.prev_hash != prev:
                return False
            prev = entry.entry_hash
        return True
