"""The Merkle Prefix Tree built by each Plugin Validator (§3.3, App. B).

Bindings (``pluginname || plugincode``) are placed in leaves selected by
the truncated bits of ``H(pluginname)``.  Empty leaves take a large
constant ``c`` chosen by the PV.  A leaf holding one binding hashes to
``H(binding)``; hash-prefix collisions make the leaf a list and it hashes
to ``H(H(b_i) || H(b_j) || ...)``.  Interior nodes hash to ``H(h_l||h_r)``.

The construction differs from CONIKS exactly as the paper says: the leaf
position is fixed by the *name* hash, so a PV cannot keep two bindings for
one plugin name with one stealthily malicious — both would land in the same
leaf and the developer's lookup reveals them (Theorem B.1's uniqueness of
the authentication path backs this).

Lookups return an authentication path of Θ(log n + α) hashes: the sibling
hashes up the tree plus the hashes of any co-located bindings.

Each hash is computed once, by :func:`H` (which tests replace to count
them), from a copy of the empty SHA-256 state.  The empty-subtree chain
is a pure function of the depth and the empty constant, derived once per
process (:func:`empty_subtrees`).  A tree folds its node levels once per
state — the first :meth:`~MerklePrefixTree.root` or lookup after an
insert or a removal — and answers every lookup from them, so a lookup of
a present name hashes nothing.  The kept levels are the tree's populated
nodes, leaves to root: at most ``min(n, 2**(depth - h))`` hashes at
height ``h`` for ``n`` bindings — 116 435 hashes, about 14 MB of Python
objects, for 16 384 bindings at depth 20; about 5 kB for one binding at
depth 16.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

DEFAULT_DEPTH = 16

#: The empty SHA-256 state :func:`H` starts from.
_SHA256 = hashlib.sha256()


def H(data: bytes) -> bytes:
    """SHA-256 of ``data``, from a copy of the empty state."""
    h = _SHA256.copy()
    h.update(data)
    return h.digest()


def binding_bytes(name: str, code: bytes) -> bytes:
    """binding = pluginname || plugincode (§3.1)."""
    return name.encode("utf-8") + b"\x00" + code


@lru_cache(maxsize=64)
def empty_subtrees(depth: int, empty_constant: bytes) -> tuple:
    """The hash of an all-empty subtree at each height, leaf first:
    ``depth + 1`` hashes, derived once per process."""
    chain = [empty_constant]
    for _ in range(depth):
        chain.append(H(chain[-1] + chain[-1]))
    return tuple(chain)


def name_prefix(name: str, depth: int) -> int:
    """Leaf index: the first ``depth`` bits of H(pluginname)."""
    digest = H(name.encode("utf-8"))
    return int.from_bytes(digest[:8], "big") >> (64 - depth)


@dataclass
class AuthenticationPath:
    """Everything needed to recompute the root for one binding (Fig. 5)."""

    leaf_index: int
    depth: int
    #: Sibling hash at each level, leaf-adjacent first.
    siblings: list
    #: Hashes of the *other* bindings sharing the leaf, in leaf order,
    #: with None marking the position of the proven binding.
    leaf_slots: list

    def size_bytes(self) -> int:
        """Bandwidth cost Θ(λ(log n + α)) — Appendix B.3."""
        hashes = len(self.siblings) + sum(1 for s in self.leaf_slots if s)
        return hashes * 32 + 16


@dataclass
class AbsenceProof:
    """Proof that no binding for a name exists at its leaf (§3.3)."""

    leaf_index: int
    depth: int
    siblings: list
    #: All binding hashes present at the leaf (empty when the leaf is empty).
    present_hashes: list
    empty_constant: Optional[bytes]


class MerklePrefixTree:
    """Sparse Merkle prefix tree over ``2**depth`` leaves."""

    def __init__(self, depth: int = DEFAULT_DEPTH,
                 empty_constant: bytes = b"\xff" * 32):
        if not 1 <= depth <= 64:
            raise ValueError("depth must be within [1, 64]")
        self.depth = depth
        self.empty_constant = empty_constant
        #: leaf index -> list of (name, binding_hash, binding)
        self._leaves: dict[int, list] = {}
        #: name -> leaf index of its binding.
        self._names: dict[str, int] = {}
        #: The hash of an all-empty subtree at each height.
        self._empty_at = empty_subtrees(depth, empty_constant)
        #: The node levels of the current state (:meth:`_levels`).
        self._folded: Optional[list] = None

    # ------------------------------------------------------------------

    def insert(self, name: str, code: bytes) -> None:
        """Insert (or replace) the binding for ``name``."""
        index = name_prefix(name, self.depth)
        binding = binding_bytes(name, code)
        entries = self._leaves.setdefault(index, [])
        entries[:] = [e for e in entries if e[0] != name]
        entries.append((name, H(binding), binding))
        entries.sort(key=lambda e: e[1])  # deterministic leaf order
        self._names[name] = index
        self._folded = None

    def remove(self, name: str) -> None:
        index = self._names.pop(name, None)
        if index is None:
            return
        entries = self._leaves[index]
        entries[:] = [e for e in entries if e[0] != name]
        if not entries:
            del self._leaves[index]
        self._folded = None

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __len__(self) -> int:
        return len(self._names)

    # ------------------------------------------------------------------

    def _leaf_hash(self, index: int) -> bytes:
        entries = self._leaves.get(index)
        if not entries:
            return self.empty_constant
        if len(entries) == 1:
            return entries[0][1]
        return H(b"".join(e[1] for e in entries))

    def _levels(self) -> list:
        """The node levels, leaves first and the root's last:
        ``levels[h]`` maps the index of each populated node at height
        ``h`` to its hash.  A sparse bottom-up fold — only populated
        subtrees are hashed, each node once — made once per tree state:
        a left child hashes its parent, and so does a right child with
        no left sibling; a node with no sibling rises beside an empty
        subtree."""
        levels = self._folded
        if levels is None:
            level = {idx: self._leaf_hash(idx) for idx in self._leaves}
            levels = [level]
            for empty in self._empty_at[:-1]:
                nxt: dict[int, bytes] = {}
                for idx, value in level.items():
                    if idx & 1:
                        if idx - 1 not in level:
                            nxt[idx >> 1] = H(empty + value)
                    elif idx + 1 in level:
                        nxt[idx >> 1] = H(value + level[idx + 1])
                    else:
                        nxt[idx >> 1] = H(value + empty)
                levels.append(nxt)
                level = nxt
            self._folded = levels
        return levels

    def root(self) -> bytes:
        return self._levels()[-1].get(0, self._empty_at[-1])

    def _siblings(self, index: int) -> list:
        """Sibling hashes from the leaf to the root."""
        return [level.get((index >> height) ^ 1, empty)
                for height, (level, empty)
                in enumerate(zip(self._levels()[:-1], self._empty_at))]

    def prove(self, name: str) -> AuthenticationPath:
        """Authentication path for an existing binding (PQUIC user lookup:
        co-located bindings as hashes only, §B.2.1)."""
        index = self._names.get(name)
        if index is None:
            raise KeyError(f"no binding for {name!r}")
        entries = self._leaves[index]
        slots = [None if e[0] == name else e[1] for e in entries]
        return AuthenticationPath(
            leaf_index=index,
            depth=self.depth,
            siblings=self._siblings(index),
            leaf_slots=slots,
        )

    def developer_lookup(self, name: str):
        """Developer lookup: the clear text of every co-located binding so
        spurious additions are visible (§B.2.1)."""
        path = self.prove(name) if name in self._names else None
        index = name_prefix(name, self.depth) if path is None \
            else path.leaf_index
        return path, [e[2] for e in self._leaves.get(index, ())]

    def prove_absence(self, name: str) -> AbsenceProof:
        if name in self._names:
            raise KeyError(f"{name!r} is present; no absence proof")
        index = name_prefix(name, self.depth)
        entries = self._leaves.get(index, [])
        return AbsenceProof(
            leaf_index=index,
            depth=self.depth,
            siblings=self._siblings(index),
            present_hashes=[e[1] for e in entries],
            empty_constant=self.empty_constant if not entries else None,
        )


def verify_path(root: bytes, name: str, code: bytes,
                path: AuthenticationPath) -> bool:
    """Recompute the root from a binding + path and compare (Figure 5)."""
    if path.leaf_index != name_prefix(name, path.depth):
        return False
    my_hash = H(binding_bytes(name, code))
    slots = [my_hash if s is None else s for s in path.leaf_slots]
    if my_hash not in slots:
        return False
    if len(slots) == 1:
        value = my_hash
    else:
        value = H(b"".join(slots))
    idx = path.leaf_index
    if len(path.siblings) != path.depth:
        return False
    for sibling in path.siblings:
        left, right = (value, sibling) if idx % 2 == 0 else (sibling, value)
        value = H(left + right)
        idx >>= 1
    return value == root


def verify_absence(root: bytes, name: str, proof: AbsenceProof) -> bool:
    """Check a proof of absence against a signed root."""
    if proof.leaf_index != name_prefix(name, proof.depth):
        return False
    if proof.present_hashes:
        if len(proof.present_hashes) == 1:
            value = proof.present_hashes[0]
        else:
            value = H(b"".join(proof.present_hashes))
    else:
        if proof.empty_constant is None:
            return False
        value = proof.empty_constant
    idx = proof.leaf_index
    for sibling in proof.siblings:
        left, right = (value, sibling) if idx % 2 == 0 else (sibling, value)
        value = H(left + right)
        idx >>= 1
    return value == root
