"""Appendix B.3: efficiency of the plugin management system.

Claims reproduced:

* checking a proof of consistency is Θ(log n + α) hash computations —
  essentially flat as the number of plugins grows;
* the bandwidth (authentication-path size) grows as Θ(λ(log n + α));
* building the full tree, which a PV does once per epoch, stays cheap
  ("the binary tree can be computed within a few seconds for millions of
  entries" — we measure tens of thousands);
* each hash is computed once: a lookup after the tree is built hashes
  nothing, and a second tree of one depth derives no empty-subtree hash
  (counted, not timed).
"""

import time

import pytest

import repro.secure.merkle as merkle
from repro.secure.merkle import MerklePrefixTree, verify_path

from _util import FULL, print_table, write_rows

SIZES = [256, 1024, 4096, 16384] + ([65536] if FULL else [])


def build_tree(n, depth=20):
    tree = MerklePrefixTree(depth=depth)
    for i in range(n):
        tree.insert(f"plugin-{i:06d}", b"C" * 64)
    return tree


def counting(monkeypatch) -> list:
    """Count ``merkle.H`` calls from here on: ``[calls]``."""
    seen = [0]
    real = merkle.H

    def counted(data):
        seen[0] += 1
        return real(data)

    monkeypatch.setattr(merkle, "H", counted)
    return seen


def test_proof_scaling(benchmark):
    rows = []
    verify_times = []
    path_sizes = []
    for n in SIZES:
        tree = build_tree(n)
        t0 = time.perf_counter()
        root = tree.root()
        build_time = time.perf_counter() - t0

        with pytest.MonkeyPatch.context() as patch:
            hashes = counting(patch)
            t0 = time.perf_counter()
            path = tree.prove("plugin-000000")
            prove_time = time.perf_counter() - t0
        assert hashes == [0]  # the lookup reads the levels root() folded

        t0 = time.perf_counter()
        for _ in range(50):
            assert verify_path(root, "plugin-000000", b"C" * 64, path)
        verify_time = (time.perf_counter() - t0) / 50

        rows.append(
            f"n={n:>6}  tree build={build_time * 1000:8.1f} ms  "
            f"prove={prove_time * 1000:7.1f} ms  "
            f"verify={verify_time * 1e6:7.1f} us  "
            f"path={path.size_bytes():>5} B"
        )
        verify_times.append(verify_time)
        path_sizes.append(path.size_bytes())

    header = "Merkle prefix tree proof-of-consistency scaling"
    print_table("Appendix B.3", header, rows)
    write_rows("appendixB_merkle", header, rows)

    benchmark.pedantic(
        lambda: verify_path(_BENCH_ROOT, "plugin-000000", b"C" * 64,
                            _BENCH_PATH),
        rounds=5, iterations=10,
    )

    # Verification cost must be ~flat (Θ(log n + α) with fixed depth).
    assert verify_times[-1] < 10 * verify_times[0]
    # Path size grows sub-linearly: 64x more plugins, < 4x more bytes.
    assert path_sizes[-1] < 4 * path_sizes[0]


def test_a_second_tree_derives_no_empty_subtree_hash(monkeypatch):
    MerklePrefixTree(depth=20)
    hashes = counting(monkeypatch)
    tree = MerklePrefixTree(depth=20)
    assert hashes[0] == 0
    tree.insert("plugin-000000", b"C" * 64)
    tree.root()
    assert hashes[0] == 2 + 20  # name prefix, binding, one hash per level


_BENCH_TREE = build_tree(256)
_BENCH_ROOT = _BENCH_TREE.root()
_BENCH_PATH = _BENCH_TREE.prove("plugin-000000")


def test_epoch_rebuild_cost(benchmark):
    """A PV rebuilds its tree each epoch; must stay fast."""
    def rebuild():
        return build_tree(2048).root()

    result = benchmark.pedantic(rebuild, rounds=2, iterations=1)
    assert result is not None
