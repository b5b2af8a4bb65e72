"""Erasure-correcting codes for the FEC plugin (§4.4).

Two ECCs, as in the paper:

* **XOR** — "A XOR RS is generated by doing an XOR operation between all
  the packets in the encoding window.  It is thus simple to compute [...]
  It can however only recover from the loss of a single packet."
* **RLC** — "A RLC RS is generated by computing a linear combination with
  randomly chosen coefficients between all the packets of the encoding
  window [...] this code can generate multiple Repair Symbols for the
  same set of Source Symbols."

Both are expressed over GF(256); recovery solves the linear system whose
unknowns are the lost packets (Gaussian elimination).  Symbols carry a
two-byte length prefix so variable-size packets round-trip exactly.

Symbols are numpy arrays, and numpy is imported by the first symbol
operation, not with the module: a process that declares the plugin but
never codes a symbol does not load it.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

# --- GF(256) arithmetic (AES polynomial 0x11B, generator 3) -------------

_EXP = [0] * 512
_LOG = [0] * 256


def _init_tables() -> None:
    x = 1
    for i in range(255):
        _EXP[i] = x
        _LOG[x] = i
        # Multiply by the generator 3 (= x + 1): 2 generates only a
        # subgroup of order 51 under the AES polynomial.
        x ^= (x << 1)
        if x & 0x100:
            x ^= 0x11B
    for i in range(255, 512):
        _EXP[i] = _EXP[i - 255]


_init_tables()

_vector = None


def _numpy():
    """``(numpy, exp table, log table)``, the tables as arrays for the
    vectorized symbol operations; imported on first use."""
    global _vector
    if _vector is None:
        import numpy

        _vector = (numpy, numpy.array(_EXP, dtype=numpy.uint8),
                   numpy.array(_LOG, dtype=numpy.int32))
    return _vector


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(256)")
    return _EXP[255 - _LOG[a]]


def gf_div(a: int, b: int) -> int:
    return gf_mul(a, gf_inv(b))


def symbol_scale(symbol: np.ndarray, coeff: int) -> np.ndarray:
    """coeff × symbol, element-wise over GF(256) (vectorized)."""
    np, exp, log = _numpy()
    if coeff == 0:
        return np.zeros_like(symbol)
    if coeff == 1:
        return symbol.copy()
    logs = log[symbol] + log[coeff]
    out = exp[logs].astype(np.uint8)
    out[symbol == 0] = 0
    return out


def symbol_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Addition in GF(256) is XOR."""
    return _numpy()[0].bitwise_xor(a, b)


def symbol_addmul(acc: np.ndarray, symbol: np.ndarray, coeff: int) -> np.ndarray:
    """acc += coeff × symbol."""
    return symbol_add(acc, symbol_scale(symbol, coeff))


# --- symbols --------------------------------------------------------------


def pack_symbol(payload: bytes, width: int) -> np.ndarray:
    """Length-prefixed, zero-padded representation of one source packet."""
    if len(payload) + 2 > width:
        raise ValueError(f"payload of {len(payload)} bytes exceeds width {width}")
    np = _numpy()[0]
    out = np.zeros(width, dtype=np.uint8)
    out[0] = len(payload) >> 8
    out[1] = len(payload) & 0xFF
    out[2:2 + len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    return out


def unpack_symbol(symbol: np.ndarray) -> bytes:
    length = (int(symbol[0]) << 8) | int(symbol[1])
    length = min(length, len(symbol) - 2)
    return bytes(symbol[2:2 + length].tobytes())


def symbol_width(payloads: Sequence[bytes]) -> int:
    return max(len(p) for p in payloads) + 2


# --- erasure codes ----------------------------------------------------------


class ErasureCode:
    """Interface: coefficient generation + shared recovery solver."""

    name = "abstract"
    #: Repair symbols producible per window.
    max_repair = 1

    def coefficients(self, window_size: int, rs_index: int, seed: int) -> list:
        raise NotImplementedError

    def encode(self, payloads: Sequence[bytes], rs_index: int, seed: int) -> bytes:
        """Build one repair symbol over the window."""
        width = symbol_width(payloads)
        coeffs = self.coefficients(len(payloads), rs_index, seed)
        np = _numpy()[0]
        acc = np.zeros(width, dtype=np.uint8)
        for coeff, payload in zip(coeffs, payloads):
            acc = symbol_addmul(acc, pack_symbol(payload, width), coeff)
        return acc.tobytes()

    def recover(
        self,
        window: Sequence[Optional[bytes]],
        repairs: Sequence[tuple],
        seed: int,
    ) -> Optional[list]:
        """Solve for the missing packets.

        ``window``: one entry per source symbol, None where lost.
        ``repairs``: list of (rs_index, repair_bytes).

        Returns the filled-in window, or None if the system is not
        solvable ("its recovery process, i.e. solving a system of linear
        equations whose unknowns are the lost packets").
        """
        missing = [i for i, p in enumerate(window) if p is None]
        if not missing:
            return list(window)
        if not repairs or len(repairs) < len(missing):
            return None
        width = len(repairs[0][1])
        np = _numpy()[0]
        # Subtract the received symbols' contribution from each repair.
        rows = []
        rhs = []
        for rs_index, repair in repairs:
            coeffs = self.coefficients(len(window), rs_index, seed)
            acc = np.frombuffer(repair, dtype=np.uint8).copy()
            if len(acc) != width:
                return None
            for i, payload in enumerate(window):
                if payload is None:
                    continue
                if len(payload) + 2 > width:
                    return None
                acc = symbol_add(acc, symbol_scale(pack_symbol(payload, width),
                                                   coeffs[i]))
            rows.append([coeffs[i] for i in missing])
            rhs.append(acc)
        solution = _solve_gf256(rows, rhs, len(missing))
        if solution is None:
            return None
        out = list(window)
        for column, sym in zip(missing, solution):
            out[column] = unpack_symbol(sym)
        return out


def _solve_gf256(rows: list, rhs: list, unknowns: int) -> Optional[list]:
    """Gaussian elimination over GF(256) with vector right-hand sides."""
    m = len(rows)
    a = [list(r) for r in rows]
    b = [r.copy() for r in rhs]
    row = 0
    pivots = []
    for col in range(unknowns):
        pivot = next((r for r in range(row, m) if a[r][col] != 0), None)
        if pivot is None:
            return None  # rank-deficient: unrecoverable
        a[row], a[pivot] = a[pivot], a[row]
        b[row], b[pivot] = b[pivot], b[row]
        inv = gf_inv(a[row][col])
        a[row] = [gf_mul(v, inv) for v in a[row]]
        b[row] = symbol_scale(b[row], inv)
        for r in range(m):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v ^ gf_mul(factor, w) for v, w in zip(a[r], a[row])]
                b[r] = symbol_add(b[r], symbol_scale(b[row], factor))
        pivots.append(row)
        row += 1
        if row == m and col + 1 < unknowns:
            return None
    return [b[p] for p in pivots]


class XorCode(ErasureCode):
    """All-ones coefficients: one repair symbol, single-loss recovery."""

    name = "xor"
    max_repair = 1

    def coefficients(self, window_size: int, rs_index: int, seed: int) -> list:
        return [1] * window_size


class RlcCode(ErasureCode):
    """Random linear code: seeded random nonzero coefficients."""

    name = "rlc"
    max_repair = 255

    def coefficients(self, window_size: int, rs_index: int, seed: int) -> list:
        rng = random.Random((seed << 16) ^ rs_index)
        if rs_index == 0:
            # First repair symbol is systematic-friendly (all ones), so a
            # single loss is recoverable as cheaply as with XOR.
            return [1] * window_size
        return [1 + rng.randrange(255) for _ in range(window_size)]


CODES = {"xor": XorCode(), "rlc": RlcCode()}
