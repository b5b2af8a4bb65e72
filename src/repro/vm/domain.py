"""Abstract value domain: unsigned 64-bit intervals.

A value is approximated by an inclusive interval ``(lo, hi)`` with
``0 <= lo <= hi <= 2**64 - 1`` — the set of concrete register values it
may hold.  ``TOP`` is the full range.  Transfer functions are *sound*:
the concrete result of an operation on any members of the input
intervals is always contained in the abstract result; whenever a
modular operation could wrap, the result degrades to ``TOP`` rather
than guessing.

Because the PRE address space places the pluglet stack and the plugin
heap at disjoint constant bases (:mod:`repro.vm.interpreter`), plain
value intervals double as region information: an address interval that
fits entirely inside one region *proves* the access, with no need for a
separate points-to domain.

The binary transfer functions are the ``interval`` column of the ISA's
semantics table (:data:`repro.vm.isa.SEMANTICS`); this module imports
nothing, so the table can.
"""

from __future__ import annotations

from typing import Optional, Tuple

Interval = Tuple[int, int]

_LIMIT = (1 << 64) - 1
TOP: Interval = (0, _LIMIT)


def const(value: int) -> Interval:
    v = value & _LIMIT
    return (v, v)


def is_const(iv: Interval) -> Optional[int]:
    """The single concrete value, or None."""
    return iv[0] if iv[0] == iv[1] else None


def contains(iv: Interval, value: int) -> bool:
    return iv[0] <= value <= iv[1]


def join(a: Interval, b: Interval) -> Interval:
    """Least upper bound: the convex hull."""
    return (min(a[0], b[0]), max(a[1], b[1]))


def widen(old: Interval, new: Interval) -> Interval:
    """Classic interval widening: unstable bounds jump to the extreme."""
    lo = old[0] if new[0] >= old[0] else 0
    hi = old[1] if new[1] <= old[1] else _LIMIT
    return (lo, hi)


def add(a: Interval, b: Interval) -> Interval:
    c = is_const(b)
    if c is not None:
        return add_const(a, c)
    hi = a[1] + b[1]
    if hi > _LIMIT:  # may wrap
        return TOP
    return (a[0] + b[0], hi)


def add_const(a: Interval, c: int) -> Interval:
    """Modular addition of a constant — exact unless the interval
    straddles the wrap point."""
    c &= _LIMIT
    lo, hi = a[0] + c, a[1] + c
    if hi <= _LIMIT:
        return (lo, hi)
    if lo > _LIMIT:
        return (lo - (_LIMIT + 1), hi - (_LIMIT + 1))
    return TOP


def sub(a: Interval, b: Interval) -> Interval:
    c = is_const(b)
    if c is not None:
        return add_const(a, -c)
    if a[0] < b[1]:  # may wrap through zero
        return TOP
    return (a[0] - b[1], a[1] - b[0])


def mul(a: Interval, b: Interval) -> Interval:
    hi = a[1] * b[1]
    if hi > _LIMIT:
        return TOP
    return (a[0] * b[0], hi)


def div(a: Interval, b: Interval) -> Interval:
    """Unsigned floor division; a zero divisor faults at run time, so the
    abstract result only covers non-faulting executions."""
    lo_d = max(b[0], 1)
    hi_d = max(b[1], 1)
    return (a[0] // hi_d, a[1] // lo_d)


def mod(a: Interval, b: Interval) -> Interval:
    hi_d = max(b[1], 1)
    if a[1] < max(b[0], 1):  # x % m == x whenever x < m for all pairs
        return a
    return (0, hi_d - 1)


def and_(a: Interval, b: Interval) -> Interval:
    ca, cb = is_const(a), is_const(b)
    if ca is not None and cb is not None:
        return const(ca & cb)
    return (0, min(a[1], b[1]))


def or_(a: Interval, b: Interval) -> Interval:
    ca, cb = is_const(a), is_const(b)
    if ca is not None and cb is not None:
        return const(ca | cb)
    bits = max(a[1].bit_length(), b[1].bit_length())
    return (max(a[0], b[0]), (1 << bits) - 1 if bits else 0)


def xor(a: Interval, b: Interval) -> Interval:
    ca, cb = is_const(a), is_const(b)
    if ca is not None and cb is not None:
        return const(ca ^ cb)
    bits = max(a[1].bit_length(), b[1].bit_length())
    return (0, (1 << bits) - 1 if bits else 0)


def lsh(a: Interval, b: Interval) -> Interval:
    cb = is_const(b)
    if cb is None:
        return TOP
    k = cb & 63
    if a[1] << k > _LIMIT:
        return TOP
    return (a[0] << k, a[1] << k)


def rsh(a: Interval, b: Interval) -> Interval:
    cb = is_const(b)
    if cb is not None:
        k = cb & 63
        return (a[0] >> k, a[1] >> k)
    return (0, a[1])  # any right shift only shrinks an unsigned value


def arsh(a: Interval, b: Interval) -> Interval:
    if a[1] < 1 << 63:  # non-negative as signed: behaves like rsh
        return rsh(a, b)
    return TOP  # sign extension can produce huge unsigned values


def neg(a: Interval) -> Interval:
    c = is_const(a)
    if c is not None:
        return const(-c)
    return TOP


def mov(_a: Interval, b: Interval) -> Interval:
    return b
