"""Stateless reset (RFC 9000 §10.3).

An endpoint that lost its per-connection state (crash, reboot) cannot
decrypt incoming short-header packets, but it can still terminate the
orphaned connection: it answers with a datagram that is indistinguishable
from a regular packet except for a 16-byte token in its tail.  The peer
recognises the token — learned through transport parameters or
NEW_CONNECTION_ID frames — and enters DRAINING.

Tokens are derived from a static per-endpoint key and the connection ID,
so a rebooted endpoint regenerates exactly the tokens it advertised
before losing state — the property the whole mechanism rests on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

from .crypto import random_bytes

RESET_TOKEN_LENGTH = 16
#: §10.3: 5 bytes that mimic a short header + the 16-byte token.
MIN_STATELESS_RESET_SIZE = 21
#: Upper bound on generated resets; mimicking larger packets buys nothing.
MAX_STATELESS_RESET_SIZE = 64

_DERIVE_LABEL = b"repro stateless_reset"


def stateless_reset_token(key: bytes, cid: bytes) -> bytes:
    """The reset token an endpoint holding ``key`` uses for ``cid``.

    A keyed SHA-256 over the connection ID (the static-key-plus-CID
    construction §10.3.2 suggests), truncated to 16 bytes."""
    digest = hashlib.sha256(_DERIVE_LABEL + key + cid).digest()
    return digest[:RESET_TOKEN_LENGTH]


def build_stateless_reset(token: bytes, rng: random.Random,
                          trigger_size: int) -> Optional[bytes]:
    """A reset datagram answering a ``trigger_size``-byte datagram.

    Looks like a short-header packet with random payload and ends in the
    token.  It must be strictly smaller than the trigger (§10.3.3 —
    otherwise two stateless endpoints could ping-pong resets forever), so
    triggers of up to ``MIN_STATELESS_RESET_SIZE`` bytes go unanswered."""
    size = min(trigger_size - 1, MAX_STATELESS_RESET_SIZE)
    if size < MIN_STATELESS_RESET_SIZE:
        return None
    head = bytes([0x40 | rng.randrange(0x40)])  # fixed bit, short header
    filler = random_bytes(rng, size - 1 - RESET_TOKEN_LENGTH)
    return head + filler + token


def is_stateless_reset(data: bytes, tokens) -> bool:
    """Whether ``data`` ends in one of ``tokens``.

    Checked only for datagrams that failed normal processing, as §10.3.1
    requires — a decryptable packet is never treated as a reset."""
    if len(data) < MIN_STATELESS_RESET_SIZE or not tokens:
        return False
    if data[0] & 0x80:  # long header form bit: never a stateless reset
        return False
    return data[-RESET_TOKEN_LENGTH:] in tokens
