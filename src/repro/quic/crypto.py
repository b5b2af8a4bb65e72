"""Simulated packet protection and key schedule.

The real PQUIC uses TLS 1.3 (picotls).  Inside the simulator we substitute
a deterministic construction that preserves the properties the paper relies
on: payloads and most header bits are opaque to on-path observers, packets
are integrity-protected (any tamper is detected and the packet dropped),
and keys are derived per-connection and per-epoch.

Construction (NOT cryptographically secure against an active attacker who
sees the handshake — it is a simulation substrate, documented in DESIGN.md):

* keystream: SHA-256(key || nonce || counter) blocks XORed over the payload;
* tag: first 16 bytes of SHA-256(key || nonce || header || plaintext);
* initial secrets derived from the client's destination connection ID, as
  in QUIC, so both endpoints can protect Initial packets before key
  agreement completes;
* 1-RTT secrets derived from both endpoints' random key shares exchanged in
  CRYPTO frames.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from typing import Optional

from repro.errors import CryptoError

TAG_LENGTH = 16
INITIAL_SALT = b"pquic-repro-initial-salt"


def random_bytes(rng: random.Random, n: int) -> bytes:
    """``n`` bytes drawn from ``rng``: exactly those of
    ``bytes(rng.randrange(256) for _ in range(n))`` — the same 9-bit
    ``getrandbits`` rejection loop ``randrange`` runs per byte — without
    its per-byte calls.  Connection IDs, key shares and challenge tokens
    feed the goldens, so the draw may not change."""
    getrandbits = rng.getrandbits
    out = bytearray()
    while len(out) < n:
        r = getrandbits(9)
        if r < 256:
            out.append(r)
    return bytes(out)


def _hash(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(4, "big"))
        h.update(p)
    return h.digest()


_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class HmacKey:
    """HMAC-SHA256 under one key (RFC 2104), its inner and outer pad
    states hashed once: :meth:`digest` copies them, skipping the two pad
    hashes ``hmac.new(key, message, hashlib.sha256)`` makes per call, and
    returns its bytes.  Used for the key schedule here and for the PVs'
    signatures (:mod:`repro.secure.signing`)."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        if len(key) > 64:  # SHA-256's block size
            key = hashlib.sha256(key).digest()
        key = key.ljust(64, b"\0")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def digest(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Expand one hash block to ``length`` bytes.

    A real AEAD derives every block independently; repeating a single
    per-packet block keeps payloads opaque to the simulated network while
    making packet protection cheap enough for large-scale experiments."""
    block = _hash(key, nonce)
    reps = length // len(block) + 1
    return (block * reps)[:length]


def _xor(data: bytes, keystream: bytes) -> bytes:
    n = int.from_bytes(data, "big") ^ int.from_bytes(keystream[: len(data)], "big")
    return n.to_bytes(len(data), "big")


_NONCE_LEN_PREFIX = (8).to_bytes(4, "big")

#: Keystream blocks cached per (context, nonce); bounded so a long-lived
#: connection cannot grow without limit (cleared wholesale when full).
_BLOCK_CACHE_LIMIT = 1024


class AeadContext:
    """Seals/opens packet payloads for one direction of one epoch.

    Fast path: the SHA-256 state over the (length-prefixed) key is computed
    once per context and ``copy()``-ed per packet, so the per-packet work
    feeds only the nonce — and the same nonce state then continues into the
    tag computation, sharing the prefix between keystream and tag.  The
    resulting bytes are identical to ``_keystream``/``_hash``.
    """

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise ValueError("key too short")
        self.key = key
        state = hashlib.sha256()
        state.update(len(key).to_bytes(4, "big"))
        state.update(key)
        self._key_state = state
        self._block_cache: dict = {}  # nonce -> 32-byte keystream block

    def _nonce(self, packet_number: int) -> bytes:
        return packet_number.to_bytes(8, "big")

    def _nonce_state(self, nonce: bytes):
        state = self._key_state.copy()
        state.update(_NONCE_LEN_PREFIX)
        state.update(nonce)
        return state

    def _block(self, nonce: bytes, state) -> bytes:
        block = self._block_cache.get(nonce)
        if block is None:
            if len(self._block_cache) >= _BLOCK_CACHE_LIMIT:
                self._block_cache.clear()
            block = state.digest()  # == _hash(key, nonce)
            self._block_cache[nonce] = block
        return block

    def _tag(self, state, header: bytes, plaintext: bytes) -> bytes:
        state.update(len(header).to_bytes(4, "big"))
        state.update(header)
        state.update(len(plaintext).to_bytes(4, "big"))
        state.update(plaintext)
        return state.digest()[:TAG_LENGTH]

    def seal(self, packet_number: int, header: bytes, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext``, authenticating ``header`` as AD."""
        nonce = self._nonce(packet_number)
        state = self._nonce_state(nonce)
        block = self._block(nonce, state)
        length = len(plaintext)
        keystream = block if length <= len(block) \
            else block * (length // len(block) + 1)
        cipher = _xor(plaintext, keystream)
        return cipher + self._tag(state, header, plaintext)

    def seal_into(self, out: bytearray, packet_number: int,
                  header: bytes, plaintext: bytes) -> None:
        """Scatter-gather variant of :meth:`seal`: append the complete
        protected packet (header ‖ ciphertext ‖ tag) into ``out``.

        ``header`` and ``plaintext`` may be any buffer (bytes, bytearray,
        memoryview); nothing is concatenated per packet — the pooled
        datagram buffer receives the pieces directly, and the bytes are
        identical to ``header + seal(...)``.
        """
        nonce = self._nonce(packet_number)
        state = self._nonce_state(nonce)
        block = self._block(nonce, state)
        length = len(plaintext)
        keystream = block if length <= len(block) \
            else block * (length // len(block) + 1)
        out += header
        out += _xor(plaintext, keystream)
        out += self._tag(state, header, plaintext)

    def open(self, packet_number: int, header: bytes, ciphertext: bytes) -> bytes:
        """Decrypt and verify; raises CryptoError on any mismatch."""
        if len(ciphertext) < TAG_LENGTH:
            raise CryptoError("ciphertext shorter than tag")
        nonce = self._nonce(packet_number)
        cipher, tag = ciphertext[:-TAG_LENGTH], ciphertext[-TAG_LENGTH:]
        state = self._nonce_state(nonce)
        block = self._block(nonce, state)
        length = len(cipher)
        keystream = block if length <= len(block) \
            else block * (length // len(block) + 1)
        plaintext = _xor(cipher, keystream)
        expected = self._tag(state, header, plaintext)
        if not hmac.compare_digest(tag, expected):
            raise CryptoError("AEAD tag mismatch")
        return plaintext


class CryptoPair:
    """The (send, receive) AEAD contexts for one packet-number space."""

    def __init__(self, send_key: bytes, recv_key: bytes):
        self.send = AeadContext(send_key)
        self.recv = AeadContext(recv_key)


_INITIAL_SALT = HmacKey(INITIAL_SALT)


def _crypto_pair(secret: HmacKey, stage: bytes, is_client: bool) -> CryptoPair:
    """The pair of ``stage``'s keys, each derived from ``secret`` for its
    label (an HKDF-expand analogue)."""
    client_key = secret.digest(b"pquic client " + stage)
    server_key = secret.digest(b"pquic server " + stage)
    if is_client:
        return CryptoPair(client_key, server_key)
    return CryptoPair(server_key, client_key)


def initial_crypto_pair(destination_cid: bytes, is_client: bool) -> CryptoPair:
    """Initial keys derived from the client's first destination CID."""
    return _crypto_pair(HmacKey(_INITIAL_SALT.digest(destination_cid)),
                        b"initial", is_client)


def session_secret(client_share: bytes, server_share: bytes) -> bytes:
    """Combine the two key shares into the 1-RTT master secret.

    Both sides see both shares after the handshake, so both compute the
    same secret.  (A real deployment uses an actual key agreement; the
    plugins never see these keys either way — §2.3, footnote 4.)
    """
    return _hash(b"session", client_share, server_share)


def one_rtt_crypto_pair(secret: bytes, is_client: bool) -> CryptoPair:
    return _crypto_pair(HmacKey(secret), b"1rtt", is_client)
