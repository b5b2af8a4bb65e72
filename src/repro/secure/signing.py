"""Digital signatures for Signed Tree Roots — simulation substitute.

The paper's PVs digitally sign their Merkle roots (§3.3).  Real
deployments use an asymmetric scheme; offline we substitute a keyed-hash
construction with a simulated PKI: the Plugin Repository publishes each
PV's public key ("the PR where its public-key information is available for
all participants"), and verification resolves the public key through that
directory.  The security properties exercised by the tests — a signature
binds a specific message to a specific key, tampering is detected, and a
party without the private key cannot produce a valid signature — hold
within the simulation.

A signature is HMAC-SHA256 under the private key, made from the key's
pad states hashed once (:class:`~repro.quic.crypto.HmacKey`): the key
and its directory entry hold them, so a signature or a check hashes the
message and two blocks, nothing of the key.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from typing import Optional

from repro.quic.crypto import HmacKey

#: public key -> the private key's HMAC pads (simulated PKI).
_DIRECTORY: dict[bytes, HmacKey] = {}


class KeyPair:
    """A signing keypair registered with the simulated PKI."""

    def __init__(self, private: bytes):
        self.private = private
        self.public = hashlib.sha256(b"pub" + private).digest()
        self._mac = _DIRECTORY[self.public] = HmacKey(private)

    @classmethod
    def generate(cls, seed: Optional[int] = None) -> "KeyPair":
        if seed is None:
            private = os.urandom(32)
        else:
            private = hashlib.sha256(b"seed" + seed.to_bytes(8, "big")).digest()
        return cls(private)

    def sign(self, message: bytes) -> bytes:
        return self._mac.digest(message)


def verify_signature(public: bytes, message: bytes, signature: bytes) -> bool:
    """Verify through the simulated PKI directory."""
    mac = _DIRECTORY.get(public)
    if mac is None:
        return False
    return hmac.compare_digest(mac.digest(message), signature)
