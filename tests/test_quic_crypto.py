"""Tests for the simulated packet protection and key schedule."""

import hashlib
import hmac
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.quic.crypto import (
    INITIAL_SALT,
    TAG_LENGTH,
    AeadContext,
    HmacKey,
    initial_crypto_pair,
    one_rtt_crypto_pair,
    random_bytes,
    session_secret,
)
from repro.errors import CryptoError

KEY = b"k" * 32


def test_seal_open_roundtrip():
    aead = AeadContext(KEY)
    header, payload = b"hdr", b"payload bytes"
    wire = aead.seal(7, header, payload)
    assert len(wire) == len(payload) + TAG_LENGTH
    assert aead.open(7, header, wire) == payload


def test_ciphertext_differs_from_plaintext():
    aead = AeadContext(KEY)
    payload = b"secret" * 10
    wire = aead.seal(0, b"h", payload)
    assert payload not in wire


def test_tampered_payload_rejected():
    aead = AeadContext(KEY)
    wire = bytearray(aead.seal(1, b"h", b"data"))
    wire[0] ^= 0xFF
    with pytest.raises(CryptoError):
        aead.open(1, b"h", bytes(wire))


def test_tampered_header_rejected():
    aead = AeadContext(KEY)
    wire = aead.seal(1, b"header", b"data")
    with pytest.raises(CryptoError):
        aead.open(1, b"HEADER", wire)


def test_wrong_packet_number_rejected():
    aead = AeadContext(KEY)
    wire = aead.seal(1, b"h", b"data")
    with pytest.raises(CryptoError):
        aead.open(2, b"h", wire)


def test_wrong_key_rejected():
    wire = AeadContext(KEY).seal(1, b"h", b"data")
    with pytest.raises(CryptoError):
        AeadContext(b"x" * 32).open(1, b"h", wire)


def test_short_ciphertext_rejected():
    aead = AeadContext(KEY)
    with pytest.raises(CryptoError):
        aead.open(0, b"h", b"short")


def test_key_length_validated():
    with pytest.raises(ValueError):
        AeadContext(b"short")


def test_initial_pairs_are_complementary():
    dcid = b"\x01" * 8
    client = initial_crypto_pair(dcid, is_client=True)
    server = initial_crypto_pair(dcid, is_client=False)
    wire = client.send.seal(0, b"h", b"client hello")
    assert server.recv.open(0, b"h", wire) == b"client hello"
    wire2 = server.send.seal(0, b"h", b"server hello")
    assert client.recv.open(0, b"h", wire2) == b"server hello"


def test_initial_keys_depend_on_dcid():
    a = initial_crypto_pair(b"\x01" * 8, True)
    b = initial_crypto_pair(b"\x02" * 8, True)
    assert a.send.key != b.send.key


def test_session_secret_symmetric_given_role_order():
    cs, ss = b"c" * 32, b"s" * 32
    assert session_secret(cs, ss) == session_secret(cs, ss)
    assert session_secret(cs, ss) != session_secret(ss, cs)


def test_one_rtt_pairs_complementary():
    secret = session_secret(b"c" * 32, b"s" * 32)
    client = one_rtt_crypto_pair(secret, True)
    server = one_rtt_crypto_pair(secret, False)
    wire = client.send.seal(42, b"hdr", b"app data")
    assert server.recv.open(42, b"hdr", wire) == b"app data"


def test_one_rtt_keys_differ_per_direction():
    secret = session_secret(b"c" * 32, b"s" * 32)
    pair = one_rtt_crypto_pair(secret, True)
    assert pair.send.key != pair.recv.key


@given(st.binary(max_size=2000), st.integers(0, 2**32 - 1))
def test_roundtrip_property(payload, pn):
    aead = AeadContext(KEY)
    assert aead.open(pn, b"h", aead.seal(pn, b"h", payload)) == payload


def test_random_bytes_draws_exactly_what_randrange_draws():
    """Connection IDs and key shares feed the goldens: the helper must
    leave each generator where ``randrange(256)`` per byte leaves it, on
    the running interpreter."""
    for seed in range(1000):
        n = seed % 41
        ours, theirs = random.Random(seed), random.Random(seed)
        assert random_bytes(ours, n) == bytes(
            theirs.randrange(256) for _ in range(n))
        assert ours.getstate() == theirs.getstate()


@given(key=st.binary(max_size=200), message=st.binary(max_size=300))
@example(key=b"k" * 64, message=b"")
@example(key=b"k" * 65, message=b"m")
def test_hmac_from_kept_pads_is_hmac(key, message):
    mac = HmacKey(key)
    expected = hmac.new(key, message, hashlib.sha256).digest()
    assert mac.digest(message) == expected
    assert mac.digest(message) == expected  # the pads are not consumed


def test_the_key_schedule_derives_the_hmac_keys():
    def mac(key, message):
        return hmac.new(key, message, hashlib.sha256).digest()

    dcid = bytes(range(8))
    secret = mac(INITIAL_SALT, dcid)
    client = initial_crypto_pair(dcid, is_client=True)
    assert client.send.key == mac(secret, b"pquic client initial")
    assert client.recv.key == mac(secret, b"pquic server initial")
    server = one_rtt_crypto_pair(b"s" * 32, is_client=False)
    assert server.send.key == mac(b"s" * 32, b"pquic server 1rtt")
    assert server.recv.key == mac(b"s" * 32, b"pquic client 1rtt")
