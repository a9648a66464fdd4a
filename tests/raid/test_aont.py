"""All-or-nothing transform: roundtrip, randomization, and leak resistance."""

import os

import pytest

from repro.raid.aont import AONT_OVERHEAD, aont_unwrap, aont_wrap


@pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 256, 4096, 10_001])
def test_wrap_unwrap_roundtrip(size):
    payload = os.urandom(size)
    package = aont_wrap(payload)
    assert len(package) == size + AONT_OVERHEAD
    assert aont_unwrap(package) == payload


def test_wrap_is_randomized():
    # Equal payloads must not produce equal packages: a provider seeing
    # two identical shards could otherwise link identical chunks.
    payload = b"same bytes every time" * 10
    a, b = aont_wrap(payload), aont_wrap(payload)
    assert a != b
    assert aont_unwrap(a) == aont_unwrap(b) == payload


def test_ciphertext_differs_from_plaintext():
    payload = os.urandom(2048)
    package = aont_wrap(payload)
    ciphertext = package[:-AONT_OVERHEAD]
    assert ciphertext != payload
    # No long plaintext run survives in the ciphertext.
    for offset in range(0, len(payload) - 16, 128):
        assert payload[offset : offset + 16] not in package


def test_partial_package_recovers_nothing_directly():
    # Dropping a single byte breaks the mask digest, so unwrap of a
    # truncated-then-padded package yields garbage, not a prefix of the
    # plaintext.
    payload = os.urandom(1024)
    package = aont_wrap(payload)
    # Flip a bit; overwriting with a constant leaves 1 package in 256 intact.
    tampered = package[:100] + bytes([package[100] ^ 1]) + package[101:]
    recovered = aont_unwrap(tampered)
    assert recovered != payload
    # All-or-nothing: even bytes whose ciphertext was untouched decode
    # wrong, because the keystream depends on the (now wrong) key.
    assert recovered[200:300] != payload[200:300]


def test_unwrap_rejects_short_package():
    with pytest.raises(ValueError):
        aont_unwrap(b"\x00" * (AONT_OVERHEAD - 1))


def test_empty_payload_package_is_just_the_masked_key():
    package = aont_wrap(b"")
    assert len(package) == AONT_OVERHEAD
    assert aont_unwrap(package) == b""
