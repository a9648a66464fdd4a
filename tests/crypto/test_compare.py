"""Unit tests for the §VII-E comparison harness (scheme mechanics)."""

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.crypto.compare import (
    EncryptedWholeFileStore,
    PartialEncryptedDistributor,
    fragmentation_point_query,
    partial_encryption_point_query,
)
from repro.crypto.feistel import FeistelCipher
from repro.crypto.stream import StreamCipher
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.workloads.files import random_bytes


@pytest.fixture
def fleet():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(5)
    ]
    return build_simulated_fleet(specs, seed=501)


def test_whole_file_store_roundtrip(fleet):
    registry, _, clock = fleet
    store = EncryptedWholeFileStore(registry, "P0", b"key", clock)
    payload = random_bytes(64 * 1024, seed=1)
    store.put("db", payload)
    # Ciphertext at the provider differs from plaintext.
    assert registry.get("P0").provider.get("enc:db") != payload
    got, cost = store.point_query("db", 1000, 256)
    assert got == payload[1000:1256]
    assert cost.bytes_transferred == len(payload)
    assert cost.bytes_decrypted == len(payload)
    assert cost.scheme == "whole-file-encryption"


def test_whole_file_decrypt_charged_to_clock(fleet):
    registry, _, clock = fleet
    store = EncryptedWholeFileStore(registry, "P0", b"key", clock)
    payload = random_bytes(10 * 1024 * 1024, seed=2)
    store.put("db", payload)
    t0 = clock.now
    store.point_query("db", 0, 16)
    elapsed = clock.now - t0
    # At least the decrypt charge: 10 MiB / 100 MiB/s = 0.1 s.
    assert elapsed > len(payload) / store.DECRYPT_THROUGHPUT


def test_whole_file_store_custom_cipher(fleet):
    registry, _, clock = fleet
    store = EncryptedWholeFileStore(
        registry, "P1", b"key", clock, cipher_cls=FeistelCipher
    )
    payload = b"feistel-protected payload " * 10
    store.put("f", payload)
    got, _ = store.point_query("f", 5, 20)
    assert got == payload[5:25]


def _fragmented(registry, chunk_size=1024):
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(chunk_size),
        codec="raid5@4",
        seed=502,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return d


def test_fragmentation_point_query_cost(fleet):
    registry, _, clock = fleet
    d = _fragmented(registry)
    payload = random_bytes(8 * 1024, seed=3)
    d.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)
    got, cost = fragmentation_point_query(d, clock, "C", "pw", "f", 3)
    assert got == payload[3 * 1024 : 4 * 1024]
    assert cost.bytes_transferred == 1024
    assert cost.bytes_decrypted == 0
    assert cost.cpu_time_s == 0.0
    assert cost.sim_time_s > 0


def test_partial_encryption_roundtrip_every_chunk(fleet):
    registry, _, clock = fleet
    inner = _fragmented(registry)
    wrapped = PartialEncryptedDistributor(inner, b"chunk-key")
    payload = random_bytes(4 * 1024, seed=4)
    wrapped.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)
    # Providers hold ciphertext shards, never plaintext fragments.
    for entry in registry.all():
        for key in entry.provider.keys():
            blob = entry.provider.get(key)
            assert blob not in payload
    for serial in range(4):
        got, cost = partial_encryption_point_query(
            wrapped, clock, "C", "pw", "f", serial
        )
        assert got == payload[serial * 1024 : (serial + 1) * 1024]
        assert cost.bytes_decrypted == 1024


def test_partial_encryption_stream_cipher(fleet):
    registry, _, clock = fleet
    inner = _fragmented(registry)
    wrapped = PartialEncryptedDistributor(inner, b"k", cipher_cls=StreamCipher)
    payload = random_bytes(2 * 1024, seed=5)
    wrapped.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)
    got, _ = partial_encryption_point_query(wrapped, clock, "C", "pw", "f", 1)
    assert got == payload[1024:]
