"""A caller who cannot authenticate learns nothing from the tables.

Every request that names a stored file checks the password *before* it
looks the file up, so a wrong password gets ``AuthenticationError`` (and
an unknown client ``UnknownClientError``) whether or not the file exists,
at the same cost: one PBKDF2 scan.  Before, the lookup came first and a
wrong password was told ``UnknownFileError`` -- faster, with no PBKDF2 --
for exactly the files that do not exist.
"""

from __future__ import annotations

import pytest

from repro.core.audit import AuditLog
from repro.core.distributor import CloudDataDistributor
from repro.core.errors import (
    AuthenticationError,
    AuthorizationError,
    UnknownChunkError,
    UnknownClientError,
    UnknownFileError,
)
from repro.core.privacy import PrivacyLevel

from tests.fleet.conftest import add_tenants, make_base_registry, make_gateway

DATA = bytes(range(256)) * 32  # 8 KiB

#: name -> call(distributor, client, password, filename); every entry
#: point that takes ⟨client, password, filename⟩.
ENTRY_POINTS = {
    "get_file": lambda d, c, pw, f: d.get_file(c, pw, f),
    "get_chunk": lambda d, c, pw, f: d.get_chunk(c, pw, f, 0),
    "get_stream": lambda d, c, pw, f: list(d.get_stream(c, pw, f)),
    "update_chunk": lambda d, c, pw, f: d.update_chunk(c, pw, f, 0, b"new"),
    "remove_file": lambda d, c, pw, f: d.remove_file(c, pw, f),
    "remove_chunk": lambda d, c, pw, f: d.remove_chunk(c, pw, f, 0),
    "get_snapshot": lambda d, c, pw, f: d.get_snapshot(c, pw, f, 0),
    "repair_file": lambda d, c, pw, f: d.repair_file(c, pw, f),
}
GATEWAY_ENTRY_POINTS = {
    "get_file": lambda g, t, pw, f: g.get_file(t, pw, f),
    "update_chunk": lambda g, t, pw, f: g.update_chunk(t, pw, f, 0, b"new"),
    "remove_file": lambda g, t, pw, f: g.remove_file(t, pw, f),
}


@pytest.fixture
def stack():
    log = AuditLog()
    d = CloudDataDistributor(make_base_registry(), seed=5, audit=log)
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    d.upload_file("C", "pw", "stored", DATA, PrivacyLevel.MODERATE)
    yield d, log
    d.close()


@pytest.fixture
def fleet():
    gateway = make_gateway(make_base_registry())
    add_tenants(gateway)
    gateway.upload_file("alice", "pw-a", "stored", DATA, PrivacyLevel.MODERATE)
    yield gateway
    gateway.close()


@pytest.mark.parametrize("filename", ["stored", "never-stored"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_wrong_password_is_told_the_same_whatever_exists(
    stack, hashes, entry, filename
):
    d, log = stack
    del hashes[:]
    with pytest.raises(AuthenticationError):
        ENTRY_POINTS[entry](d, "C", "wrong", filename)
    assert hashes == ["wrong"]  # one scan over C's one credential
    assert d.get_file("C", "pw", "stored") == DATA  # and nothing happened


@pytest.mark.parametrize("filename", ["stored", "never-stored"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_unknown_client_is_told_the_same_whatever_exists(
    stack, hashes, entry, filename
):
    d, _ = stack
    del hashes[:]
    with pytest.raises(UnknownClientError):
        ENTRY_POINTS[entry](d, "Nobody", "pw", filename)
    assert hashes == ["pw"]  # the decoy


@pytest.mark.parametrize("filename", ["stored", "never-stored"])
@pytest.mark.parametrize("entry", GATEWAY_ENTRY_POINTS)
def test_gateway_wrong_password_and_unknown_tenant(fleet, hashes, entry, filename):
    call = GATEWAY_ENTRY_POINTS[entry]
    del hashes[:]
    with pytest.raises(AuthenticationError):
        call(fleet, "alice", "wrong", filename)
    assert hashes == ["wrong"]  # the shard's scan; the gateway adds none
    del hashes[:]
    with pytest.raises(UnknownClientError):
        call(fleet, "nobody", "pw-a", filename)
    assert hashes == ["pw-a"]
    assert fleet.get_file("alice", "pw-a", "stored") == DATA


def test_a_valid_password_still_hears_the_truth(stack):
    d, _ = stack
    with pytest.raises(UnknownFileError):
        d.get_file("C", "pw", "never-stored")
    with pytest.raises(UnknownChunkError):
        d.get_chunk("C", "pw", "stored", 99)
    d.add_password("C", "low", PrivacyLevel.PUBLIC)
    with pytest.raises(AuthorizationError):  # valid, but under the file's PL
        d.get_file("C", "low", "stored")
    with pytest.raises(UnknownFileError):
        d.get_file("C", "low", "never-stored")


@pytest.mark.parametrize(
    "entry", ["get_file", "get_chunk", "get_stream"]
)
def test_refused_reads_count_toward_the_auth_failure_streak(stack, entry):
    d, log = stack
    for filename in ("stored", "never-stored", "stored"):
        with pytest.raises(AuthenticationError):
            ENTRY_POINTS[entry](d, "C", "wrong", filename)
    assert log.auth_failure_streak("C") == 3
    assert {e.detail for e in log.failures("C")} == {"AuthenticationError"}
