"""SnapshotManager unit behaviour.  (A snapshot is deleted with its
chunk's shards, in the distributor's delete batches.)"""

from __future__ import annotations

import pytest

from repro.core.errors import BlobNotFoundError
from repro.core.placement import PlacementPolicy
from repro.core.privacy import PrivacyLevel
from repro.core.snapshots import SnapshotManager


@pytest.fixture
def manager(registry):
    return SnapshotManager(registry, PlacementPolicy())


def test_write_read_cycle(manager):
    name = manager.choose_provider(PrivacyLevel.PUBLIC, exclude=set())
    key = manager.write(name, 7, b"pre-state")
    assert key == "S7"
    assert manager.read(name, 7) == b"pre-state"
    manager.registry.get(name).provider.delete(key)
    with pytest.raises(BlobNotFoundError):
        manager.read(name, 7)


def test_choose_provider_prefers_outside_stripe(manager, registry):
    everyone = set(registry.names())
    keep_out = set(list(everyone)[:-1])
    name = manager.choose_provider(PrivacyLevel.PUBLIC, exclude=keep_out)
    assert name not in keep_out
    # With every provider excluded, it still picks one (inside the stripe).
    assert manager.choose_provider(PrivacyLevel.PUBLIC, exclude=everyone)
