"""A read goes around the providers the health monitor distrusts.

Once a provider is rated SUSPECT or DOWN, a read's first round asks each
stripe's k lowest-index members on the other providers, parity standing
in for the members on the distrusted one -- one round where a lost
provider used to cost two to four.  A stripe with fewer than k trusted
members still asks distrusted ones, lowest index first.  A scrub that
reads the provider clean rates it HEALTHY again, and reads ask its data
members again.  ``read_members_rerouted_total{provider}`` counts the data
members a read left to parity.
"""

from __future__ import annotations

import os

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.health.monitor import HealthState
from repro.health.scrubber import Scrubber
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

CODECS = [("raid5@4", 6), ("raid6@5", 6), ("rs(6,3)", 9), ("aont-rs(4,2)", 6)]
CHUNKS = 24


class KeyLog(InMemoryProvider):
    """Keeps the keys of every batched read; ``dark`` refuses reads whole,
    as an unreachable provider does."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.batches: list[list[str]] = []
        self.dark = False

    def get_many(self, keys):
        self.batches.append(list(keys))
        if self.dark:
            raise ProviderUnavailableError(f"{self.name} is dark")
        return super().get_many(keys)


class World:
    """A PL-3 file of ``CHUNKS`` 1 KiB chunks (10% misleading bytes) on
    *width* :class:`KeyLog` providers under *codec*."""

    def __init__(self, codec: str, width: int) -> None:
        self.providers = {f"P{i}": KeyLog(f"P{i}") for i in range(width)}
        registry = ProviderRegistry()
        for provider in self.providers.values():
            registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        self.metrics = MetricsRegistry()
        self.d = CloudDataDistributor(registry, codec=codec, seed=7, metrics=self.metrics)
        self.d.register_client("C")
        self.d.add_password("C", "pw", PrivacyLevel.PRIVATE)
        self.data = os.urandom(CHUNKS * 1024)
        self.d.upload_file(
            "C", "pw", "f", self.data, PrivacyLevel.PRIVATE, misleading_fraction=0.1
        )
        # Each stripe's vid, k and member providers, by chunk serial.
        self.stripes = []
        for ref in self.d.client_table.get("C").refs_for_file("f"):
            entry = self.d.chunk_table.get(ref.chunk_index)
            self.stripes.append(
                (entry.virtual_id, entry.record.stripe.k, self.d._members(entry))
            )

    def read(self) -> bytes:
        for provider in self.providers.values():
            provider.batches = []
        return self.d.get_file("C", "pw", "f")

    def asked(self) -> dict[int, set[int]]:
        """The members each stripe was asked for since :meth:`read`, by vid."""
        by_vid: dict[int, set[int]] = {}
        for provider in self.providers.values():
            for keys in provider.batches:
                for key in keys:
                    vid, index = key.split(".")
                    by_vid.setdefault(int(vid), set()).add(int(index))
        return by_vid

    def distrust(self, name: str) -> None:
        """Rate *name* SUSPECT, as three data failures in a row do."""
        self.d.health.record_failure(name, transport=False, count=3)
        assert self.d.health.state(name) is HealthState.SUSPECT

    def rerouted(self, name: str) -> float:
        return self.metrics.counter("read_members_rerouted_total", provider=name).value


def first_k(names: list[str], k: int, distrusted: set[str]) -> set[int]:
    """The members a stripe asks in round 0: its k lowest-index members on
    trusted providers, then distrusted ones, lowest index first."""
    order = sorted(range(len(names)), key=lambda index: (names[index] in distrusted, index))
    return set(order[:k])


@pytest.mark.parametrize("codec, width", CODECS)
def test_a_distrusted_member_is_replaced_in_round_0(codec, width):
    w = World(codec, width)
    victim = w.stripes[0][2][0]  # holds a data member of chunk 0
    w.distrust(victim)
    assert w.read() == w.data
    # One round: a batch a provider, none to the victim, and each stripe
    # asked for k members, parity in place of the victim's.
    assert w.providers[victim].batches == []
    assert all(len(p.batches) <= 1 for p in w.providers.values())
    asked = w.asked()
    for vid, k, names in w.stripes:
        assert asked[vid] == first_k(names, k, {victim})
    on_victim = sum(victim in names[:k] for _, k, names in w.stripes)
    assert w.rerouted(victim) == on_victim > 0
    # Every read form goes through the same engine.
    assert w.d.get_chunk("C", "pw", "f", 0) == w.data[:1024]
    assert b"".join(w.d.get_stream("C", "pw", "f", window_chunks=5)) == w.data
    assert w.providers[victim].batches == []


@pytest.mark.parametrize("codec, width", CODECS)
def test_a_stripe_short_of_trusted_members_asks_distrusted_ones_lowest_first(
    codec, width
):
    w = World(codec, width)
    _, k, names = w.stripes[0]
    distrusted = set(names[: len(names) - k + 1])  # m + 1 of chunk 0's members
    for name in distrusted:
        w.distrust(name)
    assert w.read() == w.data
    assert all(len(p.batches) <= 1 for p in w.providers.values())  # one round
    asked = w.asked()
    for vid, k, names in w.stripes:
        assert asked[vid] == first_k(names, k, distrusted)
    # Chunk 0: its k - 1 trusted members, then member 0, the lowest distrusted.
    vid, k, names = w.stripes[0]
    assert asked[vid] == {0, *range(len(names) - k + 1, len(names))}


@pytest.mark.parametrize("codec, width", CODECS)
def test_a_scrub_that_reads_the_provider_clean_restores_it(codec, width):
    w = World(codec, width)
    victim = w.stripes[0][2][0]
    w.providers[victim].dark = True
    assert w.read() == w.data  # heard: unreachable, so DOWN
    assert w.d.health.state(victim) is HealthState.DOWN
    assert w.read() == w.data
    assert w.providers[victim].batches == []  # read around it
    w.providers[victim].dark = False
    report = Scrubber(w.d, metrics=MetricsRegistry()).run_once()
    assert report.shards_missing == 0
    assert w.d.health.state(victim) is HealthState.HEALTHY
    assert victim not in w.d.health.distrusted
    assert w.read() == w.data
    asked = w.asked()
    for vid, k, _ in w.stripes:
        assert asked[vid] == set(range(k))  # the data members again
    assert len(w.providers[victim].batches) == 1


def test_the_rerouted_counter_stays_0_on_a_healthy_fleet():
    w = World("raid5@4", 6)
    for _ in range(3):
        assert w.read() == w.data
    assert w.d.health.distrusted == {}
    assert w.metrics.sum_counter("read_members_rerouted_total") == 0
    # Each provider a series of its own, held from its first traffic.
    series = w.metrics.snapshot()["counters"]["read_members_rerouted_total"]
    assert len(series) == len(w.providers) and set(series.values()) == {0}
