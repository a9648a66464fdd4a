"""A degraded read reports each provider's run of failed shards to the
health monitor as one call, with the evidence n single calls would give."""

from __future__ import annotations

import os

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry


class Asked(InMemoryProvider):
    """Counts the keys each batched read asks of it."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.asked: list[int] = []

    def get_many(self, keys):
        self.asked.append(len(keys))
        return super().get_many(keys)


def test_a_degraded_read_reports_one_failure_call_per_failing_run():
    providers = [Asked(f"P{i}") for i in range(6)]
    registry = ProviderRegistry()
    for provider in providers:
        registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    d = CloudDataDistributor(registry, codec="raid5@4", seed=13, metrics=MetricsRegistry())
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    data = os.urandom(64 * 1024)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE, misleading_fraction=0.1)
    dark = providers[2]
    for key in list(dark.keys()):
        dark.delete(key)
    dark.asked.clear()

    calls = []
    record_failure = d.health.record_failure

    def recorded(name, transport=True, count=1):
        calls.append((name, transport, count))
        record_failure(name, transport=transport, count=count)

    d.health.record_failure = recorded
    assert d.get_file("C", "pw", "f") == data
    # One batch of the lost provider's data members, all missing: one call
    # for the run (a data failure: the provider answered), not one a shard.
    assert len(dark.asked) == 1 and dark.asked[0] > 1
    assert calls == [("P2", False, dark.asked[0])]
    record = d.health._record("P2")
    assert record.failures == dark.asked[0]
    assert record.consecutive_failures == 0  # data failures never count to DOWN
    d.close()
