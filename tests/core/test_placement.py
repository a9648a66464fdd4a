import pytest

from repro.core.errors import PlacementError
from repro.core.placement import PlacementPolicy
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.providers.registry import (
    ProviderSpec,
    build_simulated_fleet,
)


def fleet_with(specs, seed=1):
    registry, providers, clock = build_simulated_fleet(specs, seed=seed)
    return registry


def test_eligibility_by_privacy_level():
    registry = fleet_with(
        [
            ProviderSpec("hi", PrivacyLevel.PRIVATE, CostLevel.PREMIUM),
            ProviderSpec("mid", PrivacyLevel.MODERATE, CostLevel.CHEAP),
            ProviderSpec("lo", PrivacyLevel.PUBLIC, CostLevel.CHEAPEST),
        ]
    )
    policy = PlacementPolicy(seed=1)
    names = {c.name for c in policy.candidates(registry, PrivacyLevel.MODERATE)}
    assert names == {"hi", "mid"}


def test_insufficient_providers_raises():
    registry = fleet_with([ProviderSpec("only", PrivacyLevel.PRIVATE, CostLevel.CHEAP)])
    policy = PlacementPolicy(seed=1)
    with pytest.raises(PlacementError):
        policy.stripe_group(registry, PrivacyLevel.PRIVATE, width=2)


def test_width_validation():
    registry = fleet_with([ProviderSpec("p", PrivacyLevel.PRIVATE, CostLevel.CHEAP)])
    with pytest.raises(ValueError):
        PlacementPolicy(seed=1).stripe_group(registry, 0, width=0)


def test_cheaper_providers_preferred():
    registry = fleet_with(
        [
            ProviderSpec("pricey1", PrivacyLevel.PRIVATE, CostLevel.PREMIUM),
            ProviderSpec("pricey2", PrivacyLevel.PRIVATE, CostLevel.PREMIUM),
            ProviderSpec("cheap1", PrivacyLevel.PRIVATE, CostLevel.CHEAPEST),
            ProviderSpec("cheap2", PrivacyLevel.PRIVATE, CostLevel.CHEAPEST),
        ]
    )
    policy = PlacementPolicy(seed=1)
    group = policy.stripe_group(registry, PrivacyLevel.PRIVATE, width=2)
    assert set(group) == {"cheap1", "cheap2"}


def test_prefer_cheap_disabled_spreads_by_load():
    registry = fleet_with(
        [
            ProviderSpec("a", PrivacyLevel.PRIVATE, CostLevel.PREMIUM),
            ProviderSpec("b", PrivacyLevel.PRIVATE, CostLevel.CHEAPEST),
        ]
    )
    policy = PlacementPolicy(prefer_cheap=False, seed=1)
    group = policy.stripe_group(
        registry, PrivacyLevel.PRIVATE, width=1, load={"b": 10, "a": 0}
    )
    assert group == ["a"]


def test_load_balancing_within_tier():
    registry = fleet_with(
        [
            ProviderSpec("x", PrivacyLevel.PRIVATE, CostLevel.CHEAP),
            ProviderSpec("y", PrivacyLevel.PRIVATE, CostLevel.CHEAP),
        ]
    )
    policy = PlacementPolicy(seed=1)
    group = policy.stripe_group(
        registry, PrivacyLevel.PRIVATE, width=1, load={"x": 100, "y": 1}
    )
    assert group == ["y"]


def test_group_members_distinct():
    registry = fleet_with(
        [ProviderSpec(f"p{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP) for i in range(6)]
    )
    policy = PlacementPolicy(seed=2)
    for _ in range(20):
        group = policy.stripe_group(registry, PrivacyLevel.PRIVATE, width=4)
        assert len(set(group)) == 4


def test_randomization_varies_groups():
    registry = fleet_with(
        [ProviderSpec(f"p{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP) for i in range(8)]
    )
    policy = PlacementPolicy(seed=3)
    groups = {tuple(policy.stripe_group(registry, 3, width=3)) for _ in range(30)}
    assert len(groups) > 1  # "distributes these chunks ... in a random way"


def test_attestation_requirement():
    registry, providers, _ = build_simulated_fleet(
        [
            ProviderSpec("trusted", PrivacyLevel.PRIVATE, CostLevel.PREMIUM, attested=True),
            ProviderSpec("untrusted", PrivacyLevel.PRIVATE, CostLevel.CHEAPEST),
        ],
        seed=1,
    )
    policy = PlacementPolicy(require_attested_at=PrivacyLevel.PRIVATE, seed=1)
    # PL3 chunks only to attested providers even though untrusted is cheaper.
    assert [c.name for c in policy.candidates(registry, PrivacyLevel.PRIVATE)] == ["trusted"]
    # PL2 chunks are unrestricted.
    assert len(policy.candidates(registry, PrivacyLevel.MODERATE)) == 2


def test_max_stripe_width():
    registry = fleet_with(
        [
            ProviderSpec("a", PrivacyLevel.PRIVATE, CostLevel.CHEAP),
            ProviderSpec("b", PrivacyLevel.MODERATE, CostLevel.CHEAP),
            ProviderSpec("c", PrivacyLevel.PUBLIC, CostLevel.CHEAP),
        ]
    )
    policy = PlacementPolicy(seed=1)
    assert policy.max_stripe_width(registry, PrivacyLevel.PUBLIC) == 3
    assert policy.max_stripe_width(registry, PrivacyLevel.PRIVATE) == 1


# -- one snapshot per window ----------------------------------------------------


def _mixed_fleet():
    return fleet_with(
        [
            ProviderSpec(f"p{i}", PrivacyLevel.PRIVATE, cost, region=region)
            for i, (cost, region) in enumerate(
                [
                    (CostLevel.CHEAP, "eu"), (CostLevel.CHEAP, "us"),
                    (CostLevel.CHEAP, "eu"), (CostLevel.PREMIUM, "eu"),
                    (CostLevel.CHEAPEST, "us"), (CostLevel.CHEAP, "ap"),
                ]
            )
        ]
    )


def test_snapshot_places_every_chunk_as_per_chunk_lookups_would():
    from repro.health.monitor import HealthMonitor

    registry = _mixed_fleet()
    health = HealthMonitor(registry)
    for _ in range(2):
        health.record_failure("p2", transport=False)  # suspect
    for _ in range(3):
        health.record_failure("p5")  # down; its probe keeps failing
    registry.get("p5").provider.available = False

    def place(use_snapshot):
        policy = PlacementPolicy(seed=9, preferred_regions=("eu",))
        snapshot = (
            policy.snapshot(registry, PrivacyLevel.PRIVATE, health)
            if use_snapshot
            else None
        )
        load: dict[str, int] = {}
        groups = []
        for _ in range(50):
            group = policy.stripe_group(
                registry, PrivacyLevel.PRIVATE, 3, load=load, health=health,
                snapshot=snapshot,
            )
            for name in group:
                load[name] = load.get(name, 0) + 1
            groups.append(group)
        return groups

    groups = place(use_snapshot=True)
    assert groups == place(use_snapshot=False)
    assert all("p5" not in group for group in groups)


def test_snapshot_is_bound_to_its_privacy_level():
    registry = _mixed_fleet()
    policy = PlacementPolicy(seed=1)
    snapshot = policy.snapshot(registry, PrivacyLevel.PUBLIC)
    with pytest.raises(ValueError, match="snapshot"):
        policy.stripe_group(registry, PrivacyLevel.PRIVATE, 3, snapshot=snapshot)


def test_snapshot_with_too_few_candidates_raises_placement_error():
    registry = _mixed_fleet()
    policy = PlacementPolicy(seed=1)
    snapshot = policy.snapshot(registry, PrivacyLevel.PRIVATE)
    with pytest.raises(PlacementError):
        policy.stripe_group(registry, PrivacyLevel.PRIVATE, 7, snapshot=snapshot)
