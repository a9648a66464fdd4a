"""Shared fixtures: provider fleets, distributors, deterministic RNG."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.failures import FailureInjector
from repro.providers.registry import (
    ProviderSpec,
    build_simulated_fleet,
    default_fleet_specs,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def fleet():
    """(registry, simulated providers, clock) with the paper-like 7 fleet."""
    return build_simulated_fleet(default_fleet_specs(7), seed=42)


@pytest.fixture
def big_fleet():
    """A 12-provider fleet with several providers at every privacy level."""
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel(3 - (i % 4)), CostLevel(i % 4),
                     attested=(3 - (i % 4)) == 3)
        for i in range(12)
    ]
    return build_simulated_fleet(specs, seed=43)


@pytest.fixture
def registry(fleet):
    return fleet[0]


@pytest.fixture
def clock(fleet):
    return fleet[2]


@pytest.fixture
def injector(fleet):
    registry, providers, clock = fleet
    return FailureInjector(providers, clock, seed=99)


@pytest.fixture
def distributor(registry):
    """Distributor over the 7-provider fleet with small test chunks."""
    return CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy(sizes=(4096, 1024, 512, 256)),
        seed=7,
    )


@pytest.fixture
def bob(distributor):
    """The paper's example client Bob with his four passwords (Fig. 3)."""
    distributor.register_client("Bob")
    distributor.add_password("Bob", "aB1c", PrivacyLevel.PUBLIC)
    distributor.add_password("Bob", "x9pr", PrivacyLevel.LOW)
    distributor.add_password("Bob", "6S4r", PrivacyLevel.MODERATE)
    distributor.add_password("Bob", "Ty7e", PrivacyLevel.PRIVATE)
    return "Bob"


@pytest.fixture
def hashes(monkeypatch):
    """The password of every ``_hash_password`` call made while the test
    runs: one PBKDF2 per credential a scan tried (or per password set).
    Costs are asserted by this count, never by clock."""
    from repro.core import access_control

    real = access_control._hash_password
    calls: list[str] = []

    def counted(password, salt):
        calls.append(password)
        return real(password, salt)

    monkeypatch.setattr(access_control, "_hash_password", counted)
    return calls
