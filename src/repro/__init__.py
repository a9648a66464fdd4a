"""repro — reproduction of "An Approach to Protect the Privacy of Cloud
Data from Data Mining Based Attacks" (Dev, Sen, Basak & Ali, 2012).

The library implements the paper's Cloud Data Distributor (categorize ->
fragment -> distribute), a simulated multi-provider cloud substrate with
RAID-5/6 erasure coding, the client-side DHT alternative (Chord/CAN), and
a data-mining attack suite (regression, clustering, association rules,
prediction) used to evaluate how fragmentation degrades an attacker's
mining results.

Quickstart::

    from repro import (
        CloudClient, CloudDataDistributor, PrivacyLevel,
        build_simulated_fleet, default_fleet_specs,
    )

    registry, fleet, clock = build_simulated_fleet(default_fleet_specs(7))
    distributor = CloudDataDistributor(registry, seed=7)
    bob = CloudClient.register(
        distributor, "Bob", passwords={"x9pr": PrivacyLevel.LOW}
    )
    bob.upload("x9pr", "file1", b"hello cloud", PrivacyLevel.LOW)
    assert bob.download("x9pr", "file1") == b"hello cloud"
"""

from repro.core import (
    AccessController,
    AuditLog,
    ChunkCache,
    AuthenticationError,
    AuthorizationError,
    Chunk,
    ChunkSizePolicy,
    CloudClient,
    CloudDataDistributor,
    CostLevel,
    DistributorGroup,
    FileReceipt,
    PlacementError,
    PlacementPolicy,
    PrivacyLevel,
    ReconstructionError,
    RepairReport,
    ReproError,
    admit_provider,
    check_level,
    decommission_provider,
    join,
    load_metadata,
    rebalance,
    save_metadata,
    split,
    suggest_level,
)
from repro.health import HealthMonitor, HealthState, Scrubber, ScrubReport
from repro.providers import (
    ChaosProvider,
    CloudProvider,
    DiskProvider,
    FailureInjector,
    FaultPlan,
    InMemoryProvider,
    LatencyModel,
    ParallelWindow,
    ProviderRegistry,
    ProviderSpec,
    SimulatedProvider,
    build_simulated_fleet,
    default_fleet_specs,
    regional_fleet_specs,
)
from repro.raid import RaidLevel, RSCode

# Imported after repro.core so the core->raid import chain is fully
# initialized before analysis pulls repro.raid in again.
from repro.analysis import (
    client_exposure,
    collusion_exposure,
    file_availability,
    stripe_availability,
)

__version__ = "1.0.0"

__all__ = [
    "client_exposure",
    "collusion_exposure",
    "file_availability",
    "stripe_availability",
    "AccessController",
    "AuditLog",
    "ChunkCache",
    "AuthenticationError",
    "AuthorizationError",
    "Chunk",
    "ChunkSizePolicy",
    "CloudClient",
    "CloudDataDistributor",
    "CostLevel",
    "DistributorGroup",
    "FileReceipt",
    "PlacementError",
    "PlacementPolicy",
    "PrivacyLevel",
    "ReconstructionError",
    "RepairReport",
    "ReproError",
    "admit_provider",
    "check_level",
    "decommission_provider",
    "join",
    "load_metadata",
    "rebalance",
    "save_metadata",
    "split",
    "suggest_level",
    "ChaosProvider",
    "CloudProvider",
    "DiskProvider",
    "FailureInjector",
    "FaultPlan",
    "HealthMonitor",
    "HealthState",
    "Scrubber",
    "ScrubReport",
    "InMemoryProvider",
    "LatencyModel",
    "ParallelWindow",
    "ProviderRegistry",
    "ProviderSpec",
    "SimulatedProvider",
    "build_simulated_fleet",
    "default_fleet_specs",
    "regional_fleet_specs",
    "RaidLevel",
    "RSCode",
    "__version__",
]
