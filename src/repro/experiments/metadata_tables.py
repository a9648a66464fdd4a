"""Experiments T1-T3: regenerate the paper's Tables I, II and III.

Builds a deployment shaped like the paper's Figure 3 (the Adobe/AWS/...
fleet, clients Bob and Roy with their password ladders and files), then
renders the distributor's three metadata tables in the paper's layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.providers.registry import build_simulated_fleet, default_fleet_specs
from repro.util.rng import SeedLike
from repro.util.tables import render_table
from repro.workloads.files import text_like


@dataclass
class PopulatedSystem:
    registry: object
    providers: list
    clock: object
    distributor: CloudDataDistributor


def populated_system(seed: SeedLike = 7, misleading: float = 0.1) -> PopulatedSystem:
    """The paper's Fig. 3 deployment: 7-provider fleet, Bob and Roy."""
    registry, providers, clock = build_simulated_fleet(
        default_fleet_specs(7), seed=seed
    )
    distributor = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy(sizes=(4096, 2048, 1024, 512)),
        seed=seed,
    )
    distributor.register_client("Bob")
    distributor.add_password("Bob", "aB1c", PrivacyLevel.PUBLIC)
    distributor.add_password("Bob", "x9pr", PrivacyLevel.LOW)
    distributor.add_password("Bob", "6S4r", PrivacyLevel.MODERATE)
    distributor.add_password("Bob", "Ty7e", PrivacyLevel.PRIVATE)
    distributor.register_client("Roy")
    distributor.add_password("Roy", "eV2t", PrivacyLevel.PRIVATE)

    distributor.upload_file(
        "Bob", "x9pr", "file1", text_like(6000, seed=1), PrivacyLevel.LOW,
        misleading_fraction=misleading,
    )
    distributor.upload_file(
        "Bob", "6S4r", "file2", text_like(2500, seed=2), PrivacyLevel.MODERATE,
        misleading_fraction=misleading,
    )
    distributor.upload_file(
        "Roy", "eV2t", "file3", text_like(1200, seed=3), PrivacyLevel.PRIVATE,
        misleading_fraction=misleading,
    )
    return PopulatedSystem(registry, providers, clock, distributor)


def render_paper_tables(system: PopulatedSystem) -> dict[str, str]:
    """Render Tables I-III from a populated system, paper-style."""
    d = system.distributor
    table1 = render_table(
        ["Cloud Provider", "PL", "CL", "Count", "Virtual id list"],
        d.provider_table.rows(d.chunk_table.provider_keys()),
        title="TABLE I: CLOUD PROVIDER TABLE",
    )
    table2 = render_table(
        ["Client", "(pass, PL)", "Count", "(filename, sl, PL, idx)"],
        d.client_table.rows(),
        title="TABLE II: CLIENT TABLE",
    )
    table3 = render_table(
        ["virtual id", "PL", "CP index", "SP index", "M"],
        d.chunk_table.rows(),
        title="TABLE III: CHUNK TABLE",
    )
    return {"table1": table1, "table2": table2, "table3": table3}
