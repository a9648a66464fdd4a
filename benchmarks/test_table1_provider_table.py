"""Experiment T1: regenerate Table I (Cloud Provider Table)."""

from repro.experiments.metadata_tables import populated_system, render_paper_tables


def test_table1_provider_table(benchmark, save_result):
    system = benchmark.pedantic(
        lambda: populated_system(seed=7), rounds=1, iterations=1
    )
    tables = render_paper_tables(system)
    save_result("table1_provider_table", tables["table1"])

    table = system.distributor.provider_table
    # Shape checks mirroring the paper's Table I: named providers with PL,
    # CL, a count and a virtual-id list.
    assert len(table) == 7
    names = {entry.name for _, entry in table}
    assert {"Adobe", "AWS", "Google", "Microsoft", "Sky", "Sea", "Earth"} == names
    # Counts (kept by the Chunk Table) equal the number of shard objects
    # actually at each provider.
    loads = system.distributor.provider_loads()
    for name in names:
        assert loads[name] == system.registry.get(name).provider.object_count
