"""Experiment T3: regenerate Table III (Chunk Table)."""

from repro.experiments.metadata_tables import populated_system, render_paper_tables


def test_table3_chunk_table(benchmark, save_result):
    def build():
        system = populated_system(seed=7)
        # Modify one chunk so the SP (snapshot provider) column populates,
        # as in the paper's Table III rows with a snapshot index.
        system.distributor.update_chunk(
            "Roy", "eV2t", "file3", 0, b"modified pre-state demo " * 20
        )
        return system

    system = benchmark.pedantic(build, rounds=1, iterations=1)
    tables = render_paper_tables(system)
    save_result("table3_chunk_table", tables["table3"])

    chunk_table = system.distributor.chunk_table
    entries = [entry for _, entry in chunk_table]
    # Misleading-byte positions recorded (M column) for every chunk
    # (populated_system uses a 10% misleading fraction).
    assert all(len(entry.misleading_positions) for entry in entries)
    # At least one chunk has a snapshot provider, the rest show NA.
    snapshotted = [e for e in entries if e.snapshot_index is not None]
    assert len(snapshotted) >= 1
    # Virtual ids unique.
    vids = [e.virtual_id for e in entries]
    assert len(set(vids)) == len(vids)
