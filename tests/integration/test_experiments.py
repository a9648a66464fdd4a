"""Integration tests: every experiment driver runs and shows the paper's
qualitative shape (small parameters for speed; the benches run full-size)."""

import numpy as np
import pytest

from repro.experiments.app_flow import fig3_application_flow
from repro.experiments.distribution_time import distribution_time_once
from repro.experiments.encryption import encryption_vs_fragmentation
from repro.experiments.gps_clustering import gps_clustering_experiment
from repro.experiments.metadata_tables import populated_system, render_paper_tables
from repro.experiments.table4 import table4_bidding_experiment
from repro.workloads.bidding import TRUE_COEFFICIENTS, TRUE_INTERCEPT


# -- T1-T3 ------------------------------------------------------------------


def test_paper_tables_render():
    system = populated_system(seed=7)
    tables = render_paper_tables(system)
    assert "CLOUD PROVIDER TABLE" in tables["table1"]
    assert "Adobe" in tables["table1"]
    assert "Bob" in tables["table2"] and "Roy" in tables["table2"]
    assert "****" in tables["table2"]  # passwords never rendered
    assert "CHUNK TABLE" in tables["table3"]
    # Misleading positions recorded for at least one chunk.
    assert "{" in tables["table3"]


def test_populated_system_consistent():
    system = populated_system(seed=7)
    d = system.distributor
    assert d.chunk_count("Bob", "file1") >= 2
    data = d.get_file("Bob", "x9pr", "file1")
    assert len(data) == 6000


# -- T4 -----------------------------------------------------------------------


def test_table4_reproduces_paper_equations():
    result = table4_bidding_experiment(end_to_end=False)
    assert np.allclose(result.full_model.coefficients, TRUE_COEFFICIENTS, atol=0.05)
    assert result.full_model.intercept == pytest.approx(TRUE_INTERCEPT, abs=1)
    assert len(result.fragment_models) == 3
    # Every fragment model diverges from the full model.
    assert all(d > 0.05 for d in result.fragment_divergence)
    assert len(result.equations) == 4


def test_table4_end_to_end_insider():
    result = table4_bidding_experiment(end_to_end=True, end_to_end_rows=90, seed=41)
    # The insider salvages roughly a third of the rows from her provider.
    assert 0 < result.insider_rows < 60
    assert result.insider_model is not None


# -- F3 -----------------------------------------------------------------------


def test_fig3_walkthrough():
    result = fig3_application_flow(seed=7)
    assert result.granted_chunk_bytes == 2048
    assert result.denied_error  # aB1c denied
    assert any("request denied" in step for step in result.trace)
    assert any("get(" in step for step in result.trace)


# -- F4-F6 -------------------------------------------------------------------


def test_gps_clustering_shape():
    result = gps_clustering_experiment(
        n_users=20, full_obs=1600, fragment_obs=300, n_fragments=2, seed=81
    )
    # Fragmentation moves entities between clusters; full data is stable.
    assert sum(result.migrations) > 0
    assert min(result.adjusted_rand) < 1.0
    assert all(c < 1.0 for c in result.cophenetic_corr)
    assert result.control_migrations <= max(result.migrations)
    assert "fig4_full" in result.dendrograms
    assert len(result.dendrograms["fig4_full"].splitlines()) == 20


def test_gps_clustering_paper_scale():
    """At the paper's scale (30 users, >3000 obs vs 500-obs fragments),
    several entities move while the full-data control stays stable."""
    result = gps_clustering_experiment(with_dendrograms=False)
    assert result.n_users == 30 and result.full_obs >= 3000
    assert all(m >= 2 for m in result.migrations)
    assert result.control_migrations < min(result.migrations)
    assert all(r < 0.95 for r in result.adjusted_rand)


def test_gps_validation():
    with pytest.raises(ValueError):
        gps_clustering_experiment(full_obs=100, fragment_obs=80, n_fragments=2)


# -- F1/E1 -----------------------------------------------------------------


def test_distribution_time_scales_with_file_size():
    small = distribution_time_once(32 * 1024, chunk_size=4096, seed=1)
    large = distribution_time_once(128 * 1024, chunk_size=4096, seed=1)
    assert large.upload_sim_s > small.upload_sim_s
    assert large.n_chunks == 4 * small.n_chunks


def test_distribution_time_falls_with_chunk_size():
    fine = distribution_time_once(64 * 1024, chunk_size=1024, seed=2)
    coarse = distribution_time_once(64 * 1024, chunk_size=16384, seed=2)
    assert coarse.upload_sim_s < fine.upload_sim_s  # fewer requests


def test_raid6_costs_more_than_raid5():
    r5 = distribution_time_once(64 * 1024, codec="raid5@4", seed=3)
    r6 = distribution_time_once(64 * 1024, codec="raid6@4", seed=3)
    assert r6.storage_overhead > r5.storage_overhead


# -- E2 ------------------------------------------------------------------------


def test_encryption_comparison_shape():
    result = encryption_vs_fragmentation(
        file_size=8 * 1024 * 1024, chunk_size=8192, n_queries=3, seed=71
    )
    frag = result.totals["fragmentation"]
    whole = result.totals["whole-file-encryption"]
    partial = result.totals["partial-encryption"]
    # The paper's claim: fragmentation answers point queries without the
    # fetch-everything-decrypt-everything overhead.
    assert whole.bytes_transferred > 50 * frag.bytes_transferred
    assert whole.bytes_decrypted > 0 and frag.bytes_decrypted == 0
    assert whole.sim_time_s > frag.sim_time_s
    # Partial encryption sits between: fragmentation transfer + small crypto.
    assert partial.bytes_transferred == frag.bytes_transferred
    assert 0 < partial.bytes_decrypted < whole.bytes_decrypted
