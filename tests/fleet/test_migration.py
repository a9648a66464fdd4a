"""ShardRebalancer: journaled cross-shard migration and crash recovery.

This is the authoritative crash matrix for the ``fleet.migrate.*`` kill
points (``tests/core/test_crash_injection.py`` deliberately excludes them
-- they only fire on the cross-shard path exercised here).
"""

from __future__ import annotations

import threading

import pytest

from repro.core.errors import FleetError
from repro.core.privacy import PrivacyLevel
from repro.fleet import FleetGateway, ShardRebalancer
from repro.fleet.migration import MigrationJournal, PlannedMove
from repro.fleet.router import fleet_key
from repro.util.crash import CrashPoint, crashing_at

from tests.fleet.conftest import add_tenants, make_gateway
from tests.core.test_misleading import is_row

FLEET_POINTS = [
    "fleet.migrate.planned",
    "fleet.migrate.copied",
    "fleet.migrate.removed",
]


def upload_corpus(gateway, n: int = 6) -> dict[tuple[str, str], bytes]:
    corpus: dict[tuple[str, str], bytes] = {}
    for tenant, password, level in (
        ("alice", "pw-a", PrivacyLevel.PRIVATE),
        ("bob", "pw-b", PrivacyLevel.MODERATE),
    ):
        for i in range(n):
            data = f"{tenant} chunkful {i} ".encode() * 150
            name = f"doc-{i}.txt"
            gateway.upload_file(tenant, password, name, data, level)
            corpus[(tenant, name)] = data
    return corpus


def assert_all_readable(gateway, corpus) -> None:
    for (tenant, name), data in corpus.items():
        password = "pw-a" if tenant == "alice" else "pw-b"
        assert gateway.get_file(tenant, password, name) == data, (
            f"{tenant}/{name} corrupted or lost"
        )


def assert_fleet_clean(gateway) -> None:
    for shard_id, report in gateway.fsck().items():
        assert report.clean, f"shard {shard_id} dirty: {report.summary()}"


def test_exporting_a_file_reads_it_as_one_window(gateway, monkeypatch):
    """A migration reads a file the way ``get_file`` does: one round, one
    batched get per provider holding a data shard -- not a round a chunk
    (64 rounds for this file at 8025e85)."""
    from repro.providers.memory import InMemoryProvider

    data = bytes(range(256)) * 256  # 64 chunks of 1 KiB at PL-3
    gateway.upload_file(
        "alice", "pw-a", "big.bin", data, PrivacyLevel.PRIVATE,
        misleading_fraction=0.1,
    )
    key = fleet_key("alice", "big.bin")
    (shard,) = [s for s in gateway.shards.values() if s.has_file(key)]
    batches: list[str] = []
    get_many = InMemoryProvider.get_many
    # The patch is class-wide: count only this thread's reads of the
    # exporting shard's backends, not a scrubber's or prober's elsewhere.
    backends = {id(entry.provider.inner) for entry in shard.registry.all()}
    caller = threading.get_ident()

    def counted(self, keys):
        if id(self) in backends and threading.get_ident() == caller:
            batches.append(self.name)
        return get_many(self, keys)

    monkeypatch.setattr(InMemoryProvider, "get_many", counted)
    got, level, fraction, codec = shard.export_file(key)
    assert got == data and level == PrivacyLevel.PRIVATE and codec == "raid5"
    assert 0.09 < fraction < 0.11
    assert sorted(batches) == sorted(set(batches))  # one batch a provider
    assert 1 < len(batches) <= 6


class TestJoinMigration:
    def test_fourth_shard_takes_over_its_ranges(self, disk_gateway):
        corpus = upload_corpus(disk_gateway)
        rebalancer = ShardRebalancer(disk_gateway)
        report = rebalancer.add_shard("s3")
        # The ring guarantees only keys whose range s3 took over move.
        assert report.files_moved > 0
        for key, src, dst in report.moves:
            assert dst == "s3"
            assert disk_gateway.router.owner(key) == "s3"
            # Every moved file is gone from its source shard.
            assert not disk_gateway.shards[src].has_file(key)
            assert disk_gateway.shards[dst].has_file(key)
        assert_all_readable(disk_gateway, corpus)
        assert_fleet_clean(disk_gateway)
        assert rebalancer.journal.pending() == []

    def test_ownership_is_authoritative_after_join(self, disk_gateway):
        upload_corpus(disk_gateway)
        ShardRebalancer(disk_gateway).add_shard("s3")
        for shard_id, shard in disk_gateway.shards.items():
            for key in shard.files():
                assert disk_gateway.router.owner(key) == shard_id

    def test_join_on_empty_fleet_moves_nothing(self, disk_gateway):
        report = ShardRebalancer(disk_gateway).add_shard("s3")
        assert report.files_moved == 0
        assert report.moves == []


class TestDrainMigration:
    def test_drain_relocates_and_detaches(self, disk_gateway):
        corpus = upload_corpus(disk_gateway)
        victim = "s1"
        n_before = len(disk_gateway.shards[victim].files())
        report = ShardRebalancer(disk_gateway).drain_shard(victim)
        assert report.files_moved == n_before
        assert victim not in disk_gateway.shards
        assert victim not in disk_gateway.router.shard_ids
        assert_all_readable(disk_gateway, corpus)
        assert_fleet_clean(disk_gateway)

    def test_a_migrated_files_m_rows_are_the_rows_an_upload_tables(
        self, disk_gateway
    ):
        # A move re-derives the misleading budget from the stored rows and
        # re-uploads: the same packed row type on the other side, the same
        # count of positions, the same quota bytes.
        data = bytes(range(256)) * 12  # 3 chunks of 1 KiB at PL-3
        names = [f"m-{i}.bin" for i in range(8)]
        for name in names:
            disk_gateway.upload_file(
                "alice", "pw-a", name, data, PrivacyLevel.PRIVATE,
                misleading_fraction=0.1,
            )
        usage = disk_gateway.tenant_usage("alice")
        report = ShardRebalancer(disk_gateway).drain_shard("s1")
        assert report.files_moved > 0
        for key, _, dst in report.moves:
            d = disk_gateway.shards[dst].distributor
            for ref in d.client_table.get("alice").refs_for_file(key):
                row = d.chunk_table.get(ref.chunk_index).misleading_positions
                assert is_row(row) and len(row) == 102
        assert disk_gateway.tenant_usage("alice") == usage
        for name in names:
            assert disk_gateway.get_file("alice", "pw-a", name) == data
        assert_fleet_clean(disk_gateway)

    def test_cannot_drain_last_shard(self, base_registry, tmp_path):
        gateway = make_gateway(base_registry, tmp_path, shards=("solo",))
        rebalancer = ShardRebalancer(gateway)
        with pytest.raises(FleetError):
            rebalancer.drain_shard("solo")

    def test_cannot_drain_unknown_shard(self, disk_gateway):
        with pytest.raises(FleetError):
            ShardRebalancer(disk_gateway).drain_shard("nope")


class TestCrashRecovery:
    @pytest.mark.parametrize("point", FLEET_POINTS)
    def test_join_crash_then_resume_converges(
        self, base_registry, tmp_path, point
    ):
        gateway = make_gateway(base_registry, tmp_path)
        add_tenants(gateway)
        corpus = upload_corpus(gateway)
        gateway.save()

        with pytest.raises(CrashPoint), crashing_at(point):
            ShardRebalancer(gateway).add_shard("s3")
        gateway.close()

        # Reboot the control plane the way the CLI does: reopen, then
        # resume whatever the journal says is unfinished.
        reopened = FleetGateway.open(base_registry, tmp_path)
        assert "s3" in reopened.shard_ids  # membership was durable first
        rebalancer = ShardRebalancer(reopened)
        reports = rebalancer.resume()
        assert len(reports) == 1

        assert_all_readable(reopened, corpus)
        assert_fleet_clean(reopened)
        assert rebalancer.journal.pending() == []
        # Ownership is consistent: every file sits on its ring owner.
        for shard_id, shard in reopened.shards.items():
            for key in shard.files():
                assert reopened.router.owner(key) == shard_id
        reopened.close()

    @pytest.mark.parametrize("point", FLEET_POINTS)
    def test_reads_stay_available_before_resume(
        self, base_registry, tmp_path, point
    ):
        # Between the crash and the resume, the fan-out fallback must keep
        # every file readable even though the ring already routes some keys
        # to shards that never received them.
        gateway = make_gateway(base_registry, tmp_path)
        add_tenants(gateway)
        corpus = upload_corpus(gateway)
        gateway.save()
        with pytest.raises(CrashPoint), crashing_at(point):
            ShardRebalancer(gateway).add_shard("s3")
        gateway.close()

        reopened = FleetGateway.open(base_registry, tmp_path)
        assert_all_readable(reopened, corpus)
        reopened.close()

    @pytest.mark.parametrize("point", FLEET_POINTS)
    def test_drain_crash_then_resume_detaches(
        self, base_registry, tmp_path, point
    ):
        gateway = make_gateway(base_registry, tmp_path)
        add_tenants(gateway)
        corpus = upload_corpus(gateway)
        gateway.save()
        victim = "s1"
        assert gateway.shards[victim].files(), "victim must hold data"

        with pytest.raises(CrashPoint), crashing_at(point):
            ShardRebalancer(gateway).drain_shard(victim)
        gateway.close()

        reopened = FleetGateway.open(base_registry, tmp_path)
        rebalancer = ShardRebalancer(reopened)
        rebalancer.resume()
        assert victim not in reopened.shards
        assert victim not in reopened.router.shard_ids
        assert_all_readable(reopened, corpus)
        assert_fleet_clean(reopened)
        assert rebalancer.journal.pending() == []
        reopened.close()

    def test_double_resume_is_idempotent(self, base_registry, tmp_path):
        gateway = make_gateway(base_registry, tmp_path)
        add_tenants(gateway)
        corpus = upload_corpus(gateway)
        gateway.save()
        with pytest.raises(CrashPoint), crashing_at("fleet.migrate.copied"):
            ShardRebalancer(gateway).add_shard("s3")
        gateway.close()

        reopened = FleetGateway.open(base_registry, tmp_path)
        rebalancer = ShardRebalancer(reopened)
        rebalancer.resume()
        assert rebalancer.resume() == []  # nothing left to do
        assert_all_readable(reopened, corpus)
        reopened.close()


class TestMigrationJournal:
    def test_plan_done_complete_lifecycle(self, tmp_path):
        journal = MigrationJournal(tmp_path / "migration.jsonl")
        moves = [
            PlannedMove("t/a", "s0", "s1"),
            PlannedMove("t/b", "s2", "s1"),
        ]
        mid = journal.plan(moves, reason="join:s1")
        pending = journal.pending()
        assert [p.migration for p in pending] == [mid]
        assert pending[0].remaining == moves

        journal.mark_done(mid, "t/a")
        assert journal.pending()[0].remaining == [moves[1]]
        journal.mark_done(mid, "t/b")
        journal.complete(mid)
        assert journal.pending() == []

    def test_ids_are_never_reused(self, tmp_path):
        path = tmp_path / "migration.jsonl"
        journal = MigrationJournal(path)
        first = journal.plan([PlannedMove("t/a", "s0", "s1")], reason="r1")
        journal.complete(first)
        # A fresh handle (process restart) must not hand out an id whose
        # 'complete' record is already in the log -- the old record would
        # retroactively swallow the new plan.
        second = MigrationJournal(path).plan(
            [PlannedMove("t/b", "s0", "s1")], reason="r2"
        )
        assert second > first
        assert [p.migration for p in MigrationJournal(path).pending()] == [
            second
        ]

    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "migration.jsonl"
        journal = MigrationJournal(path)
        mid = journal.plan([PlannedMove("t/a", "s0", "s1")], reason="r")
        with open(path, "ab") as fh:
            fh.write(b'{"type": "done", "migration": %d, "ke' % mid)
        reread = MigrationJournal(path)
        assert reread.pending()[0].remaining == [
            PlannedMove("t/a", "s0", "s1")
        ]

    def test_pending_ordered_oldest_first(self, tmp_path):
        journal = MigrationJournal(tmp_path / "migration.jsonl")
        a = journal.plan([PlannedMove("t/a", "s0", "s1")], reason="r1")
        b = journal.plan([PlannedMove("t/b", "s1", "s2")], reason="r2")
        assert [p.migration for p in journal.pending()] == [a, b]
