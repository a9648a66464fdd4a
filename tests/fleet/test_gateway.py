"""FleetGateway: multi-tenant routing, isolation, quotas, fan-out."""

from __future__ import annotations

import pytest

from repro.core.errors import (
    AuthenticationError,
    FleetError,
    QuotaExceededError,
    UnknownClientError,
    UnknownFileError,
)
from repro.core.privacy import PrivacyLevel
from repro.fleet import FleetGateway
from repro.fleet.router import fleet_key

from tests.fleet.conftest import FLEET_SEED, add_tenants, make_gateway


def upload_corpus(gateway, n: int = 6) -> dict[tuple[str, str], bytes]:
    """n files per tenant, sized to span several chunks each."""
    corpus: dict[tuple[str, str], bytes] = {}
    for tenant, password, level in (
        ("alice", "pw-a", PrivacyLevel.PRIVATE),
        ("bob", "pw-b", PrivacyLevel.MODERATE),
    ):
        for i in range(n):
            data = f"{tenant} file {i} ".encode() * 200
            name = f"doc-{i}.txt"
            gateway.upload_file(tenant, password, name, data, level)
            corpus[(tenant, name)] = data
    return corpus


class TestDataPath:
    def test_round_trip_across_shards(self, gateway):
        corpus = upload_corpus(gateway)
        # The corpus must actually exercise the partitioning: files land
        # on more than one shard.
        owners = {
            gateway.router.route(fleet_key(t, f)) for (t, f) in corpus
        }
        assert len(owners) > 1
        for (tenant, name), data in corpus.items():
            password = "pw-a" if tenant == "alice" else "pw-b"
            assert gateway.get_file(tenant, password, name) == data

    def test_update_and_remove(self, gateway):
        upload_corpus(gateway, n=2)
        new_payload = b"REDACTED-" * 20
        gateway.update_chunk("alice", "pw-a", "doc-0.txt", 0, new_payload)
        data = gateway.get_file("alice", "pw-a", "doc-0.txt")
        assert data.startswith(b"REDACTED-")
        gateway.remove_file("alice", "pw-a", "doc-1.txt")
        with pytest.raises(UnknownFileError):
            gateway.get_file("alice", "pw-a", "doc-1.txt")
        assert "doc-1.txt" not in gateway.list_files("alice", "pw-a")

    def test_duplicate_upload_rejected(self, gateway):
        gateway.upload_file(
            "alice", "pw-a", "dup.txt", b"x" * 100, PrivacyLevel.PRIVATE
        )
        with pytest.raises(ValueError):
            gateway.upload_file(
                "alice", "pw-a", "dup.txt", b"y" * 100, PrivacyLevel.PRIVATE
            )

    def test_stateless_gateway_pair_routes_identically(self, base_registry):
        # Two gateway processes over the same membership must serve each
        # other's uploads: nothing about routing lives in gateway state.
        gw1 = make_gateway(base_registry)
        add_tenants(gw1)
        gw2 = make_gateway(base_registry)
        gw2.access.import_state(gw1.access.export_state())
        for shard_id, shard in gw2.shards.items():
            shard.sync_access(gw2.access.export_state())
        corpus = upload_corpus(gw1, n=4)
        # gw2's shards reload nothing (in-memory fleet) so hand it gw1's
        # shard objects to emulate shared shard state, keeping only the
        # routing decision under test.
        gw2.shards = gw1.shards
        for (tenant, name), data in corpus.items():
            password = "pw-a" if tenant == "alice" else "pw-b"
            assert gw2.get_file(tenant, password, name) == data


class TestTenantIsolation:
    def test_wrong_password_rejected(self, gateway):
        upload_corpus(gateway, n=1)
        with pytest.raises(AuthenticationError):
            gateway.get_file("alice", "WRONG", "doc-0.txt")
        with pytest.raises(AuthenticationError):
            gateway.list_files("alice", "WRONG")
        with pytest.raises(AuthenticationError):
            gateway.upload_file(
                "alice", "WRONG", "new.txt", b"x", PrivacyLevel.PUBLIC
            )

    def test_tenant_cannot_read_other_tenants_file(self, gateway):
        secret = b"alice eyes only " * 100
        gateway.upload_file(
            "alice", "pw-a", "secret.txt", secret, PrivacyLevel.PRIVATE
        )
        # Bob authenticates fine but his namespace simply has no such file
        # -- alice's 'secret.txt' is the key 'alice/secret.txt', unreachable
        # from any bob request.
        with pytest.raises(UnknownFileError):
            gateway.get_file("bob", "pw-b", "secret.txt")
        gateway.upload_file(
            "bob", "pw-b", "secret.txt", b"bobs own", PrivacyLevel.MODERATE
        )
        assert gateway.get_file("bob", "pw-b", "secret.txt") == b"bobs own"
        assert gateway.get_file("alice", "pw-a", "secret.txt") == secret

    def test_listing_shows_only_own_files(self, gateway):
        upload_corpus(gateway, n=3)
        alice_files = gateway.list_files("alice", "pw-a")
        bob_files = gateway.list_files("bob", "pw-b")
        assert alice_files == [f"doc-{i}.txt" for i in range(3)]
        assert bob_files == [f"doc-{i}.txt" for i in range(3)]
        # Same visible names, disjoint underlying keys: removing bob's
        # copy leaves alice's untouched.
        gateway.remove_file("bob", "pw-b", "doc-0.txt")
        assert "doc-0.txt" in gateway.list_files("alice", "pw-a")
        assert "doc-0.txt" not in gateway.list_files("bob", "pw-b")


class TestQuotas:
    def test_file_count_quota(self, gateway):
        gateway.set_quota("bob", max_files=2)
        gateway.upload_file("bob", "pw-b", "a", b"x" * 50, 2)
        gateway.upload_file("bob", "pw-b", "b", b"x" * 50, 2)
        with pytest.raises(QuotaExceededError):
            gateway.upload_file("bob", "pw-b", "c", b"x" * 50, 2)
        # alice is unaffected.
        gateway.upload_file("alice", "pw-a", "c", b"x" * 50, 3)

    def test_byte_quota_counts_incoming_bytes(self, gateway):
        gateway.set_quota("bob", max_bytes=1000)
        gateway.upload_file("bob", "pw-b", "a", b"x" * 600, 2)
        with pytest.raises(QuotaExceededError):
            gateway.upload_file("bob", "pw-b", "b", b"x" * 600, 2)
        # Removing frees quota.
        gateway.remove_file("bob", "pw-b", "a")
        gateway.upload_file("bob", "pw-b", "b", b"x" * 600, 2)

    def test_rejections_are_counted(self, gateway):
        gateway.set_quota("bob", max_files=0)
        with pytest.raises(QuotaExceededError):
            gateway.upload_file("bob", "pw-b", "a", b"x", 2)
        counters = gateway.metrics.export_state()["counters"]
        assert any(
            k.startswith("fleet_quota_rejections_total") and v > 0
            for k, v in counters.items()
        )

    def test_quota_requires_known_tenant(self, gateway):
        with pytest.raises(FleetError):
            gateway.set_quota("mallory", max_files=1)


class TestTenantManagement:
    def test_rotate_password_keeps_level_and_access(self, gateway):
        upload_corpus(gateway, n=1)
        level = gateway.rotate_tenant_password("alice", "pw-a", "pw-a2")
        assert level == PrivacyLevel.PRIVATE
        with pytest.raises(AuthenticationError):
            gateway.get_file("alice", "pw-a", "doc-0.txt")
        assert gateway.get_file("alice", "pw-a2", "doc-0.txt")

    def test_remove_tenant_refuses_while_data_remains(self, gateway):
        upload_corpus(gateway, n=1)
        with pytest.raises(FleetError):
            gateway.remove_tenant("alice")
        gateway.remove_file("alice", "pw-a", "doc-0.txt")
        gateway.remove_tenant("alice")
        assert "alice" not in gateway.tenants()

    @staticmethod
    def warm_every_shard(gateway) -> list:
        """Have the gateway and every shard verify alice's password, so
        each holds it in its verified-pair table."""
        gateway.list_files("alice", "pw-a")  # gateway, then every shard
        controllers = [gateway.access] + [
            shard.distributor.access for shard in gateway.shards.values()
        ]
        assert len(controllers) == 4
        assert all(len(c._verified) == 1 for c in controllers)
        return controllers

    def test_verified_pairs_are_in_nothing_the_fleet_writes(
        self, disk_gateway, tmp_path
    ):
        """``fleet-state.json``, every shard's ``metadata.json`` and
        journal, ``export_metadata``: no tag, no key, no password."""
        import json

        gateway = disk_gateway
        gateway.upload_file("alice", "pw-a", "f", b"x" * 900, 3)
        controllers = self.warm_every_shard(gateway)
        gateway.save()
        written = [p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()]
        assert len(written) >= 1 + 2 * len(gateway.shards)
        written += [
            json.dumps(shard.distributor.export_metadata()).encode()
            for shard in gateway.shards.values()
        ]
        for controller in controllers:
            for secret in (b"pw-a", controller._tag_key, *controller._verified):
                for form in (secret, secret.hex().encode()):
                    assert not any(form in blob for blob in written)

    def test_rotation_reaches_every_shard_at_once(self, gateway):
        controllers = self.warm_every_shard(gateway)
        gateway.rotate_tenant_password("alice", "pw-a", "pw-a2")
        assert all(c._verified == {} for c in controllers)
        for controller in controllers:  # the very next call, on each
            with pytest.raises(AuthenticationError):
                controller.authenticate("alice", "pw-a")
            assert controller.authenticate("alice", "pw-a2") == PrivacyLevel.PRIVATE
        # bob's pair went with the rest and re-verifies.
        assert gateway.list_files("bob", "pw-b") == []

    def test_removed_tenant_is_refused_on_every_shard_at_once(self, gateway):
        controllers = self.warm_every_shard(gateway)
        gateway.remove_tenant("alice")
        assert all(c._verified == {} for c in controllers)
        for controller in controllers:
            with pytest.raises(UnknownClientError):
                controller.authenticate("alice", "pw-a")
        for shard in gateway.shards.values():
            with pytest.raises(UnknownClientError):
                shard.distributor.get_file("alice", "pw-a", "alice/anything")


class TestFanOut:
    def test_merged_metrics_sum_the_shards_fixed_costs(self, base_registry):
        """Password checks by outcome and provider legs by where they ran
        are counted where they happen -- the gateway's controller, each
        shard's controller and distributor -- and merge into one view."""
        from repro.obs.metrics import MetricsRegistry

        gateway = FleetGateway(
            base_registry, seed=FLEET_SEED, metrics=MetricsRegistry()
        )
        for shard_id in ("s0", "s1", "s2"):
            gateway.add_shard(shard_id)
        add_tenants(gateway)
        upload_corpus(gateway, n=3)
        for i in range(3):
            gateway.get_file("alice", "pw-a", f"doc-{i}.txt")
        with pytest.raises(AuthenticationError):
            gateway.get_file("alice", "wrong", "doc-0.txt")

        merged = gateway.merged_metrics()
        parts = [gateway.metrics] + [s.metrics for s in gateway.shards.values()]
        auth, legs = "access_authentications_total", "distributor_transport_legs_total"
        for outcome in ("cached", "verified", "refused"):
            assert merged.value(auth, outcome=outcome) == sum(
                part.value(auth, outcome=outcome) for part in parts
            )
        # alice and bob each verified once at the gateway and once on each
        # shard that served them; the wrong password was refused by the
        # one shard that answered.
        assert gateway.metrics.value(auth, outcome="verified") == 2
        assert 4 <= merged.value(auth, outcome="verified") <= 8
        assert merged.value(auth, outcome="refused") == 1
        assert merged.value(auth, outcome="cached") > 0
        # The fleet's providers are namespaced views of in-memory ones:
        # they cannot wait, so no leg went to a pool.
        assert merged.value(legs, where="pool") == 0
        assert merged.value(legs, where="caller") == sum(
            s.metrics.value(legs, where="caller")
            for s in gateway.shards.values()
        ) > 0
        gateway.close()

    def test_tenant_usage_sums_all_shards(self, gateway):
        corpus = upload_corpus(gateway, n=6)
        usage = gateway.tenant_usage("alice")
        expected_bytes = sum(
            len(d) for (t, _), d in corpus.items() if t == "alice"
        )
        assert usage == {"files": 6, "bytes": expected_bytes}

    def test_fsck_clean_on_every_shard(self, gateway):
        upload_corpus(gateway, n=4)
        reports = gateway.fsck()
        assert set(reports) == {"s0", "s1", "s2"}
        assert all(report.clean for report in reports.values())

    def test_status_shape(self, gateway):
        upload_corpus(gateway, n=2)
        gateway.set_quota("bob", max_bytes=1 << 20)
        status = gateway.status()
        assert status["m_bits"] == 32
        assert [r["shard"] for r in status["shards"]] == ["s0", "s1", "s2"]
        assert sum(r["files"] for r in status["shards"]) == 4
        assert status["tenants"]["bob"]["quota"]["max_bytes"] == 1 << 20

    def test_shard_rows_report_ring_ids(self, gateway):
        rows = gateway.shard_rows()
        ids = {r["node_id"] for r in rows}
        assert len(ids) == 3  # distinct positions on the identifier circle


class TestPersistence:
    def test_reopen_from_disk(self, base_registry, tmp_path):
        gw = make_gateway(base_registry, tmp_path)
        add_tenants(gw)
        corpus = upload_corpus(gw, n=4)
        gw.set_quota("bob", max_files=10)
        gw.save()
        gw.close()

        reopened = FleetGateway.open(base_registry, tmp_path)
        assert reopened.seed == FLEET_SEED
        assert reopened.shard_ids == ["s0", "s1", "s2"]
        assert reopened.quotas["bob"].max_files == 10
        for (tenant, name), data in corpus.items():
            password = "pw-a" if tenant == "alice" else "pw-b"
            assert reopened.get_file(tenant, password, name) == data
        reopened.close()
