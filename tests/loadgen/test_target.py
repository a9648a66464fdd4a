"""GatewayTarget: a synthesized trace applied to an in-process fleet."""

from __future__ import annotations

import pytest

from repro.core.errors import UnknownFileError
from repro.core.privacy import ChunkSizePolicy
from repro.loadgen import GatewayTarget, OpMix, WorkloadSpec, run_setup, synthesize
from repro.loadgen.workload import OP_KINDS

from tests.fleet.conftest import make_base_registry, make_gateway

SPEC = WorkloadSpec(
    tenants=2, files_per_tenant=3, mean_file_size=6000,
    mix=OpMix(get=0.4, put=0.2, update=0.2, delete=0.2), privacy_level=2,
)


def replay(workload) -> tuple[dict[tuple[str, str], bytes], set]:
    """The bytes each surviving file must hold, and the deleted files."""
    size = ChunkSizePolicy().chunk_size(workload.spec.privacy_level)
    files: dict[tuple[str, str], list[bytes]] = {}
    deleted = set()
    for op in workload.setup + workload.operations:
        key = (op.tenant, op.filename)
        if op.kind == "put":
            data = op.payload()
            files[key] = [data[i : i + size] for i in range(0, len(data), size)]
        elif op.kind == "update":
            files[key][op.serial] = op.payload()
        elif op.kind == "delete":
            del files[key]
            deleted.add(key)
    return {key: b"".join(chunks) for key, chunks in files.items()}, deleted


@pytest.fixture
def gateway():
    gw = make_gateway(make_base_registry())
    yield gw
    gw.close()


def test_trace_applied_through_the_target_reads_back_its_replay(gateway):
    workload = synthesize(SPEC, 40, seed=3)
    assert {op.kind for op in workload.operations} == set(OP_KINDS)
    target = GatewayTarget(gateway)
    run_setup(target, workload)
    for op in workload.operations:
        target.apply(op)

    expected, deleted = replay(workload)
    assert deleted
    for (tenant, filename), data in expected.items():
        assert gateway.get_file(tenant, target.password, filename) == data
    for tenant, filename in deleted:
        with pytest.raises(UnknownFileError):
            gateway.get_file(tenant, target.password, filename)
    for tenant in workload.tenants:
        assert sorted(gateway.list_files(tenant, target.password)) == sorted(
            name for t, name in expected if t == tenant
        )


def test_same_seed_gives_the_same_trace_digest():
    assert (
        synthesize(SPEC, 40, seed=3).trace_digest()
        == synthesize(SPEC, 40, seed=3).trace_digest()
    )
    assert (
        synthesize(SPEC, 40, seed=3).trace_digest()
        != synthesize(SPEC, 40, seed=4).trace_digest()
    )
