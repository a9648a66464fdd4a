"""Apply a synthesized trace to a :class:`~repro.fleet.gateway.FleetGateway`.

The end-to-end benchmark's open-loop workload (``benchmarks/e2e/``)
drives the fleet through this adapter: :func:`run_setup` registers the
trace's tenants and stores its initial files, and
:meth:`GatewayTarget.apply` turns each traced operation into one
gateway call.
"""

from __future__ import annotations

from repro.loadgen.workload import Operation, Workload


class GatewayTarget:
    """Drive a :class:`~repro.fleet.gateway.FleetGateway` in-process."""

    def __init__(self, gateway, password: str = "load-pw") -> None:
        self.gateway = gateway
        self.password = password
        self.level = None

    def prepare(self, workload: Workload) -> None:
        self.level = workload.spec.privacy_level
        for tenant in workload.tenants:
            self.gateway.register_tenant(tenant)
            self.gateway.add_tenant_password(tenant, self.password, self.level)

    def apply(self, op: Operation) -> None:
        g, pw = self.gateway, self.password
        if op.kind == "put":
            g.upload_file(
                op.tenant, pw, op.filename, op.payload(), self.level
            )
        elif op.kind == "get":
            g.get_file(op.tenant, pw, op.filename)
        elif op.kind == "update":
            g.update_chunk(op.tenant, pw, op.filename, op.serial, op.payload())
        elif op.kind == "delete":
            g.remove_file(op.tenant, pw, op.filename)
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")


def run_setup(target: GatewayTarget, workload: Workload) -> None:
    """Register tenants and store the initial file population (untimed)."""
    target.prepare(workload)
    for op in workload.setup:
        target.apply(op)
