"""Seeded multi-tenant traces and the adapter that applies them to a fleet.

:mod:`repro.loadgen.workload` synthesizes a deterministic trace (zipfian
file popularity, a put/get/update/delete mix); :mod:`repro.loadgen.target`
applies its operations to a ``FleetGateway``.  The open-loop driver that
replays a trace at a fixed rate is ``benchmarks/e2e/openloop.py``.
"""

from repro.loadgen.target import GatewayTarget, run_setup
from repro.loadgen.workload import (
    Operation,
    OpMix,
    Workload,
    WorkloadSpec,
    synthesize,
)

__all__ = [
    "GatewayTarget",
    "Operation",
    "OpMix",
    "Workload",
    "WorkloadSpec",
    "run_setup",
    "synthesize",
]
