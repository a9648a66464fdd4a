"""Deterministic crash injection for durability testing.

A *kill point* is a named location in a write path where a power cut would
leave interestingly-torn on-disk state: between a tmp-file write and its
rename, between an intent journal record and the transfer it covers,
between a blob rename and its legacy-sidecar cleanup.  Production code
calls :func:`crashpoint` at each of them; the call is a no-op until a test
installs a hook, which then simulates the crash by raising
:class:`CrashPoint` from exactly the chosen point.

``CrashPoint`` derives from :class:`BaseException` on purpose: the library
catches ``ProviderError``/``Exception`` liberally on its cleanup paths, and
a simulated power cut must tear straight through all of that the way a real
one would.  Only the test harness ever catches it.

The set of kill points is a static registry (:data:`KILL_POINTS`) so the
crash-injection suite can assert it crashes at *every* one of them.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

#: Every named kill point in the tree.  ``crashpoint`` refuses names outside
#: this set, so a typo in production code fails loudly in tier-1 instead of
#: silently never firing during crash tests.
KILL_POINTS: frozenset[str] = frozenset(
    {
        # repro.util.atomic -- the fsync-disciplined replace
        "atomic.tmp_written",  # tmp file written, not yet fsynced/renamed
        "atomic.renamed",  # renamed over the target, directory not fsynced
        # repro.providers.disk -- blob put
        "disk.put.start",  # nothing written yet
        "disk.put.committed",  # record renamed in, legacy sidecar not removed
        # repro.core.journal -- write-ahead intent journal
        "journal.append.torn",  # half a record written (torn tail line)
        "journal.appended",  # record durable, caller not yet resumed
        # repro.core.distributor -- upload
        "upload.intent_logged",  # intent durable, no shard transferred
        "upload.transferred",  # every shard stored, commit record missing
        "upload.committed",  # commit durable, metadata snapshot stale
        # repro.core.distributor -- remove
        "remove.intent_logged",  # intent durable, every shard still present
        "remove.partial",  # after each window of chunks: some gone, some not
        "remove.committed",  # commit durable, metadata snapshot stale
        # repro.core.distributor -- update (copy-on-write swap)
        "update.intent_logged",  # intent durable, no staged shard written
        "update.staged",  # new stripe + snapshot keys listed, not swapped
        "update.committed",  # commit durable, metadata snapshot stale
        # repro.fleet.rebalance -- cross-shard file migration
        "fleet.migrate.planned",  # plan record durable, nothing moved yet
        "fleet.migrate.copied",  # file live on both source and destination
        "fleet.migrate.removed",  # source copy gone, done record not written
    }
)

_hook: Callable[[str], None] | None = None
_lock = threading.Lock()


class CrashPoint(BaseException):
    """Simulated power cut, raised from a named kill point."""

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at kill point {point!r}")
        self.point = point


def crashpoint(name: str) -> None:
    """Mark a kill point; raises :class:`CrashPoint` if a hook says so.

    Free when no hook is installed (one global read), so production paths
    keep it unconditionally.
    """
    if _hook is None:
        return
    if name not in KILL_POINTS:
        raise AssertionError(f"unregistered kill point {name!r}")
    _hook(name)


def install_crash_hook(hook: Callable[[str], None] | None) -> None:
    """Install (or with ``None`` remove) the process-wide crash hook."""
    global _hook
    with _lock:
        _hook = hook


@contextmanager
def crashing_at(point: str, after: int = 0) -> Iterator[list[str]]:
    """Context that raises :class:`CrashPoint` at the *after*-th hit of
    *point* (0 = first), recording every kill point reached on the way.

    Yields the list of reached point names (useful for asserting coverage).
    Always uninstalls the hook on exit, even when the crash propagates.
    """
    if point not in KILL_POINTS:
        raise AssertionError(f"unregistered kill point {point!r}")
    reached: list[str] = []
    remaining = [after]

    def hook(name: str) -> None:
        reached.append(name)
        if name == point:
            if remaining[0] == 0:
                raise CrashPoint(name)
            remaining[0] -= 1

    install_crash_hook(hook)
    try:
        yield reached
    finally:
        install_crash_hook(None)
