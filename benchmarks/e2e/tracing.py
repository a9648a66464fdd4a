"""Per-layer spans recorded from outside the program.

Nothing under ``src/`` knows about this file.  :func:`install` wraps the
public functions at each layer boundary at run time -- methods on their
class, module-level functions in every module that imported them by
name -- and :func:`uninstall` puts every original back.  Each call
becomes a span ``{id, name, layer, start, end, parent, thread, op,
bytes, items}`` kept in memory until the run ends.

A span's *parent* is the span that caused it.  On one thread that is the
enclosing call.  Across threads three causal links are followed: work
submitted to a ``ThreadPoolExecutor`` (the distributor's transport
fan-out) belongs to the call that submitted it; a backend provider call
made by a chunk-server thread belongs to the client ``RemoteProvider``
call in flight for the same provider name; and any other span on a helper
thread (the streaming pipeline) belongs to the distributor call in flight
-- unambiguous on the single-client workloads, while on the fleet
workload only the first link occurs.

Self time is the time a span is open with no child open: its duration
minus the part of that interval its children cover.  Where several spans
of one operation are in that state at once (fanned-out provider calls on
pool threads) each instant is split equally among them, so self times add
up to operation wall exactly.  A layer's ``busy_s`` is the sum of its
spans' self times.  ``wire`` and ``provider`` also report a *blocking
share*: the fraction of operation wall during which at least one of their
spans was open, which is what a faster layer could at most save.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HARNESS_DIR = Path(__file__).resolve().parent

ROOT_LAYER = "op"


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "thread",
                 "op", "nbytes", "items")

    def __init__(self, id, name, layer, start, end, parent, thread, op,
                 nbytes=0, items=0):
        self.id = id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.op = op
        self.nbytes = nbytes
        self.items = items

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        # Recorded as bare tuples in Span's field order (the hot path pays
        # for no constructor); ``spans`` turns them into Span objects.
        self._records: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # provider name -> open-span link of the RemoteProvider call in
        # flight; the backend call it causes runs on a server thread.
        self._open_wire: dict[str, tuple] = {}
        # Open-span stack of the thread whose root operation opened last.
        self._root_stack: list | None = None
        self._patched: list[tuple[object, str, object, bool]] = []

    @property
    def spans(self) -> list[Span]:
        return [Span(*record) for record in self._records]

    # -- recording ---------------------------------------------------------
    #
    # Each thread keeps a stack of open-span links ``(span id, op id,
    # anchor)``; *anchor* marks the spans helper threads may attach to
    # (operations and distributor calls -- never a short leaf that merely
    # happened to be open when the helper started).

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt(self, layer: str, owner) -> tuple[int, int]:
        """(parent, op) for a span that starts on a thread with no open span."""
        if layer == "provider":
            link = self._open_wire.get(getattr(owner, "name", None))
            if link is not None:
                return link[0], link[1]
        for link in (self._root_stack or ())[::-1]:
            if link[2]:
                return link[0], link[1]
        return 0, 0

    @contextlib.contextmanager
    def op(self, kind: str):
        """Root span around one timed operation of the harness."""
        sid = next(self._ids)
        stack = self._stack()
        stack.append((sid, sid, True))
        self._root_stack = stack
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if self._root_stack is stack:
                self._root_stack = None
            self._records.append(
                (sid, kind, ROOT_LAYER, start, end, 0, threading.get_ident(), sid)
            )

    def wrap(self, fn, layer: str, name: str, measure=None):
        """A recording stand-in for *fn* (same signature and result)."""
        records = self._records
        ids = self._ids
        get_ident = threading.get_ident
        is_wire = layer == "wire"
        anchor = layer == "distributor"
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            if stack:
                parent, op, _ = stack[-1]
            else:
                parent, op = self._adopt(layer, args[0] if args else None)
            link = (sid, op, anchor)
            stack.append(link)
            if is_wire:
                self._open_wire[args[0].name] = link
            nbytes = items = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    nbytes, items = measure(args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if is_wire:
                    self._open_wire.pop(args[0].name, None)
                records.append(
                    (sid, name, layer, start, end, parent, get_ident(), op,
                     nbytes, items)
                )

        return traced

    def wrap_submit(self, submit):
        """Stand-in for ``ThreadPoolExecutor.submit`` that carries the
        submitting thread's innermost open span to the pool thread, so a
        fanned-out provider call is a child of the call that fanned out."""

        def traced_submit(executor, fn, /, *args, **kwargs):
            stack = self._stack()
            if not stack:
                return submit(executor, fn, *args, **kwargs)
            link = stack[-1]

            def run(*a, **k):
                pool_stack = self._stack()
                pool_stack.append(link)
                try:
                    return fn(*a, **k)
                finally:
                    pool_stack.pop()

            return submit(executor, run, *args, **kwargs)

        return traced_submit

    def wrap_generator(self, fn, layer: str, name: str):
        """Like :meth:`wrap` for a function returning a generator: one
        span for the eager call, then one per resumption, so the
        consumer's time between yields is never charged to the layer."""
        eager = self.wrap(fn, layer, name)
        step = self.wrap(next, layer, name)

        def traced(*args, **kwargs):
            gen = eager(*args, **kwargs)

            def resume():
                while True:
                    try:
                        item = step(gen)
                    except StopIteration:
                        return
                    yield item

            return resume()

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def patch_method(self, cls, attr: str, layer: str, measure=None,
                     generator: bool = False) -> None:
        original = getattr(cls, attr)
        name = f"{layer}.{attr}"
        wrapped = (
            self.wrap_generator(original, layer, name)
            if generator
            else self.wrap(original, layer, name, measure)
        )
        self._patch(cls, attr, wrapped)

    def patch_function(self, module, attr: str, layer: str, measure=None) -> None:
        """Wrap ``module.attr`` and rebind it wherever it was imported by
        name (``from m import f`` copies the reference, so patching only
        the defining module would miss those callers)."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, layer, f"{layer}.{attr}", measure)
        for mod in list(sys.modules.values()):
            if not _is_ours(mod):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, alias, wrapped)

    def uninstall(self) -> None:
        """Put every patched attribute back exactly as it was."""
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()


def _is_ours(mod) -> bool:
    """The program's modules plus the harness's own."""
    name = getattr(mod, "__name__", "")
    if name == "repro" or name.startswith("repro."):
        return True
    file = getattr(mod, "__file__", None)
    return bool(file) and Path(file).resolve().parent == HARNESS_DIR


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


def _len_first(args, result):
    return len(args[0]), 1


def _len_payload(args, result):
    return len(args[1]), 1


def _injected(args, result):
    return len(result.positions), 1


def _removed(args, result):
    return len(args[1]), 1


def _batch_bytes(values) -> int:
    return sum(len(v) for v in values if isinstance(v, (bytes, bytearray, memoryview)))


_PROVIDER_MEASURES = {
    "put": lambda args, result: (len(args[2]), 1),
    "get": lambda args, result: (len(result), 1),
    "put_many": lambda args, result: (_batch_bytes(d for _, d in args[1]), len(args[1])),
    "get_many": lambda args, result: (_batch_bytes(result), len(args[1])),
    "delete": lambda args, result: (0, 1),
    "head": lambda args, result: (0, 1),
}
_PROVIDER_MEASURES["put_stream"] = _PROVIDER_MEASURES["put_many"]
_PROVIDER_MEASURES["get_stream"] = _PROVIDER_MEASURES["get_many"]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the README's table names."""
    from repro.core import chunking, misleading, persistence
    from repro.core.access_control import AccessController
    from repro.core.distributor import CloudDataDistributor
    from repro.core.journal import IntentJournal
    from repro.core.placement import PlacementPolicy
    from repro.core.virtual_id import VirtualIdAllocator
    from repro.fleet.gateway import FleetGateway
    from repro.health.monitor import HealthMonitor
    from repro.net.remote import RemoteProvider
    from repro.providers import base
    from repro.providers.disk import DiskProvider
    from repro.providers.memory import InMemoryProvider
    from repro.raid.codecs import AontRSCodec, ErasureCodec, RaidCodec, RSStripeCodec

    for attr in ("split", "read_into", "join"):
        tracer.patch_function(chunking, attr, "chunking")
    tracer.patch_function(misleading, "inject", "misleading", _injected)
    tracer.patch_function(misleading, "remove", "misleading", _removed)
    tracer.patch_function(base, "blob_checksum", "checksum", _len_first)
    tracer.patch_function(persistence, "save_metadata", "persistence")

    tracer.patch_method(ErasureCodec, "encode", "codec", _len_payload)
    for cls in (RaidCodec, RSStripeCodec, AontRSCodec):
        for attr in ("decode", "rebuild"):
            tracer.patch_method(cls, attr, "codec")
    for attr in ("stripe_group", "candidates", "max_stripe_width"):
        tracer.patch_method(PlacementPolicy, attr, "placement")
    tracer.patch_method(VirtualIdAllocator, "allocate", "placement")
    for attr in ("state", "is_usable", "record_success", "record_failure"):
        tracer.patch_method(HealthMonitor, attr, "health")
    for attr in ("authenticate", "is_authorized"):
        tracer.patch_method(AccessController, attr, "access")
    for attr in ("begin", "extend", "commit", "abort", "checkpoint"):
        tracer.patch_method(IntentJournal, attr, "journal")
    for attr in ("put", "get", "put_many", "get_many", "put_stream",
                 "get_stream", "delete"):
        tracer.patch_method(RemoteProvider, attr, "wire", _PROVIDER_MEASURES[attr])
    for cls in (InMemoryProvider, DiskProvider):
        for attr in ("put", "get", "put_many", "get_many", "delete", "head"):
            tracer.patch_method(cls, attr, "provider", _PROVIDER_MEASURES[attr])
    for attr in ("upload_file", "get_file", "update_chunk", "remove_file"):
        tracer.patch_method(FleetGateway, attr, "fleet")
    for attr in ("upload_file", "get_file", "put_stream", "update_chunk",
                 "remove_file"):
        tracer.patch_method(CloudDataDistributor, attr, "distributor")
    tracer.patch_method(CloudDataDistributor, "get_stream", "distributor",
                        generator=True)
    tracer._patch(
        ThreadPoolExecutor, "submit",
        tracer.wrap_submit(ThreadPoolExecutor.submit),
    )


# ---------------------------------------------------------------------------
# arithmetic over finished spans
# ---------------------------------------------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by *intervals* (overlaps counted once)."""
    total = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        if end <= edge:
            continue
        total += end - max(start, edge)
        edge = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """``span id -> seconds it was open with no child open``.

    On one thread that is the span's duration minus what its children
    cover.  Where the children of one operation run side by side on pool
    threads, each instant is divided equally among the spans that are
    innermost at that instant, so the self times of an operation's spans
    add up to its wall time exactly -- under the interpreter lock the
    threads share one processor in just that way.
    """
    by_op: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_op[s.op].append(s)
    out: dict[int, float] = {}
    for group in by_op.values():
        _sweep(group, out)
    return out


def _sweep(group: list[Span], out: dict[int, float]) -> None:
    """Self times of one operation's spans, by a sweep over their edges."""
    ids = {s.id for s in group}
    root = next((s for s in group if s.layer == ROOT_LAYER), None)
    events = []
    for s in group:
        out[s.id] = 0.0
        start, end = s.start, s.end
        if root is not None:
            # Clip to the operation: a helper thread may finish a hair
            # after the call that caused it returned.
            start, end = max(start, root.start), min(end, root.end)
        if end > start:
            events.append((start, 1, s))
            events.append((end, 0, s))
    events.sort(key=lambda e: e[:2])

    is_open: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    innermost_since: dict[int, float] = {}  # span id -> credit when it became so
    credit = 0.0  # integral of dt / (spans innermost at that instant)
    last = 0.0

    def enter(sid: int) -> None:
        innermost_since[sid] = credit

    def leave(sid: int) -> None:
        out[sid] += credit - innermost_since.pop(sid)

    for at, starting, s in events:
        if innermost_since:
            credit += (at - last) / len(innermost_since)
        last = at
        parent = s.parent if s.parent in ids else 0
        if starting:
            is_open.add(s.id)
            if parent:
                open_children[parent] += 1
                if parent in innermost_since:
                    leave(parent)
            if not open_children[s.id]:
                enter(s.id)
        else:
            is_open.discard(s.id)
            if s.id in innermost_since:
                leave(s.id)
            if parent:
                open_children[parent] -= 1
                if not open_children[parent] and parent in is_open:
                    enter(parent)


def blocking_share(spans: list[Span], layer: str) -> float:
    """Fraction of operation wall with at least one *layer* span open."""
    roots = {s.id: s for s in spans if s.layer == ROOT_LAYER}
    wall = sum(r.duration for r in roots.values())
    if not wall:
        return 0.0
    per_op: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        root = roots.get(s.op)
        if s.layer == layer and root is not None:
            start, end = max(s.start, root.start), min(s.end, root.end)
            if end > start:
                per_op[root.id].append((start, end))
    return sum(union_length(v) for v in per_op.values()) / wall


def layer_metrics(spans: list[Span], chunks_moved: int) -> dict[str, float]:
    """The span-derived per-layer metrics, by the names BENCHMARK.json uses.

    Only spans inside an operation count (``op`` != 0): the harness's own
    untimed calls -- populating, reading bytes at rest -- are not the
    program's work on any request.
    """
    spans = [s for s in spans if s.op]
    selfs = self_times(spans)
    degraded_ops = {
        s.id for s in spans if s.layer == ROOT_LAYER and s.name == "degraded_get"
    }
    # One pass: totals per layer; codec spans also per call name, with the
    # decodes of degraded reads kept apart from those of healthy ones.
    busy: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    nbytes: dict = defaultdict(int)
    items: dict = defaultdict(int)
    layer_of = {s.id: s.layer for s in spans}
    for s in spans:
        keys = [s.layer]
        if s.layer == "codec":
            keys.append(s.name + "/degraded" if s.op in degraded_ops else s.name)
        # A call its own layer made -- the inherited ``put_many`` looping
        # over ``put`` -- is the same work seen twice: its time is already
        # split by the self times, its bytes and calls count once, at the
        # outermost call.
        nested = layer_of.get(s.parent) == s.layer
        for key in keys:
            busy[key] += selfs[s.id]
            if not nested:
                calls[key] += 1
                nbytes[key] += s.nbytes
                items[key] += s.items

    per_chunk = max(chunks_moved, 1)
    op_wall = sum(s.duration for s in spans if s.layer == ROOT_LAYER)
    dist_self = busy["distributor"]
    return {
        "chunking.busy_s": busy["chunking"],
        "chunking.calls": calls["chunking"],
        "misleading.busy_s": busy["misleading"],
        "misleading.bytes": nbytes["misleading"],
        "codec.encode_s": busy["codec.encode"],
        "codec.decode_s": busy["codec.decode"],
        "codec.degraded_decode_s": busy["codec.decode/degraded"],
        "codec.encode_bytes": nbytes["codec.encode"],
        "codec.calls": calls["codec"],
        "checksum.busy_s": busy["checksum"],
        "checksum.calls": calls["checksum"],
        "checksum.bytes": nbytes["checksum"],
        "checksum.calls_per_chunk": calls["checksum"] / per_chunk,
        "placement.busy_s": busy["placement"],
        "placement.calls": calls["placement"],
        "placement.calls_per_chunk": calls["placement"] / per_chunk,
        "health.busy_s": busy["health"],
        "health.calls": calls["health"],
        "access.busy_s": busy["access"],
        "access.calls": calls["access"],
        "journal.busy_s": busy["journal"],
        "journal.calls": calls["journal"],
        "persistence.save_s": busy["persistence"],
        "wire.busy_s": busy["wire"],
        "wire.calls": calls["wire"],
        "wire.bytes": nbytes["wire"],
        "wire.items_per_call": items["wire"] / calls["wire"] if calls["wire"] else 0.0,
        "wire.blocking_share": blocking_share(spans, "wire"),
        "provider.busy_s": busy["provider"],
        "provider.calls": calls["provider"],
        "provider.bytes": nbytes["provider"],
        "provider.blocking_share": blocking_share(spans, "provider"),
        "fleet.self_s": busy["fleet"],
        "fleet.calls": calls["fleet"],
        "distributor.self_s": dist_self,
        "distributor.ops": len({s.op for s in spans if s.layer == "distributor"}),
        "distributor.self_us_per_chunk": dist_self * 1e6 / per_chunk,
        "trace.op_wall_s": op_wall,
        "trace.coverage": 1.0 - dist_self / op_wall if op_wall else 0.0,
        "trace.spans": len(spans),
    }
