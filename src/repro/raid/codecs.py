"""Pluggable erasure codecs: parseable specs + a uniform encode/decode API.

The distributor, scrubber, fsck, availability math, fleet, and CLI all
consume stripes through :class:`ErasureCodec` -- ``encode(payload) ->
(meta, shards)``, ``decode(meta, shards)``, ``rebuild(meta, index,
shards)`` -- instead of switching on the ``RaidLevel`` enum.  A codec is
named by a :class:`CodecSpec` with the grammar::

    spec     := raid-spec | rs-spec
    raid-spec := ("raid0" | "raid1" | "raid5" | "raid6") ["@" WIDTH]
    rs-spec  := ("rs" | "aont-rs") "(" K "," M ")"

Examples: ``raid5``, ``raid6@5``, ``rs(6,3)``, ``aont-rs(4,2)``.

Families
--------

* ``raid0/1/5/6`` -- the legacy stripe layouts.  Width is chosen at
  upload time (or pinned with ``@width``); (k, m) derive from it.  The
  ``raid6`` family pins the *legacy Vandermonde-derived* RS generator so
  parity bytes -- and the shard checksums recorded next to them -- stay
  rebuildable byte-exactly across codec generations.
* ``rs(k,m)`` -- general systematic Reed-Solomon: k data + m parity
  shards over k+m providers, any m losses survivable.  Uses the Cauchy
  generator (every erasure pattern provably decodable).
* ``aont-rs(k,m)`` -- all-or-nothing transform over the chunk, then
  ``rs(k,m)`` over the package: any shard subset below k reveals
  *nothing* (not even partial plaintext), keylessly.  See
  :mod:`repro.raid.aont`.

Serialization
-------------

``StripeMeta.codec`` stores the family label exactly as the legacy chunk
table stored ``RaidLevel.value`` (``"raid5"``...), so pre-codec metadata
round-trips bidirectionally; the new families serialize as their spec
string (``"rs(6,3)"``).  :func:`stripe_meta_from_fields` is the single
deserialization choke point -- it raises :class:`UnknownCodecError`
(typed, carrying filename/virtual id) instead of a bare ``ValueError``,
so metadata loaders quarantine the one bad chunk instead of dying.
:class:`PackedChunk` is the one place that knows the layout of the packed
per-chunk row those fields travel in.
"""

from __future__ import annotations

import itertools
import re
import time
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.chunking import equal_length_runs
from repro.core.errors import ReconstructionError, UnknownCodecError
from repro.obs.metrics import get_metrics
from repro.raid.aont import AONT_OVERHEAD, aont_unwrap, aont_wrap
from repro.raid.parity import recover_with_parity, xor_parity
from repro.raid.striping import RaidLevel, StripeMeta, _rs_code

#: The XOR family encodes a window in slabs of at most this many chunks
#: and about this many payload bytes, so a window of large chunks is
#: never copied whole.
XOR_SLAB_ROWS = 256
XOR_SLAB_BYTES = 1 << 20

RAID_FAMILIES = ("raid0", "raid1", "raid5", "raid6")
RS_FAMILIES = ("rs", "aont-rs")

_RAID_RE = re.compile(r"^(raid[0156])(?:@(\d+))?$")
_RS_RE = re.compile(r"^(rs|aont-rs)\(\s*(\d+)\s*,\s*(\d+)\s*\)$")


@dataclass(frozen=True)
class CodecSpec:
    """A parsed codec name: family plus optional (k, m) or pinned width."""

    family: str
    k: int | None = None
    m: int | None = None
    width: int | None = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def parse(
        cls,
        text: str,
        *,
        filename: str | None = None,
        virtual_id: int | None = None,
    ) -> "CodecSpec":
        """Parse a spec string; raises :class:`UnknownCodecError` on failure."""
        raw = str(text).strip().lower()
        match = _RAID_RE.match(raw)
        if match:
            family, width = match.group(1), match.group(2)
            spec = cls(family=family, width=int(width) if width else None)
            level = RaidLevel(family)
            if spec.width is not None and spec.width < level.min_width:
                raise UnknownCodecError(
                    f"codec {raw!r}: {family} needs width >= {level.min_width}",
                    spec=raw,
                    filename=filename,
                    virtual_id=virtual_id,
                )
            return spec
        match = _RS_RE.match(raw)
        if match:
            family, k, m = match.group(1), int(match.group(2)), int(match.group(3))
            if k < 1 or m < 0 or k + m > 256:
                raise UnknownCodecError(
                    f"codec {raw!r}: need k >= 1, m >= 0, k+m <= 256",
                    spec=raw,
                    filename=filename,
                    virtual_id=virtual_id,
                )
            if family == "aont-rs" and k < 2:
                raise UnknownCodecError(
                    f"codec {raw!r}: aont-rs needs k >= 2 (k=1 puts the whole "
                    "package on one provider, defeating the transform)",
                    spec=raw,
                    filename=filename,
                    virtual_id=virtual_id,
                )
            return cls(family=family, k=k, m=m)
        raise UnknownCodecError(
            f"unknown codec spec {raw!r} (expected raid0|raid1|raid5|raid6"
            "[@WIDTH], rs(K,M), or aont-rs(K,M))",
            spec=raw,
            filename=filename,
            virtual_id=virtual_id,
        )

    @classmethod
    def coerce(cls, value: "CodecSpec | RaidLevel | str") -> "CodecSpec":
        """Accept a spec, a RaidLevel, or a spec string."""
        if isinstance(value, CodecSpec):
            return value
        if isinstance(value, RaidLevel):
            return cls(family=value.value)
        return cls.parse(value)

    # -- introspection --------------------------------------------------------

    def canonical(self) -> str:
        if self.family in RS_FAMILIES:
            return f"{self.family}({self.k},{self.m})"
        if self.width is not None:
            return f"{self.family}@{self.width}"
        return self.family

    @property
    def raid_level(self) -> RaidLevel | None:
        if self.family in RAID_FAMILIES:
            return RaidLevel(self.family)
        return None

    @property
    def fixed_width(self) -> int | None:
        """The stripe width this spec forces, or None if chosen at upload."""
        if self.family in RS_FAMILIES:
            return self.k + self.m  # type: ignore[operator]
        return self.width

    @property
    def min_width(self) -> int:
        if self.family in RS_FAMILIES:
            return self.k + self.m  # type: ignore[operator]
        return RaidLevel(self.family).min_width

    def instantiate(self, width: int | None = None) -> "ErasureCodec":
        """Build the codec, resolving the stripe width.

        RS-family specs carry their own width (k+m); raid families take it
        from the spec's ``@width`` pin or the *width* argument.
        """
        if self.family in RS_FAMILIES:
            if width is not None and width != self.k + self.m:  # type: ignore[operator]
                raise ValueError(
                    f"{self.canonical()} fixes width at {self.k + self.m}, "  # type: ignore[operator]
                    f"got {width}"
                )
            if self.family == "rs":
                return RSStripeCodec(self.k, self.m)  # type: ignore[arg-type]
            return AontRSCodec(self.k, self.m)  # type: ignore[arg-type]
        resolved = self.width if self.width is not None else width
        if resolved is None:
            raise ValueError(f"{self.canonical()} needs a stripe width")
        if self.width is not None and width is not None and width != self.width:
            raise ValueError(
                f"{self.canonical()} pins width {self.width}, got {width}"
            )
        return RaidCodec(RaidLevel(self.family), resolved)


class ErasureCodec:
    """Uniform stripe codec API the whole stack consumes.

    Subclasses set ``label`` (the family string stored in
    ``StripeMeta.codec``), ``k``/``m``/``n``, and implement ``_encode``,
    ``decode``, and ``rebuild``.  ``encode`` wraps ``_encode`` with the
    shared metrics so every codec reports ``raid_encode_*`` uniformly.
    """

    label: str
    k: int
    m: int

    @property
    def n(self) -> int:
        return self.k + self.m

    @property
    def raid_level(self) -> RaidLevel | None:
        """The RaidLevel for raid-family codecs, None otherwise."""
        return None

    @property
    def spec(self) -> CodecSpec:
        return CodecSpec.parse(self.label)

    # -- API ------------------------------------------------------------------

    def encode(
        self, payload: "bytes | memoryview"
    ) -> tuple[StripeMeta, list[bytes]]:
        """Encode *payload* into (meta, shards); shards are independent bytes."""
        (meta,), shards = self.encode_window([payload])
        return meta, shards

    def encode_window(
        self, payloads: "Sequence[bytes | memoryview] | np.ndarray"
    ) -> tuple[list[StripeMeta], list[bytes]]:
        """Encode a window as two columns: each payload's stripe, and every
        shard, stripe after stripe (n a stripe, member order).

        *payloads* may also be a 2-D ``uint8`` array, one payload a row
        (a run of :func:`repro.core.misleading.inject_runs`).  Payloads of
        one length may share one :class:`StripeMeta` object.
        ``raid_encode_seconds`` observes once per call; the byte counter
        advances by every payload's length.
        """
        t0 = time.perf_counter()
        metas, shards = self._encode_window(payloads)
        metrics = get_metrics()
        metrics.histogram("raid_encode_seconds", codec=self.label).observe(
            time.perf_counter() - t0
        )
        metrics.counter("raid_encode_bytes_total", codec=self.label).inc(
            payloads.size if isinstance(payloads, np.ndarray) else sum(map(len, payloads))
        )
        return metas, shards

    def _encode_window(
        self, payloads: "Sequence[bytes | memoryview] | np.ndarray"
    ) -> tuple[list[StripeMeta], list[bytes]]:
        metas: list[StripeMeta] = []
        shards: list[bytes] = []
        for payload in payloads:
            meta, encoded = self._encode(payload)
            metas.append(meta)
            shards += encoded
        return metas, shards

    def _encode(
        self, payload: "bytes | memoryview"
    ) -> tuple[StripeMeta, list[bytes]]:
        raise NotImplementedError

    def decode(self, meta: StripeMeta, shards: dict[int, bytes]) -> bytes:
        """Reassemble the payload from >= k stripe members."""
        raise NotImplementedError

    #: Is a stripe's payload its k data members joined (zero padding
    #: aside)?  Then a stripe read whole from them needs no decode.
    systematic = False

    def decode_data(
        self,
        metas: "Sequence[StripeMeta]",
        shards: "Sequence[bytes]",
        members: "Sequence[int]",
    ) -> "Iterator[tuple[int, bytes | bytearray]]":
        """:meth:`decode` for a window of stripes, each from k members,
        data or parity, as slabs: *shards* holds the members, stripe after
        stripe, and *members* each one's member index.  A stripe's shard i
        is its data member i if it has that member, else another member
        (parity) standing in for it.

        The window goes a slab of about ``XOR_SLAB_BYTES`` at a time, each
        decoded as the caller asks for it (so the read engine strips a slab
        before the next is decoded), and yielded as ``(stripes, buffer)``:
        row after row, each stripe's k shard sizes, its payload the row's
        first ``orig_len`` bytes (what :func:`repro.core.misleading.strip`
        reads).  A slab of a systematic codec whose members are all data
        members is the members joined (a stripe that fills a slab alone is
        joined with its tail trimmed first: one copy, just its payload);
        any other slab is :meth:`_decode_slab`'s, which may cut it further.
        ``raid_decode_seconds`` observes the decoding alone, once a call.
        """
        k, busy = self.k, 0.0
        step = max(1, XOR_SLAB_BYTES // max(1, k * metas[0].shard_size)) if metas else 1
        for start in range(0, len(metas), step):
            t0 = time.perf_counter()
            slab = metas[start : start + step]
            got = shards[start * k : (start + len(slab)) * k]
            held = members[start * k : (start + len(slab)) * k]
            if self.systematic and max(held) < k:
                buffer = self._join(got, slab[0].orig_len) if len(slab) == 1 else b"".join(got)
                parts = [(len(slab), buffer)]
            else:
                parts = self._decode_slab(slab, got, held)
            busy += time.perf_counter() - t0
            yield from parts
        get_metrics().histogram("raid_decode_seconds", codec=self.label).observe(busy)

    def _decode_slab(
        self,
        metas: "Sequence[StripeMeta]",
        shards: "Sequence[bytes]",
        members: "Sequence[int]",
    ) -> "list[tuple[int, bytes | bytearray]]":
        """:meth:`decode_data`'s slabs for stripes some of which hold a
        parity member (or any, for a codec that is not systematic): each
        stripe :meth:`decode` rebuilds a slab of its own, its payload alone
        (no copy past the decode's), and each run of stripes between them
        that hold their data members one join."""
        k, slabs, whole = self.k, [], 0  # stripes[whole:number] hold their data
        for number, meta in enumerate(metas):
            held = members[number * k : (number + 1) * k]
            if self.systematic and max(held) < k:
                continue
            if number > whole:
                slabs.append((number - whole, b"".join(shards[whole * k : number * k])))
            got = shards[number * k : (number + 1) * k]
            slabs.append((1, self.decode(meta, dict(zip(held, got)))))
            whole = number + 1
        if whole < len(metas):
            slabs.append((len(metas) - whole, b"".join(shards[whole * k :])))
        return slabs

    def rebuild(self, meta: StripeMeta, index: int, shards: dict[int, bytes]) -> bytes:
        """Regenerate the single shard *index* byte-exactly from survivors."""
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------

    @staticmethod
    def _split(
        payload: "bytes | memoryview", k: int
    ) -> tuple[int, int, list[bytes]]:
        """Split *payload* into k zero-padded data shards.

        Returns (orig_len, shard_size, shards).  Each byte is copied
        exactly once into its shard -- the streaming path passes slices of
        a reused window buffer, so shards must never alias the input.
        """
        view = memoryview(payload)
        orig_len = len(view)
        shard_size = -(-orig_len // k) if orig_len else 0
        shards = []
        for i in range(k):
            shard = bytes(view[i * shard_size : (i + 1) * shard_size])
            if len(shard) < shard_size:
                shard += b"\x00" * (shard_size - len(shard))
            shards.append(shard)
        view.release()
        return orig_len, shard_size, shards

    @staticmethod
    def _join(data: list[bytes], length: int) -> bytes:
        """The first *length* bytes of the concatenated shards: one join,
        with only the shard the payload ends in trimmed beforehand."""
        whole, tail = divmod(length, len(data[0]) or 1)
        if tail:
            return b"".join(data[:whole] + [data[whole][:tail]])
        return b"".join(data[:whole])

    @staticmethod
    def _require(meta: StripeMeta, shards: dict[int, bytes], k: int) -> None:
        if len(shards) < k:
            raise ReconstructionError(
                f"{meta.codec} stripe needs {k} shards, only "
                f"{len(shards)} available"
            )


class RaidCodec(ErasureCodec):
    """The legacy RAID-0/1/5/6 layouts behind the codec API.

    Byte-compatible with pre-codec stripes: RAID-6 parity still comes
    from the Vandermonde-derived generator (see
    :mod:`repro.raid.reed_solomon`), RAID-5 from XOR, RAID-1 from copies.
    """

    systematic = True

    def __init__(self, level: RaidLevel, width: int) -> None:
        self.level = level
        self.width = width
        self.k, self.m = level.shard_counts(width)
        self.label = level.value

    @property
    def raid_level(self) -> RaidLevel | None:
        return self.level

    def _meta(self, shard_size: int, orig_len: int) -> StripeMeta:
        return StripeMeta(
            codec=self.label,
            width=self.width,
            k=self.k,
            m=self.m,
            shard_size=shard_size,
            orig_len=orig_len,
        )

    def _encode_window(
        self, payloads: "Sequence[bytes | memoryview] | np.ndarray"
    ) -> tuple[list[StripeMeta], list[bytes]]:
        if self.level not in (RaidLevel.RAID0, RaidLevel.RAID5):
            return super()._encode_window(payloads)
        # The XOR family encodes each run of equal-length payloads as one
        # array operation, a bounded slab at a time.
        metas: list[StripeMeta] = []
        shards: list[bytes] = []
        for start, stop, length in equal_length_runs(
            payloads,
            lambda length: min(XOR_SLAB_ROWS, XOR_SLAB_BYTES // max(1, length)),
        ):
            meta = self._meta(-(-length // self.k), length)
            metas += [meta] * (stop - start)
            shards += self._encode_xor_slab(payloads[start:stop], meta)
        return metas, shards

    def _encode_xor_slab(
        self, payloads: "Sequence[bytes | memoryview] | np.ndarray", meta: StripeMeta
    ) -> list[bytes]:
        """The shards of a slab of payloads of *meta*'s length, striped
        (and for RAID-5, XORed), stripe after stripe."""
        rows, k, n = len(payloads), self.k, self.n
        length, shard_size = meta.orig_len, meta.shard_size
        if not length:
            return [b""] * (rows * n)
        # One (rows, n, shard_size) buffer: each payload lands in its row
        # once (zero padding after it; an array of rows in one assignment),
        # and RAID-5 parity fills the last plane.
        stripe = np.empty((rows, n * shard_size), dtype=np.uint8)
        stripe[:, length : k * shard_size] = 0
        if isinstance(payloads, np.ndarray):
            stripe[:, :length] = payloads
        else:
            for row, payload in enumerate(payloads):
                stripe[row, :length] = np.frombuffer(payload, dtype=np.uint8)
        planes = stripe.reshape(rows, n, shard_size)
        if self.m:
            np.bitwise_xor.reduce(planes[:, :k], axis=1, out=planes[:, k])
        # Every shard is one copy out of the buffer.
        view = memoryview(stripe.reshape(-1))
        return [
            bytes(view[offset : offset + shard_size])
            for offset in range(0, rows * n * shard_size, shard_size)
        ]

    def _encode(
        self, payload: "bytes | memoryview"
    ) -> tuple[StripeMeta, list[bytes]]:
        # RAID-1 and RAID-6; the XOR family never gets here.
        orig_len, shard_size, data_shards = self._split(payload, self.k)
        if self.level is RaidLevel.RAID1:
            parity = [bytes(data_shards[0]) for _ in range(self.m)]
        else:
            code = _rs_code(self.k, self.m, "vandermonde", self.label)
            parity = code.encode(data_shards) if shard_size else [b""] * self.m
        return self._meta(shard_size, orig_len), data_shards + parity

    def decode(self, meta: StripeMeta, shards: dict[int, bytes]) -> bytes:
        if meta.orig_len == 0:
            return b""
        self._require(meta, shards, meta.k)
        if self.level is RaidLevel.RAID1:
            # Every shard is a full copy.
            payload = next(iter(shards.values()))
            return payload[: meta.orig_len]
        have_data = [i for i in range(meta.k) if i in shards]
        if len(have_data) == meta.k:
            data = [shards[i] for i in range(meta.k)]
        elif self.level is RaidLevel.RAID5:
            # With k shards present and RAID5's single parity, at most one
            # data shard can be absent.
            recovered = recover_with_parity(
                [shards[i] for i in have_data], shards[meta.k]
            )
            data = [
                shards[i] if i in shards else recovered for i in range(meta.k)
            ]
        else:
            code = _rs_code(meta.k, meta.m, "vandermonde", self.label)
            data = code.decode(shards)
        return self._join(data, meta.orig_len)

    def _decode_slab(
        self,
        metas: "Sequence[StripeMeta]",
        shards: "Sequence[bytes]",
        members: "Sequence[int]",
    ) -> "list[tuple[int, bytes | bytearray]]":
        if self.level is not RaidLevel.RAID5:
            return super()._decode_slab(metas, shards, members)
        # RAID-5: a degraded stripe holds its parity in the slot of the data
        # member it lacks, and that member is the XOR of the k it holds --
        # one XOR for each run of one shard size, written into those slots.
        slab = bytearray().join(shards)
        k, grid, at, first = self.k, np.frombuffer(slab, np.uint8), 0, 0
        parity = list(itertools.compress(itertools.count(), map(k.__le__, members)))
        for size, run in itertools.groupby(metas, key=attrgetter("shard_size")):
            end = first + k * len(list(run))  # the run's slots
            slots = [slot - first for slot in parity if first <= slot < end]
            if size and slots:
                planes = grid[at : at + (end - first) * size].reshape(-1, k, size)
                lacking = [slot // k for slot in slots]
                planes[lacking, [slot % k for slot in slots]] = np.bitwise_xor.reduce(
                    planes[lacking], axis=1
                )
            at += (end - first) * size
            first = end
        return [(len(metas), slab)]

    def rebuild(self, meta: StripeMeta, index: int, shards: dict[int, bytes]) -> bytes:
        if meta.orig_len == 0:
            return b""
        if self.level is RaidLevel.RAID0:
            raise ReconstructionError("RAID0 has no redundancy to rebuild from")
        if self.level is RaidLevel.RAID1:
            if not shards:
                raise ReconstructionError("no surviving mirror copy")
            return next(iter(shards.values()))
        if self.level is RaidLevel.RAID5:
            others = {i: s for i, s in shards.items() if i != index}
            if len(others) < meta.k:
                raise ReconstructionError(
                    f"RAID5 rebuild needs {meta.k} surviving shards, "
                    f"got {len(others)}"
                )
            blocks = [others[i] for i in sorted(others)][: meta.k]
            # XOR of any k of the k+1 stripe members reproduces the missing one.
            return xor_parity(blocks)
        code = _rs_code(meta.k, meta.m, "vandermonde", self.label)
        return code.reconstruct_shard(index, shards)


class RSStripeCodec(ErasureCodec):
    """General systematic Reed-Solomon rs(k,m) with the Cauchy generator."""

    family = "rs"
    systematic = True

    def __init__(self, k: int, m: int) -> None:
        self.k = k
        self.m = m
        self.width = k + m
        self.label = f"{self.family}({k},{m})"
        self._code()  # validate parameters eagerly

    def _code(self):
        return _rs_code(self.k, self.m, "cauchy", self.label)

    def _encode(
        self, payload: "bytes | memoryview"
    ) -> tuple[StripeMeta, list[bytes]]:
        orig_len, shard_size, data_shards = self._split(payload, self.k)
        parity = (
            self._code().encode(data_shards) if shard_size else [b""] * self.m
        )
        meta = StripeMeta(
            codec=self.label,
            width=self.width,
            k=self.k,
            m=self.m,
            shard_size=shard_size,
            orig_len=orig_len,
        )
        return meta, data_shards + parity

    def decode(self, meta: StripeMeta, shards: dict[int, bytes]) -> bytes:
        if meta.orig_len == 0:
            return b""
        self._require(meta, shards, meta.k)
        return self._join(self._code().decode(shards), meta.orig_len)

    def rebuild(self, meta: StripeMeta, index: int, shards: dict[int, bytes]) -> bytes:
        if meta.orig_len == 0:
            return b""
        return self._code().reconstruct_shard(index, shards)


class AontRSCodec(RSStripeCodec):
    """All-or-nothing transform, then rs(k,m) over the package.

    ``encode`` wraps the chunk with :func:`repro.raid.aont.aont_wrap`
    (adding :data:`AONT_OVERHEAD` bytes) before striping, so any shard
    subset below k reveals nothing about the chunk -- keylessly.  Shard
    *rebuild* is pure RS algebra over the package: the scrubber
    regenerates lost shards byte-exactly without ever recovering (or
    being able to recover) the plaintext.  ``meta.orig_len`` records the
    original payload length; the package length is always
    ``orig_len + AONT_OVERHEAD``.
    """

    family = "aont-rs"
    systematic = False  # the data members carry the package, not the chunk

    def _encode(
        self, payload: "bytes | memoryview"
    ) -> tuple[StripeMeta, list[bytes]]:
        orig_len = len(payload)
        package = aont_wrap(payload)
        _, shard_size, data_shards = self._split(package, self.k)
        parity = self._code().encode(data_shards)
        meta = StripeMeta(
            codec=self.label,
            width=self.width,
            k=self.k,
            m=self.m,
            shard_size=shard_size,
            orig_len=orig_len,
        )
        return meta, data_shards + parity

    def decode(self, meta: StripeMeta, shards: dict[int, bytes]) -> bytes:
        self._require(meta, shards, meta.k)
        data = self._code().decode(shards)
        return aont_unwrap(self._join(data, meta.orig_len + AONT_OVERHEAD))

    def rebuild(self, meta: StripeMeta, index: int, shards: dict[int, bytes]) -> bytes:
        # The package is never empty (the masked key alone is 32 bytes),
        # so unlike the other codecs there is no orig_len == 0 shortcut:
        # rebuild real shard bytes even for empty payloads.
        return self._code().reconstruct_shard(index, shards)


def codec_for_meta(meta: StripeMeta) -> ErasureCodec:
    """The codec instance that encodes/decodes stripes with this metadata."""
    return _codec_for(meta.codec, meta.width)


@lru_cache(maxsize=64)
def _codec_for(codec: str, width: int) -> ErasureCodec:
    # Reads ask once per chunk; codecs hold no per-stripe state, so one
    # shared instance per (spec string, width) serves them all.
    return CodecSpec.parse(codec).instantiate(width)


def stripe_meta_from_fields(
    fields: Iterable[object],
    *,
    filename: str | None = None,
    virtual_id: int | None = None,
) -> StripeMeta:
    """Deserialize the packed ``(codec, width, k, m, shard_size, orig_len)``.

    The single choke point for chunk-table and journal stripe specs.
    Raises :class:`UnknownCodecError` (with *filename*/*virtual_id*
    context) for unparseable codec strings so callers can quarantine the
    entry instead of aborting the whole metadata load, and plain
    ``ValueError`` for structurally broken tuples.
    """
    packed = list(fields)
    if len(packed) < 6:
        raise ValueError(
            f"stripe spec needs 6 fields (codec, width, k, m, shard_size, "
            f"orig_len), got {len(packed)}"
        )
    codec_raw = packed[0]
    spec = CodecSpec.parse(
        str(codec_raw), filename=filename, virtual_id=virtual_id
    )
    meta = StripeMeta(
        codec=str(codec_raw).strip().lower(),
        width=int(packed[1]),  # type: ignore[call-overload]
        k=int(packed[2]),  # type: ignore[call-overload]
        m=int(packed[3]),  # type: ignore[call-overload]
        shard_size=int(packed[4]),  # type: ignore[call-overload]
        orig_len=int(packed[5]),  # type: ignore[call-overload]
    )
    fixed = spec.fixed_width
    if fixed is not None and meta.width != fixed:
        raise UnknownCodecError(
            f"codec {meta.codec!r} fixes width {fixed} but stripe spec "
            f"records width {meta.width}",
            spec=meta.codec,
            filename=filename,
            virtual_id=virtual_id,
        )
    return meta


@dataclass
class ChunkState:
    """What the distributor keeps of a stored chunk beyond the paper's
    Table III: its stripe, the rotation of its shard -> provider
    assignment, and each shard's end-to-end checksum at write time, so
    reads and the scrubber can detect silent corruption a provider never
    reports (``None`` for chunks imported from metadata snapshots that
    predate checksum tracking).  A checksum is the 32 raw bytes
    :func:`~repro.providers.base.blob_checksum` returns; the packed row
    (:class:`PackedChunk`) spells it in hex.
    """

    stripe: StripeMeta
    rotation: int
    shard_checksums: tuple[bytes, ...] | None = None


#: A packed row's checksums, joined: SHA-256 digests in lowercase hex.
_HEX_DIGESTS = re.compile(r"(?:[0-9a-f]{64})*")


class PackedChunk(NamedTuple):
    """The packed per-chunk row: ``metadata.json``'s ``chunk_state`` values
    and, as ``stripe``/``rotation``/``checksums``, a journal chunk spec.

    ``PackedChunk(*row)`` names a stored row's fields without judging
    them -- a 7-field row from before checksum tracking leaves
    ``checksums`` ``None`` -- so a row whose codec this build cannot parse
    (kept verbatim in the distributor's quarantine) still answers for its
    label, shard size and length; :meth:`unpack` is the parse that can
    refuse.  Nothing outside this class indexes a row.  The row is the
    stored form: its ``checksums`` are hex, and :meth:`pack` and
    :meth:`unpack` convert them from and to :class:`ChunkState`'s raw
    digests.
    """

    codec: object
    width: object
    k: object
    m: object
    shard_size: object
    orig_len: object
    rotation: object
    checksums: "Sequence[str] | None" = None

    @classmethod
    def pack(cls, state: ChunkState) -> "PackedChunk":
        stripe, checksums = state.stripe, state.shard_checksums
        return cls(
            stripe.codec, stripe.width, stripe.k, stripe.m,
            stripe.shard_size, stripe.orig_len, state.rotation,
            list(map(bytes.hex, checksums)) if checksums is not None else None,
        )

    def unpack(
        self, *, filename: str | None = None, virtual_id: int | None = None
    ) -> ChunkState:
        """Raises :class:`UnknownCodecError` (carrying *filename* and
        *virtual_id*) for a codec this build cannot parse, and
        ``ValueError`` for checksums that are not SHA-256 hex digests
        (a row's stripe is parsed first, so an unknown codec's row is
        refused as that, its checksums unjudged)."""
        stripe = stripe_meta_from_fields(self[:6], filename=filename, virtual_id=virtual_id)
        rotation = int(self.rotation)  # type: ignore[call-overload]
        checksums = self.checksums
        if checksums is not None:
            if not (
                all(type(c) is str and len(c) == 64 for c in checksums)
                and _HEX_DIGESTS.fullmatch("".join(checksums))
            ):
                raise ValueError("its shard checksums are not SHA-256 hex digests")
            checksums = tuple(map(bytes.fromhex, checksums))
        return ChunkState(stripe, rotation, checksums)

    def journal_fields(self) -> dict:
        """The row as the three keys a journal chunk spec spreads it over."""
        return {
            "stripe": list(self[:6]),
            "rotation": self.rotation,
            "checksums": list(self.checksums) if self.checksums else None,
        }

    @classmethod
    def from_journal(cls, spec: dict) -> "PackedChunk":
        """Raises ``ValueError`` or ``TypeError`` for a ``stripe`` that is
        not six fields or a ``rotation`` that is no integer."""
        checksums = spec.get("checksums")
        codec, width, k, m, shard_size, orig_len = spec["stripe"][:6]
        return cls(
            codec, width, k, m, shard_size, orig_len,
            int(spec.get("rotation", 0)),
            list(checksums) if checksums else None,
        )
