"""Systematic Reed-Solomon erasure coding over GF(256).

Provides the general k-of-n code behind RAID-6 (m = 2) and arbitrary
redundancy levels.  Two systematic generator constructions exist:

* ``cauchy`` (default) -- identity on top, a Cauchy matrix below.  Every
  square submatrix of a Cauchy matrix is invertible (its determinant has
  the closed Cauchy form with all factors nonzero), so *every* k x k row
  submatrix of the generator is invertible by a local argument: deleting
  the identity rows' columns from the remaining Cauchy rows leaves a
  Cauchy minor.  Any k of the k+m shards decode, for all valid (k, m).

* ``vandermonde`` (legacy) -- ``V @ inv(V[:k])`` where V is Vandermonde.
  This derivation is sound, but only by a non-local argument (any k rows
  of the product are the corresponding k rows of V right-multiplied by
  one fixed invertible matrix).  The classic jerasure/ISA-L pitfall is
  the "optimized" variant that skips the column reduction and stacks
  ``[I; V[k:]]`` directly -- that one has singular k-subsets well within
  k+m <= 12 (e.g. k=5, m=5), i.e. undecodable erasure patterns.  We keep
  the reduced Vandermonde form *only* because RAID-6 stripes already on
  disk recorded parity bytes (and shard checksums) produced by it; the
  ``raid6`` codec family pins ``generator="vandermonde"`` forever so the
  scrubber can rebuild legacy stripes byte-exactly.  New code (the
  ``rs``/``aont-rs`` families) uses the Cauchy construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.obs.metrics import get_metrics
from repro.raid.gf256 import gf_apply, gf_inv, gf_mat_inv, gf_matmul, gf_tables, vandermonde

#: Generator constructions by name; ``cauchy`` is the default for new codes.
GENERATORS = ("cauchy", "vandermonde")


def _check_params(k: int, m: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if k + m > 256:
        raise ValueError(f"k+m must be <= 256, got {k + m}")


def cauchy_generator_matrix(k: int, m: int) -> np.ndarray:
    """Systematic generator with identity top and Cauchy parity rows.

    Parity row i, column j is ``1 / (x_i ^ y_j)`` with ``x_i = k + i`` and
    ``y_j = j`` -- two disjoint subsets of GF(256), so every denominator is
    nonzero.  Any square submatrix of a Cauchy matrix is invertible, which
    makes every k x k row submatrix of the full generator invertible.
    """
    _check_params(k, m)
    gen = np.zeros((k + m, k), dtype=np.uint8)
    gen[:k] = np.eye(k, dtype=np.uint8)
    for i in range(m):
        for j in range(k):
            gen[k + i, j] = gf_inv((k + i) ^ j)
    return gen


def vandermonde_generator_matrix(k: int, m: int) -> np.ndarray:
    """Legacy generator: Vandermonde column-reduced to a systematic form.

    Kept byte-for-byte identical to the original construction because the
    ``raid6`` codec family's on-disk parity (and recorded shard checksums)
    depend on it.  Do not use for new codec families -- see module docstring.
    """
    _check_params(k, m)
    v = vandermonde(k + m, k)
    return gf_matmul(v, gf_mat_inv(v[:k]))


def generator_matrix(k: int, m: int, generator: str = "cauchy") -> np.ndarray:
    """The (k+m) x k systematic RS generator matrix.

    The top k x k block is the identity: the first k output shards are the
    data shards verbatim (systematic), and any k of the k+m shards suffice
    to reconstruct.  *generator* selects the construction (see module
    docstring); ``cauchy`` is the default, ``vandermonde`` exists for
    legacy RAID-6 byte-compatibility.
    """
    if generator == "cauchy":
        return cauchy_generator_matrix(k, m)
    if generator == "vandermonde":
        return vandermonde_generator_matrix(k, m)
    raise ValueError(f"unknown generator {generator!r}, expected one of {GENERATORS}")


def _check_sizes(indexed: list[tuple[int, bytes]]) -> None:
    """Raise ``ValueError`` naming the first shard that differs in length."""
    size = len(indexed[0][1])
    for i, shard in indexed:
        if len(shard) != size:
            raise ValueError(f"shard {i} has {len(shard)} bytes, expected {size}")


@dataclass(frozen=True)
class RSCode:
    """A (k data, m parity) systematic Reed-Solomon code.

    *label* only names the codec in metrics; codes differing in it alone
    are equal and share decode tables.
    """

    k: int
    m: int
    generator: str = "cauchy"
    label: str = field(default="rs", compare=False)

    def __post_init__(self) -> None:
        # Instances are cached process-wide: one caller's in-place edit of
        # the generator would corrupt every later stripe.
        gen = generator_matrix(self.k, self.m, self.generator)
        gen.setflags(write=False)
        object.__setattr__(self, "_gen", gen)
        object.__setattr__(self, "_parity_tables", gf_tables(gen[self.k :]))

    @property
    def n(self) -> int:
        return self.k + self.m

    @property
    def matrix(self) -> np.ndarray:
        return self._gen  # type: ignore[attr-defined]

    # -- encoding -------------------------------------------------------------

    def encode(self, data_shards: list[bytes]) -> list[bytes]:
        """Compute the m parity shards for *data_shards* (all equal-sized)."""
        if len(data_shards) != self.k:
            raise ValueError(f"expected {self.k} data shards, got {len(data_shards)}")
        _check_sizes(list(enumerate(data_shards)))
        parity = gf_apply(
            self._parity_tables, data_shards, range(self.m)  # type: ignore[attr-defined]
        )
        return [row.tobytes() for row in parity]

    # -- decoding -------------------------------------------------------------

    def _recompute(self, shards: dict[int, bytes], want: list[int]) -> list[bytes]:
        """Shards *want*, absent from *shards*, from its k lowest members."""
        present = sorted(shards)
        if any(i < 0 or i >= self.n for i in present + want):
            raise ValueError(f"shard indices must be in 0..{self.n - 1}")
        if len(present) < self.k:
            raise ValueError(
                f"need at least {self.k} shards to decode, got {len(present)}"
            )
        use = tuple(present[: self.k])
        _check_sizes([(i, shards[i]) for i in use])
        if not want:
            return []
        _lookup.missed = False
        lost, tables = _decode_tables(self, use)
        get_metrics().counter(
            "raid_decode_matrix_cache_total",
            codec=self.label,
            result="miss" if _lookup.missed else "hit",
        ).inc()
        rows = gf_apply(tables, [shards[i] for i in use], [lost.index(i) for i in want])
        return [row.tobytes() for row in rows]

    def decode(self, shards: dict[int, bytes]) -> list[bytes]:
        """Reconstruct the k data shards from any k available shards.

        *shards* maps shard index (0..n-1; data shards first) to bytes.
        Surviving data shards pass through untouched; only missing ones
        are computed.  Raises ``ValueError`` if fewer than k shards are
        supplied or the k that are read differ in length.
        """
        missing = [i for i in range(self.k) if i not in shards]
        rebuilt = dict(zip(missing, self._recompute(shards, missing)))
        return [rebuilt[i] if i in rebuilt else shards[i] for i in range(self.k)]

    def reconstruct_shard(self, index: int, shards: dict[int, bytes]) -> bytes:
        """Rebuild the single shard *index* (data or parity) from survivors."""
        others = {i: s for i, s in shards.items() if i != index}
        return self._recompute(others, [index])[0]


#: Erasure patterns whose decode tables stay resident (rs(6,3) has 84).
DECODE_CACHE_SIZE = 128

_lookup = threading.local()


@lru_cache(maxsize=DECODE_CACHE_SIZE)
def _decode_tables(
    code: RSCode, use: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
    """(lost, tables): every shard index not in *use*, and the packed
    tables of ``gen[lost] @ inv(gen[use])`` that recompute those shards
    from the survivors -- rows of the inverse for missing data shards,
    ``gen[j] @ inv`` for parity.  Runs only on a cache miss.
    """
    _lookup.missed = True
    lost = tuple(i for i in range(code.n) if i not in use)
    inverse = gf_mat_inv(code.matrix[list(use)])
    return lost, gf_tables(gf_matmul(code.matrix[list(lost)], inverse))
