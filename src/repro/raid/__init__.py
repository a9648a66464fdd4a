"""RAID-style erasure coding across cloud providers (RACS-inspired).

GF(256) arithmetic, XOR parity (RAID-5), systematic Reed-Solomon coding
(Cauchy generator for the general codecs, legacy Vandermonde for RAID-6),
AONT keyless fragmentation, pluggable codec specs (``raid5@4``,
``rs(6,3)``, ``aont-rs(4,2)``), stripe layout, and
degraded-read/rebuild machinery.
"""

from repro.raid.aont import AONT_OVERHEAD, aont_unwrap, aont_wrap
from repro.raid.codecs import (
    AontRSCodec,
    CodecSpec,
    ErasureCodec,
    RaidCodec,
    RSStripeCodec,
    codec_for_meta,
    stripe_meta_from_fields,
)
from repro.raid.gf256 import (
    gf_div,
    gf_inv,
    gf_mat_inv,
    gf_matmul,
    gf_mul,
    gf_pow,
    vandermonde,
)
from repro.raid.parity import recover_with_parity, verify_parity, xor_parity
from repro.raid.reconstruct import rebuild_shard
from repro.raid.reed_solomon import (
    RSCode,
    cauchy_generator_matrix,
    generator_matrix,
    vandermonde_generator_matrix,
)
from repro.raid.striping import RaidLevel, StripeMeta

__all__ = [
    "AONT_OVERHEAD",
    "aont_unwrap",
    "aont_wrap",
    "AontRSCodec",
    "CodecSpec",
    "ErasureCodec",
    "RaidCodec",
    "RSStripeCodec",
    "codec_for_meta",
    "stripe_meta_from_fields",
    "gf_div",
    "gf_inv",
    "gf_mat_inv",
    "gf_matmul",
    "gf_mul",
    "gf_pow",
    "vandermonde",
    "recover_with_parity",
    "verify_parity",
    "xor_parity",
    "rebuild_shard",
    "RSCode",
    "cauchy_generator_matrix",
    "generator_matrix",
    "vandermonde_generator_matrix",
    "RaidLevel",
    "StripeMeta",
]
