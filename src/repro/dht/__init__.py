"""DHT overlays for the client-side distributor alternative (Section IV-C).

Chord (finger-table routing on an identifier circle) and CAN
(d-dimensional coordinate-space zones), plus a client-side distributor
that runs the one engine with either overlay mapping ⟨filename, chunk Sl⟩
pairs to providers.
"""

from repro.dht.can import CANetwork, CANLookupResult, CANNode, Zone, torus_distance
from repro.dht.chord import ChordNode, ChordRing, LookupResult
from repro.dht.client_distributor import ClientSideDistributor, build_overlays
from repro.dht.hashing import hash_point, in_interval, stable_hash

__all__ = [
    "CANetwork",
    "CANLookupResult",
    "CANNode",
    "Zone",
    "torus_distance",
    "ChordNode",
    "ChordRing",
    "LookupResult",
    "ClientSideDistributor",
    "build_overlays",
    "hash_point",
    "in_interval",
    "stable_hash",
]
