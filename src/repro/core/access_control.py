"""Password/privacy-level access control (Sections IV-A and V).

Each client registers a set of ⟨password, PL⟩ pairs; a password is
"privileged enough" for a chunk iff its privacy level is **greater than or
equal to** the chunk's privacy level.  This reproduces the paper's worked
example: Bob's password ``x9pr`` (PL 1) may fetch chunk 0 of ``file1``
(PL 1), while ``aB1c`` (PL 0) is denied.

Passwords are stored salted-and-hashed, never in the clear.  A pair that
has passed the full PBKDF2 scan is remembered, in memory only, under a
keyed tag, so a request pays for the scan once and not once per request
(``docs/threat-model.md`` says what that does and does not change for an
attacker).
"""

from __future__ import annotations

import hashlib
import hmac
import os
import threading
from dataclasses import dataclass

from repro.core.errors import AuthenticationError, UnknownClientError
from repro.core.privacy import PrivacyLevel
from repro.obs.metrics import MetricsRegistry, get_metrics

#: How many verified pairs a controller remembers.  At the bound it
#: forgets them all: no recency bookkeeping on the hit path, and the next
#: request of each live pair pays one scan.
VERIFIED_PAIRS_MAX = 1024


def _hash_password(password: str, salt: bytes) -> bytes:
    return hashlib.pbkdf2_hmac("sha256", password.encode("utf-8"), salt, 1000)


@dataclass
class _Credential:
    salt: bytes
    digest: bytes
    level: PrivacyLevel

    def matches(self, password: str) -> bool:
        # compare_digest keeps the digest comparison constant-time; the
        # PBKDF2 cost dominates anyway, but a short-circuiting ``==`` here
        # would still leak a prefix-length oracle on the digest.
        return hmac.compare_digest(self.digest, _hash_password(password, self.salt))


#: Fixed decoy credential hashed against when a client is unknown or has no
#: credentials, so the failure path costs one PBKDF2 either way and a remote
#: caller cannot enumerate tenant names by timing the gateway.
_DECOY = _Credential(
    salt=b"\x00" * 16,
    digest=_hash_password("\x00decoy", b"\x00" * 16),
    level=PrivacyLevel.PUBLIC,
)


class AccessController:
    """Registry of clients and their ⟨password, PL⟩ credential sets."""

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._clients: dict[str, list[_Credential]] = {}
        # Verified pairs: HMAC tag of (client, password) under a key this
        # process drew -> the level the scan returned.  Tags, key and lock
        # stay in the process (see __getstate__ / export_state); every
        # mutation forgets everything.
        self._tag_key = os.urandom(32)
        self._verified: dict[bytes, PrivacyLevel] = {}
        self._generation = 0
        self._verified_lock = threading.Lock()
        registry = metrics if metrics is not None else get_metrics()
        self._cached, self._scanned, self._refused = (
            registry.counter(
                "access_authentications_total",
                "Password checks by outcome: answered from the verified-"
                "pair table, verified by a PBKDF2 scan, or refused.",
                outcome=outcome,
            )
            for outcome in ("cached", "verified", "refused")
        )

    def __getstate__(self) -> dict:
        # A pickle carries what export_state does: hashed credentials.
        return {"_clients": self._clients}

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self._clients = state["_clients"]

    def _forget(self) -> None:
        """Drop every verified pair.  Runs *after* a mutation took effect;
        a scan still in flight sees the generation move and records
        nothing."""
        with self._verified_lock:
            self._generation += 1
            self._verified.clear()

    def register_client(self, client_name: str) -> None:
        """Create an (initially credential-less) client entry."""
        if client_name in self._clients:
            raise ValueError(f"client {client_name!r} already registered")
        self._clients[client_name] = []

    def add_password(
        self, client_name: str, password: str, level: PrivacyLevel | int
    ) -> None:
        """Attach a ⟨password, PL⟩ pair to *client_name*.

        The paper associates "a group of users with a ⟨password, PL⟩ pair at
        client side"; a client therefore typically holds one password per
        privilege tier.
        """
        creds = self._require_client(client_name)
        pl = PrivacyLevel.coerce(level)
        salt = os.urandom(16)
        creds.append(_Credential(salt, _hash_password(password, salt), pl))
        self._forget()

    def authenticate(self, client_name: str, password: str) -> PrivacyLevel:
        """Return the privacy level of *password* for *client_name*.

        Raises :class:`AuthenticationError` for an unknown password and
        :class:`UnknownClientError` for an unknown client.

        A pair that passed the scan before (and no credential changed
        since) is answered from the verified-pair table: one HMAC, one
        lookup.  Everything else -- a first use, a wrong password, an
        unknown or credential-less client -- runs the full scan, every
        time; only a match is recorded.
        """
        name = client_name.encode("utf-8")
        tag = hmac.digest(
            self._tag_key,
            len(name).to_bytes(4, "big") + name + password.encode("utf-8"),
            "sha256",
        )
        level = self._verified.get(tag)
        if level is not None:
            self._cached.inc()
            return level
        generation = self._generation
        try:
            level = self._scan(client_name, password)
        except (AuthenticationError, UnknownClientError):
            self._refused.inc()
            raise
        with self._verified_lock:
            # PBKDF2 releases the GIL: a revocation may have completed
            # while this scan ran, and must not be outlived by its result.
            if generation == self._generation:
                if len(self._verified) >= VERIFIED_PAIRS_MAX:
                    self._verified.clear()
                self._verified[tag] = level
        self._scanned.inc()
        return level

    def _scan(self, client_name: str, password: str) -> PrivacyLevel:
        """The constant-work PBKDF2 scan behind :meth:`authenticate`."""
        try:
            creds = self._require_client(client_name)
        except UnknownClientError:
            # Burn the same PBKDF2 work an existing client would cost before
            # failing, so "unknown client" and "wrong password" are not
            # separable by response time.
            _DECOY.matches(password)
            raise
        matched: _Credential | None = None
        # Scan the full credential list without early exit: the loop cost
        # depends only on the list length, not on where (or whether) the
        # password matches.
        for cred in creds:
            if cred.matches(password) and matched is None:
                matched = cred
        if not creds:
            _DECOY.matches(password)
        if matched is not None:
            return matched.level
        raise AuthenticationError(
            f"invalid password for client {client_name!r}"
        )

    def is_authorized(
        self, client_name: str, password: str, chunk_level: PrivacyLevel | int
    ) -> bool:
        """True iff *password* may access a chunk at *chunk_level*.

        Authorization rule (Section V): granted iff the password's privilege
        level >= the chunk's privacy level.  Authentication failures
        propagate as exceptions; this returns False only on a pure
        privilege shortfall.
        """
        granted = self.authenticate(client_name, password)
        return int(granted) >= int(PrivacyLevel.coerce(chunk_level))

    def remove_client(self, client_name: str) -> None:
        """Drop *client_name* and every credential attached to it.

        Raises :class:`UnknownClientError` when absent, so a revocation
        that silently did nothing cannot be mistaken for one that worked.
        """
        self._require_client(client_name)
        del self._clients[client_name]
        self._forget()

    def remove_password(self, client_name: str, password: str) -> PrivacyLevel:
        """Revoke one credential, returning the privacy level it carried.

        Raises :class:`AuthenticationError` when no credential matches --
        revoking an already-invalid password is a caller bug, not a no-op.
        """
        creds = self._require_client(client_name)
        for i, cred in enumerate(creds):
            if cred.matches(password):
                del creds[i]
                self._forget()
                return cred.level
        raise AuthenticationError(
            f"cannot revoke: invalid password for client {client_name!r}"
        )

    def rotate_password(
        self, client_name: str, old_password: str, new_password: str
    ) -> PrivacyLevel:
        """Replace *old_password* with *new_password* at the same level.

        Authentication of the old password happens before any mutation, so
        a failed rotation leaves the credential set untouched.  Returns the
        privacy level carried across.
        """
        level = self.authenticate(client_name, old_password)
        self.remove_password(client_name, old_password)
        self.add_password(client_name, new_password, level)
        return level

    def knows_client(self, client_name: str) -> bool:
        return client_name in self._clients

    def _require_client(self, client_name: str) -> list[_Credential]:
        try:
            return self._clients[client_name]
        except KeyError:
            raise UnknownClientError(
                f"no client named {client_name!r}"
            ) from None

    # -- replication / persistence -----------------------------------------

    def export_state(self) -> dict:
        """Serializable snapshot (hashed credentials only) for replication."""
        return {
            name: [
                (c.salt.hex(), c.digest.hex(), int(c.level)) for c in creds
            ]
            for name, creds in self._clients.items()
        }

    def import_state(self, state: dict) -> None:
        """Replace this controller's contents with an exported snapshot."""
        self._clients = {
            name: [
                _Credential(
                    bytes.fromhex(salt),
                    bytes.fromhex(digest),
                    PrivacyLevel.coerce(level),
                )
                for salt, digest, level in creds
            ]
            for name, creds in state.items()
        }
        self._forget()
