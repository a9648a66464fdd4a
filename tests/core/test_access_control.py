import pytest

from repro.core.access_control import AccessController
from repro.core.errors import AuthenticationError, UnknownClientError
from repro.core.privacy import PrivacyLevel


@pytest.fixture
def controller():
    ctrl = AccessController()
    ctrl.register_client("Bob")
    ctrl.add_password("Bob", "aB1c", PrivacyLevel.PUBLIC)
    ctrl.add_password("Bob", "x9pr", PrivacyLevel.LOW)
    ctrl.add_password("Bob", "Ty7e", PrivacyLevel.PRIVATE)
    return ctrl


def test_authenticate_returns_level(controller):
    assert controller.authenticate("Bob", "x9pr") is PrivacyLevel.LOW
    assert controller.authenticate("Bob", "Ty7e") is PrivacyLevel.PRIVATE


def test_wrong_password_raises(controller):
    with pytest.raises(AuthenticationError):
        controller.authenticate("Bob", "wrong")


def test_unknown_client_raises(controller):
    with pytest.raises(UnknownClientError):
        controller.authenticate("Eve", "aB1c")


def test_paper_example_grant_and_deny(controller):
    # Fig. 3: (Bob, x9pr) PL1 may fetch PL1 chunk; (Bob, aB1c) PL0 denied.
    assert controller.is_authorized("Bob", "x9pr", PrivacyLevel.LOW)
    assert not controller.is_authorized("Bob", "aB1c", PrivacyLevel.LOW)


def test_higher_password_grants_lower_chunks(controller):
    for chunk_pl in PrivacyLevel:
        assert controller.is_authorized("Bob", "Ty7e", chunk_pl)


def test_authorization_matrix(controller):
    # password PL >= chunk PL exactly.
    table = {"aB1c": 0, "x9pr": 1, "Ty7e": 3}
    for password, granted in table.items():
        for chunk_pl in PrivacyLevel:
            expected = granted >= int(chunk_pl)
            assert controller.is_authorized("Bob", password, chunk_pl) is expected


def test_duplicate_client_rejected(controller):
    with pytest.raises(ValueError):
        controller.register_client("Bob")


def test_passwords_are_per_client():
    ctrl = AccessController()
    ctrl.register_client("A")
    ctrl.register_client("B")
    ctrl.add_password("A", "secret", PrivacyLevel.PRIVATE)
    with pytest.raises(AuthenticationError):
        ctrl.authenticate("B", "secret")


def test_passwords_not_stored_in_clear(controller):
    import pickle

    blob = pickle.dumps(controller)
    assert b"Ty7e" not in blob
    assert b"x9pr" not in blob


def test_export_import_preserves_credentials(controller):
    restored = AccessController()
    restored.import_state(controller.export_state())
    assert restored.authenticate("Bob", "Ty7e") is PrivacyLevel.PRIVATE
    with pytest.raises(AuthenticationError):
        restored.authenticate("Bob", "nope")


def test_knows_client(controller):
    assert controller.knows_client("Bob")
    assert not controller.knows_client("Mallory")


# -- credential lifecycle: revocation and rotation ----------------------------


def test_remove_client_revokes_everything(controller):
    controller.remove_client("Bob")
    assert not controller.knows_client("Bob")
    with pytest.raises(UnknownClientError):
        controller.authenticate("Bob", "Ty7e")


def test_remove_unknown_client_raises(controller):
    with pytest.raises(UnknownClientError):
        controller.remove_client("Eve")


def test_remove_password_revokes_only_that_credential(controller):
    level = controller.remove_password("Bob", "x9pr")
    assert level == PrivacyLevel.LOW
    with pytest.raises(AuthenticationError):
        controller.authenticate("Bob", "x9pr")
    # Other credentials keep working.
    assert controller.authenticate("Bob", "aB1c") == PrivacyLevel.PUBLIC
    assert controller.authenticate("Bob", "Ty7e") == PrivacyLevel.PRIVATE


def test_remove_invalid_password_raises(controller):
    with pytest.raises(AuthenticationError):
        controller.remove_password("Bob", "not-a-password")


def test_rotate_password_carries_level(controller):
    level = controller.rotate_password("Bob", "Ty7e", "N3w!")
    assert level == PrivacyLevel.PRIVATE
    with pytest.raises(AuthenticationError):
        controller.authenticate("Bob", "Ty7e")
    assert controller.authenticate("Bob", "N3w!") == PrivacyLevel.PRIVATE


def test_failed_rotation_mutates_nothing(controller):
    with pytest.raises(AuthenticationError):
        controller.rotate_password("Bob", "WRONG", "N3w!")
    # The old credential set is untouched.
    assert controller.authenticate("Bob", "Ty7e") == PrivacyLevel.PRIVATE
    with pytest.raises(AuthenticationError):
        controller.authenticate("Bob", "N3w!")


def test_rotate_to_same_password_is_allowed(controller):
    assert controller.rotate_password("Bob", "Ty7e", "Ty7e") == PrivacyLevel.PRIVATE
    assert controller.authenticate("Bob", "Ty7e") == PrivacyLevel.PRIVATE


# -- timing-hardening behaviour ----------------------------------------------


def test_unknown_client_and_wrong_password_raise_distinct_types(controller):
    # The *types* differ (callers need them to) but both paths burn one
    # PBKDF2 evaluation -- asserted structurally below, not by timing.
    with pytest.raises(UnknownClientError):
        controller.authenticate("Eve", "whatever")
    with pytest.raises(AuthenticationError):
        controller.authenticate("Bob", "whatever")


def test_credential_less_client_rejects_all_passwords():
    ctrl = AccessController()
    ctrl.register_client("Empty")
    with pytest.raises(AuthenticationError):
        ctrl.authenticate("Empty", "anything")


def test_full_scan_finds_match_regardless_of_position(controller):
    # The no-early-exit scan must still return the right level wherever
    # the matching credential sits in the list.
    for password, level in (
        ("aB1c", PrivacyLevel.PUBLIC),   # first
        ("x9pr", PrivacyLevel.LOW),      # middle
        ("Ty7e", PrivacyLevel.PRIVATE),  # last
    ):
        assert controller.authenticate("Bob", password) == level


def test_duplicate_password_first_registration_wins():
    ctrl = AccessController()
    ctrl.register_client("C")
    ctrl.add_password("C", "same", PrivacyLevel.PRIVATE)
    ctrl.add_password("C", "same", PrivacyLevel.PUBLIC)
    assert ctrl.authenticate("C", "same") == PrivacyLevel.PRIVATE


# -- the verified-pair table: counted in PBKDF2 scans, never by clock ---------


def scans(hashes, fn, *args):
    """How many credentials ``fn(*args)`` hashed against (errors included)."""
    before = len(hashes)
    try:
        fn(*args)
    except (AuthenticationError, UnknownClientError):
        pass
    return len(hashes) - before


def test_right_password_costs_one_scan_then_none(controller, hashes):
    assert scans(hashes, controller.authenticate, "Bob", "x9pr") == 3
    for _ in range(5):
        assert scans(hashes, controller.authenticate, "Bob", "x9pr") == 0
        assert controller.authenticate("Bob", "x9pr") is PrivacyLevel.LOW
    # Every pair is verified on its own.
    assert scans(hashes, controller.authenticate, "Bob", "Ty7e") == 3
    assert scans(hashes, controller.is_authorized, "Bob", "Ty7e", 3) == 0


def test_refusals_cost_a_scan_every_time_and_are_never_recorded(
    controller, hashes
):
    controller.register_client("Empty")
    for _ in range(3):
        # Wrong password: the full list.  Unknown and credential-less
        # client: the decoy.
        assert scans(hashes, controller.authenticate, "Bob", "wrong") == 3
        assert scans(hashes, controller.authenticate, "Eve", "x9pr") == 1
        assert scans(hashes, controller.authenticate, "Empty", "x9pr") == 1
    assert controller._verified == {}
    with pytest.raises(AuthenticationError):
        controller.authenticate("Bob", "wrong")
    with pytest.raises(UnknownClientError):
        controller.authenticate("Eve", "x9pr")


def warmed(controller):
    for password in ("aB1c", "x9pr", "Ty7e"):
        controller.authenticate("Bob", password)
    assert len(controller._verified) == 3
    return controller


def test_add_password_forgets(controller, hashes):
    warmed(controller).add_password("Bob", "n3w", PrivacyLevel.LOW)
    assert controller._verified == {}
    assert scans(hashes, controller.authenticate, "Bob", "x9pr") == 4
    assert scans(hashes, controller.authenticate, "Bob", "x9pr") == 0


def test_remove_password_forgets(controller, hashes):
    warmed(controller).remove_password("Bob", "x9pr")
    with pytest.raises(AuthenticationError):  # on the very next call
        controller.authenticate("Bob", "x9pr")
    # The surviving credentials re-verify once each.
    assert scans(hashes, controller.authenticate, "Bob", "Ty7e") == 2
    assert scans(hashes, controller.authenticate, "Bob", "Ty7e") == 0


def test_rotate_password_forgets(controller, hashes):
    warmed(controller).rotate_password("Bob", "Ty7e", "N3w!")
    with pytest.raises(AuthenticationError):
        controller.authenticate("Bob", "Ty7e")
    assert scans(hashes, controller.authenticate, "Bob", "N3w!") == 3
    assert scans(hashes, controller.authenticate, "Bob", "N3w!") == 0
    assert scans(hashes, controller.authenticate, "Bob", "aB1c") == 3


def test_remove_client_forgets(controller, hashes):
    warmed(controller).remove_client("Bob")
    with pytest.raises(UnknownClientError):
        controller.authenticate("Bob", "Ty7e")
    # ... and a namesake registered later does not inherit the old pairs.
    controller.register_client("Bob")
    with pytest.raises(AuthenticationError):
        controller.authenticate("Bob", "Ty7e")


def test_import_state_forgets(controller, hashes):
    other = AccessController()
    other.register_client("Bob")
    other.add_password("Bob", "elsewhere", PrivacyLevel.LOW)
    warmed(controller).import_state(other.export_state())
    with pytest.raises(AuthenticationError):
        controller.authenticate("Bob", "Ty7e")
    assert scans(hashes, controller.authenticate, "Bob", "elsewhere") == 1
    assert scans(hashes, controller.authenticate, "Bob", "elsewhere") == 0


def test_pairs_do_not_collide(hashes):
    ctrl = AccessController()
    for name in ("A", "B", "ab", "a"):
        ctrl.register_client(name)
    # Two clients, one password, different levels.
    ctrl.add_password("A", "shared", PrivacyLevel.PRIVATE)
    ctrl.add_password("B", "shared", PrivacyLevel.PUBLIC)
    # One client's name is a prefix of the other's: without the length
    # prefix ("a", "bc") and ("ab", "c") would be one message.
    ctrl.add_password("a", "bc", PrivacyLevel.LOW)
    ctrl.add_password("ab", "c", PrivacyLevel.MODERATE)
    for _ in range(2):  # cold, then from the table
        assert ctrl.authenticate("A", "shared") is PrivacyLevel.PRIVATE
        assert ctrl.authenticate("B", "shared") is PrivacyLevel.PUBLIC
        assert ctrl.authenticate("a", "bc") is PrivacyLevel.LOW
        assert ctrl.authenticate("ab", "c") is PrivacyLevel.MODERATE
        with pytest.raises(AuthenticationError):
            ctrl.authenticate("ab", "bc")
        with pytest.raises(AuthenticationError):
            ctrl.authenticate("a", "c")
    assert len(ctrl._verified) == 4


def test_the_table_is_bounded(monkeypatch):
    from repro.core import access_control

    # One real PBKDF2 per distinct pair would take seconds; the bound is
    # about the table, so hash cheaply.
    monkeypatch.setattr(
        access_control, "_hash_password",
        lambda password, salt: password.encode() + salt,
    )
    ctrl = AccessController()
    most = 0
    for i in range(access_control.VERIFIED_PAIRS_MAX + 1):
        ctrl.register_client(f"c{i}")
        ctrl.add_password(f"c{i}", f"pw{i}", PrivacyLevel.LOW)
    for i in range(access_control.VERIFIED_PAIRS_MAX + 1):
        assert ctrl.authenticate(f"c{i}", f"pw{i}") is PrivacyLevel.LOW
        most = max(most, len(ctrl._verified))
    assert most == access_control.VERIFIED_PAIRS_MAX == 1024
    assert len(ctrl._verified) == 1  # full -> forgot everything
    assert ctrl.authenticate("c0", "pw0") is PrivacyLevel.LOW


def test_nothing_of_the_table_leaves_the_process(controller):
    import json
    import pickle

    warmed(controller)
    blob = pickle.dumps(controller)
    exported = json.dumps(controller.export_state()).encode()
    secrets = [b"aB1c", b"x9pr", b"Ty7e", controller._tag_key, *controller._verified]
    for secret in secrets:
        for form in (secret, secret.hex().encode()):
            assert form not in blob
            assert form not in exported
    restored = pickle.loads(blob)
    assert restored._verified == {}
    assert restored._tag_key != controller._tag_key
    assert restored.authenticate("Bob", "x9pr") is PrivacyLevel.LOW
    with pytest.raises(AuthenticationError):
        restored.authenticate("Bob", "nope")


def test_scan_overtaken_by_a_revocation_is_not_recorded(controller, monkeypatch):
    """PBKDF2 releases the GIL, so ``remove_password`` can complete while
    an ``authenticate`` of the same password is mid-scan.  The scan may
    still answer (it began first); its result must not be remembered."""
    import threading

    from repro.core import access_control

    real = access_control._hash_password
    scanning, revoked = threading.Event(), threading.Event()
    caller = threading.current_thread()
    matching = controller._clients["Bob"][-1].salt  # Ty7e's, scanned last

    def stalled(password, salt):
        digest = real(password, salt)
        if salt == matching and threading.current_thread() is not caller:
            # The authenticate thread holds the digest that will match:
            # stall it before it can compare and record.
            scanning.set()
            assert revoked.wait(5.0)
        return digest

    monkeypatch.setattr(access_control, "_hash_password", stalled)
    outcome = []
    thread = threading.Thread(
        target=lambda: outcome.append(controller.authenticate("Bob", "Ty7e"))
    )
    thread.start()
    assert scanning.wait(5.0)
    controller.remove_password("Bob", "Ty7e")
    revoked.set()
    thread.join(5.0)
    assert outcome == [PrivacyLevel.PRIVATE]  # linearised before the revocation
    assert controller._verified == {}
    with pytest.raises(AuthenticationError):
        controller.authenticate("Bob", "Ty7e")


def test_outcomes_are_counted():
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    ctrl = AccessController(metrics=metrics)
    ctrl.register_client("Bob")
    ctrl.add_password("Bob", "pw", PrivacyLevel.LOW)
    for _ in range(3):
        ctrl.authenticate("Bob", "pw")
    for client, password in (("Bob", "no"), ("Eve", "pw")):
        with pytest.raises((AuthenticationError, UnknownClientError)):
            ctrl.authenticate(client, password)
    count = lambda outcome: metrics.value(  # noqa: E731
        "access_authentications_total", outcome=outcome
    )
    assert (count("verified"), count("cached"), count("refused")) == (1, 2, 2)


def test_stress_revocation_by_import_under_concurrent_authentication():
    """How a tenant revocation reaches a shard: ``import_state``, while
    more threads than cores are mid-scan on the old credentials.  Each
    round installs a state in which the password is valid, lets the
    hammering threads start verifying it, then installs one in which it
    is revoked.  Whatever scans were in flight, the password is refused
    the moment that import returns: a scan that recorded its (by then
    stale) match after the table was emptied would be answered from the
    table here."""
    import sys
    import threading
    import time

    primary = AccessController()
    primary.register_client("Bob")
    for i in range(4):  # a scan worth overtaking: five PBKDF2 long
        primary.add_password("Bob", f"other-{i}", PrivacyLevel.PUBLIC)
    revoked = primary.export_state()
    primary.add_password("Bob", "pw", PrivacyLevel.LOW)
    valid = primary.export_state()

    replica = AccessController()
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            try:
                replica.authenticate("Bob", "pw")
            except (AuthenticationError, UnknownClientError):
                pass

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    rounds = 0
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            replica.import_state(valid)
            time.sleep(0.0005)  # the hammers miss and begin their scans
            replica.import_state(revoked)
            with pytest.raises(AuthenticationError):
                replica.authenticate("Bob", "pw")
            rounds += 1
    finally:
        stop.set()
        for thread in threads:
            thread.join(10.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert rounds >= 3
    replica.import_state(valid)
    assert replica.authenticate("Bob", "pw") is PrivacyLevel.LOW
