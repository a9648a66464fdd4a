"""The CLI ops surface: ``repro stats``, ``repro trace``, ``get --verify``.

Each ``main()`` call is a simulated process: telemetry is accumulated in
``state/metrics.json`` across invocations, ``stats`` renders it three
ways, and ``trace`` prints the joined client -> server span tree when the
fleet includes remote chunk servers.
"""

import json
import os

import pytest

from repro.cli import main
from repro.core.errors import AuthenticationError
from repro.net.server import ChunkServer
from repro.providers.memory import InMemoryProvider


def run(*argv):
    return main(list(argv))


@pytest.fixture
def state(tmp_path):
    path = tmp_path / "cloud"
    assert run("init", "--state", str(path), "--providers", "6") == 0
    assert run("register-client", "--state", str(path), "Bob") == 0
    assert run("add-password", "--state", str(path), "Bob", "s3cret", "3") == 0
    return path


@pytest.fixture
def remote_state(tmp_path):
    """A deployment whose whole fleet sits behind in-process chunk servers."""
    servers = []
    fleet = []
    for i in range(6):
        server = ChunkServer(InMemoryProvider(f"R{i}"), host="127.0.0.1", port=0)
        server.start()
        servers.append(server)
        fleet.append({
            "name": f"R{i}", "privacy_level": 3, "cost_level": i % 4,
            "region": "default",
            "url": f"remote://127.0.0.1:{server.port}",
        })
    path = tmp_path / "cloud"
    path.mkdir()
    (path / "fleet.json").write_text(json.dumps(fleet))
    assert run("register-client", "--state", str(path), "Bob") == 0
    assert run("add-password", "--state", str(path), "Bob", "s3cret", "3") == 0
    yield path
    for server in servers:
        server.stop()


def stats_json(state, capsys):
    capsys.readouterr()
    assert run("stats", "--state", str(state), "--format", "json") == 0
    return json.loads(capsys.readouterr().out)


def counter_total(snapshot, name):
    return sum(snapshot["counters"].get(name, {}).values())


def test_stats_after_roundtrip_shows_phases_and_cache_hits(
    state, tmp_path, capsys
):
    src = tmp_path / "d.bin"
    src.write_bytes(os.urandom(8000))
    assert run("put", "--state", str(state), "Bob", "s3cret", str(src),
               "--level", "3") == 0
    assert run("get", "--state", str(state), "Bob", "s3cret", "d.bin",
               "-o", str(tmp_path / "out.bin"), "--verify") == 0

    snap = stats_json(state, capsys)
    # Distributor phases timed on both data paths.
    phases = snap["histograms"]["distributor_phase_seconds"]
    assert any("phase=\"plan\"" in labels or "plan" in labels
               for labels in phases)
    assert all(series["count"] > 0 for series in phases.values())
    # The verify re-read came out of the warm cache.
    assert counter_total(snap, "cache_hits_total") > 0
    assert counter_total(snap, "distributor_ops_total") >= 3  # put + 2 gets
    assert snap["gauges"]["cache_stored_bytes"]

    # The human rendering carries the same series.
    capsys.readouterr()
    assert run("stats", "--state", str(state)) == 0
    out = capsys.readouterr().out
    assert "Counters" in out and "Latencies" in out
    assert "distributor_phase_seconds" in out
    assert "cache_hits_total" in out


def test_get_verify_reports_match(state, tmp_path, capsys):
    src = tmp_path / "v.bin"
    src.write_bytes(os.urandom(3000))
    run("put", "--state", str(state), "Bob", "s3cret", str(src), "--level", "2")
    capsys.readouterr()
    assert run("get", "--state", str(state), "Bob", "s3cret", "v.bin",
               "-o", str(tmp_path / "o.bin"), "--verify") == 0
    assert "verified: re-read matches" in capsys.readouterr().out


def test_stats_prom_exposition(state, tmp_path, capsys):
    src = tmp_path / "p.bin"
    src.write_bytes(os.urandom(2000))
    run("put", "--state", str(state), "Bob", "s3cret", str(src), "--level", "2")
    capsys.readouterr()
    assert run("stats", "--state", str(state), "--format", "prom") == 0
    out = capsys.readouterr().out
    assert "# TYPE distributor_ops_total counter" in out
    assert "# TYPE distributor_phase_seconds histogram" in out
    assert "distributor_phase_seconds_bucket" in out


def test_counters_accumulate_across_invocations(state, tmp_path, capsys):
    src = tmp_path / "a.bin"
    src.write_bytes(os.urandom(2000))
    run("put", "--state", str(state), "Bob", "s3cret", str(src), "--level", "2")
    for _ in range(2):  # two separate "processes"
        assert run("get", "--state", str(state), "Bob", "s3cret", "a.bin",
                   "-o", str(tmp_path / "o.bin")) == 0
    snap = stats_json(state, capsys)
    ops = snap["counters"]["distributor_ops_total"]
    get_ok = sum(v for labels, v in ops.items()
                 if "get_file" in labels and "ok" in labels)
    assert get_ok == 2


def test_stats_on_empty_deployment(state, capsys):
    capsys.readouterr()
    assert run("stats", "--state", str(state)) == 0  # no metrics.json yet
    assert "Counters" in capsys.readouterr().out


def test_stats_uninitialized_errors(tmp_path):
    with pytest.raises(SystemExit):
        run("stats", "--state", str(tmp_path / "missing"))


def test_remote_fleet_stats_count_net_opcodes(remote_state, tmp_path, capsys):
    src = tmp_path / "r.bin"
    src.write_bytes(os.urandom(6000))
    assert run("put", "--state", str(remote_state), "Bob", "s3cret", str(src),
               "--level", "3") == 0
    assert run("get", "--state", str(remote_state), "Bob", "s3cret", "r.bin",
               "-o", str(tmp_path / "o.bin"), "--verify") == 0
    assert (tmp_path / "o.bin").read_bytes() == src.read_bytes()

    # One stats snapshot shows the whole data path: distributor phases,
    # wire opcodes, and the cache hits from the verify re-read.
    snap = stats_json(remote_state, capsys)
    requests = snap["counters"]["net_client_requests_total"]
    assert sum(requests.values()) > 0
    # The CLI streams by default, but the streaming windows pick their
    # wire op by segment size (STREAM_SEGMENT_THRESHOLD): a 6 KB file at
    # PL-3 produces sub-threshold shards, so the windows ride the batched
    # MULTI frames rather than per-segment STREAM sessions.
    ops = " ".join(requests)
    assert "MULTI_PUT" in ops and "MULTI_GET" in ops
    assert counter_total(snap, "net_client_wire_bytes_total") > 0
    phases = snap["histograms"]["distributor_phase_seconds"]
    assert phases and all(s["count"] > 0 for s in phases.values())
    assert counter_total(snap, "cache_hits_total") > 0


def test_trace_prints_joined_span_tree(remote_state, tmp_path, capsys):
    src = tmp_path / "t.bin"
    src.write_bytes(os.urandom(6000))
    assert run("put", "--state", str(remote_state), "Bob", "s3cret", str(src),
               "--level", "3") == 0
    capsys.readouterr()
    assert run("trace", "--state", str(remote_state), "Bob", "s3cret",
               "t.bin") == 0
    out = capsys.readouterr().out
    # One tree: client-side phases with the server's spans grafted in.
    assert "get t.bin" in out
    assert "distributor.get_file" in out
    assert "net.MULTI_GET" in out
    assert "server.MULTI_GET" in out
    assert "server.backend" in out
    assert "└─" in out
    assert "spans recorded" in out


def labelled(snapshot, name, label):
    """The value of the series of counter *name* whose labels mention *label*."""
    return sum(
        value for labels, value in snapshot["counters"].get(name, {}).items()
        if label in labels
    )


@pytest.mark.parametrize("deployment", ["state", "remote_state"])
def test_stats_answer_what_a_request_paid_besides_its_bytes(
    deployment, request, tmp_path, capsys
):
    """How many password checks were PBKDF2 scans, and how many provider
    legs took a pool hand-off or went out on the caller's socket -- from
    ``repro stats``, not a profiler."""
    state = request.getfixturevalue(deployment)
    src = tmp_path / "s.bin"
    src.write_bytes(os.urandom(9000))
    assert run("put", "--state", str(state), "Bob", "s3cret", str(src),
               "--level", "2") == 0
    # --verify reads twice in one process: a scan, then a table hit.
    assert run("get", "--state", str(state), "Bob", "s3cret", "s.bin",
               "-o", str(tmp_path / "o.bin"), "--verify") == 0
    with pytest.raises(AuthenticationError):
        run("get", "--state", str(state), "Bob", "wrong", "s.bin",
            "-o", str(tmp_path / "o.bin"))

    snap = stats_json(state, capsys)
    auth = "access_authentications_total"
    assert labelled(snap, auth, "verified") == 2  # one per process
    assert labelled(snap, auth, "cached") >= 1
    assert labelled(snap, auth, "refused") == 1
    # Disks can wait: the put and the gets fanned out to the pool; socket
    # legs are sent and read back on the caller's thread.
    where = "wire" if deployment == "remote_state" else "pool"
    assert labelled(snap, "distributor_transport_legs_total", where) > 0

    capsys.readouterr()
    assert run("stats", "--state", str(state)) == 0
    out = capsys.readouterr().out
    assert "access_authentications_total" in out
    assert "distributor_transport_legs_total" in out
