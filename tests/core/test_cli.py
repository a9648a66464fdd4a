"""End-to-end CLI tests against a disk-backed deployment."""

import os

import pytest

from repro.cli import main


@pytest.fixture
def state(tmp_path):
    path = tmp_path / "cloud"
    assert main(["init", "--state", str(path), "--providers", "6"]) == 0
    assert main(["register-client", "--state", str(path), "Bob"]) == 0
    assert main(["add-password", "--state", str(path), "Bob", "s3cret", "3"]) == 0
    return path


def run(*argv):
    return main(list(argv))


def test_init_refuses_reinit(state, capsys):
    assert run("init", "--state", str(state)) == 1


def test_put_get_roundtrip(state, tmp_path):
    src = tmp_path / "doc.bin"
    payload = os.urandom(20_000)
    src.write_bytes(payload)
    assert run("put", "--state", str(state), "Bob", "s3cret", str(src),
               "--level", "3") == 0
    out = tmp_path / "out.bin"
    assert run("get", "--state", str(state), "Bob", "s3cret", "doc.bin",
               "-o", str(out)) == 0
    assert out.read_bytes() == payload


def test_metadata_persists_across_invocations(state, tmp_path):
    src = tmp_path / "a.txt"
    src.write_bytes(b"persist me")
    run("put", "--state", str(state), "Bob", "s3cret", str(src), "--level", "1")
    # A brand-new process (new main() call) reloads metadata from disk.
    out = tmp_path / "b.txt"
    assert run("get", "--state", str(state), "Bob", "s3cret", "a.txt",
               "-o", str(out)) == 0
    assert out.read_bytes() == b"persist me"


def test_ls_and_status(state, tmp_path, capsys):
    src = tmp_path / "x.csv"
    src.write_bytes(b"a,b\n1,2\n")
    run("put", "--state", str(state), "Bob", "s3cret", str(src), "--level", "0")
    capsys.readouterr()
    assert run("ls", "--state", str(state), "Bob", "s3cret") == 0
    assert "x.csv" in capsys.readouterr().out
    assert run("status", "--state", str(state)) == 0
    out = capsys.readouterr().out
    assert "Cloud Provider Table" in out and "P0" in out


def test_put_with_codec_spec(state, tmp_path, capsys):
    # Only 4 of the 6 default providers are PL-3 eligible, so rs(3,1)
    # (width 4) fills the eligible set exactly.
    src = tmp_path / "coded.bin"
    payload = os.urandom(20_000)
    src.write_bytes(payload)
    assert run("put", "--state", str(state), "Bob", "s3cret", str(src),
               "--level", "3", "--codec", "rs(3,1)") == 0
    assert "rs(3,1)" in capsys.readouterr().out
    out = tmp_path / "coded.out"
    assert run("get", "--state", str(state), "Bob", "s3cret", "coded.bin",
               "-o", str(out)) == 0
    assert out.read_bytes() == payload
    # ls shows the codec column.
    capsys.readouterr()
    assert run("ls", "--state", str(state), "Bob", "s3cret") == 0
    listing = capsys.readouterr().out
    assert "codec" in listing and "rs(3,1)" in listing


def test_put_with_aont_codec_roundtrip(state, tmp_path, capsys):
    src = tmp_path / "sealed.bin"
    payload = os.urandom(8_000)
    src.write_bytes(payload)
    assert run("put", "--state", str(state), "Bob", "s3cret", str(src),
               "--level", "3", "--codec", "aont-rs(2,2)") == 0
    out = tmp_path / "sealed.out"
    assert run("get", "--state", str(state), "Bob", "s3cret", "sealed.bin",
               "-o", str(out)) == 0
    assert out.read_bytes() == payload


def test_rm(state, tmp_path, capsys):
    src = tmp_path / "gone.txt"
    src.write_bytes(b"bye")
    run("put", "--state", str(state), "Bob", "s3cret", str(src), "--level", "1")
    assert run("rm", "--state", str(state), "Bob", "s3cret", "gone.txt") == 0
    capsys.readouterr()
    run("ls", "--state", str(state), "Bob", "s3cret")
    assert "gone.txt" not in capsys.readouterr().out


def test_repair_healthy(state, tmp_path, capsys):
    src = tmp_path / "r.bin"
    src.write_bytes(os.urandom(5000))
    run("put", "--state", str(state), "Bob", "s3cret", str(src), "--level", "2")
    assert run("repair", "--state", str(state), "Bob", "s3cret", "r.bin") == 0
    assert "0 shards missing" in capsys.readouterr().out


def test_strict_put_rejects_underclassified(state, tmp_path, capsys):
    from repro.workloads.records import generate_records

    src = tmp_path / "patients.csv"
    src.write_bytes(
        b"id,age,income,visits,cholesterol,risk\n"
        + generate_records(100, seed=1).to_bytes()
    )
    code = run("put", "--state", str(state), "Bob", "s3cret", str(src),
               "--level", "0", "--strict")
    assert code == 1
    assert "warning" in capsys.readouterr().err


def test_scrub_clean_and_dirty(state, tmp_path, capsys):
    src = tmp_path / "s.bin"
    src.write_bytes(os.urandom(3000))
    run("put", "--state", str(state), "Bob", "s3cret", str(src), "--level", "2")
    assert run("scrub", "--state", str(state)) == 0
    capsys.readouterr()

    # Plant an orphan object at a provider directory.
    from repro.providers.disk import DiskProvider

    orphan_host = DiskProvider("P0", state / "providers" / "P0")
    orphan_host.put("424242.0", b"stale")
    assert run("scrub", "--state", str(state)) == 2
    assert "orphan" in capsys.readouterr().out
    assert run("scrub", "--state", str(state), "--gc") == 2  # reports + collects
    capsys.readouterr()
    assert run("scrub", "--state", str(state)) == 0  # clean again


def test_exposure_command(state, tmp_path, capsys):
    src = tmp_path / "e.bin"
    src.write_bytes(os.urandom(10_000))
    run("put", "--state", str(state), "Bob", "s3cret", str(src), "--level", "2")
    capsys.readouterr()
    assert run("exposure", "--state", str(state), "Bob") == 0
    out = capsys.readouterr().out
    assert "byte share" in out and "collusion" in out


def test_suggest_level(tmp_path, capsys):
    src = tmp_path / "plain.txt"
    src.write_bytes(b"just some ordinary words about the weather")
    assert run("suggest-level", str(src)) == 0
    assert capsys.readouterr().out.startswith("PL 0")


def test_uninitialized_state_errors(tmp_path):
    with pytest.raises(SystemExit):
        run("status", "--state", str(tmp_path / "missing"))
