"""Tests for the digital-twin service (``repro.twin``).

The load-bearing property is the replay contract: a live session's
digest equals ``replay(config, action_log)``'s digest with ``==``,
including across ``PYTHONHASHSEED`` values.  The
HTTP layer is tested end to end through :class:`ServerHarness` — a
real server on a background thread — including the sharded mode where
two concurrent sessions must not contaminate each other.
"""

import json
import subprocess
import sys

import pytest

from repro.monitoring.telemetry import TelemetryStore
from repro.twin import (ServerHarness, TwinClientError, TwinConfig,
                        TwinSession, replay)
from repro.validation.differential import check_kernel_reference


def _tiny(seed=7, **overrides):
    params = dict(kind="cluster", scale="tiny", seed=seed, jobs=8)
    params.update(overrides)
    return TwinConfig(**params)


def _drive(session):
    """The fixed operator scenario shared across determinism tests."""
    session.advance(120.0)
    session.submit({"kind": "cordon", "hosts": ["p0.b0.h0"]})
    session.advance(60.0)
    session.submit({"kind": "inject-fault", "document": {"domains": [
        {"kind": "optics-batch", "pod": 1, "block": 0, "size": 2,
         "mode": "hard", "seed": 7, "at_time_s": 0.0}]}})
    session.advance(600.0)
    session.submit({"kind": "set-power-cap", "frac": 0.5})
    session.advance(600.0)
    session.submit({"kind": "uncordon", "hosts": ["p0.b0.h0"]})
    session.advance(600.0)
    return session


class TestConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown twin kind"):
            TwinConfig(kind="quantum")

    def test_rejects_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown twin scale"):
            TwinConfig(scale="galactic")

    def test_params_round_trip(self):
        config = _tiny()
        assert TwinConfig.from_params(config.to_params()) == config

    def test_from_params_rejects_unknown_keys(self):
        # A config saved when sessions still named a solver backend
        # fails with the same named error as any other stray key.
        for params in ({"scale": "tiny", "warp": 9},
                       {"scale": "tiny", "solver": "python"}):
            with pytest.raises(ValueError, match="unknown keys"):
                TwinConfig.from_params(params)


class TestReplayDeterminism:
    @pytest.mark.parametrize("kernel", ["python", "vector"])
    def test_replay_matches_live(self, kernel):
        """Replay equals live.  Under ``python`` any max-min kernel
        solve either session makes is also re-solved with the reference
        loop (``fill_rates_python``) and must match it row for row;
        under ``vector`` the production kernel runs unwrapped."""
        sessions = []

        def _run():
            live = _drive(TwinSession(_tiny()))
            sessions.append(live)
            sessions.append(replay(live.config, live.action_log))

        if kernel == "python":
            assert check_kernel_reference(_run, label="twin") == []
        else:
            _run()
        live, replayed = sessions
        assert replayed.digest() == live.digest()
        # Not just the digest: every boundary snapshot is identical.
        assert replayed.snapshots == live.snapshots
        assert replayed.store == live.store

    def test_seeds_diverge(self):
        a = _drive(TwinSession(_tiny(seed=1))).digest()
        b = _drive(TwinSession(_tiny(seed=2))).digest()
        assert a != b

    def test_digest_stable_across_hash_seeds(self):
        """The repo-wide bar: bit-identical under PYTHONHASHSEED."""
        import os
        import repro
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        digests = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ,
                       PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src_dir)
            out = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_DIGEST],
                capture_output=True, text=True, check=True,
                env=env).stdout
            digests.append(out.strip())
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64  # a sha256 hex digest


_SUBPROCESS_DIGEST = """
from repro.twin import TwinConfig, TwinSession
session = TwinSession(TwinConfig(
    kind="cluster", scale="tiny", seed=7, jobs=8))
session.advance(120.0)
session.submit({"kind": "cordon", "hosts": ["p0.b0.h0"]})
session.advance(600.0)
session.submit({"kind": "inject-fault", "document": {"domains": [
    {"kind": "optics-batch", "pod": 1, "block": 0, "size": 2,
     "mode": "hard", "seed": 7, "at_time_s": 0.0}]}})
session.advance(600.0)
session.submit({"kind": "uncordon", "hosts": ["p0.b0.h0"]})
session.advance(600.0)
print(session.digest())
"""


class TestActionValidation:
    def test_unknown_kind_rejected(self):
        session = TwinSession(_tiny())
        with pytest.raises(Exception, match="unknown action kind"):
            session.submit({"kind": "launch-missiles"})

    def test_unknown_host_rejected(self):
        session = TwinSession(_tiny())
        with pytest.raises(Exception, match="not a host"):
            session.submit({"kind": "cordon", "hosts": ["p9.b9.h9"]})

    def test_switch_cordon_rejected(self):
        """Cordon targets must be hosts, not fabric switches."""
        session = TwinSession(_tiny())
        switch = next(
            name for name, dev in
            session.stack.topology.devices.items() if dev.tier != 0)
        with pytest.raises(Exception, match="not a host"):
            session.submit({"kind": "cordon", "hosts": [switch]})

    def test_advance_requires_positive_dt(self):
        session = TwinSession(_tiny())
        with pytest.raises(Exception, match="positive"):
            session.advance(0.0)


class TestTelemetryJsonl:
    def test_store_round_trip_from_session(self):
        live = _drive(TwinSession(_tiny()))
        text = live.store.to_jsonl()
        assert TelemetryStore.from_jsonl(text) == live.store

    def test_round_trip_is_stable(self):
        live = _drive(TwinSession(_tiny()))
        text = live.store.to_jsonl()
        assert TelemetryStore.from_jsonl(text).to_jsonl() == text

    def test_bad_line_is_named(self):
        good = TwinSession(_tiny()).store.to_jsonl()
        with pytest.raises(ValueError, match="line 1"):
            TelemetryStore.from_jsonl("not json\n" + good)


class TestServingSession:
    def test_serving_replay_matches_live(self):
        config = TwinConfig(
            kind="serving", scale="small", seed=3,
            serving={"duration_s": 4 * 3600.0, "bucket_s": 1800.0})
        live = TwinSession(config)
        live.advance(3600.0)
        live.submit({"kind": "set-power-cap", "frac": 0.6})
        live.advance(3600.0)
        snapshot = live.snapshots[-1]
        assert snapshot["kind"] == "serving"
        assert "ttft" in snapshot and "power" in snapshot
        replayed = replay(config, live.action_log)
        assert replayed.digest() == live.digest()

    def test_serving_rejects_cluster_actions(self):
        config = TwinConfig(kind="serving", scale="small",
                            serving={"duration_s": 4 * 3600.0,
                                     "bucket_s": 1800.0})
        session = TwinSession(config)
        with pytest.raises(Exception, match="serving"):
            session.submit({"kind": "cordon", "hosts": ["p0.b0.h0"]})


@pytest.fixture(scope="module")
def harness():
    with ServerHarness(workers=0) as server:
        yield server


class TestHttpServer:
    CONFIG = {"kind": "cluster", "scale": "tiny", "seed": 7, "jobs": 8}

    def test_healthz_and_version(self, harness):
        client = harness.client()
        assert client.version()
        assert client.request("GET", "/healthz")["ok"] is True

    def test_session_lifecycle_and_replay(self, harness):
        client = harness.client()
        info = client.create_session(self.CONFIG, session_id="life")
        assert info["id"] == "life"
        snapshots = client.advance("life", dt_s=120.0, steps=2)
        assert len(snapshots) == 2
        assert snapshots[1]["t_s"] == pytest.approx(240.0)
        client.action("life", {"kind": "cordon",
                               "hosts": ["p0.b0.h0"]})
        snapshot = client.advance("life", dt_s=60.0)[-1]
        assert snapshot["hosts"]["cordoned"] == 1
        verdict = client.verify_replay("life")
        assert verdict["match"] is True
        assert verdict["live_digest"] == client.digest("life")
        log = client.action_log("life")
        assert len(log["action_log"]) == 3
        client.delete_session("life")
        with pytest.raises(TwinClientError) as excinfo:
            client.session("life")
        assert excinfo.value.status == 404

    def test_duplicate_session_conflicts(self, harness):
        client = harness.client()
        client.create_session(self.CONFIG, session_id="dup")
        try:
            with pytest.raises(TwinClientError) as excinfo:
                client.create_session(self.CONFIG, session_id="dup")
            assert excinfo.value.status == 409
        finally:
            client.delete_session("dup")

    def test_bad_action_is_400(self, harness):
        client = harness.client()
        client.create_session(self.CONFIG, session_id="bad")
        try:
            with pytest.raises(TwinClientError) as excinfo:
                client.action("bad", {"kind": "frobnicate"})
            assert excinfo.value.status == 400
            with pytest.raises(TwinClientError) as excinfo:
                client.action("bad", {"kind": "cordon",
                                      "hosts": ["p9.b9.h9"]})
            assert excinfo.value.status == 400
        finally:
            client.delete_session("bad")

    def test_unknown_session_is_404(self, harness):
        client = harness.client()
        with pytest.raises(TwinClientError) as excinfo:
            client.advance("ghost", dt_s=60.0)
        assert excinfo.value.status == 404

    def test_telemetry_stream_and_records(self, harness):
        client = harness.client()
        client.create_session(self.CONFIG, session_id="telemetry")
        try:
            client.advance("telemetry", dt_s=60.0, steps=3)
            archived = client.telemetry("telemetry")
            assert [s["t_s"] for s in archived] == [60.0, 120.0, 180.0]
            tail = list(client.stream("telemetry", start=1,
                                      max_snapshots=2))
            assert [s["t_s"] for s in tail] == [120.0, 180.0]
            lines = client.records_jsonl("telemetry").splitlines()
            parsed = [json.loads(line) for line in lines]
            assert any(r.get("type") == "switch-counter"
                       for r in parsed)
        finally:
            client.delete_session("telemetry")


def _raw_exchange(port, head):
    """Send raw request bytes; return ``(status, json body)`` of the one
    complete response the server must write before closing."""
    import socket
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    assert data, "connection dropped without a response"
    head_text, _, body = data.partition(b"\r\n\r\n")
    lines = head_text.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    assert len(body) == int(headers["Content-Length"])
    return int(lines[0].split()[1]), json.loads(body)


class TestHttpFrontDoor:
    """Malformed requests get a 4xx response, never a dropped
    connection, and the server keeps serving afterwards."""

    @pytest.mark.parametrize("length", ["abc", "-5", "1e3", "\u00b2"])
    def test_bad_content_length_is_400(self, harness, length):
        status, body = _raw_exchange(harness.port, (
            f"POST /sessions HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}").encode("latin-1"))
        assert status == 400
        assert "Content-Length" in body["error"]
        assert harness.client().request("GET", "/healthz")["ok"] is True

    def test_too_many_header_lines_is_431(self, harness):
        from repro.twin.http import MAX_HEADER_LINES
        headers = "".join(f"X-Filler-{i}: {i}\r\n"
                          for i in range(MAX_HEADER_LINES + 1))
        status, body = _raw_exchange(harness.port, (
            f"GET /healthz HTTP/1.1\r\n{headers}\r\n").encode("latin-1"))
        assert status == 431
        assert str(MAX_HEADER_LINES) in body["error"]
        assert harness.client().request("GET", "/healthz")["ok"] is True

    def test_header_cap_admits_the_limit(self, harness):
        from repro.twin.http import MAX_HEADER_LINES
        headers = "".join(f"X-Filler-{i}: {i}\r\n"
                          for i in range(MAX_HEADER_LINES - 1))
        status, body = _raw_exchange(harness.port, (
            f"GET /healthz HTTP/1.1\r\n{headers}"
            f"Connection: close\r\n\r\n").encode("latin-1"))
        assert status == 200
        assert body["ok"] is True

    def test_overlong_header_line_is_431(self, harness):
        status, _ = _raw_exchange(harness.port, (
            "GET /healthz HTTP/1.1\r\nX-Big: " + "a" * (128 * 1024)
            + "\r\n\r\n").encode("latin-1"))
        assert status == 431


class TestShardedServer:
    def test_concurrent_sessions_are_isolated(self):
        with ServerHarness(workers=2) as server:
            client = server.client()
            config = dict(TestHttpServer.CONFIG)
            alpha = client.create_session(config, session_id="alpha")
            beta = client.create_session(config, session_id="beta")
            assert {alpha["shard"], beta["shard"]} <= {0, 1}
            client.advance("beta", dt_s=120.0)
            before = client.digest("beta")
            # Driving alpha hard must not move beta's digest.
            client.advance("alpha", dt_s=120.0)
            client.action("alpha", {"kind": "cordon",
                                    "hosts": ["p0.b0.h0"]})
            client.advance("alpha", dt_s=600.0, steps=2)
            assert client.digest("beta") == before
            assert client.verify_replay("alpha")["match"] is True
            assert client.verify_replay("beta")["match"] is True


class TestFarmInterrupt:
    def test_ctrl_c_returns_partial_report(self):
        import os
        import signal
        import threading
        import time

        from repro.farm import FarmExecutor, TaskSpec
        specs = [TaskSpec("farm-selftest",
                          {"mode": "hang", "sleep_s": 1.0, "seed": i})
                 for i in range(5)]
        timer = threading.Timer(
            0.4, lambda: os.kill(os.getpid(), signal.SIGINT))
        timer.start()
        try:
            report = FarmExecutor(workers=1, use_cache=False).run(specs)
        finally:
            timer.cancel()
        assert report.interrupted is True
        assert len(report.results) == len(specs)
        assert any(r.status == "skipped" for r in report.results)
        assert report.to_dict()["interrupted"] is True

    def test_uninterrupted_report_is_clean(self):
        from repro.farm import FarmExecutor, TaskSpec
        report = FarmExecutor(workers=1, use_cache=False).run(
            [TaskSpec("farm-selftest", {"mode": "ok", "value": 1})])
        assert report.interrupted is False
        assert report.ok
