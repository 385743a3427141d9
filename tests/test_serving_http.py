"""HTTP-layer serving tests: routing, errors, metrics, and the
end-to-end ``repro serve`` smoke with byte parity vs ``repro
recommend``."""

import contextlib
import http.client
import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import ExperimentEngine
from repro.serving import ServingHandler, ServingScheduler, make_server
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry.metrics import validate_prometheus_text

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


#: How often the test servers' ``serve_forever`` loop checks for
#: ``shutdown()``; the default 0.5 s makes every teardown wait that long.
POLL_INTERVAL_S = 0.05


@pytest.fixture
def server():
    """An in-process server on an ephemeral port; yields its base URL."""
    telemetry_metrics.enable()
    scheduler = ServingScheduler(engine=ExperimentEngine(),
                                 batch_window_s=0.01,
                                 quota_rps=1000.0, quota_burst=1000.0)
    http_server = make_server(scheduler, port=0)
    host, port = http_server.server_address[:2]
    thread = threading.Thread(target=http_server.serve_forever,
                              kwargs={"poll_interval": POLL_INTERVAL_S},
                              daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}"
    finally:
        http_server.shutdown()
        http_server.server_close()
        scheduler.close()
        telemetry_metrics.disable()


def urlopen(request, timeout):
    """``(status, body)`` of one request.  An error status raises its
    ``HTTPError`` with the body read into memory and the connection
    closed, so that a test that inspects it leaks no socket."""
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            body = exc.read()
        raise urllib.error.HTTPError(exc.url, exc.code, exc.msg,
                                     exc.headers, io.BytesIO(body)) from None


def post(base, path, body, headers=None, timeout=60):
    data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json", **(headers or {})})
    status, raw = urlopen(request, timeout)
    return status, json.loads(raw)


def get(base, path, timeout=30):
    return urlopen(base + path, timeout)


class TestRoutes:
    def test_healthz(self, server):
        status, raw = get(server, "/healthz")
        body = json.loads(raw)
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0
        assert "engine" in body

    def test_metrics_is_valid_prometheus(self, server):
        post(server, "/v1/simulate",
             {"model": "resnet50", "gpus": 8, "iterations": 20,
              "wait": True})
        status, raw = get(server, "/metrics")
        assert status == 200
        text = raw.decode("utf-8")
        assert validate_prometheus_text(text) == []
        assert "serving_requests_total" in text

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/v1/nope")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]["code"] == \
            "not_found"

    def test_unknown_job_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/v1/jobs/deadbeef")
        assert excinfo.value.code == 404

    def test_bad_json_400(self, server):
        request = urllib.request.Request(
            server + "/v1/whatif", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_bad_field_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/whatif", {"model": "resnet9000"})
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["code"] == "bad_request"
        assert "resnet9000" in error["message"]

    @pytest.mark.parametrize("spec", [
        "qsgd:levels=nan", "qsgd:levels=inf", "powersgd:rank=nan",
        "signsgd:foo=1"])
    def test_bad_scheme_spec_400(self, server, spec):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/simulate",
                 {"model": "resnet50", "gpus": 8, "scheme": spec,
                  "iterations": 20, "wait": True})
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["code"] == "bad_request"
        assert spec.partition(":")[2].split("=")[0] in error["message"]

    def test_oversized_body_413(self, server):
        request = urllib.request.Request(
            server + "/v1/whatif", data=b" " * ((1 << 20) + 1),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urlopen(request, timeout=30)
        assert excinfo.value.code == 413


def raw_request(base, head, body=b"", timeout=3.0):
    """Send hand-written request bytes on a fresh socket; return the
    status code and decoded JSON body of the response."""
    host, port = base[len("http://"):].split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(head.encode("latin-1") + b"\r\n\r\n" + body)
        with sock.makefile("rb") as reader:
            status = int(reader.readline().split()[1])
            length = 0
            for line in iter(reader.readline, b"\r\n"):
                name, _, value = line.decode("latin-1").partition(":")
                if name.lower() == "content-length":
                    length = int(value)
            return status, json.loads(reader.read(length))


class TestHostileInput:
    @pytest.mark.parametrize("length", ["-5", "-1"])
    def test_negative_content_length_400(self, server, length):
        # -1 used to reach rfile.read(-1), which blocks until the
        # client hangs up; the 3 s socket timeout catches a regression.
        status, body = raw_request(
            server, "POST /v1/whatif HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}", body=b"{}")
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "Content-Length" in body["error"]["message"]

    @pytest.mark.parametrize("wait_s", ["nan", "inf", "-inf", "banana"])
    def test_bad_wait_s_400(self, server, wait_s):
        _, body = post(server, "/v1/simulate",
                       {"model": "resnet50", "gpus": 8, "iterations": 20})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, f"/v1/jobs/{body['id']}?wait_s={wait_s}",
                timeout=3)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["code"] == "bad_request"
        assert "wait_s" in error["message"]

    @pytest.mark.parametrize("path,field", [
        ("/v1/whatif", "bandwidth"), ("/v1/whatif", "timeout_s"),
        ("/v1/simulate", "bandwidth"), ("/v1/simulate", "timeout_s"),
        ("/v1/advise", "bandwidth"), ("/v1/advise", "timeout_s"),
        ("/v1/advise", "min_bandwidth_gbps"),
        ("/v1/advise", "max_bandwidth_gbps")])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_400(self, server, path, field, literal):
        # json.loads parses these non-standard literals into floats that
        # pass a plain `<= 0` guard; the raw body carries them verbatim.
        body = f'{{"model": "resnet50", "gpus": 8, "{field}": {literal}}}'
        request = urllib.request.Request(
            server + path, data=body.encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["code"] == "bad_request"
        assert field in error["message"]

    def test_infeasible_whatif_400(self, server):
        # No candidate fits this batch in GPU memory: `repro recommend`
        # exits 2 for it, so the service answers 400, not 500.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/whatif",
                 {"model": "bert-base", "gpus": 8, "batch": 100000,
                  "crossovers": False})
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error == {"code": "bad_request",
                         "message": "ConfigurationError: no feasible "
                                    "candidate"}


def test_accepted_connections_disable_nagle():
    seen = []

    class Probe(ServingHandler):
        def setup(self):
            super().setup()
            seen.append(self.connection.getsockopt(socket.IPPROTO_TCP,
                                                   socket.TCP_NODELAY))

    scheduler = ServingScheduler(engine=ExperimentEngine())
    http_server = make_server(scheduler, port=0)
    http_server.RequestHandlerClass = Probe
    host, port = http_server.server_address[:2]
    thread = threading.Thread(target=http_server.serve_forever,
                              kwargs={"poll_interval": POLL_INTERVAL_S},
                              daemon=True)
    thread.start()
    try:
        status, _ = get(f"http://{host}:{port}", "/healthz")
        assert status == 200
        assert seen and all(flag != 0 for flag in seen)
    finally:
        http_server.shutdown()
        http_server.server_close()
        scheduler.close()


class TestWorkflows:
    def test_whatif_sync_roundtrip(self, server):
        status, body = post(server, "/v1/whatif",
                            {"model": "resnet50", "gpus": 8,
                             "crossovers": False})
        assert status == 200
        assert body["status"] == "done"
        assert body["result"]["rendered"].startswith(
            "recommendation for resnet50 at 8 GPUs")
        assert body["result"]["best"]
        assert body["rows"]

    def test_simulate_async_then_poll(self, server):
        status, body = post(server, "/v1/simulate",
                            {"model": "resnet50", "gpus": 8,
                             "iterations": 20, "seeds": [0, 1]})
        assert status == 202
        job_id = body["id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _, raw = get(server, f"/v1/jobs/{job_id}?wait_s=5")
            state = json.loads(raw)
            if state["status"] in ("done", "failed", "expired"):
                break
        assert state["status"] == "done"
        assert [row["seed"] for row in state["rows"]] == [0, 1]
        assert all(row["mean_s"] > 0 for row in state["rows"])

    def test_over_quota_gets_429_with_retry_after(self):
        telemetry_metrics.enable()
        scheduler = ServingScheduler(engine=ExperimentEngine(),
                                     batch_window_s=0.5,
                                     quota_rps=0.001, quota_burst=1.0)
        http_server = make_server(scheduler, port=0)
        host, port = http_server.server_address[:2]
        thread = threading.Thread(
            target=http_server.serve_forever,
            kwargs={"poll_interval": POLL_INTERVAL_S}, daemon=True)
        thread.start()
        base = f"http://{host}:{port}"
        try:
            post(base, "/v1/simulate",
                 {"model": "resnet50", "gpus": 8, "iterations": 20})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base, "/v1/simulate",
                     {"model": "resnet50", "gpus": 8, "iterations": 20,
                      "seed": 1})
            assert excinfo.value.code == 429
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            error = json.loads(excinfo.value.read())["error"]
            assert error["code"] == "quota"
            assert error["retry_after_s"] > 0
            # another tenant is unaffected
            status, _ = post(base, "/v1/simulate",
                             {"model": "resnet50", "gpus": 8,
                              "iterations": 20, "seed": 2},
                             headers={"X-Tenant": "other"})
            assert status == 202
        finally:
            http_server.shutdown()
            http_server.server_close()
            scheduler.close()
            telemetry_metrics.disable()


@contextlib.contextmanager
def serving(batch_window_s):
    """An in-process server with the given window; yields the scheduler
    and the port."""
    telemetry_metrics.enable()
    scheduler = ServingScheduler(engine=ExperimentEngine(),
                                 batch_window_s=batch_window_s)
    http_server = make_server(scheduler, port=0)
    thread = threading.Thread(target=http_server.serve_forever,
                              kwargs={"poll_interval": POLL_INTERVAL_S},
                              daemon=True)
    thread.start()
    try:
        yield scheduler, http_server.server_address[1]
    finally:
        http_server.shutdown()
        http_server.server_close()
        scheduler.close()
        telemetry_metrics.disable()


def keep_alive(port, clients):
    """``clients`` keep-alive connections, each with one request
    answered (a ``GET /healthz`` round trip) before it is returned."""
    conns = []
    for _ in range(clients):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        conn.request("GET", "/healthz")
        conn.getresponse().read()
        conns.append(conn)
    return conns


def timed_simulate(conn, seed, out, wait=True):
    """POST one simulation on ``conn``; appends (status, body, seconds)."""
    body = json.dumps({"model": "resnet50", "gpus": 8, "iterations": 20,
                       "seed": seed, "wait": wait})
    started = time.monotonic()
    conn.request("POST", "/v1/simulate", body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    out.append((resp.status, json.loads(resp.read()),
                time.monotonic() - started))


class TestEarlyClose:
    """A batch forms as soon as no open connection can add to it, and
    not before: windows are wide (>= 1 s), so "early" and "full window"
    differ by far more than scheduling noise.  A connection counts as
    blocked from its second request on."""

    def _concurrent(self, conns, out):
        threads = [threading.Thread(target=timed_simulate,
                                    args=(conn, seed, out))
                   for seed, conn in enumerate(conns)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

    def test_every_client_blocked_closes_the_window(self):
        with serving(batch_window_s=5.0) as (scheduler, port):
            conns = keep_alive(port, 2)
            try:
                out = []
                self._concurrent(conns, out)
            finally:
                for conn in conns:
                    conn.close()
            assert [status for status, _, _ in out] == [200, 200]
            assert all(seconds < 2.5 for _, _, seconds in out), out
            assert scheduler.batches == 1
            assert scheduler.requests_coalesced == 2

    def test_first_requests_on_new_connections_keep_the_window(self):
        # Clients that connect together may not all be accepted by the
        # time the first one's request queues; their first requests
        # still share one batch.
        with serving(batch_window_s=1.0) as (scheduler, port):
            conns = [http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=60)
                     for _ in range(2)]
            try:
                out = []
                self._concurrent(conns, out)
            finally:
                for conn in conns:
                    conn.close()
            assert [status for status, _, _ in out] == [200, 200]
            assert all(seconds >= 0.9 for _, _, seconds in out), out
            assert scheduler.batches == 1
            assert scheduler.requests_coalesced == 2

    def test_idle_connection_keeps_the_window(self):
        with serving(batch_window_s=1.0) as (scheduler, port):
            conns = keep_alive(port, 3)
            try:
                out = []
                self._concurrent(conns[:2], out)
            finally:
                for conn in conns:
                    conn.close()
            assert [status for status, _, _ in out] == [200, 200]
            assert all(seconds >= 0.9 for _, _, seconds in out), out
            assert scheduler.batches == 1
            assert scheduler.requests_coalesced == 2

    def test_async_submit_keeps_the_window(self):
        with serving(batch_window_s=1.0) as (scheduler, port):
            conns = keep_alive(port, 1)
            try:
                out = []
                timed_simulate(conns[0], 0, out, wait=False)
            finally:
                conns[0].close()
            status, body, _ = out[0]
            assert status == 202
            state = scheduler.wait(body["id"], timeout_s=60.0)
            assert state.status == "done"
            assert state.finished_unix - state.submitted_unix >= 0.9

    def test_counts_survive_many_racing_connections(self):
        # More closed-loop clients than cores, switching threads often:
        # a lost update to the connection or blocked counts would leave
        # them nonzero once every connection has closed.  The window is
        # short because blocked batches still form at most once a
        # window.
        clients, requests = 4, 5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with serving(batch_window_s=0.05) as (scheduler, port):
                started = time.monotonic()
                out = []

                def loop(client):
                    conn = keep_alive(port, 1)[0]
                    try:
                        for i in range(requests):
                            timed_simulate(conn, client * requests + i, out)
                    finally:
                        conn.close()

                threads = [threading.Thread(target=loop, args=(c,))
                           for c in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=50)
                    assert not thread.is_alive()
                assert time.monotonic() - started < 30
                assert [status for status, _, _ in out] \
                    == [200] * clients * requests
                deadline = time.monotonic() + 10
                while scheduler._connections and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert scheduler._connections == 0
                assert not scheduler._blocking
        finally:
            sys.setswitchinterval(interval)

    def test_long_poll_counts_as_blocked(self):
        with serving(batch_window_s=5.0) as (scheduler, port):
            conns = keep_alive(port, 1)
            try:
                out = []
                timed_simulate(conns[0], 0, out, wait=False)
                job_id = out[0][1]["id"]
                started = time.monotonic()
                conns[0].request("GET", f"/v1/jobs/{job_id}?wait_s=30")
                state = json.loads(conns[0].getresponse().read())
            finally:
                conns[0].close()
            assert state["status"] == "done"
            assert time.monotonic() - started < 2.5


class TestServeCommandEndToEnd:
    def test_whatif_matches_repro_recommend_byte_for_byte(self, tmp_path):
        """The acceptance criterion: `repro serve` returns the same
        ranked recommendation bytes as the offline CLI."""
        env = {**os.environ, "PYTHONPATH": SRC}
        offline = subprocess.run(
            [sys.executable, "-m", "repro", "recommend",
             "--model", "resnet50", "--gpus", "8"],
            capture_output=True, text=True, env=env, timeout=120)
        assert offline.returncode == 0, offline.stderr

        # The context manager closes the child's pipes once it exits.
        with subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--cache", str(tmp_path / "cache")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env) as proc:
            try:
                line = proc.stdout.readline()
                assert "listening on" in line, line
                base = line.strip().rsplit(" ", 1)[-1]
                _, body = post(base, "/v1/whatif",
                               {"model": "resnet50", "gpus": 8},
                               timeout=120)
                assert body["status"] == "done"
                assert body["result"]["rendered"] + "\n" == offline.stdout
                # crossover bandwidths ride along with the ranking
                assert any(c["crossings"]
                           for c in body["result"]["crossovers"])
            finally:
                proc.terminate()
                proc.wait(timeout=10)
