"""Seeded fuzz of the input boundaries: CLI flags, HTTP bodies and
scheme specs.

Each case replaces one flag of ``repro recommend|whatif|simulate|
advise|serve`` or one field of a ``POST /v1/whatif|simulate|advise`` body
with a value of one class — negative, zero, NaN, infinite, huge, of the
wrong type, or missing — drawn from a seeded generator.  Whatever the
value, the answer is either a normal result or a structured error:
exit status 2 with an ``error:`` line, or a JSON ``400``.  Never a
traceback, a Python warning, or a ``500``.  Values no flag or field
accepts (negative, NaN, infinite, wrong type, missing) must be
rejected, and so must zero except where zero means "off".  Huge values
must be rejected before anything is allocated for them: the cluster,
iteration and sweep bounds keep each case small.  ``repro serve`` never
binds a socket here: binding raises in its place, so a value the
server accepts ends the run there, and a rejected one never gets that
far.  Every parameter of
every registered scheme is fuzzed the same way through ``--scheme
NAME:KEY=VALUE``, the spec syntax the CLI and the HTTP bodies share.
"""

import contextlib
import gc
import inspect
import json
import random
import threading
import urllib.error
import urllib.request
import warnings

import pytest

from repro.cli import main
from repro.compression import METHODS, available_schemes, scheme_from_spec
from repro.engine import ExperimentEngine
from repro.errors import ConfigurationError
from repro.serving import ServingScheduler, make_server
from repro.serving.http import ServingHTTPServer
from repro.telemetry import logs as telemetry_logs
from repro.telemetry import metrics as telemetry_metrics

#: The one seed every drawn value comes from.
SEED = 2026

#: Concrete spellings of each value class, per flag type.  ``None``
#: drops the flag's value (``--gpus`` with nothing after it).
INT_VALUES = {
    "negative": ["-1", "-7", "-100000000"],
    "zero": ["0"],
    "nan": ["nan", "NaN"],
    "inf": ["inf", "-inf"],
    "huge": ["100000000", str(10**18)],
    "wrong type": ["abc", "1.5", "1e3", ""],
    "missing": [None],
}
FLOAT_VALUES = {
    "negative": ["-1", "-0.5", "-1e9"],
    "zero": ["0", "0.0"],
    "nan": ["nan", "NaN"],
    "inf": ["inf", "-inf", "Infinity"],
    "huge": ["1e308", "1e300"],
    "wrong type": ["abc", "1,5", ""],
    "missing": [None],
}

#: Classes no flag accepts.
ALWAYS_BAD = {"negative", "nan", "inf", "wrong type", "missing"}

#: Flags for which zero is a legitimate value ("off", or for
#: ``--port`` an ephemeral port).
ZERO_OK = {"--cache-mem-mb", "--port", "--batch-window-ms"}

#: Per command: a cheap valid invocation (``{tmp}`` is the test's
#: temporary directory) and the type of each flag to fuzz.
COMMANDS = {
    "recommend": (
        ["recommend", "--gpus", "8"],
        {"--gpus": int, "--batch": int, "--bandwidth": float}),
    "whatif": (
        ["whatif", "--gpus", "8"],
        {"--gpus": int, "--batch": int, "--bandwidth": float}),
    "simulate": (
        ["simulate", "--gpus", "8", "--iterations", "11",
         "--scheme", "topk:fraction=0.01", "--trace", "{tmp}/trace.json",
         "--trace-iterations", "1", "--trace-workers", "1"],
        {"--gpus": int, "--batch": int, "--iterations": int,
         "--trace-iterations": int, "--trace-workers": int}),
    "advise": (
        ["advise", "--gpus", "8", "--world-sizes", "8",
         "--bandwidth-points", "16", "--shard-points", "16", "--top", "3",
         "--cache", "{tmp}/cache"],
        {"--gpus": int, "--batch": int, "--bandwidth": float,
         "--world-sizes": int, "--min-bandwidth": float,
         "--max-bandwidth": float, "--bandwidth-points": int,
         "--shard-points": int, "--top": int, "--jobs": int,
         "--cache-mem-mb": float}),
    # No --cache and no --quota-rps: the flags that qualify them are
    # checked all the same.
    "serve": (
        ["serve", "--port", "0"],
        {"--port": int, "--jobs": int, "--cache-mem-mb": float,
         "--queue-depth": int, "--quota-rps": float,
         "--quota-burst": float, "--batch-window-ms": float,
         "--max-batch-requests": int, "--request-timeout-s": float}),
}


def _draw(pools, rng):
    """Up to two ``(class, value)`` pairs per class of ``pools``."""
    return [(cls, value) for cls, values in pools.items()
            for value in rng.sample(values, min(2, len(values)))]


def _cli_cases():
    rng = random.Random(SEED)
    for command, (_, flags) in COMMANDS.items():
        for flag, kind in flags.items():
            pools = INT_VALUES if kind is int else FLOAT_VALUES
            yield pytest.param(command, flag, _draw(pools, rng),
                               id=f"{command}{flag}")


def _with(argv, flag, value):
    """``argv`` with ``flag`` set to ``value`` (``None``: no value)."""
    argv = list(argv)
    if flag in argv:
        at = argv.index(flag)
        del argv[at:at + 2]
    # ``--flag=value`` so that "-1" or "-inf" is never read as a flag.
    return argv + ([flag] if value is None else [f"{flag}={value}"])


@pytest.fixture(autouse=True)
def _isolate_telemetry():
    """main() configures the process-global registry and log sink."""
    previous = telemetry_metrics.get_registry()
    yield
    telemetry_metrics.set_registry(previous)
    telemetry_logs.configure()


class Bound(Exception):
    """Raised where ``repro serve`` would bind its socket."""


@pytest.fixture
def no_bind(monkeypatch):
    """``repro serve`` gets as far as binding, and no further."""
    def refuse(self):
        raise Bound()

    monkeypatch.setattr(ServingHTTPServer, "server_bind", refuse)


def _run_cli(argv, capsys):
    """``(exit status, stderr, warnings)`` of one in-process run; a
    server that reaches its bind counts as a run that succeeded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            status = exc.code
        except Bound:
            status = 0
        gc.collect()  # an unclosed file warns when it is collected
    return status, capsys.readouterr().err, [str(w.message) for w in caught]


@pytest.mark.parametrize("command,flag,draws", _cli_cases())
def test_cli_answers_every_bad_value_with_a_structured_error(
        command, flag, draws, tmp_path, capsys, no_bind):
    base = [arg.format(tmp=tmp_path) for arg in COMMANDS[command][0]]
    for cls, value in draws:
        argv = _with(base, flag, value)
        status, err, caught = _run_cli(argv, capsys)
        where = f"repro {' '.join(argv)}"
        assert status in (0, 2), (where, status, err)
        assert not caught, (where, caught)
        assert "Traceback" not in err and "Warning" not in err, (where, err)
        if status == 2:
            assert "error:" in err, (where, err)
        if cls in ALWAYS_BAD or (cls == "zero" and flag not in ZERO_OK):
            assert status == 2, (where, "accepted")


@pytest.mark.parametrize("port", ["-1", "65536", "70000"])
def test_serve_port_out_of_range_is_a_structured_error(port, capsys,
                                                       no_bind):
    status, err, caught = _run_cli(["serve", f"--port={port}"], capsys)
    assert status == 2 and "port must be" in err, (status, err)
    assert "Traceback" not in err and not caught, (err, caught)


# ----- scheme specs ----------------------------------------------------------

#: Spec values no scheme parameter accepts, per parameter type (the
#: type of its default): NaN, infinities, negatives, and fractions
#: where an integer belongs or beyond ``(0, 1]`` where a fraction does.
SPEC_VALUES = {
    int: ["nan", "inf", "-inf", "-1", "-7", "2.5", "0.5", "1e3", "abc"],
    float: ["nan", "inf", "-inf", "-0.5", "-1", "0", "1.5", "abc"],
}


def _bad_specs(name):
    """Every rejected spec of scheme ``name``: one per bad value of
    each parameter, plus parameters the scheme does not take."""
    specs = [f"{name}:bogus=1", f"{name}:rank=4,bogus=2", f"{name}:=1",
             f"{name}:rank"]
    for param in inspect.signature(METHODS[name].scheme).parameters.values():
        specs.extend(f"{name}:{param.name}={value}"
                     for value in SPEC_VALUES[type(param.default)])
    return specs


@pytest.mark.parametrize("name", available_schemes())
def test_every_bad_scheme_spec_is_a_structured_error(name, capsys):
    for spec in _bad_specs(name):
        with pytest.raises(ConfigurationError):
            scheme_from_spec(spec)
        argv = ["whatif", "--gpus", "8", f"--scheme={spec}"]
        status, err, caught = _run_cli(argv, capsys)
        assert status == 2 and "error:" in err, (spec, status, err)
        assert "Traceback" not in err and not caught, (spec, err, caught)


# ----- HTTP bodies -----------------------------------------------------------

#: Decoded JSON values per class; ``json.dumps`` writes NaN and the
#: infinities as the literals ``json.loads`` on the server accepts.
#: ``MISSING`` drops the field, so the server's default applies.
MISSING = object()
NUMBER_VALUES = {
    "negative": [-1, -7, -0.5],
    "zero": [0, 0.0],
    "nan": [float("nan")],
    "inf": [float("inf"), float("-inf")],
    "huge": [100_000_000, 10**18, 1e308],
    "wrong type": ["abc", [1], {"a": 1}, True, "8"],
    "missing": [MISSING],
}
LIST_VALUES = {
    "negative": [[-1], [8, -8]],
    "zero": [[0]],
    "nan": [[float("nan")]],
    "inf": [[float("inf")]],
    "huge": [[100_000_000], [10**18]],
    "wrong type": [[], ["a"], [1.5], 8, {"a": 1}, [True]],
    "missing": [MISSING],
}
FLAG_VALUES = {
    "wrong type": [0, 1, "yes", None, [True]],
    "missing": [MISSING],
}
NAME_VALUES = {
    "wrong type": [7, ["resnet50"], {"a": 1}, "", "no-such-name"],
    "missing": [MISSING],
}

#: Fields for which zero is a legitimate value.
HTTP_ZERO_OK = {"seed", "seeds"}

#: Per route: a cheap valid body and the value pools of each field.
ROUTES = {
    "/v1/whatif": (
        {"model": "resnet50", "gpus": 8, "crossovers": False},
        {"model": NAME_VALUES, "gpus": NUMBER_VALUES,
         "batch": NUMBER_VALUES, "bandwidth": NUMBER_VALUES,
         "crossovers": FLAG_VALUES, "wait": FLAG_VALUES,
         "timeout_s": NUMBER_VALUES}),
    "/v1/simulate": (
        {"model": "resnet50", "gpus": 8, "iterations": 11, "wait": True,
         "scheme": "topk:fraction=0.01"},
        {"model": NAME_VALUES, "gpus": NUMBER_VALUES,
         "batch": NUMBER_VALUES, "bandwidth": NUMBER_VALUES,
         "scheme": NAME_VALUES, "iterations": NUMBER_VALUES,
         "seeds": LIST_VALUES, "seed": NUMBER_VALUES,
         "wait": FLAG_VALUES, "timeout_s": NUMBER_VALUES}),
    "/v1/advise": (
        {"model": "resnet50", "gpus": 8, "world_sizes": [8],
         "bandwidth_points": 16, "shard_points": 16, "top": 3},
        {"model": NAME_VALUES, "gpus": NUMBER_VALUES,
         "batch": NUMBER_VALUES, "bandwidth": NUMBER_VALUES,
         "world_sizes": LIST_VALUES, "min_bandwidth_gbps": NUMBER_VALUES,
         "max_bandwidth_gbps": NUMBER_VALUES,
         "bandwidth_points": NUMBER_VALUES, "shard_points": NUMBER_VALUES,
         "top": NUMBER_VALUES, "wait": FLAG_VALUES,
         "timeout_s": NUMBER_VALUES}),
}


def _http_cases():
    rng = random.Random(SEED)
    for route, (_, fields) in ROUTES.items():
        for field, pools in fields.items():
            yield pytest.param(route, field, _draw(pools, rng),
                               id=f"{route}:{field}")


@pytest.fixture(scope="module")
def server():
    """One in-process server for the module; yields its base URL."""
    scheduler = ServingScheduler(engine=ExperimentEngine(),
                                 batch_window_s=0.0,
                                 quota_rps=1e6, quota_burst=1e6)
    http_server = make_server(scheduler, port=0)
    host, port = http_server.server_address[:2]
    thread = threading.Thread(target=http_server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}"
    finally:
        http_server.shutdown()
        http_server.server_close()
        scheduler.close()


def _post(base, route, body):
    """``(status, decoded body)``; error statuses are answers too."""
    request = urllib.request.Request(
        base + route, data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with contextlib.ExitStack() as stack:
        try:
            reply = stack.enter_context(
                urllib.request.urlopen(request, timeout=60))
        except urllib.error.HTTPError as exc:
            reply = stack.enter_context(exc)
        return reply.status, json.loads(reply.read())


@pytest.mark.parametrize("route,field,draws", _http_cases())
def test_http_answers_every_bad_value_with_a_structured_4xx(
        server, route, field, draws):
    base = ROUTES[route][0]
    for cls, value in draws:
        body = {k: v for k, v in base.items() if k != field}
        if value is not MISSING:
            body[field] = value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, reply = _post(server, route, body)
        where = f"{route} {body!r}"
        assert status in (200, 202, 400), (where, status, reply)
        assert not caught, (where, [str(w.message) for w in caught])
        if status == 400:
            assert reply["error"]["code"] == "bad_request", (where, reply)
            assert reply["error"]["message"], where
        if cls in ALWAYS_BAD - {"missing"} or (
                cls == "zero" and field not in HTTP_ZERO_OK):
            assert status == 400, (where, "accepted", reply)
