"""Cold start: lazy package namespaces and per-command imports.

Each package ``__init__`` resolves its public names on first access
(PEP 562), and each CLI command imports its modules in its handler.
These tests pin the contract that keeps that invisible: every public
name still resolves, registries come out the same whichever module is
imported first, and each command loads the modules it runs — checked
in fresh interpreters, by which modules are loaded, not by wall time.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.telemetry.metrics import MetricsRegistry

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
PACKAGE_DIR = os.path.join(SRC, "repro")

#: Every package: ``repro`` and each directory under it.
PACKAGES = ["repro"] + sorted(
    f"repro.{name}" for name in os.listdir(PACKAGE_DIR)
    if os.path.isfile(os.path.join(PACKAGE_DIR, name, "__init__.py")))


def _start(code, *args):
    """Start ``code`` in a fresh interpreter on this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(code),
                             *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _finish(proc, timeout=120):
    """The stdout of a process :func:`_start` started, once it exits 0."""
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    finally:
        proc.kill()
    assert proc.returncode == 0, stderr
    return stdout


def _run(code, *args):
    return _finish(_start(code, *args))


def _loaded(stdout):
    """The modules a child process reported on its last line."""
    return set(json.loads(stdout.splitlines()[-1]))


# ----- the lazy-namespace contract ------------------------------------------


def _init_tree(package):
    path = os.path.join(SRC, *package.split("."), "__init__.py")
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read())


def _static_imports(package):
    """``{name: relative module}`` imported under ``if TYPE_CHECKING:``."""
    out = {}
    for node in _init_tree(package).body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom), package
                for alias in stmt.names:
                    module = "." * stmt.level + (stmt.module or alias.name)
                    out[alias.asname or alias.name] = module
    return out


def _static_bindings(package):
    """Names the ``__init__`` binds where static analysis sees them."""
    names = set(_static_imports(package))
    for node in _init_tree(package).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyNamespace:
    def test_every_public_name_resolves_and_is_listed(self, package):
        pkg = importlib.import_module(package)
        listed = dir(pkg)
        for name in pkg.__all__:
            assert getattr(pkg, name) is not None, name
            assert name in listed, name

    def test_star_import_binds_exactly_all(self, package):
        pkg = importlib.import_module(package)
        namespace = {}
        exec(f"from {package} import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(pkg.__all__)
        for name, value in namespace.items():
            assert value is getattr(pkg, name), name

    def test_unknown_attribute_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            pkg.no_such_name
        assert not hasattr(pkg, "no_such_name")

    def test_all_is_bound_statically(self, package):
        # ruff's F822 (undefined name in __all__) cannot see an __all__
        # that lazy_exports derives from the table; this is that check.
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= _static_bindings(package)

    def test_static_imports_match_the_lazy_table(self, package):
        pkg = importlib.import_module(package)
        for name, module in _static_imports(package).items():
            defining = importlib.import_module(module, package)
            expected = (defining if module == "." + name
                        else getattr(defining, name))
            assert getattr(pkg, name) is expected, name


def test_quickstart_in_the_package_docstring_runs(capsys):
    doc = repro.__doc__
    block = doc[doc.index("Quickstart::") + len("Quickstart::"):]
    exec(textwrap.dedent(block), {})
    base, comp = map(float, capsys.readouterr().out.split())
    assert base > 0 and comp > 0


def test_package_names_follow_a_rebinding_and_its_restore(monkeypatch):
    """Nothing is cached in a package namespace, so a wrapper bound in
    the defining module (as a profiler binds one) is what the package
    returns, and restoring the original restores it there too."""
    from repro.core import perf_model
    original = perf_model.predict
    assert repro.core.predict is original

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(perf_model, "predict", wrapper)
        assert repro.core.predict is wrapper
    assert repro.core.predict is original
    assert "predict" not in vars(repro.core)


def test_experiment_registry_resolves_one_exhibit_at_a_time():
    stdout = _run("""
        import json, sys
        from repro.experiments import EXPERIMENTS
        runner = EXPERIMENTS["fig7"]
        print(runner.__module__)
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith("repro.experiments."))))
    """)
    assert stdout.splitlines()[0] == "repro.experiments.fig7_batchsize"
    assert _loaded(stdout) == {"repro.experiments.fig7_batchsize",
                               "repro.experiments.runner"}


# ----- registries do not depend on the first import --------------------------

#: The modules a process may reach the registries through first.
ENTRIES = ("repro", "repro.compression", "repro.serving", "repro.cli",
           "repro.analysis")

REGISTRIES = """
    import importlib, json, sys
    importlib.import_module(sys.argv[1])
    from repro.analysis.advisor import candidate_grid
    from repro.compression import available_methods, available_schemes
    from repro.experiments import EXPERIMENTS, EXTRA_EXPERIMENTS
    from repro.models import available_models
    print(json.dumps({
        "schemes": available_schemes(),
        "methods": available_methods(),
        "models": available_models(),
        "experiments": list(EXPERIMENTS),
        "extra_experiments": list(EXTRA_EXPERIMENTS),
        "advisor_grid": [repr(s) for s in candidate_grid()],
        # Naming the methods (the registry rows) loads none of the
        # modules that define codecs and aggregators.
        "codec_modules": sorted(
            m for m in sys.modules if m.startswith("repro.compression.")
            and m.rsplit(".", 1)[1] in {
                "base", "error_feedback", "identity", "lowrank",
                "natural", "quantization", "signsgd", "sparsification"}),
    }))
"""


def test_registries_are_the_same_whichever_module_loads_first():
    procs = {entry: _start(REGISTRIES, entry) for entry in ENTRIES}
    seen = {entry: json.loads(_finish(proc)) for entry, proc in procs.items()}
    first = seen[ENTRIES[0]]
    assert len(first["advisor_grid"]) == 47
    assert first["codec_modules"] == []
    for entry, registries in seen.items():
        assert registries == first, entry


# ----- each command loads the modules it runs --------------------------------

COMMAND = """
    import json, sys
    from repro.cli import main
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
    print()
    print(json.dumps(sorted(sys.modules)))
"""


def test_version_and_help_load_no_numpy():
    for argv in (["--version"], ["--help"], ["simulate", "--help"]):
        loaded = _loaded(_run(COMMAND, *argv))
        assert "numpy" not in loaded, argv
        assert "repro.cli" in loaded


def test_metrics_from_a_manifest_loads_no_numpy(tmp_path):
    registry = MetricsRegistry()
    registry.counter("sim_runs_total").inc(3)
    registry.histogram("sim_iteration_s").observe_many([0.25, 0.5])
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"metrics": registry.snapshot()}))
    stdout = _run(COMMAND, "metrics", "--manifest", str(manifest))
    assert "sim_runs_total = 3" in stdout
    assert "numpy" not in _loaded(stdout)


def test_an_exhibit_loads_neither_the_server_nor_training_nor_the_advisor():
    loaded = _loaded(_run(COMMAND, "experiment", "fig4"))
    assert "repro.experiments.fig4_powersgd" in loaded
    assert not {m for m in loaded
                if m.startswith(("repro.serving", "repro.training"))}
    assert "repro.analysis.advisor" not in loaded


#: Boots ``repro serve`` in-process; when it prints "listening on",
#: records the loaded modules, then serves one request per route and
#: records them again before interrupting the server.
SERVE = """
    import _thread, io, json, signal, sys, threading, urllib.request

    seen = {}

    def call(path, body=None):
        data = None if body is None else json.dumps(body).encode()
        url = f"http://127.0.0.1:{seen['port']}{path}"
        with urllib.request.urlopen(url, data=data, timeout=60) as reply:
            return reply.read()

    def drive():
        try:
            call("/v1/whatif", {"model": "resnet50", "gpus": 32})
            job = json.loads(call("/v1/simulate", {
                "model": "resnet50", "scheme": "topk:fraction=0.01",
                "gpus": 8, "iterations": 20}))
            call(f"/v1/jobs/{job['id']}?wait_s=60")
            call("/v1/advise", {"model": "resnet50", "world_sizes": [8],
                                "bandwidth_points": 64})
            call("/metrics")
            seen["served"] = sorted(sys.modules)
        finally:
            _thread.interrupt_main()

    class Watch(io.TextIOBase):
        def write(self, text):
            if "listening on" in text and "boot" not in seen:
                seen["boot"] = sorted(sys.modules)
                seen["port"] = int(text.rsplit(":", 1)[1])
                threading.Thread(target=drive).start()
            return len(text)

    from repro.cli import main
    # interrupt_main() stops the server through the default SIGINT
    # handler; a child that inherited SIGINT ignored would never stop.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.stdout = Watch()
    main(["serve", "--port", "0"])
    sys.stdout = sys.__stdout__
    print(json.dumps(seen["boot"]))
    print(json.dumps(seen["served"]))
"""


def test_serve_loads_every_route_module_before_listening():
    # Every module, numpy's and the standard library's included: the
    # first request of each route must import nothing.
    boot, served = (set(json.loads(line))
                    for line in _run(SERVE).splitlines()[-2:])
    assert served - boot == set()
    for module in ("repro.simulator.batch", "repro.analysis.advisor",
                   "repro.serving.http"):
        assert module in boot, module
    unneeded = {m for m in boot if m.startswith((
        "repro.experiments.", "repro.training", "repro.reporting",
        "repro.analysis.sensitivity"))}
    assert unneeded == set()
