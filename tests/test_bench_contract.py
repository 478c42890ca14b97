"""The names the benchmark harness binds in cptower.

``benchmarks/tracing.py`` wraps cptower functions at their module or class
bindings, so a refactor that moves or renames one breaks a benchmark run.
These tests load it by path, read only, and check the bindings here.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

from cptower import catalog, cli, isosearch, polyring, towers

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _tracing():
    name = "bench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses looks its module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_every_traced_binding_is_its_owners_own():
    # Tracer.installed reads owner.__dict__[attr] for each binding
    bindings = _tracing().layer_bindings(cli, catalog, isosearch, towers,
                                         polyring)
    assert bindings
    for owner, attr, _name, _on_exit in bindings:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_cached_search_takes_the_cache_dir_fourth():
    # the cache hit and miss counters read the cache dir as args[3]
    for owner in (catalog, cli):
        params = list(inspect.signature(owner._cached_search).parameters)
        assert params[3] == "cache_dir"


def test_sweep_rows_pass_through_the_row_timer_binding(monkeypatch):
    # benchmarks/run.py times sweep rows by rebinding catalog._sweep_worker:
    # the sweep must reach every row through the module's binding
    rows = []
    worker = catalog._sweep_worker

    def counted(args):
        rows.append(args[:2])
        return worker(args)

    monkeypatch.setattr(catalog, "_sweep_worker", counted)
    report = catalog.sweep_distinctness("two-stage", 1, 2)
    assert sorted([str(a), str(b)] for a, b in rows) == sorted(
        [r["a"], r["b"]] for r in report["rows"]
    )
