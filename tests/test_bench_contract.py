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

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
TRACING = BENCHMARKS / "tracing.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses looks its module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _tracing():
    return _load("bench_tracing", TRACING)


def _expected_bindings() -> dict:
    """``EXPECTED_BINDINGS`` of ``benchmarks/run.py``, loaded by path, read
    only, with the sibling modules it imports by name."""
    siblings = ("refspeed", "tracing", "workloads")
    loaded = set(sys.modules)
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return _load("bench_run", BENCHMARKS / "run.py").EXPECTED_BINDINGS
    finally:
        sys.path.remove(str(BENCHMARKS))
        for name in siblings:
            if name not in loaded:
                sys.modules.pop(name, None)


def _fired(argvs) -> set:
    """The tracing labels that fire while ``cli.main`` runs each argv,
    with the in-process caches cold, as in a benchmark pass."""
    catalog.presentation_of.cache_clear()
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed(tracing.layer_bindings(
        cli, catalog, isosearch, towers, polyring
    )):
        codes = [cli.main(argv) for argv in argvs]
    assert 2 not in codes
    return tracer.fired


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


def test_a_cached_iso_mix_fires_every_iso_cached_binding(
    tmp_path, monkeypatch, capsys
):
    # a miss, an exhausted hit, a certificate hit and a Betti pair
    monkeypatch.setenv("CPT_CACHE_DIR", str(tmp_path))
    fired = _fired([
        ["iso", a, b, "--bound", "1"] for a, b in (
            ("Eta2:0,2", "Eta2:0,-2"), ("Eta2:0,2", "Eta2:0,-2"),
            ("GB2:1", "GB2:2"), ("GB2:1", "GB2:2"),
            ("Eta2:0,0", "M8:0,0"),
        )
    ])
    capsys.readouterr()
    assert _expected_bindings()["iso-cached"] <= fired


def test_a_small_sweep_fires_every_sweep_binding(capsys):
    fired = _fired([
        ["sweep", "--theorem", "three-stage", "--range", "0", "--bound", "1"],
    ])
    capsys.readouterr()
    expected = _expected_bindings()
    for workload in ("sweep-three-stage", "sweep-eight-dim"):
        assert expected[workload] <= fired, workload
