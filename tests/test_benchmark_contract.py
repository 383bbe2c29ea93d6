"""The benchmark's workloads and tracer still run against the package.

``perfbench/workloads.py`` is imported as it is and each workload runs one
pass at its ``tiny`` size.  A flag, a name or a call form that the benchmark
uses and the package no longer has fails here, as does any of the
workloads' own correctness checks.  ``perfbench/spans.py`` is imported as it
is too: its tracer must find and restore every function it traces, and each
workload's tiny pass must also run clean under it.  So is
``perfbench/selftest.py``, whose corruption check perturbs one output of each
workload (a sheet sample on its way through ``energy_casimir.ec_csv``) and
must see the pass count it as a failure.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")
selftest = _load("selftest")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_runs_clean(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path, workloads.SIZES[name]["tiny"])
    result = wl.run_pass(0, workloads.Recorder())
    assert result["attempted"] >= 1
    assert result["failed"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_tiny_pass_runs_clean(name, tmp_path):
    # the tracer names a flow's level by its state length, so a level whose
    # state changed length would fail every traced run
    wl = workloads.WORKLOADS[name](7, tmp_path, workloads.SIZES[name]["tiny"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = wl.run_pass(0, workloads.Recorder(tracer))
    finally:
        tracer.uninstall()
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    if name == "flow_levels":
        calls = dict(zip(tracer.names, tracer.calls))
        for level in ("full", "reduced", "invariants"):
            assert calls.get(f"dynamics.rhs.{level}", 0) > 0, level


def test_tracer_patches_and_restores_every_target():
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "spheretop" or name.startswith("spheretop.")}
    before = {(name, attr): value for name, mod in mods.items()
              for attr, value in vars(mod).items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for modname, fname in spans.TARGETS:
            traced = getattr(mods[f"spheretop.{modname}"], fname)
            assert traced.__wrapped__ is before[(f"spheretop.{modname}", fname)], fname
    finally:
        tracer.uninstall()
    after = {(name, attr): value for name, mod in mods.items()
             for attr, value in vars(mod).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_a_corrupted_output_counts_as_a_failure(tmp_path, monkeypatch):
    # the check puts src/ and perfbench/ on sys.path and imports the
    # workloads as a top-level module; both are undone here
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(selftest, "SCRATCH", tmp_path)
    had_workloads = "workloads" in sys.modules
    try:
        selftest.check_corruption()
    finally:
        if not had_workloads:
            sys.modules.pop("workloads", None)
