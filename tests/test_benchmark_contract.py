"""The benchmark's workloads still run against the package.

``perfbench/workloads.py`` is imported as it is and each workload runs one
pass at its ``tiny`` size.  A flag, a name or a call form that the benchmark
uses and the package no longer has fails here, as does any of the
workloads' own correctness checks.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_runs_clean(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path, workloads.SIZES[name]["tiny"])
    result = wl.run_pass(0, workloads.Recorder())
    assert result["attempted"] >= 1
    assert result["failed"] == 0
