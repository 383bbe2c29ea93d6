"""The study scripts under ``scripts/`` import only names the package has.

Each script runs its work under a ``__main__`` guard, so loading it as a
module runs nothing but its imports.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["conservation_study", "bifurcation_surfaces"])
def test_script_loads(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
