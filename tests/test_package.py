"""Package surface: every exported name resolves, and the demo scripts run."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import spatialbench

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["spatialbench"] + [
    f"spatialbench.{m.name}" for m in pkgutil.iter_modules(spatialbench.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("argv, first_line", [
    (["scripts/tau_sweep.py", "--scenes", "5"], "5 scenes, 5 objects each, 128x128"),
    (["scripts/tore_lift_demo.py", "--count", "200"],
     "simulated generator: p(top)=0.8, p(bottom)=0.4"),
])
def test_demo_script_runs(argv, first_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == first_line
