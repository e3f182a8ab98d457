"""Every demo script runs to completion and prints exactly its recorded output."""

import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change that alters what a demo prints
# updates its digest here, on purpose
STDOUT_SHA256 = {
    "01_divided_power_algebras.py": "0a034ec1deab303dcb494de6dd4bdebc1add8d43e0eb23c719c96a15c13b7c0e",
    "02_symmetric_group_homology.py": "45238f5a4c9613516d5c1c35f3bad68f8dceca2764e9362aaa3aadf41cdc534d",
    "03_operations.py": "c992b6fc3f8cd196c49ed40e90d4ad58dfaae4db6a09f444e5e22f4ba5825825",
    "04_oracles.py": "cf61af6011fe78a84f171b1695e6e8d1099ed1d33bbbc606632f56dc5824e752",
    "05_certificates.py": "57c3ef60cd026a2f6c46d4b2477455b622d47f8caffafe673a6f7af0ba4ba2d8",
    "06_symmetric_group_census.py": "a9fbf63a55d261aa83acbf1d3e98fe1dc6ecd2fc6289fff02caad14daa774f0d",
}


@functools.lru_cache(maxsize=None)
def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_output_is_unchanged(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[path.name], (
        proc.stdout.decode()
    )
