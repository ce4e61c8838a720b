"""Every demo runs to completion and prints the same bytes on a second run, and
those bytes are pinned: the sha256 of each demo's stdout.  Demo 03 prints the
kind of every tower step, so its pin guards the step layer as well."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINS = {
    "01_operators_and_cubes": "cd15a772b4a8088d68bba457ea1be1fbee7dfcc4de9999e5724b3aa98d59b406",
    "02_coherent_paths": "d9863627bff77be15ad3db34afde1e34cf067bb8c2ef9c87a7a96f977f65b627",
    "03_certified_towers": "eff1bb11d8254c07eb9be08c16a41952ee9cd2f66330300b80e0526a9e00b2fa",
    "04_gray_nerves": "8b5fb3e9cc7608139286a87db9897ac2206010bbbd5974e8cd8f5869d7172bb0",
}


def _run(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_deterministically(demo):
    first, second = _run(demo), _run(demo)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_the_pinned_bytes(demo):
    run = _run(demo)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == PINS[demo.stem]
