"""Seed 0 of three perfbench workloads, replayed against their recorded digests.

perfbench records the exit code and output digest of every job in
``perfbench/expected.json``; this replays the seed-0 ``lifting``, ``nerve`` and
``build`` jobs in-process, through the same generator, arguments and check, so
that a change of output shows up here first.  Inputs and outputs go to a temporary
directory; nothing under ``perfbench/`` is written.
"""

import hashlib
import json
import types
from pathlib import Path

import pytest

from complicial.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    # compiled from its source, so no bytecode cache lands in perfbench/
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("workload", ["lifting", "nerve", "build"])
def test_seed_zero_jobs_match_their_records(workload, tmp_path, capsys):
    workloads = load_workloads()
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    jobs = workloads.generate(workload, 0, str(tmp_path))
    assert jobs
    for job in jobs:
        assert workloads.job_key(job) in expected, job["name"]
        out = tmp_path / f"{job['name']}.out.json"
        code = main(workloads.argv(job, str(out)))
        data = out.read_bytes() if out.exists() else None
        rec = {
            "raised": None,
            "stderr": capsys.readouterr().err,
            "exit": code,
            "sha256": hashlib.sha256(data).hexdigest() if data is not None else None,
        }
        assert workloads.check(job, rec, data, expected) is None, job["name"]
