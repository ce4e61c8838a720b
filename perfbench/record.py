"""Record the exit code and output digest of every job for the given seeds.

    python3 perfbench/record.py 0 1 2 3 4 5 6 7 8 9

Runs one round of each workload per seed and writes perfbench/expected.json,
keyed by ``workloads.job_key`` (arguments plus input digest).  A job is
recorded only when it already passes the seed-independent checks; a digest
that disagrees with an earlier recording of the same key is an error, since
the outputs are meant to be byte-stable.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main(seeds: list[int]) -> int:
    sys.path.insert(0, run.SRC)
    table: dict = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            r = run.Run(workload, seed)
            r.expected = {}
            try:
                res = r.round("record")
            finally:
                r.close()
            if "error" in res:
                print(f"{workload} seed {seed}: {res['error']}", file=sys.stderr)
                return 1
            for job, rec in zip(r.jobs, res["jobs"]):
                if rec["error"]:
                    print(f"{workload} seed {seed} {job['name']}: {rec['error']}", file=sys.stderr)
                    return 1
                entry = {"name": job["name"], "exit": rec["exit"], "sha256": rec["sha256"]}
                old = table.setdefault(workloads.job_key(job), entry)
                if (old["exit"], old["sha256"]) != (entry["exit"], entry["sha256"]):
                    print(f"{job['name']}: unstable output {old} vs {entry}", file=sys.stderr)
                    return 1
            print(f"recorded {workload} seed {seed}: {len(r.jobs)} jobs", flush=True)
    with open(run.EXPECTED, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(table)} distinct jobs written to {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or list(range(10))))
