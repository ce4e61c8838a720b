"""Benchmark driver for the complicial command line.

    python3 perfbench/run.py --workload {suite,lifting,nerve,build} \\
        --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client.  The driver generates the
workload's inputs from the seed, then runs rounds until the next round would
end after ``--seconds``.  Each round is one fresh worker process (cold
caches, as a CLI user pays them) running every job of the workload back to
back, one ``complicial.cli.main`` call per job.  At most one worker is alive
at a time.  A few extra workers only import the package, so that set-up is
sampled several times per run.

With ``--trace 0`` the last line of stdout is the JSON result carrying the
end-to-end metrics (medians over rounds, in reference-host seconds; see
``scaled``); with ``--trace 1`` the driver runs
one untraced and one traced round and reports the per-layer metrics.  Every
job's output is checked; see ``workloads.check``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_PROBES = 10
# Seconds that worker.probe takes on the reference host: the unit of the
# reported times.
REFERENCE_PROBE_S = 0.0002
HARD_LIMIT_S = 170.0  # every worker is stopped before the run reaches this age
# Times of layers that some workload bypasses: they read exactly 0.0 there on
# every run, so they are printed but kept out of the result line.
TABLE_ONLY = {
    "stratified.gray_product.s", "stratified.json.s", "shapes.build.s", "shapes.self_s",
    "hcpath.hom_set.s", "hcpath.self_s", "enriched.make_enriched.s", "enriched.self_s",
    "nerve.build_nerve.s", "nerve.self_s", "anodyne.rlp_report.s", "anodyne.search_tower.s",
    "anodyne.self_s", "suite.paper_suite.s", "suite.desk_examples.s",
    "suite.check_functoriality.s", "suite.self_s",
}


def scaled(busy_s: float, samples: list[float]) -> float:
    """Seconds that ``busy_s`` of wall time would have taken on the reference host.

    Other tenants change this host's speed by tens of percent from one second
    or minute to the next, which would swamp any change to the program.  The
    worker timed a fixed probe at regular moments of the interval; the work
    the host did per second at those moments, relative to the reference host,
    converts the interval's wall time into the time it needs on a host of
    fixed speed.
    """
    return busy_s * statistics.fmean(REFERENCE_PROBE_S / d for d in samples)


def spawn(args: list[str], timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=timeout,
    )
    return t_spawn, proc


class Run:
    """One benchmark invocation: its work directory, deadline and samples."""

    def __init__(self, workload: str, seed: int):
        self.started = time.monotonic()
        self.dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.dir)
        self.jobs = workloads.generate(workload, seed, self.dir)
        self.expected = {}
        if os.path.exists(EXPECTED):
            with open(EXPECTED) as fh:
                self.expected = json.load(fh)
        self.setups: list[tuple[float, float]] = []  # (scaled, wall clock)

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def probe_setup(self) -> None:
        path = os.path.join(self.dir, "probe.json")
        try:
            t_spawn, proc = spawn([path], max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return
        if proc.returncode == 0:
            with open(path) as fh:
                self.add_setup(json.load(fh), t_spawn)

    def add_setup(self, res: dict, t_spawn: float) -> None:
        raw = res["ready"] - t_spawn
        self.setups.append((scaled(raw, res["samples"]), raw))

    def round(self, tag: str, spans: str | None = None) -> dict:
        """Run every job once in a fresh worker and check the outputs."""
        rdir = os.path.join(self.dir, tag)
        os.makedirs(rdir)
        outs = [os.path.join(rdir, f"{j['name']}.out.json") for j in self.jobs]
        spec_path, result_path = os.path.join(rdir, "spec.json"), os.path.join(rdir, "result.json")
        with open(spec_path, "w") as fh:
            json.dump({"jobs": [{"argv": workloads.argv(j, o)} for j, o in zip(self.jobs, outs)],
                       "spans": spans}, fh)
        try:
            t_spawn, proc = spawn([result_path, spec_path], max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return {"error": "worker timed out"}
        if proc.returncode != 0 or not os.path.exists(result_path):
            return {"error": f"worker exited {proc.returncode}: {proc.stderr.decode()[-2000:]}"}
        with open(result_path) as fh:
            res = json.load(fh)
        self.add_setup(res, t_spawn)
        for job, rec, out in zip(self.jobs, res["jobs"], outs):
            data = None
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    data = fh.read()
            rec["sha256"] = hashlib.sha256(data).hexdigest() if data is not None else None
            rec["out_bytes"] = len(data) if data is not None else 0
            rec["error"] = workloads.check(job, rec, data, self.expected)
        for rec in res["jobs"]:
            rec["s"] = scaled(rec["busy_s"], rec["samples"]) if rec["samples"] else rec["busy_s"]
        res["wall_s"] = sum(rec["s"] for rec in res["jobs"])
        res["raw_wall_s"] = sum(rec["busy_s"] for rec in res["jobs"])
        shutil.rmtree(rdir)
        return res

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, rounds: list[dict]) -> tuple[dict, dict]:
    """The metrics for the result line, and the same times unscaled."""
    good = [r for r in rounds if "error" not in r]
    jobs = [j for r in good for j in r["jobs"]]
    metrics = {
        "wall_s": (_median([r["wall_s"] for r in good]), "s"),
        "job_p50_s": (_median([j["s"] for j in jobs]), "s"),
        "setup_s": (_median([s for s, _ in run.setups]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in good]), "MB"),
    }
    unscaled = {
        "wall_s": _median([r["raw_wall_s"] for r in good]),
        "job_p50_s": _median([j["busy_s"] for j in jobs]),
        "setup_s": _median([raw for _, raw in run.setups]),
    }
    return metrics, unscaled


def per_layer(plain: dict, traced: dict) -> dict:
    """Per-layer metrics from the traced round; see perfbench/README.md."""
    tr = traced["trace"]
    fns = tr["functions"]

    def calls(name):
        return (fns.get(name, {}).get("calls", 0), "count")

    def incl(name):
        return (fns.get(name, {}).get("s", 0.0), "s")

    def self_s(module):
        return (sum(v["self_s"] for k, v in fns.items() if k.startswith(module + ".")), "s")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    return {
        "operators.compose_ops.calls": calls("operators.compose_ops"),
        "operators.word_operator.calls": calls("operators.word_operator"),
        "operators.ez_factorize.calls": calls("operators.ez_factorize"),
        "operators.elementary.calls": calls("operators.elementary"),
        "operators.self_s": self_s("operators"),
        "stratified.act.calls": calls("stratified.act"),
        "stratified.act.s": incl("stratified.act"),
        "stratified.sets_built": calls("stratified.FiniteStratifiedSet"),
        "stratified.cells_built": (tr["cells_built"], "count"),
        "stratified.gray_product.s": incl("stratified.gray_product"),
        "stratified.json.s": (tr["json_s"], "s"),
        "stratified.self_s": self_s("stratified"),
        "shapes.build.s": (tr["shapes_build_s"], "s"),
        "shapes.cube_normal_form.calls": calls("shapes.cube_normal_form"),
        "shapes.self_s": self_s("shapes"),
        "hcpath.path_act.calls": calls("hcpath.path_act"),
        "hcpath.arrow_normal_form.calls": calls("hcpath.arrow_normal_form"),
        "hcpath.hom_set.s": incl("hcpath.hom_set"),
        "hcpath.self_s": self_s("hcpath"),
        "enriched.make_enriched.s": incl("enriched.make_enriched"),
        "enriched.compose.calls": calls("enriched.compose"),
        "enriched.self_s": self_s("enriched"),
        "nerve.build_nerve.s": incl("nerve.build_nerve"),
        "nerve.nerve_simplices.calls": calls("nerve.nerve_simplices"),
        "nerve.simplices_found": (tr["simplices_found"], "count"),
        "nerve.nerve_act.calls": calls("nerve.nerve_act"),
        "nerve.act_per_simplex": ratio(tr["act_under_nerve"], tr["simplices_found"]),
        "nerve.self_s": self_s("nerve"),
        "anodyne.rlp_report.s": incl("anodyne.rlp_report"),
        "anodyne.problems": (tr["problems"], "count"),
        "anodyne.failures": (tr["failures"], "count"),
        "anodyne.act_per_problem": ratio(tr["act_under_rlp"], tr["problems"]),
        "anodyne.search_tower.s": incl("anodyne.search_tower"),
        "anodyne.verify_certificate.calls": calls("anodyne.verify_certificate"),
        "anodyne.self_s": self_s("anodyne"),
        "cli.main.s": incl("cli.main"),
        "cli.bytes_out": (sum(j["out_bytes"] + j["stdout_bytes"] for j in traced["jobs"]), "bytes"),
        "cli.self_s": self_s("cli"),
        "suite.paper_suite.s": incl("suite.paper_suite"),
        "suite.desk_examples.s": incl("suite.desk_examples"),
        "suite.check_functoriality.s": incl("suite.check_functoriality"),
        "suite.self_s": self_s("suite"),
        "trace.overhead_s": (traced["raw_wall_s"] - plain["raw_wall_s"], "s"),
    }


def bench(
    workload: str, seed: int, seconds: int, trace: bool
) -> tuple[dict, dict, int, int, list[str]]:
    run = Run(workload, seed)
    try:
        deadline = time.monotonic() + seconds
        for _ in range(SETUP_PROBES):
            run.probe_setup()
        rounds: list[dict] = []
        if trace:
            spans = os.path.join(WORK, f"trace-{workload}.spans")
            rounds = [run.round("plain"), run.round("traced", spans)]
        else:
            while True:
                t = time.monotonic()
                rounds.append(run.round(f"r{len(rounds)}"))
                took = time.monotonic() - t
                if "error" in rounds[-1] or time.monotonic() + took > deadline:
                    break
        errors = [r["error"] for r in rounds if "error" in r]
        attempted = failed = 0
        for r in rounds:
            if "error" in r:
                attempted += len(run.jobs)
                failed += len(run.jobs)
                continue
            for job, rec in zip(run.jobs, r["jobs"]):
                attempted += 1
                if rec["error"]:
                    failed += 1
                    errors.append(f"{job['name']}: {rec['error']}")
        unscaled: dict = {}
        if not trace:
            metrics, unscaled = end_to_end(run, rounds)
        elif all("error" not in r for r in rounds):
            # traced outputs must be byte-identical to untraced ones
            for job, a, b in zip(run.jobs, rounds[0]["jobs"], rounds[1]["jobs"]):
                if a["sha256"] != b["sha256"] or a["exit"] != b["exit"]:
                    failed += 1
                    errors.append(f"{job['name']}: traced output differs")
            metrics = per_layer(rounds[0], rounds[1])
            with open(os.path.join(WORK, f"trace-{workload}.json"), "w") as fh:
                json.dump({"metrics": metrics, "functions": rounds[1]["trace"]["functions"]},
                          fh, indent=1, sort_keys=True)
        else:
            metrics = {}
        return metrics, unscaled, attempted, failed, errors
    finally:
        run.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "complicial", "cli.py")):
        print(f"error: no complicial sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # on SIGTERM, unwind so that subprocess.run kills the worker and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    metrics, unscaled, attempted, failed, errors = bench(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for err in errors[:20]:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} jobs attempted={attempted} failed={failed}")
    print(f"  {'failed_frac':34s} {failed / attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for name, value in unscaled.items():
        print(f"  {name + ' (wall clock)':34s} {value:.6g} s")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in TABLE_ONLY
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
