"""One fresh process per round: import complicial, run the jobs, report.

    python3 perfbench/worker.py RESULT.json [JOBS.json]

Without JOBS the worker only imports the package and reports when it was
ready, which gives the driver one more set-up sample.  With JOBS it runs
each job as one ``complicial.cli.main(argv)`` call, back to back, capturing
the job's stdout and stderr, and times each call.  When the job file names a
span file the calls run under the tracer.

While it imports the package and while each untraced job runs, the worker
samples how fast the host is running it: a ``SpeedSampler`` times a fixed
piece of interpreter work (``probe``, which never touches ``complicial``)
once at the start and then every SAMPLE_EVERY_S of wall time, from a SIGALRM
handler.  The probes' own time is taken out of the interval they interrupted,
and ``run.scaled`` turns each interval into reference-host seconds with
its probe times.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

SAMPLE_EVERY_S = 0.01
PROBE_ITERATIONS = 400  # 0.2 to 0.4 ms, so sampling costs about 3%


def probe() -> int:
    """A fixed piece of interpreter work: small tuples hashed into a dict.

    Building and hashing small tuples is the program's own staple, and a
    probe of that kind tracks the host's drift in the program's speed far
    better than one that only reads.  The collector is off while it runs, so
    a probe never pays for a collection of the job's heap; everything it
    allocates is freed before it returns, which leaves the collector's
    counts as they were.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        table: dict = {}
        for i in range(PROBE_ITERATIONS):
            key = (i % 7, i % 11)
            table[key] = table.get(key, 0) + len(tuple(range(i % 5)))
        return len(table)
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times ``probe`` at ``start`` and then every SAMPLE_EVERY_S until ``stop``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, lambda *_: self._sample())

    def _sample(self) -> None:
        t = time.monotonic()
        probe()
        self.samples.append((t, time.monotonic() - t))

    def start(self) -> None:
        self.samples = []
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> tuple[float, list[float]]:
        """The stop time and the probe times taken before it.

        A handler already pending when the timer is disarmed may still run;
        its sample is dropped if it lands after the stop time.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.monotonic()
        return end, [d for t, d in self.samples if t < end]


def run_jobs(cli, spec: dict, tracer, sampler: SpeedSampler | None) -> list[dict]:
    records = []
    for idx, job in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.set_job(idx)
        out, err = io.StringIO(), io.StringIO()
        raised = None
        start = time.monotonic()
        if sampler is not None:
            sampler.start()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(job["argv"])
            except Exception:  # a raising job is a failed job; the round goes on
                code, raised = None, traceback.format_exc()
        end, samples = sampler.stop() if sampler is not None else (time.monotonic(), [])
        records.append(
            {
                "busy_s": end - start - sum(samples),
                "samples": samples,
                "exit": code,
                "raised": raised,
                "stderr": err.getvalue()[-4000:],
                "stdout_bytes": len(out.getvalue().encode()),
            }
        )
    return records


def trace_summary(tracer, span_path: str) -> dict:
    from tracer import JSON_FUNCTIONS, SHAPE_BUILDERS

    tracer.write(span_path)
    return {
        "spans": len(tracer.t1),
        "functions": tracer.per_function(),
        "shapes_build_s": tracer.group_time({f"shapes.{n}" for n in SHAPE_BUILDERS}),
        "json_s": tracer.group_time(set(JSON_FUNCTIONS)),
        "act_under_rlp": tracer.calls_under("stratified.act", "anodyne.rlp_report"),
        "act_under_nerve": tracer.calls_under("stratified.act", "nerve.nerve_simplices"),
        "cells_built": tracer.cells_built,
        "problems": tracer.problems,
        "failures": tracer.failures,
        "simplices_found": tracer.simplices_found,
    }


def main() -> int:
    sampler = SpeedSampler()
    sampler.start()
    import complicial.cli as cli

    ready, samples = sampler.stop()
    # run.py subtracts the spawn time; the probes' time is not set-up
    result: dict = {"ready": ready - sum(samples), "samples": samples}
    if len(sys.argv) > 2:
        with open(sys.argv[2]) as fh:
            spec = json.load(fh)
        tracer = None
        if spec.get("spans"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            sampler = None  # probes inside spans would inflate layer times
        result["jobs"] = run_jobs(cli, spec, tracer, sampler)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["trace"] = trace_summary(tracer, spec["spans"])
    with open(sys.argv[1], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
