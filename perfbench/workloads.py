"""Seeded job lists for the four workloads, and the checks on their outputs.

``generate`` runs in the driver process: it builds the inputs with the
library at the current commit, validates every stratified set it writes, and
returns the jobs as CLI argument lists.  The worker only ever sees the
generated JSON files.

The seed picks parameters (k, the source of a suspension, which thin flags
are flipped) among choices of similar cost, and never the job structure or
order: the same jobs share per-process caches in the same order on every
seed, so the run-to-run spread of a workload measures the host and the
program, not the draw.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

SUITE_SHA256 = "8aac1947a318e3828db3b5a8f94c32abdfd6b71de9072dc2970f2bab3fc3d593"


def _write(path: str, payload: dict) -> bytes:
    data = json.dumps(payload, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def _checked(X):
    problems = X.validate()
    if problems:
        raise ValueError(f"generated set is invalid: {problems[:3]}")
    return X


def _perturb(X, rng: random.Random, flips: int):
    """Toggle the thin flags of ``flips`` positive-dimensional cells."""
    from complicial.stratified import FiniteStratifiedSet

    pos = [c for c in X.cells() if X.dims[c] >= 1]
    chosen = frozenset(rng.sample(pos, min(flips, len(pos))))
    return _checked(FiniteStratifiedSet(X.dim_cap, X.dims, X.faces, X.thin ^ chosen))


class _Builder:
    """Writes job inputs into the work directory and collects the jobs.

    Jobs added with ``middle=True`` are the similar-cost ones that set the
    job median.  ``ordered`` spreads them evenly between the other jobs, so
    that they sample the whole round rather than one stretch of host speed.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.jobs: list[dict] = []
        self.middle: list[dict] = []

    def add(self, name: str, args: list[str], payload: dict | None = None, middle=False) -> None:
        job = {"name": name, "args": args, "input": None, "input_sha256": None}
        if payload is not None:
            path = os.path.join(self.workdir, f"{name}.in.json")
            data = _write(path, payload)
            job["input"] = path
            job["input_sha256"] = hashlib.sha256(data).hexdigest()
        (self.middle if middle else self.jobs).append(job)

    def add_set(self, name: str, X, args: list[str], middle=False) -> None:
        from complicial.stratified import set_to_json

        self.add(name, args, set_to_json(_checked(X)), middle)

    def add_enriched(self, name: str, E, args: list[str], middle=False) -> None:
        from complicial.cli import enriched_to_json

        for hom in E.homs.values():
            _checked(hom)
        self.add(name, args, enriched_to_json(E), middle)

    def ordered(self) -> list[dict]:
        keyed = [((i + 0.5) / len(part), job)
                 for part in (self.jobs, self.middle) for i, job in enumerate(part)]
        return [job for _, job in sorted(keyed, key=lambda kj: kj[0])]


def _suite(b: _Builder, rng: random.Random, seed: int) -> None:
    b.add("paper-suite", ["paper-suite", "--seed", str(seed)])


def _lifting(b: _Builder, rng: random.Random, seed: int) -> None:
    from complicial import shapes
    from complicial.stratified import set_to_json

    # Seeded thin-flag perturbations of the families the ROADMAP rows use.
    # Eight checks of similar cost (about a tenth of a named row) set the job
    # median, a small-set latency that the draw barely moves.
    def perturbed(name, X, dmax, mode, flips=(1, 3), middle=False):
        b.add_set(name, _perturb(X, rng, rng.randint(*flips)),
                  ["check", "--dmax", str(dmax), "--mode", mode], middle)

    # The ROADMAP baseline rows have the same inputs on every seed; they are
    # added between the cheap checks so that the long jobs spread over the round.
    b.add_set("rlp-cube3-all", shapes.cube(3), ["check", "--dmax", "3", "--mode", "all"])
    small = rng.choice([shapes.complicial(2, 1), shapes.standard(1), shapes.standard_thin(2)])
    perturbed("gen-small", small, 2, rng.choice(["inner", "all"]), flips=(0, 1))
    perturbed("gen-horn4-d2", shapes.horn(4, rng.randint(0, 4)), 2, "all")
    b.add_set("rlp-standard4-inner", shapes.standard(4), ["check", "--dmax", "4", "--mode", "inner"])
    perturbed("gen-cube3-d2", shapes.cube(3), 2, "all")
    perturbed("gen-bigC3-d2", shapes.big_C(3, rng.randint(1, 3)), 2, "all")
    b.add_set(
        "rlp-complicial42-all", shapes.complicial(4, 2), ["check", "--dmax", "4", "--mode", "all"]
    )
    perturbed("gen-Cdot3-d2", shapes.C_dot(3, rng.randint(1, 3)), 2, "all")
    for i in (1, 2):
        perturbed(f"gen-horn3-{i}", shapes.horn(3, rng.randint(0, 3)), 3, "all", middle=True)
        perturbed(f"gen-boundary3-{i}", shapes.boundary(3), 3, "all", middle=True)
        perturbed(f"gen-standard3-{i}", shapes.standard(3), 3, "all", middle=True)
        perturbed(f"gen-complicial3-{i}", shapes.complicial(3, rng.randint(0, 3)), 3, "all",
                  middle=True)
    perturbed("gen-standard4-inner", shapes.standard(4), 3, "inner")
    C23, H23 = _checked(shapes.big_C(3, 2)), shapes.big_H(3, 2)
    problem = {
        "ambient": set_to_json(C23),
        "start": {"members": sorted(H23.members), "thin": sorted(H23.thin_members)},
        "finish": {"members": sorted(C23.dims), "thin": sorted(C23.thin)},
    }
    b.add("tower-C23", ["search-tower", "--budget", "2000"], problem)
    perturbed("gen-complicial4-inner", shapes.complicial(4, rng.randint(1, 3)), 3, "inner")


def _nerve(b: _Builder, rng: random.Random, seed: int) -> None:
    from complicial import enriched, shapes

    susp = enriched.suspension
    b.add_enriched("nerve-susp-delta2-d4", susp(shapes.standard(2)), ["nerve", "--dmax", "4"])
    b.add_enriched("nerve-group2", enriched.one_object_group_enriched(2, 3), ["nerve", "--dmax", "3"])
    b.add_enriched("nerve-group3", enriched.one_object_group_enriched(3, 3), ["nerve", "--dmax", "3"])
    # Suspensions of thin-flag perturbed sources; like the lifting checks,
    # these similar-cost jobs set the job median.
    sources = {
        "delta2": shapes.standard(2),
        "boundary2": shapes.boundary(2),
        "horn2-1": shapes.horn(2, rng.randint(0, 2)),
        "horn2-2": shapes.horn(2, rng.randint(0, 2)),
        "complicial2-1": shapes.complicial(2, rng.randint(1, 2)),
        "complicial2-2": shapes.complicial(2, rng.randint(1, 2)),
        "arrow": enriched.from_category(enriched.walking_arrow(), 3),
        "iso": enriched.from_category(enriched.walking_iso(), 3),
    }
    suspended = {}
    for name, X in sources.items():
        suspended[name] = susp(_perturb(X, rng, rng.randint(0, 2)))
        b.add_enriched(f"nerve-susp-{name}", suspended[name], ["nerve", "--dmax", "3"], True)
    pick = rng.choice(sorted(suspended))
    b.add_enriched("validate-gray", suspended[pick], ["validate-gray", "--dmax", "3"])


def _build(b: _Builder, rng: random.Random, seed: int) -> None:
    from complicial import shapes

    k = rng.randint(1, 5)
    b.add("shape-cube6", ["shape", "cube", "--n", "6"])
    # bigC 5 runs after cube 5 and reuses its cached build; bigH takes a
    # different k, so that it does not reuse the bigC build
    b.add("shape-cube5", ["shape", "cube", "--n", "5"], middle=True)
    b.add("shape-bigC5", ["shape", "bigC", "--n", "5", "--k", str(k)], middle=True)
    b.add("shape-bigH5", ["shape", "bigH", "--n", "5", "--k", str(k % 5 + 1)], middle=True)
    b.add("shape-complicial8", ["shape", "complicial", "--n", "8", "--k", str(rng.randint(0, 8))])
    b.add("shape-delta9", ["shape", "delta", "--n", "9"])
    b.add_set("sigma-cube3", _perturb(shapes.cube(3), rng, rng.randint(1, 4)), ["sigma"])


_GENERATORS = {"suite": _suite, "lifting": _lifting, "nerve": _nerve, "build": _build}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the inputs of one run into ``workdir`` and return its jobs."""
    b = _Builder(workdir)
    _GENERATORS[workload](b, random.Random(f"{workload}:{seed}"), seed)
    return b.ordered()


def argv(job: dict, out_path: str) -> list[str]:
    """The CLI arguments: verb, input file if any, options, output file."""
    args = list(job["args"])
    if job["input"] is not None:
        args.insert(1, job["input"])
    return args + ["--out", out_path]


def job_key(job: dict) -> str:
    """Identity of a job independent of where its files live."""
    text = json.dumps([job["args"], job["input_sha256"]])
    return hashlib.sha256(text.encode()).hexdigest()


def check(job: dict, rec: dict, output: bytes | None, expected: dict) -> str | None:
    """Why a job's result is wrong, or None when it is correct.

    Exact exit code and output digest when the job was recorded; otherwise
    the properties every seed has: no exception or traceback, well-formed
    JSON output, and an exit code agreeing with the reported verdict.
    """
    if rec["raised"]:
        return "raised: " + rec["raised"].strip().splitlines()[-1]
    if "Traceback (most recent call last)" in rec["stderr"]:
        return "printed a traceback"
    code, digest = rec["exit"], rec["sha256"]
    verb = job["args"][0]
    if verb == "paper-suite" and digest != SUITE_SHA256:
        return f"paper-suite report digest {digest}"
    want = expected.get(job_key(job))
    if want is not None:
        if [code, digest] != [want["exit"], want["sha256"]]:
            return f"exit {code} digest {digest}, recorded exit {want['exit']} digest {want['sha256']}"
        return None
    if output is None:
        return "no output written"
    try:
        payload = json.loads(output)
    except ValueError:
        return "output is not JSON"
    if "pass" in payload:
        verdict = payload["pass"]
    elif verb == "search-tower":
        verdict = payload.get("found")
    else:
        verdict = True
    if code != (0 if verdict else 1):
        return f"exit {code} disagrees with the reported verdict {verdict!r}"
    return None
