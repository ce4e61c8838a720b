"""Span tracer wrapped around the public functions of the complicial modules.

Nothing inside ``src/complicial`` is edited: the tracer rebinds each public
module-level function, in its own module and in every module that imported
it by name, to a wrapper that records one span per call.  A few methods are
wrapped on their classes.  Spans live in flat arrays (name id, parent span,
job id, start, end) so that millions of calls fit in memory; they are written
out once, at the end, and every per-layer number is derived from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = (
    "operators",
    "stratified",
    "shapes",
    "hcpath",
    "enriched",
    "nerve",
    "anodyne",
    "cli",
    "suite",
)

# Methods wrapped on their classes: (module, class, method, span name).
METHODS = (
    ("stratified", "FiniteStratifiedSet", "__init__", "stratified.FiniteStratifiedSet"),
    ("stratified", "FiniteStratifiedSet", "act", "stratified.act"),
    ("stratified", "FiniteStratifiedSet", "validate", "stratified.validate"),
    ("enriched", "EnrichedCategory", "compose", "enriched.compose"),
)

# Public functions whose outermost frames together make a layer-level time.
SHAPE_BUILDERS = (
    "standard",
    "boundary",
    "standard_thin",
    "complicial",
    "complicial_primed",
    "complicial_dprimed",
    "horn",
    "cube",
    "big_C",
    "big_H",
    "C_dot",
    "C_ddot",
)
JSON_FUNCTIONS = ("stratified.set_to_json", "stratified.set_from_json")


def _is_public_function(obj, module_name: str) -> bool:
    # lru_cache wrappers are not functions but carry __wrapped__ and __module__
    target = getattr(obj, "__wrapped__", obj)
    return inspect.isfunction(target) and getattr(obj, "__module__", None) == module_name


class Tracer:
    """Span recorder: ``install`` wraps the package; the metrics are derived
    from the recorded spans by ``per_function``, ``group_time`` and
    ``calls_under``."""

    def __init__(self):
        self.names: list[str] = []
        self.fn = array("H")
        self.parent = array("i")
        self.job = array("h")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self._job = [-1]
        self.cells_built = 0
        self.problems = 0
        self.failures = 0
        self.simplices_found = 0

    # -- recording -------------------------------------------------------

    def set_job(self, job_id: int) -> None:
        self._job[0] = job_id

    def wrap(self, name: str, f, on_return=None):
        fid = len(self.names)
        self.names.append(name)
        fn_append, parent_append, job_append = self.fn.append, self.parent.append, self.job.append
        t0_append, t1_append, t1 = self.t0.append, self.t1.append, self.t1
        stack, job, clock = self._stack, self._job, time.perf_counter

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            i = len(t1)
            fn_append(fid)
            parent_append(stack[-1])
            job_append(job[0])
            t1_append(0.0)
            stack.append(i)
            t0_append(clock())
            try:
                out = f(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every public function and the listed methods of the package."""
        mods = {m: importlib.import_module(f"complicial.{m}") for m in MODULES}
        hooks = {
            "anodyne.rlp_report": self._count_report,
            "nerve.nerve_simplices": self._count_simplices,
        }
        originals = {}
        for m, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_public_function(obj, mod.__name__):
                    continue
                name = f"{m}.{attr}"
                originals[id(obj)] = (obj, self.wrap(name, obj, hooks.get(name)))
        # rebind in every module holding the original, under any alias
        holders = list(mods.values()) + [sys.modules["complicial"]]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for m, cls_name, meth, name in METHODS:
            cls = getattr(mods[m], cls_name)
            hook = self._count_cells if meth == "__init__" else None
            setattr(cls, meth, self.wrap(name, vars(cls)[meth], hook))

    def _count_cells(self, args, _out) -> None:
        self.cells_built += len(args[0].dims)

    def _count_report(self, _args, rep) -> None:
        self.problems += sum(n for _, n in rep.checked)
        self.failures += len(rep.failures)

    def _count_simplices(self, _args, out) -> None:
        self.simplices_found += len(out)

    # -- derivation --------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as a JSON header line followed by the five raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.t1),
            "arrays": [["fn", "H"], ["parent", "i"], ["job", "h"], ["t0", "d"], ["t1", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.fn, self.parent, self.job, self.t0, self.t1):
                arr.tofile(fh)

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds (outermost frames) and self seconds by name.

        Spans are stored in start order, so a parent always precedes its
        children; one pass keeps the open ancestors on a stack.
        """
        names, fn, parent, t0, t1 = self.names, self.fn, self.parent, self.t0, self.t1
        nspan = len(t1)
        child = array("d", bytes(8 * nspan))
        for i in range(nspan):
            p = parent[i]
            if p >= 0:
                child[p] += t1[i] - t0[i]
        calls = [0] * len(names)
        incl = [0.0] * len(names)
        self_s = [0.0] * len(names)
        open_count = [0] * len(names)
        stack: list[int] = []
        for i in range(nspan):
            p = parent[i]
            while stack and stack[-1] != p:
                open_count[fn[stack.pop()]] -= 1
            f = fn[i]
            dur = t1[i] - t0[i]
            calls[f] += 1
            self_s[f] += dur - child[i]
            if not open_count[f]:
                incl[f] += dur
            open_count[f] += 1
            stack.append(i)
        return {
            name: {"calls": calls[f], "s": incl[f], "self_s": self_s[f]}
            for f, name in enumerate(names)
        }

    def group_time(self, members) -> float:
        """Inclusive seconds of spans in ``members`` with no ancestor in it."""
        ids = {f for f, name in enumerate(self.names) if name in members}
        fn, parent, t0, t1 = self.fn, self.parent, self.t0, self.t1
        inside = bytearray(len(t1))
        total = 0.0
        for i in range(len(t1)):
            p = parent[i]
            up = p >= 0 and inside[p]
            if fn[i] in ids:
                if not up:
                    total += t1[i] - t0[i]
                inside[i] = 1
            elif up:
                inside[i] = 1
        return total

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` that have a span of ``ancestor`` above them."""
        target, anc = self.names.index(name), self.names.index(ancestor)
        fn, parent = self.fn, self.parent
        inside = bytearray(len(fn))
        count = 0
        for i in range(len(fn)):
            p = parent[i]
            up = p >= 0 and (inside[p] or fn[p] == anc)
            if up:
                inside[i] = 1
                if fn[i] == target:
                    count += 1
        return count
