"""Fuzzing the JSON-reading verbs: every input ends in exit 0, 1 or 2.

Each verb gets arbitrary small JSON values and mutations of a valid document
of its format.  A mutation that retypes a value, duplicates a cell id or
corrupts a face word makes the document malformed, so it must exit 2 and
never report a pass.
"""

import contextlib
import copy
import io
import json
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from complicial.anodyne import builtin_certificates, certificate_to_json
from complicial.cli import enriched_to_json, main
from complicial.enriched import point_set, suspension, walking_arrow
from complicial.shapes import big_C, big_H, complicial, standard
from complicial.stratified import set_to_json, subset_to_json


def _tower_problem():
    X, h = big_C(2, 1), big_H(2, 1)
    finish = {"members": sorted(X.dims), "thin": sorted(X.thin)}
    return {"ambient": set_to_json(X), "start": subset_to_json(h), "finish": finish}


def _category():
    cat = walking_arrow()
    return {
        "objects": list(cat.objects),
        "arrows": {f: list(ends) for f, ends in cat.arrows.items()},
        "identities": dict(cat.identities),
        "table": {f"{g};{f}": h for (g, f), h in cat.table.items()},
    }


# the verb and its options, and a valid document of the format it reads
CASES = [
    (["check", "--dmax", "2", "--mode", "all"], set_to_json(complicial(2, 1))),
    (["sigma"], set_to_json(standard(1))),
    (["verify-cert"], certificate_to_json(builtin_certificates()[0])),
    (["search-tower", "--budget", "5"], _tower_problem()),
    (["nerve", "--dmax", "2"], enriched_to_json(suspension(standard(1)))),
    (["validate-gray", "--dmax", "1"], enriched_to_json(suspension(point_set()))),
    (["from-category", "--dmax", "2"], _category()),
]

FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from(["", "0", "*", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)


def _run(verb_args, doc) -> tuple[int, str]:
    """Exit code and stdout of the verb on doc; an exception fails the test."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/in.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([verb_args[0], path, *verb_args[1:]])
    return code, out.getvalue()


def _slots(doc):
    """Every (container, key) inside doc, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _retyped(value):
    if isinstance(value, bool):
        return "yes"
    if isinstance(value, int):
        return "x"
    if isinstance(value, str):
        return 7
    return [] if isinstance(value, dict) else {}


@given(case=st.sampled_from(CASES), value=json_values)
@FUZZ
def test_arbitrary_json_exits_cleanly(case, value):
    code, _ = _run(case[0], value)
    assert code in (0, 1, 2)


@given(case=st.sampled_from(CASES), data=st.data())
@FUZZ
def test_malformed_mutation_exits_2(case, data):
    verb_args, doc = copy.deepcopy(case)
    cell_lists = [c[k] for c, k in _slots(doc) if k == "cells" and c[k]]
    simplices = [c for c, k in _slots(doc) if k == "word"]
    kinds = ["retype"] + ["duplicate-id"] * bool(cell_lists) + ["corrupt-word"] * bool(simplices)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "retype":
        container, key = data.draw(st.sampled_from(list(_slots(doc))))
        container[key] = _retyped(container[key])
    elif kind == "duplicate-id":
        cells = data.draw(st.sampled_from(cell_lists))
        cells.append(dict(data.draw(st.sampled_from(cells))))
    else:
        simplex = data.draw(st.sampled_from(simplices))
        simplex["word"] = data.draw(st.sampled_from([[5], [-1], [0, 0], ["a"], "x"]))
    code, out = _run(verb_args, doc)
    assert code == 2, (kind, doc)
    assert '"pass": true' not in out


@given(case=st.sampled_from(CASES), data=st.data())
@FUZZ
def test_dropped_key_exits_cleanly(case, data):
    verb_args, doc = copy.deepcopy(case)
    slots = [(c, k) for c, k in _slots(doc) if isinstance(c, dict)]
    container, key = data.draw(st.sampled_from(slots))
    del container[key]
    code, _ = _run(verb_args, doc)
    assert code in (0, 1, 2)
