import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from complicial.anodyne import builtin_certificates, certificate_to_json
from complicial.cli import VERBS, _write_json, enriched_to_json, main
from complicial.enriched import EnrichedCategory, FiniteCategory, point_set, suspension
from complicial.errors import BadParams
from complicial.shapes import big_C, big_H, cube, standard
from complicial.stratified import set_from_json, set_json_chunks, set_to_json, subset_to_json

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_shape_cube_census(tmp_path, capsys):
    out_file = tmp_path / "cube.json"
    code, _ = run(["shape", "cube", "--n", "2", "--out", str(out_file)], capsys)
    assert code == 0
    data = json.loads(out_file.read_text())
    assert len(data["cells"]) == 11


def test_shape_bigH(tmp_path, capsys):
    out_file = tmp_path / "h.json"
    code, _ = run(["shape", "bigH", "--n", "3", "--k", "2", "--out", str(out_file)], capsys)
    assert code == 0
    X = set_from_json(json.loads(out_file.read_text()))
    assert "2,+,1" not in X.dims


def test_shape_point(capsys):
    code, out = run(["shape", "delta", "--n", "0"], capsys)
    assert code == 0
    assert json.loads(out)["cells"][0]["id"] == "0"


def test_shape_unknown_is_usage_error(capsys):
    code, _ = run(["shape", "octahedron", "--n", "2"], capsys)
    assert code == 2


def test_shape_missing_param(capsys):
    code, _ = run(["shape", "horn", "--n", "2"], capsys)
    assert code == 2


def test_check_point_passes(tmp_path, capsys):
    shape_file = tmp_path / "pt.json"
    run(["shape", "delta", "--n", "0", "--out", str(shape_file)], capsys)
    code, out = run(["check", str(shape_file), "--dmax", "1", "--mode", "all"], capsys)
    assert code == 0
    assert json.loads(out)["pass"]


def test_check_standard_two_fails_inner(tmp_path, capsys):
    shape_file = tmp_path / "d2.json"
    run(["shape", "delta", "--n", "2", "--out", str(shape_file)], capsys)
    code, out = run(["check", str(shape_file), "--dmax", "2", "--mode", "inner"], capsys)
    assert code == 1
    report = json.loads(out)
    assert any(f["instance"] == "horn[2,1]" for f in report["failures"])


def test_check_writes_the_same_bytes_under_any_hash_seed(tmp_path):
    # the face index behind the lifting report is built from dicts and sets,
    # so two interpreters with different string hashes must agree byte for byte
    shape_file = tmp_path / "cube3.json"
    shape_file.write_text(json.dumps(set_to_json(cube(3))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    outputs = []
    for seed in ("1", "2"):
        out_file = tmp_path / f"report-{seed}.json"
        argv = ["check", str(shape_file), "--dmax", "3", "--mode", "all", "--out", str(out_file)]
        proc = subprocess.run(
            [sys.executable, "-m", "complicial.cli", *argv],
            env={**env, "PYTHONHASHSEED": seed},
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode in (0, 1), proc.stderr.decode()
        outputs.append((proc.returncode, out_file.read_bytes()))
    assert outputs[0] == outputs[1]


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _ = run(["check", str(bad), "--dmax", "1"], capsys)
    assert code == 2


def test_nerve_of_suspension(tmp_path, capsys):
    cat_file = tmp_path / "susp.json"
    cat_file.write_text(json.dumps(enriched_to_json(suspension(point_set()))))
    code, out = run(["nerve", str(cat_file), "--dmax", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["census"] == {"0": "2", "1": "1"} or data["census"] == {"0": 2, "1": 1}


def test_nerve_at_dimension_six_exits_cleanly(tmp_path):
    # run as a process, so that a traceback would reach stderr
    cat_file = tmp_path / "susp.json"
    cat_file.write_text(json.dumps(enriched_to_json(suspension(standard(0)))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "complicial.cli", "nerve", str(cat_file), "--dmax", "6"],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0 and b"Traceback" not in proc.stderr, proc.stderr.decode()
    assert json.loads(proc.stdout)["census"] == {"0": 2, "1": 1}


def test_import_path_leaves_out_dataclasses_and_inspect():
    # a fresh interpreter without site hooks: what importing the CLI and the suite loads
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import complicial.cli, complicial.suite, complicial.nerve, complicial.enriched; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip() == b"[]", proc.stdout.decode()


def test_importing_the_cli_builds_no_parser():
    # a fresh interpreter without site hooks: the parser is built by the first main call
    code = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import argparse, contextlib, os
built, init = [], argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
import complicial.cli
print(len(built))
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    code = complicial.cli.main(["--help"])
print(code, len(built))
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    # none at import; the parser and its nine subparsers at the first call
    assert proc.stdout.split() == [b"0", b"0", b"10"], proc.stdout.decode()


def test_main_builds_its_parser_once_and_calls_stay_independent(tmp_path, capsys, monkeypatch):
    import argparse

    main(["shape", "delta", "--n", "0"])  # warm-up: the parser exists whatever ran before
    capsys.readouterr()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    d2, problem = tmp_path / "d2.json", tmp_path / "problem.json"
    d2.write_text(json.dumps(delta2()))
    problem.write_text(json.dumps(tower_problem()))
    assert main(["check", str(d2), "--dmax", "1"]) == 0
    assert main(["shape", "cube", "--n", "1", "--k", "1"]) == 2
    assert main(["check", "--help"]) == 0
    # neither a usage error nor a parsed value carries over to the next call
    assert main(["shape", "cube", "--n", "1"]) == 0
    assert main(["search-tower", str(problem), "--budget", "-1"]) == 2
    assert main(["search-tower", str(problem)]) in (0, 1)
    capsys.readouterr()
    helps = []
    for _ in range(2):
        assert main(["check", "--help"]) == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "--mode" in helps[0]
    assert built == []


def test_reader_closing_stdout_early_is_not_an_error():
    # run as a process whose reader takes 100 bytes of an 800 kB document and
    # closes the pipe, as `complicial shape cube --n 5 | head -c 100` does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "complicial.cli", "shape", "cube", "--n", "5"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert b"Traceback" not in err and err == b"", err.decode()
    assert code == 0


def test_verify_cert_roundtrip(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(certificate_to_json(builtin_certificates()[0])))
    code, out = run(["verify-cert", str(cert_file)], capsys)
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_cert_unknown_step_kind_is_parse_error(tmp_path, capsys):
    data = certificate_to_json(builtin_certificates()[0])
    data["steps"][0]["kind"] = "outer-horn"
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(data))
    code = main(["verify-cert", str(cert_file)])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown step kind 'outer-horn'" in err


def test_search_tower_cli(tmp_path, capsys):
    from complicial.shapes import big_C, big_H
    from complicial.stratified import set_to_json

    X = big_C(2, 1)
    h = big_H(2, 1)
    payload = {
        "ambient": set_to_json(X),
        "start": {"members": sorted(h.members), "thin": sorted(h.thin_members)},
        "finish": {"members": sorted(X.dims), "thin": sorted(X.thin)},
    }
    in_file = tmp_path / "problem.json"
    in_file.write_text(json.dumps(payload))
    code, out = run(["search-tower", str(in_file), "--budget", "10"], capsys)
    assert code == 0
    assert json.loads(out)["found"]


def test_search_tower_longer_than_the_recursion_limit(tmp_path, capsys):
    # a path of 1,200 thin edges from its first vertex: one horn step per edge,
    # a tower deeper than the recursion limit, which the recursive search hit
    n = 1200
    assert n > sys.getrecursionlimit()
    vertex = lambda i: {"id": f"v{i:04d}", "dim": 0, "thin": False, "faces": []}
    edge = lambda i: {
        "id": f"e{i:04d}",
        "dim": 1,
        "thin": True,
        "faces": [{"cell": f"v{i + 1:04d}", "word": []}, {"cell": f"v{i:04d}", "word": []}],
    }
    cells = [vertex(i) for i in range(n + 1)] + [edge(i) for i in range(n)]
    problem = {
        "ambient": {"dim_cap": 1, "cells": cells},
        "start": {"members": ["v0000"], "thin": []},
        "finish": {
            "members": [c["id"] for c in cells],
            "thin": [c["id"] for c in cells if c["thin"]],
        },
    }
    in_file, cert_file = tmp_path / "path.json", tmp_path / "cert.json"
    in_file.write_text(json.dumps(problem))
    argv = ["search-tower", str(in_file), "--budget", "5000", "--out", str(cert_file)]
    assert main(argv) == 0
    cert = json.loads(cert_file.read_text())
    assert cert["found"] and len(cert["steps"]) == n
    code, out = run(["verify-cert", str(cert_file)], capsys)
    assert code == 0 and json.loads(out)["pass"]


def test_paper_suite_exit_zero(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run(["paper-suite", "--out", str(out_file)], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert json.loads(out_file.read_text())["pass"]
    # the seed-0 report is byte-stable across refactors
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
        "8aac1947a318e3828db3b5a8f94c32abdfd6b71de9072dc2970f2bab3fc3d593"
    )


def test_paper_suite_to_stdout_is_json(capsys):
    # with --out - the report takes stdout and the status lines go to stderr
    code = main(["paper-suite", "--out", "-"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["pass"] is True
    assert captured.err.startswith("PASS ") and "FAIL" not in captured.err


def test_from_category_cli(tmp_path, capsys):
    cat = {
        "objects": ["x", "y"],
        "arrows": {"ix": ["x", "x"], "iy": ["y", "y"], "f": ["x", "y"]},
        "identities": {"x": "ix", "y": "iy"},
        "table": {"ix;ix": "ix", "iy;iy": "iy", "f;ix": "f", "iy;f": "f"},
    }
    in_file = tmp_path / "cat.json"
    in_file.write_text(json.dumps(cat))
    code, out = run(["from-category", str(in_file), "--dmax", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert sum(1 for c in data["cells"] if c["dim"] == 1) == 1


def test_from_category_validates_its_category_once(tmp_path, capsys, monkeypatch):
    # the reader only parses; from_category checks the laws, once, and a
    # failure still exits 2
    calls = []
    validate = FiniteCategory.validate
    monkeypatch.setattr(FiniteCategory, "validate", lambda cat: calls.append(cat) or validate(cat))
    in_file = tmp_path / "cat.json"
    for doc, status in ((WALKING_ARROW, 0), (without_right_unit(), 2)):
        in_file.write_text(json.dumps(doc))
        calls.clear()
        assert run(["from-category", str(in_file), "--dmax", "2"], capsys)[0] == status
        assert len(calls) == 1


def test_validate_gray_cli(tmp_path, capsys):
    from complicial.shapes import standard

    e_file = tmp_path / "susp.json"
    e_file.write_text(json.dumps(enriched_to_json(suspension(standard(1)))))
    code, out = run(["validate-gray", str(e_file), "--dmax", "2"], capsys)
    assert code == 0
    assert json.loads(out)["pass"]


def test_sigma_cli(tmp_path, capsys):
    shape_file = tmp_path / "d1.json"
    run(["shape", "delta", "--n", "1", "--out", str(shape_file)], capsys)
    code, out = run(["sigma", str(shape_file)], capsys)
    assert code == 0
    data = json.loads(out)
    assert set(data["objects"]) == {"0", "1"}


# -- malformed input exits 2 and names the offending field -------------------

WALKING_ARROW = {
    "objects": ["x", "y"],
    "arrows": {"ix": ["x", "x"], "iy": ["y", "y"], "f": ["x", "y"]},
    "identities": {"x": "ix", "y": "iy"},
    "table": {"ix;ix": "ix", "iy;iy": "iy", "f;ix": "f", "iy;f": "f"},
}


def delta2(cell=None, **fields):
    """The standard 2-simplex as JSON, with the given fields of cells[cell] replaced.

    Its cells are the vertices 0, 1, 2, the edges 0.1, 0.2, 1.2 and the 2-cell 0.1.2.
    """
    doc = set_to_json(standard(2))
    if cell is not None:
        doc["cells"][cell].update(fields)
    return doc


def edge_faces(word):
    """Faces of the edge 0.1 (cells[3]) whose d_0 carries the given word."""
    return [{"cell": "1", "word": word}, {"cell": "0", "word": []}]


def tower_problem():
    X, h = big_C(2, 1), big_H(2, 1)
    finish = {"members": sorted(X.dims), "thin": sorted(X.thin)}
    return {"ambient": set_to_json(X), "start": subset_to_json(h), "finish": finish}


def without(doc, *path):
    """doc with the key at the end of path removed."""
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    return doc


def suspended_point():
    return enriched_to_json(suspension(point_set()))


def with_comp_key(doc, triple, key):
    """doc with one more entry, keyed key, in the composition table of triple."""
    doc["comp"][triple][key] = {"cell": "nope", "word": []}
    return doc


def with_shared_product_spelling():
    """One object whose hom is the 0-set {p|)(q, p, q|)(r, r}: its product with
    itself has 16 cells, and (p|)(q, r) and (p, q|)(r) are both spelled (p|)(q|)(r|)."""
    points = [{"id": c, "dim": 0} for c in ("p|)(q", "p", "q|)(r", "r")]
    return {
        "objects": ["*"],
        "dim_cap": 0,
        "identities": {"*": "p"},
        "homs": {"*;*": {"dim_cap": 0, "cells": points}},
        "comp": {"*;*;*": {"(p|)(q|)(r|)": {"cell": "p", "word": []}}},
    }


def with_negative_cap():
    """The suspension of the 1-simplex at dim_cap -1, every composition table empty:
    the law checks stop at the cap, so at a negative one they would check nothing."""
    doc = enriched_to_json(suspension(standard(1)))
    return dict(doc, dim_cap=-1, comp={key: {} for key in doc["comp"]})


def with_step(cert, i, **fields):
    """Builtin certificate cert as JSON, with the given fields of steps[i] replaced."""
    doc = certificate_to_json(builtin_certificates()[cert])
    doc["steps"][i].update(fields)
    return doc


def with_duplicate_cell():
    doc = delta2()
    doc["cells"].append(dict(doc["cells"][0]))
    return doc


def walking_arrow_json():
    return json.loads(json.dumps(WALKING_ARROW))


def without_right_unit():
    """The walking arrow without f . ix, with f listed before the identities."""
    doc = walking_arrow_json()
    doc["arrows"] = {"f": ["x", "y"], "ix": ["x", "x"], "iy": ["y", "y"]}
    return without(doc, "table", "f;ix")


def with_unknown_composite():
    doc = walking_arrow_json()
    doc["table"]["g;f"] = "f"
    return doc


def with_separator_in_arrow_name():
    """f: a -> b, g: b -> c and their composite named f|g, the spelling of the 2-cell (f, g)."""
    ends = {"ia": "aa", "ib": "bb", "ic": "cc", "f": "ab", "g": "bc", "f|g": "ac"}
    table = {"g;f": "f|g"}
    for x, (s, t) in ends.items():
        table[f"{x};i{s}"] = table[f"i{t};{x}"] = x
    return {
        "objects": ["a", "b", "c"],
        "arrows": {x: list(st) for x, st in ends.items()},
        "identities": {o: f"i{o}" for o in "abc"},
        "table": table,
    }


CHECK = ["check", "--dmax", "2"]
MALFORMED = {
    "check-one-face": (
        CHECK, delta2(6, faces=[{"cell": "1.2", "word": []}]), "cell 0.1.2: expected 3 faces, got 1"
    ),
    "check-no-dim-cap": (CHECK, without(delta2(), "dim_cap"), "set.dim_cap: missing"),
    "check-top-level-list": (CHECK, [delta2()], "set: expected an object"),
    "check-duplicate-id": (CHECK, with_duplicate_cell(), "set.cells[7].id: duplicate cell id '0'"),
    "check-dim-not-int": (CHECK, delta2(0, dim="x"), "set.cells[0].dim: expected an int"),
    "check-face-unknown-cell": (
        CHECK,
        delta2(3, faces=[{"cell": "9", "word": []}, {"cell": "0", "word": []}]),
        "cell 0.1: face 0 names unknown cell 9",
    ),
    "check-face-word-out-of-range": (
        CHECK,
        delta2(3, faces=edge_faces([5])),
        "cell 0.1: face 0 is not a 0-simplex in normal form",
    ),
    "check-face-word-not-int": (
        CHECK,
        delta2(3, faces=edge_faces(["a"])),
        "set.cells[3].faces[0].word: expected a list of int",
    ),
    "verify-cert-start-without-thin": (
        ["verify-cert"],
        without(certificate_to_json(builtin_certificates()[0]), "start", "thin"),
        "certificate.start.thin: missing",
    ),
    "verify-cert-step-k-above-n": (
        ["verify-cert"], with_step(3, 0, n=3, k=4), "certificate.steps[0].k: must be in 0..3"
    ),
    "verify-cert-step-k-negative": (
        ["verify-cert"], with_step(3, 0, n=3, k=-1), "certificate.steps[0].k: must be in 0..3"
    ),
    "verify-cert-step-n-zero": (
        ["verify-cert"], with_step(3, 0, n=0, k=0), "certificate.steps[0].n: must be at least 1"
    ),
    "search-tower-start-without-thin": (
        ["search-tower"], without(tower_problem(), "start", "thin"), "problem.start.thin: missing"
    ),
    "from-category-unknown-arrow": (
        ["from-category", "--dmax", "2"],
        with_unknown_composite(),
        "category: composite g . f names an undeclared arrow",
    ),
    "from-category-missing-right-unit": (
        ["from-category", "--dmax", "2"],
        without_right_unit(),
        "category: right unit fails at f",
    ),
    "nerve-missing-composite-image": (
        ["nerve", "--dmax", "2"],
        without(enriched_to_json(suspension(standard(1))), "comp", "0;0;1", "(0|)(*|)"),
        "image of (0|)(*|) is missing or not a 0-simplex of the target",
    ),
    "nerve-comp-key-names-no-cell": (
        ["nerve", "--dmax", "1"],
        with_comp_key(enriched_to_json(suspension(standard(1))), "0;0;1", "(bogus|)(cell|)"),
        "enriched.comp.0;0;1.(bogus|)(cell|): names no product cell",
    ),
    "nerve-comp-key-names-two-cells": (
        ["nerve", "--dmax", "1"],
        with_shared_product_spelling(),
        "enriched.comp.*;*;*.(p|)(q|)(r|): names two product cells",
    ),
    "nerve-missing-comp-triple": (
        ["nerve", "--dmax", "2"],
        without(suspended_point(), "comp", "0;1;1"),
        "enriched.comp.0;1;1: missing",
    ),
    "nerve-missing-hom-pair": (
        ["nerve", "--dmax", "2"],
        without(suspended_point(), "homs", "1;0"),
        "enriched.homs.1;0: missing",
    ),
    "sigma-top-level-list": (["sigma"], [delta2()], "set: expected an object"),
    "sigma-negative-dim-cap": (
        ["sigma"], {"dim_cap": -1, "cells": []}, "set.dim_cap: must be at least 0"
    ),
    "validate-gray-negative-dim-cap": (
        ["validate-gray", "--dmax", "2"], with_negative_cap(), "enriched.dim_cap: must be at least 0"
    ),
    "nerve-object-with-separator": (
        ["nerve", "--dmax", "2"],
        dict(suspended_point(), objects=["a;b", "a", "b;a", "b"]),
        "enriched.objects[0]: object 'a;b' contains the key separator ';'",
    ),
    "nerve-duplicate-object": (
        ["nerve", "--dmax", "2"],
        dict(suspended_point(), objects=["0", "1", "1"]),
        "enriched.objects[2]: duplicate object '1'",
    ),
    "from-category-duplicate-object": (
        ["from-category", "--dmax", "2"],
        dict(walking_arrow_json(), objects=["x", "y", "x"]),
        "category.objects[2]: duplicate object 'x'",
    ),
    "from-category-table-key-without-separator": (
        ["from-category", "--dmax", "2"],
        dict(walking_arrow_json(), table={**WALKING_ARROW["table"], "fix": "f"}),
        "category.table.fix: expected a key g;f",
    ),
    "from-category-separator-in-arrow-name": (
        ["from-category", "--dmax", "2"],
        with_separator_in_arrow_name(),
        "two distinct cells are both spelled 'a:f|g'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_parse_error(case, tmp_path, capsys):
    args, doc, message = MALFORMED[case]
    in_file = tmp_path / "in.json"
    in_file.write_text(json.dumps(doc))
    code = main([args[0], str(in_file), *args[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert "Traceback" not in captured.err and '"pass": true' not in captured.out


USAGE_ERRORS = {
    "shape-delta-negative-n": (["shape", "delta", "--n", "-1"], None),
    "shape-delta-thin-point": (["shape", "delta-thin", "--n", "0"], None),
    "shape-horn-k-above-n": (["shape", "horn", "--n", "2", "--k", "5"], None),
    "shape-bigC-small-n": (["shape", "bigC", "--n", "1", "--k", "1"], None),
    "shape-cube-takes-no-k": (["shape", "cube", "--n", "1", "--k", "9"], None),
    "shape-delta-takes-no-k": (["shape", "delta", "--n", "1", "--k", "-3"], None),
    "check-dmax-0": (["check", "--dmax", "0"], delta2()),
    "validate-gray-dmax-0": (["validate-gray", "--dmax", "0"], suspended_point()),
    "nerve-dmax-negative": (["nerve", "--dmax", "-1"], suspended_point()),
    "from-category-dmax-negative": (["from-category", "--dmax", "-1"], WALKING_ARROW),
    "search-tower-budget-negative": (["search-tower", "--budget", "-1"], tower_problem()),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_out_of_range_argument_is_usage_error(case, tmp_path, capsys):
    args, doc = USAGE_ERRORS[case]
    if doc is not None:
        in_file = tmp_path / "in.json"
        in_file.write_text(json.dumps(doc))
        args = [args[0], str(in_file), *args[1:]]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err


# one well-formed run of every verb, and the document it reads, if any
VERB_RUNS = {
    "shape": (["shape", "delta", "--n", "1"], None),
    "check": (["check", "--dmax", "1"], delta2),
    "nerve": (["nerve", "--dmax", "1"], suspended_point),
    "verify-cert": (["verify-cert"], lambda: certificate_to_json(builtin_certificates()[0])),
    "search-tower": (["search-tower", "--budget", "10"], tower_problem),
    "paper-suite": (["paper-suite"], None),
    "sigma": (["sigma"], delta2),
    "from-category": (["from-category", "--dmax", "1"], walking_arrow_json),
    "validate-gray": (["validate-gray", "--dmax", "1"], suspended_point),
}


@pytest.mark.parametrize("verb", sorted(VERBS))
@pytest.mark.parametrize("target", ["missing-directory", "directory", "full-device"])
def test_unwritable_out_is_usage_error(verb, target, tmp_path, capsys):
    args, doc = VERB_RUNS[verb]
    if doc is not None:
        in_file = tmp_path / "in.json"
        in_file.write_text(json.dumps(doc()))
        args = [args[0], str(in_file), *args[1:]]
    (tmp_path / "directory").mkdir()
    out = {
        "missing-directory": tmp_path / "missing" / "out.json",
        "directory": tmp_path / "directory",
        "full-device": Path("/dev/full"),  # opens, then every write fails
    }[target]
    code = main([*args, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {out}: ")
    if target != "full-device":
        # refused before the verb runs, so paper-suite prints no PASS lines either
        assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists() and not any((tmp_path / "directory").iterdir())


def test_enriched_writer_rejects_separator_in_object_names():
    E = EnrichedCategory(["a;b"], {("a;b", "a;b"): point_set()}, {"a;b": "*"}, {}, 0)
    with pytest.raises(BadParams):
        enriched_to_json(E)


def test_sigma_of_a_point_with_a_high_cap_is_quick(tmp_path, capsys):
    # the law checks and the product stop at the dimensions where they can fail
    import time

    in_file = tmp_path / "p.json"
    in_file.write_text(json.dumps({"dim_cap": 640, "cells": [{"id": "p", "dim": 0}]}))
    start = time.perf_counter()
    code, out = run(["sigma", str(in_file)], capsys)
    assert code == 0 and time.perf_counter() - start < 2
    assert json.loads(out)["comp"]["0;0;1"] == {"(p|)(*|)": {"cell": "p", "word": []}}


WRITER_PAYLOAD = {
    "z": [1, [2, [3, []]], {}],
    "a": {"nested": {"deeper": [None, True, 0.5]}, "empty": [], "none": {}},
    "ünïcode": "Δ[1]⊗Δ[1] → ∂Δ²",
    "m": "",
}


def test_writer_bytes_match_json_dumps_on_every_output(tmp_path, capsys):
    expected = json.dumps(WRITER_PAYLOAD, indent=2, sort_keys=True) + "\n"
    out_file = tmp_path / "out.json"
    _write_json(str(out_file), WRITER_PAYLOAD)
    assert out_file.read_bytes() == expected.encode()
    for path in ("-", None):
        _write_json(path, WRITER_PAYLOAD)
        assert capsys.readouterr().out == expected


def test_writer_streams_without_holding_the_text(tmp_path):
    X = cube(5)
    payload = set_to_json(X)
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # the stdlib path on a dict, and the set path, whose chunks are made while traced
    for name, write in (
        ("dict", lambda path: _write_json(path, payload)),
        ("chunks", lambda path: _write_json(path, set_json_chunks(X))),
    ):
        out_file = tmp_path / f"cube5-{name}.json"
        tracemalloc.start()
        try:
            write(str(out_file))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out_file.stat().st_size
        assert out_file.read_text() == expected, name
        assert peak < size, name


def test_spelling_clash_writes_no_out_file(tmp_path, capsys):
    # the clash is found when the set's chunks are asked for, before --out is opened
    in_file, out_file = tmp_path / "in.json", tmp_path / "f.json"
    in_file.write_text(json.dumps(with_separator_in_arrow_name()))
    code = main(["from-category", str(in_file), "--dmax", "2", "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: two distinct cells are both spelled 'a:f|g'\n"
    assert captured.out == "" and not out_file.exists()
