import hashlib
import json

from complicial.anodyne import builtin_certificates, certificate_to_json
from complicial.cli import enriched_to_json, main
from complicial.enriched import point_set, suspension
from complicial.stratified import set_from_json


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
    code, out = run(["check", str(shape_file), "--dmax", "0", "--mode", "all"], capsys)
    assert code == 0
    assert json.loads(out)["pass"]


def test_check_standard_two_fails_inner(tmp_path, capsys):
    shape_file = tmp_path / "d2.json"
    run(["shape", "delta", "--n", "2", "--out", str(shape_file)], capsys)
    code, out = run(["check", str(shape_file), "--dmax", "2", "--mode", "inner"], capsys)
    assert code == 1
    report = json.loads(out)
    assert any(f["instance"] == "horn[2,1]" for f in report["failures"])


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
