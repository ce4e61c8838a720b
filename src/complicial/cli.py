"""Batch front door: build shapes, run reports, verify certificates.

Exit status is 0 on pass, 1 on a verification failure, and 2 on usage or
parse errors.  All file I/O uses the JSON interchange format.
"""

from __future__ import annotations

import argparse
import json
import sys

from .anodyne import (
    certificate_from_json,
    certificate_to_json,
    rlp_report,
    search_tower,
    verify_certificate,
)
from .errors import BadParams, ComplicialError, ParseError, UnknownShape
from .stratified import (
    SubsetHandle,
    set_from_json,
    set_to_json,
    subset_to_set,
)

SHAPES = {
    "delta",
    "boundary",
    "delta-thin",
    "complicial",
    "horn",
    "cube",
    "bigC",
    "bigH",
    "Cdot",
    "Cddot",
}


def _build_shape(name: str, n: int | None, k: int | None):
    from . import shapes

    if name not in SHAPES:
        raise UnknownShape(f"unknown shape {name!r}; choose from {sorted(SHAPES)}")
    if n is None:
        raise BadParams("--n is required")
    needs_k = name in {"complicial", "horn", "bigC", "bigH", "Cdot", "Cddot"}
    if needs_k and k is None:
        raise BadParams(f"shape {name!r} needs --k")
    if name == "delta":
        return shapes.standard(n)
    if name == "boundary":
        return shapes.boundary(n)
    if name == "delta-thin":
        return shapes.standard_thin(n)
    if name == "complicial":
        return shapes.complicial(n, k)
    if name == "horn":
        return shapes.horn(n, k)
    if name == "cube":
        return shapes.cube(n)
    if name == "bigC":
        return shapes.big_C(n, k)
    if name == "bigH":
        return subset_to_set(shapes.big_H(n, k))
    if name == "Cdot":
        return shapes.C_dot(n, k)
    return shapes.C_ddot(n, k)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _enriched_from_json(data: dict):
    from .enriched import make_enriched
    from .stratified import Simplex, StratifiedMap, gray_product

    homs = {
        tuple(key.split(";")): set_from_json(val) for key, val in data["homs"].items()
    }
    comp = {}
    for key, table in data["comp"].items():
        a, b, c = key.split(";")
        P, _ = gray_product(homs[(b, c)], homs[(a, b)], cap=data["dim_cap"])
        assignment = {
            cid: Simplex(entry["cell"], tuple(entry["word"]))
            for cid, entry in table.items()
        }
        comp[(a, b, c)] = StratifiedMap(P, homs[(a, c)], assignment)
    return make_enriched(
        data["objects"], homs, data["identities"], comp, data["dim_cap"]
    )


def enriched_to_json(E) -> dict:
    return {
        "objects": list(E.objects),
        "dim_cap": E.dim_cap,
        "identities": dict(E.identities),
        "homs": {f"{a};{b}": set_to_json(h) for (a, b), h in E.homs.items()},
        "comp": {
            f"{a};{b};{c}": {
                cid: {"cell": s.cell, "word": list(s.word)}
                for cid, s in cmap.assignment.items()
            }
            for (a, b, c), cmap in E.comp.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="complicial")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("shape", help="emit a named stratified set")
    p.add_argument("name")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="lifting report on a stratified set")
    p.add_argument("input")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--mode", choices=["inner", "all"], default="inner")
    p.add_argument("--out", default=None)

    p = sub.add_parser("nerve", help="nerve of an enriched category")
    p.add_argument("input")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify-cert", help="verify an anodyne certificate")
    p.add_argument("input")
    p.add_argument("--out", default=None)

    p = sub.add_parser("search-tower", help="search for a certificate")
    p.add_argument("input")
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--out", default=None)

    p = sub.add_parser("paper-suite", help="run the verification bundle")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sigma", help="suspension of a stratified set")
    p.add_argument("input")
    p.add_argument("--out", default=None)

    p = sub.add_parser("from-category", help="equivalence-stratified nerve")
    p.add_argument("input")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("validate-gray", help="homwise lifting reports")
    p.add_argument("input")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--out", default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except (ParseError, UnknownShape, BadParams) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComplicialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.verb == "shape":
        X = _build_shape(args.name, args.n, args.k)
        _write_json(args.out, set_to_json(X))
        return 0

    if args.verb == "check":
        X = set_from_json(_load_json(args.input))
        rep = rlp_report(X, args.dmax, args.mode)
        _write_json(args.out, rep.to_json())
        return 0 if rep.ok else 1

    if args.verb == "nerve":
        from .nerve import build_nerve

        E = _enriched_from_json(_load_json(args.input))
        N = build_nerve(E, args.dmax)
        payload = set_to_json(N)
        payload["census"] = {
            str(d): c for d, c in sorted(N.count_nondegenerate().items())
        }
        payload["thin_census"] = {
            str(d): sum(1 for c in N.cells_of_dim(d) if c in N.thin)
            for d in sorted(N.count_nondegenerate())
        }
        _write_json(args.out, payload)
        return 0

    if args.verb == "verify-cert":
        cert = certificate_from_json(_load_json(args.input))
        problems = verify_certificate(cert)
        _write_json(args.out, {"pass": not problems, "problems": problems})
        return 0 if not problems else 1

    if args.verb == "search-tower":
        data = _load_json(args.input)
        from .stratified import set_from_json as loads

        Z = loads(data["ambient"])
        start = SubsetHandle(
            Z, frozenset(data["start"]["members"]), frozenset(data["start"]["thin"])
        )
        finish = SubsetHandle(
            Z, frozenset(data["finish"]["members"]), frozenset(data["finish"]["thin"])
        )
        cert = search_tower(start, finish, args.budget)
        if cert is None:
            _write_json(args.out, {"found": False})
            return 1
        payload = certificate_to_json(cert)
        payload["found"] = True
        _write_json(args.out, payload)
        return 0

    if args.verb == "paper-suite":
        from .suite import paper_suite

        report = paper_suite(seed=args.seed)
        for item in report.items:
            status = "PASS" if item.ok else "FAIL"
            print(f"{status} {item.name}" + (f" ({item.detail})" if item.detail else ""))
        if args.out:
            _write_json(args.out, report.to_json())
        return 0 if report.ok else 1

    if args.verb == "sigma":
        from .enriched import suspension

        X = set_from_json(_load_json(args.input))
        _write_json(args.out, enriched_to_json(suspension(X)))
        return 0

    if args.verb == "from-category":
        from .enriched import FiniteCategory, from_category

        data = _load_json(args.input)
        cat = FiniteCategory(
            objects=tuple(data["objects"]),
            arrows={k: tuple(v) for k, v in data["arrows"].items()},
            identities=data["identities"],
            table={tuple(k.split(";")): v for k, v in data["table"].items()},
        )
        _write_json(args.out, set_to_json(from_category(cat, args.dmax)))
        return 0

    if args.verb == "validate-gray":
        from .enriched import validate_gray

        E = _enriched_from_json(_load_json(args.input))
        rep = validate_gray(E, args.dmax)
        payload = {
            "pass": rep["pass"],
            "homs": {
                f"{a};{b}": r.to_json() for (a, b), r in rep["homs"].items()
            },
        }
        _write_json(args.out, payload)
        return 0 if rep["pass"] else 1

    raise BadParams(f"unknown verb {args.verb!r}")


if __name__ == "__main__":
    sys.exit(main())
