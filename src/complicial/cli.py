"""Batch front door: build shapes, run reports, verify certificates.

Each verb is one row of ``VERBS``: its help text, its arguments and its
handler.  A handler takes the parsed arguments and returns the JSON payload to
write (or None) and its verdict.  The payload is a dict, or for the verbs that
write a whole set (``shape``, ``nerve``, ``from-category``) the text chunks of
``set_json_chunks``, the same bytes as its dict would give.  ``main`` writes it
once, through ``_write_json``, and maps the verdict or a ``ComplicialError`` to
the exit status: 0 on pass, 1 on a verification failure, and 2 on usage or parse
errors, an ``--out`` that cannot be written among them, refused before the
handler runs when it is a directory or lies in a missing one.  A reader that
closes stdout early leaves the exit status to the verdict.  Each JSON input is
read once by the checked reader of its format (``set_from_json``,
``certificate_from_json``, ``tower_problem_from_json``, and the enriched and
category readers below); malformed input exits 2.  The parser is built on the
first ``main`` call and reused by later calls in the process, so ``main`` can be
called in a loop.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from functools import lru_cache
from itertools import islice, product
from typing import Iterator

from . import shapes
from .anodyne import (
    certificate_from_json,
    certificate_to_json,
    rlp_report,
    search_tower,
    tower_problem_from_json,
    verify_certificate,
)
from .errors import BadParams, ComplicialError, IllFormedCategory, LawViolation, ParseError
from .stratified import (
    StratifiedMap,
    gray_product,
    json_field,
    set_from_json,
    set_json_chunks,
    set_to_json,
    simplex_from_json,
    simplex_to_json,
    spellings,
    subset_to_set,
)

# enriched, nerve and suite are imported by the handlers that need them, which
# keeps importing this module cheap

# name -> (constructor, least n, least k or None when the shape takes no k); k <= n
SHAPES = {
    "delta": (lambda n, k: shapes.standard(n), 0, None),
    "boundary": (lambda n, k: shapes.boundary(n), 0, None),
    "delta-thin": (lambda n, k: shapes.standard_thin(n), 1, None),
    "complicial": (lambda n, k: shapes.complicial(n, k), 1, 0),
    "horn": (lambda n, k: shapes.horn(n, k), 1, 0),
    "cube": (lambda n, k: shapes.cube(n), 0, None),
    "bigC": (lambda n, k: shapes.big_C(n, k), 2, 1),
    "bigH": (lambda n, k: subset_to_set(shapes.big_H(n, k)), 2, 1),
    "Cdot": (lambda n, k: shapes.C_dot(n, k), 2, 1),
    "Cddot": (lambda n, k: shapes.C_ddot(n, k), 2, 1),
}


def _build_shape(name: str, n: int, k: int | None):
    if name not in SHAPES:
        raise BadParams(f"unknown shape {name!r}; choose from {sorted(SHAPES)}")
    build, least_n, least_k = SHAPES[name]
    if least_k is None and k is not None:
        raise BadParams(f"shape {name!r} takes no --k")
    if n < least_n or (least_k is not None and (k is None or not least_k <= k <= n)):
        ks = "" if least_k is None else f" and --k with {least_k} <= k <= n"
        raise BadParams(f"shape {name!r} needs --n >= {least_n}{ks}")
    return build(n, k)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write_json(path: str | None, payload: dict | Iterator[str]) -> None:
    """Write the payload, a dict or the chunks of its text, as indented JSON with
    sorted keys and a final newline, to stdout when path is None or "-", streamed
    in batches of chunks so the whole text is never held at once; BadParams if
    the file at path cannot be opened or written."""
    if isinstance(payload, dict):
        chunks, per_batch = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload), 1 << 12
    else:
        chunks, per_batch = payload, 1 << 6  # set_json_chunks: one chunk per cell
    to_stdout = path in (None, "-")
    try:
        with nullcontext(sys.stdout) if to_stdout else open(path, "w") as fh:
            while batch := "".join(islice(chunks, per_batch)):
                fh.write(batch)
            fh.write("\n")
    except OSError as exc:
        if to_stdout:
            raise
        raise BadParams(f"cannot write {path}: {exc}") from exc


def _distinct(objects: list[str], path: str) -> list[str]:
    seen = set()
    for i, a in enumerate(objects):
        if a in seen:
            raise ParseError(f"{path}[{i}]: duplicate object {a!r}")
        seen.add(a)
    return objects


def _enriched_from_json(data):
    """An enriched category: a hom for every ordered pair of objects and a composition
    table for every triple, keyed "a;b" and "a;b;c"; a table is keyed by the spellings
    of the product cells.  ParseError unless every key names exactly one product cell
    and the laws hold."""
    from .enriched import make_enriched

    path = "enriched"
    objects = _distinct(json_field(data, "objects", [str], path), f"{path}.objects")
    for i, a in enumerate(objects):
        if ";" in a:
            raise ParseError(f"{path}.objects[{i}]: object {a!r} contains the key separator ';'")
    ids = json_field(data, "identities", dict, path)
    identities = {a: json_field(ids, a, str, f"{path}.identities") for a in objects}
    cap = json_field(data, "dim_cap", int, path)
    if cap < 0:
        raise ParseError(f"{path}.dim_cap: must be at least 0")
    homs_json, homs = json_field(data, "homs", dict, path), {}
    for a, b in product(objects, repeat=2):
        hom = json_field(homs_json, f"{a};{b}", dict, f"{path}.homs")
        homs[(a, b)] = set_from_json(hom, f"{path}.homs.{a};{b}")
    comp_json, comp = json_field(data, "comp", dict, path), {}
    for a, b, c in product(objects, repeat=3):
        at = f"{path}.comp.{a};{b};{c}"
        table = json_field(comp_json, f"{a};{b};{c}", dict, f"{path}.comp")
        P = gray_product(homs[(b, c)], homs[(a, b)], cap=cap)
        cells: dict[str, list] = {}
        for cell in P.cells():
            cells.setdefault(str(cell), []).append(cell)
        assignment = {}
        for key, s in table.items():
            named = cells.get(key, [])
            if len(named) != 1:
                why = "names no product cell" if not named else "names two product cells"
                raise ParseError(f"{at}.{key}: {why}")
            assignment[named[0]] = simplex_from_json(s, f"{at}.{key}")
        comp[(a, b, c)] = StratifiedMap(P, homs[(a, c)], assignment)
    try:
        return make_enriched(objects, homs, identities, comp, cap)
    except LawViolation as exc:
        raise ParseError(f"{path}: {exc}") from exc


def enriched_to_json(E) -> dict:
    """The JSON form _enriched_from_json reads; BadParams if an object name holds ';'
    or two cells of a hom or of a product share a spelling."""
    if any(";" in a for a in E.objects):
        raise BadParams("an object name contains the key separator ';'")
    comp = {}
    for (a, b, c), cmap in E.comp.items():
        text = spellings(cmap.assignment)
        comp[f"{a};{b};{c}"] = {text[z]: simplex_to_json(s) for z, s in cmap.assignment.items()}
    return {
        "objects": list(E.objects),
        "dim_cap": E.dim_cap,
        "identities": {a: str(cell) for a, cell in E.identities.items()},
        "homs": {f"{a};{b}": set_to_json(h) for (a, b), h in E.homs.items()},
        "comp": comp,
    }


def _category_from_json(data):
    """A finite category: arrows as name -> [source, target], an identity arrow
    per object and composites keyed "g;f"; from_category checks the laws."""
    from .enriched import FiniteCategory

    path = "category"
    objects = _distinct(json_field(data, "objects", [str], path), f"{path}.objects")
    ids = json_field(data, "identities", dict, path)
    identities = {a: json_field(ids, a, str, f"{path}.identities") for a in objects}
    arrows_json = json_field(data, "arrows", dict, path)
    arrows = {f: tuple(json_field(arrows_json, f, [str], f"{path}.arrows")) for f in arrows_json}
    table_json, table = json_field(data, "table", dict, path), {}
    for key in table_json:
        if key.count(";") != 1:
            raise ParseError(f"{path}.table.{key}: expected a key g;f")
        table[tuple(key.split(";"))] = json_field(table_json, key, str, f"{path}.table")
    return FiniteCategory(tuple(objects), arrows, identities, table)


# -- one handler per verb: args -> (payload to write, or None, and the verdict) --


def _shape(args):
    return set_json_chunks(_build_shape(args.name, args.n, args.k)), True


def _check(args):
    X = set_from_json(_load_json(args.input))
    rep = rlp_report(X, args.dmax, args.mode)
    return rep.to_json(), rep.ok


def _nerve(args):
    from .nerve import build_nerve

    E = _enriched_from_json(_load_json(args.input))
    N = build_nerve(E, args.dmax)
    census = N.count_nondegenerate()
    extra = {
        "census": {str(d): c for d, c in census.items()},
        "thin_census": {str(d): sum(c in N.thin for c in N.cells_of_dim(d)) for d in census},
    }
    return set_json_chunks(N, extra), True


def _verify_cert(args):
    problems = verify_certificate(certificate_from_json(_load_json(args.input)))
    return {"pass": not problems, "problems": problems}, not problems


def _search_tower(args):
    start, finish = tower_problem_from_json(_load_json(args.input), "problem")
    cert = search_tower(start, finish, args.budget)
    if cert is None:
        return {"found": False}, False
    return dict(certificate_to_json(cert), found=True), True


def _paper_suite(args):
    from .suite import paper_suite

    report = paper_suite(seed=args.seed)
    # the status lines stay off stdout when the report itself goes there
    status_to = sys.stderr if args.out == "-" else sys.stdout
    for item in report.items:
        status = "PASS" if item.ok else "FAIL"
        print(f"{status} {item.name}" + (f" ({item.detail})" if item.detail else ""), file=status_to)
    return report.to_json() if args.out else None, report.ok


def _sigma(args):
    from .enriched import suspension

    return enriched_to_json(suspension(set_from_json(_load_json(args.input)))), True


def _from_category(args):
    from .enriched import from_category

    cat = _category_from_json(_load_json(args.input))
    try:
        return set_json_chunks(from_category(cat, args.dmax)), True
    except IllFormedCategory as exc:
        raise ParseError(f"category: {exc}") from exc


def _validate_gray(args):
    from .enriched import validate_gray

    rep = validate_gray(_enriched_from_json(_load_json(args.input)), args.dmax)
    homs = {f"{a};{b}": r.to_json() for (a, b), r in rep["homs"].items()}
    return {"pass": rep["pass"], "homs": homs}, rep["pass"]


# verb -> (help, positional argument, least --dmax or None for a verb without it, handler)
VERBS = {
    "shape": ("emit a named stratified set", "name", None, _shape),
    "check": ("lifting report on a stratified set", "input", 1, _check),
    "nerve": ("nerve of an enriched category", "input", 0, _nerve),
    "verify-cert": ("verify an anodyne certificate", "input", None, _verify_cert),
    "search-tower": ("search for a certificate", "input", None, _search_tower),
    "paper-suite": ("run the verification bundle", None, None, _paper_suite),
    "sigma": ("suspension of a stratified set", "input", None, _sigma),
    "from-category": ("equivalence-stratified nerve", "input", 0, _from_category),
    "validate-gray": ("homwise lifting reports", "input", 1, _validate_gray),
}


@lru_cache(maxsize=None)
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and the subparser of each verb, built on the first call."""
    parser = argparse.ArgumentParser(prog="complicial")
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {}
    for verb, (text, positional, least_dmax, _) in VERBS.items():
        p = verbs[verb] = sub.add_parser(verb, help=text)
        if positional:
            p.add_argument(positional)
        if least_dmax is not None:
            p.add_argument("--dmax", type=int, required=True)
        p.add_argument("--out", default=None)
    verbs["shape"].add_argument("--n", type=int, required=True)
    verbs["shape"].add_argument("--k", type=int)
    verbs["check"].add_argument("--mode", choices=["inner", "all"], default="inner")
    verbs["search-tower"].add_argument("--budget", type=int, default=100)
    verbs["paper-suite"].add_argument("--seed", type=int, default=0)
    return parser, verbs


def main(argv: list[str] | None = None) -> int:
    parser, verbs = _parser()
    try:
        args = parser.parse_args(argv)
        least_dmax = VERBS[args.verb][2]
        if least_dmax is not None and args.dmax < least_dmax:
            verbs[args.verb].error(f"--dmax must be at least {least_dmax}")
        if getattr(args, "budget", 0) < 0:
            verbs[args.verb].error("--budget must be at least 0")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    ok = False
    try:
        # an --out that cannot be a file is refused before the verb does its work
        out = os.path.abspath(args.out) if args.out not in (None, "-") else None
        if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out))):
            raise BadParams(f"cannot write {args.out}: not a file in an existing directory")
        payload, ok = VERBS[args.verb][3](args)
        if payload is not None:
            _write_json(args.out, payload)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: the verdict stands
        with open(os.devnull, "w") as null:  # fd 1 takes the null device for the flush at exit
            os.dup2(null.fileno(), sys.stdout.fileno())
    except ComplicialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, BadParams)) else 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
