"""The desk-scale verification bundle.

Runs, in order: cube censuses, stratifiedness of the comparison maps, a
seeded functoriality sample for the path action, the builtin certificate
towers, nerve censuses, the faithfulness probes, and the inner lifting
reports on the example nerves.  Each ``check_*`` yields its items, each
reporting pass/fail independently, and ``paper_suite`` builds the report from
them in one pass; the bundle is the machine-checkable content of the main
theorem at this scale.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache, partial
from operator import ne
from typing import Iterator, NamedTuple

from .anodyne import builtin_certificates, rlp_report, verify_certificate
from .enriched import (
    from_category,
    one_object_group_enriched,
    point_set,
    suspension,
    walking_iso,
)
from .hcpath import hom_action, hom_set
from .nerve import build_nerve, recover_arrow, yoneda_composite
from .operators import all_operators, compose_ops
from .shapes import c_map, cube, special_top, standard


class SuiteItem(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class SuiteReport(NamedTuple):
    """The suite's items, in the order of the checks that yield them."""

    items: list[SuiteItem]

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def to_json(self) -> dict:
        return {
            "pass": self.ok,
            "items": [
                {"name": i.name, "pass": i.ok, "detail": i.detail} for i in self.items
            ],
        }


def check_cube_census() -> Iterator[SuiteItem]:
    for n in (2, 3, 4):
        X = cube(n)
        tops = X.cells_of_dim(n)
        nonthin = [c for c in tops if c not in X.thin]
        ok = len(tops) == math.factorial(n) and len(nonthin) == 1
        ok = ok and nonthin == [special_top(n)]
        yield SuiteItem(f"cube-census[{n}]", ok, f"{len(tops)} tops, non-thin {nonthin}")


def check_c_map() -> Iterator[SuiteItem]:
    for n in range(5):
        problems = c_map(n).validate()
        yield SuiteItem(f"c-map-stratified[{n}]", not problems, "; ".join(problems[:2]))


_PAIRS = 200
_MAX_ORD = 5


def functoriality_sample(seed: int = 0) -> int:
    """Seeded random composable operator pairs alpha, beta, each checked on every
    hom cell of dimension at most 3 over alpha's source ordinal.

    The check is (beta alpha)_* = beta_* alpha_* as maps of homs: for each hom,
    ``hom_action`` takes alpha on its cells, beta on their images and beta alpha
    on the cells, and every cell whose two images differ counts as a failure."""
    rng = random.Random(seed)
    ords = range(_MAX_ORD + 1)
    ops = {(a, b): list(all_operators(a, b)) for a in ords for b in ords}
    homs = {(r, s): hom_set(r, s) for r in ords for s in ords[r:]}
    cells = {rs: [c.w for c in H.cells() if H.dims[c] <= 3] for rs, H in homs.items()}
    arrows = {a: [(r, s, ws) for (r, s), ws in cells.items() if s <= a] for a in ords}
    failures = 0
    for _ in range(_PAIRS):
        a, b, c = (rng.randrange(_MAX_ORD + 1) for _ in range(3))
        alpha = rng.choice(ops[(a, b)])
        beta = rng.choice(ops[(b, c)])
        comp = compose_ops(beta, alpha)
        for r, s, ws in arrows[a]:
            lo, images = hom_action(alpha, r, s, ws)
            via = hom_action(beta, lo, alpha.values[s], images)
            direct = hom_action(comp, r, s, ws)
            failures += len(ws) if via[0] != direct[0] else sum(map(ne, via[1], direct[1]))
    return failures


def check_functoriality(seed: int = 0) -> tuple[SuiteItem]:
    # eager, not a generator, so that a timer wrapped around this call times the sample
    failures = functoriality_sample(seed=seed)
    return (SuiteItem("path-action-functoriality", failures == 0, f"{failures} failures"),)


def check_certificates() -> Iterator[SuiteItem]:
    for cert in builtin_certificates():
        problems = verify_certificate(cert)
        yield SuiteItem(f"certificate[{cert.note}]", not problems, "; ".join(problems[:2]))


@lru_cache(maxsize=None)
def desk_examples():
    return (
        ("susp-point", suspension(point_set())),
        ("susp-arrow", suspension(standard(1))),
        ("susp-iso-nerve", suspension(from_category(walking_iso(), 4))),
        ("group-z2", one_object_group_enriched(2, 4)),
    )


@lru_cache(maxsize=None)
def desk_nerves():
    return tuple((name, build_nerve(E, 3)) for name, E in desk_examples())


def check_nerve_censuses() -> Iterator[SuiteItem]:
    expected = {
        "susp-point": {0: 2, 1: 1},
        "susp-arrow": {0: 2, 1: 2, 2: 2, 3: 2},
        "susp-iso-nerve": {0: 2, 1: 2, 2: 4, 3: 14},
        "group-z2": {0: 1, 2: 1, 3: 4},
    }
    for name, N in desk_nerves():
        census = N.count_nondegenerate()
        ok = census == expected[name] and not N.validate()
        yield SuiteItem(f"nerve-census[{name}]", ok, str(census))


def check_faithfulness() -> Iterator[SuiteItem]:
    for name, E in desk_examples():
        if name == "group-z2":
            continue
        X = E.hom("0", "1")
        ok = True
        for m in range(3):
            for x in X.simplices_of_dim(m):
                if recover_arrow(yoneda_composite(E, x, m)) != x:
                    ok = False
        yield SuiteItem(f"faithfulness[{name}]", ok)


def check_nerve_rlp() -> Iterator[SuiteItem]:
    for name, N in desk_nerves():
        rep = rlp_report(N, 3, mode="inner")
        problems = sum(c for _, c in rep.checked)
        yield SuiteItem(f"nerve-inner-rlp[{name}]", rep.ok, f"{problems} problems")


def paper_suite(seed: int = 0) -> SuiteReport:
    checks = (
        check_cube_census,
        check_c_map,
        partial(check_functoriality, seed=seed),
        check_certificates,
        check_nerve_censuses,
        check_faithfulness,
        check_nerve_rlp,
    )
    return SuiteReport([item for check in checks for item in check()])
