"""The desk-scale verification bundle.

Runs, in order: cube censuses, stratifiedness of the comparison maps, a
seeded functoriality sample for the path action, the builtin certificate
towers, nerve censuses, the faithfulness probes, and the inner lifting
reports on the example nerves.  Each item reports pass/fail independently;
the bundle is the machine-checkable content of the main theorem at this
scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from .anodyne import builtin_certificates, rlp_report, verify_certificate
from .enriched import (
    from_category,
    one_object_group_enriched,
    point_set,
    suspension,
    walking_iso,
)
from .hcpath import arrow_of_cell, hom_set, path_act
from .nerve import build_nerve, recover_arrow, yoneda_composite
from .operators import all_operators, compose_ops
from .shapes import c_map, cube, special_top, standard


@dataclass
class SuiteItem:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteReport:
    items: list[SuiteItem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append(SuiteItem(name, ok, detail))

    def to_json(self) -> dict:
        return {
            "pass": self.ok,
            "items": [
                {"name": i.name, "pass": i.ok, "detail": i.detail} for i in self.items
            ],
        }


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def check_cube_census(report: SuiteReport) -> None:
    for n in (2, 3, 4):
        X = cube(n)
        tops = X.cells_of_dim(n)
        nonthin = [c for c in tops if c not in X.thin]
        ok = len(tops) == _factorial(n) and len(nonthin) == 1
        expected = ",".join(str(v) for v in special_top(n).w)
        ok = ok and nonthin == [expected]
        report.add(f"cube-census[{n}]", ok, f"{len(tops)} tops, non-thin {nonthin}")


def check_c_map(report: SuiteReport) -> None:
    for n in range(5):
        problems = c_map(n).validate()
        report.add(f"c-map-stratified[{n}]", not problems, "; ".join(problems[:2]))


def functoriality_sample(seed: int = 0, pairs: int = 200, max_ord: int = 5) -> int:
    """Seeded random composable operator pairs checked on all hom generators."""
    rng = random.Random(seed)
    ops = {
        (a, b): list(all_operators(a, b))
        for a in range(max_ord + 1)
        for b in range(max_ord + 1)
    }
    failures = 0
    for _ in range(pairs):
        a = rng.randrange(max_ord + 1)
        b = rng.randrange(max_ord + 1)
        c = rng.randrange(max_ord + 1)
        alpha = rng.choice(ops[(a, b)])
        beta = rng.choice(ops[(b, c)])
        comp = compose_ops(beta, alpha)
        for r in range(a + 1):
            for s in range(r, a + 1):
                H = hom_set(r, s)
                for cid in H.cells():
                    if H.dims[cid] > 3:
                        continue
                    arrow = arrow_of_cell(r, s, cid)
                    two = path_act(beta, path_act(alpha, arrow))
                    one = path_act(comp, arrow)
                    if one != two:
                        failures += 1
    return failures


def check_functoriality(report: SuiteReport, seed: int = 0) -> None:
    failures = functoriality_sample(seed=seed)
    report.add("path-action-functoriality", failures == 0, f"{failures} failures")


def check_certificates(report: SuiteReport) -> None:
    for cert in builtin_certificates():
        problems = verify_certificate(cert)
        report.add(f"certificate[{cert.note}]", not problems, "; ".join(problems[:2]))


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


def check_nerve_censuses(report: SuiteReport) -> None:
    expected = {
        "susp-point": {0: 2, 1: 1},
        "susp-arrow": {0: 2, 1: 2, 2: 2, 3: 2},
        "susp-iso-nerve": {0: 2, 1: 2, 2: 4, 3: 14},
        "group-z2": {0: 1, 2: 1, 3: 4},
    }
    for name, N in desk_nerves():
        census = N.count_nondegenerate()
        ok = census == expected[name] and not N.validate()
        report.add(f"nerve-census[{name}]", ok, str(census))


def check_faithfulness(report: SuiteReport) -> None:
    for name, E in desk_examples():
        if name == "group-z2":
            continue
        X = E.hom("0", "1")
        ok = True
        for m in range(3):
            for x in X.simplices_of_dim(m):
                if recover_arrow(yoneda_composite(E, x, m)) != x:
                    ok = False
        report.add(f"faithfulness[{name}]", ok)


def check_nerve_rlp(report: SuiteReport) -> None:
    for name, N in desk_nerves():
        rep = rlp_report(N, 3, mode="inner")
        report.add(
            f"nerve-inner-rlp[{name}]",
            rep.ok,
            f"{sum(c for _, c in rep.checked)} problems",
        )


def paper_suite(seed: int = 0) -> SuiteReport:
    report = SuiteReport()
    check_cube_census(report)
    check_c_map(report)
    check_functoriality(report, seed=seed)
    check_certificates(report)
    check_nerve_censuses(report)
    check_faithfulness(report)
    check_nerve_rlp(report)
    return report
