#!/usr/bin/env python3
"""Walkthrough: enriched categories, their nerves, and the lifting reports.

Builds the desk examples, checks that their homsets fill horns, constructs
the stratified nerves, and runs the inner lifting report that realises the
main theorem at this scale.  Ends with the faithfulness probe.
"""

from complicial import rlp_report, standard
from complicial.enriched import (
    from_category,
    one_object_group_enriched,
    point_set,
    suspension,
    validate_gray,
    walking_iso,
)
from complicial.nerve import build_nerve, recover_arrow, yoneda_composite

examples = [
    ("suspension of a point", suspension(point_set())),
    ("suspension of an interval", suspension(standard(1))),
    ("suspension of the iso nerve", suspension(from_category(walking_iso(), 4))),
    ("one-object group Z/2", one_object_group_enriched(2, 4)),
]

print("== homset validation ==")
for name, E in examples:
    rep = validate_gray(E, 2)
    print(f"{name}: homsets weakly complicial up to 2 -> {rep['pass']}")

print()
print("== nerves and the main theorem at desk scale ==")
for name, E in examples:
    N = build_nerve(E, 3)
    rep = rlp_report(N, 3, mode="inner")
    thin_census = {
        d: sum(1 for c in N.cells_of_dim(d) if c in N.thin)
        for d in sorted(N.count_nondegenerate())
    }
    print(f"{name}:")
    print(f"  census {N.count_nondegenerate()}, thin {thin_census}")
    print(f"  inner lifting report: {'PASS' if rep.ok else 'FAIL'}")

print()
print("== faithfulness probe ==")
E = suspension(from_category(walking_iso(), 4))
X = E.hom("0", "1")
checked = 0
for m in range(3):
    for x in X.simplices_of_dim(m):
        assert recover_arrow(yoneda_composite(E, x, m)) == x
        checked += 1
print(f"recovered {checked} arrows through the comparison functor, all equal")
