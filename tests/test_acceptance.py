"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every expected value is exact; the runtime budgets from the criteria are
asserted as generous wall-clock bounds.
"""

import time
from itertools import product

from complicial.anodyne import (
    AnodyneCertificate,
    builtin_certificates,
    replay_states,
    rlp_report,
    search_tower,
    verify_certificate,
)
from complicial.enriched import (
    from_category,
    point_set,
    suspension,
    walking_iso,
)
from complicial.nerve import (
    build_nerve,
    recover_arrow,
    yoneda_composite,
)
from complicial.operators import MINUS, PLUS, rho_operator
from complicial.shapes import (
    big_C,
    big_H,
    c_map,
    cube,
    standard,
)
from complicial.stratified import SubsetHandle, regular_generated
from complicial.suite import desk_examples, desk_nerves, functoriality_sample
from reference import (
    EnrichedFunctor,
    enumerate_maps,
    is_integer_surjective,
    nerve_layer,
    nerve_thin,
    parse_vertex_chain,
)
from test_nerve import nerve_normal_form


def _verdict(name, ok, started, budget):
    elapsed = time.time() - started
    print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.1f}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded {budget}s"


def test_criterion_1_cube_census():
    started = time.time()
    ok = True
    for n in (2, 3, 4):
        X = cube(n)
        tops = X.cells_of_dim(n)
        fact = 1
        for i in range(2, n + 1):
            fact *= i
        ok = ok and len(tops) == fact
        ok = ok and sum(1 for c in tops if c not in X.thin) == 1
        # degeneracy iff integer-surjectivity, against the flat-spot oracle
        for m in range(n + 1):
            alphabet = [MINUS, PLUS] + list(range(1, m + 1))
            for w in product(alphabet, repeat=n):
                ops = [rho_operator(v, m) for v in w]
                flat = any(
                    all(op.values[t] == op.values[t + 1] for op in ops)
                    for t in range(m)
                )
                ok = ok and (flat == (not is_integer_surjective(w, m)))
    _verdict("criterion-1 cube census", ok, started, 10)


def test_criterion_2_c_map_stratified():
    started = time.time()
    ok = all(c_map(n).validate() == [] for n in range(5))
    _verdict("criterion-2 comparison map stratified", ok, started, 10)


def test_criterion_3_builtin_certificates():
    started = time.time()
    certs = builtin_certificates()
    ok = len(certs) == 4 and all(verify_certificate(c) == [] for c in certs)

    tower = certs[2]
    ok = ok and len(tower.steps) == 8
    paper_chains = [
        "(0,0,0)<(0,1,1)<(1,1,1)",
        "(0,0,0)<(0,0,1)<(0,1,1)<(1,1,1)",
        "(0,0,0)<(0,0,1)<(1,0,1)<(1,1,1)",
        "(0,0,0)<(1,0,0)<(1,0,1)<(1,1,1)",
        "(0,0,0)<(1,0,0)<(1,1,0)<(1,1,1)",
        "(0,1,0)<(0,1,1)<(1,1,1)",
        "(0,0,0)<(0,1,0)<(0,1,1)<(1,1,1)",
        "(0,0,0)<(0,1,0)<(1,1,0)<(1,1,1)",
    ]
    ok = ok and [s.attach for s in tower.steps] == [
        parse_vertex_chain(c) for c in paper_chains
    ]
    # intermediate subsets are the regular subsets on the generator lists
    acc = list(tower.start.members)
    for step, members, flags in replay_states(tower):
        acc.append(step.attach)
        expect = regular_generated(tower.ambient, acc)
        ok = ok and members == expect.members and flags == expect.thin_members

    # a single thinness pushout upgrades the cube; the attach instance is the
    # one whose middle face is the paper's square special (0,0,0)<(0,1,0)<(1,1,1)
    upgrade = certs[3]
    ok = ok and len(upgrade.steps) == 1
    ok = ok and upgrade.steps[0].kind == "thinness"
    ok = ok and (upgrade.steps[0].n, upgrade.steps[0].k) == (3, 2)
    ok = ok and upgrade.steps[0].attach == parse_vertex_chain(
        "(0,0,0)<(0,1,0)<(0,1,1)<(1,1,1)"
    )
    from complicial.operators import delta
    from complicial.stratified import Simplex

    kface = upgrade.ambient.act(Simplex(upgrade.steps[0].attach), delta(3, 2))
    ok = ok and kface.cell == parse_vertex_chain("(0,0,0)<(0,1,0)<(1,1,1)")

    # single-field mutations are rejected
    for cert in certs:
        for i, step in enumerate(cert.steps):
            mutants = [step._replace(k=(step.k + 1) % (step.n + 1))]
            others = [c for c in cert.ambient.cells_of_dim(step.n) if c != step.attach]
            if others:
                mutants.append(step._replace(attach=others[0]))
            for mut in mutants:
                steps = list(cert.steps)
                steps[i] = mut
                bad = AnodyneCertificate(
                    cert.ambient, cert.start, cert.finish, tuple(steps)
                )
                ok = ok and verify_certificate(bad) != []
    _verdict("criterion-3 builtin certificates", ok, started, 5)


def test_criterion_4_tower_search():
    started = time.time()
    X = big_C(2, 1)
    cert = search_tower(
        big_H(2, 1), SubsetHandle(X, frozenset(X.dims), X.thin), budget=10
    )
    ok = cert is not None and verify_certificate(cert) == []
    _verdict("criterion-4 tower search", ok, started, 5)


def test_criterion_5_main_theorem_desk_scale():
    started = time.time()
    ok = True
    for name, N in desk_nerves():
        report = rlp_report(N, 3, mode="inner")
        ok = ok and report.ok
    _verdict("criterion-5 nerves are weak inner complicial", ok, started, 300)


def test_criterion_6_faithfulness():
    started = time.time()
    ok = True
    for name, E in desk_examples():
        if name == "group-z2":
            continue
        X = E.hom("0", "1")
        for m in range(3):
            for x in X.simplices_of_dim(m):
                ok = ok and recover_arrow(yoneda_composite(E, x, m)) == x
    # distinct enriched endofunctors act differently on some nerve cell
    from complicial.stratified import StratifiedMap, Simplex
    from complicial.nerve import NerveSimplex

    for X in (standard(1), from_category(walking_iso(), 2)):
        E = suspension(X)
        functors = []
        for fmap in enumerate_maps(X, X):
            hom_maps = {
                key: (
                    fmap
                    if key == ("0", "1")
                    else StratifiedMap(h, h, {c: Simplex(c) for c in h.cells()})
                )
                for key, h in E.homs.items()
            }
            F = EnrichedFunctor(E, E, {"0": "0", "1": "1"}, hom_maps)
            if not F.validate():
                functors.append(F)
        cells = [f for n in range(4) for f in nerve_layer(E, n)]
        tables = set()
        for F in functors:
            table = []
            for f in cells:
                images = {
                    (r, w): F.hom_maps[(f.obj[r], f.obj[r + len(w)])](img)
                    for (r, w), img in f.images.items()
                }
                table.append(
                    NerveSimplex(E, f.n, tuple(F.obj_map[o] for o in f.obj), images)._key
                )
            tables.add(tuple(table))
        ok = ok and len(tables) == len(functors)
    _verdict("criterion-6 faithfulness probe", ok, started, 60)


def test_criterion_7_functoriality_sample():
    started = time.time()
    ok = functoriality_sample(seed=0) == 0
    _verdict("criterion-7 path action functoriality", ok, started, 30)


def test_criterion_8_nerve_identities():
    started = time.time()
    N = build_nerve(suspension(point_set()), 3)
    D1 = standard(1)
    ok = N.count_nondegenerate() == D1.count_nondegenerate()
    ok = ok and N.validate() == []
    ok = ok and sum(1 for _ in N.simplices_of_dim(2)) == 4
    edges = N.cells_of_dim(1)
    ok = ok and len(edges) == 1 and edges[0] not in N.thin
    # degenerate nerve simplices report thin across the desk examples
    for name, E in desk_examples():
        pool2 = nerve_layer(E, 2)
        for n in (1, 2):
            for f in nerve_layer(E, n):
                _, word = nerve_normal_form(f)
                if word:
                    ok = ok and nerve_thin(f, pool2)
    _verdict("criterion-8 nerve identities", ok, started, 30)
