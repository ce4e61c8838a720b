import pytest

from complicial.errors import OutOfRange
from complicial.operators import delta, sigma, identity
from complicial.enriched import (
    EnrichedFunctor,
    from_category,
    one_object_group_enriched,
    point_set,
    suspension,
    walking_iso,
)
from complicial.hcpath import PathArrow, arrow_of_cell, hom_set
from complicial.nerve import (
    NerveSimplex,
    build_nerve,
    classify_complicial,
    nerve_act,
    nerve_normal_form,
    nerve_simplices,
    nerve_thin,
    recover_arrow,
    sigma_functor,
    yoneda_composite,
)
from complicial.operators import MINUS
from complicial.shapes import standard
from complicial.stratified import Simplex


def test_counts_susp_point():
    E = suspension(point_set())
    assert len(nerve_simplices(E, 2)) == 4  # one per monotone vertex map


def test_counts_terminal():
    E = suspension(point_set())
    # restrict to the full subcategory on one object: the constant functors
    for n in range(3):
        sims = [f for f in nerve_simplices(E, n) if set(f.obj) == {"0"}]
        assert len(sims) == 1


def test_counts_susp_interval_dim_one():
    E = suspension(standard(1))
    assert len(nerve_simplices(E, 1)) == 4


def test_nerve_act_identity():
    E = suspension(standard(1))
    for f in nerve_simplices(E, 2):
        assert nerve_act(f, identity(2)) == f


def test_nerve_act_simplicial_identity():
    E = suspension(standard(1))
    for f in nerve_simplices(E, 1):
        assert nerve_act(nerve_act(f, sigma(1, 0)), delta(2, 0)) == f


def test_nerve_act_object_restriction():
    E = suspension(point_set())
    for f in nerve_simplices(E, 2):
        g = nerve_act(f, delta(2, 0))
        assert g.obj == f.obj[1:]


def test_nerve_act_functorial_on_examples():
    from complicial.operators import all_operators, compose_ops

    E = suspension(standard(1))
    for f in nerve_simplices(E, 2):
        for alpha in all_operators(1, 2):
            for beta in all_operators(1, 1):
                assert nerve_act(nerve_act(f, alpha), beta) == nerve_act(
                    f, compose_ops(alpha, beta)
                )


def test_degenerate_nerve_simplices_are_thin():
    for E in (suspension(standard(1)), one_object_group_enriched(2, 3)):
        pool2 = nerve_simplices(E, 2)
        for f in nerve_simplices(E, 1):
            core, word = nerve_normal_form(f)
            if word:
                assert nerve_thin(f, pool2)
        for f in pool2:
            core, word = nerve_normal_form(f)
            if word:
                assert nerve_thin(f, pool2)


def test_nondegenerate_edge_of_walking_arrow_nerve_not_thin():
    E = suspension(point_set())
    edges = [f for f in nerve_simplices(E, 1) if f.obj == ("0", "1")]
    assert len(edges) == 1
    assert not nerve_thin(edges[0], nerve_simplices(E, 2))


def test_crossing_edges_of_suspensions_never_thin():
    # nothing maps back across a suspension, so no crossing edge has an
    # equivalence inverse
    E = suspension(from_category(walking_iso(), 4))
    pool2 = nerve_simplices(E, 2)
    for f in nerve_simplices(E, 1):
        if f.obj == ("0", "1"):
            assert not nerve_thin(f, pool2)


def test_group_identity_edge_thin_by_witness():
    # in a group the witness search succeeds at the unique 1-simplex
    E = one_object_group_enriched(2, 3)
    pool2 = nerve_simplices(E, 2)
    edges = nerve_simplices(E, 1)
    assert len(edges) == 1
    assert nerve_thin(edges[0], pool2)


def test_build_nerve_of_susp_point_is_interval():
    N = build_nerve(suspension(point_set()), 3)
    assert N.count_nondegenerate() == {0: 2, 1: 1}
    assert N.validate() == []
    D1 = standard(1)
    assert N.count_nondegenerate() == D1.count_nondegenerate()
    edge = N.cells_of_dim(1)[0]
    assert edge not in N.thin
    # four 2-simplices in total, all degenerate
    assert sum(1 for _ in N.simplices_of_dim(2)) == 4


def test_build_nerve_validates():
    for E in (suspension(standard(1)), one_object_group_enriched(2, 3)):
        N = build_nerve(E, 3)
        assert N.validate() == []


def test_classify_complicial_maximal_target():
    from complicial.stratified import make_thin

    X = standard(1)
    maximal = make_thin(X, [c for c in X.cells() if X.dims[c] >= 1])
    E = suspension(maximal)
    for f in nerve_simplices(E, 2):
        assert classify_complicial(f, 1)


def test_classify_complicial_detects_non_thin_edge():
    E = suspension(standard(1))
    flags = [classify_complicial(f, 1) for f in nerve_simplices(E, 2)]
    assert False in flags and True in flags
    # a 2-simplex whose long homset map hits the non-thin edge is not
    # 1-complicial
    for f in nerve_simplices(E, 2):
        if f.obj == ("0", "0", "1"):
            hit = f.maps[(0, 2)][PathArrow(0, 2, 1, (1, MINUS)).cell_id()]
            assert classify_complicial(f, 1) == E.hom("0", "1").is_thin(hit)


def test_classify_complicial_needs_inner_index():
    E = suspension(standard(1))
    f = nerve_simplices(E, 2)[0]
    with pytest.raises(OutOfRange):
        classify_complicial(f, 0)


def test_sigma_functor_zero():
    F = sigma_functor(0)
    assert F.obj(0) == "0" and F.obj(1) == "1"
    a = PathArrow(0, 1, 0, (MINUS,))
    assert F.crossing(a)
    assert F.delta_image(a) == Simplex("0")


def test_sigma_restricts_to_comparison_map():
    from complicial.shapes import c_map

    F = sigma_functor(1)
    cm = c_map(1)
    H = hom_set(0, 2)
    for cid in H.cells():
        a = arrow_of_cell(0, 2, cid)
        cube_cell = cid[: -2] if cid.endswith(",-") else cid
        assert F.delta_image(a) == cm.assignment[cube_cell]


def test_recover_arrow_round_trip():
    for X in (standard(0), standard(1), from_category(walking_iso(), 4)):
        E = suspension(X)
        for m in range(3):
            for x in X.simplices_of_dim(m):
                assert recover_arrow(yoneda_composite(E, x, m)) == x


def test_distinct_functors_have_distinct_nerves():
    # endofunctors of the suspension examples act injectively on nerve cells
    for X in (standard(1), from_category(walking_iso(), 2)):
        E = suspension(X)
        functors = _endofunctors(E)
        tables = []
        cells = [f for n in range(3) for f in nerve_simplices(E, n)]
        for F in functors:
            tables.append(tuple(_push(F, f)._key for f in cells))
        assert len(set(tables)) == len(functors)


def _endofunctors(E):
    from complicial.stratified import enumerate_maps

    X = E.hom("0", "1")
    out = []
    for fmap in enumerate_maps(X, X):
        hom_maps = {}
        for key, h in E.homs.items():
            if key == ("0", "1"):
                hom_maps[key] = fmap
            else:
                hom_maps[key] = _identity_map(h)
        out.append(EnrichedFunctor(E, E, {"0": "0", "1": "1"}, hom_maps))
    return [F for F in out if not F.validate()]


def _identity_map(h):
    from complicial.stratified import StratifiedMap

    return StratifiedMap(h, h, {c: Simplex(c) for c in h.cells()})


def _push(F, f):
    maps = {}
    for (r, s), table in f.maps.items():
        key = (f.obj[r], f.obj[s])
        maps[(r, s)] = {cid: F.hom_maps[key](img) for cid, img in table.items()}
    return NerveSimplex(F.target, f.n, tuple(F.obj_map[o] for o in f.obj), maps)


def test_terminal_nerve_is_point():
    from complicial.enriched import terminal_enriched

    E = terminal_enriched()
    for n in range(4):
        assert len(nerve_simplices(E, n)) == 1
    N = build_nerve(E, 3)
    assert N.count_nondegenerate() == {0: 1}


def test_build_nerve_interval_every_cap():
    E = suspension(point_set())
    for D in (1, 2, 3):
        N = build_nerve(E, D)
        assert N.count_nondegenerate() == {0: 2, 1: 1}
        assert N.validate() == []


def test_nerve_hom_tables_are_stratified_maps():
    from complicial.stratified import StratifiedMap
    from complicial.hcpath import hom_set

    for E in (suspension(standard(1)), suspension(from_category(walking_iso(), 3))):
        for n in range(3):
            for f in nerve_simplices(E, n):
                for (r, s), table in f.maps.items():
                    m = StratifiedMap(
                        hom_set(r, s), E.hom(f.obj[r], f.obj[s]), table
                    )
                    assert m.validate() == []


def test_desk_nerves_fill_outer_horns_too():
    # stronger than the inner reports: the example nerves are weak
    # complicial outright at this scale
    from complicial.anodyne import rlp_report
    from complicial.suite import desk_nerves

    for _, N in desk_nerves():
        assert rlp_report(N, 3, mode="all").ok
