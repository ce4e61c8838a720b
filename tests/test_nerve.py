import time
from functools import lru_cache

import pytest

from complicial.anodyne import rlp_report
from complicial.errors import Mismatch
from complicial.operators import delta, sigma, word_operator
from complicial.enriched import (
    cyclic_group_category,
    from_category,
    make_enriched,
    walking_arrow,
    one_object_group_enriched,
    point_set,
    suspension,
    walking_iso,
)
from complicial.hcpath import generators, hom_set, split
from complicial.nerve import (
    NerveSimplex,
    build_nerve,
    nerve_act,
    nerve_simplices,
    recover_arrow,
    yoneda_composite,
)
from complicial.operators import MINUS
from complicial.shapes import (
    Coords,
    boundary,
    Vertices,
    c_map,
    comparison_operator,
    complicial,
    cube_normal_form,
    standard,
)
from complicial.stratified import FiniteStratifiedSet, Simplex, make_thin, set_to_json
from reference import (
    CountingCategory,
    EnrichedFunctor,
    cube_face,
    discrete_enriched,
    enumerate_maps,
    identity,
    nerve_layer,
    nerve_thin,
    split_at_zeros,
    terminal_enriched,
)


def test_the_nerve_of_the_category_with_no_objects_is_empty():
    # no 0-simplices, so no layer above them
    E = make_enriched([], {}, {}, {}, 0)
    assert nerve_simplices(E, []) == []
    assert set_to_json(build_nerve(E, 3)) == {"dim_cap": 3, "cells": []}


def test_counts_susp_point():
    E = suspension(point_set())
    assert len(nerve_layer(E, 2)) == 4  # one per monotone vertex map


def test_counts_terminal():
    E = suspension(point_set())
    # restrict to the full subcategory on one object: the constant functors
    for n in range(3):
        sims = [f for f in nerve_layer(E, n) if set(f.obj) == {"0"}]
        assert len(sims) == 1


def test_counts_susp_interval_dim_one():
    E = suspension(standard(1))
    assert len(nerve_layer(E, 1)) == 4


def test_nerve_act_identity():
    E = suspension(standard(1))
    for f in nerve_layer(E, 2):
        assert nerve_act(f, identity(2)) == f


def test_nerve_act_simplicial_identity():
    E = suspension(standard(1))
    for f in nerve_layer(E, 1):
        assert nerve_act(nerve_act(f, sigma(1, 0)), delta(2, 0)) == f


def test_nerve_act_refuses_an_operator_of_the_wrong_target_as_act_does():
    # both raise Mismatch with the same message
    E = suspension(standard(1))
    f = nerve_layer(E, 2)[0]
    X = build_nerve(E, 2)
    top = next(iter(X.simplices_of_dim(2)))
    message = r"operator targets \[1\], simplex has dim 2"
    for act, simplex in ((nerve_act, f), (X.act, top)):
        with pytest.raises(Mismatch, match=message):
            act(simplex, delta(1, 0))


def test_nerve_act_object_restriction():
    E = suspension(point_set())
    for f in nerve_layer(E, 2):
        g = nerve_act(f, delta(2, 0))
        assert g.obj == f.obj[1:]


def test_nerve_act_functorial_on_examples():
    from complicial.operators import all_operators, compose_ops

    E = suspension(standard(1))
    for f in nerve_layer(E, 2):
        for alpha in all_operators(1, 2):
            for beta in all_operators(1, 1):
                assert nerve_act(nerve_act(f, alpha), beta) == nerve_act(
                    f, compose_ops(alpha, beta)
                )


def test_degenerate_nerve_simplices_are_thin():
    for E in (suspension(standard(1)), one_object_group_enriched(2, 3)):
        pool2 = nerve_layer(E, 2)
        for f in nerve_layer(E, 1):
            core, word = nerve_normal_form(f)
            if word:
                assert nerve_thin(f, pool2)
        for f in pool2:
            core, word = nerve_normal_form(f)
            if word:
                assert nerve_thin(f, pool2)


def _edges(N, E, a, b):
    """The nondegenerate edges of the nerve N of E from object a to object b."""
    ends = (Simplex(f"N0.{E.objects.index(b)}"), Simplex(f"N0.{E.objects.index(a)}"))
    return [e for e in N.cells_of_dim(1) if N.faces[e] == ends]


def test_nondegenerate_edge_of_walking_arrow_nerve_not_thin():
    E = suspension(point_set())
    N = build_nerve(E, 2)
    edges = _edges(N, E, "0", "1")
    assert len(edges) == 1
    assert edges[0] not in N.thin


def test_crossing_edges_of_suspensions_never_thin():
    # nothing maps back across a suspension, so no crossing edge has an
    # equivalence inverse
    E = suspension(from_category(walking_iso(), 4))
    N = build_nerve(E, 2)
    for e in _edges(N, E, "0", "1"):
        assert e not in N.thin


def test_group_identity_edge_thin_by_witness():
    # in a group the witness search succeeds at the unique 1-simplex
    N = build_nerve(one_object_group_enriched(2, 3), 2)
    edges = list(N.simplices_of_dim(1))
    assert len(edges) == 1
    assert N.is_thin(edges[0])


def _thin_census(X):
    return {d: sum(c in X.thin for c in X.cells_of_dim(d)) for d in X.count_nondegenerate()}


@pytest.mark.parametrize(
    "C,thin_edges",
    [
        pytest.param(walking_arrow(), 0, id="walking-arrow"),
        pytest.param(walking_iso(), 2, id="walking-iso"),
        *(pytest.param(cyclic_group_category(q), q - 1, id=f"z{q}") for q in (2, 3, 4)),
    ],
)
def test_nerve_of_a_discrete_enrichment_is_the_category_nerve(C, thin_edges):
    # Cordier-Porter: with discrete homs the coherent nerve is the ordinary
    # nerve, and an edge is thin exactly when its arrow is invertible
    N, X = build_nerve(discrete_enriched(C), 3), from_category(C, 3)
    assert N.validate() == []
    assert N.count_nondegenerate() == X.count_nondegenerate()
    assert _thin_census(N) == _thin_census(X)
    assert _thin_census(N).get(1, 0) == thin_edges


@pytest.mark.parametrize(
    "q, D, problems",
    [
        pytest.param(2, 3, 35, id="z2-D3"),
        pytest.param(3, 3, 112, id="z3-D3"),
        pytest.param(2, 4, 419, id="z2-D4"),
    ],
)
def test_nerve_of_a_locally_kan_enrichment_is_a_quasi_category(q, D, problems):
    # Cordier-Porter: the coherent nerve of a category enriched in Kan complexes
    # fills every inner horn.  The homs of the one-object group enrichment are
    # nerves of groups, which are Kan, and with every positive cell thin the
    # inner lifting report checks the underlying simplicial set alone
    N = build_nerve(one_object_group_enriched(q, D), D)
    N = make_thin(N, [c for c in N.cells() if N.dims[c]])
    rep = rlp_report(N, D, "inner")
    assert rep.ok
    assert sum(n for _, n in rep.checked) == problems


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


def test_build_nerve_reaches_dimension_six():
    # the homs into 6 have 1,267 generators, past the recursion limit: the
    # reason stratified.extensions keeps its search on a stack (see its docstring)
    assert sum(1 for g in generators(6) if g[1] == 6) == 1267
    N = build_nerve(suspension(standard(0)), 6)
    assert N.count_nondegenerate() == {0: 2, 1: 1}


def test_build_nerve_validates():
    for E in (suspension(standard(1)), one_object_group_enriched(2, 3)):
        N = build_nerve(E, 3)
        assert N.validate() == []


def test_sigma_functor_zero():
    # the collapse of the coherent 1-path onto the suspended point
    op = comparison_operator((MINUS,), 0, 0, 0)
    assert standard(0).act(Simplex(Vertices((0,))), op) == Simplex((0,))
    E = suspension(standard(0))
    [x] = E.hom("0", "1").simplices_of_dim(0)
    f = yoneda_composite(E, x, 0)
    assert f.obj == ("0", "1")
    assert f.images[(0, (MINUS,))] == x


def test_sigma_restricts_to_comparison_map():
    # a hom cell of the (n+1)-path crossing 0 < ... <= n lands where its cube
    # cell below the top minus goes under the comparison map
    for n in range(4):
        cm = c_map(n)
        H, top = hom_set(0, n + 1), Simplex(Vertices(range(n + 1)))
        for cell in H.cells():
            image = standard(n).act(top, comparison_operator(cell.w, 0, n, H.dims[cell]))
            assert image == cm.assignment[Coords(cell.w[:-1])], (n, cell)


def test_last_factor_cut_matches_the_full_split():
    for s in range(1, 6):
        for r in range(s):
            for cell in hom_set(r, s).cells():
                cut = split(cell.w, hom_set(r, s).dims[cell])[0]
                assert split_at_zeros(r, cell.w)[-1] == (r + cut, cell.w[cut:]), (r, cell)


def test_yoneda_composite_is_a_stratified_functor():
    # yoneda_composite names only the generators; every other cell of every hom
    # must still follow the closed form, every thin cell must land thin, and an
    # arrow through an interior vertex must go to the composite of its parts
    for X in (standard(0), standard(1), from_category(walking_iso(), 4)):
        E = suspension(X)
        hom01 = E.hom("0", "1")
        for m in range(3):
            for x in X.simplices_of_dim(m):
                f = yoneda_composite(E, x, m)
                for r, s, H, cell in _hom_cells(f.n):
                    d, w, target = H.dims[cell], cell.w, E.hom(f.obj[r], f.obj[s])
                    if r <= m < s:
                        expected = hom01.act(x, comparison_operator(w, r, m, d))
                    else:
                        expected = E.identity_simplex(f.obj[r], d)
                    img = f.eval_arrow(r, w, d)
                    assert img == expected, (x, r, cell)
                    assert cell not in H.thin or target.is_thin(img), (x, r, cell)
                    for cut in (i for i, v in enumerate(w[:-1], 1) if v == MINUS):
                        last, rest = f.eval_arrow(r + cut, w[cut:], d), f.eval_arrow(r, w[:cut], d)
                        a, b = f.obj[r], f.obj[r + cut]
                        assert img == E.compose(a, b, f.obj[s], last, rest), (x, r, cell, cut)


def _hom_cells(n):
    """(r, s, hom(r, s), cell) for every cell of every homset of the coherent n-path."""
    for r in range(n + 1):
        for s in range(r + 1, n + 1):
            H = hom_set(r, s)
            for cell in H.cells():
                yield r, s, H, cell


def test_nerve_act_composes_nothing():
    # an operator sends generators to generators or identities, so precomposing
    # reads generator images alone, even on a simplex that evaluated nothing yet
    from complicial.operators import all_operators

    E = CountingCategory(suspension(from_category(walking_iso(), 4)))
    cells = [f for n in range(4) for f in nerve_layer(E, n)]
    E.calls.clear()
    for f in cells:
        fresh = NerveSimplex(E, f.n, f.obj, f.images)
        for n2 in range(4):
            for alpha in all_operators(n2, f.n):
                nerve_act(fresh, alpha)
    assert not E.calls


def test_build_nerve_acts_once_per_operator_and_generator(monkeypatch):
    # nerve_act reads the cached hcpath.generator_action, so a build acts with
    # each operator on each generator once, and a second build not at all
    from complicial import hcpath, nerve

    operators, calls = set(), []
    act, path_act = nerve.nerve_act, hcpath.path_act
    monkeypatch.setattr(nerve, "nerve_act", lambda f, alpha: operators.add(alpha) or act(f, alpha))
    monkeypatch.setattr(hcpath, "path_act", lambda *args: calls.append(args) or path_act(*args))
    hcpath.generator_action.cache_clear()
    E = suspension(standard(2))
    build_nerve(E, 4)
    assert len(calls) == sum(len(generators(alpha.n)) for alpha in operators) > 0
    assert len(set(calls)) == len(calls)
    calls.clear()
    build_nerve(E, 4)
    assert calls == [] and operators


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
        cells = [f for n in range(3) for f in nerve_layer(E, n)]
        for F in functors:
            tables.append(tuple(_push(F, f)._key for f in cells))
        assert len(set(tables)) == len(functors)


def _endofunctors(E):
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
    images = {
        (r, w): F.hom_maps[(f.obj[r], f.obj[r + len(w)])](img) for (r, w), img in f.images.items()
    }
    return NerveSimplex(F.target, f.n, tuple(F.obj_map[o] for o in f.obj), images)


def test_terminal_nerve_is_point():
    E = terminal_enriched()
    for n in range(4):
        assert len(nerve_layer(E, n)) == 1
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
            for f in nerve_layer(E, n):
                for r in range(n + 1):
                    for s in range(r + 1, n + 1):
                        H = hom_set(r, s)
                        table = {c: f.eval_arrow(r, c.w, H.dims[c]) for c in H.cells()}
                        m = StratifiedMap(H, E.hom(f.obj[r], f.obj[s]), table)
                        assert m.validate() == []


def test_desk_nerves_fill_outer_horns_too():
    # stronger than the inner reports: the example nerves are weak
    # complicial outright at this scale
    from complicial.suite import desk_nerves

    for _, N in desk_nerves():
        assert rlp_report(N, 3, mode="all").ok


def test_nerve_normal_form_strips_exactly_the_flats():
    from complicial.suite import desk_examples

    for _, E in desk_examples():
        for n in range(4):
            for f in nerve_layer(E, n):
                core, word = nerve_normal_form(f)
                assert set(word) == {j for j in range(n) if _degenerate_at(f, j)}
                assert list(word) == sorted(word, reverse=True)
                assert not any(_degenerate_at(core, j) for j in range(core.n))
                assert nerve_act(core, word_operator(n, word)) == f


# -- reference: the per-dimension search and the degeneracy probe ---------------
#
# The library builds the nerve layer by layer, each n-simplex extending its face
# d_n, and reads degeneracies from the layers below.  These are the direct
# definitions it must agree with: every generator of every hom searched for
# each n, candidates in sort_key order, every arrow evaluated through its full
# split into indecomposables, every thin cell of every hom checked, and
# degeneracy tested by comparing with a face and a degeneracy.


def _eval_partial(E, obj, assigned, r, w, m):
    if not w:
        return E.identity_simplex(obj[r], m)
    out = None
    for lo, factor in split_at_zeros(r, w):
        hi = lo + len(factor)
        core, word = cube_normal_form(factor, m)
        img = assigned.get((lo, hi, core))
        if img is None:
            return None
        if word:
            img = E.hom(obj[lo], obj[hi]).act(img, word_operator(m, word))
        out = img if out is None else E.compose(obj[r], obj[lo], obj[hi], img, out)
    return out


@lru_cache(maxsize=None)
def _reference_simplices(E, n):
    gens = generators(n)
    results = []

    def object_maps(prefix):
        if len(prefix) == n + 1:
            yield tuple(prefix)
            return
        for o in E.objects:
            if all(E.homs[(p, o)].dims for p in prefix):
                yield from object_maps(prefix + [o])

    for obj in object_maps([]):
        assigned = {}

        def candidates(r, s, cell, d):
            faces = {}
            for j in range(d + 1) if d >= 1 else ():
                faces[j] = _eval_partial(E, obj, assigned, r, cube_face(cell.w, d, j), d - 1)
                if faces[j] is None:
                    return ()
            target = E.hom(obj[r], obj[s])
            fillers = target.fillers(d, faces, cell in hom_set(r, s).thin)
            return sorted(fillers, key=target.sort_key)

        def search(i):
            if i == len(gens):
                if all(
                    E.hom(obj[r], obj[s]).is_thin(
                        _eval_partial(E, obj, assigned, r, cell.w, H.dims[cell])
                    )
                    for r, s, H, cell in _hom_cells(n)
                    if cell in H.thin
                ):
                    images = {(r, w): img for (r, _, w), img in assigned.items()}
                    results.append(NerveSimplex(E, n, obj, images))
                return
            r, s, cell, d = gens[i]
            for z in candidates(r, s, cell, d):
                assigned[(r, s, cell.w)] = z
                search(i + 1)
                del assigned[(r, s, cell.w)]

        search(0)
    return results


def test_eval_arrow_matches_the_full_split():
    # the library evaluates an arrow by its last factor and memoises; the
    # reference splits it into every indecomposable factor
    from complicial.suite import desk_examples

    for _, E in desk_examples():
        for n in range(4):
            for f in nerve_layer(E, n):
                assigned = {(r, r + len(w), w): img for (r, w), img in f.images.items()}
                for r, _, H, cell in _hom_cells(n):
                    d = H.dims[cell]
                    expected = _eval_partial(E, f.obj, assigned, r, cell.w, d)
                    assert f.eval_arrow(r, cell.w, d) == expected, (f, r, cell)


def _degenerate_at(f, j):
    g = nerve_act(f, delta(f.n, j + 1))
    return nerve_act(g, sigma(f.n - 1, j)) == f


def nerve_normal_form(f):
    """The nondegenerate core and the word: the flats of f, stripped from the top down."""
    word = tuple(j for j in reversed(range(f.n)) if _degenerate_at(f, j))
    for t in word:
        f = nerve_act(f, delta(f.n, t + 1))
    return f, word


def _reference_build_nerve(E, D):
    full_layers = [_reference_simplices(E, n) for n in range(D + 1)]
    layers = [
        [f for f in allf if not any(_degenerate_at(f, j) for j in range(n))]
        for n, allf in enumerate(full_layers)
    ]
    ids = {f: f"N{n}.{i}" for n, layer in enumerate(layers) for i, f in enumerate(layer)}
    dims = {ids[f]: n for n, layer in enumerate(layers) for f in layer}
    faces = {}
    for n, layer in enumerate(layers[1:], 1):
        for f in layer:
            faces[ids[f]] = tuple(
                Simplex(ids[core], word)
                for core, word in (
                    nerve_normal_form(nerve_act(f, delta(n, j))) for j in range(n + 1)
                )
            )
    pool2 = full_layers[2] if D >= 2 else []
    thin = [ids[f] for layer in layers[1:] for f in layer if nerve_thin(f, pool2)]
    return FiniteStratifiedSet(D, dims, faces, thin)


def _reference_cases():
    from complicial.suite import desk_examples

    cases = [pytest.param(E, 3, id=name) for name, E in desk_examples()]
    for name, X in (("delta2", standard(2)), ("boundary2", boundary(2)),
                    ("complicial21", complicial(2, 1))):
        cases.append(pytest.param(suspension(X), 4, id=f"suspension-{name}"))
    for name, C in (("walking-iso", walking_iso()), ("z3", cyclic_group_category(3))):
        cases.append(pytest.param(discrete_enriched(C), 3, id=f"discrete-{name}"))
    return cases


@pytest.mark.parametrize("E,D", _reference_cases())
def test_layer_walk_matches_the_per_dimension_search(E, D):
    for n in range(D + 1):
        assert nerve_layer(E, n) == _reference_simplices(E, n), n
    assert set_to_json(build_nerve(E, D)) == set_to_json(_reference_build_nerve(E, D))


def test_suspended_interval_nerve_at_dimension_five():
    # dimension 5 is the first where hom(0, 5) is the 4-cube
    started = time.perf_counter()
    N = build_nerve(suspension(standard(1)), 5)
    assert N.count_nondegenerate() == {n: 2 for n in range(6)}
    report = rlp_report(N, 5, "inner")
    assert report.ok and sum(n for _, n in report.checked) == 690
    assert time.perf_counter() - started < 10
