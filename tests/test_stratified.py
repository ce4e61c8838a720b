import sys

import pytest

from complicial.anodyne import AnodyneCertificate, LiftingReport, Step, hatted_C23
from complicial.errors import (
    BadParams,
    CapExceeded,
    Mismatch,
    OutOfRange,
    UnknownCell,
    ZeroDimensional,
)
from complicial.enriched import (
    FiniteCategory,
    cyclic_group_category,
    from_category,
    suspension,
    walking_iso,
)
from complicial.nerve import build_nerve
from complicial.operators import (
    Operator,
    all_operators,
    compose_ops,
    delta,
    ez_factorize,
    sigma,
    surjection_words,
    word_operator,
)
from complicial.shapes import (
    Vertices,
    big_C,
    big_H,
    boundary,
    complicial,
    cube,
    horn,
    standard,
    standard_thin,
)
from complicial.stratified import (
    FiniteStratifiedSet,
    Pair,
    Simplex,
    StratifiedMap,
    SubsetHandle,
    degenerate,
    extensions,
    gray_product,
    make_thin,
    product_pair_simplex,
    regular_generated,
    set_from_json,
    set_to_json,
    subset_to_set,
)
from complicial.suite import SuiteItem, SuiteReport, desk_nerves
from reference import (
    act_by_operators,
    enumerate_maps,
    fillers_scan,
    identity,
    is_subset_kind,
    parse_vertex_chain,
    recompose,
)


def test_validate_standard_passes():
    assert standard(2).validate() == []


def test_validate_catches_swapped_face():
    X = standard(2)
    faces = dict(X.faces)
    top = (0, 1, 2)
    fs = list(faces[top])
    fs[0], fs[1] = fs[1], fs[0]
    faces[top] = tuple(fs)
    broken = FiniteStratifiedSet(X.dim_cap, X.dims, faces, X.thin)
    assert any("identity" in p for p in broken.validate())


def test_validate_catches_a_wrong_degenerate_face():
    # face 1 of the 2-cell x:f|g is the degenerate edge at x; naming the one at y
    # instead breaks the identities that read it, through the word of the face
    X = from_category(walking_iso(), 2)
    cell = {str(c): c for c in X.cells()}
    faces = dict(X.faces)
    fs = list(faces[cell["x:f|g"]])
    assert fs[1] == Simplex(cell["x:"], (0,))
    fs[1] = Simplex(cell["y:"], (0,))
    faces[cell["x:f|g"]] = tuple(fs)
    broken = FiniteStratifiedSet(X.dim_cap, X.dims, faces, X.thin)
    assert broken.validate() == [
        "cell x:f|g: identity d0 d1 fails",
        "cell x:f|g: identity d1 d2 fails",
    ]


def test_validate_reads_no_face_index():
    # one cell per dimension up to 40, every face of c_d being c_{d-1}: a valid
    # set with 2^q q-simplices, which validate checks from the stored faces alone
    cells = [{"id": "c0", "dim": 0}] + [
        {"id": f"c{d}", "dim": d, "faces": [{"cell": f"c{d - 1}", "word": []}] * (d + 1)}
        for d in range(1, 41)
    ]
    X = set_from_json({"dim_cap": 40, "cells": cells})
    assert X._face_index == {}
    assert X.count_nondegenerate() == {d: 1 for d in range(41)}
    assert sum(1 for _ in X.simplices_of_dim(10)) == 2**10


def test_validate_rejects_thin_vertex():
    X = standard(1)
    broken = FiniteStratifiedSet(X.dim_cap, X.dims, X.faces, frozenset({(0,)}))
    assert any("0-cell" in p for p in broken.validate())


def test_validate_reports_a_dimension_out_of_range_and_an_unknown_thin_flag():
    # negative controls: each set breaks one invariant, and validate names it alone
    dims, edge = {"a": 0, "b": 0, "e": 1}, {"e": (Simplex("b"), Simplex("a"))}
    cases = [
        (FiniteStratifiedSet(0, {"a": -1}, {}), "cell a: negative dimension"),
        (FiniteStratifiedSet(0, dims, edge), "cell e: dimension 1 exceeds cap 0"),
        (FiniteStratifiedSet(0, {"a": 0}, {}, ["z"]), "thin flag on unknown cell z"),
    ]
    for X, problem in cases:
        assert X.validate() == [problem]


def test_stratified_map_refuses_a_thin_cell_sent_to_a_non_thin_simplex():
    # the identity on cells from the thin 1-simplex to the plain one commutes with
    # every face but does not keep the stratification
    source, target = standard_thin(1), standard(1)
    f = StratifiedMap(source, target, {c: Simplex(c) for c in source.cells()})
    assert f.validate() == ["thin cell 0.1 maps to non-thin simplex"]
    assert StratifiedMap(target, source, f.assignment).validate() == []


def test_act_identity():
    X = standard(2)
    s = Simplex((0, 1, 2))
    assert X.act(s, identity(2)) == s


def test_act_matches_single_composite():
    # acting by sigma then delta equals acting by the composite operator
    X = standard(2)
    s = Simplex((0, 1, 2))
    one = X.act(X.act(s, sigma(2, 0)), delta(3, 0))
    composite = compose_ops(sigma(2, 0), delta(3, 0))
    assert one == X.act(s, composite)


def test_act_total_degeneracy_of_vertex():
    X = standard(2)
    s = Simplex((1,))
    word_op = compose_ops(sigma(0, 0), sigma(1, 1))
    out = X.act(s, compose_ops(word_op, identity(2)))
    assert out.cell == (1,) and len(out.word) == 2


def test_act_rejects_an_operator_with_the_wrong_target():
    # the operator must target the dimension of the simplex, degenerate or not
    X = standard(2)
    with pytest.raises(Mismatch, match=r"operator targets \[1\], simplex has dim 2"):
        X.act(Simplex((0, 1, 2)), delta(1, 0))
    with pytest.raises(Mismatch, match=r"operator targets \[2\], simplex has dim 1"):
        X.act(Simplex((1,), (0,)), delta(2, 0))


def test_act_functorial_exhaustive():
    for X in (standard(2), cube(2)):
        top_dim = X.max_dim()
        for c in X.cells():
            d = X.dims[c]
            s = Simplex(c)
            for mid in range(4):
                for alpha in all_operators(mid, d):
                    part = X.act(s, alpha)
                    for low in range(3):
                        for beta in all_operators(low, mid):
                            assert X.act(part, beta) == X.act(s, compose_ops(alpha, beta))


def test_regular_generated_empty():
    X = standard(2)
    h = regular_generated(X, [])
    assert h.members == frozenset()


def test_regular_generated_top_gives_all():
    X = standard(2)
    h = regular_generated(X, [(0, 1, 2)])
    assert h.members == frozenset(X.dims)


def test_regular_generated_in_square():
    X = big_C(2, 1)
    cell = parse_vertex_chain("(0,0)<(1,0)<(1,1)")
    h = regular_generated(X, [cell])
    assert len(h.members) == 7  # the cell, three edges, three vertices
    assert sum(1 for c in h.members if X.dims[c] == 1) == 3
    assert sum(1 for c in h.members if X.dims[c] == 0) == 3


def test_regular_generated_unknown_cell():
    with pytest.raises(UnknownCell):
        regular_generated(standard(1), ["missing"])


def test_regular_generated_closure_operator():
    X = cube(2)
    seeds = ["2,1"]
    once = regular_generated(X, seeds)
    twice = regular_generated(X, once.members)
    assert once.members == twice.members  # idempotent
    bigger = regular_generated(X, list(once.members) + ["1,2"])
    assert once.members <= bigger.members  # monotone
    assert frozenset(seeds) <= once.members  # extensive


def test_make_thin_identity():
    X = standard(2)
    assert make_thin(X, []).thin == X.thin


def test_make_thin_rejects_vertices():
    with pytest.raises(ZeroDimensional):
        make_thin(standard(1), [(0,)])


def test_make_thin_maximal():
    X = standard(2)
    Y = make_thin(X, [c for c in X.cells() if X.dims[c] >= 1])
    assert all(c in Y.thin for c in Y.cells() if Y.dims[c] >= 1)


def test_make_thin_answers_as_its_parent_and_leaves_it_alone():
    """make_thin shares its parent's tables: faces and fillers read the same, and
    only the thin flags differ, on the new set alone."""
    for X in [cube(3), standard(3), big_C(3, 2)]:
        before = X.thin
        extra = [c for c in X.cells() if X.dims[c] >= 1 and c not in X.thin][:3]
        Y = make_thin(X, extra)
        assert Y.thin == before | frozenset(extra) and X.thin == before
        assert Y.cells() == X.cells() and Y.dims == X.dims and Y.faces == X.faces
        for n in range(X.dim_cap + 2):
            js = range(n + 1 if n else 0)  # a 0-simplex has no faces
            for s in X.simplices_of_dim(n):
                assert [Y.face(s, j) for j in js] == [X.face(s, j) for j in js]
            for z in list(X.simplices_of_dim(n))[:20]:
                faces = {j: X.face(z, j) for j in range(1, n + 1)} if n else {}
                assert list(Y.fillers(n, faces, False)) == list(X.fillers(n, faces, False))
                thin_fillers = [f for f in Y.fillers(n, faces, False) if Y.is_thin(f)]
                assert list(Y.fillers(n, faces, True)) == thin_fillers
                assert list(X.fillers(n, faces, True)) == [
                    f for f in X.fillers(n, faces, False) if f.is_degenerate or f.cell in before
                ]
        assert X.thin == before


def test_face_refuses_a_simplex_not_in_normal_form():
    X = standard(2)
    for s in [Simplex(Vertices((0,)), (0, 0)), Simplex(Vertices((0,)), (1,)), Simplex(Vertices((0, 1)), (2,))]:
        with pytest.raises(OutOfRange, match="no face 0 of"):
            X.face(s, 0)
    with pytest.raises(UnknownCell):
        X.face(Simplex("nowhere"), 0)


def test_union_regular_builds_U():
    # H^1_2 with the filled square triangle is the intermediate subset U
    X = big_C(2, 1)
    h = big_H(2, 1)
    triangle = parse_vertex_chain("(0,0)<(1,0)<(1,1)")
    tri = regular_generated(X, [triangle])
    u = regular_generated(X, h.members | {triangle})
    assert u.members == h.members | tri.members
    assert "regular" in is_subset_kind(u)


def test_subset_kinds():
    X = big_C(3, 2)
    full = SubsetHandle(X, frozenset(X.dims), X.thin)
    assert is_subset_kind(full) == frozenset({"regular", "entire"})
    h = big_H(3, 2)
    assert is_subset_kind(h) == frozenset({"regular"})
    dropped = SubsetHandle(X, frozenset(X.dims), X.thin - {sorted(X.thin)[0]})
    assert is_subset_kind(dropped) == frozenset({"entire"})


def test_gray_product_unit():
    X = standard(2)
    P = gray_product(standard(0), X)
    assert P.count_nondegenerate() == X.count_nondegenerate()
    assert P.validate() == []


def test_gray_product_square_census():
    P = gray_product(standard(1), standard(1))
    assert P.count_nondegenerate() == {0: 4, 1: 5, 2: 2}
    # no edge has both components thin, so none of the five is thin; the two
    # nondegenerate 2-cells pair degenerate components and are thin
    assert all(c not in P.thin for c in P.cells_of_dim(1))
    assert all(c in P.thin for c in P.cells_of_dim(2))


def test_gray_product_thin_rule():
    T = standard_thin(1)
    P = gray_product(T, T)
    # every positive-dimensional pair has both components thin or degenerate
    for c in P.cells():
        if P.dims[c] >= 1:
            assert c in P.thin


def test_gray_product_validates():
    P = gray_product(standard(1), standard(2))
    assert P.validate() == []


def _points(*names):
    return FiniteStratifiedSet(0, {c: 0 for c in names}, {})


def test_gray_product_keeps_pairs_with_one_spelling_apart():
    # (p|)(q, r) and (p, q|)(r) are both spelled (p|)(q|)(r|)
    X = _points("p|)(q", "p", "q|)(r", "r")
    P = gray_product(X, X)
    assert len(P.dims) == 16
    assert len({str(c) for c in P.cells()}) == 15
    with pytest.raises(BadParams, match=r"\(p\|\)\(q\|\)\(r\|\)"):
        set_to_json(P)


def test_gray_product_has_no_cells_above_its_factors():
    # no pair of m-simplices with disjoint flats lies above dim X + dim Y
    X = FiniteStratifiedSet(6, standard(1).dims, standard(1).faces)
    P = gray_product(X, X)
    assert P.dim_cap == 12 and P.max_dim() == 2
    assert P.count_nondegenerate() == gray_product(standard(1), standard(1)).count_nondegenerate()


def test_cells_sort_by_spelling():
    # tuples order (0, 2) before (0, 10); their spellings the other way round
    X = standard(10)
    assert [str(c) for c in X.cells_of_dim(1)[:3]] == ["0.1", "0.10", "0.2"]
    fillers = sorted(X.fillers(1, {}, False), key=X.sort_key)
    assert [str(z.cell) for z in fillers[:4]] == ["0", "0.1", "0.10", "0.2"]


def test_enumerate_maps_from_point():
    X = cube(2)
    maps = enumerate_maps(standard(0), X)
    assert len(maps) == len(X.cells_of_dim(0))


def test_enumerate_maps_interval_to_interval():
    maps = enumerate_maps(standard(1), standard(1))
    assert len(maps) == 3


def test_enumerate_maps_thin_interval():
    maps = enumerate_maps(standard_thin(1), standard(1))
    assert len(maps) == 2  # constants only: the identity fails thinness


def test_enumerate_maps_outputs_validate():
    for f in enumerate_maps(standard(1), cube(2)):
        assert f.validate() == []


def test_enumerate_maps_cap_guard():
    with pytest.raises(CapExceeded):
        enumerate_maps(standard(2), standard(1))


def test_enumerate_maps_count_stable_under_renaming():
    X = standard(1)
    renamed = FiniteStratifiedSet(
        X.dim_cap,
        {f"z{c}": d for c, d in X.dims.items()},
        {
            f"z{c}": tuple(Simplex(f"z{s.cell}", s.word) for s in fs)
            for c, fs in X.faces.items()
        },
        frozenset(f"z{c}" for c in X.thin),
    )
    assert len(enumerate_maps(standard(1), renamed)) == len(
        enumerate_maps(standard(1), X)
    )


def test_json_round_trip():
    X = big_C(2, 1)
    Y = set_from_json(set_to_json(X))
    assert Y.dims == X.dims and Y.thin == X.thin and Y.faces == X.faces


def test_every_cell_has_a_face_row():
    # a 0-cell's row is (), also where a builder or the JSON leaves it out,
    # and the face index holds each cell's stored row itself
    data = set_to_json(standard(1))
    for entry in data["cells"]:
        if entry["dim"] == 0:
            del entry["faces"]
    sets = [
        standard(2),
        cube(2),
        gray_product(standard(1), standard(1)),
        dict(desk_nerves())["susp-iso-nerve"],
        set_from_json(data),
    ]
    for X in sets:
        assert X.faces.keys() == X.dims.keys()
        assert all(X.faces[c] == () for c in X.cells_of_dim(0))
        for n in range(X.max_dim() + 1):
            rows = X._faces_of_dim(n)[0]
            assert all(rows[Simplex(c)] is X.faces[c] for c in X.cells_of_dim(n))


def test_subset_to_set_keeps_ids():
    X = standard(2)
    h = regular_generated(X, [(0, 1)])
    Y = subset_to_set(h)
    assert set(Y.dims) == {(0,), (1,), (0, 1)}
    assert Y.validate() == []


def _reference_pair_simplex(X, Y, sx, sy):
    """Strip one common flat at a time through act, the flats read off the
    composite of elementary degeneracies."""

    def flats(s, q):
        op = recompose(q, q - len(s.word), (), s.word)
        return {t for t in range(q) if op.values[t] == op.values[t + 1]}

    collapse = identity(X.simplex_dim(sx))
    while True:
        cur = X.simplex_dim(sx)
        common = flats(sx, cur) & flats(sy, cur)
        if not common:
            return Simplex(Pair((sx, sy)), ez_factorize(collapse)[1])
        t = max(common)
        sx, sy = X.act(sx, delta(cur, t)), Y.act(sy, delta(cur, t))
        collapse = compose_ops(sigma(cur - 1, t), collapse)


@pytest.mark.parametrize(
    "X, Y",
    [
        (cube(2), cube(2)),
        (standard(2), complicial(3, 1)),
        (from_category(walking_iso(), 4), cube(3)),
    ],
    ids=["cube2-cube2", "delta2-complicial31", "iso-nerve-cube3"],
)
def test_product_pair_simplex_matches_one_flat_at_a_time(X, Y):
    for q in range(5):
        ys = list(Y.simplices_of_dim(q))
        for sx in X.simplices_of_dim(q):
            for sy in ys:
                assert product_pair_simplex(sx, sy) == _reference_pair_simplex(X, Y, sx, sy)


def _fillers_cases():
    """Sets of every kind of cell: vertex tuples, cube coordinates, strings read
    from JSON, product pairs and nerve ids, one with flags added by make_thin."""
    cube3 = cube(3)
    return [
        standard(2),
        horn(3, 1),
        complicial(3, 1),
        big_C(2, 1),
        cube3,
        hatted_C23(),
        set_from_json(set_to_json(big_C(3, 1))),
        gray_product(standard(1), horn(2, 1)),
        build_nerve(suspension(standard(2)), 3),
        make_thin(cube3, [c for c in cube3.cells() if cube3.dims[c]][::5]),
    ]


@pytest.mark.parametrize("X", _fillers_cases())
def test_fillers_match_brute_force(X):
    # the face index answers every query as the linear scan does, order included;
    # boundaries of every simplex of a dimension with at most 64, of one in six above
    for n in range(X.max_dim() + 3):
        simplices = list(X.simplices_of_dim(n))
        sample = simplices if len(simplices) <= 64 else simplices[:: len(simplices) // 6]
        sample = sample if n else []
        boundary = {z: [X.act(z, delta(n, j)) for j in range(n + 1)] for z in sample}
        problems = [{}]  # a 0-simplex has no faces to give
        for z1, z2 in zip(sample, reversed(sample)):
            full = dict(enumerate(boundary[z1]))
            impossible = {0: z1, n: full[n]}  # an n-simplex is never a face of one
            assert z1 in X.fillers(n, full, False)
            assert next(X.fillers(n, impossible, False), None) is None
            partial = {j: s for j, s in full.items() if j != 1}
            problems += [full, partial, {n: full[n]}, {0: full[0], n: boundary[z2][n]}, impossible]
        for faces in problems:
            for thin in (False, True):
                assert list(X.fillers(n, faces, thin)) == list(fillers_scan(X, n, faces, thin))


def test_make_thin_answers_with_its_own_flags():
    X = standard(2)
    top = Simplex(Vertices((0, 1, 2)))
    faces = {2: Simplex(Vertices((0, 1)))}
    assert top not in list(X.fillers(2, faces, True))  # the index of X is built
    Y = make_thin(X, [top.cell])
    assert top in list(Y.fillers(2, faces, True))
    assert list(Y.fillers(2, faces, True)) == list(fillers_scan(Y, 2, faces, True))
    assert top not in list(X.fillers(2, faces, True))


def test_fillers_face_index_out_of_range():
    X = standard(2)
    vertex = Simplex(Vertices((0,)))
    for j in (5, -1):
        with pytest.raises(OutOfRange):
            list(X.fillers(1, {j: vertex}, False))


def test_face_determined_dimensions():
    # Δ² has three vertices, and above them every simplex is fixed by its faces
    assert [standard(2).face_determined(n) for n in range(4)] == [False, True, True, True]
    # the nerve of Z/3: one vertex, then three loops with equal faces, then paths
    # fixed by their faces
    X = from_category(cyclic_group_category(3), 3)
    assert [X.face_determined(n) for n in range(4)] == [True, False, True, True]


FACE_SETS = {
    "cube(3)": lambda: cube(3),
    "big_C(3, 2)": lambda: big_C(3, 2),
    "horn(3, 1)": lambda: horn(3, 1),
    "boundary(3)": lambda: boundary(3),
    "walking-iso nerve": lambda: from_category(walking_iso(), 3),
    "nerve of suspension(standard(2))": lambda: build_nerve(suspension(standard(2)), 3),
    "gray_product(standard(1), standard(2))": lambda: gray_product(standard(1), standard(2)),
}


@pytest.mark.parametrize("name", sorted(FACE_SETS))
def test_face_reads_what_act_computes(name):
    X = FACE_SETS[name]()
    for n in range(4):
        for s in X.simplices_of_dim(n):
            js = range(n + 1) if n else ()  # 0-simplices have no faces
            assert [X.face(s, j) for j in js] == [act_by_operators(X, s, delta(n, j)) for j in js]
            for j in (-1, n + 1) if n else (0,):
                with pytest.raises(OutOfRange):
                    X.face(s, j)


@pytest.mark.parametrize("name", sorted(FACE_SETS))
def test_act_matches_the_operator_formulation(name):
    # every operator [k] -> [q], k, q <= 3, on every q-simplex, degenerate ones included
    X = FACE_SETS[name]()
    for q in range(4):
        ops = [alpha for k in range(4) for alpha in all_operators(k, q)]
        for s in X.simplices_of_dim(q):
            for alpha in ops:
                assert X.act(s, alpha) == act_by_operators(X, s, alpha), (s, alpha)


def test_degenerate_composes_the_surjections():
    # s = (c, v) degenerated by w is c acted on by the composite of the word operators
    pairs = 0
    for p in range(7):
        for q in range(p, 9):
            for w in surjection_words(q, p):
                for d in range(p + 1):
                    for v in surjection_words(p, d):
                        composite = compose_ops(word_operator(p, v), word_operator(q, w))
                        want = Simplex("c", ez_factorize(composite)[1])
                        assert degenerate(Simplex("c", v), w) == want, (v, w)
                        pairs += 1
    assert pairs > 5000
    s = Simplex("c", (1, 0))
    assert degenerate(s, ()) is s


def test_simplices_and_operators_compare_and_hash_as_tuples():
    # tuple's C slots, not methods written in Python, so dict lookups keyed on them stay cheap;
    # the records share the one idiom, so each equals the plain tuple of its fields
    records = (StratifiedMap, SubsetHandle, LiftingReport, Step, AnodyneCertificate)
    for cls in (Simplex, Operator) + records + (FiniteCategory, SuiteItem, SuiteReport):
        assert issubclass(cls, tuple)
        assert cls.__eq__ is tuple.__eq__ and cls.__hash__ is tuple.__hash__, cls
    assert Simplex("c", (1, 0)) == ("c", (1, 0)) and hash(Simplex("c")) == hash(("c", ()))
    assert repr(Simplex("c", (0,))) == "Simplex(cell='c', word=(0,))"
    assert Operator(1, 2, (0, 2)) == (1, 2, (0, 2)) and repr(delta(2, 1)) == "Op[1]->[2][0, 2]"
    assert Step("horn", 2, 1, "c") == ("horn", 2, 1, "c")
    assert hash(Step("horn", 2, 1, "c")) == hash(("horn", 2, 1, "c"))


def test_extensions_are_lexicographic():
    got = list(extensions(["a", "b"], lambda slot, assignment: [0, 1]))
    assert got == [{"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 0}, {"a": 1, "b": 1}]


def test_extensions_cut_a_branch_without_candidates():
    # "b" has no candidate once "a" holds 0, so only the branch a = 1 survives
    def candidates(slot, assignment):
        return [0, 1] if slot == "a" else [] if assignment["a"] == 0 else [1]

    assert list(extensions(["a", "b"], candidates)) == [{"a": 1, "b": 1}]
    assert list(extensions(["a", "b"], lambda slot, assignment: [])) == []


def test_extensions_are_fresh_dicts_holding_start():
    start = {"s": 9}
    seen = []

    def candidates(slot, assignment):
        seen.append(dict(assignment))
        return [0, 1]

    got = list(extensions([0, 1], candidates, start))
    assert got == [{"s": 9, 0: a, 1: b} for a in (0, 1) for b in (0, 1)]
    assert len({id(d) for d in got}) == 4
    got[0]["s"] = 10
    assert start == {"s": 9} and got[1]["s"] == 9
    # candidates see start and the earlier slots, never a later one
    assert seen == [{"s": 9}, {"s": 9, 0: 0}, {"s": 9, 0: 1}]
    assert list(extensions([], candidates, start)) == [start]


def test_extensions_go_deeper_than_the_recursion_limit():
    slots = range(sys.getrecursionlimit() + 100)
    [only] = list(extensions(slots, lambda slot, assignment: [slot]))
    assert only == {i: i for i in slots}
