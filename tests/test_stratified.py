import pytest

from complicial.errors import AmbientMismatch, CapExceeded, UnknownCell, ZeroDimensional
from complicial.operators import delta, sigma, identity, compose_ops, all_operators
from complicial.shapes import big_C, big_H, cube, parse_vertex_chain, standard, standard_thin
from complicial.stratified import (
    FiniteStratifiedSet,
    Simplex,
    SubsetHandle,
    enumerate_maps,
    gray_product,
    is_subset_kind,
    make_thin,
    regular_generated,
    set_from_json,
    set_to_json,
    subset_to_set,
    union_regular,
)


def test_validate_standard_passes():
    assert standard(2).validate() == []


def test_validate_catches_swapped_face():
    X = standard(2)
    faces = dict(X.faces)
    top = "0.1.2"
    fs = list(faces[top])
    fs[0], fs[1] = fs[1], fs[0]
    faces[top] = tuple(fs)
    broken = FiniteStratifiedSet(X.dim_cap, X.dims, faces, X.thin)
    assert any("identity" in p for p in broken.validate())


def test_validate_rejects_thin_vertex():
    X = standard(1)
    broken = FiniteStratifiedSet(X.dim_cap, X.dims, X.faces, frozenset({"0"}))
    assert any("0-cell" in p for p in broken.validate())


def test_act_identity():
    X = standard(2)
    s = Simplex("0.1.2")
    assert X.act(s, identity(2)) == s


def test_act_matches_single_composite():
    # acting by sigma then delta equals acting by the composite operator
    X = standard(2)
    s = Simplex("0.1.2")
    one = X.act(X.act(s, sigma(2, 0)), delta(3, 0))
    composite = compose_ops(sigma(2, 0), delta(3, 0))
    assert one == X.act(s, composite)


def test_act_total_degeneracy_of_vertex():
    X = standard(2)
    s = Simplex("1")
    word_op = compose_ops(sigma(0, 0), sigma(1, 1))
    out = X.act(s, compose_ops(word_op, identity(2)))
    assert out.cell == "1" and len(out.word) == 2


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
    h = regular_generated(X, ["0.1.2"])
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
        make_thin(standard(1), ["0"])


def test_make_thin_maximal():
    X = standard(2)
    Y = make_thin(X, [c for c in X.cells() if X.dims[c] >= 1])
    assert all(c in Y.thin for c in Y.cells() if Y.dims[c] >= 1)


def test_union_regular_idempotent():
    X = standard(2)
    h = regular_generated(X, ["0.1"])
    assert union_regular(X, [h, h]).members == h.members


def test_union_regular_builds_U():
    # H^1_2 with the filled square triangle is the intermediate subset U
    X = big_C(2, 1)
    h = big_H(2, 1)
    tri = regular_generated(X, [parse_vertex_chain("(0,0)<(1,0)<(1,1)")])
    u = union_regular(X, [h, tri])
    assert u.members == h.members | tri.members
    assert "regular" in is_subset_kind(u)


def test_union_regular_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        union_regular(
            standard(2), [regular_generated(standard(2), []), regular_generated(cube(2), [])]
        )


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
    P, _ = gray_product(standard(0), X)
    assert P.count_nondegenerate() == X.count_nondegenerate()
    assert P.validate() == []


def test_gray_product_square_census():
    P, _ = gray_product(standard(1), standard(1))
    assert P.count_nondegenerate() == {0: 4, 1: 5, 2: 2}
    # no edge has both components thin, so none of the five is thin; the two
    # nondegenerate 2-cells pair degenerate components and are thin
    assert all(c not in P.thin for c in P.cells_of_dim(1))
    assert all(c in P.thin for c in P.cells_of_dim(2))


def test_gray_product_thin_rule():
    T = standard_thin(1)
    P, _ = gray_product(T, T)
    # every positive-dimensional pair has both components thin or degenerate
    for c in P.cells():
        if P.dims[c] >= 1:
            assert c in P.thin


def test_gray_product_validates():
    P, _ = gray_product(standard(1), standard(2))
    assert P.validate() == []


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


def test_subset_to_set_keeps_ids():
    X = standard(2)
    h = regular_generated(X, ["0.1"])
    Y = subset_to_set(h)
    assert set(Y.dims) == {"0", "1", "0.1"}
    assert Y.validate() == []
