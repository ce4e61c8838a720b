import pytest

from complicial.errors import OutOfRange
from complicial.operators import MINUS, PLUS, rho_operator
from complicial.shapes import (
    C_ddot,
    C_dot,
    CubeFunction,
    big_C,
    big_H,
    boundary,
    c_map,
    classify_cube_simplex,
    complicial,
    complicial_dprimed,
    complicial_primed,
    cube,
    cube_cell_id,
    cube_normal_form,
    horn,
    is_partial_bijection,
    is_order_reversing,
    parse_cube_cell,
    parse_vertex_chain,
    special_top,
    special_w,
    standard,
    standard_thin,
    vertex_chain,
)
from complicial.stratified import is_subset_kind


def test_standard_census():
    X = standard(2)
    assert X.count_nondegenerate() == {0: 3, 1: 3, 2: 1}
    assert not X.thin


def test_boundary_census():
    X = boundary(2)
    assert X.count_nondegenerate() == {0: 3, 1: 3}


def test_standard_thin():
    X = standard_thin(1)
    assert X.thin == frozenset({"0.1"})


def test_complicial_one_zero_is_thin_interval():
    X = complicial(1, 0)
    assert X.thin == frozenset({"0.1"})


def test_complicial_two_one_top_only():
    X = complicial(2, 1)
    assert X.thin == frozenset({"0.1.2"})


def test_complicial_primed_variants():
    X = complicial_primed(3, 2)
    assert X.thin == complicial(3, 2).thin | {"0.2.3", "0.1.2"}
    Y = complicial_dprimed(3, 2)
    assert Y.thin == X.thin | {"0.1.3"}


def test_horn_census():
    X = horn(2, 1)
    assert set(X.dims) == {"0", "1", "2", "0.1", "1.2"}
    assert X.validate() == []


def test_complicial_out_of_range():
    with pytest.raises(OutOfRange):
        complicial(2, 3)


def test_cube_two():
    X = cube(2)
    assert X.count_nondegenerate() == {0: 4, 1: 5, 2: 2}
    assert not any(c in X.thin for c in X.cells_of_dim(1))
    assert [c for c in X.cells_of_dim(2) if c in X.thin] == ["1,2"]


def test_cube_three_tops():
    X = cube(3)
    tops = X.cells_of_dim(3)
    assert len(tops) == 6
    assert [c for c in tops if c not in X.thin] == ["3,2,1"]


def test_cube_census_factorials():
    for n in (2, 3, 4):
        X = cube(n)
        tops = X.cells_of_dim(n)
        fact = 1
        for i in range(2, n + 1):
            fact *= i
        assert len(tops) == fact
        assert sum(1 for c in tops if c not in X.thin) == 1


def test_cube_diagonal_edge_plain():
    X = cube(2)
    assert "1,1" in X.dims and "1,1" not in X.thin


def test_cube_validates():
    for n in range(4):
        assert cube(n).validate() == []


def test_classify_examples():
    assert classify_cube_simplex(2, CubeFunction(0, 2, 2, (2, 1))) == "special"
    assert classify_cube_simplex(2, CubeFunction(0, 2, 2, (1, 2))) == "thin"
    assert classify_cube_simplex(2, CubeFunction(0, 2, 1, (1, PLUS))) == "special"
    assert classify_cube_simplex(2, CubeFunction(0, 2, 1, (1, 1))) == "plain"
    assert classify_cube_simplex(2, CubeFunction(0, 2, 2, (1, PLUS))) == "degenerate"


def test_classify_degenerate_matches_brute_force():
    # degeneracy is a common flat spot of the coordinate operators
    from itertools import product

    for n in range(1, 4):
        for m in range(4):
            alphabet = [MINUS, PLUS] + list(range(1, m + 1))
            for w in product(alphabet, repeat=n):
                ops = [rho_operator(v, m) for v in w]
                flat_somewhere = any(
                    all(op.values[t] == op.values[t + 1] for op in ops)
                    for t in range(m)
                )
                got = classify_cube_simplex(n, CubeFunction(0, n, m, w))
                assert (got == "degenerate") == flat_somewhere


def test_vertex_chain_round_trip():
    X = cube(3)
    for cid in X.cells():
        w = parse_cube_cell(cid)
        m = X.dims[cid]
        chain = vertex_chain(w, m)
        assert parse_vertex_chain(
            "<".join("(" + ",".join(map(str, v)) + ")" for v in chain)
        ) == cube_normal_form(w, m).cell or cid == cube_normal_form(w, m).cell


def test_c_map_sends_special_to_identity():
    cm = c_map(2)
    img = cm.assignment["2,1"]
    assert img.cell == "0.1.2" and img.word == ()


def test_c_map_sends_thin_cell_to_degenerate():
    cm = c_map(2)
    img = cm.assignment["1,2"]
    assert img.word  # vertex path 0,0,2 is degenerate
    assert img.cell == "0.2"


def test_c_map_vertices():
    for n in (1, 2, 3):
        cm = c_map(n)
        assert cm.assignment[cube_cell_id((PLUS,) * n)].cell == str(n)
        assert cm.assignment[cube_cell_id((MINUS,) * n)].cell == "0"


def test_c_map_stratified_up_to_four():
    for n in range(5):
        assert c_map(n).validate() == []


def test_big_C_examples():
    C23 = big_C(3, 2)
    w2 = cube_cell_id(special_w(3, 2).w)
    assert w2 == "2,+,1"
    assert w2 not in C23.thin
    assert w2 not in big_H(3, 2).members
    # the interior-minus special and its mirror are both thin by the
    # splitting criterion and both lie in the horn subset
    for cid in ("2,-,1", "1,-,2"):
        assert cid in C23.thin and cid in big_H(3, 2).members
    assert parse_vertex_chain("(0,0,0)<(1,0,0)<(1,0,1)") == "2,-,1"


def test_big_C_square_example():
    C12 = big_C(2, 1)
    assert "1,-" in C12.thin and "1,-" in big_H(2, 1).members


def test_big_H_regular_and_subsets_entire():
    C = big_C(3, 2)
    h = big_H(3, 2)
    assert is_subset_kind(h) == frozenset({"regular"})
    dot = C_dot(3, 2)
    ddot = C_ddot(3, 2)
    assert set(C.dims) == set(dot.dims) == set(ddot.dims)
    assert C.thin <= dot.thin <= ddot.thin
    assert dot.thin - C.thin == {"+,2,1", "2,1,+"}
    assert ddot.thin - dot.thin == {"2,+,1"}


def test_criteria_only_fire_on_reversing_or_cube_thin():
    # a partial bijection gaining a thin flag is order reversing, unless the
    # cube stratification already had it
    for (n, k) in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
        C = big_C(n, k)
        base = cube(n)
        for cid in C.thin - base.thin:
            w = parse_cube_cell(cid)
            assert is_partial_bijection(w, C.dims[cid])
            assert is_order_reversing(w)


def test_special_w_values():
    assert special_top(2).w == (2, 1)
    assert special_w(3, 2).w == (2, PLUS, 1)
    assert special_w(2, 1).w == (PLUS, 1)


def test_special_w_out_of_range():
    with pytest.raises(OutOfRange):
        special_w(2, 3)
