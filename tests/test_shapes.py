import tracemalloc
from itertools import product
from math import comb

import pytest

from complicial import shapes
from complicial.errors import OutOfRange
from complicial.operators import MINUS, PLUS, rho_operator, rho_precompose
from complicial.shapes import (
    C_ddot,
    C_dot,
    Coords,
    _codes,
    big_C,
    big_H,
    boundary,
    c_map,
    classify_cube_simplex,
    comparison_operator,
    complicial,
    cube,
    cube_normal_form,
    cube_thin,
    horn,
    is_partial_bijection,
    special_top,
    special_w,
    standard,
    standard_thin,
    vertex_chain,
)
from complicial.hcpath import hom_set
from reference import (
    comparison_values,
    complicial_dprimed,
    complicial_primed,
    cube_scan,
    cube_thin_pairs,
    is_integer_surjective,
    is_order_reversing,
    is_subset_kind,
    parse_vertex_chain,
)


def test_standard_census():
    X = standard(2)
    assert X.count_nondegenerate() == {0: 3, 1: 3, 2: 1}
    assert not X.thin


def test_boundary_census():
    X = boundary(2)
    assert X.count_nondegenerate() == {0: 3, 1: 3}


def test_standard_thin():
    X = standard_thin(1)
    assert X.thin == frozenset({(0, 1)})


def test_complicial_one_zero_is_thin_interval():
    X = complicial(1, 0)
    assert X.thin == frozenset({(0, 1)})


def test_complicial_two_one_top_only():
    X = complicial(2, 1)
    assert X.thin == frozenset({(0, 1, 2)})


def test_complicial_primed_variants():
    X = complicial_primed(3, 2)
    assert X.thin == complicial(3, 2).thin | {(0, 2, 3), (0, 1, 2)}
    Y = complicial_dprimed(3, 2)
    assert Y.thin == X.thin | {(0, 1, 3)}


def test_horn_census():
    X = horn(2, 1)
    assert set(X.dims) == {(0,), (1,), (2,), (0, 1), (1, 2)}
    assert [str(c) for c in X.cells()] == ["0", "1", "2", "0.1", "1.2"]
    assert X.validate() == []


def test_complicial_out_of_range():
    with pytest.raises(OutOfRange):
        complicial(2, 3)


def test_shape_builders_refuse_a_dimension_out_of_range():
    # negative controls for the builders' own checks, which the CLI's argument
    # checks otherwise reach first
    cases = [
        (standard, (-1,), "standard simplex needs n >= 0"),
        (cube, (-1,), "cube needs n >= 0"),
        (big_C, (1, 1), "C^k_n needs n >= 2, 1 <= k <= n; got (1, 1)"),
        (big_C, (3, 4), "C^k_n needs n >= 2, 1 <= k <= n; got (3, 4)"),
    ]
    for build, args, message in cases:
        with pytest.raises(OutOfRange) as exc:
            build(*args)
        assert str(exc.value) == message


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
    for n in (2, 3, 4, 5, 6):
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
    for n in range(6):
        assert cube(n).validate() == []


def test_cube_matches_the_word_scan():
    for n in range(6):
        X, Y = cube(n), cube_scan(n)
        assert list(X.dims) == list(Y.dims)
        assert X.dims == Y.dims
        assert X.faces == Y.faces
        assert X.thin == Y.thin
        assert X.dim_cap == Y.dim_cap


def test_cube_thin_is_the_pairwise_rule():
    # every word of length <= 7 over -, +, 1..m, m <= 3, surjective or not;
    # test_cube_matches_the_word_scan compares the cells of cube(n), n <= 5
    for m in range(4):
        alphabet = [MINUS, PLUS] + list(range(1, m + 1))
        for n in range(8):
            words = product(alphabet, repeat=n)
            assert [w for w in words if cube_thin(w, m) != cube_thin_pairs(w, m)] == [], (m, n)


def _surjections(k, m):
    """Surj(k, m), the maps from a k-set onto an m-set, by inclusion-exclusion."""
    return sum((-1) ** i * comb(m, i) * (m - i) ** k for i in range(m + 1))


def test_cube_census_formula():
    # an m-cell puts integers on some k of the n positions, onto 1..m, and a sign on each other
    for n in range(7):
        X = cube(n)
        for m in range(n + 1):
            census = sum(comb(n, k) * 2 ** (n - k) * _surjections(k, m) for k in range(n + 1))
            assert len(X.cells_of_dim(m)) == census


def test_codes_are_the_cells_and_nothing_more():
    for n in range(7):
        X = cube(n)
        for m in range(n + 1):
            codes = _codes(n, m)
            assert sorted(map(Coords, codes)) == list(X.cells_of_dim(m))
            if n <= 5:
                alphabet = [MINUS, PLUS] + list(range(1, m + 1))
                scan = product(alphabet, repeat=n)
                words = [w for w in scan if is_integer_surjective(w, m)]
                assert [Coords(c).w for c in codes] == words
    # the word scan tests 446,963 words of length 6 to keep these
    assert sum(len(_codes(6, m)) for m in range(7)) == 18731


def test_cube_builds_its_face_tables_once_per_dimension_and_face(monkeypatch):
    """rho_precompose fills one table per (m, j), a letter at a time, never per cell."""
    calls = []

    def counted(v, alpha):
        calls.append(v)
        return rho_precompose(v, alpha)

    monkeypatch.setattr(shapes, "rho_precompose", counted)
    for n, expected in enumerate([2, 8, 20, 40, 70, 112, 168]):
        calls.clear()
        cube.__wrapped__(n)
        assert len(calls) == expected, n


def test_classify_examples():
    assert classify_cube_simplex((2, 1), 2) == "special"
    assert classify_cube_simplex((1, 2), 2) == "thin"
    assert classify_cube_simplex((1, PLUS), 1) == "special"
    assert classify_cube_simplex((1, 1), 1) == "plain"
    assert classify_cube_simplex((1, PLUS), 2) == "degenerate"


def test_classify_matches_the_reference_predicates():
    # degenerate unless integer surjective, then special for an order reversing
    # partial bijection, thin by the pairwise test, plain otherwise
    def rule(w, m):
        if not is_integer_surjective(w, m):
            return "degenerate"
        if is_partial_bijection(w, m) and is_order_reversing(w):
            return "special"
        return "thin" if cube_thin_pairs(w, m) else "plain"

    for m in range(6):
        alphabet = [MINUS, PLUS] + list(range(1, m + 1))
        for n in range(6):
            for w in product(alphabet, repeat=n):
                assert classify_cube_simplex(w, m) == rule(w, m), (w, m)


def test_classify_refuses_an_integer_outside_1_to_m():
    for w, m in [((1, 2), 1), ((0, PLUS), 1), ((3,), 2), ((1,), 0)]:
        with pytest.raises(OutOfRange, match="is not a word in"):
            classify_cube_simplex(w, m)


def test_classify_degenerate_matches_brute_force():
    # degeneracy is a common flat spot of the coordinate operators
    for n in range(1, 4):
        for m in range(4):
            alphabet = [MINUS, PLUS] + list(range(1, m + 1))
            for w in product(alphabet, repeat=n):
                ops = [rho_operator(v, m) for v in w]
                flat_somewhere = any(
                    all(op.values[t] == op.values[t + 1] for op in ops)
                    for t in range(m)
                )
                got = classify_cube_simplex(w, m)
                assert (got == "degenerate") == flat_somewhere


def test_vertex_chain_round_trip():
    X = cube(3)
    for cell in X.cells():
        chain = vertex_chain(cell.w, X.dims[cell])
        text = "<".join("(" + ",".join(map(str, v)) + ")" for v in chain)
        assert parse_vertex_chain(text) == cell


def test_c_map_sends_special_to_identity():
    cm = c_map(2)
    img = cm.assignment[Coords((2, 1))]
    assert img.cell == (0, 1, 2) and img.word == ()


def test_c_map_sends_thin_cell_to_degenerate():
    cm = c_map(2)
    img = cm.assignment[Coords((1, 2))]
    assert img.word  # vertex path 0,0,2 is degenerate
    assert img.cell == (0, 2)


def test_c_map_vertices():
    for n in (1, 2, 3):
        cm = c_map(n)
        assert cm.assignment[Coords((PLUS,) * n)].cell == (n,)
        assert cm.assignment[Coords((MINUS,) * n)].cell == (0,)


def test_comparison_operator_matches_the_rho_formulation():
    # words run past n, as the arrows crossing n that yoneda_composite passes do
    checked = longer = 0
    for m in range(4):
        alphabet = [MINUS, PLUS] + list(range(1, m + 1))
        for length in range(5):
            for w in product(alphabet, repeat=length):
                for lower in range(3):
                    for n in range(lower, lower + length + 1):
                        op = comparison_operator(w, lower, n, m)
                        assert (op.n, op.m) == (m, n)
                        assert op.values == comparison_values(w, lower, n, m), (w, lower, n)
                        checked += 1
                        longer += length > n - lower
    assert checked > 10_000 and longer > checked // 2


def test_c_map_stratified_up_to_four():
    for n in range(5):
        assert c_map(n).validate() == []


def test_big_C_examples():
    C23 = big_C(3, 2)
    w2 = special_w(3, 2)
    assert str(w2) == "2,+,1"
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
        for cell in C.thin - base.thin:
            assert is_partial_bijection(cell.w, C.dims[cell])
            assert is_order_reversing(cell.w)


def test_special_w_values():
    assert special_top(2).w == (2, 1)
    assert special_w(3, 2).w == (2, PLUS, 1)
    assert special_w(2, 1).w == (PLUS, 1)


def test_special_w_out_of_range():
    with pytest.raises(OutOfRange):
        special_w(2, 3)


def test_a_cube_cell_reads_back_its_coordinates():
    """A cell is its spelling alone: Coords(w) spells w and w reads it back, and
    cube() and the homs (hom_set(r, s) is hom_set(0, s - r)) spell as Coords(w)."""
    for w in [(), (MINUS,), (10, PLUS, 12, MINUS, 1)]:
        assert Coords(w) == ",".join(map(str, w)) and Coords(w).w == w, w
    cells = [c for n in range(6) for c in cube(n).dims]
    cells += [c for s in range(6) for c in hom_set(0, s).dims]
    for cell in cells:
        w = cell.w
        assert Coords(w) == cell and Coords(w).w == w, cell
        assert all(v in (MINUS, PLUS) or type(v) is int for v in w), cell
    assert all(c.w[-1] == MINUS for s in range(1, 6) for c in hom_set(0, s).dims)


def test_a_cube_cell_holds_no_instance_dict():
    assert not any(hasattr(c, "__dict__") for c in cube(4).dims)


def test_a_cube_cell_is_small():
    """cube(5) built afresh holds under 500 bytes per cell (over 800 when a cell
    carried a dict and a second copy of its coordinates)."""
    tracemalloc.start()
    try:
        X = cube.__wrapped__(5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / len(X.dims) < 500


def test_cube_normal_form_refuses_an_integer_above_q():
    for w, q in [((1, 2), 1), ((3, MINUS), 2), ((1, PLUS, 4), 3), ((1,), 0)]:
        with pytest.raises(OutOfRange, match="is not a word in"):
            cube_normal_form(w, q)
    assert cube_normal_form((1, PLUS, 1), 2) == ((1, PLUS, 1), (1,))


def test_cube_thin_refuses_an_integer_outside_1_to_m():
    for w, m in [((1, 5), 2), ((0, 1), 1), ((-3, 1), 1), ((1, "x"), 1), ("15", 2), ("1,2", 2)]:
        with pytest.raises(OutOfRange, match="is not a word in"):
            cube_thin(w, m)
    assert cube_thin((1, 2), 2) and cube_thin("12", 2) and not cube_thin("2-1", 2)
