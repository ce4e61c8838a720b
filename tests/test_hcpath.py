import random

import pytest

from complicial.errors import (
    BadInterval,
    DimensionMismatch,
    ObjectMismatch,
    OutOfRange,
)
from complicial.operators import MINUS, PLUS, all_operators, compose_ops, delta, sigma
from complicial.hcpath import (
    PathArrow,
    arrow_is_degenerate,
    arrow_normal_form,
    arrow_of_cell,
    arrow_thin,
    compose_path,
    hc_horn_member,
    hom_set,
    identity_arrow,
    indecomposable,
    is_indecomposable,
    path_act,
    split_at_zeros,
    top_special_arrow,
)
from complicial.shapes import cube


def all_arrows(n, max_dim=3):
    out = []
    for r in range(n + 1):
        for s in range(r, n + 1):
            H = hom_set(r, s)
            for cid in H.cells():
                if H.dims[cid] <= max_dim:
                    out.append(arrow_of_cell(r, s, cid))
    return out


def test_hom_set_points():
    assert hom_set(0, 0).count_nondegenerate() == {0: 1}
    assert hom_set(0, 1).count_nondegenerate() == {0: 1}


def test_hom_set_is_cube_one_down():
    H = hom_set(0, 3)
    assert H.count_nondegenerate() == cube(2).count_nondegenerate()
    assert sum(H.count_nondegenerate().values()) == 11
    assert H.validate() == []


def test_hom_set_bad_interval():
    with pytest.raises(BadInterval):
        hom_set(2, 1)


def test_compose_unit():
    a = indecomposable(0, 2)
    assert compose_path(identity_arrow(2), a) == a
    assert compose_path(a, identity_arrow(0)) == a


def test_compose_indecomposables():
    a = indecomposable(0, 1)
    b = indecomposable(1, 2)
    c = compose_path(b, a)
    assert c == PathArrow(0, 2, 0, (MINUS, MINUS))


def test_compose_with_identity_dim_one():
    b = identity_arrow(2, m=1)
    a = PathArrow(0, 2, 1, (1, MINUS))
    # the identity acts as a unit even at positive dimension
    assert compose_path(b, a) == a
    c = compose_path(PathArrow(2, 3, 1, (MINUS,)), a)
    assert c == PathArrow(0, 3, 1, (1, MINUS, MINUS))


def test_compose_mismatches():
    with pytest.raises(ObjectMismatch):
        compose_path(indecomposable(2, 3), indecomposable(0, 1))
    with pytest.raises(DimensionMismatch):
        compose_path(PathArrow(2, 3, 1, (MINUS,)), PathArrow(0, 2, 0, (PLUS, MINUS)))


def test_split_indecomposable():
    a = indecomposable(0, 2)
    assert split_at_zeros(a) == [a]


def test_split_at_interior_zero():
    a = PathArrow(0, 3, 0, (MINUS, PLUS, MINUS))
    parts = split_at_zeros(a)
    assert parts == [indecomposable(0, 1), indecomposable(1, 3)]


def test_split_identity_empty():
    assert split_at_zeros(identity_arrow(4)) == []


def test_split_round_trip_s4():
    for a in all_arrows(4):
        parts = split_at_zeros(a)
        if not parts:
            continue
        out = parts[0]
        for p in parts[1:]:
            out = compose_path(p, out)
        assert out == a


def test_compose_preserves_thinness_s4():
    for a in all_arrows(4):
        for b in all_arrows(4):
            if a.s != b.r or a.m != b.m or a.is_identity or b.is_identity:
                continue
            c = compose_path(b, a)
            if arrow_thin(a) or arrow_thin(b):
                assert arrow_thin(c)


def test_path_act_insertion():
    a = top_special_arrow(0, 2)
    assert a == PathArrow(0, 2, 1, (1, MINUS))
    out = path_act(delta(3, 1), a)
    assert out == PathArrow(0, 3, 1, (PLUS, 1, MINUS))


def test_path_act_drop_rightmost():
    a = PathArrow(0, 2, 1, (1, MINUS))
    out = path_act(sigma(1, 0), a)
    assert out == PathArrow(0, 1, 1, (MINUS,))


def test_path_act_merge_minimum():
    a = PathArrow(0, 3, 2, (1, 2, MINUS))
    out = path_act(sigma(2, 1), a)
    assert out == PathArrow(0, 2, 2, (2, MINUS))


def test_path_act_functoriality_sample():
    rng = random.Random(11)
    ops = {
        (a, b): list(all_operators(a, b)) for a in range(6) for b in range(6)
    }
    for _ in range(60):
        a, b, c = rng.randrange(6), rng.randrange(6), rng.randrange(6)
        alpha = rng.choice(ops[(a, b)])
        beta = rng.choice(ops[(b, c)])
        for arrow in all_arrows(a, max_dim=3):
            assert path_act(compose_ops(beta, alpha), arrow) == path_act(
                beta, path_act(alpha, arrow)
            )


def test_path_act_delta_image():
    # faces inject, with image exactly the arrows carrying a plus at the
    # new index
    n = 3
    for k in range(n + 1):
        seen = {}
        for arrow in all_arrows(n - 1):
            out = path_act(delta(n, k), arrow)
            assert out not in seen or seen[out] == arrow
            seen[out] = arrow
            if arrow.r < k <= arrow.s:
                assert out.value(k) == PLUS
        for r in range(n):
            for s in range(r + 1, n):
                if not r < k <= s + 1:
                    continue
                image = {
                    out
                    for out in seen
                    if (out.r, out.s) == (r, s + 1) and seen[out].r == r
                }
                expected = {
                    arrow_of_cell(r, s + 1, cid)
                    for cid in hom_set(r, s + 1).cells()
                    if arrow_of_cell(r, s + 1, cid).value(k) == PLUS
                    and hom_set(r, s + 1).dims[cid] <= 3
                }
                assert image == expected


def test_hc_horn_short_homs_always_member():
    for a in all_arrows(3):
        if not (a.r == 0 and a.s == 3):
            assert hc_horn_member(3, 1, a)


def test_hc_horn_examples():
    a = PathArrow(0, 3, 2, (1, 2, MINUS))
    assert not hc_horn_member(3, 1, a)
    b = PathArrow(0, 3, 1, (1, PLUS, MINUS))
    assert hc_horn_member(3, 1, b)


def test_hc_horn_out_of_range():
    with pytest.raises(OutOfRange):
        hc_horn_member(3, 0, identity_arrow(0))


def test_normal_form_round_trip():
    for a in all_arrows(3, max_dim=2):
        core, word = arrow_normal_form(a)
        assert not arrow_is_degenerate(core)
        assert core.m + len(word) == a.m


def test_top_special_is_unique_non_thin_top():
    H = hom_set(0, 4)
    tops = [c for c in H.cells_of_dim(3) if c not in H.thin]
    assert tops == [top_special_arrow(0, 4).cell_id()]


def test_indecomposability():
    assert is_indecomposable(indecomposable(1, 4))
    assert not is_indecomposable(PathArrow(0, 2, 0, (MINUS, MINUS)))


def test_arrow_json_round_trip():
    from complicial.hcpath import arrow_from_json, arrow_to_json

    for a in all_arrows(3):
        assert arrow_from_json(arrow_to_json(a)) == a


def test_compose_associative():
    a = PathArrow(0, 2, 1, (1, MINUS))
    b = PathArrow(2, 3, 1, (MINUS,))
    c = PathArrow(3, 5, 1, (PLUS, MINUS))
    assert compose_path(c, compose_path(b, a)) == compose_path(compose_path(c, b), a)
