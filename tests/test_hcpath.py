import random
import re
from itertools import product

import pytest

from complicial import suite
from complicial.errors import BadInterval, OutOfRange
from complicial.operators import (
    MINUS,
    PLUS,
    Operator,
    all_operators,
    compose_ops,
    delta,
    ez_factorize,
    rho_operator,
    sigma,
)
from complicial.hcpath import generators, hc_horn_member, hom_action, hom_set, path_act, split
from complicial.shapes import Coords, big_H, cube, cube_normal_form, special_top
from reference import (
    arrow_is_degenerate,
    arrow_thin,
    identity_arrow,
    indecomposable,
    split_at_zeros,
)

# An arrow here is the triple (r, w, m) of reference.py: composition is
# concatenation of the coordinates, the action keeps m.


def act(alpha, a):
    r, w, m = a
    return (*path_act(alpha, r, w), m)


def all_arrows(n, max_dim=3):
    out = []
    for r in range(n + 1):
        for s in range(r, n + 1):
            H = hom_set(r, s)
            for cid in H.cells():
                if H.dims[cid] <= max_dim:
                    out.append((r, cid.w, H.dims[cid]))
    return out


def test_hom_set_points():
    assert hom_set(0, 0).count_nondegenerate() == {0: 1}
    assert hom_set(0, 1).count_nondegenerate() == {0: 1}


def test_hom_set_is_cube_one_down():
    H = hom_set(0, 3)
    assert H.count_nondegenerate() == cube(2).count_nondegenerate()
    assert sum(H.count_nondegenerate().values()) == 11
    assert H.validate() == []


def test_hom_set_is_one_set_per_length():
    for s in range(6):
        for r in range(s + 1):
            assert hom_set(r, s) is hom_set(r + 1, s + 1), (r, s)


def test_hom_set_bad_interval():
    with pytest.raises(BadInterval):
        hom_set(2, 1)


def test_hom_cells_span_their_interval_and_end_in_minus():
    for s in range(1, 7):
        for r in range(s):
            for cell in hom_set(r, s).cells():
                assert len(cell.w) == s - r and cell.w[-1] == MINUS, (r, s, cell)


def test_path_act_keeps_span_and_top_minus():
    # every operator into [4], on every hom cell over its source
    for n in range(6):
        arrows = all_arrows(n, max_dim=4)
        for alpha in all_operators(n, 4):
            for r, w, _ in arrows:
                lo, out = path_act(alpha, r, w)
                assert lo == alpha(r) and len(out) == alpha(r + len(w)) - lo, (alpha, r, w)
                assert not out or out[-1] == MINUS, (alpha, r, w)


def test_compose_unit():
    _, w, _ = indecomposable(0, 2)
    assert w + identity_arrow(2)[1] == w
    assert identity_arrow(0)[1] + w == w


def test_compose_indecomposables():
    a = indecomposable(0, 1)
    b = indecomposable(1, 2)
    assert a[1] + b[1] == (MINUS, MINUS)


def test_compose_with_identity_dim_one():
    a = (1, MINUS)
    # the identity acts as a unit even at positive dimension
    assert a + identity_arrow(2, m=1)[1] == a
    c = a + (MINUS,)
    assert c == (1, MINUS, MINUS)
    assert hom_set(0, 3).dims[Coords(c)] == 1


def test_split_indecomposable():
    r, w, _ = indecomposable(0, 2)
    assert split_at_zeros(r, w) == [(r, w)]


def test_split_at_interior_zero():
    parts = split_at_zeros(0, (MINUS, PLUS, MINUS))
    assert parts == [indecomposable(0, 1)[:2], indecomposable(1, 3)[:2]]


def test_split_identity_empty():
    assert split_at_zeros(4, ()) == []


def test_split_round_trip_s4():
    for r, w, _ in all_arrows(4):
        parts = split_at_zeros(r, w)
        if not parts:
            continue
        assert parts[0][0] == r
        for (lo, p), (hi, _) in zip(parts, parts[1:]):
            assert lo + len(p) == hi
        assert tuple(v for _, p in parts for v in p) == w


def test_compose_preserves_thinness_s4():
    for a in all_arrows(4):
        for b in all_arrows(4):
            if a[0] + len(a[1]) != b[0] or a[2] != b[2] or not a[1] or not b[1]:
                continue
            c = (a[0], a[1] + b[1], a[2])
            if arrow_thin(a) or arrow_thin(b):
                assert arrow_thin(c)


def test_path_act_insertion():
    out = path_act(delta(3, 1), 0, (1, MINUS))
    assert out == (0, (PLUS, 1, MINUS))


def test_path_act_drop_rightmost():
    out = path_act(sigma(1, 0), 0, (1, MINUS))
    assert out == (0, (MINUS,))


def test_path_act_merge_minimum():
    out = path_act(sigma(2, 1), 0, (1, 2, MINUS))
    assert out == (0, (2, MINUS))


def test_path_act_out_of_range():
    with pytest.raises(OutOfRange):
        path_act(delta(3, 1), 1, (PLUS, 1, MINUS))


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
            assert act(compose_ops(beta, alpha), arrow) == act(beta, act(alpha, arrow))


def test_hom_action_is_path_act_on_every_arrow():
    # hom_action on a whole hom agrees with it on each arrow alone (path_act), for
    # every operator [n] -> [n2], n, n2 <= 4, on every cell of every hom over [n];
    # the homs hom(r, r) hold the identity arrow (), and some alpha has alpha(r) == alpha(s)
    checked = collapsed = 0
    for n in range(5):
        homs = [
            (r, s, [c.w for c in hom_set(r, s).cells()])
            for r in range(n + 1)
            for s in range(r, n + 1)
        ]
        for n2 in range(5):
            for alpha in all_operators(n, n2):
                for r, s, ws in homs:
                    lo, images = hom_action(alpha, r, s, ws)
                    assert [(lo, w) for w in images] == [path_act(alpha, r, w) for w in ws]
                    assert hom_action(alpha, r, s, []) == (lo, [])
                    checked += len(ws)
                    collapsed += r < s and alpha(r) == alpha(s)
    assert (checked, collapsed) == (22_814, 1_194)
    assert hom_action(sigma(1, 0), 0, 1, [(MINUS,), (MINUS,)]) == (0, [(), ()])
    assert hom_action(delta(3, 1), 2, 2, [()]) == (3, [()])
    # a hom not over [alpha.n] raises path_act's error
    message = re.escape("arrow (1,4] does not live over [2]")
    with pytest.raises(OutOfRange, match=message):
        path_act(delta(3, 1), 1, (PLUS, 1, MINUS))
    with pytest.raises(OutOfRange, match=message):
        hom_action(delta(3, 1), 1, 4, [(PLUS, 1, MINUS)])
    with pytest.raises(OutOfRange, match=message):
        hom_action(delta(3, 1), 1, 4, [])


def test_hom_action_refuses_an_arrow_of_the_wrong_length():
    # zipped columns would truncate the batch to its shortest arrow
    a = Operator(2, 2, (0, 1, 2))
    assert hom_action(a, 0, 2, [(1, MINUS)]) == (0, [(1, MINUS)])
    message = re.escape("an arrow of hom(0,2) has length 2")
    for ws in ([(1, MINUS), (MINUS,)], [(1, MINUS, 2, MINUS)], [(MINUS,), (1, MINUS)], [()]):
        with pytest.raises(OutOfRange, match=message):
            hom_action(a, 0, 2, ws)


def test_hom_action_refuses_a_wrong_length_where_alpha_collapses_the_hom():
    # alpha(r) = alpha(s) reads no column, so the lengths are checked on their own;
    # the first case once returned (0, [(), ()]), and each first arrow alone is fine
    cases = [
        (sigma(1, 0), 0, 1, [(MINUS,), (PLUS, 1, MINUS)]),
        (sigma(1, 0), 0, 1, [(MINUS,), ()]),
        (delta(3, 1), 2, 2, [(), (MINUS,)]),
    ]
    for alpha, r, s, ws in cases:
        message = re.escape(f"an arrow of hom({r},{s}) has length {s - r}")
        with pytest.raises(OutOfRange, match=message):
            hom_action(alpha, r, s, ws)
        assert hom_action(alpha, r, s, ws[:1]) == (alpha(r), [()])


def test_every_face_row_of_a_cube_or_hom_holds_cells():
    # every face of a nondegenerate cube cell is a cell, so the nerve reads the
    # face arrows of each generator off the stored rows
    for X in [cube(n) for n in range(7)] + [hom_set(0, k) for k in range(8)]:
        assert all(f.word == () for row in X.faces.values() for f in row)


def test_path_act_delta_image():
    # faces inject, with image exactly the arrows carrying a plus at the
    # new index
    n = 3
    for k in range(n + 1):
        seen = {}
        for arrow in all_arrows(n - 1):
            out = act(delta(n, k), arrow)
            assert out not in seen or seen[out] == arrow
            seen[out] = arrow
            r, w, _ = arrow
            if r < k <= r + len(w):
                assert out[1][k - out[0] - 1] == PLUS
        for r in range(n):
            for s in range(r + 1, n):
                if not r < k <= s + 1:
                    continue
                image = {
                    out
                    for out in seen
                    if (out[0], len(out[1])) == (r, s + 1 - r) and seen[out][0] == r
                }
                H = hom_set(r, s + 1)
                expected = {
                    (r, cid.w, H.dims[cid])
                    for cid in H.cells()
                    if cid.w[k - r - 1] == PLUS and H.dims[cid] <= 3
                }
                assert image == expected


def test_hc_horn_short_homs_always_member():
    for r, w, _ in all_arrows(3):
        if not (r == 0 and len(w) == 3):
            assert hc_horn_member(3, 1, r, w)


def test_hc_horn_examples():
    assert not hc_horn_member(3, 1, 0, (1, 2, MINUS))
    assert hc_horn_member(3, 1, 0, (1, PLUS, MINUS))


def test_hc_horn_long_hom_is_big_H():
    # the coherent horn differs from the n-path only in hom(0, n), the cube
    # cube(n - 1) with a top minus, and there it is the subset H^k_{n-1}
    for n in range(3, 6):
        for k in range(1, n):
            H = big_H(n - 1, k)
            for c in cube(n - 1).cells():
                assert hc_horn_member(n, k, 0, c.w + (MINUS,)) == (c in H.members), (n, k, c)


def test_hc_horn_out_of_range():
    with pytest.raises(OutOfRange):
        hc_horn_member(3, 0, *identity_arrow(0)[:2])


def test_normal_form_round_trip():
    for r, w, m in all_arrows(3, max_dim=2):
        core, word = cube_normal_form(w, m)
        assert len(core) == len(w)
        assert not arrow_is_degenerate((r, core, m - len(word)))


def test_top_special_is_unique_non_thin_top():
    # the order reversing bijection below the top minus, for every length
    for n in range(1, 6):
        H = hom_set(0, n)
        tops = [c for c in H.cells_of_dim(n - 1) if c not in H.thin]
        assert [c.w for c in tops] == [special_top(n - 1).w + (MINUS,)]


def test_indecomposability():
    # the generators of the coherent path are the hom cells with one factor
    assert len(split_at_zeros(*indecomposable(1, 4)[:2])) == 1
    assert len(split_at_zeros(0, (MINUS, MINUS))) == 2
    for n in range(1, 5):
        gens = {(r, s, cell) for r, s, cell, _ in generators(n)}
        one_factor = {
            (r, s, cell)
            for r in range(n + 1)
            for s in range(r + 1, n + 1)
            for cell in hom_set(r, s).cells()
            if len(split_at_zeros(r, cell.w)) == 1
        }
        assert gens == one_factor


def test_compose_associative():
    a, b, c = (1, MINUS), (MINUS,), (PLUS, MINUS)
    assert (a + b) + c == a + (b + c) == (1, MINUS, MINUS, PLUS, MINUS)


# -- the closed-form action against the elementary replay --------------------


def _pointwise_min(u, v, m):
    """Minimum of two coordinates as maps [m] -> [1], read back as a coordinate."""
    vals = [min(x, y) for x, y in zip(rho_operator(u, m).values, rho_operator(v, m).values)]
    if 1 not in vals:
        return MINUS
    return PLUS if vals[0] == 1 else vals.index(1)


def _replay_act(alpha, a):
    """The action as it used to be computed: the EZ factorization of alpha, one
    elementary degeneracy and then one elementary face at a time."""
    faces, degens = ez_factorize(alpha)
    r, w, m = a
    s = r + len(w)
    for k in degens:
        if s <= k:
            continue
        if k < r:
            r, s = r - 1, s - 1
        elif k == r:  # drop the lowest ordinate
            s, w = s - 1, w[1:]
        else:  # merge ordinates k and k+1
            cut = k - r - 1
            w = w[:cut] + (_pointwise_min(w[cut], w[cut + 1], m),) + w[cut + 2 :]
            s -= 1
    for k in faces:
        if s < k:
            continue
        if k <= r:
            r, s = r + 1, s + 1
        else:  # insert the constant-1 coordinate at position k
            cut = k - r - 1
            s, w = s + 1, w[:cut] + (PLUS,) + w[cut:]
    return (r, w, m)


def every_arrow(n, max_dim=3):
    """Every arrow over [n] up to max_dim, degenerate ones included."""
    for m in range(max_dim + 1):
        alphabet = [MINUS, PLUS] + list(range(1, m + 1))
        for r in range(n + 1):
            yield identity_arrow(r, m)
            for s in range(r + 1, n + 1):
                for w in product(alphabet, repeat=s - r - 1):
                    yield (r, w + (MINUS,), m)


def _replay_cases():
    """(alpha, arrow) for every operator [n] -> [n2], n, n2 <= 4, and every arrow over [n]."""
    for n in range(5):
        arrows = list(every_arrow(n))
        for n2 in range(5):
            for alpha in all_operators(n, n2):
                for a in arrows:
                    yield alpha, a


def test_path_act_equals_elementary_replay():
    checked = 0
    for alpha, a in _replay_cases():
        assert act(alpha, a) == _replay_act(alpha, a), (alpha, a)
        checked += 1
    assert checked > 100_000


# -- negative controls: wrong fiberwise actions ---------------------------------


def _minimum(u, v):
    if MINUS in (u, v):
        return MINUS
    if u == PLUS:
        return v
    if v == PLUS:
        return u
    return max(u, v)


def _plus_absorbs(u, v):
    if PLUS in (u, v):
        return PLUS
    if u == MINUS:
        return v
    if v == MINUS:
        return u
    return max(u, v)


def _smaller_integer_wins(u, v):
    if MINUS in (u, v):
        return MINUS
    if u == PLUS:
        return v
    if v == PLUS:
        return u
    return min(u, v)


def _mutant(merge, drop=True):
    """path_act with merge in place of the minimum; with drop False the positions
    alpha sends to alpha(r) merge into the first coordinate instead of dropping out."""

    def action(alpha, r, w):
        lo = alpha.values[r]
        out = [PLUS] * (alpha.values[r + len(w)] - lo)
        for t, v in zip(alpha.values[r + 1 : r + len(w) + 1], w):
            t -= lo + 1
            if t < 0 and not drop and out:
                t = 0
            if t >= 0:
                out[t] = merge(out[t], v)
        return lo, tuple(out)

    return action


def test_the_mutant_frame_with_the_minimum_is_path_act():
    for alpha, (r, w, _) in _replay_cases():
        assert _mutant(_minimum)(alpha, r, w) == path_act(alpha, r, w), (alpha, r, w)


@pytest.mark.parametrize(
    "wrong, failures",
    [
        (_mutant(lambda u, v: v), 264),
        (_mutant(_minimum, drop=False), 926),
    ],
    ids=["last-coordinate-wins", "alpha-r-merges-into-the-first"],
)
def test_functoriality_sample_reports_a_wrong_fiberwise_action(monkeypatch, wrong, failures):
    def wrong_on_hom(alpha, r, s, ws):
        return alpha.values[r], [wrong(alpha, r, w)[1] for w in ws]

    monkeypatch.setattr(suite, "hom_action", wrong_on_hom)
    assert suite.functoriality_sample(0) == failures


def test_functoriality_sample_checks_every_arrow_of_its_pairs(monkeypatch):
    # per pair and hom: alpha on the hom's arrows, beta on their images, beta alpha
    # on the arrows; alpha's arguments over the 200 pairs are 17,021 arrows
    pairs, calls = [], []

    def composing(beta, alpha):
        pairs.append((alpha, beta, compose_ops(beta, alpha)))
        return pairs[-1][2]

    def acting(alpha, r, s, ws):
        calls.append((len(pairs), alpha, ws, hom_action(alpha, r, s, ws)))
        return calls[-1][3]

    monkeypatch.setattr(suite, "compose_ops", composing)
    monkeypatch.setattr(suite, "hom_action", acting)
    assert suite.functoriality_sample(0) == 0
    assert len(pairs) == 200 and len(calls) % 3 == 0
    for first, second, third in zip(calls[0::3], calls[1::3], calls[2::3]):
        alpha, beta, comp = pairs[first[0] - 1]
        assert first[0] == second[0] == third[0]
        assert (first[1], second[1], third[1]) == (alpha, beta, comp)
        assert second[2] is first[3][1] and third[2] is first[2]
    assert sum(len(first[2]) for first in calls[0::3]) == 17_021


@pytest.mark.parametrize(
    "merge",
    [_plus_absorbs, _smaller_integer_wins, lambda u, v: v if u == PLUS else u],
    ids=["plus-absorbs", "smaller-integer-wins", "first-coordinate-wins"],
)
def test_elementary_replay_rejects_the_merges_the_sample_misses(merge):
    # functoriality_sample(0) reports no failure for any of these associative
    # merges; the replay pins the minimum rule instead
    wrong = _mutant(merge)
    cases = _replay_cases()
    assert any((*wrong(alpha, a[0], a[1]), a[2]) != _replay_act(alpha, a) for alpha, a in cases)


def test_path_act_sends_generators_to_indecomposable_arrows():
    # so nerve_act reads generator images alone and never composes
    for n in range(5):
        for r, s, cell, _ in generators(n):
            for n2 in range(5):
                for alpha in all_operators(n, n2):
                    _, w = path_act(alpha, r, cell.w)
                    assert MINUS not in w[:-1], (alpha, r, cell)


def test_path_act_sends_thin_cells_to_thin_or_degenerate_arrows():
    # so nerve_act, which checks no stratification, keeps nerve simplices
    # stratified
    for n in range(5):
        thin = [
            (r, cid.w, hom_set(r, s).dims[cid])
            for r in range(n + 1)
            for s in range(r + 1, n + 1)
            for cid in sorted(hom_set(r, s).thin)
        ]
        for n2 in range(5):
            for alpha in all_operators(n, n2):
                for a in thin:
                    b = act(alpha, a)
                    assert arrow_thin(b) or arrow_is_degenerate(b), (alpha, a)


def test_split_refuses_an_integer_above_the_dimension():
    with pytest.raises(OutOfRange, match="is not a word in"):
        split((1, 2, MINUS), 1)
    with pytest.raises(OutOfRange, match="is not a word in"):
        split((1, MINUS, 3, MINUS), 2)
    assert split((1, 2, MINUS), 2) == (0, (1, 2, MINUS), ())
