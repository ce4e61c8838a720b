import random
import re

import pytest
from hypothesis import given, strategies as st

from complicial.errors import Mismatch, NonMonotone, OutOfRange
from complicial.operators import (
    MINUS,
    PLUS,
    Operator,
    admissible_vertices,
    all_injections,
    all_operators,
    compose_ops,
    delta,
    elementary,
    ez_factorize,
    make_operator,
    rho_operator,
    rho_precompose,
    sigma,
    surjection_words,
    word_operator,
)
from reference import identity, recompose


def test_make_operator_identity():
    assert make_operator(1, 1, [0, 1]) == identity(1)


def test_make_operator_elementary_face():
    assert make_operator(1, 2, [0, 2]) == delta(2, 1)


def test_make_operator_rejects_decreasing():
    with pytest.raises(NonMonotone):
        make_operator(1, 1, [1, 0])


def test_make_operator_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        make_operator(1, 1, [0, 2])


def test_compose_section_of_degeneracy():
    assert compose_ops(sigma(0, 0), delta(1, 0)) == identity(0)


def test_compose_faces_give_vertex():
    assert compose_ops(delta(2, 2), delta(1, 0)) == Operator(0, 2, (1,))


def test_compose_eta_epsilon():
    # the unique map [2] -> [0] after the vertex 1 of [2]
    assert compose_ops(Operator(2, 0, (0, 0, 0)), Operator(0, 2, (1,))) == identity(0)


def test_compose_mismatch():
    message = "cannot compose Op[1]->[2][1, 2] after Op[2]->[3][1, 2, 3]"
    with pytest.raises(Mismatch, match=re.escape(message)):
        compose_ops(delta(2, 0), delta(3, 0))


def test_elementary_values():
    assert elementary("delta", 2, 1).values == (0, 2)
    assert elementary("sigma", 1, 0).values == (0, 0, 1)
    with pytest.raises(OutOfRange, match="unknown elementary kind 'eta'"):
        elementary("eta", 3, 0)


def test_elementary_out_of_range():
    with pytest.raises(OutOfRange):
        elementary("delta", 2, 3)


def test_make_operator_refuses_a_wrong_length_or_ordinal():
    # negative controls: n + 1 values, over ordinals no smaller than [-1]
    for n, m, values in ((1, 2, (0,)), (1, 2, (0, 1, 2)), (-2, 0, ())):
        with pytest.raises(OutOfRange) as exc:
            make_operator(n, m, values)
        assert str(exc.value) == f"bad ordinals/length for ({n},{m},{values})"


def test_sigma_and_rho_refuse_an_index_out_of_range():
    for j in (-1, 3):
        with pytest.raises(OutOfRange, match=re.escape(f"sigma index {j} not in [2]")):
            sigma(2, j)
    for v, r in ((0, 2), (3, 2), (1, 0)):
        with pytest.raises(OutOfRange, match=re.escape(f"step index {v} not in 1..{r}")):
            rho_operator(v, r)


def test_ez_identity():
    assert ez_factorize(identity(3)) == ((), ())


def test_ez_constant_zero_on_one():
    op = make_operator(1, 1, [0, 0])
    faces, degens = ez_factorize(op)
    assert faces == (1,) and degens == (0,)
    assert recompose(1, 1, faces, degens) == op


def test_ez_two_faces():
    # delta_2 . delta_0 is the vertex operator picking 1; its normal word
    # applies the missed values in increasing order
    op = compose_ops(delta(2, 2), delta(1, 0))
    faces, degens = ez_factorize(op)
    assert faces == (0, 2) and degens == ()
    assert recompose(0, 2, faces, degens) == op


def test_ez_round_trip_exhaustive():
    for n in range(-1, 5):
        for m in range(5):
            for op in all_operators(n, m):
                faces, degens = ez_factorize(op)
                assert recompose(n, m, faces, degens) == op
                assert list(faces) == sorted(faces)
                assert list(degens) == sorted(degens, reverse=True)


def test_word_operator_closed_form_matches_composite():
    for q in range(7):
        for d in range(q + 1):
            for w in surjection_words(q, d):
                assert word_operator(q, w) == recompose(q, d, (), w)
                assert ez_factorize(word_operator(q, w)) == ((), w)


def test_associativity_exhaustive_small():
    for a in range(-1, 3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    for f in all_operators(a, b):
                        for g in all_operators(b, c):
                            for h in all_operators(c, d):
                                assert compose_ops(compose_ops(h, g), f) == compose_ops(
                                    h, compose_ops(g, f)
                                )


def test_associativity_randomized_larger():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c, d = (rng.randrange(6) for _ in range(4))
        f = rng.choice(list(all_operators(a, b)))
        g = rng.choice(list(all_operators(b, c)))
        h = rng.choice(list(all_operators(c, d)))
        assert compose_ops(compose_ops(h, g), f) == compose_ops(h, compose_ops(g, f))


@given(st.integers(0, 4), st.integers(0, 4))
def test_identities_neutral(n, m):
    for op in all_operators(n, m):
        assert compose_ops(op, identity(n)) == op
        assert compose_ops(identity(m), op) == op


def test_rho_constant_plus():
    for m in range(4):
        for op in all_operators(m, 3):
            assert rho_precompose(PLUS, op) == PLUS
            assert rho_precompose(MINUS, op) == MINUS


def test_rho_face_misses_top():
    assert rho_precompose(2, delta(2, 2)) == MINUS


def test_rho_face_hits_immediately():
    assert rho_precompose(2, delta(2, 0)) == 1


def test_rho_agrees_with_pointwise_composition():
    for m in range(6):
        for mp in range(6):
            for op in all_operators(mp, m):
                for v in [MINUS, PLUS] + list(range(1, m + 1)):
                    expected = compose_ops(rho_operator(v, m), op)
                    got = rho_operator(rho_precompose(v, op), mp)
                    assert expected == got


def test_admissible_identity():
    for n in range(1, 5):
        for k in range(n + 1):
            assert admissible_vertices(n, k) <= set(identity(n).values)


def test_admissible_examples():
    assert not admissible_vertices(3, 2) <= set(delta(3, 1).values)
    assert admissible_vertices(3, 2) <= set(delta(3, 0).values)


def test_admissible_monotone_in_image():
    # enlarging the image never flips admissibility off
    n = 4
    for k in range(n + 1):
        for m in range(n):
            for alpha in all_injections(m, n):
                if not admissible_vertices(alpha.m, k) <= set(alpha.values):
                    continue
                for extra in range(n + 1):
                    if extra in alpha.values:
                        continue
                    bigger = Operator(
                        m + 1, n, tuple(sorted(alpha.values + (extra,)))
                    )
                    assert admissible_vertices(bigger.m, k) <= set(bigger.values)


def test_word_operator_refuses_a_word_that_is_not_a_degeneracy_word():
    for q, word in [(2, (0, 0)), (2, (5,)), (2, (0, 1)), (2, (2,)), (3, (-1,)), (1, (0, 0))]:
        with pytest.raises(OutOfRange, match="is not a degeneracy word"):
            word_operator(q, word)
    assert word_operator(2, (1, 0)) == Operator(2, 0, (0, 0, 0))
    assert word_operator(0, ()) == Operator(0, 0, (0,))


def test_rho_precompose_refuses_a_coordinate_that_is_not_one():
    for v, alpha in [("x", delta(1, 0)), (0, delta(1, 0)), (2, delta(1, 1)), (None, sigma(1, 0))]:
        with pytest.raises(OutOfRange, match="step index"):
            rho_precompose(v, alpha)
    assert rho_precompose(MINUS, delta(1, 0)) == MINUS
