import pytest

from complicial.anodyne import rlp_report
from complicial.errors import IllFormedCategory, IllFormedFunctor, LawViolation
from complicial.enriched import (
    EnrichedFunctor,
    FiniteCategory,
    cyclic_group_category,
    degenerate_word,
    from_category,
    make_enriched,
    one_object_group_enriched,
    point_set,
    suspension,
    validate_gray,
    local_fibration_check,
    walking_arrow,
    walking_iso,
)
from complicial.shapes import complicial, horn, standard
from complicial.stratified import (
    Simplex,
    StratifiedMap,
    empty_set,
)


def identity_functor(E):
    return EnrichedFunctor(
        E,
        E,
        {o: o for o in E.objects},
        {
            key: StratifiedMap(h, h, {c: Simplex(c) for c in h.cells()})
            for key, h in E.homs.items()
        },
    )


def test_suspension_of_empty_set():
    # two isolated objects: all homs besides the identities are empty
    E = suspension(empty_set())
    assert not E.hom("0", "1").dims
    assert not E.hom("1", "0").dims


def test_group_enrichment_valid():
    E = one_object_group_enriched(2, 3)
    hom = E.hom("*", "*")
    assert hom.count_nondegenerate() == {0: 1, 1: 1, 2: 1, 3: 1}
    # group multiplication composes simplices pointwise
    g = Simplex("*:g1")
    assert E.compose("*", "*", "*", g, g) == Simplex("*:", (0,))


def test_tampered_composition_rejected():
    E = one_object_group_enriched(2, 2)
    cmap = E.comp[("*", "*", "*")]
    tampered = dict(cmap.assignment)
    # swap the images of two 1-dimensional product cells
    keys = [c for c in cmap.source.cells() if cmap.source.dims[c] == 1]
    a, b = keys[0], keys[1]
    tampered[a], tampered[b] = tampered[b], tampered[a]
    with pytest.raises(LawViolation):
        make_enriched(
            E.objects,
            E.homs,
            E.identities,
            {("*", "*", "*"): StratifiedMap(cmap.source, cmap.target, tampered)},
            E.dim_cap,
        )


def test_suspension_of_point_is_walking_arrow():
    E = suspension(point_set())
    assert E.hom("0", "1").count_nondegenerate() == {0: 1}
    assert not E.hom("1", "0").dims


def test_suspension_of_standard():
    E = suspension(standard(2))
    assert E.hom("0", "1").count_nondegenerate() == {0: 3, 1: 3, 2: 1}
    assert E.hom("0", "0").count_nondegenerate() == {0: 1}


def test_from_category_terminal():
    cat = FiniteCategory(("x",), {"i": ("x", "x")}, {"x": "i"}, {("i", "i"): "i"})
    N = from_category(cat, 3)
    assert N.count_nondegenerate() == {0: 1}


def test_from_category_walking_arrow():
    N = from_category(walking_arrow(), 3)
    assert N.count_nondegenerate() == {0: 2, 1: 1}
    assert not N.thin  # the arrow is not invertible


def test_from_category_walking_iso():
    N = from_category(walking_iso(), 4)
    assert N.count_nondegenerate() == {0: 2, 1: 2, 2: 2, 3: 2, 4: 2}
    assert all(c in N.thin for c in N.cells() if N.dims[c] >= 1)
    assert N.validate() == []


def test_from_category_rejects_bad_table():
    cat = FiniteCategory(
        ("x",), {"i": ("x", "x"), "f": ("x", "x")}, {"x": "i"},
        {("i", "i"): "i", ("f", "i"): "f", ("i", "f"): "f", ("f", "f"): "i"},
    )
    from_category(cat, 2)  # the walking involution is fine
    broken = FiniteCategory(
        ("x",), {"i": ("x", "x"), "f": ("x", "x")}, {"x": "i"},
        {("i", "i"): "i", ("f", "i"): "f", ("i", "f"): "f"},
    )
    with pytest.raises(IllFormedCategory):
        from_category(broken, 2)


def test_validate_gray_examples():
    assert validate_gray(suspension(from_category(walking_iso(), 3)), 3)["pass"]
    assert validate_gray(suspension(standard(1)), 3)["pass"]
    report = validate_gray(suspension(standard(2)), 2)
    assert not report["pass"]
    failing = report["homs"][("0", "1")]
    assert any(f["instance"] == "horn[2,1]" for f in failing.failures)


def test_validate_gray_sets_flag():
    E = suspension(standard(1))
    assert not E.gray_validated
    validate_gray(E, 2)
    assert E.gray_validated


def test_local_fibration_identity_passes():
    E = suspension(from_category(walking_iso(), 3))
    rep = local_fibration_check(identity_functor(E), 2)
    assert rep["pass"]


def to_suspended_point(E):
    """The functor from a suspension onto the suspension of the point."""
    T = suspension(point_set())
    hom_maps = {
        key: StratifiedMap(
            h, T.homs[key], {c: Simplex("*", degenerate_word(h.dims[c])) for c in h.cells()}
        )
        for key, h in E.homs.items()
    }
    return EnrichedFunctor(E, T, {"0": "0", "1": "1"}, hom_maps)


def test_local_fibration_to_terminal_passes():
    E = suspension(from_category(walking_iso(), 3))
    rep = local_fibration_check(to_suspended_point(E), 2)
    assert rep["pass"]


def test_local_fibration_catches_nonfibrant_corner():
    rep = local_fibration_check(to_suspended_point(suspension(standard(2))), 2)
    assert not rep["pass"]
    assert any(f["instance"] == "horn[2,1]" for f in rep["failures"])


@pytest.mark.parametrize(
    "X",
    [
        standard(2),
        horn(2, 1),
        complicial(2, 1),
        standard(3),
        horn(3, 1),
        from_category(walking_iso(), 2),
    ],
    ids=["delta2", "horn2-1", "complicial2-1", "delta3", "horn3-1", "iso-cap2"],
)
def test_relative_check_over_the_point_is_rlp_report(X):
    # the absolute lifting property is the relative one over the terminal set
    rep = rlp_report(X, X.dim_cap, "all")
    rel = local_fibration_check(to_suspended_point(suspension(X)), X.dim_cap)
    assert [f["instance"] for f in rel["failures"]] == [f["instance"] for f in rep.failures]
    assert {f["hom"] for f in rel["failures"]} <= {("0", "1")}
    assert rel["checked"] == sum(n for _, n in rep.checked)


def test_ill_formed_functor_raises():
    E = suspension(standard(1))
    F = EnrichedFunctor(E, E, {o: o for o in E.objects}, {})
    with pytest.raises(IllFormedFunctor):
        local_fibration_check(F, 1)


def test_cyclic_group_category_is_groupoid():
    cat = cyclic_group_category(3)
    cat.validate()
    assert all(cat.is_invertible(a) for a in cat.arrows)


def test_suspension_gray_iff_hom_passes():
    for X in (standard(1), standard(2), from_category(walking_iso(), 3)):
        E = suspension(X)
        hom_ok = rlp_report(X, min(2, X.dim_cap), mode="all").ok
        assert validate_gray(E, 2)["pass"] == hom_ok


def test_gray_validated_comp_sends_thin_pairs_to_thin():
    E = one_object_group_enriched(2, 3)
    validate_gray(E, 2)
    assert E.gray_validated
    cmap = E.comp[("*", "*", "*")]
    P = cmap.source
    for c in P.cells():
        if c in P.thin:
            assert cmap.target.is_thin(cmap.assignment[c])


def test_terminal_enriched():
    from complicial.enriched import terminal_enriched

    E = terminal_enriched()
    assert E.hom("*", "*").count_nondegenerate() == {0: 1}
