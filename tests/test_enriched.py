import pytest

from complicial.anodyne import rlp_report
from complicial.errors import BadParams, CapExceeded, IllFormedCategory, LawViolation
from complicial.enriched import (
    EnrichedCategory,
    Path,
    _check_associativity,
    _check_units,
    FiniteCategory,
    cyclic_group_category,
    from_category,
    make_enriched,
    one_object_group_enriched,
    point_set,
    suspension,
    validate_gray,
    walking_arrow,
    walking_iso,
)
from complicial.nerve import build_nerve
from complicial.shapes import standard, standard_thin
from complicial.stratified import (
    FiniteStratifiedSet,
    Simplex,
    StratifiedMap,
    empty_set,
    gray_product,
    set_to_json,
)
from reference import (
    CountingCategory,
    EnrichedFunctor,
    _exhaustive_associativity,
    _exhaustive_units,
    terminal_enriched,
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
    g = Simplex(("*", ("g1",)))
    assert E.compose("*", "*", "*", g, g) == Simplex(("*", ()), (0,))
    assert [str(c) for c in hom.cells()] == ["*:", "*:g1", "*:g1|g1", "*:g1|g1|g1"]


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


def test_finite_category_validate_names_each_broken_law():
    # negative controls, one broken law each, from the walking arrow or a one-object
    # table with the unit e
    arrow = walking_arrow()
    parallel = arrow._replace(
        arrows={**arrow.arrows, "g": ("x", "y")},
        table={**arrow.table, ("g", "ix"): "g", ("iy", "f"): "g", ("iy", "g"): "g"},
    )
    # a unital table on e, a, b that is not associative: (a a) a = b a = a, a (a a) = a b = e
    products = {"ee": "e", "ea": "a", "eb": "b", "ae": "a", "be": "b"}
    products.update({"aa": "b", "ab": "e", "ba": "a", "bb": "e"})
    magma = FiniteCategory(
        ("*",),
        {u: ("*", "*") for u in "eab"},
        {"*": "e"},
        {tuple(gf): h for gf, h in products.items()},
    )
    stray = arrow._replace(arrows={**arrow.arrows, "h": ("x", "z")})
    cases = [
        (stray, "arrow h does not run between declared objects"),
        (arrow._replace(table={**arrow.table, ("f", "ix"): "iy"}), "composite f . ix ill-typed"),
        (parallel, "left unit fails at f"),
        (magma, "associativity fails"),
    ]
    for cat, message in cases:
        with pytest.raises(IllFormedCategory) as exc:
            cat.validate()
        assert str(exc.value) == message


def test_from_category_rejects_path_separators_in_names():
    # a nerve cell is its path (start, arrows), so names may hold the ':' and '|'
    # of its spelling start:arrow|arrow; only the writer refuses two cells spelled alike
    for obj, arrow in (("x:y", "i"), ("x", "i|i"), ("x", "a:b")):
        cat = FiniteCategory((obj,), {arrow: (obj, obj)}, {obj: arrow}, {(arrow, arrow): arrow})
        assert [c["id"] for c in set_to_json(from_category(cat, 2))["cells"]] == [f"{obj}:"]
    # the edge f|g and the 2-cell (f, g) are both spelled a:f|g
    arrows = {"ia": ("a", "a"), "ib": ("b", "b"), "ic": ("c", "c"),
              "f": ("a", "b"), "g": ("b", "c"), "f|g": ("a", "c")}
    identities = {o: f"i{o}" for o in "abc"}
    table = {("g", "f"): "f|g"}
    for x, (src, tgt) in arrows.items():
        table[(x, identities[src])] = table[(identities[tgt], x)] = x
    X = from_category(FiniteCategory(("a", "b", "c"), arrows, identities, table), 2)
    assert len(X.dims) == 7
    assert X.dims[("a", ("f|g",))] == 1 and X.dims[("a", ("f", "g"))] == 2
    with pytest.raises(BadParams, match=r"'a:f\|g'"):
        set_to_json(X)


def test_validate_gray_examples():
    assert validate_gray(suspension(from_category(walking_iso(), 3)), 3)["pass"]
    assert validate_gray(suspension(standard(1)), 3)["pass"]
    report = validate_gray(suspension(standard(2)), 2)
    assert not report["pass"]
    failing = report["homs"][("0", "1")]
    assert any(f["instance"] == "horn[2,1]" for f in failing.failures)


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
    assert validate_gray(E, 2)["pass"]
    cmap = E.comp[("*", "*", "*")]
    P = cmap.source
    for c in P.cells():
        if c in P.thin:
            assert cmap.target.is_thin(cmap.assignment[c])


def test_terminal_enriched():
    E = terminal_enriched()
    assert E.hom("*", "*").count_nondegenerate() == {0: 1}


# -- the law checks stop where a violation can first appear ---------------------


def _outcome(check, E):
    try:
        check(E)
    except LawViolation as exc:
        return str(exc)
    return None


def _corrupted_suspension():
    """The suspension of the 2-simplex, capped at 4, with the two unit maps sending
    the top 2-cell to different degeneracies of the edge 0.1."""
    X = standard(2)
    E = suspension(FiniteStratifiedSet(4, X.dims, X.faces))
    comp = dict(E.comp)
    for key, word in ((("0", "0", "1"), (0,)), (("0", "1", "1"), (1,))):
        cmap = comp[key]
        (top,) = cmap.source.cells_of_dim(2)
        assignment = dict(cmap.assignment)
        assignment[top] = Simplex((0, 1), word)
        comp[key] = StratifiedMap(cmap.source, cmap.target, assignment)
    return EnrichedCategory(E.objects, E.homs, E.identities, comp, E.dim_cap)


def _swapped_group(cap: int):
    """The cyclic group of order 3 enriched at cap, with the images of the first
    two cap-cells of the composition map's source swapped."""
    E = one_object_group_enriched(3, cap)
    cmap = E.comp[("*", "*", "*")]
    x, y = list(cmap.source.cells_of_dim(cap))[:2]
    assignment = dict(cmap.assignment)
    assignment[x], assignment[y] = assignment[y], assignment[x]
    comp = {("*", "*", "*"): StratifiedMap(cmap.source, cmap.target, assignment)}
    return EnrichedCategory(E.objects, E.homs, E.identities, comp, E.dim_cap)


def _non_associative_group():
    """The arguments of make_enriched for one object whose hom is the nerve of Z/3
    capped at 1, composed by a stratified map that is not associative: g1 g1 = g1,
    g2 g2 = g2, and g1 g2 = g2 g1 is the degenerate unit."""
    hom = from_category(cyclic_group_category(3), 1)
    unit = Path(("*", ()))
    P = gray_product(hom, hom, cap=1)

    def image(pair):
        x, y = pair
        if P.dims[pair] == 0:
            return Simplex(unit)
        if x.word or y.word:
            return y if x.word else x
        return x if x == y else Simplex(unit, (0,))

    cmap = StratifiedMap(P, hom, {pair: image(pair) for pair in P.cells()})
    return ["*"], {("*", "*"): hom}, {"*": unit}, {("*", "*", "*"): cmap}, 1


def _remade(E):
    """make_enriched's verdict on the parts of E."""
    parts = (E.objects, E.homs, E.identities, E.comp, E.dim_cap)
    return _outcome(lambda _: make_enriched(*parts), E)


def test_bounded_law_checks_agree_with_the_exhaustive_loops():
    from complicial.suite import desk_examples

    control = _non_associative_group()
    assert control[3][("*", "*", "*")].validate() == []
    validated = [E for _, E in desk_examples()] + [
        one_object_group_enriched(2, 3),
        one_object_group_enriched(3, 2),
        one_object_group_enriched(3, 3),
        one_object_group_enriched(2, 4),
        EnrichedCategory(*control),
    ]
    unvalidated = [_swapped_group(2), _swapped_group(3), _corrupted_suspension()]
    for E in validated + unvalidated:
        assert _outcome(_check_units, E) == _outcome(_exhaustive_units, E)
    # the pruned check is exact on categories whose composition maps validate
    for E in validated:
        assert _outcome(_check_associativity, E) == _outcome(_exhaustive_associativity, E)
    # the negative control fails at m = 1, where its hom is not face-determined
    failure = (
        "associativity fails at (Simplex(cell='*:g1', word=()), "
        "Simplex(cell='*:g1', word=()), Simplex(cell='*:g2', word=()))"
    )
    control = validated[-1]
    assert _remade(control) == _outcome(_exhaustive_associativity, control) == failure
    # the other fixtures are not stratified maps, so make_enriched refuses them
    # before any law check
    swapped, swapped3, corrupted = unvalidated
    refusals = [
        "composition ('*', '*', '*') is not a stratified map: "
        "cell (*:g1|0)(*:g1|1): face 0 does not commute",
        "composition ('*', '*', '*') is not a stratified map: "
        "cell (*:g1|1.0)(*:g1|g1|2): face 0 does not commute",
        "composition ('0', '0', '1') is not a stratified map: "
        "cell (0.1.2|)(*|1.0): face 0 does not commute",
    ]
    assert [_remade(E) for E in unvalidated] == refusals
    assert _outcome(_exhaustive_associativity, swapped) == (
        "associativity fails at (Simplex(cell='*:g1', word=(0,)), "
        "Simplex(cell='*:g1', word=(0,)), Simplex(cell='*:g1', word=(1,)))"
    )
    # a row of 3-simplices that first differs past its first entry
    assert _outcome(_exhaustive_associativity, swapped3) == (
        "associativity fails at (Simplex(cell='*:g1', word=(1, 0)), "
        "Simplex(cell='*:g1', word=(1, 0)), Simplex(cell='*:g1|g1', word=(2,)))"
    )
    assert "unit law fails at Simplex(cell='0.1.2', word=())" in _outcome(_check_units, corrupted)
    assert "associativity fails" in _outcome(_exhaustive_associativity, corrupted)


def test_associativity_check_composes_only_where_the_law_can_fail():
    # the nerve of Z/3 has one vertex, and its m-simplices for m >= 2 are fixed
    # by their faces: beyond the unit check, only pairs of 1-simplices are composed
    E = CountingCategory(one_object_group_enriched(3, 3))
    _check_units(E)
    units = set(E.calls)
    _check_associativity(E)
    added = set(E.calls) - units
    hom = E.hom("*", "*")
    assert {hom.simplex_dim(z) for key in added for z in key[3:]} == {1}
    assert len(added) == 5


def test_associativity_check_composes_each_pair_once():
    # the unit check and the nerve compose pairs the associativity check composed:
    # the category's table evaluates each pair once for all of them
    E = CountingCategory(one_object_group_enriched(3, 3))
    _check_units(E)
    _check_associativity(E)
    checked = set(E.calls)
    build_nerve(E, 3)
    assert set(E.calls) & checked and max(E.evaluations.values()) == 1


# -- functor validation stops where composition can first fail to be preserved --


def _exhaustive_functor_problems(F):
    """EnrichedFunctor.validate with its composition loop run to the cap."""
    problems = []
    E, T = F.source, F.target
    for (a, b), hom in E.homs.items():
        if hom.dims:
            problems.extend(f"hom({a},{b}): {p}" for p in F.hom_maps[(a, b)].validate())
    if problems:
        return problems
    for a in E.objects:
        if F.hom_maps[(a, a)](Simplex(E.identities[a])) != Simplex(T.identities[F.obj_map[a]]):
            problems.append(f"identity at {a} not preserved")
    for a in E.objects:
        for b in E.objects:
            for c in E.objects:
                if not (E.homs[(a, b)].dims and E.homs[(b, c)].dims):
                    continue
                fa, fb, fc = (F.obj_map[o] for o in (a, b, c))
                for m in range(E.dim_cap + 1):
                    for z2 in E.hom(b, c).simplices_of_dim(m):
                        for z1 in E.hom(a, b).simplices_of_dim(m):
                            lhs = F.hom_maps[(a, c)](E.compose(a, b, c, z2, z1))
                            rhs = T.compose(
                                fa, fb, fc, F.hom_maps[(b, c)](z2), F.hom_maps[(a, b)](z1)
                            )
                            if lhs != rhs:
                                problems.append(f"composition not preserved at {(a, b, c)}")
                                return problems
    return problems


def test_functor_validation_with_a_raised_cap_is_fast():
    import time

    X = standard(2)
    F = identity_functor(suspension(FiniteStratifiedSet(80, X.dims, X.faces)))
    start = time.perf_counter()
    assert F.validate() == []
    assert time.perf_counter() - start < 1


def test_bounded_functor_validation_agrees_with_the_exhaustive_loop():
    from complicial.suite import desk_examples

    for _, E in desk_examples():
        F = identity_functor(E)
        assert F.validate() == _exhaustive_functor_problems(F) == []
    # the identity into a copy whose composition differs on the top 2-cells, the
    # last dimension the bounded loop reaches for the triple (0, 0, 1)
    T = _corrupted_suspension()
    X = standard(2)
    E = suspension(FiniteStratifiedSet(4, X.dims, X.faces))
    F = EnrichedFunctor(E, T, {"0": "0", "1": "1"}, identity_functor(E).hom_maps)
    assert F.validate() == _exhaustive_functor_problems(F)
    assert F.validate() == ["composition not preserved at ('0', '0', '1')"]


def test_make_enriched_refuses_a_negative_dim_cap():
    # the law checks stop at the cap, so at a negative one they would check
    # nothing: the suspension of the 1-simplex with every composition map
    # emptied would load, and validate_gray would pass it
    E = suspension(standard(1))
    emptied = {
        (a, b, c): StratifiedMap(gray_product(E.hom(b, c), E.hom(a, b), cap=-1), E.hom(a, c), {})
        for a, b, c in E.comp
    }
    with pytest.raises(LawViolation, match="dim_cap"):
        make_enriched(E.objects, E.homs, E.identities, emptied, -1)


# -- an enriched category is complete or refused --------------------------------


def test_make_enriched_refuses_a_missing_hom():
    # read as an empty hom, the missing hom(1, 0) would pass the law checks, and
    # the nerve and the JSON reader would then fail on it
    E = suspension(standard(1))
    homs = {key: hom for key, hom in E.homs.items() if key != ("1", "0")}
    with pytest.raises(LawViolation, match=r"hom \('1', '0'\) is missing"):
        make_enriched(E.objects, homs, E.identities, E.comp, E.dim_cap)


def test_make_enriched_refuses_a_missing_composition_map():
    with pytest.raises(LawViolation, match=r"composition map \('\*', '\*', '\*'\) is missing"):
        make_enriched(["*"], {("*", "*"): point_set()}, {"*": "*"}, {}, 0)


def test_make_enriched_refuses_a_key_of_no_objects():
    E = suspension(standard(1))
    homs = {**E.homs, ("0", "2"): point_set()}
    with pytest.raises(LawViolation, match=r"hom \('0', '2'\) is not a pair of objects"):
        make_enriched(E.objects, homs, E.identities, E.comp, E.dim_cap)


def test_make_enriched_refuses_an_identity_that_is_not_a_0_cell():
    E = suspension(standard(1))
    for ident in ("nope", None):
        identities = {**E.identities, "0": ident}
        with pytest.raises(LawViolation, match=r"identity of '0' is not a 0-cell of hom\(0,0\)"):
            make_enriched(E.objects, E.homs, identities, E.comp, E.dim_cap)


def test_make_enriched_refuses_a_composition_that_unthins_a_thin_pair():
    # the suspension of the thin 1-simplex, its hom(0, 1) swapped for the plain
    # 1-simplex: every map still commutes with faces, but the thin pair cells of
    # the products land on the non-thin edge
    E = suspension(standard_thin(1))
    homs = {**E.homs, ("0", "1"): standard(1)}
    comp = {key: cmap._replace(target=homs[(key[0], key[2])]) for key, cmap in E.comp.items()}
    message = (
        r"composition \('0', '0', '1'\) is not a stratified map: "
        r"thin cell \(0\.1\|\)\(\*\|0\) maps to non-thin simplex"
    )
    with pytest.raises(LawViolation, match=message):
        make_enriched(E.objects, homs, E.identities, comp, E.dim_cap)


def test_compose_beyond_the_dimension_cap_is_refused():
    # (s0 g, s1 g) shares no flat, so it is a nondegenerate 2-cell of the product,
    # which the composition map of a category capped at 1 does not hold
    E = one_object_group_enriched(2, 1)
    g = Path(("*", ("g1",)))
    # (s0 g, s0 g) is a degeneracy of (g, g), a cell below the cap
    unit = Simplex(Path(("*", ())), (1, 0))
    assert E.compose("*", "*", "*", Simplex(g, (0,)), Simplex(g, (0,))) == unit
    message = r"composition at \('\*', '\*', '\*'\) undefined beyond the dimension cap"
    with pytest.raises(CapExceeded, match=message):
        E.compose("*", "*", "*", Simplex(g, (0,)), Simplex(g, (1,)))


def test_unit_check_composes_each_cell_twice():
    # a degenerate simplex composes to the same degeneracy of its cell's
    # composite, so each cell of each hom is composed with the identities once
    for E, calls in ((suspension(standard(2)), 18), (one_object_group_enriched(3, 3), 30)):
        counted = CountingCategory(E)
        _check_units(counted)
        cells = [c for h in E.homs.values() for c in h.cells() if h.dims[c] <= E.dim_cap]
        assert sum(counted.calls.values()) == 2 * len(cells) == calls
