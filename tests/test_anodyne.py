import hashlib
import json
import random
import re
import time
from collections import Counter

import pytest

from complicial import anodyne
from complicial.anodyne import (
    AnodyneCertificate,
    Step,
    _face_paths,
    _horn_problems,
    _thinness_problems,
    _unthin_face,
    builtin_certificates,
    certificate_from_json,
    certificate_to_json,
    hatted_C23,
    replay_states,
    rlp_report,
    search_tower,
    verify_certificate,
)
from complicial.enriched import from_category, suspension, validate_gray, walking_iso
from complicial.errors import BadParams, StepViolation, UnknownCell
from complicial.nerve import build_nerve
from complicial.operators import delta
from complicial.shapes import (
    C_dot,
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
    Simplex,
    SubsetHandle,
    make_thin,
    regular_generated,
)
from reference import (
    act_by_operators,
    complicial_dprimed,
    complicial_primed,
    enumerate_maps,
    opposite,
    parse_vertex_chain,
    replay_members,
    reversed_simplex,
    search_tower_dfs,
    v_tower_generators,
)


def full_handle(X):
    return SubsetHandle(X, frozenset(X.dims), X.thin)


def test_rlp_point_passes_all():
    # every horn into the point fills degenerately, at any dimension
    rep = rlp_report(standard(0), 3, mode="all")
    assert rep.ok


def test_rlp_interval_all():
    rep = rlp_report(standard(1), 1, mode="all")
    # every vertex needs thin in/out edges; only degenerate ones qualify
    assert rep.ok


def test_rlp_report_far_above_the_top_dimension_is_quick():
    # every simplex of the 1-simplex above dimension 1 is degenerate, hence
    # thin, so the admissible faces checked stop at dimension 1 and the cost
    # grows polynomially in dmax, with the horn maps
    started = time.perf_counter()
    rep = rlp_report(standard(1), 12, mode="all")
    assert rep.ok
    assert sum(n for _, n in rep.checked) == 1760
    assert time.perf_counter() - started < 3


@pytest.mark.parametrize(
    "shape, dmax, counts",
    [
        (standard(1), 6, (300, 0, 146, 735)),
        (standard(1), 12, (1760, 0, 876, 8112)),
        (boundary(2), 6, (745, 0, 363, 1844)),
        (boundary(2), 12, (4747, 0, 2364, 22103)),
    ],
)
def test_rlp_report_call_counts(monkeypatch, shape, dmax, counts):
    # the cost of the report as (problems, act, face, fillers) calls, free of the
    # host: the horn and thinness searches stop at the top dimension of the set
    # and never build a domain, so the counts grow polynomially in dmax; they
    # walk face rows instead of calling act or face, and the one face call per
    # thinness problem is its verdict
    calls = Counter()

    def counted(name):
        method = getattr(FiniteStratifiedSet, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        return wrapper

    for name in ("act", "face", "fillers"):
        monkeypatch.setattr(FiniteStratifiedSet, name, counted(name))
    rep = rlp_report(shape, dmax, mode="all")
    problems = sum(n for _, n in rep.checked)
    assert (problems, calls["act"], calls["face"], calls["fillers"]) == counts


def test_rlp_cube_four_is_pinned_and_quick():
    # a copy of cube(4) with a face index of its own, built inside the timed call;
    # make_thin would share the index of the cached cube(4) that other tests build
    C = cube(4)
    X = FiniteStratifiedSet(C.dim_cap, C.dims, C.faces, C.thin)
    started = time.perf_counter()
    rep = rlp_report(X, 3, mode="all")
    elapsed = time.perf_counter() - started
    text = json.dumps(rep.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "ea5334466460526f3ae50817a86688115f0d10b48a488be4fef964bf79d54363"
    )
    assert elapsed < 5


def test_rlp_standard_two_fails_inner():
    rep = rlp_report(standard(2), 2, mode="inner")
    assert not rep.ok
    assert any(f["instance"] == "horn[2,1]" for f in rep.failures)


def test_rlp_thin_interval():
    rep = rlp_report(standard_thin(1), 1, mode="all")
    assert rep.ok


def test_rlp_complicial_simplex_passes_itself():
    # the 1-complicial 2-simplex fills its own horn
    rep = rlp_report(complicial(2, 1), 2, mode="inner")
    assert rep.ok


def test_rlp_beyond_cap_is_exact():
    # degenerate completeness keeps the report meaningful above the cap
    assert rlp_report(standard(1), 3, mode="all").ok


def test_rlp_unknown_mode_is_bad_params():
    # the mode is checked before any instance, so dmax 0, with none, refuses it too
    for dmax in (0, 1):
        with pytest.raises(BadParams, match="unknown mode 'bogus'"):
            rlp_report(standard(1), dmax, "bogus")
    with pytest.raises(BadParams):
        rlp_report(standard(1), 1, mode="outer")


def test_negative_dmax_is_bad_params():
    # a negative dmax would check nothing and pass, though validate_gray fails
    # the suspension of the 2-simplex at dmax 2; dmax 0 stays legal
    with pytest.raises(BadParams, match="dmax must be at least 0"):
        rlp_report(standard(2), -1, "inner")
    E = suspension(standard(2))
    assert not validate_gray(E, 2)["pass"]
    with pytest.raises(BadParams, match="dmax must be at least 0"):
        validate_gray(E, -1)
    assert rlp_report(standard(2), 0, "inner").checked == []
    assert validate_gray(E, 0)["pass"]


def test_rlp_monotone_in_stratification():
    # upgrading thinness never breaks a passing thinness instance
    X = complicial(3, 1)
    X2 = make_thin(X, [(0, 1, 2)])
    for n, k in [(2, 1), (3, 1), (3, 2)]:
        for z in _thinness_problems(X, n, k):
            if X.is_thin(X.act(z, delta(n, k))):
                assert X2.is_thin(X2.act(z, delta(n, k)))


def test_builtin_certificates_all_pass():
    certs = builtin_certificates()
    assert len(certs) == 4
    for cert in certs:
        assert verify_certificate(cert) == []


def test_builtin_square_step_structure():
    cert = builtin_certificates()[0]
    first, second = cert.steps
    assert (first.kind, first.n, first.k) == ("horn", 2, 1)
    assert first.attach == parse_vertex_chain("(0,0)<(1,0)<(1,1)")
    assert (second.kind, second.n, second.k) == ("horn", 2, 0)
    assert second.attach == parse_vertex_chain("(0,0)<(0,1)<(1,1)")


def test_v_tower_matches_paper_generators():
    # the printed generator chains of the eight-step tower, verbatim
    chains = [
        "(0,0,0)<(0,1,1)<(1,1,1)",
        "(0,0,0)<(0,0,1)<(0,1,1)<(1,1,1)",
        "(0,0,0)<(0,0,1)<(1,0,1)<(1,1,1)",
        "(0,0,0)<(1,0,0)<(1,0,1)<(1,1,1)",
        "(0,0,0)<(1,0,0)<(1,1,0)<(1,1,1)",
        "(0,1,0)<(0,1,1)<(1,1,1)",
        "(0,0,0)<(0,1,0)<(0,1,1)<(1,1,1)",
        "(0,0,0)<(0,1,0)<(1,1,0)<(1,1,1)",
    ]
    cert = builtin_certificates()[2]
    assert [s.attach for s in cert.steps] == [parse_vertex_chain(c) for c in chains]
    assert [s.attach for s in cert.steps] == [cell for _, cell in v_tower_generators()]


def test_v_tower_intermediate_subsets_are_regular():
    cert = builtin_certificates()[2]
    acc = list(cert.start.members)
    for step, members, flags in replay_states(cert):
        acc.append(step.attach)
        expect = regular_generated(cert.ambient, acc)
        assert members == expect.members
        assert flags == expect.thin_members


def test_replay_states_raises_the_verify_problem():
    # one engine replays towers: the violation replay_states raises is, word
    # for word, the single problem verify_certificate reports
    cert = builtin_certificates()[2]
    steps = list(cert.steps)
    bad = steps[3]
    steps[3] = bad._replace(k=(bad.k + 1) % (bad.n + 1))
    mutant = AnodyneCertificate(cert.ambient, cert.start, cert.finish, tuple(steps))
    problems = verify_certificate(mutant)
    with pytest.raises(StepViolation) as exc:
        list(replay_states(mutant))
    assert exc.value.index == 3
    assert problems == [str(exc.value)]


def test_start_that_is_not_face_closed_is_refused():
    # the step check relies on a face-closed start: without the start check a
    # start missing a vertex replayed every step of the V tower silently
    for cert in (builtin_certificates()[0], builtin_certificates()[2]):
        Z = cert.ambient
        vertex = next(c for c in Z.cells_of_dim(0) if c in cert.start.members)
        start = SubsetHandle(
            Z, cert.start.members - {vertex}, cert.start.thin_members - {vertex}
        )
        mutant = AnodyneCertificate(Z, start, cert.finish, cert.steps)
        [problem] = verify_certificate(mutant)
        assert problem.startswith("start is not face-closed")
        with pytest.raises(BadParams, match="start is not face-closed"):
            list(replay_states(mutant))
        assert search_tower(start, cert.finish, 50) is None


def test_start_outside_the_ambient_is_refused():
    # negative controls for the other start invariants: its cells are cells of
    # the ambient, and its flags are thin there
    cert = builtin_certificates()[0]
    start = cert.start
    vertex = next(c for c in cert.ambient.cells_of_dim(0) if c in start.members)
    cases = [
        (start._replace(members=start.members | {"nope"}), "start names unknown cell 'nope'"),
        (
            start._replace(thin_members=start.thin_members | {vertex}),
            "start thin flags exceed the ambient stratification",
        ),
    ]
    for bad, message in cases:
        mutant = cert._replace(start=bad)
        with pytest.raises(BadParams) as exc:
            list(replay_states(mutant))
        assert str(exc.value) == message
        assert verify_certificate(mutant) == [message]


def test_step_naming_no_cell_of_its_shape_is_refused():
    # negative controls: the first step of the square tower, a horn step on a
    # 2-cell, with its kind, its cell or its dimension broken
    cert = builtin_certificates()[0]
    step = cert.steps[0]
    cases = [
        (step._replace(kind="bogus"), "unknown step kind 'bogus'"),
        (step._replace(attach="nope"), "attach cell 'nope' not in ambient"),
        (step._replace(n=3), "attach cell has dimension 2, expected 3"),
    ]
    for bad, reason in cases:
        mutant = cert._replace(steps=(bad,) + cert.steps[1:])
        with pytest.raises(StepViolation) as exc:
            list(replay_states(mutant))
        assert (exc.value.index, exc.value.reason) == (0, reason)


def test_horn_step_whose_face_through_k_is_degenerate_is_refused():
    # the thin 2-cell t over the thin edge e from a to b has d0 t = s0 b: its
    # 0-horn (e, e) is present and flagged, but the face it would add is no cell
    a, b, e = Simplex("a"), Simplex("b"), Simplex("e")
    faces = {"e": (b, a), "t": (Simplex("b", (0,)), e, e)}
    Z = FiniteStratifiedSet(2, {"a": 0, "b": 0, "e": 1, "t": 2}, faces, ["e", "t"])
    assert Z.validate() == []
    start = SubsetHandle(Z, frozenset({"a", "b", "e"}), frozenset({"e"}))
    cert = AnodyneCertificate(Z, start, full_handle(Z), (Step("horn", 2, 0, "t"),))
    with pytest.raises(StepViolation) as exc:
        list(replay_states(cert))
    assert (exc.value.index, exc.value.reason) == (0, "face through k is degenerate")


def test_search_tower_refuses_subsets_of_two_ambients():
    start = big_H(2, 1)
    finish = full_handle(make_thin(start.ambient, []))
    with pytest.raises(UnknownCell) as exc:
        search_tower(start, finish, 10)
    assert str(exc.value) == "start and finish live in different ambient sets"


def test_hatted_cube_extra_thin_cell():
    # making thin the square special through (0,0,0)<(0,1,0)<(1,1,1)
    extra = hatted_C23().thin - big_C(3, 2).thin
    assert extra == {parse_vertex_chain("(0,0,0)<(0,1,0)<(1,1,1)")}


def test_swapping_middle_steps_fails():
    cert = builtin_certificates()[2]
    steps = list(cert.steps)
    steps[2], steps[3] = steps[3], steps[2]
    swapped = AnodyneCertificate(
        cert.ambient, cert.start, cert.finish, tuple(steps), cert.note
    )
    assert verify_certificate(swapped) != []


def test_empty_tower_start_equals_finish():
    X = big_C(2, 1)
    h = big_H(2, 1)
    cert = AnodyneCertificate(X, h, h, ())
    assert verify_certificate(cert) == []


def test_single_field_mutations_rejected():
    for cert in builtin_certificates():
        for i, step in enumerate(cert.steps):
            mutations = [step._replace(k=(step.k + 1) % (step.n + 1))]
            other_cells = [
                c
                for c in cert.ambient.cells_of_dim(step.n)
                if c != step.attach
            ]
            if other_cells:
                mutations.append(step._replace(attach=other_cells[0]))
            for mutant_step in mutations:
                steps = list(cert.steps)
                steps[i] = mutant_step
                mutant = AnodyneCertificate(
                    cert.ambient, cert.start, cert.finish, tuple(steps), "mutant"
                )
                assert verify_certificate(mutant) != [], (cert.note, i, mutant_step)
        # dropping any step leaves the finish unreached
        for i in range(len(cert.steps)):
            steps = cert.steps[:i] + cert.steps[i + 1 :]
            mutant = AnodyneCertificate(
                cert.ambient, cert.start, cert.finish, steps, "mutant"
            )
            assert verify_certificate(mutant) != []


def test_out_of_range_step_is_a_problem_not_an_exception():
    # a Step built in the library never passes the JSON reader's range check
    cert = builtin_certificates()[3]
    for n, k in ((3, 4), (3, -1), (0, 0)):
        steps = (cert.steps[0]._replace(n=n, k=k),) + cert.steps[1:]
        mutant = AnodyneCertificate(cert.ambient, cert.start, cert.finish, steps)
        assert verify_certificate(mutant) == [
            f"step 0: step (n, k) = {(n, k)} needs n >= 1 and 0 <= k <= n"
        ]


def test_replay_matches_finish_for_builtins():
    for cert in builtin_certificates():
        assert verify_certificate(cert) == []
        members, flags = replay_members(cert)
        assert members == cert.finish.members
        assert flags == cert.finish.thin_members


def test_search_tower_trivial():
    X = big_C(2, 1)
    h = big_H(2, 1)
    cert = search_tower(h, h, 5)
    assert cert is not None and cert.steps == ()


def test_search_tower_rederives_square():
    X = big_C(2, 1)
    cert = search_tower(big_H(2, 1), full_handle(X), 10)
    assert cert is not None
    assert len(cert.steps) == 2
    assert verify_certificate(cert) == []


# the towers the search finds from H^k_n to C^k_n, as (kind, n, k, attach)
FOUND_TOWERS = {
    (2, 1): [("horn", 2, 1, "2,1"), ("horn", 2, 0, "1,2")],
    (2, 2): [("horn", 2, 1, "1,2"), ("horn", 2, 0, "2,1")],
    (3, 1): [
        ("horn", 2, 1, "+,1,2"),
        ("horn", 2, 1, "1,1,2"),
        ("horn", 3, 2, "1,2,3"),
        ("thinness", 3, 2, "1,2,3"),
        ("horn", 3, 2, "2,1,3"),
        ("horn", 3, 1, "3,1,2"),
        ("horn", 3, 2, "3,2,1"),
        ("horn", 3, 1, "2,3,1"),
        ("horn", 3, 0, "1,3,2"),
    ],
}


@pytest.mark.parametrize("n, k", sorted(FOUND_TOWERS))
def test_search_tower_finds_the_pinned_tower(n, k):
    cert = search_tower(big_H(n, k), full_handle(big_C(n, k)), 100)
    assert cert is not None
    assert [(s.kind, s.n, s.k, str(s.attach)) for s in cert.steps] == FOUND_TOWERS[n, k]


def test_search_tower_checks_each_step_once_per_subset(monkeypatch):
    # the C^2_3 search is exhaustive at this budget and finds nothing; it
    # expands each subset (members, flags) once, so it never checks a step
    # against the same subset twice
    checks = Counter()
    step_violation = anodyne._step_violation

    def counted(Z, members, flags, step):
        checks[members, flags, step] += 1
        return step_violation(Z, members, flags, step)

    monkeypatch.setattr(anodyne, "_step_violation", counted)
    assert search_tower(big_H(3, 2), full_handle(big_C(3, 2)), 2000) is None
    assert max(checks.values()) == 1
    assert sum(checks.values()) <= 20_000


def test_search_tower_call_counts(monkeypatch):
    # the C^2_3 search at budget 2000 judges only steps that add a flag inside
    # finish - start and not yet set; the recursive search made 18,228 step
    # checks and 803 act calls, and one that judged set flags too 1,078 and 389;
    # thin faces are read by walking face rows, so no step check calls act, where
    # reading them through act made 164 calls
    start, finish = big_H(3, 2), full_handle(big_C(3, 2))
    calls = Counter()
    step_violation, act = anodyne._step_violation, FiniteStratifiedSet.act

    def counted_step_violation(*args):
        calls["step"] += 1
        return step_violation(*args)

    def counted_act(*args):
        calls["act"] += 1
        return act(*args)

    monkeypatch.setattr(anodyne, "_step_violation", counted_step_violation)
    monkeypatch.setattr(FiniteStratifiedSet, "act", counted_act)
    assert search_tower(start, finish, 2000) is None
    assert (calls["step"], calls["act"]) == (596, 0)


def test_search_tower_checks_each_step_of_a_path_once(monkeypatch):
    # on a path of 1,200 thin edges from its first vertex the search finds each
    # step with one check, skipping the edges already flagged, and verifying the
    # tower checks each step once more; rescanning every candidate took 1,440,001
    n = 1200
    edges = [f"e{i:04d}" for i in range(n)]
    dims = {**{f"v{i:04d}": 0 for i in range(n + 1)}, **dict.fromkeys(edges, 1)}
    faces = {e: (Simplex(f"v{i + 1:04d}"), Simplex(f"v{i:04d}")) for i, e in enumerate(edges)}
    Z = FiniteStratifiedSet(1, dims, faces, edges)
    calls = Counter()
    step_violation = anodyne._step_violation

    def counted(*args):
        calls["step"] += 1
        return step_violation(*args)

    monkeypatch.setattr(anodyne, "_step_violation", counted)
    cert = search_tower(SubsetHandle(Z, frozenset({"v0000"}), frozenset()), full_handle(Z), 5000)
    assert len(cert.steps) == n and calls["step"] == 2 * n


def _oracle_problems() -> list[tuple[SubsetHandle, SubsetHandle]]:
    """Tower problems for the recursive oracle: each H^k_n in C^k_n, n = 2, 3,
    the hatted cube, the builtin towers, starts outside their finish, and
    seeded random pairs.  Cells are drawn in spelling order, so the family
    does not change with the hash seed."""
    problems = [(big_H(n, k), full_handle(big_C(n, k))) for n in (2, 3) for k in range(1, n + 1)]
    Chat, H23 = hatted_C23(), big_H(3, 2)
    problems.append((SubsetHandle(Chat, H23.members, H23.members & Chat.thin), full_handle(Chat)))
    certs = builtin_certificates()
    problems += [(cert.start, cert.finish) for cert in certs]
    # more flags, then more members, than the finish
    problems += [(certs[3].finish, certs[3].start), (certs[0].finish, certs[0].start)]
    rng = random.Random(0)
    spelled = lambda cells: sorted(cells, key=str)
    shapes = [standard(2), standard(3), cube(2), complicial(3, 1), complicial(3, 2), big_C(2, 1),
              big_C(2, 2), big_C(3, 1)]
    for i in range(24):
        X = shapes[i % len(shapes)]
        cells = spelled(X.dims)
        seeds = rng.sample(cells, rng.randint(1, len(cells))) if i % 2 else cells
        finish = regular_generated(X, seeds)
        members = spelled(finish.members)
        start = regular_generated(X, rng.sample(members, rng.randint(0, len(members))))
        flags = frozenset(c for c in spelled(start.thin_members) if rng.random() < 0.7)
        problems.append((SubsetHandle(X, start.members, flags), finish))
    # segments of the builtin towers and of the C^1_3 tower, some start flags dropped
    towers = certs + [search_tower_dfs(big_H(3, 1), full_handle(big_C(3, 1)), 100)]
    for _ in range(16):
        cert = rng.choice(towers)
        Z = cert.ambient
        states = [(cert.start.members, cert.start.thin_members)]
        states += [(members, flags) for _, members, flags in replay_states(cert)]
        i = rng.randrange(len(states))
        (members, flags), finish = states[i], states[rng.randrange(i, len(states))]
        flags = frozenset(c for c in spelled(flags) if rng.random() < 0.8)
        problems.append((SubsetHandle(Z, members, flags), SubsetHandle(Z, *finish)))
    return problems


def test_search_tower_matches_the_recursive_search():
    # the search on extensions applies the same steps as the recursive one
    # it replaced, or fails alike, at every budget
    lengths = Counter()
    for start, finish in _oracle_problems():
        for budget in [*range(31), 2000]:
            cert = search_tower(start, finish, budget)
            oracle = search_tower_dfs(start, finish, budget)
            assert (cert and cert.steps) == (oracle and oracle.steps), budget
        lengths[cert and len(cert.steps)] += 1
    assert lengths == {None: 30, 0: 11, 1: 2, 2: 5, 3: 1, 9: 1, 10: 2}


def test_search_tower_not_found_for_boundary():
    X = standard(1)
    start = regular_generated(X, [(0,), (1,)])
    assert search_tower(start, full_handle(X), 10) is None


def test_certificate_json_round_trip():
    # all four builtins, so every step kind makes the trip
    for cert in builtin_certificates():
        data = json.loads(json.dumps(certificate_to_json(cert)))
        back = certificate_from_json(data)
        assert verify_certificate(back) == []
        assert back.steps == cert.steps


def oracle_runs(least_n):
    """(target, n): every n from least_n to 3 on six targets, and n = 4 on the
    2-complicial 4-simplex, whose horn faces have thin faces of dimension 2."""
    targets = [
        standard(2),
        complicial(3, 1),
        horn(3, 1),
        cube(2),
        boundary(3),
        from_category(walking_iso(), 3),
    ]
    runs = [(X, n) for X in targets for n in range(least_n, 4)]
    return runs + [(complicial(4, 2), 4)]


def test_thin_faces_are_those_of_the_complicial_simplex():
    # the faces _face_paths lists are the proper thin faces of the
    # k-complicial n-simplex, or of its primed form, and none twice
    for n in range(1, 7):
        for k in range(n + 1):
            simplices = [(False, complicial(n, k))]
            if n >= 2:
                simplices.append((True, complicial_primed(n, k)))
            for primed, X in simplices:
                got = [alpha.values for alpha, _ in _face_paths(n, k, n, primed)]
                assert len(got) == len(set(got))
                assert set(got) == {tuple(c) for c in X.thin if X.dims[c] < n}, (n, k, primed)


def test_horn_problems_are_the_maps_from_the_horn():
    # oracle: the horn problems at (n, k) are the stratified maps horn(n, k) -> X,
    # read on the faces j != k
    total = 0
    for X, n in oracle_runs(1):
        for k in range(n + 1):
            faces = [(j, tuple(v for v in range(n + 1) if v != j)) for j in range(n + 1) if j != k]
            expected = Counter(
                tuple((j, f.assignment[cell]) for j, cell in faces)
                for f in enumerate_maps(horn(n, k), X)
            )
            got = Counter(tuple(sorted(p.items())) for p in _horn_problems(X, n, k))
            assert got == expected, (X.cells(), n, k)
            total += sum(got.values())
    assert total > 700


def test_horn_problems_come_in_the_order_of_their_faces():
    # rlp_report failure lists and the perfbench digests read the problems in
    # this order: by the positions of the faces j = 0, 1, ... in simplices_of_dim
    targets = [cube(3), standard(3), complicial(3, 2), boundary(3)]
    for X in targets + [build_nerve(suspension(standard(2)), 3)]:
        for n in range(1, 4):
            position = {z: i for i, z in enumerate(X.simplices_of_dim(n - 1))}
            for k in range(n + 1):
                order = [tuple(position[p[j]] for j in sorted(p)) for p in _horn_problems(X, n, k)]
                assert order and all(a < b for a, b in zip(order, order[1:])), (n, k)


def test_thinness_problems_are_the_maps_from_the_primed_simplex():
    # oracle: the thinness problems at (n, k) are the images of the top cell under
    # the stratified maps complicial_primed(n, k) -> X, and those whose k-face is
    # thin are the images under the maps from complicial_dprimed(n, k);
    # enumerate_maps refuses a domain above the target's cap, so a target of cap 2,
    # complete at its cap, is read at cap n: that adds no cell and no problem
    total = 0
    for X, n in oracle_runs(2):
        Y = X if n <= X.dim_cap else FiniteStratifiedSet(n, X.dims, X.faces, X.thin)
        assert Y.validate() == []
        top = tuple(range(n + 1))
        for k in range(n + 1):
            got = list(_thinness_problems(X, n, k))
            assert list(_thinness_problems(Y, n, k)) == got, (n, k)
            primed = enumerate_maps(complicial_primed(n, k), Y)
            assert Counter(got) == Counter(f.assignment[top] for f in primed), (n, k)
            thin = [z for z in got if X.is_thin(X.act(z, delta(n, k)))]
            dprimed = enumerate_maps(complicial_dprimed(n, k), Y)
            assert Counter(thin) == Counter(f.assignment[top] for f in dprimed), (n, k)
            total += len(got)
    assert total == 945


def _flipped(X, seed: int, flips: int):
    """X with the thin flags of flips cells of positive dimension toggled, drawn
    by a seeded generator from X.cells(), so the set does not change with the hash seed."""
    cells = [c for c in X.cells() if X.dims[c]]
    chosen = frozenset(random.Random(seed).sample(cells, flips))
    return FiniteStratifiedSet(X.dim_cap, X.dims, X.faces, X.thin ^ chosen)


def _instance(name: str, reverse: bool = False) -> tuple[str, int, int]:
    """(kind, n, k) of an instance name; with reverse, of its mirror, at n - k."""
    kind, n, k = re.fullmatch(r"(\w+)\[(\d+),(\d+)\]", name).groups()
    return kind, int(n), int(n) - int(k) if reverse else int(k)


def _failures(report, reverse: bool = False) -> set:
    """The failures of a lifting report as hashable (kind, n, k, simplices); with
    reverse, as the report on the opposite set states them: horn[n,k] is
    horn[n,n-k] with face j at n - j, thinness[n,k] is thinness[n,n-k], and
    every simplex is read reversed."""

    def read(s: dict, q: int) -> Simplex:
        z = Simplex(s["cell"], tuple(s["word"]))
        return reversed_simplex(z, q) if reverse else z

    found = set()
    for failure in report.failures:
        kind, n, k = _instance(failure["instance"], reverse)
        if kind == "thinness":
            found.add((kind, n, k, read(failure["simplex"], n)))
        else:
            faces = ((int(j), read(s, n - 1)) for j, s in failure["faces"].items())
            found.add((kind, n, k, frozenset((n - j if reverse else j, s) for j, s in faces)))
    return found


def test_rlp_report_of_the_opposite_set_is_the_mirror():
    # oracle: reversing the vertices turns the k-complicial n-simplex and its
    # primed form into the (n-k)-complicial ones, and the k-horn into the
    # (n-k)-horn, so the report on opposite(X) holds exactly the mirrored
    # failures of the report on X, and as many problems per mirrored instance
    sets = [
        standard(3),
        boundary(3),
        complicial(3, 1),
        cube(3),
        big_C(3, 2),
        horn(3, 1),
        C_dot(3, 2),
        _flipped(cube(3), 0, 4),
        _flipped(complicial(3, 2), 1, 3),
    ]
    total = 0
    for X in sets:
        Y = opposite(X)
        assert Y.validate() == []
        rep, mirror = rlp_report(X, 3, "all"), rlp_report(Y, 3, "all")
        assert _failures(mirror) == _failures(rep, reverse=True), X.cells()
        assert len(mirror.failures) == len(rep.failures) == len(_failures(rep))
        counts = {_instance(name, reverse=True): n for name, n in rep.checked}
        assert {_instance(name): n for name, n in mirror.checked} == counts
        total += len(rep.failures)
    assert total == 97


def test_face_walk_matches_the_action_by_operators():
    # oracle: the first thin face whose image is unthin, read by walking face
    # paths over the face rows, is the first found by act_by_operators, which
    # reads no face index; on every simplex, degenerate ones included, for every
    # thin-face list with n <= 4
    targets = [
        cube(4),
        complicial(4, 2),
        standard_thin(3),
        build_nerve(suspension(standard(2)), 4),
        _flipped(cube(3), 2, 5),
    ]
    compared = 0
    for X in targets:
        top = X.max_dim()
        for n in range(1, 5):
            rows = X._rows_up_to(n)
            forms = (False, True) if n > 1 else (False,)  # thinness instances start at n = 2
            for k, primed in ((k, primed) for k in range(n + 1) for primed in forms):
                paths = _face_paths(n, k, top, primed)
                faces = [alpha for alpha, _ in paths]
                # each path deletes the vertices alpha misses, largest first, from [n] down
                for alpha, path in paths:
                    missed = sorted(set(range(n + 1)) - set(alpha.values), reverse=True)
                    assert path == tuple(zip(range(n, 0, -1), missed)), (alpha, path)
                for s in X.simplices_of_dim(n):
                    images = ((a, act_by_operators(X, s, a)) for a in faces)
                    want = next((a for a, z in images if not z.word and z.cell not in X.thin), None)
                    assert _unthin_face(rows, s, paths, X.thin) == want, (s, n, k, primed)
                    compared += 1
    assert compared == 27664
