import hashlib
import json
import time
from collections import Counter
from dataclasses import replace

import pytest

from complicial import anodyne
from complicial.anodyne import (
    AnodyneCertificate,
    _horn_problems,
    _thin_faces,
    _thinness_problems,
    builtin_certificates,
    certificate_from_json,
    certificate_to_json,
    hatted_C23,
    replay_states,
    rlp_report,
    search_tower,
    verify_certificate,
)
from complicial.enriched import from_category, walking_iso
from complicial.errors import BadParams, StepViolation
from complicial.operators import delta
from complicial.shapes import (
    big_C,
    big_H,
    boundary,
    complicial,
    cube,
    horn,
    standard,
    standard_thin,
)
from complicial.stratified import SubsetHandle, make_thin, regular_generated
from reference import (
    complicial_dprimed,
    complicial_primed,
    enumerate_maps,
    parse_vertex_chain,
    replay_members,
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


def test_rlp_cube_four_is_pinned_and_quick():
    # a fresh copy of cube(4), so neither its face index nor its act cache is built
    X = make_thin(cube(4), ())
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
    with pytest.raises(BadParams):
        rlp_report(standard(1), 1, mode="outer")


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
    steps[3] = replace(bad, k=(bad.k + 1) % (bad.n + 1))
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
            mutations = [replace(step, k=(step.k + 1) % (step.n + 1))]
            other_cells = [
                c
                for c in cert.ambient.cells_of_dim(step.n)
                if c != step.attach
            ]
            if other_cells:
                mutations.append(replace(step, attach=other_cells[0]))
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
        steps = (replace(cert.steps[0], n=n, k=k),) + cert.steps[1:]
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
    # the faces _thin_faces lists are the proper thin faces of the
    # k-complicial n-simplex, or of its primed form, and none twice
    for n in range(1, 7):
        for k in range(n + 1):
            simplices = [(False, complicial(n, k))]
            if n >= 2:
                simplices.append((True, complicial_primed(n, k)))
            for primed, X in simplices:
                got = [alpha.values for alpha in _thin_faces(n, k, n, primed)]
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


def test_thinness_problems_are_the_maps_from_the_primed_simplex():
    # oracle: the thinness problems at (n, k) are the images of the top cell under
    # the stratified maps complicial_primed(n, k) -> X, and those whose k-face is
    # thin are the images under the maps from complicial_dprimed(n, k);
    # enumerate_maps refuses a domain above the target's cap, so n stops there
    total = 0
    for X, n in oracle_runs(2):
        if n > X.dim_cap:
            continue
        top = tuple(range(n + 1))
        for k in range(n + 1):
            got = list(_thinness_problems(X, n, k))
            primed = enumerate_maps(complicial_primed(n, k), X)
            assert Counter(got) == Counter(f.assignment[top] for f in primed), (n, k)
            thin = [z for z in got if X.is_thin(X.act(z, delta(n, k)))]
            dprimed = enumerate_maps(complicial_dprimed(n, k), X)
            assert Counter(thin) == Counter(f.assignment[top] for f in dprimed), (n, k)
            total += len(got)
    assert total > 200
