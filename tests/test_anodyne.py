import json

import pytest

from complicial.anodyne import (
    AnodyneCertificate,
    HornPushout,
    builtin_certificates,
    certificate_from_json,
    certificate_to_json,
    hatted_C23,
    replay_members,
    replay_states,
    rlp_report,
    search_tower,
    v_tower_generators,
    verify_certificate,
)
from complicial.errors import BadParams, StepViolation
from complicial.shapes import (
    big_C,
    big_H,
    complicial,
    parse_vertex_chain,
    standard,
    standard_thin,
)
from complicial.stratified import (
    SubsetHandle,
    make_thin,
    regular_generated,
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
    X2 = make_thin(X, ["0.1.2"])
    from complicial.anodyne import _thinness_problems
    from complicial.operators import delta

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
    assert isinstance(first, HornPushout) and (first.n, first.k) == (2, 1)
    assert first.attach == parse_vertex_chain("(0,0)<(1,0)<(1,1)")
    assert isinstance(second, HornPushout) and (second.n, second.k) == (2, 0)
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
    steps[3] = type(bad)(bad.n, (bad.k + 1) % (bad.n + 1), bad.attach)
    mutant = AnodyneCertificate(cert.ambient, cert.start, cert.finish, tuple(steps))
    problems = verify_certificate(mutant)
    with pytest.raises(StepViolation) as exc:
        list(replay_states(mutant))
    assert exc.value.index == 3
    assert problems == [str(exc.value)]


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
            kind = type(step)
            mutations = [kind(step.n, (step.k + 1) % (step.n + 1), step.attach)]
            other_cells = [
                c
                for c in cert.ambient.cells_of_dim(step.n)
                if c != step.attach
            ]
            if other_cells:
                mutations.append(kind(step.n, step.k, other_cells[0]))
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


def test_search_tower_not_found_for_boundary():
    X = standard(1)
    start = regular_generated(X, ["0", "1"])
    assert search_tower(start, full_handle(X), 10) is None


def test_certificate_json_round_trip():
    cert = builtin_certificates()[0]
    data = json.loads(json.dumps(certificate_to_json(cert)))
    back = certificate_from_json(data)
    assert verify_certificate(back) == []
    assert [type(s) for s in back.steps] == [type(s) for s in cert.steps]
