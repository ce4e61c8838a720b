"""Lifting reports and certified anodyne towers.

``rlp_report`` loops over the horn[n,k] and thinness[n,k] instances, each
family with its problem search.  Horn enumeration runs ``extensions``, the one
backtracking search, over ``FiniteStratifiedSet.fillers``: each face of a horn
map is a filler of the faces it shares with those chosen before it.  Both
searches and ``_step_violation`` read thin faces as precompiled face paths,
walked over the face index rows they fetch once per search or step check.

One pure check, ``_step_violation``, decides whether an elementary-anodyne
pushout ``Step`` extends a subset (members, thin flags) of a fixed ambient
set, and ``_applied`` builds the extended subset; ``replay_states``,
``verify_certificate`` and ``search_tower`` run on the pair, the tower search
on ``extensions`` too, one slot per thin flag it adds.  A horn step glues
a thin top cell along a horn that must already be present; a thinness step
upgrades one face to thin.  Two invariants hold throughout: the subset is
face-closed, and its flags are thin in the ambient.  ``_start_problem`` checks
them at the start and every step keeps them, so a horn is present once its n
faces d_j, j != k, are, a present top cell brings all of its faces, and a
flagged face is thin in the ambient.  The side conditions are exactly those
making the enlarged subset a genuine pushout of the elementary extension, so
a passing certificate is a machine-checked anodyne decomposition.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Iterator, NamedTuple

from .errors import BadParams, ParseError, StepViolation, UnknownCell
from .operators import PLUS, Operator, admissible_vertices, all_injections, ez_factorize
from .shapes import Coords, big_C, big_H
from .stratified import (
    FiniteStratifiedSet,
    Simplex,
    SubsetHandle,
    extensions,
    json_field,
    make_thin,
    set_from_json,
    set_to_json,
    simplex_to_json,
    subset_from_json,
    subset_to_json,
)

# -- lifting reports ---------------------------------------------------------


class LiftingReport(NamedTuple):
    """The instances checked, as (name, problem count), and the failures found."""

    checked: list[tuple[str, int]]
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "pass": self.ok,
            "checked": [{"instance": name, "problems": n} for name, n in self.checked],
            "failures": self.failures,
        }


@lru_cache(maxsize=None)
def _face_paths(n: int, k: int, top: int, primed: bool = False) -> tuple:
    """The proper faces alpha of [n] up to dimension top that the k-complicial
    n-simplex makes thin, those covering k-1, k, k+1, and with primed also d_{k-1},
    d_{k+1}, each with its face path, the faces act takes: (d, v), face v of a
    d-simplex, for each v alpha misses, largest first.  Above the top dimension of a
    set every simplex is degenerate, hence thin."""
    needed = admissible_vertices(n, k)
    primed_missing = needed - {k} if primed else frozenset()
    return tuple(
        (alpha, tuple(zip(range(n, 0, -1), reversed(ez_factorize(alpha)[0]))))
        for m in range(min(n, top + 1))
        for alpha in all_injections(m, n)
        if needed <= set(alpha.values) or (m == n - 1 and not primed_missing <= set(alpha.values))
    )


def _unthin_face(rows: list[dict], s: Simplex, paths: tuple, thin) -> Operator | None:
    """The first alpha of paths with s . alpha neither degenerate nor in thin, or None,
    read along alpha's face path over rows by dimension: act's rule restricted to injections."""
    for alpha, path in paths:
        z = s
        for d, v in path:
            z = rows[d][z][v]
        if not z.word and z.cell not in thin:
            return alpha
    return None


def _horn_problems(X: FiniteStratifiedSet, n: int, k: int) -> Iterator[dict]:
    """Enumerate horn maps as their n face images d_j, j != k, by ``extensions``.

    Faces are assigned in increasing order, so each earlier face i fixes face i
    of face j, and the candidates for face j are fillers of those faces.  Face
    j of the k-complicial n-simplex is a standard simplex when j is k-1 or k+1,
    and otherwise the thin (k - [j < k])-complicial (n-1)-simplex, whose thin
    faces are checked as soon as it is chosen.
    """
    admissible, rows, top = admissible_vertices(n, k), X._rows_up_to(n - 1), X.max_dim()
    inner = {j: _face_paths(n - 1, k - (j < k), top) for j in range(n + 1) if j not in admissible}

    def candidates(j: int, assignment: dict) -> Iterator[Simplex]:
        faces = {i: rows[n - 1][t][j - 1] for i, t in assignment.items()}
        hits, paths = X.fillers(n - 1, faces, j in inner), inner.get(j)
        return (s for s in hits if _unthin_face(rows, s, paths, X.thin) is None) if paths else hits

    return extensions([j for j in range(n + 1) if j != k], candidates)


def _thinness_problems(X: FiniteStratifiedSet, n: int, k: int) -> Iterator[Simplex]:
    """Simplices carrying a map from the primed complicial simplex."""
    rows, paths, thin = X._rows_up_to(n), _face_paths(n, k, X.max_dim(), True), X.thin
    for z in rows[n]:
        if (z.word or z.cell in thin) and _unthin_face(rows, z, paths, thin) is None:
            yield z


def rlp_report(X: FiniteStratifiedSet, dmax: int, mode: str = "inner") -> LiftingReport:
    """Check the right lifting property against the elementary extensions.

    Horn instances run for 1 <= n <= dmax and thinness instances for
    2 <= n <= dmax, k inner (0 < k < n) for mode "inner" and any k in [n] for
    "all"; any other mode is refused with BadParams before any check.  A horn
    problem, a horn map as face index -> simplex, needs a thin filler; a
    thinness problem, a simplex carrying a map from the primed complicial
    simplex, needs a thin face through k.  Above the storage cap a report is
    exact only for a set complete at its cap, whose simplices there are
    degeneracies of stored cells.  A truncation, such as a nerve or
    ``from_category(cat, D)``, lacks its cells above D as horn faces and as
    fillers alike, so a report there need not hold of the whole set.
    """
    if mode not in ("inner", "all"):
        raise BadParams(f"unknown mode {mode!r}")
    if dmax < 0:
        raise BadParams(f"dmax must be at least 0, got {dmax}")
    checked, failures = [], []
    for kind, low, search in (("horn", 1, _horn_problems), ("thinness", 2, _thinness_problems)):
        for n in range(low, dmax + 1):
            for k in range(1, n) if mode == "inner" else range(n + 1):
                name, count = f"{kind}[{n},{k}]", 0
                for problem in search(X, n, k):
                    count += 1
                    if kind == "horn" and next(X.fillers(n, problem, True), None) is None:
                        faces = {str(j): simplex_to_json(s) for j, s in sorted(problem.items())}
                        failures.append({"instance": name, "faces": faces})
                    elif kind == "thinness" and not X.is_thin(X.face(problem, k)):
                        simplex = simplex_to_json(problem)
                        failures.append({"instance": name, "simplex": simplex})
                checked.append((name, count))
    return LiftingReport(checked, failures)


# -- certificates -------------------------------------------------------------


STEP_KINDS = ("horn", "thinness", "thin-horn")


class Step(NamedTuple):
    """One elementary-anodyne pushout: a ``horn`` step glues the thin top cell
    ``attach`` along its k-horn, a ``thinness`` step flags the face through k of
    the present top cell, and a ``thin-horn`` step (the paper's thin horns) is a
    horn step followed by a thinness step."""

    kind: str
    n: int
    k: int
    attach: Hashable  # image of the top cell: a nondegenerate cell of the ambient


class AnodyneCertificate(NamedTuple):
    ambient: FiniteStratifiedSet
    start: SubsetHandle
    finish: SubsetHandle
    steps: tuple[Step, ...]
    note: str = ""


def _start_problem(Z: FiniteStratifiedSet, start: SubsetHandle) -> str | None:
    """The first way start breaks the invariants every step keeps, or None: its
    cells are cells of Z, its flags are thin in Z, and it is face-closed."""
    for c in start.members:
        if c not in Z.dims:
            return f"start names unknown cell {c!r}"
    if not start.thin_members <= start.members & Z.thin:
        return "start thin flags exceed the ambient stratification"
    for c in Z.cells():
        if c in start.members and any(s.cell not in start.members for s in Z.faces[c]):
            return f"start is not face-closed at {c!r}"
    return None


def _step_violation(
    Z: FiniteStratifiedSet, members: frozenset, flags: frozenset, step: Step
) -> str | None:
    """Why step does not extend the subset (members, flags) of Z, or None."""
    if step.kind not in STEP_KINDS:
        return f"unknown step kind {step.kind!r}"
    n, k, cell = step.n, step.k, step.attach
    if n < 1 or not 0 <= k <= n:
        return f"step (n, k) = {(n, k)} needs n >= 1 and 0 <= k <= n"
    if cell not in Z.dims:
        return f"attach cell {cell!r} not in ambient"
    if Z.dims[cell] != n:
        return f"attach cell has dimension {Z.dims[cell]}, expected {n}"
    if step.kind != "thinness":
        if cell not in Z.thin:
            return "top cell image is not thin in the ambient"
        if cell in members:
            return "top cell image already present"
        for j in range(n + 1):
            if j != k and Z.faces[cell][j].cell not in members:
                face = [v for v in range(n + 1) if v != j]
                return f"horn face {face} not inside the current subset"
        paths = _face_paths(n, k, Z.max_dim())
        alpha = _unthin_face(Z._rows_up_to(n), Simplex(cell), paths, flags)
        if alpha is not None:
            return f"thin horn face {list(alpha.values)} lacks its thin flag"
        missing = Z.faces[cell][k]
        if missing.is_degenerate:
            return "face through k is degenerate"
        if missing.cell in members:
            return "face through k already present"
        if step.kind == "horn":
            return None
        members, flags = _applied(Z, members, flags, Step("horn", n, k, cell))
    if n < 2:
        return "thinness extensions need n >= 2"
    if cell not in members:
        return "top cell not inside the current subset"
    if not Z.is_thin(Z.faces[cell][k]):
        return "face through k is not thin in the ambient"
    if cell not in flags:
        return "top cell lacks its thin flag"
    paths = _face_paths(n, k, Z.max_dim(), True)
    alpha = _unthin_face(Z._rows_up_to(n), Simplex(cell), paths, flags)
    if alpha is not None:
        return f"thin face {list(alpha.values)} of the primed simplex lacks its thin flag"
    return None


def _applied(
    Z: FiniteStratifiedSet, members: frozenset, flags: frozenset, step: Step
) -> tuple[frozenset, frozenset]:
    """The subset (members, flags) after a step that _step_violation passes."""
    kface = Z.faces[step.attach][step.k]
    if step.kind != "thinness":
        members, flags = members | {step.attach, kface.cell}, flags | {step.attach}
    if step.kind != "horn" and not kface.is_degenerate:
        flags = flags | {kface.cell}
    return members, flags


def replay_states(cert: AnodyneCertificate):
    """Yield (step, members, flags) after each verified step of the tower.

    Raises BadParams if the start breaks the invariants, and StepViolation at
    the first step that fails its side conditions.
    """
    Z, members, flags = cert.ambient, cert.start.members, cert.start.thin_members
    problem = _start_problem(Z, cert.start)
    if problem is not None:
        raise BadParams(problem)
    for idx, step in enumerate(cert.steps):
        err = _step_violation(Z, members, flags, step)
        if err is not None:
            raise StepViolation(idx, err)
        members, flags = _applied(Z, members, flags, step)
        yield step, members, flags


def verify_certificate(cert: AnodyneCertificate) -> list[str]:
    """Replay the tower; the empty report means the certificate is valid."""
    members, flags = cert.start.members, cert.start.thin_members
    try:
        for _, members, flags in replay_states(cert):
            pass
    except (BadParams, StepViolation) as exc:
        return [str(exc)]
    problems = []
    if members != cert.finish.members:
        problems.append("final members differ from the stated finish")
    if flags != cert.finish.thin_members:
        problems.append("final thin flags differ from the stated finish")
    return problems


# -- the builtin towers of the paper-scale examples --------------------------


def builtin_certificates() -> list[AnodyneCertificate]:
    """The four hand-written towers, every one verified by the test suite.

    The two square towers fill the extra 2-cells of C^1_2 and C^2_2; the
    eight-step tower decomposes the 3-cube horn inclusion through the
    intermediate regular subsets V1..V7, and the single thinness step
    upgrades C^2_3 to its hatted entire superset.
    """
    certs: list[AnodyneCertificate] = []

    # the squares C^1_2 and its dual C^2_2 attach the same two cells in opposite orders
    for k, first, second in ((1, (2, 1), (1, 2)), (2, (1, 2), (2, 1))):
        C = big_C(2, k)
        certs.append(
            AnodyneCertificate(
                ambient=C,
                start=big_H(2, k),
                finish=SubsetHandle(C, frozenset(C.dims), C.thin),
                steps=(Step("horn", 2, 1, Coords(first)), Step("horn", 2, 0, Coords(second))),
                note=f"square horn, k={k}",
            )
        )

    # 3-cube horn through the V tower
    Chat = hatted_C23()
    H23 = big_H(3, 2)
    start = SubsetHandle(Chat, H23.members, H23.members & Chat.thin)
    certs.append(
        AnodyneCertificate(
            ambient=Chat,
            start=start,
            finish=SubsetHandle(Chat, frozenset(Chat.dims), Chat.thin),
            steps=(
                Step("horn", 2, 1, Coords((1, 1, 2))),
                Step("thin-horn", 3, 2, Coords((1, 2, 3))),
                Step("horn", 3, 1, Coords((1, 3, 2))),
                Step("horn", 3, 2, Coords((2, 3, 1))),
                Step("horn", 3, 1, Coords((3, 2, 1))),
                Step("horn", 2, 1, Coords((1, PLUS, 2))),
                Step("thin-horn", 3, 2, Coords((2, 1, 3))),
                Step("horn", 3, 0, Coords((3, 1, 2))),
            ),
            note="3-cube horn via the V tower",
        )
    )

    # single thinness upgrade from C^2_3 to its hatted superset
    C23 = big_C(3, 2)
    certs.append(
        AnodyneCertificate(
            ambient=Chat,
            start=SubsetHandle(Chat, frozenset(Chat.dims), C23.thin),
            finish=SubsetHandle(Chat, frozenset(Chat.dims), Chat.thin),
            steps=(Step("thinness", 3, 2, Coords((2, 1, 3))),),
            note="thinness upgrade to the hatted cube",
        )
    )
    return certs


def hatted_C23() -> FiniteStratifiedSet:
    """C^2_3 with the square special through (0,0,0)<(0,1,0)<(1,1,1) made thin."""
    return make_thin(big_C(3, 2), [Coords((2, 1, 2))])


# -- tower search --------------------------------------------------------------


def search_tower(
    start: SubsetHandle, finish: SubsetHandle, budget: int
) -> AnodyneCertificate | None:
    """Depth-first search by ``extensions`` for a tower from start to finish, or None.

    A step adds the same cells and flags to any subset it extends, and subsets
    only grow, so the candidates are the horn and thinness steps that add a
    flag and nothing outside finish - start, by cell in the ambient's order,
    then k, horn first.  Each adds one flag: a tower has a slot per flag of
    finish - start.  A candidate whose flag is set is skipped unchecked, since
    as a horn step its top cell is present and as a thinness step it keeps the
    subset.  A thin-horn step is never a candidate, since its horn step and then
    its thinness step reach its subset first.  The budget bounds the steps
    applied, and each subset (members, flags) is expanded at most once.
    """
    if start.ambient is not finish.ambient:
        raise UnknownCell("start and finish live in different ambient sets")
    Z, target = start.ambient, (finish.members, finish.thin_members)
    gained = (target[0] - start.members, target[1] - start.thin_members)
    inside = start.members <= target[0] and start.thin_members <= target[1]
    if _start_problem(Z, start) is not None or not inside:
        return None
    steps = []
    for c, k in ((c, k) for c in Z.cells() if Z.dims[c] for k in range(Z.dims[c] + 1)):
        for step in (Step("horn", Z.dims[c], k, c), Step("thinness", Z.dims[c], k, c)):
            members, flags = _applied(Z, frozenset(), frozenset(), step)
            if flags and members <= gained[0] and flags <= gained[1]:
                steps.append((step, *flags))
    states = [(start.members, start.thin_members)] * (len(gained[1]) + 1)
    expanded = set()
    attempts = 0

    def candidates(slot: int, assignment: dict) -> Iterator[Step]:
        nonlocal attempts
        members, flags = states[slot]
        expanded.add(states[slot])
        for step, flag in steps:
            if flag not in flags and _step_violation(Z, members, flags, step) is None:
                states[slot + 1] = _applied(Z, members, flags, step)
                if states[slot + 1] not in expanded:
                    attempts += 1
                    if attempts <= budget:
                        yield step
                    if attempts > budget:
                        return

    for assignment in extensions(range(len(gained[1])), candidates):
        if states[-1] == target:
            found = tuple(assignment.values())
            cert = AnodyneCertificate(Z, start, finish, found, note="found by search")
            return cert if not verify_certificate(cert) else None
        expanded.add(states[-1])
    return None


# -- JSON ----------------------------------------------------------------------


def certificate_to_json(cert: AnodyneCertificate) -> dict:
    return {
        "ambient": set_to_json(cert.ambient),
        "start": subset_to_json(cert.start),
        "finish": subset_to_json(cert.finish),
        "steps": [
            {"kind": s.kind, "n": s.n, "k": s.k, "attach": str(s.attach)}
            for s in cert.steps
        ],
        "note": cert.note,
    }


def tower_problem_from_json(data, path: str) -> tuple[SubsetHandle, SubsetHandle]:
    """The start and finish subsets of {ambient, start, finish}, in one ambient set."""
    Z = set_from_json(json_field(data, "ambient", dict, path), f"{path}.ambient")
    start = subset_from_json(Z, json_field(data, "start", dict, path), f"{path}.start")
    return start, subset_from_json(Z, json_field(data, "finish", dict, path), f"{path}.finish")


def _step_from_json(data, path: str) -> Step:
    kind = json_field(data, "kind", str, path)
    if kind not in STEP_KINDS:
        raise ParseError(f"{path}: unknown step kind {kind!r}; choose from {sorted(STEP_KINDS)}")
    n = json_field(data, "n", int, path)
    if n < 1:
        raise ParseError(f"{path}.n: must be at least 1")
    k = json_field(data, "k", int, path)
    if not 0 <= k <= n:
        raise ParseError(f"{path}.k: must be in 0..{n}")
    return Step(kind, n, k, json_field(data, "attach", str, path))


def certificate_from_json(data) -> AnodyneCertificate:
    start, finish = tower_problem_from_json(data, "certificate")
    steps = tuple(
        _step_from_json(s, f"certificate.steps[{i}]")
        for i, s in enumerate(json_field(data, "steps", list, "certificate"))
    )
    note = json_field(data, "note", str, "certificate", "")
    return AnodyneCertificate(start.ambient, start, finish, steps, note)
