"""Lifting reports and certified anodyne towers.

One enumerator, ``_instances``, lists every horn[n,k] and thinness[n,k]
instance with its lifting problems; ``rlp_report`` consumes it, and looks
for thin fillers through ``FiniteStratifiedSet.fillers``.  Horn enumeration runs on
``fillers`` too: each face of a horn map is a filler of the faces it shares
with the faces chosen before it.

One pure check, ``_step_violation``, decides whether an elementary-anodyne
pushout ``Step`` extends a subset (members, thin flags) of a fixed ambient
set, and ``_applied`` builds the extended subset; ``replay_states``,
``verify_certificate`` and ``search_tower`` run on the pair.  A horn step glues
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

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Hashable, Iterator

from .errors import BadParams, ParseError, StepViolation, UnknownCell
from .operators import PLUS, Operator, admissible_vertices, all_injections, delta
from .shapes import Coords, big_C, big_H
from .stratified import (
    FiniteStratifiedSet,
    Simplex,
    SubsetHandle,
    json_field,
    make_thin,
    set_from_json,
    set_to_json,
    simplex_to_json,
    subset_from_json,
    subset_to_json,
)

# -- lifting reports ---------------------------------------------------------


@dataclass
class LiftingReport:
    checked: list[tuple[str, int]] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "pass": self.ok,
            "checked": [{"instance": name, "problems": n} for name, n in self.checked],
            "failures": self.failures,
        }


def _ks_for_mode(n: int, mode: str) -> list[int]:
    if mode == "inner":
        return list(range(1, n))
    if mode == "all":
        return list(range(n + 1))
    raise BadParams(f"unknown mode {mode!r}")


@lru_cache(maxsize=None)
def _thin_faces(n: int, k: int, top: int, primed: bool = False) -> tuple[Operator, ...]:
    """The proper faces of [n] up to dimension top that the k-complicial n-simplex
    makes thin, those covering k-1, k, k+1, and with primed also d_{k-1}, d_{k+1}.
    Above the top dimension of a set every simplex is degenerate, hence thin."""
    needed = admissible_vertices(n, k)
    primed_missing = needed - {k} if primed else frozenset()
    return tuple(
        alpha
        for m in range(min(n, top + 1))
        for alpha in all_injections(m, n)
        if needed <= set(alpha.values) or (m == n - 1 and not primed_missing <= set(alpha.values))
    )


def _unthin_face(X: FiniteStratifiedSet, s: Simplex, faces, thin) -> Operator | None:
    """The first of faces whose image under s is neither degenerate nor in thin, or None."""
    for alpha in faces:
        img = X.act(s, alpha)
        if not img.is_degenerate and img.cell not in thin:
            return alpha
    return None


def _horn_problems(X: FiniteStratifiedSet, n: int, k: int) -> Iterator[dict]:
    """Enumerate horn maps as their n face images d_j, j != k, backtracking.

    Faces are assigned in increasing order, so each earlier face i fixes face i
    of face j, and the candidates for face j are fillers of those faces.  Face
    j of the k-complicial n-simplex is a standard simplex when j is k-1 or k+1,
    and otherwise the thin (k - [j < k])-complicial (n-1)-simplex, whose thin
    faces are checked as soon as it is chosen.
    """
    face_idx = [j for j in range(n + 1) if j != k]
    admissible = admissible_vertices(n, k)
    assignment: dict[int, Simplex] = {}

    def search(pos: int) -> Iterator[dict]:
        if pos == len(face_idx):
            yield dict(assignment)
            return
        j = face_idx[pos]
        thin = j not in admissible
        inner = _thin_faces(n - 1, k - (j < k), X.max_dim()) if thin else ()
        faces = {i: X.act(t, delta(n - 1, j - 1)) for i, t in assignment.items()}
        for s in X.fillers(n - 1, faces, thin):
            if _unthin_face(X, s, inner, X.thin) is None:
                assignment[j] = s
                yield from search(pos + 1)
                del assignment[j]

    yield from search(0)


def _thinness_problems(X: FiniteStratifiedSet, n: int, k: int) -> Iterator[Simplex]:
    """Simplices carrying a map from the primed complicial simplex."""
    faces = _thin_faces(n, k, X.max_dim(), primed=True)
    for z in X.simplices_of_dim(n):
        if X.is_thin(z) and _unthin_face(X, z, faces, X.thin) is None:
            yield z


def _instances(X: FiniteStratifiedSet, dmax: int, mode: str) -> Iterator[tuple]:
    """Every lifting instance up to dmax as (name, n, k, problems), in report order.

    A horn problem is a horn map, as face index -> simplex; a thinness
    problem is a simplex carrying a map from the primed complicial simplex.
    """
    for n in range(1, dmax + 1):
        for k in _ks_for_mode(n, mode):
            yield f"horn[{n},{k}]", n, k, _horn_problems(X, n, k)
    for n in range(2, dmax + 1):
        for k in _ks_for_mode(n, mode):
            yield f"thinness[{n},{k}]", n, k, _thinness_problems(X, n, k)


def rlp_report(X: FiniteStratifiedSet, dmax: int, mode: str = "inner") -> LiftingReport:
    """Check the right lifting property against the elementary extensions.

    Horn instances run for 1 <= n <= dmax and thinness instances for
    2 <= n <= dmax, with k inner or unrestricted according to mode.
    Dimensions beyond the storage cap are still exact: every simplex up
    there is a degeneracy of a stored cell.
    """
    report = LiftingReport()
    for name, n, k, problems in _instances(X, dmax, mode):
        horn = name.startswith("horn")
        count = 0
        for problem in problems:
            count += 1
            if horn:
                if next(X.fillers(n, problem, True), None) is None:
                    faces = {str(j): simplex_to_json(s) for j, s in sorted(problem.items())}
                    report.failures.append({"instance": name, "faces": faces})
            elif not X.is_thin(X.act(problem, delta(n, k))):
                report.failures.append({"instance": name, "simplex": simplex_to_json(problem)})
        report.checked.append((name, count))
    return report


# -- certificates -------------------------------------------------------------


STEP_KINDS = ("horn", "thinness", "thin-horn")


@dataclass(frozen=True)
class Step:
    """One elementary-anodyne pushout: a ``horn`` step glues the thin top cell
    ``attach`` along its k-horn, a ``thinness`` step flags the face through k of
    the present top cell, and a ``thin-horn`` step (the paper's thin horns) is a
    horn step followed by a thinness step."""

    kind: str
    n: int
    k: int
    attach: Hashable  # image of the top cell: a nondegenerate cell of the ambient


@dataclass
class AnodyneCertificate:
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
        if c in start.members and any(s.cell not in start.members for s in Z.faces.get(c, ())):
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
        alpha = _unthin_face(Z, Simplex(cell), _thin_faces(n, k, Z.max_dim()), flags)
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
    alpha = _unthin_face(Z, Simplex(cell), _thin_faces(n, k, Z.max_dim(), primed=True), flags)
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
    """Depth-first search for a tower from start to finish, or None.

    Every step (cell, k, kind) is a candidate, tried in that order with the
    cells in the ambient's order.  The budget bounds the steps applied, and
    each subset (members, flags) is expanded at most once.
    """
    if start.ambient is not finish.ambient:
        raise UnknownCell("start and finish live in different ambient sets")
    Z = start.ambient
    if _start_problem(Z, start) is not None:
        return None
    target = (finish.members, finish.thin_members)
    candidates = [
        Step(kind, Z.dims[c], k, c) for c in Z.cells() for k in range(Z.dims[c] + 1)
        for kind in STEP_KINDS
    ]
    expanded = set()
    attempts = 0

    def dfs(members: frozenset, flags: frozenset, steps: tuple) -> tuple[Step, ...] | None:
        nonlocal attempts
        if (members, flags) == target:
            return steps
        expanded.add((members, flags))
        for step in candidates:
            if _step_violation(Z, members, flags, step) is not None:
                continue
            nxt = _applied(Z, members, flags, step)
            if nxt in expanded or not (nxt[0] <= target[0] and nxt[1] <= target[1]):
                continue
            attempts += 1
            found = None if attempts > budget else dfs(*nxt, steps + (step,))
            if found is not None or attempts > budget:
                return found
        return None

    found = dfs(start.members, start.thin_members, ())
    if found is None:
        return None
    cert = AnodyneCertificate(Z, start, finish, found, note="found by search")
    return cert if not verify_certificate(cert) else None


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
