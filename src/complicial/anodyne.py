"""Lifting reports and certified anodyne towers.

One enumerator, ``_instances``, lists every horn[n,k] and thinness[n,k]
instance with its lifting problems, and one filler search, ``_fillers``,
yields the thin n-simplices with given faces.  ``rlp_report`` and the
relative ``enriched.local_fibration_check`` both consume these two.

One replayer, ``_apply_step``, checks an elementary-anodyne pushout step
against the pair (members, thin flags) inside a fixed ambient set and
applies it; ``replay_states``, ``verify_certificate`` and ``search_tower``
run on it.  A horn step glues a thin top cell along a horn that must already
be present; a thinness step upgrades one face to thin.  The side conditions
are exactly those making the enlarged subset a genuine pushout of the
elementary extension, so a passing certificate is a machine-checked anodyne
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import BadParams, ParseError, StepViolation, UnknownCell
from .operators import Operator, admissible_vertices, all_injections, delta
from .stratified import (
    FiniteStratifiedSet,
    Simplex,
    SubsetHandle,
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


def _admissible_proper_faces(n: int, k: int) -> list[Operator]:
    """Injective proper faces of [n] whose image covers k-1, k, k+1."""
    needed = admissible_vertices(n, k)
    out = []
    for m in range(n):
        for alpha in all_injections(m, n):
            if needed <= set(alpha.values):
                out.append(alpha)
    return out


def _horn_faces(n: int, k: int) -> list[Operator]:
    """Injective faces lying in the k-horn (image misses some i != k)."""
    out = []
    for m in range(n):
        for alpha in all_injections(m, n):
            img = set(alpha.values)
            if any(i not in img for i in range(n + 1) if i != k):
                out.append(alpha)
    return out


def _horn_problems(X: FiniteStratifiedSet, n: int, k: int) -> Iterator[dict]:
    """Enumerate horn maps as tuples of the n-1 face images, backtracking."""
    face_idx = [j for j in range(n + 1) if j != k]
    admissible = admissible_vertices(n, k)
    cells = list(X.simplices_of_dim(n - 1))
    deep_thin = [
        alpha
        for alpha in _admissible_proper_faces(n, k)
        if alpha.n < n - 1
    ]

    assignment: dict[int, Simplex] = {}

    def compatible(j: int, s: Simplex) -> bool:
        # thinness of the horn: face j is admissible unless vertex j is
        if j not in admissible and not X.is_thin(s):
            return False
        # simplicial compatibility with already assigned faces
        for i, t in assignment.items():
            if i < j:
                lhs = X.act(s, delta(n - 1, i))
                rhs = X.act(t, delta(n - 1, j - 1))
            else:
                lhs = X.act(s, delta(n - 1, i - 1))
                rhs = X.act(t, delta(n - 1, j))
            if lhs != rhs:
                return False
        return True

    def deep_thin_ok() -> bool:
        # smaller admissible faces of the horn must land thin as well
        for alpha in deep_thin:
            j = next(i for i in range(n + 1) if i != k and i not in alpha.values)
            vals = tuple(v if v < j else v - 1 for v in alpha.values)
            img = X.act(assignment[j], Operator(alpha.n, n - 1, vals))
            if not X.is_thin(img):
                return False
        return True

    def search(pos: int) -> Iterator[dict]:
        if pos == len(face_idx):
            if deep_thin_ok():
                yield dict(assignment)
            return
        j = face_idx[pos]
        for s in cells:
            if compatible(j, s):
                assignment[j] = s
                yield from search(pos + 1)
                del assignment[j]

    yield from search(0)


def _thinness_problems(X: FiniteStratifiedSet, n: int, k: int) -> Iterator[Simplex]:
    """Simplices carrying a map from the primed complicial simplex."""
    primed = admissible_vertices(n, k) - {k}
    admissible = _admissible_proper_faces(n, k)
    for z in X.simplices_of_dim(n):
        if not X.is_thin(z):
            continue
        if any(not X.is_thin(X.act(z, alpha)) for alpha in admissible):
            continue
        if any(not X.is_thin(X.act(z, delta(n, j))) for j in primed):
            continue
        yield z


def _fillers(X: FiniteStratifiedSet, n: int, faces: dict[int, Simplex]) -> Iterator[Simplex]:
    """The thin n-simplices of X whose jth face is faces[j] for every given j."""
    for z in X.simplices_of_dim(n):
        if X.is_thin(z) and all(X.act(z, delta(n, j)) == s for j, s in faces.items()):
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
                if next(_fillers(X, n, problem), None) is None:
                    report.failures.append(
                        {
                            "instance": name,
                            "faces": {
                                str(j): {"cell": s.cell, "word": list(s.word)}
                                for j, s in sorted(problem.items())
                            },
                        }
                    )
            elif not X.is_thin(X.act(problem, delta(n, k))):
                report.failures.append(
                    {
                        "instance": name,
                        "simplex": {"cell": problem.cell, "word": list(problem.word)},
                    }
                )
        report.checked.append((name, count))
    return report


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class HornPushout:
    n: int
    k: int
    attach: str  # image of the top cell: a nondegenerate cell of the ambient

    kind = "horn"


@dataclass(frozen=True)
class ThinnessPushout:
    n: int
    k: int
    attach: str

    kind = "thinness"


@dataclass(frozen=True)
class ThinHornPushout:
    """Macro for the paper's thin horns: a horn step then a thinness step."""

    n: int
    k: int
    attach: str

    kind = "thin-horn"


Step = Union[HornPushout, ThinnessPushout, ThinHornPushout]


@dataclass
class AnodyneCertificate:
    ambient: FiniteStratifiedSet
    start: SubsetHandle
    finish: SubsetHandle
    steps: tuple[Step, ...]
    note: str = ""


class _State:
    def __init__(self, members: frozenset[str], flags: frozenset[str]):
        self.members = set(members)
        self.flags = set(flags)

    def simplex_present(self, s: Simplex) -> bool:
        return s.cell in self.members

    def simplex_thin(self, s: Simplex) -> bool:
        return s.is_degenerate or s.cell in self.flags


def _check_horn_step(Z: FiniteStratifiedSet, state: _State, step) -> str | None:
    n, k = step.n, step.k
    if step.attach not in Z.dims:
        return f"attach cell {step.attach!r} not in ambient"
    if Z.dims[step.attach] != n:
        return f"attach cell has dimension {Z.dims[step.attach]}, expected {n}"
    top = Simplex(step.attach)
    if not Z.is_thin(top):
        return "top cell image is not thin in the ambient"
    for alpha in _admissible_proper_faces(n, k):
        if not Z.is_thin(Z.act(top, alpha)):
            return f"admissible face {list(alpha.values)} lands on a non-thin simplex"
    admissible = admissible_vertices(n, k)
    for alpha in _horn_faces(n, k):
        img = Z.act(top, alpha)
        if not state.simplex_present(img):
            return f"horn face {list(alpha.values)} not inside the current subset"
        if admissible <= set(alpha.values) and not state.simplex_thin(img):
            return f"thin horn face {list(alpha.values)} lacks its thin flag"
    if step.attach in state.members:
        return "top cell image already present"
    missing = Z.act(top, delta(n, k))
    if missing.is_degenerate:
        return "face through k is degenerate"
    if missing.cell in state.members:
        return "face through k already present"
    state.members.add(step.attach)
    state.members.add(missing.cell)
    state.flags.add(step.attach)
    return None


def _check_thinness_step(Z: FiniteStratifiedSet, state: _State, step) -> str | None:
    n, k = step.n, step.k
    if n < 2:
        return "thinness extensions need n >= 2"
    if step.attach not in Z.dims or Z.dims[step.attach] != n:
        return f"attach cell {step.attach!r} missing or of wrong dimension"
    top = Simplex(step.attach)
    if step.attach not in state.members:
        return "top cell not inside the current subset"
    kface = Z.act(top, delta(n, k))
    if not Z.is_thin(kface):
        return "face through k is not thin in the ambient"
    if not state.simplex_thin(top):
        return "top cell lacks its thin flag"
    primed = admissible_vertices(n, k) - {k}
    for alpha in _admissible_proper_faces(n, k):
        img = Z.act(top, alpha)
        if not state.simplex_present(img):
            return f"face {list(alpha.values)} not inside the current subset"
        if not state.simplex_thin(img):
            return f"admissible face {list(alpha.values)} lacks its thin flag"
    for j in range(n + 1):
        img = Z.act(top, delta(n, j))
        if not state.simplex_present(img):
            return f"face {j} not inside the current subset"
        if j in primed and not state.simplex_thin(img):
            return f"primed face {j} lacks its thin flag"
    if not kface.is_degenerate:
        state.flags.add(kface.cell)
    return None


def _apply_step(Z: FiniteStratifiedSet, state: _State, step) -> str | None:
    """Check one step against the state and apply it; returns the violation, if any."""
    if isinstance(step, HornPushout):
        return _check_horn_step(Z, state, step)
    if isinstance(step, ThinnessPushout):
        return _check_thinness_step(Z, state, step)
    if isinstance(step, ThinHornPushout):
        return _check_horn_step(Z, state, step) or _check_thinness_step(Z, state, step)
    return f"unknown step kind {step!r}"


def replay_states(cert: AnodyneCertificate):
    """Yield (step, members, flags) after each verified step of the tower.

    Raises StepViolation at the first step that fails its side conditions.
    """
    state = _State(cert.start.members, cert.start.thin_members)
    for idx, step in enumerate(cert.steps):
        err = _apply_step(cert.ambient, state, step)
        if err is not None:
            raise StepViolation(idx, err)
        yield step, frozenset(state.members), frozenset(state.flags)


def verify_certificate(cert: AnodyneCertificate) -> list[str]:
    """Replay the tower; the empty report means the certificate is valid."""
    Z = cert.ambient
    for c in cert.start.members:
        if c not in Z.dims:
            return [f"start names unknown cell {c!r}"]
    if not cert.start.thin_members <= cert.start.members & Z.thin:
        return ["start thin flags exceed the ambient stratification"]
    for c in cert.start.members:
        if Z.dims[c] >= 1:
            for s in Z.faces[c]:
                if s.cell not in cert.start.members:
                    return [f"start is not face-closed at {c!r}"]
    members, flags = cert.start.members, cert.start.thin_members
    try:
        for _, members, flags in replay_states(cert):
            pass
    except StepViolation as exc:
        return [str(exc)]
    problems = []
    if members != cert.finish.members:
        problems.append("final members differ from the stated finish")
    if flags != cert.finish.thin_members:
        problems.append("final thin flags differ from the stated finish")
    return problems


def replay_members(cert: AnodyneCertificate) -> tuple[frozenset[str], frozenset[str]]:
    """Independent recount of the cells and flags a passing tower created."""
    Z = cert.ambient
    members = set(cert.start.members)
    flags = set(cert.start.thin_members)
    for step in cert.steps:
        top = Simplex(step.attach)
        if isinstance(step, (HornPushout, ThinHornPushout)):
            members.add(step.attach)
            flags.add(step.attach)
            kface = Z.act(top, delta(step.n, step.k))
            members.add(kface.cell)
        if isinstance(step, (ThinnessPushout, ThinHornPushout)):
            kface = Z.act(top, delta(step.n, step.k))
            if not kface.is_degenerate:
                flags.add(kface.cell)
    return frozenset(members), frozenset(flags)


# -- the builtin towers of the paper-scale examples --------------------------


def builtin_certificates() -> list[AnodyneCertificate]:
    """The four hand-written towers, every one verified by the test suite.

    The two square towers fill the extra 2-cells of C^1_2 and C^2_2; the
    eight-step tower decomposes the 3-cube horn inclusion through the
    intermediate regular subsets V1..V7, and the single thinness step
    upgrades C^2_3 to its hatted entire superset.
    """
    from .shapes import big_C, big_H

    certs: list[AnodyneCertificate] = []

    # square, k = 1
    C12 = big_C(2, 1)
    certs.append(
        AnodyneCertificate(
            ambient=C12,
            start=big_H(2, 1),
            finish=SubsetHandle(C12, frozenset(C12.dims), C12.thin),
            steps=(HornPushout(2, 1, "2,1"), HornPushout(2, 0, "1,2")),
            note="square horn, k=1",
        )
    )

    # square, k = 2 (dual)
    C22 = big_C(2, 2)
    certs.append(
        AnodyneCertificate(
            ambient=C22,
            start=big_H(2, 2),
            finish=SubsetHandle(C22, frozenset(C22.dims), C22.thin),
            steps=(HornPushout(2, 1, "1,2"), HornPushout(2, 0, "2,1")),
            note="square horn, k=2",
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
                HornPushout(2, 1, "1,1,2"),
                ThinHornPushout(3, 2, "1,2,3"),
                HornPushout(3, 1, "1,3,2"),
                HornPushout(3, 2, "2,3,1"),
                HornPushout(3, 1, "3,2,1"),
                HornPushout(2, 1, "1,+,2"),
                ThinHornPushout(3, 2, "2,1,3"),
                HornPushout(3, 0, "3,1,2"),
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
            steps=(ThinnessPushout(3, 2, "2,1,3"),),
            note="thinness upgrade to the hatted cube",
        )
    )
    return certs


def hatted_C23() -> FiniteStratifiedSet:
    """C^2_3 with the square special through (0,0,0)<(0,1,0)<(1,1,1) made thin."""
    from .shapes import big_C, make_thin

    return make_thin(big_C(3, 2), ["2,1,2"])


def v_tower_generators() -> list[tuple[str, str]]:
    """The generating cells of the intermediate subsets, as (name, cell id)."""
    return [
        ("V1", "1,1,2"),
        ("V2", "1,2,3"),
        ("V3", "1,3,2"),
        ("V4", "2,3,1"),
        ("V5", "3,2,1"),
        ("V6", "1,+,2"),
        ("V7", "2,1,3"),
        ("full", "3,1,2"),
    ]


# -- tower search --------------------------------------------------------------


def search_tower(
    start: SubsetHandle, finish: SubsetHandle, budget: int
) -> AnodyneCertificate | None:
    """Backtracking search for a tower from start to finish, or None.

    Candidate steps are tried in the deterministic order (dimension, cell,
    k, kind); the budget bounds the number of candidate applications.
    """
    if start.ambient is not finish.ambient:
        raise UnknownCell("start and finish live in different ambient sets")
    Z = start.ambient
    target_members = set(finish.members)
    target_flags = set(finish.thin_members)
    attempts = 0

    def candidates(state: _State):
        for cell in Z.cells():
            d = Z.dims[cell]
            if d < 1:
                continue
            for k in range(d + 1):
                if cell not in state.members and cell in target_members:
                    for kind in (HornPushout, ThinHornPushout):
                        yield kind(d, k, cell)
                if cell in state.members and d >= 2:
                    yield ThinnessPushout(d, k, cell)

    def admissible(state: _State, step) -> _State | None:
        trial = _State(state.members, state.flags)
        if _apply_step(Z, trial, step) is not None:
            return None
        if isinstance(step, ThinnessPushout) and trial.flags == state.flags:
            return None  # a thinness step that flags nothing new is a no-op
        if not trial.members <= target_members or not trial.flags <= target_flags:
            return None
        return trial

    def dfs(state: _State, steps: list) -> tuple[Step, ...] | None:
        nonlocal attempts
        if state.members == target_members and state.flags == target_flags:
            return tuple(steps)
        for step in candidates(state):
            nxt = admissible(state, step)
            if nxt is None:
                continue
            attempts += 1
            if attempts > budget:
                return None
            steps.append(step)
            found = dfs(nxt, steps)
            if found is not None:
                return found
            steps.pop()
            if attempts > budget:
                return None
        return None

    found = dfs(_State(start.members, start.thin_members), [])
    if found is None:
        return None
    cert = AnodyneCertificate(Z, start, finish, found, note="found by search")
    return cert if not verify_certificate(cert) else None


# -- JSON ----------------------------------------------------------------------


def certificate_to_json(cert: AnodyneCertificate) -> dict:
    from .stratified import set_to_json

    return {
        "ambient": set_to_json(cert.ambient),
        "start": {
            "members": sorted(cert.start.members),
            "thin": sorted(cert.start.thin_members),
        },
        "finish": {
            "members": sorted(cert.finish.members),
            "thin": sorted(cert.finish.thin_members),
        },
        "steps": [
            {"kind": s.kind, "n": s.n, "k": s.k, "attach": s.attach}
            for s in cert.steps
        ],
        "note": cert.note,
    }


def certificate_from_json(data: dict) -> AnodyneCertificate:
    from .stratified import set_from_json

    Z = set_from_json(data["ambient"])
    kinds = {"horn": HornPushout, "thinness": ThinnessPushout, "thin-horn": ThinHornPushout}
    for s in data["steps"]:
        if s["kind"] not in kinds:
            raise ParseError(f"unknown step kind {s['kind']!r}; choose from {sorted(kinds)}")
    steps = tuple(
        kinds[s["kind"]](s["n"], s["k"], s["attach"]) for s in data["steps"]
    )
    start = SubsetHandle(
        Z, frozenset(data["start"]["members"]), frozenset(data["start"]["thin"])
    )
    finish = SubsetHandle(
        Z, frozenset(data["finish"]["members"]), frozenset(data["finish"]["thin"])
    )
    return AnodyneCertificate(Z, start, finish, steps, data.get("note", ""))
