"""Finitely presented categories enriched in stratified sets.

An enriched category stores a stratified homset for every ordered pair of
objects together with composition maps out of the product tensor.  The
constructor validates the unit and associativity laws exhaustively up to
the dimension cap.  Gray validation runs the lifting report on every
homset; suspensions and nerves of small categories provide the worked
examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import CapExceeded, IllFormedCategory, IllFormedFunctor, LawViolation
from .operators import delta
from .stratified import (
    FiniteStratifiedSet,
    Simplex,
    StratifiedMap,
    gray_product,
    product_pair_simplex,
)


def point_set() -> FiniteStratifiedSet:
    return FiniteStratifiedSet(0, {"*": 0}, {})


def empty_hom() -> FiniteStratifiedSet:
    return FiniteStratifiedSet(0, {}, {})


def degenerate_word(m: int) -> tuple[int, ...]:
    return tuple(range(m - 1, -1, -1))


class EnrichedCategory:
    def __init__(
        self,
        objects,
        homs: Mapping[tuple[str, str], FiniteStratifiedSet],
        identities: Mapping[str, str],
        comp: Mapping[tuple[str, str, str], StratifiedMap],
        dim_cap: int,
    ):
        self.objects = tuple(objects)
        self.homs = dict(homs)
        self.identities = dict(identities)
        self.comp = dict(comp)
        self.dim_cap = dim_cap
        self.gray_validated = False

    def hom(self, a: str, b: str) -> FiniteStratifiedSet:
        return self.homs[(a, b)]

    def identity_simplex(self, a: str, m: int) -> Simplex:
        return Simplex(self.identities[a], degenerate_word(m))

    def compose(self, a: str, b: str, c: str, z_bc: Simplex, z_ab: Simplex) -> Simplex:
        """Image of the pair under the composition map hom(b,c) (*) hom(a,b)."""
        cmap = self.comp[(a, b, c)]
        pair = product_pair_simplex(self.hom(b, c), self.hom(a, b), z_bc, z_ab)
        if pair.cell not in cmap.assignment:
            raise CapExceeded(
                f"composition at {(a, b, c)} undefined beyond the dimension cap"
            )
        return cmap(pair)


def make_enriched(
    objects,
    homs,
    identities,
    comp_maps,
    dim_cap: int,
) -> EnrichedCategory:
    """Assemble and validate an enriched category; raises LawViolation."""
    E = EnrichedCategory(objects, homs, identities, comp_maps, dim_cap)
    for a in E.objects:
        cell = E.identities.get(a)
        if cell is None or E.hom(a, a).dims.get(cell) != 0:
            raise LawViolation(f"identity of {a!r} is not a 0-cell of hom({a},{a})")
    for key, cmap in E.comp.items():
        problems = cmap.validate()
        if problems:
            raise LawViolation(f"composition {key} is not a stratified map: {problems[0]}")
    _check_units(E)
    _check_associativity(E)
    return E


def _check_units(E: EnrichedCategory) -> None:
    for a in E.objects:
        for b in E.objects:
            hom = E.homs.get((a, b))
            if hom is None or not hom.dims:
                continue
            for m in range(E.dim_cap + 1):
                for z in hom.simplices_of_dim(m):
                    left = E.compose(a, a, b, z, E.identity_simplex(a, m))
                    right = E.compose(a, b, b, E.identity_simplex(b, m), z)
                    if left != z or right != z:
                        raise LawViolation(f"unit law fails at {z} in hom({a},{b})")


def _check_associativity(E: EnrichedCategory) -> None:
    for a in E.objects:
        for b in E.objects:
            if not E.homs.get((a, b), empty_hom()).dims:
                continue
            for c in E.objects:
                if not E.homs.get((b, c), empty_hom()).dims:
                    continue
                for d in E.objects:
                    if not E.homs.get((c, d), empty_hom()).dims:
                        continue
                    for m in range(E.dim_cap + 1):
                        for z3 in E.hom(c, d).simplices_of_dim(m):
                            for z2 in E.hom(b, c).simplices_of_dim(m):
                                right = E.compose(b, c, d, z3, z2)
                                for z1 in E.hom(a, b).simplices_of_dim(m):
                                    lhs = E.compose(a, b, d, right, z1)
                                    rhs = E.compose(a, c, d, z3, E.compose(a, b, c, z2, z1))
                                    if lhs != rhs:
                                        raise LawViolation(
                                            f"associativity fails at {(z3, z2, z1)}"
                                        )


# -- suspensions -------------------------------------------------------------


def _collapse_map(P: FiniteStratifiedSet, target: FiniteStratifiedSet, cell: str) -> StratifiedMap:
    assignment = {
        c: Simplex(cell, degenerate_word(P.dims[c])) for c in P.cells()
    }
    return StratifiedMap(P, target, assignment)


def _unit_map(
    P: FiniteStratifiedSet,
    pairs: Mapping[str, tuple[Simplex, Simplex]],
    X: FiniteStratifiedSet,
    left_point: bool,
) -> StratifiedMap:
    """Identify X (*) point (or point (*) X) with X."""
    assignment = {}
    for cid in P.cells():
        sx, sy = pairs[cid]
        assignment[cid] = sy if left_point else sx
    return StratifiedMap(P, X, assignment)


def terminal_enriched() -> EnrichedCategory:
    """One object whose homset is the point."""
    pt = point_set()
    P, _ = gray_product(pt, pt)
    comp = {("*", "*", "*"): _collapse_map(P, pt, "*")}
    return make_enriched(["*"], {("*", "*"): pt}, {"*": "*"}, comp, 0)


def suspension(X: FiniteStratifiedSet) -> EnrichedCategory:
    """Two objects with X as the only nontrivial homset; composition forced."""
    pt = point_set()
    homs = {
        ("0", "0"): pt,
        ("1", "1"): pt,
        ("0", "1"): X,
        ("1", "0"): empty_hom(),
    }
    identities = {"0": "*", "1": "*"}
    comp = {}
    for a in "01":
        for b in "01":
            for c in "01":
                hbc, hab, hac = homs[(b, c)], homs[(a, b)], homs[(a, c)]
                P, pairs = gray_product(hbc, hab, cap=X.dim_cap)
                if not hbc.dims or not hab.dims:
                    comp[(a, b, c)] = StratifiedMap(P, hac, {})
                elif (a, c) == ("0", "1") and (b, c) == ("0", "1"):
                    comp[(a, b, c)] = _unit_map(P, pairs, X, left_point=False)
                elif (a, c) == ("0", "1"):
                    comp[(a, b, c)] = _unit_map(P, pairs, X, left_point=True)
                else:
                    comp[(a, b, c)] = _collapse_map(P, hac, "*")
    return make_enriched(["0", "1"], homs, identities, comp, X.dim_cap)


# -- finite categories and their nerves --------------------------------------


@dataclass(frozen=True)
class FiniteCategory:
    objects: tuple[str, ...]
    arrows: Mapping[str, tuple[str, str]]  # name -> (source, target)
    identities: Mapping[str, str]  # object -> identity arrow
    table: Mapping[tuple[str, str], str]  # (g, f) -> g after f

    def validate(self) -> None:
        for obj, e in self.identities.items():
            if self.arrows.get(e, (None, None)) != (obj, obj):
                raise IllFormedCategory(f"identity of {obj!r} ill-typed")
        for (g, f), h in self.table.items():
            fs, ft = self.arrows[f]
            gs, gt = self.arrows[g]
            hs, ht = self.arrows[h]
            if ft != gs or (hs, ht) != (fs, gt):
                raise IllFormedCategory(f"composite {g} . {f} ill-typed")
        for f, (fs, ft) in self.arrows.items():
            for g, (gs, gt) in self.arrows.items():
                if ft == gs and (g, f) not in self.table:
                    raise IllFormedCategory(f"missing composite {g} . {f}")
            if self.table[(f, self.identities[fs])] != f:
                raise IllFormedCategory(f"right unit fails at {f}")
            if self.table[(self.identities[ft], f)] != f:
                raise IllFormedCategory(f"left unit fails at {f}")
        for (g, f) in self.table:
            for h, (hs, ht) in self.arrows.items():
                if ht == self.arrows[f][0]:
                    if self.table[(self.table[(g, f)], h)] != self.table[(g, self.table[(f, h)])]:
                        raise IllFormedCategory("associativity fails")

    def compose(self, g: str, f: str) -> str:
        return self.table[(g, f)]

    def is_invertible(self, f: str) -> bool:
        fs, ft = self.arrows[f]
        return any(
            self.arrows[g] == (ft, fs)
            and self.table[(g, f)] == self.identities[fs]
            and self.table[(f, g)] == self.identities[ft]
            for g in self.arrows
        )


def _path_id(arrows: tuple[str, ...], start: str) -> str:
    return start + ":" + "|".join(arrows)


def _parse_path(cid: str) -> tuple[str, tuple[str, ...]]:
    start, rest = cid.split(":")
    return start, (tuple(rest.split("|")) if rest else ())


def from_category(cat: FiniteCategory, dim_cap: int) -> FiniteStratifiedSet:
    """The equivalence-stratified nerve of a finite category, truncated."""
    cat.validate()
    dims: dict[str, int] = {}
    faces: dict[str, tuple[Simplex, ...]] = {}
    thin: list[str] = []
    idents = set(cat.identities.values())

    def paths(m: int):
        if m == 0:
            for o in cat.objects:
                yield (o, ())
            return
        for start, body in paths(m - 1):
            cursor = cat.arrows[body[-1]][1] if body else start
            for f, (fs, ft) in cat.arrows.items():
                if fs == cursor and f not in idents:
                    yield (start, body + (f,))

    for m in range(dim_cap + 1):
        for start, body in paths(m):
            cid = _path_id(body, start)
            dims[cid] = m
            if m >= 1:
                faces[cid] = tuple(_path_face(cat, start, body, j) for j in range(m + 1))
                if m >= 2 or cat.is_invertible(body[0]):
                    thin.append(cid)
    return FiniteStratifiedSet(dim_cap, dims, faces, thin)


def _path_face(cat: FiniteCategory, start: str, body: tuple[str, ...], j: int) -> Simplex:
    m = len(body)
    if j == 0:
        new_start = cat.arrows[body[0]][1]
        return _path_normal_form(cat, new_start, body[1:])
    if j == m:
        return _path_normal_form(cat, start, body[:-1])
    merged = body[: j - 1] + (cat.compose(body[j], body[j - 1]),) + body[j + 1 :]
    return _path_normal_form(cat, start, merged)


def _path_normal_form(cat: FiniteCategory, start: str, body: tuple[str, ...]) -> Simplex:
    idents = set(cat.identities.values())
    core = tuple(f for f in body if f not in idents)
    word = tuple(sorted((t for t, f in enumerate(body) if f in idents), reverse=True))
    return Simplex(_path_id(core, start), word)


# -- standard example categories ---------------------------------------------


def walking_arrow() -> FiniteCategory:
    return FiniteCategory(
        objects=("x", "y"),
        arrows={"ix": ("x", "x"), "iy": ("y", "y"), "f": ("x", "y")},
        identities={"x": "ix", "y": "iy"},
        table={
            ("ix", "ix"): "ix",
            ("iy", "iy"): "iy",
            ("f", "ix"): "f",
            ("iy", "f"): "f",
        },
    )


def walking_iso() -> FiniteCategory:
    return FiniteCategory(
        objects=("x", "y"),
        arrows={"ix": ("x", "x"), "iy": ("y", "y"), "f": ("x", "y"), "g": ("y", "x")},
        identities={"x": "ix", "y": "iy"},
        table={
            ("ix", "ix"): "ix",
            ("iy", "iy"): "iy",
            ("f", "ix"): "f",
            ("iy", "f"): "f",
            ("g", "iy"): "g",
            ("ix", "g"): "g",
            ("g", "f"): "ix",
            ("f", "g"): "iy",
        },
    )


def cyclic_group_category(order: int) -> FiniteCategory:
    arrows = {f"g{i}": ("*", "*") for i in range(order)}
    table = {
        (f"g{i}", f"g{j}"): f"g{(i + j) % order}"
        for i in range(order)
        for j in range(order)
    }
    return FiniteCategory(("*",), arrows, {"*": "g0"}, table)


def one_object_group_enriched(order: int, dim_cap: int) -> EnrichedCategory:
    """One object, hom the group nerve, composition by pointwise products."""
    cat = cyclic_group_category(order)
    hom = from_category(cat, dim_cap)
    P, pairs = gray_product(hom, hom, cap=dim_cap)
    assignment = {}
    for cid in P.cells():
        sx, sy = pairs[cid]
        assignment[cid] = _pointwise_product(cat, order, sx, sy)
    comp = {("*", "*", "*"): StratifiedMap(P, hom, assignment)}
    return make_enriched(["*"], {("*", "*"): hom}, {"*": "*:"}, comp, dim_cap)


def _expand_path(s: Simplex) -> list[str | None]:
    """The full arrow list of a possibly degenerate path simplex."""
    _, body = _parse_path(s.cell)
    seq: list[str | None] = list(body)
    for t in sorted(s.word):
        seq.insert(t, None)  # None marks an identity step
    return seq


def _pointwise_product(cat: FiniteCategory, order: int, sx: Simplex, sy: Simplex) -> Simplex:
    prod = []
    for u, v in zip(_expand_path(sx), _expand_path(sy)):
        iu = 0 if u is None else int(u[1:])
        iv = 0 if v is None else int(v[1:])
        prod.append(f"g{(iu + iv) % order}")
    return _path_normal_form(cat, "*", tuple(prod))


# -- gray validation and enriched functors ------------------------------------


def validate_gray(E: EnrichedCategory, dmax: int) -> dict:
    """Run the lifting report on every homset; flags the category on success."""
    from .anodyne import rlp_report

    reports = {}
    ok = True
    for (a, b), hom in sorted(E.homs.items()):
        if not hom.dims:
            continue
        d = min(dmax, hom.dim_cap)
        rep = rlp_report(hom, d, mode="all")
        reports[(a, b)] = rep
        ok = ok and rep.ok
    E.gray_validated = ok
    return {"pass": ok, "homs": reports}


@dataclass(frozen=True)
class EnrichedFunctor:
    source: EnrichedCategory
    target: EnrichedCategory
    obj_map: Mapping[str, str]
    hom_maps: Mapping[tuple[str, str], StratifiedMap]

    def validate(self, dmax: int | None = None) -> list[str]:
        problems = []
        E, F = self.source, self.target
        cap = E.dim_cap if dmax is None else dmax
        for (a, b), hom in E.homs.items():
            if not hom.dims:
                continue
            fm = self.hom_maps.get((a, b))
            if fm is None:
                problems.append(f"missing hom map at {(a, b)}")
                continue
            problems.extend(f"hom({a},{b}): {p}" for p in fm.validate())
        if problems:
            return problems
        for a in E.objects:
            img = self.hom_maps[(a, a)](Simplex(E.identities[a]))
            if img != Simplex(F.identities[self.obj_map[a]]):
                problems.append(f"identity at {a} not preserved")
        for a in E.objects:
            for b in E.objects:
                for c in E.objects:
                    if not (E.homs[(a, b)].dims and E.homs[(b, c)].dims):
                        continue
                    fa, fb, fc = (self.obj_map[o] for o in (a, b, c))
                    for m in range(cap + 1):
                        for z2 in E.hom(b, c).simplices_of_dim(m):
                            for z1 in E.hom(a, b).simplices_of_dim(m):
                                lhs = self.hom_maps[(a, c)](E.compose(a, b, c, z2, z1))
                                rhs = F.compose(
                                    fa,
                                    fb,
                                    fc,
                                    self.hom_maps[(b, c)](z2),
                                    self.hom_maps[(a, b)](z1),
                                )
                                if lhs != rhs:
                                    problems.append(
                                        f"composition not preserved at {(a, b, c)}"
                                    )
                                    return problems
        return problems


def local_fibration_check(F: EnrichedFunctor, dmax: int) -> dict:
    """RLP of every hom component against the elementary anodyne extensions.

    Each filler of p(u) in the target is one check, passed by a filler of u
    mapping onto it; a thinness problem z is checked when p(z) has a thin k-face.
    """
    from .anodyne import _fillers, _instances

    problems = F.validate()
    if problems:
        raise IllFormedFunctor("; ".join(problems))
    failures = []
    checked = 0
    for (a, b), hom in sorted(F.source.homs.items()):
        if not hom.dims:
            continue
        p = F.hom_maps[(a, b)]
        X, Y = p.source, p.target
        for name, n, k, lifting_problems in _instances(X, min(dmax, X.dim_cap), "all"):
            horn = name.startswith("horn")
            for u in lifting_problems:
                if horn:
                    for zy in _fillers(Y, n, {j: p(s) for j, s in u.items()}):
                        checked += 1
                        if not any(p(zx) == zy for zx in _fillers(X, n, u)):
                            failures.append({"hom": (a, b), "instance": name})
                elif Y.is_thin(Y.act(p(u), delta(n, k))):
                    checked += 1
                    if not X.is_thin(X.act(u, delta(n, k))):
                        failures.append({"hom": (a, b), "instance": name})
    return {"pass": not failures, "checked": checked, "failures": failures}
