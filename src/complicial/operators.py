"""Exact arithmetic of simplicial operators (the arrows of the ordinal category).

An operator is a weakly increasing map [n] -> [m] between finite ordinals,
stored as its value sequence.  The ordinal [n] has n+1 elements; n = -1 is
the empty ordinal, so the unique maps out of it typecheck.  Alongside the
elementary face and degeneracy operators this module provides the unique
normal-form factorization into elementaries, the step-operator calculus for
the 1-simplex (coordinates of cubes), and the face-admissibility test used
throughout the horn machinery.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Iterator, NamedTuple, Union

from .errors import Mismatch, NonMonotone, OutOfRange

# A cube coordinate: one of the two poles or a positive flip index.
MINUS = "-"
PLUS = "+"
CubeCoordinate = Union[str, int]


class Operator(NamedTuple):
    """Weakly increasing map [n] -> [m], n >= -1, compared and hashed as the
    tuple (n, m, values)."""

    n: int
    m: int
    values: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.values[i]

    def __repr__(self) -> str:
        return f"Op[{self.n}]->[{self.m}]{list(self.values)}"


def make_operator(n: int, m: int, values) -> Operator:
    values = tuple(values)
    if n < -1 or m < -1 or len(values) != n + 1:
        raise OutOfRange(f"bad ordinals/length for ({n},{m},{values})")
    for v in values:
        if not 0 <= v <= m:
            raise OutOfRange(f"value {v} outside [0,{m}]")
    if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
        raise NonMonotone(f"values {values} decrease")
    return Operator(n, m, values)


def compose_ops(outer: Operator, inner: Operator) -> Operator:
    """Pointwise composite outer . inner, for inner: [n]->[m], outer: [m]->[p]."""
    if inner.m != outer.n:
        raise Mismatch(f"cannot compose {outer} after {inner}")
    return Operator(inner.n, outer.m, tuple(outer.values[v] for v in inner.values))


def elementary(kind: str, n: int, j: int) -> Operator:
    """The elementary operators: the face delta and the degeneracy sigma at index j."""
    if kind == "delta":
        if not 0 <= j <= n:
            raise OutOfRange(f"delta index {j} not in [{n}]")
        return Operator(n - 1, n, tuple(v for v in range(n + 1) if v != j))
    if kind == "sigma":
        if not 0 <= j <= n:
            raise OutOfRange(f"sigma index {j} not in [{n}]")
        vals = list(range(j + 1)) + list(range(j, n + 1))
        return Operator(n + 1, n, tuple(vals))
    raise OutOfRange(f"unknown elementary kind {kind!r}")


def delta(n: int, j: int) -> Operator:
    return elementary("delta", n, j)


def sigma(n: int, j: int) -> Operator:
    return elementary("sigma", n, j)


@lru_cache(maxsize=None)
def ez_factorize(alpha: Operator) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Unique face/degeneracy factorization in normal order, memoised.

    Returns (faces, degens) with alpha equal to the delta-composite applied
    after the sigma-composite: faces are the values missed by alpha, listed
    increasing in order of application; degens are the flat spots
    {t : alpha(t) = alpha(t+1)}, listed decreasing in order of application.
    """
    missed = tuple(sorted(set(range(alpha.m + 1)) - set(alpha.values)))
    flats = tuple(
        sorted(
            (t for t in range(alpha.n) if alpha.values[t] == alpha.values[t + 1]),
            reverse=True,
        )
    )
    return missed, flats


@lru_cache(maxsize=None)
def word_operator(q: int, word: tuple[int, ...]) -> Operator:
    """The surjection [q]->[q-len(word)] whose flat spots are the word: t |-> t - #{f < t}.
    OutOfRange unless the word is strictly decreasing inside [0, q - 1]."""
    if not all(a > b for a, b in zip((q,) + word, word + (-1,))):
        raise OutOfRange(f"{word} is not a degeneracy word of [{q}]")
    return Operator(q, q - len(word), tuple(t - sum(f < t for f in word) for t in range(q + 1)))


def rho_operator(v: CubeCoordinate, r: int) -> Operator:
    """The r-simplex of the 1-simplex named by a doubly pointed coordinate."""
    if v == MINUS:
        return Operator(r, 1, (0,) * (r + 1))
    if v == PLUS:
        return Operator(r, 1, (1,) * (r + 1))
    if not 1 <= v <= r:
        raise OutOfRange(f"step index {v} not in 1..{r}")
    return Operator(r, 1, tuple(0 if j < v else 1 for j in range(r + 1)))


def rho_precompose(v: CubeCoordinate, alpha: Operator) -> CubeCoordinate:
    """The coordinate v' with rho_v . alpha = rho_v', for v in -, +, 1..alpha.m."""
    if v == MINUS or v == PLUS:
        return v
    if not (isinstance(v, int) and 1 <= v <= alpha.m):
        raise OutOfRange(f"step index {v!r} not in 1..{alpha.m}")
    # least t with alpha(t) >= v; a hit at 0 means the composite is constant 1
    for t in range(alpha.n + 1):
        if alpha.values[t] >= v:
            return PLUS if t == 0 else t
    return MINUS


def admissible_vertices(n: int, k: int) -> frozenset[int]:
    """The vertices k-1, k, k+1 of [n]: a face is k-admissible iff it holds them all."""
    return frozenset({k - 1, k, k + 1} & set(range(n + 1)))


def all_operators(n: int, m: int) -> Iterator[Operator]:
    """All weakly increasing maps [n] -> [m]."""
    if n == -1:
        yield Operator(-1, m, ())
        return
    for vals in combinations_with_replacement(range(m + 1), n + 1):
        yield Operator(n, m, vals)


def all_injections(n: int, m: int) -> Iterator[Operator]:
    for vals in combinations(range(m + 1), n + 1):
        yield Operator(n, m, vals)


@lru_cache(maxsize=None)
def surjection_words(q: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Degeneracy words (normal order) of all surjections [q] ->> [d]."""
    if d > q or d < 0:
        return ()
    return tuple(
        tuple(sorted(flat, reverse=True)) for flat in combinations(range(q), q - d)
    )
