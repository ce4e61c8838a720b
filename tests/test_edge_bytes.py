"""Byte pins of the JSON edge: the sha256 of ``json.dumps(..., sort_keys=True)``
of each writer's output on fixed structures.  Cells are values inside the
library and are spelled only by the writers, so these digests guard both the
spelling of every kind of cell and the order of cells, which is the order of
their spellings (``x:fa`` before ``x:f|g``, ``0.10`` before ``0.2``).  The text
``set_json_chunks`` writes is held to the indented stdlib dump of ``set_to_json``
on every pinned set and on the edge cases below."""

import hashlib
import json
import random

import pytest

from complicial.anodyne import builtin_certificates, certificate_to_json
from complicial.cli import enriched_to_json
from complicial.enriched import (
    FiniteCategory,
    cyclic_group_category,
    from_category,
    one_object_group_enriched,
    suspension,
    walking_iso,
)
from complicial.nerve import build_nerve
from complicial.shapes import big_C, big_H, boundary, complicial, cube, standard
from complicial.stratified import (
    FiniteStratifiedSet,
    empty_set,
    gray_product,
    set_from_json,
    set_json_chunks,
    set_to_json,
    subset_to_set,
)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _fork_category() -> FiniteCategory:
    """x with two arrows f, fa to y and g: y -> z; the 2-paths spell x:f|g and
    x:fa|g, which sort the other way round as (start, arrows) tuples."""
    arrows = {
        "ix": ("x", "x"), "iy": ("y", "y"), "iz": ("z", "z"),
        "f": ("x", "y"), "fa": ("x", "y"), "g": ("y", "z"), "gf": ("x", "z"),
    }
    identities = {"x": "ix", "y": "iy", "z": "iz"}
    table = {(identities[t], a): a for a, (_, t) in arrows.items()}
    table.update({(a, identities[s]): a for a, (s, _) in arrows.items()})
    table.update({("g", "f"): "gf", ("g", "fa"): "gf"})
    return FiniteCategory(("x", "y", "z"), arrows, identities, table)


# name -> (the set, the digest of its set_to_json)
SET_PINS = {
    "cube(4)": (
        lambda: cube(4),
        "0d4ac8f374a7ba42cb99d5e74a4349b04beb092727d3a0cb5973e29e9a32c777",
    ),
    "cube(5)": (
        lambda: cube(5),
        "e132f5c33e3e6d277c11f0500e3f60ceca5736b5846f86372b183f40d5c38401",
    ),
    "big_C(5,3)": (
        lambda: big_C(5, 3),
        "d0d7496bb6505c865da1391875f272856cfc80f9998e8455901ddaf637937039",
    ),
    "standard(10)": (
        lambda: standard(10),
        "d5ca659a990ae7152e8423f590ed93ec66f721737bb7df4308637d3fc1ae2b57",
    ),
    "big_H(3,2)": (
        lambda: subset_to_set(big_H(3, 2)),
        "f9c84fa6b684fc0847c71520793b9516eb05a7a6de92f503ab0ab165a5fa69de",
    ),
    "walking-iso nerve": (
        lambda: from_category(walking_iso(), 3),
        "b0689420b6ba19ad1e517f2d724e10004dbdfca9463f2a84931b09dd34a54421",
    ),
    "fork nerve": (
        lambda: from_category(_fork_category(), 3),
        "a3a716cdc6255184d507c6eccb504daac809766051d3c9f675be8cedc3e4f046",
    ),
    "gray_product(standard(1), standard(2))": (
        lambda: gray_product(standard(1), standard(2)),
        "c74be95155ec5e001939703480e0b15ccdb104541a63e7e8edf2283bf06df3ce",
    ),
    "gray_product(cube(2), complicial(2, 1))": (
        lambda: gray_product(cube(2), complicial(2, 1)),
        "07d883f55f6c75336fa60f90444194c59c86b704046d17be21256bddd7700b0a",
    ),
    "gray_product(G, G, cap=3), G the nerve of Z/3": (
        lambda: gray_product(*[from_category(cyclic_group_category(3), 3)] * 2, cap=3),
        "9f3dfaf38250d0af4471a583081f301c8ce147f33c80089393bbdcd5686516f5",
    ),
    "nerve of suspension(standard(2))": (
        lambda: build_nerve(suspension(standard(2)), 3),
        "5421f6b342a003a44818439e21cdbb0cbff8d0977cc0f99c65a5bda8faa082e6",
    ),
    "nerve of suspension(standard(2)), D = 4": (
        lambda: build_nerve(suspension(standard(2)), 4),
        "b1f7d9ce5b25c239e245f27bdc5fc889ae00bbba8010e49bc39456d4d0bad985",
    ),
    "nerve of suspension(boundary(2)), D = 4": (
        lambda: build_nerve(suspension(boundary(2)), 4),
        "e7c4b728bc83f177e5f62cda0e598d318e496288c8d493fde7f0a7792c68c184",
    ),
    "nerve of suspension(complicial(2, 1)), D = 4": (
        lambda: build_nerve(suspension(complicial(2, 1)), 4),
        "4996c6db6d7a857d3edcecdc07c923dfd443d226d9c53b90f0bf8f00558a6f16",
    ),
    "nerve of suspension(standard(1)), D = 5": (
        lambda: build_nerve(suspension(standard(1)), 5),
        "24702d6944e07500fe67415fc3b92fb5237fffff4ba8b380c6b73efaad02427f",
    ),
    "nerve of one_object_group_enriched(2, 4), D = 4": (
        lambda: build_nerve(one_object_group_enriched(2, 4), 4),
        "e83a526ef5f675fcdcb4e7c5339487b5261d8f171caa184c638c293be631d8a9",
    ),
    "nerve of one_object_group_enriched(3, 3)": (
        lambda: build_nerve(one_object_group_enriched(3, 3), 3),
        "65f2159090bfe862f6b030799bb38c6168a8476c63e0f8fe2c682f5736317fd3",
    ),
}

# name -> (the writer's output, its digest): each set of SET_PINS through set_to_json
PINS = {name: (lambda b=b: set_to_json(b()), digest) for name, (b, digest) in SET_PINS.items()}
PINS["one_object_group_enriched(2, 2)"] = (
    lambda: enriched_to_json(one_object_group_enriched(2, 2)),
    "690e09f6e3497cfee58e9a57cc4cc5cfc955f16625540c1c3c7f3d11889486ff",
)

CERTIFICATE_PINS = {
    "square horn, k=1": "7f4ac95f66a35286dd002446c1ea0a1c481d27350b4bfa9f7947cdb5a4839456",
    "square horn, k=2": "9e8b668422be88d069cd923a15ed322af0b07651997f15886d03cfff688a2cd2",
    "3-cube horn via the V tower": (
        "addaa8760970c974d506d4ab3b0c495a560d9d857edc90e92835ba2a376d875c"
    ),
    "thinness upgrade to the hatted cube": (
        "f008a6d4d3920cca6924d6c72e9fb218314d75e9be80577ace73e7a604c3d703"
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_writer_bytes_are_pinned(name):
    build, digest = PINS[name]
    assert _digest(build()) == digest


@pytest.mark.parametrize("name", sorted(SET_PINS))
def test_set_bytes_ignore_the_order_cells_are_given_in(name):
    # a set orders its cells by spelling, so the pins do not depend on the
    # order a builder produces its cells in
    build, digest = SET_PINS[name]
    X = build()
    order = list(X.dims)
    random.Random(0).shuffle(order)
    dims = {c: X.dims[c] for c in order}
    faces = {c: X.faces[c] for c in order}
    Y = FiniteStratifiedSet(X.dim_cap, dims, faces, [c for c in order if c in X.thin])
    assert _digest(set_to_json(Y)) == digest
    assert "".join(set_json_chunks(Y)) == "".join(set_json_chunks(X))


def test_certificate_bytes_are_pinned():
    digests = {c.note: _digest(certificate_to_json(c)) for c in builtin_certificates()}
    assert digests == CERTIFICATE_PINS


def test_fork_category_hits_the_order_case():
    X = from_category(_fork_category(), 2)
    assert [str(c) for c in X.cells_of_dim(2)] == ["x:fa|g", "x:f|g"]


def _nerve_with_census():
    """A nerve and the census the nerve verb writes beside it."""
    N = build_nerve(suspension(standard(2)), 3)
    census = N.count_nondegenerate()
    return N, {
        "census": {str(d): c for d, c in census.items()},
        "thin_census": {str(d): sum(c in N.thin for c in N.cells_of_dim(d)) for d in census},
    }


def _ids_to_escape():
    """A set read from JSON whose ids hold a quote, a backslash, a control character
    and a non-ASCII letter: an edge e from q to b and a triangle with a degenerate face."""
    q, b, e = 'q"', "b\\", "e\x07"
    s0b, ee = {"cell": b, "word": [0]}, {"cell": e, "word": []}
    cells = [
        {"id": q, "dim": 0},
        {"id": b, "dim": 0},
        {"id": e, "dim": 1, "faces": [{"cell": b, "word": []}, {"cell": q, "word": []}]},
        {"id": "Δé", "dim": 2, "thin": True, "faces": [s0b, ee, ee]},
    ]
    return set_from_json({"dim_cap": 3, "cells": cells})


# name -> (a set, the top-level values set_json_chunks merges in beside it)
CHUNK_CASES = {
    **{name: lambda b=build: (b(), None) for name, (build, _) in SET_PINS.items()},
    "empty set": lambda: (empty_set(), None),
    "0-cells only": lambda: (FiniteStratifiedSet(2, {"v": 0, "u": 0, "w": 0}, {}), None),
    "nerve with its census": _nerve_with_census,
    "ids to escape": lambda: (_ids_to_escape(), None),
}


@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_set_json_chunks_match_the_stdlib_dump(name):
    X, extra = CHUNK_CASES[name]()
    expected = json.dumps({**set_to_json(X), **(extra or {})}, indent=2, sort_keys=True)
    assert "".join(set_json_chunks(X, extra)) == expected
