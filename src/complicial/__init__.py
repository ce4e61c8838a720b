"""Finite stratified simplicial sets, Gray tensor cubes, coherent paths,
Gray-category nerves, and a certified anodyne-extension verifier."""

from .operators import (
    MINUS,
    PLUS,
    Operator,
    compose_ops,
    delta,
    elementary,
    ez_factorize,
    make_operator,
    rho_operator,
    rho_precompose,
    sigma,
)
from .stratified import (
    FiniteStratifiedSet,
    Simplex,
    StratifiedMap,
    SubsetHandle,
    gray_product,
    make_thin,
    regular_generated,
    set_from_json,
    set_json_chunks,
    set_to_json,
    subset_to_set,
)
from .shapes import (
    C_ddot,
    C_dot,
    big_C,
    big_H,
    boundary,
    c_map,
    classify_cube_simplex,
    complicial,
    cube,
    horn,
    special_top,
    special_w,
    standard,
    standard_thin,
    vertex_chain,
)
from .hcpath import hc_horn_member, hom_set, path_act
from .anodyne import (
    AnodyneCertificate,
    LiftingReport,
    Step,
    builtin_certificates,
    certificate_from_json,
    certificate_to_json,
    rlp_report,
    search_tower,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
