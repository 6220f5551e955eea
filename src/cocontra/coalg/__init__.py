"""Coalgebras over exact fields with their comodules, contramodules, hom
objects, correspondence functors, change of coalgebra, and the dual-algebra
bridge."""

from .bridge import (
    DualAlgebra,
    DualModule,
    bridge_certificate,
    comodule_to_module,
    contramodule_to_comodule,
    contramodule_to_module,
    dual_algebra,
    module_to_comodule,
    module_to_contramodule,
    validate_module,
)
from .change import (
    cohom,
    coinduce_contramodule,
    cotensor,
    hom_of_contramodule,
    induce_comodule,
    restrict_along,
    restrict_comodule,
    restrict_contramodule,
    trifunctor_probe,
)
from .core import (
    Coalgebra,
    VComodule,
    VContramodule,
    check_coalgebra_morphism,
    coalgebra_as_comodule,
    cofree,
    free,
    is_coalgebra_morphism,
    is_comodule_map,
    is_contramodule_map,
    left_coaction,
    left_comodule_from_coaction,
    validate,
    validate_coalgebra,
    validate_comodule,
    validate_contramodule,
)
from .functors import (
    LData,
    RData,
    R_mor,
    adjunction_certificate,
    counit_map,
    functor_L,
    functor_L_data,
    functor_R,
    functor_R_data,
    kleisli_certificate,
    round_trip_report,
    triangle_identities,
    unit_map,
)
from .homobjects import (
    HomObject,
    comodule_hom_object,
    comodule_maps_direct,
    contra_hom_object,
    contra_maps_direct,
    same_degree_zero_subspace,
)
from . import instances

__all__ = [name for name in dir() if not name.startswith("_")]
