"""Cotensor and cohom bifunctors, restriction along a coalgebra morphism,
the induced/co-induced structures, and the empirical cotensor-cohom
comparison probe.

Each construction here validates what it builds and raises
:class:`InvalidImage`, under ``python -O`` too, when it fails, which shows
that an argument or a coalgebra is not valid: the restricted comodule and
contramodule, the induced comodule, the coinduced contramodule (whose
structure map must also descend to the cohom) and the hom contramodule
[N, X].
"""

from __future__ import annotations

from ..errors import CocontraError, CoalgebraMismatch, InvalidImage
from ..exactlin import (
    LinMap,
    QuotPresentation,
    SubPresentation,
    assoc_inv,
    coequalizer_lin,
    compose,
    equalizer_lin,
    factor_through_include,
    hom_map,
    hom_space,
    hom_tensor_iso_inv,
    identity_map,
    tensor_map,
)
from .core import (
    Coalgebra,
    VComodule,
    VContramodule,
    check_coalgebra_morphism,
    left_coaction,
    left_comodule_from_coaction,
    require_same_coalgebra,
    require_valid,
    validate_comodule,
    validate_contramodule,
)


def _require_side(m: VComodule, side: str, role: str):
    if m.side != side:
        raise CocontraError(
            f"{role} must be a {side} comodule, got a {m.side} one")


def _require_over(obj, coalgebra: Coalgebra, end: str):
    if obj.coalgebra != coalgebra:
        raise CoalgebraMismatch(
            f"the {type(obj).__name__} must live over the {end} coalgebra "
            "of the morphism")


def cotensor(m: VComodule, n: VComodule) -> SubPresentation:
    """The equaliser of the two coactions inside m (x) n; n must be a left
    comodule."""
    require_same_coalgebra(m, n)
    _require_side(m, "right", "the left factor of a cotensor")
    _require_side(n, "left", "the right factor of a cotensor")
    c = m.coalgebra.space
    first = tensor_map(m.rho, identity_map(n.space))
    second = compose(
        assoc_inv(m.space, c, n.space),
        tensor_map(identity_map(m.space), left_coaction(n)),
    )
    return equalizer_lin(first, second, prefix="ct")


def cohom(m: VComodule, p: VContramodule) -> QuotPresentation:
    """The coequaliser pairing the coaction against the structure map on
    maps out of m."""
    require_same_coalgebra(m, p)
    c = m.coalgebra.space
    first = compose(
        hom_map(m.rho, identity_map(p.space)),
        hom_tensor_iso_inv(m.space, c, p.space),
    )
    second = hom_map(identity_map(m.space), p.theta)
    return coequalizer_lin(first, second, prefix="ch")


def restrict_comodule(f: LinMap, c: Coalgebra, chat: Coalgebra,
                      m: VComodule) -> VComodule:
    """Push the coaction forward along a coalgebra morphism."""
    check_coalgebra_morphism(f, c, chat)
    _require_over(m, c, "domain")
    rho = compose(tensor_map(identity_map(m.space), f), m.rho)
    out = VComodule(chat, m.space, rho, side=m.side)
    require_valid(validate_comodule(out), "the restriction of m is not a "
                  "comodule, so m or a coalgebra is not valid")
    return out


def restrict_contramodule(f: LinMap, c: Coalgebra, chat: Coalgebra,
                          p: VContramodule) -> VContramodule:
    """Precompose the structure map with the morphism."""
    check_coalgebra_morphism(f, c, chat)
    _require_over(p, c, "domain")
    theta = compose(p.theta, hom_map(f, identity_map(p.space)))
    out = VContramodule(chat, p.space, theta)
    require_valid(validate_contramodule(out), "the restriction of p is not "
                  "a contramodule, so p or a coalgebra is not valid")
    return out


def induce_comodule(f: LinMap, c: Coalgebra, chat: Coalgebra,
                    m: VComodule) -> VComodule:
    """Cotensor against the coalgebra seen as a left comodule over the
    target; right adjoint to restriction."""
    check_coalgebra_morphism(f, c, chat)
    _require_over(m, chat, "codomain")
    lam = compose(tensor_map(f, identity_map(c.space)), c.delta)
    c_left = left_comodule_from_coaction(chat, c.space, lam)
    sub = cotensor(m, c_left)
    w = compose(
        compose(
            assoc_inv(m.space, c.space, c.space),
            tensor_map(identity_map(m.space), c.delta),
        ),
        sub.include,
    )
    rho = factor_through_include(
        tensor_map(sub.include, identity_map(c.space)), w
    )
    out = VComodule(c, sub.space, rho)
    require_valid(validate_comodule(out), "the induced comodule is not a "
                  "comodule, so m or a coalgebra is not valid")
    return out


def coinduce_contramodule(f: LinMap, c: Coalgebra, chat: Coalgebra,
                          p: VContramodule) -> VContramodule:
    """Cohom out of the coalgebra seen as a comodule over the target; left
    adjoint to restriction."""
    check_coalgebra_morphism(f, c, chat)
    _require_over(p, chat, "codomain")
    rho = compose(tensor_map(identity_map(c.space), f), c.delta)
    c_right = VComodule(chat, c.space, rho)
    quot = cohom(c_right, p)
    route = compose(
        quot.project,
        compose(
            hom_map(c.delta, identity_map(p.space)),
            hom_tensor_iso_inv(c.space, c.space, p.space),
        ),
    )
    lifted = compose(
        route, hom_map(identity_map(c.space), quot.section)
    )
    # independence of the section: composing back with the projection must
    # recover the route on the nose
    if compose(lifted, hom_map(identity_map(c.space), quot.project)) != route:
        raise InvalidImage("the structure map of the coinduced "
                           "contramodule does not descend, so p or a "
                           "coalgebra is not valid")
    out = VContramodule(c, quot.space, lifted)
    require_valid(validate_contramodule(out), "the coinduced contramodule "
                  "is not a contramodule, so p or a coalgebra is not valid")
    return out


def hom_of_contramodule(n: VComodule, x) -> VContramodule:
    """[N, X] for a left comodule n is a contramodule: precompose a family
    with the coaction."""
    c = n.coalgebra
    _require_side(n, "left", "the comodule of a hom contramodule")
    theta = compose(
        hom_map(left_coaction(n), identity_map(x)),
        hom_tensor_iso_inv(c.space, n.space, x),
    )
    out = VContramodule(c, hom_space(n.space, x), theta)
    require_valid(validate_contramodule(out), "[N, X] is not a "
                  "contramodule, so n or its coalgebra is not valid")
    return out


def trifunctor_probe(m: VComodule, n: VComodule, x) -> dict:
    """Compare maps out of the cotensor with the cohom into the hom
    contramodule and try the restriction-of-transpose as the comparison
    map.  Purely empirical: the report states what happened, nothing is
    asserted as a law."""
    require_same_coalgebra(m, n)
    sub = cotensor(m, n)
    lhs_space = hom_space(sub.space, x)
    p = hom_of_contramodule(n, x)
    quot = cohom(m, p)
    candidate = compose(
        hom_map(sub.include, identity_map(x)),
        hom_tensor_iso_inv(m.space, n.space, x),
    )
    first = compose(
        hom_map(m.rho, identity_map(p.space)),
        hom_tensor_iso_inv(m.space, m.coalgebra.space, p.space),
    )
    second = hom_map(identity_map(m.space), p.theta)
    descends = compose(candidate, first) == compose(candidate, second)
    report = {
        "dim_hom_of_cotensor": dict(lhs_space.dims),
        "dim_cohom_of_hom": dict(quot.space.dims),
        "dims_equal": lhs_space.dims == quot.space.dims,
        "candidate_descends": descends,
    }
    if descends:
        induced = compose(candidate, quot.section)
        report["candidate_iso"] = (
            induced.rank() == lhs_space.total_dim
            and lhs_space.dims == quot.space.dims
        )
    return report
