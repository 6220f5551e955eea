"""Comodules over a base set.

A base set carries exactly one comonoid structure (the diagonal), so a
comodule is the same thing as a set over the base: a carrier together with
a total structure map ``phi`` down to the base.  Everything is stored in
phi-form; the coaction ``rho = (id, phi)`` is built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import finset
from .errors import BaseMismatch, charge
from .finset import FinMap, FinSet, SubPresentation


@dataclass(frozen=True)
class SetComonoid:
    """A base set; comultiplication and counit are forced, so only the
    underlying set is stored."""

    base: FinSet

    def diagonal(self) -> FinMap:
        p, _, _ = finset.product(self.base, self.base)
        return FinMap(
            self.base, p, {c: finset.pair_label(c, c) for c in self.base}
        )


@dataclass(eq=True)
class SetComodule:
    carrier: FinSet
    base: FinSet
    phi: FinMap

    def __post_init__(self):
        if self.phi.dom != self.carrier or self.phi.cod != self.base:
            raise ValueError("phi must map carrier to base")


def fibers(m: SetComodule) -> dict[str, FinSet]:
    """The preimage decomposition of the carrier, indexed by the base."""
    out = {a: [] for a in m.base}
    for x in m.carrier:
        out[m.phi(x)].append(x)
    return {a: FinSet(v) for a, v in out.items()}


def is_degenerate(m: SetComodule) -> bool:
    """True when some fiber is empty, i.e. phi is not surjective."""
    return not m.phi.is_surjective()


def hom_over(m: SetComodule, n: SetComodule) -> SubPresentation:
    """All carrier maps commuting with the structure maps, as a subset of
    the full function space."""
    if m.base != n.base:
        raise BaseMismatch("hom_over needs a shared base")
    charge(len(n.carrier) ** len(m.carrier), "hom_over")
    maps = finset.function_table(m.carrier, n.carrier)
    ambient = FinSet(maps)
    members_set = FinSet([
        label for label, f in maps.items()
        if all(n.phi(f(x)) == m.phi(x) for x in m.carrier)])
    include = FinMap(members_set, ambient, {x: x for x in members_set})
    return SubPresentation(ambient, members_set, include)


def hom_over_generic(m: SetComodule, n: SetComodule) -> SubPresentation:
    """The same hom set by the generic equaliser route.

    Both maps land in the function space into carrier x base: one
    post-composes with n's coaction, the other records m's own phi.
    Used as a cross-check for :func:`hom_over`.  The largest enumeration is
    the function space into carrier x base.
    """
    if m.base != n.base:
        raise BaseMismatch("hom_over needs a shared base")
    x, y, c = m.carrier, n.carrier, m.base
    charge((len(y) * len(c)) ** len(x), "hom_over_generic")
    maps = finset.function_table(x, y)
    hom_xy = FinSet(maps)
    yc, _, _ = finset.product(y, c)
    hom_xyc = finset.function_space(x, yc)
    phi_table = {}
    psi_table = {}
    for label, f in maps.items():
        phi_t = FinMap(
            x, yc, {v: finset.pair_label(f(v), n.phi(f(v))) for v in x}
        )
        psi_t = FinMap(x, yc, {v: finset.pair_label(f(v), m.phi(v)) for v in x})
        phi_table[label] = finset.encode_map(phi_t)
        psi_table[label] = finset.encode_map(psi_t)
    phi_map = FinMap(hom_xy, hom_xyc, phi_table)
    psi_map = FinMap(hom_xy, hom_xyc, psi_table)
    return finset.equalizer(phi_map, psi_map)


def restrict_along(f: FinMap, m: SetComodule) -> SetComodule:
    """Push the structure map forward along a map of base sets."""
    if f.dom != m.base:
        raise BaseMismatch("restriction needs f.dom == base")
    return SetComodule(m.carrier, f.cod, finset.compose(f, m.phi))


def induce_along(f: FinMap, p: SetComodule) -> SetComodule:
    """Pull a comodule back along a map of base sets.

    The carrier is the pullback of phi against f and the new structure map
    is the second projection; this is right adjoint to restriction.
    """
    if f.cod != p.base:
        raise BaseMismatch("induction needs f.cod == base of p")
    carrier, _, proj2 = finset.pullback(p.phi, f)
    return SetComodule(carrier, f.dom, proj2)


def unique_comonoid_certificate(c: FinSet) -> dict:
    """Count the counital comultiplications among all candidate maps
    c -> c x c; exactly the diagonal should survive.

    psi is counital exactly when both projections of each psi(x) are x, so
    the counital maps are the odometer over the per-coordinate pools of
    counital values, in the order of the odometer over all candidates; the
    candidates are counted, not visited, and charged as before.

    Returns a report dict with candidate/valid counts and the witness.
    """
    charge((len(c) ** 2) ** len(c), "comultiplication enumeration")
    prod, proj1, proj2 = finset.product(c, c)
    diagonal = SetComonoid(c).diagonal()
    counital = [
        [p for p in prod.elements if proj1(p) == x and proj2(p) == x]
        for x in c
    ]
    valid = [FinMap(c, prod, dict(zip(c.elements, values)))
             for values in finset.odometer(counital)]
    report = {
        "base": list(c.elements),
        "candidates": len(prod) ** len(c),
        "valid": len(valid),
        "valid_is_diagonal": len(valid) == 1 and valid[0] == diagonal,
    }
    if valid:
        report["coassociative"] = _is_coassociative(c, valid[0])
    return report


def _is_coassociative(c: FinSet, psi: FinMap) -> bool:
    """Check (psi x 1) psi == (1 x psi) psi through the canonical
    re-association of nested pairs."""
    prod, proj1, proj2 = finset.product(c, c)
    left = {}
    right = {}
    for x in c:
        a, b = proj1(psi(x)), proj2(psi(x))
        left[x] = finset.pair_label(
            finset.pair_label(proj1(psi(a)), proj2(psi(a))), b
        )
        right[x] = finset.pair_label(
            a, finset.pair_label(proj1(psi(b)), proj2(psi(b)))
        )
    reassoc = {
        finset.pair_label(finset.pair_label(u, v), w): finset.pair_label(
            u, finset.pair_label(v, w)
        )
        for u in c
        for v in c
        for w in c
    }
    return all(reassoc[left[x]] == right[x] for x in c)
