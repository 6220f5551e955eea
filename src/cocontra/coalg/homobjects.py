"""Enriched hom objects: equalisers of the two structure-compatibility maps
inside the internal hom, plus the internal composition restricted to them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import IncompatibleTriple
from ..exactlin import (
    GradedVect,
    LinMap,
    Matrix,
    compose,
    equalizer_lin,
    factor_through_include,
    hom_map,
    hom_space,
    identity_map,
    linmap_to_vec,
    relabel,
    tensor,
    tensor_map,
    vec_to_linmap,
)
from .core import (
    VComodule,
    VContramodule,
    require_same_coalgebra,
)


@dataclass(eq=False)
class HomObject:
    """An enriched hom object presented as a sub-object of the internal hom."""

    kind: str  # "T" for comodules, "F" for contramodules
    src: object
    dst: object
    ambient: GradedVect
    space: GradedVect
    include: LinMap

    def member_map(self, label) -> LinMap:
        """The honest linear map behind a basis label of the hom object."""
        return vec_to_linmap(
            self.include.apply_label(label), self.src.space, self.dst.space
        )

    def degree_zero_members(self):
        return [
            self.member_map(lab)
            for k, _, lab in self.space.basis()
            if k == 0
        ]

    def contains(self, f: LinMap) -> bool:
        return self.coords_of(f) is not None

    def coords_of(self, f: LinMap):
        """Coordinates of a member map in the hom-object basis, as
        {label: nonzero}; None when the map is not a member."""
        k = f.degree
        amb = self.ambient
        col = {amb.position(lab)[1]: c for lab, c in linmap_to_vec(f).items()}
        sol = self.include.block(k).solve_matrix(
            Matrix.from_columns(amb.field, [col], amb.dim(k))
        )
        if sol is None:
            return None
        labels = self.space.labels.get(k, ())
        return {labels[i]: r[0] for i, r in enumerate(sol.srows) if r}


def tensor_id_on_hom(
    m: GradedVect, n: GradedVect, c: GradedVect
) -> LinMap:
    """[M,N] -> [M (x) C, N (x) C] sending f to f (x) id (no signs: the
    identity has even degree)."""
    dom = hom_space(m, n)
    cod = hom_space(tensor(m, c), tensor(n, c))
    one = m.field.one()
    images = {}
    for _, _, lab in dom.basis():
        _, a, b = lab
        images[lab] = {
            ("h", ("t", a, cl), ("t", b, cl)): one for _, _, cl in c.basis()
        }
    return LinMap.from_images(dom, cod, 0, images)


def hom_functor_push(
    c: GradedVect, p: GradedVect, q: GradedVect
) -> LinMap:
    """[P,Q] -> [[C,P], [C,Q]] sending f to postcomposition by f."""
    dom = hom_space(p, q)
    cod = hom_space(hom_space(c, p), hom_space(c, q))
    one = p.field.one()
    images = {}
    for _, _, lab in dom.basis():
        _, a, b = lab
        images[lab] = {
            ("h", ("h", cl, a), ("h", cl, b)): one
            for _, _, cl in c.basis()
        }
    return LinMap.from_images(dom, cod, 0, images)


def comodule_structure_pair(m: VComodule, n: VComodule):
    """The parallel pair on [M,N] whose equaliser is the hom object."""
    require_same_coalgebra(m, n)
    c = m.coalgebra.space
    phi = hom_map(identity_map(m.space), n.rho)
    psi = compose(
        hom_map(m.rho, identity_map(tensor(n.space, c))),
        tensor_id_on_hom(m.space, n.space, c),
    )
    return phi, psi


def comodule_hom_object(m: VComodule, n: VComodule) -> HomObject:
    phi, psi = comodule_structure_pair(m, n)
    sub = equalizer_lin(phi, psi, prefix="ht")
    return HomObject("T", m, n, sub.ambient, sub.space, sub.include)


def contra_structure_pair(p: VContramodule, q: VContramodule):
    require_same_coalgebra(p, q)
    c = p.coalgebra.space
    phi = compose(
        hom_map(
            identity_map(hom_space(c, p.space)),
            q.theta,
        ),
        hom_functor_push(c, p.space, q.space),
    )
    psi = hom_map(p.theta, identity_map(q.space))
    return phi, psi


def contra_hom_object(p: VContramodule, q: VContramodule) -> HomObject:
    phi, psi = contra_structure_pair(p, q)
    sub = equalizer_lin(phi, psi, prefix="hf")
    return HomObject("F", p, q, sub.ambient, sub.space, sub.include)


def _degree_zero_kernel(src: GradedVect, dst: GradedVect, sides):
    """The degree-zero maps src -> dst on which the two legs returned by
    ``sides(f)`` agree: one sparse column of differences per matrix unit,
    one row per hom label the legs reach, then a kernel (row order does
    not change it).  Solved directly, not through ``equalizer_lin``, so it
    can cross-check the hom objects.  Returns the units and the kernel
    vectors over them, each an {index into units: nonzero} dict."""
    fld = src.field
    one = fld.one()
    units = [lab for k, _, lab in hom_space(src, dst).basis() if k == 0]
    rows = {}
    for t, (_, a, b) in enumerate(units):
        lhs, rhs = sides(LinMap.from_images(src, dst, 0, {a: {b: one}}))
        col = linmap_to_vec(lhs)
        for lab, y in linmap_to_vec(rhs).items():
            col[lab] = fld.sub(col[lab], y) if lab in col else fld.neg(y)
        for lab, x in col.items():
            if x:
                rows.setdefault(lab, {})[t] = x
    return units, Matrix.sparse(fld, rows.values(), len(units)).kernel_basis()


def comodule_maps_direct(m: VComodule, n: VComodule):
    """Brute-force oracle: solve the commuting-square system over the
    degree-zero matrix units, independently of the equaliser machinery."""
    require_same_coalgebra(m, n)
    c = m.coalgebra.space
    return _degree_zero_kernel(
        m.space, n.space,
        lambda f: (compose(n.rho, f),
                   compose(tensor_map(f, identity_map(c)), m.rho)),
    )


def contra_maps_direct(p: VContramodule, q: VContramodule):
    """Brute-force oracle for contramodule maps in degree zero."""
    require_same_coalgebra(p, q)
    c = p.coalgebra.space
    return _degree_zero_kernel(
        p.space, q.space,
        lambda f: (compose(f, p.theta),
                   compose(q.theta, hom_map(identity_map(c), f))),
    )


def same_degree_zero_subspace(hobj: HomObject, units, kernel) -> bool:
    """Compare the hom object's degree-zero part against an independently
    solved subspace over the same matrix-unit basis."""
    amb_labels = [lab for k, _, lab in hobj.ambient.basis() if k == 0]
    assert amb_labels == list(units)
    if hobj.space.dim(0) != len(kernel):
        return False
    if not units:
        return True
    inc = hobj.include.block(0)
    direct = Matrix.from_columns(hobj.ambient.field, kernel, len(units))
    return (
        direct.solve_matrix(inc) is not None
        and inc.solve_matrix(direct) is not None
    )


def composition_on_ambient(
    x: GradedVect, y: GradedVect, z: GradedVect
) -> LinMap:
    """[Y,Z] (x) [X,Y] -> [X,Z], matching matrix units through the middle:
    (b' -> c) (x) (a -> b) goes to a -> c when b = b', to zero otherwise."""
    return relabel(tensor(hom_space(y, z), hom_space(x, y)), hom_space(x, z),
                   lambda t: ("h", t[2][1], t[1][2])
                   if t[2][2] == t[1][1] else None)


def identity_element(hobj: HomObject):
    """Coordinates of the identity map inside an endo hom object."""
    if hobj.src is not hobj.dst and hobj.src.space != hobj.dst.space:
        raise IncompatibleTriple("identity needs an endo hom object")
    ident = identity_map(hobj.src.space)
    coords = hobj.coords_of(ident)
    if coords is None:
        raise IncompatibleTriple("identity is not a member; invalid input")
    return coords


def enriched_composition(h1: HomObject, h2: HomObject):
    """The internal composition restricted to hom objects.

    ``h1`` is the inner hom (X to Y), ``h2`` the outer (Y to Z); returns
    the target hom object together with the factored composition map
    h2 (x) h1 -> h3.  Raises when the restriction fails to land in the
    target, which would mean the inputs were not genuine hom objects.
    """
    if h1.kind != h2.kind:
        raise IncompatibleTriple("mixed comodule/contramodule composition")
    if h1.dst is not h2.src and h1.dst.space != h2.src.space:
        raise IncompatibleTriple("hom objects do not share the middle object")
    if h1.kind == "T":
        h3 = comodule_hom_object(h1.src, h2.dst)
    else:
        h3 = contra_hom_object(h1.src, h2.dst)
    comp = composition_on_ambient(
        h1.src.space, h1.dst.space, h2.dst.space
    )
    restricted = compose(comp, tensor_map(h2.include, h1.include))
    factored = factor_through_include(h3.include, restricted)
    return h3, factored
