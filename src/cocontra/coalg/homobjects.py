"""Enriched hom objects: equalisers of the two structure-compatibility maps
inside the internal hom.
One map of each pair is built in one pass off a structure map's entries
(``_from_terms``), not as a composite; the oracles do not use it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MismatchedSignature
from ..exactlin import (
    GradedVect,
    LinMap,
    Matrix,
    equalizer_lin,
    hom_map,
    hom_space,
    identity_map,
)
from .core import (
    VComodule,
    VContramodule,
    _entries,
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


def _from_terms(dom: GradedVect, cod: GradedVect, terms) -> LinMap:
    """The degree-zero map dom -> cod whose entry at (codomain label b,
    domain label a) sums the x of the (a, b, x) terms."""
    fld = dom.field
    images = {}
    for a, b, x in terms:
        col = images.setdefault(a, {})
        col[b] = fld.add(col[b], x) if b in col else x
    return LinMap.from_images(dom, cod, 0, images)


def comodule_structure_pair(m: VComodule, n: VComodule):
    """The parallel pair on [M,N] whose equaliser is the hom object: rho_N f
    and (f (x) id) rho_M, at (a0 -> b (x) c, a -> b) rho_M[a (x) c, a0]."""
    require_same_coalgebra(m, n)
    phi = hom_map(identity_map(m.space), n.rho)
    nl = [b for _, _, b in n.space.basis()]
    psi = _from_terms(phi.dom, phi.cod, (
        (("h", a, b), ("h", a0, ("t", b, c)), x)
        for (_, a, c), a0, x in _entries(m.rho) for b in nl))
    return phi, psi


def comodule_hom_object(m: VComodule, n: VComodule) -> HomObject:
    phi, psi = comodule_structure_pair(m, n)
    sub = equalizer_lin(phi, psi, prefix="ht")
    return HomObject("T", m, n, sub.ambient, sub.space, sub.include)


def contra_structure_pair(p: VContramodule, q: VContramodule):
    """The pair on [P,Q] whose equaliser is the hom object: theta_Q [C, f],
    at ((c -> a) -> y, a -> b) theta_Q[y, c -> b], and f theta_P."""
    require_same_coalgebra(p, q)
    psi = hom_map(p.theta, identity_map(q.space))
    pl = [a for _, _, a in p.space.basis()]
    phi = _from_terms(psi.dom, psi.cod, (
        (("h", a, b), ("h", ("h", c, a), y), x)
        for y, (_, c, b), x in _entries(q.theta) for a in pl))
    return phi, psi


def contra_hom_object(p: VContramodule, q: VContramodule) -> HomObject:
    phi, psi = contra_structure_pair(p, q)
    sub = equalizer_lin(phi, psi, prefix="hf")
    return HomObject("F", p, q, sub.ambient, sub.space, sub.include)


def _rows(f: LinMap) -> dict:
    """A degree-zero map's rows as {codomain label: {domain label:
    nonzero}}, read off its sparse blocks."""
    rows = {}
    for k, blk in f.blocks.items():
        dlabs = f.dom.labels[k]
        for clab, row in zip(f.cod.labels[k], blk.srows):
            if row:
                rows[clab] = {dlabs[j]: x for j, x in row.items()}
    return rows


def _columns(f: LinMap) -> dict:
    """A degree-zero map's columns as {domain label: {codomain label:
    nonzero}}, read off its sparse blocks."""
    cols = {}
    for k, blk in f.blocks.items():
        dlabs = f.dom.labels[k]
        for clab, row in zip(f.cod.labels[k], blk.srows):
            for j, x in row.items():
                cols.setdefault(dlabs[j], {})[clab] = x
    return cols


def _degree_zero_kernel(src: GradedVect, dst: GradedVect, legs):
    """The degree-zero maps src -> dst on which two legs agree: one sparse
    column of differences per matrix unit a -> b, one row per hom label
    the legs reach, then a kernel (row order does not change it).

    ``legs(a, b)`` returns the two legs at the unit a -> b, each a
    {hom label: nonzero} dict read straight off the structure maps'
    entries: the unit's column of a Kronecker product is a column of one
    factor placed beside a basis vector of the other, so no map is built
    per unit.  Solved without ``compose``, ``hom_map``, ``tensor_map``,
    ``LinMap.from_images`` or ``equalizer_lin``, so it cross-checks the
    hom objects independently of the path that builds them.  Returns the
    units and the kernel vectors over them, each an {index into units:
    nonzero} dict."""
    fld = src.field
    units = [lab for k, _, lab in hom_space(src, dst).basis() if k == 0]
    rows = {}
    for t, (_, a, b) in enumerate(units):
        col, rhs = legs(a, b)
        for lab, y in rhs.items():
            col[lab] = fld.sub(col[lab], y) if lab in col else fld.neg(y)
        for lab, x in col.items():
            if x:
                rows.setdefault(lab, {})[t] = x
    return units, Matrix.sparse(fld, rows.values(), len(units)).kernel_basis()


def _action_legs(act1: LinMap, act2: LinMap, others, place):
    """The legs of f act1 = act2 (f on one factor) for structure maps
    act_i: D_i -> X_i whose domain labels are place(x, u), x a basis label
    of X_i and u one of ``others``.  At the unit a -> b the left leg is row
    a of act1, at ("h", y, b); the right leg is, for each u, the column
    place(b, u) of act2, at ("h", place(a, u), z).  f has degree 0, so no
    sign arises."""
    rows1, cols2 = _rows(act1), _columns(act2)

    def legs(a, b):
        return ({("h", y, b): v for y, v in rows1.get(a, {}).items()},
                {("h", place(a, u), z): v
                 for u in others
                 for z, v in cols2.get(place(b, u), {}).items()})

    return legs


def comodule_maps_direct(m: VComodule, n: VComodule):
    """Brute-force oracle: solve the commuting-square system
    rho_N f = (f (x) id_C) rho_M over the degree-zero matrix units.  At
    the unit a -> b the left leg is column b of n.rho, at ("h", a, t); the
    right leg is the rows ("t", a, c) of m.rho, at ("h", x, ("t", b, c)).
    Each structure map is indexed once per call; no ``exactlin`` map
    kernel is used."""
    require_same_coalgebra(m, n)
    cl = [lab for _, _, lab in m.coalgebra.space.basis()]
    rows_m, cols_n = _rows(m.rho), _columns(n.rho)

    def legs(a, b):
        return ({("h", a, t): v for t, v in cols_n.get(b, {}).items()},
                {("h", x, ("t", b, c)): v
                 for c in cl
                 for x, v in rows_m.get(("t", a, c), {}).items()})

    return _degree_zero_kernel(m.space, n.space, legs)


def contra_maps_direct(p: VContramodule, q: VContramodule):
    """Brute-force oracle for contramodule maps in degree zero:
    f theta_P = theta_Q [C, f].  At the unit a -> b the left leg is row a
    of p.theta, at ("h", y, b); the right leg is the columns ("h", c, b)
    of q.theta, at ("h", ("h", c, a), z).  Each structure map is indexed
    once per call; no ``exactlin`` map kernel is used."""
    require_same_coalgebra(p, q)
    cl = [lab for _, _, lab in p.coalgebra.space.basis()]
    return _degree_zero_kernel(p.space, q.space, _action_legs(
        p.theta, q.theta, cl, lambda x, c: ("h", c, x)))


def same_degree_zero_subspace(hobj: HomObject, units, kernel) -> bool:
    """Compare the hom object's degree-zero part against an independently
    solved subspace over the same matrix-unit basis."""
    amb_labels = [lab for k, _, lab in hobj.ambient.basis() if k == 0]
    if amb_labels != list(units):
        raise MismatchedSignature("the units are not the degree-0 basis of "
                                  "the hom object's ambient")
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
