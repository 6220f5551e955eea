"""Contramodules over a base set.

A contramodule is a carrier X with a structure map theta that assigns an
element of X to every function base -> X, subject to two laws:

* constants are fixed: theta(const_x) = x;
* the row-diagonal identity: for any base x base matrix of elements, the
  theta-product of the row theta-products equals the theta-product of the
  diagonal.

Two storage forms coexist.  The extensional form keeps the full theta table
(needed for axiom checking and enumeration); the intensional form keeps a
family of non-empty fibers whose product is the carrier (needed whenever
the table would blow up).  Converters connect them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

from . import finset
from .errors import (
    DEFAULT_BUDGET,
    BaseMismatch,
    Budget,
    EmptyCarrier,
    EmptyFiber,
)
from .finset import FinMap, FinSet, SubPresentation


@dataclass(eq=True)
class ContraTable:
    """A contramodule over a finite base, in one of two storage forms.

    Exactly one of ``theta`` (extensional table on the full function space)
    and ``fibers`` (intensional product form) is set.
    """

    carrier: FinSet
    base: FinSet
    theta: FinMap | None = None
    fibers: dict[str, FinSet] | None = None

    def __post_init__(self):
        if (self.theta is None) == (self.fibers is None):
            raise ValueError("exactly one of theta/fibers must be given")
        if self.fibers is not None and set(self.fibers) != set(
            self.base.elements
        ):
            raise ValueError("fibers must be indexed by the base")

    def is_empty(self) -> bool:
        return len(self.carrier) == 0

    def theta_value(self, beta: FinMap) -> str:
        """Apply the structure map to a function base -> carrier."""
        if beta.dom != self.base or beta.cod != self.carrier:
            raise ValueError("beta must map base to carrier")
        if self.theta is not None:
            return self.theta(finset.encode_map(beta))
        decode = finset.choice_table(self.base, self.fibers)
        choices = {a: decode[beta(a)].table[a] for a in self.base}
        return finset.encode_table(self.base, choices)


def product_contra(base: FinSet, fibers: dict[str, FinSet]) -> ContraTable:
    """The product contramodule of a family of non-empty fibers.

    The carrier is the set of choice functions; theta picks, at each base
    point, the value of the corresponding component.
    """
    if set(fibers) != set(base.elements):
        raise ValueError("fibers must be indexed by the base")
    for a, fs in fibers.items():
        if len(fs) == 0:
            raise EmptyFiber(f"fiber over {a!r} is empty")
    carrier = FinSet(
        finset.encode_table(base, ch)
        for ch in finset.choices(base, [fibers[a] for a in base])
    )
    return ContraTable(carrier, base, fibers=dict(fibers))


def empty_contramodule(base: FinSet) -> ContraTable:
    """The empty contramodule; it only exists over a non-empty base."""
    if len(base) == 0:
        raise EmptyCarrier("the empty carrier is not a contramodule over "
                           "the empty base")
    ambient = finset.function_space(base, finset.EMPTY)
    theta = FinMap(ambient, finset.EMPTY, {})
    return ContraTable(finset.EMPTY, base, theta=theta)


def to_extensional(t: ContraTable,
                   budget: Budget = DEFAULT_BUDGET) -> ContraTable:
    """Materialise the full theta table of a product-form contramodule."""
    if t.theta is not None:
        return t
    budget.charge(len(t.carrier) ** len(t.base), "extensional table")
    ambient = finset.function_space(t.base, t.carrier)
    decode = finset.choice_table(t.base, t.fibers)
    table = {}
    for label in ambient:
        beta = finset.decode_map(label, t.base, t.carrier)
        choices = {a: decode[beta(a)].table[a] for a in t.base}
        table[label] = finset.encode_table(t.base, choices)
    theta = FinMap(ambient, t.carrier, table)
    return ContraTable(t.carrier, t.base, theta=theta)


# --- validation ---------------------------------------------------------------


def validate(t: ContraTable, budget: Budget = DEFAULT_BUDGET) -> dict:
    """Check contraunitality and the row-diagonal identity exhaustively.

    Requires the extensional form.  Returns a report dict; the first
    violation is recorded as a witness instead of raising.
    """
    if t.theta is None:
        raise ValueError("validate needs the extensional form; "
                         "use to_extensional first")
    nx, nc = len(t.carrier), len(t.base)
    if nx == 0:
        return {"ok": True, "contraunital": True, "row_diagonal": True,
                "checked_matrices": 0, "witness": None}
    n_matrices = nx ** (nc * nc)
    budget.charge(n_matrices, "row-diagonal check")
    theta_idx, betas = _packed_theta(t)
    ok_unit, unit_witness = _check_contraunit(theta_idx, nx, nc)
    ok_row, row_witness = (True, None)
    if ok_unit:
        ok_row, row_witness = _check_row_diagonal(theta_idx, nx, nc)
    witness = None
    if not ok_unit:
        witness = {"law": "contraunitality",
                   "element": t.carrier.elements[unit_witness]}
    elif not ok_row:
        witness = {
            "law": "row-diagonal",
            "matrix": {
                a: {
                    b: t.carrier.elements[
                        row_witness[i][j]
                    ]
                    for j, b in enumerate(t.base)
                }
                for i, a in enumerate(t.base)
            },
        }
    return {
        "ok": ok_unit and ok_row,
        "contraunital": ok_unit,
        "row_diagonal": ok_row,
        "checked_matrices": n_matrices if ok_unit else 0,
        "witness": witness,
    }


def _packed_theta(t: ContraTable):
    """The theta table as a tuple over odometer-ordered value tuples."""
    nx, nc = len(t.carrier), len(t.base)
    betas = list(iproduct(range(nx), repeat=nc))
    pos = {b: i for i, b in enumerate(betas)}
    out = []
    for b in betas:
        table = {
            a: t.carrier.elements[b[i]] for i, a in enumerate(t.base.elements)
        }
        beta = FinMap(t.base, t.carrier, table)
        out.append(t.carrier.index(t.theta_value(beta)))
    return tuple(out), betas


def _beta_index(values: tuple[int, ...], nx: int) -> int:
    idx = 0
    for v in values:
        idx = idx * nx + v
    return idx


def _check_contraunit(theta_idx, nx, nc):
    for x in range(nx):
        if theta_idx[_beta_index((x,) * nc, nx)] != x:
            return False, x
    return True, None


def _check_row_diagonal(theta_idx, nx, nc):
    rows = list(iproduct(range(nx), repeat=nc))
    for gamma in iproduct(range(len(rows)), repeat=nc):
        # gamma[i] indexes the row over the i-th base element
        row_products = tuple(theta_idx[r] for r in gamma)
        diagonal = tuple(rows[gamma[i]][i] for i in range(nc))
        if theta_idx[_beta_index(row_products, nx)] != theta_idx[
            _beta_index(diagonal, nx)
        ]:
            return False, tuple(rows[g] for g in gamma)
    return True, None


# --- decomposition ------------------------------------------------------------


def pi_map(t: ContraTable, u: str, a: str) -> FinMap:
    """The idempotent that projects onto the fiber over ``a`` relative to
    the base point ``u``: x goes to theta of the function that is x at a
    and u elsewhere."""
    table = {}
    for x in t.carrier:
        delta = FinMap(
            t.base, t.carrier, {b: x if b == a else u for b in t.base}
        )
        table[x] = t.theta_value(delta)
    return FinMap(t.carrier, t.carrier, table)


def decompose(t: ContraTable, u: str):
    """Split a contramodule into its fiber product relative to a base point.

    Returns ``(family, pi, sigma)`` where family maps each base point to its
    fiber (a subset of the carrier), pi is the carrier-to-product map with
    the fiber projections as components, and sigma is the restriction of
    theta to the product.  The two maps are checked to be mutually inverse;
    pi being a contramodule map is exercised by the test-suite oracles.
    """
    if t.is_empty():
        raise EmptyCarrier("the empty contramodule has no base point; "
                           "it is its own decomposition")
    if u not in t.carrier:
        raise ValueError(f"base point {u!r} is not in the carrier")
    family = {}
    projections = {}
    for a in t.base:
        p = pi_map(t, u, a)
        projections[a] = p
        family[a] = p.image()
    prod = product_contra(t.base, family)
    pi = FinMap(
        t.carrier,
        prod.carrier,
        {
            x: finset.encode_table(
                t.base, {a: projections[a](x) for a in t.base}
            )
            for x in t.carrier
        },
    )
    sigma_table = {}
    for ch in finset.choices(t.base, [family[a] for a in t.base]):
        beta = FinMap(t.base, t.carrier, ch)
        sigma_table[finset.encode_table(t.base, ch)] = t.theta_value(beta)
    sigma = FinMap(prod.carrier, t.carrier, sigma_table)
    assert finset.compose(sigma, pi) == finset.identity(t.carrier)
    assert finset.compose(pi, sigma) == finset.identity(prod.carrier)
    return family, pi, sigma


def is_contramodule_map(
    f: FinMap, s: ContraTable, t: ContraTable, budget: Budget = DEFAULT_BUDGET
) -> bool:
    """Definition check: f(theta_s(beta)) == theta_t(f o beta) for all beta."""
    if s.base != t.base:
        raise BaseMismatch("contramodule maps need a shared base")
    budget.charge(len(s.carrier) ** len(s.base), "contramodule-map check")
    for beta in finset._all_maps(s.base, s.carrier):
        f_beta = FinMap(
            t.base, t.carrier, {a: f(beta(a)) for a in t.base}
        )
        if f(s.theta_value(beta)) != t.theta_value(f_beta):
            return False
    return True


# --- homs ---------------------------------------------------------------------


def contra_hom_members(s: ContraTable, t: ContraTable,
                       budget: Budget = DEFAULT_BUDGET) -> list[FinMap]:
    """All contramodule maps s -> t as carrier maps, fiberwise.

    Both inputs must be valid.  Non-product forms are decomposed first (at
    the least carrier label); maps between products are exactly the slotwise
    families, transported back to honest carrier maps.
    """
    if s.base != t.base:
        raise BaseMismatch("contra_hom needs a shared base")
    if s.is_empty():
        return [FinMap(s.carrier, t.carrier, {})]
    if t.is_empty():
        return []
    s_family, s_pi, s_sigma = _as_product(s)
    t_family, t_pi, t_sigma = _as_product(t)
    decode = finset.choice_table(s.base, s_family)
    decoded = [(x, decode[s_pi(x)].table) for x in s.carrier]
    members = []
    for comps in _component_families(s.base, s_family, t_family, budget):
        table = {
            x: t_sigma(finset.encode_table(
                t.base, {a: comps[a][ch[a]] for a in t.base}
            ))
            for x, ch in decoded
        }
        members.append(FinMap(s.carrier, t.carrier, table))
    return members


def _as_product(t: ContraTable):
    """A product presentation of a valid contramodule: fibers plus the
    mutually inverse carrier/product maps."""
    if t.fibers is not None:
        fam = dict(t.fibers)
        pi = FinMap(
            t.carrier,
            t.carrier,
            {x: x for x in t.carrier},
        )
        return fam, pi, pi
    u = t.carrier.elements[0]
    return decompose(t, u)


def contra_hom(
    s: ContraTable, t: ContraTable, budget: Budget = DEFAULT_BUDGET
) -> SubPresentation:
    """The contramodule maps as a subset of the full function space."""
    if s.base != t.base:
        raise BaseMismatch("contra_hom needs a shared base")
    budget.charge(len(t.carrier) ** len(s.carrier), "function space")
    ambient = finset.function_space(s.carrier, t.carrier)
    labels = sorted(
        finset.encode_map(f) for f in contra_hom_members(s, t, budget)
    )
    members = FinSet(labels)
    include = FinMap(members, ambient, {x: x for x in members})
    return SubPresentation(ambient, members, include)


def contra_hom_by_definition(s: ContraTable, t: ContraTable,
                             budget: Budget = DEFAULT_BUDGET) -> list[FinMap]:
    """Brute-force oracle for contra_hom: filter every carrier map."""
    budget.charge(len(t.carrier) ** len(s.carrier), "carrier map enumeration")
    out = []
    for f in finset._all_maps(s.carrier, t.carrier):
        if is_contramodule_map(f, s, t, budget):
            out.append(f)
    return out


# --- exhaustive enumeration -----------------------------------------------


def enumerate_all(
    carrier: FinSet, base: FinSet, budget: Budget = DEFAULT_BUDGET
) -> list[ContraTable]:
    """Every valid extensional theta table on the given carrier and base,
    in canonical (odometer) order."""
    nx, nc = len(carrier), len(base)
    if nx == 0:
        return []
    budget.charge(nx ** (nx**nc), "theta-table enumeration")
    betas = list(iproduct(range(nx), repeat=nc))
    nb = len(betas)
    const_idx = [_beta_index((x,) * nc, nx) for x in range(nx)]
    survivors = []
    for theta_vals in iproduct(range(nx), repeat=nb):
        if any(theta_vals[const_idx[x]] != x for x in range(nx)):
            continue
        ok, _ = _check_row_diagonal(theta_vals, nx, nc)
        if ok:
            survivors.append(theta_vals)
    ambient = finset.function_space(base, carrier)
    out = []
    for theta_vals in survivors:
        table = {}
        for i, b in enumerate(betas):
            beta = FinMap(
                base,
                carrier,
                {a: carrier.elements[b[j]] for j, a in enumerate(base.elements)},
            )
            table[finset.encode_map(beta)] = carrier.elements[theta_vals[i]]
        out.append(
            ContraTable(carrier, base, theta=FinMap(ambient, carrier, table))
        )
    return out


def count_product_structures(carrier: FinSet, base: FinSet) -> int:
    """Combinatorial oracle: the number of base-indexed partition families
    of the carrier whose classes meet in exactly one point each way.

    Each such family induces exactly one valid theta table, so this count
    must match ``len(enumerate_all(...))``.
    """
    parts = list(_partitions(list(carrier.elements)))
    count = 0
    for combo in iproduct(parts, repeat=len(base)):
        if _is_grid(combo, len(carrier)):
            count += 1
    return count


def _partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for p in _partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [[head] + p[i]] + p[i + 1 :]
        yield [[head]] + p


def _is_grid(partitions, n) -> bool:
    # every way of picking one class per partition must meet in exactly one
    # element; the intersection map is then a bijection onto the carrier
    hits = 0
    for classes in iproduct(*partitions):
        inter = set(classes[0])
        for cl in classes[1:]:
            inter &= set(cl)
        if len(inter) != 1:
            return False
        hits += 1
    return hits == n


# --- change of base ---------------------------------------------------------


def restrict_contra(f: FinMap, t: ContraTable) -> ContraTable:
    """Restrict along a map of base sets: the new theta precomposes with f.

    Extensional input stays on the same carrier; product input is regrouped
    so the fiber over z is the product of the old fibers over the preimage
    of z (a singleton when the preimage is empty).
    """
    if f.dom != t.base:
        raise BaseMismatch("restriction needs f.dom == base")
    chat = f.cod
    if t.theta is not None:
        ambient = finset.function_space(chat, t.carrier)
        table = {}
        for label in ambient:
            g = finset.decode_map(label, chat, t.carrier)
            table[label] = t.theta_value(finset.compose(g, f))
        return ContraTable(t.carrier, chat, theta=FinMap(ambient, t.carrier, table))
    new_fibers = {}
    for z in chat:
        pre = FinSet([y for y in t.base if f(y) == z])
        new_fibers[z] = FinSet(
            finset.encode_table(pre, ch)
            for ch in finset.choices(pre, [t.fibers[y] for y in pre])
        )
    return product_contra(chat, new_fibers)


def restrict_regroup_iso(f: FinMap, t: ContraTable) -> FinMap:
    """The canonical carrier bijection between a product contramodule and
    its regrouped restriction."""
    assert t.fibers is not None
    r = restrict_contra(f, t)
    table = {}
    for ch in finset.choices(t.base, [t.fibers[a] for a in t.base]):
        grouped = {}
        for z in f.cod:
            pre = FinSet([y for y in t.base if f(y) == z])
            grouped[z] = finset.encode_table(pre, ch)
        table[finset.encode_table(t.base, ch)] = finset.encode_table(
            f.cod, grouped
        )
    return FinMap(t.carrier, r.carrier, table)


def restrict_forms_agree(f: FinMap, t: ContraTable) -> bool:
    """Elementwise agreement of the theta-composition and fiber-formula
    forms of restriction, through the canonical regrouping."""
    assert t.fibers is not None
    ext = restrict_contra(f, to_extensional(t))
    grouped = restrict_contra(f, t)
    iso = restrict_regroup_iso(f, t)
    for g in finset._all_maps(f.cod, ext.carrier):
        lhs = iso(ext.theta_value(g))
        g_iso = FinMap(
            f.cod, grouped.carrier, {z: iso(g(z)) for z in f.cod}
        )
        if lhs != grouped.theta_value(g_iso):
            return False
    return True


def induce_contra(f: FinMap, t: ContraTable) -> ContraTable:
    """Induce along a map of base sets: the fiber over z is the old fiber
    over f(z); the empty contramodule stays empty."""
    if f.cod != t.base:
        raise BaseMismatch("induction needs f.cod == base of t")
    c = f.dom
    if t.is_empty():
        if len(c) == 0:
            return product_contra(c, {})
        return empty_contramodule(c)
    if t.fibers is None:
        raise ValueError("induce_contra needs the product form")
    return product_contra(c, {z: t.fibers[f(z)] for z in c})


def all_product_shapes(base: FinSet, max_fiber: int):
    """Every product contramodule over the base with fibers of bounded size,
    on canonical fiber labels."""
    sizes = range(1, max_fiber + 1)
    for shape in finset.choices(base, [sizes] * len(base)):
        fam = {
            a: FinSet([f"v{a}_{j}" for j in range(1, k + 1)])
            for a, k in shape.items()
        }
        yield product_contra(base, fam)


def contra_components(
    u: FinMap, s: ContraTable, t: ContraTable
) -> dict[str, FinMap]:
    """The slotwise components of a contramodule map between product forms.

    A map between products acts independently in every slot; the component
    over ``a`` is read off by varying only that slot of a fixed choice.
    """
    assert s.fibers is not None and t.fibers is not None
    decode_t = finset.choice_table(t.base, t.fibers)
    c0 = finset.choice_table(s.base, s.fibers)[s.carrier.elements[0]].table
    comps = {}
    for a in s.base:
        table = {}
        for x in s.fibers[a]:
            ch = dict(c0)
            ch[a] = x
            val = decode_t[u(finset.encode_table(s.base, ch))].table[a]
            table[x] = val
        comps[a] = FinMap(s.fibers[a], t.fibers[a], table)
    return comps


def _product_map(s: ContraTable, t: ContraTable, comps) -> FinMap:
    """Assemble a slotwise family back into a carrier map."""
    table = {}
    for ch in finset.choices(s.base, [s.fibers[a] for a in s.base]):
        image = {a: comps[a](ch[a]) for a in s.base}
        table[finset.encode_table(s.base, ch)] = finset.encode_table(
            t.base, image
        )
    return FinMap(s.carrier, t.carrier, table)


def transpose_hom(
    f: FinMap, t: ContraTable, s: ContraTable, u: FinMap
) -> FinMap:
    """The adjunction bijection: a map out of the induced contramodule
    corresponds to the map into the restriction that collects, over each
    target point, the components indexed by its preimage."""
    ind_t = induce_contra(f, t)
    res_s = restrict_contra(f, s)
    comps = contra_components(u, ind_t, s)
    table = {}
    for ch in finset.choices(t.base, [t.fibers[a] for a in t.base]):
        grouped = {}
        for y in f.cod:
            pre = FinSet([z for z in f.dom if f(z) == y])
            grouped[y] = finset.encode_table(
                pre, {z: comps[z](ch[y]) for z in pre}
            )
        table[finset.encode_table(t.base, ch)] = finset.encode_table(
            f.cod, grouped
        )
    return FinMap(t.carrier, res_s.carrier, table)


def _component_families(base: FinSet, s_fibers: dict, t_fibers: dict,
                        budget: Budget):
    """All slotwise families between two fiber families over one base (=
    all contramodule maps between their products, via
    :func:`contra_components`), each slot map a dict."""
    budget.charge(
        math.prod(len(t_fibers[a]) ** len(s_fibers[a]) for a in base),
        "slotwise hom enumeration",
    )
    pools = [
        list(finset.choices(s_fibers[a], [t_fibers[a]] * len(s_fibers[a])))
        for a in base
    ]
    return finset.choices(base, pools)


def _transpose_components(
    f: FinMap, t: ContraTable, comps_u: dict, pre: dict | None = None
) -> dict:
    """Component form of the adjunction transpose: the slot over y collects
    the u-components indexed by the preimage of y."""
    if pre is None:
        pre = {y: sorted(z for z in f.dom if f(z) == y) for y in f.cod}
    out = {}
    for y in f.cod.elements:
        zs = pre[y]
        out[y] = {
            x: finset.encode_table(zs, {z: comps_u[z][x] for z in zs})
            for x in t.fibers[y].elements
        }
    return out


def induction_adjunction_certificate(
    f: FinMap, fiber_bound: int = 2, budget: Budget = DEFAULT_BUDGET
) -> dict:
    """Certify that induction is left adjoint to restriction along f.

    For every pair of product contramodules within the fiber bound, the
    transpose is checked to be a bijection between the two hom sets, and
    its naturality in both arguments is checked on every morphism of the
    bounded family; each hom enumeration is charged against the budget.
    Hom elements and composites are handled slotwise; the slotwise calculus
    itself is certified against carrier-level maps by the test-suite on
    small bases.
    """
    c, chat = f.dom, f.cod
    ts = list(all_product_shapes(chat, fiber_bound))
    ss = list(all_product_shapes(c, fiber_bound))
    pre = {y: sorted(z for z in c if f(z) == y) for y in chat}
    report = {
        "f": dict(f.table),
        "pairs": 0,
        "hom_elements": 0,
        "naturality_squares": 0,
        "failures": [],
    }

    def key_of(family, keys):
        return tuple(
            tuple(sorted(family[k].items())) for k in keys
        )

    # the naturality families between two shapes do not depend on the
    # third shape of the loop: enumerate each pair's once, at first use, so
    # the budget is charged in the same order as without the memo
    families = {}

    def families_between(key, base, s_fibers, t_fibers):
        got = families.get(key)
        if got is None:
            got = families[key] = list(
                _component_families(base, s_fibers, t_fibers, budget)
            )
        return got

    ckeys = c.elements
    ykeys = chat.elements
    fz = {z: f(z) for z in ckeys}
    squares = 0
    for i, t in enumerate(ts):
        ind_t = induce_contra(f, t)
        ind_fibers = {z: ind_t.fibers[z].elements for z in ckeys}
        t_fibers = {y: t.fibers[y].elements for y in ykeys}
        for j, s in enumerate(ss):
            res_s = restrict_contra(f, s)
            hom1 = [
                {z: dict(fam[z]) for z in ckeys}
                for fam in _component_families(
                    c, ind_t.fibers, s.fibers, budget
                )
            ]
            hom2_keys = {
                key_of({y: fam[y] for y in ykeys}, ykeys)
                for fam in _component_families(
                    chat, t.fibers, res_s.fibers, budget
                )
            }
            report["pairs"] += 1
            report["hom_elements"] += len(hom1)
            phi = {}
            pairs_u = []
            for comps_u in hom1:
                v = _transpose_components(f, t, comps_u, pre)
                kv = key_of(v, ykeys)
                if kv not in hom2_keys:
                    report["failures"].append(
                        {"kind": "transpose-not-a-hom", "u": comps_u}
                    )
                phi[key_of(comps_u, ckeys)] = v
                pairs_u.append((comps_u, v))
            image = {key_of(v, ykeys) for v in phi.values()}
            if len(image) != len(hom1) or len(hom1) != len(hom2_keys):
                report["failures"].append(
                    {"kind": "not-a-bijection",
                     "sizes": (len(hom1), len(hom2_keys))}
                )
            for i2, t2 in enumerate(ts):
                t2_fibers = {y: t2.fibers[y].elements for y in ykeys}
                # many composites coincide; transpose each one once
                transposed = {}
                for a_fam in families_between(
                    ("source", i2, i), chat, t2.fibers, t.fibers
                ):
                    # u o Ind(a) has components u_z o a_{f(z)}
                    a_slots = [
                        (z, a_fam[fz[z]], t2_fibers[fz[z]]) for z in ckeys
                    ]
                    for comps_u, v in pairs_u:
                        composed = {
                            z: {x: comps_u[z][a[x]] for x in xs}
                            for z, a, xs in a_slots
                        }
                        ckey = tuple(
                            tuple(d.values()) for d in composed.values()
                        )
                        lhs = transposed.get(ckey)
                        if lhs is None:
                            lhs = _transpose_components(f, t2, composed, pre)
                            transposed[ckey] = lhs
                        rhs = {
                            y: {x: v[y][a_fam[y][x]] for x in t2_fibers[y]}
                            for y in ykeys
                        }
                        squares += 1
                        if lhs != rhs:
                            report["failures"].append(
                                {"kind": "not-natural-in-source",
                                 "a": a_fam, "u": comps_u}
                            )
            # Res(s) regroups the fiber over y as choices on its preimage
            decoded = {
                y: [
                    (lab, ch.table) for lab, ch in
                    finset.choice_table(FinSet(pre[y]), s.fibers).items()
                ]
                for y in ykeys
            }
            for j2, s2 in enumerate(ss):
                transposed = {}
                for b_fam in families_between(
                    ("target", j, j2), c, s.fibers, s2.fibers
                ):
                    # Res(b) acts inside every regrouped fiber
                    res_b = {
                        y: {
                            lab: finset.encode_table(
                                pre[y], {z: b_fam[z][ch[z]] for z in pre[y]}
                            )
                            for lab, ch in decoded[y]
                        }
                        for y in ykeys
                    }
                    for comps_u, v in pairs_u:
                        composed = {
                            z: {
                                x: b_fam[z][comps_u[z][x]]
                                for x in ind_fibers[z]
                            }
                            for z in ckeys
                        }
                        ckey = tuple(
                            tuple(d.values()) for d in composed.values()
                        )
                        lhs = transposed.get(ckey)
                        if lhs is None:
                            lhs = _transpose_components(f, t, composed, pre)
                            transposed[ckey] = lhs
                        rhs = {
                            y: {x: res_b[y][v[y][x]] for x in t_fibers[y]}
                            for y in ykeys
                        }
                        squares += 1
                        if lhs != rhs:
                            report["failures"].append(
                                {"kind": "not-natural-in-target",
                                 "b": b_fam, "u": comps_u}
                            )
    report["naturality_squares"] = squares
    report["ok"] = not report["failures"]
    return report


def noncocontinuity_demo(c: FinSet) -> dict:
    """Compare the function-space functor applied to a one-point quotient
    against the quotient of the function spaces.

    With a two-point carrier, collapsing the two points before taking
    function spaces gives a single point, while collapsing afterwards
    leaves 2^|base| - 1 classes; the sizes disagree whenever the base has
    at least two points.
    """
    x = FinSet(("a", "b"))
    alpha = finset.constant(finset.POINT, x, "a")
    beta = finset.constant(finset.POINT, x, "b")
    fx = finset.function_space(c, x)
    fpt = finset.function_space(c, finset.POINT)
    const_a = finset.encode_map(finset.constant(c, x, "a"))
    const_b = finset.encode_map(finset.constant(c, x, "b"))
    f_alpha = FinMap(fpt, fx, {label: const_a for label in fpt})
    f_beta = FinMap(fpt, fx, {label: const_b for label in fpt})
    first = finset.coequalizer(f_alpha, f_beta)
    coeq = finset.coequalizer(alpha, beta)
    second = finset.function_space(c, coeq.project.cod)
    sizes = (len(first.project.cod), len(second))
    return {
        "base_size": len(c),
        "quotient_after_function_space": sizes[0],
        "function_space_of_quotient": sizes[1],
        "equal": sizes[0] == sizes[1],
        "identified": sorted([const_a, const_b]),
        "cocontinuous_here": sizes[0] == sizes[1],
    }
