"""Contramodules over a base set.

A contramodule is a carrier X with a structure map theta that assigns an
element of X to every function base -> X, subject to two laws:

* constants are fixed: theta(const_x) = x;
* the row-diagonal identity: for any base x base matrix of elements, the
  theta-product of the row theta-products equals the theta-product of the
  diagonal.

One of two storage forms is set.  The extensional form keeps the full
theta table, on carrier positions (needed for axiom checking and
enumeration); the intensional form keeps a family of non-empty fibers whose
product is the carrier (needed whenever the table would blow up).
``to_extensional`` builds the table of a product; ``serialize`` labels it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product as iproduct
from operator import getitem
from typing import NamedTuple

from . import finset
from .errors import (
    BaseMismatch,
    EmptyCarrier,
    EmptyFiber,
    InvalidConstruction,
    charge,
    charge_power,
    job_table,
)
from .finset import FinMap, FinSet, SubPresentation


@dataclass(eq=True)
class ContraTable:
    """A contramodule over a finite base, in one of two storage forms.

    Exactly one of ``theta`` (the carrier position of theta(beta) for every
    beta: base -> carrier, beta in the odometer order of its value
    positions) and ``fibers`` (intensional product form) is set.
    """

    carrier: FinSet
    base: FinSet
    theta: tuple[int, ...] | None = None
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

    def theta_fn(self):
        """The structure map as a function of beta: base -> carrier; a
        product form fetches its decode table once, here."""
        base, carrier = self.base, self.carrier
        decode = self.fibers and finset.choice_table(base, self.fibers)

        def apply(beta: FinMap) -> str:
            if beta.dom != base or beta.cod != carrier:
                raise ValueError("beta must map base to carrier")
            if decode is None:
                return carrier.elements[self.theta[_beta_index(
                    map(carrier.index, map(beta, base)), len(carrier))]]
            return finset.encode_table(
                base, {a: decode[beta(a)].table[a] for a in base})

        return apply


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
    carrier = FinSet(finset.choice_labels(base, [fibers[a] for a in base]))
    return ContraTable(carrier, base, fibers=dict(fibers))


def empty_contramodule(base: FinSet) -> ContraTable:
    """The empty contramodule; it only exists over a non-empty base."""
    if len(base) == 0:
        raise EmptyCarrier("the empty carrier is not a contramodule over "
                           "the empty base")
    return ContraTable(finset.EMPTY, base, theta=())


def to_extensional(t: ContraTable) -> ContraTable:
    """Materialise the full theta table of a product-form contramodule:
    theta(beta) takes its value at a from the choice beta(a)."""
    if t.theta is not None:
        return t
    nx, nc = len(t.carrier), len(t.base)
    charge(nx ** nc, "extensional table")
    pools = [t.fibers[a].elements for a in t.base]
    # the carrier position of each choice tuple, and the tuple at each
    position = {ch: t.carrier.index(label) for label, ch in zip(
        finset.choice_labels(t.base, pools), finset.odometer(pools))}
    choice = sorted(position, key=position.__getitem__)
    theta = tuple(position[tuple([choice[y][a] for a, y in enumerate(beta)])]
                  for beta in iproduct(range(nx), repeat=nc))
    return ContraTable(t.carrier, t.base, theta=theta)


# --- validation ---------------------------------------------------------------


def validate(t: ContraTable) -> dict:
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
    charge(n_matrices, "row-diagonal check")
    ok_unit, unit_witness = _check_contraunit(t.theta, nx, nc)
    ok_row, gamma = (True, None)
    if ok_unit:
        ok_row, gamma = _check_row_diagonal(
            t.theta, nx, _row_diagonal_plan(nx, nc))
    witness = None
    if not ok_unit:
        witness = {"law": "contraunitality",
                   "element": t.carrier.elements[unit_witness]}
    elif not ok_row:
        rows = _slot_maps(nc, nx)
        witness = {
            "law": "row-diagonal",
            "matrix": {
                a: {
                    b: t.carrier.elements[rows[gamma[i]][j]]
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


def _beta_index(values, nx: int) -> int:
    idx = 0
    for v in values:
        idx = idx * nx + v
    return idx


def _check_contraunit(theta_idx, nx, nc):
    for x in range(nx):
        if theta_idx[_beta_index((x,) * nc, nx)] != x:
            return False, x
    return True, None


def _row_diagonal_plan(nx: int, nc: int):
    """The row-diagonal identity on indices: every base x base matrix as
    the tuple gamma of the indices of its rows (value tuples in odometer
    order), with the index of its diagonal."""
    rows = _slot_maps(nc, nx)
    parts = [[row[i] * nx ** (nc - 1 - i) for row in rows]
             for i in range(nc)]
    for gamma in iproduct(range(len(rows)), repeat=nc):
        yield gamma, sum(map(getitem, parts, gamma))


def _check_row_diagonal(theta_idx, nx, plan):
    for gamma, diagonal in plan:
        # gamma[i] indexes the row over the i-th base element; theta of the
        # row products against theta of the diagonal
        if theta_idx[_beta_index([theta_idx[r] for r in gamma], nx)] != (
                theta_idx[diagonal]):
            return False, gamma
    return True, None


# --- decomposition ------------------------------------------------------------


def pi_map(t: ContraTable, u: str, a: str) -> FinMap:
    """The idempotent that projects onto the fiber over ``a`` relative to
    the base point ``u``: x goes to theta of the function that is x at a
    and u elsewhere."""
    table = {}
    theta = t.theta_fn()
    for x in t.carrier:
        delta = FinMap(
            t.base, t.carrier, {b: x if b == a else u for b in t.base}
        )
        table[x] = theta(delta)
    return FinMap(t.carrier, t.carrier, table)


def decompose(t: ContraTable, u: str):
    """Split a contramodule into its fiber product relative to a base point.

    Returns ``(family, pi, sigma)`` where family maps each base point to its
    fiber (a subset of the carrier), pi is the carrier-to-product map with
    the fiber projections as components, and sigma is the restriction of
    theta to the product.  The two maps are checked to be mutually inverse
    (:class:`InvalidConstruction` when they are not, as on a table that is
    no contramodule); pi being a contramodule map is checked by the
    ``decompose`` job and the test-suite oracles.
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
    theta = t.theta_fn()
    for ch in finset.choices(t.base, [family[a] for a in t.base]):
        beta = FinMap(t.base, t.carrier, ch)
        sigma_table[finset.encode_table(t.base, ch)] = theta(beta)
    sigma = FinMap(prod.carrier, t.carrier, sigma_table)
    if finset.compose(sigma, pi) != finset.identity(t.carrier):
        raise InvalidConstruction("sigma o pi is not the identity of the "
                                  "carrier")
    if finset.compose(pi, sigma) != finset.identity(prod.carrier):
        raise InvalidConstruction("pi o sigma is not the identity of the "
                                  "fiber product")
    return family, pi, sigma


def is_contramodule_map(f: FinMap, s: ContraTable, t: ContraTable) -> bool:
    """Definition check: f(theta_s(beta)) == theta_t(f o beta) for all beta."""
    if s.base != t.base:
        raise BaseMismatch("contramodule maps need a shared base")
    charge(len(s.carrier) ** len(s.base), "contramodule-map check")
    s_theta, t_theta = s.theta_fn(), t.theta_fn()
    for beta in finset._all_maps(s.base, s.carrier):
        f_beta = FinMap(
            t.base, t.carrier, {a: f(beta(a)) for a in t.base}
        )
        if f(s_theta(beta)) != t_theta(f_beta):
            return False
    return True


# --- homs ---------------------------------------------------------------------


def contra_hom_members(s: ContraTable, t: ContraTable) -> list[FinMap]:
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
    for comps in _component_families(s.base, s_family, t_family):
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
        pi = finset.identity(t.carrier)
        return dict(t.fibers), pi, pi
    u = t.carrier.elements[0]
    return decompose(t, u)


def contra_hom(s: ContraTable, t: ContraTable) -> SubPresentation:
    """The contramodule maps as a subset of the full function space."""
    if s.base != t.base:
        raise BaseMismatch("contra_hom needs a shared base")
    charge(len(t.carrier) ** len(s.carrier), "function space")
    ambient = finset.function_space(s.carrier, t.carrier)
    labels = sorted(
        finset.encode_map(f) for f in contra_hom_members(s, t)
    )
    members = FinSet(labels)
    include = FinMap(members, ambient, {x: x for x in members})
    return SubPresentation(ambient, members, include)


def contra_hom_by_definition(s: ContraTable, t: ContraTable) -> list[FinMap]:
    """Brute-force oracle for contra_hom: filter every carrier map."""
    charge(len(t.carrier) ** len(s.carrier), "carrier map enumeration")
    out = []
    for f in finset._all_maps(s.carrier, t.carrier):
        if is_contramodule_map(f, s, t):
            out.append(f)
    return out


# --- exhaustive enumeration -----------------------------------------------


def enumerate_all(carrier: FinSet, base: FinSet) -> list[ContraTable]:
    """Every valid extensional theta table on the given carrier and base,
    in canonical (odometer) order.

    Contraunitality fixes the constant functions; the other slots are
    filled by a forward-checked depth-first search (Haralick and Elliott,
    "Increasing tree search efficiency for constraint satisfaction
    problems", 1980), values ascending at each depth, so the survivors
    come out in the order of the odometer over those slots.  The charge is
    that odometer's size, an upper bound on the tables the search visits.
    """
    nx, nc = len(carrier), len(base)
    if nx == 0:
        # over a non-empty base the empty table is the one contramodule;
        # over the empty base there is none
        return [empty_contramodule(base)] if nc else []
    nb = nx**nc
    # charged for the free slots (the one slot over an empty base is
    # fixed), before any slot list is built
    charge_power(nx, nb - nx if nc else 0, "theta-table enumeration")
    return [ContraTable(carrier, base, theta=theta)
            for theta in _theta_tables(nx, nc)]


def _theta_tables(nx: int, nc: int) -> list[tuple[int, ...]]:
    """The valid theta tables on carrier positions, in odometer order of
    the free (non-constant) slots.

    A row-diagonal equation theta[beta(theta o gamma)] = theta[diag gamma]
    is taken up at the depth where the last of its static slots (gamma's
    rows and the diagonal) is assigned.  Its dynamic slot beta(theta o
    gamma) is then either assigned, and the equation is checked, or
    assigned later, and the equation forces that slot's value: a second,
    different forced value prunes the branch, and the slot takes only its
    forced value when its depth comes.  So every equation holds on every
    table returned.
    """
    nb = nx**nc
    theta = [None] * nb
    for x in range(nx):
        i = _beta_index((x,) * nc, nx)
        if theta[i] is not None:
            # over an empty base every constant is the one slot, which
            # contraunitality cannot send to two points
            return []
        theta[i] = x
    free = [i for i in range(nb) if theta[i] is None]
    # the depth at which each slot is assigned: 0 for the constants, k + 1
    # for the k-th free slot
    depth = [0] * nb
    for k, i in enumerate(free, 1):
        depth[i] = k
    ready = [[] for _ in range(len(free) + 1)]
    for gamma, diagonal in _row_diagonal_plan(nx, nc):
        ready[max([depth[diagonal], *map(depth.__getitem__, gamma)])].append(
            (gamma, diagonal))
    forced = [None] * nb
    survivors = []

    def consistent(k, newly):
        """Check the equations taken up at depth k, forcing the dynamic
        slots not yet assigned (each recorded in ``newly``); False on a
        conflict."""
        for gamma, diagonal in ready[k]:
            want = theta[diagonal]
            slot = _beta_index([theta[r] for r in gamma], nx)
            got = theta[slot]
            if got is None:
                got = forced[slot]
                if got is None:
                    forced[slot] = want
                    newly.append(slot)
                    continue
            if got != want:
                return False
        return True

    def visit(k):
        newly = []
        if consistent(k, newly):
            if k == len(free):
                survivors.append(tuple(theta))
            else:
                slot, value = free[k], forced[free[k]]
                for v in range(nx) if value is None else (value,):
                    theta[slot] = v
                    visit(k + 1)
                theta[slot] = None
        for slot in newly:
            forced[slot] = None

    visit(0)
    return survivors


def count_product_structures(carrier: FinSet, base: FinSet) -> int:
    """Combinatorial oracle: the number of base-indexed partition families
    of the carrier whose classes meet in exactly one point each way.

    Each such family induces exactly one valid theta table, so this count
    must match ``len(enumerate_all(...))``.  It visits Bell(|X|)^|C|
    families, charged before the partitions are listed.
    """
    charge_power(_bell(len(carrier)), len(base), "partition families")
    parts = list(_partitions(list(carrier.elements)))
    count = 0
    for combo in iproduct(parts, repeat=len(base)):
        if _is_grid(combo, len(carrier)):
            count += 1
    return count


def _bell(n: int) -> int:
    """The number of partitions of an n-element set, by the Bell
    triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


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
    # element; the intersection map is then a bijection onto the carrier.
    # An empty family of classes meets in the whole carrier.
    hits = 0
    for classes in iproduct(*partitions):
        size = len(set.intersection(*map(set, classes))) if classes else n
        if size != 1:
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
        nx = len(t.carrier)
        charge(nx ** len(chat), "restricted theta table")
        fpos = [chat.index(f(b)) for b in t.base]
        # theta of g o f for every g: chat -> carrier
        theta = tuple(t.theta[_beta_index(map(g.__getitem__, fpos), nx)]
                      for g in iproduct(range(nx), repeat=len(chat)))
        return ContraTable(t.carrier, chat, theta=theta)
    new_fibers = {}
    for z in chat:
        pre = FinSet([y for y in t.base if f(y) == z])
        new_fibers[z] = FinSet(
            finset.choice_labels(pre, [t.fibers[y] for y in pre]))
    return product_contra(chat, new_fibers)


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


def _component_families(base: FinSet, s_fibers: dict, t_fibers: dict):
    """All slotwise families between two fiber families over one base,
    each slot map a dict: all contramodule maps between their products,
    since such a map acts on each slot alone."""
    charge(
        math.prod(len(t_fibers[a]) ** len(s_fibers[a]) for a in base),
        "slotwise hom enumeration",
    )
    pools = [
        list(finset.choices(s_fibers[a], [t_fibers[a]] * len(s_fibers[a])))
        for a in base
    ]
    return finset.choices(base, pools)


# --- the induction-adjunction certificate on slot codes -----------------------
#
# A slot map from m points to n points (fibers, in their sorted order) is
# stored as its code: the position of its value tuple in the odometer over
# range(n)^m, which is also its position in the enumeration of
# _component_families.  A family of slot maps is the tuple of its slot codes
# in the sorted order of the base.  Labels are rebuilt only for witnesses.

def _slot_maps(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The value tuple of every slot map from m points to n points, indexed
    by its code; one table per job and (m, n) (:func:`errors.job_table`)."""
    return job_table(("slots", m, n),
                     lambda: tuple(iproduct(range(n), repeat=m)))


def _after(g: tuple[int, ...], p: int, m: int) -> tuple[int, ...]:
    """The codes of g o h for every slot map h from m points into the
    domain of g, indexed by the code of h; g has values below p."""
    codes = [0]
    for _ in range(m):
        codes = [code * p + x for code in codes for x in g]
    return tuple(codes)


def _before(h: tuple[int, ...], n: int, p: int) -> tuple[int, ...]:
    """The codes of g o h for every slot map g from the n points of h's
    codomain to p points, indexed by the code of g."""
    return tuple(_beta_index([g[x] for x in h], p) for g in _slot_maps(n, p))


def _slot_families(src: tuple[int, ...], tgt: tuple[int, ...]):
    """Hom enumeration on codes: every family of slot maps between fibers
    of the given sizes, in the order of :func:`_component_families`, which
    charges the same count."""
    counts = [n**m for m, n in zip(src, tgt)]
    charge(math.prod(counts), "slotwise hom enumeration")
    return iproduct(*map(range, counts))


def _decode_family(keys, src_fibers, tgt_fibers, codes) -> dict:
    """A family of slot codes as the label dicts of the witnesses: a code
    is the base-|tgt| numeral of the slot map's values, last point last."""
    out = {}
    for k, src, tgt, code in zip(keys, src_fibers, tgt_fibers, codes):
        labels = []
        for _ in src:
            code, v = divmod(code, len(tgt))
            labels.append(tgt[v])
        out[k] = dict(zip(src, reversed(labels)))
    return out


class _Regrouped(NamedTuple):
    """One fiber of Res(s) on codes: the preimage ``zs`` of its point
    (positions in f's domain), the position ``pos`` in the fiber of every
    choice tuple on that preimage, the choice tuples in the ``order`` of
    those positions, and the fiber's ``size``."""

    zs: tuple[int, ...]
    pos: dict
    order: list
    size: int


def _regrouping(f: FinMap, s: ContraTable) -> list[_Regrouped]:
    """The fibers of Res(s) on codes, one per point of f's codomain.  They
    are sorted by label, so the positions are looked up, not assumed to be
    odometer order."""
    fibers = restrict_contra(f, s).fibers
    out = []
    for y in f.cod.elements:
        zs = [z for z in f.dom.elements if f(z) == y]
        pools = [s.fibers[z].elements for z in zs]
        pos = {}
        for ch in iproduct(*map(range, map(len, pools))):
            label = finset.encode_table(
                zs, {z: pool[i] for z, pool, i in zip(zs, pools, ch)}
            )
            pos[ch] = fibers[y].index(label)
        out.append(_Regrouped(tuple(map(f.dom.index, zs)), pos,
                              sorted(pos, key=pos.__getitem__),
                              len(fibers[y])))
    return out


def _transpose_codes(plan, u: tuple[int, ...]) -> tuple[int, ...]:
    """The adjunction transpose on codes: the slot over y of the transpose
    of u sends x to the choice (u_z(x) for z over y), as its position in the
    fiber of Res(s) over y.  ``plan`` holds, per point z of the domain, the
    value tuples of the slot maps u_z and, per y, the preimage, the choice
    positions and the size of the fiber of Res(s)."""
    tables, slots = plan
    rows = [table[code] for table, code in zip(tables, u)]
    v = []
    for zs, pos, size in slots:
        code = 0
        if zs:
            for ch in zip(*[rows[z] for z in zs]):
                code = code * size + pos[ch]
        v.append(code)
    return tuple(v)


# the witnesses a certificate reports of each failure kind; the rest are
# counted in its "failure_totals"
WITNESSES = 16


def _failing_squares(families, pairs, slots, failing):
    """The naturality squares (x, u) that fail, in the order of families x
    pairs.  ``slots[y]`` holds the positions that the slot over y reads in
    x and in u, and ``failing[y]`` the pairs of restrictions to them that
    fail there; a square fails when one of its slots does."""
    for x in families:
        for u, _ in pairs:
            for (xs, zs), bad in zip(slots, failing):
                if bad and (tuple([x[k] for k in xs]),
                            tuple([u[z] for z in zs])) in bad:
                    yield x, u
                    break


class _InductionCheck:
    """The per-call state of :func:`induction_adjunction_certificate`: the
    shapes on codes and the memoised families, slot tables, slot checks
    and composition rows, and the count of failures of each kind.  Every
    table lives as long as the call."""

    def __init__(self, f: FinMap, fiber_bound: int):
        self.table = dict(f.table)
        self.ckeys, self.ykeys = f.dom.elements, f.cod.elements
        self.fy = [f.cod.index(f(z)) for z in self.ckeys]
        ts = list(all_product_shapes(f.cod, fiber_bound))
        ss = list(all_product_shapes(f.dom, fiber_bound))
        self.t_fibers = [[t.fibers[y].elements for y in self.ykeys]
                         for t in ts]
        self.s_fibers = [[s.fibers[z].elements for z in self.ckeys]
                         for s in ss]
        self.t_sizes = [tuple(map(len, fib)) for fib in self.t_fibers]
        self.s_sizes = [tuple(map(len, fib)) for fib in self.s_fibers]
        self.res = [_regrouping(f, s) for s in ss]
        self.res_sizes = [tuple(r.size for r in res) for res in self.res]
        # the slot memos are keyed on a small int per fiber-label tuple:
        # per t_i and y, the fiber of t_i over y, and per s_j and y, the
        # fibers of s_j over the preimage of y
        ids = {}
        self.t_ids = [[ids.setdefault(fib, len(ids)) for fib in fibs]
                      for fibs in self.t_fibers]
        self.res_ids = [[ids.setdefault(tuple([fib[z] for z in r.zs]),
                                        len(ids)) for r in res]
                        for fib, res in zip(self.s_fibers, self.res)]
        self.families = {}
        self.slot_tables = {}
        self.slots = {}
        self.compositions = {}
        self.totals = Counter()

    def keep(self, kind: str) -> bool:
        """Count a failure of this kind; whether its witness is reported
        (the first :data:`WITNESSES` of each kind are)."""
        self.totals[kind] += 1
        return self.totals[kind] <= WITNESSES

    def family_list(self, key, src, tgt):
        """The naturality families between two shapes do not depend on the
        third shape of the loop: enumerate each pair's once, at first use,
        so the budget is charged in the same order as without the memo."""
        got = self.families.get(key)
        if got is None:
            got = self.families[key] = list(
                _slot_families(src, tgt))
        return got

    def plan(self, i: int, j: int):
        """The transpose plan of the pair (t_i, s_j), for the slot tables."""
        m, n = self.t_sizes[i], self.s_sizes[j]
        return ([_slot_maps(m[y], nz) for y, nz in zip(self.fy, n)],
                [(r.zs, r.pos, r.size) for r in self.res[j]])

    def slot_table(self, i: int, j: int, y: int) -> dict:
        """The slot over y of the transpose of the pair (t_i, s_j), by the
        restriction of u to the preimage zs of y, for every restriction:
        the transpose on the one-slot plan, with u 0 off zs.  The slot
        reads only those fibers, so the table is memoised by (the ids of)
        their labels and shared by every pair that has them."""
        key = (y, self.t_ids[i][y], self.res_ids[j][y])
        got = self.slot_tables.get(key)
        if got is None:
            tables, slots = self.plan(i, j)
            plan = (tables, [slots[y]])
            zs = slots[y][0]
            u = [0] * len(tables)
            got = self.slot_tables[key] = {}
            for uz in iproduct(*[range(len(tables[z])) for z in zs]):
                for z, code in zip(zs, uz):
                    u[z] = code
                got[uz] = _transpose_codes(plan, tuple(u))[0]
        return got

    def before(self, a: int, m: int, n: int, p: int) -> tuple[int, ...]:
        key = ("before", a, m, n, p)
        got = self.compositions.get(key)
        if got is None:
            got = self.compositions[key] = _before(_slot_maps(m, n)[a], n, p)
        return got

    def after(self, g: tuple[int, ...], p: int, m: int) -> tuple[int, ...]:
        key = ("after", g, p, m)
        got = self.compositions.get(key)
        if got is None:
            got = self.compositions[key] = _after(g, p, m)
        return got

    def decode_u(self, i: int, j: int, u) -> dict:
        fib = self.t_fibers[i]
        return _decode_family(self.ckeys, [fib[y] for y in self.fy],
                              self.s_fibers[j], u)

    def homs(self, i: int, j: int, report: dict):
        """Hom enumeration and transpose of the pair (t_i, s_j): every u in
        Hom(Ind t, s) with its transpose v in Hom(t, Res s), the transpose
        checked to be a bijection, each slot of v read off its slot table.
        Hom(t, Res s) is charged as before but only counted: its members are
        the code tuples within the bounds.  Returns the (u, v) pairs whose v
        is a member."""
        ind_t = tuple(self.t_sizes[i][y] for y in self.fy)
        hom1 = list(_slot_families(ind_t, self.s_sizes[j]))
        bounds = [n**m for m, n in zip(self.t_sizes[i], self.res_sizes[j])]
        charge(math.prod(bounds), "slotwise hom enumeration")
        report["pairs"] += 1
        report["hom_elements"] += len(hom1)
        slots = [(r.zs, self.slot_table(i, j, y))
                 for y, r in enumerate(self.res[j])]
        pairs = []
        image = set()
        for u in hom1:
            v = tuple([table[tuple([u[z] for z in zs])]
                       for zs, table in slots])
            image.add(v)
            if all(0 <= code < b for code, b in zip(v, bounds)):
                pairs.append((u, v))
            elif self.keep("transpose-not-a-hom"):
                report["failures"].append(
                    {"kind": "transpose-not-a-hom",
                     "u": self.decode_u(i, j, u)}
                )
        if ((len(image) != len(hom1) or len(hom1) != math.prod(bounds))
                and self.keep("not-a-bijection")):
            report["failures"].append(
                {"kind": "not-a-bijection",
                 "sizes": (len(hom1), math.prod(bounds))}
            )
        return pairs

    def source_slot(self, i2: int, i: int, j: int, y: int) -> set:
        """The slot over y of the squares "the transpose of u o Ind(a) is
        v o a" for a: t_i2 -> t_i and u: Ind t_i -> s_j.  Both sides read
        only a_y and u on the preimage zs of y: (u o Ind(a))_z = u_z o a_y
        and (v o a)_y = v_y o a_y.  Returns the failing (a_y, u|zs)."""
        key = ("source", y, self.t_ids[i2][y], self.t_ids[i][y],
               self.res_ids[j][y])
        got = self.slots.get(key)
        if got is None:
            got = self.slots[key] = set()
            m2, m = self.t_sizes[i2][y], self.t_sizes[i][y]
            zs = self.res[j][y].zs
            n = [self.s_sizes[j][z] for z in zs]
            big = self.res_sizes[j][y]
            vs, lhs = self.slot_table(i, j, y), self.slot_table(i2, j, y)
            for a in range(m**m2):
                left = [self.before(a, m2, m, nz) for nz in n]
                right = self.before(a, m2, m, big)
                for uz, v in vs.items():
                    # a v_y outside Res(s_j) over y is no hom: no square
                    if 0 <= v < len(right) and (
                            lhs[tuple(map(getitem, left, uz))] != right[v]):
                        got.add(((a,), uz))
        return got

    def target_slot(self, i: int, j: int, j2: int, y: int) -> set:
        """The slot over y of the squares "the transpose of b o u is
        Res(b) o v" for b: s_j -> s_j2 and u: Ind t_i -> s_j.  Both sides
        read only b and u on the preimage zs of y: (b o u)_z = b_z o u_z,
        and Res(b) acts inside the fiber over y by b|zs.  Returns the
        failing (b|zs, u|zs)."""
        key = ("target", y, self.t_ids[i][y], self.res_ids[j][y],
               self.res_ids[j2][y])
        got = self.slots.get(key)
        if got is None:
            got = self.slots[key] = set()
            m = self.t_sizes[i][y]
            r, r2 = self.res[j][y], self.res[j2][y]
            n = [self.s_sizes[j][z] for z in r.zs]
            n2 = [self.s_sizes[j2][z] for z in r.zs]
            vs, lhs = self.slot_table(i, j, y), self.slot_table(i, j2, y)
            tables = [_slot_maps(q, p) for q, p in zip(n, n2)]
            for b in iproduct(*map(range, map(len, tables))):
                b_rows = list(map(getitem, tables, b))
                res_b = tuple(
                    r2.pos[tuple([row[x] for row, x in zip(b_rows, ch)])]
                    for ch in r.order)
                left = [self.after(g, p, m) for g, p in zip(b_rows, n2)]
                right = self.after(res_b, r2.size, m)
                for uz, v in vs.items():
                    if 0 <= v < len(right) and (
                            lhs[tuple(map(getitem, left, uz))] != right[v]):
                        got.add((b, uz))
        return got

    def naturality(self, i: int, j: int, pairs, failures) -> int:
        """Naturality of the transpose of the pair (t_i, s_j) in both
        arguments, slot by slot; the squares are walked only to report the
        failing ones.  Returns the number of squares."""
        m, n = self.t_sizes[i], self.s_sizes[j]
        zss = [r.zs for r in self.res[j]]
        squares = 0
        for i2, m2 in enumerate(self.t_sizes):
            families = self.family_list(("source", i2, i), m2, m)
            squares += len(families) * len(pairs)
            failing = [self.source_slot(i2, i, j, y) for y in range(len(m))]
            if any(failing):
                slots = [((y,), zs) for y, zs in enumerate(zss)]
                for a, u in _failing_squares(families, pairs, slots,
                                             failing):
                    if self.keep("not-natural-in-source"):
                        failures.append(
                            {"kind": "not-natural-in-source",
                             "a": _decode_family(self.ykeys, self.t_fibers[i2],
                                                 self.t_fibers[i], a),
                             "u": self.decode_u(i, j, u)}
                        )
        for j2, n2 in enumerate(self.s_sizes):
            families = self.family_list(("target", j, j2), n, n2)
            squares += len(families) * len(pairs)
            failing = [self.target_slot(i, j, j2, y) for y in range(len(m))]
            if any(failing):
                slots = [(zs, zs) for zs in zss]
                for b, u in _failing_squares(families, pairs, slots,
                                             failing):
                    if self.keep("not-natural-in-target"):
                        failures.append(
                            {"kind": "not-natural-in-target",
                             "b": _decode_family(self.ckeys, self.s_fibers[j],
                                                 self.s_fibers[j2], b),
                             "u": self.decode_u(i, j, u)}
                        )
        return squares

    def certificate(self) -> dict:
        report = {
            "f": self.table,
            "pairs": 0,
            "hom_elements": 0,
            "naturality_squares": 0,
            "failures": [],
        }
        squares = 0
        for i in range(len(self.t_sizes)):
            for j in range(len(self.s_sizes)):
                pairs = self.homs(i, j, report)
                squares += self.naturality(i, j, pairs, report["failures"])
        report["naturality_squares"] = squares
        report["ok"] = not report["failures"]
        if self.totals:
            report["failure_totals"] = dict(self.totals)
        return report


def induction_adjunction_certificate(f: FinMap, fiber_bound: int = 2) -> dict:
    """Certify that induction is left adjoint to restriction along f.

    For every pair of product contramodules within the fiber bound, the
    transpose is checked to be a bijection between the two hom sets, and
    its naturality in both arguments is checked on every morphism of the
    bounded family; each hom enumeration is charged against the job's budget.
    Hom elements, naturality families and composites are families of slot
    codes (see :func:`_slot_maps`).  Both sides of a naturality square are
    families over the points y of f's codomain, and the slot over y reads
    only the morphism and u on the preimage of y, so a square holds
    exactly when each of its slots does.  Each distinct slot equation is
    checked once per call, on a one-slot transpose plan, for every
    restriction of the morphism and of u at once, and shared by all the
    pairs of shapes whose fibers over y carry the same labels; the squares
    are counted, and walked only to report those that fail, with labels
    rebuilt for the witnesses.  The code calculus is certified against
    carrier-level maps by the test-suite on small bases.  A transpose
    that is not a hom is reported and left out of the naturality squares.
    """
    return _InductionCheck(f, fiber_bound).certificate()


def noncocontinuity_demo(c: FinSet) -> dict:
    """Compare the function-space functor applied to a one-point quotient
    against the quotient of the function spaces.

    With a two-point carrier, collapsing the two points before taking
    function spaces gives a single point, while collapsing afterwards
    leaves 2^|base| - 1 classes; the sizes disagree whenever the base has
    at least two points.
    """
    charge_power(2, len(c), "function space")
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
