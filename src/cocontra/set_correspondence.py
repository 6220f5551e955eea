"""The sections / quotient correspondence between set comodules and
contramodules.

The sections functor carries a set over C to its set of sections (a product
contramodule, empty exactly when some fiber is empty).  The quotient functor
goes the other way as a coequaliser of evaluation against the structure map.
At desk scale both are computed on the nose and the unit/counit, triangle
identities, and the explicit description of the round trip are certified by
exhaustive enumeration, on integer codes (see below).
"""

from __future__ import annotations

import math
from itertools import product as iproduct
from typing import NamedTuple

from . import finset
from .errors import InvalidConstruction, charge
from .finset import FinMap, FinSet, QuotPresentation
from .set_comodule import SetComodule, fibers
from .set_contramodule import ContraTable, empty_contramodule, product_contra


def R_set(m: SetComodule) -> ContraTable:
    """The sections contramodule; empty exactly when m is degenerate."""
    fam = fibers(m)
    if any(len(v) == 0 for v in fam.values()):
        return empty_contramodule(m.base)
    return product_contra(m.base, fam)


def l_set_with_projection(t: ContraTable):
    """The quotient comodule together with the projection from carrier x base.

    Product-form input takes the closed-form route (the disjoint union of
    the fibers); a theta table goes through the generic coequaliser on
    codes, with nu read off the table, each class labelled by its least
    pair label.
    """
    c = t.base
    if t.fibers is not None:
        ambient, _, _ = finset.product(t.carrier, c)
        decode = finset.choice_table(c, t.fibers)
        phi_table = {finset.pair_label(v, a): a
                     for a in c for v in t.fibers[a]}
        carrier = FinSet(phi_table)
        project = FinMap(ambient, carrier, {
            finset.pair_label(y, a): finset.pair_label(decode[y].table[a], a)
            for y in t.carrier for a in c})
        return SetComodule(carrier, c, FinMap(carrier, c, phi_table)), project
    nx, nc = len(t.carrier), len(c)
    charge(nx ** nc * nc, "coequaliser ambient")
    roots = _coequalise([v * nc + a for v in t.theta for a in range(nc)],
                        nx, nc)
    labels = [finset.pair_label(y, a) for y in t.carrier for a in c]
    # descending, so each root keeps its least label
    least = dict(sorted(zip(roots, labels), reverse=True))
    carrier = FinSet(least.values())
    phi = FinMap(carrier, c, {k: c.elements[r % nc] for r, k in least.items()})
    project = FinMap(FinSet(labels), carrier,
                     {label: least[r] for label, r in zip(labels, roots)})
    return SetComodule(carrier, c, phi), project


def L_set(t: ContraTable) -> SetComodule:
    m, _ = l_set_with_projection(t)
    return m


def unit(t: ContraTable) -> FinMap:
    """The carrier map into the sections of the quotient comodule."""
    l, project = l_set_with_projection(t)
    table = {
        y: finset.encode_table(
            t.base, {a: project(finset.pair_label(y, a)) for a in t.base})
        for y in t.carrier
    }
    return FinMap(t.carrier, R_set(l).carrier, table)


def lr_explicit(m: SetComodule) -> QuotPresentation:
    """The round trip as an explicit quotient of sections x base.

    Two pairs are identified exactly when they share the base point and
    their sections agree there, grouped in one pass on codes.
    """
    sec = _sections(_phi(m), len(m.base))
    classes = _class_labels(m, sec, _explicit(sec)).values()
    ambient = FinSet([y for _, ys in classes for y in ys])
    return finset.quotient_by_pairs(ambient,
                                    [(k, y) for k, ys in classes for y in ys])


def counit(m: SetComodule) -> FinMap:
    """Evaluation on the explicit round-trip quotient: [(beta,a)] -> beta(a)."""
    sec = _sections(_phi(m), len(m.base))
    explicit = _explicit(sec)
    classes = _class_labels(m, sec, explicit)
    return FinMap(
        FinSet([k for k, _ in classes.values()]), m.carrier,
        {classes[r][0]: m.carrier.elements[x]
         for r, x in _counit(sec, explicit).items()})


def lr_report(m: SetComodule) -> dict:
    """The payload of the ``lr`` job: the classes of the explicit round
    trip (each under its least label, members sorted), whether its counit
    is bijective and whether the explicit and generic routes agree."""
    rt = _round_trip(_phi(m), len(m.base))
    return {
        "classes": dict(sorted(_class_labels(m, rt.sec,
                                             rt.explicit).values())),
        "counit_bijective": _counit_bijective(rt),
        "routes_agree": _routes_agree(rt),
    }


# --- the correspondence on integer codes --------------------------------------
#
# A comodule over nc base points is its phi tuple: the base position of each
# carrier point, both in sorted label order, so the comodules of one size
# come in the order of the maps carrier -> base.  A section is the tuple of
# its values (carrier points) over the base; its code is its position in the
# odometer over the fibers, the order of its label in finset.choice_labels.
# A point (s, a) of sections x base is s * nc + a, and a partition of those
# points is the root (least code) of each point.  Labels are built only for
# failure witnesses, for the lr job and for L of a theta table.


class _Sections(NamedTuple):
    """The sections of a comodule: its fibers (carrier points, ascending),
    the value tuple of each section by code, and the code of each value
    tuple."""

    nc: int
    fibers: list
    values: list
    code: dict


def _sections(phi: tuple, nc: int) -> _Sections:
    fibers = [[x for x, b in enumerate(phi) if b == a] for a in range(nc)]
    values = list(iproduct(*fibers))
    return _Sections(nc, fibers, values, {v: s for s, v in enumerate(values)})


def _phi(m: SetComodule) -> tuple:
    return tuple(map(m.base.index, map(m.phi, m.carrier)))


def _class_labels(m: SetComodule, sec: _Sections, roots: list) -> dict:
    """Each class of a partition of sections x base, by root, as its least
    label with its sorted member labels."""
    carrier, base = m.carrier.elements, m.base.elements
    sections = finset.choice_labels(
        base, [[carrier[x] for x in fib] for fib in sec.fibers])
    members = {}
    for p, root in enumerate(roots):
        s, a = divmod(p, sec.nc)
        members.setdefault(root, []).append(
            finset.pair_label(sections[s], base[a]))
    return {root: (min(ys), sorted(ys)) for root, ys in members.items()}


def _theta(sec: _Sections, beta) -> int:
    """The structure map of the sections: the section whose value at each
    base point a is the value there of the section beta[a]."""
    return sec.code[tuple(sec.values[b][a] for a, b in enumerate(beta))]


def _nu(sec: _Sections) -> list[int]:
    """nu(beta, a) = (theta(beta), a) at every point of hom(C, S) x C, beta
    in odometer order and a fastest: the extensional table, read as a map
    into sections x base."""
    nc = sec.nc
    thetas = (_theta(sec, beta)
              for beta in iproduct(range(len(sec.values)), repeat=nc))
    return [t * nc + a for t in thetas for a in range(nc)]


def _generic(sec: _Sections) -> list[int]:
    """The quotient of the extensional sections, charged for its ambient."""
    nc, count = sec.nc, len(sec.values)
    charge(count ** nc * nc, "coequaliser ambient")
    return _coequalise(_nu(sec), count, nc)


def _coequalise(nu, count: int, nc: int) -> list[int]:
    """The coequaliser of eta(beta, a) = (beta(a), a) and nu over
    hom(C, Y) x C, for a carrier Y of ``count`` points and nu given at
    every point (beta in odometer order, a fastest), by union-find on
    codes.  The root (least code) of each point of Y x C."""
    eta = (b * nc + a for beta in iproduct(range(count), repeat=nc)
           for a, b in enumerate(beta))
    uf = finset._UnionFind(range(count * nc))
    for x, y in zip(eta, nu):
        uf.union(x, y)
    roots = [uf.find(p) for p in range(count * nc)]
    if any(r % nc != p % nc for p, r in enumerate(roots)):
        raise InvalidConstruction("quotient classes must respect the base")
    return roots


def _explicit(sec: _Sections) -> list[int]:
    """The explicit round trip: (s, a) and (s', a) are identified exactly
    when s(a) = s'(a), grouped by (a, s(a)) in one pass.  The root of each
    point."""
    nc, first = sec.nc, {}
    return [first.setdefault((a, x), s * nc + a)
            for s, xs in enumerate(sec.values) for a, x in enumerate(xs)]


def _counit(sec: _Sections, explicit: list) -> dict:
    """Evaluation [(s, a)] -> s(a) on the explicit classes, by root."""
    eps = {}
    for p, root in enumerate(explicit):
        s, a = divmod(p, sec.nc)
        x = sec.values[s][a]
        if eps.setdefault(root, x) != x:
            raise InvalidConstruction("counit must be constant on classes")
    return eps


def _quotient(roots: list, nc: int):
    """The quotient comodule of a partition of sections x base: its phi
    tuple, its carrier (the roots, ascending) and the projection of each
    point onto a carrier position."""
    carrier = sorted(set(roots))
    pos = {r: z for z, r in enumerate(carrier)}
    return tuple(r % nc for r in carrier), carrier, [pos[r] for r in roots]


def _unit(count: int, nc: int, project: list, target: _Sections) -> list:
    """The unit of a contramodule on ``count`` codes into the sections
    ``target`` of its quotient: y goes to the section a -> [(y, a)],
    ``project`` giving the quotient point of each (y, a)."""
    return [target.code[tuple(project[y * nc:(y + 1) * nc])]
            for y in range(count)]


def _push(f: tuple, m: _Sections, n: _Sections) -> list[int]:
    """The sections of m pushed along a comodule map f: m -> n."""
    return [n.code[tuple(map(f.__getitem__, xs))] for xs in m.values]


def _quotient_map(u: list, nc: int, src: list, dst: list) -> dict:
    """The map of quotients [(y, a)] -> [(u(y), a)] induced by a carrier
    map u; ``src`` and ``dst`` give the quotient point of each pair."""
    table = {}
    for p, k in enumerate(src):
        y, a = divmod(p, nc)
        image = dst[u[y] * nc + a]
        if table.setdefault(k, image) != image:
            raise InvalidConstruction("map does not respect classes")
    return table


def _is_contramodule_map(f: list, s: _Sections, t: _Sections) -> bool:
    """f(theta_s(beta)) == theta_t(f o beta) for every beta: C -> S."""
    charge(len(s.values) ** s.nc, "contramodule-map check")
    return all(f[_theta(s, beta)] == _theta(t, [f[b] for b in beta])
               for beta in iproduct(range(len(s.values)), repeat=s.nc))


class _RoundTrip(NamedTuple):
    """What the equivalence checks and the ``lr`` job read of one comodule,
    built once: its sections, the explicit round-trip quotient with its
    counit (by root), and the generic quotient of its extensional
    sections."""

    phi: tuple
    sec: _Sections
    explicit: list
    counit: dict
    generic: list


def _round_trip(phi: tuple, nc: int) -> _RoundTrip:
    """Charged for the extensional table, from the fiber sizes, before
    anything is built; the empty sections of a degenerate comodule are
    extensional already."""
    count = math.prod(map(phi.count, range(nc)))
    if count:
        charge(count ** nc, "extensional table")
    sec = _sections(phi, nc)
    explicit = _explicit(sec)
    return _RoundTrip(phi, sec, explicit, _counit(sec, explicit),
                      _generic(sec))


def _counit_bijective(rt: _RoundTrip) -> bool:
    return sorted(rt.counit.values()) == list(range(len(rt.phi)))


def _counit_is_comodule_map(rt: _RoundTrip) -> bool:
    nc = rt.sec.nc
    return all(rt.phi[rt.counit[root]] == p % nc
               for p, root in enumerate(rt.explicit))


def _routes_agree(rt: _RoundTrip) -> bool:
    """The explicit and generic partitions of sections x base are equal:
    their classes pair off one to one."""
    pairs = set(zip(rt.explicit, rt.generic))
    return len(pairs) == len(set(rt.explicit)) == len(set(rt.generic))


def _triangle_r(rt: _RoundTrip) -> bool:
    """Sections-side triangle: the unit of the extensional sections, into
    the sections of their generic quotient, pushed through the counit is
    the identity.  It fails when the generic quotient's carrier, its
    class roots, is not the explicit one's, on which the counit lives."""
    nc = rt.sec.nc
    phi_l, carrier, project = _quotient(rt.generic, nc)
    if carrier != sorted(rt.counit):
        return False
    l_sec = _sections(phi_l, nc)
    eta = _unit(len(rt.sec.values), nc, project, l_sec)
    return all(tuple(rt.counit[carrier[z]] for z in l_sec.values[e]) == xs
               for e, xs in zip(eta, rt.sec.values))


def _triangle_l(t: _Sections) -> bool:
    """Quotient-side triangle on a product contramodule t: its generic
    quotient lt, mapped by L of the unit into the generic quotient of the
    extensional R(lt) and evaluated by the counit of lt, comes back.  It
    fails when the carrier of the generic quotient of R(lt), its class
    roots, is not the explicit one's, on which the counit lives."""
    nc, count = t.nc, len(t.values)
    charge(count ** nc, "extensional table")
    phi_lt, _, project = _quotient(_generic(t), nc)
    r_lt = _sections(phi_lt, nc)
    charge(len(r_lt.values) ** nc, "extensional table")
    generic = _generic(r_lt)
    l_eta = _quotient_map(_unit(count, nc, project, r_lt), nc, project,
                          generic)
    explicit = _explicit(r_lt)
    eps = _counit(r_lt, explicit)
    if set(explicit) != set(generic):
        return False
    return all(eps[l_eta[z]] == z for z in range(len(phi_lt)))


_ROUND_TRIP_CHECKS = (
    ("counit-not-bijective", _counit_bijective),
    ("counit-not-comodule-map", _counit_is_comodule_map),
    ("lr-routes-disagree", _routes_agree),
    ("triangle-R", _triangle_r),
)


def _comodules(n: int, nc: int):
    """Every comodule on n points over nc, as phi tuples, charged."""
    charge(nc ** n, "comodule enumeration")
    return iproduct(range(nc), repeat=n)


def _labels(prefix: str, n: int) -> tuple[str, ...]:
    """The canonical labels of the certificate's carriers and bases."""
    return FinSet([f"{prefix}{i}" for i in range(1, n + 1)]).elements


def _phi_table(phi: tuple, base: tuple) -> dict:
    return dict(zip(_labels("x", len(phi)), [base[b] for b in phi]))


def equivalence_certificate(
    max_carrier: int = 4,
    max_base: int = 2,
    max_fiber: int = 3,
    naturality_carrier: int = 3,
) -> dict:
    """Exhaustively certify the correspondence on bounded instances.

    For every non-degenerate comodule: the counit is a bijective comodule
    map, the explicit quotient agrees with the generic coequaliser, and the
    sections-side triangle holds.  For every product contramodule: the unit
    is a bijective contramodule map and the quotient-side triangle holds.
    Naturality of the counit is checked on all structure maps between
    instances with carriers up to ``naturality_carrier``.  Degenerate
    comodules are reported and excluded, never errors.  Every enumeration,
    the comodules, homs, extensional tables, coequaliser ambients and
    contramodule-map checks, is charged against the job's budget.  Each
    comodule's round trip is built once, on codes, and shared by its
    checks and the naturality squares; labels are built for witnesses.
    """
    report = {
        "comodules": 0,
        "nondegenerate": 0,
        "degenerate": 0,
        "contramodules": 0,
        "failures": [],
        "naturality_squares": 0,
    }
    fail = report["failures"].append
    for nc in range(1, max_base + 1):
        base = _labels("c", nc)
        # the round trips the naturality check reuses, by phi
        round_trips = {}
        for n in range(0, max_carrier + 1):
            for phi in _comodules(n, nc):
                report["comodules"] += 1
                if len(set(phi)) < nc:
                    report["degenerate"] += 1
                    if _sections(phi, nc).values:
                        fail({"kind": "degenerate-with-sections",
                              "phi": _phi_table(phi, base)})
                    continue
                report["nondegenerate"] += 1
                rt = _round_trip(phi, nc)
                if n <= naturality_carrier:
                    round_trips[phi] = rt
                for kind, holds in _ROUND_TRIP_CHECKS:
                    if not holds(rt):
                        fail({"kind": kind, "phi": _phi_table(phi, base)})
        for sizes in iproduct(range(1, max_fiber + 1), repeat=nc):
            report["contramodules"] += 1
            shape = dict(zip(base, sizes))
            # the product contramodule on these fibers is the sections of
            # the comodule t below; its closed-form quotient is that
            # comodule, (y, a) going to y(a), whose sections are t again
            t = _sections(tuple(a for a, k in enumerate(sizes)
                                for _ in range(k)), nc)
            eta = _unit(len(t.values), nc,
                        [x for xs in t.values for x in xs], t)
            if sorted(eta) != list(range(len(t.values))):
                fail({"kind": "unit-not-bijective", "shape": shape})
            if not _is_contramodule_map(eta, t, t):
                fail({"kind": "unit-not-contramodule-map", "shape": shape})
            if not _triangle_l(t):
                fail({"kind": "triangle-L", "shape": shape})
        report["naturality_squares"] += _counit_naturality(
            nc, naturality_carrier, report, round_trips
        )
    report["ok"] = not report["failures"]
    return report


def _counit_naturality(nc: int, max_carrier: int, report,
                       round_trips: dict) -> int:
    """counit o L(R(f)) == f o counit for every comodule map f, on the
    round trips of the instances (built here when the main loop did not)."""
    phis = [phi for n in range(0, max_carrier + 1)
            for phi in _comodules(n, nc)]
    instances = [round_trips.get(phi) or _round_trip(phi, nc)
                 for phi in phis if len(set(phi)) == nc]
    base = _labels("c", nc)
    squares = 0
    for a in instances:
        points = sorted(set(a.generic))
        xs = _labels("x", len(a.phi))
        for b in instances:
            charge(len(b.phi) ** len(a.phi), "hom_over")
            ys = _labels("x", len(b.phi))
            # the maps over the base, by the fiber each point lands in
            for f in iproduct(*[b.sec.fibers[c] for c in a.phi]):
                lrf = _quotient_map(_push(f, a.sec, b.sec), nc, a.generic,
                                    b.generic)
                if any(b.counit[lrf[k]] != f[a.counit[k]] for k in points):
                    report["failures"].append(
                        {"kind": "counit-not-natural",
                         "f": dict(zip(xs, [ys[y] for y in f])),
                         "phi_m": _phi_table(a.phi, base),
                         "phi_n": _phi_table(b.phi, base)}
                    )
                squares += 1
    return squares
