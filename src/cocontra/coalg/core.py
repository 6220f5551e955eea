"""Coalgebras over exact fields, their comodules and contramodules.

All structure maps are degree-zero.  The validators read each law off
the nonzero entries of the structure maps, one domain label at a time
(``_law_report``), building no space and no composite, and return
report dicts with basis-level witnesses rather than raising, so batch
drivers can collect failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import (
    CoalgebraMismatch,
    InvalidImage,
    MismatchedSignature,
    NotCoalgebraMorphism,
)
from ..exactlin import (
    GradedVect,
    LinMap,
    assoc_inv,
    braiding,
    compose,
    hom_map,
    hom_space,
    hom_tensor_iso_inv,
    identity_map,
    tensor,
    tensor_map,
    unit_space,
)


@dataclass(eq=False)
class Coalgebra:
    space: GradedVect
    delta: LinMap  # C -> C (x) C
    eps: LinMap  # C -> unit

    def __post_init__(self):
        s, d, e = self.space, self.delta, self.eps
        if (d.dom != s or d.cod != tensor(s, s) or d.degree
                or e.dom != s or e.cod != unit_space(s.field) or e.degree):
            raise MismatchedSignature("a coalgebra needs degree-0 maps "
                                      "C -> C (x) C and C -> unit")

    @property
    def field(self):
        return self.space.field

    def __eq__(self, other):
        return (
            isinstance(other, Coalgebra)
            and self.space == other.space
            and self.delta == other.delta
            and self.eps == other.eps
        )


@dataclass(eq=False)
class VComodule:
    """A right comodule; ``side="left"`` marks a left comodule carried in
    right form through the braiding (see :func:`left_coaction`)."""

    coalgebra: Coalgebra
    space: GradedVect
    rho: LinMap  # X -> X (x) C
    side: str = "right"

    def __post_init__(self):
        rho = self.rho
        if (rho.dom != self.space or rho.degree
                or rho.cod != tensor(self.space, self.coalgebra.space)):
            raise MismatchedSignature("a comodule needs a degree-0 map "
                                      "X -> X (x) C")


@dataclass(eq=False)
class VContramodule:
    coalgebra: Coalgebra
    space: GradedVect
    theta: LinMap  # [C, X] -> X

    def __post_init__(self):
        theta = self.theta
        if (theta.cod != self.space or theta.degree
                or theta.dom != hom_space(self.coalgebra.space, self.space)):
            raise MismatchedSignature("a contramodule needs a degree-0 map "
                                      "[C, X] -> X")


def _entries(f: LinMap):
    """A degree-zero map's nonzero entries as (codomain label, domain
    label, value) triples, read off its sparse blocks."""
    for k, blk in f.blocks.items():
        dlabs = f.dom.labels[k]
        for clab, row in zip(f.cod.labels[k], blk.srows):
            yield from ((clab, dlabs[j], x) for j, x in row.items())


def _from_terms(dom: GradedVect, cod: GradedVect, terms) -> LinMap:
    """The degree-zero map dom -> cod whose entry at (codomain label b,
    domain label a) sums the x of the (a, b, x) terms."""
    fld = dom.field
    images = {}
    for a, b, x in terms:
        col = images.setdefault(a, {})
        col[b] = fld.add(col[b], x) if b in col else x
    return LinMap.from_images(dom, cod, 0, images)


def _by_source(f: LinMap) -> dict:
    """A degree-zero map's nonzero entries grouped by domain label:
    {a: [(b, f[a -> b]), ...]}."""
    out = {}
    for b, a, x in _entries(f):
        out.setdefault(a, []).append((b, x))
    return out


def _law_report(canon, laws) -> dict:
    """Check ``laws``, (name, labels, lhs, rhs) in order, off the entries.

    ``lhs(lab)`` and ``rhs(lab)`` yield a side's terms at the domain label
    ``lab`` as (key, value) pairs, each value a product of structure-map
    entries.  At each label in turn the sides are summed per key in plain
    int or Fraction arithmetic, and their difference is brought into the
    field once per key; a law fails with the first label at which one is
    nonzero as its witness."""
    failures = []
    for law, labels, lhs, rhs in laws:
        for lab in labels:
            diff = {}
            for key, x in lhs(lab):
                diff[key] = diff.get(key, 0) + x
            for key, x in rhs(lab):
                diff[key] = diff.get(key, 0) - x
            if any(canon(v) for v in diff.values()):
                failures.append({"law": law, "witness": lab})
                break
    return {"ok": not failures, "failures": failures}


def _itself(lab):
    """The identity's side of a unit law."""
    return ((lab, 1),)


def _labels(v: GradedVect) -> list:
    return [lab for _, _, lab in v.basis()]


def _counit(c: Coalgebra) -> dict:
    return {lab: x for _, lab, x in _entries(c.eps)}


def validate_coalgebra(c: Coalgebra) -> dict:
    """Coassociativity and the left and right counit laws, in that order,
    each with the first basis label c at which its two sides differ.

    Read off the nonzero entries of Delta and eps, building no space and
    no composite: at c, sum Delta[c -> (k, d)] Delta[k -> (a, b)] against
    Delta[c -> (a, k)] Delta[k -> (b, d)], both keyed by (a, b, d), and
    check that eps(a) Delta[c -> (a, b)] sums to delta_bc and
    Delta[c -> (a, b)] eps(b) to delta_ac."""
    delta, eps = _by_source(c.delta), _counit(c)
    labels = _labels(c.space)
    return _law_report(c.field.canonical, (
        ("coassociativity", labels,
         lambda lab: (((a, b, d), x * y)
                      for (_, k, d), x in delta.get(lab, ())
                      for (_, a, b), y in delta.get(k, ())),
         lambda lab: (((a, b, d), x * y)
                      for (_, a, k), x in delta.get(lab, ())
                      for (_, b, d), y in delta.get(k, ()))),
        ("left counit", labels,
         lambda lab: ((b, eps[a] * x)
                      for (_, a, b), x in delta.get(lab, ()) if a in eps),
         _itself),
        ("right counit", labels,
         lambda lab: ((a, x * eps[b])
                      for (_, a, b), x in delta.get(lab, ()) if b in eps),
         _itself),
    ))


def left_coaction(m: VComodule) -> LinMap:
    """X -> C (x) X for a left comodule carried in right form."""
    return compose(
        braiding(m.space, m.coalgebra.space), m.rho
    )


def left_comodule_from_coaction(
    c: Coalgebra, space: GradedVect, lam: LinMap
) -> VComodule:
    """Wrap a coaction X -> C (x) X as a left comodule."""
    rho = compose(braiding(c.space, space), lam)
    return VComodule(c, space, rho, side="left")


def validate_comodule(m: VComodule) -> dict:
    """Counitality and coassociativity, in that order, each with the first
    basis label x of X at which its two sides differ, read off the
    entries of rho, Delta and eps.

    The coaction sends x to rho[x -> (y, c)] times y (x) c, or, for a left
    comodule, times the braiding's sign (-1)^(|y||c|) and c (x) y.  Its
    entries times eps(c) sum, keyed by y, to x itself; applied twice they
    sum, keyed by (z, b, c) (left: (c, b, z)), to the coaction's entries
    times Delta[c -> (a, b)], keyed by (y, a, b) (left: (a, b, y))."""
    c = m.coalgebra
    delta, eps = _by_source(c.delta), _counit(c)
    deg_x, deg_c = m.space.degree_of, c.space.degree_of
    left = m.side != "right"
    co = {}  # x: [(y, c, the coaction's entry at y (x) c or c (x) y)]
    for (_, y, cl), x, v in _entries(m.rho):
        if left and deg_x(y) % 2 and deg_c(cl) % 2:
            v = -v
        co.setdefault(x, []).append((y, cl, v))

    def twice(x):
        for y, cl, v in co.get(x, ()):
            for z, b, w in co.get(y, ()):
                yield ((cl, b, z) if left else (z, b, cl)), v * w

    def split(x):
        for y, cl, v in co.get(x, ()):
            for (_, a, b), w in delta.get(cl, ()):
                yield ((a, b, y) if left else (y, a, b)), v * w

    labels = _labels(m.space)
    return _law_report(c.field.canonical, (
        ("counitality", labels,
         lambda x: ((y, v * eps[cl]) for y, cl, v in co.get(x, ())
                    if cl in eps),
         _itself),
        ("coassociativity", labels, twice, split),
    ))


def validate_contramodule(p: VContramodule) -> dict:
    """Contraunitality and contraassociativity, in that order, each with
    the first label of its domain at which its two sides differ, read off
    the entries of theta, Delta and eps.

    At each x of X, eps(c) theta[(c, x) -> z] sums to x itself.  At each
    label (c1, (c2, x)) of [C, [C, X]], in that space's basis order,
    theta[(c2, x) -> y] theta[(c1, y) -> z] sums to
    Delta[c -> (c1, c2)] theta[(c, x) -> z], keyed by z."""
    c = p.coalgebra
    cs, amb = c.space, p.theta.dom
    theta, eps = _by_source(p.theta), _counit(c)
    into = {}  # (c1, c2): [(c, Delta[c -> (c1, c2)])]
    for pair, cl, d in _entries(c.delta):
        into.setdefault(pair[1:], []).append((cl, d))
    # [C, [C, X]] in the basis order that hom_space lays out
    outer = [("h", c1, h)
             for n in sorted({j - i for i in cs.degrees()
                              for j in amb.degrees()})
             for i in cs.degrees() if amb.dim(n + i)
             for c1 in cs.labels[i] for h in amb.labels[n + i]]
    return _law_report(c.field.canonical, (
        ("contraunitality", _labels(p.space),
         lambda x: ((z, e * w) for cl, e in eps.items()
                    for z, w in theta.get(("h", cl, x), ())),
         _itself),
        ("contraassociativity", outer,
         lambda lab: ((z, v * w) for y, v in theta.get(lab[2], ())
                      for z, w in theta.get(("h", lab[1], y), ())),
         lambda lab: ((z, d * w)
                      for cl, d in into.get((lab[1], lab[2][1]), ())
                      for z, w in theta.get(("h", cl, lab[2][2]), ()))),
    ))


def require_valid(rep: dict, what: str):
    """Raise :class:`InvalidImage` when the validation report ``rep`` of
    a structure fails; ``what`` says what the failure shows."""
    if not rep["ok"]:
        laws = ", ".join(f if isinstance(f, str) else f["law"]
                         for f in rep["failures"])
        raise InvalidImage(f"{what} ({laws} fails)", rep["failures"])


def require_coalgebra(c: Coalgebra):
    """Raise :class:`InvalidImage` when C is not a coalgebra: the one check
    a certificate makes, before it builds anything, in place of checking
    the images of C that it builds."""
    require_valid(validate_coalgebra(c), "C is not a coalgebra")


def validate(obj) -> dict:
    """Dispatching validator for the three structure kinds."""
    if isinstance(obj, Coalgebra):
        return validate_coalgebra(obj)
    if isinstance(obj, VComodule):
        return validate_comodule(obj)
    if isinstance(obj, VContramodule):
        return validate_contramodule(obj)
    raise TypeError(f"cannot validate {type(obj).__name__}")


def cofree(x: GradedVect, c: Coalgebra) -> VComodule:
    """X (x) C with the comultiplication acting on the right factor."""
    cs = c.space
    rho = compose(
        assoc_inv(x, cs, cs), tensor_map(identity_map(x), c.delta)
    )
    return VComodule(c, tensor(x, cs), rho)


def free(x: GradedVect, c: Coalgebra) -> VContramodule:
    """[C, X] with precomposition by the comultiplication."""
    cs = c.space
    theta = compose(
        hom_map(c.delta, identity_map(x)),
        hom_tensor_iso_inv(cs, cs, x),
    )
    return VContramodule(c, hom_space(cs, x), theta)


def coalgebra_as_comodule(c: Coalgebra) -> VComodule:
    return VComodule(c, c.space, c.delta)


def require_same_coalgebra(*objs):
    first = objs[0].coalgebra
    for o in objs[1:]:
        if o.coalgebra != first:
            raise CoalgebraMismatch("structures live over different "
                                    "coalgebras")


def is_coalgebra_morphism(f: LinMap, c: Coalgebra, chat: Coalgebra) -> bool:
    if f.dom != c.space or f.cod != chat.space or f.degree != 0:
        return False
    return (
        compose(chat.delta, f) == compose(tensor_map(f, f), c.delta)
        and compose(chat.eps, f) == c.eps
    )


def check_coalgebra_morphism(f: LinMap, c: Coalgebra, chat: Coalgebra):
    if not is_coalgebra_morphism(f, c, chat):
        raise NotCoalgebraMorphism(
            "map fails the comultiplication/counit squares"
        )


def is_comodule_map(f: LinMap, m: VComodule, n: VComodule) -> bool:
    require_same_coalgebra(m, n)
    c = m.coalgebra.space
    lhs = compose(n.rho, f)
    rhs = compose(tensor_map(f, identity_map(c)), m.rho)
    return f.degree == 0 and lhs == rhs


def is_contramodule_map(f: LinMap, p: VContramodule, q: VContramodule) -> bool:
    require_same_coalgebra(p, q)
    c = p.coalgebra.space
    lhs = compose(f, p.theta)
    rhs = compose(q.theta, hom_map(identity_map(c), f))
    return f.degree == 0 and lhs == rhs
