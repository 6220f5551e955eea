"""Finite sets, total maps, and the (co)limit toolbox.

Everything is canonical on the nose: element labels are sorted strings,
pair labels are ``(a,b)``, tagged-union labels are ``L:a`` / ``R:b``, and
encoded functions are ``{a:fa,b:fb}`` with entries in sorted-domain order.
Equal constructions therefore have identical representations, which removes
all "up to isomorphism" slack from downstream certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import prod

from .errors import MismatchedSignature, job_table


@dataclass(frozen=True)
class FinSet:
    """An ordered finite set of distinct string labels."""

    elements: tuple[str, ...]

    def __init__(self, elements):
        elems = tuple(sorted(elements))
        # label -> position; not a field, so ==, hash and cache keys still
        # see only the elements
        index = {x: i for i, x in enumerate(elems)}
        if len(index) != len(elems):
            raise ValueError(f"duplicate labels in {elems}")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_index", index)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, label):
        try:
            return label in self._index
        except TypeError:  # an unhashable value is never a label
            return False

    def index(self, label) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise ValueError(f"{label!r} is not in {self!r}") from None

    def __repr__(self):
        return "{" + ",".join(self.elements) + "}"


EMPTY = FinSet(())
POINT = FinSet(("*",))


@dataclass(eq=True)
class FinMap:
    """A total map between finite sets, stored as a full table."""

    dom: FinSet
    cod: FinSet
    table: dict[str, str]

    def __post_init__(self):
        try:
            if (self.table.keys() == self.dom._index.keys()
                    and self.cod._index.keys() >= set(self.table.values())):
                return
        except (AttributeError, TypeError):
            pass
        # the fast check failed or could not run: name the first fault
        if set(self.table) != set(self.dom.elements):
            raise ValueError("table is not total on the domain")
        for v in self.table.values():
            if v not in self.cod:
                raise ValueError(f"value {v!r} is not in the codomain")

    def __call__(self, label: str) -> str:
        return self.table[label]

    def __repr__(self):
        body = ",".join(f"{a}>{self.table[a]}" for a in self.dom)
        return f"FinMap({body})"

    def is_surjective(self) -> bool:
        return set(self.table.values()) == set(self.cod.elements)

    def image(self) -> FinSet:
        return FinSet(set(self.table.values()))


def identity(a: FinSet) -> FinMap:
    return FinMap(a, a, {x: x for x in a})


def compose(g: FinMap, f: FinMap) -> FinMap:
    """g after f."""
    if f.cod != g.dom:
        raise MismatchedSignature(f"cannot compose: {f.cod} != {g.dom}")
    return FinMap(f.dom, g.cod, {x: g(f(x)) for x in f.dom})


def constant(dom: FinSet, cod: FinSet, value: str) -> FinMap:
    return FinMap(dom, cod, {x: value for x in dom})


# --- choice functions and their labels (fixed grammar, see the README) -------


def pair_label(a: str, b: str) -> str:
    return f"({a},{b})"


def odometer(pools):
    """Every tuple that picks one value of each pool, the last pool
    fastest: the one enumeration order of choice functions."""
    return iproduct(*pools)


def choices(keys, pools):
    """Every dict that picks one value of ``pools[i]`` for ``keys[i]``, in
    odometer order."""
    for values in odometer(pools):
        yield dict(zip(keys, values))


def encode_table(keys, table) -> str:
    """The label ``{k1:v1,k2:v2}`` of a table, entries in the order of keys."""
    return "{" + ",".join([f"{k}:{table[k]}" for k in keys]) + "}"


def encode_map(f: FinMap) -> str:
    return encode_table(f.dom.elements, f.table)


def _decode_table(dom: FinSet, pools: tuple[FinSet, ...],
                  cod: FinSet | None = None) -> dict[str, FinMap]:
    """Every choice function of ``choices(dom, pools)`` keyed by its label,
    as a map into ``cod`` (the union of the pools by default), once per job.

    Decoding is by lookup, never by parsing, so arbitrary label vocabularies
    are safe as long as the encoding stays injective.  Declared labels can
    break that (the values "x,b:y" and "z" at keys a and b write the label
    of "x" and "y,b:z"), so a collision raises.
    """
    def build():
        into = FinSet(set().union(*pools)) if cod is None else cod
        out = {}
        for table in choices(dom.elements, pools):
            out[encode_table(dom.elements, table)] = FinMap(dom, into, table)
        if len(out) != prod(len(p) for p in pools):
            raise ValueError(f"labels of maps on {dom!r} collide")
        return out

    return job_table(("decode", dom, pools, cod), build)


def choice_table(keys: FinSet, fibers) -> dict[str, FinMap]:
    """Label -> choice map for every choice of ``fibers[k]`` at each key
    ``k``; a loop that decodes many labels fetches the table once."""
    return _decode_table(keys, tuple([fibers[k] for k in keys]))


def _all_maps(a: FinSet, b: FinSet):
    """Every total map a -> b, canonical odometer order over sorted labels."""
    for table in choices(a.elements, [b.elements] * len(a)):
        yield FinMap(a, b, table)


def function_table(a: FinSet, b: FinSet) -> dict[str, FinMap]:
    """Label -> map for every total map a -> b; a loop that decodes many
    labels fetches the table once."""
    return _decode_table(a, (b,) * len(a), b)


def choice_labels(keys, pools) -> list[str]:
    """The labels ``encode_table`` writes for ``choices(keys, pools)``, in
    that order, joined from their "k:v" pieces without building a table."""
    pieces = [[f"{k}:{v}" for v in pool] for k, pool in zip(keys, pools)]
    return ["{" + ",".join(p) + "}" for p in odometer(pieces)]


def function_space(a: FinSet, b: FinSet) -> FinSet:
    """The internal hom: the labels of all total maps a -> b, as an
    object; no map is built."""
    return FinSet(choice_labels(a, [b] * len(a)))


# --- limits and colimits ------------------------------------------------------


@dataclass(eq=True)
class SubPresentation:
    """An equaliser result: a subset together with its inclusion."""

    ambient: FinSet
    members: FinSet
    include: FinMap


@dataclass(eq=True)
class QuotPresentation:
    """A coequaliser result: quotient, projection, and class representatives.

    Quotient labels are the least member of each class, so project(reps(k))
    is k by construction.
    """

    ambient: FinSet
    classes: dict[str, tuple[str, ...]]
    project: FinMap
    reps: FinMap


def product(a: FinSet, b: FinSet):
    """Cartesian product with both projections."""
    labels = [pair_label(x, y) for x in a for y in b]
    p = FinSet(labels)
    proj1 = FinMap(p, a, {pair_label(x, y): x for x in a for y in b})
    proj2 = FinMap(p, b, {pair_label(x, y): y for x in a for y in b})
    return p, proj1, proj2


def coproduct(a: FinSet, b: FinSet):
    """Tagged disjoint union with both injections."""
    c = FinSet([f"L:{x}" for x in a] + [f"R:{y}" for y in b])
    inj1 = FinMap(a, c, {x: f"L:{x}" for x in a})
    inj2 = FinMap(b, c, {y: f"R:{y}" for y in b})
    return c, inj1, inj2


def equalizer(f: FinMap, g: FinMap) -> SubPresentation:
    """The subset where f and g agree, with its inclusion."""
    if f.dom != g.dom or f.cod != g.cod:
        raise MismatchedSignature("equalizer needs parallel maps")
    members = FinSet([x for x in f.dom if f(x) == g(x)])
    include = FinMap(members, f.dom, {x: x for x in members})
    return SubPresentation(f.dom, members, include)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # keep the least label as the root so representatives are canonical
            lo, hi = sorted((rx, ry))
            self.parent[hi] = lo


def coequalizer(f: FinMap, g: FinMap) -> QuotPresentation:
    """The quotient of the codomain by the relation generated by f(x)~g(x)."""
    if f.dom != g.dom or f.cod != g.cod:
        raise MismatchedSignature("coequalizer needs parallel maps")
    return quotient_by_pairs(f.cod, [(f(x), g(x)) for x in f.dom])


def quotient_by_pairs(ambient: FinSet, pairs) -> QuotPresentation:
    """Quotient of a set by the equivalence generated by explicit pairs."""
    uf = _UnionFind(ambient.elements)
    for x, y in pairs:
        uf.union(x, y)
    classes: dict[str, list[str]] = {}
    for y in ambient:
        classes.setdefault(uf.find(y), []).append(y)
    quotient = FinSet(classes.keys())
    project = FinMap(ambient, quotient, {y: uf.find(y) for y in ambient})
    reps = FinMap(quotient, ambient, {k: k for k in quotient})
    return QuotPresentation(
        ambient, {k: tuple(sorted(v)) for k, v in classes.items()}, project, reps
    )


def pullback(f: FinMap, g: FinMap):
    """{(a,b) | f(a)=g(b)} with its two projections."""
    if f.cod != g.cod:
        raise MismatchedSignature("pullback needs a shared codomain")
    labels = [pair_label(x, y) for x in f.dom for y in g.dom if f(x) == g(y)]
    p = FinSet(labels)
    table1 = {}
    table2 = {}
    for x in f.dom:
        for y in g.dom:
            if f(x) == g(y):
                table1[pair_label(x, y)] = x
                table2[pair_label(x, y)] = y
    proj1 = FinMap(p, f.dom, table1)
    proj2 = FinMap(p, g.dom, table2)
    return p, proj1, proj2
