"""Independent brute-force reference routines.

These share no code with the production paths they certify but the
engine's one map enumerator (``finset._all_maps``, an odometer):
universal properties are checked against every competing cone from small
canonical test objects.  Each enumeration is charged against the budget
of the job that runs it (:func:`errors.job`), the default outside any
job: an over-budget one is a hard error with its exact projected count,
never silent truncation.
"""

from __future__ import annotations

from . import finset
from .errors import charge
from .finset import FinSet


def all_maps(a: FinSet, b: FinSet):
    """Every total map exactly once, canonical odometer order: the one
    enumerator, ``finset._all_maps``, charged against the budget."""
    if len(a) > 0:
        charge(len(b) ** len(a), "map enumeration")
    yield from finset._all_maps(a, b)


def _test_sets(max_size: int = 3):
    out = [finset.EMPTY]
    for n in range(1, max_size + 1):
        out.append(FinSet([f"t{i}" for i in range(n)]))
    return out


def _count_mediators(dom: FinSet, cod: FinSet, allowed) -> int:
    """Mediating morphisms are pinned elementwise, so their number is the
    product over the domain of the allowed-value counts."""
    total = 1
    for d in dom:
        total *= sum(1 for v in cod if allowed(d, v))
        if total == 0:
            return 0
    return total


def universal_property_check(kind: str, data: dict) -> dict:
    """Enumerate all competing (co)cones from canonical test sets and
    verify existence and uniqueness of the mediating morphism."""
    checkers = {
        "equalizer": _up_equalizer,
        "coequalizer": _up_coequalizer,
        "product": _up_product,
        "coproduct": _up_coproduct,
        "pullback": _up_pullback,
    }
    if kind not in checkers:
        raise ValueError(f"unknown universal property kind {kind!r}")
    return checkers[kind](data)


def _up_equalizer(data):
    f, g = data["f"], data["g"]
    eq = finset.equalizer(f, g)
    cones = 0
    for z in _test_sets():
        for h in all_maps(z, f.dom):
            if finset.compose(f, h) != finset.compose(g, h):
                continue
            cones += 1
            n = _count_mediators(
                z, eq.members, lambda x, e: eq.include(e) == h(x)
            )
            if n != 1:
                return {"ok": False, "cones": cones,
                        "witness": {"cone": h.table, "mediators": n}}
    return {"ok": True, "cones": cones, "witness": None}


def _up_coequalizer(data):
    f, g = data["f"], data["g"]
    q = finset.coequalizer(f, g)
    quotient = q.project.cod
    cocones = 0
    for z in _test_sets():
        for h in all_maps(f.cod, z):
            if finset.compose(h, f) != finset.compose(h, g):
                continue
            cocones += 1
            n = _count_mediators(
                quotient,
                z,
                lambda k, v: all(h(y) == v for y in q.classes[k]),
            )
            if n != 1:
                return {"ok": False, "cocones": cocones,
                        "witness": {"cocone": h.table, "mediators": n}}
    return {"ok": True, "cocones": cocones, "witness": None}


def _up_product(data):
    a, b = data["a"], data["b"]
    p, proj1, proj2 = finset.product(a, b)
    cones = 0
    for z in _test_sets():
        for h1 in all_maps(z, a):
            for h2 in all_maps(z, b):
                cones += 1
                n = _count_mediators(
                    z,
                    p,
                    lambda x, v: proj1(v) == h1(x) and proj2(v) == h2(x),
                )
                if n != 1:
                    return {"ok": False, "cones": cones,
                            "witness": {"h1": h1.table, "h2": h2.table,
                                        "mediators": n}}
    return {"ok": True, "cones": cones, "witness": None}


def _up_coproduct(data):
    a, b = data["a"], data["b"]
    c, inj1, inj2 = finset.coproduct(a, b)
    back = {inj1(x): ("L", x) for x in a}
    back.update({inj2(y): ("R", y) for y in b})
    cocones = 0
    for z in _test_sets():
        for h1 in all_maps(a, z):
            for h2 in all_maps(b, z):
                cocones += 1

                def allowed(d, v, h1=h1, h2=h2):
                    side, orig = back[d]
                    want = h1(orig) if side == "L" else h2(orig)
                    return v == want

                n = _count_mediators(c, z, allowed)
                if n != 1:
                    return {"ok": False, "cocones": cocones,
                            "witness": {"h1": h1.table, "h2": h2.table,
                                        "mediators": n}}
    return {"ok": True, "cocones": cocones, "witness": None}


def _up_pullback(data):
    f, g = data["f"], data["g"]
    p, proj1, proj2 = finset.pullback(f, g)
    cones = 0
    for z in _test_sets():
        for h1 in all_maps(z, f.dom):
            for h2 in all_maps(z, g.dom):
                if finset.compose(f, h1) != finset.compose(g, h2):
                    continue
                cones += 1
                n = _count_mediators(
                    z,
                    p,
                    lambda x, v: proj1(v) == h1(x) and proj2(v) == h2(x),
                )
                if n != 1:
                    return {"ok": False, "cones": cones,
                            "witness": {"h1": h1.table, "h2": h2.table,
                                        "mediators": n}}
    return {"ok": True, "cones": cones, "witness": None}
