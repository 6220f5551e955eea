import pytest

from cocontra import finset, oracle
from cocontra.errors import BudgetExceeded, job
from cocontra.exactlin import (
    GF,
    GradedVect,
    LinMap,
    Matrix,
    identity_map,
)
from cocontra.finset import FinMap, FinSet
from paper_checks import (
    all_linmaps,
    linear_coequalizer_up_check,
    linear_equalizer_up_check,
    zero_map,
)


F2 = GF(2)


def test_all_maps_counts_and_uniqueness():
    for na, nb, expected in ((0, 2, 1), (2, 2, 4), (3, 2, 8)):
        a = FinSet([f"a{i}" for i in range(na)])
        b = FinSet([f"b{i}" for i in range(nb)])
        maps = list(oracle.all_maps(a, b))
        assert len(maps) == expected
        keys = {finset.encode_map(f) for f in maps}
        assert len(keys) == expected


def test_all_maps_budget():
    a = FinSet([f"a{i}" for i in range(4)])
    b = FinSet([f"b{i}" for i in range(4)])
    with job(10), pytest.raises(BudgetExceeded) as exc:
        list(oracle.all_maps(a, b))
    assert exc.value.projected == 256


def test_all_linmaps_counts():
    v1 = GradedVect(F2, {0: 1})
    v2 = GradedVect(F2, {0: 2}, prefix="f")
    assert len(list(all_linmaps(v1, v1))) == 2
    assert len(list(all_linmaps(v2, v1))) == 4
    assert len(list(all_linmaps(v2, v2))) == 16


def test_all_linmaps_unique_and_complete():
    v = GradedVect(F2, {0: 2})
    seen = set()
    for f in all_linmaps(v, v):
        seen.add(str(f.block(0).rows))
    assert len(seen) == 16


def test_universal_properties_on_sample_instances():
    a = FinSet(["1", "2", "3"])
    b = FinSet(["x", "y"])
    f = FinMap(a, b, {"1": "x", "2": "x", "3": "y"})
    g = FinMap(a, b, {"1": "x", "2": "y", "3": "y"})
    assert oracle.universal_property_check(
        "equalizer", {"f": f, "g": g}
    )["ok"]
    assert oracle.universal_property_check(
        "coequalizer", {"f": f, "g": g}
    )["ok"]
    assert oracle.universal_property_check("product", {"a": a, "b": b})["ok"]
    assert oracle.universal_property_check(
        "coproduct", {"a": a, "b": b}
    )["ok"]
    u = FinSet(["u", "v"])
    gm = FinMap(u, b, {"u": "x", "v": "y"})
    assert oracle.universal_property_check(
        "pullback", {"f": f, "g": gm}
    )["ok"]


def test_universal_properties_exhaustive_small():
    # every parallel pair on sets of size <= 3 passes both checks
    for n in (1, 2, 3):
        a = FinSet([f"a{i}" for i in range(n)])
        for m in (1, 2):
            b = FinSet([f"b{i}" for i in range(m)])
            for f in finset._all_maps(a, b):
                for g in finset._all_maps(a, b):
                    assert oracle.universal_property_check(
                        "equalizer", {"f": f, "g": g}
                    )["ok"]
                    assert oracle.universal_property_check(
                        "coequalizer", {"f": f, "g": g}
                    )["ok"]


def test_universal_property_products_all_small():
    for n in (0, 1, 2, 3, 4):
        for m in (0, 1, 2):
            a = FinSet([f"a{i}" for i in range(n)])
            b = FinSet([f"b{i}" for i in range(m)])
            assert oracle.universal_property_check(
                "product", {"a": a, "b": b}
            )["ok"]
            assert oracle.universal_property_check(
                "coproduct", {"a": a, "b": b}
            )["ok"]


def test_equalizer_up_exhaustive_up_to_four_via_subsets():
    # a cone for a parallel pair only sees the agreement subset, so
    # quantifying over all subsets of a 4-element domain covers every
    # parallel pair with |dom| <= 4 exactly
    dom = FinSet(["a", "b", "c", "d"])
    two = FinSet(["0", "1"])
    from itertools import combinations

    for r in range(len(dom) + 1):
        for subset in combinations(dom.elements, r):
            f = finset.constant(dom, two, "0")
            g = FinMap(
                dom, two,
                {x: "0" if x in subset else "1" for x in dom},
            )
            assert finset.equalizer(f, g).members.elements == subset
            assert oracle.universal_property_check(
                "equalizer", {"f": f, "g": g}
            )["ok"]


def test_coequalizer_up_exhaustive_up_to_four_via_partitions():
    # dually, a cocone only sees the generated partition; all partitions
    # of a 4-element codomain are realized by explicit identification pairs
    from cocontra.set_contramodule import _partitions

    cod = FinSet(["a", "b", "c", "d"])
    for partition in _partitions(list(cod.elements)):
        pairs = []
        for block in partition:
            block = sorted(block)
            pairs.extend(zip(block, block[1:]))
        dom = FinSet([f"p{i}" for i in range(len(pairs))]) \
            if pairs else finset.EMPTY
        f = FinMap(dom, cod, {f"p{i}": x for i, (x, _) in enumerate(pairs)})
        g = FinMap(dom, cod, {f"p{i}": y for i, (_, y) in enumerate(pairs)})
        q = finset.coequalizer(f, g)
        assert sorted(map(sorted, q.classes.values())) == sorted(
            map(sorted, partition)
        )
        assert oracle.universal_property_check(
            "coequalizer", {"f": f, "g": g}
        )["ok"]


def test_product_coproduct_up_all_sizes_up_to_four():
    for n in range(0, 5):
        for m in range(0, 5):
            a = FinSet([f"a{i}" for i in range(n)])
            b = FinSet([f"b{i}" for i in range(m)])
            assert oracle.universal_property_check(
                "product", {"a": a, "b": b}
            )["ok"]
            assert oracle.universal_property_check(
                "coproduct", {"a": a, "b": b}
            )["ok"]


def test_pullback_up_along_identity():
    c = FinSet(["1", "2"])
    a = FinSet(["a", "b", "c"])
    f = FinMap(a, c, {"a": "1", "b": "2", "c": "2"})
    assert oracle.universal_property_check(
        "pullback", {"f": f, "g": finset.identity(c)}
    )["ok"]


def test_linear_up_checks():
    v = GradedVect(F2, {0: 2, 1: 1})
    f = LinMap(
        v, v, 0,
        {0: Matrix(F2, [[1, 1], [0, 0]]),
         1: Matrix(F2, [[1]])},
    )
    z = zero_map(v, v)
    assert linear_equalizer_up_check(f, z)["ok"]
    assert linear_coequalizer_up_check(f, z)["ok"]
    assert linear_equalizer_up_check(f, f)["ok"]
    assert linear_coequalizer_up_check(identity_map(v), z)["ok"]


def test_linear_up_checks_random():
    import random

    rng = random.Random(0)
    for _ in range(10):
        v = GradedVect(F2, {0: rng.randint(0, 2), 1: rng.randint(0, 2)})
        w = GradedVect(F2, {0: rng.randint(0, 2)}, prefix="w")
        blocks = {}
        for k in v.degrees():
            m, n = w.dim(k), v.dim(k)
            if m == 0:
                continue
            blocks[k] = Matrix(
                F2,
                tuple(tuple(rng.randint(0, 1) for _ in range(n))
                      for _ in range(m)),
                n,
            )
        f = LinMap(v, w, 0, blocks)
        g = zero_map(v, w)
        assert linear_equalizer_up_check(f, g)["ok"]
        assert linear_coequalizer_up_check(f, g)["ok"]


def test_all_linmaps_needs_a_prime_field():
    from cocontra.exactlin import QQ

    v = GradedVect(QQ(), {0: 1})
    with pytest.raises(ValueError, match="prime field"):
        list(all_linmaps(v, v))
