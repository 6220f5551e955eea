import dataclasses
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given

from cocontra import errors, finset
from cocontra.errors import MismatchedSignature
from cocontra.finset import FinMap, FinSet
from cocontra.set_contramodule import product_contra
from paper_checks import is_injective


labels = st.lists(
    st.text(alphabet="abcxyz123", min_size=1, max_size=3),
    min_size=0,
    max_size=4,
    unique=True,
)


def finmaps(dom, cod):
    if len(cod) == 0 and len(dom) > 0:
        return st.nothing()
    return st.builds(
        lambda values: FinMap(dom, cod, dict(zip(dom.elements, values))),
        st.tuples(*[st.sampled_from(cod.elements) for _ in dom]),
    )


def test_finset_is_sorted_and_distinct():
    s = FinSet(["b", "a", "c"])
    assert s.elements == ("a", "b", "c")
    with pytest.raises(ValueError):
        FinSet(["a", "a"])


def test_membership_and_index_read_the_label_map():
    s = FinSet(["b", "a", "c"])
    assert all(x in s for x in ("a", "b", "c"))
    assert "d" not in s and ["a"] not in s and "a" not in finset.EMPTY
    assert [s.index(x) for x in ("a", "b", "c")] == [0, 1, 2]
    for bad in ("d", ["a"]):
        with pytest.raises(ValueError):
            s.index(bad)
    with pytest.raises(ValueError):
        finset.EMPTY.index("a")


def test_finmap_rejects_bad_tables_with_the_same_messages():
    a, b = FinSet(["x", "y"]), FinSet(["1", "2"])
    for table in ({"x": "1"}, {"x": "1", "y": "2", "z": "1"}, {}):
        with pytest.raises(ValueError) as exc:
            FinMap(a, b, table)
        assert str(exc.value) == "table is not total on the domain"
    # the first value outside the codomain, in table order, is named
    for table, bad in (({"x": "1", "y": "3"}, "'3'"),
                       ({"x": "4", "y": "3"}, "'4'"),
                       ({"x": ["1"], "y": "1"}, "['1']")):
        with pytest.raises(ValueError) as exc:
            FinMap(a, b, table)
        assert str(exc.value) == f"value {bad} is not in the codomain"
    assert FinMap(a, b, {"y": "2", "x": "2"}).table == {"y": "2", "x": "2"}
    # a manifest may name a non-set as the domain
    with pytest.raises(AttributeError, match="'elements'"):
        FinMap(object(), b, {})


def test_equal_label_sets_are_one_cache_key():
    s1, s2 = FinSet(["q", "p"]), FinSet(("p", "q"))
    assert s1 is not s2 and s1 == s2 and hash(s1) == hash(s2)
    assert repr(s1) == "{p,q}"
    assert [f.name for f in dataclasses.fields(FinSet)] == ["elements"]
    pools = (FinSet(["1", "2"]),) * 2
    with errors.job(errors.DEFAULT_BUDGET):
        t1 = finset._decode_table(s1, pools)
        t2 = finset._decode_table(s2, pools)
        assert t2 is t1
        assert len(errors._job.tables) == 1


def test_product_examples():
    a = FinSet(["1", "2"])
    one = FinSet(["r"])
    p, _, _ = finset.product(a, one)
    assert p.elements == ("(1,r)", "(2,r)")
    p4, _, _ = finset.product(a, FinSet(["r", "s"]))
    assert len(p4) == 4
    assert p4.elements == ("(1,r)", "(1,s)", "(2,r)", "(2,s)")
    empty, _, _ = finset.product(finset.EMPTY, FinSet(["r", "s"]))
    assert len(empty) == 0


def test_coproduct_examples():
    one = FinSet(["1"])
    c, i1, i2 = finset.coproduct(one, one)
    assert len(c) == 2
    assert set(c.elements) == {"L:1", "R:1"}
    b = FinSet(["x", "y"])
    c2, _, inj2 = finset.coproduct(finset.EMPTY, b)
    assert len(c2) == 2
    assert is_injective(inj2) and inj2.is_surjective()
    c3, _, _ = finset.coproduct(FinSet(["a", "b"]), FinSet(["c"]))
    assert len(c3) == 3


def test_equalizer_examples():
    a = FinSet(["1", "2", "3"])
    b = FinSet(["x", "y"])
    f = FinMap(a, b, {"1": "x", "2": "x", "3": "y"})
    g = FinMap(a, b, {"1": "x", "2": "y", "3": "y"})
    eq = finset.equalizer(f, g)
    # oracle: pointwise comparison
    assert eq.members.elements == tuple(
        sorted(x for x in a if f(x) == g(x))
    )
    assert eq.members.elements == ("1", "3")

    assert finset.equalizer(f, f).members == a

    c = FinSet(["a", "b", "c"])
    idc = finset.identity(c)
    const = finset.constant(c, c, "c")
    assert finset.equalizer(idc, const).members.elements == ("c",)

    with pytest.raises(MismatchedSignature):
        finset.equalizer(f, FinMap(b, b, {"x": "x", "y": "y"}))


def test_coequalizer_examples():
    a = FinSet(["a", "b", "c", "d"])
    two = FinSet(["p", "q"])
    f = FinMap(two, a, {"p": "a", "q": "b"})
    g = FinMap(two, a, {"p": "b", "q": "c"})
    q = finset.coequalizer(f, g)
    assert set(map(frozenset, q.classes.values())) == {
        frozenset({"a", "b", "c"}),
        frozenset({"d"}),
    }
    assert q.project("c") == "a"  # least label is the representative

    same = finset.coequalizer(f, f)
    assert len(same.project.cod) == len(a)

    pt = finset.POINT
    x = FinSet(["a", "b"])
    h1 = finset.constant(pt, x, "a")
    h2 = finset.constant(pt, x, "b")
    assert len(finset.coequalizer(h1, h2).project.cod) == 1


def test_function_space_counts():
    a2 = FinSet(["1", "2"])
    a3 = FinSet(["1", "2", "3"])
    b = FinSet(["a", "b"])
    assert len(finset.function_space(finset.EMPTY, b)) == 1
    assert len(finset.function_space(a2, b)) == 4
    assert len(finset.function_space(a3, b)) == 8


def test_function_space_round_trip():
    for na in range(4):
        for nb in range(4):
            a = FinSet([str(i) for i in range(1, na + 1)])
            b = FinSet(["x", "y", "z"][:nb])
            maps = list(finset._all_maps(a, b))
            assert len(maps) == nb ** na
            table = finset.function_table(a, b)
            for f in maps:
                assert table[finset.encode_map(f)] == f
            for label in finset.function_space(a, b):
                f = table[label]
                assert (f.dom, f.cod) == (a, b)
                assert finset.encode_map(f) == label


def test_product_carrier_labels_round_trip():
    base = FinSet(["1", "2", "3"])
    fibers = {"1": FinSet(["p", "q"]), "2": FinSet(["r"]),
              "3": FinSet(["s", "t", "u"])}
    carrier = product_contra(base, fibers).carrier
    decode = finset.choice_table(base, fibers)
    assert set(decode) == set(carrier.elements)
    pools = [fibers[a] for a in base]
    for ch in finset.choices(base, pools):
        label = finset.encode_table(base, ch)
        assert decode[label].table == ch
    for label in carrier:
        assert finset.encode_table(base, decode[label].table) == label


def test_choices_is_the_odometer():
    keys = ["a", "b", "c"]
    pools = [["1", "2"], ["x"], ["p", "q", "r"]]
    out = list(finset.choices(keys, pools))
    assert len(out) == 2 * 1 * 3
    assert [tuple(ch.values()) for ch in out] == list(product(*pools))
    assert all(list(ch) == keys for ch in out)
    assert out[:2] == [{"a": "1", "b": "x", "c": "p"},
                       {"a": "1", "b": "x", "c": "q"}]
    assert list(finset.choices([], [])) == [{}]
    assert list(finset.choices(["a", "b"], [["1"], []])) == []
    assert list(finset.odometer(pools)) == list(product(*pools))
    assert list(finset.odometer([])) == [()]


def test_pullback_examples():
    a = FinSet(["a", "b", "c"])
    c = FinSet(["1", "2"])
    u = FinSet(["u", "v"])
    f = FinMap(a, c, {"a": "1", "b": "2", "c": "2"})
    g = FinMap(u, c, {"u": "1", "v": "2"})
    p, _, _ = finset.pullback(f, g)
    assert set(p.elements) == {"(a,u)", "(b,v)", "(c,v)"}

    p_id, proj1, _ = finset.pullback(f, finset.identity(c))
    assert len(p_id) == len(a)
    assert is_injective(proj1) and proj1.is_surjective()

    g2 = finset.constant(u, c, "1")
    f2 = finset.constant(a, c, "2")
    p_empty, _, _ = finset.pullback(f2, g2)
    assert len(p_empty) == 0


def test_signature_mismatches_are_rejected():
    a = FinSet(["1", "2"])
    b = FinSet(["x"])
    f = finset.constant(a, b, "x")
    g = finset.constant(b, b, "x")
    with pytest.raises(MismatchedSignature):
        finset.coequalizer(f, g)
    with pytest.raises(MismatchedSignature):
        finset.pullback(f, finset.constant(a, a, "1"))
    with pytest.raises(MismatchedSignature):
        finset.compose(f, f)


@given(labels, labels, labels, st.data())
def test_composition_associative_unital(la, lb, lc, data):
    a, b, c = FinSet(la), FinSet(lb), FinSet(lc)
    if (len(b) == 0 and len(a) > 0) or (len(c) == 0 and len(b) > 0):
        return
    f = data.draw(finmaps(a, b))
    g = data.draw(finmaps(b, c))
    h = data.draw(finmaps(c, c))
    assert finset.compose(h, finset.compose(g, f)) == finset.compose(
        finset.compose(h, g), f
    )
    assert finset.compose(f, finset.identity(a)) == f
    assert finset.compose(finset.identity(b), f) == f


@given(labels, labels)
def test_function_space_cardinality_law(la, lb):
    a, b = FinSet(la), FinSet(lb)
    if len(a) > 0 and len(b) == 0:
        assert len(finset.function_space(a, b)) == 0
    else:
        assert len(finset.function_space(a, b)) == len(b) ** len(a)


def test_presentations_hold_their_invariants():
    """On every pair of maps from two points to three: the equaliser's
    inclusion is an injection from its members onto themselves, and the
    coequaliser's projection is onto, with each class label the
    representative that projects to it."""
    a, b = FinSet(["p", "q"]), FinSet(["x", "y", "z"])
    maps = [FinMap(a, b, dict(zip(a.elements, values)))
            for values in product(b.elements, repeat=2)]
    for f, g in product(maps, repeat=2):
        eq = finset.equalizer(f, g)
        inc = eq.include
        assert (inc.dom, inc.cod) == (eq.members, a)
        assert is_injective(inc) and inc.image() == eq.members
        q = finset.coequalizer(f, g)
        assert q.project.is_surjective()
        assert all(q.project(q.reps(k)) == k for k in q.project.cod)


def test_colliding_labels_are_refused():
    """The labels of choice functions decode by lookup, so two choices
    that write one label would decode wrongly: they raise instead."""
    keys = FinSet(["a", "b"])
    with pytest.raises(ValueError, match="collide"):
        finset.function_table(keys, FinSet(["x", "x,b:y", "z", "y,b:z"]))
