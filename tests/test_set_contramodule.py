import hashlib
import json
import math
from itertools import product as iproduct

import pytest

from cocontra import finset, serialize, set_contramodule as sct
from cocontra.errors import (
    BaseMismatch,
    BudgetExceeded,
    EmptyCarrier,
    EmptyFiber,
    InvalidConstruction,
    ParseError,
    charge,
    charge_power,
    count_text,
    job,
)
from cocontra.finset import FinMap, FinSet
from paper_checks import contra_components


C2 = FinSet(["1", "2"])


def label_table(carrier: FinSet, base: FinSet, table: dict):
    """The theta table of a label -> label dict, read as the parser reads
    a contra_table declaration."""
    return sct.ContraTable(carrier, base, theta=tuple(
        carrier.index(table[label])
        for label in serialize.theta_labels(carrier, base)))


def two_by_two():
    """Product of {p,q} and {r,s}: the pick-your-slot structure."""
    return sct.product_contra(
        C2, {"1": FinSet(["p", "q"]), "2": FinSet(["r", "s"])}
    )


def test_product_contra_carrier_and_theta():
    t = two_by_two()
    assert len(t.carrier) == 4
    # theta((y1,y2),(z1,z2)) = (y1,z2): slot 1 from the first argument,
    # slot 2 from the second
    y = "{1:p,2:r}"
    z = "{1:q,2:s}"
    beta = FinMap(C2, t.carrier, {"1": y, "2": z})
    assert t.theta_fn()(beta) == "{1:p,2:s}"


def test_theta_loops_fetch_the_decode_table_once_per_call(monkeypatch):
    """Outside a job every ``choice_table`` call builds its table, so a
    loop over betas on a product form fetches it once per call: pi_map
    and is_contramodule_map once per product form, decompose once per
    base point (its pi_maps) and once for sigma."""
    from cocontra import errors

    t = two_by_two()
    calls = []
    table = finset.choice_table

    def counted(keys, fibers):
        calls.append(errors._job)
        return table(keys, fibers)

    monkeypatch.setattr(finset, "choice_table", counted)
    u = t.carrier.elements[0]
    sct.pi_map(t, u, "1")
    assert len(calls) == 1
    sct.decompose(t, u)
    assert len(calls) == 1 + len(t.base) + 1
    assert sct.is_contramodule_map(finset.identity(t.carrier), t, t)
    assert len(calls) == 1 + len(t.base) + 1 + 2
    assert set(calls) == {None}


def test_product_contra_rejects_empty_fiber():
    with pytest.raises(EmptyFiber):
        sct.product_contra(
            C2, {"1": FinSet(["p"]), "2": finset.EMPTY}
        )


def test_product_contra_singletons_give_point():
    t = sct.product_contra(
        C2, {"1": FinSet(["p"]), "2": FinSet(["r"])}
    )
    assert len(t.carrier) == 1


def test_validate_paper_style_product():
    t = sct.to_extensional(two_by_two())
    rep = sct.validate(t)
    assert rep["ok"] and rep["contraunital"] and rep["row_diagonal"]
    assert rep["checked_matrices"] == 4 ** 4


def test_validate_projection_is_valid():
    x = FinSet(["a", "b", "c"])
    ambient = finset.function_space(C2, x)
    # first-argument projection: theta(beta) = beta(1)
    maps = finset.function_table(C2, x)
    table = {lab: maps[lab]("1") for lab in ambient}
    t = label_table(x, C2, table)
    assert sct.validate(t)["ok"]


def test_validate_catches_broken_binary_operation():
    x = FinSet(["a", "b"])
    ambient = finset.function_space(C2, x)

    def op(u, v):
        # not a projection: "and"-like table, fails the row-diagonal law
        return "a" if (u, v) == ("a", "a") else "b"

    maps = finset.function_table(C2, x)
    table = {}
    for lab in ambient:
        beta = maps[lab]
        table[lab] = op(beta("1"), beta("2"))
    # contraunitality fails here already (op(b,b)=b holds, op(a,a)=a holds),
    # so craft the violation in the row-diagonal instead
    t = label_table(x, C2, table)
    rep = sct.validate(t)
    assert not rep["ok"]
    assert rep["witness"] is not None


def test_validate_budget_exceeded_reports_projected_count():
    x = FinSet([f"x{i}" for i in range(3)])
    t = sct.to_extensional(
        sct.product_contra(
            C2, {"1": FinSet(["x0"]), "2": FinSet(["x1", "x2"])}
        ),
    )
    # carrier size 2: 2^(2*2) = 16 matrices; force a tiny budget
    with job(3), pytest.raises(BudgetExceeded) as exc:
        sct.validate(t)
    assert exc.value.projected == 16


def test_enumerate_counts():
    for nx, expected in ((1, 1), (2, 2), (3, 2)):
        x = FinSet([f"x{i}" for i in range(nx)])
        tables = sct.enumerate_all(x, C2)
        assert len(tables) == expected
        assert expected == sct.count_product_structures(x, C2)


def _reference_enumerate(carrier: FinSet, base: FinSet):
    """Generate-and-test reference for ``enumerate_all``: the odometer over
    the slots that the constant functions leave free, every table checked
    for contraunitality (over an empty base the constants share one slot)
    and by the row-diagonal plan, the survivors in odometer order."""
    nx, nc = len(carrier), len(base)
    nb = nx**nc
    charge_power(nx, nb - nx if nc else 0, "theta-table enumeration")
    const_idx = [sct._beta_index((x,) * nc, nx) for x in range(nx)]
    free = [i for i in range(nb) if i not in const_idx]
    gather = [0] * nb
    for k, i in enumerate(free):
        gather[i] = k
    for x, i in enumerate(const_idx):
        gather[i] = len(free) + x
    consts = tuple(range(nx))
    plan = list(sct._row_diagonal_plan(nx, nc))
    survivors = []
    for values in iproduct(range(nx), repeat=len(free)):
        theta_vals = tuple(map((values + consts).__getitem__, gather))
        unital, _ = sct._check_contraunit(theta_vals, nx, nc)
        ok, _ = sct._check_row_diagonal(theta_vals, nx, plan)
        if unital and ok:
            survivors.append(theta_vals)
    points = carrier.elements
    labels = finset.choice_labels(base, [points] * nc)
    return [
        label_table(carrier, base,
                    {label: points[v] for label, v in zip(labels, theta_vals)})
        for theta_vals in survivors
    ]


# every (carrier, base) up to 5 points each whose odometer over the free
# slots, nx^(nx^nc - nx), has at most 10^5 tables
REFERENCE_SIZES = [
    (nx, nc) for nx in range(6) for nc in range(6)
    if nx ** (nx**nc - nx if nc else 0) <= 10**5
]


@pytest.mark.parametrize("nx, nc", REFERENCE_SIZES)
def test_enumerate_matches_generate_and_test(nx, nc):
    """The forward-checked search returns the reference's survivors, in
    its order."""
    carrier = FinSet([f"x{i}" for i in range(nx)])
    base = FinSet([f"c{i}" for i in range(nc)])
    assert (sct.enumerate_all(carrier, base)
            == _reference_enumerate(carrier, base))


@pytest.mark.parametrize("nx, nc", [(2, 2), (3, 2), (2, 3)])
def test_enumerate_matches_generate_and_test_on_part_of_the_plan(
        monkeypatch, nx, nc):
    """On the full plan most equations are implied by the ones whose
    dynamic slot is already assigned when they are taken up, so a search
    that skips the forced slots still finds the right tables.  On every
    second or third equation of the plan that redundancy is gone: the
    search must still return exactly the reference's survivors."""
    carrier = FinSet([f"x{i}" for i in range(nx)])
    base = FinSet([f"c{i}" for i in range(nc)])
    full = sct._row_diagonal_plan
    for step in (2, 3):
        for start in range(step):
            monkeypatch.setattr(
                sct, "_row_diagonal_plan",
                lambda nx, nc: list(full(nx, nc))[start::step])
            assert (sct.enumerate_all(carrier, base)
                    == _reference_enumerate(carrier, base)), (step, start)


def test_enumerate_beyond_the_reference_matches_the_oracle():
    """Carrier 4 over base 2 (4^12 free-slot tables) is past the
    generate-and-test reference and carrier 2 over base 4 (2^14) slow in
    it: their counts match the partition-family oracle."""
    for nx, nc, expected in ((4, 2, 8), (2, 4, 4)):
        carrier = FinSet([f"x{i}" for i in range(nx)])
        base = FinSet([f"c{i}" for i in range(nc)])
        with job(4**12):
            tables = sct.enumerate_all(carrier, base)
            assert len(tables) == expected
            assert sct.count_product_structures(carrier, base) == expected
        assert all(sct.validate(t)["ok"] for t in tables)


def test_enumerate_two_gives_the_two_projections():
    x = FinSet(["a", "b"])
    tables = sct.enumerate_all(x, C2)
    projections = set()
    for t in tables:
        beta = FinMap(C2, x, {"1": "a", "2": "b"})
        projections.add(t.theta_fn()(beta))
    assert projections == {"a", "b"}


def test_enumerate_budget():
    x = FinSet(["a", "b", "c"])
    with job(100), pytest.raises(BudgetExceeded) as exc:
        sct.enumerate_all(x, C2)
    # the odometer visits the tables that fix the 3 constant functions
    assert exc.value.projected == 3 ** 6
    with job(1000):
        assert len(sct.enumerate_all(x, C2)) == 2
    # over an empty base the odometer has one table, charged 1, and
    # contraunitality refuses it on three points
    with job(1):
        assert sct.enumerate_all(x, FinSet([])) == []


def test_budget_counts_too_long_to_print():
    """A count past 2,000 bits still ends as BudgetExceeded, with its text
    in ``projected``: the enumerate power as "base^exponent", never
    computed, and any other count by the power of two it reaches."""
    x = FinSet(["a", "b", "c"])
    base9 = FinSet([f"c{i}" for i in range(9)])
    with job(10), pytest.raises(BudgetExceeded) as exc:
        sct.enumerate_all(x, base9)
    assert exc.value.projected == "3^19680"
    assert str(exc.value) == (
        "theta-table enumeration would enumerate 3^19680 items (budget 10)")
    with job(10), pytest.raises(BudgetExceeded) as exc:
        charge(3 ** 19680, "tables")
    assert exc.value.projected == "at least 2^31192"
    assert 2 ** 31192 <= 3 ** 19680 < 2 ** 31193
    assert count_text(2 ** 1999) == str(2 ** 1999)
    assert count_text(2 ** 2000) == "at least 2^2000"
    # a power that fits is computed and charged as before
    with job(10), pytest.raises(BudgetExceeded) as exc:
        charge_power(3, 6, "tables")
    assert exc.value.projected == 729
    with job(10 ** 700):
        charge_power(3, 1400, "tables")


def test_decompose_round_trips_product():
    t = sct.to_extensional(two_by_two())
    for u in t.carrier:
        family, pi, sigma = sct.decompose(t, u)
        assert sorted(len(v) for v in family.values()) == [2, 2]
        # mutually inverse is asserted inside decompose; check the
        # projection is a contramodule map onto the fiber product
        prod = sct.product_contra(t.base, family)
        assert sct.is_contramodule_map(pi, t, prod)


def test_decompose_refuses_a_table_that_is_no_contramodule():
    """A contraunital table that breaks the row-diagonal identity has fiber
    maps that are not inverse to the carrier: decompose raises, by a check
    that holds under python -O too."""
    x = FinSet(["a", "b"])
    t = label_table(x, C2, {
        "{1:a,2:a}": "a", "{1:a,2:b}": "a",
        "{1:b,2:a}": "a", "{1:b,2:b}": "b"})
    assert not sct.validate(t)["row_diagonal"]
    with pytest.raises(InvalidConstruction, match="sigma o pi"):
        sct.decompose(t, "a")


def test_decompose_singleton_base():
    c1 = FinSet(["0"])
    x = FinSet(["a", "b"])
    t = sct.product_contra(c1, {"0": x})
    te = sct.to_extensional(t)
    family, pi, sigma = sct.decompose(te, te.carrier.elements[0])
    assert len(family["0"]) == len(x)


def test_decompose_empty_carrier_is_distinguished():
    t = sct.empty_contramodule(C2)
    with pytest.raises(EmptyCarrier):
        sct.decompose(t, "anything")


def test_decompose_fibers_independent_of_base_point():
    x = FinSet(["a", "b", "c"])
    for t in sct.enumerate_all(x, C2):
        shapes = set()
        for u in t.carrier:
            family, _, _ = sct.decompose(t, u)
            shapes.add(
                tuple(sorted(len(family[a]) for a in t.base))
            )
        assert len(shapes) == 1


def test_projection_identities_for_every_enumerated_table():
    # pi_a pi_a = pi_a, pi_a pi_b = const u (a != b),
    # pi_a(theta(beta)) = pi_a(beta(a))
    x = FinSet(["a", "b", "c"])
    for t in sct.enumerate_all(x, C2):
        for u in t.carrier:
            pis = {a: sct.pi_map(t, u, a) for a in t.base}
            for a in t.base:
                assert finset.compose(pis[a], pis[a]) == pis[a]
                for b in t.base:
                    if a != b:
                        assert finset.compose(pis[a], pis[b]) == \
                            finset.constant(t.carrier, t.carrier, u)
            for beta in finset._all_maps(t.base, t.carrier):
                tv = t.theta_fn()(beta)
                for a in t.base:
                    assert pis[a](tv) == pis[a](beta(a))


def test_contra_hom_contains_identity():
    t = two_by_two()
    members = sct.contra_hom_members(t, t)
    assert finset.identity(t.carrier) in members


def test_contra_hom_fiberwise_count():
    s = sct.product_contra(
        C2, {"1": FinSet(["a", "b"]), "2": FinSet(["c"])}
    )
    t = sct.product_contra(
        C2, {"1": FinSet(["x"]), "2": FinSet(["y", "z"])}
    )
    members = sct.contra_hom_members(s, t)
    assert len(members) == 1 ** 2 * 2 ** 1 == 2
    sub = sct.contra_hom(s, t)
    assert len(sub.members) == 2


def test_contra_hom_from_empty_is_single():
    t = sct.empty_contramodule(C2)
    s = two_by_two()
    assert len(sct.contra_hom_members(t, s)) == 1
    assert len(sct.contra_hom_members(s, t)) == 0


def test_contra_hom_matches_definition_oracle():
    small = [
        sct.product_contra(C2, {"1": FinSet(["a"]), "2": FinSet(["b", "c"])}),
        sct.product_contra(C2, {"1": FinSet(["a", "b"]), "2": FinSet(["c"])}),
        sct.product_contra(C2, {"1": FinSet(["a"]), "2": FinSet(["b"])}),
    ]
    for s in small:
        for t in small:
            se, te = sct.to_extensional(s), sct.to_extensional(t)
            direct = {
                finset.encode_map(f) for f in sct.contra_hom_members(se, te)
            }
            oracle = {
                finset.encode_map(f)
                for f in sct.contra_hom_by_definition(se, te)
            }
            assert direct == oracle


def test_contra_hom_base_mismatch():
    t = two_by_two()
    other = sct.product_contra(
        FinSet(["x"]), {"x": FinSet(["a"])}
    )
    with pytest.raises(BaseMismatch):
        sct.contra_hom_members(t, other)


def test_restrict_identity_and_collapse():
    t = two_by_two()
    r_id = sct.restrict_contra(finset.identity(C2), t)
    assert {a: v.elements for a, v in r_id.fibers.items()} == {
        "1": ("{1:p}", "{1:q}"),
        "2": ("{2:r}", "{2:s}"),
    }
    collapse = finset.constant(C2, finset.POINT, "*")
    r = sct.restrict_contra(collapse, t)
    assert len(r.fibers["*"]) == 4  # the whole product in one fiber


def test_restrict_injective_nonsurjective_gives_singletons():
    c1 = FinSet(["1"])
    t = sct.product_contra(c1, {"1": FinSet(["p", "q"])})
    f = FinMap(c1, C2, {"1": "1"})
    r = sct.restrict_contra(f, t)
    assert len(r.fibers["1"]) == 2
    assert len(r.fibers["2"]) == 1  # empty preimage gives a singleton


def _restrict_regroup_iso(f: FinMap, t: sct.ContraTable) -> FinMap:
    """The canonical carrier bijection between a product contramodule and
    its regrouped restriction."""
    r = sct.restrict_contra(f, t)
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


def _restrict_forms_agree(f: FinMap, t: sct.ContraTable) -> bool:
    """Elementwise agreement of the theta-composition and fiber-formula
    forms of restriction, through the canonical regrouping."""
    ext = sct.restrict_contra(f, sct.to_extensional(t))
    grouped = sct.restrict_contra(f, t)
    iso = _restrict_regroup_iso(f, t)
    for g in finset._all_maps(f.cod, ext.carrier):
        lhs = iso(ext.theta_fn()(g))
        g_iso = FinMap(
            f.cod, grouped.carrier, {z: iso(g(z)) for z in f.cod}
        )
        if lhs != grouped.theta_fn()(g_iso):
            return False
    return True


def test_restrict_forms_agree_elementwise():
    t = two_by_two()
    for f in finset._all_maps(C2, FinSet(["x", "y"])):
        assert _restrict_forms_agree(f, t)
    assert _restrict_forms_agree(
        finset.constant(C2, finset.POINT, "*"), t
    )


# --- theta tables on positions, labels at the edges -------------------------

C2_DECL = {"kind": "finset", "name": "C", "elements": ["1", "2"]}


def _parse_table(carrier, theta):
    """The contra_table T on the carrier X over C, parsed."""
    env = serialize.parse_bundle({"declarations": [
        C2_DECL, {"kind": "finset", "name": "X", "elements": carrier},
        {"kind": "contra_table", "name": "T", "carrier": "X", "base": "C",
         "theta": theta}]})
    return env.objects["T"]


def test_contra_table_declaration_reserialises_byte_identically():
    theta = {"{1:a,2:a}": "a", "{1:a,2:b}": "a", "{1:a,2:c}": "a",
             "{1:b,2:a}": "b", "{1:b,2:b}": "b", "{1:b,2:c}": "b",
             "{1:c,2:a}": "c", "{1:c,2:b}": "c", "{1:c,2:c}": "c"}
    t = _parse_table(["c", "a", "b"], theta)
    assert t.theta == (0, 0, 0, 1, 1, 1, 2, 2, 2)
    out = serialize.serialize_result(t)
    assert serialize.canonical_bytes(out) == serialize.canonical_bytes(
        {"kind": "contra_table", "carrier": ["a", "b", "c"],
         "base": ["1", "2"], "theta": theta})
    assert _parse_table(out["carrier"], out["theta"]) == t


@pytest.mark.parametrize("theta, message", [
    ({"{1:a,2:a}": "a"}, "table is not total on the domain"),
    ({"{1:a,2:a}": "a", "{1:a,2:b}": "a", "{1:b,2:a}": "b",
      "{1:b,2:c}": "b"}, "table is not total on the domain"),
    ({"{1:a,2:a}": "a", "{1:a,2:b}": "a", "{1:b,2:a}": "b",
      "{1:b,2:b}": "z"}, "value 'z' is not in the codomain"),
])
def test_contra_table_parse_messages(theta, message):
    with pytest.raises(ParseError) as exc:
        _parse_table(["a", "b"], theta)
    assert str(exc.value) == f"contra_table 'T' rejected: {message}"
    assert exc.value.where == "T"


# the labels {1:x,2:y,2:z} of (x,2:y ; z) and of (x ; y,2:z) collide
COLLIDING = FinSet(["x,2:y", "z", "x", "y,2:z"])


def test_colliding_function_labels_are_refused_where_labels_are_built():
    with pytest.raises(ParseError,
                       match=r"labels of maps on \{1,2\} collide"):
        _parse_table(list(COLLIDING), {str(i): "x" for i in range(16)})
    # the first projection, a valid table on positions: it is checked and
    # quotiented, but refused where it is written, not merged into fewer
    # keys
    t = sct.ContraTable(COLLIDING, C2,
                        theta=tuple(i // 4 for i in range(16)))
    assert sct.validate(t)["ok"]
    with pytest.raises(ValueError,
                       match=r"labels of maps on \{1,2\} collide"):
        serialize.serialize_result(t)


def test_jobs_on_colliding_function_labels_pass():
    """A product whose function labels collide: check, l, decompose and
    hom under the oracle pass, as they build no theta labels (each ended
    in ValueError while the extensional table was keyed by labels)."""
    from cocontra import cli

    env = serialize.parse_bundle({"declarations": [
        C2_DECL,
        {"kind": "contra_product", "name": "T", "base": "C",
         "fibers": {"1": ["a", "c}"],
                    "2": ["b", "b},2:{1:c", "{1:a,2:b"]}},
        {"kind": "contra_product", "name": "S", "base": "C",
         "fibers": {"1": ["a"], "2": ["b"]}}]})
    with pytest.raises(ValueError, match="collide"):
        finset.function_table(C2, env.objects["T"].carrier)
    ctx = {"budget": 10**6, "oracle": True, "seed": None, "timing": False}
    for command, args in (
            ("check", {"target": "T"}), ("l", {"target": "T"}),
            ("decompose", {"target": "T", "basepoint": "{1:a,2:b}"}),
            ("hom", {"source": "S", "target": "T"}),
            ("hom", {"source": "T", "target": "S"})):
        entry = cli.run_job(env, {"command": command, "args": args}, ctx)
        assert entry["status"] == "pass", (command, entry["witnesses"])


def test_every_theta_table_holds_a_position_per_function():
    x = FinSet(["a", "b"])
    tables = [
        _parse_table(["a", "b"], {"{1:a,2:a}": "a", "{1:a,2:b}": "a",
                                  "{1:b,2:a}": "b", "{1:b,2:b}": "b"}),
        sct.to_extensional(two_by_two()),
        *sct.enumerate_all(FinSet(["a", "b", "c"]), C2),
        sct.restrict_contra(finset.constant(C2, finset.POINT, "*"),
                            sct.enumerate_all(x, C2)[0]),
        sct.restrict_contra(FinMap(C2, FinSet(["u", "v", "w"]),
                                   {"1": "u", "2": "w"}),
                            sct.to_extensional(two_by_two())),
        sct.empty_contramodule(C2),
        *sct.enumerate_all(x, finset.EMPTY),
    ]
    for t in tables:
        nx = len(t.carrier)
        assert type(t.theta) is tuple and len(t.theta) == nx ** len(t.base)
        assert all(type(v) is int and 0 <= v < nx for v in t.theta)


def test_induce_examples():
    t = two_by_two()
    same = sct.induce_contra(finset.identity(C2), t)
    assert same.fibers == t.fibers

    const = finset.constant(C2, finset.POINT, "*")
    point_t = sct.product_contra(
        finset.POINT, {"*": FinSet(["u", "v"])}
    )
    ind = sct.induce_contra(const, point_t)
    assert all(v.elements == ("u", "v") for v in ind.fibers.values())

    empty = sct.empty_contramodule(C2)
    f = finset.identity(C2)
    assert sct.induce_contra(f, empty).is_empty()


def test_induce_surjective_agrees_with_quotient_section_route():
    from cocontra import set_comodule as scm
    from cocontra import set_correspondence as sco

    surj = finset.constant(C2, finset.POINT, "*")
    t = sct.product_contra(finset.POINT, {"*": FinSet(["u", "v"])})
    direct = sct.induce_contra(surj, t)
    composite = sco.R_set(
        scm.induce_along(surj, sco.L_set(t))
    )
    assert sorted(len(v) for v in direct.fibers.values()) == sorted(
        len(v) for v in composite.fibers.values()
    )
    # explicit per-fiber bijection: v  <->  ((v,*),z)
    for z in C2:
        for v in t.fibers["*"]:
            lifted = finset.pair_label(finset.pair_label(v, "*"), z)
            assert lifted in composite.fibers[z]


def test_noncocontinuity_demo():
    rep2 = sct.noncocontinuity_demo(C2)
    assert (
        rep2["quotient_after_function_space"],
        rep2["function_space_of_quotient"],
    ) == (3, 1)
    rep3 = sct.noncocontinuity_demo(FinSet(["1", "2", "3"]))
    assert (
        rep3["quotient_after_function_space"],
        rep3["function_space_of_quotient"],
    ) == (7, 1)
    rep1 = sct.noncocontinuity_demo(FinSet(["1"]))
    assert rep1["cocontinuous_here"]


def test_induction_adjunction_small():
    c = FinSet(["1", "2"])
    chat = FinSet(["x"])
    f = finset.constant(c, chat, "x")
    rep = sct.induction_adjunction_certificate(f, fiber_bound=2)
    assert rep["ok"]
    assert rep["pairs"] > 0 and rep["naturality_squares"] > 0


# The carrier-level transpose and the assembly of a slotwise family into a
# carrier map: the references of the slot-code calculus.


def _product_map(s, t, comps) -> FinMap:
    """Assemble a slotwise family back into a carrier map."""
    table = {}
    for ch in finset.choices(s.base, [s.fibers[a] for a in s.base]):
        image = {a: comps[a](ch[a]) for a in s.base}
        table[finset.encode_table(s.base, ch)] = finset.encode_table(
            t.base, image
        )
    return FinMap(s.carrier, t.carrier, table)


def test_slotwise_components_need_product_forms():
    t = sct.product_contra(C2, {"1": FinSet(["p"]), "2": FinSet(["r"])})
    flat = sct.to_extensional(t)
    ident = finset.identity(t.carrier)
    with pytest.raises(ValueError, match="product forms"):
        contra_components(ident, flat, t)


def transpose_hom(f: FinMap, t, s, u: FinMap) -> FinMap:
    """The adjunction bijection: a map out of the induced contramodule
    corresponds to the map into the restriction that collects, over each
    target point, the components indexed by its preimage."""
    ind_t = sct.induce_contra(f, t)
    res_s = sct.restrict_contra(f, s)
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


def _slot_code(m: FinMap) -> int:
    """The code of a slot map: its value positions read as base-|cod|
    digits, the first source point most significant."""
    code = 0
    for x in m.dom:
        code = code * len(m.cod) + m.cod.index(m(x))
    return code


def test_component_calculus_matches_carrier_maps():
    # the certificate's transpose on slot codes agrees with honest
    # carrier-level maps on all small bases
    c = FinSet(["1", "2"])
    chat = FinSet(["x", "y"])
    for f in finset._all_maps(c, chat):
        check = sct._InductionCheck(f, 2)
        for i, t in enumerate(sct.all_product_shapes(chat, 2)):
            ind_t = sct.induce_contra(f, t)
            for j, s in enumerate(sct.all_product_shapes(c, 2)):
                plan = check.plan(i, j)
                res_s = sct.restrict_contra(f, s)
                for u in sct.contra_hom_members(ind_t, s):
                    v = transpose_hom(f, t, s, u)
                    comps_u = contra_components(u, ind_t, s)
                    codes = tuple(_slot_code(comps_u[z]) for z in c)
                    comp_v = sct._decode_family(
                        chat.elements,
                        [t.fibers[y].elements for y in chat],
                        [res_s.fibers[y].elements for y in chat],
                        sct._transpose_codes(plan, codes),
                    )
                    rebuilt = _product_map(
                        t,
                        res_s,
                        {
                            y: FinMap(
                                t.fibers[y], res_s.fibers[y], comp_v[y]
                            )
                            for y in chat
                        },
                    )
                    assert rebuilt == v
    # the one-slot transposes, shared across pairs of shapes by the labels
    # of the fibers they read, are the slots of the full transpose
    for nch in (2, 3):
        chat = FinSet([f"w{k}" for k in range(nch)])
        for f in finset._all_maps(c, chat):
            check = sct._InductionCheck(f, 2)
            for i, m in enumerate(check.t_sizes):
                for j, n in enumerate(check.s_sizes):
                    ind_t = [m[y] for y in check.fy]
                    for u in sct._slot_families(ind_t, n):
                        v = sct._transpose_codes(check.plan(i, j), u)
                        for y, r in enumerate(check.res[j]):
                            uz = tuple(u[z] for z in r.zs)
                            assert check.slot_table(i, j, y)[uz] == v[y]


def test_regrouping_looks_positions_up_by_label():
    # "p+" sorts after "p" in its fiber but before "p," inside a label, so
    # the fiber of Res(s) is not in odometer order
    s = sct.product_contra(
        C2, {"1": FinSet(["p", "p+"]), "2": FinSet(["q", "r"])}
    )
    f = finset.constant(C2, FinSet(["x"]), "x")
    (regrouped,) = sct._regrouping(f, s)
    fiber = sct.restrict_contra(f, s).fibers["x"]
    assert regrouped.size == len(fiber) == 4
    for (i, j), p in regrouped.pos.items():
        assert fiber.elements[p] == "{1:%s,2:%s}" % (["p", "p+"][i],
                                                    ["q", "r"][j])
    assert regrouped.order == [(1, 0), (1, 1), (0, 0), (0, 1)]


def test_faulty_transpose_is_reported_with_label_witnesses(monkeypatch):
    honest = sct._transpose_codes

    def faulty(plan, u):
        v = honest(plan, u)
        if not any(u):
            return (-1,) + v[1:]  # not a slot map at all
        if sum(u) == 1:
            return (0,) * len(v)  # a slot map, but the wrong one
        return v

    f = finset.constant(C2, FinSet(["x"]), "x")
    honest_rep = sct.induction_adjunction_certificate(f, fiber_bound=2)
    assert honest_rep["ok"]
    monkeypatch.setattr(sct, "_transpose_codes", faulty)
    rep = sct.induction_adjunction_certificate(f, fiber_bound=2)
    assert not rep["ok"]
    kinds = [fail["kind"] for fail in rep["failures"]]
    assert {"transpose-not-a-hom", "not-a-bijection",
            "not-natural-in-source", "not-natural-in-target"} <= set(kinds)
    # the first pair of shapes: one point over x, one over each of 1 and 2
    assert rep["failures"][0] == {
        "kind": "transpose-not-a-hom",
        "u": {"1": {"vx_1": "v1_1"}, "2": {"vx_1": "v2_1"}},
    }
    # the first well-typed wrong transpose is the u of the second pair,
    # seen through the one map from two points to one
    source = rep["failures"][kinds.index("not-natural-in-source")]
    assert source == {
        "kind": "not-natural-in-source",
        "a": {"x": {"vx_1": "vx_1", "vx_2": "vx_1"}},
        "u": {"1": {"vx_1": "v1_1"}, "2": {"vx_1": "v2_2"}},
    }
    target = rep["failures"][kinds.index("not-natural-in-target")]
    assert set(target) == {"kind", "b", "u"}
    assert set(target["b"]) == {"1", "2"}
    for z, slot in target["b"].items():
        assert set(slot) <= {f"v{z}_1", f"v{z}_2"}
        assert set(slot.values()) <= {f"v{z}_1", f"v{z}_2"}
    # an ill-typed transpose is left out of the squares
    assert rep["pairs"] == honest_rep["pairs"]
    assert rep["naturality_squares"] < honest_rep["naturality_squares"]
    # the first sct.WITNESSES failures of each kind are reported, and the
    # totals count them all
    totals = rep["failure_totals"]
    assert set(totals) == set(kinds)
    for kind in totals:
        assert kinds.count(kind) == min(totals[kind], sct.WITNESSES)
    assert "failure_totals" not in honest_rep


# --- the slot check against the whole-square check ---------------------------
#
# The certificate checks each naturality square through its slots over the
# points of f's codomain.  The reference below is the check it replaced:
# every square, whole, on the full transpose plans.


def _reference_source(check, memos, i, j, pairs, failures):
    """For every a: t2 -> t, the transpose of u o Ind(a) is v o a."""
    m, n, big = check.t_sizes[i], check.s_sizes[j], check.res_sizes[j]
    squares = 0
    for i2, m2 in enumerate(check.t_sizes):
        plan, memo = check.plan(i2, j), memos.setdefault((i2, j), {})
        for a in check.family_list(("source", i2, i), m2, m):
            left = [check.before(a[y], m2[y], m[y], nz)
                    for y, nz in zip(check.fy, n)]
            right = [check.before(a[y], m2[y], m[y], big[y])
                     for y in range(len(m))]
            for u, v in pairs:
                comp = tuple(row[code] for row, code in zip(left, u))
                lhs = memo.get(comp)
                if lhs is None:
                    lhs = memo[comp] = sct._transpose_codes(plan, comp)
                if lhs != tuple(row[code] for row, code in zip(right, v)):
                    failures.append(
                        {"kind": "not-natural-in-source",
                         "a": sct._decode_family(check.ykeys,
                                                 check.t_fibers[i2],
                                                 check.t_fibers[i], a),
                         "u": check.decode_u(i, j, u)}
                    )
            squares += len(pairs)
    return squares


def _reference_target(check, memos, i, j, pairs, failures):
    """For every b: s -> s2, the transpose of b o u is Res(b) o v."""
    m, n = check.t_sizes[i], check.s_sizes[j]
    squares = 0
    for j2, n2 in enumerate(check.s_sizes):
        plan, memo = check.plan(i, j2), memos.setdefault((i, j2), {})
        big2 = check.res_sizes[j2]
        for b in check.family_list(("target", j, j2), n, n2):
            b_rows = [sct._slot_maps(nz, nz2)[code]
                      for nz, nz2, code in zip(n, n2, b)]
            res_b = [
                tuple(r2.pos[tuple(b_rows[z][x] for z, x in zip(r.zs, ch))]
                      for ch in r.order)
                for r, r2 in zip(check.res[j], check.res[j2])
            ]
            left = [check.after(g, nz2, m[y])
                    for g, nz2, y in zip(b_rows, n2, check.fy)]
            right = [check.after(g, p, my)
                     for g, p, my in zip(res_b, big2, m)]
            for u, v in pairs:
                comp = tuple(row[code] for row, code in zip(left, u))
                lhs = memo.get(comp)
                if lhs is None:
                    lhs = memo[comp] = sct._transpose_codes(plan, comp)
                if lhs != tuple(row[code] for row, code in zip(right, v)):
                    failures.append(
                        {"kind": "not-natural-in-target",
                         "b": sct._decode_family(check.ckeys,
                                                 check.s_fibers[j],
                                                 check.s_fibers[j2], b),
                         "u": check.decode_u(i, j, u)}
                    )
            squares += len(pairs)
    return squares


def _reference_certificate(f, fiber_bound):
    check = sct._InductionCheck(f, fiber_bound)
    report = {"f": dict(f.table), "pairs": 0, "hom_elements": 0,
              "naturality_squares": 0, "failures": []}
    memos = {}  # the transposes of each pair of shapes, by u
    squares = 0
    for i in range(len(check.t_sizes)):
        for j in range(len(check.s_sizes)):
            pairs = check.homs(i, j, report)
            squares += _reference_source(check, memos, i, j, pairs,
                                         report["failures"])
            squares += _reference_target(check, memos, i, j, pairs,
                                         report["failures"])
    report["naturality_squares"] = squares
    report["ok"] = not report["failures"]
    return report


def _fault_in_first_slot(when, change):
    """A transpose that is wrong in the slot over f(z0) only, and there
    only when u_z0 has the value tuple ``when``: the slot's code becomes
    ``change(code, bound)``, bound being the number of slot maps.  The
    fault reads only what that slot reads, so it is the same fault on the
    full plan and on a one-slot plan."""
    honest = sct._transpose_codes

    def faulty(plan, u):
        tables, slots = plan
        row = tables[0][u[0]]
        v = list(honest(plan, u))
        for k, (zs, _, size) in enumerate(slots):
            if 0 in zs and row == when:
                v[k] = change(v[k], size ** len(row))
        return tuple(v)

    return faulty


def _capped(rep) -> dict:
    """The reported form of a report with every failure: the first
    sct.WITNESSES failures of each kind, in order, and, when any failed,
    the total of each kind."""
    kept, totals = [], {}
    for fail in rep["failures"]:
        totals[fail["kind"]] = totals.get(fail["kind"], 0) + 1
        if totals[fail["kind"]] <= sct.WITNESSES:
            kept.append(fail)
    if not totals:
        return rep
    return {**rep, "failures": kept, "failure_totals": totals}


def _tokens(rep) -> str:
    """The report's JSON tokens as canonical_bytes writes them, without
    its indentation: equal exactly when the canonical bytes are, and
    written by the C encoder, which the faulty reports' tens of thousands
    of witnesses need."""
    return json.dumps(rep, sort_keys=True, ensure_ascii=False)


@pytest.mark.parametrize("fault, total", [
    (None, 0),
    # a slot map, but the wrong one
    (_fault_in_first_slot((1, 0), lambda code, bound: (code + 1) % bound),
     42401),
    # off by one, past the last slot map at times
    (_fault_in_first_slot((0, 1), lambda code, bound: code + 1), 49306),
    # the first code past the slot maps
    (_fault_in_first_slot((1,), lambda code, bound: bound), 31707),
], ids=["honest", "wrong-code", "off-by-one", "out-of-range"])
def test_slot_check_matches_whole_square_reference(monkeypatch, fault,
                                                   total):
    if fault is not None:
        monkeypatch.setattr(sct, "_transpose_codes", fault)
    failing = failures = 0
    for nc, nch in ((1, 1), (2, 1), (1, 2), (2, 2), (2, 3), (3, 2)):
        for f in _base_maps(nc, nch):
            rep = sct.induction_adjunction_certificate(f, 2)
            with monkeypatch.context() as every_failure:
                every_failure.setattr(sct, "WITNESSES", math.inf)
                reference = _reference_certificate(f, 2)
            assert _tokens(rep) == _tokens(_capped(reference))
            failing += not rep["ok"]
            failures += len(reference["failures"])
            assert sum(rep.get("failure_totals", {}).values()) == len(
                reference["failures"])
    assert failing == (0 if fault is None else 25)
    assert failures == total


def test_slot_checks_are_shared_across_pairs_of_shapes():
    # over each of the two points the slot equations are read by fiber
    # sizes 1 and 2: (a_y, u_z) on t2 -> t and Ind t -> s, and (b_z, u_z)
    # on t, s -> s2, so 8 source and 8 target slot checks per point, where
    # a check per pair of shapes would make 4 * 4 * 4 of each per point
    f = FinMap(C2, FinSet(["x", "y"]), {"1": "x", "2": "y"})
    check = sct._InductionCheck(f, 2)
    rep = check.certificate()
    assert rep["ok"] and rep["naturality_squares"] == 2592
    kinds = [key[0] for key in check.slots]
    assert (kinds.count("source"), kinds.count("target")) == (16, 16)
    assert len(check.slot_tables) == 8


# --- goldens of the set-side certificates -------------------------------------


@pytest.fixture
def charges(monkeypatch):
    """Every charge set_contramodule makes, in order, logged before the
    budget checks it."""
    log = []

    def record(projected, what):
        log.append((projected, what))
        charge(projected, what)

    monkeypatch.setattr(sct, "charge", record)
    return log


def _base_maps(nc, nch):
    c = FinSet([f"z{i}" for i in range(nc)])
    chat = FinSet([f"w{i}" for i in range(nch)])
    return list(finset._all_maps(c, chat))


def _map_key(f):
    return ",".join(f"{z}>{f(z)}" for z in f.dom)


# Recorded before the induction-adjunction certificate moved from label
# dicts to integer slot codes: the report of every map 2 -> 2, 2 -> 3 and
# 3 -> 2 at fiber bound 2, and the sequence of every budget charge the
# twenty-one certificates make.
INDUCTION_GOLDEN_SHA256 = {
    "z0>w0,z1>w0":
        "e96f770de4aeeb695da3dd18be75e6c816142712db9824422b313b2c75122831",
    "z0>w0,z1>w1":
        "3dd4a97a3d9e8b9e3c810c17c8330b329a706e434c3cccdabae4f918023f459c",
    "z0>w1,z1>w0":
        "6c7d794527dc5724ec56f359ae4bac34eeab35da3d81afff4d4b34ad4f934301",
    "z0>w1,z1>w1":
        "808b7eb7d339a2349bb74e6782e35d6a98838dd72c4217baf21b1de0e67bdeea",
    "z0>w0,z1>w2":
        "dfbd188f14b86c4d7d5cc9ecb99b0b29338226b8aa182f80fc4da60d5c7c219e",
    "z0>w1,z1>w2":
        "a60e3071be470bc68d409ee2e0a2d99f1a81ab06a82653cff9cd338783ad7f2b",
    "z0>w2,z1>w0":
        "84086f5928c0da6fc1fdaacb1edca954d075055c96ca93879c6291695bc7a4bb",
    "z0>w2,z1>w1":
        "300fddd7950231b217b35bb5b8b8a203063e69f88e5dfa4d76101fa67ff039ec",
    "z0>w2,z1>w2":
        "65282cbe65794869da2eaedfb3748b5be1cb5bc93168f54f0711431565cb5c34",
    "z0>w0,z1>w0,z2>w0":
        "c260ebf0321d81a0caac1d8baf6d63d081c8a0b6ea6b0bc9f3b84c55aab906e8",
    "z0>w0,z1>w0,z2>w1":
        "0b90da6fa0ec4e4af1c115f01fa4660d659014e90f2b7c3528e693234c401181",
    "z0>w0,z1>w1,z2>w0":
        "28277b31f4f9912139f02fcffbc8f42de465c5c4cf88be165664d4dbc97e4b21",
    "z0>w0,z1>w1,z2>w1":
        "ae3d709a3065d032a27b292764c1911b1fe01738cdf0e10052f1e6987f44ecaa",
    "z0>w1,z1>w0,z2>w0":
        "b7954f2de13d0eadc53b6ef19ab1967a20ac2004ece5d89a5d0e112847758c26",
    "z0>w1,z1>w0,z2>w1":
        "96332154c306b0c0dd926fd08e6f5a91539b3cdc012994b497967558f715faf7",
    "z0>w1,z1>w1,z2>w0":
        "d0db70982b6d9d04f4a81dd3638b171d49bcea702506777dcde316ccb189f467",
    "z0>w1,z1>w1,z2>w1":
        "fad6b20d65db31d099beaeebecd0d2535c2fd6b6e82976d7567b262f9e551ccb",
}

INDUCTION_CHARGES_SHA256 = (
    "d11314c4aa3d2b7b6c09a800579314c45a8742292ca505a43b0a97ca1c2c2ddd"
)


def test_induction_adjunction_reports_and_charges_match_goldens(charges):
    digests = {}
    for nc, nch in ((2, 2), (2, 3), (3, 2)):
        for f in _base_maps(nc, nch):
            rep = sct.induction_adjunction_certificate(f, 2)
            assert rep["ok"]
            digests[_map_key(f)] = hashlib.sha256(
                serialize.canonical_bytes(rep)).hexdigest()
    assert digests == INDUCTION_GOLDEN_SHA256
    assert len(charges) == 2704
    digest = hashlib.sha256(json.dumps(charges).encode()).hexdigest()
    assert digest == INDUCTION_CHARGES_SHA256


@pytest.mark.parametrize("max_count, message, charged", [
    # the first charge above one is the second target naturality family
    # of the first pair
    (1, "slotwise hom enumeration would enumerate 2 items (budget 1)", 12),
    # a late charge: the source naturality family from the fourth target
    # shape into the last one
    (16, "slotwise hom enumeration would enumerate 32 items (budget 16)",
     134),
])
def test_induction_adjunction_budget_cut_matches_golden(charges, max_count,
                                                        message, charged):
    f = _base_maps(2, 3)[1]
    assert f.table == {"z0": "w0", "z1": "w1"}
    with job(max_count), pytest.raises(BudgetExceeded) as err:
        sct.induction_adjunction_certificate(f, 2)
    assert str(err.value) == message
    assert len(charges) == charged


# Recorded before the theta-table odometer fixed the constant slots: every
# survivor on small carriers and bases, in order.
ENUMERATE_GOLDEN_SHA256 = (
    "0152ae32c92f1de57b882fc315caa12e3f830afb818700b15330522cc3c09394"
)


def test_enumerate_all_matches_golden():
    docs = []
    for n, k in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3),
                 (4, 1)):
        carrier = FinSet([f"x{i}" for i in range(n)])
        base = FinSet([f"c{i}" for i in range(k)])
        docs.append(serialize.serialize_result(sct.enumerate_all(carrier,
                                                                 base)))
    assert [len(d) for d in docs] == [1, 1, 1, 2, 1, 2, 3, 1]
    digest = hashlib.sha256(serialize.canonical_bytes(docs)).hexdigest()
    assert digest == ENUMERATE_GOLDEN_SHA256


def _theta_candidates(n, k, unital_only=False):
    carrier = FinSet([f"x{i}" for i in range(n)])
    base = FinSet([f"c{i}" for i in range(k)])
    ambient = finset.function_space(base, carrier)
    consts = {finset.encode_map(finset.constant(base, carrier, x)): x
              for x in carrier}
    free = [a for a in ambient if not (unital_only and a in consts)]
    for vals in iproduct(carrier.elements, repeat=len(free)):
        table = dict(consts)
        table.update(zip(free, vals))
        yield label_table(carrier, base, table)


# Recorded with the row-diagonal check built per call: the reports of
# every theta table on two points over two, and of every contraunital one
# on three points over two, witnesses included.
VALIDATE_GOLDEN_SHA256 = (
    "f4df811d87df6f7c06cf491ad53ab021eb45295b55373ef0acde57c540a6ffaf"
)


def test_validate_reports_match_golden():
    reps = [sct.validate(t) for t in _theta_candidates(2, 2)]
    reps += [sct.validate(t) for t in _theta_candidates(3, 2, True)]
    assert (len(reps), sum(r["ok"] for r in reps)) == (745, 4)
    digest = hashlib.sha256(serialize.canonical_bytes(reps)).hexdigest()
    assert digest == VALIDATE_GOLDEN_SHA256


def test_set_side_tables_are_bounded_and_built_on_demand():
    """The slot-map and decode tables live in the job context: within a
    job each is built once, and outside a job each call builds its own
    and nothing is kept.  Composition rows, transpose plans, slot
    transposes, slot checks and row-diagonal plans live in one call."""
    import subprocess
    import sys
    from pathlib import Path

    from cocontra import errors

    fibers = {"1": FinSet(["p", "q"]), "2": FinSet(["r"])}
    assert sct._slot_maps(2, 2) is not sct._slot_maps(2, 2)
    assert (finset.choice_table(C2, fibers)
            is not finset.choice_table(C2, fibers))
    assert errors._job is None
    f = finset.constant(C2, FinSet(["x"]), "x")
    with errors.job(errors.DEFAULT_BUDGET):
        assert sct.induction_adjunction_certificate(f, 2)["ok"]
        assert sct._slot_maps(2, 2) is sct._slot_maps(2, 2)
        assert (finset.choice_table(C2, fibers)
                is finset.choice_table(C2, fibers))
        kinds = {key[0] for key in errors._job.tables}
        assert kinds == {"slots", "decode"}
    assert errors._job is None
    # nothing is built at import
    src = Path(sct.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c",
         "import cocontra.cli\n"
         "from cocontra import errors\n"
         "print(errors._job)"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "None"
