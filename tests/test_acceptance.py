"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime, asserted against the stated budget."""

import json
import random
import time
from itertools import product as iproduct

import pytest

from cocontra import cli, coalg, finset, polycoalg as pcg
from cocontra import set_comodule as scm
from cocontra import set_contramodule as sct
from cocontra import set_correspondence as sco
from cocontra.coalg import instances as inst
from cocontra.exactlin import (
    GF,
    QQ,
    GradedVect,
    LinMap,
    Matrix,
    compose,
    hom_space,
    identity_map,
    sub_maps,
    tensor,
)
from cocontra.finset import FinMap, FinSet
from paper_checks import (
    all_linmaps,
    change_adjunction_certificate,
    coalgebra_as_left_comodule,
    comodule_from_family,
    comodule_to_contramodule,
    coords_of,
    counit_contraction_iso,
    divided_power_certificate,
    enriched_composition,
    family_from_first,
    family_relations_hold,
    scale_map,
    unit_counit_iso_report,
    vec_to_linmap,
    zero_map,
)


F2 = GF(2)
Q = QQ()


def member_map(hobj, label):
    """The honest linear map behind a basis label of a hom object."""
    return vec_to_linmap(hobj.include.apply_label(label), hobj.src.space,
                         hobj.dst.space)


class Timer:
    def __init__(self, name, budget_s):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.name}: {elapsed:.2f}s "
              f"(budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.name} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.budget}s"
            )


@pytest.fixture(scope="module")
def linear_family():
    """Fifty seeded instances over F2 with dims bounded by three."""
    family = []
    for i in range(50):
        rng = random.Random(1000 + i)
        c = inst.random_coalgebra(F2, rng, max_dim=3)
        m = inst.random_comodule(c, rng, max_dim=3)
        p = inst.random_contramodule(c, rng, max_dim=3)
        family.append((c, m, p, rng))
    return family


def test_criterion_01_unique_comonoid():
    with Timer("1 unique comonoid", 1.0):
        expected = {1: 1, 2: 16, 3: 729}
        for n in (1, 2, 3):
            base = FinSet([f"c{i}" for i in range(n)])
            rep = scm.unique_comonoid_certificate(base)
            assert rep["candidates"] == expected[n]
            assert rep["valid"] == 1
            assert rep["valid_is_diagonal"]
            assert rep["coassociative"]


def test_criterion_02_contramodule_decomposition():
    with Timer("2 contramodule decomposition", 30.0):
        base = FinSet(["1", "2"])
        expected_candidates = {1: 1, 2: 16, 3: 19683}
        for n in (1, 2, 3):
            carrier = FinSet([f"x{i}" for i in range(n)])
            candidates = n ** (n ** len(base))
            assert candidates == expected_candidates[n]
            survivors = sct.enumerate_all(carrier, base)
            oracle_count = sct.count_product_structures(carrier, base)
            assert len(survivors) == oracle_count
            for t in survivors:
                for u in t.carrier:
                    family, pi, sigma = sct.decompose(t, u)
                    prod = sct.product_contra(t.base, family)
                    assert pi.is_injective() and pi.is_surjective()
                    assert sct.is_contramodule_map(pi, t, prod)
                    assert finset.compose(sigma, pi) == finset.identity(
                        t.carrier
                    )
                    assert finset.compose(pi, sigma) == finset.identity(
                        prod.carrier
                    )


def test_criterion_03_sets_equivalence():
    with Timer("3 sets equivalence", 60.0):
        rep = sco.equivalence_certificate(
            max_carrier=4, max_base=2, max_fiber=3, naturality_carrier=3
        )
        assert rep["ok"], rep["failures"][:3]
        assert rep["degenerate"] > 0  # hypothesis filter, not an error
        # triangle identities and the quotient comparison are part of the
        # certificate; spot-check the quantifier actually ran
        assert rep["nondegenerate"] >= 26
        assert rep["contramodules"] >= 12


def test_criterion_04_noncocontinuity():
    with Timer("4 non-cocontinuity", 1.0):
        for n, X in ((2, ("a", "b")), (3, ("a", "b"))):
            base = FinSet([f"c{i}" for i in range(n)])
            rep = sct.noncocontinuity_demo(base)
            # recompute both sizes by direct enumeration, independently
            tuples = list(iproduct(X, repeat=n))
            consts = [t for t in tuples if len(set(t)) == 1]
            merged = (len(tuples) - len(consts)) + 1
            assert rep["quotient_after_function_space"] == merged
            assert rep["function_space_of_quotient"] == 1
        assert sct.noncocontinuity_demo(
            FinSet(["c0", "c1"])
        )["quotient_after_function_space"] == 3
        assert sct.noncocontinuity_demo(
            FinSet(["c0", "c1", "c2"])
        )["quotient_after_function_space"] == 7


def test_criterion_05_set_induction_adjointness():
    with Timer("5 set induction adjointness", 60.0):
        total_pairs = 0
        for nc in (1, 2, 3):
            for nch in (1, 2, 3):
                c = FinSet([f"z{i}" for i in range(nc)])
                chat = FinSet([f"w{i}" for i in range(nch)])
                for f in finset._all_maps(c, chat):
                    rep = sct.induction_adjunction_certificate(
                        f, fiber_bound=2
                    )
                    assert rep["ok"], rep["failures"][:2]
                    total_pairs += rep["pairs"]
        assert total_pairs > 0


def test_criterion_06_linear_hom_objects(linear_family):
    with Timer("6 linear hom objects", 120.0):
        assert len(linear_family) >= 50
        for c, m, p, rng in linear_family:
            n = inst.random_comodule(c, rng, max_dim=3)
            h = coalg.comodule_hom_object(m, n)
            units, kernel = coalg.comodule_maps_direct(m, n)
            assert coalg.same_degree_zero_subspace(h, units, kernel)
            q = inst.random_contramodule(c, rng, max_dim=3)
            hf = coalg.contra_hom_object(p, q)
            units_f, kernel_f = coalg.contra_maps_direct(p, q)
            assert coalg.same_degree_zero_subspace(hf, units_f, kernel_f)
        # closure, associativity, unitality of the internal composition on
        # a sub-family (every member map composite stays a member)
        for c, m, p, rng in linear_family[:10]:
            hmm = coalg.comodule_hom_object(m, m)
            h2, comp = enriched_composition(hmm, hmm)
            members = [
                member_map(hmm, lab) for _, _, lab in hmm.space.basis()
            ]
            for g in members:
                for f in members:
                    assert coords_of(h2, compose(g, f)) is not None
                    for e in members[:2]:
                        assert sub_maps(
                            compose(e, compose(g, f)),
                            compose(compose(e, g), f),
                        ).is_zero()
            ident = identity_map(m.space)
            assert coords_of(hmm, ident) is not None
            for f in members:
                assert sub_maps(compose(f, ident), f).is_zero()
                assert sub_maps(compose(ident, f), f).is_zero()


def test_criterion_07_adjunction_certificate(linear_family):
    with Timer("7 adjunction certificate", 120.0):
        for c, m, p, rng in linear_family:
            rep = coalg.adjunction_certificate(p, m)
            assert rep["ok"], rep
            assert rep["dim_comodule_side"] == rep["dim_contramodule_side"]
        for c, m, p, rng in linear_family[:12]:
            assert coalg.triangle_identities(p, m)["ok"]
        # exact rationals, dims <= 2
        for i in range(6):
            rng = random.Random(5000 + i)
            c = inst.random_coalgebra(Q, rng, max_dim=2)
            m = inst.random_comodule(c, rng, max_dim=2)
            p = inst.random_contramodule(c, rng, max_dim=2)
            rep = coalg.adjunction_certificate(p, m)
            assert rep["ok"], rep
            assert coalg.triangle_identities(p, m)["ok"]


def test_criterion_08_kleisli(linear_family):
    with Timer("8 kleisli comparison", 30.0):
        for c, m, p, rng in linear_family:
            x = GradedVect(F2, {0: rng.randint(1, 3)}, prefix="kx")
            rep = coalg.kleisli_certificate(x, c)
            assert rep["ok"], rep
            assert rep["dim_sections_of_cofree"] == \
                c.space.total_dim * x.total_dim


def test_criterion_09_finite_dimensional_collapse(linear_family):
    # This certifies the finite-dimensional degenerate regime where the
    # correspondence is an equivalence on the nose; it is not a statement
    # about the infinite-dimensional derived theory, which has no
    # desk-scale algorithm.
    with Timer("9 finite-dimensional collapse", 120.0):
        for c, m, p, rng in linear_family[:25]:
            rep = unit_counit_iso_report(p, m)
            assert all(rep.values()), rep
            br = coalg.bridge_certificate(m, p)
            assert br["ok"], br
        # structure bijectivity, exhaustively on a tiny instance
        c = inst.group_like_coalgebra(F2, 2)
        alg = coalg.dual_algebra(c)
        x = GradedVect(F2, {0: 2}, prefix="x")
        comodules = [
            coalg.VComodule(c, x, rho)
            for rho in all_linmaps(x, tensor(x, c.space))
            if coalg.validate_comodule(
                coalg.VComodule(c, x, rho))["ok"]
        ]
        contras = [
            coalg.VContramodule(c, x, theta)
            for theta in all_linmaps(hom_space(c.space, x), x)
            if coalg.validate_contramodule(
                coalg.VContramodule(c, x, theta))["ok"]
        ]
        assert len(comodules) == len(contras) > 0
        images = set()
        for m in comodules:
            pp = comodule_to_contramodule(m, alg)
            key = str([
                (k, pp.theta.block(k).rows)
                for k in pp.theta.dom.degrees()
            ])
            images.add(key)
            back = coalg.contramodule_to_comodule(pp, alg)
            assert sub_maps(back.rho, m.rho).is_zero()
        assert len(images) == len(contras)


def test_criterion_10_polynomial_coalgebra():
    with Timer("10 polynomial coalgebra", 30.0):
        for field in (Q, F2):
            for d in (0, 1):
                for n in range(0, 7):
                    pc = pcg.build(n, d, field)
                    assert coalg.validate_coalgebra(pc.underlying)["ok"]
        # acceptance iff the binomial relations, exercised both ways
        pc = pcg.build(2, 0, Q)
        v = GradedVect(Q, {0: 3})
        shift_rows = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        shift = LinMap(v, v, 0, {0: Matrix(Q, shift_rows)})
        good = family_from_first(pc, v, shift)
        with pytest.raises(Exception):
            comodule_from_family(
                pc, v, [identity_map(v), shift, zero_map(v, v, 0)]
            )  # shift^2 != 0 but the third member claims it is
        m = comodule_from_family(pc, v, good)
        assert coalg.validate(m)["ok"]
        # over the rationals: relations accepted iff divided-power form
        candidates = []
        for s in (0, 1):
            for t in (0, 1, 2):
                r1 = scale_map(Q.from_int(s), shift)
                r2 = scale_map(Q.div(t, 2), compose(r1, r1))
                candidates.append([identity_map(v), r1, r2])
        for ops in candidates:
            ok_rel, _ = family_relations_hold(pc, v, ops)
            ok_dp = divided_power_certificate(pc, v, ops)["ok"]
            assert ok_rel == ok_dp


def test_criterion_11_change_of_coalgebra(linear_family):
    with Timer("11 change of coalgebra", 120.0):
        for c, m, p, rng in linear_family[:20]:
            assert counit_contraction_iso(m).is_iso()
        # coinduction/induction adjointness along group-like inclusions
        for i in range(4):
            rng = random.Random(7000 + i)
            c = inst.group_like_coalgebra(F2, 2)
            chat = inst.group_like_coalgebra(F2, 3)
            f = LinMap(
                c.space, chat.space, 0,
                {0: Matrix(F2, [[1, 0], [0, 1], [0, 0]])},
            )
            assert coalg.is_coalgebra_morphism(f, c, chat)
            n = inst.random_comodule(c, rng, max_dim=2)
            m2 = inst.random_comodule(chat, rng, max_dim=2)
            q = inst.random_contramodule(c, rng, max_dim=2)
            p2 = inst.random_contramodule(chat, rng, max_dim=2)
            rep = change_adjunction_certificate(
                f, c, chat, n, m2, p2, q
            )
            assert rep["ok"], rep
        # the trifunctor probe must produce a complete, internally
        # consistent report over the family; nothing is asserted as a law
        reports = []
        for c, m, p, rng in linear_family[:15]:
            n = coalgebra_as_left_comodule(c)
            x = GradedVect(F2, {0: rng.randint(1, 2)}, prefix="tw")
            rep = coalg.trifunctor_probe(m, n, x)
            assert set(rep) >= {
                "dim_hom_of_cotensor", "dim_cohom_of_hom",
                "dims_equal", "candidate_descends",
            }
            if rep.get("candidate_iso"):
                assert rep["dims_equal"]
            reports.append(rep)
        assert len(reports) == 15


def test_criterion_12_determinism(tmp_path):
    with Timer("12 determinism", 60.0):
        manifest = {
            "declarations": [
                {"kind": "finset", "name": "C", "elements": ["1", "2"]},
                {"kind": "finset", "name": "X",
                 "elements": ["a", "b", "c"]},
                {"kind": "set_comodule", "name": "M", "carrier": "X",
                 "base": "C", "phi": {"a": "1", "b": "2", "c": "2"}},
                {"kind": "contra_product", "name": "t", "base": "C",
                 "fibers": {"1": ["p", "q"], "2": ["r"]}},
                {"kind": "group_like_coalgebra", "name": "G",
                 "field": "F2", "size": 2},
            ],
            "jobs": [
                {"id": "j1", "command": "unique-comonoid",
                 "args": {"base": "C"}},
                {"id": "j2", "command": "lr", "args": {"target": "M"}},
                {"id": "j3", "command": "l", "args": {"target": "t"}},
                {"id": "j4", "command": "kleisli",
                 "args": {"coalgebra": "G", "dim": 2}},
                {"id": "j5", "command": "adjoint",
                 "args": {"random": {"count": 3, "max_dim": 2,
                                     "field": "F2"}}},
                {"id": "j6", "command": "enumerate",
                 "args": {"carrier": 2, "base": 2}},
            ],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code = cli.main(
                ["run", str(path), "--seed", "33", "--oracle",
                 "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
