"""Batch front-end.

``cocontra run manifest.json`` executes a declared job list and writes a
machine-readable report; every other subcommand wraps a single operation
over declaration files and goes through the same engine, so its output is
a one-job report.

Every job ends as a report entry: a bad argument, an invalid budget, an
exceeded budget or an internal exception in one job becomes that job's
``error`` entry and the other jobs still run.

Exit codes: 0 when every job passes, 1 when any job fails, 2 when any job
errors or the manifest does not parse (unknown commands and duplicate job
ids included).  Reports are deterministic: identical manifests and seeds
produce byte-identical report files (wall-clock timing is only included
under --timing, which breaks that guarantee and says so).
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from . import oracle, polycoalg, serialize, set_comodule, set_contramodule
from . import set_correspondence as set_corr
from . import coalg
from .coalg import instances as coalg_instances
from .errors import Budget, BudgetExceeded, CocontraError, ParseError
from .exactlin import GradedVect, field_from_name
from .finset import FinMap, FinSet
from .serialize import Environment, serialize_result
from .set_comodule import SetComodule
from .set_contramodule import ContraTable


REPORT_VERSION = "1"


def _pass(payload=None, counts=None):
    return {"status": "pass", "witnesses": [],
            "counts": counts or {}, "result": payload}


def _fail(witnesses, payload=None, counts=None):
    return {"status": "fail", "witnesses": witnesses,
            "counts": counts or {}, "result": payload}


def _from_report(rep: dict, payload=None, counts=None):
    """Adapt an internal certificate dict: its failures become witnesses."""
    witnesses = rep.get("failures") or []
    if rep.get("witness"):
        witnesses = witnesses + [rep["witness"]]
    counts = counts or {}
    counts.update(
        {
            k: v
            for k, v in rep.items()
            if isinstance(v, (int, bool)) and k not in ("ok",)
        }
    )
    if rep.get("ok", not witnesses):
        return _pass(payload if payload is not None else rep, counts)
    return _fail([serialize_result(w) for w in witnesses],
                 payload if payload is not None else rep, counts)


# --- job runners (one per command) --------------------------------------------


def _job_check(env, args, ctx):
    target = env.get(args["target"])
    if isinstance(target, ContraTable):
        t = set_contramodule.to_extensional(target, ctx["budget"])
        return _from_report(set_contramodule.validate(t, ctx["budget"]))
    if isinstance(target, SetComodule):
        degenerate = set_comodule.is_degenerate(target)
        return _pass({"degenerate": degenerate})
    if isinstance(target, polycoalg.PolyCoalgebra):
        return _from_report(coalg.validate(target.underlying))
    return _from_report(coalg.validate(target))


def _job_unique_comonoid(env, args, ctx):
    if "base" in args:
        base = env.get(args["base"])
    else:
        base = FinSet([f"c{i}" for i in range(args["size"])])
    rep = set_comodule.unique_comonoid_certificate(base, ctx["budget"])
    ok = rep["valid"] == 1 and rep["valid_is_diagonal"] and rep.get(
        "coassociative", False
    )
    counts = {"candidates": rep["candidates"], "valid": rep["valid"]}
    return _pass(rep, counts) if ok else _fail([rep], rep, counts)


def _job_r(env, args, ctx):
    target = env.get(args["target"])
    if isinstance(target, SetComodule):
        result = set_corr.R_set(target)
        return _pass(serialize_result(result),
                     {"sections": len(result.carrier)})
    out = coalg.functor_R(target)
    return _pass(serialize_result(out),
                 {"dim": out.space.total_dim})


def _job_l(env, args, ctx):
    target = env.get(args["target"])
    if isinstance(target, ContraTable):
        result = set_corr.L_set(target, ctx["budget"])
        payload = serialize_result(result)
        if ctx["oracle"] and target.fibers is not None:
            generic = set_corr.L_set(
                set_contramodule.to_extensional(target, ctx["budget"]),
                ctx["budget"],
            )
            fc = set_comodule.fibers(result)
            fg = set_comodule.fibers(generic)
            if {a: len(v) for a, v in fc.items()} != {
                a: len(v) for a, v in fg.items()
            }:
                return _fail(
                    [{"closed_form": serialize_result(result),
                      "coequalizer": serialize_result(generic)}]
                )
        return _pass(payload, {"carrier": len(result.carrier)})
    out = coalg.functor_L(target)
    return _pass(serialize_result(out), {"dim": out.space.total_dim})


def _job_lr(env, args, ctx):
    target = env.get(args["target"])
    if isinstance(target, SetComodule):
        q = set_corr.lr_explicit(target)
        agree = set_corr.lr_routes_agree(target)
        eps = set_corr.counit(target)
        payload = {
            "classes": {k: list(v) for k, v in sorted(q.classes.items())},
            "counit_bijective": eps.is_bijective(),
            "routes_agree": agree,
        }
        if not agree:
            return _fail([payload], payload)
        return _pass(payload, {"classes": len(q.classes)})
    rdata = coalg.functor_R_data(target)
    lr = coalg.functor_L(rdata.contramodule)
    rep = coalg.unit_counit_iso_report(rdata.contramodule, target)
    payload = {"dim": lr.space.total_dim, **rep}
    if rep["counit_iso"] and rep["counit_is_comodule_map"]:
        return _pass(payload, {"dim": lr.space.total_dim})
    return _fail([payload], payload)


def _job_adjoint(env, args, ctx):
    if "random" in args:
        return _job_adjoint_random(env, args, ctx)
    p = env.get(args["contramodule"])
    m = env.get(args["comodule"])
    rep = coalg.adjunction_certificate(p, m)
    tri = coalg.triangle_identities(p, m)
    rep["triangles"] = tri
    if rep["ok"] and tri["ok"]:
        return _pass(rep, {"dim": rep["dim_comodule_side"]})
    return _fail(rep["failures"] or [tri], rep)


def _job_adjoint_random(env, args, ctx):
    spec = args["random"]
    if ctx["seed"] is None:
        raise CocontraError(
            "randomized instance generation requires an explicit --seed"
        )
    rng = random.Random(ctx["seed"])
    field = field_from_name(spec.get("field", "F2"))
    failures = []
    count = spec.get("count", 5)
    for i in range(count):
        c = coalg_instances.random_coalgebra(
            field, rng, spec.get("max_dim", 3)
        )
        p = coalg_instances.random_contramodule(
            c, rng, spec.get("max_dim", 3)
        )
        m = coalg_instances.random_comodule(
            c, rng, spec.get("max_dim", 3)
        )
        rep = coalg.adjunction_certificate(p, m)
        tri = coalg.triangle_identities(p, m)
        if not (rep["ok"] and tri["ok"]):
            failures.append({"instance": i, "certificate": rep,
                             "triangles": tri})
    counts = {"instances": count}
    if failures:
        return _fail(failures, counts=counts)
    return _pass({"instances": count}, counts)


def _job_decompose(env, args, ctx):
    target = env.get(args["target"])
    t = set_contramodule.to_extensional(target, ctx["budget"])
    family, pi, sigma = set_contramodule.decompose(t, args["basepoint"])
    prod = set_contramodule.product_contra(t.base, family)
    is_map = set_contramodule.is_contramodule_map(pi, t, prod,
                                                  ctx["budget"])
    payload = {
        "fibers": {a: list(v.elements) for a, v in sorted(family.items())},
        "pi": serialize_result(pi),
        "sigma": serialize_result(sigma),
        "pi_is_contramodule_map": is_map,
    }
    if not is_map:
        return _fail([payload], payload)
    return _pass(payload,
                 {"fiber_sizes": sorted(len(v) for v in family.values())})


def _job_enumerate(env, args, ctx):
    carrier = (
        env.get(args["carrier"]) if isinstance(args["carrier"], str)
        else FinSet([f"x{i}" for i in range(args["carrier"])])
    )
    base = (
        env.get(args["base"]) if isinstance(args["base"], str)
        else FinSet([f"c{i}" for i in range(args["base"])])
    )
    tables = set_contramodule.enumerate_all(carrier, base, ctx["budget"])
    counts = {"valid": len(tables)}
    payload = {"valid": len(tables)}
    if ctx["oracle"]:
        expected = set_contramodule.count_product_structures(carrier, base)
        counts["product_structures"] = expected
        payload["product_structures"] = expected
        if expected != len(tables):
            return _fail([payload], payload, counts)
    return _pass(payload, counts)


def _job_hom(env, args, ctx):
    a = env.get(args["source"])
    b = env.get(args["target"])
    if isinstance(a, SetComodule):
        sub = set_comodule.hom_over(a, b, ctx["budget"])
        payload = {"members": list(sub.members.elements)}
        if ctx["oracle"]:
            generic = set_comodule.hom_over_generic(a, b, ctx["budget"])
            if generic.members != sub.members:
                return _fail([{"direct": payload,
                               "generic": list(generic.members.elements)}])
        return _pass(payload, {"size": len(sub.members)})
    if isinstance(a, ContraTable):
        members = set_contramodule.contra_hom_members(a, b, ctx["budget"])
        payload = {"members": [serialize_result(f) for f in members]}
        if ctx["oracle"]:
            ae = set_contramodule.to_extensional(a, ctx["budget"])
            be = set_contramodule.to_extensional(b, ctx["budget"])
            odefn = set_contramodule.contra_hom_by_definition(
                ae, be, ctx["budget"]
            )
            if {str(sorted(f.table.items())) for f in members} != {
                str(sorted(f.table.items())) for f in odefn
            }:
                return _fail([{"fiberwise": len(members),
                               "definition": len(odefn)}])
        return _pass(payload, {"size": len(members)})
    if isinstance(a, coalg.VComodule):
        hobj = coalg.comodule_hom_object(a, b)
        ok = True
        if ctx["oracle"]:
            units, kernel = coalg.comodule_maps_direct(a, b)
            ok = coalg.same_degree_zero_subspace(hobj, units, kernel)
        payload = {"dims": {str(k): hobj.space.dim(k)
                            for k in hobj.space.degrees()}}
        if not ok:
            return _fail([payload], payload)
        return _pass(payload, {"dim": hobj.space.total_dim})
    hobj = coalg.contra_hom_object(a, b)
    ok = True
    if ctx["oracle"]:
        units, kernel = coalg.contra_maps_direct(a, b)
        ok = coalg.same_degree_zero_subspace(hobj, units, kernel)
    payload = {"dims": {str(k): hobj.space.dim(k)
                        for k in hobj.space.degrees()}}
    if not ok:
        return _fail([payload], payload)
    return _pass(payload, {"dim": hobj.space.total_dim})


def _job_cotensor(env, args, ctx):
    m = env.get(args["left"])
    n = env.get(args["right"])
    sub = coalg.cotensor(m, n)
    payload = {"dims": {str(k): sub.space.dim(k)
                        for k in sub.space.degrees()}}
    return _pass(payload, {"dim": sub.space.total_dim})


def _job_cohom(env, args, ctx):
    m = env.get(args["comodule"])
    p = env.get(args["contramodule"])
    quot = coalg.cohom(m, p)
    payload = {"dims": {str(k): quot.space.dim(k)
                        for k in quot.space.degrees()}}
    return _pass(payload, {"dim": quot.space.total_dim})


def _job_restrict(env, args, ctx):
    along = env.get(args["along"])
    target = env.get(args["target"])
    if isinstance(along, FinMap):
        if isinstance(target, SetComodule):
            out = set_comodule.restrict_along(along, target)
        else:
            out = set_contramodule.restrict_contra(along, target)
        return _pass(serialize_result(out))
    c = _coalg(env, args["dom_coalgebra"])
    chat = _coalg(env, args["cod_coalgebra"])
    if isinstance(target, coalg.VComodule):
        out = coalg.restrict_comodule(along, c, chat, target)
    else:
        out = coalg.restrict_contramodule(along, c, chat, target)
    return _pass(serialize_result(out))


def _coalg(env, name):
    obj = env.get(name)
    if isinstance(obj, polycoalg.PolyCoalgebra):
        return obj.underlying
    return obj


def _job_induce(env, args, ctx):
    along = env.get(args["along"])
    target = env.get(args["target"])
    if isinstance(along, FinMap):
        if isinstance(target, SetComodule):
            out = set_comodule.induce_along(along, target)
        else:
            out = set_contramodule.induce_contra(along, target)
        return _pass(serialize_result(out))
    c = _coalg(env, args["dom_coalgebra"])
    chat = _coalg(env, args["cod_coalgebra"])
    if isinstance(target, coalg.VComodule):
        out = coalg.induce_comodule(along, c, chat, target)
    else:
        out = coalg.coinduce_contramodule(along, c, chat, target)
    return _pass(serialize_result(out))


def _job_induction_adjunction(env, args, ctx):
    f = env.get(args["along"])
    rep = set_contramodule.induction_adjunction_certificate(
        f, args.get("fiber_bound", 2), ctx["budget"]
    )
    return _from_report(rep)


def _job_kleisli(env, args, ctx):
    c = _coalg(env, args["coalgebra"])
    if "on" in args:
        x = env.get(args["on"])
    else:
        x = GradedVect(c.space.field, {0: args.get("dim", 1)}, prefix="x")
    rep = coalg.kleisli_certificate(x, c)
    return _from_report(rep)


def _job_bridge(env, args, ctx):
    c = _coalg(env, args["coalgebra"])
    alg = coalg.dual_algebra(c)
    payload = {"dual_algebra_dims": {str(k): alg.space.dim(k)
                                     for k in alg.space.degrees()}}
    if "comodule" in args and "contramodule" in args:
        m = env.get(args["comodule"])
        p = env.get(args["contramodule"])
        rep = coalg.bridge_certificate(m, p)
        payload.update(rep)
        if not rep["ok"]:
            return _fail([rep], payload)
    return _pass(payload)


def _job_probe(env, args, ctx):
    m = env.get(args["comodule"])
    n = env.get(args["left_comodule"])
    x = env.get(args["space"])
    rep = coalg.trifunctor_probe(m, n, x)
    # exploratory: producing an internally consistent report is the job
    return _pass(rep, {"dims_equal": rep["dims_equal"]})


def _job_demo_noncocontinuous(env, args, ctx):
    if "base" in args:
        base = env.get(args["base"])
    else:
        base = FinSet([f"c{i}" for i in range(args.get("c_size", 2))])
    rep = set_contramodule.noncocontinuity_demo(base)
    sizes = (
        rep["quotient_after_function_space"],
        rep["function_space_of_quotient"],
    )
    return _pass(rep, {"sizes": list(sizes)})


def _job_equivalence(env, args, ctx):
    rep = set_corr.equivalence_certificate(
        max_carrier=args.get("max_carrier", 4),
        max_base=args.get("max_base", 2),
        max_fiber=args.get("max_fiber", 3),
        naturality_carrier=args.get("naturality_carrier", 3),
        budget=ctx["budget"],
    )
    return _from_report(rep)


def _job_universal_property(env, args, ctx):
    kind = args["which"]
    data = {k: env.get(v) for k, v in args["data"].items()}
    rep = oracle.universal_property_check(kind, data, ctx["budget"])
    return _from_report(rep)


JOB_RUNNERS = {
    "check": _job_check,
    "unique-comonoid": _job_unique_comonoid,
    "r": _job_r,
    "l": _job_l,
    "lr": _job_lr,
    "adjoint": _job_adjoint,
    "decompose": _job_decompose,
    "enumerate": _job_enumerate,
    "hom": _job_hom,
    "cotensor": _job_cotensor,
    "cohom": _job_cohom,
    "restrict": _job_restrict,
    "induce": _job_induce,
    "induction-adjunction": _job_induction_adjunction,
    "kleisli": _job_kleisli,
    "bridge": _job_bridge,
    "probe": _job_probe,
    "demo-noncocontinuous": _job_demo_noncocontinuous,
    "equivalence": _job_equivalence,
    "universal-property": _job_universal_property,
}


def run_job(env: Environment, job: dict, ctx: dict) -> dict:
    """Run one job; whatever it raises becomes its ``error`` entry.

    ``ctx["budget"]`` is the default count, an int; a job's own
    ``budget`` overrides it, and every enumeration of the job is charged
    against the resulting :class:`Budget`.
    """
    command = job.get("command")
    start = time.monotonic()
    try:
        jctx = dict(ctx, budget=Budget(job.get("budget", ctx["budget"])))
        entry = JOB_RUNNERS[command](env, job.get("args", {}), jctx)
    except BudgetExceeded as exc:
        entry = {
            "status": "error",
            "witnesses": [{"error": "budget-exceeded",
                           "projected": exc.projected}],
            "counts": {},
            "result": str(exc),
        }
    except Exception as exc:
        entry = {
            "status": "error",
            "witnesses": [{"error": type(exc).__name__,
                           "message": str(exc)}],
            "counts": {},
            "result": None,
        }
    elapsed = time.monotonic() - start
    entry["id"] = job.get("id", command)
    entry["command"] = command
    entry["timing"] = round(elapsed, 6) if ctx["timing"] else None
    return entry


def run_manifest(doc: dict, ctx: dict) -> dict:
    env = serialize.parse_bundle(doc)
    jobs = doc.get("jobs", [])
    ids = [job.get("id", job.get("command")) for job in jobs]
    if len(set(ids)) != len(ids):
        raise ParseError("job ids must be unique")
    for job_id, job in zip(ids, jobs):
        if job.get("command") not in JOB_RUNNERS:
            raise ParseError(f"unknown command {job.get('command')!r}",
                             where=job_id)
    entries = [run_job(env, job, ctx) for job in jobs]
    entries.sort(key=lambda entry: entry["id"])
    return {
        "version": REPORT_VERSION,
        "seed": ctx["seed"],
        "jobs": entries,
    }


def write_report(report: dict, out_path):
    data = serialize.canonical_bytes(report)
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


def exit_code_for(report: dict) -> int:
    statuses = {entry["status"] for entry in report["jobs"]}
    if "error" in statuses:
        return 2
    if "fail" in statuses:
        return 1
    return 0


def _base_context(ns) -> dict:
    return {
        "budget": ns.budget,
        "oracle": ns.oracle,
        "seed": ns.seed,
        "timing": ns.timing,
    }


def _load_env_files(paths):
    doc = {"declarations": []}
    mains = []
    for path in paths:
        sub = serialize.load_document(path)
        if "kind" in sub:
            doc["declarations"].extend(sub.get("declarations", []))
            doc["declarations"].append(sub)
            mains.append(sub["name"])
        else:
            doc["declarations"].extend(sub.get("declarations", []))
            if "main" in sub:
                mains.append(sub["main"])
            elif sub.get("declarations"):
                mains.append(sub["declarations"][-1]["name"])
    return doc, mains


_SINGLE_ARG_SPECS = {
    "check": (1, lambda m: {"target": m[0]}),
    "r": (1, lambda m: {"target": m[0]}),
    "l": (1, lambda m: {"target": m[0]}),
    "lr": (1, lambda m: {"target": m[0]}),
    "adjoint": (2, lambda m: {"contramodule": m[0], "comodule": m[1]}),
    "hom": (2, lambda m: {"source": m[0], "target": m[1]}),
    "cotensor": (2, lambda m: {"left": m[0], "right": m[1]}),
    "cohom": (2, lambda m: {"comodule": m[0], "contramodule": m[1]}),
    "probe": (3, lambda m: {"comodule": m[0], "left_comodule": m[1],
                            "space": m[2]}),
    "kleisli": (1, lambda m: {"coalgebra": m[0]}),
    "bridge": (1, lambda m: {"coalgebra": m[0]}),
}


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="report file path")
    common.add_argument("--budget", type=int, default=1_000_000)
    common.add_argument("--oracle", action="store_true",
                        help="enable independent cross-checks")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized instance generation")
    common.add_argument("--timing", action="store_true",
                        help="include wall-clock timing (breaks "
                             "byte-reproducibility)")

    parser = argparse.ArgumentParser(
        prog="cocontra",
        description="finite comonoid/comodule/contramodule engine",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run_p = sub.add_parser("run", parents=[common],
                           help="execute a manifest")
    run_p.add_argument("manifest")

    for name, (nargs, _) in _SINGLE_ARG_SPECS.items():
        p = sub.add_parser(name, parents=[common])
        p.add_argument("files", nargs=nargs)
        if name == "kleisli":
            p.add_argument("--dim", type=int, default=1)
        if name == "bridge":
            p.add_argument("--comodule", default=None)
            p.add_argument("--contramodule", default=None)

    dec_p = sub.add_parser("decompose", parents=[common])
    dec_p.add_argument("files", nargs=1)
    dec_p.add_argument("--basepoint", required=True)

    enum_p = sub.add_parser("enumerate", parents=[common])
    enum_p.add_argument("--carrier", type=int, required=True)
    enum_p.add_argument("--base", type=int, required=True)

    demo_p = sub.add_parser("demo-noncocontinuous", parents=[common])
    demo_p.add_argument("--c-size", type=int, default=2)

    uniq_p = sub.add_parser("unique-comonoid", parents=[common])
    uniq_p.add_argument("--size", type=int, required=True)

    equiv_p = sub.add_parser("equivalence", parents=[common])
    equiv_p.add_argument("--max-carrier", type=int, default=4)
    equiv_p.add_argument("--max-base", type=int, default=2)
    equiv_p.add_argument("--max-fiber", type=int, default=3)

    ind_p = sub.add_parser("induce", parents=[common])
    ind_p.add_argument("files", nargs=2, help="morphism file, object file")
    res_p = sub.add_parser("restrict", parents=[common])
    res_p.add_argument("files", nargs=2, help="morphism file, object file")
    ia_p = sub.add_parser("induction-adjunction", parents=[common])
    ia_p.add_argument("files", nargs=1, help="base-map file")
    ia_p.add_argument("--fiber-bound", type=int, default=2)

    ns = parser.parse_args(argv)
    ctx = _base_context(ns)
    try:
        if ns.subcommand == "run":
            doc = serialize.load_document(ns.manifest)
        else:
            doc = _assemble_single(ns)
        report = run_manifest(doc, ctx)
    except ParseError as exc:
        sys.stderr.write(
            f"parse error at {exc.where}: {exc}\n"
            if exc.where
            else f"parse error: {exc}\n"
        )
        return 2
    write_report(report, ns.out)
    return exit_code_for(report)


def _assemble_single(ns):
    name = ns.subcommand
    if name == "enumerate":
        doc = {"declarations": [], "jobs": [
            {"id": "enumerate", "command": "enumerate",
             "args": {"carrier": ns.carrier, "base": ns.base}}
        ]}
        return doc
    if name == "demo-noncocontinuous":
        doc = {"declarations": [], "jobs": [
            {"id": "demo", "command": "demo-noncocontinuous",
             "args": {"c_size": ns.c_size}}
        ]}
        return doc
    if name == "unique-comonoid":
        doc = {"declarations": [], "jobs": [
            {"id": "unique-comonoid", "command": "unique-comonoid",
             "args": {"size": ns.size}}
        ]}
        return doc
    if name == "equivalence":
        doc = {"declarations": [], "jobs": [
            {"id": "equivalence", "command": "equivalence",
             "args": {"max_carrier": ns.max_carrier,
                      "max_base": ns.max_base,
                      "max_fiber": ns.max_fiber}}
        ]}
        return doc
    if name == "decompose":
        doc, mains = _load_env_files(ns.files)
        doc["jobs"] = [{"id": "decompose", "command": "decompose",
                        "args": {"target": mains[0],
                                 "basepoint": ns.basepoint}}]
        return doc
    if name == "induction-adjunction":
        doc, mains = _load_env_files(ns.files)
        doc["jobs"] = [{"id": "induction-adjunction",
                        "command": "induction-adjunction",
                        "args": {"along": mains[0],
                                 "fiber_bound": ns.fiber_bound}}]
        return doc
    if name in ("induce", "restrict"):
        doc, mains = _load_env_files(ns.files)
        doc["jobs"] = [{"id": name, "command": name,
                        "args": {"along": mains[0], "target": mains[1]}}]
        return doc
    nargs, build = _SINGLE_ARG_SPECS[name]
    doc, mains = _load_env_files(ns.files)
    args = build(mains)
    if name == "kleisli":
        args["dim"] = ns.dim
    if name == "bridge":
        if ns.comodule:
            args["comodule"] = ns.comodule
        if ns.contramodule:
            args["contramodule"] = ns.contramodule
    doc["jobs"] = [{"id": name, "command": name, "args": args}]
    return doc


if __name__ == "__main__":
    sys.exit(main())
