"""Batch front-end.

``cocontra run manifest.json`` executes a declared job list and writes a
machine-readable report; every other subcommand wraps a single operation
over declaration files and goes through the same engine, so its output is
a one-job report.  One table, ``COMMANDS``, declares each command's
arguments: it builds the subcommands, assembles their one-job manifests
and checks every job's arguments before the job runs.

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
from typing import Callable, NamedTuple

from . import oracle, serialize, set_comodule, set_contramodule
from . import set_correspondence as set_corr
from . import coalg, errors
from .coalg import instances as coalg_instances
from .coalg.core import require_coalgebra
from .errors import (DEFAULT_BUDGET, BudgetExceeded, CoalgebraMismatch,
                     CocontraError, ParseError)
from .exactlin import GradedVect, dual, field_from_name
from .finset import FinMap, FinSet
from .serialize import (COALGEBRA, COMODULE, CONTRAMODULE, FINSET,
                        GRADED_SPACE, SET_COMODULE, SET_CONTRAMODULE,
                        Environment, serialize_result)
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


def _dims(space) -> dict:
    return {str(k): space.dim(k) for k in space.degrees()}


# --- job runners (one per command) --------------------------------------------
#
# A runner's arguments are checked against its ``COMMANDS`` entry: names are
# resolved to their objects and absent options hold their defaults.


def _job_check(env, args, ctx):
    target = args["target"]
    if isinstance(target, ContraTable):
        t = set_contramodule.to_extensional(target)
        return _from_report(set_contramodule.validate(t))
    if isinstance(target, SetComodule):
        degenerate = set_comodule.is_degenerate(target)
        return _pass({"degenerate": degenerate})
    return _from_report(coalg.validate(target))


def _job_unique_comonoid(env, args, ctx):
    base = args["base"]
    if base is None:
        if args["size"] is None:
            raise _missing("unique-comonoid", "size", "unless 'base' is given")
        base = FinSet([f"c{i}" for i in range(args["size"])])
    rep = set_comodule.unique_comonoid_certificate(base)
    ok = rep["valid"] == 1 and rep["valid_is_diagonal"] and rep.get(
        "coassociative", False
    )
    counts = {"candidates": rep["candidates"], "valid": rep["valid"]}
    return _pass(rep, counts) if ok else _fail([rep], rep, counts)


def _job_r(env, args, ctx):
    target = args["target"]
    if isinstance(target, SetComodule):
        result = set_corr.R_set(target)
        return _pass(serialize_result(result),
                     {"sections": len(result.carrier)})
    out = coalg.functor_R(target)
    return _pass(serialize_result(out),
                 {"dim": out.space.total_dim})


def _job_l(env, args, ctx):
    target = args["target"]
    if isinstance(target, ContraTable):
        result = set_corr.L_set(target)
        payload = serialize_result(result)
        if ctx["oracle"] and target.fibers is not None:
            generic = set_corr.L_set(set_contramodule.to_extensional(target))
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
    target = args["target"]
    if isinstance(target, SetComodule):
        payload = set_corr.lr_report(target)
        if not payload["routes_agree"]:
            return _fail([payload], payload)
        return _pass(payload, {"classes": len(payload["classes"])})
    lr, rep = coalg.round_trip_report(target)
    payload = {"dim": lr.space.total_dim, **rep}
    if rep["counit_iso"] and rep["counit_is_comodule_map"]:
        return _pass(payload, {"dim": lr.space.total_dim})
    return _fail([payload], payload)


def _job_adjoint(env, args, ctx):
    if args["random"] is not None:
        return _job_adjoint_random(args["random"], ctx)
    p, m = args["contramodule"], args["comodule"]
    for name, obj in (("contramodule", p), ("comodule", m)):
        if obj is None:
            raise _missing("adjoint", name, "unless 'random' is given")
    rep = coalg.adjunction_certificate(p, m)
    tri = rep["triangles"]
    if rep["ok"] and tri["ok"]:
        return _pass(rep, {"dim": rep["dim_comodule_side"]})
    return _fail(rep["failures"] or [tri], rep)


def _random_spec(spec) -> tuple:
    """The field, count and max_dim of an ``adjoint`` ``random`` object."""
    spec = {"field": "F2", "count": 5, "max_dim": 3, **spec}
    for key, value in spec.items():
        if key not in ("field", "count", "max_dim"):
            why = "is unknown (it takes field, count, max_dim)"
        elif key != "field":
            if type(value) is int and value > 0:
                continue
            why = f"expects a positive int, got {value!r}"
        else:
            try:
                field = field_from_name(str(value))
                continue
            except ValueError:
                why = f"expects a field name such as 'F2', got {value!r}"
        raise ParseError(f"adjoint: argument 'random' key {key!r} {why}")
    return field, spec["count"], spec["max_dim"]


def _job_adjoint_random(spec, ctx):
    field, count, max_dim = _random_spec(spec)
    if ctx["seed"] is None:
        raise CocontraError(
            "randomized instance generation requires an explicit --seed"
        )
    rng = random.Random(ctx["seed"])
    failures = []
    for i in range(count):
        c = coalg_instances.random_coalgebra(field, rng, max_dim)
        p = coalg_instances.random_contramodule(c, rng, max_dim)
        m = coalg_instances.random_comodule(c, rng, max_dim)
        rep = coalg.adjunction_certificate(p, m)
        tri = rep.pop("triangles")
        if not (rep["ok"] and tri["ok"]):
            failures.append({"instance": i, "certificate": rep,
                             "triangles": tri})
    counts = {"instances": count}
    if failures:
        return _fail(failures, counts=counts)
    return _pass({"instances": count}, counts)


def _job_decompose(env, args, ctx):
    t = set_contramodule.to_extensional(args["target"])
    family, pi, sigma = set_contramodule.decompose(t, args["basepoint"])
    prod = set_contramodule.product_contra(t.base, family)
    is_map = set_contramodule.is_contramodule_map(pi, t, prod)
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
    carrier, base = args["carrier"], args["base"]
    if isinstance(carrier, int):
        carrier = FinSet([f"x{i}" for i in range(carrier)])
    if isinstance(base, int):
        base = FinSet([f"c{i}" for i in range(base)])
    tables = set_contramodule.enumerate_all(carrier, base)
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
    a, b = args["source"], args["target"]
    if type(a) is not type(b):
        raise _unfit("hom", "source", "target",
                     f"must be modules of one kind, got a "
                     f"{type(a).__name__} and a {type(b).__name__}")
    if isinstance(a, SetComodule):
        sub = set_comodule.hom_over(a, b)
        payload = {"members": list(sub.members.elements)}
        if ctx["oracle"]:
            generic = set_comodule.hom_over_generic(a, b)
            if generic.members != sub.members:
                return _fail([{"direct": payload,
                               "generic": list(generic.members.elements)}])
        return _pass(payload, {"size": len(sub.members)})
    if isinstance(a, ContraTable):
        members = set_contramodule.contra_hom_members(a, b)
        payload = {"members": [serialize_result(f) for f in members]}
        if ctx["oracle"]:
            ae = set_contramodule.to_extensional(a)
            be = set_contramodule.to_extensional(b)
            odefn = set_contramodule.contra_hom_by_definition(ae, be)
            if {str(sorted(f.table.items())) for f in members} != {
                str(sorted(f.table.items())) for f in odefn
            }:
                return _fail([{"fiberwise": len(members),
                               "definition": len(odefn)}])
        return _pass(payload, {"size": len(members)})
    if isinstance(a, coalg.VComodule):
        hom_object = coalg.comodule_hom_object
        maps_direct = coalg.comodule_maps_direct
    else:
        hom_object = coalg.contra_hom_object
        maps_direct = coalg.contra_maps_direct
    hobj = hom_object(a, b)
    ok = True
    if ctx["oracle"]:
        units, kernel = maps_direct(a, b)
        ok = coalg.same_degree_zero_subspace(hobj, units, kernel)
    payload = {"dims": _dims(hobj.space)}
    if not ok:
        return _fail([payload], payload)
    return _pass(payload, {"dim": hobj.space.total_dim})


def _require_sides(command, args, sides: dict):
    """Each named comodule argument must have the given side."""
    got = {name: args[name].side for name in sides}
    if got != sides:
        first, second = sides
        raise _unfit(command, first, second,
                     f"must be a {sides[first]} and a {sides[second]} "
                     f"comodule, got a {got[first]} and a {got[second]} one")


def _job_cotensor(env, args, ctx):
    _require_sides("cotensor", args, {"left": "right", "right": "left"})
    sub = coalg.cotensor(args["left"], args["right"])
    payload = {"dims": _dims(sub.space)}
    return _pass(payload, {"dim": sub.space.total_dim})


def _job_cohom(env, args, ctx):
    quot = coalg.cohom(args["comodule"], args["contramodule"])
    payload = {"dims": _dims(quot.space)}
    return _pass(payload, {"dim": quot.space.total_dim})


def _change_of_base(command, args, set_side, linear_side):
    """``restrict`` and ``induce``: the (comodule, contramodule) functions of
    the set side apply along a map of bases, those of the linear side along
    a coalgebra morphism, which needs its domain and codomain named."""
    along, target = args["along"], args["target"]
    comodule = isinstance(target, (SetComodule, coalg.VComodule))
    set_target = isinstance(target, (SetComodule, ContraTable))
    if isinstance(along, FinMap) != set_target:
        raise _unfit(command, "along", "target",
                     "do not fit: a finmap acts on set-side modules and a "
                     "linear map on linear ones, got "
                     f"{type(along).__name__} and {type(target).__name__}")
    if isinstance(along, FinMap):
        fn = set_side[0] if comodule else set_side[1]
        return _pass(serialize_result(fn(along, target)))
    for name in ("dom_coalgebra", "cod_coalgebra"):
        if args[name] is None:
            raise _missing(command, name, "when 'along' is a linear map")
    fn = linear_side[0] if comodule else linear_side[1]
    return _pass(serialize_result(
        fn(along, args["dom_coalgebra"], args["cod_coalgebra"], target)))


def _job_restrict(env, args, ctx):
    return _change_of_base(
        "restrict", args,
        (set_comodule.restrict_along, set_contramodule.restrict_contra),
        (coalg.restrict_comodule, coalg.restrict_contramodule),
    )


def _job_induce(env, args, ctx):
    return _change_of_base(
        "induce", args,
        (set_comodule.induce_along, set_contramodule.induce_contra),
        (coalg.induce_comodule, coalg.coinduce_contramodule),
    )


def _job_induction_adjunction(env, args, ctx):
    rep = set_contramodule.induction_adjunction_certificate(
        args["along"], args["fiber_bound"])
    return _from_report(rep)


def _job_kleisli(env, args, ctx):
    c, x = args["coalgebra"], args["on"]
    if x is None:
        x = GradedVect(c.space.field, {0: args["dim"]}, prefix="x")
    return _from_report(coalg.kleisli_certificate(x, c))


def _job_bridge(env, args, ctx):
    c, m, p = args["coalgebra"], args["comodule"], args["contramodule"]
    for name, partner in (("comodule", "contramodule"),
                          ("contramodule", "comodule")):
        if args[name] is None and args[partner] is not None:
            raise _missing("bridge", name, f"to go with {partner!r}")
    # with a comodule, bridge_certificate checks C (its dual_algebra)
    if m is None:
        require_coalgebra(c)
    elif m.coalgebra != c or p.coalgebra != c:
        raise CoalgebraMismatch("bridge: the comodule and contramodule "
                                "must live over 'coalgebra'")
    # the dual algebra's space is dual(C); bridge_certificate builds the
    # algebra itself
    payload = {"dual_algebra_dims": _dims(dual(c.space))}
    if m is not None:
        rep = coalg.bridge_certificate(m, p)
        payload.update(rep)
        if not rep["ok"]:
            return _fail([rep], payload)
    return _pass(payload)


def _job_probe(env, args, ctx):
    _require_sides("probe", args,
                   {"comodule": "right", "left_comodule": "left"})
    rep = coalg.trifunctor_probe(args["comodule"], args["left_comodule"],
                                 args["space"])
    # exploratory: producing an internally consistent report is the job
    return _pass(rep, {"dims_equal": rep["dims_equal"]})


def _job_demo_noncocontinuous(env, args, ctx):
    base = args["base"]
    if base is None:
        base = FinSet([f"c{i}" for i in range(args["c_size"])])
    rep = set_contramodule.noncocontinuity_demo(base)
    sizes = (
        rep["quotient_after_function_space"],
        rep["function_space_of_quotient"],
    )
    return _pass(rep, {"sizes": list(sizes)})


def _job_equivalence(env, args, ctx):
    rep = set_corr.equivalence_certificate(**args)
    return _from_report(rep)


# the declaration kind of each role a universal property reads from 'data'
UNIVERSAL_ROLES = {
    "equalizer": {"f": "finmap", "g": "finmap"},
    "coequalizer": {"f": "finmap", "g": "finmap"},
    "pullback": {"f": "finmap", "g": "finmap"},
    "product": {"a": "finset", "b": "finset"},
    "coproduct": {"a": "finset", "b": "finset"},
}


def _job_universal_property(env, args, ctx):
    which, given = args["which"], args["data"]
    roles = UNIVERSAL_ROLES.get(which)
    if roles is None:
        raise ParseError(f"universal-property: argument 'which' must be one "
                         f"of {', '.join(UNIVERSAL_ROLES)}, got {which!r}")
    takes = f"({which} takes {', '.join(roles)})"
    for role in given:
        if role not in roles:
            raise ParseError(f"universal-property: argument 'data' has an "
                             f"unknown role {role!r} {takes}")
    data = {}
    for role, kind in roles.items():
        if role not in given:
            raise ParseError(f"universal-property: argument 'data' lacks "
                             f"the role {role!r} {takes}")
        name = given[role]
        if not isinstance(name, str) or env.kinds.get(name) != kind:
            raise ParseError(f"universal-property: role {role!r} of "
                             f"argument 'data' expects the name of a {kind} "
                             f"declaration, got {name!r}")
        data[role] = env.objects[name]
    rep = oracle.universal_property_check(which, data)
    return _from_report(rep)


# --- the command table --------------------------------------------------------


REQUIRED = object()
# the command-line role of an argument: read from the next positional
# declaration file, or given as a --flag (optional or required)
FILE, FLAG, REQUIRED_FLAG = "file", "flag", "required flag"


class Arg(NamedTuple):
    """One argument of a command.

    A string naming a declaration of one of ``kinds`` is resolved to that
    declaration's object; otherwise the value must be a ``type``, and an
    int at least ``least``: every int argument is a count.  An absent
    argument takes ``default``, and ``REQUIRED`` refuses it.  ``cli`` is
    its role in the command's subcommand, if it has one.
    """

    kinds: tuple[str, ...] = ()
    type: type | None = None
    default: object = REQUIRED
    cli: str | None = None
    least: int = 0

    def expects(self) -> str:
        want = [self.type.__name__] if self.type else []
        if self.kinds:
            want.append(f"the name of a {' / '.join(self.kinds)} declaration")
        return " or ".join(want)

    def resolve(self, env: Environment, command: str, name: str, value):
        if isinstance(value, str) and self.kinds:
            if env.kinds.get(value) in self.kinds:
                return env.objects[value]
        elif isinstance(value, self.type or ()) and type(value) is not bool:
            if isinstance(value, int) and value < self.least:
                raise ParseError(f"{command}: argument {name!r} must be at "
                                 f"least {self.least}, got {value}")
            return value
        got = repr(value)
        if isinstance(value, str) and self.kinds:
            got += f" ({env.kinds.get(value, 'not declared')})"
        raise ParseError(f"{command}: argument {name!r} expects "
                         f"{self.expects()}, got {got}")


class Command(NamedTuple):
    """A command's runner and arguments.  It has a subcommand when some
    argument has a command-line role; its job id there is ``job_id``, or
    else the command's name."""

    run: Callable
    args: dict[str, Arg]
    job_id: str | None = None

    def with_role(self, *roles) -> list[str]:
        return [name for name, arg in self.args.items() if arg.cli in roles]


MODULES = SET_COMODULE + SET_CONTRAMODULE + COMODULE + CONTRAMODULE

_COMODULE_TARGET = {"target": Arg(SET_COMODULE + COMODULE, cli=FILE)}
_ALONG = {
    "along": Arg(("finmap", "linmap", "coalgebra_morphism"), cli=FILE),
    "target": Arg(MODULES, cli=FILE),
    "dom_coalgebra": Arg(COALGEBRA, default=None),
    "cod_coalgebra": Arg(COALGEBRA, default=None),
}

COMMANDS = {
    "check": Command(_job_check, {
        "target": Arg(MODULES + COALGEBRA, cli=FILE)}),
    "unique-comonoid": Command(_job_unique_comonoid, {
        "base": Arg(FINSET, default=None),
        "size": Arg(type=int, default=None, cli=REQUIRED_FLAG)}),
    "r": Command(_job_r, _COMODULE_TARGET),
    "l": Command(_job_l, {
        "target": Arg(SET_CONTRAMODULE + CONTRAMODULE, cli=FILE)}),
    "lr": Command(_job_lr, _COMODULE_TARGET),
    "adjoint": Command(_job_adjoint, {
        "contramodule": Arg(CONTRAMODULE, default=None, cli=FILE),
        "comodule": Arg(COMODULE, default=None, cli=FILE),
        "random": Arg(type=dict, default=None)}),
    "decompose": Command(_job_decompose, {
        "target": Arg(SET_CONTRAMODULE, cli=FILE),
        "basepoint": Arg(type=str, cli=REQUIRED_FLAG)}),
    "enumerate": Command(_job_enumerate, {
        "carrier": Arg(FINSET, int, cli=REQUIRED_FLAG),
        "base": Arg(FINSET, int, cli=REQUIRED_FLAG)}),
    "hom": Command(_job_hom, {
        "source": Arg(MODULES, cli=FILE), "target": Arg(MODULES, cli=FILE)}),
    "cotensor": Command(_job_cotensor, {
        "left": Arg(COMODULE, cli=FILE), "right": Arg(COMODULE, cli=FILE)}),
    "cohom": Command(_job_cohom, {
        "comodule": Arg(COMODULE, cli=FILE),
        "contramodule": Arg(CONTRAMODULE, cli=FILE)}),
    "restrict": Command(_job_restrict, _ALONG),
    "induce": Command(_job_induce, _ALONG),
    "induction-adjunction": Command(_job_induction_adjunction, {
        "along": Arg(("finmap",), cli=FILE),
        "fiber_bound": Arg(type=int, default=2, cli=FLAG, least=1)}),
    "kleisli": Command(_job_kleisli, {
        "coalgebra": Arg(COALGEBRA, cli=FILE),
        "on": Arg(GRADED_SPACE, default=None),
        "dim": Arg(type=int, default=1, cli=FLAG)}),
    "bridge": Command(_job_bridge, {
        "coalgebra": Arg(COALGEBRA, cli=FILE),
        "comodule": Arg(COMODULE, default=None, cli=FLAG),
        "contramodule": Arg(CONTRAMODULE, default=None, cli=FLAG)}),
    "probe": Command(_job_probe, {
        "comodule": Arg(COMODULE, cli=FILE),
        "left_comodule": Arg(COMODULE, cli=FILE),
        "space": Arg(GRADED_SPACE, cli=FILE)}),
    "demo-noncocontinuous": Command(_job_demo_noncocontinuous, {
        "base": Arg(FINSET, default=None),
        "c_size": Arg(type=int, default=2, cli=FLAG)}, job_id="demo"),
    "equivalence": Command(_job_equivalence, {
        "max_carrier": Arg(type=int, default=4, cli=FLAG),
        "max_base": Arg(type=int, default=2, cli=FLAG),
        "max_fiber": Arg(type=int, default=3, cli=FLAG),
        "naturality_carrier": Arg(type=int, default=3)}),
    "universal-property": Command(_job_universal_property, {
        "which": Arg(type=str), "data": Arg(type=dict)}),
}


def _missing(command: str, name: str, reason: str = "") -> ParseError:
    expects = COMMANDS[command].args[name].expects()
    return ParseError(
        f"{command}: missing argument {name!r} ({expects}) {reason}".rstrip())


def _unfit(command: str, first: str, second: str, why: str) -> ParseError:
    """Two arguments that are each valid but do not fit together."""
    return ParseError(f"{command}: arguments {first!r} and {second!r} {why}")


def _check_args(env: Environment, command: str, given) -> dict:
    """``given`` checked against the command's table entry: names resolved
    to objects, absent options defaulted; any other argument, a missing
    one or a value of the wrong kind or type raises ``ParseError``."""
    spec = COMMANDS[command].args
    if not isinstance(given, dict):
        raise ParseError(f"{command}: 'args' must be an object, "
                         f"got {given!r}")
    for name in given:
        if name not in spec:
            raise ParseError(f"{command}: unknown argument {name!r} "
                             f"(it takes {', '.join(spec)})")
    args = {}
    for name, arg in spec.items():
        if name in given:
            args[name] = arg.resolve(env, command, name, given[name])
        elif arg.default is REQUIRED:
            raise _missing(command, name)
        else:
            args[name] = arg.default
    return args


def run_job(env: Environment, job: dict, ctx: dict) -> dict:
    """Run one job; whatever it raises becomes its ``error`` entry.

    ``ctx["budget"]`` is the default count, an int; a job's own
    ``budget`` overrides it.  The job runs in one job context
    (:func:`errors.job`), which goes with it however it ends: each
    enumeration it runs, oracles included, is charged against that
    count, and each table its calls share is built once.
    """
    command = job.get("command")
    start = time.monotonic()
    try:
        with errors.job(job.get("budget", ctx["budget"])):
            args = _check_args(env, command, job.get("args", {}))
            entry = COMMANDS[command].run(env, args, ctx)
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
    jobs = serialize.objects_of(doc, "jobs")
    ids = []
    for job in jobs:
        command = job.get("command")
        job_id = job.get("id", command)
        for field, value in (("command", command), ("id", job_id)):
            if not isinstance(value, str):
                raise ParseError(f"a job's {field!r} must be a string, got "
                                 f"{value!r:.80}")
        if command not in COMMANDS:
            raise ParseError(f"unknown command {command!r}", where=job_id)
        ids.append(job_id)
    if len(set(ids)) != len(ids):
        raise ParseError("job ids must be unique")
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
        # the canonical UTF-8 bytes, whatever the locale's encoding
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def exit_code_for(report: dict) -> int:
    statuses = {entry["status"] for entry in report["jobs"]}
    if "error" in statuses:
        return 2
    if "fail" in statuses:
        return 1
    return 0


def _load_env_files(paths):
    doc = {"declarations": []}
    mains = []
    for path in paths:
        sub = serialize.load_document(path)
        decls = serialize.objects_of(sub, "declarations", where=path)
        doc["declarations"].extend(decls)
        if "kind" in sub:
            doc["declarations"].append(sub)
            mains.append(sub.get("name"))
        elif "main" in sub:
            mains.append(sub["main"])
        elif decls:
            mains.append(decls[-1].get("name"))
    return doc, mains


def _single_command_manifest(ns) -> dict:
    """The one-job manifest of a subcommand: its positional files supply
    the subjects of its file arguments, in order, and its flags (given or
    defaulted) their options."""
    command = COMMANDS[ns.subcommand]
    doc, mains = _load_env_files(getattr(ns, "files", ()))
    args = dict(zip(command.with_role(FILE), mains))
    for name in command.with_role(FLAG, REQUIRED_FLAG):
        if getattr(ns, name) is not None:
            args[name] = getattr(ns, name)
    doc["jobs"] = [{"id": command.job_id or ns.subcommand,
                    "command": ns.subcommand, "args": args}]
    return doc


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="report file path")
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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

    for name, command in COMMANDS.items():
        files = command.with_role(FILE)
        flags = command.with_role(FLAG, REQUIRED_FLAG)
        if not files and not flags:
            continue
        p = sub.add_parser(name, parents=[common])
        if files:
            p.add_argument("files", nargs=len(files),
                           help="declaration files of " + ", ".join(files))
        for flag in flags:
            arg = command.args[flag]
            p.add_argument("--" + flag.replace("_", "-"),
                           type=arg.type or str,
                           required=arg.cli == REQUIRED_FLAG,
                           default=arg.default)

    ns = parser.parse_args(argv)
    ctx = {"budget": ns.budget, "oracle": ns.oracle, "seed": ns.seed,
           "timing": ns.timing}
    try:
        if ns.subcommand == "run":
            doc = serialize.load_document(ns.manifest)
        else:
            doc = _single_command_manifest(ns)
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


if __name__ == "__main__":
    sys.exit(main())
