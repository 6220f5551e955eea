"""Parsing and serialisation of the declaration format.

One self-describing JSON document format: a bundle carries a list of
declarations, each with an explicit "kind" tag, and (for manifests) a list
of jobs.  Exact scalars travel as strings ("3/4" over the rationals,
"2 mod 5" over a prime field; bare integers are accepted on input),
matrices are row-major arrays keyed by domain degree, graded spaces are
degree-to-dimension maps.  Serialisation is canonical: sorted keys,
two-space indents, one trailing newline, so re-serialising a parsed
canonical file is byte-identical.
"""

from __future__ import annotations

import json

from . import finset, polycoalg
from .coalg import (
    Coalgebra,
    VComodule,
    VContramodule,
    check_coalgebra_morphism,
    cofree,
    free,
)
from .coalg.instances import group_like_coalgebra
from .errors import CocontraError, ParseError
from .exactlin import (
    GradedVect,
    LinMap,
    Matrix,
    field_from_name,
    hom_space,
    tensor,
    unit_space,
)
from .finset import FinMap, FinSet
from .set_comodule import SetComodule
from .set_contramodule import ContraTable, product_contra


def label_str(label) -> str:
    """Canonical display form of a basis label."""
    if isinstance(label, str):
        return label
    tag = label[0]
    if tag == "t":
        return f"({label_str(label[1])}⊗{label_str(label[2])})"
    if tag == "h":
        return f"[{label_str(label[1])},{label_str(label[2])}]"
    if tag == "d":
        return f"{label_str(label[1])}*"
    return tag + ".".join(str(x) for x in label[1:])


def _scalar_in(field, raw):
    if isinstance(raw, int):
        return field.from_int(raw)
    return field.parse(raw)


def _scalar_out(field, value) -> str:
    return field.format(value)


def matrix_in(field, rows, width) -> Matrix:
    return Matrix(
        field,
        tuple(tuple(_scalar_in(field, x) for x in r) for r in rows),
        width,
    )


def matrix_out(m: Matrix):
    return [[_scalar_out(m.field, x) for x in r] for r in m.rows]


def blocks_in(field, dom: GradedVect, cod: GradedVect, degree: int,
              raw: dict) -> LinMap:
    blocks = {}
    for key, rows in raw.items():
        k = int(key)
        if len(rows) != cod.dim(k + degree):
            raise ValueError(f"block {k} has {len(rows)} rows, its target "
                             f"has dimension {cod.dim(k + degree)}")
        blocks[k] = matrix_in(field, rows, dom.dim(k))
    return LinMap(dom, cod, degree, blocks)


def blocks_out(f: LinMap) -> dict:
    return {
        str(k): matrix_out(f.block(k))
        for k in f.dom.degrees()
        if f.cod.dim(k + f.degree) > 0
    }


def graded_out(v: GradedVect) -> dict:
    return {
        "field": v.field.name,
        "dims": {str(k): v.dim(k) for k in v.degrees()},
        "labels": {
            str(k): [label_str(lab) for lab in v.labels[k]]
            for k in v.degrees()
        },
    }


# the declaration kinds of each sort of object a reference may name
FINSET = ("finset",)
GRADED_SPACE = ("graded_space",)
SET_COMODULE = ("set_comodule",)
SET_CONTRAMODULE = ("contra_product", "contra_table")
COALGEBRA = ("coalgebra", "group_like_coalgebra", "poly_coalgebra")
COMODULE = ("vcomodule", "cofree_comodule")
CONTRAMODULE = ("vcontramodule", "free_contramodule")


class Environment:
    """Resolved declarations by name."""

    def __init__(self):
        self.objects: dict[str, object] = {}
        self.kinds: dict[str, str] = {}

    def add(self, name: str, kind: str, obj):
        if name in self.objects:
            raise ParseError(f"duplicate name {name!r}", where=name)
        self.objects[name] = obj
        self.kinds[name] = kind

    def get(self, name: str, kinds: tuple[str, ...]):
        """The object of the declaration ``name``, which must be of one of
        ``kinds``."""
        if not isinstance(name, str) or name not in self.objects:
            raise ParseError(f"unresolved reference {name!r}", where=name)
        if self.kinds[name] not in kinds:
            raise ValueError(f"{name!r} is a {self.kinds[name]} declaration, "
                             f"expected a {' / '.join(kinds)}")
        return self.objects[name]


def _parse_declaration(decl: dict, env: Environment):
    kind = decl.get("kind")
    name = decl.get("name")
    if not (kind and isinstance(kind, str) and name and isinstance(name, str)):
        raise ParseError("declaration needs 'kind' and 'name' strings",
                         where=str(decl)[:80])
    try:
        obj = _PARSERS[kind](decl, env)
    except KeyError as exc:
        if str(exc).strip("'") == kind:
            raise ParseError(f"unknown declaration kind {kind!r}",
                             where=name)
        raise ParseError(f"missing field {exc} in {name!r}", where=name)
    except ParseError:
        raise
    except (ValueError, TypeError, AttributeError, CocontraError) as exc:
        # a field of the wrong JSON type, met inside a builder
        raise ParseError(f"{kind} {name!r} rejected: {exc}", where=name)
    env.add(name, kind, obj)


def _integer(value, what, least=None):
    """``value``, an int (a bool is refused) of at least ``least`` when
    that is given."""
    if type(value) is not int or (least is not None and value < least):
        kind = "an int" if least is None else f"an int of at least {least}"
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return value


def _labels(raw, what) -> tuple[str, ...]:
    """A list of string labels, in its order; a string is refused, not
    read as its characters."""
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise ValueError(f"{what} must be a list of strings, got {raw!r}")
    return tuple(raw)


def _p_finset(decl, env):
    return FinSet(_labels(decl["elements"], "elements"))


def _p_finmap(decl, env):
    dom = env.get(decl["dom"], FINSET)
    cod = env.get(decl["cod"], FINSET)
    return FinMap(dom, cod, dict(decl["table"]))


def _p_set_comodule(decl, env):
    carrier = env.get(decl["carrier"], FINSET)
    base = env.get(decl["base"], FINSET)
    phi = FinMap(carrier, base, dict(decl["phi"]))
    return SetComodule(carrier, base, phi)


def _p_contra_product(decl, env):
    base = env.get(decl["base"], FINSET)
    fibers = {a: FinSet(_labels(v, f"fiber {a}"))
              for a, v in decl["fibers"].items()}
    return product_contra(base, fibers)


def theta_labels(carrier: FinSet, base: FinSet) -> list[str]:
    """The label of every function base -> carrier, in the order of a
    theta table's positions; labels that collide are refused."""
    labels = finset.choice_labels(base, [carrier] * len(base))
    if len(set(labels)) != len(labels):
        raise ValueError(f"labels of maps on {base!r} collide")
    return labels


def _p_contra_table(decl, env):
    carrier = env.get(decl["carrier"], FINSET)
    base = env.get(decl["base"], FINSET)
    table = dict(decl["theta"])
    # a table of the wrong size is refused before the |X|^|C| labels of
    # the function space are built to compare it with
    if len(table) != len(carrier) ** len(base):
        raise ValueError("table is not total on the domain")
    labels = theta_labels(carrier, base)
    # refuses, by name, a key that labels no function or a value outside
    # the carrier
    FinMap(FinSet(labels), carrier, table)
    return ContraTable(carrier, base, theta=tuple(
        [carrier.index(table[label]) for label in labels]))


def _p_graded_space(decl, env):
    field = field_from_name(decl["field"])
    dims = {int(k): _integer(d, f"dims {k}", 0)
            for k, d in decl["dims"].items()}
    labels = None
    if "labels" in decl:
        labels = {int(k): _labels(v, f"labels {k}")
                  for k, v in decl["labels"].items()}
    return GradedVect(field, dims, labels,
                      prefix=decl.get("prefix", "e"))


def _p_linmap(decl, env):
    dom = env.get(decl["dom"], GRADED_SPACE)
    cod = env.get(decl["cod"], GRADED_SPACE)
    return blocks_in(dom.field, dom, cod, decl.get("degree", 0),
                     decl["blocks"])


def _p_coalgebra(decl, env):
    space = env.get(decl["space"], GRADED_SPACE)
    delta = blocks_in(space.field, space, tensor(space, space), 0,
                      decl["delta_blocks"])
    eps = blocks_in(space.field, space, unit_space(space.field), 0,
                    decl["eps_blocks"])
    # axiom checking is a job ("check"), not a parse-time gate: broken
    # structures must be declarable so seeded failures can be reported
    return Coalgebra(space, delta, eps)


def _p_group_like(decl, env):
    field = field_from_name(decl["field"])
    return group_like_coalgebra(field, _integer(decl["size"], "size", 0))


def _p_poly_coalgebra(decl, env):
    # a declaration stands for its coalgebra, all that its consumers read
    field = field_from_name(decl["field"])
    return polycoalg.build(_integer(decl["truncation"], "truncation", 0),
                           _integer(decl.get("z_degree", 0), "z_degree"),
                           field).underlying


def _p_vcomodule(decl, env):
    side = decl.get("side", "right")
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    c = env.get(decl["coalgebra"], COALGEBRA)
    space = env.get(decl["space"], GRADED_SPACE)
    rho = blocks_in(space.field, space, tensor(space, c.space), 0,
                    decl["rho_blocks"])
    return VComodule(c, space, rho, side=side)


def _p_vcontramodule(decl, env):
    c = env.get(decl["coalgebra"], COALGEBRA)
    space = env.get(decl["space"], GRADED_SPACE)
    ambient = hom_space(c.space, space)
    theta = blocks_in(space.field, ambient, space, 0, decl["theta_blocks"])
    return VContramodule(c, space, theta)


def _p_cofree(decl, env):
    c = env.get(decl["coalgebra"], COALGEBRA)
    return cofree(env.get(decl["on"], GRADED_SPACE), c)


def _p_free(decl, env):
    c = env.get(decl["coalgebra"], COALGEBRA)
    return free(env.get(decl["on"], GRADED_SPACE), c)


def _p_coalgebra_morphism(decl, env):
    c = env.get(decl["dom"], COALGEBRA)
    chat = env.get(decl["cod"], COALGEBRA)
    f = blocks_in(c.space.field, c.space, chat.space, 0, decl["blocks"])
    check_coalgebra_morphism(f, c, chat)
    return f


_PARSERS = {
    "finset": _p_finset,
    "finmap": _p_finmap,
    "set_comodule": _p_set_comodule,
    "contra_product": _p_contra_product,
    "contra_table": _p_contra_table,
    "graded_space": _p_graded_space,
    "linmap": _p_linmap,
    "coalgebra": _p_coalgebra,
    "group_like_coalgebra": _p_group_like,
    "poly_coalgebra": _p_poly_coalgebra,
    "vcomodule": _p_vcomodule,
    "vcontramodule": _p_vcontramodule,
    "cofree_comodule": _p_cofree,
    "free_contramodule": _p_free,
    "coalgebra_morphism": _p_coalgebra_morphism,
}


def objects_of(doc, key: str, where=None) -> list:
    """The list ``doc[key]`` of a manifest or declaration file, empty when
    absent.  A document that is not an object, or a ``key`` that is not a
    list of objects, is a parse error."""
    if not isinstance(doc, dict):
        raise ParseError(f"a document must be an object, got {doc!r:.80}",
                         where=where)
    items = doc.get(key, [])
    if not (isinstance(items, list)
            and all(isinstance(item, dict) for item in items)):
        raise ParseError(f"{key!r} must be a list of objects, got "
                         f"{items!r:.80}", where=where)
    return items


def parse_bundle(doc: dict) -> Environment:
    env = Environment()
    for decl in objects_of(doc, "declarations"):
        _parse_declaration(decl, env)
    return env


def load_document(path: str) -> dict:
    """A manifest or declaration file, read as UTF-8 whatever the
    locale."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", where=path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc}", where=path)
    except OSError as exc:
        raise ParseError(str(exc), where=path)


def canonical_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2,
                       ensure_ascii=False) + "\n").encode()


# --- result serialisers -------------------------------------------------------


def serialize_result(obj):
    """Turn computed objects into plain JSON data for reports."""
    if isinstance(obj, FinSet):
        return {"kind": "finset", "elements": list(obj.elements)}
    if isinstance(obj, FinMap):
        return {
            "kind": "finmap",
            "dom": list(obj.dom.elements),
            "cod": list(obj.cod.elements),
            "table": dict(sorted(obj.table.items())),
        }
    if isinstance(obj, SetComodule):
        return {
            "kind": "set_comodule",
            "carrier": list(obj.carrier.elements),
            "base": list(obj.base.elements),
            "phi": dict(sorted(obj.phi.table.items())),
        }
    if isinstance(obj, ContraTable):
        if obj.fibers is not None:
            return {
                "kind": "contra_product",
                "base": list(obj.base.elements),
                "fibers": {
                    a: list(v.elements) for a, v in sorted(obj.fibers.items())
                },
            }
        points = obj.carrier.elements
        theta = zip(theta_labels(obj.carrier, obj.base),
                    [points[v] for v in obj.theta])
        return {
            "kind": "contra_table",
            "carrier": list(points),
            "base": list(obj.base.elements),
            "theta": dict(sorted(theta)),
        }
    if isinstance(obj, GradedVect):
        return {"kind": "graded_space", **graded_out(obj)}
    if isinstance(obj, LinMap):
        return {
            "kind": "linmap",
            "degree": obj.degree,
            "dom_dims": {str(k): obj.dom.dim(k) for k in obj.dom.degrees()},
            "cod_dims": {str(k): obj.cod.dim(k) for k in obj.cod.degrees()},
            "blocks": blocks_out(obj),
        }
    if isinstance(obj, VComodule):
        return {
            "kind": "vcomodule",
            "space": graded_out(obj.space),
            "rho_blocks": blocks_out(obj.rho),
            "side": obj.side,
        }
    if isinstance(obj, VContramodule):
        return {
            "kind": "vcontramodule",
            "space": graded_out(obj.space),
            "theta_blocks": blocks_out(obj.theta),
        }
    if isinstance(obj, dict):
        return {k: serialize_result(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [serialize_result(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)
