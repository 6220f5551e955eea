"""Seeded manifest generators for the three benchmark workloads.

Every workload is a cocontra manifest (declarations plus jobs) built from
``random.Random(seed)``.  Instance *sizes* are fixed per stratum, so the
work a pass does barely depends on the seed; the seed picks the basis
changes, labels, fibers, structure maps and job order.  Every generated
input is valid by construction, so every job is expected to pass.

Each job also carries an "ambient size" (kept out of the manifest): the
size of the largest space or set its certificate works in.  For linear
jobs it is dim A * dim B * dim C, the dimension of [A, B (x) C] for the
job's two objects A, B over the coalgebra C (a single-object job uses its
object twice).  For set jobs it is the number of candidates the job
enumerates.
"""

from __future__ import annotations

import math
import random

from cocontra import serialize
from cocontra.coalg import cofree, free
from cocontra.coalg import instances
from cocontra.exactlin import GradedVect, field_from_name

WORKLOADS = ("lin-f2", "lin-q", "set-cert")


def generate(workload: str, seed: int, tiny: bool = False):
    """Return (manifest, ambient sizes in job order)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    manifest = _Manifest()
    if workload == "lin-f2":
        _lin_f2(manifest, rng, tiny)
    elif workload == "lin-q":
        _lin_q(manifest, rng, tiny)
    else:
        _set_cert(manifest, rng, tiny)
    return manifest.finish(rng)


class _Manifest:
    def __init__(self):
        self.declarations = []
        self.jobs = []
        self.ambient = []
        self._names = 0

    def name(self, stem: str) -> str:
        self._names += 1
        return f"{stem}{self._names}"

    def declare(self, decl: dict) -> str:
        self.declarations.append(decl)
        return decl["name"]

    def job(self, command: str, args: dict, ambient: int):
        self.jobs.append({"command": command, "args": args})
        self.ambient.append(ambient)

    def finish(self, rng: random.Random):
        order = list(range(len(self.jobs)))
        rng.shuffle(order)
        jobs, ambient = [], []
        for i, k in enumerate(order):
            jobs.append({"id": f"j{i:04d}", **self.jobs[k]})
            ambient.append(self.ambient[k])
        doc = {"version": "1", "declarations": self.declarations,
               "jobs": jobs}
        return doc, ambient


# --- linear workloads ---------------------------------------------------------


class _Lin:
    """A coalgebra with its declared name and dimension."""

    def __init__(self, c, name, dim):
        self.c, self.name, self.dim = c, name, dim


def _space_decl(b: _Manifest, field, dim: int, prefix: str) -> str:
    # every generated object lives in degree 0
    return b.declare({
        "kind": "graded_space", "name": b.name("V"), "field": field.name,
        "dims": {"0": dim},
        "labels": {"0": [f"{prefix}{i}" for i in range(dim)]},
    })


def _coalgebra(b: _Manifest, field, dim: int, rng, prefix: str) -> _Lin:
    base = instances.group_like_coalgebra(field, dim)
    c = instances.conjugate_coalgebra(
        base, instances.random_invertible(base.space, rng))
    space = _space_decl(b, field, dim, prefix)
    name = b.declare({
        "kind": "coalgebra", "name": b.name("C"), "space": space,
        "delta_blocks": serialize.blocks_out(c.delta),
        "eps_blocks": serialize.blocks_out(c.eps),
    })
    return _Lin(c, name, dim)


def _comodule(b: _Manifest, cl: _Lin, xdim: int, rng, prefix: str):
    """A cofree comodule on an xdim-dimensional space, moved along a random
    basis change; returns (name, dimension)."""
    m = cofree(GradedVect(cl.c.field, {0: xdim}, prefix="x"), cl.c)
    m = instances.transport_comodule(
        m, instances.random_invertible(m.space, rng))
    dim = m.space.total_dim
    space = _space_decl(b, cl.c.field, dim, prefix)
    name = b.declare({
        "kind": "vcomodule", "name": b.name("M"), "coalgebra": cl.name,
        "space": space, "rho_blocks": serialize.blocks_out(m.rho),
    })
    return name, dim


def _contramodule(b: _Manifest, cl: _Lin, xdim: int, rng, prefix: str):
    p = free(GradedVect(cl.c.field, {0: xdim}, prefix="z"), cl.c)
    p = instances.transport_contramodule(
        p, instances.random_invertible(p.space, rng))
    dim = p.space.total_dim
    space = _space_decl(b, cl.c.field, dim, prefix)
    name = b.declare({
        "kind": "vcontramodule", "name": b.name("P"), "coalgebra": cl.name,
        "space": space, "theta_blocks": serialize.blocks_out(p.theta),
    })
    return name, dim


# One row per stratum: (job kind, coalgebra dim, object dims, count).
# Object dims are the dims of the spaces the cofree / free objects are
# built on, so the objects themselves have dimension coalgebra dim * that.
# Per-job costs were measured per stratum; the counts put one stratum of
# equal-cost jobs around the median and one around p90, so that neither
# moves with the seed.
_LIN_F2_MIX = (
    # below the median: 44 jobs of at most 5 ms
    ("check", 1, (2,), 4), ("check", 2, (1,), 4), ("check", 3, (1,), 4),
    ("hom-co", 1, (1, 2), 6), ("hom-contra", 1, (2, 1), 6),
    ("hom-co", 2, (1, 1), 6), ("hom-contra", 2, (1, 1), 6),
    ("kleisli", 2, (1,), 4), ("hom-contra", 1, (3, 3), 4),
    # the median
    ("hom-contra", 3, (1, 1), 30),
    # above it, with p90 inside the adjunctions over dimension 2
    ("hom-co", 3, (1, 1), 4), ("kleisli", 3, (1,), 4),
    ("lr", 1, (3,), 4), ("adjoint", 1, (3, 3), 4),
    ("bridge", 3, (1, 1), 2), ("lr", 2, (1,), 2),
    ("adjoint", 2, (1, 1), 18), ("adjoint", 2, (2, 2), 2),
)

_LIN_Q_MIX = (
    # below the median: 44 jobs of at most 15 ms
    ("check", 1, (1,), 4), ("check", 1, (2,), 4), ("check", 2, (1,), 4),
    ("hom-co", 1, (1, 1), 4), ("hom-contra", 1, (1, 1), 4),
    ("hom-co", 1, (1, 2), 4), ("hom-contra", 1, (2, 1), 4),
    ("kleisli", 1, (2,), 4), ("hom-co", 2, (1, 1), 4),
    ("hom-contra", 2, (1, 1), 4), ("bridge", 1, (1, 1), 4),
    # the median
    ("hom-co", 1, (3, 3), 30),
    # above it, with p90 inside the Kleisli comparisons over dimension 2
    ("bridge", 2, (1, 1), 4), ("lr", 1, (2,), 4), ("adjoint", 1, (2, 2), 4),
    ("kleisli", 2, (2,), 20), ("adjoint", 1, (3, 3), 2),
    ("lr", 2, (1,), 1), ("adjoint", 2, (1, 1), 1),
)


def _tiny(mix):
    # one job per job kind, on the smallest stratum of that kind
    seen = {}
    for kind, cdim, xdims, _ in mix:
        if kind not in seen or cdim < seen[kind][1]:
            seen[kind] = (kind, cdim, xdims, 1)
    return tuple(seen.values())


def _lin_job(b: _Manifest, cl: _Lin, kind: str, xdims, rng, prefixes):
    pm, pp = prefixes
    if kind == "hom-co":
        src, ds = _comodule(b, cl, xdims[0], rng, pm)
        tgt, dt = _comodule(b, cl, xdims[1], rng, pm)
        b.job("hom", {"source": src, "target": tgt}, ds * dt * cl.dim)
    elif kind == "hom-contra":
        src, ds = _contramodule(b, cl, xdims[0], rng, pp)
        tgt, dt = _contramodule(b, cl, xdims[1], rng, pp)
        b.job("hom", {"source": src, "target": tgt}, ds * dt * cl.dim)
    elif kind == "check":
        which = rng.randrange(3)
        if which == 0:
            target, d = cl.name, cl.dim
        elif which == 1:
            target, d = _comodule(b, cl, xdims[0], rng, pm)
        else:
            target, d = _contramodule(b, cl, xdims[0], rng, pp)
        b.job("check", {"target": target}, d * d * cl.dim)
    elif kind == "kleisli":
        d = xdims[0] * cl.dim
        b.job("kleisli", {"coalgebra": cl.name, "dim": xdims[0]},
              d * d * cl.dim)
    elif kind == "bridge":
        p, dp = _contramodule(b, cl, xdims[0], rng, pp)
        m, dm = _comodule(b, cl, xdims[1], rng, pm)
        b.job("bridge", {"coalgebra": cl.name, "comodule": m,
                         "contramodule": p}, dp * dm * cl.dim)
    elif kind == "lr":
        m, dm = _comodule(b, cl, xdims[0], rng, pm)
        b.job("lr", {"target": m}, dm * dm * cl.dim)
    elif kind == "adjoint":
        p, dp = _contramodule(b, cl, xdims[0], rng, pp)
        m, dm = _comodule(b, cl, xdims[1], rng, pm)
        b.job("adjoint", {"contramodule": p, "comodule": m},
              dp * dm * cl.dim)
    else:
        raise ValueError(kind)


def _lin_f2(b: _Manifest, rng, tiny: bool):
    """Three coalgebras over F2 (dimensions 1, 2, 3), each shared by every
    object and job built on it; objects of one dimension share a label
    vocabulary, so equal spaces recur across jobs."""
    field = field_from_name("F2")
    shared = {d: _coalgebra(b, field, d, rng, "g") for d in (1, 2, 3)}
    for kind, cdim, xdims, count in (_tiny(_LIN_F2_MIX) if tiny
                                     else _LIN_F2_MIX):
        for _ in range(count):
            _lin_job(b, shared[cdim], kind, xdims, rng, ("m", "p"))


def _lin_q(b: _Manifest, rng, tiny: bool):
    """A fresh coalgebra over Q for every job, on labels no other job uses,
    so no space recurs across jobs."""
    field = field_from_name("Q")
    for kind, cdim, xdims, count in (_tiny(_LIN_Q_MIX) if tiny
                                     else _LIN_Q_MIX):
        for _ in range(count):
            tag = b.name("i")
            cl = _coalgebra(b, field, cdim, rng, f"{tag}g")
            _lin_job(b, cl, kind, xdims, rng, (f"{tag}m", f"{tag}p"))


# --- set workload -------------------------------------------------------------


def _labels(rng, n: int, stem: str) -> list[str]:
    # seeded, distinct, grammar-safe (alphanumeric) element names
    # (zero-padded, so sorted order is numeric order)
    return [f"{stem}{k:02d}" for k in sorted(rng.sample(range(100), n))]


def _finset(b: _Manifest, elements) -> str:
    return b.declare({"kind": "finset", "name": b.name("S"),
                      "elements": list(elements)})


def _base_map(b: _Manifest, rng, n: int, m: int, values) -> str:
    """The map n -> m sending the i-th point to the values[i]-th."""
    dom = _labels(rng, n, "a")
    cod = _labels(rng, m, "b")
    return b.declare({
        "kind": "finmap", "name": b.name("F"), "dom": _finset(b, dom),
        "cod": _finset(b, cod),
        "table": {a: cod[v] for a, v in zip(dom, values)},
    })


def _contra_product(b: _Manifest, rng, fiber_sizes, base=None):
    """A product contramodule with the given fiber sizes over a declared
    base (name, labels), or a fresh one; returns its name, the base and the
    chosen fibers."""
    if base is None:
        labels = _labels(rng, len(fiber_sizes), "c")
        base = (_finset(b, labels), labels)
    fibers = {a: _labels(rng, k, f"v{a}e")
              for a, k in zip(base[1], fiber_sizes)}
    name = b.declare({"kind": "contra_product", "name": b.name("T"),
                      "base": base[0], "fibers": fibers})
    return name, base, fibers


def _set_comodule(b: _Manifest, rng, base_name: str, base, fiber_sizes):
    """A set comodule over a declared base with the given fiber sizes
    (0 gives a degenerate comodule)."""
    carrier, phi = [], {}
    labels = _labels(rng, sum(fiber_sizes), "x")
    rng.shuffle(labels)
    for a, k in zip(base, fiber_sizes):
        for x in labels[:k]:
            carrier.append(x)
            phi[x] = a
        labels = labels[k:]
    name = b.declare({"kind": "set_comodule", "name": b.name("M"),
                      "carrier": _finset(b, sorted(carrier)),
                      "base": base_name, "phi": phi})
    return name, len(carrier)


def _set_cert(b: _Manifest, rng, tiny: bool):
    """Set-side jobs only: slow induction-adjunction certificates set the
    tail, many sub-millisecond jobs expose the front-end at the median."""

    def cycle(choices, full: int):
        return [choices[k % len(choices)] for k in range(1 if tiny else full)]

    def contra(sizes, base=None):
        return _contra_product(b, rng, sizes, base)

    def comodules(*shapes):
        base = _labels(rng, len(shapes[0]), "c")
        base_name = _finset(b, base)
        return [_set_comodule(b, rng, base_name, base, sizes)
                for sizes in shapes]

    def contra_hom(src_sizes, tgt_sizes):
        s_name, base, _ = contra(src_sizes)
        t_name, _, _ = contra(tgt_sizes, base)
        b.job("hom", {"source": s_name, "target": t_name},
              math.prod(tgt_sizes) ** math.prod(src_sizes))

    def comodule_hom(src_sizes, tgt_sizes):
        (src, ns), (tgt, nt) = comodules(src_sizes, tgt_sizes)
        b.job("hom", {"source": src, "target": tgt}, nt ** ns)

    def on_contra(command, sizes):
        t, base, fibers = contra(sizes)
        args = {"target": t}
        if command == "decompose":
            args["basepoint"] = "{" + ",".join(
                f"{a}:{rng.choice(fibers[a])}" for a in base[1]) + "}"
        b.job(command, args, math.prod(sizes) ** len(sizes))

    def on_comodule(command, sizes):
        ((m, _),) = comodules(sizes)
        b.job(command, {"target": m}, max(1, math.prod(sizes)))

    # Per-job costs were measured per stratum; the counts put one stratum
    # of equal-cost jobs around the median and one around p90, so that
    # neither moves with the seed.  Below the median: sub-millisecond jobs.
    for sizes in cycle(((1, 2), (2, 2), (1, 1, 2), (0, 3), (2, 1)), 10):
        on_comodule("r", sizes)
    for sizes in cycle(((0, 3), (1, 2)), 6):
        on_comodule("lr", sizes)
    for command in ("check", "decompose"):
        for sizes in cycle(((1, 2), (2, 2), (1, 3)), 6):
            on_contra(command, sizes)
    for sizes in cycle(((1, 2), (2, 2)), 4):
        on_contra("l", sizes)
    for pair in cycle((((1, 1), (1, 2)), ((1, 2), (1, 1)),
                       ((2, 1), (1, 1))), 6):
        contra_hom(*pair)
    for pair in cycle((((1, 1), (1, 2)), ((1, 1), (2, 1))), 6):
        comodule_hom(*pair)
    # the median: quotients of one contramodule shape
    for sizes in cycle(((2, 3),), 30):
        on_contra("l", sizes)
    # above the median
    for command in ("check", "decompose"):
        for sizes in cycle(((2, 3),), 4):
            on_contra(command, sizes)
    for pair in cycle((((2, 2), (1, 2)), ((1, 2), (2, 2))), 4):
        contra_hom(*pair)
    for pair in cycle((((1, 1, 1), (1, 1, 2)), ((1, 2), (2, 2))), 4):
        comodule_hom(*pair)
    for sizes in cycle(((2, 2), (2, 3)), 4):
        on_comodule("lr", sizes)
    for size in cycle((3,), 4):
        b.job("unique-comonoid", {"size": size}, (size * size) ** size)
    for carrier, base in ((3, 2), (2, 3)):
        for _ in cycle((None,), 4):
            b.job("enumerate", {"carrier": carrier, "base": base},
                  carrier ** (carrier ** base))
    # p90: induction-adjunction with fiber bound 2 along every map 2 -> 2,
    # five times over; above it three fixed maps 2 -> 3 (a constant one
    # and two injective ones), two equivalence certificates and the size-4
    # comonoid enumeration
    for values in cycle(((0, 0), (0, 1), (1, 0), (1, 1)), 20):
        f = _base_map(b, rng, 2, 2, values)
        b.job("induction-adjunction", {"along": f, "fiber_bound": 2},
              2**2 * 2**2)
    for values in cycle(((1, 1), (0, 2), (2, 1)), 3):
        f = _base_map(b, rng, 2, 3, values)
        b.job("induction-adjunction", {"along": f, "fiber_bound": 2},
              2**2 * 2**3)
    for max_carrier in cycle((4, 5), 2):
        b.job("equivalence", {"max_carrier": max_carrier, "max_base": 2,
                              "max_fiber": 3},
              sum(c**x for c in (1, 2) for x in range(1, max_carrier + 1)))
    if not tiny:
        b.job("unique-comonoid", {"size": 4}, 16**4)
