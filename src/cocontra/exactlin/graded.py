"""Finite-support integer-graded vector spaces and degree-homogeneous maps.

Basis labels are atoms (strings) or structural tuples: ("t", a, b) for
tensor factors, ("h", a, b) for hom components, ("d", a) for duals.  Labels
are unique across the whole space and the basis order is canonical (degree
ascending, then the construction order below), so every matrix in sight is
reproducible bit for bit.

A vector is a ``{label: nonzero}`` dict, the form ``LinMap.from_images``
takes and ``LinMap.apply_label`` returns.  Dense tuples appear only in
reports and outside input.

The structural maps (associator, unitors, braiding, the tensor-hom
isomorphism, the duality pairing) send each basis label to at most
one label, up to sign, and each is one ``relabel`` call;
``from_images`` builds the maps with arbitrary coefficients.

Tensor and hom spaces, and the unit space, are built once per job and
structure: within ``errors.job`` (``cli.run_job`` holds one per job),
``tensor`` and ``hom_space`` return the space they already built for
equal factors, equal meaning the same field and the same labels per
degree, whether or not the factors are the same objects; outside a job
they build a fresh space.  The job's table gives each structure it meets
one code (hash-consing): a pair space is coded by its tag and its
factors' codes, any other space by its field and labels, once per object
and job.  Each pair space records its tag and factors, and, per pair of
factor degrees, the offset of that pair's block in the degree it lands
in, so ``tensor_map`` and ``hom_map`` write their block entries by index
arithmetic, as a Kronecker product is laid out, without going through
labels.

The only sign convention in the package lives here: applying a tensor
product of maps to a tensor of elements costs (-1)^(|g||x|) when g slides
past x, and the braiding costs (-1)^(|x||y|).  All structure maps downstream
are degree zero, so these are the only places signs can enter.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MismatchedSignature, job_table, job_tables
from .matrix import Matrix


@dataclass(eq=False)
class GradedVect:
    field: object
    dims: dict[int, int]
    labels: dict[int, tuple]
    # tensor and hom spaces: {(i, j): offset of that pair's block}
    offsets: dict | None = None
    # tensor and hom spaces: (tag, first factor, second factor)
    pair: tuple | None = None

    def __init__(self, field, dims, labels=None, prefix="e"):
        self.field = field
        self.dims = {k: d for k, d in dims.items() if d > 0}
        if labels is None:
            labels = {
                k: tuple(f"{prefix}{k}_{i}" for i in range(d))
                for k, d in self.dims.items()
            }
        self.labels = {k: tuple(labels[k]) for k in self.dims}
        for k, d in self.dims.items():
            if len(self.labels[k]) != d:
                raise ValueError(f"label count mismatch in degree {k}")
        flat = [lab for k in self.dims for lab in self.labels[k]]
        if len(set(flat)) != len(flat):
            raise ValueError("labels must be unique across the space")
        self._degrees = tuple(sorted(self.dims))
        self._pos = {}
        for k in self._degrees:
            for i, lab in enumerate(self.labels[k]):
                self._pos[lab] = (k, i)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedVect)
            and self.field == other.field
            and self.dims == other.dims
            and self.labels == other.labels
        )

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def basis(self):
        """(degree, index, label) triples in canonical order."""
        return [
            (k, i, lab)
            for k in self.degrees()
            for i, lab in enumerate(self.labels[k])
        ]

    def position(self, label):
        return self._pos[label]

    def degree_of(self, label) -> int:
        return self._pos[label][0]

    def __repr__(self):
        body = ", ".join(f"{k}:{d}" for k, d in sorted(self.dims.items()))
        return f"GradedVect({{{body}}} over {self.field.name})"


def unit_space(field) -> GradedVect:
    """The ground field in degree 0, one object per field and job: the
    space the job's table holds for its structure."""
    labels = {0: ("1",)}
    return job_table(_leaf_key(field, labels), GradedVect, field, {0: 1},
                     labels)


@dataclass(eq=False)
class LinMap:
    """A degree-homogeneous linear map, stored as one exact block per
    domain degree."""

    dom: GradedVect
    cod: GradedVect
    degree: int
    blocks: dict[int, Matrix]

    def __init__(self, dom, cod, degree, blocks):
        self.dom, self.cod, self.degree = dom, cod, degree
        self.blocks = {}
        for k in dom.degrees():
            m = cod.dim(k + degree)
            n = dom.dim(k)
            if m == 0:
                continue
            got = blocks.get(k)
            if got is None:
                got = Matrix.zeros(dom.field, m, n)
            if got.shape != (m, n):
                raise MismatchedSignature(
                    f"block {k}: expected {(m, n)}, got {got.shape}")
            self.blocks[k] = got

    def block(self, k: int) -> Matrix:
        got = self.blocks.get(k)
        if got is None:
            got = Matrix.zeros(
                self.dom.field, self.cod.dim(k + self.degree), self.dom.dim(k)
            )
        return got

    def __eq__(self, other):
        return (
            isinstance(other, LinMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.degree == other.degree
            and all(
                self.block(k) == other.block(k) for k in self.dom.degrees()
            )
        )

    def apply_label(self, label) -> dict:
        """The image of one basis vector as {codomain label: nonzero
        coefficient}, read from its column, in codomain basis order."""
        k, j = self.dom.position(label)
        blk = self.blocks.get(k)
        if blk is None:
            return {}
        return {
            lab: row[j]
            for lab, row in zip(self.cod.labels[k + self.degree], blk.srows)
            if j in row
        }

    @classmethod
    def from_images(cls, dom, cod, degree, images: dict):
        """Build from {domain label: image}, each image a {label: coeff}
        dict of canonical field elements; a missing label maps to
        zero."""
        fld = dom.field
        blocks = {}
        for k in dom.degrees():
            tgt = k + degree
            rows = [{} for _ in range(cod.dim(tgt))]
            for j, lab in enumerate(dom.labels[k]):
                for clab, c in images.get(lab, {}).items():
                    if not c:
                        continue
                    kk, i = cod.position(clab)
                    if kk != tgt:
                        raise MismatchedSignature(
                            f"image of {lab} has a nonzero entry in degree "
                            f"{kk}, not {tgt}")
                    rows[i][j] = c
            blocks[k] = Matrix.sparse(fld, rows, dom.dim(k))
        return cls(dom, cod, degree, blocks)

    def is_zero(self) -> bool:
        return all(self.block(k).is_zero() for k in self.dom.degrees())

    def rank(self) -> int:
        return sum(self.block(k).rank() for k in self.dom.degrees())

    def is_injective(self) -> bool:
        return self.rank() == self.dom.total_dim

    def is_surjective(self) -> bool:
        # only degrees reachable from the domain can be hit
        hit = self.rank()
        need = sum(
            self.cod.dim(k + self.degree) for k in self.dom.degrees()
        )
        extra = self.cod.total_dim - need
        return extra == 0 and hit == self.cod.total_dim

    def is_iso(self) -> bool:
        return (
            self.dom.total_dim == self.cod.total_dim
            and self.is_injective()
            and self.is_surjective()
        )


def identity_map(v: GradedVect) -> LinMap:
    return LinMap(
        v,
        v,
        0,
        {k: Matrix.identity(v.field, v.dim(k)) for k in v.degrees()},
    )


def compose(g: LinMap, f: LinMap) -> LinMap:
    """g after f; degrees add."""
    if f.cod != g.dom:
        raise MismatchedSignature("compose: middle spaces differ")
    blocks = {}
    for k in f.dom.degrees():
        if g.cod.dim(k + f.degree + g.degree) == 0:
            continue
        blocks[k] = g.block(k + f.degree) @ f.block(k)
    return LinMap(f.dom, g.cod, f.degree + g.degree, blocks)


def sub_maps(f: LinMap, g: LinMap) -> LinMap:
    if f.dom != g.dom or f.cod != g.cod or f.degree != g.degree:
        raise MismatchedSignature("sub_maps needs a parallel pair")
    return LinMap(
        f.dom,
        f.cod,
        f.degree,
        {k: f.block(k) - g.block(k) for k in f.dom.degrees()},
    )


def relabel(dom: GradedVect, cod: GradedVect, image, sign=None) -> LinMap:
    """The degree-zero map sending each basis label a of dom to the label
    image(a) of cod, times sign(a) when ``sign`` is given; a label whose
    image is None goes to zero.  Every structural map is of this kind."""
    fld = dom.field
    one = fld.one()
    pos = cod.position
    blocks = {}
    for k in dom.degrees():
        rows = [{} for _ in range(cod.dim(k))]
        for j, a in enumerate(dom.labels[k]):
            b = image(a)
            if b is None:
                continue
            kk, i = pos(b)
            if kk != k:
                raise MismatchedSignature(
                    f"image of {a} lies in degree {kk}, not {k}")
            rows[i][j] = sign(a) if sign else one
        blocks[k] = Matrix.sparse(fld, rows, dom.dim(k))
    return LinMap(dom, cod, 0, blocks)


# --- tensor and hom spaces, built once per job and structure -----------


def _pair_space(tag: str, v: GradedVect, w: GradedVect) -> GradedVect:
    """The space of (tag, a, b) labels: degree n stacks one block per pair
    (i, j) of degrees of v and w that lands in n (i + j for the tensor tag
    "t", j - i for the hom tag "h"), i ascending, then a's index, then b's;
    ``offsets[i, j]`` is where the pair's block starts in n.  Within a job
    the table holds it under (tag, code of v, code of w)."""
    table = job_tables()
    if table is None:
        return _build_pair_space(tag, v, w)
    key = (tag, _code(table, v), _code(table, w))
    got = table.get(key)
    if got is None:
        got = table[key] = _build_pair_space(tag, v, w)
        table[id(got)] = (id(got), got)
    return got


def _code(table: dict, v: GradedVect) -> int:
    """v's code in the job's table: the id of the first space of v's
    structure that the job met, which the table holds, so equal spaces
    share a code and no id is reused while the job runs.  The table keeps
    (code, v) under the int id(v) (its other keys are tuples), so each
    object is keyed once per job: a pair space by its tag and its
    factors' codes, any other by its field and labels."""
    got = table.get(id(v))
    if got is not None:
        return got[0]
    if v.pair is None:
        key = _leaf_key(v.field, v.labels)
    else:
        tag, a, b = v.pair
        key = (tag, _code(table, a), _code(table, b))
    code = id(table.setdefault(key, v))
    table[id(v)] = (code, v)
    return code


def _leaf_key(field, labels: dict) -> tuple:
    """The table key of a space that is not a pair space: its field and
    its labels per degree, degrees ascending."""
    return field, tuple((k, labels[k]) for k in sorted(labels))


def _build_pair_space(tag: str, v: GradedVect, w: GradedVect):
    if v.field != w.field:
        raise MismatchedSignature("spaces over different fields")
    sign = 1 if tag == "t" else -1
    labels = {}
    offsets = {}
    for i in v.degrees():
        for j in w.degrees():
            labs = labels.setdefault(j + sign * i, [])
            offsets[i, j] = len(labs)
            labs.extend((tag, a, b)
                        for a in v.labels[i] for b in w.labels[j])
    space = GradedVect(
        v.field, {n: len(labs) for n, labs in labels.items()}, labels
    )
    space.offsets = offsets
    space.pair = (tag, v, w)
    return space


def tensor(v: GradedVect, w: GradedVect) -> GradedVect:
    """Degreewise convolution with ("t", a, b) labels; within a degree the
    first factor's degree ascends, then both indices."""
    return _pair_space("t", v, w)


def _kron(out: list, r0: int, c0: int, arows, b: Matrix, mul):
    """Write the Kronecker product of ``arows`` (one {column: nonzero} dict
    per row) and b into the rows ``out``: a[ia][ja] b[ib][jb] goes to row
    r0 + ia * b.nrows + ib, column c0 + ja * b.width + jb."""
    height, width = b.nrows, b.width
    for ia, arow in enumerate(arows):
        if not arow:
            continue
        r = r0 + ia * height
        for ib, brow in enumerate(b.srows):
            if not brow:
                continue
            row = out[r + ib]
            for ja, x in arow.items():
                c = c0 + ja * width
                for jb, y in brow.items():
                    row[c + jb] = mul(x, y)


def tensor_map(f: LinMap, g: LinMap) -> LinMap:
    """(f (x) g)(x (x) y) = (-1)^(|g||x|) f(x) (x) g(y).

    The block of a pair (i, j) of domain degrees is the Kronecker product
    of f's block i and g's block j, written at the pair's offsets in the
    domain and codomain degrees."""
    dom = tensor(f.dom, g.dom)
    cod = tensor(f.cod, g.cod)
    fld = dom.field
    df, dg = f.degree, g.degree
    rows = {n: [{} for _ in range(cod.dim(n + df + dg))]
            for n in dom.degrees()}
    for (i, j), c0 in dom.offsets.items():
        fb, gb = f.blocks.get(i), g.blocks.get(j)
        if fb is None or gb is None:
            continue
        frows = fb.srows
        if dg % 2 and i % 2:
            frows = [{t: fld.neg(a) for t, a in r.items()} for r in frows]
        _kron(rows[i + j], cod.offsets[i + df, j + dg], c0, frows, gb,
              fld.mul)
    return LinMap(dom, cod, df + dg, {
        n: Matrix.sparse(fld, rs, dom.dims[n]) for n, rs in rows.items()})


def assoc(u: GradedVect, v: GradedVect, w: GradedVect) -> LinMap:
    """((x,y),z) -> (x,(y,z)), a permutation of basis labels."""
    return relabel(tensor(tensor(u, v), w), tensor(u, tensor(v, w)),
                   lambda t: ("t", t[1][1], ("t", t[1][2], t[2])))


def assoc_inv(u: GradedVect, v: GradedVect, w: GradedVect) -> LinMap:
    return relabel(tensor(u, tensor(v, w)), tensor(tensor(u, v), w),
                   lambda t: ("t", ("t", t[1], t[2][1]), t[2][2]))


def unit_left(v: GradedVect) -> LinMap:
    """k (x) V -> V."""
    return relabel(tensor(unit_space(v.field), v), v, lambda t: t[2])


def unit_right(v: GradedVect) -> LinMap:
    """V (x) k -> V."""
    return relabel(tensor(v, unit_space(v.field)), v, lambda t: t[1])


def unit_left_inv(v: GradedVect) -> LinMap:
    return relabel(v, tensor(unit_space(v.field), v),
                   lambda a: ("t", "1", a))


def unit_right_inv(v: GradedVect) -> LinMap:
    return relabel(v, tensor(v, unit_space(v.field)),
                   lambda a: ("t", a, "1"))


def braiding(v: GradedVect, w: GradedVect) -> LinMap:
    """V (x) W -> W (x) V with the sign (-1)^(|x||y|)."""
    one, minus = v.field.one(), v.field.from_int(-1)

    def sign(t):
        odd = v.degree_of(t[1]) % 2 and w.degree_of(t[2]) % 2
        return minus if odd else one

    return relabel(tensor(v, w), tensor(w, v),
                   lambda t: ("t", t[2], t[1]), sign)


# --- internal hom and duals -----------------------------------------------


def hom_space(v: GradedVect, w: GradedVect) -> GradedVect:
    """[V,W]_n collects the maps raising degree by n, one ("h", a, b) label
    per matrix unit; source degree ascends first, then both indices."""
    return _pair_space("h", v, w)


def hom_map(f: LinMap, g: LinMap) -> LinMap:
    """[B,X] -> [A,Y] by h -> g o h o f, for degree-zero f: A -> B and
    g: X -> Y.

    The matrix unit b -> x goes to the sum of f[b, a] g[y, x] (a -> y), so
    the block of a pair (k, m) of degrees of B and X is the Kronecker
    product of f's block k transposed and g's block m, written at the
    pair's offsets in [B,X] and [A,Y]."""
    if f.degree or g.degree:
        raise MismatchedSignature("hom_map wants degree-0 maps")
    dom = hom_space(f.cod, g.dom)
    cod = hom_space(f.dom, g.cod)
    fld = dom.field
    rows = {n: [{} for _ in range(cod.dim(n))] for n in dom.degrees()}
    fcols = {}  # f's block k by columns: one {row: nonzero} dict per a
    for (k, m), c0 in dom.offsets.items():
        fb, gb = f.blocks.get(k), g.blocks.get(m)
        if fb is None or gb is None:
            continue
        if k not in fcols:
            cols = fcols[k] = [{} for _ in range(fb.width)]
            for ib, frow in enumerate(fb.srows):
                for ia, a in frow.items():
                    cols[ia][ib] = a
        _kron(rows[m - k], cod.offsets[k, m], c0, fcols[k], gb, fld.mul)
    return LinMap(dom, cod, 0, {
        n: Matrix.sparse(fld, rs, dom.dims[n]) for n, rs in rows.items()})


def curry(f: LinMap, u: GradedVect, v: GradedVect, w: GradedVect) -> LinMap:
    """U (x) V -> W into U -> [V,W] (the degree rides along)."""
    if f.dom != tensor(u, v) or f.cod != w:
        raise MismatchedSignature("curry wants a map U (x) V -> W")
    cod = hom_space(v, w)
    images = {
        a: {
            ("h", b, c): cc
            for _, _, b in v.basis()
            for c, cc in f.apply_label(("t", a, b)).items()
        }
        for _, _, a in u.basis()
    }
    return LinMap.from_images(u, cod, f.degree, images)


def hom_tensor_iso(a: GradedVect, b: GradedVect, x: GradedVect) -> LinMap:
    """[A (x) B, X] -> [A, [B, X]], a label permutation."""
    return relabel(hom_space(tensor(a, b), x), hom_space(a, hom_space(b, x)),
                   lambda h: ("h", h[1][1], ("h", h[1][2], h[2])))


def hom_tensor_iso_inv(a: GradedVect, b: GradedVect, x: GradedVect) -> LinMap:
    return relabel(hom_space(a, hom_space(b, x)), hom_space(tensor(a, b), x),
                   lambda h: ("h", ("t", h[1], h[2][1]), h[2][2]))


def dual(v: GradedVect) -> GradedVect:
    dims = {}
    labels = {}
    for k in v.degrees():
        dims[-k] = v.dim(k)
        labels[-k] = tuple(("d", a) for a in v.labels[k])
    return GradedVect(v.field, dims, labels)


def pairing(v: GradedVect) -> LinMap:
    """V (x) V* -> k."""
    return relabel(tensor(v, dual(v)), unit_space(v.field),
                   lambda t: "1" if t[2] == ("d", t[1]) else None)


# --- (co)equalisers of parallel pairs ------------------------------------


@dataclass(eq=False)
class SubPresentation:
    """A sub-object: its own space plus a full-column-rank inclusion."""

    ambient: GradedVect
    space: GradedVect
    include: LinMap


@dataclass(eq=False)
class QuotPresentation:
    """A quotient: projection plus a section selecting representatives."""

    ambient: GradedVect
    space: GradedVect
    project: LinMap
    section: LinMap


def equalizer_lin(f: LinMap, g: LinMap, prefix: str = "s") -> SubPresentation:
    """Degreewise kernel of f - g, with inclusion."""
    if f.dom != g.dom or f.cod != g.cod or f.degree != g.degree:
        raise MismatchedSignature("equalizer needs a parallel pair")
    h = sub_maps(f, g)
    dims = {}
    labels = {}
    blocks = {}
    for k in f.dom.degrees():
        basis = h.block(k).kernel_basis()
        if not basis:
            continue
        dims[k] = len(basis)
        labels[k] = tuple((prefix, k, i) for i in range(len(basis)))
        blocks[k] = Matrix.from_columns(f.dom.field, basis, f.dom.dim(k))
    space = GradedVect(f.dom.field, dims, labels)
    include = LinMap(space, f.dom, 0, blocks)
    return SubPresentation(f.dom, space, include)


def coequalizer_lin(f: LinMap, g: LinMap, prefix: str = "q") -> QuotPresentation:
    """Degreewise cokernel of f - g, with projection and section."""
    if f.dom != g.dom or f.cod != g.cod or f.degree != g.degree:
        raise MismatchedSignature("coequalizer needs a parallel pair")
    h = sub_maps(f, g)
    fld = f.dom.field
    dims = {}
    labels = {}
    proj_blocks = {}
    sect_blocks = {}
    d = f.degree
    for m in f.cod.degrees():
        cod_dim = f.cod.dim(m)
        k = m - d
        a = h.block(k) if f.dom.dim(k) > 0 else Matrix.zeros(fld, cod_dim, 0)
        chosen = a.column_space_complement()
        if not chosen:
            continue
        dims[m] = len(chosen)
        labels[m] = tuple((prefix, m, i) for i in range(len(chosen)))
        rows = [{} for _ in range(cod_dim)]
        for t, r in enumerate(chosen):
            rows[r] = {t: fld.one()}
        e_cols = Matrix.sparse(fld, rows, len(chosen))
        sect_blocks[m] = e_cols
        # solve [A | E_S] X = I, which has a solution as E_S completes A's
        # columns to a spanning set, and keep the E_S part: the coefficients
        # of the chosen representatives are unique by the greedy construction
        aug = a.hstack(e_cols)
        sol = aug.solve_matrix(Matrix.identity(fld, cod_dim))
        proj_blocks[m] = Matrix.sparse(fld, sol.srows[a.ncols:], cod_dim)
    space = GradedVect(fld, dims, labels)
    project = LinMap(f.cod, space, 0, proj_blocks)
    section = LinMap(space, f.cod, 0, sect_blocks)
    return QuotPresentation(f.cod, space, project, section)


def factor_through_include(include: LinMap, f: LinMap) -> LinMap:
    """Solve include o g = f; raises when f does not land in the sub."""
    if include.cod != f.cod or include.degree:
        raise MismatchedSignature("factor_through_include wants a degree-0 "
                                  "inclusion into f's codomain")
    blocks = {}
    for k in f.dom.degrees():
        target_deg = k + f.degree
        if include.dom.dim(target_deg) == 0:
            if not f.block(k).is_zero():
                raise ValueError(
                    f"map does not factor (degree {k} lands outside)"
                )
            continue
        sol = include.block(target_deg).solve_matrix(f.block(k))
        if sol is None:
            raise ValueError(f"map does not factor in degree {k}")
        blocks[k] = sol
    return LinMap(f.dom, include.dom, f.degree, blocks)
