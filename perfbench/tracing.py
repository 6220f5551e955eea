"""Span tracing of cocontra's layers from outside the program.

``Tracer.install`` replaces each traced function by a wrapper at every
place the function object is bound: the defining module, every module that
imported it by name (``coalg`` imports ``compose`` from ``exactlin``, the
``cli`` imports ``serialize_result``), and package re-exports.  Methods are
wrapped on their class.  Patching by object identity, not by name, keeps
same-named functions of other modules (``set_contramodule.validate`` next
to ``coalg.validate``) untouched.

Each call records a span: name, parent span, job index, start and end, in
CPU time of the process, like every other time of the benchmark.
Spans stay in memory and are written out once, when the pass ends.  A
span's self time is its duration minus the durations of its direct child
spans; a name's busy time sums only its outermost spans, so recursion
(``serialize_result``) and nested group members are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import process_time

# (module, attribute, span name).  One span name may cover several entry
# points of the same operation; the "oracle" span covers every independent
# cross-check the jobs run.
FUNCTIONS = (
    ("cocontra.exactlin.graded", "compose", "exactlin.graded.compose"),
    ("cocontra.exactlin.graded", "tensor_map", "exactlin.graded.tensor_map"),
    ("cocontra.exactlin.graded", "hom_map", "exactlin.graded.hom_map"),
    ("cocontra.exactlin.graded", "equalizer_lin",
     "exactlin.graded.equalizer_lin"),
    ("cocontra.exactlin.graded", "coequalizer_lin",
     "exactlin.graded.coequalizer_lin"),
    ("cocontra.exactlin.graded", "tensor", "exactlin.graded.tensor"),
    ("cocontra.exactlin.graded", "hom_space", "exactlin.graded.hom_space"),
    ("cocontra.coalg.homobjects", "comodule_hom_object", "coalg.hom_object"),
    ("cocontra.coalg.homobjects", "contra_hom_object", "coalg.hom_object"),
    ("cocontra.coalg.functors", "functor_R", "coalg.functor_R"),
    ("cocontra.coalg.functors", "functor_R_data", "coalg.functor_R"),
    ("cocontra.coalg.functors", "functor_L", "coalg.functor_L"),
    ("cocontra.coalg.functors", "functor_L_data", "coalg.functor_L"),
    ("cocontra.coalg.functors", "adjunction_certificate",
     "coalg.adjunction_certificate"),
    ("cocontra.coalg.functors", "triangle_identities",
     "coalg.triangle_identities"),
    ("cocontra.coalg.bridge", "bridge_certificate",
     "coalg.bridge_certificate"),
    ("cocontra.coalg.functors", "kleisli_certificate",
     "coalg.kleisli_certificate"),
    ("cocontra.coalg.core", "validate", "coalg.validate"),
    ("cocontra.coalg.homobjects", "comodule_maps_direct", "oracle"),
    ("cocontra.coalg.homobjects", "contra_maps_direct", "oracle"),
    ("cocontra.coalg.homobjects", "same_degree_zero_subspace", "oracle"),
    ("cocontra.set_comodule", "hom_over_generic", "oracle"),
    ("cocontra.set_contramodule", "contra_hom_by_definition", "oracle"),
    ("cocontra.set_contramodule", "count_product_structures", "oracle"),
    ("cocontra.set_contramodule", "induction_adjunction_certificate",
     "set_contramodule.induction_adjunction"),
    ("cocontra.set_contramodule", "enumerate_all",
     "set_contramodule.enumerate_all"),
    ("cocontra.set_contramodule", "contra_hom", "set_contramodule.contra_hom"),
    ("cocontra.set_contramodule", "contra_hom_members",
     "set_contramodule.contra_hom"),
    ("cocontra.set_correspondence", "equivalence_certificate",
     "set_correspondence.equivalence"),
    ("cocontra.set_correspondence", "R_set", "set_correspondence.functors"),
    ("cocontra.set_correspondence", "L_set", "set_correspondence.functors"),
    ("cocontra.set_correspondence", "lr_explicit",
     "set_correspondence.functors"),
    ("cocontra.set_correspondence", "unit", "set_correspondence.functors"),
    ("cocontra.set_correspondence", "counit", "set_correspondence.functors"),
    ("cocontra.set_comodule", "hom_over", "set_comodule.hom_over"),
    ("cocontra.set_comodule", "unique_comonoid_certificate",
     "set_comodule.unique_comonoid"),
    ("cocontra.serialize", "parse_bundle", "serialize.parse_bundle"),
    ("cocontra.serialize", "serialize_result", "serialize.serialize_result"),
    ("cocontra.serialize", "canonical_bytes", "serialize.canonical_bytes"),
    ("cocontra.cli", "run_job", "cli.run_job"),
)

# (module, class, attribute, span name)
METHODS = (
    ("cocontra.exactlin.matrix", "Matrix", "__matmul__",
     "exactlin.matrix.matmul"),
    ("cocontra.exactlin.matrix", "Matrix", "rref", "exactlin.matrix.rref"),
    ("cocontra.exactlin.matrix", "Matrix", "solve_matrix",
     "exactlin.matrix.solve_matrix"),
    ("cocontra.exactlin.graded", "LinMap", "from_images",
     "exactlin.graded.LinMap.from_images"),
)

# every public non-generator function of the oracle module is a cross-check
ORACLE_MODULE = "cocontra.oracle"

# generators are counted, not timed: their time interleaves with the caller
GENERATORS = (
    ("cocontra.finset", "_all_maps", "finset.all_maps.yielded"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # one record per call: [name index, parent, job, start, end,
        # outermost-of-its-name]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open = Counter()
        self.job = -1
        self.counts = Counter()
        self.sites: list[str] = []
        self._spaces: set = set()

    # --- recording ------------------------------------------------------------

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, fn, name: str, before=None, after=None):
        idx = self._index(name)
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            rec = [idx, stack[-1] if stack else -1, self.job, 0.0, 0.0,
                   open_[idx] == 0]
            stack.append(len(spans))
            spans.append(rec)
            open_[idx] += 1
            rec[3] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = process_time()
                open_[idx] -= 1
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def counting(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    # --- counters taken at the boundaries -------------------------------------

    @staticmethod
    def _matmul_counts(tracer, args):
        a, b = args
        m, k, n = a.nrows, a.ncols, b.ncols
        col_nonzero = [0] * k
        for row in a.rows:
            for j, x in enumerate(row):
                if x:
                    col_nonzero[j] += 1
        row_nonzero = [sum(1 for x in row if x) for row in b.rows]
        tracer.counts["exactlin.matrix.matmul.scalar_ops"] += m * k * n
        # products a[i][j] * b[j][l] with both factors nonzero
        tracer.counts["exactlin.matrix.matmul.nonzero_ops"] += sum(
            c * r for c, r in zip(col_nonzero, row_nonzero))

    @staticmethod
    def _space_counts(kind):
        def before(tracer, args):
            v, w = args[0], args[1]
            key = (kind, _space_key(v), _space_key(w))
            tracer.counts["exactlin.graded.space_builds"] += 1
            if key in tracer._spaces:
                tracer.counts["exactlin.graded.space_repeats"] += 1
            else:
                tracer._spaces.add(key)
        return before

    @staticmethod
    def _pairs(tracer, args, result):
        tracer.counts["set_contramodule.induction_adjunction.pairs"] += (
            result["pairs"])

    @staticmethod
    def _enumerate_counts(tracer, args):
        nx, nc = len(args[0]), len(args[1])
        tracer.counts["set_contramodule.enumerate_all.candidates"] += (
            nx ** (nx ** nc) if nx else 0)

    @staticmethod
    def _enumerate_valid(tracer, args, result):
        tracer.counts["set_contramodule.enumerate_all.valid"] += len(result)

    # --- installation ---------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every binding of ``original`` in a cocontra module at the
        replacement."""
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cocontra"
                                   or mod_name.startswith("cocontra.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self.sites.append(f"{mod_name}.{attr}")
                    found = True
        if not found:
            raise LookupError(f"{original!r} is bound nowhere")

    def install(self):
        hooks = {
            "exactlin.graded.tensor": (self._space_counts("tensor"), None),
            "exactlin.graded.hom_space": (self._space_counts("hom"), None),
            "exactlin.matrix.matmul": (self._matmul_counts, None),
            "set_contramodule.induction_adjunction": (None, self._pairs),
            "set_contramodule.enumerate_all": (self._enumerate_counts,
                                               self._enumerate_valid),
        }
        targets = list(FUNCTIONS)
        oracle = sys.modules[ORACLE_MODULE]
        for attr, value in sorted(vars(oracle).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == ORACLE_MODULE
                    and not inspect.isgeneratorfunction(value)):
                targets.append((ORACLE_MODULE, attr, "oracle"))
        for mod_name, attr, name in targets:
            original = getattr(sys.modules[mod_name], attr)
            before, after = hooks.get(name, (None, None))
            self._rebind(original, self.wrap(original, name, before, after))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            before, after = hooks.get(name, (None, None))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(
                    self.wrap(raw.__func__, name, before, after)))
            else:
                setattr(cls, attr, self.wrap(raw, name, before, after))
            self.sites.append(f"{mod_name}.{cls_name}.{attr}")
        for mod_name, attr, key in GENERATORS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self.counting(original, key))

    # --- output ---------------------------------------------------------------

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "parent", "job", "start", "end",
                                  "outermost"],
                       "spans": self.spans}, fh)

    def totals(self) -> dict:
        """Per-name calls, busy and self seconds, plus the boundary
        counters, as one flat dict of additive numbers."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter(self.counts)
        for i, (name, _, _, start, end, outermost) in enumerate(self.spans):
            key = self.names[name]
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += end - start - child[i]
            if outermost:
                out[f"{key}.busy_s"] += end - start
        return dict(out)


def _space_key(v):
    return (v.field, tuple((k, v.labels[k]) for k in sorted(v.dims)))
