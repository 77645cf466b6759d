"""Outside-in tracing of the ``cherednik`` package, from the benchmark's side.

Nothing in the package knows about this module.  ``Tracer.install`` replaces
the public functions and public methods of every layer module with wrappers,
at every place that binds them: the defining module, every other
``cherednik`` module that imported the name (``restricted``, ``comalg``,
``invariants``, ``groups`` and ``bv`` bind ``rref``, ``kernel_basis``,
``row_space_contains`` and ``mat_mul`` by name), and the classes that own the
methods.  Properties are left alone, so their work stays in the caller.

Spans.  A wrapper opens a span (layer, name, parent, start, end) unless the
innermost open span already belongs to the same layer: a call from one
``linalg`` function into another (``kernel_basis`` -> ``rref``) is attributed
once.  Named stages (``STAGES``) always open a span, so their time can be
reported even when another method of the same layer calls them.  A layer's
self time is the duration of its spans minus the part covered by child spans.
Spans are kept in memory and written out by ``write_spans`` after the pass.

Counts only.  Per-scalar and per-group-element boundaries are too fine for
spans: Cyc operators only bump a counter (nothing else in ``cyclotomic`` is
wrapped), and ``ReflectionGroup.mult``/``inv``/``matrix``,
``IrrRep.matrix``, the ``polys`` kernels and the like (``UNWRAPPED``) are
left alone.  So ``Fraction``/``Cyc`` arithmetic, group
composition inside a product and private-function time (``pbw._yb_xc``,
``comalg``'s nested ``split``) all stay in the self time of the layer that
called them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import weakref

LAYERS = ("linalg", "restricted", "pbw", "comalg", "invariants", "groups",
          "polys", "series", "verma", "parabolic", "bv", "cli")

# Fine-grained public callables: too hot for a wrapper, left unwrapped.
UNWRAPPED = {
    "groups.ReflectionGroup.mult", "groups.ReflectionGroup.inv",
    "groups.ReflectionGroup.matrix", "groups.ReflectionGroup.hstar_matrix",
    "groups.ReflectionGroup.act_h", "groups.ReflectionGroup.act_hstar",
    "groups.IrrRep.matrix", "groups.IrrRep.char",
    "pbw.PBWElement.degree", "pbw.PBWElement.max_polynomial_degree",
    "restricted.FDModule.x_matrix", "restricted.FDModule.y_matrix",
    "restricted.FDModule.w_matrix",
    "restricted.RestrictedCherednikAlgebra.basis_degree",
    "polys.pmul", "polys.padd", "polys.pscale", "polys.pconst",
    "polys.pzero", "polys.pvar", "polys.pdeg",
    "series.GradedCharacter.support", "series.GradedCharacter.min_exponent",
    "series.GradedCharacter.max_exponent",
}

# Stage methods: reported as their own time, excluding nested stages.
STAGES = {
    "restricted.RestrictedCherednikAlgebra.center": "restricted.center_s",
    "restricted.RestrictedCherednikAlgebra.center_structure":
        "restricted.center_structure_s",
    "restricted.RestrictedCherednikAlgebra.central_idempotents":
        "restricted.idempotents_s",
    "restricted.RestrictedCherednikAlgebra.simple_head":
        "restricted.simple_head_s",
    "restricted.RestrictedCherednikAlgebra.endomorphism_dimension":
        "restricted.endomorphism_dimension_s",
    "restricted.RestrictedCherednikAlgebra.center_surjectivity_on_baby_verma":
        "restricted.center_surjectivity_s",
    "bv.virtual_homology": "bv.homology_s",
    "bv.koszul_homology": "bv.homology_s",
}

CYC_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                 "__pow__", "inverse", "conjugate")

COUNTERS = ("linalg.rref_cells", "linalg.rref_nnz", "pbw.multiply_calls",
            "pbw.terms_out", "restricted.table_calls",
            "restricted.table_products", "restricted.center_dim",
            "cyclotomic.cyc_ops", "comalg.split_calls",
            "invariants.reduce_monomial_calls")


class Tracer:
    """Spans and counters for one traced pass: ``install``, run,
    ``uninstall``, then ``summary`` and ``write_spans``."""

    def __init__(self):
        self.spans = []       # [layer, name, parent, start, end]
        self.stack = []       # indices of open spans
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._undo = []
        self._table_depth = 0
        self._centers_seen = weakref.WeakSet()

    # ---- wrappers -----------------------------------------------------------
    def _span(self, layer, qualname, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        stage = qualname in STAGES

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if stack and spans[stack[-1]][0] == layer and (
                    not stage or spans[stack[-1]][1] == qualname):
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([layer, qualname, stack[-1] if stack else -1,
                              clock(), 0.0])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][4] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- counters attached to particular functions --------------------------
    def _before_rref(self, args, kwargs):
        rows = args[0]
        ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        self.counts["linalg.rref_cells"] += len(rows) * ncols
        self.counts["linalg.rref_nnz"] += sum(sum(map(bool, r)) for r in rows)

    def _before_product(self, args, kwargs):
        if self._table_depth:
            self.counts["restricted.table_products"] += 1

    def _before_multiply(self, args, kwargs):
        self._before_product(args, kwargs)
        self.counts["pbw.multiply_calls"] += 1

    def _after_multiply(self, args, result):
        self.counts["pbw.terms_out"] += len(result.terms)

    def _after_center(self, args, result):
        owner = args[0]
        if owner not in self._centers_seen:
            self._centers_seen.add(owner)
            self.counts["restricted.center_dim"] += len(result)

    def _table(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["restricted.table_calls"] += 1
            self._table_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._table_depth -= 1

        return wrapper

    def _wrap(self, layer, qualname, fn):
        if qualname == "restricted.RestrictedCherednikAlgebra.multiply_basis":
            return self._table(fn)
        if qualname == "invariants.InvariantTheory.reduce_monomial":
            return self._count("invariants.reduce_monomial_calls", fn)
        before = after = None
        if qualname == "linalg.rref":
            before = self._before_rref
        elif qualname == "pbw.CherednikAlgebra.multiply":
            before, after = self._before_multiply, self._after_multiply
        elif qualname == "pbw.CherednikAlgebra.skew_multiply":
            before = self._before_product
        elif qualname == "restricted.RestrictedCherednikAlgebra.center":
            after = self._after_center
        return self._span(layer, qualname, fn, before, after)

    # ---- installation -------------------------------------------------------
    def install(self):
        replaced = {}   # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"cherednik.{layer}")
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or f"{layer}.{name}" in UNWRAPPED
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(layer, f"{layer}.{name}",
                                                   obj)
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj)
        for mod in [m for n, m in sys.modules.items()
                    if n == "cherednik" or n.startswith("cherednik.")]:
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._set(mod, name, obj, wrapper)
        cyclotomic = importlib.import_module("cherednik.cyclotomic")
        for name in CYC_OPERATORS:
            fn = vars(cyclotomic.Cyc)[name]
            self._set(cyclotomic.Cyc, name, fn,
                      self._count("cyclotomic.cyc_ops", fn))
        comalg = importlib.import_module("cherednik.comalg")
        # one factorization of a minimal polynomial per split attempt
        self._set(comalg, "_factor_over_q", comalg._factor_over_q,
                  self._count("comalg.split_calls", comalg._factor_over_q))

    def _install_methods(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            qualname = f"{layer}.{cls.__name__}.{name}"
            if (name.startswith("_") or qualname in UNWRAPPED
                    or isinstance(attr, property)):
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self._wrap(layer, qualname,
                                                attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(layer, qualname, attr)
            else:
                continue
            self._set(cls, name, attr, wrapped)

    def _set(self, owner, name, original, wrapper):
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # ---- results ------------------------------------------------------------
    def summary(self):
        """Per-layer self time, call counts, stage times and counters."""
        spans = self.spans
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        stage_s = dict.fromkeys(STAGES.values(), 0.0)
        stage_anc = [-1] * len(spans)   # nearest enclosing stage span
        for i, (layer, name, parent, t0, t1) in enumerate(spans):
            dur = t1 - t0
            self_s[layer] += dur
            calls[layer] += 1
            if parent >= 0:
                self_s[spans[parent][0]] -= dur
                stage_anc[i] = (parent if spans[parent][1] in STAGES
                                else stage_anc[parent])
            if name in STAGES:
                stage_s[STAGES[name]] += dur
                if stage_anc[i] >= 0:
                    stage_s[STAGES[spans[stage_anc[i]][1]]] -= dur
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out["linalg.calls"] = calls["linalg"]
        out.update(stage_s)
        out.update(self.counts)
        tc = self.counts["restricted.table_calls"]
        out["restricted.table_hit_ratio"] = (
            (tc - self.counts["restricted.table_products"]) / tc
            if tc else 0.0)
        out["trace.spans"] = len(spans)
        return out

    def write_spans(self, path, origin):
        """Write every span as one JSON line, times relative to ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent,
                                     "layer": layer, "name": name,
                                     "start": round(t0 - origin, 9),
                                     "end": round(t1 - origin, 9)}) + "\n")
