"""Per-layer tracing, installed from outside the package.

`install()` wraps the public functions of each layer module, a few public
methods, and each CLI command's callback.  Several modules import names
directly (poincare.besselJ, poincare.kloosterman_exact, cli.kloosterman_exact,
kloosterman.residue_ring), so every binding of a traced function object in
every hilbertpoincare.* module is rebound to its wrapper; run.py then checks
that each wrapper fired, or stayed silent, as predictions.json expects.

Each call records a span (name, start, end, parent) in flat in-memory
arrays; `report()` turns them into per-layer counts, span times and self
times, and `write_spans()` saves them when the run ends.  Counters that need
the package's internals (cache_info() of two lru_caches, len(_EXACT_CACHE),
private memo attributes) are read, never patched; when one of those
attributes no longer exists the counter is reported as unavailable.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("field", "ideals", "residues", "cyclotomic", "kloosterman", "bessel",
          "poincare", "cli")
# Public methods traced in addition to the module-level public functions.
METHODS = {
    "field": ("RealQuadraticField.balanced_representative",),
    "residues": ("ResidueRing.__init__", "ResidueRing.unit_data"),
    "cyclotomic": ("CyclotomicInteger.real_interval",
                   "CyclotomicInteger.complex_interval",
                   "CyclotomicInteger.is_zero"),
    "kloosterman": ("KloostermanQuery.__init__", "KloostermanQuery.trace_data"),
    "poincare": ("CoefficientEvaluator.term", "CoefficientEvaluator.classes_upto",
                 "CoefficientEvaluator.tail_bound", "CoefficientEvaluator.evaluate"),
}
PKG = "hilbertpoincare"
MISSING = object()


def _read(obj, path):
    """Follow a dotted attribute path, or return MISSING."""
    for part in path.split("."):
        obj = getattr(obj, part, MISSING)
        if obj is MISSING:
            return MISSING
    return obj


def _cache_misses(fn):
    info = getattr(fn, "cache_info", None)
    return info().misses if info is not None else None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.live: dict[str, float] = {}
        self.moduli: set = set()
        self.unavailable: set[str] = set()
        self.modules = {layer: importlib.import_module(f"{PKG}.{layer}")
                        for layer in LAYERS}

    # -- wrapping -----------------------------------------------------------
    def wrap(self, name, fn, hook=None):
        """A wrapper recording one span per call; hook(*args, **kwargs) may
        return a callback that receives the result."""
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            after = hook(*args, **kwargs) if hook is not None else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[idx] = clock()
            if after is not None:
                after(result)
            return result

        return functools.update_wrapper(traced, fn)

    def targets(self):
        """(span name, owner, attribute) for every traced callable."""
        out = []
        for layer, mod in self.modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    out.append((f"{layer}.{attr}", mod, attr))
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    out.append((f"{layer}.{path}", cls, meth))
                else:
                    self.unavailable.add(f"{layer}.{path}")
        for cmd_name, cmd in sorted(self.modules["cli"].main.commands.items()):
            out.append((f"cli.{cmd_name}", cmd, "callback"))
        return out

    def install(self):
        pkg_modules = [m for n, m in sys.modules.items()
                       if m is not None and (n == PKG or n.startswith(PKG + "."))]
        originals = {}
        for name, owner, attr in self.targets():
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, self._hook(name))
            setattr(owner, attr, wrapper)
            originals[id(fn)] = (fn, wrapper)
        for mod in pkg_modules:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        self.snapshot = self._snapshot()
        return self

    # -- counters read from outside ------------------------------------------
    def _bump(self, key, amount=1):
        self.live[key] = self.live.get(key, 0) + amount

    def _snapshot(self):
        mods = self.modules
        return {"cos_misses": _cache_misses(_read(mods["cyclotomic"], "_cos_table_fixed")),
                "factor_misses": _cache_misses(_read(mods["ideals"], "_factor_ideal_cached"))}

    def _hook(self, name):
        mods = self.modules
        if name == "residues.ResidueRing.__init__":
            def hook(ring, modulus, *args, **kwargs):
                key = getattr(modulus, "key", None)
                if key is None:
                    self.unavailable.add("residues.distinct_moduli")
                else:
                    self.moduli.add(key())
            return hook
        if name == "residues.ResidueRing.unit_data":
            def hook(ring):
                memo = getattr(ring, "_unit_data", MISSING)
                if memo is MISSING:
                    self.unavailable.add("residues.units_enumerated")
                elif memo is None:
                    return lambda units: self._bump("residues.units_enumerated", len(units))
            return hook
        if name == "cyclotomic.CyclotomicInteger.real_interval":
            table = _read(mods["cyclotomic"], "_cos_table_fixed")
            if _cache_misses(table) is None:
                self.unavailable.add("cyclotomic.cos_table_entries")
                return None

            def hook(value, *args, **kwargs):
                before = table.cache_info().misses

                def after(_):
                    if table.cache_info().misses > before:
                        self._bump("cyclotomic.cos_table_entries", value.order)
                return after
            return hook
        if name == "kloosterman.kloosterman_exact":
            cache = _read(mods["kloosterman"], "_EXACT_CACHE")
            if cache is MISSING:
                self.unavailable.add("kloosterman.exact_enumerated")

            def hook(*args, **kwargs):
                before = len(cache) if cache is not MISSING else None

                def after(value):
                    if before is not None and len(cache) != before:
                        self._bump("kloosterman.exact_enumerated")
                    order = getattr(value, "order", 0)
                    if order > self.live.get("kloosterman.max_order", 0):
                        self.live["kloosterman.max_order"] = order
                return after
            return hook
        if name == "bessel.besselj_eval":
            def hook(*args, **kwargs):
                self._bump("bessel.evals")

                def after(res):
                    if not getattr(res, "exact_enough", True):
                        self._bump("bessel.not_exact_enough")
                return after
            return hook
        if name == "poincare.CoefficientEvaluator.term":
            def hook(ev, *args, **kwargs):
                terms = getattr(ev, "_terms", MISSING)
                if terms is MISSING:
                    self.unavailable.add("poincare.terms_computed")
                    return None
                before, evals = len(terms), self.live.get("bessel.evals", 0)

                def after(_):
                    if len(terms) > before:
                        self._bump("poincare.terms_computed")
                        done = self.live.get("bessel.evals", 0) - evals
                        self._bump("bessel.skipped_at_cap", 2 - done)
                return after
            return hook
        if name == "poincare.CoefficientEvaluator.classes_upto":
            def hook(ev, *args, **kwargs):
                classes = getattr(ev, "_classes", MISSING)
                if classes is MISSING:
                    self.unavailable.add("poincare.classes")
                    return None
                before = len(classes)
                return lambda _: self._bump("poincare.classes", len(classes) - before)
            return hook
        return None

    # -- reporting ---------------------------------------------------------------
    def report(self):
        """Per-name and per-layer aggregates of the spans recorded so far."""
        n = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        layer_ids = [LAYERS.index(nm.split(".", 1)[0]) for nm in self.names]
        child = [0.0] * n
        anc = [0] * n           # bitmask of layers among a span's ancestors
        calls = [0] * len(self.names)
        span = [0.0] * len(self.names)
        self_t = [0.0] * len(self.names)
        layer_span = [0.0] * len(LAYERS)
        layer_self = [0.0] * len(LAYERS)
        for i in range(n):
            p = parents[i]
            dur = ends[i] - starts[i]
            if p >= 0:
                child[p] += dur
                anc[i] = anc[p] | (1 << layer_ids[names[p]])
            nid = names[i]
            calls[nid] += 1
            span[nid] += dur
            if not anc[i] >> layer_ids[nid] & 1:
                layer_span[layer_ids[nid]] += dur
        # a rung is one evaluate() called directly by certify_nonvanishing()
        ids = {nm: i for i, nm in enumerate(self.names)}
        certify = ids.get("poincare.certify_nonvanishing", -1)
        evaluate = ids.get("poincare.CoefficientEvaluator.evaluate", -2)
        rungs = 0
        for i in range(n):
            nid = names[i]
            s = ends[i] - starts[i] - child[i]
            self_t[nid] += s
            layer_self[layer_ids[nid]] += s
            if nid == evaluate and parents[i] >= 0 and names[parents[i]] == certify:
                rungs += 1
        cache_deltas = self._cache_deltas()
        by_name = {nm: {"calls": calls[i], "span_s": span[i], "self_s": self_t[i]}
                   for i, nm in enumerate(self.names)}
        layers = {layer: {"span_s": layer_span[i], "self_s": layer_self[i]}
                  for i, layer in enumerate(LAYERS)}
        return {"by_name": by_name, "layers": layers, "rungs": rungs, "spans": n,
                "live": dict(self.live), "moduli": len(self.moduli),
                "cache_deltas": cache_deltas,
                "unavailable": sorted(self.unavailable)}

    def _cache_deltas(self):
        now, then = self._snapshot(), self.snapshot
        out = {}
        for key, metric in (("cos_misses", "cyclotomic.cos_tables_built"),
                            ("factor_misses", "ideals.factor_cache_misses")):
            if now[key] is None or then[key] is None:
                self.unavailable.add(metric)
            else:
                out[metric] = now[key] - then[key]
        return out

    def write_spans(self, path):
        doc = {"names": self.names, "name": self.span_name.tolist(),
               "parent": self.span_parent.tolist(),
               "start": self.span_start.tolist(), "end": self.span_end.tolist()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install() -> Tracer:
    return Tracer().install()
