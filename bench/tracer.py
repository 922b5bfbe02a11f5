"""Outside-in tracer for one traced round.

The tracer wraps, from outside the program, the public functions and
methods of every covjord module (plus `suites._execute` and the `quad`
that `zeta` imports from scipy), and rebinds every module-level name that
refers to a wrapped function, so calls between modules go through the
wrappers too.  Nothing in the program changes; uninstall() restores it.

Three tiers, by how often a layer is entered:

  spans      fischer and every layer above it: each call is a span
             (id, name, parent span, start, end) kept in memory and written
             out at the end.
  aggregate  polynomials: tens to hundreds of thousands of calls a round,
             too many to keep one record each.  Calls go on the same stack as spans, so their
             time is subtracted from the enclosing span's self time, but
             only per-name totals are kept.
  counts     scalars (ParamPoly methods) and fractions.Fraction.__new__:
             millions of calls a round.  Every call is counted; only the
             outermost scalar call of a nest is timed.

Self time of a name is its duration minus the time covered by the calls it
made into wrapped code.  Inclusive time (`.s`) counts only the outermost
call of a name, so recursion is not counted twice.  The tracer assumes a
single thread: the traced CLI round runs with --jobs 1.
"""

from __future__ import annotations

import fractions
import importlib
import inspect
import itertools
import json
import time
import types

MODULES = ("scalars", "polynomials", "fischer", "jordan", "detpower", "weyl",
           "conformal", "rpq", "zeta", "suites", "cli")
COUNT_TIER = {"scalars"}
AGGREGATE_TIER = {"polynomials"}
DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__neg__", "__pow__", "__truediv__", "__eq__"}
EXTRA = (("zeta", "quad"), ("suites", "_execute"))
CACHED_LAYERS = ("detpower", "rpq")


def _poly_terms(result) -> int:
    return len(result.terms)


def _op_terms(result) -> int:
    return sum(len(c.terms) for c in result.terms.values())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_time: list[float] = []
        self.active: list[int] = []
        self.index: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.scalar_time = [0.0]
        self.scalar_depth = [0]
        self.fraction_new = [0]
        self.peak: dict[str, int] = {}
        self.mapped_compose = [0]
        self.pairings: list = []
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []
        self._caches: dict[str, list] = {layer: [] for layer in CACHED_LAYERS}
        self._cache_base: dict[str, tuple[int, int]] = {}

    # -- wrappers ---------------------------------------------------------

    def _slot(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.incl.append(0.0)
        self.self_time.append(0.0)
        self.active.append(0)
        self.index[name] = idx
        return idx

    def _counted(self, name: str, fn):
        idx = self._slot(name)
        calls, depth, total, stack = self.calls, self.scalar_depth, self.scalar_time, self.stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                depth[0] = 0
                total[0] += dur
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _timed(self, name: str, fn, record: bool, on_call=None, on_return=None):
        idx = self._slot(name)
        calls, incl, self_time, active = self.calls, self.incl, self.self_time, self.active
        stack, spans, ids = self.stack, self.spans, self._ids
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            parent = stack[-1] if stack else None
            parent_id = parent[2] if parent is not None else 0
            frame = [perf(), 0.0, next(ids) if record else parent_id]
            stack.append(frame)
            active[idx] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[idx] -= 1
                dur = end - frame[0]
                calls[idx] += 1
                self_time[idx] += dur - frame[1]
                if not active[idx]:
                    incl[idx] += dur
                if parent is not None:
                    parent[1] += dur
                if record:
                    spans.append((frame[2], idx, parent_id, frame[0], end))
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _peak_hook(self, name: str, size):
        peak = self.peak
        peak[name] = 0

        def on_return(result):
            k = size(result)
            if k > peak[name]:
                peak[name] = k

        return on_return

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        if layer in COUNT_TIER:
            return self._counted(full, fn)
        on_call = on_return = None
        if full == "polynomials.MPoly.__mul__":
            on_return = self._peak_hook(full, _poly_terms)
        elif full == "weyl.DiffOp.compose":
            on_return = self._peak_hook(full, _op_terms)
            mapped = self.mapped_compose

            def on_call(args, kwargs):
                if kwargs.get("coeff_map") is not None or len(args) > 2:
                    mapped[0] += 1
        elif full == "zeta.pair_power_with":
            pairings = self.pairings
            signature = inspect.signature(fn)

            def on_call(args, kwargs):
                # bound with defaults, so a default spelled out is the same call
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                pairings.append(tuple(bound.arguments.values()))
        return self._timed(full, fn, layer not in AGGREGATE_TIER, on_call, on_return)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("covjord")
        mods = {name: importlib.import_module(f"covjord.{name}") for name in MODULES}
        replaced: dict[int, object] = {}

        for layer, mod in mods.items():
            home = mod.__file__
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType):
                    if attr.startswith("_") or obj.__code__.co_filename != home:
                        continue
                    replaced[id(obj)] = self._wrap(layer, attr, obj)
                elif callable(obj) and hasattr(obj, "cache_info"):
                    inner = getattr(obj, "__wrapped__", None)
                    if getattr(getattr(inner, "__code__", None), "co_filename", None) != home:
                        continue
                    if layer in self._caches:
                        self._caches[layer].append(obj)
                    if not attr.startswith("_"):
                        replaced[id(obj)] = self._wrap(layer, attr, obj)
                elif (isinstance(obj, type) and obj.__module__ == mod.__name__
                      and not attr.startswith("_")):
                    self._wrap_class(layer, obj, home)
        for layer, attr in EXTRA:
            obj = getattr(mods[layer], attr)
            replaced[id(obj)] = self._wrap(layer, attr.lstrip("_"), obj)

        for mod in [pkg, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

        original_new = fractions.Fraction.__new__
        counter = self.fraction_new

        def counting_new(cls, *args, **kwargs):
            counter[0] += 1
            return original_new(cls, *args, **kwargs)

        self._restore.append((fractions.Fraction, "__new__", vars(fractions.Fraction)["__new__"]))
        fractions.Fraction.__new__ = staticmethod(counting_new)

        for layer, caches in self._caches.items():
            self._cache_base[layer] = self._cache_totals(caches)

    def _wrap_class(self, layer: str, cls: type, home: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn, kind = raw.__func__, type(raw)
            elif isinstance(raw, types.FunctionType):
                fn, kind = raw, None
            else:
                continue  # properties, cached properties, data
            if fn.__code__.co_filename != home:
                continue  # dataclass-generated methods
            wrapper = self._wrap(layer, f"{cls.__name__}.{attr}", fn)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @staticmethod
    def _cache_totals(caches) -> tuple[int, int]:
        hits = misses = 0
        for cached in caches:
            info = cached.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    # -- results ----------------------------------------------------------------

    def _get(self, table, name: str):
        idx = self.index.get(name)
        return 0 if idx is None else table[idx]

    def _layer_self(self, layer: str) -> float:
        if layer in COUNT_TIER:
            return self.scalar_time[0]
        prefix = layer + "."
        return sum(t for n, t in zip(self.names, self.self_time) if n.startswith(prefix))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; call after the traced section, before uninstall."""
        calls = lambda n: self._get(self.calls, n)
        incl = lambda n: self._get(self.incl, n)
        own = lambda n: self._get(self.self_time, n)
        out: dict[str, float] = {
            "scalars.ParamPoly.mul.calls": calls("scalars.ParamPoly.__mul__")
            + calls("scalars.ParamPoly.__rmul__"),
            "scalars.ParamPoly.add.calls": calls("scalars.ParamPoly.__add__")
            + calls("scalars.ParamPoly.__radd__"),
            "scalars.ParamPoly.of.calls": calls("scalars.ParamPoly.of"),
            "scalars.fraction_new.calls": self.fraction_new[0],
            "polynomials.MPoly.mul.calls": calls("polynomials.MPoly.__mul__"),
            "polynomials.MPoly.mul.self_s": own("polynomials.MPoly.__mul__"),
            "polynomials.MPoly.mul.peak_terms": self.peak["polynomials.MPoly.__mul__"],
            "polynomials.MPoly.diff.calls": calls("polynomials.MPoly.diff"),
            "polynomials.MPoly.diff.self_s": own("polynomials.MPoly.diff"),
            "polynomials.MPoly.exact_div.calls": calls("polynomials.MPoly.exact_div"),
            "polynomials.MPoly.exact_div.self_s": own("polynomials.MPoly.exact_div"),
            "polynomials.MPoly.compose.calls": calls("polynomials.MPoly.compose"),
            "fischer.apply_diffop.calls": calls("fischer.apply_diffop"),
            "fischer.apply_diffop.s": incl("fischer.apply_diffop"),
            "detpower.extract_Dst.calls": calls("detpower.extract_Dst"),
            "detpower.extract_Dst.s": incl("detpower.extract_Dst"),
            "detpower.brute_force_wave.calls": calls("detpower.brute_force_wave"),
            "detpower.brute_force_wave.s": incl("detpower.brute_force_wave"),
            "detpower.dst_grid_check.s": incl("detpower.dst_grid_check"),
            "weyl.DiffOp.compose.calls": calls("weyl.DiffOp.compose"),
            "weyl.DiffOp.compose.s": incl("weyl.DiffOp.compose"),
            "weyl.DiffOp.compose.peak_terms": self.peak["weyl.DiffOp.compose"],
            "weyl.DiffOp.compose_mapped.calls": self.mapped_compose[0],
            "weyl.fourier_conjugate.s": incl("weyl.fourier_conjugate"),
            "conformal.diagonal_substitute.calls": calls("conformal.diagonal_substitute"),
            "conformal.diagonal_substitute.s": incl("conformal.diagonal_substitute"),
            "conformal.dpi.calls": calls("conformal.dpi"),
            "conformal.bracket_covariance_residual.s": incl("conformal.bracket_covariance_residual"),
            "conformal.covariance_residual.s": incl("conformal.covariance_residual"),
            "rpq.f_chain.s": incl("rpq.f_chain"),
            "rpq.explicit_F.s": incl("rpq.explicit_F"),
            "zeta.numeric_zeta_check.s": incl("zeta.numeric_zeta_check"),
            "zeta.pair_power_with.calls": calls("zeta.pair_power_with"),
            "zeta.pair_power_with.distinct_ratio": (
                len(set(self.pairings)) / len(self.pairings) if self.pairings else 0.0),
            "zeta.quad.calls": calls("zeta.quad"),
            "zeta.quad.s": incl("zeta.quad"),
            "suites.build_checks.s": incl("suites.build_checks"),
            "suites.execute.s": incl("suites.execute"),
            "suites.unattributed_s": 0.0,  # set by the CLI round, which knows its wall time
            "trace.spans": len(self.spans),
        }
        for layer in MODULES:
            if layer != "cli":
                out[f"{layer}.self_s"] = self._layer_self(layer)
        for layer, caches in self._caches.items():
            hits, misses = self._cache_totals(caches)
            base_hits, base_misses = self._cache_base[layer]
            out[f"{layer}.cache.hits"] = hits - base_hits
            out[f"{layer}.cache.misses"] = misses - base_misses
        return out

    def write(self, path) -> None:
        """Spans and per-name totals as JSON; times in seconds from the
        first span's start."""
        origin = min((s[3] for s in self.spans), default=0.0)
        payload = {
            "names": self.names,
            "span_fields": ["id", "name", "parent", "start_s", "end_s"],
            "spans": [[i, n, p, round(a - origin, 7), round(b - origin, 7)]
                      for i, n, p, a, b in self.spans],
            "totals": {
                name: {"calls": c, "s": round(t, 6), "self_s": round(st, 6)}
                for name, c, t, st in zip(self.names, self.calls, self.incl, self.self_time)
                if c
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
