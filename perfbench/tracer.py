"""Span recorder that wraps finring's public functions from the outside.

Every function is replaced in each finring module that holds a reference
to it (theorems and cli import them by name), and PolyFunctionSet.lookup is
replaced on the class.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# Span name -> (module, attribute) of the function it times.
LAYERS = {
    "cli.report": ("finring.cli", "cmd_report"),
    "cli.check": ("finring.cli", "cmd_check"),
    "cli.sweep": ("finring.cli", "cmd_sweep"),
    "catalog.realize": ("finring.catalog", "realize"),
    "catalog.standard_catalog": ("finring.catalog", "standard_catalog"),
    "core.validate_ring": ("finring.core", "validate_ring"),
    "core.analyze": ("finring.core", "analyze"),
    "core.local_decomposition": ("finring.core", "local_decomposition"),
    "core.residue_field": ("finring.core", "residue_field"),
    "polyfun.polynomial_function_set": ("finring.polyfun", "polynomial_function_set"),
    "polyfun.lookup": ("finring.polyfun", "PolyFunctionSet.lookup"),
    "polyfun.interpolate_field": ("finring.polyfun", "interpolate_field"),
    "polyfun.power_stabilization": ("finring.polyfun", "power_stabilization"),
    "theorems.L1.1": ("finring.theorems", "check_reachability_iff_field"),
    "theorems.P1.2": ("finring.theorems", "check_bijections_iff_field"),
    "theorems.P1.3": ("finring.theorems", "check_char_functions_iff_field"),
    "theorems.P2.1": ("finring.theorems", "verify_subring_char_function"),
    "theorems.L2.2": ("finring.theorems", "check_nilpotent_shift_powers"),
    "theorems.P2.3i": ("finring.theorems", "check_unit_order_bound"),
    "theorems.P2.3ii": ("finring.theorems", "check_unit_exponent_nilpotency"),
    "theorems.L2.4": ("finring.theorems", "check_residue_field_bound"),
    "theorems.L2.5": ("finring.theorems", "check_spectrum_bound"),
    "theorems.P2.6fwd": ("finring.theorems", "check_char_from_image"),
    "theorems.P2.6lift": ("finring.theorems", "check_residue_lift"),
    "theorems.P2.7": ("finring.theorems", "classify_char_function_existence"),
    "theorems.R2.8": ("finring.theorems", "check_char_support_cosets"),
}
CACHED = ("core.analyze", "polyfun.polynomial_function_set")
MODULES = ("finring", "finring.core", "finring.polyfun", "finring.catalog",
           "finring.theorems", "finring.cli")
# Checks that call lookup for its status only and drop the witness.
STATUS_ONLY = ("theorems.P1.2", "theorems.P1.3")


class Tracer:
    """Records (name, start, end, parent) for every call into a wrapped layer."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cache0: dict[str, tuple[int, int]] = {}
        self.builds: list = []        # function sets built while traced
        self.enabled = True

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans (the oracle's own use of finring)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def _wrap_function_set(self, fn):
        """polynomial_function_set, also noting each set a cache miss built."""
        timed = self._wrap("polyfun.polynomial_function_set", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = fn.cache_info().misses
            pset = timed(*args, **kwargs)
            if self.enabled and fn.cache_info().misses != misses:
                self.builds.append(pset)
            return pset

        traced.cache_info = fn.cache_info
        traced.cache_clear = fn.cache_clear
        return traced

    def install(self) -> None:
        for name, (module, attr) in LAYERS.items():
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
                continue
            original = getattr(owner, attr)
            if name in CACHED:
                info = original.cache_info()
                self._cache0[name] = (info.hits, info.misses)
            if name == "polyfun.polynomial_function_set":
                wrapped = self._wrap_function_set(original)
            else:
                wrapped = self._wrap(name, original)
            for mod_name in MODULES:
                mod = importlib.import_module(mod_name)
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _cache_delta(self, name: str) -> tuple[int, int]:
        module, attr = LAYERS[name]
        info = getattr(sys.modules[module], attr).cache_info()
        hits0, misses0 = self._cache0[name]
        return info.hits - hits0, info.misses - misses0

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures: call counts, and inclusive and self time as a
        percentage of ``wall_s``, the time of the traced ops."""
        total = dict.fromkeys(LAYERS, 0.0)
        own = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            own[name] += end - start
            calls[name] += 1
            if parent >= 0:
                p = self.spans[parent]
                own[p[0]] -= end - start
        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.pct"] = 100.0 * total[name] / wall_s
            out[f"{name}.self_pct"] = 100.0 * own[name] / wall_s
            out[f"{name}.calls"] = calls[name]
        for name in CACHED:
            hits, misses = self._cache_delta(name)
            out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        fset = "polyfun.polynomial_function_set"
        tables = [p for p in self.builds if p.tables is not None]
        out[f"{fset}.builds"] = len(self.builds)
        out[f"{fset}.rows"] = sum(len(p.tables) for p in tables)
        out[f"{fset}.bytes_computed"] = sum(p.tables.nbytes + p.witnesses.nbytes for p in tables)
        out[f"{fset}.truncated"] = sum(not p.complete for p in self.builds)
        out["polyfun.interpolate_field.useful_ratio"] = self._useful_interpolations()
        return out

    def _useful_interpolations(self) -> float:
        """Share of interpolations whose polynomial reaches a caller that keeps it."""
        spans = self.spans
        all_ = wasted = 0
        for name, _, _, parent in spans:
            if name != "polyfun.interpolate_field":
                continue
            all_ += 1
            if parent >= 0 and spans[parent][0] == "polyfun.lookup":
                grand = spans[parent][3]
                wasted += grand >= 0 and spans[grand][0] in STATUS_ONLY
        return (all_ - wasted) / all_ if all_ else 0.0
