"""Outside-in tracing of taumut's layers for the traced benchmark run.

The tracer replaces each layer's entry function with a wrapper that records
a span (name, start, end, parent) and the layer's work counts.  A function
imported with ``from .x import y`` is a separate binding in every module
that imported it, so the wrapper is installed in every ``taumut`` namespace
that holds the original, not only in the defining module; patching only the
definition would silently miss the calls made through those bindings.

Nothing here runs on import.  Untraced runs never call ``Tracer.install``,
and ``wrapped_names`` lets them prove it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Marks a wrapper so that a run can check whether any are installed.
MARK = "_perfbench_span"

# (span name, defining module, function name).  Two functions may share a
# span name; their calls and self time add up.
SPANS = (
    ("linalg.rref", "taumut.linalg", "_rref_rows"),
    ("modules.hom_basis", "taumut.modules", "hom_basis"),
    ("modules.tau", "taumut.modules", "minimal_projective_presentation"),
    ("modules.tau", "taumut.modules", "nakayama_functor_map"),
    ("modules.end_data", "taumut.modules", "end_data"),
    ("modules.decompose", "taumut.modules", "decompose"),
    ("modules.indec_iso", "taumut.modules", "_indec_iso"),
    ("modules.top_socle", "taumut.modules", "top_components"),
    ("modules.top_socle", "taumut.modules", "socle_components"),
    ("tautilt.explore", "taumut.tautilt", "explore"),
    ("tautilt.left_mutate", "taumut.tautilt", "left_mutate"),
    ("tautilt.pair_is_tau_rigid", "taumut.tautilt", "pair_is_tau_rigid"),
    ("smc.smc_of_vertex", "taumut.smc", "smc_of_vertex"),
    ("smc.check_smc_axioms", "taumut.smc", "check_smc_axioms"),
    ("smc.check_label_coincidence", "taumut.smc", "check_label_coincidence"),
    ("grothendieck.grothendieck_data", "taumut.grothendieck", "grothendieck_data"),
    ("grothendieck.duality_report", "taumut.grothendieck", "duality_report"),
    ("algebra.build_algebra", "taumut.algebra", "build_algebra"),
)


def _taumut_namespaces():
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "taumut" or name.startswith("taumut.")):
            yield module


def wrapped_names() -> list:
    """Every ``module.attribute`` in the taumut package that is a wrapper."""
    from taumut.modules import IsoRegistry

    found = [
        f"{module.__name__}.{attr}"
        for module in _taumut_namespaces()
        for attr, value in vars(module).items()
        if hasattr(value, MARK)
    ]
    found += [
        f"IsoRegistry.{attr}"
        for attr, value in vars(IsoRegistry).items()
        if hasattr(value, MARK)
    ]
    return found


class Tracer:
    """Spans and counts of one traced CLI invocation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [span index, time spent in child spans]
        self._patched = []  # (namespace, attribute, original)

    # -- spans -------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            record = [name, 0.0, 0.0, parent]
            spans.append(record)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[1], record[2] = start, end
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(args, result, parent)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _observe_rref(self, args, result, parent):
        # _rref_rows returns (rank, rows, pivots); rows keeps the input shape.
        rows = result[1]
        self.counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _observe_decompose(self, args, result, parent):
        self.counts["modules.decompose.summands"] += len(result)
        if parent >= 0 and self.spans[parent][0] == "tautilt.left_mutate":
            # explore caches the pair's top components before it mutates,
            # so the only decompose that left_mutate calls itself is the
            # split of the mutation cokernel.
            self.counts["tautilt.left_mutate.cokernel_summands"] += len(result)

    def _observe_indec_iso(self, args, result, parent):
        self.counts["modules.indec_iso.matches"] += bool(result)

    def _observe_left_mutate(self, args, result, parent):
        pair, position = args[0], args[1]
        others = set(pair.summand_ids) - {pair.summand_ids[position]}
        self.counts["tautilt.left_mutate.new_summands"] += len(
            set(result[0].summand_ids) - others
        )

    def _registry_hom(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def hom(registry, i, j):
            counts["modules.registry.hom_calls"] += 1
            if (i, j) in registry._hom:
                counts["modules.registry.hom_hits"] += 1
            return fn(registry, i, j)

        setattr(hom, MARK, "modules.registry.hom")
        return hom

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for module in _taumut_namespaces():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point in every taumut namespace."""
        import importlib
        import pkgutil

        import taumut
        from taumut.modules import IsoRegistry

        if self._patched:
            raise RuntimeError("tracer already installed")
        # A module imported after this point would bind the wrappers, and
        # uninstall would not know to restore it.
        for info in pkgutil.iter_modules(taumut.__path__, "taumut."):
            if not info.name.endswith(".__main__"):
                importlib.import_module(info.name)
        observers = {
            "_rref_rows": self._observe_rref,
            "decompose": self._observe_decompose,
            "_indec_iso": self._observe_indec_iso,
            "left_mutate": self._observe_left_mutate,
        }
        for name, module_name, attr in SPANS:
            original = getattr(importlib.import_module(module_name), attr)
            if hasattr(original, MARK):
                raise RuntimeError(f"{module_name}.{attr} is already wrapped")
            wrapper = self._span(name, original, observers.get(attr))
            self._replace_everywhere(original, wrapper)
        original_hom = vars(IsoRegistry)["hom"]
        self._patched.append((IsoRegistry, "hom", original_hom))
        IsoRegistry.hom = self._registry_hom(original_hom)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self seconds and counts, keyed by name."""
        explore_s = sum(
            end - start for name, start, end, _ in self.spans if name == "tautilt.explore"
        )
        return {
            "calls": {name: self.calls[name] for name, _, _ in SPANS},
            "self_s": {name: self.self_s[name] for name, _, _ in SPANS},
            "inclusive_s": {"tautilt.explore": explore_s},
            "counts": dict(self.counts),
        }

    def write_spans(self, path: str, op: str) -> None:
        """Write the spans of operation ``op``; parents index into the list."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"op": op, "fields": ["name", "start", "end", "parent"], "spans": self.spans},
                fh,
            )
