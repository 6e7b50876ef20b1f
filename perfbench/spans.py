"""Spans around sharplat's public entry points, for the traced run.

Each wrapped call records a span ``[name, parent, start, end, nested]``
in memory; ``parent`` is the index of the enclosing span or -1.  A
span's self time is its duration minus the durations of its direct
children (the run is single-threaded, so children never overlap).

Wrappers replace the entry point in its defining module and in every
other ``sharplat`` module that bound the same object by name (for
example ``cli.parse_lattice`` or ``constructions.prime_witness``);
otherwise calls from inside the package would escape the trace.  The
two lattice classes are traced by patching their ``__init__``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import statistics
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute); attribute "Class.__init__" patches a class
ENTRY_POINTS = {
    "cli.main": ("sharplat.cli", "main"),
    "core.parse_lattice": ("sharplat.core", "parse_lattice"),
    "core.parse_poset": ("sharplat.core", "parse_poset"),
    "core.poset_build": ("sharplat.core", "FinitePoset.__init__"),
    "core.lattice_build": ("sharplat.core", "FiniteMultLattice.__init__"),
    "enumeration.census": ("sharplat.enumeration", "census"),
    "enumeration.enumerate_structures": ("sharplat.enumeration", "enumerate_structures"),
    "predicates.sharpness_report": ("sharplat.predicates", "sharpness_report"),
    "predicates.theorem_audit": ("sharplat.predicates", "theorem_audit"),
    "predicates.is_sharp": ("sharplat.predicates", "is_sharp"),
    "predicates.lattice_profile": ("sharplat.predicates", "lattice_profile"),
    "predicates.element_profile": ("sharplat.predicates", "element_profile"),
    "predicates.principal_elements": ("sharplat.predicates", "principal_elements"),
    "predicates.prime_witness": ("sharplat.predicates", "prime_witness"),
    "predicates.principal_monoid": ("sharplat.predicates", "principal_monoid"),
    "constructions.localize": ("sharplat.constructions", "localize"),
    "constructions.quotient": ("sharplat.constructions", "quotient"),
    "exemplars.nideal": ("sharplat.exemplars", "nideal_selftest"),
    "exemplars.r1": ("sharplat.exemplars", "r1_selftest"),
    "exemplars.zminus": ("sharplat.exemplars", "zminus_selftest"),
}

# Per-layer metrics, in the order BENCHMARK.json lists them:
# metric name -> (unit, span name, what to read from the span totals).
_SIMPLE = ("is_sharp", "lattice_profile", "element_profile",
           "principal_elements", "prime_witness", "principal_monoid")
LAYER_METRICS = {
    "enumeration.enumerate_s": ("s", "enumeration.enumerate_structures", "inclusive"),
    "enumeration.search_self_s": ("s", "enumeration.enumerate_structures", "self"),
    "enumeration.structures": ("count", "enumeration.enumerate_structures", "yields"),
    "enumeration.census_self_s": ("s", "enumeration.census", "self"),
    "core.lattice_build_s": ("s", "core.lattice_build", "inclusive"),
    "core.lattices_built": ("count", "core.lattice_build", "succeeded"),
    "core.lattices_rejected": ("count", "core.lattice_build", "raised"),
    "core.poset_build_s": ("s", "core.poset_build", "inclusive"),
    "core.posets_built": ("count", "core.poset_build", "succeeded"),
    "core.parse_s": ("s", ("core.parse_lattice", "core.parse_poset"), "inclusive"),
    "predicates.sharpness_report_s": ("s", "predicates.sharpness_report", "inclusive"),
    "predicates.sharpness_report_calls": ("count", "predicates.sharpness_report", "calls"),
    "predicates.theorem_audit_self_s": ("s", "predicates.theorem_audit", "self"),
    "predicates.theorem_audit_calls": ("count", "predicates.theorem_audit", "calls"),
    **{
        f"predicates.{name}_{kind}": (unit, f"predicates.{name}", field)
        for name in _SIMPLE
        for kind, unit, field in (("s", "s", "inclusive"), ("calls", "count", "calls"))
    },
    **{
        f"constructions.{name}_{kind}": (unit, f"constructions.{name}", field)
        for name in ("localize", "quotient")
        for kind, unit, field in (("s", "s", "inclusive"), ("calls", "count", "calls"))
    },
    "exemplars.nideal_s": ("s", "exemplars.nideal", "inclusive"),
    "exemplars.r1_s": ("s", "exemplars.r1", "inclusive"),
    "exemplars.zminus_s": ("s", "exemplars.zminus", "inclusive"),
    "cli.self_s": ("s", "cli.main", "self"),
    # filled in by the runner: traced pass wall time minus untraced
    "trace.overhead_s": ("s", None, None),
}


class Tracer:
    """Records spans while installed; ``totals`` summarises them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- recording ----------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, 0.0, 0.0, self._depth[name] > 0]
        self.spans.append(rec)
        self._stack.append(index)
        self._depth[name] += 1
        rec[2] = perf_counter()
        return index

    def _exit(self, index: int) -> None:
        end = perf_counter()
        rec = self.spans[index]
        rec[3] = end
        self._stack.pop()
        self._depth[rec[0]] -= 1

    def _wrap(self, name: str, fn):
        tracer = self
        counts = self.counts

        if inspect.isgeneratorfunction(fn):
            # the work happens while the generator runs, so each resume
            # is its own span; yields count the items it produced
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                counts[name + ".calls"] += 1
                gen = fn(*args, **kwargs)
                while True:
                    index = tracer._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(index)
                    counts[name + ".yields"] += 1
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            index = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                tracer._exit(index)

        return traced

    # -- patching -----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point of the already imported package."""
        modules = [m for k, m in sys.modules.items() if k == "sharplat" or k.startswith("sharplat.")]
        for name, (module_name, attr) in ENTRY_POINTS.items():
            module = sys.modules[module_name]
            if attr.endswith(".__init__"):
                cls = getattr(module, attr.split(".")[0])
                self._patch(cls, "__init__", self._wrap(name, cls.__init__))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def patched_bindings(self) -> list[str]:
        """``module.attribute`` for every binding replaced, for the
        run's metadata."""
        return sorted(
            f"{getattr(owner, '__module__', '')}.{owner.__name__}.{key}".lstrip(".")
            if isinstance(owner, type)
            else f"{owner.__name__}.{key}"
            for owner, key, _ in self._patched
        )

    # -- summaries ----------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive and self seconds, calls, resumes
        that raised, successful calls and generator yields."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, _, start, end, nested) in enumerate(self.spans):
            entry = out[name]
            if not nested:
                entry["inclusive"] += end - start
            entry["self"] += end - start - child[i]
        for key, value in self.counts.items():
            name, field = key.rsplit(".", 1)
            out[name][field] += value
        for entry in out.values():
            entry["succeeded"] = entry["calls"] - entry["raised"]
        return out


def layer_values(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (all but the overhead)."""
    values = {}
    for metric, (unit, spans, field) in LAYER_METRICS.items():
        if spans is None:
            continue
        names = spans if isinstance(spans, tuple) else (spans,)
        value = sum(totals.get(n, {}).get(field, 0.0) for n in names)
        values[metric] = int(value) if unit == "count" else value
    return values


def median_metrics(layers: list[dict[str, float]]) -> dict[str, dict]:
    """Each per-layer metric as the median over traced passes.  Counts
    repeat exactly from pass to pass; ``median_low`` keeps them whole."""
    out = {}
    for metric, (unit, spans, _) in LAYER_METRICS.items():
        if spans is None:
            continue
        median = statistics.median_low if unit == "count" else statistics.median
        out[metric] = {"value": median([layer[metric] for layer in layers]), "unit": unit}
    return out
