"""Spans around the package's layer boundaries, installed from outside it.

Each target below is a public function or method of one package module.
Installing the tracer replaces every binding of that function object in the
loaded ``momentangle`` modules (``from .homology import reduced_homology``
creates a second binding in ``moment_angle``) and on its class, so calls are
caught whichever name they go through.  A target that no longer exists is
skipped and simply reports zero calls.

Spans are ``(id, parent id, name, start ns, end ns)`` tuples kept in memory;
self time is a span's duration minus its children's, so the self times of
all spans add up to the root span exactly.  Tracing is for one process: run
the traced pass with one worker.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from itertools import count
from time import perf_counter_ns

ROOT = "bench.pass"

TARGETS = {
    "moment_angle": ["moment_angle_cohomology", "bigraded_table"],
    "simplicial": ["SimplicialComplex.full_subcomplex", "join"],
    "homology": [
        "reduced_homology",
        "boundary_matrix",
        "smith_normal_form",
        "invariant_factors",
        "cohomology_from_homology",
    ],
    "polytopes": [
        "SimplePolytope.cut_vertex",
        "SimplePolytope.dual_complex",
        "product",
        "polygon",
        "cube",
        "simplex_polytope",
    ],
    "surgery": [
        "predict_cut_betti",
        "verify_cut_theorem",
        "verify_all_cuts",
        "theorem_corpus",
        "boundary_product_groups",
        "sphere_product_sum_groups",
        "connected_sum_groups",
    ],
    "isotopy": [
        "endpoint_checks",
        "injectivity_probe",
        "standard_map",
        "isotopy_map",
        "f1_map",
        "standard_torus_batch",
        "isotopy_batch",
        "f1_batch",
        "circle_distance",
    ],
    "cli": [
        "main",
        "parse_expression",
        "cmd_betti",
        "cmd_verify",
        "cmd_verify_corpus",
        "cmd_isotopy_check",
    ],
}

MOMENT_ANGLE_ENTRIES = ("moment_angle.moment_angle_cohomology", "moment_angle.bigraded_table")
VERIFY_ENTRIES = ("surgery.verify_cut_theorem", "surgery.verify_all_cuts")


def _count_subsets(t, parent, args, result):
    if args:
        t.counts["moment_angle.subsets_enumerated"] += 1 << getattr(args[0], "vertex_count", 0)


def _count_computed(t, parent, args, result):
    if parent in MOMENT_ANGLE_ENTRIES:
        t.counts["moment_angle.subsets_computed"] += 1


def _count_entries(t, parent, args, result):
    t.counts["homology.boundary_matrix.entries"] += (
        getattr(result, "rows", 0) * getattr(result, "cols", 0)
    )


def _count_snf(t, parent, args, result):
    if args:
        side = max(getattr(args[0], "rows", 0), getattr(args[0], "cols", 0))
        key = "homology.smith_normal_form.max_side"
        t.maxima[key] = max(t.maxima[key], side)
    if isinstance(result, tuple) and result:
        t.counts["homology.smith_normal_form.nonunit"] += sum(1 for x in result[0] if x > 1)


def _count_reports(t, parent, args, result):
    if parent not in VERIFY_ENTRIES:  # a nested verify call's reports are counted once
        reports = result if isinstance(result, list) else [result]
        t.counts["surgery.reports"] += len(reports)
        t.counts["surgery.matches"] += sum(1 for r in reports if getattr(r, "match", False))


# counters read from arguments and results; getattr keeps a changed engine
# from crashing the benchmark
HOOKS = {
    "moment_angle.moment_angle_cohomology": _count_subsets,
    "moment_angle.bigraded_table": _count_subsets,
    "homology.reduced_homology": _count_computed,
    "homology.boundary_matrix": _count_entries,
    "homology.smith_normal_form": _count_snf,
    "surgery.verify_cut_theorem": _count_reports,
    "surgery.verify_all_cuts": _count_reports,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack: list[tuple[int, str]] = [(0, "")]
        self._ids = count(1)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        hook = HOOKS.get(name)
        stack, ids, record = self._stack, self._ids, self.spans.append

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append((sid, name))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                record((sid, parent[0], name, start, end))
            if hook is not None:
                hook(self, parent[1], args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        package = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "momentangle" or name.startswith("momentangle."))
        ]
        for layer, targets in TARGETS.items():
            module = sys.modules.get(f"momentangle.{layer}")
            if module is None:
                continue
            for target in targets:
                self._install_one(package, module, layer, target)

    def _install_one(self, package, module, layer: str, target: str) -> None:
        owner_name, _, attr = target.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if isinstance(owner, type) else None
        else:
            owner, original = module, getattr(module, attr, None)
        if not callable(original):
            return
        wrapper = self.wrap(f"{layer}.{attr}", original)
        if isinstance(owner, type):
            self._rebind(owner, attr, wrapper)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reading ------------------------------------------------------------

    def self_times_ns(self) -> dict[int, int]:
        covered: Counter = Counter()
        for _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        return {sid: end - start - covered[sid] for sid, _, _, start, end in self.spans}

    def summary(self, scale: float = 1.0) -> dict:
        """Calls, inclusive and self seconds per span name and per layer.

        Seconds are multiplied by ``scale``; ``self_sum_exact`` is checked
        on the integer nanoseconds.
        """
        self_ns = self.self_times_ns()
        calls: Counter = Counter()
        incl: Counter = Counter()
        own: Counter = Counter()
        layer_own: Counter = Counter()
        root_ns = 0
        for sid, parent, name, start, end in self.spans:
            calls[name] += 1
            incl[name] += end - start
            own[name] += self_ns[sid]
            layer_own[name.split(".")[0]] += self_ns[sid]
            if parent == 0:
                root_ns += end - start
        per_ns = scale / 1e9
        return {
            "calls": calls,
            "inclusive_s": {k: v * per_ns for k, v in incl.items()},
            "self_s": defaultdict(float, {k: v * per_ns for k, v in own.items()}),
            "layer_self_s": defaultdict(float, {k: v * per_ns for k, v in layer_own.items()}),
            "root_s": root_ns * per_ns,
            "self_sum_exact": sum(layer_own.values()) == root_ns,
        }

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
