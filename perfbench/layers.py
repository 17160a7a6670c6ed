"""Spans and per-layer metrics, recorded from outside the library.

The traced rounds of a benchmark run replace public names of
``wpkrylov`` with wrappers that record a span (name, start, end,
parent) for every call.  Spans stay in memory; the per-layer metrics
are computed from them after the round, and the spans are written out
when the run ends.  Nothing is patched outside :func:`instrument`, so
untraced rounds run the library exactly as its users do.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time

# (module, function, span name): wrapped wherever a wpkrylov module has
# imported them, so calls through ``from .linalg import cholesky`` are
# seen as well
_FUNCTIONS = [
    ("wpkrylov.cdr", "assemble", "cdr.assemble"),
    ("wpkrylov.schwarz", "build_partition", "schwarz.build_partition"),
    ("wpkrylov.schwarz", "build_preconditioner", "schwarz.build_preconditioner"),
    ("wpkrylov.solvers", "whp_gcr", "solvers.solve"),
    ("wpkrylov.solvers", "wp_gcr_right", "solvers.solve"),
    ("wpkrylov.linalg", "densify", "linalg.densify"),
    ("wpkrylov.linalg", "cholesky", "linalg.cholesky"),
    ("wpkrylov.linalg", "sym_eig", "linalg.eig"),
    ("wpkrylov.linalg", "gen_sym_eig", "linalg.eig"),
    ("wpkrylov.bounds", "compute_bound_report", "bounds.compute_bound_report"),
    ("wpkrylov.bounds", "fov_distance", "bounds.fov_distance"),
    ("wpkrylov.bounds", "spectral_radius_skew", "bounds.spectral_radius_skew"),
]

# (module, class, method, span name); ``__call__`` is an alias of ``apply``
# on these classes and is wrapped with it
_METHODS = [
    ("wpkrylov.schwarz", "SchwarzPreconditioner", "apply", "schwarz.apply"),
    ("wpkrylov.weighting", "PreconditionerHandle", "apply", "weighting.h_apply"),
    ("wpkrylov.weighting", "WeightOperator", "apply", "weighting.w_apply"),
    # construction runs the symmetry/positivity probe when validate=True
    ("wpkrylov.weighting", "WeightOperator", "__init__", "weighting.weight_init"),
]

# vectors stored per direction by the solvers the benchmark runs:
# (p, q, W q) for wp_gcr_right and (p, q, H q) for whp_gcr
STORED_VECTORS_PER_DIRECTION = 3


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent]``
    with ``parent`` the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the library's public layer boundaries for the duration of the block.

    The system operator ``A`` is wrapped by replacing
    ``AssembledCdr.operator`` with a version whose returned operator
    records a ``linalg.a_apply`` span per application.
    """
    from wpkrylov import cdr, linalg

    modules = [mod for name, mod in sys.modules.items()
               if (name == "wpkrylov" or name.startswith("wpkrylov.")) and mod is not None]
    restore: list[tuple] = []

    def patch(owner, attr, value):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        restore.append((owner, attr, original))
        setattr(owner, attr, value)

    try:
        for module_name, fn_name, span_name in _FUNCTIONS:
            original = getattr(sys.modules[module_name], fn_name)
            wrapped = tracer.wrap(span_name, original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    patch(mod, fn_name, wrapped)
        for module_name, cls_name, method, span_name in _METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            wrapped = tracer.wrap(span_name, original)
            if method == "apply" and cls.__dict__.get("__call__") is original:
                patch(cls, "__call__", wrapped)
            patch(cls, method, wrapped)

        make_operator = cdr.AssembledCdr.operator

        def traced_operator(self):
            op = make_operator(self)
            return linalg.LinearOperator(op.dim, tracer.wrap("linalg.a_apply", op.apply))

        patch(cdr.AssembledCdr, "operator", traced_operator)
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


class SpanTree:
    """Queries over the spans of one round."""

    def __init__(self, spans):
        self.spans = spans
        self._ancestors = []
        for name, _, _, parent in spans:
            chain = set()
            if parent >= 0:
                chain = self._ancestors[parent] | {spans[parent][0]}
            self._ancestors.append(chain)

    def _select(self, name, within, outside=None):
        for i, span in enumerate(self.spans):
            if (span[0] == name and (within is None or within in self._ancestors[i])
                    and outside not in self._ancestors[i]):
                yield i, span

    def count(self, name: str, within: str | None = None, outside: str | None = None) -> int:
        """Spans of this name under a span named ``within`` and under none named ``outside``."""
        return sum(1 for _ in self._select(name, within, outside))

    def total(self, name: str, within: str | None = None) -> float:
        """Wall time covered by spans of this name, not counting a span
        nested in another of the same name twice."""
        return sum(end - start for i, (_, start, end, _) in self._select(name, within)
                   if name not in self._ancestors[i])

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the part their direct children cover."""
        child_time: dict[int, float] = {}
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return sum(end - start - child_time.get(i, 0.0)
                   for i, (_, start, end, _) in self._select(name, None))


def _ratio(num, den):
    return num / den if den else 0.0


# name -> unit; the order is the order of the printed report
LAYER_UNITS = {
    "cdr.assemble_s": "s",
    "schwarz.partition_s": "s",
    "schwarz.factor_s": "s",
    "schwarz.apply_calls": "count",
    "schwarz.apply_s": "s",
    "schwarz.apply_ms": "ms",
    "weighting.h_apply_calls": "count",
    "weighting.w_apply_calls": "count",
    "weighting.probe_s": "s",
    "weighting.probe_h_applies": "count",
    "solvers.self_s": "s",
    "solvers.self_ms_per_iter": "ms",
    "solvers.h_applies_per_iter": "count",
    "solvers.a_applies": "count",
    "solvers.projections": "count",
    "solvers.orth_bytes_computed": "B",
    "solvers.breakdowns": "count",
    "linalg.a_apply_s": "s",
    "linalg.densify_calls": "count",
    "linalg.densify_s": "s",
    "linalg.eig_s": "s",
    "linalg.cholesky_calls": "count",
    "linalg.cholesky_s": "s",
    "bounds.report_self_s": "s",
    "bounds.fov_distance_s": "s",
    "bounds.spectral_radius_skew_s": "s",
}


def layer_metrics(spans, facts: dict) -> dict:
    """Per-layer values of one traced round.

    ``spans`` must hold a ``setup`` and a ``compute`` span at the top;
    ``facts`` carries what the solve result reports: ``iterations``,
    ``projections``, ``breakdowns`` and the dimension ``n``.
    """
    tree = SpanTree(spans)
    iterations = facts["iterations"]
    apply_calls = tree.count("schwarz.apply", "compute")
    apply_s = tree.total("schwarz.apply", "compute")
    solver_self = tree.self_time("solvers.solve")
    return {
        "cdr.assemble_s": tree.total("cdr.assemble"),
        "schwarz.partition_s": tree.total("schwarz.build_partition"),
        "schwarz.factor_s": tree.total("schwarz.build_preconditioner"),
        "schwarz.apply_calls": apply_calls,
        "schwarz.apply_s": apply_s,
        "schwarz.apply_ms": 1e3 * _ratio(apply_s, apply_calls),
        # a weight built on the handle (W = H without the probe) applies H
        # through it; those calls are counted as weight applies only
        "weighting.h_apply_calls": tree.count("weighting.h_apply", "compute", "weighting.w_apply"),
        "weighting.w_apply_calls": tree.count("weighting.w_apply", "compute"),
        "weighting.probe_s": tree.total("weighting.weight_init"),
        "weighting.probe_h_applies": tree.count("schwarz.apply", "weighting.weight_init"),
        "solvers.self_s": solver_self,
        "solvers.self_ms_per_iter": 1e3 * _ratio(solver_self, iterations),
        "solvers.h_applies_per_iter": _ratio(tree.count("schwarz.apply", "solvers.solve"),
                                             iterations),
        "solvers.a_applies": tree.count("linalg.a_apply", "solvers.solve"),
        "solvers.projections": facts["projections"],
        "solvers.orth_bytes_computed": (facts["projections"] * STORED_VECTORS_PER_DIRECTION
                                        * facts["n"] * 8),
        "solvers.breakdowns": facts["breakdowns"],
        "linalg.a_apply_s": tree.total("linalg.a_apply", "compute"),
        "linalg.densify_calls": tree.count("linalg.densify"),
        "linalg.densify_s": tree.total("linalg.densify"),
        "linalg.eig_s": tree.total("linalg.eig"),
        "linalg.cholesky_calls": tree.count("linalg.cholesky"),
        "linalg.cholesky_s": tree.total("linalg.cholesky"),
        "bounds.report_self_s": tree.self_time("bounds.compute_bound_report"),
        "bounds.fov_distance_s": tree.total("bounds.fov_distance"),
        "bounds.spectral_radius_skew_s": tree.total("bounds.spectral_radius_skew"),
    }


def median_per_key(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
