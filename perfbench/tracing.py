"""Span tracing of ``resgeo`` from outside the package.

:class:`Tracer` patches the benchmark's own process: every public function
of every ``resgeo`` module is replaced, in each module namespace that binds
it, by a wrapper that records a span; so are ``__init__`` of both Laplacian
classes and the dense kernels of ``numpy.linalg``.  Nothing under ``src/``
changes, and :meth:`Tracer.uninstall` puts every original back.

A span is ``[name, start, end, parent, job, failed, gn3]``: ``parent`` is
the index of the enclosing span (``-1`` at top level), ``job`` the job id
set by the caller, ``failed`` whether the call raised, and ``gn3`` the
computed ``m * n * min(m, n) / 1e9`` of a dense factorization (0 for
spans that are not kernels).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

import numpy as np

#: Kernels of ``numpy.linalg`` that are counted and timed.
NP_KERNELS = ("svd", "eigh", "eigvalsh", "solve", "cond")

#: Classes whose constructor is traced as a span of their module.
TRACED_CLASSES = ("DirectedLaplacian", "SignedLaplacianQ")

NAME, START, END, PARENT, JOB, FAILED, GN3 = range(7)


def _gn3(args):
    shape = np.shape(args[0]) if args else ()
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2:]
    return m * n * min(m, n) / 1e9


def public_functions(package):
    """``{qualified name: function}`` for every public function of a package.

    A function is public in the module that defines it when its name has
    no leading underscore.  The qualified name is ``<module>.<function>``
    with the package prefix dropped, e.g. ``graph.weight_balance``.
    """
    found = {}
    for module in package_modules(package):
        short = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                found[f"{short}.{name}"] = obj
    return found


def package_modules(package):
    """The package and all its submodules, imported."""
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return modules


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name, gn3=0.0):
        """Record a span around a block; wrappers and callers both use it."""
        stack, spans = self._stack, self.spans
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, False, gn3]
        stack.append(len(spans))
        spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        except BaseException:
            span[FAILED] = True
            raise
        finally:
            span[END] = time.perf_counter()
            stack.pop()

    def _wrap(self, name, fn, kernel=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, _gn3(args) if kernel else 0.0):
                return fn(*args, **kwargs)

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = package_modules(self.package)
        for qualname, fn in public_functions(self.package).items():
            wrapper = self._wrap(qualname, fn)
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    if obj is fn:
                        self._patch(module, attr, wrapper)
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for cls_name in TRACED_CLASSES:
                cls = vars(module).get(cls_name)
                if cls is not None and cls.__module__ == module.__name__:
                    self._patch(cls, "__init__",
                                self._wrap(f"{short}.{cls_name}", cls.__init__))
        for kernel in NP_KERNELS:
            self._patch(np.linalg, kernel,
                        self._wrap(f"np.{kernel}", getattr(np.linalg, kernel),
                                   kernel=True))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_of(name):
    return name.partition(".")[0]


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    Child intervals are clipped to the parent and merged, so overlapping or
    out-of-range children are not subtracted twice.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted((max(spans[c][START], start), min(spans[c][END], end))
                             for c in children.get(index, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def has_ancestor(spans, index, name):
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


#: Calls counted under every function in :func:`function_table`: the
#: dense kernels and the package's factorization routes.
COUNTED_UNDER = ("np.svd", "np.eigh", "np.eigvalsh", "np.solve", "np.cond",
                 "linalg.pseudoinverse", "linalg.sym_eig")


def function_table(spans, jobs):
    """Per-function calls, failures, self and inclusive seconds, per job.

    ``per_call`` counts, for one call of the function, the calls of each
    :data:`COUNTED_UNDER` name made under it, itself excluded.
    """
    own = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "failed": 0, "self_s": 0.0,
                                 "inclusive_s": 0.0, "under": defaultdict(int)})
    for index, span in enumerate(spans):
        row = table[span[NAME]]
        row["calls"] += 1
        row["failed"] += bool(span[FAILED])
        row["self_s"] += own[index]
        if not has_ancestor(spans, index, span[NAME]):
            row["inclusive_s"] += span[END] - span[START]
        if span[NAME] in COUNTED_UNDER:
            parent = span[PARENT]
            while parent >= 0:
                table[spans[parent][NAME]]["under"][span[NAME]] += 1
                parent = spans[parent][PARENT]
    out = {}
    for name in sorted(table):
        row = table[name]
        calls = row["calls"]
        out[name] = {
            "calls": calls / jobs,
            "failed": row["failed"] / jobs,
            "self_s": row["self_s"] / jobs,
            "inclusive_s": row["inclusive_s"] / jobs,
            "per_call": {k: v / calls for k, v in sorted(row["under"].items())},
        }
    return out


def layer_table(spans, jobs):
    """Per-layer calls and self seconds, per job."""
    own = self_times(spans)
    table = defaultdict(lambda: {"calls": 0.0, "self_s": 0.0})
    for index, span in enumerate(spans):
        row = table[layer_of(span[NAME])]
        row["calls"] += 1.0 / jobs
        row["self_s"] += own[index] / jobs
    return dict(sorted(table.items()))


#: Per-layer time metrics: metric -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "cli.load_graph_s": ("cli.load_graph",),
    "graph.construct_s": ("graph.DirectedLaplacian", "graph.SignedLaplacianQ",
                          "graph.validate_class_q", "graph.laplacian_from_edges"),
    "graph.balance_s": ("graph.weight_balance",),
    "graph.sym_pinv_s": ("graph.sym_pinv", "graph.pinv_via_shift"),
    "linalg.pinv_s": ("linalg.pseudoinverse", "linalg.svd"),
    "linalg.sym_eig_s": ("linalg.sym_eig",),
    "linalg.schur_s": ("linalg.schur_complement", "linalg.schur_sequential"),
    "linalg.solve_s": ("linalg.solve_conditioned",),
    "kron.reduce_s": ("kron.kron_reduce", "kron.kron_reduce_q"),
    "resistance.matrix_s": ("resistance.resistance_matrix_q",
                            "resistance.resistance_matrix_sc",
                            "resistance.resistance_matrix_scwb"),
    "resistance.pair_s": ("resistance.effective_resistance_directed",),
    "resistance.classify_s": ("resistance.classify_metric",
                              "resistance.q_from_distance"),
    "curvature.radius_s": ("curvature.curvature_radius_q",
                           "curvature.curvature_radius_sc",
                           "curvature.curvature_radius_scwb",
                           "curvature.subset_curvature_radius",
                           "curvature.sigma2_subset"),
    "curvature.undirect_s": ("curvature.undirect",),
    "curvature.identity_s": ("curvature.verify_fiedler_bapat",
                             "curvature.check_commutativity",
                             "curvature.check_noncommutativity",
                             "curvature.reduce_curvature_radius",
                             "curvature.wb_transform"),
    "maxvar.solve_s": ("maxvar.solve_maxvar", "maxvar.project_to_simplex",
                       "maxvar.characterize", "maxvar.verify_kkt",
                       "maxvar.variance"),
    "maxvar.exact_s": ("maxvar.solve_maxvar_exact",
                       "maxvar.find_negative_curvature_support_instance"),
    "embed.embed_s": ("embed.embed", "embed.export_coordinates",
                      "embed.read_coordinates"),
    "embed.geometry_s": ("embed.simplex_geometry",),
    "embed.angles_s": ("embed.verify_angles_geometric",),
    "verify.self_s": ("verify.run_verification",),
}

#: Per-layer call counts: metric -> span names it counts.
CALL_METRICS = {
    "graph.construct_calls": SELF_TIME_METRICS["graph.construct_s"],
    "linalg.pinv_calls": ("linalg.pseudoinverse",),
    "linalg.sym_eig_calls": ("linalg.sym_eig",),
    "linalg.schur_calls": SELF_TIME_METRICS["linalg.schur_s"],
    "np.svd_calls": ("np.svd",),
    "np.eigh_calls": ("np.eigh", "np.eigvalsh"),
    "np.solve_calls": ("np.solve",),
    "np.cond_calls": ("np.cond",),
    "kron.reduce_calls": SELF_TIME_METRICS["kron.reduce_s"],
}


def layer_metrics(spans, jobs):
    """The per-layer metrics of one traced run, per job.

    ``np.kernel_share`` and ``trace.*`` need job times and are added by the
    caller.  Time metrics are self times, so no second is counted twice.
    """
    own = self_times(spans)
    by_name_self = defaultdict(float)
    by_name_calls = defaultdict(int)
    metrics = {"cli.self_s": 0.0, "np.kernel_s": 0.0, "np.factor_gn3": 0.0,
               "maxvar.face_solves": 0, "resistance.classify_failed": 0}
    for index, span in enumerate(spans):
        name = span[NAME]
        by_name_self[name] += own[index]
        by_name_calls[name] += 1
        if name.startswith("cli.") and name != "cli.load_graph":
            metrics["cli.self_s"] += own[index]
        elif name.startswith("np."):
            metrics["np.kernel_s"] += span[END] - span[START]
            metrics["np.factor_gn3"] += span[GN3]
            if name == "np.solve" and has_ancestor(spans, index, "maxvar.solve_maxvar"):
                metrics["maxvar.face_solves"] += 1
        elif name == "resistance.classify_metric" and span[FAILED]:
            metrics["resistance.classify_failed"] += 1
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = sum(by_name_self[n] for n in names)
    for metric, names in CALL_METRICS.items():
        metrics[metric] = sum(by_name_calls[n] for n in names)
    return {k: v / jobs for k, v in metrics.items()}


def kernel_counts(spans):
    """``{kernel name: calls}`` over the given spans; repeats exactly."""
    counts = defaultdict(int)
    for span in spans:
        if span[NAME].startswith("np."):
            counts[span[NAME]] += 1
    return dict(sorted(counts.items()))

