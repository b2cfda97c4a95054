"""The four benchmark workloads.

A workload picks its inputs from the workload seed once (:meth:`prepare`),
generates them in every timed set-up (:meth:`setup`), runs one job at a
time (:meth:`job`, the only timed call) and checks what a
job returned outside the timed region (:meth:`observe`, :meth:`problems`).
Each is a closed loop with a single client: the next job starts when the
previous one has returned.

Operations are counted per job by :class:`Ops`.  An operation is one
library call or one CLI invocation.  It fails when it raises
``ResgeoError``, exits nonzero, or returns a package self-check that did
not pass (a ``passed`` property that is false, a CLI residual above the
package threshold).  A failed operation is counted, not fatal, and the
calls that need its result are skipped.  Whether an operation fails
depends only on its input: every repetition of an input must attempt and
fail as many operations (:meth:`Workload.tally`).  A value that disagrees
with the benchmark's own reference, or differs between repetitions, is
wrong: it is a problem and fails the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from collections import defaultdict

import numpy as np

import inputs as gen

#: Relative tolerance of the benchmark's own reference checks.  Observed
#: errors are at most about 1e-9 on the inputs used; a wrong result is far
#: larger.
REFERENCE_TOL = 1e-8

#: Labels ``classify_metric`` may give a resistance matrix of a signed or
#: strongly connected weight-balanced Laplacian (strict negative type).
STRICT_LABELS = ("strict_negative_type", "resistance_metric")

#: log10 condition band of the signed inputs kept.  Above 10^6 the known
#: ``classify_metric``, ``Embedding`` and threshold defects show on every
#: input; below 10^7 the reference checks at REFERENCE_TOL stay within
#: reach of double precision (see README.md).
SIGNED_BAND = (6.0, 7.0)


class Ops:
    """Attempted and failed operations of one job.

    While ``tracer`` is set, each operation is also recorded as an
    ``op.<key>`` span around the call.
    """

    def __init__(self, error_type):
        self.error_type = error_type
        self.attempted = 0
        self.failed = 0
        self.pending = []
        self.tracer = None

    def span(self, key):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(f"op.{key}")

    def call(self, key, fn, *args):
        self.attempted += 1
        try:
            with self.span(key):
                return fn(*args)
        except self.error_type as exc:
            self.failed += 1
            self.pending.append((key, exc))
            return None


class FailureLog:
    """Failures by operation, keeping the first message of each."""

    def __init__(self, package_dir):
        self.package_dir = package_dir
        self.entries = {}

    def _site(self, exc):
        """``module.function`` of the innermost package frame that raised."""
        site = None
        tb = exc.__traceback__
        while tb is not None:
            code = tb.tb_frame.f_code
            if code.co_filename.startswith(self.package_dir):
                stem = os.path.splitext(os.path.basename(code.co_filename))[0]
                site = f"{stem}.{code.co_name}"
            tb = tb.tb_next
        return site

    def add(self, key, kind, message, site=None):
        entry = self.entries.setdefault(key, {
            "count": 0, "type": kind, "first_message": message, "raised_in": site})
        entry["count"] += 1

    def drain(self, ops):
        for key, exc in ops.pending:
            self.add(key, type(exc).__name__, str(exc), self._site(exc))
        ops.pending.clear()


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _rel(a, b):
    """Largest deviation of ``a`` from ``b``, relative to ``max(1, |b|)``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / max(1.0, np.abs(b).max()))


class Workload:
    """Shared bookkeeping: failures, result digests, problems."""

    name = ""
    #: Distinct inputs a job index cycles through.
    cycle = 1
    #: Results whose ``passed`` property is the package's own verdict.
    VERDICTS = ()

    def __init__(self, rg, seed, workdir):
        self.rg = rg
        self.seed = seed
        self.workdir = workdir
        self.inputs = []
        self.failures = FailureLog(os.path.dirname(rg.__file__) + os.sep)
        self.digests = defaultdict(set)
        self.checked = set()
        self.outcomes = {}
        self._problems = []

    def rng(self, *stream):
        return np.random.default_rng([self.seed, *stream])

    def prepare(self):
        """Untimed work before the set-ups: choosing which draws to use."""

    def expect(self, ok, text):
        if not ok and text not in self._problems:
            self._problems.append(text)

    def problems(self):
        for key, seen in sorted(self.digests.items()):
            self.expect(len(seen) == 1,
                        f"{key}: {len(seen)} different results across repetitions")
        return list(self._problems)

    def tally(self, index, ops):
        """Record the operations of job ``index``, after :meth:`observe`."""
        k = index % self.cycle
        outcome = (ops.attempted, ops.failed)
        self.expect(self.outcomes.setdefault(k, outcome) == outcome,
                    f"{self.name} input {k}: operations attempted, failed "
                    f"{outcome} after {self.outcomes[k]} in an earlier repetition")

    def distinct(self):
        """Attempted and failed operations of one input cycle, each call on
        each input counted once."""
        return (sum(a for a, _ in self.outcomes.values()),
                sum(f for _, f in self.outcomes.values()))

    def trace_jobs(self):
        """Job indices of one traced pass: one input cycle."""
        return list(range(self.cycle))

    def observe(self, index, result, ops):
        self.failures.drain(ops)
        if not result:
            return
        for key, name, residual in self.VERDICTS:
            value = result.get(name)
            if value is not None and not value.passed:
                ops.failed += 1
                self.failures.add(key, "check not passed",
                                  f"residual {residual(value):.3e}")
        k = index % self.cycle
        self.record(k, result)
        if k not in self.checked:
            self.checked.add(k)
            self.check(k, result)

    def digest(self, key, *arrays):
        self.digests[key].add(_digest(*arrays))


class CliPipeline(Workload):
    """CLI calls in process: argument parsing, input parsing and JSON emission."""

    name = "cli-pipeline"
    #: Input pairs (edge list, CSV) per cycle; one job runs one pair.  The
    #: work of the edge list's ``embed`` varies by about a third between
    #: draws, so several are averaged.
    cycle = 4
    n = 120
    density = 0.2
    signed_cond = SIGNED_BAND

    #: Residual fields and the package thresholds they are held to:
    #: ``IDENTITY_TOL`` (Fiedler-Bapat), ``CharacterizationReport.passed``,
    #: ``AngleCheck.passed`` and the ``verify`` suite's property thresholds.
    THRESHOLDS = {
        "fiedler_bapat": 1e-8,
        "support_curvature": 1e-8,
        "radius_value": 1e-8,
        "dihedral": 1e-9,
        "vertex": 1e-9,
        "resistance_invariance": 1e-9,
        "transform_vs_direct": 1e-8,
        "shifted_pinv": 1e-8,
    }

    def __init__(self, rg, seed, workdir):
        super().__init__(rg, seed, workdir)
        self.exit_codes = defaultdict(set)
        self.verdicts = {}
        self.out_bytes = {}

    def prepare(self):
        # Edge lists use streams 0 .. cycle-1; the CSVs' draws come after.
        self.csv_streams = gen.band_streams(self.n, self.seed, self.signed_cond,
                                            self.cycle, first=self.cycle)

    def setup(self):
        keep = ["--keep", ",".join(str(i) for i in range(1, self.n + 1, 2))]
        self.reference = {"scwb_edge_list": [], "signed_csv": []}
        self.inputs = []
        self.calls = []
        for k, stream in enumerate(self.csv_streams):
            adjacency = gen.scwb_adjacency(self.n, self.rng(k), self.density)
            edges_path = os.path.join(self.workdir, f"scwb_edges_{k}.txt")
            edges = gen.write_edge_list(edges_path, adjacency)
            q, gram, signed_info = gen.signed_gram_laplacian(self.n, self.rng(stream))
            csv_path = os.path.join(self.workdir, f"signed_laplacian_{k}.csv")
            gen.write_matrix_csv(csv_path, q)
            self.reference["scwb_edge_list"].append(gen.scwb_resistance(adjacency))
            self.reference["signed_csv"].append(gen.resistance_from_kernel(gram))
            self.inputs += [gen.describe(self.n, edges, kind="scwb_edge_list"),
                            dict(signed_info, kind="signed_csv")]
            calls = []
            for command in ("check", "resistance", "curvature", "maxvar", "embed",
                            "balance", "kron"):
                calls.append((command, "scwb_edge_list", [command, edges_path]
                              + (keep if command == "kron" else [])))
            for command in ("check", "resistance", "curvature", "maxvar", "embed", "kron"):
                calls.append((command, "signed_csv", [command, csv_path, "--as-laplacian"]
                              + (keep if command == "kron" else [])))
            self.calls.append(calls)

    def job(self, index, ops):
        main = self.rg.cli.main
        outputs = []
        for command, source, argv in self.calls[index % self.cycle]:
            key = f"{command}[{source}]"
            buffer = io.StringIO()
            with ops.span(f"cli.{key}"), contextlib.redirect_stdout(buffer):
                code = main(argv)
            ops.attempted += 1
            ops.failed += code != 0
            outputs.append((key, code, buffer.getvalue()))
        return outputs

    def observe(self, index, result, ops):
        k = index % self.cycle
        total = 0
        for key, code, text in result:
            data = text.encode()
            total += len(data)
            self.digests[f"cli.{key} input {k}"].add(hashlib.sha256(data).hexdigest())
            self.exit_codes[key].add(code)
            if (key, k) not in self.verdicts:
                self.verdicts[key, k] = self.check_output(key, k, code, text)
            kind, message = self.verdicts[key, k]
            if kind is not None:
                ops.failed += code == 0
                self.failures.add(f"cli.{key}", kind, message)
        self.out_bytes[index] = total

    def check_output(self, key, k, code, text):
        """Check the output of ``key`` on input pair ``k``; return
        ``(failure kind, message)`` or ``(None, None)``."""
        where = f"cli {key} input {k}"
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            self.expect(False, f"{where}: output is not JSON ({exc})")
            return None, None
        self.expect(report.get("status") == ("ok" if code == 0 else "fail"),
                    f"{where}: status {report.get('status')!r} with exit code {code}")
        if code != 0:
            error = report.get("error", {})
            return error.get("type"), f"exit {code}: {error.get('message')}"
        source = key[key.index("[") + 1:-1]
        reference = self.reference[source][k]
        outputs = report.get("outputs", {})
        residuals = report.get("residuals", {})
        if key.startswith("check["):
            self.expect(outputs.get("n") == self.n, f"{where}: n = {outputs.get('n')}")
        if key == "resistance[scwb_edge_list]":
            err = _rel(outputs["omega"], reference)
            self.expect(err <= REFERENCE_TOL, f"{where}: omega off the reference by {err:.2e}")
        if key.startswith("resistance["):
            self.expect(outputs.get("metric_class") in STRICT_LABELS,
                        f"{where}: resistances classified {outputs.get('metric_class')}")
        if key.startswith("maxvar["):
            f = np.asarray(outputs["f"])
            g = reference @ f
            support = np.asarray(outputs["support"]) - 1
            err = float(g.max() - g[support].min()) / np.abs(reference).max()
            self.expect(err <= REFERENCE_TOL, f"{where}: KKT against the reference {err:.2e}")
            self.expect(residuals["kkt"] <= 1e-9 * max(1.0, np.abs(reference).max()),
                        f"{where}: kkt residual {residuals['kkt']:.2e}")
        if residuals.get("angles_skipped"):
            return "check not passed", "angle check skipped"
        over = [f"{field} {value:.3e} > {self.THRESHOLDS[field]:.0e}"
                for field, value in residuals.items()
                if field in self.THRESHOLDS and value > self.THRESHOLDS[field]]
        if over:
            return "check not passed", "residual " + ", ".join(over)
        return None, None


class LibSigned(Workload):
    """Library calls reusing one signed Laplacian: repeated factorizations."""

    name = "lib-signed"
    #: Inputs per cycle; the iterative maxvar solver's cost varies up to
    #: fivefold between draws, so several are averaged.
    cycle = 24
    n = 400
    signed_cond = SIGNED_BAND
    VERDICTS = (
        ("curvature.verify_fiedler_bapat", "fb", lambda r: r.residual),
        ("maxvar.characterize", "char",
         lambda r: max(r.curvature_residual, r.value_residual)),
        ("embed.verify_angles_geometric", "angles",
         lambda r: max(r.dihedral_deviation, r.vertex_deviation)),
    )

    def prepare(self):
        self.streams = gen.band_streams(self.n, self.seed, self.signed_cond, self.cycle)

    def setup(self):
        self.matrices = []
        self.references = []
        self.inputs = []
        for stream in self.streams:
            q, gram, info = gen.signed_gram_laplacian(self.n, self.rng(stream))
            self.matrices.append(q)
            self.references.append(gen.resistance_from_kernel(gram))
            self.inputs.append(dict(info, kind="signed_laplacian"))

    def job(self, index, ops):
        rg = self.rg
        q = ops.call("graph.SignedLaplacianQ", rg.SignedLaplacianQ,
                     self.matrices[index % self.cycle])
        if q is None:
            return {}
        out = {}
        rm = out["rm"] = ops.call("resistance.resistance_matrix_q",
                                  rg.resistance_matrix_q, q)
        if rm is not None:
            out["metric"] = ops.call("resistance.classify_metric",
                                     rg.classify_metric, rm.omega)
        out["cr"] = ops.call("curvature.curvature_radius_q", rg.curvature_radius_q, q)
        out["fb"] = ops.call("curvature.verify_fiedler_bapat",
                             rg.verify_fiedler_bapat, q)
        if rm is not None:
            sol = out["sol"] = ops.call("maxvar.solve_maxvar", rg.solve_maxvar, rm)
            if sol is not None:
                out["char"] = ops.call("maxvar.characterize", rg.characterize, sol, q)
        emb = out["emb"] = ops.call("embed.embed", rg.embed, q)
        if emb is not None:
            out["geo"] = ops.call("embed.simplex_geometry",
                                  rg.simplex_geometry, q, emb)
            out["angles"] = ops.call("embed.verify_angles_geometric",
                                     rg.verify_angles_geometric, q, emb)
        return out

    def record(self, k, out):
        for name, arrays in {
            "rm": lambda r: (r.omega,),
            "cr": lambda r: (r.p, [r.sigma2]),
            "fb": lambda r: ([r.residual],),
            "sol": lambda r: (r.f,),
            "emb": lambda r: (r.coordinates,),
            "geo": lambda r: (r.circumcenter, r.cos_vertex, r.cos_dihedral),
            "angles": lambda r: ([r.dihedral_deviation, r.vertex_deviation],),
        }.items():
            if out.get(name) is not None:
                self.digest(f"{name}[input {k}]", *arrays(out[name]))

    def check(self, k, out):
        where = f"lib-signed input {k}"
        ref = self.references[k]
        scale = np.abs(ref).max()
        if out.get("rm") is not None:
            err = _rel(out["rm"].omega, ref)
            self.expect(err <= REFERENCE_TOL, f"{where}: omega off the reference by {err:.2e}")
        if out.get("metric") is not None:
            self.expect(out["metric"].label in STRICT_LABELS,
                        f"{where}: resistances classified {out['metric'].label}")
        cr = out.get("cr")
        if cr is not None:
            err = float(np.abs(ref @ cr.p - 2.0 * cr.sigma2).max() / (2.0 * cr.sigma2))
            self.expect(err <= REFERENCE_TOL, f"{where}: Omega p != 2 sigma^2 1 ({err:.2e})")
        sol = out.get("sol")
        if sol is not None:
            g = ref @ sol.f
            err = float(g.max() - g[sol.support].min()) / scale
            self.expect(err <= REFERENCE_TOL, f"{where}: maxvar KKT off the reference {err:.2e}")
        emb = out.get("emb")
        if emb is not None:
            b = emb.coordinates
            d2 = (b * b).sum(axis=0)
            dist = d2[:, None] + d2[None, :] - 2.0 * (b.T @ b)
            np.fill_diagonal(dist, 0.0)
            err = _rel(dist, ref)
            self.expect(err <= REFERENCE_TOL, f"{where}: embedded distances off {err:.2e}")
        if cr is not None and out.get("geo") is not None:
            err = abs(out["geo"].circumradius ** 2 - cr.sigma2) / cr.sigma2
            self.expect(err <= REFERENCE_TOL, f"{where}: circumradius^2 != sigma^2 ({err:.2e})")


class LibDirected(Workload):
    """Fresh digraph objects in every call: structure loops, Kron, Schur."""

    name = "lib-directed"
    cycle = 2
    n = 300
    VERDICTS = (("curvature.check_commutativity", "comm", lambda r: r.residual),)

    def setup(self):
        self.laplacians = []
        self.plans = []
        self.inputs = []
        n = self.n
        for k in range(self.cycle):
            rng = self.rng(k)
            lap, edges = gen.unbalanced_laplacian(n, rng, extra_edges=n)
            self.laplacians.append(lap)
            self.inputs.append(gen.describe(n, edges, kind="sc_digraph"))
            self.plans.append({
                "kron": [np.sort(rng.choice(n, n // 2, replace=False)) for _ in range(2)],
                "pairs": [tuple(int(v) for v in rng.choice(n, 2, replace=False))
                          for _ in range(4)],
                "half": np.sort(rng.choice(n, n // 2, replace=False)),
            })

    def job(self, index, ops):
        rg = self.rg
        k = index % self.cycle
        plan = self.plans[k]
        lap = ops.call("graph.DirectedLaplacian", rg.DirectedLaplacian,
                       self.laplacians[k])
        if lap is None:
            return {}
        out = {"wb": ops.call("graph.weight_balance", rg.weight_balance, lap),
               "rm": ops.call("resistance.resistance_matrix_sc",
                              rg.resistance_matrix_sc, lap),
               "cr": ops.call("curvature.curvature_radius_sc",
                              rg.curvature_radius_sc, lap),
               "kron": [ops.call("kron.kron_reduce", rg.kron_reduce, lap, keep)
                        for keep in plan["kron"]],
               "pairs": [ops.call("resistance.effective_resistance_directed",
                                  rg.effective_resistance_directed, lap, a, b)
                         for a, b in plan["pairs"]]}
        if out["wb"] is not None:
            balanced = out["wb"].balanced
            out["comm"] = ops.call("curvature.check_commutativity",
                                   rg.check_commutativity, balanced, plan["half"])
            out["reduced_cr"] = ops.call("curvature.reduce_curvature_radius",
                                         rg.reduce_curvature_radius, balanced,
                                         plan["half"])
        return out

    def record(self, k, out):
        for name, arrays in {
            "wb": lambda r: (r.m,),
            "rm": lambda r: (r.omega,),
            "cr": lambda r: (r.p, [r.sigma2]),
            "comm": lambda r: ([r.residual],),
            "reduced_cr": lambda r: (r.p, [r.sigma2]),
        }.items():
            if out.get(name) is not None:
                self.digest(f"{name}[input {k}]", *arrays(out[name]))
        for j, result in enumerate(out["kron"]):
            if result is not None:
                self.digest(f"kron{j}[input {k}]", result.reduced.matrix)
        self.digest(f"pairs[input {k}]", [np.nan if r is None else r for r in out["pairs"]])

    def check(self, k, out):
        """Cross-route checks against independently computed results."""
        rg = self.rg
        where = f"lib-directed input {k}"
        plan = self.plans[k]
        if out.get("rm") is not None:
            omega = out["rm"].omega
            for (a, b), r in zip(plan["pairs"], out["pairs"]):
                if r is not None:
                    err = abs(r - omega[a, b]) / omega[a, b]
                    self.expect(err <= REFERENCE_TOL,
                                f"{where}: R({a}->{b}) pair vs matrix {err:.2e}")
            for keep, result in zip(plan["kron"], out["kron"]):
                if result is None:
                    continue
                flags = result.preserved
                self.expect(flags.row_sums_zero and flags.strongly_connected,
                            f"{where}: Kron reduction lost structure {flags}")
                after = rg.resistance_matrix_sc(result.reduced).omega
                err = _rel(after, omega[np.ix_(keep, keep)])
                self.expect(err <= REFERENCE_TOL,
                            f"{where}: resistance not invariant under Kron ({err:.2e})")
        if out.get("cr") is not None and out.get("rm") is not None:
            cr = out["cr"]
            err = float(np.abs(out["rm"].omega @ cr.p - 2.0 * cr.sigma2).max()
                        / (2.0 * cr.sigma2))
            self.expect(err <= REFERENCE_TOL, f"{where}: Omega p != 2 sigma^2 1 ({err:.2e})")
        if out.get("wb") is not None:
            self.expect(out["wb"].balanced.weight_balanced, f"{where}: balancing failed")
        if out.get("reduced_cr") is not None:
            direct = rg.curvature_radius_scwb(
                rg.kron_reduce(out["wb"].balanced, plan["half"]).reduced)
            err = max(_rel(out["reduced_cr"].p, direct.p),
                      abs(out["reduced_cr"].sigma2 - direct.sigma2) / direct.sigma2)
            self.expect(err <= REFERENCE_TOL, f"{where}: reduced curvature vs direct {err:.2e}")


class VerifySuite(Workload):
    """The randomized property suite: per-call overhead at n <= 12."""

    name = "verify-suite"
    #: Suite seeds per cycle.  Whether a suite fails depends on its seed, so
    #: a fixed set of seeds keeps the failed share of a run the same from
    #: run to run.
    cycle = 8
    cases = 10
    n_max = 12

    def setup(self):
        self.inputs = [{"kind": "run_verification", "cases": self.cases,
                        "n_max": self.n_max, "suite_seed": self.suite_seed(k)}
                       for k in range(self.cycle)]

    def suite_seed(self, k):
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def job(self, index, ops):
        results = ops.call("verify.run_verification", self.rg.run_verification,
                           self.suite_seed(index % self.cycle), self.cases, self.n_max)
        return {"properties": results} if results is not None else {}

    def observe(self, index, result, ops):
        super().observe(index, result, ops)
        failed = [r.name for r in result.get("properties", ()) if not r.passed]
        if failed:
            ops.failed += 1
            self.failures.add("verify.run_verification", "check not passed",
                              f"properties failed: {failed}")

    def record(self, k, result):
        self.digest(f"properties[input {k}]",
                    [r.max_residual for r in result["properties"]])

    def check(self, k, result):
        names = [r.name for r in result["properties"]]
        self.expect(len(names) == len(set(names)) and names,
                    f"verify-suite input {k}: property list {names}")


WORKLOADS = {w.name: w for w in (CliPipeline, LibSigned, LibDirected, VerifySuite)}
