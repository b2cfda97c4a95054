"""Command-line front-end.

Subcommands map onto the library: ``check`` (structure predicates),
``kron`` (reduction), ``resistance``, ``curvature``, ``maxvar``,
``embed``, ``balance``, and ``verify`` (the randomized property suite).

Input files come in two formats, detected by the presence of commas:

* edge list: whitespace-separated ``src dst weight`` lines, ``#``
  comments, optional ``n <count>`` header, node ids 1-based;
* matrix CSV: one row per line; by default interpreted as an adjacency
  matrix (converted to a Laplacian via degrees minus adjacency), or taken
  verbatim with ``--as-laplacian``.

:func:`load_graph` returns the library's own object, a
:class:`~resgeo.graph.DirectedLaplacian` or a
:class:`~resgeo.graph.SignedLaplacianQ`, and each subcommand branches on
its type.

Reports are JSON on stdout with reals at 17 significant digits; reruns on
identical inputs are byte-identical.  Exit codes: 0 ok, 1 validation
error, 2 numeric failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .curvature import (
    curvature_radius_q,
    curvature_radius_sc,
    curvature_radius_scwb,
    undirect,
    verify_fiedler_bapat,
    wb_transform,
)
from .embed import embed, export_coordinates, simplex_geometry, verify_angles_geometric
from .errors import ResgeoError, ValidationError
from .graph import (
    DirectedLaplacian,
    EdgeError,
    SignedLaplacianQ,
    _classify_q,
    laplacian_from_edges,
    weight_balance,
)
from .kron import kron_reduce, kron_reduce_q
from .linalg import inertia, pseudoinverse, sym_eig
from .maxvar import characterize, solve_maxvar
from .resistance import (
    classify_metric,
    resistance_matrix_q,
    resistance_matrix_sc,
    resistance_matrix_scwb,
)
from .verify import _pinv_via_shift, run_verification

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_VERIFICATION = 3


def _json_value(value, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_json_value(item, indent + 1)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {float}:
            # a row of floats in one pass, as the scalar branch writes
            # each; only "nan", "inf" and "-inf" contain an "n"
            text = ", ".join(["%.17g" % (v + 0.0) for v in value])
            if "n" in text:
                text = ", ".join(["null" if "n" in t else t
                                  for t in text.split(", ")])
            return "[" + text + "]"
        simple = all(not isinstance(v, (dict, list, tuple, np.ndarray))
                     for v in value)
        if simple:
            return "[" + ", ".join(_json_value(v, indent) for v in value) + "]"
        parts = [f"{inner}{_json_value(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value) + 0.0
        if value != value or value in (float("inf"), float("-inf")):
            return "null"
        return format(value, ".17g")
    if value is None:
        return "null"
    return json.dumps(str(value))


def _emit(report):
    sys.stdout.write(_json_value(report, 0) + "\n")


def _parse_edge_list(lines, path):
    n = None
    edges = []
    edge_lines = []
    for lineno, raw in lines:
        tokens = raw.split()
        if tokens[0] == "n":
            if len(tokens) != 2 or n is not None:
                raise ValidationError(f"{path}:{lineno}: malformed node-count header")
            try:
                n = int(tokens[1])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad node count {tokens[1]!r}") from exc
            continue
        if len(tokens) != 3:
            raise ValidationError(
                f"{path}:{lineno}: expected 'src dst weight', got {raw!r}"
            )
        try:
            src, dst, weight = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: unparseable edge {raw!r}") from exc
        if src < 1 or dst < 1:
            raise ValidationError(f"{path}:{lineno}: node ids are 1-based")
        edges.append((src - 1, dst - 1, weight))
        edge_lines.append(lineno)
    if not edges:
        raise ValidationError(f"{path}: no edges found")
    edges = np.array(edges)
    if n is None:
        n = 1 + int(edges[:, :2].max())
    try:
        return laplacian_from_edges(n, edges)
    except EdgeError as exc:
        line = edge_lines[exc.index]
        raise ValidationError(f"{path}:{line}: {exc.fault(1)}") from exc
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _parse_matrix(lines, path):
    rows = []
    for lineno, raw in lines:
        try:
            rows.append([float(tok) for tok in raw.split(",")])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: unparseable row {raw!r}") from exc
    width = {len(r) for r in rows}
    if len(width) != 1 or len(rows) != width.pop():
        raise ValidationError(f"{path}: matrix rows must form a square")
    return np.array(rows)


def load_graph(path, as_laplacian=False):
    """Read an edge-list or CSV file as a :class:`DirectedLaplacian` or, for
    a ``--as-laplacian`` CSV that is not one, a :class:`SignedLaplacianQ`
    (an unsigned undirected Laplacian is both and loads as directed)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    lines = []
    for lineno, line in enumerate(raw_lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise ValidationError(f"{path}: empty input")
    if any("," in text for _, text in lines):
        matrix = _parse_matrix(lines, path)
        if not as_laplacian:
            off = matrix.copy()
            np.fill_diagonal(off, 0.0)
            if off.min() < 0.0:
                raise ValidationError(
                    f"{path}: adjacency entries must be nonnegative "
                    "(use --as-laplacian for Laplacian input)"
                )
            if np.abs(np.diag(matrix)).max(initial=0.0) != 0.0:
                raise ValidationError(
                    f"{path}: adjacency diagonal must be zero"
                )
            lap = -off
            np.fill_diagonal(lap, off.sum(axis=1))
            return DirectedLaplacian(lap)
        try:
            return DirectedLaplacian(matrix)
        except ValidationError as directed_error:
            try:
                return SignedLaplacianQ(matrix)
            except ValidationError as signed_error:
                raise ValidationError(
                    f"{path}: not a directed Laplacian ({directed_error}) "
                    f"and {signed_error}"
                ) from directed_error
    return _parse_edge_list(lines, path)


def _parse_keep(text, n):
    try:
        nodes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"--keep must be a comma-separated list: {text!r}") from exc
    if any(v < 1 or v > n for v in nodes):
        raise ValidationError(f"--keep nodes must lie in [1, {n}]")
    if len(set(nodes)) < 2:
        raise ValidationError("--keep needs at least two distinct nodes")
    return sorted(v - 1 for v in set(nodes))


def _cmd_check(args):
    g = load_graph(args.input, args.as_laplacian)
    directed = isinstance(g, DirectedLaplacian)
    matrix = g.matrix
    # Q is exactly symmetric, so its kept eigh is that of (Q + Q^T) / 2.
    spectrum = (sym_eig((matrix + matrix.T) / 2.0).values if directed
                else g.eig.values)
    failure, details, _ = _classify_q(matrix)
    outputs = {
        "n": g.n,
        "input_kind": "directed" if directed else "class_q",
        "strongly_connected": g.strongly_connected if directed else None,
        "weight_balanced": g.weight_balanced if directed else None,
        "class_q": {"ok": failure is None, "failure": failure,
                    "details": details},
        "symmetric_spectrum": spectrum,
    }
    residuals = {"row_sum_max": float(np.abs(matrix.sum(axis=1)).max())}
    if directed and g.strongly_connected and g.weight_balanced:
        shift = _pinv_via_shift(g)
        residuals["shifted_pinv"] = float(
            np.abs(shift - pseudoinverse(matrix)).max()
        )
    return {"outputs": outputs, "residuals": residuals}, EXIT_OK


def _cmd_kron(args):
    g = load_graph(args.input, args.as_laplacian)
    keep = _parse_keep(args.keep, g.n)
    if isinstance(g, DirectedLaplacian):
        result = kron_reduce(g, keep)
        outputs = {
            "reduced": result.reduced.matrix,
            "kept": [int(i) + 1 for i in result.kept],
            "preserved": {
                "row_sums_zero": result.preserved.row_sums_zero,
                "offdiag_nonpos": result.preserved.offdiag_nonpos,
                "weight_balanced": result.preserved.weight_balanced,
                "strongly_connected": result.preserved.strongly_connected,
            },
        }
        residuals = {}
        if g.strongly_connected:
            before = resistance_matrix_sc(g).omega
            after = resistance_matrix_sc(result.reduced).omega
            residuals["resistance_invariance"] = float(
                np.abs(before[np.ix_(keep, keep)] - after).max()
            )
    else:
        reduced = kron_reduce_q(g, keep)
        before = resistance_matrix_q(g).omega
        after = resistance_matrix_q(reduced).omega
        outputs = {
            "reduced": reduced.matrix,
            "kept": [int(i) + 1 for i in keep],
            "preserved": {"class_q": True},
        }
        residuals = {"resistance_invariance": float(
            np.abs(before[np.ix_(keep, keep)] - after).max()
        )}
    return {"outputs": outputs, "residuals": residuals}, EXIT_OK


def _cmd_resistance(args):
    g = load_graph(args.input, args.as_laplacian)
    if isinstance(g, DirectedLaplacian):
        rm = resistance_matrix_sc(g)
    else:
        rm = resistance_matrix_q(g)
    sig = inertia(rm.omega) if rm.kind != "directed_sc" else None
    outputs = {
        "kind": rm.kind,
        "omega": rm.omega,
    }
    if sig is not None:
        outputs["inertia"] = [sig.positive, sig.negative, sig.zero]
        outputs["metric_class"] = classify_metric(rm.omega).label
    return {"outputs": outputs, "residuals": {}}, EXIT_OK


def _cmd_curvature(args):
    g = load_graph(args.input, args.as_laplacian)
    fb = None
    if isinstance(g, DirectedLaplacian):
        if g.strongly_connected and g.weight_balanced:
            cr = curvature_radius_scwb(g)
            fb = verify_fiedler_bapat(g)
        else:
            cr = curvature_radius_sc(g)
    else:
        cr = curvature_radius_q(g)
        fb = verify_fiedler_bapat(g)
    outputs = {
        "p": cr.p,
        "sigma2": cr.sigma2,
        "zeta": cr.zeta,
    }
    residuals = {}
    if fb is not None:
        residuals["fiedler_bapat"] = fb.residual
    return {"outputs": outputs, "residuals": residuals}, EXIT_OK


def _cmd_maxvar(args):
    g = load_graph(args.input, args.as_laplacian)
    if isinstance(g, DirectedLaplacian):
        if not (g.strongly_connected and g.weight_balanced):
            raise ValidationError(
                "variance maximization needs a symmetric resistance matrix; "
                "input must be weight-balanced (or a signed Laplacian)"
            )
        omega = resistance_matrix_scwb(g)
    else:
        omega = resistance_matrix_q(g)
    solution = solve_maxvar(omega)
    report = characterize(solution, g)
    outputs = {
        "f": solution.f,
        "support": [int(i) + 1 for i in solution.support],
        "value": solution.value,
        "method": solution.method,
    }
    residuals = {
        "kkt": solution.kkt_residual,
        "support_curvature": report.curvature_residual,
        "radius_value": report.value_residual,
    }
    return {"outputs": outputs, "residuals": residuals}, EXIT_OK


def _cmd_embed(args):
    g = load_graph(args.input, args.as_laplacian)
    q = undirect(g) if isinstance(g, DirectedLaplacian) else g
    emb = embed(q)
    geo = simplex_geometry(q, emb)
    angles = verify_angles_geometric(q, emb)
    if args.out:
        export_coordinates(emb, geo, args.out)
    outputs = {
        "coordinates": emb.coordinates,
        "eigenvalues": emb.eigenvalues,
        "circumcenter": geo.circumcenter,
        "circumradius": geo.circumradius,
        "cos_dihedral": geo.cos_dihedral,
        "cos_vertex": geo.cos_vertex,
        "exported": args.out,
    }
    residuals = {
        "angles_skipped": angles.skipped,
        "dihedral": angles.dihedral_deviation,
        "vertex": angles.vertex_deviation,
    }
    return {"outputs": outputs, "residuals": residuals}, EXIT_OK


def _cmd_balance(args):
    g = load_graph(args.input, args.as_laplacian)
    if not isinstance(g, DirectedLaplacian):
        raise ValidationError("balance applies to directed Laplacians")
    wb = weight_balance(g)
    omega = resistance_matrix_sc(g)
    before = curvature_radius_sc(g)
    transported = wb_transform(before, wb.m, omega)
    direct = curvature_radius_scwb(wb.balanced)
    outputs = {
        "m": wb.m,
        "balanced": wb.balanced.matrix,
        "p": before.p,
        "sigma2": before.sigma2,
        "p_balanced": direct.p,
        "sigma2_balanced": direct.sigma2,
    }
    residuals = {
        "transform_vs_direct": float(max(
            np.abs(transported.p - direct.p).max(),
            abs(transported.sigma2 - direct.sigma2),
        )),
    }
    return {"outputs": outputs, "residuals": residuals}, EXIT_OK


def _cmd_verify(args):
    results = run_verification(seed=args.seed, cases=args.cases,
                               n_max=args.n_max)
    outputs = {
        "seed": args.seed,
        "cases": args.cases,
        "n_max": args.n_max,
        "properties": [
            {
                "name": r.name,
                "cases": r.cases,
                "max_residual": r.max_residual,
                "threshold": r.threshold,
                "passed": r.passed,
            }
            for r in results
        ],
    }
    all_passed = all(r.passed for r in results)
    return ({"outputs": outputs, "residuals": {}},
            EXIT_OK if all_passed else EXIT_VERIFICATION)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resgeo",
        description="Resistance geometry of directed graphs and signed Laplacians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("input", help="edge-list or CSV matrix file")
            p.add_argument("--as-laplacian", action="store_true",
                           help="treat a CSV matrix as a Laplacian, not adjacency")
        p.set_defaults(handler=handler)
        return p

    add("check", _cmd_check,
        "structure report: connectivity, balance, class membership")
    p_kron = add("kron", _cmd_kron, "Kron reduction onto kept nodes")
    p_kron.add_argument("--keep", required=True,
                        help="comma-separated 1-based node ids to keep")
    add("resistance", _cmd_resistance, "effective resistance matrix")
    add("curvature", _cmd_curvature, "curvature vector and resistance radius")
    add("maxvar", _cmd_maxvar, "maximum graph variance over the simplex")
    p_embed = add("embed", _cmd_embed, "simplex embedding and angles")
    p_embed.add_argument("--out", default=None,
                         help="write coordinates CSV to this path")
    add("balance", _cmd_balance, "weight balancing and curvature transport")
    p_verify = sub.add_parser("verify", help="run the randomized property suite")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--cases", type=int, default=50)
    p_verify.add_argument("--n-max", type=int, default=12)
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs = _echo_inputs(args)
    try:
        body, code = args.handler(args)
    except ResgeoError as exc:
        code = EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_NUMERIC
        _emit({
            "command": args.command,
            "status": "fail",
            "inputs": inputs,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        })
        return code
    report = {"command": args.command,
              "status": "ok" if code == EXIT_OK else "fail",
              "inputs": inputs}
    report.update(body)
    _emit(report)
    return code


def _echo_inputs(args):
    echo = {}
    for key in ("input", "keep", "as_laplacian", "seed", "cases", "n_max",
                "out"):
        if hasattr(args, key):
            echo[key] = getattr(args, key)
    return echo


if __name__ == "__main__":
    sys.exit(main())
