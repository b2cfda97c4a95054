"""Benchmark of resgeo: four closed-loop workloads, one client each.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lib-signed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

With ``--trace 0`` a run prints the end-to-end metrics of one workload;
with ``--trace 1`` it prints the per-layer metrics from a traced pass
instead.  ``--workload all`` runs every workload in its own process.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are for
people.  ``attempted`` and ``failed`` count each call on each input once;
the counts over every job of the run are printed and stored.  A wrong
result exits with code 3, a missing ``src/resgeo`` with 2.  Results and
spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

#: BLAS threads per workload process: one client, one thread, steadier
#: timings on a shared machine.  Set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Fewest timed jobs, so the tail percentile always has ten jobs beyond it.
MIN_JOBS = 11
#: Traced passes per trace run: at least two (kernel counts must repeat
#: exactly between them), at most this many.
MAX_TRACE_PASSES = 3


def declared_metrics(trace):
    """``{metric: unit}`` of the run, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def tail(latencies):
    """Latency at the highest percentile with at least ten jobs above it.

    Returns ``(value, percentile, jobs_above)``; needs at least 11 jobs.
    """
    ordered = sorted(latencies)
    index = len(ordered) - 11
    if index < 0:
        raise ValueError("the tail needs at least 11 jobs")
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def environment(nproc):
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "nproc": nproc,
        "cpu": cpu,
        "platform": platform.platform(),
    }


def import_resgeo():
    """Import the package from this checkout's ``src``, or exit with 2."""
    if not os.path.isfile(os.path.join(SRC, "resgeo", "__init__.py")):
        print(f"perfbench: no resgeo sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(1, BENCH_DIR)
    import resgeo
    import resgeo.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(resgeo.__file__)) != os.path.join(SRC, "resgeo"):
        print(f"perfbench: imported resgeo from {resgeo.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return resgeo


def set_up(workload, job_ops):
    """Generate inputs, write files and run one warm-up job; returns seconds."""
    start = time.perf_counter()
    workload.setup()
    ops = job_ops()
    result = workload.job(0, ops)
    elapsed = time.perf_counter() - start
    workload.observe(0, result, ops)
    workload.tally(0, ops)
    return elapsed


def host_kernel_s():
    """Median seconds of a fixed 200x200 ``svd``, a gauge of the host's speed.

    On a shared machine the speed of a fixed job drifts within a run.  The
    gauge is recorded next to the timed loop to show that drift; it never
    scales a metric.
    """
    matrix = np.random.default_rng(0).standard_normal((200, 200))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.linalg.svd(matrix, compute_uv=False)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_loop(workload, job_ops, seconds):
    """Closed loop of untraced jobs; whole input cycles, at least MIN_JOBS.

    Returns the job seconds and the operations of each job.
    """
    latencies = []
    job_ops_list = []
    index = 0
    while True:
        ops = job_ops()
        start = time.perf_counter()
        result = workload.job(index, ops)
        latencies.append(time.perf_counter() - start)
        workload.observe(index, result, ops)
        workload.tally(index, ops)
        job_ops_list.append(ops)
        index += 1
        if (sum(latencies) >= seconds and len(latencies) >= MIN_JOBS
                and index % workload.cycle == 0):
            return latencies, job_ops_list


def traced_passes(workload, job_ops, rg, seconds):
    """Alternate untraced and traced passes over the same jobs.

    Returns the tracer, untraced and traced job times, the kernel counts of
    each traced pass, and the operations of each job of all passes.
    """
    from tracing import Tracer, kernel_counts

    tracer = Tracer(rg)
    jobs = workload.trace_jobs()
    plain, traced, counts, job_ops_list = [], [], [], []
    started = time.perf_counter()
    job_id = 0
    while len(counts) < 2 or (len(counts) < MAX_TRACE_PASSES
                              and time.perf_counter() - started < seconds):
        for index in jobs:
            ops = job_ops()
            start = time.perf_counter()
            result = workload.job(index, ops)
            plain.append(time.perf_counter() - start)
            workload.observe(index, result, ops)
            workload.tally(index, ops)
            job_ops_list.append(ops)
        first_span = len(tracer.spans)
        runs = []
        with tracer:
            for index in jobs:
                ops = job_ops()
                ops.tracer = tracer
                tracer.job = job_id
                job_id += 1
                start = time.perf_counter()
                runs.append((index, workload.job(index, ops), ops))
                traced.append(time.perf_counter() - start)
        for index, result, ops in runs:
            workload.observe(index, result, ops)
            workload.tally(index, ops)
            job_ops_list.append(ops)
        counts.append(kernel_counts(tracer.spans[first_span:]))
    return tracer, plain, traced, counts, job_ops_list


def write_spans(path, spans):
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, job, failed, gn3 in spans:
            fh.write(json.dumps([name, start - origin, end - origin, parent, job,
                                 failed, gn3]) + "\n")


def share_checks(name, layers, metrics, job_s):
    """The layer shares the benchmark expects; reported, never enforced."""
    cli = metrics["cli.self_s"] + metrics["cli.load_graph_s"]
    if name == "cli-pipeline":
        top = max(layers, key=lambda layer: layers[layer]["self_s"])
        return [{"expect": "cli self time is the largest layer share",
                 "share": cli / job_s, "agrees": top == "cli", "largest": top}]
    checks = [{"expect": "no cli time", "share": cli / job_s, "agrees": cli == 0.0}]
    if name == "lib-directed":
        share = (metrics["np.kernel_s"] + metrics["graph.construct_s"]) / job_s
        checks.append({"expect": "np.kernel_s + graph.construct_s exceed half the job",
                       "share": share, "agrees": share > 0.5})
    return checks


def run_one(args):
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    if BLAS_THREADS > nproc:
        raise SystemExit(f"perfbench: {BLAS_THREADS} BLAS threads > {nproc} cores")
    rg = import_resgeo()
    import_s = time.perf_counter() - PROCESS_START
    from workloads import WORKLOADS, Ops

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](rg, args.seed, workdir)
        job_ops = lambda: Ops(rg.ResgeoError)  # noqa: E731
        workload.prepare()
        setups = [set_up(workload, job_ops) for _ in range(SETUP_REPS)]
        setup_s = import_s + statistics.median(setups)
        report = {
            "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "environment": environment(nproc), "inputs": workload.inputs,
            "setup": {"import_s": import_s, "runs_s": setups, "setup_s": setup_s},
        }
        if args.trace:
            metrics, ops = trace_run(args, workload, job_ops, rg, report)
        else:
            metrics, ops = timed_run(args, workload, job_ops, report)
            metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = workload.problems() + report.pop("trace_problems", [])
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    distinct_attempted, distinct_failed = workload.distinct()
    report["ops"] = {"attempted": attempted, "failed": failed,
                     "failed_ratio": failed / attempted,
                     "distinct_attempted": distinct_attempted,
                     "distinct_failed": distinct_failed}
    report["failures"] = workload.failures.entries
    if hasattr(workload, "exit_codes"):
        report["exit_codes"] = {k: sorted(v) for k, v in workload.exit_codes.items()}
    report["problems"] = problems
    report["correct"] = not problems
    report["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in declared_metrics(args.trace).items()}
    path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    print_report(report, path)
    print(json.dumps({"correct": report["correct"], "attempted": distinct_attempted,
                      "failed": distinct_failed, "metrics": report["metrics"]}))
    return 0 if report["correct"] else 3


def latency_metrics(latencies, cycle):
    """End-to-end latency metrics of whole input cycles of jobs.

    ``jobs_per_s`` is the median over the input cycles of jobs per second
    within the cycle, so a slow spell of the host moves it less than a mean
    over the run would.
    """
    value, percentile, above = tail(latencies)
    return {"jobs_per_s": statistics.median(
                cycle / sum(latencies[i:i + cycle]) for i in range(0, len(latencies), cycle)),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": value}, percentile, above


def timed_run(args, workload, job_ops, report):
    workload.failures.entries.clear()
    kernel_before = host_kernel_s()
    latencies, ops = timed_loop(workload, job_ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, percentile, above = latency_metrics(latencies, workload.cycle)
    report["timed"] = {"jobs": len(latencies), "timed_s": sum(latencies),
                       "tail_percentile": percentile, "jobs_above_tail": above,
                       "latencies_s": latencies,
                       "host_kernel_s": [kernel_before, host_kernel_s()]}
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics, ops


def trace_run(args, workload, job_ops, rg, report):
    import tracing

    workload.failures.entries.clear()
    tracer, plain, traced, counts, ops = traced_passes(workload, job_ops, rg,
                                                       args.seconds)
    spans = tracer.spans
    jobs = len(traced)
    job_s = sum(traced) / jobs
    metrics = tracing.layer_metrics(spans, jobs)
    metrics["np.kernel_share"] = metrics["np.kernel_s"] / job_s
    metrics["trace.job_s"] = job_s
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
    out_bytes = getattr(workload, "out_bytes", {})
    metrics["cli.out_bytes"] = float(statistics.fmean(
        out_bytes[i] for i in workload.trace_jobs())) if out_bytes else 0.0
    layers = tracing.layer_table(spans, jobs)
    report["traced"] = {
        "passes": len(counts), "jobs_per_pass": len(workload.trace_jobs()),
        "untraced_job_s": plain, "traced_job_s": traced,
        "kernel_counts_per_pass": counts,
        "layers": layers,
        "functions": tracing.function_table(spans, jobs),
        "shares": share_checks(workload.name, layers, metrics, job_s),
    }
    report["trace_problems"] = [
        f"kernel counts differ between traced passes: {counts[0]} vs {c}"
        for c in counts[1:] if c != counts[0]]
    write_spans(os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-spans.jsonl"),
                spans)
    return metrics, ops


def print_report(report, path):
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}"
          f"  ({report['environment']['blas']['name']}, {BLAS_THREADS} BLAS thread,"
          f" nproc {report['environment']['nproc']})")
    for item in report["inputs"]:
        print("  input " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                     for k, v in item.items()))
    for name, metric in report["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    ops = report["ops"]
    print(f"  {'failed_ratio':28s} {ops['failed_ratio']:.6g} "
          f"({ops['failed']} of {ops['attempted']} operations; "
          f"{ops['distinct_failed']} of {ops['distinct_attempted']} distinct)")
    if "timed" in report:
        timed = report["timed"]
        print(f"  tail is p{timed['tail_percentile']:.1f}: {timed['jobs_above_tail']} of "
              f"{timed['jobs']} jobs above it")
        print("  host gauge (200x200 svd) before/after the timed loop: "
              + ", ".join(f"{t * 1e3:.2f} ms" for t in timed["host_kernel_s"]))
    for key, entry in report["failures"].items():
        print(f"  failed {key} x{entry['count']}: {entry['type']}: "
              f"{entry['first_message']}" + (f" (raised in {entry['raised_in']})"
                                             if entry["raised_in"] else ""))
    if "traced" in report:
        traced = report["traced"]
        print("  layer        calls/job   self s/job")
        for layer, row in traced["layers"].items():
            print(f"  {layer:12s} {row['calls']:9.1f} {row['self_s']:12.6f}")
        print("  operation / function          calls/job  incl s/job  calls under one call")
        for name, row in traced["functions"].items():
            if name.startswith("op.") or name == "curvature.undirect":
                under = ", ".join(f"{k} {v:g}" for k, v in row["per_call"].items())
                print(f"  {name:32s} {row['calls']:6.2f} {row['inclusive_s']:11.6f}  {under}")
        for check in traced["shares"]:
            print(f"  share {check['share']:.3f}: {check['expect']}: "
                  + ("agrees" if check["agrees"] else "DISAGREES"))
    for text in report["problems"]:
        print(f"  WRONG: {text}")
    print(f"  results: {os.path.relpath(path, ROOT)}")


def run_all(args):
    """Each workload in its own process; a summary line per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or child.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["all", "cli-pipeline", "lib-signed", "lib-directed",
                                 "verify-suite"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
