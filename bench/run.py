"""Benchmark of the vortexflow pipeline, one workload per process.

    python3 bench/run.py --workload pair_balance --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One operation is in flight at a time (closed loop, one caller).
Operations repeat until `--seconds` have passed (at least one; two when
traced).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` ones of BENCHMARK.json,
with `--trace 1` the `per_layer` ones, read from spans recorded around
calls into each layer.  A traced run also writes its spans to
`.bench_out/`.

`op_s` is the median over the run's operations; their count is
`attempted`.  A run holds one to three operations, so no high percentile
has ten samples beyond it and none is reported.  The failure ratio
(`failed / attempted`) is printed on a comment line: it is 0 on a healthy
run, so it is not a bounded metric.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """One BLAS thread; must run before numpy is imported.  The hot paths
    (SuperLU, FITPACK, elementwise numpy) gain nothing from BLAS threads
    on this closed loop, and a second thread only adds run-to-run noise
    on a shared machine."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return {var: int(os.environ[var]) for var in BLAS_VARS}


def git_sha():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the package sources; names the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(nproc, blas):
    import numpy
    import scipy
    env = {"git_sha": git_sha()}
    if env["git_sha"] is None:
        env["src_sha256"] = source_digest()
    env.update(python=platform.python_version(), numpy=numpy.__version__,
               scipy=scipy.__version__, nproc=nproc, blas_threads=blas)
    return env


def run_ops(workload, inputs, seconds, min_ops):
    """Closed loop: repeat the operation until `seconds` have passed and
    at least `min_ops` ran.  Returns (op seconds, failed count)."""
    times, failed = [], 0
    t_begin = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - t_begin < seconds:
        t0 = time.perf_counter()
        try:
            out = workload.op(inputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            times.append(time.perf_counter() - t0)
            failed += 1
            print(f"# op {len(times)} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        times.append(time.perf_counter() - t0)
        problems = workload.check(inputs, out)
        if problems:
            failed += 1
            print(f"# op {len(times)} failed its checks: {problems}", file=sys.stderr)
    return times, failed


def plain_run(workload, args, t_imported, workdir):
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, workdir)
        setup.append(time.perf_counter() - t0)
    times, failed = run_ops(workload, inputs, args.seconds, 1)
    values = {
        "op_s": statistics.median(times),
        "setup_s": t_imported + statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"# op_s samples: {times}; setup samples: {setup}; imports: {t_imported}")
    return values, len(times), failed


COUNT_KEYS = ("calls", "fill_nnz", "newton_iters", "same_grid", "n_samples")


def traced_run(workload, args, workdir, env):
    from tracing import Instrumentation, Tracer, layer_totals, top_level_share

    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.install()
    with tracer.span("setup"):
        inputs = workload.setup(args.seed, workdir)
    inst.uninstall()
    untraced, failed = run_ops(workload, inputs, 0.0, 1)

    def traced_op(inp):
        inst.reset_op()
        with tracer.span("op"):
            return workload.op(inp)

    inst.install()
    try:
        times, traced_failed = run_ops(replace(workload, op=traced_op), inputs,
                                       args.seconds, 2)
    finally:
        inst.uninstall()

    ops = tracer.roots("op")
    per_op = [layer_totals(tracer.spans, r) for r in ops]
    setup_totals = layer_totals(tracer.spans, tracer.roots("setup")[0])
    counts = [{(layer, k): v for layer, t in tot.items() for k, v in t.items()
               if k in COUNT_KEYS} for tot in per_op]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        print(f"# counts differ between traced operations: {counts}", file=sys.stderr)

    op_s = statistics.median(times)
    values = {
        "trace.op_s": op_s,
        "trace.overhead_s": op_s - statistics.median(untraced),
        "trace.top_level_share": statistics.median(top_level_share(tracer.spans, r) for r in ops),
        "trace.counts_repeat": float(repeat),
    }
    layers = sorted({name for tot in per_op for name in tot})
    for name in layers:
        for key in {k for t in per_op for k in t.get(name, {})}:
            values[f"{name}.{key}"] = statistics.median(t.get(name, {}).get(key, 0) for t in per_op)
    for key, val in setup_totals.get("profile.solve_profile", {}).items():
        values[f"profile.solve_profile.{key}"] = val

    shares = sorted(((values[f"{n}.self_s"] / op_s, n) for n in layers), reverse=True)
    print("# share of op_s, self/total: " + ", ".join(
        f"{n} {s:.1%}/{values[f'{n}.s'] / op_s:.1%}" for s, n in shares[:6]))
    dump = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    dump.write_text(json.dumps({"env": env, "workload": workload.name, "seed": args.seed,
                                "values": values, "spans": tracer.dump()}))
    print(f"# spans written to {dump.relative_to(ROOT)}")
    return values, len(untraced) + len(times), failed + traced_failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "vortexflow" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a vortexflow source checkout ({src} missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    nproc = len(os.sched_getaffinity(0))
    blas = cap_blas_threads()
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    t_imported = time.perf_counter() - T_START
    env = environment(nproc, blas)
    print("# env " + json.dumps(env))

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if args.trace:
            values, attempted, failed = traced_run(workload, args, workdir, env)
        else:
            values, attempted, failed = plain_run(workload, args, t_imported, workdir)

    print(f"# fail_ratio {failed / attempted} ({failed} of {attempted} operations)")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
