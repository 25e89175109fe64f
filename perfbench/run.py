"""Benchmark of tpshift's report-producing runs, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): zero_density, interlace, jensen_chain,
sign_retrieval.  Run from the repository root; the library is imported from
./src.  Each invocation starts fresh worker processes (worker.py) with BLAS
threads fixed at 1 and TPSHIFT_THREADS unset, so the sweep runs sequentially.

--trace 0 measures the end-to-end metrics: instances per second over the
timed phase, the 10th, 50th and 90th percentile instance time, set-up time
(the median over SETUP_RUNS worker processes, one of them the measuring
one), peak resident memory of the measuring process, and the failed
fraction.
--trace 1 runs the same instances with a span around every call into a
tpshift module and reports per-layer totals; its spans are written to
.bench_out/.  The tracing overhead is the difference between
instances_per_s and traced.instances_per_s.  Every run also writes all its
metrics, with the machine and library versions, to .bench_out/result-*.json.

Human-readable lines with sample counts come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  perfbench/report.py runs every workload both ways.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5
DEADLINE_S = 170.0
WORKLOADS = ("zero_density", "interlace", "jensen_chain", "sign_retrieval")
# Relative slack for the traced self times adding up to the instance time.
SUM_TOL = 1e-9
# End-to-end metrics in the JSON result, the ones BENCHMARK.json bounds.  On a
# shared 2-vCPU KVM guest the CPU drifts between a fast and a ~1.5x slower
# state for tens of seconds at a time.  Over ten 25-second runs the p90
# instance time spread by 8-15% (IQR/median) per workload, while p10, p50 and
# the throughput (a mean) moved by up to 28% on sign_retrieval, more than any
# bound allows.  They are printed, not bounded; failed_frac is printed, and
# the JSON carries its counts.
GATED = ("instance_ms_p90", "setup_s", "peak_rss_mb")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("TPSHIFT_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, deadline: float, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list, p: int) -> float:
    """p-th percentile, interpolating linearly between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(result: dict, setups: list) -> dict:
    times_ms = [t * 1e3 for t in result["instance_s"]]
    n = result["attempted"]
    p10, p50, p90 = (percentile(times_ms, p) for p in (10, 50, 90))
    below = sum(1 for t in times_ms if t < p10)
    beyond = sum(1 for t in times_ms if t > p90)
    metrics = {
        "instances_per_s": (n / result["elapsed_s"], "1/s",
                            f"{n} instances over {result['elapsed_s']:.2f} s"),
        "instance_ms_p10": (p10, "ms", f"n={n}, {below} below"),
        "instance_ms_p50": (p50, "ms", f"n={n}"),
        "instance_ms_p90": (p90, "ms", f"n={n}, {beyond} beyond"),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} processes: "
                    + ", ".join(f"{s:.3f}" for s in setups)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "1 process"),
        "failed_frac": (result["failed"] / n, "ratio", f"{result['failed']} of {n}"),
    }
    return metrics


def per_layer(result: dict) -> tuple:
    layers = {k: (v["value"], v["unit"], "") for k, v in result["layers"].items()}
    n = result["attempted"]
    layers["traced.instances_per_s"] = (n / result["elapsed_s"], "1/s",
                                        f"{n} instances over {result['elapsed_s']:.2f} s")
    self_total = sum(v for k, (v, _, _) in layers.items() if k.endswith(".self_ms"))
    instance_total = layers["traced.instance_ms"][0]
    problems = []
    if abs(self_total - instance_total) > SUM_TOL * max(instance_total, 1.0):
        problems.append(f"self times sum to {self_total} ms, instances took "
                        f"{instance_total} ms")
    layers["traced.instance_ms"] = (instance_total, "ms",
                                    f"sum of self_ms = {self_total:.3f} ms")
    return layers, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        ap.error("--seed must be nonnegative and --seconds in (0, 60]")
    if not (ROOT / "src" / "tpshift" / "__init__.py").is_file():
        print(f"no tpshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            # One file per workload, overwritten by the next traced run of it.
            spans_out = OUT / f"spans-{args.workload}.csv.gz"
            result = run_worker(args, deadline, "--spans-out", str(spans_out))
            shown, problems = per_layer(result)
            reported = shown
        else:
            # Set-up-only processes run on both sides of the measuring one, so
            # the median spans the whole run rather than one moment of it.
            before = [run_worker(args, deadline, "--setup-only")["setup_s"]
                      for _ in range(SETUP_RUNS // 2)]
            result = run_worker(args, deadline)
            after = [run_worker(args, deadline, "--setup-only")["setup_s"]
                     for _ in range(SETUP_RUNS - 1 - len(before))]
            shown = end_to_end(result, before + [result["setup_s"]] + after)
            reported, problems = {k: shown[k] for k in GATED}, []
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"env: nproc {env['nproc']} (usable {env['cpus_usable']}), python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, blas {env['blas']} "
          f"(threads {env['blas_threads']}), TPSHIFT_THREADS {env['tpshift_threads']}")
    for name, (value, unit, note) in shown.items():
        print(f"  {name:42s} {value:14.6g} {unit:6s} {note}")
    for failure in result["failures"]:
        print(f"  FAILED instance {failure['instance']} (pool entry {failure['entry']}): "
              + "; ".join(failure["problems"]))
    for problem in problems:
        print(f"  TRACE CHECK FAILED: {problem}")
    summary = {
        "correct": result["failed"] == 0 and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in reported.items()},
    }
    sidecar = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    sidecar.parent.mkdir(exist_ok=True)
    sidecar.write_text(json.dumps({
        **summary, "env": env, "failures": result["failures"],
        "all_metrics": {k: {"value": v, "unit": u, "note": note}
                        for k, (v, u, note) in shown.items()}}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
