"""One workload process: set up, run instances for a fixed time, print a JSON line.

run.py starts this script in a fresh process per workload, with BLAS
threads fixed at 1 and TPSHIFT_THREADS unset.  Set-up time runs from the
first statement of this process (before numpy and tpshift are imported) to
the first timed instance; it covers the imports, input generation and the
shared-table builds.  With --setup-only the process stops there.

Each instance's output is checked against the recorded reference and the
paper's relations; an instance that raises or fails a check is counted as
failed, never dropped.  With --trace 1 the spans of spans.py are installed
after set-up and the per-layer totals are reported instead of instance times.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tpshift  # noqa: E402

if Path(tpshift.__file__).resolve().parent != SRC / "tpshift":
    sys.exit(f"tpshift imported from {tpshift.__file__}, not from {SRC}")

import workloads  # noqa: E402

MAX_FAILURES_SHOWN = 5


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_build,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "tpshift_threads": os.environ.get("TPSHIFT_THREADS", "unset")}


def measure(workload, inputs: list, reference: list, seconds: float, tracer=None) -> dict:
    """Run instances in input order, wrapping around, until `seconds` have passed."""
    times, failures = [], []
    failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        inp = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(inp)
            else:
                out = tracer.run_instance(i, workload.run, inp)
        except Exception as exc:  # any error fails the instance; the run goes on
            t1 = time.perf_counter()
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            t1 = time.perf_counter()
            problems = workload.check(out, reference[inp["entry"]])
        times.append(t1 - t0)
        if problems:
            failed += 1
            if len(failures) < MAX_FAILURES_SHOWN:
                failures.append({"instance": i, "entry": inp["entry"], "problems": problems})
        i += 1
    return {"instance_s": times, "attempted": len(times), "failed": failed,
            "failures": failures, "elapsed_s": time.perf_counter() - start,
            "phase_start": start}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    inputs = [workload.make_input(p) for p in workloads.run_order(workload, args.seed)]
    workload.setup()
    reference = workloads.load_reference(args.workload)
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    result = measure(workload, inputs, reference, args.seconds, tracer)
    result.update(setup_s=setup_s, env=environment(),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        layers = spans.layer_metrics(tracer)
        result["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        if args.spans_out is not None:
            tracer.write_csv(args.spans_out, result["phase_start"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
