"""Run every workload untraced and traced, and print all metrics and the tracing overhead.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the repository root.  Prints each run.py invocation's lines (the
end-to-end metrics with units and sample counts, then the per-layer
metrics), followed by one row per workload with the tracing overhead: the
untraced instances_per_s against the traced one.
"""

import argparse
import json
import subprocess
import sys

from run import HERE, OUT, ROOT, WORKLOADS

RUN = HERE / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=200)
    print(proc.stdout, end="", flush=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with code {proc.returncode}")
    sidecar = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(sidecar.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)
    rows = []
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        rate = plain["all_metrics"]["instances_per_s"]["value"]
        traced_rate = traced["all_metrics"]["traced.instances_per_s"]["value"]
        rows.append((workload, rate, traced_rate, plain["correct"] and traced["correct"]))
    print(f"\n{'workload':16s} {'instances/s':>12s} {'traced':>10s} {'overhead':>9s} correct")
    for workload, rate, traced_rate, correct in rows:
        print(f"{workload:16s} {rate:12.3f} {traced_rate:10.3f} "
              f"{(rate - traced_rate) / rate:9.1%} {correct}")
    return 0 if all(row[3] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
