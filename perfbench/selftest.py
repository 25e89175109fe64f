"""Self-test of the benchmark's output checks and tracing.

    python3 perfbench/selftest.py

For every workload it runs a few instances through worker.measure three
times: as they are (no instance may fail), with each output corrupted
(every instance must fail, so failed_frac > 0), and with the library call
raising (every instance must be counted as failed, none dropped).  It then
runs one traced pass and checks that the per-layer self times add up to the
traced instance time and that uninstalling restores the library.  Exits 0
when all of that holds.
"""

import copy
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TPSHIFT_THREADS", None)

import worker  # noqa: E402  (puts ./src first on sys.path)
import spans  # noqa: E402
import tpshift  # noqa: E402
import workloads  # noqa: E402

SECONDS = 0.3
SEED = 0


def _bump_first_count(out):
    out["zeros"] = [out["zeros"][0] + 1] + out["zeros"][1:]


def _shift_lhs(out):
    out["lhs"] = [out["lhs"][0] + 1e-3] + out["lhs"][1:]


def _drop_success(out):
    out["successes"] = out["successes"][:-1] + [out["successes"][-1] - 1]


def _break_interlacing(out):
    out["interlacing"] = False


CORRUPTIONS = {
    "zero_density": _bump_first_count,
    "interlace": _break_interlacing,
    "jensen_chain": _shift_lhs,
    "sign_retrieval": _drop_success,
}


def _raise(inp):
    raise RuntimeError("injected failure")


def main() -> int:
    errors = []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            errors.append(what)

    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        workload.setup()
        inputs = [workload.make_input(p) for p in workloads.run_order(workload, SEED)[:3]]
        reference = workloads.load_reference(name)

        clean = worker.measure(workload, inputs, reference, SECONDS)
        expect(clean["failed"] == 0, f"{name}: {clean['attempted']} clean instances pass")

        corrupted = copy.copy(workload)

        def corrupt_run(inp, run=workload.run, corrupt=CORRUPTIONS[name]):
            out = run(inp)
            corrupt(out)
            return out

        corrupted.run = corrupt_run
        bad = worker.measure(corrupted, inputs, reference, SECONDS)
        expect(bad["failed"] == bad["attempted"] > 0,
               f"{name}: corrupted outputs fail ({bad['failed']} of {bad['attempted']}): "
               + "; ".join(bad["failures"][0]["problems"]))

        corrupted.run = _raise
        raised = worker.measure(corrupted, inputs, reference, SECONDS)
        expect(raised["failed"] == raised["attempted"] == len(raised["instance_s"]) > 0,
               f"{name}: raising instances are counted as failed, none dropped")

    workload = workloads.WORKLOADS["interlace"]()
    workload.setup()
    inputs = [workload.make_input(p) for p in workloads.run_order(workload, SEED)[:3]]
    original = tpshift.sispace.eval_f
    tracer = spans.Tracer()
    patched = spans.install(tracer)
    try:
        traced = worker.measure(workload, inputs, workloads.load_reference("interlace"),
                                SECONDS, tracer)
    finally:
        spans.uninstall(patched)
    layers = spans.layer_metrics(tracer)
    self_total = sum(v for k, (v, _) in layers.items() if k.endswith(".self_ms"))
    instance_total = layers["traced.instance_ms"][0]
    expect(traced["failed"] == 0 and layers["traced.instances"][0] == traced["attempted"],
           "traced instances pass and each has one root span")
    expect(abs(self_total - instance_total) <= 1e-9 * instance_total,
           f"self times sum to the instance time ({self_total:.3f} vs {instance_total:.3f} ms)")
    expect(layers["sispace.eval_f.calls"][0] > 0 and layers["generator.build_table.calls"][0] > 0,
           "calls between modules are traced (eval_f from find_zeros, build_table "
           "from apply_rolle_op)")
    expect(tpshift.sispace.eval_f is original and tpshift.jensen.eval_f is original,
           "uninstall restores the library functions")

    print(f"{len(errors)} self-test failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
