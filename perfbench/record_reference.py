"""Record every pool entry's output into reference.json.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the repository root at a commit whose outputs are trusted.  An
entry whose output breaks one of the paper's relations is reported and
nothing is written, since the benchmark would otherwise accept it.  Named
workloads are re-recorded; the others keep their recorded entries.
"""

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TPSHIFT_THREADS", None)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def record(name: str) -> list:
    workload = workloads.WORKLOADS[name]()
    workload.setup()
    outputs, bad = [], 0
    for entry in range(workload.pool_size):
        out = workload.run(workload.make_input(entry))
        problems = workload.check(out, out)
        if problems:
            bad += 1
            print(f"{name} entry {entry}: " + "; ".join(problems), file=sys.stderr)
        outputs.append(out)
    print(f"{name}: {workload.pool_size} entries, {bad} breaking a relation")
    if bad:
        raise SystemExit(1)
    return outputs


def main(names) -> int:
    path = workloads.REFERENCE_PATH
    data = {"corpus_seed": workloads.CORPUS_SEED, "workloads": {}}
    if path.exists():
        with open(path) as fh:
            data = json.load(fh)
        if data["corpus_seed"] != workloads.CORPUS_SEED:
            data = {"corpus_seed": workloads.CORPUS_SEED, "workloads": {}}
    for name in names or sorted(workloads.WORKLOADS):
        data["workloads"][name] = record(name)
    with open(path, "w") as fh:
        fh.write(f'{{"corpus_seed": {data["corpus_seed"]}, "workloads": {{\n')
        fh.write(",\n".join(
            f'"{name}": [\n' + ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
            + "\n]" for name, entries in sorted(data["workloads"].items())))
        fh.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
