"""File-in, file-out command line front end.

One binary with subcommands; no network, no interactivity.  Reports embed
the library version and a hash of the effective configuration, and identical
(config, seed) pairs produce byte-identical output files.

Exit codes: 0 success, 2 validation error (bad JSON, schema, preconditions,
sizes refused before allocating), 3 numerical failure (quadrature, phase
tracking, an ambiguous order at the origin, or no sign pattern within
tolerance), 4 a checked mathematical relation failed beyond its slack.  The
sign search's pattern budget never causes exit 3: it caps the near-tied
patterns scored after the first accepted one and returns the best so far.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .density import (beurling_lower_profile, check_lemma1, circ_density_direct,
                      circ_density_lattice)
from .errors import NumericalError, VerificationError
from .generator import GeneratorParams, ft_eval, tail_bound, time_eval
from .jensen import build_context, verify_base_case
from .sigret import (ExperimentConfig, MagnitudeSample, run_threshold_experiment,
                     solve_signs)
from .sispace import (CoeffSeq, PointSet, SISFunction, apply_rolle_op,
                      check_interlacing, eval_deriv, eval_f, find_zeros,
                      segment_inequality)

COMMANDS = ("gen", "eval", "zeros", "density", "lemma1", "jensen", "interlace",
            "retrieve", "experiment")
FORMATS = ("json", "csv")


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str | None
    output_path: str | None
    seed: int
    format: str
    quiet: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")


def _config_hash(payload: dict, seed: int) -> str:
    text = json.dumps({"config": payload, "seed": seed}, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _load_config(config: RunConfig) -> dict:
    if config.input_path is None:
        raise ValueError(f"command {config.command!r} requires --config PATH")
    try:
        with open(config.input_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {config.input_path} at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return data


def _need(data: dict, key: str):
    if key not in data:
        raise ValueError(f"config missing required field {key!r}")
    return data[key]


def _float_list(obj, name: str) -> list:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{name} must be a nonempty list of numbers")
    try:
        vals = [float(v) for v in obj]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must contain numbers: {exc}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"{name} must contain finite numbers")
    return vals


def _int_value(obj, name: str) -> int:
    if isinstance(obj, float) and obj.is_integer():
        obj = int(obj)
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ValueError(f"{name} must be an integer, got {obj!r}")
    return obj


def _function_from(data: dict) -> SISFunction:
    params = GeneratorParams.from_json_dict(_need(data, "generator"))
    coeffs = CoeffSeq.from_json_dict(_need(data, "coeffs"))
    return SISFunction(params, coeffs)


# --- command handlers: each returns (result dict, csv rows or None, ok flag) ---

def _run_gen(data: dict, seed: int):
    params = GeneratorParams.from_json_dict(_need(data, "generator"))
    env = tail_bound(params)
    result = {"params": params.to_json_dict(), "m": params.m,
              "gauss_rate": params.gauss_rate,
              "time_amplitude": params.time_amplitude,
              "peak_value": time_eval(params, 0.0),
              "decay_radius_1e-12": env.decay_radius(1e-12)}
    if "xi" in data:
        xs = _float_list(data["xi"], "xi")
        result["ft_values"] = [[v.real, v.imag] for v in (ft_eval(params, x) for x in xs)]
    if "x" in data:
        xs = _float_list(data["x"], "x")
        result["time_values"] = [time_eval(params, x) for x in xs]
    return result, None, True


def _run_eval(data: dict, seed: int):
    f = _function_from(data)
    xs = np.asarray(_float_list(_need(data, "x"), "x"))
    result = {"x": xs.tolist(), "values": eval_f(f, xs).tolist()}
    rows = [("x", "f", "fprime")] if data.get("deriv") else [("x", "f")]
    if data.get("deriv"):
        result["deriv_values"] = eval_deriv(f, xs).tolist()
        rows += list(zip(result["x"], result["values"], result["deriv_values"]))
    else:
        rows += list(zip(result["x"], result["values"]))
    return result, rows, True


def _run_zeros(data: dict, seed: int):
    f = _function_from(data)
    interval = _float_list(_need(data, "interval"), "interval")
    if len(interval) != 2:
        raise ValueError("interval must be [lo, hi]")
    zeros = find_zeros(f, (interval[0], interval[1]))
    result = zeros.to_json_dict()
    result["touch_points"] = list(zeros.touch_points)
    rows = [("zero",)] + [(p,) for p in zeros.points]
    return result, rows, True


def _run_density(data: dict, seed: int):
    points = PointSet.from_json_dict(_need(data, "points"))
    radii = _float_list(_need(data, "radii"), "radii")
    profiles = [circ_density_direct(points, radii)]
    window = points.window
    if all(r <= (window[1] - window[0]) / 2 for r in radii):
        profiles.append(beurling_lower_profile(points, radii))
    for alpha in _float_list(data.get("alphas", [1.0]), "alphas"):
        profiles.append(circ_density_lattice(points, alpha, radii))
    result = {"profiles": [p.to_json_dict() for p in profiles],
              "estimates": {p.kind: p.extrapolated for p in profiles}}
    rows = [("kind", "r", "value")]
    for p in profiles:
        rows += p.csv_rows()
    return result, rows, True


def _run_lemma1(data: dict, seed: int):
    points = PointSet.from_json_dict(_need(data, "points"))
    radii = _float_list(_need(data, "radii"), "radii")
    alphas = _float_list(_need(data, "alphas"), "alphas")
    report = check_lemma1(points, alphas, radii)
    rows = [("r", "direct", "beurling", "max_form_gap", "domination_ok")]
    rows += [(w.r, w.direct, w.beurling, w.max_form_gap, w.domination_ok)
             for w in report.rows]
    return report.to_json_dict(), rows, report.ok


def _run_jensen(data: dict, seed: int):
    f = _function_from(data)
    radii = _float_list(_need(data, "radii"), "radii")
    ctx = build_context(f)
    report = verify_base_case(ctx, radii)
    result = report.to_json_dict()
    result["order_at_zero"] = ctx.order
    result["real_zero_count"] = len(ctx.real_zeros)
    rows = [("r", "lhs", "rhs", "circ_scaled", "bound", "extra_zeros", "samples")]
    rows += [(w.r, w.lhs, w.rhs, w.circ_scaled, w.bound, w.extra_zeros, w.samples)
             for w in report.rows]
    return result, rows, True


def _run_interlace(data: dict, seed: int):
    f = _function_from(data)
    interval = _float_list(_need(data, "interval"), "interval")
    if len(interval) != 2:
        raise ValueError("interval must be [lo, hi]")
    if f.params.m == 0:
        raise ValueError("interlace requires a generator with m >= 1")
    f1 = apply_rolle_op(f, f.params.deltas[-1])
    zf = find_zeros(f, (interval[0], interval[1]))
    zf1 = find_zeros(f1, (interval[0], interval[1]))
    inter = check_interlacing(zf, zf1)
    ts = _float_list(data.get("ts", [5.0, 10.0, 20.0]), "ts")
    segments = [segment_inequality(zf, zf1, t) for t in ts]
    ok = inter.ok and all(s.ok for s in segments)
    result = {"zeros_f": list(zf.points), "zeros_f1": list(zf1.points),
              "interlacing": {"ok": inter.ok, "ok_nonneg": inter.ok_nonneg,
                              "ok_nonpos": inter.ok_nonpos},
              "segments": [{"t": s.t, "lhs": s.lhs, "rhs": s.rhs, "ok": s.ok}
                           for s in segments],
              "ok": ok}
    rows = [("t", "lhs", "rhs", "ok")] + [(s.t, s.lhs, s.rhs, s.ok) for s in segments]
    return result, rows, ok


def _run_retrieve(data: dict, seed: int):
    params = GeneratorParams.from_json_dict(_need(data, "generator"))
    sample_obj = _need(data, "sample")
    if not isinstance(sample_obj, dict):
        raise ValueError("sample must be an object with points and magnitudes")
    points = PointSet.from_json_dict(_need(sample_obj, "points"))
    mags = _float_list(_need(sample_obj, "magnitudes"), "magnitudes")
    sample = MagnitudeSample(lam=points, magnitudes=tuple(mags))
    support = _need(data, "support")
    if not isinstance(support, list) or len(support) != 2:
        raise ValueError("support must be [klo, khi]")
    support = tuple(_int_value(k, "support") for k in support)
    max_changes = _int_value(_need(data, "max_changes"), "max_changes")
    result = solve_signs(params, sample, support, max_changes)
    payload = {"coeffs": result.coeffs.to_json_dict(),
               "signs": list(result.signs.signs),
               "change_points": list(result.signs.change_points),
               "residual": result.residual,
               "sign_changes": result.sign_changes,
               "nodes": result.nodes,
               "patterns": result.patterns,
               "second_pass": result.second_pass}
    rows = [("index", "point", "sign")]
    rows += [(i, p, s) for i, (p, s) in
             enumerate(zip(points.points, result.signs.signs))]
    return payload, rows, True


def _run_experiment(data: dict, seed: int):
    payload = dict(data)
    payload.setdefault("seed", seed)
    config = ExperimentConfig.from_json_dict(payload)
    report = run_threshold_experiment(config)
    rows = [("density", "trials", "successes", "mean_residual")]
    rows += [(w.density, w.trials, w.successes, w.mean_residual)
             for w in report.rows]
    return report.to_json_dict(), rows, True


_HANDLERS = {"gen": _run_gen, "eval": _run_eval, "zeros": _run_zeros,
             "density": _run_density, "lemma1": _run_lemma1,
             "jensen": _run_jensen, "interlace": _run_interlace,
             "retrieve": _run_retrieve, "experiment": _run_experiment}


def _render_json(command: str, result: dict, config_hash: str, seed: int) -> str:
    return json.dumps({"command": command, "version": __version__,
                       "config_hash": config_hash, "seed": seed,
                       "result": result}, sort_keys=True, indent=2) + "\n"


def _render_csv(command: str, rows, config_hash: str, seed: int) -> str:
    buf = io.StringIO()
    buf.write(f"# tpshift {command} version={__version__} "
              f"config_hash={config_hash} seed={seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def dispatch(config: RunConfig) -> int:
    """Run one command; write the report; map failures to exit codes."""
    try:
        data = _load_config(config)
        handler = _HANDLERS[config.command]
        result, rows, ok = handler(data, config.seed)
        chash = _config_hash(data, config.seed)
    except ValueError as exc:
        print(f"tpshift: validation error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"tpshift: relation violated: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"tpshift: numerical failure: {exc}", file=sys.stderr)
        return 3

    if config.format == "csv" and rows is not None:
        text = _render_csv(config.command, rows, chash, config.seed)
    else:
        text = _render_json(config.command, result, chash, config.seed)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if not config.quiet:
            print(f"tpshift {config.command}: wrote {config.output_path}")
    elif not config.quiet:
        sys.stdout.write(text)

    if not ok:
        print(f"tpshift: {config.command} relation check failed beyond slack",
              file=sys.stderr)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpshift",
        description="Density, zero-counting, and sign-retrieval toolbox for "
                    "shift combinations of Gaussian-type generators.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", dest="config_path", metavar="PATH",
                        help="input JSON file")
    parser.add_argument("--out", dest="out_path", metavar="PATH",
                        help="output report file (default: stdout)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=FORMATS, default="json")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(command=args.command, input_path=args.config_path,
                       output_path=args.out_path, seed=args.seed,
                       format=args.format, quiet=args.quiet)
    return dispatch(config)


if __name__ == "__main__":
    sys.exit(main())
