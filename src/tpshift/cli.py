"""File-in, file-out command line front end.

One binary with subcommands; no network, no interactivity.  Reports embed
the library version and a hash of the effective configuration, and identical
(config, seed) pairs produce byte-identical output files.

Exit codes: 0 success, 2 validation error (bad JSON, schema, preconditions,
sizes refused before allocating, an --out path that cannot be written), 3
numerical failure (quadrature, phase tracking, an ambiguous order at the
origin, or no sign pattern within tolerance), 4 a checked mathematical
relation failed beyond its slack.  The sign search's pattern budget never
causes exit 3: it caps the near-tied patterns scored after the first
accepted one and returns the best so far.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys

import numpy as np

from . import __version__
from .density import (beurling_lower_profile, check_lemma1, circ_density_direct,
                      circ_density_lattice)
from .errors import NumericalError, VerificationError
from .generator import GeneratorParams, decay_radius, ft_eval, time_eval
from .jensen import build_context, verify_base_case
from .sigret import (ExperimentConfig, MagnitudeSample, run_threshold_experiment,
                     solve_signs)
from .sispace import (CoeffSeq, PointSet, SISFunction, apply_rolle_op, check_interlacing,
                      eval_deriv, eval_f, find_zeros, segment_inequality)


def _config_hash(payload: dict, seed: int) -> str:
    text = json.dumps({"config": payload, "seed": seed}, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _load_config(args: argparse.Namespace) -> dict:
    if args.config_path is None:
        raise ValueError(f"command {args.command!r} requires --config PATH")
    try:
        with open(args.config_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {args.config_path} at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError(f"{args.config_path} nests too deeply to read") from exc
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return data


# --- JSON readers: the only code that knows the input format.  A number field
# takes a JSON number only, and an unknown field is refused at every level. ---

def _fields(obj, name: str, required: tuple, optional: tuple = ()) -> dict:
    """obj as a JSON object with every required field and no field beyond both lists."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object")
    for key in required:
        if key not in obj:
            raise ValueError(f"{name} missing required field {key!r}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"{name} has unknown fields {sorted(unknown)}")
    return obj


def _number(obj, name: str) -> float:
    """A finite JSON number (int or float) as a float; any other value is refused."""
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ValueError(f"{name} must be a number, got {obj!r}")
    if not abs(obj) <= sys.float_info.max:  # NaN, infinities and ints past the doubles
        raise ValueError(f"{name} must be a finite double, got {obj!r}")
    return float(obj)


def _numbers(obj, name: str, empty: bool = False) -> list:
    """A JSON list of finite numbers as floats; nonempty unless empty is allowed."""
    if not isinstance(obj, list) or not (obj or empty):
        raise ValueError(f"{name} must be a {'' if empty else 'nonempty '}list of numbers")
    return [_number(v, f"{name}[{i}]") for i, v in enumerate(obj)]


def _integer(obj, name: str) -> int:
    """An integer from JSON: ints and integral floats pass, bools and the rest are refused."""
    if isinstance(obj, float) and obj.is_integer():
        obj = int(obj)
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ValueError(f"{name} must be an integer, got {obj!r}")
    return obj


def _pair(obj, name: str, read=_number) -> tuple:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValueError(f"{name} must be [lo, hi]")
    return tuple(read(v, f"{name}[{i}]") for i, v in enumerate(obj))


def _generator(obj) -> GeneratorParams:
    d = _fields(obj, "generator", ("c0", "gamma"), ("deltas",))
    return GeneratorParams(_number(d["c0"], "generator.c0"),
                           _number(d["gamma"], "generator.gamma"),
                           _numbers(d.get("deltas", []), "generator.deltas", empty=True))


def _coeff_seq(obj) -> CoeffSeq:
    d = _fields(obj, "coeffs", ("offset", "coeffs"))
    return CoeffSeq(_integer(d["offset"], "coeffs.offset"),
                    _numbers(d["coeffs"], "coeffs.coeffs"))


def _point_set(obj, name: str) -> PointSet:
    d = _fields(obj, name, ("points", "window"))
    return PointSet(_numbers(d["points"], f"{name}.points", empty=True),
                    _numbers(d["window"], f"{name}.window"))


def _function_from(data: dict) -> SISFunction:
    return SISFunction(_generator(data["generator"]), _coeff_seq(data["coeffs"]))


def _experiment_config(data: dict, seed: int) -> ExperimentConfig:
    """The experiment config; a missing seed takes the --seed value."""
    d = _fields(data, "config", ("generator", "densities", "trials", "support", "window",
                                 "max_changes"), ("seed", "noise", "pair_offset"))
    return ExperimentConfig(generator=_generator(d["generator"]),
                            densities=_numbers(d["densities"], "densities", empty=True),
                            trials=_integer(d["trials"], "trials"),
                            seed=_integer(d.get("seed", seed), "seed"),
                            support=_pair(d["support"], "support", _integer),
                            window=_numbers(d["window"], "window"),
                            max_changes=_integer(d["max_changes"], "max_changes"),
                            noise=_number(d.get("noise", 0.0), "noise"),
                            pair_offset=_number(d.get("pair_offset", 0.0), "pair_offset"))


# --- command handlers: each returns (result dict, csv rows or None, ok flag) ---

def _run_gen(data: dict, seed: int):
    _fields(data, "config", ("generator",), ("xi", "x"))
    params = _generator(data["generator"])
    result = {"params": params.to_json_dict(), "m": params.m,
              "gauss_rate": params.gauss_rate,
              "time_amplitude": params.time_amplitude,
              "peak_value": time_eval(params, 0.0),
              "decay_radius_1e-12": decay_radius(params, 1e-12)}
    if "xi" in data:
        xs = _numbers(data["xi"], "xi")
        result["ft_values"] = [[v.real, v.imag] for v in (ft_eval(params, x) for x in xs)]
    if "x" in data:
        xs = _numbers(data["x"], "x")
        result["time_values"] = [time_eval(params, x) for x in xs]
    return result, None, True


def _run_eval(data: dict, seed: int):
    _fields(data, "config", ("generator", "coeffs", "x"), ("deriv",))
    f = _function_from(data)
    xs = np.asarray(_numbers(data["x"], "x"))
    deriv = data.get("deriv", False)
    if not isinstance(deriv, bool):
        raise ValueError(f"deriv must be true or false, not {deriv!r}")
    result = {"x": xs.tolist(), "values": eval_f(f, xs).tolist()}
    rows = [("x", "f", "fprime")] if deriv else [("x", "f")]
    if deriv:
        result["deriv_values"] = eval_deriv(f, xs).tolist()
        rows += list(zip(result["x"], result["values"], result["deriv_values"]))
    else:
        rows += list(zip(result["x"], result["values"]))
    return result, rows, True


def _run_zeros(data: dict, seed: int):
    _fields(data, "config", ("generator", "coeffs", "interval"))
    f = _function_from(data)
    zeros = find_zeros(f, _pair(data["interval"], "interval"))
    result = zeros.to_json_dict()
    result["touch_points"] = list(zeros.touch_points)
    rows = [("zero",)] + [(p,) for p in zeros.points]
    return result, rows, True


def _run_density(data: dict, seed: int):
    _fields(data, "config", ("points", "radii"), ("alphas",))
    points = _point_set(data["points"], "points")
    radii = _numbers(data["radii"], "radii")
    profiles = [circ_density_direct(points, radii)]
    window = points.window
    if all(r <= (window[1] - window[0]) / 2 for r in radii):
        profiles.append(beurling_lower_profile(points, radii))
    for alpha in _numbers(data.get("alphas", [1.0]), "alphas"):
        profiles.append(circ_density_lattice(points, alpha, radii))
    result = {"profiles": [p.to_json_dict() for p in profiles],
              "estimates": {p.kind: p.extrapolated for p in profiles}}
    rows = [("kind", "r", "value")]
    for p in profiles:
        rows += p.csv_rows()
    return result, rows, True


def _run_lemma1(data: dict, seed: int):
    _fields(data, "config", ("points", "radii", "alphas"))
    points = _point_set(data["points"], "points")
    radii = _numbers(data["radii"], "radii")
    alphas = _numbers(data["alphas"], "alphas")
    report = check_lemma1(points, alphas, radii)
    rows = [("r", "direct", "beurling", "max_form_gap", "domination_ok")]
    rows += [(w.r, w.direct, w.beurling, w.max_form_gap, w.domination_ok)
             for w in report.rows]
    return report.to_json_dict(), rows, report.ok


def _run_jensen(data: dict, seed: int):
    _fields(data, "config", ("generator", "coeffs", "radii"))
    f = _function_from(data)
    radii = _numbers(data["radii"], "radii")
    ctx = build_context(f)
    report = verify_base_case(ctx, radii)
    result = report.to_json_dict()
    result["order_at_zero"] = ctx.order
    result["zero_set_complete"] = ctx.zero_set_complete
    result["real_zero_count"] = len(ctx.real_zeros)
    rows = [("r", "lhs", "rhs", "circ_scaled", "bound", "extra_zeros", "samples")]
    rows += [(w.r, w.lhs, w.rhs, w.circ_scaled, w.bound, w.extra_zeros, w.samples)
             for w in report.rows]
    return result, rows, True


def _run_interlace(data: dict, seed: int):
    _fields(data, "config", ("generator", "coeffs", "interval"), ("ts",))
    f = _function_from(data)
    interval = _pair(data["interval"], "interval")
    ts = _numbers(data.get("ts", [5.0, 10.0, 20.0]), "ts")
    if f.params.m == 0:
        raise ValueError("interlace requires a generator with m >= 1")
    f1 = apply_rolle_op(f, f.params.deltas[-1])
    zf = find_zeros(f, interval)
    zf1 = find_zeros(f1, interval)
    inter = check_interlacing(zf, zf1)
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
    _fields(data, "config", ("generator", "sample", "support", "max_changes"))
    params = _generator(data["generator"])
    sample_obj = _fields(data["sample"], "sample", ("points", "magnitudes"))
    points = _point_set(sample_obj["points"], "sample.points")
    mags = _numbers(sample_obj["magnitudes"], "sample.magnitudes")
    sample = MagnitudeSample(lam=points, magnitudes=mags)
    result = solve_signs(params, sample, _pair(data["support"], "support", _integer),
                         _integer(data["max_changes"], "max_changes"))
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
    report = run_threshold_experiment(_experiment_config(data, seed))
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


def dispatch(args: argparse.Namespace) -> int:
    """Run one command; write the report; map failures to exit codes."""
    try:
        data = _load_config(args)
        handler = _HANDLERS[args.command]
        result, rows, ok = handler(data, args.seed)
        chash = _config_hash(data, args.seed)
    except ValueError as exc:
        print(f"tpshift: validation error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"tpshift: relation violated: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"tpshift: numerical failure: {exc}", file=sys.stderr)
        return 3

    if args.format == "csv" and rows is not None:
        text = _render_csv(args.command, rows, chash, args.seed)
    else:
        text = _render_json(args.command, result, chash, args.seed)
    if args.out_path:
        try:
            with open(args.out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"tpshift: validation error: cannot write {args.out_path}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
        if not args.quiet:
            print(f"tpshift {args.command}: wrote {args.out_path}")
    elif not args.quiet:
        sys.stdout.write(text)

    if not ok:
        print(f"tpshift: {args.command} relation check failed beyond slack",
              file=sys.stderr)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpshift",
        description="Density, zero-counting, and sign-retrieval toolbox for "
                    "shift combinations of Gaussian-type generators.")
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", dest="config_path", metavar="PATH",
                        help="input JSON file")
    parser.add_argument("--out", dest="out_path", metavar="PATH",
                        help="output report file (default: stdout)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
