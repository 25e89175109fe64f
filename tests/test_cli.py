import copy
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tpshift.cli as cli
from tpshift.errors import ChainViolationError, QuadratureError
from tpshift.generator import GeneratorParams, log_envelope


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv):
    return cli.main(argv)


def run_in_768_mib(command, path):
    """Run the CLI in a subprocess whose address space is capped at 768 MiB."""
    resource = pytest.importorskip("resource")
    limit = 768 << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "tpshift.cli", command,
                           "--config", path, "--quiet"],
                          env=env, preexec_fn=cap, capture_output=True, text=True,
                          timeout=300)


GAUSS = {"c0": 1.0, "gamma": math.pi**2, "deltas": []}
RETRIEVE_PTS = (np.arange(-12, 16) / 3.0).tolist()
RETRIEVE = {"generator": GAUSS,
            "sample": {"points": {"points": RETRIEVE_PTS, "window": [-4.0, 5.0]},
                       "magnitudes": [abs(math.exp(-x * x) - math.exp(-(x - 1) ** 2))
                                      / math.sqrt(math.pi) for x in RETRIEVE_PTS]},
            "support": [0, 1], "max_changes": 3}
POINTS = {"points": [-1.0, 0.0, 2.0], "window": [-3.0, 3.0]}
PAIR = {"offset": 0, "coeffs": [1.0, -1.0]}
# One small valid config per command; the fuzz test breaks one field at a time.
BASE_CONFIGS = {
    "gen": {"generator": GAUSS, "xi": [0.5], "x": [0.0]},
    "eval": {"generator": GAUSS, "coeffs": PAIR, "x": [0.0, 0.5], "deriv": True},
    "zeros": {"generator": GAUSS, "coeffs": PAIR, "interval": [-4.0, 5.0]},
    "density": {"points": POINTS, "radii": [1.0, 2.0], "alphas": [1.0]},
    "lemma1": {"points": POINTS, "radii": [1.0, 2.0], "alphas": [0.5, 1.0]},
    "jensen": {"generator": GAUSS, "coeffs": PAIR, "radii": [2.0]},
    "interlace": {"generator": {"c0": 1.0, "gamma": math.pi**2, "deltas": [0.45]},
                  "coeffs": {"offset": -2, "coeffs": [1.0, -0.5, 0.8, -1.2, 0.3]},
                  "interval": [-6.0, 6.0], "ts": [5.0]},
    "retrieve": RETRIEVE,
    "experiment": {"generator": GAUSS, "densities": [2.5], "trials": 1, "seed": 3,
                   "support": [-2, 2], "window": [-4.0, 4.0], "max_changes": 8},
}


class TestValidation:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"points": [1, 2')
        assert run(["density", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["density", "--config", str(tmp_path / "nope.json")]) == 2

    def test_missing_config_flag_exits_2(self):
        assert run(["density"]) == 2

    @pytest.mark.parametrize("command,config", [
        ("retrieve", dict(RETRIEVE, support=5)),
        ("retrieve", dict(RETRIEVE, support=[0, 1, 2])),
        ("retrieve", dict(RETRIEVE, max_changes=[1])),
        ("retrieve", dict(RETRIEVE, max_changes=math.inf)),
        ("density", {"points": {"points": [0.0], "window": [1]}, "radii": [1.0]}),
        ("density", {"points": POINTS, "radii": [math.nan]}),
        ("density", {"points": POINTS, "radii": [1.0], "alphas": [math.inf]}),
        ("density", {"points": {"points": [math.nan], "window": [-1.0, 1.0]},
                     "radii": [1.0]}),
        ("zeros", {"generator": GAUSS, "coeffs": PAIR, "interval": [0.0, math.inf]}),
        ("zeros", {"generator": GAUSS, "coeffs": dict(PAIR, offset=math.inf),
                   "interval": [0.0, 1.0]}),
        ("interlace", dict(BASE_CONFIGS["interlace"], ts=[math.inf])),
        ("experiment", dict(BASE_CONFIGS["experiment"], support=[1])),
        ("experiment", dict(BASE_CONFIGS["experiment"], trials=math.inf)),
        ("experiment", dict(BASE_CONFIGS["experiment"], window=[-4.0, math.nan])),
        # Integer fields refuse non-integral numbers, bools and strings.
        ("eval", dict(BASE_CONFIGS["eval"], coeffs=dict(PAIR, offset=0.5))),
        ("zeros", dict(BASE_CONFIGS["zeros"], coeffs=dict(PAIR, offset=True))),
        ("retrieve", dict(RETRIEVE, max_changes="3")),
        ("experiment", dict(BASE_CONFIGS["experiment"], trials=1.9)),
        ("experiment", dict(BASE_CONFIGS["experiment"], support=[-2.7, 2.2])),
        ("experiment", dict(BASE_CONFIGS["experiment"], max_changes="8")),
        ("experiment", dict(BASE_CONFIGS["experiment"], seed=True)),
        # Offsets beyond MAX_OFFSET and more trials than the experiment cap.
        ("eval", dict(BASE_CONFIGS["eval"], coeffs=dict(PAIR, offset=2**63))),
        ("eval", dict(BASE_CONFIGS["eval"], coeffs=dict(PAIR, offset=-2**63))),
        ("eval", dict(BASE_CONFIGS["eval"], coeffs=dict(PAIR, offset=2**63 - 1))),
        ("eval", dict(BASE_CONFIGS["eval"], coeffs=dict(PAIR, offset=2**31 + 1))),
        ("zeros", dict(BASE_CONFIGS["zeros"], coeffs=dict(PAIR, offset=1e18))),
        ("zeros", dict(BASE_CONFIGS["zeros"], coeffs=dict(PAIR, offset=-1e18))),
        ("interlace", dict(BASE_CONFIGS["interlace"],
                           coeffs=dict(BASE_CONFIGS["interlace"]["coeffs"], offset=1e300))),
        ("experiment", dict(BASE_CONFIGS["experiment"], trials=1e12)),
        ("experiment", dict(BASE_CONFIGS["experiment"], trials=2**63 - 1)),
        # Radii past the density profiles' range, and magnitudes whose
        # squares overflow, given or sampled.
        ("density", {"points": POINTS, "radii": [1.0, 1e300]}),
        ("lemma1", dict(BASE_CONFIGS["lemma1"], radii=[1e300])),
        ("retrieve", dict(RETRIEVE, sample=dict(
            RETRIEVE["sample"], magnitudes=[1e300] + RETRIEVE["sample"]["magnitudes"][1:]))),
        ("experiment", dict(BASE_CONFIGS["experiment"], generator=dict(GAUSS, c0=1e300))),
        # Radii so small that pi r^2 or 1/(pi r^2) leaves the doubles, and a
        # lattice profile whose value at the smallest radius does.
        ("jensen", dict(BASE_CONFIGS["jensen"], radii=[1e-300])),
        ("jensen", dict(BASE_CONFIGS["jensen"], radii=[1e-160])),
        ("density", dict(BASE_CONFIGS["density"], radii=[1e-160])),
        ("lemma1", dict(BASE_CONFIGS["lemma1"], radii=[1e-160])),
        ("density", dict(BASE_CONFIGS["density"], radii=[1e-320])),
        ("density", {"points": {"points": [1e-200, 1.0], "window": [-3.0, 3.0]},
                     "radii": [1.4e-154]}),
        # Chord radii and lattice steps outside the radius domain, and
        # generators, densities and supports whose derived scales leave the
        # doubles.
        ("interlace", dict(BASE_CONFIGS["interlace"], ts=[1e300])),
        ("interlace", dict(BASE_CONFIGS["interlace"], ts=[1e-300])),
        ("density", dict(BASE_CONFIGS["density"], alphas=[5e-324])),
        ("gen", dict(BASE_CONFIGS["gen"], generator=dict(GAUSS, gamma=5e-324))),
        ("experiment", dict(BASE_CONFIGS["experiment"], densities=[5e-324])),
        ("retrieve", dict(RETRIEVE, support=[1e300, 1e300])),
    ])
    def test_malformed_shapes_and_nonfinite_values_exit_2(self, tmp_path, capsys, command,
                                                          config):
        path = write_config(tmp_path, "cfg.json", config)
        assert run([command, "--config", path, "--quiet"]) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,config", [
        ("eval", dict(BASE_CONFIGS["eval"], coeffs=dict(PAIR, offset=0.0))),
        ("experiment", dict(BASE_CONFIGS["experiment"], trials=1.0, seed=3.0,
                            support=[-2.0, 2.0], max_changes=8.0)),
    ])
    def test_integral_floats_read_as_integers(self, tmp_path, command, config):
        reports = []
        for name, cfg in (("int.json", BASE_CONFIGS[command]), ("float.json", config)):
            out = tmp_path / f"{name}.out"
            assert run([command, "--config", write_config(tmp_path, name, cfg),
                        "--out", str(out), "--quiet"]) == 0
            reports.append(json.loads(out.read_text())["result"])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("offset", [-2**31, 2**31])
    def test_offset_at_range_edge_evaluates(self, tmp_path, offset):
        values = []
        for k in (0, offset):
            cfg = dict(BASE_CONFIGS["eval"], coeffs=dict(PAIR, offset=k), x=[k + 0.25])
            out = tmp_path / "edge.json"
            assert run(["eval", "--config", write_config(tmp_path, "cfg.json", cfg),
                        "--out", str(out), "--quiet"]) == 0
            values += json.loads(out.read_text())["result"]["values"]
        assert abs(values[0]) > 0.1
        assert values[1] == pytest.approx(values[0], abs=1e-6)

    def test_schema_violation_exits_2(self, tmp_path):
        path = write_config(tmp_path, "cfg.json",
                            {"points": {"points": [0.0], "window": [-1.0, 1.0],
                                        "bogus": 1}, "radii": [1.0]})
        assert run(["density", "--config", path]) == 2


class TestCommands:
    def test_gen_json_report(self, tmp_path):
        path = write_config(tmp_path, "gen.json", {"generator": GAUSS, "x": [0.0]})
        out = tmp_path / "gen.out.json"
        assert run(["gen", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        assert report["command"] == "gen"
        assert report["result"]["time_values"][0] == pytest.approx(1 / math.sqrt(math.pi))
        assert "config_hash" in report and "version" in report

    def test_gen_tiny_gamma_runs_without_warning(self, tmp_path):
        path = write_config(tmp_path, "gen.json",
                            dict(BASE_CONFIGS["gen"], generator=dict(GAUSS, gamma=1e-300)))
        out = tmp_path / "gen.out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["gen", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert "NaN" not in out.read_text() and "Infinity" not in out.read_text()

    @pytest.mark.parametrize("generator", [{"c0": 1.0, "gamma": 1e-300, "deltas": [1e10]},
                                           {"c0": 1.0, "gamma": math.pi**2, "deltas": [1e-300]}])
    def test_gen_far_point_runs_without_warning(self, tmp_path, capsys, generator):
        # sqrt(a)*(1/(2ab) - x) overflows at x = 1e300 for the first
        # generator, exp(-a x^2) being 0 there; the second has an inf tilt.
        path = write_config(tmp_path, "gen.json", {"generator": generator, "x": [1e300]})
        out = tmp_path / "gen.out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["gen", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads(out.read_text())["result"]["time_values"] == [0.0]

    def test_gen_reports_a_radius_past_a_million(self, tmp_path):
        generator = {"c0": 1.0, "gamma": 1.0, "deltas": [3e4]}
        path = write_config(tmp_path, "gen.json", {"generator": generator})
        out = tmp_path / "gen.out.json"
        assert run(["gen", "--config", path, "--out", str(out), "--quiet"]) == 0
        radius = json.loads(out.read_text())["result"]["decay_radius_1e-12"]
        assert math.isfinite(radius) and radius > 1e5
        params = GeneratorParams.from_json_dict(generator)
        assert max(log_envelope(params, radius), log_envelope(params, -radius)) \
            <= math.log(1e-12)

    def test_density_csv(self, tmp_path):
        pts = list(np.arange(-200.0, 201.0))
        path = write_config(tmp_path, "d.json",
                            {"points": {"points": pts, "window": [-200.0, 200.0]},
                             "radii": [50.0], "alphas": [1.0]})
        out = tmp_path / "prof.csv"
        assert run(["density", "--config", path, "--out", str(out),
                    "--format", "csv", "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# tpshift density version=")
        assert lines[1] == "kind,r,value"
        kinds = {line.split(",")[0] for line in lines[2:]}
        assert kinds == {"circ_direct", "beurling_lower", "circ_lattice"}

    def test_zeros_command(self, tmp_path):
        path = write_config(tmp_path, "z.json",
                            {"generator": GAUSS,
                             "coeffs": {"offset": 0, "coeffs": [1.0, -1.0]},
                             "interval": [-4.0, 5.0]})
        out = tmp_path / "zeros.json"
        assert run(["zeros", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["points"] == pytest.approx([0.5], abs=1e-9)

    @pytest.mark.parametrize("command,keys", [("zeros", ("points",)),
                                              ("interlace", ("zeros_f", "zeros_f1"))])
    def test_huge_coefficients_find_the_same_zeros(self, tmp_path, command, keys):
        # Products of neighbouring scan values near 1e300 overflow.
        results = []
        for scale in (1.0, 1e300):
            cfg = BASE_CONFIGS[command]
            coeffs = dict(cfg["coeffs"], coeffs=[scale * c for c in cfg["coeffs"]["coeffs"]])
            path = write_config(tmp_path, "cfg.json", dict(cfg, coeffs=coeffs))
            out = tmp_path / "out.json"
            assert run([command, "--config", path, "--out", str(out), "--quiet"]) == 0
            results.append(json.loads(out.read_text())["result"])
        for key in keys:
            assert results[0][key]
            assert results[1][key] == pytest.approx(results[0][key], abs=1e-9)

    @pytest.mark.parametrize("command,field,value,message", [
        ("zeros", "interval", [-1e15, 1e15], "scan points"),
        ("interlace", "interval", [-1e15, 1e15], "scan points"),
        ("jensen", "radii", [1e15], "moduli"),
        ("density", "radii", [1e15], "moduli"),
        ("experiment", "window", [-1e15, 1e15], "sample points"),
    ], ids=["zeros", "interlace", "jensen", "density", "experiment"])
    def test_oversized_interval_exits_2(self, tmp_path, capsys, command, field, value,
                                        message):
        # Sizes are refused before allocating, not by a MemoryError traceback.
        config = dict(BASE_CONFIGS[command], **{field: value})
        path = write_config(tmp_path, "huge.json", config)
        assert run([command, "--config", path, "--quiet"]) == 2
        assert message in capsys.readouterr().err

    def test_eval_command(self, tmp_path):
        path = write_config(tmp_path, "e.json",
                            {"generator": GAUSS,
                             "coeffs": {"offset": 0, "coeffs": [1.0]},
                             "x": [0.0, 0.5], "deriv": True})
        out = tmp_path / "eval.json"
        assert run(["eval", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["values"][0] == pytest.approx(1 / math.sqrt(math.pi), abs=1e-8)
        assert report["result"]["deriv_values"][0] == pytest.approx(0.0, abs=1e-8)

    def test_lemma1_ok(self, tmp_path):
        pts = list(np.arange(-300.0, 301.0))
        path = write_config(tmp_path, "l.json",
                            {"points": {"points": pts, "window": [-300.0, 300.0]},
                             "radii": [60.0, 120.0], "alphas": [0.5, 1.0]})
        assert run(["lemma1", "--config", path, "--quiet"]) == 0

    def test_jensen_suite(self, tmp_path):
        rng = np.random.default_rng(1)
        c = (rng.uniform(0.9, 1.1, 24) * (-1.0) ** np.arange(24)).tolist()
        path = write_config(tmp_path, "j.json",
                            {"generator": GAUSS,
                             "coeffs": {"offset": -12, "coeffs": c},
                             "radii": [2.0, 4.0]})
        out = tmp_path / "jensen.json"
        assert run(["jensen", "--config", path, "--out", str(out), "--quiet"]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["order_at_zero"] == 0 and result["zero_set_complete"] is True
        rows = result["rows"]
        assert len(rows) == 2
        for row in rows:
            assert abs(row["lhs"] - row["rhs"]) < 2e-6
            assert row["extra_zeros"] == 0
            # The proven grid: a power of two from 64.
            assert row["samples"] >= 64 and row["samples"] & (row["samples"] - 1) == 0

    def test_jensen_positive_coefficients_take_the_winding_count(self, tmp_path):
        # No real zeros against a degree of 39: the zero set is not certified,
        # and the winding count finds the zeros off the real lattice.
        rng = np.random.default_rng(61)
        path = write_config(tmp_path, "j.json",
                            {"generator": GAUSS,
                             "coeffs": {"offset": -20,
                                        "coeffs": rng.uniform(0.9, 1.1, 40).tolist()},
                             "radii": [2.0, 4.0, 8.0]})
        out = tmp_path / "jensen.json"
        assert run(["jensen", "--config", path, "--out", str(out), "--quiet"]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["zero_set_complete"] is False and result["real_zero_count"] == 0
        assert [row["extra_zeros"] for row in result["rows"]][:2] == [4, 16]
        assert all(row["samples"] >= 1024 for row in result["rows"])

    @pytest.mark.parametrize("c0,offset", [(1e-12, -6), (1.0, 10), (1.0, 1000)])
    def test_jensen_small_or_shifted_function_exits_0(self, tmp_path, c0, offset):
        # f(0) is far below 1e-8 in all; the order test is relative.
        rng = np.random.default_rng(1)
        c = (rng.uniform(0.9, 1.1, 12) * (-1.0) ** np.arange(12)).tolist()
        path = write_config(tmp_path, "j.json",
                            {"generator": dict(GAUSS, c0=c0),
                             "coeffs": {"offset": offset, "coeffs": c},
                             "radii": [2.0, 4.0]})
        out = tmp_path / "jensen.json"
        assert run(["jensen", "--config", path, "--out", str(out), "--quiet"]) == 0
        for row in json.loads(out.read_text())["result"]["rows"]:
            assert row["extra_zeros"] == 0 and abs(row["lhs"] - row["rhs"]) < 2e-6

    def test_jensen_far_support_is_a_numerical_failure(self, tmp_path, capsys):
        # At offset 4000 log|F| sums terms near 1.6e7 that cancel: their
        # rounding exceeds the proven grid's 1e-9 r^2, which is exit 3 and
        # not a violated relation (exit 4).
        rng = np.random.default_rng(1)
        c = (rng.uniform(0.9, 1.1, 12) * (-1.0) ** np.arange(12)).tolist()
        path = write_config(tmp_path, "j.json",
                            {"generator": GAUSS,
                             "coeffs": {"offset": 4000, "coeffs": c},
                             "radii": [2.0, 4.0]})
        assert run(["jensen", "--config", path, "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "rounding" in err and "Traceback" not in err

    def test_jensen_many_coefficients_in_bounded_memory(self, tmp_path):
        # 300 coefficients: the proven grids at r = 60 and 150 hold 16384 and
        # 65536 contour samples, 8193 and 32769 of them evaluated at once
        # with those of r = 60; one (samples x coefficients) complex array
        # would take 188 MiB.
        rng = np.random.default_rng(3)
        c = (rng.uniform(0.9, 1.1, 300) * (-1.0) ** np.arange(300)).tolist()
        path = write_config(tmp_path, "big.json",
                            {"generator": GAUSS,
                             "coeffs": {"offset": -150, "coeffs": c},
                             "radii": [60.0, 150.0]})
        proc = run_in_768_mib("jensen", path)
        assert proc.returncode in (0, 3), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_eval_many_coefficients_in_bounded_memory(self, tmp_path):
        # 20,000 shifts sum to 800,000 piece coefficients, within the cap.
        path = write_config(tmp_path, "big.json",
                            {"generator": GAUSS,
                             "coeffs": {"offset": 0, "coeffs": [1.0] * 20000},
                             "x": [0.0]})
        proc = run_in_768_mib("eval", path)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_jensen_ambiguous_order_exits_3(self, tmp_path, capsys):
        # f(0) = 4.15e-10 is neither clearly zero nor clearly nonzero.
        c = 2.0 * math.exp(-1.0) * (1.0 - 1e-9)
        path = write_config(tmp_path, "amb.json",
                            {"generator": GAUSS,
                             "coeffs": {"offset": -1, "coeffs": [1.0, -c, 1.0]},
                             "radii": [2.0]})
        assert run(["jensen", "--config", path, "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "ambiguous" in err and "Traceback" not in err

    @pytest.mark.parametrize("deltas", [[0.45, 0.45], [0.45, 0.4501, 0.4502]])
    def test_coincident_deltas_exit_2(self, tmp_path, capsys, deltas):
        path = write_config(tmp_path, "gen.json",
                            {"generator": {"c0": 1.0, "gamma": math.pi**2, "deltas": deltas},
                             "x": [0.0]})
        assert run(["gen", "--config", path]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "deltas" in err

    def test_delta_too_small_for_the_gaussian_rate_exits_2(self, tmp_path, capsys):
        # 1/(2a|delta|) overflows at gamma = 1e300 (a = 9.9e-300), delta = 1e-10.
        path = write_config(tmp_path, "gen.json",
                            {"generator": {"c0": 1.0, "gamma": 1e300, "deltas": [1e-10]},
                             "x": [0.0]})
        assert run(["gen", "--config", path]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "deltas" in err

    @pytest.mark.parametrize("command,payload", [
        ("eval", {"generator": {"c0": 1.0, "gamma": 1e-10, "deltas": []},
                  "coeffs": PAIR, "x": [0.0]}),
        ("experiment", {"generator": GAUSS, "densities": [2.5], "trials": 1, "seed": 3,
                        "support": [-1000000, 1000000], "window": [-4.0, 4.0],
                        "max_changes": 8}),
        ("retrieve", {"generator": GAUSS,
                      "sample": {"points": {"points": list(np.arange(2000.0)),
                                            "window": [-1.0, 2000.0]},
                                 "magnitudes": [1.0] * 2000},
                      "support": [0, 1999], "max_changes": 3}),
        ("eval", {"generator": GAUSS, "coeffs": {"offset": 0, "coeffs": [1.0] * 60000},
                  "x": [0.0]}),
        ("retrieve", {"generator": GAUSS,
                      "sample": {"points": {"points": list(np.arange(1000.0)),
                                            "window": [-1.0, 1000.0]},
                                 "magnitudes": [1.0] * 1000},
                      "support": [0, 999], "max_changes": 3}),
    ])
    def test_oversized_table_exits_2_in_bounded_memory(self, tmp_path, command, payload):
        # The first eval table and the experiment's check-grid design matrix
        # would need hundreds of millions of samples, the first retrieve
        # design matrix four million (and its sign search far more).  The
        # 60,000-coefficient eval sums 2.4 million piece coefficients, and the
        # 1000-point retrieve fits its design matrix but its sign search
        # would keep 170 million level-transform entries.  The caps refuse them
        # before anything that large is allocated.
        path = write_config(tmp_path, "big.json", payload)
        proc = run_in_768_mib(command, path)
        assert proc.returncode == 2, proc.stderr
        assert "samples" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_interlace_suite(self, tmp_path):
        rng = np.random.default_rng(2)
        path = write_config(tmp_path, "i.json",
                            {"generator": {"c0": 1.0, "gamma": math.pi**2,
                                           "deltas": [0.45]},
                             "coeffs": {"offset": -8,
                                        "coeffs": rng.standard_normal(17).tolist()},
                             "interval": [-12.0, 12.0], "ts": [5.0, 10.0]})
        assert run(["interlace", "--config", path, "--quiet"]) == 0

    def test_retrieve_command(self, tmp_path):
        pts = (np.arange(-12, 16) / 3.0).tolist()
        g = lambda x: math.sqrt(1 / math.pi) * math.exp(-x * x)
        mags = [abs(g(x) - g(x - 1)) for x in pts]
        path = write_config(tmp_path, "r.json",
                            {"generator": GAUSS,
                             "sample": {"points": {"points": pts,
                                                   "window": [-4.0, 5.0]},
                                        "magnitudes": mags},
                             "support": [0, 1], "max_changes": 3})
        out = tmp_path / "ret.json"
        assert run(["retrieve", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["sign_changes"] == 1
        assert report["result"]["patterns"] >= 1
        assert report["result"]["nodes"] >= len(pts) - 1
        assert report["result"]["second_pass"] is False
        # The magnitude floor is far below 1e-12 times these magnitudes.
        path = write_config(tmp_path, "tiny.json",
                            {"generator": GAUSS,
                             "sample": {"points": {"points": pts, "window": [-4.0, 5.0]},
                                        "magnitudes": [1e-12 * m for m in mags]},
                             "support": [0, 1], "max_changes": 3})
        assert run(["retrieve", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["result"]["signs"] == report["result"]["signs"]

    def test_retrieve_budget_failure_exits_3(self, tmp_path):
        pts = (np.arange(-12, 16) / 3.0).tolist()
        g = lambda x: math.sqrt(1 / math.pi) * math.exp(-x * x)
        mags = [abs(g(x) - g(x - 1)) for x in pts]
        path = write_config(tmp_path, "r3.json",
                            {"generator": GAUSS,
                             "sample": {"points": {"points": pts,
                                                   "window": [-4.0, 5.0]},
                                        "magnitudes": mags},
                             "support": [0, 1], "max_changes": 0})
        assert run(["retrieve", "--config", path, "--quiet"]) == 3


class TestExperimentCommand:
    def test_experiment_reports_and_determinism(self, tmp_path):
        payload = {"generator": GAUSS, "densities": [2.5], "trials": 3,
                   "seed": 11, "support": [-4, 4], "window": [-6.0, 6.0],
                   "max_changes": 14}
        path = write_config(tmp_path, "exp.json", payload)
        out1 = tmp_path / "exp1.csv"
        out2 = tmp_path / "exp2.csv"
        assert run(["experiment", "--config", path, "--out", str(out1),
                    "--format", "csv", "--quiet"]) == 0
        assert run(["experiment", "--config", path, "--out", str(out2),
                    "--format", "csv", "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[1] == "density,trials,successes,mean_residual"
        assert lines[2].startswith("2.5,3,3,")

    def test_seed_flag_feeds_config(self, tmp_path):
        payload = {"generator": GAUSS, "densities": [2.5], "trials": 2,
                   "support": [-4, 4], "window": [-6.0, 6.0], "max_changes": 14}
        path = write_config(tmp_path, "exp2.json", payload)
        out = tmp_path / "exp.json.out"
        assert run(["experiment", "--config", path, "--out", str(out),
                    "--seed", "77", "--quiet"]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["config"]["seed"] == 77

    @pytest.mark.parametrize("changes", [{"densities": [0.01]}, {"window": [0.0, 0.1]}])
    def test_too_few_samples_count_as_rank_deficient(self, tmp_path, changes):
        # Each trial draws fewer samples than coefficients, here none at all.
        payload = {"generator": GAUSS, "densities": [2.5], "trials": 3, "seed": 5,
                   "support": [-4, 4], "window": [-6.0, 6.0], "max_changes": 14, **changes}
        path = write_config(tmp_path, "sparse.json", payload)
        out = tmp_path / "sparse.out.json"
        assert run(["experiment", "--config", path, "--out", str(out), "--quiet"]) == 0
        [row] = json.loads(out.read_text())["result"]["rows"]
        assert row["rank_deficient"] == row["trials"] == 3

    def test_samples_far_from_the_support_count_as_rank_deficient(self, tmp_path):
        # Every magnitude underflows to 0 and the design matrix is all zeros:
        # the condition check refuses it before the magnitudes are checked.
        payload = {"generator": GAUSS, "densities": [2.5], "trials": 2, "seed": 5,
                   "support": [-4, 4], "window": [100, 108], "max_changes": 14}
        path = write_config(tmp_path, "far.json", payload)
        out = tmp_path / "far.out.json"
        assert run(["experiment", "--config", path, "--out", str(out), "--quiet"]) == 0
        [row] = json.loads(out.read_text())["result"]["rows"]
        assert row["rank_deficient"] == row["trials"] == 2
        far = dict(RETRIEVE, support=[-4, 4],
                   sample={"points": {"points": [100.0, 102.0, 104.0, 106.0, 108.0,
                                                 110.0, 112.0, 114.0, 116.0],
                                      "window": [99.0, 117.0]},
                           "magnitudes": [0.0] * 9})
        assert run(["retrieve", "--config", write_config(tmp_path, "far_r.json", far),
                    "--quiet"]) == 3


class TestExitCodeMapping:
    def test_verification_error_maps_to_4(self, tmp_path, monkeypatch):
        def boom(data, seed):
            raise ChainViolationError("relation failed")
        monkeypatch.setitem(cli._HANDLERS, "jensen", boom)
        path = write_config(tmp_path, "x.json", {"anything": 1})
        assert run(["jensen", "--config", path, "--quiet"]) == 4

    def test_numerical_error_maps_to_3(self, tmp_path, monkeypatch):
        def boom(data, seed):
            raise QuadratureError("did not converge")
        monkeypatch.setitem(cli._HANDLERS, "gen", boom)
        path = write_config(tmp_path, "y.json", {"anything": 1})
        assert run(["gen", "--config", path, "--quiet"]) == 3

    def test_relation_flag_false_maps_to_4(self, tmp_path, monkeypatch):
        def fake(data, seed):
            return {"ok": False}, [("ok",), (False,)], False
        monkeypatch.setitem(cli._HANDLERS, "lemma1", fake)
        path = write_config(tmp_path, "z.json", {"anything": 1})
        assert run(["lemma1", "--config", path, "--quiet"]) == 4


# Besides small values, the fuzz draws integers at the int64 edges, 1e18 and
# 1e300, and the tiny 1e-300 and 5e-324 (the smallest subnormal), which every
# size and range check must refuse or handle without an overflow or
# underflow; it does not ask how much work an extreme but valid size (a tiny
# gamma, a huge interval) takes.
_NUMBERS = st.one_of(st.integers(-3, 8),
                     st.sampled_from([0.0, -1.5, 0.5, 2.5, 7.0, math.nan, math.inf,
                                      -math.inf, 2**63, -2**63, 2**63 - 1, 1e18,
                                      -1e18, 1e300, -1e300, 1e-300, 5e-324]))
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=2))
_VALUES = st.recursive(
    _SCALARS, lambda kids: st.one_of(st.lists(kids, max_size=3),
                                     st.dictionaries(st.text(max_size=2), kids, max_size=2)),
    max_leaves=5)


def _field_paths(config, prefix=()):
    paths = []
    for key, value in config.items():
        paths.append(prefix + (key,))
        if isinstance(value, dict):
            paths += _field_paths(value, prefix + (key,))
    return paths


@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_schema_fuzz_exit_codes_are_documented(tmp_path, data):
    command = data.draw(st.sampled_from(sorted(BASE_CONFIGS)))
    config = copy.deepcopy(BASE_CONFIGS[command])
    path = data.draw(st.sampled_from(_field_paths(config)))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        parent[path[-1]] = data.draw(_VALUES)
    else:
        del parent[path[-1]]
    cfg = tmp_path / "fuzz.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", str(cfg), "--quiet"]) in {0, 2, 3, 4}


# Every numeric leaf of BASE_CONFIGS (a number, or a nonempty list of numbers
# whose entries all change together) takes each of these values in turn.
_EXTREMES = (1e300, -1e300, 1e-300, 5e-324, 0.0)


def _numeric_leaves(config, prefix=()):
    def numeric(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    paths = []
    for key, value in config.items():
        if isinstance(value, dict):
            paths += _numeric_leaves(value, prefix + (key,))
        elif numeric(value) or (isinstance(value, list) and value
                                and all(numeric(v) for v in value)):
            paths.append(prefix + (key,))
    return paths


def _nonfinite(obj, path=()):
    """(path, value) of every non-finite float in a parsed report."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [(path, obj)]
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    return [hit for key, value in items for hit in _nonfinite(value, path + (key,))]


def test_extreme_numbers_in_every_numeric_field_keep_the_contract(tmp_path):
    # Unlike the fuzz, this reaches every field with every extreme and reads
    # each report: an exit-0 report is strict JSON, except for the
    # experiment's documented NaN mean_residual of a row without residuals.
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
    violations = []
    for command, base in BASE_CONFIGS.items():
        for path in _numeric_leaves(base):
            for value in _EXTREMES:
                config = copy.deepcopy(base)
                parent = config
                for key in path[:-1]:
                    parent = parent[key]
                leaf = parent[path[-1]]
                parent[path[-1]] = [value] * len(leaf) if isinstance(leaf, list) else value
                cfg_path.write_text(json.dumps(config))
                out.unlink(missing_ok=True)
                case = (command, path, value)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        code = run([command, "--config", str(cfg_path), "--out", str(out),
                                    "--quiet"])
                except Exception as exc:
                    violations.append(case + (repr(exc),))
                    continue
                if code not in {0, 2, 3, 4}:
                    violations.append(case + (code,))
                elif code == 0:
                    violations += [case + hit for hit in _nonfinite(json.loads(out.read_text()))
                                   if not (command == "experiment" and math.isnan(hit[1])
                                           and hit[0][-1] == "mean_residual")]
    assert not violations
