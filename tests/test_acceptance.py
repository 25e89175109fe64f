"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria 4 and 7 build canonical report strings; criterion 10 rebuilds them
from scratch and requires byte identity.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import tpshift as tp
from tpshift.jensen import _stable_terms

GAMMA = math.pi**2  # unit time-domain rate
DELTAS_BY_M = {0: (), 1: (0.45,), 2: (0.45, -0.3), 3: (0.45, -0.3, 0.2)}

_report_cache = {}


def _pass_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {num:02d}] {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _cached(name, builder):
    if name not in _report_cache:
        _report_cache[name] = builder()
    return _report_cache[name]


# ---------------------------------------------------------------- corpora

def _seeded_rng(*key):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(20260401, spawn_key=key)))


def _lattice_points(beta, extent):
    n = int(math.floor(extent / beta))
    return tp.PointSet(points=tuple(np.arange(-n, n + 1) * beta),
                       window=(-extent, extent))


def _shared_fn(tables, params, offset, coeffs):
    """A SISFunction over the g and g' tables kept in `tables` for its generator.

    Tables depend on the generator alone; each caller owns its dict, so a
    rerun of a report builder builds its tables afresh.
    """
    if params not in tables:
        probe = tp.SISFunction(params, tp.CoeffSeq(0, (1.0,)))
        tables[params] = (probe.table, probe.deriv_table)
    table, deriv = tables[params]
    return tp.SISFunction(params, tp.CoeffSeq(offset, tuple(coeffs)),
                          table=table, deriv_table=deriv)


def _alternating(params, rng, n_shifts, tables):
    c = rng.uniform(0.9, 1.1, n_shifts) * (-1.0) ** np.arange(n_shifts)
    return _shared_fn(tables, params, -n_shifts // 2, c)


def build_zero_density_report():
    """Criterion 4 payload: chord-density of zero sets at two scales."""
    records = []
    tables = {}
    for i in range(50):
        m = i % 4
        params = tp.GeneratorParams(1.0, GAMMA, DELTAS_BY_M[m])
        rng = _seeded_rng(4, i)
        rec = {"seed": i, "m": m}
        for label, n_coeffs, scan, r in (("r15", 40, 20.0, 15.0),
                                         ("r60", 136, 64.0, 60.0)):
            f = _shared_fn(tables, params, -n_coeffs // 2, rng.standard_normal(n_coeffs))
            zeros = tp.find_zeros(f, (-scan, scan))
            rec[label] = tp.circ_density_direct(zeros, [r]).values[0]
        records.append(rec)
    return json.dumps(records, sort_keys=True)


def build_experiment_reports():
    """Criterion 7 payload: threshold-sweep CSV per generator."""
    texts = {}
    rates = {}
    for m in (0, 1, 2):
        params = tp.GeneratorParams(1.0, GAMMA, DELTAS_BY_M[m])
        cfg = tp.ExperimentConfig(generator=params, densities=(2.2, 2.5, 3.0),
                                  trials=50, seed=777000 + m, support=(-8, 8),
                                  window=(-10.0, 10.0), max_changes=22)
        report = tp.run_threshold_experiment(cfg)
        texts[m] = report.csv_text()
        rates[m] = report.success_rates()
    params = tp.GeneratorParams(1.0, GAMMA)
    low = tp.ExperimentConfig(generator=params, densities=(0.8,), trials=50,
                              seed=777100, support=(-8, 8), window=(-10.0, 10.0),
                              max_changes=22)
    low_report = tp.run_threshold_experiment(low)
    texts["low"] = low_report.csv_text()
    rates["low"] = low_report.success_rates()
    return {"texts": texts, "rates": rates}


# ---------------------------------------------------------------- criteria

def test_criterion_01_density_oracle_on_lattices():
    t0 = time.time()
    alphas = (0.5, 1.0, math.pi / 3.0)
    worst_value = 0.0
    worst_gap = 0.0
    for beta in (1.0 / 3.0, 0.5, 1.0, 2.0):
        pts = _lattice_points(beta, 2000.0)
        target = 1.0 / beta
        direct = tp.circ_density_direct(pts, [500.0]).values[0]
        beurling = tp.beurling_lower_profile(pts, [500.0]).values[0]
        lattices = [tp.circ_density_lattice(pts, a, [500.0]).values[0]
                    for a in alphas]
        for v in [direct, beurling] + lattices:
            worst_value = max(worst_value, abs(v - target))
        for v in lattices:
            worst_gap = max(worst_gap, abs(direct - v))
    elapsed = time.time() - t0
    ok = worst_value <= 0.02 and worst_gap <= 0.02 and elapsed < 10.0
    _pass_line(1, "density oracle on lattices", ok,
               f"max |value - 1/beta| = {worst_value:.4f}, "
               f"max form gap = {worst_gap:.4f}, {elapsed:.1f}s")


def test_criterion_02_inner_integral_closed_form():
    t0 = time.time()
    rng = _seeded_rng(2)
    worst = 0.0
    for _ in range(1000):
        r = rng.uniform(0.5, 20.0)
        lam = rng.uniform(0.0, 1.2 * r)
        if lam >= r:
            oracle = 0.0
        else:
            oracle, err = quad(
                lambda t: math.sqrt(max(t * t - lam * lam, 0.0)) / t,
                max(lam, 1e-300), r, epsabs=1e-13, epsrel=1e-13, limit=200)
            assert err < 1e-11
        worst = max(worst, abs(tp.circ_inner_integral(lam, r) - oracle))
    spot = abs(tp.circ_inner_integral(3.0, 5.0) - (4.0 - 3.0 * math.acos(0.6)))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and spot <= 1e-10 and elapsed < 1.0
    _pass_line(2, "closed-form inner integral", ok,
               f"max quad gap = {worst:.2e}, spot gap = {spot:.2e}, {elapsed:.2f}s")


def test_criterion_03_subadditivity():
    rng = _seeded_rng(3)
    radii = [10.0, 30.0, 49.0]
    worst_excess = -math.inf
    worst_disjoint_gap = 0.0
    for trial in range(100):
        a = np.sort(rng.uniform(-50, 50, 30))
        if trial % 2 == 0:
            b = np.sort(rng.uniform(-50, 50, 25))
            disjoint = True
        else:
            shared = rng.choice(a, 10, replace=False)
            b = np.sort(np.unique(np.concatenate(
                [shared, rng.uniform(-50, 50, 15)])))
            disjoint = False
        l1 = tp.PointSet(points=tuple(a), window=(-50.0, 50.0))
        l2 = tp.PointSet(points=tuple(b), window=(-50.0, 50.0))
        report = tp.circ_subadditivity(l1, l2, radii)
        for row in report.rows:
            worst_excess = max(worst_excess, row.union_value - row.sum_value)
            if disjoint:
                worst_disjoint_gap = max(worst_disjoint_gap,
                                         abs(row.union_value - row.sum_value))
    ok = worst_excess <= 1e-12 and worst_disjoint_gap <= 1e-12
    _pass_line(3, "finite-radius subadditivity", ok,
               f"max excess = {worst_excess:.2e}, "
               f"max disjoint gap = {worst_disjoint_gap:.2e}")


def test_criterion_04_zero_set_density_bound():
    t0 = time.time()
    report = _cached("criterion4", build_zero_density_report)
    records = json.loads(report)
    assert len(records) == 50
    worst15 = max(rec["r15"] for rec in records)
    worst60 = max(rec["r60"] for rec in records)
    elapsed = time.time() - t0
    ok = worst15 <= 1.0 + 40.0 / 15.0 and worst60 <= 1.0 + 40.0 / 60.0 \
        and elapsed < 120.0
    _pass_line(4, "zero-set chord density bound", ok,
               f"max at r=15: {worst15:.3f} (cap {1 + 40 / 15:.3f}), "
               f"max at r=60: {worst60:.3f} (cap {1 + 40 / 60:.3f}), {elapsed:.1f}s")


def test_criterion_05_contour_chain():
    t0 = time.time()
    tables = {}
    params = tp.GeneratorParams(1.0, GAMMA)
    worst_eq = 0.0
    worst_bound = -math.inf
    worst_link = -math.inf
    for i in range(20):
        rng = _seeded_rng(5, i)
        f = _alternating(params, rng, 40, tables)
        ctx = tp.build_context(f)
        report = tp.verify_base_case(ctx, [2.0, 4.0, 8.0])
        for row in report.rows:
            assert row.extra_zeros == 0
            worst_eq = max(worst_eq, abs(row.lhs - row.rhs))
            worst_bound = max(worst_bound, row.lhs - row.bound,
                              row.rhs - row.bound)
            worst_link = max(worst_link, row.circ_scaled - row.lhs - 20.0 / row.r)
    elapsed = time.time() - t0
    ok = worst_eq <= 2e-6 and worst_bound <= 1e-6 and worst_link <= 0.0 \
        and elapsed < 60.0
    _pass_line(5, "zero-count / contour-average chain", ok,
               f"max |lhs-rhs| = {worst_eq:.2e}, max over-bound = {worst_bound:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_06_interlacing_and_segments():
    tables = {}
    n_ok_interlace = 0
    n_ok_segment = 0
    for i in range(100):
        m = 1 + i % 3
        params = tp.GeneratorParams(1.0, GAMMA, DELTAS_BY_M[m])
        rng = _seeded_rng(6, i)
        f = _shared_fn(tables, params, -28, rng.standard_normal(57))
        f1 = tp.apply_rolle_op(f, params.deltas[-1])
        zf = tp.find_zeros(f, (-22.0, 22.0))
        zf1 = tp.find_zeros(f1, (-22.0, 22.0))
        if tp.check_interlacing(zf, zf1).ok:
            n_ok_interlace += 1
        if all(tp.segment_inequality(zf, zf1, t).ok for t in (5.0, 10.0, 20.0)):
            n_ok_segment += 1
    ok = n_ok_interlace == 100 and n_ok_segment == 100
    _pass_line(6, "zero interlacing under first-order reduction", ok,
               f"interlacing {n_ok_interlace}/100, segments {n_ok_segment}/100")


def test_criterion_07_sign_retrieval_threshold():
    t0 = time.time()
    data = _cached("criterion7", build_experiment_reports)
    elapsed = time.time() - t0
    rates = data["rates"]
    ok_high = all(rates[m] == (1.0, 1.0, 1.0) for m in (0, 1, 2))
    ok_low = rates["low"][0] <= 0.5
    ok = ok_high and ok_low and elapsed < 300.0
    _pass_line(7, "sign retrieval above the density threshold", ok,
               f"rates m=0..2: {[rates[m] for m in (0, 1, 2)]}, "
               f"rate at 0.8: {rates['low'][0]:.2f}, {elapsed:.1f}s")


def test_criterion_08_solver_oracle_agreement():
    params = tp.GeneratorParams(1.0, GAMMA)
    tables = {}
    n_match = 0
    n_done = 0
    i = 0
    while n_done < 200:
        rng = _seeded_rng(8, i)
        i += 1
        f = _shared_fn(tables, params, -1, rng.standard_normal(3))
        lo, hi = -2.0, 2.6
        spacing = 1.0 / 2.6
        n = int((hi - lo) / spacing)
        pts = lo + (np.arange(n) + 0.5) * spacing \
            + rng.uniform(-0.25 * spacing, 0.25 * spacing, n)
        pts = np.unique(np.clip(pts, lo, hi))
        if len(pts) > 13:
            continue
        lam = tp.PointSet(points=tuple(pts), window=(lo, hi))
        truth = tp.eval_f(f, lam.as_array())
        if int(np.sum(np.sign(truth[:-1]) != np.sign(truth[1:]))) > 3:
            continue
        sample = tp.sample_magnitudes(f, lam)
        a = tp.solve_signs(params, sample, (-1, 1), 3)
        b = tp.brute_force_signs(params, sample, (-1, 1), 3)
        n_done += 1
        if a.signs == b.signs:
            n_match += 1
    ok = n_match == 200
    _pass_line(8, "solver agrees with exhaustive oracle", ok,
               f"{n_match}/200 identical canonical patterns")


def test_criterion_09_vertical_zero_lattice():
    tables = {}
    params = tp.GeneratorParams(1.0, GAMMA)
    worst = -math.inf
    for i in range(50):
        rng = _seeded_rng(9, i)
        f = _alternating(params, rng, 40, tables)
        ctx = tp.build_context(f)
        assert len(ctx.real_zeros.points) > 0
        lam = ctx.real_zeros.as_array()
        ks = np.arange(-3, 4)
        zs = lam[:, None] + 1j * ctx.lattice_step * ks[None, :]
        _, inner = _stable_terms(f, zs)
        worst = max(worst, float(np.log10(np.max(np.abs(inner)) + 1e-300)))
    ok = worst < -6.0
    _pass_line(9, "zero set repeats on the vertical lattice", ok,
               f"max log10 relative magnitude = {worst:.2f}")


def test_sampling_ratio_band_recorded():
    # Informational companion to the criteria: the sup-norm of f over a
    # window against its sup over half-integer samples.  The band is
    # recorded; no finite-scale constant is available to assert against.
    params = tp.GeneratorParams(1.0, GAMMA)
    tables = {}
    ratios = []
    for i in range(100):
        rng = _seeded_rng(0, i)
        f = _shared_fn(tables, params, -12, rng.standard_normal(25))
        grid = np.linspace(-6.0, 6.0, 2401)
        samples = np.arange(-6.0, 6.25, 0.5)
        ratios.append(np.max(np.abs(tp.eval_f(f, grid)))
                      / np.max(np.abs(tp.eval_f(f, samples))))
    ok = min(ratios) >= 1.0 - 1e-12 and math.isfinite(max(ratios))
    _pass_line(0, "sampling ratio band (recorded, informational)", ok,
               f"ratio in [{min(ratios):.4f}, {max(ratios):.4f}] over 100 draws")


def test_criterion_10_determinism():
    first4 = _cached("criterion4", build_zero_density_report)
    second4 = build_zero_density_report()
    first7 = _cached("criterion7", build_experiment_reports)
    second7 = build_experiment_reports()
    ok4 = first4 == second4
    ok7 = all(first7["texts"][k] == second7["texts"][k] for k in first7["texts"])
    _pass_line(10, "byte-identical reruns of criteria 4 and 7", ok4 and ok7,
               f"criterion4 identical: {ok4}, criterion7 identical: {ok7}")
