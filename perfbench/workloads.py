"""The four benchmark workloads: seeded inputs, one instance each, output checks.

Each workload owns a fixed pool of inputs generated from CORPUS_SEED, and
`reference.json` holds every pool entry's output as recorded by
`record_reference.py`.  A run's seed picks the order in which the pool is
visited (a seeded permutation, wrapping around if the run outlasts it), so
the same seed gives the same inputs and every instance can be checked
against a recorded reference as well as against the paper's relations.

The shapes follow the acceptance criteria of the test suite:

* zero_density (criterion 4) -- warm shared tables, `find_zeros` plus
  `circ_density_direct`; exercises sispace evaluation and scanning only.
* interlace (criterion 6) -- `apply_rolle_op` builds fresh tables for the
  reduced generator in every instance, then two zero scans and the
  interlacing and segment relations.
* jensen_chain (criterion 5) -- `build_context` and `verify_base_case`,
  the only workload that runs the entire-extension code.
* sign_retrieval (criterion 7) -- one `run_threshold_experiment` call per
  (m, density) cell, each also sweeping a density below the sampling
  threshold, where every trial ends in a rank-deficient design matrix.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import tpshift as tp

CORPUS_SEED = 20261017
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

GAMMA = math.pi**2  # unit time-domain Gaussian rate, as in the acceptance suite
DELTAS_BY_M = {0: (), 1: (0.45,), 2: (0.45, -0.3), 3: (0.45, -0.3, 0.2)}
# Floats are compared to the reference with this absolute slack: loose enough
# for evaluation changes at the 1e-13 level, tight against wrong answers.
FLOAT_TOL = 1e-8


def _params(m: int) -> tp.GeneratorParams:
    return tp.GeneratorParams(1.0, GAMMA, DELTAS_BY_M[m])


def _corpus_rng(workload_key: int, entry: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(CORPUS_SEED, spawn_key=(workload_key, entry))))


def _shared_tables(params: tp.GeneratorParams, n_coeffs: int) -> tuple:
    probe = tp.SISFunction(params, tp.CoeffSeq(0, (1.0,) * n_coeffs))
    return probe.table, probe.deriv_table


def _close(name: str, got: float, want: float, problems: list):
    if not abs(got - want) <= FLOAT_TOL:
        problems.append(f"{name} {got!r} differs from reference {want!r}")


def _equal(name: str, got, want, problems: list):
    if got != want:
        problems.append(f"{name} {got!r} differs from reference {want!r}")


class ZeroDensity:
    """Criterion-4 records: zero-set chord density at r = 15 and r = 60.

    One instance covers both scales of one record (K = 40 on [-20, 20] and
    K = 136 on [-64, 64]), so instance times form one cluster instead of two
    and the median does not sit in the gap between them.
    """

    name = "zero_density"
    pool_size = 256
    scales = ((40, 20.0, 15.0), (136, 64.0, 60.0))  # (K, scan half-width, r)

    def make_input(self, entry: int) -> dict:
        rng = _corpus_rng(1, entry)
        return {"entry": entry, "m": entry % 4,
                "coeffs": [rng.standard_normal(k) for k, _, _ in self.scales]}

    def setup(self):
        self.tables = {(m, k): _shared_tables(_params(m), k)
                       for m in DELTAS_BY_M for k, _, _ in self.scales}

    def run(self, inp: dict) -> dict:
        params = _params(inp["m"])
        zeros, density = [], []
        for (k, half, r), c in zip(self.scales, inp["coeffs"]):
            table, deriv = self.tables[(inp["m"], k)]
            f = tp.SISFunction(params, tp.CoeffSeq(-k // 2, tuple(c)),
                               table=table, deriv_table=deriv)
            z = tp.find_zeros(f, (-half, half))
            zeros.append(len(z))
            density.append(tp.circ_density_direct(z, [r]).values[0])
        return {"zeros": zeros, "density": density}

    def check(self, out: dict, ref: dict) -> list:
        problems = []
        _equal("zero counts", out["zeros"], ref["zeros"], problems)
        for (_, _, r), d, d_ref in zip(self.scales, out["density"], ref["density"]):
            _close(f"density at r={r:g}", d, d_ref, problems)
            if not d <= 1.0 + 40.0 / r:
                problems.append(f"density {d} at r={r:g} exceeds 1 + 40/r")
        return problems


class Interlace:
    """Criterion-6 instances: zeros of f and f + delta*f' interlace."""

    name = "interlace"
    pool_size = 384
    n_coeffs = 57
    interval = (-22.0, 22.0)
    ts = (5.0, 10.0, 20.0)

    def make_input(self, entry: int) -> dict:
        rng = _corpus_rng(2, entry)
        return {"entry": entry, "m": 1 + entry % 3,
                "coeffs": rng.standard_normal(self.n_coeffs)}

    def setup(self):
        self.tables = {m: _shared_tables(_params(m), self.n_coeffs) for m in (1, 2, 3)}

    def run(self, inp: dict) -> dict:
        params = _params(inp["m"])
        table, deriv = self.tables[inp["m"]]
        f = tp.SISFunction(params, tp.CoeffSeq(-(self.n_coeffs // 2), tuple(inp["coeffs"])),
                           table=table, deriv_table=deriv)
        f1 = tp.apply_rolle_op(f, params.deltas[-1])
        zf = tp.find_zeros(f, self.interval)
        zf1 = tp.find_zeros(f1, self.interval)
        interlacing = tp.check_interlacing(zf, zf1).ok
        segments = all(tp.segment_inequality(zf, zf1, t).ok for t in self.ts)
        return {"zeros": [len(zf), len(zf1)], "interlacing": interlacing,
                "segments": segments}

    def check(self, out: dict, ref: dict) -> list:
        problems = []
        _equal("zero counts", out["zeros"], ref["zeros"], problems)
        if out["interlacing"] is not True:
            problems.append("zeros of f and f1 do not interlace")
        if out["segments"] is not True:
            problems.append("segment inequality fails")
        return problems


class JensenChain:
    """Criterion-5 instances: the zero-count / contour-average / growth chain."""

    name = "jensen_chain"
    pool_size = 256
    n_coeffs = 40
    radii = (2.0, 4.0, 8.0)

    def make_input(self, entry: int) -> dict:
        rng = _corpus_rng(3, entry)
        c = rng.uniform(0.9, 1.1, self.n_coeffs) * (-1.0) ** np.arange(self.n_coeffs)
        return {"entry": entry, "coeffs": c}

    def setup(self):
        self.params = _params(0)
        self.tables = _shared_tables(self.params, self.n_coeffs)

    def run(self, inp: dict) -> dict:
        table, deriv = self.tables
        f = tp.SISFunction(self.params, tp.CoeffSeq(-self.n_coeffs // 2, tuple(inp["coeffs"])),
                           table=table, deriv_table=deriv)
        ctx = tp.build_context(f)
        report = tp.verify_base_case(ctx, self.radii)
        return {"zeros": len(ctx.real_zeros), "order": ctx.order,
                "r": [row.r for row in report.rows],
                "lhs": [row.lhs for row in report.rows],
                "rhs": [row.rhs for row in report.rows],
                "extra_zeros": [row.extra_zeros for row in report.rows],
                "circ": list(report.circ_values)}

    def check(self, out: dict, ref: dict) -> list:
        problems = []
        _equal("real zero count", out["zeros"], ref["zeros"], problems)
        _equal("order at the origin", out["order"], ref["order"], problems)
        _equal("extra zeros", out["extra_zeros"], [0] * len(self.radii), problems)
        for r, lhs, rhs, circ, lhs_ref in zip(out["r"], out["lhs"], out["rhs"],
                                              out["circ"], ref["lhs"]):
            _close(f"zero sum at r={r:g}", lhs, lhs_ref, problems)
            if not abs(lhs - rhs) <= 2e-6:
                problems.append(f"|lhs - rhs| = {abs(lhs - rhs):.3e} at r={r:g}")
            if not circ <= 1.0 + 40.0 / r:
                problems.append(f"zero-set density {circ} at r={r:g} exceeds 1 + 40/r")
        return problems


class SignRetrieval:
    """Criterion-7 cells: one threshold-experiment call per (m, density) cell.

    Entries cycle through the nine cells m in {0, 1, 2} x density in
    {2.2, 2.5, 3.0}.  Each call also sweeps density 0.8, below the sampling
    threshold, where every trial ends in a rank-deficient design matrix; a
    separate cheap instance for it would put a cluster of fast instances at
    the bottom of the time distribution.  Every trial recovers the sign
    above the threshold and none does below it, so the success count per
    row fixes each trial's success flag.
    """

    name = "sign_retrieval"
    pool_size = 144
    trials = 2
    above = (2.2, 2.5, 3.0)
    below = 0.8

    def make_input(self, entry: int) -> dict:
        cell = entry % 9
        seed = int(np.random.SeedSequence(CORPUS_SEED, spawn_key=(4, entry))
                   .generate_state(1)[0])
        config = tp.ExperimentConfig(generator=_params(cell // 3),
                                     densities=(self.below, self.above[cell % 3]),
                                     trials=self.trials, seed=seed, support=(-8, 8),
                                     window=(-10.0, 10.0), max_changes=22)
        return {"entry": entry, "config": config}

    def setup(self):
        pass

    def run(self, inp: dict) -> dict:
        report = tp.run_threshold_experiment(inp["config"])
        return {"density": [row.density for row in report.rows],
                "trials": [row.trials for row in report.rows],
                "successes": [row.successes for row in report.rows]}

    def check(self, out: dict, ref: dict) -> list:
        problems = []
        _equal("successes", out["successes"], ref["successes"], problems)
        for density, trials, successes in zip(out["density"], out["trials"], out["successes"]):
            rate = successes / trials
            if density > 2.0 and rate != 1.0:
                problems.append(f"success rate {rate} at density {density}")
            if density < 1.0 and rate > 0.5:
                problems.append(f"success rate {rate} below the threshold at {density}")
        return problems


WORKLOADS = {w.name: w for w in (ZeroDensity, Interlace, JensenChain, SignRetrieval)}


def run_order(workload, seed: int) -> list:
    """Pool entries in the order a run with this seed visits them."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return [int(p) for p in rng.permutation(workload.pool_size)]


def load_reference(name: str) -> list:
    with open(REFERENCE_PATH) as fh:
        data = json.load(fh)
    if data["corpus_seed"] != CORPUS_SEED:
        raise ValueError("reference.json was recorded for another corpus seed")
    return data["workloads"][name]
